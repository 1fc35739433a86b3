//! The seeded MiniVM program generator.
//!
//! [`generate`] maps `(seed, FuzzConfig)` to a [`Program`],
//! deterministically. The grammar deliberately covers the constructs the
//! paper motivates a *dynamic* profiler with — patterns static analysis
//! cannot resolve — and the ones hand-written workloads under-exercise:
//!
//! - loop nests of configurable depth with constant trip counts (so every
//!   generated program terminates by construction),
//! - array indirection `A[B[i]]` and `Rand`-driven data-dependent indices
//!   (the interpreter wraps indices modulo the array length, so *any*
//!   index expression is memory-safe),
//! - reductions `s += ...` / `A[i] += ...` (read-modify-write pairs that
//!   produce RAW+WAR+WAW at one location),
//! - conditional accesses under loop-variant predicates,
//! - lock regions (always emitted as a flat `Lock; accesses; Unlock`
//!   triple — never nested, so generated MT programs cannot deadlock),
//! - helper-function calls, array lifetime events (`Free`), and fork-join
//!   `Spawn` sections with top-level barriers for MT targets.
//!
//! A worst-case *event budget* bounds the dynamic access count: each
//! statement is charged `loads × enclosing-trip-product` when generated,
//! and generation stops adding work once the budget is spent. That keeps
//! every seed cheap enough to drive the full differential oracle.

use super::rng::FuzzRng;
use dp_trace::ir::{ArrayDecl, BinOp, Expr, FuncId, LoopInfo, Program, ScalarDecl, Stmt};
use dp_types::{Interner, LoopId, SourceLoc};

/// Shape knobs for the generator. All bounds are inclusive maxima.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Deepest allowed loop nesting.
    pub max_loop_depth: u32,
    /// Most statements per block (function body, loop body, branch arm).
    pub max_block_stmts: u32,
    /// Most global arrays (at least 1 is always declared).
    pub max_arrays: u32,
    /// Most global scalars (at least 1 is always declared).
    pub max_scalars: u32,
    /// Smallest array length.
    pub min_array_len: u64,
    /// Largest array length.
    pub max_array_len: u64,
    /// Largest loop trip count.
    pub max_trip: i64,
    /// Worst-case traced-access budget for one program.
    pub event_budget: u64,
    /// Allow fork-join `Spawn` programs (multi-threaded targets).
    pub mt: bool,
    /// Most target threads a `Spawn` forks.
    pub max_threads: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_loop_depth: 3,
            max_block_stmts: 5,
            max_arrays: 4,
            max_scalars: 3,
            min_array_len: 4,
            max_array_len: 48,
            max_trip: 6,
            event_budget: 20_000,
            mt: false,
            max_threads: 4,
        }
    }
}

impl FuzzConfig {
    /// A smaller shape for `--quick` runs: shallower nests, fewer events.
    pub fn quick() -> Self {
        FuzzConfig {
            max_loop_depth: 2,
            max_block_stmts: 4,
            max_array_len: 24,
            max_trip: 4,
            event_budget: 4_000,
            ..FuzzConfig::default()
        }
    }
}

/// True when the program forks target threads (its profile is
/// schedule-dependent, so the oracle holds it to weaker invariants).
pub fn is_mt(prog: &Program) -> bool {
    fn scan(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Spawn { .. } => true,
            Stmt::For { body, .. } => scan(body),
            Stmt::If { then_, else_, .. } => scan(then_) || scan(else_),
            _ => false,
        })
    }
    prog.funcs.iter().any(|f| scan(f))
}

/// Generates the program for `seed` under `cfg`. Deterministic: the same
/// inputs always produce the same program, statement for statement.
pub fn generate(seed: u64, cfg: &FuzzConfig) -> Program {
    let mut g = Gen::new(seed, cfg);
    g.program()
}

// Mirrors ProgramBuilder's address layout so generated programs look like
// hand-built ones to every downstream consumer.
const FILE: u8 = 1;
const BASE_ADDR: u64 = 0x0010_0000;
const ARRAY_GAP: u64 = 256;
// Locals 0 and 1 are the reserved tid/nthreads registers.
const FIRST_FREE_LOCAL: u32 = 2;

struct Gen<'a> {
    rng: FuzzRng,
    cfg: &'a FuzzConfig,
    seed: u64,
    interner: Interner,
    arrays: Vec<ArrayDecl>,
    scalars: Vec<ScalarDecl>,
    /// Arrays the random blocks may touch (excludes the freed lifetime
    /// array, which must never be accessed after its `Free`).
    usable_arrays: Vec<u32>,
    nmutexes: u32,
    next_line: u32,
    next_addr: u64,
    next_local: u32,
    loops: Vec<LoopInfo>,
    /// Remaining worst-case traced accesses.
    budget: i64,
}

/// What a block is allowed to reference while being generated.
#[derive(Clone)]
struct Scope {
    /// Induction variables of enclosing loops, innermost last.
    loop_vars: Vec<u32>,
    /// Inside a spawned worker (tid/nthreads are meaningful).
    in_worker: bool,
    /// Helper functions callable from here, with per-call access cost.
    callees: Vec<(FuncId, u64)>,
    /// Product of enclosing trip counts.
    mult: u64,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, cfg: &'a FuzzConfig) -> Self {
        Gen {
            rng: FuzzRng::new(seed),
            cfg,
            seed,
            interner: Interner::default(),
            arrays: Vec::new(),
            scalars: Vec::new(),
            usable_arrays: Vec::new(),
            nmutexes: 0,
            next_line: 1,
            next_addr: BASE_ADDR,
            next_local: FIRST_FREE_LOCAL,
            loops: Vec::new(),
            budget: cfg.event_budget as i64,
        }
    }

    fn line(&mut self) -> SourceLoc {
        let l = self.next_line;
        self.next_line += 1;
        SourceLoc::new(FILE, l)
    }

    fn local(&mut self) -> u32 {
        let l = self.next_local;
        self.next_local += 1;
        l
    }

    fn declare_array(&mut self, name: &str, len: u64) -> u32 {
        let id = self.arrays.len() as u32;
        let var = self.interner.intern(name);
        self.arrays.push(ArrayDecl { name: var, len, base: self.next_addr });
        self.next_addr += len * 8 + ARRAY_GAP;
        id
    }

    fn declare_scalar(&mut self, name: &str) -> u32 {
        let id = self.scalars.len() as u32;
        let var = self.interner.intern(name);
        self.scalars.push(ScalarDecl { name: var, addr: self.next_addr });
        self.next_addr += 8 + 8;
        id
    }

    fn program(&mut self) -> Program {
        // Declarations first, like a real translation unit.
        let narrays = 1 + self.rng.below(self.cfg.max_arrays as u64) as u32;
        for i in 0..narrays {
            let len =
                self.rng.range(self.cfg.min_array_len as i64, self.cfg.max_array_len as i64) as u64;
            let id = self.declare_array(&format!("a{i}"), len);
            self.usable_arrays.push(id);
        }
        let nscalars = 1 + self.rng.below(self.cfg.max_scalars as u64) as u32;
        for i in 0..nscalars {
            self.declare_scalar(&format!("s{i}"));
        }
        // A freed array appears in roughly a quarter of programs: written
        // once in a prologue, then deallocated — the lifetime event path.
        let lifetime = if self.rng.chance(1, 4) {
            let len = self.rng.range(self.cfg.min_array_len as i64, 16) as u64;
            Some((self.declare_array("tmp", len), len))
        } else {
            None
        };
        self.nmutexes = self.rng.below(3) as u32;

        let mt = self.cfg.mt && self.rng.chance(1, 2);
        if mt && self.nmutexes == 0 {
            self.nmutexes = 1;
        }

        let mut funcs: Vec<Vec<Stmt>> = Vec::new();
        let mut func_names: Vec<String> = Vec::new();

        // Helper functions, callable from every later block.
        let mut callees: Vec<(FuncId, u64)> = Vec::new();
        let nhelpers = self.rng.below(3);
        for h in 0..nhelpers {
            let scope = Scope { loop_vars: vec![], in_worker: false, callees: vec![], mult: 1 };
            let before = self.budget;
            let body = self.block(&scope, 0, 2);
            let cost = (before - self.budget).max(1) as u64;
            callees.push((funcs.len() as FuncId, cost));
            funcs.push(body);
            func_names.push(format!("h{h}"));
        }

        let worker = if mt {
            let id = funcs.len() as FuncId;
            funcs.push(self.worker_body(&callees));
            func_names.push("worker".into());
            Some(id)
        } else {
            None
        };

        // Main.
        let mut main = Vec::new();
        if let Some((arr, len)) = lifetime {
            self.init_loop(&mut main, arr, len, "init_tmp");
            let l = self.line();
            main.push(Stmt::Free(arr, l));
            self.budget -= len as i64 + 1;
        }
        // Seed one array with an init loop so RAW chains have roots.
        let seed_arr = self.usable_arrays[0];
        let seed_len = self.arrays[seed_arr as usize].len;
        self.init_loop(&mut main, seed_arr, seed_len, "init");
        self.budget -= seed_len as i64;

        let scope =
            Scope { loop_vars: vec![], in_worker: false, callees: callees.clone(), mult: 1 };
        if let Some(w) = worker {
            let pre = self.block(&scope, 0, 2);
            main.extend(pre);
            let n = 2 + self.rng.below(self.cfg.max_threads.saturating_sub(1) as u64) as u32;
            self.rng_take_line();
            main.push(Stmt::Spawn { nthreads: n, func: w });
            let post = self.block(&scope, 0, 2);
            main.extend(post);
        } else {
            let body = self.block(&scope, 0, self.cfg.max_block_stmts);
            main.extend(body);
        }
        let entry = funcs.len() as FuncId;
        funcs.push(main);
        func_names.push("main".into());

        Program {
            name: format!("fuzz-{:016x}", self.seed),
            funcs,
            func_names,
            entry,
            arrays: std::mem::take(&mut self.arrays),
            scalars: std::mem::take(&mut self.scalars),
            loops: std::mem::take(&mut self.loops),
            nlocals: self.next_local,
            nmutexes: self.nmutexes,
            interner: std::mem::take(&mut self.interner),
            seed: self.seed,
        }
    }

    fn rng_take_line(&mut self) {
        // Statements without a traced location still consume a source
        // line, exactly like ProgramBuilder.
        self.next_line += 1;
    }

    /// `for i in 0..len { arr[i] = f(i) }` — the canonical Init producer.
    fn init_loop(&mut self, out: &mut Vec<Stmt>, arr: u32, len: u64, name: &str) {
        let begin = self.line();
        let var = self.local();
        let loop_id = self.loops.len() as LoopId;
        self.loops.push(LoopInfo { id: loop_id, name: name.into(), begin, end: begin, omp: true });
        let body_line = self.line();
        let mul = self.rng.range(1, 5);
        let body = vec![Stmt::StoreArr(
            arr,
            Expr::Local(var),
            Expr::Bin(BinOp::Mul, Box::new(Expr::Local(var)), Box::new(Expr::Const(mul))),
            body_line,
        )];
        let end = self.line();
        self.loops[loop_id as usize].end = end;
        out.push(Stmt::For {
            loop_id,
            var,
            from: Expr::Const(0),
            to: Expr::Const(len as i64),
            body,
        });
    }

    /// A random block of up to `max_stmts` statements.
    fn block(&mut self, scope: &Scope, depth: u32, max_stmts: u32) -> Vec<Stmt> {
        let mut out = Vec::new();
        let n = 1 + self.rng.below(max_stmts.max(1) as u64) as u32;
        for _ in 0..n {
            if self.budget <= 0 {
                break;
            }
            self.statement(&mut out, scope, depth);
        }
        out
    }

    fn statement(&mut self, out: &mut Vec<Stmt>, scope: &Scope, depth: u32) {
        // Weighted kind choice; structure-introducing kinds fall back to
        // plain accesses when depth or budget forbids them.
        let roll = self.rng.below(100);
        match roll {
            0..=24 => self.store_arr(out, scope),
            25..=39 => self.reduction(out, scope),
            40..=51 => self.store_scalar(out, scope),
            52..=59 => self.set_local(out, scope),
            60..=77 => {
                if depth < self.cfg.max_loop_depth && self.budget > scope.mult as i64 * 4 {
                    self.for_loop(out, scope, depth);
                } else {
                    self.store_arr(out, scope);
                }
            }
            78..=87 => {
                if depth < self.cfg.max_loop_depth {
                    self.conditional(out, scope, depth);
                } else {
                    self.store_scalar(out, scope);
                }
            }
            88..=93 => {
                if self.nmutexes > 0 {
                    self.lock_region(out, scope);
                } else {
                    self.reduction(out, scope);
                }
            }
            _ => {
                if scope.callees.is_empty() {
                    self.store_arr(out, scope);
                } else {
                    let i = self.rng.below(scope.callees.len() as u64) as usize;
                    let (f, cost) = scope.callees[i];
                    self.rng_take_line();
                    out.push(Stmt::Call(f));
                    self.budget -= (cost * scope.mult) as i64;
                }
            }
        }
    }

    fn store_arr(&mut self, out: &mut Vec<Stmt>, scope: &Scope) {
        let l = self.line();
        let arr = *self.rng.pick(&self.usable_arrays.clone());
        let idx = self.index(scope, l);
        let val = self.value(scope, l, 1);
        self.charge(scope, 1 + count_loads(&idx) + count_loads(&val));
        out.push(Stmt::StoreArr(arr, idx, val, l));
    }

    fn store_scalar(&mut self, out: &mut Vec<Stmt>, scope: &Scope) {
        let l = self.line();
        let s = self.rng.below(self.scalars.len() as u64) as u32;
        let val = self.value(scope, l, 1);
        self.charge(scope, 1 + count_loads(&val));
        out.push(Stmt::StoreScalar(s, val, l));
    }

    /// `s += e` or `A[i] += e`: a load and a store at the same location.
    fn reduction(&mut self, out: &mut Vec<Stmt>, scope: &Scope) {
        let l = self.line();
        let op = *self.rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Min, BinOp::Max]);
        if self.rng.chance(1, 2) {
            let s = self.rng.below(self.scalars.len() as u64) as u32;
            let rhs = self.value(scope, l, 1);
            self.charge(scope, 2 + count_loads(&rhs));
            let val = Expr::Bin(op, Box::new(Expr::LoadScalar(s, l)), Box::new(rhs));
            out.push(Stmt::StoreScalar(s, val, l));
        } else {
            let arr = *self.rng.pick(&self.usable_arrays.clone());
            let idx = self.index(scope, l);
            let rhs = self.value(scope, l, 1);
            self.charge(scope, 2 + count_loads(&idx) * 2 + count_loads(&rhs));
            let cur = Expr::LoadArr(arr, Box::new(idx.clone()), l);
            let val = Expr::Bin(op, Box::new(cur), Box::new(rhs));
            out.push(Stmt::StoreArr(arr, idx, val, l));
        }
    }

    fn set_local(&mut self, out: &mut Vec<Stmt>, scope: &Scope) {
        let l = self.line();
        let lv = self.local();
        let val = self.value(scope, l, 2);
        self.charge(scope, count_loads(&val));
        out.push(Stmt::SetLocal(lv, val));
    }

    fn for_loop(&mut self, out: &mut Vec<Stmt>, scope: &Scope, depth: u32) {
        let begin = self.line();
        let var = self.local();
        let from = self.rng.range(0, 2);
        let trips = self.rng.range(1, self.cfg.max_trip) as u64;
        let loop_id = self.loops.len() as LoopId;
        let omp = self.rng.chance(1, 2);
        self.loops.push(LoopInfo {
            id: loop_id,
            name: format!("L{loop_id}"),
            begin,
            end: begin,
            omp,
        });
        let mut inner = scope.clone();
        inner.loop_vars.push(var);
        inner.mult = scope.mult.saturating_mul(trips);
        let body = self.block(&inner, depth + 1, self.cfg.max_block_stmts);
        let end = self.line();
        self.loops[loop_id as usize].end = end;
        out.push(Stmt::For {
            loop_id,
            var,
            from: Expr::Const(from),
            to: Expr::Const(from + trips as i64),
            body,
        });
    }

    fn conditional(&mut self, out: &mut Vec<Stmt>, scope: &Scope, depth: u32) {
        let l = self.line();
        let cond = match self.rng.below(3) {
            0 if !scope.loop_vars.is_empty() => {
                // Loop-variant parity: `(i & 1) == 0`.
                let v = *self.rng.pick(&scope.loop_vars);
                Expr::Bin(
                    BinOp::Eq,
                    Box::new(Expr::Bin(
                        BinOp::And,
                        Box::new(Expr::Local(v)),
                        Box::new(Expr::Const(1)),
                    )),
                    Box::new(Expr::Const(0)),
                )
            }
            1 => {
                // Data-dependent: a traced scalar load in the condition.
                let s = self.rng.below(self.scalars.len() as u64) as u32;
                self.charge(scope, 1);
                Expr::Bin(
                    BinOp::Lt,
                    Box::new(Expr::LoadScalar(s, l)),
                    Box::new(Expr::Const(self.rng.range(0, 64))),
                )
            }
            _ => Expr::Bin(
                BinOp::Lt,
                Box::new(self.simple_int(scope)),
                Box::new(Expr::Const(self.rng.range(1, 8))),
            ),
        };
        let then_ = self.block(scope, depth + 1, 2);
        let else_ = if self.rng.chance(1, 2) { self.block(scope, depth + 1, 2) } else { vec![] };
        out.push(Stmt::If { cond, then_, else_ });
    }

    /// Flat `Lock; one or two accesses; Unlock` — never nested.
    fn lock_region(&mut self, out: &mut Vec<Stmt>, scope: &Scope) {
        let m = self.rng.below(self.nmutexes as u64) as u32;
        self.rng_take_line();
        out.push(Stmt::Lock(m));
        let n = 1 + self.rng.below(2);
        for _ in 0..n {
            if self.rng.chance(2, 3) {
                self.reduction(out, scope);
            } else {
                self.store_arr(out, scope);
            }
        }
        self.rng_take_line();
        out.push(Stmt::Unlock(m));
    }

    /// Worker body for a `Spawn`: barrier-separated top-level segments.
    /// Barriers appear *only* here — every thread runs the same body, so
    /// top-level barriers are always reached by all threads and cannot
    /// deadlock.
    fn worker_body(&mut self, callees: &[(FuncId, u64)]) -> Vec<Stmt> {
        let threads = self.cfg.max_threads.max(2) as u64;
        let scope =
            Scope { loop_vars: vec![], in_worker: true, callees: callees.to_vec(), mult: threads };
        let mut body = Vec::new();
        let segments = 1 + self.rng.below(3);
        for seg in 0..segments {
            if seg > 0 && self.rng.chance(2, 3) {
                self.rng_take_line();
                body.push(Stmt::Barrier);
            }
            let b = self.block(&scope, 0, self.cfg.max_block_stmts);
            body.extend(b);
        }
        body
    }

    /// An array index expression. Anything goes — the interpreter wraps
    /// indices modulo the array length.
    fn index(&mut self, scope: &Scope, l: SourceLoc) -> Expr {
        let has_var = !scope.loop_vars.is_empty();
        match self.rng.below(10) {
            0..=2 if has_var => Expr::Local(*self.rng.pick(&scope.loop_vars)),
            3 if has_var => {
                let v = *self.rng.pick(&scope.loop_vars);
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Local(v)),
                    Box::new(Expr::Const(self.rng.range(1, 7))),
                )
            }
            4 if has_var => {
                let v = *self.rng.pick(&scope.loop_vars);
                Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Local(v)),
                    Box::new(Expr::Const(self.rng.range(2, 5))),
                )
            }
            5 => {
                // Indirection: `A[B[j]]` — the flagship dynamic index.
                let b = *self.rng.pick(&self.usable_arrays.clone());
                let inner = self.simple_int(scope);
                self.charge(scope, 1);
                Expr::LoadArr(b, Box::new(inner), l)
            }
            6 => {
                // Data-dependent random index (per-thread LCG).
                Expr::Rand(Box::new(Expr::Const(self.rng.range(2, self.cfg.max_array_len as i64))))
            }
            7 if scope.in_worker => {
                // Thread-partitioned: `tid * k + j`.
                let k = self.rng.range(1, 8);
                let base =
                    Expr::Bin(BinOp::Mul, Box::new(Expr::Local(0)), Box::new(Expr::Const(k)));
                match scope.loop_vars.last() {
                    Some(&v) => Expr::Bin(BinOp::Add, Box::new(base), Box::new(Expr::Local(v))),
                    None => base,
                }
            }
            _ => Expr::Const(self.rng.range(0, self.cfg.max_array_len as i64 - 1)),
        }
    }

    /// A small untraced integer expression (loop var or constant).
    fn simple_int(&mut self, scope: &Scope) -> Expr {
        if !scope.loop_vars.is_empty() && self.rng.chance(2, 3) {
            Expr::Local(*self.rng.pick(&scope.loop_vars))
        } else {
            Expr::Const(self.rng.range(0, 15))
        }
    }

    /// A value expression; may contain traced loads up to `depth` deep.
    fn value(&mut self, scope: &Scope, l: SourceLoc, depth: u32) -> Expr {
        match self.rng.below(8) {
            0 | 1 => Expr::Const(self.rng.range(-8, 63)),
            2 if !scope.loop_vars.is_empty() => Expr::Local(*self.rng.pick(&scope.loop_vars)),
            3 => {
                let s = self.rng.below(self.scalars.len() as u64) as u32;
                Expr::LoadScalar(s, l)
            }
            4 | 5 => {
                let arr = *self.rng.pick(&self.usable_arrays.clone());
                let idx = self.index(scope, l);
                Expr::LoadArr(arr, Box::new(idx), l)
            }
            6 if depth > 0 => {
                let op = *self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Mod,
                    BinOp::And,
                    BinOp::Xor,
                    BinOp::Shr,
                    BinOp::Shl,
                    BinOp::Min,
                    BinOp::Max,
                ]);
                let a = self.value(scope, l, depth - 1);
                let b = self.value(scope, l, depth - 1);
                Expr::Bin(op, Box::new(a), Box::new(b))
            }
            _ => {
                if scope.in_worker && self.rng.chance(1, 3) {
                    Expr::Local(0) // tid
                } else {
                    Expr::Const(self.rng.range(0, 31))
                }
            }
        }
    }

    fn charge(&mut self, scope: &Scope, accesses: u64) {
        self.budget -= (accesses.max(1) * scope.mult) as i64;
    }
}

/// Traced loads inside an expression (for budget accounting).
fn count_loads(e: &Expr) -> u64 {
    match e {
        Expr::Const(_) | Expr::Local(_) => 0,
        Expr::LoadScalar(..) => 1,
        Expr::LoadArr(_, idx, _) => 1 + count_loads(idx),
        Expr::Bin(_, a, b) => count_loads(a) + count_loads(b),
        Expr::Rand(b) => count_loads(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_trace::interp::Interp;
    use dp_trace::tracer::CollectTracer;

    fn run_count(prog: &Program) -> usize {
        let mut t = CollectTracer::default();
        Interp::new(prog).run_seq(&mut t);
        t.events.len()
    }

    #[test]
    fn same_seed_same_program() {
        let cfg = FuzzConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(format!("{:?}", a.funcs), format!("{:?}", b.funcs), "seed {seed}");
            assert_eq!(a.nlocals, b.nlocals);
            assert_eq!(a.arrays.len(), b.arrays.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FuzzConfig::default();
        let a = generate(1, &cfg);
        let b = generate(2, &cfg);
        assert_ne!(format!("{:?}", a.funcs), format!("{:?}", b.funcs));
    }

    #[test]
    fn sequential_programs_terminate_within_budget() {
        let cfg = FuzzConfig::default();
        for seed in 0..50 {
            let prog = generate(seed, &cfg);
            assert!(!is_mt(&prog), "cfg.mt=false must never spawn (seed {seed})");
            let n = run_count(&prog);
            assert!(n > 0, "seed {seed} produced an empty trace");
            // Loop/call events ride on top of the access budget; 4x is a
            // generous ceiling that still catches runaway loops.
            assert!(
                n < 4 * cfg.event_budget as usize + 1000,
                "seed {seed}: {n} events blows the budget"
            );
        }
    }

    #[test]
    fn mt_flag_generates_spawning_programs() {
        let cfg = FuzzConfig { mt: true, ..FuzzConfig::default() };
        let spawned = (0..40).filter(|&s| is_mt(&generate(s, &cfg))).count();
        assert!(spawned > 5, "only {spawned}/40 seeds spawned threads");
    }

    #[test]
    fn grammar_reaches_every_construct() {
        // Across a modest seed range the generator must exercise loops,
        // indirection, reductions, conditionals and lock regions.
        let cfg = FuzzConfig::default();
        let (mut fors, mut ifs, mut locks, mut indirect, mut frees) = (0, 0, 0, 0, 0);
        fn walk(stmts: &[Stmt], f: &mut dyn FnMut(&Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::For { body, .. } => walk(body, f),
                    Stmt::If { then_, else_, .. } => {
                        walk(then_, f);
                        walk(else_, f);
                    }
                    _ => {}
                }
            }
        }
        fn expr_has_indirection(e: &Expr) -> bool {
            match e {
                Expr::LoadArr(_, idx, _) => {
                    matches!(**idx, Expr::LoadArr(..)) || expr_has_indirection(idx)
                }
                Expr::Bin(_, a, b) => expr_has_indirection(a) || expr_has_indirection(b),
                Expr::Rand(b) => expr_has_indirection(b),
                _ => false,
            }
        }
        for seed in 0..60 {
            let prog = generate(seed, &cfg);
            for func in &prog.funcs {
                walk(func, &mut |s| match s {
                    Stmt::For { .. } => fors += 1,
                    Stmt::If { .. } => ifs += 1,
                    Stmt::Lock(_) => locks += 1,
                    Stmt::Free(..) => frees += 1,
                    Stmt::StoreArr(_, idx, val, _)
                        if expr_has_indirection(idx)
                            || expr_has_indirection(val)
                            || matches!(idx, Expr::LoadArr(..)) =>
                    {
                        indirect += 1;
                    }
                    _ => {}
                });
            }
        }
        assert!(fors > 50, "loops: {fors}");
        assert!(ifs > 10, "conditionals: {ifs}");
        assert!(locks > 5, "lock regions: {locks}");
        assert!(indirect > 5, "indirection stores: {indirect}");
        assert!(frees > 3, "lifetime frees: {frees}");
    }

    #[test]
    fn mt_programs_run_to_completion() {
        let cfg = FuzzConfig { mt: true, ..FuzzConfig::quick() };
        for seed in 0..12 {
            let prog = generate(seed, &cfg);
            if is_mt(&prog) {
                let fac = dp_trace::tracer::CollectFactory::default();
                Interp::new(&prog).run_mt(&fac);
                assert!(!fac.events.lock().is_empty(), "seed {seed}: empty MT trace");
            } else {
                let mut t = CollectTracer::default();
                Interp::new(&prog).run_seq(&mut t);
            }
        }
    }
}
