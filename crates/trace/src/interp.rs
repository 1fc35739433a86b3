//! Sequential and multi-threaded MiniVM interpreters.
//!
//! Every executed load/store produces one [`TraceEvent::Access`] with a
//! globally increasing timestamp; loop headers/iterations/exits produce the
//! control-flow events; `free` produces lifetime events. Running with a
//! [`NullTracer`](crate::NullTracer) measures native (uninstrumented)
//! execution — the denominator of all slowdown figures.
//!
//! # Lock regions and the access/push atomicity (Figure 4)
//!
//! For multi-threaded targets the paper requires the memory access and its
//! `push` to be atomic: both must sit inside the same lock region,
//! otherwise a worker can observe accesses to one address out of temporal
//! order. The interpreter realizes this by calling
//! [`Tracer::sync_point`] immediately *before* releasing a target lock
//! (and at barriers and thread exit): a profiling tracer flushes its
//! pending chunks there, so events of properly locked accesses reach the
//! worker queues in lock order. Accesses *not* protected by locks get no
//! such flush — their events may arrive reversed, which is precisely the
//! timestamp-reversal signal the profiler reports as a potential data race
//! (Section V-B).
//!
//! VM memory is `AtomicI64` with relaxed ordering, so deliberately racy
//! target programs are well-defined for the host while still exhibiting
//! races at the target level.

use crate::ir::{ArrayId, BinOp, Expr, FuncId, Program, Stmt};
use crate::tracer::{Tracer, TracerFactory};
use dp_types::{MemAccess, ThreadId, TraceEvent};
use parking_lot::lock_api::RawMutex as _;
use parking_lot::RawMutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// An instantiated MiniVM: program plus memory, locks and the global
/// timestamp counter. Reusable across runs via [`Interp::reset`].
pub struct Interp<'p> {
    prog: &'p Program,
    arrays: Vec<Vec<AtomicI64>>,
    scalars: Vec<AtomicI64>,
    ts: AtomicU64,
    mutexes: Vec<RawMutex>,
}

struct Ctx<'t, T: Tracer> {
    tid: ThreadId,
    locals: Vec<i64>,
    rng: u64,
    tracer: &'t mut T,
    barrier: Option<Arc<Barrier>>,
    /// A sequential run's own timestamp counter: one thread stamps, so
    /// it needs no locked add. `None` stamps from the shared counter.
    clock: Option<u64>,
}

impl<'p> Interp<'p> {
    /// Instantiates the program: allocates its arrays and scalars
    /// (zero-initialized).
    pub fn new(prog: &'p Program) -> Self {
        Interp {
            prog,
            arrays: prog
                .arrays
                .iter()
                .map(|a| (0..a.len).map(|_| AtomicI64::new(0)).collect())
                .collect(),
            scalars: prog.scalars.iter().map(|_| AtomicI64::new(0)).collect(),
            ts: AtomicU64::new(1),
            mutexes: (0..prog.nmutexes).map(|_| RawMutex::INIT).collect(),
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// Zeroes memory and restarts the timestamp counter, so the same
    /// instance can host repeated measurement runs.
    pub fn reset(&mut self) {
        for a in &self.arrays {
            for c in a {
                c.store(0, Ordering::Relaxed);
            }
        }
        for s in &self.scalars {
            s.store(0, Ordering::Relaxed);
        }
        self.ts.store(1, Ordering::Relaxed);
    }

    /// Runs a program that must not contain `spawn`, delivering all events
    /// to `tracer` as target thread 0.
    ///
    /// # Panics
    /// On `spawn` statements — use [`Interp::run_mt`] for parallel targets.
    pub fn run_seq<T: Tracer>(&self, tracer: &mut T) {
        let mut ctx = Ctx {
            tid: 0,
            locals: vec![0i64; self.prog.nlocals as usize],
            rng: self.prog.seed | 1,
            tracer,
            barrier: None,
            clock: Some(self.ts.load(Ordering::Relaxed)),
        };
        self.exec::<T, NoSpawn>(&mut ctx, &self.prog.funcs[self.prog.entry as usize], None);
        ctx.tracer.sync_point();
        self.ts.store(ctx.clock.expect("a sequential run keeps its clock"), Ordering::Relaxed);
    }

    /// Runs a (possibly multi-threaded) program. The main function executes
    /// on the calling thread as target thread 0 with `factory.tracer(0)`;
    /// each `spawn(n, f)` forks target threads `1..=n`, each with its own
    /// tracer.
    pub fn run_mt<F: TracerFactory>(&self, factory: &F) {
        let mut tracer = factory.tracer(0);
        {
            let mut ctx = Ctx {
                tid: 0,
                locals: vec![0i64; self.prog.nlocals as usize],
                rng: self.prog.seed | 1,
                tracer: &mut tracer,
                barrier: None,
                clock: None,
            };
            self.exec::<_, F>(&mut ctx, &self.prog.funcs[self.prog.entry as usize], Some(factory));
            ctx.tracer.sync_point();
        }
        factory.join(0, tracer);
    }

    #[inline]
    fn next_ts(&self, clock: &mut Option<u64>) -> u64 {
        match clock {
            Some(ts) => {
                *ts += 1;
                *ts - 1
            }
            None => self.ts.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn exec<T: Tracer, F: TracerFactory>(
        &self,
        ctx: &mut Ctx<'_, T>,
        stmts: &[Stmt],
        factory: Option<&F>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::StoreScalar(s, e, l) => {
                    let v = self.eval(ctx, e);
                    self.scalars[*s as usize].store(v, Ordering::Relaxed);
                    if ctx.tracer.enabled() {
                        let d = &self.prog.scalars[*s as usize];
                        let ev = MemAccess::write(
                            d.addr,
                            self.next_ts(&mut ctx.clock),
                            *l,
                            d.name,
                            ctx.tid,
                        );
                        ctx.tracer.event(TraceEvent::Access(ev));
                    }
                }
                Stmt::StoreArr(a, idx, val, l) => {
                    let arr = &self.arrays[*a as usize];
                    let i = (self.eval(ctx, idx) as u64 % arr.len() as u64) as usize;
                    let v = self.eval(ctx, val);
                    arr[i].store(v, Ordering::Relaxed);
                    if ctx.tracer.enabled() {
                        let d = &self.prog.arrays[*a as usize];
                        let ev = MemAccess::write(
                            d.base + i as u64 * 8,
                            self.next_ts(&mut ctx.clock),
                            *l,
                            d.name,
                            ctx.tid,
                        );
                        ctx.tracer.event(TraceEvent::Access(ev));
                    }
                }
                Stmt::SetLocal(lv, e) => {
                    ctx.locals[*lv as usize] = self.eval(ctx, e);
                }
                Stmt::For { loop_id, var, from, to, body } => {
                    let lo = self.eval(ctx, from);
                    let hi = self.eval(ctx, to);
                    let info = &self.prog.loops[*loop_id as usize];
                    if ctx.tracer.enabled() {
                        ctx.tracer.event(TraceEvent::LoopBegin {
                            loop_id: *loop_id,
                            loc: info.begin,
                            thread: ctx.tid,
                            ts: self.next_ts(&mut ctx.clock),
                        });
                    }
                    let mut iters = 0u64;
                    let mut i = lo;
                    while i < hi {
                        if ctx.tracer.enabled() {
                            ctx.tracer.event(TraceEvent::LoopIter {
                                loop_id: *loop_id,
                                iter: iters,
                                thread: ctx.tid,
                                ts: self.next_ts(&mut ctx.clock),
                            });
                        }
                        ctx.locals[*var as usize] = i;
                        self.exec::<T, F>(ctx, body, factory);
                        iters += 1;
                        i += 1;
                    }
                    if ctx.tracer.enabled() {
                        ctx.tracer.event(TraceEvent::LoopEnd {
                            loop_id: *loop_id,
                            loc: info.end,
                            iters,
                            thread: ctx.tid,
                            ts: self.next_ts(&mut ctx.clock),
                        });
                    }
                }
                Stmt::If { cond, then_, else_ } => {
                    if self.eval(ctx, cond) != 0 {
                        self.exec::<T, F>(ctx, then_, factory);
                    } else {
                        self.exec::<T, F>(ctx, else_, factory);
                    }
                }
                Stmt::Call(f) => {
                    if ctx.tracer.enabled() {
                        ctx.tracer.event(TraceEvent::CallBegin {
                            func: *f,
                            thread: ctx.tid,
                            ts: self.next_ts(&mut ctx.clock),
                        });
                    }
                    self.exec::<T, F>(ctx, &self.prog.funcs[*f as usize], factory);
                    if ctx.tracer.enabled() {
                        ctx.tracer.event(TraceEvent::CallEnd {
                            func: *f,
                            thread: ctx.tid,
                            ts: self.next_ts(&mut ctx.clock),
                        });
                    }
                }
                Stmt::Lock(m) => {
                    self.mutexes[*m as usize].lock();
                }
                Stmt::Unlock(m) => {
                    // Flush pending events while still holding the lock —
                    // this is the access/push atomicity of Figure 4.
                    ctx.tracer.sync_point();
                    unsafe { self.mutexes[*m as usize].unlock() };
                }
                Stmt::Barrier => {
                    ctx.tracer.sync_point();
                    if let Some(b) = &ctx.barrier {
                        b.wait();
                    }
                }
                Stmt::Spawn { nthreads, func } => {
                    let factory =
                        factory.expect("spawn encountered in a sequential run; use Interp::run_mt");
                    // Thread creation is a synchronization edge: everything
                    // the parent did happens-before the children start, so
                    // the parent's pending events must reach the workers
                    // first (same argument as the lock-region flush).
                    ctx.tracer.sync_point();
                    self.spawn_threads(*nthreads, *func, factory);
                    // Join is the mirror edge: children flushed at exit,
                    // nothing needed here beyond ordering of our own
                    // subsequent pushes, which FIFO provides.
                }
                Stmt::Free(a, l) => {
                    if ctx.tracer.enabled() {
                        let d = &self.prog.arrays[*a as usize];
                        ctx.tracer.event(TraceEvent::Dealloc {
                            base: d.base,
                            len: d.len,
                            thread: ctx.tid,
                            ts: self.next_ts(&mut ctx.clock),
                        });
                        let _ = l;
                    }
                }
            }
        }
    }

    fn spawn_threads<F: TracerFactory>(&self, n: u32, func: FuncId, factory: &F) {
        let barrier = Arc::new(Barrier::new(n as usize));
        std::thread::scope(|scope| {
            for t in 1..=n {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let tid = t as ThreadId;
                    let mut tracer = factory.tracer(tid);
                    {
                        let mut locals = vec![0i64; self.prog.nlocals as usize];
                        locals[0] = (t - 1) as i64; // LOCAL_TID: 0-based rank
                        locals[1] = n as i64; // LOCAL_NTHREADS
                        let mut ctx = Ctx {
                            tid,
                            locals,
                            rng: (self.prog.seed ^ (t as u64).wrapping_mul(0x9e37_79b9)) | 1,
                            tracer: &mut tracer,
                            barrier: Some(barrier),
                            clock: None,
                        };
                        if ctx.tracer.enabled() {
                            ctx.tracer.event(TraceEvent::CallBegin {
                                func,
                                thread: tid,
                                ts: self.next_ts(&mut ctx.clock),
                            });
                        }
                        self.exec::<_, F>(&mut ctx, &self.prog.funcs[func as usize], Some(factory));
                        if ctx.tracer.enabled() {
                            ctx.tracer.event(TraceEvent::CallEnd {
                                func,
                                thread: tid,
                                ts: self.next_ts(&mut ctx.clock),
                            });
                        }
                        ctx.tracer.sync_point();
                    }
                    factory.join(tid, tracer);
                });
            }
        });
    }

    fn eval<T: Tracer>(&self, ctx: &mut Ctx<'_, T>, e: &Expr) -> i64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Local(l) => ctx.locals[*l as usize],
            Expr::LoadScalar(s, l) => {
                let v = self.scalars[*s as usize].load(Ordering::Relaxed);
                if ctx.tracer.enabled() {
                    let d = &self.prog.scalars[*s as usize];
                    let ev =
                        MemAccess::read(d.addr, self.next_ts(&mut ctx.clock), *l, d.name, ctx.tid);
                    ctx.tracer.event(TraceEvent::Access(ev));
                }
                v
            }
            Expr::LoadArr(a, idx, l) => {
                let arr = &self.arrays[*a as usize];
                let i = (self.eval(ctx, idx) as u64 % arr.len() as u64) as usize;
                let v = arr[i].load(Ordering::Relaxed);
                if ctx.tracer.enabled() {
                    let d = &self.prog.arrays[*a as usize];
                    let ev = MemAccess::read(
                        d.base + i as u64 * 8,
                        self.next_ts(&mut ctx.clock),
                        *l,
                        d.name,
                        ctx.tid,
                    );
                    ctx.tracer.event(TraceEvent::Access(ev));
                }
                v
            }
            Expr::Bin(op, a, b) => {
                let x = self.eval(ctx, a);
                let y = self.eval(ctx, b);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_div(y)
                        }
                    }
                    BinOp::Mod => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_rem(y)
                        }
                    }
                    BinOp::And => x & y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shr => ((x as u64) >> (y as u64 & 63)) as i64,
                    BinOp::Shl => ((x as u64) << (y as u64 & 63)) as i64,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    BinOp::Lt => (x < y) as i64,
                    BinOp::Eq => (x == y) as i64,
                }
            }
            Expr::Rand(bound) => {
                let b = self.eval(ctx, bound).max(1) as u64;
                ctx.rng =
                    ctx.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((ctx.rng >> 33) % b) as i64
            }
        }
    }

    /// Final value of a scalar (test/diagnostic hook).
    pub fn scalar_value(&self, s: crate::ir::ScalarId) -> i64 {
        self.scalars[s as usize].load(Ordering::Relaxed)
    }

    /// Final value of an array element (test/diagnostic hook).
    pub fn array_value(&self, a: ArrayId, idx: usize) -> i64 {
        self.arrays[a as usize][idx].load(Ordering::Relaxed)
    }

    /// Bytes of simulated target memory (feeds the memory accounting as
    /// the workload's own footprint).
    pub fn memory_usage(&self) -> usize {
        self.arrays.iter().map(|a| a.len() * 8).sum::<usize>() + self.scalars.len() * 8
    }
}

/// Placeholder factory for sequential runs; its tracers are never created.
enum NoSpawn {}

impl TracerFactory for NoSpawn {
    type Tracer = crate::tracer::NullTracer;
    fn tracer(&self, _tid: ThreadId) -> Self::Tracer {
        unreachable!()
    }
    fn join(&self, _tid: ThreadId, _tracer: Self::Tracer) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c, ProgramBuilder};
    use crate::tracer::{CollectTracer, NullTracer};
    use dp_types::AccessKind;

    #[test]
    fn arithmetic_and_memory() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let s = b.scalar("s");
        let p = b.main(|f| {
            f.store(a, c(3), c(40) + c(2));
            let e = f.ld(a, c(3)) * c(2);
            f.store_scalar(s, e);
        });
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        assert_eq!(vm.array_value(a, 3), 42);
        assert_eq!(vm.scalar_value(s), 84);
    }

    #[test]
    fn event_stream_contents() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let p = b.main(|f| {
            f.for_loop("l", false, c(0), c(3), |f, i| {
                let prev = f.ld(a, i.clone());
                f.store(a, i, prev + c(1));
            });
        });
        let vm = Interp::new(&p);
        let mut t = CollectTracer::new();
        vm.run_seq(&mut t);
        // Per iteration: LoopIter + 1 read + 1 write; plus LoopBegin/End.
        let accesses: Vec<_> = t.events.iter().filter_map(|e| e.as_access()).collect();
        assert_eq!(accesses.len(), 6);
        assert_eq!(accesses[0].kind, AccessKind::Read);
        assert_eq!(accesses[1].kind, AccessKind::Write);
        assert_eq!(accesses[0].addr, accesses[1].addr);
        let iters: Vec<_> =
            t.events.iter().filter(|e| matches!(e, TraceEvent::LoopIter { .. })).collect();
        assert_eq!(iters.len(), 3);
        assert!(matches!(t.events.first(), Some(TraceEvent::LoopBegin { .. })));
        assert!(matches!(t.events.last(), Some(TraceEvent::LoopEnd { iters: 3, .. })));
    }

    #[test]
    fn timestamps_strictly_increase_sequentially() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 16);
        let p = b.main(|f| {
            f.for_loop("l", false, c(0), c(16), |f, i| {
                f.store(a, i.clone(), i);
            });
        });
        let vm = Interp::new(&p);
        let mut t = CollectTracer::new();
        // A second run without a reset continues the first one's clock.
        vm.run_seq(&mut t);
        vm.run_seq(&mut t);
        let ts: Vec<_> = t.events.iter().map(|e| e.ts()).collect();
        assert_eq!(ts, (1..=ts.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn null_tracer_runs_without_timestamps() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let p = b.main(|f| f.store(a, c(0), c(1)));
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        // Timestamp counter untouched (still at initial 1).
        assert_eq!(vm.ts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reset_allows_rerun() {
        let mut b = ProgramBuilder::new("t");
        let s = b.scalar("s");
        let p = b.main(|f| {
            let e = f.lds(s) + c(1);
            f.store_scalar(s, e);
        });
        let mut vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        vm.run_seq(&mut NullTracer);
        assert_eq!(vm.scalar_value(s), 2);
        vm.reset();
        vm.run_seq(&mut NullTracer);
        assert_eq!(vm.scalar_value(s), 1);
    }

    #[test]
    fn deterministic_rand() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 64);
        let p = b.main(|f| {
            f.for_loop("l", false, c(0), c(10), |f, i| {
                f.store(a, crate::builder::rnd(c(64)), i);
            });
        });
        let vm1 = Interp::new(&p);
        let mut t1 = CollectTracer::new();
        vm1.run_seq(&mut t1);
        let vm2 = Interp::new(&p);
        let mut t2 = CollectTracer::new();
        vm2.run_seq(&mut t2);
        let a1: Vec<_> = t1.events.iter().filter_map(|e| e.as_access()).map(|a| a.addr).collect();
        let a2: Vec<_> = t2.events.iter().filter_map(|e| e.as_access()).map(|a| a.addr).collect();
        assert_eq!(a1, a2);
    }

    #[test]
    fn mt_run_produces_per_thread_events() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct F {
            all: Mutex<Vec<TraceEvent>>,
        }
        impl TracerFactory for F {
            type Tracer = CollectTracer;
            fn tracer(&self, _tid: ThreadId) -> CollectTracer {
                CollectTracer::new()
            }
            fn join(&self, _tid: ThreadId, t: CollectTracer) {
                self.all.lock().extend(t.events);
            }
        }

        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 64);
        let worker = b.func(|f| {
            // each thread writes its own 16-element stripe
            let base = crate::builder::tid() * c(16);
            f.for_loop("w", true, c(0), c(16), |f, i| {
                f.store(a, base.clone() + i.clone(), i);
            });
        });
        let p = b.main(|f| {
            f.spawn(4, worker);
        });
        let vm = Interp::new(&p);
        let fac = F::default();
        vm.run_mt(&fac);
        let all = fac.all.into_inner();
        let accesses: Vec<_> = all.iter().filter_map(|e| e.as_access()).collect();
        assert_eq!(accesses.len(), 64);
        let mut tids: Vec<_> = accesses.iter().map(|a| a.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids, vec![1, 2, 3, 4]);
        // disjoint stripes: every address written exactly once
        let mut addrs: Vec<_> = accesses.iter().map(|a| a.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 64);
    }

    #[test]
    #[should_panic(expected = "sequential run")]
    fn spawn_in_seq_run_panics() {
        let mut b = ProgramBuilder::new("t");
        let w = b.func(|_| {});
        let p = b.main(|f| f.spawn(2, w));
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
    }

    #[test]
    fn free_emits_dealloc() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let p = b.main(|f| {
            f.store(a, c(0), c(1));
            f.free(a);
        });
        let vm = Interp::new(&p);
        let mut t = CollectTracer::new();
        vm.run_seq(&mut t);
        assert!(t.events.iter().any(|e| matches!(e, TraceEvent::Dealloc { len: 8, .. })));
    }
}
