//! The MiniVM program representation.
//!
//! Programs operate on 64-bit integer values in three storage classes:
//!
//! - **locals** — per-thread registers (loop counters, temporaries, the
//!   thread id). Like LLVM virtual registers, locals are *not* memory and
//!   are never instrumented.
//! - **scalars** — global variables with addresses; every access is traced.
//! - **arrays** — global arrays with contiguous 8-byte-element address
//!   ranges; every element access is traced, and indices are arbitrary
//!   expressions (including loads — `A[B[i]]` — the dynamically calculated
//!   indices static analysis cannot resolve, per the paper's motivation).
//!
//! Loops carry static metadata including the OpenMP ground-truth
//! annotation used by the Table II experiment.

use dp_types::{Address, Interner, LoopId, MutexId, SourceLoc, VarId};

/// Index of a global array.
pub type ArrayId = u32;
/// Index of a global scalar.
pub type ScalarId = u32;
/// Index of a per-thread local register.
pub type LocalId = u32;
/// Index of a function.
pub type FuncId = u32;

/// Binary operators (integer semantics; `Div`/`Mod` by zero yield 0 so
/// workloads never fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (0 on division by zero).
    Div,
    /// Remainder (0 on division by zero).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise xor.
    Xor,
    /// Logical shift right (of the low 6 bits of the rhs).
    Shr,
    /// Shift left (of the low 6 bits of the rhs).
    Shl,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// 1 if lhs < rhs else 0.
    Lt,
    /// 1 if lhs == rhs else 0.
    Eq,
}

/// An expression. Loads are instrumented; everything else is register
/// arithmetic.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Read of a per-thread local register (not instrumented).
    Local(LocalId),
    /// Traced load of a global scalar. The location is stamped by the
    /// builder with the enclosing statement's line.
    LoadScalar(ScalarId, SourceLoc),
    /// Traced load of an array element.
    LoadArr(ArrayId, Box<Expr>, SourceLoc),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Deterministic pseudo-random value in `[0, bound)` (per-thread LCG;
    /// used by workloads that need data-dependent access patterns).
    Rand(Box<Expr>),
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Traced store to a global scalar.
    StoreScalar(ScalarId, Expr, SourceLoc),
    /// Traced store to an array element: `arr[idx] = val`.
    StoreArr(ArrayId, Expr, Expr, SourceLoc),
    /// Untraced write to a local register.
    SetLocal(LocalId, Expr),
    /// Counted loop: `for var in from..to { body }`, with static loop
    /// metadata in [`Program::loops`].
    For {
        /// Static loop id (indexes [`Program::loops`]).
        loop_id: LoopId,
        /// Local register holding the induction variable.
        var: LocalId,
        /// Inclusive lower bound.
        from: Expr,
        /// Exclusive upper bound.
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Two-armed conditional (`cond != 0`).
    If {
        /// Condition.
        cond: Expr,
        /// Taken when `cond != 0`.
        then_: Vec<Stmt>,
        /// Taken when `cond == 0`.
        else_: Vec<Stmt>,
    },
    /// Call a function (no arguments; communication is through globals and
    /// the locals the caller set).
    Call(FuncId),
    /// Acquire an explicit target-program lock (Section V-A: the profiler
    /// supports languages with explicit locking primitives).
    Lock(MutexId),
    /// Release an explicit lock.
    Unlock(MutexId),
    /// Synchronize all threads of the enclosing `spawn`.
    Barrier,
    /// Fork-join parallel section: run `func` on `nthreads` threads.
    /// Inside `func`, local 0 holds the thread id and local 1 the thread
    /// count. Only valid in the main function, not nested.
    Spawn {
        /// Number of target threads to fork.
        nthreads: u32,
        /// Function each thread executes.
        func: FuncId,
    },
    /// Deallocate an array: emits the `Dealloc` event that drives the
    /// variable-lifetime analysis (Section III-B). The array must not be
    /// accessed afterwards (debug-asserted by the interpreter).
    Free(ArrayId, SourceLoc),
}

/// Static description of one loop.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop id (== its index in [`Program::loops`]).
    pub id: LoopId,
    /// Human-readable name (for Table II rows).
    pub name: String,
    /// Source line of the loop header (the `BGN loop` line).
    pub begin: SourceLoc,
    /// Source line of the loop exit (the `END loop` line).
    pub end: SourceLoc,
    /// Ground truth: is this loop annotated parallel in the (conceptual)
    /// OpenMP version of the benchmark? Drives the `# OMP` column of
    /// Table II.
    pub omp: bool,
}

/// Static description of one global array.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Interned name.
    pub name: VarId,
    /// Element count (8-byte elements).
    pub len: u64,
    /// Base address in the simulated flat address space.
    pub base: Address,
}

/// Static description of one global scalar.
#[derive(Debug, Clone)]
pub struct ScalarDecl {
    /// Interned name.
    pub name: VarId,
    /// Address in the simulated flat address space.
    pub addr: Address,
}

/// A complete MiniVM program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (reports, Table rows).
    pub name: String,
    /// Function bodies; `funcs[entry]` is `main`.
    pub funcs: Vec<Vec<Stmt>>,
    /// Human-readable function names, parallel to `funcs`.
    pub func_names: Vec<String>,
    /// Entry function.
    pub entry: FuncId,
    /// Global arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Global scalars.
    pub scalars: Vec<ScalarDecl>,
    /// Static loop table.
    pub loops: Vec<LoopInfo>,
    /// Per-thread register file size.
    pub nlocals: u32,
    /// Number of explicit locks.
    pub nmutexes: u32,
    /// Interned variable names.
    pub interner: Interner,
    /// Deterministic seed for the per-thread value RNGs.
    pub seed: u64,
}

impl Program {
    /// Total number of distinct addresses the program can touch (array
    /// elements plus scalars) — the `n` of Formula 2.
    pub fn address_footprint(&self) -> u64 {
        self.arrays.iter().map(|a| a.len).sum::<u64>() + self.scalars.len() as u64
    }
}
