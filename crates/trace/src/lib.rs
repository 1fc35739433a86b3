//! MiniVM — the instrumentation substrate of the reproduction.
//!
//! The paper's profiler is an LLVM pass plus a C++ runtime: Clang
//! instruments every load/store of the target program, and each executed
//! access calls `push_read`/`push_write` (Figure 4). Offline and without
//! LLVM, this crate replaces that front-end with a miniature imperative
//! program representation and an interpreter that calls a [`Tracer`] for
//! every executed memory access, loop-boundary and deallocation — the same
//! event vocabulary the LLVM pass produces, with real (flat-address-space)
//! addresses, dynamically computed indices, explicit lock regions, and
//! fork-join threading.
//!
//! - [`ir`] — the program representation (expressions, statements, loops
//!   with OpenMP ground-truth annotations, locks, spawn/join).
//! - [`builder`] — an ergonomic way to write MiniVM programs.
//! - [`tracer`] — the [`Tracer`]/[`TracerFactory`] abstraction the
//!   profiling engines implement; plus null/collecting tracers.
//! - [`interp`] — sequential and multi-threaded interpreters.
//! - [`traced`] — a direct instrumentation API ([`TracedVec`],
//!   [`TracedCell`]) for profiling native Rust kernels without the IR.
//! - [`tracefile`] — binary trace recording and offline replay
//!   ([`TraceWriter`]/[`TraceReader`]), so one instrumented run can feed
//!   many analyses.
//! - [`workloads`] — the miniature NAS / Starbench / SPLASH programs used
//!   by every experiment (see DESIGN.md for the fidelity argument).

#![warn(missing_docs)]

pub mod builder;
pub mod fuzz;
pub mod interp;
pub mod ir;
pub mod stream;
pub mod traced;
pub mod tracefile;
pub mod tracer;
pub mod workloads;

pub use builder::ProgramBuilder;
pub use interp::Interp;
pub use ir::{ArrayId, Expr, FuncId, LocalId, Program, ScalarId, Stmt};
pub use stream::FrameChunker;
pub use traced::{TracedCell, TracedVec, TracerHandle};
pub use tracefile::{TraceFileError, TraceReader, TraceWriter};
pub use tracer::{CollectFactory, CollectTracer, NullFactory, NullTracer, Tracer, TracerFactory};
pub use workloads::{Workload, WorkloadMeta};
