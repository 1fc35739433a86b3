//! # depprof — an efficient data-dependence profiler for sequential and parallel programs
//!
//! A faithful, from-scratch Rust reproduction of Li, Jannesari & Wolf,
//! *"An Efficient Data-Dependence Profiler for Sequential and Parallel
//! Programs"* (IPDPS 2015) — the generic profiler underlying the DiscoPoP
//! line of work.
//!
//! The profiler extracts pair-wise RAW/WAR/WAW data dependences (plus
//! INIT records and runtime control-flow information) from an
//! instrumented execution, with:
//!
//! - **bounded memory** via fixed-size single-hash *signatures*
//!   ([`sig::Signature`], Section III-B of the paper),
//! - **low time overhead** via a *lock-free parallel pipeline*
//!   ([`core::ParallelProfiler`], Section IV),
//! - support for **multi-threaded target programs** with thread-aware
//!   dependence records and data-race hints ([`core::MtProfiler`],
//!   Section V),
//! - ready-made dependence-based analyses: parallelism discovery,
//!   communication patterns, race hints, accuracy evaluation
//!   ([`analysis`], Sections VI–VII).
//!
//! ## Quickstart
//!
//! ```
//! use depprof::prelude::*;
//!
//! // Build a tiny program with the MiniVM builder...
//! let mut b = ProgramBuilder::new("demo");
//! let a = b.array("data", 64);
//! let program = b.main(|f| {
//!     f.for_loop("init", true, c(0), c(64), |f, i| {
//!         f.store(a, i.clone(), i); // data[i] = i
//!     });
//!     f.for_loop("sum", true, c(0), c(63), |f, i| {
//!         let v = f.ld(a, i.clone()) + f.ld(a, i.clone() + c(1));
//!         f.store(a, i, v); // data[i] += data[i+1]
//!     });
//! });
//!
//! // ...and profile it with the serial signature engine.
//! let result = depprof::profile_sequential(&program, 1 << 16);
//! assert!(result.stats.deps_merged > 0);
//! println!("{}", depprof::core::report::render(&result, &program.interner, false));
//! ```
//!
//! See `examples/` for parallelism discovery, communication patterns,
//! lock-free parallel profiling and race hunting.

pub use dp_analysis as analysis;
pub use dp_core as core;
pub use dp_fuzz as fuzz;
pub use dp_queue as queue;
pub use dp_server as server;
pub use dp_sig as sig;
pub use dp_trace as trace;
pub use dp_types as types;

use dp_core::{MtProfiler, ProfileResult, ProfilerConfig, SequentialProfiler};
use dp_trace::{Interp, Program};

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use dp_analysis::{
        compare, privatization_candidates, report_for, DepGraph, LoopMeta, OnlineReport,
    };
    pub use dp_core::{
        DepStore, MtProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
    };
    pub use dp_sig::{predicted_fpr, AccessStore, PerfectSignature, Signature};
    pub use dp_trace::builder::{c, lv, nthreads, rnd, tid};
    pub use dp_trace::{
        Interp, NullTracer, ProgramBuilder, TraceFileError, TraceReader, TraceWriter,
    };
    pub use dp_types::{DepType, Tracer, TracerFactory};
}

/// Profiles a sequential MiniVM program with the serial signature engine
/// (`nslots` slots per signature).
pub fn profile_sequential(program: &Program, nslots: usize) -> ProfileResult {
    let vm = Interp::new(program);
    let mut prof = SequentialProfiler::with_signature(nslots);
    vm.run_seq(&mut prof);
    prof.finish()
}

/// Profiles a sequential MiniVM program with the perfect-signature
/// baseline (exact; Section VI-A).
pub fn profile_sequential_perfect(program: &Program) -> ProfileResult {
    let vm = Interp::new(program);
    let mut prof = SequentialProfiler::perfect();
    vm.run_seq(&mut prof);
    prof.finish()
}

/// Profiles a sequential MiniVM program with the parallel pipeline
/// (Section IV) over the transport named by [`ProfilerConfig::transport`]
/// — SPSC fast path (the default: a sequential target has a single
/// producing thread), lock-free MPMC, or the lock-based comparator. All
/// three produce bit-identical dependence sets.
pub fn profile_parallel(program: &Program, cfg: ProfilerConfig) -> ProfileResult {
    let vm = Interp::new(program);
    let slots = cfg.slots_per_worker();
    let mut prof = dp_core::ParallelProfiler::new(cfg, move || dp_core::DefaultSig::new(slots));
    vm.run_seq(&mut prof);
    prof.finish()
}

/// Profiles a multi-threaded MiniVM program (Section V). Dependence
/// records carry thread ids; timestamp reversals flag potential races.
pub fn profile_mt(program: &Program, cfg: ProfilerConfig) -> ProfileResult {
    let vm = Interp::new(program);
    let prof = MtProfiler::new(cfg);
    vm.run_mt(&prof);
    prof.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::TransportKind;
    use dp_trace::builder::{c, ProgramBuilder};

    fn demo_program() -> Program {
        let mut b = ProgramBuilder::new("demo");
        let a = b.array("data", 64);
        b.main(|f| {
            f.for_loop("init", true, c(0), c(64), |f, i| {
                f.store(a, i.clone(), i);
            });
        })
    }

    #[test]
    fn facade_sequential() {
        let p = demo_program();
        let r = profile_sequential(&p, 1 << 12);
        assert_eq!(r.stats.writes, 64);
    }

    #[test]
    fn facade_parallel_matches_perfect() {
        let p = demo_program();
        let base = profile_sequential_perfect(&p);
        let par =
            profile_parallel(&p, ProfilerConfig::default().with_workers(2).with_slots(1 << 14));
        assert_eq!(base.stats.accesses, par.stats.accesses);
        assert_eq!(base.stats.deps_merged, par.stats.deps_merged);
    }

    #[test]
    fn facade_spsc_matches_other_transports() {
        let p = demo_program();
        let cfg = || ProfilerConfig::default().with_workers(2).with_slots(1 << 14);
        let spsc = profile_parallel(&p, cfg());
        let mpmc = profile_parallel(&p, cfg().with_transport(TransportKind::Mpmc));
        let lock = profile_parallel(&p, cfg().with_transport(TransportKind::Lock));
        let sets: Vec<Vec<_>> = [&spsc, &mpmc, &lock]
            .iter()
            .map(|r| {
                let mut v: Vec<_> = r.deps.dependences().map(|(d, e)| (d, e.count)).collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }
}
