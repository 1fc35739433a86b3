//! Cross-engine equivalence: the parallel pipelines must produce exactly
//! the dependences of the serial engine (Section IV: "we can easily ensure
//! that our parallel profiler produces the same data dependences as the
//! serial version").
//!
//! All engines here use the exact (perfect-signature) store so any
//! discrepancy is a pipeline bug, not a hash collision.

use depprof::core::{
    ParallelProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
};
use depprof::sig::PerfectSignature;
use depprof::trace::workloads::{nas_suite, starbench_suite, synth, Scale};
use depprof::trace::Interp;
use std::collections::BTreeMap;

type DepMap = BTreeMap<String, u64>;

fn dep_map(r: &ProfileResult) -> DepMap {
    r.deps
        .dependences()
        .map(|(d, v)| {
            (
                format!(
                    "{:?} {}|{} <- {}|{} var{}",
                    d.edge.dtype,
                    d.sink.loc,
                    d.sink.thread,
                    d.edge.source_loc,
                    d.edge.source_thread,
                    d.edge.var
                ),
                v.count,
            )
        })
        .collect()
}

fn serial(program: &depprof::trace::Program) -> ProfileResult {
    let vm = Interp::new(program);
    let mut p = SequentialProfiler::perfect();
    vm.run_seq(&mut p);
    p.finish()
}

fn lockfree(program: &depprof::trace::Program, workers: usize) -> ProfileResult {
    let vm = Interp::new(program);
    let cfg = ProfilerConfig::default().with_workers(workers).with_chunk_capacity(64);
    let mut p =
        ParallelProfiler::new(cfg.with_transport(TransportKind::Mpmc), PerfectSignature::new);
    vm.run_seq(&mut p);
    p.finish()
}

fn lockbased(program: &depprof::trace::Program, workers: usize) -> ProfileResult {
    let vm = Interp::new(program);
    let cfg = ProfilerConfig::default().with_workers(workers).with_chunk_capacity(64);
    let mut p =
        ParallelProfiler::new(cfg.with_transport(TransportKind::Lock), PerfectSignature::new);
    vm.run_seq(&mut p);
    p.finish()
}

#[test]
fn lockfree_equals_serial_on_all_sequential_workloads() {
    let scale = Scale(0.03);
    for w in nas_suite(scale).into_iter().chain(starbench_suite(scale)) {
        let s = serial(&w.program);
        let f = lockfree(&w.program, 4);
        assert_eq!(dep_map(&s), dep_map(&f), "{}: lock-free differs from serial", w.meta.name);
        assert_eq!(s.stats.accesses, f.stats.accesses, "{}", w.meta.name);
        assert_eq!(s.stats.deps_built, f.stats.deps_built, "{}", w.meta.name);
    }
}

#[test]
fn lockbased_equals_lockfree() {
    let scale = Scale(0.03);
    for w in [&starbench_suite(scale)[1], &starbench_suite(scale)[8]] {
        let f = lockfree(&w.program, 3);
        let l = lockbased(&w.program, 3);
        assert_eq!(dep_map(&f), dep_map(&l), "{}", w.meta.name);
    }
}

#[test]
fn worker_count_does_not_change_dependences() {
    let w = synth::uniform(3000, 40_000);
    let baseline = dep_map(&serial(&w.program));
    for workers in [1usize, 2, 3, 7, 16] {
        assert_eq!(dep_map(&lockfree(&w.program, workers)), baseline, "{workers} workers");
    }
}

#[test]
fn redistribution_does_not_change_dependences() {
    let w = synth::skewed(5000, 6, 60_000);
    let baseline = dep_map(&serial(&w.program));
    let vm = Interp::new(&w.program);
    let mut cfg = ProfilerConfig::default().with_workers(4).with_chunk_capacity(32);
    cfg.redistribute_every = 20; // force many redistribution rounds
    let mut p =
        ParallelProfiler::new(cfg.with_transport(TransportKind::Mpmc), PerfectSignature::new);
    vm.run_seq(&mut p);
    let r = p.finish();
    assert!(r.stats.redistributions > 0, "test wants redistribution to actually happen");
    assert_eq!(dep_map(&r), baseline);
}

#[test]
fn loop_records_identical_across_engines() {
    let scale = Scale(0.03);
    let w = &nas_suite(scale)[5]; // CG: nested loops + reductions
    let s = serial(&w.program);
    let f = lockfree(&w.program, 4);
    let recs = |r: &ProfileResult| {
        r.deps.loops().map(|(id, rec)| (*id, rec.instances, rec.total_iters)).collect::<Vec<_>>()
    };
    assert_eq!(recs(&s), recs(&f));
}

#[test]
fn signature_engine_with_ample_slots_matches_perfect_on_real_workload() {
    let w = &starbench_suite(Scale(0.05))[2]; // md5: heavy reuse
    let base = dep_map(&serial(&w.program));
    let vm = Interp::new(&w.program);
    let mut p = SequentialProfiler::with_signature(1 << 21);
    vm.run_seq(&mut p);
    let sig = dep_map(&p.finish());
    // Identical dependence sets (counts may differ only if collisions
    // occurred; with 2M slots for a few thousand addresses they must not).
    assert_eq!(base, sig);
}
