//! The product's one analysis (`report_for`, the fold behind `depprof
//! profile --analyze`, Table II and Figure 9) against the reference passes
//! of the fuzz oracle, on every built-in workload: the NAS, Starbench and
//! SPLASH miniatures and the synthetic race programs, over each program's
//! static loop table. Sequential targets have no matrix; a multi-threaded
//! one's is `nthreads + 1` wide (main is thread 0).

use depprof::analysis::{posthoc_report, report_for, LoopMeta};
use depprof::fuzz::oracle::{observed_comm_dim, observed_loop_metas, posthoc_passes};
use depprof::prelude::*;
use depprof::trace::workloads::{
    nas_suite, splash, starbench_parallel_suite, starbench_suite, synth, Scale, Workload,
};

fn every_workload() -> Vec<Workload> {
    let s = Scale(0.05);
    let mut all = nas_suite(s);
    all.extend(starbench_suite(s));
    all.extend(starbench_parallel_suite(s, 4));
    all.push(splash::water_spatial(s, 4));
    all.extend(splash::comm_suite(s, 4));
    all.extend([synth::racy_counter(s, 4), synth::locked_counter(s, 4)]);
    all
}

#[test]
fn the_fold_answers_like_the_passes_on_every_workload() {
    let (mut loops, mut cells, mut mt) = (0, 0, 0);
    for w in every_workload() {
        let name = &w.meta.name;
        let (r, dim) = if w.meta.parallel {
            mt += 1;
            let cfg = ProfilerConfig::default().with_workers(2).with_slots(1 << 18);
            (depprof::profile_mt(&w.program, cfg), w.meta.nthreads as usize + 1)
        } else {
            (depprof::profile_sequential(&w.program, 1 << 18), 0)
        };
        let metas: Vec<LoopMeta> = w
            .program
            .loops
            .iter()
            .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
            .collect();
        let fold = report_for(&r, &metas, dim);
        assert_eq!(fold, posthoc_passes(&r, &metas, dim), "{name}: static table, dimension {dim}");
        let observed = posthoc_passes(&r, &observed_loop_metas(&r), observed_comm_dim(&r));
        assert_eq!(posthoc_report(&r), observed, "{name}: observed loops and threads");
        loops += fold.loops.len();
        cells += fold.comm.total();
    }
    // The comparison had something to compare: loop rows and matrix cells.
    assert!(mt >= 10 && loops > 100 && cells > 0, "{mt} MT targets, {loops} rows, {cells} volume");
}
