//! Multi-threaded-target profiling (Section V): thread-aware records,
//! lock-region ordering guarantees, race hints, communication patterns.

use depprof::analysis::report_for;
use depprof::prelude::*;
use depprof::trace::workloads::{splash, starbench_parallel_suite, synth, Scale};

fn cfg(workers: usize) -> ProfilerConfig {
    ProfilerConfig::default().with_workers(workers).with_slots(1 << 18)
}

#[test]
fn locked_counter_never_reports_races() {
    // The lock-region flush (Figure 4) makes per-address delivery ordered,
    // so a correctly locked program must be reversal-free — run it several
    // times to make the guarantee credible on a noisy scheduler.
    for _ in 0..3 {
        let w = synth::locked_counter(Scale(0.2), 4);
        let r = depprof::profile_mt(&w.program, cfg(4));
        assert_eq!(r.stats.reversed, 0, "locked program flagged reversals");
        assert!(report_for(&r, &[], 5).races.is_empty());
    }
}

#[test]
fn mt_records_carry_thread_ids() {
    let w = starbench_parallel_suite(Scale(0.05), 4).remove(6); // rot-cc
    let r = depprof::profile_mt(&w.program, cfg(4));
    let mut threads: Vec<u16> =
        r.deps.dependences().flat_map(|(d, _)| [d.sink.thread, d.edge.source_thread]).collect();
    threads.sort_unstable();
    threads.dedup();
    assert!(threads.len() >= 4, "expected records from several target threads: {threads:?}");
    // Figure 3 format renders thread ids.
    let text = depprof::core::report::render(&r, &w.program.interner, true);
    assert!(text.contains("|1 NOM") || text.contains("|2 NOM"), "{}", &text[..text.len().min(500)]);
}

#[test]
fn locked_shared_scalar_produces_cross_thread_deps() {
    let w = starbench_parallel_suite(Scale(0.05), 4).remove(8); // tinyjpeg: shared locked sink
    let r = depprof::profile_mt(&w.program, cfg(4));
    let cross = r
        .deps
        .dependences()
        .filter(|(d, _)| d.edge.dtype == DepType::Raw && d.sink.thread != d.edge.source_thread)
        .count();
    assert!(cross > 0, "no cross-thread RAW observed on the locked accumulator");
}

#[test]
fn water_spatial_matrix_is_neighbour_banded() {
    let n = 6u32;
    let w = splash::water_spatial(Scale(0.1), n);
    let r = depprof::profile_mt(&w.program, cfg(8));
    let m = report_for(&r, &[], n as usize + 1).comm;
    // Workers are tids 1..=n arranged in a ring; every worker must
    // communicate with its ring neighbours and the neighbour volume must
    // dominate non-neighbour worker-to-worker traffic.
    let mut neighbour = 0u64;
    let mut far = 0u64;
    for p in 1..=n as u16 {
        for c in 1..=n as u16 {
            if p == c {
                continue;
            }
            let rp = (p - 1) as i64;
            let rc = (c - 1) as i64;
            let ring_dist = ((rp - rc).rem_euclid(n as i64)).min((rc - rp).rem_euclid(n as i64));
            if ring_dist == 1 {
                neighbour += m.get(p, c);
            } else {
                far += m.get(p, c);
            }
        }
    }
    assert!(neighbour > 0, "no neighbour communication found");
    assert!(
        neighbour > far * 3,
        "banding not dominant: neighbour={neighbour} far={far}\n{}",
        m.render_ascii()
    );
}

#[test]
fn mt_profile_counts_all_accesses() {
    use depprof::trace::{CollectFactory, Interp};
    let w = splash::water_spatial(Scale(0.05), 4);
    // Count ground-truth events once.
    let vm = Interp::new(&w.program);
    let fac = CollectFactory::default();
    vm.run_mt(&fac);
    let expected = fac.events.lock().iter().filter(|e| e.as_access().is_some()).count() as u64;
    let r = depprof::profile_mt(&w.program, cfg(8));
    assert_eq!(r.stats.accesses, expected);
}

#[test]
fn water_spatial_is_race_free() {
    // All of water-spatial's sharing is ordered by fork, barriers and a
    // lock — the profiler must not flag any of it.
    let w = splash::water_spatial(Scale(0.05), 4);
    let r = depprof::profile_mt(&w.program, cfg(4));
    assert_eq!(r.stats.reversed, 0);
    assert!(report_for(&r, &[], 5).races.is_empty());
}
