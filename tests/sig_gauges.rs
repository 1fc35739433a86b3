//! Signature-gauge validation against the perfect-signature ground truth.
//!
//! The metrics snapshot reports slot occupancy, eviction counts and an
//! estimated false-positive rate for the signature stores. A
//! [`PerfectSignature`] is collision-free by construction, so its gauges
//! are exact ground truth: occupancy is the number of distinct live
//! addresses and an "eviction" is precisely an overwrite of an existing
//! key. A real signature must agree wherever it had no collisions and
//! can only report *more* evictions (hash collisions add overwrites), so
//! the comparison bounds the gauge from both sides on real workload
//! streams from `dp-trace::workloads`.

use depprof::core::SequentialProfiler;
use depprof::sig::{EpochSlot, ExtendedSlot, Signature};
use depprof::trace::workloads::{starbench_suite, Scale};
use depprof::trace::Interp;
use depprof::types::{FxHashSet, TraceEvent, Tracer};

/// Records the raw event stream so the same workload can be replayed
/// into several engines and inspected for ground-truth address counts.
#[derive(Default)]
struct Recorder(Vec<TraceEvent>);

impl Tracer for Recorder {
    fn event(&mut self, ev: TraceEvent) {
        self.0.push(ev);
    }
}

fn kmeans_events() -> Vec<TraceEvent> {
    let w = starbench_suite(Scale(0.05))
        .into_iter()
        .find(|w| w.meta.name == "kmeans")
        .expect("kmeans workload");
    let mut rec = Recorder::default();
    Interp::new(&w.program).run_seq(&mut rec);
    assert!(!rec.0.is_empty());
    rec.0
}

fn run<S: depprof::sig::AccessStore>(
    mut p: SequentialProfiler<S>,
    evs: &[TraceEvent],
) -> depprof::core::ProfileResult {
    for e in evs {
        p.on_event(e);
    }
    p.finish()
}

#[test]
fn huge_signature_gauges_match_perfect_ground_truth() {
    let evs = kmeans_events();
    let perfect = run(SequentialProfiler::perfect(), &evs);
    let huge = run(
        SequentialProfiler::with_stores(
            Signature::<ExtendedSlot>::new(1 << 22),
            Signature::<ExtendedSlot>::new(1 << 22),
        ),
        &evs,
    );
    let p = &perfect.metrics.signatures;
    let h = &huge.metrics.signatures;

    // Perfect ground truth: occupancy == live distinct addresses; the
    // exact store has no fixed slot array, so capacity reads zero.
    let distinct: FxHashSet<u64> = evs
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Access(a) => Some(a.addr),
            _ => None,
        })
        .collect();
    assert!(p.occupied_slots > 0);
    assert!(p.occupied_slots <= 2 * distinct.len() as u64, "read + write stores");
    assert_eq!(p.total_slots, 0);
    assert_eq!(p.est_fpr_pct, 0.0, "an exact store has no false positives");

    // The real signature can never fit more entries than distinct
    // addresses, and collisions only ever *add* evictions.
    assert!(h.occupied_slots <= p.occupied_slots);
    assert!(h.evictions >= p.evictions, "huge {} < perfect {}", h.evictions, p.evictions);
    assert_eq!(h.total_slots, 2 * (1 << 22));
    assert!(h.est_fpr_pct > 0.0 && h.est_fpr_pct < 1.0, "fpr {}", h.est_fpr_pct);

    // With no slot sharing the gauges must agree exactly; occupancy
    // equality is precisely the no-collision certificate.
    if h.occupied_slots == p.occupied_slots {
        assert_eq!(
            h.evictions, p.evictions,
            "collision-free signature must count exactly the ground-truth overwrites"
        );
    }
}

#[test]
fn tiny_signature_reports_strictly_more_evictions_and_higher_fpr() {
    let evs = kmeans_events();
    let perfect = run(SequentialProfiler::perfect(), &evs);
    let tiny = run(
        SequentialProfiler::with_stores(
            Signature::<ExtendedSlot>::new(64),
            Signature::<ExtendedSlot>::new(64),
        ),
        &evs,
    );
    let p = &perfect.metrics.signatures;
    let t = &tiny.metrics.signatures;
    assert_eq!(t.total_slots, 128);
    assert!(t.occupied_slots <= 128);
    // Hundreds of distinct addresses hashed into 64 slots: collisions
    // are certain, so the tiny signature must overwrite strictly more
    // often than the collision-free baseline.
    assert!(t.evictions > p.evictions, "tiny {} <= perfect {}", t.evictions, p.evictions);
    // Saturated occupancy drives the Formula-2 estimate far above the
    // huge signature's; both stay in (0, 100].
    assert!(t.est_fpr_pct > 1.0 && t.est_fpr_pct <= 100.0, "fpr {}", t.est_fpr_pct);
}

/// The parallel engine aggregates gauges across workers: summed slots
/// and occupancy, max estimated FPR — and they survive into the final
/// snapshot alongside the conservation counters.
#[test]
fn parallel_snapshot_carries_aggregated_gauges() {
    use depprof::core::ParallelProfiler;
    use depprof::core::{ProfilerConfig, TransportKind};
    let evs = kmeans_events();
    let cfg = ProfilerConfig::default()
        .with_workers(4)
        .with_slots(1 << 16)
        .with_transport(TransportKind::Spsc);
    let mut p = ParallelProfiler::new(cfg.clone(), move || {
        Signature::<ExtendedSlot>::new(cfg.slots_per_worker())
    });
    for e in &evs {
        p.event(*e);
    }
    let r = p.finish();
    let g = &r.metrics.signatures;
    // 4 workers × 2 stores × slots_per_worker slots.
    assert_eq!(g.total_slots, 4 * 2 * ((1u64 << 16) / 4));
    assert!(g.occupied_slots > 0);
    assert!(g.occupied_slots <= g.total_slots);
    assert!(g.est_fpr_pct >= 0.0 && g.est_fpr_pct <= 100.0);
}

/// `bytes` is what the signatures hold now: next to nothing before the
/// first access, more with every new address while regions are sparse,
/// and at saturation the two slot arrays — the ceiling `--slots` names,
/// held as one array of read/write pairs — plus its one directory, with
/// no trace of the regions' earlier tables.
#[test]
fn bytes_rise_with_occupancy_to_the_dense_ceiling() {
    use depprof::sig::{PairStore, SigPair};
    use depprof::types::{loc::loc, MemAccess};
    const SLOTS: usize = 5_000; // one full region and a short one
    let gauges_after = |addrs: u64| {
        let mut p = SequentialProfiler::with_signature(SLOTS);
        for i in 0..addrs {
            let (addr, ts) = (0x4000 + i * 8, 2 * i + 1);
            p.on_event(&TraceEvent::Access(MemAccess::write(addr, ts, loc(1, 1), 1, 0)));
            p.on_event(&TraceEvent::Access(MemAccess::read(addr, ts + 1, loc(1, 2), 1, 0)));
        }
        p.finish().metrics
    };
    let empty = gauges_after(0);
    let directory = SigPair::<EpochSlot>::new(SLOTS).bytes_held() as u64;
    assert_eq!(empty.signatures.bytes, directory);
    assert!(directory < 2 * 8 * SLOTS as u64 / 100);

    let mut last = empty.signatures;
    for addrs in [50, 200, 600, 2_000, 40_000] {
        let g = gauges_after(addrs).signatures;
        assert!(g.occupied_slots > last.occupied_slots, "{addrs} addresses: {g:?}");
        // Every region is dense from 2 000 addresses on: the ceiling.
        assert!(g.bytes > last.bytes || addrs > 2_000, "{addrs} addresses: {g:?} after {last:?}");
        last = g;
    }
    assert_eq!(last.occupied_slots, 2 * SLOTS as u64, "40 000 addresses saturate 5 000 slots");
    assert_eq!(last.bytes, 2 * 8 * SLOTS as u64 + directory);
}
