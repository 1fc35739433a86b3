//! Property-based tests (proptest) on the profiler's core invariants.

use depprof::core::parallel::{AnyParallelProfiler, LockFreeProfiler};
use depprof::core::{
    ParallelProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
};
use depprof::sig::{ExtendedSlot, PerfectSignature, Signature};
use depprof::types::{loc::loc, AccessKind, DepType, MemAccess, TraceEvent};
use proptest::prelude::*;

/// A random but well-formed event stream: monotone timestamps, a bounded
/// address set, random read/write mix, occasional deallocations.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    let step = prop_oneof![
        8 => (0u64..64, any::<bool>(), 1u32..50).prop_map(|(slot, w, line)| (0u8, slot, w, line)),
        1 => (0u64..8, any::<bool>(), 1u32..50).prop_map(|(slot, _, _)| (1u8, slot, false, 0)),
    ];
    #[allow(clippy::explicit_counter_loop)] // ts is a timestamp, not an index
    prop::collection::vec(step, 1..max_len).prop_map(|steps| {
        let mut ts = 0u64;
        let mut evs = Vec::with_capacity(steps.len());
        for (kind, slot, is_write, line) in steps {
            ts += 1;
            match kind {
                0 => {
                    let a = MemAccess {
                        addr: 0x1000 + slot * 8,
                        ts,
                        loc: loc(1, line),
                        var: 1,
                        thread: 0,
                        kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                    };
                    evs.push(TraceEvent::Access(a));
                }
                _ => {
                    evs.push(TraceEvent::Dealloc {
                        base: 0x1000 + slot * 8 * 8,
                        len: 8,
                        thread: 0,
                        ts,
                    });
                }
            }
        }
        evs
    })
}

fn run_serial_perfect(evs: &[TraceEvent]) -> ProfileResult {
    let mut p = SequentialProfiler::perfect();
    for e in evs {
        p.on_event(e);
    }
    p.finish()
}

fn ident_counts(r: &ProfileResult) -> Vec<(String, u64)> {
    r.deps.dependences().map(|(d, v)| (format!("{:?}", d.identity()), v.count)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parallel pipeline is event-order faithful: identical output to
    /// the serial engine on any stream.
    #[test]
    fn parallel_equals_serial(evs in arb_stream(400), workers in 1usize..6) {
        let serial = run_serial_perfect(&evs);
        let cfg = ProfilerConfig::default().with_workers(workers).with_chunk_capacity(16);
        let mut par: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg, PerfectSignature::new);
        for e in &evs {
            use depprof::types::Tracer;
            par.event(*e);
        }
        let par = par.finish();
        prop_assert_eq!(ident_counts(&serial), ident_counts(&par));
        prop_assert_eq!(serial.stats.deps_built, par.stats.deps_built);
    }

    /// Transport independence: the SPSC fast path, the lock-free MPMC
    /// build and the lock-based comparator all produce the serial
    /// engine's exact dependence set on any stream — the bit-identical
    /// guarantee the transport abstraction promises.
    #[test]
    fn every_transport_equals_serial(evs in arb_stream(400), workers in 1usize..6) {
        let serial = run_serial_perfect(&evs);
        let expected = ident_counts(&serial);
        for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
            let cfg = ProfilerConfig::default()
                .with_workers(workers)
                .with_chunk_capacity(16)
                .with_transport(kind);
            let mut par: AnyParallelProfiler<PerfectSignature> =
                AnyParallelProfiler::new(cfg, PerfectSignature::new);
            for e in &evs {
                use depprof::types::Tracer;
                par.event(*e);
            }
            let par = par.finish();
            prop_assert_eq!(&expected, &ident_counts(&par), "transport {:?}", kind);
            prop_assert_eq!(serial.stats.deps_built, par.stats.deps_built);
        }
    }

    /// deps_built always equals the sum of merged record counts.
    #[test]
    fn merge_preserves_total_count(evs in arb_stream(300)) {
        let r = run_serial_perfect(&evs);
        let total: u64 = r.deps.dependences().map(|(_, v)| v.count).sum();
        prop_assert_eq!(total, r.stats.deps_built);
    }

    /// An over-provisioned signature behaves exactly like the perfect one.
    #[test]
    fn big_signature_is_exact(evs in arb_stream(300)) {
        let base = run_serial_perfect(&evs);
        let mut p = SequentialProfiler::with_stores(
            Signature::<ExtendedSlot>::new(1 << 16),
            Signature::<ExtendedSlot>::new(1 << 16),
        );
        for e in &evs {
            p.on_event(e);
        }
        let sig = p.finish();
        // 64 addresses vs 65536 slots: collisions are possible only if two
        // of the 64 fixed addresses hash together, which they don't.
        prop_assert_eq!(ident_counts(&base), ident_counts(&sig));
    }

    /// Dependence typing invariants from Algorithm 1: RAW sinks are reads,
    /// WAR/WAW/INIT sinks are writes — encoded in what the engine may emit.
    #[test]
    fn dependence_type_invariants(evs in arb_stream(300)) {
        let r = run_serial_perfect(&evs);
        // Reconstruct per-address first-writes to validate INIT counts:
        let mut inits = 0u64;
        let mut seen = std::collections::HashSet::new();
        for e in &evs {
            match e {
                TraceEvent::Access(a) if a.kind == AccessKind::Write
                    && seen.insert(a.addr) => {
                        inits += 1;
                    }
                TraceEvent::Dealloc { base, len, .. } => {
                    for i in 0..*len {
                        seen.remove(&(base + i * 8));
                    }
                }
                _ => {}
            }
        }
        let init_count: u64 = r
            .deps
            .dependences()
            .filter(|(d, _)| d.edge.dtype == DepType::Init)
            .map(|(_, v)| v.count)
            .sum();
        prop_assert_eq!(init_count, inits);
    }

    /// The report renders deterministically and mentions every sink line.
    #[test]
    fn report_is_deterministic(evs in arb_stream(200)) {
        let r1 = run_serial_perfect(&evs);
        let r2 = run_serial_perfect(&evs);
        let interner = depprof::types::Interner::new();
        let a = depprof::core::report::render(&r1, &interner, false);
        let b = depprof::core::report::render(&r2, &interner, false);
        prop_assert_eq!(&a, &b);
        for (d, _) in r1.deps.dependences() {
            prop_assert!(a.contains(&d.sink.loc.to_string()));
        }
    }

    /// Signature accounting: occupancy never exceeds slot count, memory is
    /// constant regardless of inserted volume.
    #[test]
    fn signature_bounded(addrs in prop::collection::vec(any::<u64>(), 1..500)) {
        use depprof::sig::AccessStore;
        let mut s = Signature::<ExtendedSlot>::new(128);
        let mem0 = s.memory_usage();
        for (i, a) in addrs.iter().enumerate() {
            s.put(*a, depprof::sig::SigEntry::new(loc(1, i as u32 % 100 + 1), 0, i as u64));
            prop_assert!(s.occupied() <= 128);
        }
        prop_assert_eq!(s.memory_usage(), mem0);
    }
}
