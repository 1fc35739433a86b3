//! Property-based tests (proptest) on the profiler's core invariants.

use depprof::core::{
    AlgoOptions, AlgoState, ParallelProfiler, ProfileResult, ProfileStats, ProfilerConfig,
    SequentialProfiler, SessionSpec, SigGauges, TransportKind,
};
use depprof::queue::Chunk;
use depprof::sig::{AccessStore, EpochSlot, ExtendedSlot, PerfectSignature, Signature, Slot};
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

/// A random well-nested stream of all seven event kinds: accesses over a
/// small address set, loops with iteration boundaries, calls, and
/// deallocations; every frame still open at the end is closed.
fn arb_structured_stream(max_len: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    enum Frame {
        Loop { id: u32, iters: u64 },
        Call(u32),
    }
    let step = (0u8..12, 0u64..48, any::<bool>(), 1u32..50);
    prop::collection::vec(step, 1..max_len).prop_map(|steps| {
        let mut ts = 0u64;
        let mut open: Vec<Frame> = Vec::new();
        let mut evs = Vec::with_capacity(steps.len() + 4);
        let close = |frame: Frame, ts: u64| match frame {
            Frame::Loop { id, iters } => {
                TraceEvent::LoopEnd { loop_id: id, loc: loc(1, 90 + id), iters, thread: 0, ts }
            }
            Frame::Call(func) => TraceEvent::CallEnd { func, thread: 0, ts },
        };
        for (op, slot, flag, line) in steps {
            ts += 1;
            let room = open.len() < 3;
            let ev = match op {
                7 if room => {
                    let id = (slot % 5) as u32;
                    open.push(Frame::Loop { id, iters: 0 });
                    TraceEvent::LoopBegin { loop_id: id, loc: loc(1, 80 + id), thread: 0, ts }
                }
                8 if matches!(open.last(), Some(Frame::Loop { .. })) => {
                    let Some(Frame::Loop { id, iters }) = open.last_mut() else { unreachable!() };
                    *iters += 1;
                    TraceEvent::LoopIter { loop_id: *id, iter: *iters - 1, thread: 0, ts }
                }
                9 if !open.is_empty() => close(open.pop().expect("not empty"), ts),
                10 if room => {
                    open.push(Frame::Call(slot as u32 % 4));
                    TraceEvent::CallBegin { func: slot as u32 % 4, thread: 0, ts }
                }
                11 => TraceEvent::Dealloc { base: 0x1000 + (slot % 6) * 64, len: 8, thread: 0, ts },
                _ => TraceEvent::Access(MemAccess {
                    addr: 0x1000 + slot * 8,
                    ts,
                    loc: loc(1, line),
                    var: 1,
                    thread: 0,
                    kind: if flag { AccessKind::Write } else { AccessKind::Read },
                }),
            };
            evs.push(ev);
        }
        while let Some(frame) = open.pop() {
            ts += 1;
            evs.push(close(frame, ts));
        }
        evs
    })
}

/// Everything a feed path leaves behind that a user can see: the sealed
/// dependence store's bytes, the counters, the signature gauges and the
/// rendered report.
#[derive(PartialEq)]
struct Outcome {
    store: Vec<u8>,
    counters: [u64; 8],
    gauges: SigGauges,
    report: String,
}

impl std::fmt::Debug for Outcome {
    /// The store as its length and a digest: a failure should show which
    /// field moved, not a page of bytes.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let digest = self.store.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        });
        write!(
            f,
            "store {} bytes #{digest:016x}, counters {:?}, {:?}\n{}",
            self.store.len(),
            self.counters,
            self.gauges,
            self.report
        )
    }
}

fn outcome(result: ProfileResult, gauges: SigGauges) -> Outcome {
    let mut w = depprof::types::ByteWriter::new();
    result.deps.save(&mut w);
    let s = &result.stats;
    Outcome {
        store: w.into_bytes(),
        counters: [
            s.events,
            s.accesses,
            s.reads,
            s.writes,
            s.reversed,
            s.lifetime_removals,
            s.deps_built,
            s.deps_merged,
        ],
        gauges,
        report: depprof::core::report::render(&result, &depprof::types::Interner::new(), false),
    }
}

/// Few enough slots that the 48 addresses collide and evict.
const TIGHT_SLOTS: usize = 64;

fn tight_algo<S: Slot>() -> AlgoState<Signature<S>> {
    AlgoState::new(Signature::new(TIGHT_SLOTS), Signature::new(TIGHT_SLOTS), AlgoOptions::default())
}

/// The one configuration that keeps timestamps, on a store that holds
/// them: the timestamp side of every check against epochs.
fn stamping() -> AlgoOptions {
    AlgoOptions { check_reversal: true, ..AlgoOptions::default() }
}

fn algo_outcome<S: AccessStore>(algo: AlgoState<S>) -> Outcome {
    let gauges = algo.sig_gauges();
    let (mut deps, exec_tree, counters, _) = algo.finish();
    deps.seal();
    let mut stats = ProfileStats::default();
    stats.absorb(counters);
    stats.deps_built = deps.deps_built();
    stats.deps_merged = deps.merged_len();
    outcome(ProfileResult { deps, exec_tree, stats, ..ProfileResult::default() }, gauges)
}

fn engine_outcome(result: ProfileResult) -> Outcome {
    let gauges = result.metrics.signatures.clone();
    outcome(result, gauges)
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
        let mut par = ParallelProfiler::new(cfg.with_transport(TransportKind::Mpmc), PerfectSignature::new);
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
            let mut par = ParallelProfiler::new(cfg, PerfectSignature::new);
            for e in &evs {
                use depprof::types::Tracer;
                par.event(*e);
            }
            let par = par.finish();
            prop_assert_eq!(&expected, &ident_counts(&par), "transport {:?}", kind);
            prop_assert_eq!(serial.stats.deps_built, par.stats.deps_built);
        }
    }

    /// Lookahead never shows: the immediate per-event engine, the chunked
    /// engine over chunks of any lengths (empty and one-event chunks
    /// included), the serial profiler fed one event at a time (held in a
    /// run), and a session checkpointed with events still held and
    /// resumed, all leave the same store bytes, counters, gauges and
    /// report. Nor does the clock: an engine that keeps timestamps leaves
    /// all of it but the bytes. Nor do timestamps at all on the serial
    /// path: its run keeps none, so a serial profiler over a perfect or a
    /// timestamp-slot store, fed the stream with every timestamp zeroed,
    /// leaves what the timestamp engine over the same stores leaves on
    /// the stream as it was. `seq.rs`'s
    /// `every_flush_point_retires_the_run` reaches each flush point on
    /// both sides of a run boundary.
    #[test]
    fn every_feed_path_leaves_the_same_state(
        evs in arb_structured_stream(300),
        splits in prop::collection::vec(0usize..12, 1..24),
        raw_cut in 0usize..1_000_000,
    ) {
        let mut immediate = tight_algo::<EpochSlot>();
        for ev in &evs {
            immediate.on_event(ev);
        }
        let want = algo_outcome(immediate);

        let mut timestamped = AlgoState::new(
            Signature::<ExtendedSlot>::new(TIGHT_SLOTS),
            Signature::<ExtendedSlot>::new(TIGHT_SLOTS),
            stamping(),
        );
        for ev in &evs {
            timestamped.on_event(ev);
        }
        let mut timestamped = algo_outcome(timestamped);
        prop_assert!(timestamped.gauges.bytes >= want.gauges.bytes);
        timestamped.gauges.bytes = want.gauges.bytes;
        prop_assert_eq!(&timestamped, &want, "timestamp slots");

        let mut chunked = tight_algo::<EpochSlot>();
        let mut rest = &evs[..];
        for len in splits.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at((*len).min(rest.len()));
            let mut chunk = Chunk::new(now.len());
            now.iter().for_each(|&ev| chunk.push(ev));
            chunked.on_chunk(&chunk);
            rest = later;
        }
        prop_assert_eq!(&algo_outcome(chunked), &want, "on_chunk over splits {:?}", splits);

        let mut held = SequentialProfiler::with_signature(TIGHT_SLOTS);
        for ev in &evs {
            held.on_event(ev);
        }
        let held = held.finish();
        prop_assert_eq!(&engine_outcome(held), &want, "per-event run");

        // An unstamped chunk gives each event back with its timestamp 0.
        let mut unstamped = Chunk::new(evs.len());
        evs.iter().for_each(|&ev| unstamped.push(ev));
        let zeroed: Vec<_> = (0..unstamped.len()).map(|i| unstamped.event(i)).collect();
        fn held_as_stamped<S: AccessStore>(
            new: impl Fn() -> S,
            evs: &[TraceEvent],
            zeroed: &[TraceEvent],
        ) -> [Outcome; 2] {
            let mut stamped = AlgoState::new(new(), new(), stamping());
            evs.iter().for_each(|ev| stamped.on_event(ev));
            let mut held = SequentialProfiler::with_stores(new(), new());
            zeroed.iter().for_each(|ev| held.on_event(ev));
            [engine_outcome(held.finish()), algo_outcome(stamped)]
        }
        let [held, stamped] = held_as_stamped(PerfectSignature::new, &evs, &zeroed);
        prop_assert_eq!(&held, &stamped, "perfect, timestamps zeroed");
        let [held, stamped] =
            held_as_stamped(|| Signature::<ExtendedSlot>::new(TIGHT_SLOTS), &evs, &zeroed);
        prop_assert_eq!(&held, &stamped, "timestamp slots, timestamps zeroed");

        let spec = SessionSpec { slots: TIGHT_SLOTS, ..SessionSpec::default() };
        let cut = raw_cut % (evs.len() + 1);
        let mut first = spec.build();
        for ev in &evs[..cut] {
            first.on_event(*ev);
        }
        let data = first.checkpoint_data(1, cut as u64, spec.encode()).unwrap();
        drop(first);
        let mut resumed = spec.resume(&data).unwrap();
        for ev in &evs[cut..] {
            resumed.on_event(*ev);
        }
        // Bytes held are the one gauge a checkpoint does not carry: the
        // resumed engine allocates for the entries the checkpoint lists,
        // never more than the run before it had grown to.
        let mut resumed = engine_outcome(resumed.finish());
        prop_assert!(resumed.gauges.bytes <= want.gauges.bytes);
        resumed.gauges.bytes = want.gauges.bytes;
        prop_assert_eq!(&resumed, &want, "resumed at {}", cut);
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

    /// Signature accounting: occupancy never exceeds slot count; memory
    /// never falls and never exceeds the slot array plus one region in
    /// transit (here the one region is the whole signature).
    #[test]
    fn signature_bounded(addrs in prop::collection::vec(any::<u64>(), 1..500)) {
        use depprof::sig::AccessStore;
        let mut s = Signature::<ExtendedSlot>::new(128);
        let mut mem = s.memory_usage();
        prop_assert!(mem < 128 * 16 / 8, "{} bytes empty", mem);
        for (i, a) in addrs.iter().enumerate() {
            s.put(*a, depprof::sig::SigEntry::new(loc(1, i as u32 % 100 + 1), 0, i as u64));
            prop_assert!(s.occupied() <= 128);
            prop_assert!(s.memory_usage() >= mem);
            mem = s.memory_usage();
        }
        prop_assert!(mem <= 2 * 128 * 16, "{} bytes", mem);
    }
}
