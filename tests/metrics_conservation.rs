//! Property-based proof of the pipeline's event-conservation law.
//!
//! Every event the router accepts is accounted for exactly once in the
//! metrics snapshot:
//!
//! ```text
//! pushed == consumed + dropped + rerouted + in_flight_at_shutdown
//! ```
//!
//! The suite drives random event streams through every transport kind
//! (SPSC fast path, lock-free MPMC, lock-based comparator) under random
//! fault plans — inert, worker panic, worker stall under the `drop`
//! overflow policy — plus a chaos sweep in which the config's plan makes
//! every queue fail sends and receives spuriously on a seeded schedule,
//! in both engines. In every case the ledger must
//! balance and the metrics-side drop count must agree exactly with the
//! engine's own `dropped_events` statistic.

use depprof::core::{
    FaultPlan, MetricsSnapshot, MtProfiler, OverflowPolicy, ParallelProfiler, ProfileResult,
    ProfilerConfig, TransportKind,
};
use depprof::sig::PerfectSignature;
use depprof::types::{loc::loc, AccessKind, MemAccess, TraceEvent, Tracer, TracerFactory};
use proptest::prelude::*;

/// What the generated fault plan does, so the config can be shaped to
/// terminate quickly (stalls need the `drop` overflow policy and tight
/// deadlines; panics drain fine under the default `block`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanKind {
    Inert,
    Panic { worker: usize, after_chunks: u64 },
    Stall { worker: usize, after_chunks: u64 },
}

fn arb_plan() -> impl Strategy<Value = PlanKind> {
    prop_oneof![
        4 => Just(PlanKind::Inert),
        3 => (0usize..4, 0u64..4)
            .prop_map(|(worker, after_chunks)| PlanKind::Panic { worker, after_chunks }),
        1 => (0usize..4, 0u64..3)
            .prop_map(|(worker, after_chunks)| PlanKind::Stall { worker, after_chunks }),
    ]
}

/// Random well-formed access stream: monotone timestamps over a bounded
/// address set so every worker's residue class gets traffic.
fn arb_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec((0u64..96, any::<bool>(), 1u32..60), 1..500).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(slot, is_write, line)| {
                ts += 1;
                TraceEvent::Access(MemAccess {
                    addr: 0x1000 + slot * 8,
                    ts,
                    loc: loc(1, line),
                    var: 1,
                    thread: 0,
                    kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                })
            })
            .collect()
    })
}

/// The two counter invariants every run must satisfy, whatever the fault
/// plan did: the conservation ledger balances, and the metrics-side drop
/// count equals the engine's own loss statistic (both count the same
/// events — in the tested matrix no dropped chunk ever carries rerouted
/// marks, because diversion only happens *away* from dead workers and
/// survivors' chunks are delivered, not dropped).
fn assert_conserved(r: &ProfileResult, ctx: &str) -> Result<(), TestCaseError> {
    let m: &MetricsSnapshot = &r.metrics;
    prop_assert!(m.conservation.holds(), "{ctx}: conservation violated: {:?}", m.conservation);
    prop_assert_eq!(
        m.conservation.dropped,
        r.stats.dropped_events,
        "{ctx}: metrics dropped != stats.dropped_events"
    );
    let per_worker_consumed: u64 = m.per_worker.iter().map(|w| w.consumed).sum();
    prop_assert_eq!(
        per_worker_consumed,
        m.conservation.consumed,
        "{ctx}: per-worker consumed must sum to the ledger total"
    );
    Ok(())
}

fn cfg_for(plan: PlanKind, workers: usize) -> ProfilerConfig {
    let mut cfg = ProfilerConfig::default()
        .with_workers(workers)
        .with_chunk_capacity(8)
        .with_redistribution(false);
    cfg.queue_chunks = 4;
    match plan {
        PlanKind::Inert => cfg,
        PlanKind::Panic { worker, after_chunks } => cfg
            .with_fault_plan(FaultPlan::none().with_panic(worker % workers, after_chunks))
            .with_drain_deadline_ms(500),
        PlanKind::Stall { worker, after_chunks } => cfg
            .with_fault_plan(FaultPlan::none().with_stall(worker % workers, after_chunks))
            .with_overflow(OverflowPolicy::Drop)
            .with_stall_deadline_ms(10)
            .with_drain_deadline_ms(100),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// THE headline invariant: for every transport kind and every fault
    /// plan, `pushed == consumed + dropped + rerouted +
    /// in_flight_at_shutdown`, and losses agree with the engine's own
    /// accounting.
    #[test]
    fn conservation_holds_across_transports_and_faults(
        evs in arb_stream(),
        plan in arb_plan(),
        workers in 2usize..5,
    ) {
        for kind in TRANSPORTS {
            let cfg = cfg_for(plan, workers).with_transport(kind);
            let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
            for e in &evs {
                p.event(*e);
            }
            let r = p.finish();
            assert_conserved(&r, &format!("{kind:?}/{plan:?}/w{workers}"))?;
            if plan == PlanKind::Inert {
                // A healthy run loses nothing: everything pushed was
                // consumed and the queues drained empty.
                prop_assert_eq!(r.metrics.conservation.pushed, evs.len() as u64);
                prop_assert_eq!(r.metrics.conservation.consumed, evs.len() as u64);
                prop_assert_eq!(r.metrics.conservation.in_flight_at_shutdown, 0);
                prop_assert_eq!(r.metrics.chunks.pushed, r.metrics.chunks.consumed);
            }
        }
    }
}

const TRANSPORTS: [TransportKind; 3] =
    [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock];

/// Chaos sweep: seeded spurious send failures and empty receives on every
/// transport only cost retries — the ledger still balances and nothing is
/// dropped. Eight seeds by default; `DEPPROF_CHAOS_SEED` pins one for
/// reproduction.
#[test]
fn conservation_holds_under_chaotic_transport_seeds() {
    let evs: Vec<TraceEvent> = (0..400u64)
        .map(|i| {
            TraceEvent::Access(MemAccess::write(
                0x1000 + (i % 64) * 8,
                i + 1,
                loc(1, 1 + (i % 50) as u32),
                1,
                0,
            ))
        })
        .collect();
    // `DEPPROF_CHAOS_SEED=a,b,c` overrides; garbage warns and falls back
    // instead of silently running nothing (or panicking the sweep).
    let seeds = depprof::queue::chaos_seeds(&[1, 7, 42, 1234, 2025, 31337, 86243, 216091]);
    for seed in seeds {
        for kind in TRANSPORTS {
            let plan = FaultPlan::none().with_seed(seed).with_spurious(25, 25);
            let mut cfg = ProfilerConfig::default()
                .with_workers(3)
                .with_chunk_capacity(8)
                .with_redistribution(false)
                .with_transport(kind)
                .with_fault_plan(plan);
            cfg.queue_chunks = 4;
            let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
            for e in &evs {
                p.event(*e);
            }
            let r = p.finish();
            let ctx = format!("seed {seed}, {kind:?}");
            assert!(!r.degraded(), "{ctx}: {:?}", r.stats.worker_failures);
            let c = &r.metrics.conservation;
            assert!(c.holds(), "{ctx}: conservation violated: {c:?}");
            assert_eq!(c.pushed, evs.len() as u64, "{ctx}");
            assert_eq!(c.consumed, evs.len() as u64, "{ctx}");
            assert_eq!(c.dropped, 0, "{ctx}");
            assert_eq!(c.rerouted, 0, "{ctx}");
        }
    }
}

/// A plan set on the config is what injects the chaos, on every transport
/// and in the MT engine alike: its spurious "full" answers show up as
/// push retries and its spurious "empty" ones as empty pops. (Nothing
/// else makes a push retry here: the queues never fill.)
#[test]
fn a_config_plan_reaches_every_queue() {
    let evs: Vec<TraceEvent> = (0..64u64)
        .map(|i| TraceEvent::Access(MemAccess::write(0x1000 + i * 8, i + 1, loc(1, 1), 1, 0)))
        .collect();
    let plan = FaultPlan::none().with_seed(5).with_spurious(40, 40);
    let cfg = || ProfilerConfig::default().with_workers(2).with_chunk_capacity(4);
    let mut runs: Vec<(String, ProfileResult)> = TRANSPORTS
        .into_iter()
        .map(|kind| {
            let cfg = cfg().with_transport(kind).with_fault_plan(plan.clone());
            let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
            evs.iter().for_each(|e| p.event(*e));
            (format!("{kind:?}"), p.finish())
        })
        .collect();
    let mt = MtProfiler::new(cfg().with_fault_plan(plan));
    let mut t = mt.tracer(1);
    evs.iter().for_each(|e| t.event(*e));
    mt.join(1, t);
    runs.push(("mt".into(), mt.finish()));
    for (what, r) in runs {
        let chunks = &r.metrics.chunks;
        assert!(chunks.push_retries > 0, "{what}: no spurious full reached a queue: {chunks:?}");
        assert!(chunks.empty_pops > 0, "{what}: {chunks:?}");
        assert!(!r.degraded() && r.metrics.conservation.holds(), "{what}: {:?}", r.stats);
        assert_eq!(r.metrics.conservation.consumed, evs.len() as u64, "{what}");
    }
}

/// The service layer obeys the same discipline as the pipeline: every
/// event *delivered* to a session engine — including resend overlap and
/// duplicated frames — is accounted exactly once, as profiled or as
/// `events_skipped_on_resume`, across interrupt, hibernation and
/// rehydration. The per-incarnation ledger is
///
/// ```text
/// delivered == profiled + skipped_on_resume
/// ```
///
/// and the profiled totals across incarnations must sum to the stream.
#[test]
fn service_counters_balance_the_resume_ledger() {
    use depprof::server::SessionEngine;
    use depprof::trace::FrameChunker;
    use depprof::types::protocol::{Frame, Hello};

    // Every tenth event a dealloc, so chunks mix event kinds.
    let evs: Vec<TraceEvent> = (0..150u64)
        .map(|i| {
            let addr = 0x1000 + (i % 48) * 8;
            if i % 10 == 9 {
                return TraceEvent::Dealloc { base: addr, len: 1, thread: 0, ts: i + 1 };
            }
            TraceEvent::Access(MemAccess::write(addr, i + 1, loc(1, 1 + (i % 30) as u32), 1, 0))
        })
        .collect();
    let frames: Vec<Frame> = {
        let mut chunker = FrameChunker::new(16);
        let mut out: Vec<Frame> = evs.iter().flat_map(|e| chunker.push(*e)).collect();
        out.extend(chunker.flush());
        out
    };
    let delivered = |f: &Frame| match f {
        Frame::Chunk { events, .. } => events.len() as u64,
        _ => 0,
    };
    let hello = |names: Vec<String>| Hello {
        session: "ledger".into(),
        spec: depprof::core::SessionSpec::default().encode(),
        // Non-zero so the engine builds its checkpoint store up front
        // (the interval itself is too large to fire periodically).
        checkpoint_every: 1_000_000,
        names,
    };
    let base = std::env::temp_dir().join(format!("dp-metrics-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    // Incarnation 1: every frame of the first half is delivered twice
    // (duplicate delivery); the engine must profile each event once and
    // ledger the copies as skipped. An emergency checkpoint ends it.
    let (mut one, ack) = SessionEngine::open(&hello(Vec::new()), 1, Some(&base), 0).unwrap();
    assert!(matches!(ack, Frame::HelloAck { resume_from: 0, .. }));
    let cut = frames.len() / 2;
    let mut delivered_1 = 0u64;
    for f in &frames[..cut] {
        for _ in 0..2 {
            delivered_1 += delivered(f);
            one.handle(f.clone()).unwrap();
        }
    }
    let m1 = one.metrics();
    assert_eq!(m1.service.rehydrated, 0);
    assert_eq!(
        delivered_1,
        m1.events + m1.service.events_skipped_on_resume,
        "incarnation 1 ledger"
    );
    assert_eq!(m1.service.events_skipped_on_resume, m1.events, "every frame was delivered twice");
    let watermark = one.position();
    one.write_checkpoint().unwrap();
    drop(one);

    // Incarnation 2: rehydrates from the checkpoint, is told the exact
    // watermark, receives a full resend from position 0, then hibernates.
    let (mut two, ack) = SessionEngine::open(&hello(Vec::new()), 2, Some(&base), 0).unwrap();
    assert!(matches!(ack, Frame::HelloAck { resume_from, .. } if resume_from == watermark));
    let mut delivered_2 = 0u64;
    for f in &frames {
        delivered_2 += delivered(f);
        two.handle(f.clone()).unwrap();
    }
    let m2 = two.metrics();
    assert_eq!(m2.service.rehydrated, 1, "incarnation 2 must count its rehydration");
    assert_eq!(
        delivered_2,
        m2.events + m2.service.events_skipped_on_resume,
        "incarnation 2 ledger"
    );
    assert_eq!(m2.service.events_skipped_on_resume, watermark, "resent prefix is skipped exactly");
    assert_eq!(two.position(), evs.len() as u64);
    two.hibernate().unwrap();
    assert_eq!(two.metrics().service.hibernated, 1, "hibernation must be counted");

    // Incarnation 3: rehydrates from the hibernation checkpoint with
    // nothing left to feed; profiled totals across incarnations must
    // cover the stream exactly once.
    let (mut three, ack) = SessionEngine::open(&hello(Vec::new()), 3, Some(&base), 0).unwrap();
    assert!(matches!(ack, Frame::HelloAck { resume_from, .. } if resume_from == evs.len() as u64));
    let m3 = three.metrics();
    assert_eq!(m3.service.rehydrated, 1, "incarnation 3 must count its rehydration");
    assert_eq!(
        m1.events + m2.events + m3.events,
        evs.len() as u64,
        "incarnations together profile the stream exactly once"
    );
    // The counters are stamped into the profile snapshot on finish.
    three.set_reconnects(2);
    let result = three.finish_result().expect("live engine finishes");
    assert_eq!(result.metrics.service.reconnects, 2);
    assert_eq!(result.metrics.service.rehydrated, 1);
    assert_eq!(result.metrics.service.events_skipped_on_resume, 0);
    let _ = std::fs::remove_dir_all(&base);
}

/// A connection that keeps a copy of every byte written through it.
struct Recorded {
    conn: std::net::TcpStream,
    sent: Vec<u8>,
}

impl std::io::Read for Recorded {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.conn.read(buf)
    }
}

impl std::io::Write for Recorded {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.conn.write(buf)?;
        self.sent.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.conn.flush()
    }
}

/// `bytes_in` counts the payload of every frame that reaches the session
/// over the wire — chunks of every kind, `Sync`, `Query` and the
/// `StatsRequest` that reads it — not only the accesses.
#[test]
fn served_bytes_in_is_the_payload_of_every_frame_after_hello() {
    use depprof::server::{push_events, PushOptions, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let mut evs = vec![TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 2), thread: 0, ts: 1 }];
    for i in 0..100u64 {
        if i % 5 == 0 {
            evs.push(TraceEvent::LoopIter { loop_id: 1, iter: i / 5, thread: 0, ts: i + 2 });
        }
        evs.push(TraceEvent::Access(MemAccess::write(0x100 + (i % 7) * 8, i + 2, loc(1, 3), 1, 0)));
    }
    evs.push(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 20, thread: 0, ts: 200 });
    let opts = PushOptions {
        session: "bytes-in".into(),
        chunk_events: 16,
        sync_every_chunks: 3,
        // No mid-stream query; one after the last event.
        watch_ms: Some(u64::MAX),
        request_stats: true,
        ..PushOptions::default()
    };
    let mut conn = Recorded { conn: std::net::TcpStream::connect(addr).unwrap(), sent: Vec::new() };
    let out = push_events(&mut conn, vec!["*".into(), "x".into()], evs, &opts).unwrap();
    let stats = out.stats_json.expect("stats were requested");

    // Walk the frames the client wrote, past the preamble and `Hello`.
    let (mut at, mut kinds, mut payload_bytes) = (5, Vec::new(), 0u64);
    while at < conn.sent.len() {
        let tag = conn.sent[at];
        let len = u32::from_le_bytes(conn.sent[at + 1..at + 5].try_into().unwrap()) as u64;
        if tag != 1 {
            kinds.push(tag);
            payload_bytes += len;
        }
        at += 6 + len as usize;
    }
    for (tag, what) in [(3, "Chunk"), (5, "Sync"), (13, "Query"), (7, "StatsRequest")] {
        assert!(kinds.contains(&tag), "the push sent no {what}: {kinds:?}");
    }
    assert!(stats.contains(&format!("\"bytes_in\": {payload_bytes},")), "{stats}");

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// The panic path attributes losses per worker: the dead worker's queue
/// residue shows up as `dropped` + `in_flight_at_shutdown`, never as a
/// silent imbalance, and the surviving workers' ledgers stay clean.
#[test]
fn panic_losses_are_attributed_not_silent() {
    const WORKERS: usize = 4;
    let evs: Vec<TraceEvent> = (0..512u64)
        .map(|i| {
            TraceEvent::Access(MemAccess::write(
                0x1000 + (i % 64) * 8,
                i + 1,
                loc(1, 1 + (i % 40) as u32),
                1,
                0,
            ))
        })
        .collect();
    let cfg = ProfilerConfig::default()
        .with_workers(WORKERS)
        .with_chunk_capacity(8)
        .with_redistribution(false)
        .with_fault_plan(FaultPlan::none().with_panic(2, 0))
        .with_drain_deadline_ms(500)
        .with_transport(TransportKind::Mpmc);
    let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
    // Feed a first slice, then give the supervisor time to notice the
    // (immediate) death of worker 2, so the rest of its residue class is
    // *diverted* rather than enqueued to a corpse.
    let (first, rest) = evs.split_at(64);
    for e in first {
        p.event(*e);
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    for e in rest {
        p.event(*e);
    }
    let r = p.finish();
    assert!(r.degraded());
    let c = &r.metrics.conservation;
    assert!(c.holds(), "conservation violated: {c:?}");
    assert_eq!(c.dropped, r.stats.dropped_events);
    // Worker 2 died before consuming anything, yet traffic to its residue
    // class after the death is diverted to a survivor and *marked*: those
    // copies appear in `rerouted` and nowhere else.
    assert!(c.rerouted > 0, "diverted traffic must be ledgered: {c:?}");
    for w in &r.metrics.per_worker {
        if w.worker != 2 {
            assert_eq!(w.dropped, 0, "survivor {} must not drop", w.worker);
        }
    }
}
