//! Deterministic fault-injection suite (scripted via [`FaultPlan`]).
//!
//! Each test drives a recovery path of the fault-tolerant pipeline with a
//! seeded, reproducible fault script: a worker panic mid-run, a stalled
//! worker under the `drop` overflow policy, a lost migration reply, a
//! migration whose source or target died,
//! torn/corrupted trace files, and queues that fail spuriously. The invariants are the ones DESIGN.md's failure model
//! promises: no fault ever aborts the process, losses are counted
//! exactly, and a fault plan that never fires changes nothing.

use std::time::{Duration, Instant};

use depprof::core::{
    FailureCause, FaultPlan, OverflowPolicy, ParallelProfiler, ProfileResult, ProfilerConfig,
    SequentialProfiler, TransportKind,
};
use depprof::sig::PerfectSignature;
use depprof::trace::stream::DEFAULT_CHUNK_EVENTS;
use depprof::trace::tracefile::TraceFileError;
use depprof::trace::{TraceReader, TraceWriter};
use depprof::types::{loc::loc, MemAccess, TraceEvent, Tracer};

const WORKERS: usize = 4;

/// Drain deadline of the tests that lose a worker mid-migration: far above
/// what the run takes, so a run shorter than this waited out no deadline.
const DRAIN: Duration = Duration::from_secs(5);

/// Address owned by worker `k` (Formula 1: `(addr >> 3) % W`): `0x1000`
/// is `%W`-aligned, so `0x1000 + (k + W*j) * 8` routes to `k`.
fn addr_of(k: usize, j: u64) -> u64 {
    0x1000 + (k as u64 + WORKERS as u64 * j) * 8
}

/// Sink lines encode their owner so baseline dependences can be filtered
/// per worker: worker `k`'s reads sit at line `2000 + 10*k + j`.
fn per_worker_stream() -> Vec<TraceEvent> {
    let mut evs = Vec::new();
    let mut ts = 0;
    for k in 0..WORKERS {
        for j in 0..8u64 {
            ts += 1;
            let line = (10 * k as u32) + j as u32;
            evs.push(TraceEvent::Access(MemAccess::write(
                addr_of(k, j),
                ts,
                loc(1, 1000 + line),
                1,
                0,
            )));
            ts += 1;
            evs.push(TraceEvent::Access(MemAccess::read(
                addr_of(k, j),
                ts,
                loc(1, 2000 + line),
                1,
                0,
            )));
        }
    }
    evs
}

fn run_serial(evs: &[TraceEvent]) -> ProfileResult {
    let mut p = SequentialProfiler::perfect();
    for e in evs {
        p.on_event(e);
    }
    p.finish()
}

fn idents(r: &ProfileResult) -> Vec<(String, u64)> {
    let mut v: Vec<_> =
        r.deps.dependences().map(|(d, e)| (format!("{:?}", d.identity()), e.count)).collect();
    v.sort();
    v
}

/// ISSUE scenario: an injected worker panic must degrade the result, not
/// abort the process, and 100% of the *surviving* workers' dependences
/// must still be reported.
#[test]
fn worker_panic_preserves_all_surviving_workers_dependences() {
    let evs = per_worker_stream();
    let serial = run_serial(&evs);

    let cfg = ProfilerConfig::default()
        .with_workers(WORKERS)
        .with_chunk_capacity(4)
        .with_redistribution(false)
        .with_fault_plan(FaultPlan::none().with_panic(2, 0));
    let mut p =
        ParallelProfiler::new(cfg.with_transport(TransportKind::Spsc), PerfectSignature::new);
    for e in &evs {
        p.event(*e);
    }
    let r = p.finish();

    assert!(r.degraded(), "a dead worker must mark the profile degraded");
    assert_eq!(r.stats.worker_failures.len(), 1);
    let f = &r.stats.worker_failures[0];
    assert_eq!(f.worker, 2);
    assert_eq!(f.workers, WORKERS);
    assert!(matches!(&f.cause, FailureCause::Panic(msg) if msg.contains("injected fault")), "{f}");

    // Every baseline dependence whose sink belongs to a surviving worker
    // must be present. Sink lines are `1000 + 10k + j` (writes) and
    // `2000 + 10k + j` (reads), so the owner is `(line % 1000) / 10`.
    let got = idents(&r);
    let mut surviving = 0;
    for (d, e) in serial.deps.dependences() {
        let owner = (d.sink.loc.line as usize % 1000) / 10;
        if owner == 2 {
            continue; // the dead worker's residue class may be lost
        }
        surviving += 1;
        let ident = (format!("{:?}", d.identity()), e.count);
        assert!(got.contains(&ident), "surviving-worker dependence missing: {}", ident.0);
    }
    assert!(surviving > 0, "the filter must leave dependences to check");
}

/// ISSUE scenario: with `--overflow drop` and a stalled worker, the run
/// terminates within its deadlines and the drop counters account for
/// every lost event *exactly*: the ring holds `queue_chunks` chunks of
/// `chunk_capacity` events, everything beyond that is dropped.
#[test]
fn drop_overflow_under_stalled_worker_counts_exactly() {
    const CHUNK: usize = 16;
    const QUEUE_CHUNKS: usize = 4; // power of two: the SPSC ring keeps it as-is
    const N: u64 = 256;
    let expected_drops = N - (QUEUE_CHUNKS * CHUNK) as u64;

    let mut cfg = ProfilerConfig::default()
        .with_workers(2)
        .with_chunk_capacity(CHUNK)
        .with_redistribution(false)
        .with_overflow(OverflowPolicy::Drop)
        .with_stall_deadline_ms(50)
        .with_drain_deadline_ms(300)
        .with_fault_plan(FaultPlan::none().with_stall(0, 0));
    cfg.queue_chunks = QUEUE_CHUNKS;

    let started = Instant::now();
    let mut p =
        ParallelProfiler::new(cfg.with_transport(TransportKind::Spsc), PerfectSignature::new);
    for j in 0..N {
        // (0x1000 + 16j) >> 3 is even: every event is owned by worker 0.
        p.event(TraceEvent::Access(MemAccess::write(
            0x1000 + j * 16,
            j + 1,
            loc(1, 1 + j as u32),
            1,
            0,
        )));
    }
    let r = p.finish();
    let elapsed = started.elapsed();

    assert!(r.degraded());
    assert_eq!(r.stats.dropped_events, expected_drops, "exact drop accounting");
    assert_eq!(r.stats.dropped_per_worker, vec![expected_drops, 0]);
    assert_eq!(r.stats.worker_failures.len(), 1);
    assert_eq!(r.stats.worker_failures[0].worker, 0);
    assert!(matches!(r.stats.worker_failures[0].cause, FailureCause::Unresponsive));
    // 50ms stall deadline + 300ms drain deadline, generously bounded.
    assert!(elapsed.as_secs() < 5, "blocked for {elapsed:?} despite drop policy");
}

/// `n` accesses, write then read, cycling over four addresses that all
/// belong to worker 0: the first balance check finds the whole top-4 on
/// one worker and moves three of them.
fn hot_stream(n: u64) -> Vec<TraceEvent> {
    (0..n)
        .map(|i| {
            let j = i / 2 % 4;
            TraceEvent::Access(if i % 2 == 0 {
                MemAccess::write(addr_of(0, j), i, loc(1, 1000 + j as u32), 1, 0)
            } else {
                MemAccess::read(addr_of(0, j), i, loc(1, 2000 + j as u32), 1, 0)
            })
        })
        .collect()
}

/// The pipeline every migration-fault test runs: four workers, chunks of
/// four, a balance check every two chunks over the top four addresses.
fn migrating_cfg(drain: Duration, plan: FaultPlan) -> ProfilerConfig {
    let mut cfg = ProfilerConfig::default()
        .with_workers(WORKERS)
        .with_chunk_capacity(4)
        .with_redistribution(true)
        .with_drain_deadline_ms(drain.as_millis() as u64)
        .with_fault_plan(plan);
    cfg.redistribute_every = 2;
    cfg.top_k = 4;
    cfg
}

/// A migration whose `Extracted` reply is lost is cancelled inside its
/// round, once the wait has run out the drain deadline: the address
/// starts afresh at its new owner and every later access is routed
/// there, so no event is lost and every dependence the serial engine
/// finds is found — only occurrence counts can differ, by the one pair
/// that straddled the lost signature state.
#[test]
fn lost_migration_reply_is_cancelled_inside_the_round() {
    // Four hot addresses, all owned by worker 0: the first rebalance
    // moves three of them, and worker 0 swallows its first reply.
    let evs = hot_stream(1600);
    let serial = run_serial(&evs);

    let cfg = migrating_cfg(Duration::from_millis(100), FaultPlan::none().with_dropped_reply(0));
    let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
    for e in &evs {
        p.event(*e);
    }
    let r = p.finish();

    assert_eq!(r.stats.redistributions, 1);
    assert_eq!(r.stats.cancelled_migrations, 1);
    assert!(!r.degraded(), "a lost reply kills no worker");
    let set = |r: &ProfileResult| {
        let mut v: Vec<_> =
            r.deps.dependences().map(|(d, _)| format!("{:?}", d.identity())).collect();
        v.sort();
        v
    };
    assert_eq!(set(&r), set(&serial));
    let c = &r.metrics.conservation;
    assert!(c.holds(), "{c:?}");
    assert_eq!((c.pushed - c.consumed, c.dropped), (0, 0), "{c:?}");
}

/// What a run that lost worker `dead` still owes: it ended well inside
/// the drain deadline, the failure is on record, every event is accounted
/// for worker by worker with the losses charged to the dead worker alone,
/// and each dependence whose sink line belongs to a survivor (lines encode
/// their owner as `(line % 1000) / 10`) matches the serial engine's,
/// count included.
fn assert_degraded_exactly(r: &ProfileResult, serial: &ProfileResult, dead: usize, took: Duration) {
    assert!(took < DRAIN, "took {took:?}: some wait ran out its deadline");
    let failed: Vec<usize> = r.stats.worker_failures.iter().map(|f| f.worker).collect();
    assert_eq!(failed, [dead]);
    assert!(matches!(r.stats.worker_failures[0].cause, FailureCause::Panic(_)));
    let c = &r.metrics.conservation;
    assert!(c.holds(), "{c:?}");
    let mut lost = 0;
    for w in &r.metrics.per_worker {
        assert_eq!(w.enqueued, w.consumed + w.in_flight, "{w:?}");
        assert!(w.worker == dead || (w.dropped, w.in_flight) == (0, 0), "{w:?}");
        lost += w.dropped + w.in_flight;
    }
    assert_eq!(c.pushed - c.consumed, lost + c.rerouted, "{c:?}");
    let got = idents(r);
    let mut surviving = 0;
    for (d, e) in serial.deps.dependences() {
        if (d.sink.loc.line as usize % 1000) / 10 != dead {
            surviving += 1;
            let ident = (format!("{:?}", d.identity()), e.count);
            assert!(got.contains(&ident), "surviving-worker dependence missing: {ident:?}");
        }
    }
    assert!(surviving > 0, "the filter must leave dependences to check");
}

/// Hot traffic on worker 0, then every worker's own addresses, then more
/// hot traffic — so a fault in the first round has survivors to check.
fn hot_and_per_worker_stream() -> Vec<TraceEvent> {
    let mut evs = hot_stream(400);
    evs.extend(per_worker_stream());
    evs.extend(hot_stream(400));
    evs
}

/// The source dies around its `Extract`: worker 0 panics once it has
/// consumed the two chunks that make the first balance check fall due, so
/// it never answers. Whether the router finds it dead before asking (no
/// migration is tried), while asking, or while waiting for the answer
/// (one is cancelled, the wait ended by the dead flag rather than the
/// deadline), the round returns at once and the survivors lose nothing.
#[test]
fn migration_source_dying_at_its_extract_ends_the_round_at_once() {
    let evs = hot_and_per_worker_stream();
    let serial = run_serial(&evs);
    let plan = FaultPlan::none().with_panic(0, 2);
    let mut p = ParallelProfiler::new(migrating_cfg(DRAIN, plan), PerfectSignature::new);
    let started = Instant::now();
    for e in &evs {
        p.event(*e);
    }
    let r = p.finish();
    assert_degraded_exactly(&r, &serial, 0, started.elapsed());
    // A dead source is asked at most once, and never again afterwards.
    assert!(r.stats.cancelled_migrations <= 1, "{:?}", r.stats);
    assert!(r.stats.redistributions <= r.stats.cancelled_migrations, "{:?}", r.stats);
}

/// The target is dead when a round falls due (a refused checkpoint is the
/// proof that the router knows): nothing is moved to it, the other hot
/// addresses migrate with their state, and what worker 1 owned is
/// diverted — so every survivor's dependences, the migrated addresses'
/// included, are exact.
#[test]
fn migration_round_skips_a_dead_target() {
    let evs = hot_and_per_worker_stream();
    let serial = run_serial(&evs);
    let plan = FaultPlan::none().with_panic(1, 0);
    let mut p = ParallelProfiler::new(migrating_cfg(DRAIN, plan), PerfectSignature::new);
    let started = Instant::now();
    assert!(p.checkpoint_data(0, 0, Vec::new()).is_err(), "worker 1 dies before its first pop");
    for e in &evs {
        p.event(*e);
    }
    let r = p.finish();
    assert_degraded_exactly(&r, &serial, 1, started.elapsed());
    assert!(r.stats.redistributions > 0, "{:?}", r.stats);
    assert_eq!(r.stats.cancelled_migrations, 0, "{:?}", r.stats);
    assert!(r.stats.rerouted_events > 0, "{:?}", r.stats);
}

/// Two frames' worth of the per-worker stream, recorded.
fn two_frame_recording() -> (Vec<TraceEvent>, Vec<u8>) {
    let stream: Vec<TraceEvent> = per_worker_stream().into_iter().cycle().take(600).collect();
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    for e in &stream {
        w.event(*e);
    }
    (stream, w.finish().unwrap())
}

/// ISSUE scenario: a truncated or corrupted trace is rejected with the
/// right typed error, never a panic or a silent partial replay; what
/// replays before the damage is every whole frame.
#[test]
fn damaged_traces_fail_typed() {
    let (stream, clean) = two_frame_recording();
    let whole = DEFAULT_CHUNK_EVENTS;
    assert!(stream.len() > whole);

    // Whole file replays.
    let n = TraceReader::new(&clean[..]).unwrap().map(Result::unwrap).count();
    assert_eq!(n, stream.len());

    // Truncated inside the last chunk (the `Finish` is the last 6
    // bytes): the first chunk replays, then a TornRecord — not a clean
    // end, not an io::Error.
    let cut = &clean[..clean.len() - 7];
    let items: Vec<_> = TraceReader::new(cut).unwrap().collect();
    assert_eq!(items.len(), whole + 1);
    assert!(items[..whole].iter().all(Result::is_ok));
    assert!(
        matches!(items[whole], Err(TraceFileError::TornRecord { records_read, .. }) if records_read == whole as u64),
        "{:?}",
        items[whole]
    );

    // One flipped payload bit in the last chunk: its checksum catches it.
    let mut corrupt = clean.clone();
    let last_chunk = corrupt.len() - 10;
    corrupt[last_chunk] ^= 0x01;
    let items: Vec<_> = TraceReader::new(&corrupt[..]).unwrap().collect();
    assert_eq!(items.len(), whole + 1);
    assert!(
        matches!(items[whole], Err(TraceFileError::Checksum { records_read, .. }) if records_read == whole as u64),
        "{:?}",
        items[whole]
    );

    // Not a trace at all.
    assert!(matches!(
        TraceReader::new(&b"PNG\x89 definitely not"[..]),
        Err(TraceFileError::NotATrace)
    ));
}

/// A recording ends with its `Finish` frame, so a cut anywhere past its
/// header, between two frames included, reads as torn or corrupt, never
/// as a clean, shorter trace; and the error counts exactly the events
/// handed out before it.
#[test]
fn every_cut_of_a_recording_is_torn() {
    let (_, clean) = two_frame_recording();
    let mut header = Vec::new();
    drop(TraceWriter::new(&mut header).unwrap());
    for cut in header.len()..clean.len() {
        let mut r = TraceReader::new(&clean[..cut]).unwrap();
        let mut yielded = 0;
        let end = loop {
            match r.next() {
                Some(Ok(_)) => yielded += 1,
                other => break other,
            }
        };
        let Some(Err(
            TraceFileError::TornRecord { records_read, .. }
            | TraceFileError::Checksum { records_read, .. },
        )) = end
        else {
            panic!("cut at {cut} of {}: {end:?} after {yielded} events", clean.len());
        };
        assert_eq!(records_read, yielded, "cut at {cut}");
        assert_eq!(r.records_read(), yielded, "cut at {cut}");
    }
}

/// A fault plan that never fires must change nothing: every transport
/// still reproduces the serial engine's exact dependence set.
#[test]
fn every_transport_equals_serial_with_inert_fault_plan() {
    let evs = per_worker_stream();
    let expected = idents(&run_serial(&evs));
    for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
        let cfg = ProfilerConfig::default()
            .with_workers(3)
            .with_chunk_capacity(8)
            .with_transport(kind)
            .with_fault_plan(FaultPlan::none());
        let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
        for e in &evs {
            p.event(*e);
        }
        let r = p.finish();
        assert!(!r.degraded(), "transport {kind:?}: {:?}", r.stats.worker_failures);
        assert_eq!(expected, idents(&r), "transport {kind:?}");
    }
}

/// Queues that spuriously fail sends and receives (seeded by the config's
/// plan, so reproducible) only cost retries, on every transport: the
/// dependence set stays exact and the run is NOT degraded. Several seeds,
/// so CI sweeps distinct interleavings of the injected failures.
#[test]
fn chaotic_transport_stays_exact_across_seeds() {
    let evs = per_worker_stream();
    let expected = idents(&run_serial(&evs));
    // `DEPPROF_CHAOS_SEED=a,b,c` overrides; garbage warns and falls back
    // instead of silently running nothing (or panicking the sweep).
    let seeds = depprof::queue::chaos_seeds(&[1, 7, 42, 1234]);
    for seed in seeds {
        for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
            let plan = FaultPlan::none().with_seed(seed).with_spurious(25, 25);
            let cfg = ProfilerConfig::default()
                .with_workers(3)
                .with_chunk_capacity(8)
                .with_transport(kind)
                .with_fault_plan(plan);
            let mut p = ParallelProfiler::new(cfg, PerfectSignature::new);
            for e in &evs {
                p.event(*e);
            }
            let r = p.finish();
            assert!(!r.degraded(), "seed {seed}, {kind:?}: {:?}", r.stats.worker_failures);
            assert_eq!(expected, idents(&r), "seed {seed}, {kind:?}");
        }
    }
}
