//! End-to-end durability tests for the checkpoint/resume subsystem.
//!
//! The property at the heart of this file is the recovery guarantee:
//! *kill the run after any record, resume from the last checkpoint, and
//! the final profile is identical to an uninterrupted run* — for the
//! serial engine and for all three parallel transports. The CLI tests
//! then prove the same thing across a real process boundary (SIGABRT
//! mid-run, fresh process resumes from disk), including the
//! torn-checkpoint case where the newest generation was half-written.

use depprof::core::{
    ParallelProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
};
use depprof::sig::{ExtendedSlot, Signature};
use depprof::types::{loc::loc, AccessKind, MemAccess, TraceEvent, Tracer};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

// ---------------------------------------------------------------------
// In-process property: checkpoint at ANY index, resume, same profile.
// ---------------------------------------------------------------------

/// A well-formed stream mixing reads, writes, a loop and deallocations
/// over a bounded address set — enough to exercise the signatures, the
/// dependence store, the execution tree and the loop tracker that a
/// checkpoint has to carry.
fn arb_stream() -> impl Strategy<Value = Vec<TraceEvent>> {
    let step = prop_oneof![
        12 => (0u64..24, any::<bool>(), 1u32..40).prop_map(|(slot, w, line)| (0u8, slot, w, line)),
        1 => (0u64..4, any::<bool>(), 1u32..40).prop_map(|(slot, _, _)| (1u8, slot, false, 0)),
    ];
    prop::collection::vec(step, 2..120).prop_map(|steps| {
        let mut ts = 0u64;
        let mut evs = vec![TraceEvent::LoopBegin { loop_id: 7, loc: loc(1, 1), thread: 0, ts }];
        for (i, (kind, slot, is_write, line)) in steps.into_iter().enumerate() {
            ts += 1;
            if i % 8 == 0 {
                evs.push(TraceEvent::LoopIter { loop_id: 7, iter: (i / 8) as u64, thread: 0, ts });
                ts += 1;
            }
            match kind {
                0 => evs.push(TraceEvent::Access(MemAccess {
                    addr: 0x2000 + slot * 8,
                    ts,
                    loc: loc(1, line),
                    var: 1,
                    thread: 0,
                    kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                })),
                _ => evs.push(TraceEvent::Dealloc {
                    base: 0x2000 + slot * 8 * 4,
                    len: 32,
                    thread: 0,
                    ts,
                }),
            }
        }
        evs.push(TraceEvent::LoopEnd { loop_id: 7, loc: loc(1, 2), iters: 1, thread: 0, ts });
        evs
    })
}

/// Stream plus a kill index somewhere strictly inside it. (The vendored
/// proptest subset has no `prop_flat_map`, so the index is drawn as a
/// raw value and reduced modulo the stream length.)
fn arb_stream_and_cut() -> impl Strategy<Value = (Vec<TraceEvent>, usize)> {
    (arb_stream(), 0u64..1_000_000).prop_map(|(evs, raw)| {
        let cut = 1 + (raw as usize) % (evs.len() - 1);
        (evs, cut)
    })
}

fn deps_fingerprint(r: &ProfileResult) -> Vec<String> {
    let mut v: Vec<String> =
        r.deps.dependences().map(|(d, val)| format!("{d:?}={val:?}")).collect();
    v.sort();
    v
}

fn par_cfg(kind: TransportKind) -> ProfilerConfig {
    ProfilerConfig::default()
        .with_workers(3)
        .with_slots(3 << 12)
        .with_chunk_capacity(8)
        .with_transport(kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel pipeline, all three transports: a checkpoint taken after
    /// any record, restored into a fresh engine that then consumes the
    /// rest of the stream, yields the exact profile of an uninterrupted
    /// run — dependences, counts and loop records included.
    #[test]
    fn parallel_kill_anywhere_resume_is_lossless((evs, cut) in arb_stream_and_cut()) {
        for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
            let c = par_cfg(kind);
            let slots = c.slots_per_worker();
            let mk = move || Signature::<ExtendedSlot>::new(slots);

            let mut reference = ParallelProfiler::new(c.clone(), mk);
            for ev in &evs {
                reference.event(*ev);
            }
            let r_ref = reference.finish();
            prop_assert!(!r_ref.degraded());

            let mut first = ParallelProfiler::new(c.clone(), mk);
            for ev in &evs[..cut] {
                first.event(*ev);
            }
            let data = first.checkpoint_data(1, cut as u64, Vec::new()).unwrap();
            drop(first.finish()); // the "killed" engine dies here

            let mut resumed = ParallelProfiler::resume(c, mk, &data).unwrap();
            for ev in &evs[cut..] {
                resumed.event(*ev);
            }
            let r2 = resumed.finish();
            prop_assert!(!r2.degraded());
            prop_assert_eq!(r_ref.stats.accesses, r2.stats.accesses, "{:?} cut={}", kind, cut);
            prop_assert_eq!(
                deps_fingerprint(&r_ref),
                deps_fingerprint(&r2),
                "{:?} cut={}",
                kind,
                cut
            );
            prop_assert_eq!(r_ref.deps.loop_record(7), r2.deps.loop_record(7));
        }
    }

    /// The serial in-line engine honours the same property.
    #[test]
    fn serial_kill_anywhere_resume_is_lossless((evs, cut) in arb_stream_and_cut()) {
        let mut reference = SequentialProfiler::with_signature(1 << 12);
        for ev in &evs {
            reference.on_event(ev);
        }
        let r_ref = reference.finish();

        let mut first = SequentialProfiler::with_signature(1 << 12);
        for ev in &evs[..cut] {
            first.on_event(ev);
        }
        let data = first.checkpoint_data(1, cut as u64, Vec::new()).unwrap();
        drop(first);

        let mut resumed = SequentialProfiler::with_signature(1 << 12);
        resumed.restore(&data).unwrap();
        for ev in &evs[cut..] {
            resumed.on_event(ev);
        }
        let r2 = resumed.finish();
        prop_assert_eq!(r_ref.stats.accesses, r2.stats.accesses);
        prop_assert_eq!(deps_fingerprint(&r_ref), deps_fingerprint(&r2), "cut={}", cut);
        prop_assert_eq!(r_ref.deps.loop_record(7), r2.deps.loop_record(7));
    }
}

// ---------------------------------------------------------------------
// Signature storage across versions: same report, whatever held the slots.
// ---------------------------------------------------------------------

/// Length and FNV-1a hash of the report the build before the signature
/// was stored region by region rendered for `rgbyuv` (scale 0.05; 3 150
/// addresses) profiled serially with 16 000 slots: three full regions
/// and a short one, which the write signature ends with dense, dense,
/// dense and sparse, and the read signature with all four sparse.
const PARENT_RGBYUV_REPORT: (usize, u64) = (6615, 9_368_868_851_919_359_545);

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn checkpoint_written_mid_run_resumes_to_the_parents_report() {
    use depprof::trace::workloads::{starbench_suite, Scale};
    const SLOTS: usize = 16_000;
    let rgbyuv = starbench_suite(Scale(0.05))
        .into_iter()
        .find(|w| w.meta.name == "rgbyuv")
        .expect("rgbyuv workload");
    let mut collected = depprof::trace::CollectTracer::new();
    depprof::trace::Interp::new(&rgbyuv.program).run_seq(&mut collected);
    let evs = collected.events;
    let report = |p: SequentialProfiler<depprof::core::DefaultSig>| {
        depprof::core::report::render(&p.finish(), &rgbyuv.program.interner, false)
    };

    let mut whole = SequentialProfiler::with_signature(SLOTS);
    evs.iter().for_each(|ev| whole.on_event(ev));
    let uninterrupted = report(whole);
    assert_eq!((uninterrupted.len(), fnv1a(&uninterrupted)), PARENT_RGBYUV_REPORT);

    for cut in [evs.len() / 50, evs.len() / 2] {
        let mut first = SequentialProfiler::with_signature(SLOTS);
        evs[..cut].iter().for_each(|ev| first.on_event(ev));
        let data = first.checkpoint_data(1, cut as u64, Vec::new()).unwrap();
        drop(first);
        let mut resumed = SequentialProfiler::with_signature(SLOTS);
        resumed.restore(&data).unwrap();
        evs[cut..].iter().for_each(|ev| resumed.on_event(ev));
        assert!(report(resumed) == uninterrupted, "cut at {cut} of {}", evs.len());
    }
}

/// Slots per signature of the engine behind `golden/algo_two_tables.bin`:
/// one full region and a short last one.
const PINNED_SLOTS: usize = 4096 + 200;

/// A fixed run for [`PINNED_SLOTS`]: writes over 1 400 addresses (enough
/// to take the write half of region 0 from sparse to dense), reads over
/// the first 600 of them (its read half stays sparse), inside a loop, with
/// a three-word dealloc after every 97th access.
fn pinned_stream() -> Vec<TraceEvent> {
    let mut evs = vec![TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 1), thread: 0, ts: 0 }];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 1..=6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let write = x % 5 < 3;
        let addr = 0x5000_0000 + (x >> 20) % if write { 1_400 } else { 600 } * 8;
        let ts = 2 * i;
        if i % 40 == 0 {
            evs.push(TraceEvent::LoopIter { loop_id: 3, iter: i / 40, thread: 0, ts: ts - 1 });
        }
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let line = 2 + ((x >> 50) % 30) as u32;
        evs.push(TraceEvent::Access(MemAccess {
            addr,
            ts,
            loc: loc(1, line),
            var: 1,
            thread: 0,
            kind,
        }));
        if i % 97 == 0 {
            evs.push(TraceEvent::Dealloc { base: addr, len: 3, thread: 0, ts });
        }
    }
    evs
}

/// `golden/algo_two_tables.bin` is the `AlgoState::save_state` blob the
/// engine with two separate signatures (the commit before the fused
/// read/write table) wrote for [`pinned_stream`]: the read-half blob,
/// then the write-half blob, then the rest. The fused engine writes the
/// same bytes for the same stream, loads the blob and re-saves it byte
/// for byte. The blob holds timestamps, so the engine is built the one
/// way that keeps them: checking reversal.
#[test]
fn engine_checkpoint_of_the_two_table_engine_loads_and_resaves() {
    use depprof::core::{AlgoOptions, AlgoState};
    use depprof::types::ByteWriter;
    let new = || {
        let sig = || Signature::<ExtendedSlot>::new(PINNED_SLOTS);
        AlgoState::new(sig(), sig(), AlgoOptions { check_reversal: true, ..AlgoOptions::default() })
    };
    let save = |algo: &mut AlgoState<Signature<ExtendedSlot>>| {
        let mut out = ByteWriter::new();
        assert!(algo.save_state(&mut out));
        out.into_bytes()
    };
    let parent = include_bytes!("golden/algo_two_tables.bin");
    let mut ran = new();
    pinned_stream().iter().for_each(|ev| ran.on_event(ev));
    assert!(save(&mut ran) == parent, "the same stream writes the parent's bytes");

    let mut loaded = new();
    loaded.restore_state(parent).expect("a parent-written checkpoint loads");
    assert_eq!(loaded.sig_gauges(), ran.sig_gauges());
    assert_eq!(loaded.counters(), ran.counters());
    assert!(save(&mut loaded) == parent, "and re-saves byte for byte");

    // Both halves' occupancy as the parent wrote it: region 0's write
    // half past the sparse limit (768), its read half under it.
    let occupied = |at: usize| u64::from_le_bytes(parent[at + 20..at + 28].try_into().unwrap());
    let read_len = u32::from_le_bytes(parent[..4].try_into().unwrap()) as usize;
    assert_eq!((occupied(0), occupied(4 + read_len)), (493, 1007));
}

/// What follows [`pinned_stream`] in its loop: the address its last
/// iteration wrote read again in that iteration, then 40 more iterations
/// over its first 600 addresses, then the loop's end.
fn pinned_continuation(last: &[TraceEvent]) -> Vec<TraceEvent> {
    let access = |addr, ts, line, kind| {
        TraceEvent::Access(MemAccess { addr, ts, loc: loc(1, line), var: 1, thread: 0, kind })
    };
    let latest = last.iter().rev().find_map(TraceEvent::as_access).expect("it has accesses");
    let mut ts = latest.ts + 1;
    let mut evs = vec![access(latest.addr, ts, 40, AccessKind::Read)];
    for iter in 150..190u64 {
        ts += 1;
        evs.push(TraceEvent::LoopIter { loop_id: 3, iter, thread: 0, ts });
        for k in 0..30u64 {
            ts += 1;
            let kind = if k % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            let addr = 0x5000_0000 + (iter * 31 + k * 17) % 600 * 8;
            evs.push(access(addr, ts, 41 + (k % 7) as u32, kind));
        }
    }
    evs.push(TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 2), iters: 190, thread: 0, ts });
    evs
}

/// The same blob holds timestamps; an engine of 8-byte epoch slots loads
/// it through the converter (every timestamp ranked against the blob's
/// own loop marks) and resumes to the report and the dependence store,
/// carried flags and carriers included, of an uninterrupted run — which
/// are the timestamp engine's too.
#[test]
fn engine_checkpoint_of_the_two_table_engine_resumes_on_epoch_slots() {
    use depprof::core::{AlgoOptions, AlgoState, ProfileStats};
    use depprof::sig::{EpochSlot, Slot};
    use depprof::types::ByteWriter;
    fn new<S: Slot>(opts: AlgoOptions) -> AlgoState<Signature<S>> {
        let sig = || Signature::new(PINNED_SLOTS);
        AlgoState::new(sig(), sig(), opts)
    }
    /// The report, the sealed store's bytes and its carried edges.
    fn outcome<S: Slot>(algo: AlgoState<Signature<S>>) -> (String, Vec<u8>, usize) {
        let (mut deps, exec_tree, counters, _) = algo.finish();
        deps.seal();
        let mut store = ByteWriter::new();
        deps.save(&mut store);
        let carried = deps.dependences().filter(|(_, v)| !v.carriers.is_empty()).count();
        let mut stats = ProfileStats::default();
        stats.absorb(counters);
        stats.deps_built = deps.deps_built();
        stats.deps_merged = deps.merged_len();
        let result = ProfileResult { deps, exec_tree, stats, ..ProfileResult::default() };
        let text = depprof::core::report::render(&result, &depprof::types::Interner::new(), false);
        (text, store.into_bytes(), carried)
    }
    let pinned = pinned_stream();
    let rest = pinned_continuation(&pinned);
    let mut whole = new::<EpochSlot>(AlgoOptions::default());
    pinned.iter().chain(&rest).for_each(|ev| whole.on_event(ev));
    let uninterrupted = outcome(whole);
    assert!(uninterrupted.2 > 100, "{} carried edges", uninterrupted.2);
    // Checking reversal is the one configuration that keeps timestamps.
    let mut stamped =
        new::<ExtendedSlot>(AlgoOptions { check_reversal: true, ..AlgoOptions::default() });
    pinned.iter().chain(&rest).for_each(|ev| stamped.on_event(ev));
    assert!(outcome(stamped) == uninterrupted, "epochs classify as timestamps do");

    let mut resumed = new::<EpochSlot>(AlgoOptions::default());
    resumed.restore_state(include_bytes!("golden/algo_two_tables.bin")).expect("it converts");
    rest.iter().for_each(|ev| resumed.on_event(ev));
    assert!(outcome(resumed) == uninterrupted, "resumed from the timestamp engine's blob");
}

// ---------------------------------------------------------------------
// Router statistics across versions: the blob layout outlives the map.
// ---------------------------------------------------------------------

/// The `router` section of a checkpoint written by the build before the
/// router's per-address count map became a bounded table (3 workers,
/// chunks of 8, `redistribute_every` 2, `top_k` 4; 153 accesses over nine
/// addresses): 21 chunks pushed, one redistribution, nine `(addr, count)`
/// pairs in address order, four rules. `0xf368` and `0x24978` share a
/// table bucket with `0x2000`, `0xf370` with `0x2008`.
const PARENT_ROUTER_BLOB: &str = "\
    1500000000000000010000000000000000000000000000000000000000000000\
    0000000000000000030000000000000000000000000000000000000000000000\
    0000000009000000000000000020000000000000280000000000000008200000\
    0000000005000000000000001020000000000000020000000000000018200000\
    00000000210000000000000030200000000000001d0000000000000048200000\
    00000000150000000000000068f3000000000000090000000000000070f30000\
    000000000b000000000000007849020000000000030000000000000004000000\
    0000000000200000000000000000000008200000000000000100000018200000\
    0000000002000000302000000000000000000000";

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

/// The `(addr, count)` pairs of a router blob (layout: five `u64`
/// scalars, a `u32`-counted `u64` drop vector, then the counted pairs).
fn router_counts(blob: &[u8]) -> Vec<(u64, u64)> {
    let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
    let drops = u32::from_le_bytes(blob[40..44].try_into().unwrap()) as usize;
    let at = 44 + drops * 8;
    (0..u64_at(at) as usize).map(|i| (u64_at(at + 8 + i * 16), u64_at(at + 16 + i * 16))).collect()
}

#[test]
fn router_blob_of_the_previous_build_loads_and_new_blobs_are_a_fixed_point() {
    let mut c = par_cfg(TransportKind::Spsc).with_redistribution(true);
    c.redistribute_every = 2;
    c.top_k = 4;
    let slots = c.slots_per_worker();
    let mk = move || Signature::<ExtendedSlot>::new(slots);
    let reload = |router: Vec<u8>| {
        let mut fresh = ParallelProfiler::new(c.clone(), mk);
        let mut data = fresh.checkpoint_data(1, 0, Vec::new()).unwrap();
        drop(fresh.finish());
        data.router = router;
        let mut resumed = ParallelProfiler::resume(c.clone(), mk, &data).unwrap();
        let again = resumed.checkpoint_data(2, 0, Vec::new()).unwrap().router;
        (again, resumed.finish())
    };

    let old = unhex(PARENT_ROUTER_BLOB);
    assert_eq!(router_counts(&old).len(), 9);
    let (folded, r) = reload(old.clone());
    // Scalars and rules carry over untouched.
    assert_eq!((r.stats.chunks_pushed, r.stats.redistributions), (21, 1));
    assert_eq!(r.stats.redistributed_addrs, 4);
    // Counts fold in address order: sole tenants keep theirs, a shared
    // bucket keeps its majority's margin (40 − 9 − 3; 11 − 5).
    assert_eq!(
        router_counts(&folded),
        vec![(0x2000, 28), (0x2010, 2), (0x2018, 33), (0x2030, 29), (0x2048, 21), (0xf370, 6)]
    );
    let pairs_at = 44 + 3 * 8;
    assert_eq!(folded[..pairs_at], old[..pairs_at], "scalars and drop vector");
    assert_eq!(folded[folded.len() - 60..], old[old.len() - 60..], "rules");
    let hot: Vec<(u64, u64)> = r.metrics.hot_addresses.iter().map(|h| (h.addr, h.count)).collect();
    assert_eq!(hot, vec![(0x2018, 33), (0x2030, 29), (0x2000, 28), (0x2048, 21)]);
    // What this build writes, it reloads to the same bytes.
    let (again, _) = reload(folded.clone());
    assert_eq!(again, folded);
}

// ---------------------------------------------------------------------
// CLI-level recovery: a real process killed mid-run, resumed from disk.
// ---------------------------------------------------------------------

fn depprof(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_depprof")).args(args).output().expect("spawn depprof")
}

/// Fresh scratch directory per test so parallel test binaries never race.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("depprof-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_trace(dir: &std::path::Path) -> String {
    let trace = dir.join("is.dptr");
    let trace_s = trace.to_str().unwrap().to_string();
    let rec = depprof(&["record", "IS", "--scale", "0.05", "--out", &trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    trace_s
}

/// Kill the process (abort, no unwinding — an honest SIGKILL stand-in)
/// after a checkpoint was written, resume in a NEW process, and require
/// stdout to be byte-identical to an uninterrupted replay.
#[test]
fn cli_kill_and_resume_produces_identical_report() {
    let dir = scratch("kill");
    let trace = record_trace(&dir);
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let clean = depprof(&[
        "replay",
        &trace,
        "--engine",
        "parallel",
        "--workers",
        "3",
        "--no-redistribution",
    ]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));

    let killed = depprof(&[
        "replay",
        &trace,
        "--engine",
        "parallel",
        "--workers",
        "3",
        "--no-redistribution",
        "--checkpoint-every",
        "2000",
        "--checkpoint-dir",
        ckpt_s,
        "--inject-kill-after",
        "5000",
    ]);
    assert!(!killed.status.success(), "the injected kill must abort the process");
    assert!(ckpt.join("checkpoint-0.dpck").exists() || ckpt.join("checkpoint-1.dpck").exists());

    let resumed = depprof(&["replay", "--resume", ckpt_s]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed profile must match the uninterrupted run"
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(err.contains("resuming from checkpoint"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tearing the newest generation (simulated crash mid-checkpoint-write
/// at the filesystem level) must fall back to the previous valid
/// generation — losing at most one checkpoint interval of progress, and
/// still converging to the identical final profile.
#[test]
fn cli_torn_checkpoint_falls_back_one_generation() {
    let dir = scratch("torn");
    let trace = record_trace(&dir);
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let clean = depprof(&["replay", &trace]);
    assert!(clean.status.success());

    let killed = depprof(&[
        "replay",
        &trace,
        "--checkpoint-every",
        "2000",
        "--checkpoint-dir",
        ckpt_s,
        "--inject-kill-after",
        "5000",
    ]);
    assert!(!killed.status.success());

    // Two generations must exist; tear the newer one in half.
    let g0 = ckpt.join("checkpoint-0.dpck");
    let g1 = ckpt.join("checkpoint-1.dpck");
    assert!(g0.exists() && g1.exists(), "expected both generations after 2 checkpoints");
    let torn = std::fs::read(&g1).unwrap();
    std::fs::write(&g1, &torn[..torn.len() / 2]).unwrap();

    let resumed = depprof(&["replay", "--resume", ckpt_s]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    let err = String::from_utf8_lossy(&resumed.stderr);
    // Generation 1 is torn, so the resume point must be generation 0 —
    // exactly one checkpoint interval (2000 records) behind the tear.
    assert!(err.contains("resuming from checkpoint generation 0 at record 2000"), "{err}");
    assert_eq!(String::from_utf8_lossy(&clean.stdout), String::from_utf8_lossy(&resumed.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both generations torn → a clean, classified failure (exit 4), not a
/// crash or a silently empty profile.
#[test]
fn cli_all_generations_torn_is_a_classified_error() {
    let dir = scratch("dead");
    let trace = record_trace(&dir);
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let killed = depprof(&[
        "replay",
        &trace,
        "--checkpoint-every",
        "2000",
        "--checkpoint-dir",
        ckpt_s,
        "--inject-kill-after",
        "5000",
    ]);
    assert!(!killed.status.success());
    for g in ["checkpoint-0.dpck", "checkpoint-1.dpck"] {
        let p = ckpt.join(g);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 3]).unwrap();
    }
    let resumed = depprof(&["replay", "--resume", ckpt_s]);
    assert_eq!(resumed.status.code(), Some(4), "corrupt checkpoints must exit 4");
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("cannot resume"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled worker starves the pipeline; the watchdog gives up with the
/// documented exit code 6 instead of hanging forever.
#[test]
fn cli_watchdog_exits_with_code_6_on_stall() {
    let dir = scratch("wd");
    // kmeans at this scale pushes well past the stalled worker's second
    // chunk, so the periodic checkpoint quiesces against a worker that
    // will never reply and waits out the 2 s drain deadline — a hard
    // no-progress window the 150 ms watchdog must fire inside. Under the
    // default `--overflow block` no stall deadline applies, so per-worker
    // supervision never recovers the worker first: this test is about
    // the watchdog backstop.
    let trace = dir.join("km.dptr");
    let trace_s = trace.to_str().unwrap().to_string();
    let rec = depprof(&["record", "kmeans", "--scale", "0.05", "--out", &trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let out = depprof(&[
        "replay",
        &trace_s,
        "--engine",
        "parallel",
        "--workers",
        "2",
        "--inject-stall",
        "0@2",
        "--checkpoint-every",
        "5000",
        "--watchdog-deadline",
        "150",
    ]);
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("watchdog"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CONFIG section in `depprof replay`'s layout: the trace path, the
/// interval, and the engine's `SessionSpec` bytes.
fn replay_config(trace: &str, parallel: bool, workers: u32, slots: u64, every: u64) -> Vec<u8> {
    let (workers, slots) = (workers as usize, slots as usize);
    let spec = depprof::core::SessionSpec { parallel, workers, slots, ..Default::default() };
    let mut config = depprof::types::wire::ByteWriter::new();
    config.blob(trace.as_bytes());
    config.u64(every);
    config.blob(&spec.encode());
    config.into_bytes()
}

/// A fresh run owns its checkpoint directory: a replay killed after its
/// first generation, in a directory an earlier run of another trace left
/// generations in, resumes itself, not the other run.
#[test]
fn cli_resume_continues_the_run_that_wrote_the_directory() {
    let dir = scratch("stale");
    let other = record_trace(&dir);
    let cg = dir.join("cg.dptr");
    let cg_s = cg.to_str().unwrap();
    let rec = depprof(&["record", "CG", "--scale", "0.05", "--out", cg_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let ckpt = dir.join("run.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    let earlier =
        depprof(&["replay", &other, "--checkpoint-every", "1000", "--checkpoint-dir", ckpt_s]);
    assert!(earlier.status.success(), "{}", String::from_utf8_lossy(&earlier.stderr));
    let clean = depprof(&["replay", cg_s]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));
    let killed = depprof(&[
        "replay",
        cg_s,
        "--checkpoint-every",
        "2000",
        "--checkpoint-dir",
        ckpt_s,
        "--inject-kill-after",
        "3000",
    ]);
    assert!(!killed.status.success(), "the injected kill must abort the process");

    let resumed = depprof(&["replay", "--resume", ckpt_s]);
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("resuming from checkpoint generation 0 at record 2000"), "{err}");
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "the resumed run is the killed one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Periodic checkpoints fall at multiples of the interval of the trace
/// position, not of the records a resumed run has fed: a run resumed at
/// record 2 500 with an interval of 2 000 writes its next generation at
/// 4 000, and resuming that one still ends in the uninterrupted report.
#[test]
fn cli_resumed_run_keeps_the_absolute_checkpoint_schedule() {
    use depprof::core::{CheckpointStore, SessionSpec};
    let dir = scratch("schedule");
    let trace = record_trace(&dir);
    let clean = depprof(&["replay", &trace]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));

    // A checkpoint at record 2 500, as an emergency one would be.
    let spec = SessionSpec::default();
    let mut session = spec.build();
    let file = std::fs::File::open(&trace).unwrap();
    let reader = depprof::trace::TraceReader::new(file).unwrap();
    reader.take(2500).for_each(|ev| session.on_event(ev.unwrap()));
    let config = replay_config(&trace, false, spec.workers as u32, spec.slots as u64, 2000);
    let data = session.checkpoint_data(0, 2500, config).unwrap();
    let ckpt = dir.join("run.ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("checkpoint-0.dpck"), data.encode()).unwrap();

    let ckpt_s = ckpt.to_str().unwrap();
    let killed = depprof(&["replay", "--resume", ckpt_s, "--inject-kill-after", "2000"]);
    assert!(!killed.status.success(), "the injected kill must abort the process");
    let next = CheckpointStore::load_latest(&ckpt).unwrap();
    assert_eq!((next.generation, next.records_read), (1, 4000));

    let resumed = depprof(&["replay", "--resume", ckpt_s]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&resumed.stdout),
        "resumed twice, the profile still matches the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's CONFIG section comes from disk, so `replay --resume`
/// holds its engine sizes to the bounds a `Hello` spec meets: a section
/// (in `ReplayConfig`'s layout) asking for sizes no engine should be
/// built at exits 4 ("unreadable"), not with a panic or an allocation
/// abort.
fn resume_with_sizes_exits_4(tag: &str, parallel: bool, workers: u32, slots: u64) {
    use depprof::core::CheckpointData;
    let dir = scratch(tag);
    let trace = record_trace(&dir);
    let data = CheckpointData {
        generation: 0,
        records_read: 0,
        config: replay_config(&trace, parallel, workers, slots, 2000),
        router: Vec::new(),
        ledger: Vec::new(),
        workers: Vec::new(),
    };
    let ckpt = dir.join("run.ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("checkpoint-0.dpck"), data.encode()).unwrap();
    let out = depprof(&["replay", "--resume", ckpt.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("checkpoint config section is unreadable"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_resume_rejects_zero_slots() {
    resume_with_sizes_exits_4("zero-slots", false, 8, 0);
}

#[test]
fn cli_resume_rejects_oversized_slots() {
    resume_with_sizes_exits_4("huge-slots", false, 8, 1 << 62);
}

#[test]
fn cli_resume_rejects_oversized_worker_count() {
    resume_with_sizes_exits_4("huge-workers", true, 3_000_000_000, 4096);
}

/// Writes `config` as generation 0 of a checkpoint directory under `dir`,
/// taken `at` records into `trace` by a default serial engine.
fn checkpoint_at(dir: &std::path::Path, trace: &str, at: usize, config: Vec<u8>) -> PathBuf {
    let mut session = depprof::core::SessionSpec::default().build();
    let reader = depprof::trace::TraceReader::new(std::fs::File::open(trace).unwrap()).unwrap();
    reader.take(at).for_each(|ev| session.on_event(ev.unwrap()));
    let data = session.checkpoint_data(0, at as u64, config).unwrap();
    let ckpt = dir.join("run.ckpt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("checkpoint-0.dpck"), data.encode()).unwrap();
    ckpt
}

/// A replay checkpoint whose CONFIG section is in the layout before the
/// engine spec travelled as `SessionSpec` bytes (its fields one by one,
/// the interval after them) is refused, not misread.
#[test]
fn cli_resume_refuses_the_earlier_config_layout() {
    let dir = scratch("old-config");
    let trace = record_trace(&dir);
    let mut config = depprof::types::wire::ByteWriter::new();
    config.blob(trace.as_bytes());
    config.u8(0);
    config.u8(TransportKind::Spsc.code());
    config.u32(8);
    config.u64(1 << 20);
    config.u64(2000);
    config.u8(0);
    let ckpt = checkpoint_at(&dir, &trace, 0, config.into_bytes());
    let out = depprof(&["replay", "--resume", ckpt.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("checkpoint config section is unreadable"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint taken further into its trace than the trace reaches
/// cannot be resumed against it: a complete trace of 2 000 events and a
/// checkpoint at record 2 500 exit 4 and name the checkpoint's position.
#[test]
fn cli_resume_past_the_end_of_the_trace_exits_4() {
    let dir = scratch("short");
    let trace = record_trace(&dir);
    let short = dir.join("short.dptr");
    let short_s = short.to_str().unwrap();
    let reader = depprof::trace::TraceReader::new(std::fs::File::open(&trace).unwrap()).unwrap();
    let file = std::fs::File::create(&short).unwrap();
    let mut writer = depprof::trace::TraceWriter::with_names(file, reader.interner()).unwrap();
    reader.take(2000).for_each(|ev| writer.event(ev.unwrap()));
    writer.finish().unwrap();

    let ckpt = checkpoint_at(&dir, &trace, 2500, replay_config(short_s, false, 8, 1 << 20, 0));
    let out = depprof(&["replay", "--resume", ckpt.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("checkpoint was taken 2500 records in"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A periodic checkpoint that cannot be written costs the run its
/// durability, not its result: the replay warns, goes on and writes the
/// uninterrupted report. The checkpoint directory is a dangling symlink,
/// so opening the store succeeds (there is nothing to discard) and every
/// write fails where it makes the directory.
#[cfg(unix)]
#[test]
fn cli_failed_periodic_checkpoint_warns_and_goes_on() {
    let dir = scratch("unwritable");
    let trace = record_trace(&dir);
    let clean = depprof(&["replay", &trace]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));
    let ckpt = dir.join("run.ckpt");
    std::os::unix::fs::symlink(dir.join("nowhere"), &ckpt).unwrap();
    let ckpt_s = ckpt.to_str().unwrap();
    let out =
        depprof(&["replay", &trace, "--checkpoint-every", "2000", "--checkpoint-dir", ckpt_s]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("WARNING: checkpoint write failed"), "{err}");
    assert!(out.stdout == clean.stdout, "the report is the uninterrupted run's");
    assert!(!dir.join("nowhere").exists(), "no generation was written");
    let _ = std::fs::remove_dir_all(&dir);
}
