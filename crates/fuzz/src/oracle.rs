//! The differential oracle: one program, every engine, one verdict.
//!
//! For a sequential program the oracle records its trace once and feeds
//! the identical event stream to twelve engine legs:
//!
//! 1. serial in-line engine (the reference),
//! 2. parallel pipeline, SPSC transport,
//! 3. parallel pipeline, MPMC transport,
//! 4. parallel pipeline, lock-based transport,
//! 5. the DPSV service engine wrapping the serial engine,
//! 6. the DPSV service engine wrapping the parallel pipeline,
//! 7. the service engine over a flaky transport (seeded mid-stream
//!    disconnect, checkpointed resume with resend overlap, every frame
//!    delivered twice) wrapping the serial engine,
//! 8. the same flaky transport wrapping the parallel pipeline,
//! 9. serial engine checkpointed mid-stream and resumed,
//! 10. parallel pipeline checkpointed mid-stream and resumed,
//! 11. the service engine answering live `Query` frames mid-stream from
//!     its incremental analysis state (serial engine) — the *final*
//!     snapshot must equal the post-hoc loop/comm/race passes over the
//!     finished profile,
//! 12. the same online-analysis equivalence over the parallel pipeline.
//!
//! All legs must produce the same dependence multiset, and the serial
//! result must additionally show zero false positives and zero false
//! negatives against the perfect-signature baseline, a thirteenth leg
//! in [`OracleOutcome::legs`]. Both comparisons are exact, not
//! statistical: [`injective_slots`] grows the signature
//! until the multiply-shift hash is injective on the program's actual
//! address footprint (checked for the serial slot count *and* the
//! per-worker slot count), at which point the approximate signature is
//! semantically a perfect table and any difference is a real bug.
//!
//! A deliberately undersized run (4 slots per address) is profiled too,
//! yielding a measured FPR/FNR sample the campaign driver aggregates
//! against the Formula 2 prediction.
//!
//! Multi-threaded programs cannot be replayed from a recorded trace (the
//! recorder is sequential), so they run live under the fork-join
//! profiler with structural invariants: the run completes, traces
//! accesses, loses no worker and conserves events.

use std::collections::{BTreeMap, HashSet};

use dp_analysis::compare;
use dp_core::{
    MtProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, SessionSpec, TransportKind,
};
use dp_server::SessionEngine;
use dp_sig::{predicted_fpr, SigHash};
use dp_trace::fuzz::is_mt;
use dp_trace::ir::Program;
use dp_trace::{FrameChunker, Interp, TraceReader, TraceWriter};
use dp_types::protocol::{Frame, Hello};
use dp_types::{Interner, TraceEvent};

/// How the oracle sizes and drives its legs.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Worker count for the parallel legs.
    pub workers: usize,
    /// Starting signature size for the injectivity search.
    pub base_slots: usize,
    /// Also run the undersized-signature accuracy leg.
    pub accuracy: bool,
    /// Deliberate stream mutation applied to the parallel-SPSC leg only
    /// — the hand-injected divergence the harness must catch.
    pub corruption: Option<Corruption>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { workers: 3, base_slots: 1 << 16, accuracy: true, corruption: None }
    }
}

/// A deliberate divergence injected into one leg's event stream, used to
/// prove the oracle catches real disagreements (and to exercise the
/// minimizer on something that genuinely fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Drop the i-th memory access (modulo the access count).
    DropAccess(usize),
    /// Duplicate the i-th memory access (modulo the access count).
    DuplicateAccess(usize),
}

impl Corruption {
    /// Applies the mutation to a copy of the stream. A stream with no
    /// accesses is returned unchanged.
    pub fn apply(&self, events: &[TraceEvent]) -> Vec<TraceEvent> {
        let access_positions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.as_access().is_some())
            .map(|(i, _)| i)
            .collect();
        if access_positions.is_empty() {
            return events.to_vec();
        }
        let mut out = events.to_vec();
        match *self {
            Corruption::DropAccess(i) => {
                out.remove(access_positions[i % access_positions.len()]);
            }
            Corruption::DuplicateAccess(i) => {
                let pos = access_positions[i % access_positions.len()];
                let ev = out[pos];
                out.insert(pos, ev);
            }
        }
        out
    }
}

/// Which leg diverged and how — enough to reproduce without the oracle.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Name of the disagreeing leg (e.g. `"par-mpmc"`, `"resumed-serial"`).
    pub leg: &'static str,
    /// Human-readable first differences.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "leg {} diverged: {}", self.leg, self.detail)
    }
}

/// One undersized-signature accuracy measurement.
#[derive(Debug, Clone, Copy)]
pub struct AccuracySample {
    /// Distinct addresses the program touched.
    pub distinct_addrs: u64,
    /// Slots of the deliberately undersized signature.
    pub slots: usize,
    /// Measured false-positive rate (percent of reported dependences).
    pub measured_fpr: f64,
    /// Measured false-negative rate (percent of baseline dependences).
    pub measured_fnr: f64,
    /// Formula 2 slot-level collision probability for (slots, addrs).
    pub predicted_slot_fpr: f64,
    /// Dependence-level bound implied by Formula 2: a dependence is
    /// wrong when either of its two endpoint lookups collides, so
    /// `100·(1−(1−p)²)` percent.
    pub dep_bound: f64,
}

/// What a passing oracle run observed.
#[derive(Debug, Clone, Copy)]
pub struct OracleOutcome {
    /// Engine legs that agreed (1 for a live multi-threaded run).
    pub legs: usize,
    /// Memory accesses in the reference run.
    pub accesses: u64,
    /// Injective signature size used for the equality legs (the MT leg
    /// reports the configured base size).
    pub slots: usize,
    /// Undersized-signature measurement, when the leg ran.
    pub accuracy: Option<AccuracySample>,
}

/// Canonical dependence multiset of a result: `dtype sink|thread <-
/// source|thread var` mapped to its occurrence count.
pub fn dep_map(r: &ProfileResult) -> BTreeMap<String, u64> {
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

/// Records a sequential program into an in-memory trace and returns its
/// events, interner, and the name table in id order — the shared input
/// of every replay leg.
pub fn record(prog: &Program) -> (Vec<TraceEvent>, Interner, Vec<String>) {
    let mut wtr = TraceWriter::with_names(Vec::new(), &prog.interner).expect("in-memory trace");
    Interp::new(prog).run_seq(&mut wtr);
    let bytes = wtr.finish().expect("in-memory trace");
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reread own trace");
    let interner = reader.interner().clone();
    let mut events = Vec::new();
    for rec in reader.by_ref() {
        events.push(rec.expect("reread own trace"));
    }
    let names = (0..interner.len()).map(|id| interner.resolve(id as u32).to_owned()).collect();
    (events, interner, names)
}

/// Replays events through a fresh engine built from `spec`.
pub fn offline(spec: &SessionSpec, events: &[TraceEvent]) -> ProfileResult {
    let mut session = spec.build();
    for ev in events {
        session.on_event(*ev);
    }
    session.finish()
}

/// Replays events through the socket-free DPSV service engine, driven
/// frame-by-frame exactly like a connection handler.
pub fn served(spec: &SessionSpec, events: &[TraceEvent], names: Vec<String>) -> ProfileResult {
    let hello = Hello { session: "fuzz".into(), spec: spec.encode(), checkpoint_every: 0, names };
    let (mut engine, ack) = SessionEngine::open(&hello, 1, None, 0).expect("hello");
    assert!(matches!(ack, Frame::HelloAck { resume_from: 0, .. }));
    let mut chunker = FrameChunker::new(64);
    for ev in events {
        if let Some(frame) = chunker.push(*ev) {
            engine.handle(frame).expect("event frame");
        }
    }
    if let Some(frame) = chunker.flush() {
        engine.handle(frame).expect("flush frame");
    }
    engine.finish_result().expect("engine still live before Finish")
}

/// Replays events through the service engine while issuing live
/// `Query` frames every few events, and checks the analysis-equivalence
/// bar: the final query's snapshot — serialized from the engine's
/// incremental loop/comm/race state — must equal the post-hoc
/// [`dp_analysis::posthoc_report`] over the finished profile,
/// dependence for dependence (same loop verdicts, same communication
/// matrix, same race hints, serialized identically).
pub fn online_equivalence(
    leg: &'static str,
    spec: &SessionSpec,
    events: &[TraceEvent],
    names: Vec<String>,
) -> Result<(), Box<Divergence>> {
    use dp_types::protocol::query_kind;

    let hello = Hello {
        session: "online".into(),
        spec: spec.encode(),
        checkpoint_every: 0,
        names: names.clone(),
    };
    let (mut engine, ack) = SessionEngine::open(&hello, 1, None, 0).expect("hello");
    assert!(matches!(ack, Frame::HelloAck { resume_from: 0, .. }));
    // Mid-stream queries make the incremental state fold from many
    // partial deltas, not one big catch-up — the verdict below proves
    // interval boundaries don't change the answer. One falls every
    // `QUERY_EVERY` events, wherever the loop events lie.
    const QUERY_EVERY: u64 = 12;
    let mut chunker = FrameChunker::new(4);
    let mut id = 0u64;
    for ev in events {
        let Some(frame) = chunker.push(*ev) else { continue };
        engine.handle(frame).expect("event frame");
        if engine.position().is_multiple_of(QUERY_EVERY) {
            id += 1;
            engine.handle(Frame::Query { id, kind: query_kind::ALL }).expect("query");
        }
    }
    if let Some(frame) = chunker.flush() {
        engine.handle(frame).expect("flush frame");
    }
    id += 1;
    let replies = engine.handle(Frame::Query { id, kind: query_kind::ALL }).expect("final query");
    let json = match &replies[..] {
        [Frame::QueryResult { json, .. }] => json.clone(),
        other => panic!("wanted one QueryResult, got {other:?}"),
    };
    let result = engine.finish_result().expect("engine still live before Finish");

    let mut interner = Interner::default();
    for n in &names {
        interner.intern(n);
    }
    let expected = dp_analysis::posthoc_report(&result).to_json(&interner, true, true, true);
    // The live snapshot wraps the report body in session/position/deltas
    // metadata; the report itself must match byte for byte.
    if json.ends_with(&expected[1..]) {
        Ok(())
    } else {
        Err(Box::new(Divergence {
            leg,
            detail: format!(
                "incremental snapshot diverged from post-hoc analysis\n live: {json}\n post: \
                 {expected}"
            ),
        }))
    }
}

/// Replays events through the service engine over a simulated flaky
/// transport: frames are cut at a seeded offset mid-stream (the
/// server's disconnect path writes an emergency checkpoint and drops
/// the engine), the client re-`Hello`s the same session, and resends
/// from the acked resume watermark with deliberate overlap — and every
/// single frame, both before and after the cut, is delivered *twice*,
/// the way a retransmitting network would. The positional protocol must
/// make all of it land in the profile exactly once.
pub fn flaky_served(
    spec: &SessionSpec,
    events: &[TraceEvent],
    names: Vec<String>,
    seed: u64,
) -> ProfileResult {
    let base = std::env::temp_dir().join(format!(
        "dp-fuzz-flaky-{}-{}-{seed}",
        std::process::id(),
        spec.parallel as u8
    ));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("flaky temp dir");
    let hello = Hello { session: "flaky".into(), spec: spec.encode(), checkpoint_every: 0, names };

    // First connection: duplicated delivery of every frame up to a
    // seeded cut, then the client is "lost" — emergency checkpoint,
    // engine dropped.
    let (mut engine, ack) = SessionEngine::open(&hello, 1, Some(&base), 0).expect("hello");
    assert!(matches!(ack, Frame::HelloAck { resume_from: 0, .. }));
    let frames: Vec<Frame> = {
        let mut c = FrameChunker::new(16);
        let mut v: Vec<Frame> = events.iter().flat_map(|ev| c.push(*ev)).collect();
        v.extend(c.flush());
        v
    };
    let cut = if frames.is_empty() { 0 } else { seed as usize % frames.len() };
    for f in &frames[..cut] {
        engine.handle(f.clone()).expect("pre-cut frame");
        engine.handle(f.clone()).expect("pre-cut duplicate");
    }
    engine.write_checkpoint().expect("emergency checkpoint");
    drop(engine);

    // Reconnect under the same name: the ack carries the watermark.
    // Resend from a few events *before* it (retry overlap), duplicated
    // again — the positional skip dedupes overlap and duplicates alike.
    let (mut engine, ack) = SessionEngine::open(&hello, 2, Some(&base), 0).expect("re-hello");
    let resume = match ack {
        Frame::HelloAck { resume_from, .. } => resume_from,
        other => panic!("wanted HelloAck, got {other:?}"),
    };
    let overlap = resume.min(seed % 5);
    let start = resume - overlap;
    let mut c = FrameChunker::with_base(16, start);
    let mut resent: Vec<Frame> =
        events[start as usize..].iter().flat_map(|ev| c.push(*ev)).collect();
    resent.extend(c.flush());
    for f in resent {
        engine.handle(f.clone()).expect("resent frame");
        engine.handle(f).expect("resent duplicate");
    }
    let acks = engine.handle(Frame::Sync { nonce: 1 }).expect("sync");
    match acks[..] {
        [Frame::SyncAck { nonce: 1, position }] => {
            assert_eq!(position, events.len() as u64, "watermark covers the whole stream");
        }
        ref other => panic!("wanted one SyncAck, got {other:?}"),
    }
    let result = engine.finish_result().expect("engine still live before Finish");
    let _ = std::fs::remove_dir_all(&base);
    result
}

/// Replays events with a kill at `cut`: the first engine checkpoints
/// after `cut` events and is dropped (the process is gone — only the
/// checkpoint bytes survive); a second engine is rebuilt from the
/// decoded checkpoint config and fed the remainder.
pub fn resumed(spec: &SessionSpec, events: &[TraceEvent], cut: usize) -> ProfileResult {
    let cut = cut.min(events.len());
    let mut first = spec.build();
    for ev in &events[..cut] {
        first.on_event(*ev);
    }
    let data = first.checkpoint_data(1, cut as u64, spec.encode()).expect("checkpoint");
    drop(first);
    let respec = SessionSpec::decode(&data.config).expect("checkpointed spec decodes");
    let mut second = respec.resume(&data).expect("resume");
    for ev in &events[cut..] {
        second.on_event(*ev);
    }
    second.finish()
}

/// Replays events through the perfect-signature baseline.
pub fn perfect(events: &[TraceEvent]) -> ProfileResult {
    let mut p = SequentialProfiler::perfect();
    for ev in events {
        p.on_event(ev);
    }
    p.finish()
}

/// Smallest slot count ≥ `base` whose multiply-shift hash is injective
/// on `addrs` *both* as a single serial signature and split across
/// `workers` per-worker signatures. Each doubling also tries `n+1`
/// (Lemire reduction handles any modulus), so the search has many
/// independent chances per octave and fails only with astronomically
/// small probability before the cap.
pub fn injective_slots(addrs: &[u64], base: usize, workers: usize) -> usize {
    fn injective(nslots: usize, addrs: &[u64]) -> bool {
        let hash = SigHash::new(nslots);
        let mut seen = HashSet::with_capacity(addrs.len());
        addrs.iter().all(|&a| seen.insert(hash.index(a)))
    }
    let mut size = base.max(workers * 2).max(2 * addrs.len().max(1));
    const CAP: usize = 1 << 27;
    while size <= CAP {
        for total in [size, size + 1] {
            let per_worker = ProfilerConfig::default()
                .with_workers(workers)
                .with_slots(total)
                .slots_per_worker();
            if injective(total, addrs) && injective(per_worker, addrs) {
                return total;
            }
        }
        size *= 2;
    }
    panic!("no injective signature size ≤ {CAP} for {} addresses", addrs.len());
}

fn diff(want: &BTreeMap<String, u64>, got: &BTreeMap<String, u64>) -> String {
    let mut lines = Vec::new();
    for (k, v) in want {
        match got.get(k) {
            None => lines.push(format!("missing: {k} (count {v})")),
            Some(g) if g != v => lines.push(format!("count {g} != {v}: {k}")),
            _ => {}
        }
    }
    for (k, v) in got {
        if !want.contains_key(k) {
            lines.push(format!("extra: {k} (count {v})"));
        }
    }
    let total = lines.len();
    lines.truncate(5);
    if total > 5 {
        lines.push(format!("… and {} more", total - 5));
    }
    lines.join("; ")
}

fn expect_equal(
    leg: &'static str,
    want: &BTreeMap<String, u64>,
    r: &ProfileResult,
) -> Result<(), Box<Divergence>> {
    let got = dep_map(r);
    if &got == want {
        Ok(())
    } else {
        Err(Box::new(Divergence { leg, detail: diff(want, &got) }))
    }
}

/// Runs the full differential oracle on one program.
pub fn check_program(prog: &Program, cfg: &OracleConfig) -> Result<OracleOutcome, Box<Divergence>> {
    if is_mt(prog) {
        return check_mt(prog, cfg);
    }
    let (events, _interner, names) = record(prog);
    let addrs: Vec<u64> = {
        let set: HashSet<u64> =
            events.iter().filter_map(|e| e.as_access()).map(|a| a.addr).collect();
        set.into_iter().collect()
    };
    let slots = injective_slots(&addrs, cfg.base_slots, cfg.workers);
    let serial_spec = SessionSpec { slots, ..SessionSpec::default() };
    let par_spec = |transport| SessionSpec {
        parallel: true,
        workers: cfg.workers,
        transport,
        slots,
        ..SessionSpec::default()
    };

    let reference = offline(&serial_spec, &events);
    let want = dep_map(&reference);
    let mut legs = 1usize;

    // Parallel transports. The SPSC leg is where a hand-injected
    // corruption lands, so the harness can prove divergences are caught.
    let spsc_events: Vec<TraceEvent> = match &cfg.corruption {
        None => events.clone(),
        Some(c) => c.apply(&events),
    };
    expect_equal("par-spsc", &want, &offline(&par_spec(TransportKind::Spsc), &spsc_events))?;
    legs += 1;
    expect_equal("par-mpmc", &want, &offline(&par_spec(TransportKind::Mpmc), &events))?;
    legs += 1;
    expect_equal("par-lock", &want, &offline(&par_spec(TransportKind::Lock), &events))?;
    legs += 1;

    // Service layer, both engines.
    expect_equal("served-serial", &want, &served(&serial_spec, &events, names.clone()))?;
    legs += 1;
    expect_equal(
        "served-par",
        &want,
        &served(&par_spec(TransportKind::Spsc), &events, names.clone()),
    )?;
    legs += 1;

    // Online analysis: live mid-stream queries; the final incremental
    // snapshot must equal the post-hoc passes over the same profile.
    online_equivalence("online-serial", &serial_spec, &events, names.clone())?;
    legs += 1;
    online_equivalence("online-par", &par_spec(TransportKind::Spsc), &events, names.clone())?;
    legs += 1;

    // Flaky transport: seeded mid-stream disconnect + reconnect with
    // resend overlap, every frame delivered twice. The seed varies per
    // program, so the cut lands differently across a campaign.
    let leg_seed = (events.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    expect_equal(
        "flaky-served-serial",
        &want,
        &flaky_served(&serial_spec, &events, names.clone(), leg_seed),
    )?;
    legs += 1;
    expect_equal(
        "flaky-served-par",
        &want,
        &flaky_served(&par_spec(TransportKind::Spsc), &events, names, leg_seed ^ 0xdead_beef),
    )?;
    legs += 1;

    // Kill-and-resume mid-stream, both engines.
    let cut = events.len() / 2;
    expect_equal("resumed-serial", &want, &resumed(&serial_spec, &events, cut))?;
    legs += 1;
    expect_equal("resumed-par", &want, &resumed(&par_spec(TransportKind::Spsc), &events, cut))?;
    legs += 1;

    // Ground truth: the injectively-sized signature must be *exact* —
    // zero false positives and zero false negatives vs the perfect
    // baseline.
    let baseline = perfect(&events);
    let acc = compare(&baseline, &reference);
    if acc.false_positives != 0 || acc.false_negatives != 0 {
        return Err(Box::new(Divergence {
            leg: "perfect",
            detail: format!(
                "injective signature not exact: {} false positives, {} false negatives \
                 ({} baseline deps, {} slots)",
                acc.false_positives, acc.false_negatives, acc.baseline, slots
            ),
        }));
    }
    legs += 1;

    // Undersized accuracy leg: 4 slots per distinct address, measured
    // against the perfect baseline and bounded later (in aggregate) by
    // the Formula 2 prediction.
    let n = addrs.len() as u64;
    let accuracy = if cfg.accuracy && cfg.corruption.is_none() && n >= 16 {
        let small_slots = (n as usize) * 4;
        let small = offline(&SessionSpec { slots: small_slots, ..SessionSpec::default() }, &events);
        let a = compare(&baseline, &small);
        let p = predicted_fpr(small_slots, n);
        let sample = AccuracySample {
            distinct_addrs: n,
            slots: small_slots,
            measured_fpr: a.fpr(),
            measured_fnr: a.fnr(),
            predicted_slot_fpr: p,
            dep_bound: 100.0 * (1.0 - (1.0 - p) * (1.0 - p)),
        };
        // A catastrophic per-seed miss is a bug even before aggregation:
        // allow generous slack (3× the dep-level bound plus an absolute
        // floor for tiny dependence sets where one dep is many percent).
        let ceiling = (3.0 * sample.dep_bound).max(35.0);
        if sample.measured_fpr > ceiling || sample.measured_fnr > ceiling {
            return Err(Box::new(Divergence {
                leg: "accuracy",
                detail: format!(
                    "undersized run blew past Formula 2: measured fpr {:.2}% fnr {:.2}% \
                     vs dep-level bound {:.2}% (n={n}, m={small_slots})",
                    sample.measured_fpr, sample.measured_fnr, sample.dep_bound
                ),
            }));
        }
        Some(sample)
    } else {
        None
    };

    Ok(OracleOutcome { legs, accesses: reference.stats.accesses, slots, accuracy })
}

/// Live fork-join leg for multi-threaded programs (the trace recorder is
/// sequential, so MT targets cannot take the replay legs). Structural
/// invariants only: the run completes, traces accesses, loses no worker,
/// and conserves events.
fn check_mt(prog: &Program, cfg: &OracleConfig) -> Result<OracleOutcome, Box<Divergence>> {
    let pcfg = ProfilerConfig::default().with_workers(cfg.workers).with_slots(cfg.base_slots);
    let prof = MtProfiler::new(pcfg);
    Interp::new(prog).run_mt(&prof);
    let r = prof.finish();
    if r.stats.accesses == 0 {
        return Err(Box::new(Divergence { leg: "mt", detail: "no accesses traced".into() }));
    }
    if !r.stats.worker_failures.is_empty() {
        return Err(Box::new(Divergence {
            leg: "mt",
            detail: format!("lost workers: {:?}", r.stats.worker_failures),
        }));
    }
    if !r.metrics.conservation.holds() {
        return Err(Box::new(Divergence {
            leg: "mt",
            detail: format!("conservation violated: {:?}", r.metrics.conservation),
        }));
    }
    Ok(OracleOutcome { legs: 1, accesses: r.stats.accesses, slots: cfg.base_slots, accuracy: None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_trace::fuzz::{generate, FuzzConfig};

    #[test]
    fn injectivity_search_terminates_and_is_injective() {
        let addrs: Vec<u64> = (0..4_000u64).map(|i| 0x10_0000 + i * 24).collect();
        let slots = injective_slots(&addrs, 1 << 10, 3);
        let hash = SigHash::new(slots);
        let mut seen = HashSet::new();
        assert!(addrs.iter().all(|&a| seen.insert(hash.index(a))));
    }

    #[test]
    fn oracle_passes_on_generated_sequential_programs() {
        let cfg = OracleConfig::default();
        for seed in 0..8u64 {
            let prog = generate(seed, &FuzzConfig::quick());
            let out = check_program(&prog, &cfg).unwrap_or_else(|d| {
                panic!("seed {seed}: {d}\n{}", dp_trace::fuzz::print_program(&prog))
            });
            assert!(out.legs >= 13, "seed {seed} ran only {} legs", out.legs);
        }
    }

    #[test]
    fn oracle_runs_mt_programs_live() {
        let cfg = OracleConfig::default();
        let mut found = false;
        for seed in 0..12u64 {
            let fc = FuzzConfig { mt: true, ..FuzzConfig::quick() };
            let prog = generate(seed, &fc);
            if !is_mt(&prog) {
                continue;
            }
            found = true;
            let out = check_program(&prog, &cfg).expect("mt invariants");
            assert_eq!(out.legs, 1);
            assert!(out.accesses > 0);
        }
        assert!(found, "no MT program generated in 12 seeds");
    }

    #[test]
    fn injected_corruption_is_caught() {
        // Find a seed where dropping an access visibly changes the
        // dependence set — most do, but the oracle only promises to
        // catch *visible* divergences.
        for seed in 0..20u64 {
            let prog = generate(seed, &FuzzConfig::quick());
            if is_mt(&prog) {
                continue;
            }
            let cfg = OracleConfig {
                corruption: Some(Corruption::DropAccess(7)),
                accuracy: false,
                ..OracleConfig::default()
            };
            if let Err(d) = check_program(&prog, &cfg) {
                assert_eq!(d.leg, "par-spsc", "corruption surfaced on the wrong leg: {d}");
                return;
            }
        }
        panic!("no seed in 0..20 produced a visible injected divergence");
    }
}
