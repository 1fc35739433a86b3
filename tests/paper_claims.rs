//! End-to-end checks of the paper's headline claims on the miniature
//! workloads (scaled; see DESIGN.md for the fidelity argument).

use depprof::analysis::{compare, report_for, LoopClass, LoopMeta};
use depprof::core::SequentialProfiler;
use depprof::prelude::*;
use depprof::sig::{predicted_fpr, ExtendedSlot, Signature};
use depprof::trace::workloads::{nas_suite, starbench_suite, synth, Scale};
use depprof::trace::{CollectTracer, Interp};
use depprof::types::TraceEvent;

fn record(program: &depprof::trace::Program) -> Vec<TraceEvent> {
    let vm = Interp::new(program);
    let mut t = CollectTracer::new();
    vm.run_seq(&mut t);
    t.events
}

fn replay<S: depprof::sig::AccessStore>(
    evs: &[TraceEvent],
    mut p: SequentialProfiler<S>,
) -> depprof::core::ProfileResult {
    for e in evs {
        p.on_event(e);
    }
    p.finish()
}

/// Table II, fully: per-program OMP/identified counts match the paper.
#[test]
fn table2_reproduces_exactly() {
    let expected = [
        ("BT", 30, 30),
        ("SP", 34, 34),
        ("LU", 33, 33),
        ("IS", 11, 8),
        ("EP", 1, 1),
        ("CG", 16, 9),
        ("MG", 14, 14),
        ("FT", 8, 7),
    ];
    for (w, (name, omp, ident)) in nas_suite(Scale(0.05)).iter().zip(expected) {
        assert_eq!(w.meta.name, name);
        let evs = record(&w.program);
        let metas: Vec<LoopMeta> = w
            .program
            .loops
            .iter()
            .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
            .collect();
        for engine in ["perfect", "signature"] {
            let r = match engine {
                "perfect" => replay(&evs, SequentialProfiler::perfect()),
                _ => replay(&evs, SequentialProfiler::with_signature(1 << 20)),
            };
            let v = report_for(&r, &metas, 0).loops;
            let got_omp = v.iter().filter(|x| x.omp).count();
            let got_id = v.iter().filter(|x| x.omp && x.class == LoopClass::Doall).count();
            assert_eq!((got_omp, got_id), (omp, ident), "{name} via {engine}");
        }
    }
}

/// Table I shape: FPR and FNR shrink monotonically (weakly) as the
/// signature grows, and are negligible at the largest size.
#[test]
fn accuracy_improves_with_signature_size() {
    for w in &starbench_suite(Scale(0.05))[..4] {
        let evs = record(&w.program);
        let base = replay(&evs, SequentialProfiler::perfect());
        let mut last_fpr = f64::INFINITY;
        for m in [512usize, 8 * 1024, 256 * 1024] {
            let sig = replay(
                &evs,
                SequentialProfiler::with_stores(
                    Signature::<ExtendedSlot>::new(m),
                    Signature::<ExtendedSlot>::new(m),
                ),
            );
            let acc = compare(&base, &sig);
            assert!(
                acc.fpr() <= last_fpr + 1.0,
                "{}: FPR grew substantially with more slots ({} -> {})",
                w.meta.name,
                last_fpr,
                acc.fpr()
            );
            last_fpr = acc.fpr();
        }
        assert!(last_fpr < 2.0, "{}: residual FPR {last_fpr}", w.meta.name);
    }
}

/// Formula 2 is a sound predictor: measured FPR tracks the predicted
/// slot-occupancy probability's ordering across sizes.
#[test]
fn formula2_ordering_holds() {
    let n = 4_000u64;
    let w = synth::uniform(n, n * 10);
    let evs = record(&w.program);
    let base = replay(&evs, SequentialProfiler::perfect());
    let mut rows = Vec::new();
    for m in [n as usize / 4, n as usize, n as usize * 8] {
        let sig = replay(
            &evs,
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(m),
                Signature::<ExtendedSlot>::new(m),
            ),
        );
        rows.push((predicted_fpr(m, n), compare(&base, &sig).fpr()));
    }
    assert!(rows[0].0 > rows[1].0 && rows[1].0 > rows[2].0);
    assert!(
        rows[0].1 >= rows[1].1 && rows[1].1 >= rows[2].1,
        "measured FPRs not monotone: {rows:?}"
    );
}

/// Merging identical dependences shrinks output by orders of magnitude
/// (Section III-B's 10⁵× at full scale; >10² even at mini scale).
#[test]
fn merge_factor_is_large() {
    for w in &nas_suite(Scale(0.1)) {
        let r = depprof::profile_sequential(&w.program, 1 << 18);
        assert!(
            r.merge_factor() > 50.0,
            "{}: merge factor only {:.1}",
            w.meta.name,
            r.merge_factor()
        );
    }
}

/// Variable-lifetime analysis: address reuse after free must not
/// fabricate dependences (Section III-B).
#[test]
fn lifetime_analysis_prevents_false_raw() {
    let w = synth::lifetime_reuse(256);
    let r = depprof::profile_sequential(&w.program, 1 << 16);
    // gen1's reads must not be RAW-linked to gen0's writes: the only RAW
    // on the sink side of read_gen1 may come from the scalar accumulator.
    let gen1_read_line = w
        .program
        .loops
        .iter()
        .find(|l| l.name == "read_gen1")
        .map(|l| (l.begin.line, l.end.line))
        .unwrap();
    for (d, _) in r.deps.dependences() {
        if d.edge.dtype == DepType::Raw
            && d.sink.loc.line > gen1_read_line.0
            && d.sink.loc.line < gen1_read_line.1
        {
            let var = w.program.interner.resolve(d.edge.var);
            assert_ne!(var, "gen1", "false RAW across free/realloc: {d:?}");
        }
    }
    assert!(r.stats.lifetime_removals >= 256);
}

/// The profiler reports detailed records: source locations, variable
/// names, thread ids — Figure 1 / Figure 3 structure.
#[test]
fn report_structure_matches_figures() {
    let w = &nas_suite(Scale(0.03))[4]; // EP: small
    let r = depprof::profile_sequential(&w.program, 1 << 18);
    let text = depprof::core::report::render(&r, &w.program.interner, false);
    assert!(text.contains("BGN loop"));
    assert!(text.contains("END loop"));
    assert!(text.contains("NOM"));
    assert!(text.contains("{RAW "));
    assert!(text.contains("{INIT *}"));
    // every NOM line names a variable after the '|'
    for line in text.lines().filter(|l| l.contains("{RAW")) {
        assert!(line.contains('|'), "{line}");
    }
}

/// The signature-memory claim (Section VI-A): "1.0E+8 slots consume only
/// 382 MB" at four bytes a slot. That figure is now the ceiling, not the
/// reservation: an empty signature holds under 1 % of it, memory rises
/// with occupancy, and a saturated one reports the paper's figure — never
/// more than it plus the directory and one region in transit.
#[test]
fn paper_memory_arithmetic() {
    use depprof::sig::signature::REGION_SLOTS;
    use depprof::sig::{AccessStore, CompactSlot, SigEntry};
    const N: usize = 1_000_000; // 10⁶ slots at 4 B
    let mut s = Signature::<CompactSlot>::new(N);
    assert!(s.memory_usage() < N * 4 / 100, "{} bytes empty", s.memory_usage());
    let mut last = s.memory_usage();
    for i in 0..8 * N as u64 {
        s.put(0x1000 + i * 8, SigEntry::new(depprof::types::loc::loc(1, 1), 0, 0));
        if i % 100_000 == 0 {
            assert!(s.memory_usage() >= last, "memory is monotone in occupancy");
            last = s.memory_usage();
        }
    }
    assert!(s.occupied() > N - N / 1000, "saturated: {} slots", s.occupied());
    let m = s.memory_usage();
    assert!((N * 4..N * 4 + N * 4 / 100 + REGION_SLOTS * 4).contains(&m), "{m}");
    // Extrapolated to the paper's 10⁸ slots: 400 MB ≈ 381–383 MiB.
    let mib = (m as u64 * 100) / (1024 * 1024);
    assert!((381..=383).contains(&mib), "{mib}");
}
