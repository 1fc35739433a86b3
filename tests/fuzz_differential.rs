//! End-to-end differential fuzzing through the `depprof::fuzz` facade.
//!
//! The unit tests inside `crates/fuzz` exercise the oracle and driver in
//! isolation; this suite checks the integration the CI `fuzz-smoke` job
//! relies on: a clean campaign over the public facade reports zero
//! divergences, and a campaign with an injected event-stream corruption
//! both *catches* the divergence and *shrinks* the witness program to a
//! handful of statements.

use depprof::fuzz::{check_program, run_fuzz, Corruption, FuzzOpts, OracleConfig};
use depprof::fuzz::{parse_program, print_program, stmt_count};

fn quiet() -> impl FnMut(String) {
    |_line| {}
}

#[test]
fn facade_campaign_is_clean() {
    let opts = FuzzOpts { seeds: 10, quick: true, webscale: false, ..FuzzOpts::default() };
    let report = run_fuzz(&opts, &mut quiet());
    assert!(report.passed(), "clean campaign diverged: {:?}", report.divergences);
    assert_eq!(report.seeds, 10);
    assert!(report.sequential > 0 && report.mt > 0, "campaign must mix program shapes");
    assert!(report.total_accesses > 0);
}

#[test]
fn injected_corruption_is_caught_and_shrunk_via_facade() {
    let corpus = std::env::temp_dir().join("depprof-fuzz-facade-corpus");
    let _ = std::fs::remove_dir_all(&corpus);
    let opts = FuzzOpts {
        seeds: 24,
        quick: true,
        webscale: false,
        corpus_dir: Some(corpus.clone()),
        corruption: Some(Corruption::DropAccess(7)),
        ..FuzzOpts::default()
    };
    let report = run_fuzz(&opts, &mut quiet());
    assert!(!report.passed(), "dropping a profiled access must surface as a divergence");
    let d = &report.divergences[0];
    assert!(
        d.stmts <= 20,
        "minimizer left {} statements for seed {} (leg {})",
        d.stmts,
        d.seed,
        d.leg
    );

    // The saved repro must round-trip through the corpus text format and
    // still describe the shrunken witness.
    let path = d.corpus_path.as_ref().expect("corpus repro written");
    let text = std::fs::read_to_string(path).unwrap();
    let reparsed = parse_program(&text).expect("committed repro parses");
    assert_eq!(stmt_count(&reparsed), d.stmts);
    assert_eq!(print_program(&reparsed), print_program(&d.program));

    // And the *uncorrupted* oracle accepts the same witness — the bug is
    // the injected corruption, not the program.
    check_program(&reparsed, &OracleConfig::default())
        .expect("witness is clean without the injected fault");
    let _ = std::fs::remove_dir_all(&corpus);
}
