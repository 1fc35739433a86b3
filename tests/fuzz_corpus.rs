//! Replays the committed fuzz corpus (`fuzz/corpus/*.minivm`).
//!
//! Every file in the corpus is a minimized witness program that once made
//! two engine legs disagree (under an injected fault — see the comment
//! header inside each file). Replaying them through the full clean oracle
//! on every CI run keeps historically-tricky program shapes covered as
//! ordinary regression tests.
//!
//! Regenerate with:
//!
//! ```text
//! UPDATE_CORPUS=1 cargo test --release --test fuzz_corpus
//! ```
//!
//! which re-runs two small corrupted campaigns (a dropped and a
//! duplicated profiled access) and rewrites the minimized repros.

use std::path::PathBuf;

use depprof::fuzz::{check_program, run_fuzz, Corruption, FuzzOpts, OracleConfig};
use depprof::fuzz::{parse_program, stmt_count};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

fn regenerate(dir: &PathBuf) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|e| e == "minivm") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    // Disjoint seed ranges per corruption so the repro filenames (which
    // encode seed + leg) never collide across campaigns.
    for (corruption, start_seed) in
        [(Corruption::DropAccess(7), 0), (Corruption::DuplicateAccess(3), 100)]
    {
        let opts = FuzzOpts {
            seeds: 4,
            start_seed,
            quick: true,
            webscale: false,
            corpus_dir: Some(dir.clone()),
            corruption: Some(corruption),
            ..FuzzOpts::default()
        };
        let report = run_fuzz(&opts, &mut |_| {});
        assert!(
            !report.divergences.is_empty(),
            "corrupted campaign {corruption:?} produced no repros to commit"
        );
    }
}

#[test]
fn committed_corpus_replays_clean() {
    let dir = corpus_dir();
    if std::env::var("UPDATE_CORPUS").is_ok() {
        regenerate(&dir);
    }

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus exists (run with UPDATE_CORPUS=1 to regenerate)")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "minivm"))
        .collect();
    files.sort();
    assert!(files.len() >= 2, "corpus must hold at least two committed repros, found {files:?}");

    let ocfg = OracleConfig::default();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("; fuzz repro:"), "{path:?} lacks its provenance header");
        let prog = parse_program(&text)
            .unwrap_or_else(|e| panic!("{path:?} does not parse as MiniVM text: {e}"));
        assert!(stmt_count(&prog) <= 20, "{path:?} is not minimized");
        check_program(&prog, &ocfg).unwrap_or_else(|d| {
            panic!("corpus regression: {path:?} diverges on leg {} — {}", d.leg, d.detail)
        });
    }
}
