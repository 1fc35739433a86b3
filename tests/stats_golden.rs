//! Golden-file test for `depprof --stats json`.
//!
//! The JSON snapshot is a machine-readable interface (CI pipes it into
//! `jq`), so its *shape* — key names, key order, nesting — is contract.
//! This test pins the complete output of a deterministic run against a
//! checked-in golden file, with timing-dependent values masked:
//! deterministic fields (event counts, chunk counts, signature occupancy,
//! hot addresses) must match exactly.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test stats_golden
//! ```

use std::process::Command;

/// Fields whose values depend on scheduling or the wall clock, masked to
/// `#` before comparison. Everything else must be bit-identical.
/// (`est_fpr_pct` is deterministic in theory but rides on `ln`, whose
/// last ulp varies across libm builds — masked for robustness.)
const VOLATILE_KEYS: &[&str] = &[
    "queue_highwater",
    "push_retries",
    "empty_pops",
    "stall_nanos",
    "est_fpr_pct",
    "feed",
    "drain",
    "total",
];

fn mask(s: &str) -> String {
    let mut out = s.to_string();
    for key in VOLATILE_KEYS {
        let pat = format!("\"{key}\": ");
        let mut from = 0;
        while let Some(p) = out[from..].find(&pat) {
            let start = from + p + pat.len();
            let end = out[start..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .map(|e| start + e)
                .unwrap_or(out.len());
            out.replace_range(start..end, "#");
            from = start + 1;
        }
    }
    out
}

#[test]
fn stats_json_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args([
            "profile",
            "kmeans",
            "--engine",
            "parallel",
            "--workers",
            "4",
            "--scale",
            "0.05",
            "--stats",
            "json",
        ])
        .output()
        .expect("spawn depprof");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = mask(&String::from_utf8_lossy(&out.stdout));

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats_kmeans.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "--stats json drifted from the golden snapshot; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The text format is for humans, so only its skeleton is pinned: every
/// section line must be present, and the conservation line must say the
/// law holds on a healthy run.
#[test]
fn stats_text_has_all_sections() {
    let out = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args([
            "profile",
            "kmeans",
            "--engine",
            "parallel",
            "--workers",
            "4",
            "--scale",
            "0.05",
            "--stats",
            "text",
        ])
        .output()
        .expect("spawn depprof");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["workers: 4", "conservation:", "chunks:", "signatures:", "timings:"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    assert!(text.contains("(law holds)"), "{text}");
}

/// `--stats` must keep stdout pure: the report, banners and warnings all
/// stay on stderr so `depprof ... --stats json | jq .` always parses.
#[test]
fn stats_stdout_is_pure_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args(["profile", "EP", "--scale", "0.02", "--stats", "json"])
        .output()
        .expect("spawn depprof");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{text}");
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty(), "banner belongs on stderr");
}

/// A degraded run still emits the full snapshot on stdout and signals
/// the loss through exit code 5 + stderr, so scripts can both parse the
/// counters and detect the degradation.
#[test]
fn stats_json_surfaces_degradation_via_exit_code() {
    let out = Command::new(env!("CARGO_BIN_EXE_depprof"))
        .args([
            "profile",
            "kmeans",
            "--engine",
            "parallel",
            "--workers",
            "4",
            "--scale",
            "0.05",
            "--inject-panic",
            "1@0",
            "--stats",
            "json",
        ])
        .output()
        .expect("spawn depprof");
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim().starts_with('{'), "{text}");
    assert!(text.contains("\"conservation\""), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("WARNING"), "warning on stderr");
}
