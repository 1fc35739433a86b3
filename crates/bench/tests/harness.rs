//! Runner-level integration tests: registry hygiene, determinism of a
//! pure-replay experiment, failed checks → exit code, and `run-all`
//! coverage of the registry.

use dp_bench::experiments::Output;
use dp_bench::runner::{exit_code, run};
use dp_bench::scenario::{find, Scenario, REGISTRY};
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn registry_ids_and_experiment_numbers_are_unique_and_quick_scales_small() {
    let ids: BTreeSet<_> = REGISTRY.iter().map(|s| s.id).collect();
    let exps: BTreeSet<_> = REGISTRY.iter().map(|s| s.exp).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate scenario id");
    assert_eq!(exps.len(), REGISTRY.len(), "duplicate experiment number");
    for s in REGISTRY {
        assert_eq!(find(s.id).unwrap().exp, s.exp);
        // Quick scale must be small enough for CI smoke runs.
        assert!(s.quick_scale <= 0.05, "{}: quick scale too large", s.id);
        assert!(s.quick_scale <= s.scale, "{}: quick scale above the full scale", s.id);
    }
}

#[test]
fn runner_is_deterministic_on_non_timing_fields() {
    // table2 is pure replay analysis and prints no timing: two runs must
    // produce the same bytes.
    let table2 = std::slice::from_ref(find("table2").unwrap());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    assert!(run(table2, true, &mut a).unwrap().is_empty());
    assert!(run(table2, true, &mut b).unwrap().is_empty());
    assert!(!a.is_empty());
    assert_eq!(String::from_utf8(a).unwrap(), String::from_utf8(b).unwrap());
}

#[test]
fn failed_check_is_returned_printed_and_exits_1() {
    let scenarios = [
        Scenario {
            id: "holds",
            exp: "T1",
            title: "a scenario whose checks hold",
            scale: 0.25,
            quick_scale: 0.02,
            run: |_| Output::passed("fine".into()),
        },
        Scenario {
            id: "diverges",
            exp: "T2",
            title: "a scenario with a failing check",
            scale: 0.25,
            quick_scale: 0.02,
            run: |cfg| Output {
                text: format!("table at scale {}", cfg.scale),
                failed: vec!["identical_deps on BT".into()],
            },
        },
    ];
    let mut out = Vec::new();
    let failed = run(&scenarios, true, &mut out).unwrap();
    assert_eq!(failed, ["diverges: identical_deps on BT"]);
    assert_eq!(exit_code(&failed), 1);
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "fine\ntable at scale 0.02\nFAILED check (T2 diverges): identical_deps on BT\n"
    );
    assert_eq!(exit_code(&[]), 0);
}

#[test]
fn run_all_quick_covers_every_registered_scenario_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_dp-bench"))
        .args(["run-all", "--quick"])
        .output()
        .expect("dp-bench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(!stdout.contains("FAILED check"), "{stdout}");
    // Every experiment's heading carries its number.
    for s in REGISTRY {
        assert!(stdout.contains(&format!("({})", s.exp)), "{} ({}) did not run", s.id, s.exp);
    }
}
