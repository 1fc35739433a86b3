//! End-to-end tests of the `depprof` command-line tool.

use std::process::Command;

fn depprof(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_depprof")).args(args).output().expect("spawn depprof")
}

#[test]
fn list_names_all_suites() {
    let out = depprof(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["BT", "c-ray", "water-spatial", "racy-counter"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn profile_report_has_figure1_shape() {
    let out = depprof(&["profile", "EP", "--scale", "0.02"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BGN loop"), "{text}");
    assert!(text.contains("{INIT *}"), "{text}");
}

/// `--analyze` stdout as the commit before the plugin layer was removed
/// printed it: the five sections are pinned byte for byte on two
/// deterministic (sequential) workloads.
#[test]
fn analyze_output_matches_the_recorded_bytes() {
    for (workload, golden) in [
        ("FT", include_str!("golden/analyze_FT.txt")),
        ("CG", include_str!("golden/analyze_CG.txt")),
    ] {
        let out = depprof(&["profile", workload, "--scale", "0.02", "--analyze"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{workload}");
    }
}

/// An MT target's counts depend on the interleaving; its section names,
/// their order and the matrix dimension (8 workers + main + 1) do not.
#[test]
fn analyze_of_an_mt_target_has_the_five_sections_in_order() {
    let out = depprof(&["profile", "water-spatial", "--scale", "0.02", "--analyze"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let sections: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")))
        .collect();
    let want =
        "parallelism-discovery communication-pattern race-hints graph-summary execution-tree";
    assert_eq!(sections.join(" "), want, "{text}");
    let header = text.lines().find(|l| l.starts_with("prod\\cons")).expect("matrix header");
    assert_eq!(header.split_whitespace().count() - 1, 10, "{header}");
}

#[test]
fn csv_mode_is_machine_readable() {
    let out = depprof(&["profile", "MG", "--scale", "0.02", "--csv"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    assert!(lines.next().unwrap().starts_with("type,sink"));
    assert!(lines.clone().count() > 3);
    assert!(lines.all(|l| l.is_empty() || l.split(',').count() == 9));
}

#[test]
fn record_then_replay_roundtrips() {
    let dir = std::env::temp_dir().join("depprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("cg.dptr");
    let trace_s = trace.to_str().unwrap();
    let rec = depprof(&["record", "CG", "--scale", "0.02", "--out", trace_s]);
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));
    let rep = depprof(&["replay", trace_s]);
    assert!(rep.status.success(), "{}", String::from_utf8_lossy(&rep.stderr));
    let text = String::from_utf8_lossy(&rep.stdout);
    // Variable names resolve from the embedded table.
    assert!(text.contains("|colidx}") || text.contains("|x}"), "{text}");
    std::fs::remove_file(&trace).ok();
}

/// A recording is of a sequential target: a trace holding an event off
/// thread 0 is refused, exit 4 with that event's position, by the serial
/// engine and the pipeline alike.
#[test]
fn replay_refuses_an_event_off_thread_zero() {
    use depprof::types::{loc::loc, MemAccess, TraceEvent, Tracer};
    let dir = std::env::temp_dir().join("depprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("off-thread-{}.dptr", std::process::id()));
    let file = std::fs::File::create(&trace).unwrap();
    let mut w = depprof::trace::TraceWriter::new(file).unwrap();
    w.event(TraceEvent::Access(MemAccess::write(0x10, 1, loc(1, 1), 1, 0)));
    w.event(TraceEvent::Access(MemAccess::read(0x10, 2, loc(1, 2), 1, 0)));
    w.event(TraceEvent::Access(MemAccess::read(0x10, 3, loc(1, 3), 1, 3)));
    w.event(TraceEvent::Access(MemAccess::write(0x10, 4, loc(1, 4), 1, 0)));
    w.finish().unwrap();
    for engine in ["serial", "parallel"] {
        let out = depprof(&["replay", trace.to_str().unwrap(), "--engine", engine]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{engine}: {err}");
        assert!(err.contains("event 2 is off thread 0"), "{engine}: {err}");
    }
    std::fs::remove_file(&trace).ok();
}

/// A trace ends with its `Finish` frame: one cut off right before it is
/// torn, exit 4, and the message says how many events read cleanly.
#[test]
fn replay_of_a_trace_without_its_finish_is_torn() {
    use depprof::types::{loc::loc, MemAccess, TraceEvent, Tracer};
    let dir = std::env::temp_dir().join("depprof-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("no-finish-{}.dptr", std::process::id()));
    let mut w = depprof::trace::TraceWriter::new(Vec::new()).unwrap();
    for i in 0..600 {
        w.event(TraceEvent::Access(MemAccess::write(0x10 + 8 * (i % 7), i, loc(1, 1), 0, 0)));
    }
    let bytes = w.finish().unwrap();
    // The `Finish` frame: tag, an empty payload's length, checksum.
    std::fs::write(&trace, &bytes[..bytes.len() - 6]).unwrap();
    let out = depprof(&["replay", trace.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("truncated") && err.contains("600 records"), "{err}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = depprof(&["profile", "nonexistent"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn recording_parallel_targets_is_refused() {
    let out = depprof(&["record", "water-spatial", "--scale", "0.02"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not supported"));
}

/// One verb's line of `depprof --help`, parsed back.
struct Synopsis {
    verb: String,
    takes_positional: bool,
    /// `(flag, metavariable)` pairs.
    flags: Vec<(String, String)>,
}

fn help_synopses() -> Vec<Synopsis> {
    let out = depprof(&["--help"]);
    let help = String::from_utf8(out.stderr).unwrap();
    let mut verbs: Vec<Synopsis> = Vec::new();
    for line in help.lines().skip(1).take_while(|l| l.starts_with("  ")) {
        let mut rest = line.trim_start();
        if let Some(synopsis) = rest.strip_prefix("depprof ") {
            let (verb, after) = synopsis.split_once(' ').unwrap_or((synopsis, ""));
            let takes_positional = after.split("[--").next().unwrap().contains('<');
            verbs.push(Synopsis { verb: verb.to_owned(), takes_positional, flags: Vec::new() });
            rest = after;
        }
        for group in rest.split("[--").skip(1) {
            let group = format!("--{}", group.trim_end().strip_suffix(']').unwrap());
            let split = group.find([' ', '[']).unwrap_or(group.len());
            let (flag, metavar) = group.split_at(split);
            verbs
                .last_mut()
                .unwrap()
                .flags
                .push((flag.to_owned(), metavar.trim_start().to_owned()));
        }
    }
    verbs
}

/// A value the flag accepts, spelled the way its metavariable says.
fn sample(flag: &str, metavar: &str) -> Vec<String> {
    let value = match metavar {
        "" => return vec![flag.to_owned()],
        "[=MS]" => return vec![format!("{flag}=5")],
        "N" | "MS" => "3",
        "F" => "0.5",
        "W@N" => "1@2",
        "SPEC" => "seed=1",
        "HOST:PORT" => "127.0.0.1:1",
        "PATH" | "DIR" | "NAME" => "x",
        alternatives => alternatives.split('|').next().unwrap(),
    };
    vec![flag.to_owned(), value.to_owned()]
}

#[test]
fn help_and_bare_run_are_usage_with_the_exit_code_legend() {
    for args in [&["--help"][..], &["-h"], &[]] {
        let out = depprof(args);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.starts_with("usage:\n  depprof list\n"), "{text}");
        assert!(text.contains("exit codes: 0 ok, 2 usage, 3 missing input"), "{text}");
        assert!(text.contains("8 server busy"), "{text}");
    }
    let verbs: Vec<String> = help_synopses().into_iter().map(|s| s.verb).collect();
    assert_eq!(verbs, ["list", "profile", "record", "replay", "serve", "push", "fuzz"]);
}

#[test]
fn each_verb_takes_the_flags_help_lists_for_it_and_no_others() {
    let verbs = help_synopses();
    let mut all: Vec<&(String, String)> = verbs.iter().flat_map(|s| &s.flags).collect();
    all.sort();
    all.dedup_by_key(|(flag, _)| flag);
    assert!(all.len() > 40, "help lists only {} flags", all.len());
    for Synopsis { verb, takes_positional, flags } in &verbs {
        let base: Vec<String> = [verb.as_str()]
            .into_iter()
            .chain(takes_positional.then_some("x"))
            .map(str::to_owned)
            .collect();
        // A parse stops at the first bad flag, so reaching the bogus one
        // at the end means every listed flag before it was taken — and
        // the verb itself never runs.
        let mut argv = base.clone();
        argv.extend(flags.iter().flat_map(|(f, m)| sample(f, m)));
        argv.push("--bogus".into());
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let out = depprof(&argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(err.starts_with("error: unknown flag '--bogus'"), "{argv:?}: {err}");

        for (flag, metavar) in all.iter().filter(|(f, _)| !flags.iter().any(|(own, _)| own == f)) {
            let mut argv = base.clone();
            argv.extend(sample(flag, metavar));
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let out = depprof(&argv);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
            assert!(
                err.starts_with(&format!("error: unknown flag '{}", argv[base.len()])),
                "{err}"
            );
        }
    }
}

#[test]
fn readme_command_line_matches_help() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    let help = String::from_utf8(depprof(&["--help"]).stderr).unwrap();
    assert!(readme.contains(help.trim_end()), "README.md's synopsis is not `depprof --help`'s");
    // Flags of cargo, dp-bench and depbench that the README also spells.
    let foreign =
        "--all-targets --bin --check --example --manifest-path --offline --release --smoke --workspace";
    let mut known: Vec<String> =
        help_synopses().into_iter().flat_map(|s| s.flags).map(|(flag, _)| flag).collect();
    known.push("--help".into());
    for word in readme.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
        let is_flag = word.strip_prefix("--").is_some_and(|w| w.starts_with(char::is_alphabetic));
        if is_flag && !foreign.split(' ').any(|f| f == word) {
            assert!(known.iter().any(|k| k == word), "README.md spells {word}; --help does not");
        }
    }
}

#[test]
fn zero_for_a_count_is_a_usage_error() {
    // `--slots 0` must not reach the signature's "at least one slot"
    // assertion, nor `--workers 0` be quietly rounded up to one.
    for argv in [
        &["profile", "EP", "--slots", "0"][..],
        &["replay", "t.dptr", "--slots", "0"],
        &["profile", "EP", "--workers", "0"],
        &["push", "t.dptr", "--chunk-events", "0"],
        &["push", "t.dptr", "--retries", "0"],
        &["serve", "--max-sessions", "0"],
        &["fuzz", "--seeds", "0"],
    ] {
        let out = depprof(argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(err.contains("not a positive integer: '0'"), "{argv:?}: {err}");
    }
}

#[test]
fn flags_the_verb_never_reads_are_rejected() {
    // Accepting `replay --out` would drop it: the report goes to stdout
    // or `--report-out`.
    for argv in [
        &["replay", "t.dptr", "--out", "report.txt"][..],
        &["replay", "t.dptr", "--in", "report.txt"],
        &["list", "--bogus"],
    ] {
        let out = depprof(argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {err}");
        assert!(
            err.starts_with(&format!("error: unknown flag '{}'", argv[argv.len().min(3) - 1])),
            "{err}"
        );
    }
}
