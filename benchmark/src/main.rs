//! depbench — the end-to-end benchmark and per-layer cost ledger for
//! live, replayed and served profiling. See `benchmark/README.md`.

mod client;
mod inputs;
mod json;
mod ledger;
mod metrics;
mod spans;
mod stats;
mod sys;
mod workloads;

use metrics::{Values, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::Summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Checks, Kind, KINDS};

const USAGE: &str = "\
usage:
  depbench --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of stdout is the result
  depbench run [--seed N] [--seconds S] [--reps N] [--only NAME] [--smoke] [--out FILE]
      every workload: N timed runs and one traced run, all metrics by name
  depbench aa  [--seed N] [--seconds S] [--reps N] [--only NAME] [--out FILE]
      two sets of the same runs back to back: medians, spreads, derived bounds
  depbench inputs
      events and fingerprint of mix6 at every scale (the golden table)
workloads: live_serial replay_parallel zipf_serial served_sparse served_dense_watch";

/// A run sets its workload up at least [`MIN_SETUPS`] times, and again
/// until [`SETUP_BUDGET_S`] is spent or [`MAX_SETUPS`] reached, so that a
/// short set-up is sampled more often; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 3.0;
/// A run shorter than this is not a measurement.
const MIN_TIMED_NS: u64 = 1_000_000_000;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(Kind),
    Run,
    Aa,
    Inputs,
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    only: Option<Kind>,
    reps: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        only: None,
        reps: None,
        out: None,
    };
    let mut it = argv.iter().peekable();
    let mut mode = None;
    if let Some(first) = it.peek() {
        mode = match first.as_str() {
            "run" => Some(Mode::Run),
            "aa" => Some(Mode::Aa),
            "inputs" => Some(Mode::Inputs),
            _ => None,
        };
        if mode.is_some() {
            it.next();
        }
    }
    let workload = |name: &str| Kind::parse(name).ok_or(format!("unknown workload '{name}'"));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let kind = workload(value()?)?;
                if mode.is_some() {
                    return Err("--workload runs alone; use --only with a subcommand".into());
                }
                mode = Some(Mode::One(kind));
            }
            "--only" => args.only = Some(workload(value()?)?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|_| "--reps takes a whole number")?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.mode = mode.ok_or("name a subcommand or --workload")?;
    Ok(args)
}

/// Everything one run of one workload produced.
struct RunResult {
    kind: Kind,
    end_to_end: Values,
    per_layer: Option<Values>,
    checks: Checks,
    /// Raw ns/event over the timed passes.
    passes: Summary,
    /// Cost (pass wall ÷ reference wall) over the timed passes.
    cost: Summary,
    timed_ns: u64,
    verdict: Option<ledger::Verdict>,
}

/// One run: set the workload up several times, run timed passes for
/// `seconds`, and with `trace` one traced pass and the stage ledger.
fn measure(kind: Kind, seed: u64, seconds: f64, trace: bool, smoke: bool) -> RunResult {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < if smoke { 1 } else { MIN_SETUPS }
        || (!smoke && setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous set-up's server and inputs go before the next
        // one's are built, as a fresh process would have it.
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(workloads::prepare(kind, seed, smoke));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");
    prepared.compute_expected();
    let mut checks = prepared.setup_checks.clone();
    // One untimed pass lets caches fill and lazy initialisation finish.
    checks.absorb(prepared.pass(None).checks);

    // A traced run spends the rest of its time on the traced pass and
    // the ledger.
    let budget = seconds * if trace { 0.4 } else { 1.0 };
    let min_passes = if smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || (!smoke && start.elapsed().as_secs_f64() < budget) {
        passes.push(prepared.pass(None));
    }
    let timed_ns: u64 = passes.iter().map(|p| p.wall_ns).sum();
    let ns_per_event: Vec<f64> = passes.iter().map(|p| p.ns_per_event()).collect();
    let pass_wall: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64).collect();
    let mem: Vec<f64> = passes.iter().map(|p| p.mem_bytes as f64).collect();
    for p in &mut passes {
        checks.absorb(std::mem::take(&mut p.checks));
    }

    let cost: Vec<f64> =
        passes.iter().map(|p| p.wall_ns as f64 / p.reference_wall_ns as f64).collect();
    let reference: Vec<f64> =
        passes.iter().map(|p| p.reference_wall_ns as f64 / p.events as f64).collect();
    let mut end_to_end = Values::new();
    end_to_end.insert("cost_x", stats::median(&cost));
    end_to_end.insert("mem_bytes_per_addr", stats::median(&mem) / prepared.distinct_addrs as f64);
    end_to_end.insert("setup_s", stats::median(&setup_s));

    let mut per_layer = None;
    let mut verdict = None;
    if trace {
        let slowdown: Vec<f64> = passes
            .iter()
            .filter(|p| p.null_wall_ns > 0)
            .map(|p| p.wall_ns as f64 / p.null_wall_ns as f64)
            .collect();
        let untraced = ledger::Untraced {
            ns_per_event: stats::median(&ns_per_event),
            reference_ns_per_event: stats::median(&reference),
            pass_wall_ns: stats::median(&pass_wall),
            slowdown_x: if slowdown.is_empty() { 0.0 } else { stats::median(&slowdown) },
        };
        let mut rec = Recorder::new(format!("{}-{seed}", kind.name()));
        let traced = prepared.pass(Some(&mut rec));
        checks.absorb(traced.checks);
        let (values, v) = ledger::run(&prepared, &mut rec, &untraced, traced.wall_ns);
        if let Err(e) = write_trace(kind, &rec) {
            eprintln!("depbench: cannot write the trace: {e}");
        }
        per_layer = Some(values);
        verdict = Some(v);
    }
    RunResult {
        kind,
        end_to_end,
        per_layer,
        checks,
        passes: stats::summarize(&ns_per_event),
        cost: stats::summarize(&cost),
        timed_ns,
        verdict,
    }
}

fn write_trace(kind: Kind, rec: &Recorder) -> std::io::Result<()> {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("trace-{}.jsonl", kind.name())),
    )?);
    rec.write_jsonl(&mut file)?;
    std::io::Write::flush(&mut file)
}

/// Prints what a run did, for a person, on stderr.
fn describe(r: &RunResult) {
    let p = &r.passes;
    eprintln!(
        "{}: {} passes, {:.2} s timed; cost median {:.3}× the reference [q1 {:.3}, q3 {:.3}]; raw ns/event median {:.2} [q1 {:.2}, q3 {:.2}]; checks {} attempted, {} failed",
        r.kind.name(),
        p.n,
        r.timed_ns as f64 / 1e9,
        r.cost.median,
        r.cost.q1,
        r.cost.q3,
        p.median,
        p.q1,
        p.q3,
        r.checks.attempted,
        r.checks.failed
    );
    for note in &r.checks.notes {
        eprintln!("  FAILED: {note}");
    }
    if let Some(v) = &r.verdict {
        eprintln!("{}", verdict_line(v));
    }
}

fn verdict_line(v: &ledger::Verdict) -> String {
    format!("  ledger {}: {}", if v.ok { "holds" } else { "VIOLATED" }, v.text)
}

/// A measurement must be longer than the noise floor.
fn long_enough(r: &RunResult) -> Result<(), String> {
    if r.timed_ns < MIN_TIMED_NS {
        return Err(format!(
            "{}: {:.3} s of timed passes is shorter than 1 s; not a measurement",
            r.kind.name(),
            r.timed_ns as f64 / 1e9
        ));
    }
    Ok(())
}

fn one(kind: Kind, args: &Args) -> Result<bool, String> {
    let r = measure(kind, args.seed, args.seconds, args.trace, false);
    describe(&r);
    long_enough(&r)?;
    let (values, decls) = match &r.per_layer {
        Some(values) => (values, &PER_LAYER[..]),
        None => (&r.end_to_end, &END_TO_END[..]),
    };
    println!("{}", metrics::result_line(values, decls, r.checks.attempted, r.checks.failed));
    Ok(r.checks.failed == 0)
}

/// Facts about the host and the build, stamped into every result file.
fn host_facts(args: &Args, reps: usize) -> Vec<(&'static str, String)> {
    let first_line = |path: &str, key: &str| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| t.lines().find(|l| l.starts_with(key)).map(str::to_owned))
    };
    let command = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let unknown = || "unknown".to_owned();
    vec![
        ("nproc", workloads::nproc().to_string()),
        (
            "cpu",
            first_line("/proc/cpuinfo", "model name")
                .and_then(|l| l.split(':').nth(1).map(|s| s.trim().to_owned()))
                .unwrap_or_else(unknown),
        ),
        ("kernel", first_line("/proc/version", "Linux").unwrap_or_else(unknown)),
        ("rustc", command("rustc", &["-V"]).unwrap_or_else(unknown)),
        ("git_rev", command("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("repetitions", reps.to_string()),
        ("parallel_workers", workloads::parallel_workers().to_string()),
        ("smoke", args.smoke.to_string()),
    ]
}

fn json_object(fields: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn json_text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Median, quartiles and count of one metric over the runs of a set.
fn summary_json(s: &Summary) -> String {
    format!("{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}", s.median, s.q1, s.q3, s.n)
}

fn selected(args: &Args) -> Vec<Kind> {
    KINDS.into_iter().filter(|k| args.only.is_none_or(|only| only == *k)).collect()
}

/// End-to-end values of `runs`, one summary per metric.
fn summarize_runs(runs: &[RunResult]) -> Vec<(&'static str, Summary)> {
    END_TO_END
        .iter()
        .map(|d| {
            let values: Vec<f64> = runs.iter().map(|r| r.end_to_end[d.name]).collect();
            (d.name, stats::summarize(&values))
        })
        .collect()
}

fn write_out(args: &Args, reps: usize, body: Vec<(String, String)>) -> Result<(), String> {
    let Some(path) = &args.out else { return Ok(()) };
    let host =
        json_object(host_facts(args, reps).into_iter().map(|(k, v)| (k.into(), json_text(&v))));
    let mut fields = vec![("host".to_owned(), host), ("claim".to_owned(), "null".to_owned())];
    fields.extend(body);
    std::fs::write(path, json_object(fields) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let reps = args.reps.unwrap_or(1);
    let mut ok = true;
    let mut table = String::new();
    let mut out = Vec::new();
    for kind in selected(args) {
        let mut runs = Vec::new();
        for _ in 0..reps {
            let r = measure(kind, args.seed, args.seconds, false, args.smoke);
            describe(&r);
            runs.push(r);
        }
        let traced = measure(kind, args.seed, args.seconds, true, args.smoke);
        describe(&traced);
        let failed: u64 = runs.iter().chain([&traced]).map(|r| r.checks.failed).sum();
        ok &= failed == 0;
        if args.smoke {
            let _ = writeln!(
                table,
                "{:<20} {}",
                kind.name(),
                if failed == 0 { "PASS" } else { "FAIL" }
            );
            continue;
        }
        for r in runs.iter().chain([&traced]) {
            long_enough(r)?;
        }
        let why = metrics::WORKLOADS[kind as usize].why;
        let _ = writeln!(table, "\n== {} ==\n  {why}", kind.name());
        let summaries = summarize_runs(&runs);
        for (d, (_, s)) in END_TO_END.iter().zip(&summaries) {
            // One run: the spread shown is the spread of its passes.
            let s = if d.name == "cost_x" && reps == 1 { &runs[0].cost } else { s };
            let _ = writeln!(
                table,
                "  {:<38} {:>16.4} {:<6} [q1 {:.4}, q3 {:.4}, n {}]",
                d.name, s.median, d.unit, s.q1, s.q3, s.n
            );
        }
        let layers = traced.per_layer.as_ref().expect("traced run has layers");
        metrics::assert_declared(layers, &PER_LAYER);
        for d in &PER_LAYER {
            let _ = writeln!(
                table,
                "  {:<38} {:>16.4} {:<6} ({} is better)",
                d.name, layers[d.name], d.unit, d.better
            );
        }
        if let Some(v) = &traced.verdict {
            let _ = writeln!(table, "{}", verdict_line(v));
        }
        let e2e = summaries.iter().map(|(n, s)| (n.to_string(), summary_json(s)));
        let per_layer = PER_LAYER.iter().map(|d| (d.name.to_string(), layers[d.name].to_string()));
        out.push((
            kind.name().to_owned(),
            json_object([
                ("end_to_end".to_owned(), json_object(e2e)),
                ("per_layer".to_owned(), json_object(per_layer)),
                ("failed".to_owned(), failed.to_string()),
            ]),
        ));
    }
    print!("{table}");
    if !args.smoke {
        write_out(args, reps, vec![("workloads".to_owned(), json_object(out))])?;
    }
    Ok(ok)
}

/// The bound a metric × workload earns from its own A/A spread:
/// `max(5 %, 2 × spread)` capped at 10 %; set-up time gets 25 %.
fn derived_bound(metric: &str, spread: f64) -> f64 {
    if metric == "setup_s" {
        0.25
    } else {
        (2.0 * spread).clamp(0.05, 0.10)
    }
}

fn aa(args: &Args) -> Result<bool, String> {
    let reps = args.reps.unwrap_or(5);
    let kinds = selected(args);
    let mut ok = true;
    // Round-robin across workloads inside each set, so that slow drift of
    // the host falls on all of them alike.
    let mut sets: Vec<Vec<Vec<RunResult>>> = Vec::new();
    for set in ["A", "B"] {
        let mut per_kind: Vec<Vec<RunResult>> = kinds.iter().map(|_| Vec::new()).collect();
        for rep in 0..reps {
            for (i, kind) in kinds.iter().enumerate() {
                eprintln!("set {set}, repetition {}/{reps}", rep + 1);
                let r = measure(*kind, args.seed, args.seconds, false, false);
                describe(&r);
                long_enough(&r)?;
                ok &= r.checks.failed == 0;
                per_kind[i].push(r);
            }
        }
        sets.push(per_kind);
    }
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "diff", "IQR A", "IQR B", "bound"
    );
    let mut worst: Vec<f64> = END_TO_END.iter().map(|_| 0.0).collect();
    let mut out = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        let (a, b) = (summarize_runs(&sets[0][i]), summarize_runs(&sets[1][i]));
        let mut rows = Vec::new();
        for (m, ((name, sa), (_, sb))) in a.iter().zip(&b).enumerate() {
            let diff = (sb.median - sa.median) / sa.median;
            let spread = sa.iqr_share().max(sb.iqr_share());
            let bound = derived_bound(name, spread);
            worst[m] = worst[m].max(bound);
            let verdict = if spread > bound {
                "unresolved"
            } else if diff.abs() <= bound {
                "unchanged"
            } else {
                ok = false;
                "DIFFERS"
            };
            println!(
                "{:<20} {:<20} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {verdict}",
                kind.name(),
                name,
                sa.median,
                sb.median,
                100.0 * diff,
                100.0 * sa.iqr_share(),
                100.0 * sb.iqr_share(),
                100.0 * bound
            );
            rows.push((
                name.to_string(),
                json_object([
                    ("a".to_owned(), summary_json(sa)),
                    ("b".to_owned(), summary_json(sb)),
                    ("bound".to_owned(), bound.to_string()),
                    ("verdict".to_owned(), json_text(verdict)),
                ]),
            ));
        }
        out.push((kind.name().to_owned(), json_object(rows)));
    }
    println!("\nbounds for BENCHMARK.json (the loosest any workload needs):");
    for (d, bound) in END_TO_END.iter().zip(&worst) {
        println!("  {:<20} {bound}", d.name);
    }
    write_out(args, reps, vec![("aa".to_owned(), json_object(out))])?;
    Ok(ok)
}

fn print_inputs() {
    for (scale, ..) in inputs::MIX6_GOLDEN {
        let programs = inputs::mix6(scale);
        let mut ids = Vec::new();
        for p in &programs {
            let (id, accesses) = p.identify();
            println!(
                "  {:<8} scale {scale}: {} events, {} accesses, {} addresses",
                p.name,
                id.events,
                id.accesses,
                inputs::distinct_addrs(&accesses)
            );
            ids.push(id);
        }
        let id = inputs::combine(ids);
        println!("({scale:?}, {}, {:#018x}),", id.events, id.fingerprint);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("depbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode.clone() {
        Mode::One(kind) => one(kind, &args),
        Mode::Run => run_all(&args),
        Mode::Aa => aa(&args),
        Mode::Inputs => {
            print_inputs();
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("depbench: a check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("depbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload served_sparse --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.mode, Mode::One(Kind::ServedSparse));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse("run --smoke --only zipf_serial --reps 2 --out x.json").unwrap();
        assert_eq!(a.mode, Mode::Run);
        assert!(a.smoke);
        assert_eq!((a.only, a.reps), (Some(Kind::ZipfSerial), Some(2)));
        assert_eq!(parse("aa").unwrap().mode, Mode::Aa);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "run --workload live_serial",
            "run --seconds 0",
            "run --trace 2",
            "run --reps 0",
            "run --bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn bounds_follow_the_spread_within_their_limits() {
        assert_eq!(derived_bound("cost_x", 0.01), 0.05);
        assert_eq!(derived_bound("cost_x", 0.04), 0.08);
        assert_eq!(derived_bound("cost_x", 0.2), 0.10);
        assert_eq!(derived_bound("setup_s", 0.01), 0.25);
    }
}
