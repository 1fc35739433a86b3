//! `dp-bench` — the experiment runner's CLI.
//!
//! ```text
//! dp-bench list
//! dp-bench run <id> [--quick]
//! dp-bench run-all [--quick]
//! ```
//!
//! Exit codes: `0` success, `1` a scenario's correctness check failed,
//! `2` usage or I/O error.

use dp_bench::runner::{exit_code, run};
use dp_bench::scenario::{find, Scenario, REGISTRY};
use std::process::ExitCode;

const USAGE: &str = "usage: dp-bench <list|run|run-all> [--quick]
  list        show the registered scenarios and their scales
  run <id>    run one scenario
  run-all     run every scenario in experiment order
options:
  --quick     run at the scenario's quick scale (CI smoke size)";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("dp-bench: {msg}");
    ExitCode::from(2)
}

fn list() -> ExitCode {
    for s in REGISTRY {
        println!(
            "{:<16} {:<5} scale={:<5} quick={:<5} {}",
            s.id, s.exp, s.scale, s.quick_scale, s.title
        );
    }
    ExitCode::SUCCESS
}

fn run_scenarios(scenarios: &[Scenario], quick: bool) -> ExitCode {
    match run(scenarios, quick, &mut std::io::stdout().lock()) {
        Ok(failed) => {
            if !failed.is_empty() {
                eprintln!("dp-bench: {} check(s) failed", failed.len());
            }
            ExitCode::from(exit_code(&failed))
        }
        Err(e) => fail(e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let positional: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    match positional[..] {
        ["help" | "--help" | "-h"] => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        ["list"] => list(),
        ["run", id] => match find(id) {
            Some(s) => run_scenarios(std::slice::from_ref(s), quick),
            None => fail(format!("no scenario '{id}' (see 'dp-bench list')")),
        },
        ["run-all"] => run_scenarios(REGISTRY, quick),
        _ => fail(USAGE),
    }
}
