//! Runs scenarios and turns their failed checks into the exit code.

use crate::scenario::Scenario;
use std::io::{self, Write};

/// Runs `scenarios` in order in full or quick mode, writing each one's
/// tables and then a line per failed check to `out`. Returns every
/// failed check, prefixed with its scenario's id.
pub fn run(scenarios: &[Scenario], quick: bool, out: &mut impl Write) -> io::Result<Vec<String>> {
    let mut failed = Vec::new();
    for s in scenarios {
        let output = (s.run)(&s.config(quick));
        writeln!(out, "{}", output.text)?;
        for check in output.failed {
            writeln!(out, "FAILED check ({} {}): {check}", s.exp, s.id)?;
            failed.push(format!("{}: {check}", s.id));
        }
    }
    Ok(failed)
}

/// The `dp-bench` exit code for a finished run: `1` if any check failed.
pub fn exit_code(failed: &[String]) -> u8 {
    u8::from(!failed.is_empty())
}
