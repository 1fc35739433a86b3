//! Parallelism discovery on a NAS mini (the DiscoPoP use case,
//! Section VII-A / Table II of the paper).
//!
//! ```text
//! cargo run --release --example parallelism_discovery [program]
//! ```
//!
//! Profiles the chosen NAS benchmark (default: CG), classifies every loop
//! from the dependence evidence, compares against the OpenMP ground
//! truth, and lists the variables privatization would free. CG is the
//! interesting one: its seven dot-product reductions are
//! OpenMP-parallelizable (via `reduction` clauses) but must *not* be
//! identified by a pure dependence test.

use depprof::analysis::{privatization_candidates, report_for, LoopClass, LoopMeta};
use depprof::trace::workloads::{nas_suite, Scale};

fn main() {
    let want = std::env::args().nth(1).unwrap_or_else(|| "CG".into());
    let suite = nas_suite(Scale(0.2));
    let w = suite
        .iter()
        .find(|w| w.meta.name.eq_ignore_ascii_case(&want))
        .unwrap_or_else(|| panic!("unknown NAS program '{want}'"));

    println!("profiling {} ...", w.meta.name);
    let result = depprof::profile_sequential(&w.program, 1 << 20);
    println!(
        "{} accesses, {} distinct dependences\n",
        result.stats.accesses, result.stats.deps_merged
    );

    let metas: Vec<LoopMeta> = w
        .program
        .loops
        .iter()
        .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
        .collect();
    // The loop table: every loop's verdict joined with its runtime record.
    let report = report_for(&result, &metas, 0);
    println!("{}", report.to_text(&w.program.interner)[0].1);
    let omp = report.loops.iter().filter(|l| l.omp).count();
    let identified = report.loops.iter().filter(|l| l.omp && l.class == LoopClass::Doall).count();
    println!(
        "{identified} of {omp} OpenMP-annotated loops identified as parallelizable \
         (paper's Table II row for {}: {})",
        w.meta.name,
        match w.meta.name.as_str() {
            "BT" => "30/30",
            "SP" => "34/34",
            "LU" => "33/33",
            "IS" => "8/11",
            "EP" => "1/1",
            "CG" => "9/16",
            "MG" => "14/14",
            "FT" => "7/8",
            _ => "?",
        }
    );
    // Privatization advice on top of the loop verdicts.
    let privs = privatization_candidates(&result, &metas);
    if privs.is_empty() {
        println!("\nprivatization: none needed");
    } else {
        println!("\nprivatization:");
        for p in privs {
            let lname =
                metas.iter().find(|m| m.id == p.loop_id).map(|m| m.name.as_str()).unwrap_or("?");
            println!(
                "  loop {lname}: privatize '{}' (carried WAR x{}, WAW x{})",
                w.program.interner.get(p.var).unwrap_or("?"),
                p.war,
                p.waw
            );
        }
    }
}
