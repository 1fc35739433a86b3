//! Data-race hints from timestamp reversals (Section V-B of the paper).
//!
//! ```text
//! cargo run --release --example race_hunt
//! ```
//!
//! Profiles two variants of the same program — one incrementing a shared
//! counter inside a lock region, one without any lock — with the
//! multi-threaded-target engine. For the locked variant the access/push
//! atomicity of Figure 4 guarantees in-order delivery per address, so no
//! reversal can be reported; the racy variant usually produces reversed
//! dependences, each a potential data race.

use depprof::prelude::*;
use depprof::trace::workloads::{synth, Scale};

fn main() {
    let cfg = || ProfilerConfig::default().with_workers(4).with_slots(1 << 18);
    for w in [synth::locked_counter(Scale(1.0), 4), synth::racy_counter(Scale(1.0), 4)] {
        println!("== {} ==", w.meta.name);
        let result = depprof::profile_mt(&w.program, cfg());
        let races = report_for(&result, &[], w.meta.nthreads as usize + 1).races;
        println!(
            "  {} accesses, {} dependences, {} reversal events",
            result.stats.accesses, result.stats.deps_merged, result.stats.reversed
        );
        if races.is_empty() {
            println!("  no potential races reported\n");
        } else {
            println!("  potential data races:");
            for r in &races {
                println!(
                    "    {:?} on var #{}: line {} (thread {}) vs line {} (thread {}), seen {} times",
                    r.dtype, r.var, r.sink.0, r.sink.1, r.source.0, r.source.1, r.occurrences
                );
            }
            println!();
        }
    }
    println!(
        "note: reversal detection is evidence-based — a racy program only gets\n\
         flagged if the schedule actually interleaved during this run (the paper\n\
         makes the same observation in Section V-B)."
    );
}
