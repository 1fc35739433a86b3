//! Communication-pattern detection on SPLASH water-spatial
//! (Section VII-B / Figure 9 of the paper).
//!
//! ```text
//! cargo run --release --example comm_pattern [nthreads]
//! ```
//!
//! Runs the multi-threaded water-spatial mini under the MT profiler and
//! derives the producer/consumer communication matrix from cross-thread
//! RAW dependences. Expect near-neighbour banding: each spatial box reads
//! the boundary molecules of its ring neighbours.

use depprof::prelude::*;
use depprof::trace::workloads::splash;
use depprof::trace::workloads::Scale;

fn main() {
    let nthreads: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let w = splash::water_spatial(Scale(0.2), nthreads);

    println!("profiling water-spatial with {nthreads} target threads ...");
    let cfg = ProfilerConfig::default().with_workers(8).with_slots(1 << 20);
    let result = depprof::profile_mt(&w.program, cfg);
    println!(
        "{} accesses across {} target threads, {} distinct dependences\n",
        result.stats.accesses,
        nthreads + 1,
        result.stats.deps_merged
    );

    let m = report_for(&result, &[], nthreads as usize + 1).comm;
    println!("communication matrix (producers on rows, thread 0 = main):\n");
    println!("{}", m.render_ascii());
    println!("total cross-thread communication events: {}", m.total());

    // Show the strongest producer→consumer pairs explicitly.
    let mut pairs = Vec::new();
    for p in 0..m.dim() as u16 {
        for c in 0..m.dim() as u16 {
            if m.get(p, c) > 0 {
                pairs.push((m.get(p, c), p, c));
            }
        }
    }
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    println!("\nstrongest flows:");
    for (v, p, c) in pairs.iter().take(8) {
        println!("  thread {p} -> thread {c}: {v}");
    }
}
