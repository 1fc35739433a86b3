//! Quickstart: build a small MiniVM kernel and profile it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! `ProgramBuilder` plays the compiler front end: every load and store of
//! the program is an instrumented memory access stamped with its
//! statement's line. The serial profiler consumes the interpreter's event
//! stream in-line, and the report comes out in the paper's Figure 1 format.

use depprof::core::report;
use depprof::prelude::*;
use depprof::trace::builder::div;
use depprof::types::DepFlags;

fn main() {
    // An instrumented kernel: a little smoothing pass over a vector.
    let mut b = ProgramBuilder::new("quickstart");
    let data = b.array("data", 64);
    let acc = b.scalar("acc");
    let program = b.main(|f| {
        f.for_loop("init", true, c(0), c(64), |f, i| f.store(data, i.clone(), i * c(3)));
        f.for_loop("smooth", false, c(0), c(63), |f, i| {
            let here = f.ld(data, i.clone());
            let next = f.ld(data, i.clone() + c(1));
            f.store(data, i, div(here + next, c(2)));
        });
        // A reduction: loop-carried RAW on `acc` — the dependence that
        // makes this loop non-DOALL.
        f.for_loop("sum", false, c(0), c(64), |f, i| {
            let sum = f.lds(acc) + f.ld(data, i);
            f.store_scalar(acc, sum);
        });
    });

    let result = depprof::profile_sequential(&program, 1 << 16);
    let interner = &program.interner;

    println!("== profile summary ==");
    println!("{}\n", report::summary(&result));
    println!("== dependences (Figure 1 format; locations are the builder's statement lines) ==");
    println!("{}", report::render(&result, interner, false));

    println!("== what a parallelism-discovery tool would see ==");
    for (d, v) in result.deps.dependences() {
        if d.edge.flags.contains(DepFlags::LOOP_CARRIED) && d.edge.dtype == DepType::Raw {
            println!(
                "loop-carried RAW at line {} <- line {} on '{}' ({} occurrences): blocks DOALL",
                d.sink.loc.line,
                d.edge.source_loc.line,
                interner.resolve(d.edge.var),
                v.count
            );
        }
    }
}
