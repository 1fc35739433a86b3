//! The lock-free parallel pipeline on a Starbench mini (Section IV /
//! Figure 2 of the paper), with the lock-based comparator and the serial
//! engine for contrast.
//!
//! ```text
//! cargo run --release --example parallel_pipeline [program]
//! ```

use depprof::core::{ParallelProfiler, SequentialProfiler};
use depprof::prelude::*;
use depprof::sig::ExtendedSlot;
use depprof::trace::workloads::{starbench_suite, Scale};
use std::time::Instant;

fn main() {
    let want = std::env::args().nth(1).unwrap_or_else(|| "kmeans".into());
    let suite = starbench_suite(Scale(0.5));
    let w = suite
        .iter()
        .find(|w| w.meta.name == want)
        .unwrap_or_else(|| panic!("unknown Starbench program '{want}'"));
    let total_slots = 1 << 20;

    // Native (uninstrumented) run.
    let vm = Interp::new(&w.program);
    let t0 = Instant::now();
    vm.run_seq(&mut NullTracer);
    let native = t0.elapsed();
    println!("{}: native {:.1} ms", w.meta.name, native.as_secs_f64() * 1e3);

    // Serial profiler.
    let vm = Interp::new(&w.program);
    let mut serial = SequentialProfiler::with_signature(total_slots);
    let t0 = Instant::now();
    vm.run_seq(&mut serial);
    let st = t0.elapsed();
    let sr = serial.finish();
    println!(
        "serial:        {:>8.1} ms ({:.1}x), {} deps, {} B profiler memory",
        st.as_secs_f64() * 1e3,
        st.as_secs_f64() / native.as_secs_f64(),
        sr.stats.deps_merged,
        sr.memory.total()
    );

    // Lock-free pipeline, 8 workers.
    let cfg = ProfilerConfig::default().with_workers(8).with_slots(total_slots);
    let slots = cfg.slots_per_worker();
    let vm = Interp::new(&w.program);
    let mut free =
        ParallelProfiler::new(cfg.clone().with_transport(TransportKind::Mpmc), move || {
            Signature::<ExtendedSlot>::new(slots)
        });
    let t0 = Instant::now();
    vm.run_seq(&mut free);
    let ft = t0.elapsed();
    let fr = free.finish();
    println!(
        "8T lock-free:  {:>8.1} ms ({:.1}x), {} deps, {} chunks, {} redistributions",
        ft.as_secs_f64() * 1e3,
        ft.as_secs_f64() / native.as_secs_f64(),
        fr.stats.deps_merged,
        fr.stats.chunks_pushed,
        fr.stats.redistributions
    );

    // Lock-based comparator, 8 workers.
    let vm = Interp::new(&w.program);
    let mut locked = ParallelProfiler::new(cfg.with_transport(TransportKind::Lock), move || {
        Signature::<ExtendedSlot>::new(slots)
    });
    let t0 = Instant::now();
    vm.run_seq(&mut locked);
    let lt = t0.elapsed();
    let lr = locked.finish();
    println!(
        "8T lock-based: {:>8.1} ms ({:.1}x), {} deps",
        lt.as_secs_f64() * 1e3,
        lt.as_secs_f64() / native.as_secs_f64(),
        lr.stats.deps_merged
    );

    // The engines must agree on the dependences.
    assert_eq!(sr.stats.accesses, fr.stats.accesses);
    assert_eq!(fr.stats.accesses, lr.stats.accesses);
    println!(
        "\nall engines processed {} accesses; lock-free vs lock-based queue gap: {:.2}x",
        sr.stats.accesses,
        lt.as_secs_f64() / ft.as_secs_f64()
    );
}
