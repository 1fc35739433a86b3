//! End-to-end engine benchmarks: the full profiling cost per event for
//! each engine configuration, on a fixed recorded event stream (so the
//! interpreter cost is excluded and the numbers isolate the profiler).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::{ParallelProfiler, ProfilerConfig, SequentialProfiler, TransportKind};
use dp_sig::{ExtendedSlot, PerfectSignature, Signature};
use dp_trace::workloads::{synth, Scale};
use dp_trace::{CollectTracer, Interp};
use dp_types::{TraceEvent, Tracer};
use std::hint::black_box;

fn events() -> Vec<TraceEvent> {
    let w = synth::uniform(20_000, 200_000);
    let vm = Interp::new(&w.program);
    let mut t = CollectTracer::new();
    vm.run_seq(&mut t);
    t.events
}

fn bench_engines(c: &mut Criterion) {
    let evs = events();
    let mut g = c.benchmark_group("profiler_engines");
    g.throughput(Throughput::Elements(evs.len() as u64));
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(2000));
    g.warm_up_time(std::time::Duration::from_millis(300));

    g.bench_function("serial_signature", |b| {
        b.iter(|| {
            let mut p = SequentialProfiler::with_signature(1 << 17);
            for e in &evs {
                p.on_event(e);
            }
            black_box(p.finish().stats.deps_merged)
        });
    });
    g.bench_function("serial_perfect", |b| {
        b.iter(|| {
            let mut p = SequentialProfiler::perfect();
            for e in &evs {
                p.on_event(e);
            }
            black_box(p.finish().stats.deps_merged)
        });
    });
    for (name, kind) in [
        ("parallel_lockfree_4w", TransportKind::Mpmc),
        ("parallel_spsc_4w", TransportKind::Spsc),
        ("parallel_lockbased_4w", TransportKind::Lock),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = ProfilerConfig::default().with_workers(4).with_slots(1 << 17);
                let slots = cfg.slots_per_worker();
                let mut p = ParallelProfiler::new(cfg.with_transport(kind), move || {
                    Signature::<ExtendedSlot>::new(slots)
                });
                for e in &evs {
                    p.event(*e);
                }
                black_box(p.finish().stats.deps_merged)
            });
        });
    }
    g.finish();
}

fn bench_merge_and_interp(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(1500));

    // Interpreter-only baseline: the "native execution" denominator.
    let w = synth::uniform(20_000, 200_000);
    g.bench_function("interp_null_tracer", |b| {
        let vm = Interp::new(&w.program);
        b.iter(|| vm.run_seq(&mut dp_trace::NullTracer));
    });

    // Worker-map merge cost (the final step of Figure 2).
    let kmeans = &dp_trace::workloads::starbench_suite(Scale(0.1))[1];
    let vm = Interp::new(&kmeans.program);
    let mut prof = SequentialProfiler::perfect();
    vm.run_seq(&mut prof);
    let result = prof.finish();
    g.bench_function("depstore_merge", |b| {
        b.iter(|| {
            let mut global = dp_core::DepStore::new();
            global.merge(black_box(result.deps.clone()));
            black_box(global.merged_len())
        });
    });
    let _ = PerfectSignature::new();
    g.finish();
}

criterion_group!(benches, bench_engines, bench_merge_and_interp);
criterion_main!(benches);
