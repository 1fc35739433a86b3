//! Measurement logic for every registered scenario (see DESIGN.md,
//! E1–E16).
//!
//! Each function implements one table/figure of the paper (or a later
//! PR's experiment) and returns a [`ScenarioOutput`]: the rendered text
//! table plus structured [`MetricRow`]s the runner folds into a
//! `BenchResult`. Workload sizes are controlled by the recipe's scale
//! (1.0 = the default mini size, which corresponds to the paper's setup
//! scaled by ~10⁻³ in accesses and ~10⁻² in addresses; signature sizes
//! are scaled by the same ~10⁻² so Formula 2's load factor matches the
//! paper's).

use crate::fmt::{mb, times, Table};
use crate::measure::{slowdown, time, Timed};
use crate::result::MetricRow;
use crate::scenario::{ScenarioCtx, ScenarioOutput};
use dp_core::{
    MtProfiler, ParallelProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
};
use dp_sig::{predicted_fpr, AccessStore, ExtendedSlot, HashHistory, ShadowMemory, Signature};
use dp_trace::workloads::{
    nas_suite, splash, starbench_parallel_suite, starbench_suite, synth, Scale, Workload,
};
use dp_trace::{CollectTracer, Interp, NullFactory, NullTracer};
use dp_types::TraceEvent;
use std::time::Duration;

/// Legacy experiment configuration, now derived from a [`ScenarioCtx`].
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Workload scale multiplier (1.0 = default minis).
    pub scale: f64,
    /// Quick mode: smaller workload subset — used by the CI quick
    /// recipes, where the point is "does it run and produce sane JSON",
    /// not publishable numbers.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { scale: 0.25, quick: false }
    }
}

impl From<&ScenarioCtx> for ExpConfig {
    fn from(ctx: &ScenarioCtx) -> Self {
        ExpConfig { scale: ctx.scale, quick: ctx.quick }
    }
}

impl ExpConfig {
    fn wl_scale(&self) -> Scale {
        Scale(self.scale)
    }

    /// Table I signature sizes, scaled to keep n/m at the paper's values:
    /// paper (10⁶, 10⁷, 10⁸) with addresses scaled ~10⁻² → (10⁴, 10⁵, 10⁶).
    fn table1_slots(&self) -> [usize; 3] {
        let f = self.scale;
        [
            ((10_000.0 * f) as usize).max(512),
            ((100_000.0 * f) as usize).max(4096),
            ((1_000_000.0 * f) as usize).max(32_768),
        ]
    }

    /// Total signature slots for performance/memory runs (the paper's
    /// 10⁸-total configuration, scaled ~10⁻²).
    fn perf_slots(&self) -> usize {
        ((1_000_000.0 * self.scale) as usize).max(32_768)
    }
}

// ---------------------------------------------------------------- helpers

fn native_seq(w: &Workload) -> Duration {
    let vm = Interp::new(&w.program);
    time(|| vm.run_seq(&mut NullTracer)).elapsed
}

fn native_mt(w: &Workload) -> Duration {
    let vm = Interp::new(&w.program);
    time(|| vm.run_mt(&NullFactory)).elapsed
}

fn record_events(w: &Workload) -> Vec<TraceEvent> {
    let vm = Interp::new(&w.program);
    let mut t = CollectTracer::new();
    vm.run_seq(&mut t);
    t.events
}

fn replay<S: AccessStore>(
    events: &[TraceEvent],
    mut prof: SequentialProfiler<S>,
) -> Timed<ProfileResult> {
    time(move || {
        for ev in events {
            prof.on_event(ev);
        }
        prof.finish()
    })
}

fn serial_sig(w: &Workload, slots: usize) -> Timed<ProfileResult> {
    let vm = Interp::new(&w.program);
    let mut prof = SequentialProfiler::with_signature(slots);
    let t = time(|| {
        vm.run_seq(&mut prof);
    });
    Timed { value: prof.finish(), elapsed: t.elapsed }
}

fn parallel_lockfree(w: &Workload, cfg: ProfilerConfig) -> Timed<ProfileResult> {
    parallel_with(w, cfg, TransportKind::Mpmc)
}

fn parallel_lockbased(w: &Workload, cfg: ProfilerConfig) -> Timed<ProfileResult> {
    parallel_with(w, cfg, TransportKind::Lock)
}

fn parallel_with(w: &Workload, cfg: ProfilerConfig, kind: TransportKind) -> Timed<ProfileResult> {
    let vm = Interp::new(&w.program);
    let slots = cfg.slots_per_worker();
    let mut prof = ParallelProfiler::new(cfg.with_transport(kind), move || {
        Signature::<ExtendedSlot>::new(slots)
    });
    let t = time(|| {
        vm.run_seq(&mut prof);
    });
    Timed { value: prof.finish(), elapsed: t.elapsed }
}

fn mt_profile(w: &Workload, cfg: ProfilerConfig) -> Timed<ProfileResult> {
    let vm = Interp::new(&w.program);
    let prof = MtProfiler::new(cfg);
    let t = time(|| {
        vm.run_mt(&prof);
    });
    Timed { value: prof.finish(), elapsed: t.elapsed }
}

fn mt_profile_shadow(w: &Workload, cfg: ProfilerConfig) -> ProfileResult {
    let vm = Interp::new(&w.program);
    let prof = MtProfiler::with_store_factory(cfg, ShadowMemory::new);
    vm.run_mt(&prof);
    prof.finish()
}

fn perf_cfg(workers: usize, total_slots: usize) -> ProfilerConfig {
    ProfilerConfig::default().with_workers(workers).with_slots(total_slots)
}

/// A structured row for one timed engine run: events, wall-clock,
/// throughput, memory high-water, degradation counter.
fn perf_row(label: impl Into<String>, t: &Timed<ProfileResult>) -> MetricRow {
    let secs = t.elapsed.as_secs_f64();
    MetricRow {
        label: label.into(),
        events: Some(t.value.stats.accesses),
        wall_ms: Some(secs * 1e3),
        events_per_sec: if secs > 0.0 { Some(t.value.stats.accesses as f64 / secs) } else { None },
        mem_high_water_bytes: Some(t.value.memory.total() as u64),
        degraded_events: Some(t.value.stats.dropped_events),
        ..Default::default()
    }
}

/// A synthetic stream in which address `i` is written at line `2i+1` and
/// read at line `2i+2`, `rounds` times, in a seed-dependent
/// stride-permuted order. Every address contributes its own dependence
/// pair, so collision effects are directly visible in FPR *and* FNR.
fn per_address_line_stream(n_addrs: u64, rounds: u64, seed: u64) -> Vec<TraceEvent> {
    use dp_types::{loc::loc, MemAccess};
    let mut evs = Vec::with_capacity((n_addrs * rounds * 2) as usize);
    let mut ts = 0u64;
    // An odd stride visits every residue; folding the seed in makes the
    // visit order a pure function of the recipe's seed.
    let stride = (2654435761u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15)) | 1;
    for _ in 0..rounds {
        for k in 0..n_addrs {
            let i = (k.wrapping_mul(stride)) % n_addrs;
            let addr = 0x40_0000 + i * 8;
            ts += 1;
            evs.push(TraceEvent::Access(MemAccess::write(
                addr,
                ts,
                loc(1, (2 * i + 1) as u32),
                1,
                0,
            )));
            ts += 1;
            evs.push(TraceEvent::Access(MemAccess::read(
                addr,
                ts,
                loc(1, (2 * i + 2) as u32),
                1,
                0,
            )));
        }
    }
    evs
}

// ------------------------------------------------------------ experiments

/// E1 / Table I — FPR and FNR of profiled dependences for Starbench under
/// three signature sizes, against the perfect-signature baseline.
pub fn table1(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.table1_slots();
    let mut t = Table::new(&[
        "program",
        "#addresses",
        "#accesses",
        "#deps",
        &format!("FPR@{}", slots[0]),
        &format!("FNR@{}", slots[0]),
        &format!("FPR@{}", slots[1]),
        &format!("FNR@{}", slots[1]),
        &format!("FPR@{}", slots[2]),
        &format!("FNR@{}", slots[2]),
    ]);
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 6];
    let suite = starbench_suite(cfg.wl_scale());
    let n = suite.len() as f64;
    for w in &suite {
        let events = record_events(w);
        let accesses = events.iter().filter(|e| e.as_access().is_some()).count();
        let base = replay(&events, SequentialProfiler::perfect()).value;
        let deps = dp_analysis::compare(&base, &base).baseline;
        let mut cells = vec![
            w.meta.name.clone(),
            w.program.address_footprint().to_string(),
            accesses.to_string(),
            deps.to_string(),
        ];
        let mut row = MetricRow::new(&w.meta.name)
            .check("deps", deps)
            .check("addresses", w.program.address_footprint());
        row.events = Some(accesses as u64);
        for (i, &m) in slots.iter().enumerate() {
            let sig = replay(
                &events,
                SequentialProfiler::with_stores(
                    Signature::<ExtendedSlot>::new(m),
                    Signature::<ExtendedSlot>::new(m),
                ),
            )
            .value;
            let acc = dp_analysis::compare(&base, &sig);
            cells.push(format!("{:.2}", acc.fpr()));
            cells.push(format!("{:.2}", acc.fnr()));
            row = row
                .check(&format!("fpr@{m}"), format!("{:.2}", acc.fpr()))
                .check(&format!("fnr@{m}"), format!("{:.2}", acc.fnr()));
            sums[i * 2] += acc.fpr();
            sums[i * 2 + 1] += acc.fnr();
        }
        t.row(&cells);
        rows.push(row);
    }
    let mut avg = vec!["average".to_string(), "-".into(), "-".into(), "-".into()];
    avg.extend(sums.iter().map(|s| format!("{:.2}", s / n)));
    t.row(&avg);
    let text = format!(
        "Table I (E1): dependence accuracy vs. signature size\n\
         (paper: avg FPR/FNR 24.47/5.42 @1e6, 4.71/0.71 @1e7, 0.35/0.04 @1e8;\n\
         slot counts here are scaled by the same factor as the address sets)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E2 / Formula 2 — predicted slot-occupancy probability vs. measured
/// dependence FPR/FNR as the signature size sweeps.
///
/// The stream gives every address its own source lines (as a large code
/// base does), so a collision manufactures a visibly wrong dependence
/// (false positive) and erases the true pair (false negative).
pub fn formula2(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let n_addrs = ((40_000.0 * cfg.scale) as u64).max(2_000);
    let events = per_address_line_stream(n_addrs, 6, ctx.seed);
    let base = replay(&events, SequentialProfiler::perfect()).value;
    let mut t = Table::new(&[
        "slots",
        "load n/m",
        "predicted P_fp (F.2)",
        "measured dep FPR %",
        "measured FNR %",
    ]);
    let mut rows = Vec::new();
    for shift in [0u32, 1, 2, 3, 4, 6, 8] {
        let m = ((n_addrs as usize) << 4) >> shift; // 16n down to n/16
        let sig = replay(
            &events,
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(m),
                Signature::<ExtendedSlot>::new(m),
            ),
        )
        .value;
        let acc = dp_analysis::compare(&base, &sig);
        t.row(&[
            m.to_string(),
            format!("{:.3}", n_addrs as f64 / m as f64),
            format!("{:.4}", predicted_fpr(m, n_addrs)),
            format!("{:.2}", acc.fpr()),
            format!("{:.2}", acc.fnr()),
        ]);
        let mut row = MetricRow::new(format!("slots={m}"))
            .check("load", format!("{:.3}", n_addrs as f64 / m as f64))
            .check("predicted_fpr", format!("{:.4}", predicted_fpr(m, n_addrs)))
            .check("fpr", format!("{:.2}", acc.fpr()))
            .check("fnr", format!("{:.2}", acc.fnr()));
        row.events = Some(events.len() as u64);
        rows.push(row);
    }
    let text = format!(
        "Formula 2 validation (E2): accuracy degrades with load factor n/m as predicted\n\
         (per-address-line stream over {n_addrs} addresses, seed {}; the measured rates\n\
         sit above the per-slot P_fp because one dependence must survive every round)\n\n{}",
        ctx.seed,
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E3 / Figure 5 — slowdowns: serial, lock-based and lock-free pipelines
/// at the recipe's two worker counts (paper: 8T and 16T), for sequential
/// NAS + Starbench.
pub fn fig5(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.perf_slots();
    let w1 = ctx.workers.first().copied().unwrap_or(8);
    let w2 = ctx.workers.get(1).copied().unwrap_or(16);
    let mut t = Table::new(&[
        "program",
        "native ms",
        "serial",
        &format!("{w1}T lock-based"),
        &format!("{w1}T lock-free"),
        &format!("{w2}T lock-free"),
    ]);
    let mut rows = Vec::new();
    let mut group_avgs = Vec::new();
    for (label, suite) in
        [("NAS", nas_suite(cfg.wl_scale())), ("Starbench", starbench_suite(cfg.wl_scale()))]
    {
        let mut sums = [0.0f64; 4];
        for w in &suite {
            let base = native_seq(w);
            let serial = serial_sig(w, slots);
            let lock1 = parallel_lockbased(w, perf_cfg(w1, slots));
            let free1 = parallel_lockfree(w, perf_cfg(w1, slots));
            let free2 = parallel_lockfree(w, perf_cfg(w2, slots));
            let sl = [
                slowdown(serial.elapsed, base),
                slowdown(lock1.elapsed, base),
                slowdown(free1.elapsed, base),
                slowdown(free2.elapsed, base),
            ];
            for (s, v) in sums.iter_mut().zip(sl) {
                *s += v;
            }
            t.row(&[
                w.meta.name.clone(),
                format!("{:.1}", base.as_secs_f64() * 1e3),
                times(sl[0]),
                times(sl[1]),
                times(sl[2]),
                times(sl[3]),
            ]);
            rows.push(perf_row(format!("{}/serial", w.meta.name), &serial));
            rows.push(perf_row(format!("{}/{w1}T-lockbased", w.meta.name), &lock1));
            rows.push(perf_row(format!("{}/{w1}T-lockfree", w.meta.name), &free1));
            rows.push(perf_row(format!("{}/{w2}T-lockfree", w.meta.name), &free2));
        }
        let n = suite.len() as f64;
        let avgs: Vec<f64> = sums.iter().map(|s| s / n).collect();
        t.row(&[
            format!("{label}-average"),
            "-".into(),
            times(avgs[0]),
            times(avgs[1]),
            times(avgs[2]),
            times(avgs[3]),
        ]);
        group_avgs.push((label, avgs));
    }
    let text = format!(
        "Figure 5 (E3): profiling slowdown, sequential targets\n\
         (paper averages: serial 190x/191x, 8T lock-free 97x/101x, 16T 78x/93x,\n\
         lock-free vs lock-based 1.6x/1.3x; this host has {} hardware thread(s) —\n\
         pipeline parallelism cannot materialize below 2 cores, see EXPERIMENTS.md)\n\n{}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E4 / Figure 6 — slowdown profiling *parallel* Starbench (4 target
/// threads) at the recipe's two profiling-thread counts.
pub fn fig6(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.perf_slots();
    let w1 = ctx.workers.first().copied().unwrap_or(8);
    let w2 = ctx.workers.get(1).copied().unwrap_or(16);
    let mut t = Table::new(&[
        "program",
        "native ms (4T)",
        &format!("{w1}T profiling"),
        &format!("{w2}T profiling"),
    ]);
    let mut rows = Vec::new();
    let suite = starbench_parallel_suite(cfg.wl_scale(), 4);
    let mut sums = [0.0f64; 2];
    for w in &suite {
        let base = native_mt(w);
        let p1 = mt_profile(w, perf_cfg(w1, slots));
        let p2 = mt_profile(w, perf_cfg(w2, slots));
        let sl = [slowdown(p1.elapsed, base), slowdown(p2.elapsed, base)];
        sums[0] += sl[0];
        sums[1] += sl[1];
        t.row(&[
            w.meta.name.clone(),
            format!("{:.1}", base.as_secs_f64() * 1e3),
            times(sl[0]),
            times(sl[1]),
        ]);
        rows.push(perf_row(format!("{}/{w1}T", w.meta.name), &p1));
        rows.push(perf_row(format!("{}/{w2}T", w.meta.name), &p2));
    }
    let n = suite.len() as f64;
    t.row(&["average".into(), "-".into(), times(sums[0] / n), times(sums[1] / n)]);
    let text = format!(
        "Figure 6 (E4): profiling slowdown, parallel Starbench (pthread-style, 4 target threads)\n\
         (paper averages: 346x with 8T, 261x with 16T)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E5 / Figure 7 — memory consumption, sequential targets: shadow-memory
/// naive baseline vs. lock-free signatures at two worker counts.
pub fn fig7(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.perf_slots();
    let w1 = ctx.workers.first().copied().unwrap_or(8);
    let w2 = ctx.workers.get(1).copied().unwrap_or(16);
    let mut t = Table::new(&[
        "program",
        "naive MB (shadow)",
        &format!("{w1}T lock-free MB"),
        &format!("{w2}T lock-free MB"),
    ]);
    let mut rows = Vec::new();
    for suite in [nas_suite(cfg.wl_scale()), starbench_suite(cfg.wl_scale())] {
        let mut sums = [0usize; 3];
        let n = suite.len();
        let mut label = "";
        for w in &suite {
            label = if w.meta.suite == dp_trace::workloads::Suite::Nas {
                "NAS-average"
            } else {
                "Starbench-average"
            };
            let events = record_events(w);
            let naive = replay(
                &events,
                SequentialProfiler::with_stores(ShadowMemory::new(), ShadowMemory::new()),
            )
            .value;
            let m1 = parallel_lockfree(w, perf_cfg(w1, slots)).value;
            let m2 = parallel_lockfree(w, perf_cfg(w2, slots)).value;
            let mems = [naive.memory.total(), m1.memory.total(), m2.memory.total()];
            for (s, m) in sums.iter_mut().zip(mems) {
                *s += m;
            }
            t.row(&[w.meta.name.clone(), mb(mems[0]), mb(mems[1]), mb(mems[2])]);
            for (cfg_label, mem) in [
                ("shadow", mems[0]),
                (&format!("{w1}T")[..], mems[1]),
                (&format!("{w2}T")[..], mems[2]),
            ] {
                let mut row = MetricRow::new(format!("{}/{cfg_label}", w.meta.name));
                row.mem_high_water_bytes = Some(mem as u64);
                rows.push(row);
            }
        }
        t.row(&[label.to_string(), mb(sums[0] / n), mb(sums[1] / n), mb(sums[2] / n)]);
    }
    // The crossover demonstration: shadow memory grows with the target's
    // address footprint while the signature total stays fixed — the core
    // space argument of Section III-B, visible only once footprints
    // exceed the signature budget.
    let mut sweep = Table::new(&["target footprint (addrs)", "shadow MB", "signature MB (fixed)"]);
    for n in [100_000u64, 1_000_000, 4_000_000] {
        let w = synth::uniform(n, n / 4);
        let events = record_events(&w);
        let shadow = replay(
            &events,
            SequentialProfiler::with_stores(ShadowMemory::new(), ShadowMemory::new()),
        )
        .value;
        let sig = replay(
            &events,
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(slots),
                Signature::<ExtendedSlot>::new(slots),
            ),
        )
        .value;
        sweep.row(&[n.to_string(), mb(shadow.memory.signatures), mb(sig.memory.signatures)]);
        let mut row = MetricRow::new(format!("footprint={n}/shadow"));
        row.mem_high_water_bytes = Some(shadow.memory.signatures as u64);
        rows.push(row);
        let mut row = MetricRow::new(format!("footprint={n}/signature"));
        row.mem_high_water_bytes = Some(sig.memory.signatures as u64);
        rows.push(row);
    }
    let text = format!(
        "Figure 7 (E5): profiler memory, sequential targets\n\
         (paper: naive shadow memory exceeds signatures; 473/505 MB @8T,\n\
         649/1390 MB @16T for NAS/Starbench at the unscaled sizes)\n\n{}\n\
         Footprint sweep — why signatures (store memory only):\n\n{}",
        t.render(),
        sweep.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E6 / Figure 8 — memory consumption, parallel Starbench targets.
pub fn fig8(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.perf_slots();
    let w1 = ctx.workers.first().copied().unwrap_or(8);
    let w2 = ctx.workers.get(1).copied().unwrap_or(16);
    let mut t =
        Table::new(&["program", "naive MB (shadow)", &format!("{w1}T MB"), &format!("{w2}T MB")]);
    let mut rows = Vec::new();
    let suite = starbench_parallel_suite(cfg.wl_scale(), 4);
    let mut sums = [0usize; 3];
    for w in &suite {
        let naive = mt_profile_shadow(w, perf_cfg(2, slots));
        let m1 = mt_profile(w, perf_cfg(w1, slots)).value;
        let m2 = mt_profile(w, perf_cfg(w2, slots)).value;
        let mems = [naive.memory.total(), m1.memory.total(), m2.memory.total()];
        for (s, m) in sums.iter_mut().zip(mems) {
            *s += m;
        }
        t.row(&[w.meta.name.clone(), mb(mems[0]), mb(mems[1]), mb(mems[2])]);
        for (cfg_label, mem) in [
            ("shadow", mems[0]),
            (&format!("{w1}T")[..], mems[1]),
            (&format!("{w2}T")[..], mems[2]),
        ] {
            let mut row = MetricRow::new(format!("{}/{cfg_label}", w.meta.name));
            row.mem_high_water_bytes = Some(mem as u64);
            rows.push(row);
        }
    }
    let n = suite.len();
    t.row(&["average".into(), mb(sums[0] / n), mb(sums[1] / n), mb(sums[2] / n)]);
    let text = format!(
        "Figure 8 (E6): profiler memory, parallel Starbench targets (4 target threads)\n\
         (paper: 995 MB @8T, 1920 MB @16T at unscaled sizes)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E7 / Table II — parallelizable-loop detection in NAS.
pub fn table2(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let mut t = Table::new(&[
        "program",
        "# OMP",
        "# identified (DP)",
        "# identified (sig)",
        "# missed (sig)",
    ]);
    let mut rows = Vec::new();
    let mut tot = [0usize; 4];
    for w in nas_suite(cfg.wl_scale()) {
        let events = record_events(&w);
        let metas: Vec<dp_analysis::LoopMeta> = w
            .program
            .loops
            .iter()
            .map(|l| dp_analysis::LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
            .collect();
        // DP column: the perfect-signature engine (DiscoPoP's own profiler
        // "no wrong dependences, equivalent to a perfect signature").
        let dp = replay(&events, SequentialProfiler::perfect()).value;
        // sig column: our signature profiler, sufficiently large.
        let sig = replay(&events, SequentialProfiler::with_signature(1 << 20)).value;
        let vd = dp_analysis::classify_loops(&dp, &metas);
        let vs = dp_analysis::classify_loops(&sig, &metas);
        let omp = metas.iter().filter(|m| m.omp).count();
        let id_dp: Vec<_> =
            vd.iter().filter(|v| v.meta.omp && v.identified()).map(|v| v.meta.id).collect();
        let id_sig: Vec<_> =
            vs.iter().filter(|v| v.meta.omp && v.identified()).map(|v| v.meta.id).collect();
        let missed = id_dp.iter().filter(|i| !id_sig.contains(i)).count();
        tot[0] += omp;
        tot[1] += id_dp.len();
        tot[2] += id_sig.len();
        tot[3] += missed;
        t.row(&[
            w.meta.name.clone(),
            omp.to_string(),
            id_dp.len().to_string(),
            id_sig.len().to_string(),
            missed.to_string(),
        ]);
        let mut row = MetricRow::new(&w.meta.name)
            .check("omp", omp)
            .check("identified_dp", id_dp.len())
            .check("identified_sig", id_sig.len())
            .check("missed", missed);
        row.events = Some(events.len() as u64);
        rows.push(row);
    }
    t.row(&[
        "Overall".into(),
        tot[0].to_string(),
        tot[1].to_string(),
        tot[2].to_string(),
        tot[3].to_string(),
    ]);
    let text = format!(
        "Table II (E7): detection of parallelizable loops in NAS\n\
         (paper: 147 OMP, 136 identified by DP and by signatures, 0 missed)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E8 / Figure 9 — communication pattern of water-spatial.
pub fn fig9(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let nthreads = 8;
    let w = splash::water_spatial(cfg.wl_scale(), nthreads);
    // Section VII: "If not stated, we always use signatures big enough to
    // produce dependences without false positives and false negatives."
    let ample = (w.program.address_footprint() as usize * 64).next_power_of_two();
    let r = mt_profile(&w, perf_cfg(8, ample));
    let m = dp_analysis::communication_matrix(&r.value, nthreads as usize + 1);
    let mut detail = String::new();
    for p in 1..=nthreads as u16 {
        for c in 1..=nthreads as u16 {
            if m.get(p, c) > 0 {
                detail.push_str(&format!("  t{p} -> t{c}: {}\n", m.get(p, c)));
            }
        }
    }
    let rows = vec![perf_row("water-spatial", &r).check("cross_thread_volume", m.total())];
    let text = format!(
        "Figure 9 (E8): communication pattern of water-spatial ({nthreads} threads)\n\
         (producers on rows, consumers on columns; near-neighbour banding as in the paper)\n\n{}\n{}",
        m.render_ascii(),
        detail
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E9 — output-size reduction by merging identical dependences.
pub fn merge(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let mut t = Table::new(&[
        "program",
        "dynamic deps",
        "merged deps",
        "merge factor",
        "est. unmerged MB",
        "report KB",
    ]);
    let mut rows = Vec::new();
    // A plain-text record is ~32 bytes, matching the paper's file-size
    // framing (6.1 GB -> 53 KB).
    const REC_BYTES: u64 = 32;
    let mut worst = 0.0f64;
    for w in nas_suite(cfg.wl_scale()) {
        let r = serial_sig(&w, cfg.perf_slots());
        let report = dp_core::report::render(&r.value, &w.program.interner, false);
        let factor = r.value.merge_factor();
        worst = worst.max(factor);
        t.row(&[
            w.meta.name.clone(),
            r.value.stats.deps_built.to_string(),
            r.value.stats.deps_merged.to_string(),
            format!("{factor:.0}"),
            format!("{:.1}", (r.value.stats.deps_built * REC_BYTES) as f64 / 1e6),
            format!("{:.1}", report.len() as f64 / 1e3),
        ]);
        rows.push(
            perf_row(&w.meta.name, &r)
                .check("deps_built", r.value.stats.deps_built)
                .check("deps_merged", r.value.stats.deps_merged)
                .check("merge_factor", format!("{factor:.0}"))
                .check("report_bytes", report.len()),
        );
    }
    let text = format!(
        "Merging identical dependences (E9)\n\
         (paper: NAS output shrinks 6.1 GB -> 53 KB, ~1e5x; factors here scale\n\
         with the ~1e-3 access scaling of the minis)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E10 — signature vs. hash-table vs. shadow-memory engine speed.
pub fn ablate_hash(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let n_addrs = ((100_000.0 * cfg.scale) as u64).max(10_000);
    let w = synth::uniform(n_addrs, n_addrs * 20);
    let events = record_events(&w);
    let sig = replay(
        &events,
        SequentialProfiler::with_stores(
            Signature::<ExtendedSlot>::new((n_addrs * 4) as usize),
            Signature::<ExtendedSlot>::new((n_addrs * 4) as usize),
        ),
    );
    let hash = replay(
        &events,
        SequentialProfiler::with_stores(
            HashHistory::new((n_addrs / 4) as usize),
            HashHistory::new((n_addrs / 4) as usize),
        ),
    );
    let shadow =
        replay(&events, SequentialProfiler::with_stores(ShadowMemory::new(), ShadowMemory::new()));
    let perfect = replay(&events, SequentialProfiler::perfect());
    let mut t = Table::new(&["store", "time ms", "vs signature", "memory MB"]);
    let mut rows = Vec::new();
    let base = sig.elapsed;
    for (name, run) in [
        ("signature", &sig),
        ("hash table (chained)", &hash),
        ("perfect (Fx map)", &perfect),
        ("shadow memory", &shadow),
    ] {
        t.row(&[
            name.to_string(),
            format!("{:.1}", run.elapsed.as_secs_f64() * 1e3),
            times(slowdown(run.elapsed, base)),
            mb(run.value.memory.signatures),
        ]);
        let mut row = perf_row(name, run);
        row.mem_high_water_bytes = Some(run.value.memory.signatures as u64);
        rows.push(row);
    }
    let text = format!(
        "Store ablation (E10): signature vs. alternatives on a uniform stream\n\
         over {n_addrs} addresses (paper: hash table 1.5-3.7x slower than signatures)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E12 — data-race detection: racy vs. locked counter.
pub fn races(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let mut out = String::from(
        "Race detection (E12): timestamp reversals (Section V-B)\n\
         A locked counter must report 0 reversals; an unlocked one usually\n\
         reports many (subject to actual interleaving on this host).\n\n",
    );
    let mut t = Table::new(&["program", "reversed deps", "race hints", "accesses"]);
    let mut rows = Vec::new();
    for w in [synth::locked_counter(cfg.wl_scale(), 4), synth::racy_counter(cfg.wl_scale(), 4)] {
        let r = mt_profile(&w, perf_cfg(4, cfg.perf_slots()));
        let hints = dp_analysis::find_races(&r.value);
        t.row(&[
            w.meta.name.clone(),
            r.value.stats.reversed.to_string(),
            hints.len().to_string(),
            r.value.stats.accesses.to_string(),
        ]);
        rows.push(
            perf_row(&w.meta.name, &r)
                .check("reversed", r.value.stats.reversed)
                .check("race_hints", hints.len()),
        );
    }
    out.push_str(&t.render());
    ScenarioOutput { text: out, rows, summary_events_per_sec: None }
}

/// E13a — chunk-size sweep (lock-free, 8 workers, kmeans).
pub fn ablate_chunk(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let w = &starbench_suite(cfg.wl_scale())[1]; // kmeans
    let base = native_seq(w);
    let mut t = Table::new(&["chunk capacity", "slowdown", "chunks pushed"]);
    let mut rows = Vec::new();
    for cap in [64usize, 256, 1024, 4096] {
        let c = perf_cfg(ctx.primary_workers().max(8), cfg.perf_slots()).with_chunk_capacity(cap);
        let r = parallel_lockfree(w, c);
        t.row(&[
            cap.to_string(),
            times(slowdown(r.elapsed, base)),
            r.value.stats.chunks_pushed.to_string(),
        ]);
        rows.push(
            perf_row(format!("chunk={cap}"), &r)
                .check("chunks_pushed", r.value.stats.chunks_pushed),
        );
    }
    ScenarioOutput {
        text: format!("Chunk-size ablation (E13a) on kmeans\n\n{}", t.render()),
        rows,
        summary_events_per_sec: None,
    }
}

/// E13b — redistribution on/off on a skewed workload.
pub fn ablate_redist(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let n = ((200_000.0 * cfg.scale) as u64).max(20_000);
    // Hot addresses 8 elements apart: all map to the same worker under
    // modulo-8 routing — the pathological imbalance of Section IV-A.
    let w = synth::skewed_strided(n, 8, n * 10, 8);
    let base = native_seq(&w);
    let mut t = Table::new(&[
        "redistribution",
        "slowdown",
        "rounds",
        "moved addrs",
        "load imbalance (max/mean)",
    ]);
    let mut rows = Vec::new();
    for on in [false, true] {
        let mut c = perf_cfg(8, cfg.perf_slots()).with_redistribution(on);
        c.redistribute_every = 500;
        let r = parallel_lockfree(&w, c);
        t.row(&[
            if on { "on" } else { "off" }.into(),
            times(slowdown(r.elapsed, base)),
            r.value.stats.redistributions.to_string(),
            r.value.stats.redistributed_addrs.to_string(),
            format!("{:.2}", r.value.load_imbalance()),
        ]);
        rows.push(
            perf_row(if on { "redistribution=on" } else { "redistribution=off" }, &r)
                .check("rounds", r.value.stats.redistributions)
                .check("moved_addrs", r.value.stats.redistributed_addrs),
        );
    }
    let text = format!(
        "Redistribution ablation (E13b): skewed stream, 90% of accesses on 8 hot\n\
         addresses that modulo-route to a single worker\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E13c — compact (4 B) vs. extended (16 B) slots.
pub fn ablate_slots(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let w = &starbench_suite(cfg.wl_scale())[5]; // rotate
    let events = record_events(w);
    let m = cfg.perf_slots();
    let compact = replay(
        &events,
        SequentialProfiler::with_stores(
            Signature::<dp_sig::CompactSlot>::new(m),
            Signature::<dp_sig::CompactSlot>::new(m),
        ),
    );
    let extended = replay(
        &events,
        SequentialProfiler::with_stores(
            Signature::<ExtendedSlot>::new(m),
            Signature::<ExtendedSlot>::new(m),
        ),
    );
    let mut t = Table::new(&["slot layout", "time ms", "sig memory MB", "carried info"]);
    t.row(&[
        "compact (4 B)".into(),
        format!("{:.1}", compact.elapsed.as_secs_f64() * 1e3),
        mb(compact.value.memory.signatures),
        "no".into(),
    ]);
    t.row(&[
        "extended (16 B)".into(),
        format!("{:.1}", extended.elapsed.as_secs_f64() * 1e3),
        mb(extended.value.memory.signatures),
        "yes".into(),
    ]);
    let mut rows = Vec::new();
    for (label, run) in [("compact", &compact), ("extended", &extended)] {
        let mut row = perf_row(label, run);
        row.mem_high_water_bytes = Some(run.value.memory.signatures as u64);
        rows.push(row);
    }
    let text = format!(
        "Slot-layout ablation (E13c) on rotate: the paper's 4-byte slots vs. the\n\
         extended slots required for thread ids, loop-carried classification and\n\
         race detection\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E8b — the full communication-topology suite: the paper's Figure 9
/// method applied to four kernels with known, distinct topologies
/// (ring, 2-D grid, all-to-all, rotating broadcast). Each matrix is
/// derived purely from the profiler's cross-thread RAW records.
pub fn comm_suite(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let nthreads = 6u32;
    let mut out = String::from(
        "Communication-topology suite (E8b): Figure 9's method across four kernels\n\n",
    );
    let mut rows = Vec::new();
    for w in splash::comm_suite(cfg.wl_scale(), nthreads) {
        let ample = (w.program.address_footprint() as usize * 64).next_power_of_two();
        let r = mt_profile(&w, perf_cfg(8, ample));
        let m = dp_analysis::communication_matrix(&r.value, nthreads as usize + 1);
        out.push_str(&format!(
            "== {} (total cross-thread volume {}) ==\n{}\n",
            w.meta.name,
            m.total(),
            m.render_ascii()
        ));
        rows.push(perf_row(&w.meta.name, &r).check("cross_thread_volume", m.total()));
    }
    ScenarioOutput { text: out, rows, summary_events_per_sec: None }
}

/// E13d — set-based (section-level) profiling vs. statement-level detail
/// (Section VI-B1: "the performance of the profiler can be further
/// improved by performing set-based profiling, which tells whether a data
/// dependence exists between two code sections instead of two statements
/// ... all these optimizations will decrease the generality").
pub fn ablate_sections(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let w = &starbench_suite(cfg.wl_scale())[10]; // h264dec: most statements
    let events = record_events(w);
    let m = cfg.perf_slots();
    let mut t = Table::new(&["granularity", "time ms", "distinct deps", "store KB"]);
    let mut rows = Vec::new();
    for (label, shift) in
        [("statement (paper)", 0u8), ("section: 16 lines", 4), ("section: 256 lines", 8)]
    {
        let r = replay(
            &events,
            SequentialProfiler::with_options(
                Signature::<ExtendedSlot>::new(m),
                Signature::<ExtendedSlot>::new(m),
                dp_core::AlgoOptions { section_shift: shift, ..Default::default() },
            ),
        );
        t.row(&[
            label.to_string(),
            format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
            r.value.stats.deps_merged.to_string(),
            format!("{:.1}", r.value.memory.dep_store as f64 / 1e3),
        ]);
        rows.push(
            perf_row(format!("shift={shift}"), &r)
                .check("deps_merged", r.value.stats.deps_merged)
                .check("dep_store_bytes", r.value.memory.dep_store),
        );
    }
    let text = format!(
        "Set-based profiling ablation (E13d) on h264dec: coarser sections shrink\n\
         the dependence store at the cost of the statement-level detail most\n\
         analyses need — the generality/speed trade-off the paper declines\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E14 — signature vs. SD3-style stride compression: the paper's primary
/// comparator compresses strided accesses with an FSM (Section II). The
/// signature is input-oblivious; stride compression shines on affine
/// walks and degenerates on irregular access, and it gives up timestamps
/// (no loop-carried classification / race detection).
pub fn ablate_sd3(ctx: &ScenarioCtx) -> ScenarioOutput {
    use dp_sig::StrideStore;
    let cfg = ExpConfig::from(ctx);
    let mut t =
        Table::new(&["workload", "store", "time ms", "store memory KB", "dep FPR %", "dep FNR %"]);
    let mut rows = Vec::new();
    let strided = &starbench_suite(cfg.wl_scale())[5]; // rotate: affine walks
    let n_rand = ((50_000.0 * cfg.scale) as u64).max(5_000);
    let random = synth::uniform(n_rand, n_rand * 8);
    for (label, w) in [("strided (rotate)", strided), ("random (uniform)", &random)] {
        let events = record_events(w);
        let base = replay(&events, SequentialProfiler::perfect()).value;
        let m = cfg.perf_slots();
        let sig = replay(
            &events,
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(m),
                Signature::<ExtendedSlot>::new(m),
            ),
        );
        let sd3 = replay(
            &events,
            SequentialProfiler::with_stores(StrideStore::new(), StrideStore::new()),
        );
        for (store, run) in [("signature", &sig), ("stride (SD3-style)", &sd3)] {
            let acc = dp_analysis::compare(&base, &run.value);
            t.row(&[
                label.to_string(),
                store.to_string(),
                format!("{:.1}", run.elapsed.as_secs_f64() * 1e3),
                format!("{:.0}", run.value.memory.signatures as f64 / 1e3),
                format!("{:.2}", acc.fpr()),
                format!("{:.2}", acc.fnr()),
            ]);
            rows.push(
                perf_row(format!("{label}/{store}"), run)
                    .check("fpr", format!("{:.2}", acc.fpr()))
                    .check("fnr", format!("{:.2}", acc.fnr())),
            );
        }
    }
    let text = format!(
        "Signature vs. SD3-style stride compression (E14)\n\
         (Section II: SD3 \"reduces the memory overhead by compressing strided\n\
         accesses using a finite state machine\"; the signature is\n\
         application-oblivious — the paper's central design argument)\n\n{}",
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: None }
}

/// E15 / SPSC transport comparison — profiles sequential MiniVM
/// workloads end-to-end over the recipe's transport matrix (default:
/// SPSC ring, lock-free MPMC, lock-based) and checks that the merged
/// dependence sets are bit-identical across transports. The summary
/// events/sec over the first transport is what `dp-bench gate` tracks.
pub fn spsc(ctx: &ScenarioCtx) -> ScenarioOutput {
    let cfg = ExpConfig::from(ctx);
    let slots = cfg.perf_slots();
    let workers = ctx.primary_workers();
    let kinds: Vec<TransportKind> = if ctx.transports.is_empty() {
        vec![TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock]
    } else {
        ctx.transports.clone()
    };
    let mut header: Vec<String> = vec!["program".into(), "native ms".into()];
    header.extend(kinds.iter().map(|k| format!("{} Mev/s", k.name())));
    header.push("first/second".into());
    header.push("deps identical".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let suite: Vec<Workload> = if cfg.quick {
        nas_suite(cfg.wl_scale())
            .into_iter()
            .take(2)
            .chain(starbench_suite(cfg.wl_scale()).into_iter().take(2))
            .collect()
    } else {
        nas_suite(cfg.wl_scale()).into_iter().chain(starbench_suite(cfg.wl_scale())).collect()
    };
    let mut rows = Vec::new();
    let mut speedup_sum = 0.0f64;
    let mut primary_events = 0u64;
    let mut primary_secs = 0.0f64;
    for w in &suite {
        let base = native_seq(w);
        let mut elapsed = vec![0.0f64; kinds.len()];
        let mut rates = vec![0.0f64; kinds.len()];
        let mut sets: Vec<Vec<_>> = Vec::with_capacity(kinds.len());
        let mut runs = Vec::with_capacity(kinds.len());
        for (i, &k) in kinds.iter().enumerate() {
            let r = parallel_with(w, perf_cfg(workers, slots), k);
            elapsed[i] = r.elapsed.as_secs_f64();
            rates[i] = r.value.stats.accesses as f64 / elapsed[i] / 1e6;
            let mut set: Vec<_> = r.value.deps.dependences().map(|(d, e)| (d, e.count)).collect();
            set.sort();
            sets.push(set);
            runs.push(r);
        }
        let identical = sets.windows(2).all(|w| w[0] == w[1]);
        let speedup = if kinds.len() > 1 { elapsed[1] / elapsed[0] } else { 1.0 };
        speedup_sum += speedup;
        primary_events += runs[0].value.stats.accesses;
        primary_secs += elapsed[0];
        let mut cells = vec![w.meta.name.clone(), format!("{:.1}", base.as_secs_f64() * 1e3)];
        cells.extend(rates.iter().map(|r| format!("{r:.2}")));
        cells.push(times(speedup));
        cells.push(if identical { "yes".into() } else { "NO".into() });
        t.row(&cells);
        for (k, r) in kinds.iter().zip(&runs) {
            rows.push(
                perf_row(format!("{}/{}", w.meta.name, k.name()), r)
                    .check("identical_deps", identical),
            );
        }
    }
    let avg_speedup = speedup_sum / suite.len() as f64;
    let summary =
        if primary_secs > 0.0 { Some(primary_events as f64 / primary_secs) } else { None };
    let text = format!(
        "SPSC transport comparison (E15): sequential targets, {workers} workers\n\
         (same engine, same signatures; only the per-worker channel differs,\n\
         so the throughput gap is the transport's synchronization cost.\n\
         avg first-vs-second transport speedup: {})\n\n{}",
        times(avg_speedup),
        t.render()
    );
    ScenarioOutput { text, rows, summary_events_per_sec: summary }
}

// ---------------------------------------------------------------------
// E16: server throughput — the service layer under concurrent load
// ---------------------------------------------------------------------

/// One client's contribution to an E16 round: stream the shared event
/// set to the server with a `Sync` round-trip every `sync_every`
/// chunks, returning the measured round-trip times.
fn e16_client(
    addr: std::net::SocketAddr,
    id: usize,
    events: &[TraceEvent],
    names: Vec<String>,
    sync_every: usize,
) -> Vec<Duration> {
    use dp_types::protocol::{self, Frame, Hello, MAX_FRAME_BYTES};

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    // The product client's send path: frames coalesce in the sender and
    // are flushed before every read, so a round trip is still timed
    // from the flush that releases the probe.
    let mut out = dp_server::FrameSender::new();
    protocol::write_preamble(&mut conn).unwrap();
    protocol::read_preamble(&mut conn).unwrap();
    let hello = Frame::Hello(Hello {
        session: format!("e16-{id}"),
        spec: dp_core::SessionSpec::default().encode(),
        checkpoint_every: 0,
        names,
    });
    out.send(&mut conn, &hello).unwrap();
    out.flush(&mut conn).unwrap();
    assert!(matches!(
        protocol::read_frame(&mut conn, MAX_FRAME_BYTES).unwrap(),
        Some(Frame::HelloAck { .. })
    ));

    let mut chunker = dp_trace::FrameChunker::new(256);
    let mut rtts = Vec::new();
    let mut chunks = 0usize;
    let mut nonce = 0u64;
    for ev in events {
        for frame in chunker.push(*ev) {
            let was_chunk = matches!(frame, Frame::Chunk { .. });
            out.send(&mut conn, &frame).unwrap();
            if was_chunk {
                chunks += 1;
                if chunks.is_multiple_of(sync_every) {
                    // The SyncAck measures the full frame round trip:
                    // our queued writes drain, the server profiles them,
                    // decodes the Sync and acks its watermark.
                    nonce += 1;
                    let t0 = std::time::Instant::now();
                    out.send(&mut conn, &Frame::Sync { nonce }).unwrap();
                    out.flush(&mut conn).unwrap();
                    match protocol::read_frame(&mut conn, MAX_FRAME_BYTES).unwrap() {
                        Some(Frame::SyncAck { nonce: n, .. }) => assert_eq!(n, nonce),
                        other => panic!("wanted SyncAck, got {other:?}"),
                    }
                    rtts.push(t0.elapsed());
                }
            }
        }
    }
    if let Some(frame) = chunker.flush() {
        out.send(&mut conn, &frame).unwrap();
    }
    out.send(&mut conn, &Frame::Finish).unwrap();
    out.flush(&mut conn).unwrap();
    match protocol::read_frame(&mut conn, MAX_FRAME_BYTES).unwrap() {
        Some(Frame::Report { .. }) => {}
        other => panic!("wanted Report, got {other:?}"),
    }
    rtts
}

fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

/// E16: `dp-server` throughput over loopback TCP — aggregate events/sec
/// and `Sync` round-trip latency (p50/p99) as the concurrent client
/// count grows (the recipe's `matrix.clients` axis). Every client
/// streams the same recorded trace into its own session, so the engine
/// work scales with the client count while the accept loop, session cap
/// and per-connection threads are shared.
pub fn server_throughput(ctx: &ScenarioCtx) -> ScenarioOutput {
    use dp_server::{Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let cfg = ExpConfig::from(ctx);
    // One recorded workload, shared by every client in every round.
    let w = &starbench_suite(cfg.wl_scale())[0];
    let mut collect = CollectTracer::new();
    Interp::new(&w.program).run_seq(&mut collect);
    let events = Arc::new(collect.events);
    let names: Vec<String> = (0..w.program.interner.len())
        .map(|i| w.program.interner.resolve(i as u32).to_owned())
        .collect();

    let client_counts: Vec<usize> =
        if ctx.clients.is_empty() { vec![1, 4] } else { ctx.clients.clone() };
    let sync_every = 8;

    static STOP: AtomicBool = AtomicBool::new(false);

    let mut t =
        Table::new(&["clients", "events total", "wall ms", "Mev/s", "sync p50 us", "sync p99 us"]);
    let mut rows = Vec::new();
    let mut best_evps = 0.0f64;
    for &n in &client_counts {
        STOP.store(false, Ordering::SeqCst);
        let server = Server::bind_tcp(
            "127.0.0.1:0",
            ServerConfig { max_sessions: n.max(1), ..ServerConfig::default() },
        )
        .expect("bind");
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.run(&STOP).unwrap());

        let t0 = std::time::Instant::now();
        let clients: Vec<_> = (0..n)
            .map(|id| {
                let events = Arc::clone(&events);
                let names = names.clone();
                std::thread::spawn(move || e16_client(addr, id, &events, names, sync_every))
            })
            .collect();
        let mut rtts: Vec<Duration> = Vec::new();
        for c in clients {
            rtts.extend(c.join().expect("client thread"));
        }
        let wall = t0.elapsed();
        STOP.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();

        rtts.sort();
        let total_events = events.len() as u64 * n as u64;
        let evps = total_events as f64 / wall.as_secs_f64();
        best_evps = best_evps.max(evps);
        let p50 = percentile_us(&rtts, 0.50);
        let p99 = percentile_us(&rtts, 0.99);
        t.row(&[
            n.to_string(),
            total_events.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.2}", evps / 1e6),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
        ]);
        let mut row = MetricRow::new(format!("clients={n}"));
        row.events = Some(total_events);
        row.wall_ms = Some(wall.as_secs_f64() * 1e3);
        row.events_per_sec = Some(evps);
        row.rtt_p50_us = Some(p50);
        row.rtt_p99_us = Some(p99);
        rows.push(row.check("sync_samples", rtts.len()));
    }

    let text = format!(
        "Server throughput (E16): {} over loopback TCP, one session per client\n\
         (aggregate ingest rate and Sync round-trip latency; each client\n\
         streams the same recorded trace into its own serial engine)\n\n{}",
        w.meta.name,
        t.render()
    );
    let summary = if best_evps > 0.0 { Some(best_evps) } else { None };
    ScenarioOutput { text, rows, summary_events_per_sec: summary }
}

// ------------------------------------------ E17: differential fuzzing

/// E17: a seeded fuzz campaign as a benchmark — oracle throughput
/// (generated accesses replayed through all eight engine legs per
/// second) plus the campaign's deterministic verdicts: divergence count
/// and the Formula-2 accuracy aggregate.
pub fn fuzz_campaign(ctx: &ScenarioCtx) -> ScenarioOutput {
    use dp_fuzz::{run_fuzz, FuzzOpts};

    // scale 1.0 ≙ a 1000-seed campaign; the committed recipe runs 100
    // seeds full / 20 seeds quick.
    let seeds = ((1000.0 * ctx.scale) as u64).max(8);
    let opts = FuzzOpts {
        seeds,
        start_seed: ctx.seed,
        quick: ctx.quick,
        // The web-scale Zipf stream is its own stress (and dominates
        // quick wall-clock); only the full run includes it.
        webscale: !ctx.quick,
        workers: ctx.primary_workers().min(4),
        ..FuzzOpts::default()
    };
    let timed = time(|| run_fuzz(&opts, &mut |_| {}));
    let report = timed.value;
    let evps = report.total_accesses as f64 / timed.elapsed.as_secs_f64();

    let mut t = Table::new(&["seeds", "seq", "mt", "accesses", "wall ms", "kev/s", "divergences"]);
    t.row(&[
        report.seeds.to_string(),
        report.sequential.to_string(),
        report.mt.to_string(),
        report.total_accesses.to_string(),
        format!("{:.1}", timed.elapsed.as_secs_f64() * 1e3),
        format!("{:.1}", evps / 1e3),
        report.divergences.len().to_string(),
    ]);

    let mut row = MetricRow::new(format!("campaign/seeds={seeds}"));
    row.events = Some(report.total_accesses);
    row.wall_ms = Some(timed.elapsed.as_secs_f64() * 1e3);
    row.events_per_sec = Some(evps);
    let row = row
        .check("divergences", report.divergences.len())
        .check("webscale_failures", report.webscale_failures.len())
        .check("accuracy_within_formula2", report.accuracy_within_formula2())
        .check("mean_fpr_pct", format!("{:.2}", report.mean_fpr()))
        .check("mean_fnr_pct", format!("{:.2}", report.mean_fnr()))
        .check("formula2_dep_bound_pct", format!("{:.2}", report.mean_dep_bound()));

    let text = format!(
        "Differential fuzzing (E17): seeded MiniVM programs replayed through\n\
         serial, parallel (spsc/mpmc/lock), served and resumed engines; every\n\
         leg must agree dependence-for-dependence\n\n{}\n\
         accuracy: mean FPR {:.2}% / FNR {:.2}% vs Formula-2 dep-level bound {:.2}% — {}\n",
        t.render(),
        report.mean_fpr(),
        report.mean_fnr(),
        report.mean_dep_bound(),
        if report.accuracy_within_formula2() { "within bound" } else { "EXCEEDED" },
    );
    ScenarioOutput { text, rows: vec![row], summary_events_per_sec: Some(evps) }
}

// ------------------------------------------ E18: chaos goodput

/// E18: goodput under an adversarial network — `push_with_retry`
/// against a checkpointing server while a seeded client-side
/// [`ChaosStream`](dp_server::ChaosStream) kills the connection every N
/// frames (and, at the harshest point, also duplicates every data frame
/// and fragments I/O). Each severity reports goodput (unique events
/// profiled per wall second), duplicated work (events resent across
/// reconnects) and mean recovery latency per reconnect — and asserts
/// the final report is byte-identical to the clean run's, which is the
/// exactly-once contract measured end to end.
pub fn chaos_goodput(ctx: &ScenarioCtx) -> ScenarioOutput {
    use dp_server::{
        push_with_retry, ChaosStream, NetFaultPlan, PushOptions, RetryPolicy, Server, ServerConfig,
    };
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = ExpConfig::from(ctx);
    let w = &starbench_suite(cfg.wl_scale())[0];
    let mut collect = CollectTracer::new();
    Interp::new(&w.program).run_seq(&mut collect);
    let events = collect.events;
    let names: Vec<String> = (0..w.program.interner.len())
        .map(|i| w.program.interner.resolve(i as u32).to_owned())
        .collect();

    let ckpt = std::env::temp_dir().join(format!("dp-bench-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::create_dir_all(&ckpt).expect("e18 checkpoint dir");

    // (label, reset the connection every N written frames, harsh extras).
    // Frames, not chunks: loop events ride in their own frames, so the
    // per-connection budget is what a flaky link would actually allow.
    let severities: &[(&str, Option<u64>, bool)] = if ctx.quick {
        &[("clean", None, false), ("reset/512", Some(512), false)]
    } else {
        &[
            ("clean", None, false),
            ("reset/4096", Some(4096), false),
            ("reset/1024", Some(1024), false),
            ("reset/256+dup", Some(256), true),
        ]
    };

    static STOP: AtomicBool = AtomicBool::new(false);
    STOP.store(false, Ordering::SeqCst);
    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 4,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 512,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run(&STOP).unwrap());

    // Tight backoff: the sweep measures protocol overhead, not sleeps.
    // The attempt budget is sized for the harshest severity (a reconnect
    // every 8 frames across the whole stream).
    let policy =
        RetryPolicy { max_attempts: 100_000, base_delay_ms: 1, max_delay_ms: 8, seed: ctx.seed };

    let mut t = Table::new(&[
        "severity",
        "reconnects",
        "resent",
        "recover ms",
        "wall ms",
        "goodput kev/s",
        "identical",
    ]);
    let mut rows = Vec::new();
    let mut clean_report: Option<String> = None;
    let mut clean_evps = 0.0f64;
    for (label, reset, harsh) in severities {
        let mut plan = NetFaultPlan::new().with_seed(ctx.seed | 1);
        if let Some(k) = reset {
            plan = plan.with_reset_at_frames(*k);
        }
        if *harsh {
            plan = plan.with_dup_every(3).with_short_io();
        }
        let opts = PushOptions {
            session: format!("e18-{label}"),
            // A modest signature keeps the per-reconnect checkpoint
            // cycle about the service layer, not signature capacity.
            spec: dp_core::SessionSpec { slots: 1 << 16, ..Default::default() },
            chunk_events: 64,
            sync_every_chunks: 16,
            ..PushOptions::default()
        };
        let t0 = std::time::Instant::now();
        let r = push_with_retry(
            || {
                let c = std::net::TcpStream::connect(addr)?;
                c.set_nodelay(true).ok();
                Ok(ChaosStream::new(c, plan.clone()))
            },
            &names,
            &events,
            &opts,
            &policy,
        )
        .expect("push survives the fault plan");
        let wall = t0.elapsed();

        // Goodput counts *unique* events — the profile's worth of work —
        // against the wall clock that includes every reconnect.
        let goodput = events.len() as f64 / wall.as_secs_f64();
        let identical = match &clean_report {
            None => {
                clean_report = Some(r.outcome.report.clone());
                clean_evps = goodput;
                true
            }
            Some(want) => want == &r.outcome.report,
        };
        let recover_per_reconnect =
            if r.reconnects > 0 { r.recovery_ms_total as f64 / r.reconnects as f64 } else { 0.0 };
        t.row(&[
            label.to_string(),
            r.reconnects.to_string(),
            r.events_resent.to_string(),
            format!("{recover_per_reconnect:.1}"),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", goodput / 1e3),
            if identical { "yes".into() } else { "NO".into() },
        ]);
        let mut row = MetricRow::new(format!("chaos/{label}"));
        row.events = Some(events.len() as u64);
        row.wall_ms = Some(wall.as_secs_f64() * 1e3);
        row.events_per_sec = Some(goodput);
        rows.push(
            row.check("reconnects", r.reconnects)
                .check("busy_waits", r.busy_waits)
                .check("events_resent", r.events_resent)
                .check("recovery_ms_per_reconnect", format!("{recover_per_reconnect:.1}"))
                .check("report_identical_to_clean", identical),
        );
    }
    STOP.store(true, Ordering::SeqCst);
    server_thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&ckpt);

    let text = format!(
        "Chaos goodput (E18): {} pushed through a seeded fault injector,\n\
         retry/resume client vs checkpointing server over loopback TCP\n\
         (goodput = unique events per wall second including recovery;\n\
         every severity must reproduce the clean run's report exactly)\n\n{}",
        w.meta.name,
        t.render()
    );
    let summary = if clean_evps > 0.0 { Some(clean_evps) } else { None };
    ScenarioOutput { text, rows, summary_events_per_sec: summary }
}

// ------------------------------------------ E19: online analysis

/// One E19 client: streams the shared events into its own session and,
/// at the requested rate, interleaves live `Query` frames (kind `ALL`)
/// answered from the server's incremental analysis state. Returns the
/// measured query round trips and the final snapshot JSON (one query is
/// always issued after the last chunk when querying is enabled, so even
/// a sub-second quick run samples the latency path).
fn e19_client(
    addr: std::net::SocketAddr,
    label: &str,
    events: &[TraceEvent],
    names: Vec<String>,
    query_interval: Option<Duration>,
) -> (Vec<Duration>, Option<String>) {
    use dp_types::protocol::{self, query_kind, Frame, Hello, MAX_FRAME_BYTES};

    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    // Same buffered sender as the product client and E16.
    let mut out = dp_server::FrameSender::new();
    protocol::write_preamble(&mut conn).unwrap();
    protocol::read_preamble(&mut conn).unwrap();
    let hello = Frame::Hello(Hello {
        session: format!("e19-{label}"),
        spec: dp_core::SessionSpec::default().encode(),
        checkpoint_every: 0,
        names,
    });
    out.send(&mut conn, &hello).unwrap();
    out.flush(&mut conn).unwrap();
    assert!(matches!(
        protocol::read_frame(&mut conn, MAX_FRAME_BYTES).unwrap(),
        Some(Frame::HelloAck { .. })
    ));

    let query = |out: &mut dp_server::FrameSender,
                 conn: &mut std::net::TcpStream,
                 id: u64|
     -> (Duration, String) {
        let t0 = std::time::Instant::now();
        out.send(conn, &Frame::Query { id, kind: query_kind::ALL }).unwrap();
        out.flush(conn).unwrap();
        match protocol::read_frame(conn, MAX_FRAME_BYTES).unwrap() {
            Some(Frame::QueryResult { id: got, json, .. }) => {
                assert_eq!(got, id);
                (t0.elapsed(), json)
            }
            other => panic!("wanted QueryResult, got {other:?}"),
        }
    };

    let mut chunker = dp_trace::FrameChunker::new(256);
    let mut rtts = Vec::new();
    let mut last_json = None;
    let mut next_id = 0u64;
    let mut last_query = std::time::Instant::now();
    for ev in events {
        for frame in chunker.push(*ev) {
            let was_chunk = matches!(frame, Frame::Chunk { .. });
            out.send(&mut conn, &frame).unwrap();
            if was_chunk {
                if let Some(interval) = query_interval {
                    if last_query.elapsed() >= interval {
                        next_id += 1;
                        let (rtt, json) = query(&mut out, &mut conn, next_id);
                        rtts.push(rtt);
                        last_json = Some(json);
                        last_query = std::time::Instant::now();
                    }
                }
            }
        }
    }
    if let Some(frame) = chunker.flush() {
        out.send(&mut conn, &frame).unwrap();
    }
    if query_interval.is_some() {
        next_id += 1;
        let (rtt, json) = query(&mut out, &mut conn, next_id);
        rtts.push(rtt);
        last_json = Some(json);
    }
    out.send(&mut conn, &Frame::Finish).unwrap();
    out.flush(&mut conn).unwrap();
    match protocol::read_frame(&mut conn, MAX_FRAME_BYTES).unwrap() {
        Some(Frame::Report { .. }) => {}
        other => panic!("wanted Report, got {other:?}"),
    }
    (rtts, last_json)
}

/// E19: online-analysis cost — feed throughput and live-query latency
/// as mid-session `Query` frames are interleaved at 0, 1 and 10 Hz.
/// The 0 Hz row is the pure-ingest baseline; the per-row overhead check
/// reports how much feed throughput each query rate costs (the paper's
/// on-the-fly design goal: watching must not stall the feed). Query
/// round trips include folding the pending deltas into the incremental
/// state and serializing the Table-II/comm/race snapshot.
pub fn online_analysis(ctx: &ScenarioCtx) -> ScenarioOutput {
    use dp_server::{Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = ExpConfig::from(ctx);
    let w = &starbench_suite(cfg.wl_scale())[0];
    let mut collect = CollectTracer::new();
    Interp::new(&w.program).run_seq(&mut collect);
    let events = collect.events;
    let names: Vec<String> = (0..w.program.interner.len())
        .map(|i| w.program.interner.resolve(i as u32).to_owned())
        .collect();

    let rates: &[(&str, Option<u64>)] =
        &[("q0hz", None), ("q1hz", Some(1000)), ("q10hz", Some(100))];

    static STOP: AtomicBool = AtomicBool::new(false);

    let mut t = Table::new(&[
        "rate",
        "events",
        "queries",
        "wall ms",
        "Mev/s",
        "overhead %",
        "query p50 us",
        "query p99 us",
    ]);
    let mut rows = Vec::new();
    let mut baseline_evps = 0.0f64;
    for (label, interval_ms) in rates {
        STOP.store(false, Ordering::SeqCst);
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.run(&STOP).unwrap());

        let t0 = std::time::Instant::now();
        let (mut rtts, last_json) =
            e19_client(addr, label, &events, names.clone(), interval_ms.map(Duration::from_millis));
        let wall = t0.elapsed();
        STOP.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();

        rtts.sort();
        let evps = events.len() as f64 / wall.as_secs_f64();
        if interval_ms.is_none() {
            baseline_evps = evps;
        }
        // Positive = the query rate cost feed throughput vs the 0 Hz
        // baseline measured in the same scenario invocation.
        let overhead_pct =
            if baseline_evps > 0.0 { (baseline_evps - evps) / baseline_evps * 100.0 } else { 0.0 };
        let p50 = percentile_us(&rtts, 0.50);
        let p99 = percentile_us(&rtts, 0.99);
        let snapshot_ok = last_json
            .as_deref()
            .is_none_or(|j| j.contains("\"loops\":") && j.contains("\"position\":"));
        t.row(&[
            label.to_string(),
            events.len().to_string(),
            rtts.len().to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{:.2}", evps / 1e6),
            format!("{overhead_pct:+.1}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
        ]);
        let mut row = MetricRow::new(format!("watch/{label}"));
        row.events = Some(events.len() as u64);
        row.wall_ms = Some(wall.as_secs_f64() * 1e3);
        row.events_per_sec = Some(evps);
        if !rtts.is_empty() {
            row.rtt_p50_us = Some(p50);
            row.rtt_p99_us = Some(p99);
        }
        rows.push(
            row.check("queries", rtts.len())
                .check("overhead_pct_vs_idle", format!("{overhead_pct:.1}"))
                .check("final_snapshot_well_formed", snapshot_ok),
        );
    }

    let text = format!(
        "Online analysis (E19): {} streamed into dp-server while live Query\n\
         frames sample the incremental loop/comm/race state mid-session\n\
         (0 Hz = pure-ingest baseline; overhead is the feed-throughput cost\n\
         of answering queries from incremental state without a stall)\n\n{}",
        w.meta.name,
        t.render()
    );
    let summary = if baseline_evps > 0.0 { Some(baseline_evps) } else { None };
    ScenarioOutput { text, rows, summary_events_per_sec: summary }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioCtx {
        ScenarioCtx {
            recipe: "tiny".into(),
            scale: 0.02,
            quick: true,
            seed: 42,
            workers: vec![4, 8],
            transports: vec![TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock],
            clients: vec![1, 2],
        }
    }

    #[test]
    fn table2_matches_paper_at_tiny_scale() {
        let s = table2(&tiny());
        let overall: Vec<&str> =
            s.text.lines().find(|l| l.contains("Overall")).unwrap().split_whitespace().collect();
        assert_eq!(overall, ["Overall", "147", "136", "136", "0"], "{}", s.text);
        assert_eq!(s.rows.len(), 8, "one row per NAS program");
    }

    #[test]
    fn formula2_runs_and_rows_are_deterministic() {
        let a = formula2(&tiny());
        let b = formula2(&tiny());
        assert!(a.text.contains("predicted"));
        assert_eq!(a.rows.len(), 7);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.checks, rb.checks, "same seed must reproduce accuracy numbers");
        }
        // A different seed permutes the stream; the rows still parse.
        let mut other = tiny();
        other.seed = 1979;
        assert_eq!(formula2(&other).rows.len(), 7);
    }

    #[test]
    fn fig9_shows_neighbour_traffic() {
        let s = fig9(&tiny());
        assert!(s.text.contains("t1 -> t2") || s.text.contains("t2 -> t1"), "{}", s.text);
    }

    #[test]
    fn merge_factors_large() {
        let s = merge(&tiny());
        assert!(s.text.contains("BT"));
        assert!(s.rows.iter().all(|r| r.checks.contains_key("merge_factor")));
    }

    #[test]
    fn online_analysis_rows_and_overhead() {
        let s = online_analysis(&tiny());
        assert_eq!(s.rows.len(), 3, "{}", s.text);
        assert_eq!(s.rows[0].label, "watch/q0hz");
        assert_eq!(s.rows[0].checks["queries"], "0");
        assert!(s.rows[0].rtt_p99_us.is_none(), "0 Hz row must not report query latency");
        for row in &s.rows[1..] {
            assert!(row.checks["queries"].parse::<u64>().unwrap() >= 1, "{}", row.label);
            assert!(row.rtt_p99_us.unwrap() > 0.0);
            assert_eq!(row.checks["final_snapshot_well_formed"], "true");
        }
        assert!(s.summary_events_per_sec.unwrap() > 0.0);
    }

    #[test]
    fn spsc_comparison_deps_identical_and_summary_present() {
        let s = spsc(&tiny());
        assert!(!s.text.contains("NO"), "dependence sets diverged across transports:\n{}", s.text);
        assert!(s.rows.iter().all(|r| r.checks["identical_deps"] == "true"));
        assert!(s.summary_events_per_sec.unwrap() > 0.0);
        // 4 quick workloads × 3 transports
        assert_eq!(s.rows.len(), 12);
    }
}
