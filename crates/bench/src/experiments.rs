//! Measurement logic for every registered scenario (see DESIGN.md's
//! experiment index, E1–E15 and E18).
//!
//! Each function implements one table/figure of the paper (or a later
//! PR's experiment) and returns an [`Output`]: the rendered text table
//! plus any correctness check that failed. Workload sizes are controlled
//! by [`ExpConfig::scale`] (1.0 = the default mini size, which
//! corresponds to the paper's setup scaled by ~10⁻³ in accesses and
//! ~10⁻² in addresses; signature sizes are scaled by the same ~10⁻² so
//! Formula 2's load factor matches the paper's).

use crate::baselines::{HashHistory, ShadowMemory, StrideStore};
use crate::fmt::{mb, times, Table};
use crate::measure::{slowdown, time, Timed};
use dp_core::{
    MtProfiler, ParallelProfiler, ProfileResult, ProfilerConfig, SequentialProfiler, TransportKind,
};
use dp_sig::{predicted_fpr, AccessStore, ExtendedSlot, Signature};
use dp_trace::workloads::{
    nas_suite, splash, starbench_parallel_suite, starbench_suite, synth, Scale, Workload,
};
use dp_trace::{CollectTracer, Interp, NullFactory, NullTracer};
use dp_types::TraceEvent;
use std::time::Duration;

/// Seed of every seeded stream and fault plan the experiments build.
const SEED: u64 = 42;

/// The two profiling-thread counts of Figures 5–8 (paper: 8T and 16T).
const PAPER_WORKERS: (usize, usize) = (8, 16);

/// What an experiment runs under: the registry's scale for the chosen
/// mode.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Workload scale multiplier (1.0 = default minis).
    pub scale: f64,
    /// Quick mode: smaller workload subsets where an experiment has one
    /// — the point is "does it run and do its checks hold", not
    /// publishable numbers.
    pub quick: bool,
}

/// What an experiment produced.
#[derive(Debug, Clone)]
pub struct Output {
    /// Rendered table(s), as EXPERIMENTS.md records them.
    pub text: String,
    /// Correctness checks that did not hold, one line each. A non-empty
    /// list makes `dp-bench` exit 1.
    pub failed: Vec<String>,
}

impl Output {
    /// An output with no failed check.
    pub fn passed(text: String) -> Output {
        Output { text, failed: Vec::new() }
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

/// A synthetic stream in which address `i` is written at line `2i+1` and
/// read at line `2i+2`, `rounds` times, in a seed-dependent
/// stride-permuted order. Every address contributes its own dependence
/// pair, so collision effects are directly visible in FPR *and* FNR.
fn per_address_line_stream(n_addrs: u64, rounds: u64, seed: u64) -> Vec<TraceEvent> {
    use dp_types::{loc::loc, MemAccess};
    let mut evs = Vec::with_capacity((n_addrs * rounds * 2) as usize);
    let mut ts = 0u64;
    // An odd stride visits every residue; folding the seed in makes the
    // visit order a pure function of the seed.
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
pub fn table1(cfg: &ExpConfig) -> Output {
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
            sums[i * 2] += acc.fpr();
            sums[i * 2 + 1] += acc.fnr();
        }
        t.row(&cells);
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
    Output::passed(text)
}

/// E2 / Formula 2 — predicted slot-occupancy probability vs. measured
/// dependence FPR/FNR as the signature size sweeps.
///
/// The stream gives every address its own source lines (as a large code
/// base does), so a collision manufactures a visibly wrong dependence
/// (false positive) and erases the true pair (false negative).
pub fn formula2(cfg: &ExpConfig) -> Output {
    let n_addrs = ((40_000.0 * cfg.scale) as u64).max(2_000);
    let events = per_address_line_stream(n_addrs, 6, SEED);
    let base = replay(&events, SequentialProfiler::perfect()).value;
    let mut t = Table::new(&[
        "slots",
        "load n/m",
        "predicted P_fp (F.2)",
        "measured dep FPR %",
        "measured FNR %",
    ]);
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
    }
    let text = format!(
        "Formula 2 validation (E2): accuracy degrades with load factor n/m as predicted\n\
         (per-address-line stream over {n_addrs} addresses, seed {SEED}; the measured rates\n\
         sit above the per-slot P_fp because one dependence must survive every round)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E3 / Figure 5 — slowdowns: serial, lock-based and lock-free pipelines
/// at the two worker counts of the paper (8T and 16T), for sequential
/// NAS + Starbench.
pub fn fig5(cfg: &ExpConfig) -> Output {
    let slots = cfg.perf_slots();
    let (w1, w2) = PAPER_WORKERS;
    let mut t = Table::new(&[
        "program",
        "native ms",
        "serial",
        &format!("{w1}T lock-based"),
        &format!("{w1}T lock-free"),
        &format!("{w2}T lock-free"),
    ]);
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
    }
    let text = format!(
        "Figure 5 (E3): profiling slowdown, sequential targets\n\
         (paper averages: serial 190x/191x, 8T lock-free 97x/101x, 16T 78x/93x,\n\
         lock-free vs lock-based 1.6x/1.3x; this host has {} hardware thread(s) —\n\
         pipeline parallelism cannot materialize below 2 cores, see EXPERIMENTS.md)\n\n{}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        t.render()
    );
    Output::passed(text)
}

/// E4 / Figure 6 — slowdown profiling *parallel* Starbench (4 target
/// threads) at the paper's two profiling-thread counts.
pub fn fig6(cfg: &ExpConfig) -> Output {
    let slots = cfg.perf_slots();
    let (w1, w2) = PAPER_WORKERS;
    let mut t = Table::new(&[
        "program",
        "native ms (4T)",
        &format!("{w1}T profiling"),
        &format!("{w2}T profiling"),
    ]);
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
    }
    let n = suite.len() as f64;
    t.row(&["average".into(), "-".into(), times(sums[0] / n), times(sums[1] / n)]);
    let text = format!(
        "Figure 6 (E4): profiling slowdown, parallel Starbench (pthread-style, 4 target threads)\n\
         (paper averages: 346x with 8T, 261x with 16T)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E5 / Figure 7 — memory consumption, sequential targets: shadow-memory
/// naive baseline vs. lock-free signatures at two worker counts.
///
/// The shadow column and the footprint sweep are deterministic; the 8T
/// and 16T lock-free MB columns are not. `MemoryReport::total` of the
/// parallel engine counts two terms that follow thread scheduling: the
/// chunk pool's high-water mark and the workers' peak local dependence
/// stores. Two runs of one build have read rotate 16T 1.2 vs. 1.8 MB, so
/// a single run cannot show a memory regression; compare medians of
/// several runs.
pub fn fig7(cfg: &ExpConfig) -> Output {
    let slots = cfg.perf_slots();
    let (w1, w2) = PAPER_WORKERS;
    let mut t = Table::new(&[
        "program",
        "naive MB (shadow)",
        &format!("{w1}T lock-free MB"),
        &format!("{w2}T lock-free MB"),
    ]);
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
        }
        t.row(&[label.to_string(), mb(sums[0] / n), mb(sums[1] / n), mb(sums[2] / n)]);
    }
    // The crossover demonstration: shadow memory grows with the target's
    // address footprint while the signature follows it only up to its
    // slot count and is flat after — the core space argument of Section
    // III-B, visible only once footprints exceed the signature budget.
    let mut sweep =
        Table::new(&["target footprint (addrs)", "shadow MB", "signature MB (bounded)"]);
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
    }
    let text = format!(
        "Figure 7 (E5): profiler memory, sequential targets\n\
         (paper: naive shadow memory exceeds signatures; 473/505 MB @8T,\n\
         649/1390 MB @16T for NAS/Starbench at the unscaled sizes)\n\n{}\n\
         Footprint sweep — why signatures (store memory only):\n\n{}",
        t.render(),
        sweep.render()
    );
    Output::passed(text)
}

/// E6 / Figure 8 — memory consumption, parallel Starbench targets.
pub fn fig8(cfg: &ExpConfig) -> Output {
    let slots = cfg.perf_slots();
    let (w1, w2) = PAPER_WORKERS;
    let mut t =
        Table::new(&["program", "naive MB (shadow)", &format!("{w1}T MB"), &format!("{w2}T MB")]);
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
    }
    let n = suite.len();
    t.row(&["average".into(), mb(sums[0] / n), mb(sums[1] / n), mb(sums[2] / n)]);
    let text = format!(
        "Figure 8 (E6): profiler memory, parallel Starbench targets (4 target threads)\n\
         (paper: 995 MB @8T, 1920 MB @16T at unscaled sizes)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E7 / Table II — parallelizable-loop detection in NAS.
pub fn table2(cfg: &ExpConfig) -> Output {
    let mut t = Table::new(&[
        "program",
        "# OMP",
        "# identified (DP)",
        "# identified (sig)",
        "# missed (sig)",
    ]);
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
        let omp = metas.iter().filter(|m| m.omp).count();
        let identified = |r| {
            let loops = dp_analysis::report_for(r, &metas, 0).loops.into_iter();
            loops.filter(|l| l.omp && l.class == dp_analysis::LoopClass::Doall).map(|l| l.id)
        };
        let id_dp: Vec<_> = identified(&dp).collect();
        let id_sig: Vec<_> = identified(&sig).collect();
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
    Output::passed(text)
}

/// E8 / Figure 9 — communication pattern of water-spatial.
pub fn fig9(cfg: &ExpConfig) -> Output {
    let nthreads = 8;
    let w = splash::water_spatial(cfg.wl_scale(), nthreads);
    // Section VII: "If not stated, we always use signatures big enough to
    // produce dependences without false positives and false negatives."
    let ample = (w.program.address_footprint() as usize * 64).next_power_of_two();
    let r = mt_profile(&w, perf_cfg(8, ample));
    let m = dp_analysis::report_for(&r.value, &[], nthreads as usize + 1).comm;
    let mut detail = String::new();
    for p in 1..=nthreads as u16 {
        for c in 1..=nthreads as u16 {
            if m.get(p, c) > 0 {
                detail.push_str(&format!("  t{p} -> t{c}: {}\n", m.get(p, c)));
            }
        }
    }
    let text = format!(
        "Figure 9 (E8): communication pattern of water-spatial ({nthreads} threads)\n\
         (producers on rows, consumers on columns; near-neighbour banding as in the paper)\n\n{}\n{}",
        m.render_ascii(),
        detail
    );
    Output::passed(text)
}

/// E9 — output-size reduction by merging identical dependences.
pub fn merge(cfg: &ExpConfig) -> Output {
    let mut t = Table::new(&[
        "program",
        "dynamic deps",
        "merged deps",
        "merge factor",
        "est. unmerged MB",
        "report KB",
    ]);
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
    }
    let text = format!(
        "Merging identical dependences (E9)\n\
         (paper: NAS output shrinks 6.1 GB -> 53 KB, ~1e5x; factors here scale\n\
         with the ~1e-3 access scaling of the minis)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E10 — signature vs. hash-table vs. shadow-memory engine speed.
pub fn ablate_hash(cfg: &ExpConfig) -> Output {
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
    }
    let text = format!(
        "Store ablation (E10): signature vs. alternatives on a uniform stream\n\
         over {n_addrs} addresses (paper: hash table 1.5-3.7x slower than signatures)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E12 — data-race detection: racy vs. locked counter.
pub fn races(cfg: &ExpConfig) -> Output {
    let mut out = String::from(
        "Race detection (E12): timestamp reversals (Section V-B)\n\
         A locked counter must report 0 reversals; an unlocked one usually\n\
         reports many (subject to actual interleaving on this host).\n\n",
    );
    let mut t = Table::new(&["program", "reversed deps", "race hints", "accesses"]);
    for w in [synth::locked_counter(cfg.wl_scale(), 4), synth::racy_counter(cfg.wl_scale(), 4)] {
        let r = mt_profile(&w, perf_cfg(4, cfg.perf_slots()));
        let hints = dp_analysis::report_for(&r.value, &[], 0).races;
        t.row(&[
            w.meta.name.clone(),
            r.value.stats.reversed.to_string(),
            hints.len().to_string(),
            r.value.stats.accesses.to_string(),
        ]);
    }
    out.push_str(&t.render());
    Output::passed(out)
}

/// E13a — chunk-size sweep (lock-free, 8 workers, kmeans).
pub fn ablate_chunk(cfg: &ExpConfig) -> Output {
    let w = &starbench_suite(cfg.wl_scale())[1]; // kmeans
    let base = native_seq(w);
    let mut t = Table::new(&["chunk capacity", "slowdown", "chunks pushed"]);
    for cap in [64usize, 256, 1024, 4096] {
        let c = perf_cfg(8, cfg.perf_slots()).with_chunk_capacity(cap);
        let r = parallel_lockfree(w, c);
        t.row(&[
            cap.to_string(),
            times(slowdown(r.elapsed, base)),
            r.value.stats.chunks_pushed.to_string(),
        ]);
    }
    Output::passed(format!("Chunk-size ablation (E13a) on kmeans\n\n{}", t.render()))
}

/// E13b — redistribution on/off on a skewed workload.
pub fn ablate_redist(cfg: &ExpConfig) -> Output {
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
    }
    let text = format!(
        "Redistribution ablation (E13b): skewed stream, 90% of accesses on 8 hot\n\
         addresses that modulo-route to a single worker\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E13c — compact (4 B) vs. epoch (8 B) vs. extended (16 B) slots.
pub fn ablate_slots(cfg: &ExpConfig) -> Output {
    fn run<S: dp_sig::Slot>(events: &[TraceEvent], m: usize) -> Timed<ProfileResult> {
        replay(
            events,
            SequentialProfiler::with_stores(Signature::<S>::new(m), Signature::<S>::new(m)),
        )
    }
    let w = &starbench_suite(cfg.wl_scale())[5]; // rotate
    let events = record_events(w);
    let m = cfg.perf_slots();
    let mut t = Table::new(&["slot layout", "time ms", "sig memory MB", "carried info"]);
    for (layout, r, carried) in [
        ("compact (4 B)", run::<dp_sig::CompactSlot>(&events, m), "no"),
        ("epoch (8 B)", run::<dp_sig::EpochSlot>(&events, m), "yes"),
        ("extended (16 B)", run::<ExtendedSlot>(&events, m), "yes"),
    ] {
        t.row(&[
            layout.into(),
            format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
            mb(r.value.memory.signatures),
            carried.into(),
        ]);
    }
    let text = format!(
        "Slot-layout ablation (E13c) on rotate: the paper's 4-byte slots vs. the\n\
         8-byte epoch slots of the serial and parallel engines (loop-carried\n\
         classification) and the extended slots the multi-threaded engine needs\n\
         for thread ids and race detection\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E8b — the full communication-topology suite: the paper's Figure 9
/// method applied to four kernels with known, distinct topologies
/// (ring, 2-D grid, all-to-all, rotating broadcast). Each matrix is
/// derived purely from the profiler's cross-thread RAW records.
pub fn comm_suite(cfg: &ExpConfig) -> Output {
    let nthreads = 6u32;
    let mut out = String::from(
        "Communication-topology suite (E8b): Figure 9's method across four kernels\n\n",
    );
    for w in splash::comm_suite(cfg.wl_scale(), nthreads) {
        let ample = (w.program.address_footprint() as usize * 64).next_power_of_two();
        let r = mt_profile(&w, perf_cfg(8, ample));
        let m = dp_analysis::report_for(&r.value, &[], nthreads as usize + 1).comm;
        out.push_str(&format!(
            "== {} (total cross-thread volume {}) ==\n{}\n",
            w.meta.name,
            m.total(),
            m.render_ascii()
        ));
    }
    Output::passed(out)
}

/// E13d — set-based (section-level) profiling vs. statement-level detail
/// (Section VI-B1: "the performance of the profiler can be further
/// improved by performing set-based profiling, which tells whether a data
/// dependence exists between two code sections instead of two statements
/// ... all these optimizations will decrease the generality").
pub fn ablate_sections(cfg: &ExpConfig) -> Output {
    let w = &starbench_suite(cfg.wl_scale())[10]; // h264dec: most statements
    let events = record_events(w);
    let m = cfg.perf_slots();
    let mut t = Table::new(&["granularity", "time ms", "distinct deps", "store KB"]);
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
    }
    let text = format!(
        "Set-based profiling ablation (E13d) on h264dec: coarser sections shrink\n\
         the dependence store at the cost of the statement-level detail most\n\
         analyses need — the generality/speed trade-off the paper declines\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E14 — signature vs. SD3-style stride compression: the paper's primary
/// comparator compresses strided accesses with an FSM (Section II). The
/// signature is input-oblivious; stride compression shines on affine
/// walks and degenerates on irregular access, and it gives up timestamps
/// (no loop-carried classification / race detection).
pub fn ablate_sd3(cfg: &ExpConfig) -> Output {
    let mut t =
        Table::new(&["workload", "store", "time ms", "store memory KB", "dep FPR %", "dep FNR %"]);
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
        }
    }
    let text = format!(
        "Signature vs. SD3-style stride compression (E14)\n\
         (Section II: SD3 \"reduces the memory overhead by compressing strided\n\
         accesses using a finite state machine\"; the signature is\n\
         application-oblivious — the paper's central design argument)\n\n{}",
        t.render()
    );
    Output::passed(text)
}

/// E15 / SPSC transport comparison — profiles sequential MiniVM
/// workloads end-to-end over the three transports (SPSC ring, lock-free
/// MPMC, lock-based) and checks that the merged dependence sets are
/// bit-identical across them: a workload on which they differ is a
/// failed `identical_deps` check.
pub fn spsc(cfg: &ExpConfig) -> Output {
    let slots = cfg.perf_slots();
    const KINDS: [TransportKind; 3] =
        [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock];
    let workers = 4;
    let mut header: Vec<String> = vec!["program".into(), "native ms".into()];
    header.extend(KINDS.iter().map(|k| format!("{} Mev/s", k.name())));
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
    let mut failed = Vec::new();
    let mut speedup_sum = 0.0f64;
    for w in &suite {
        let base = native_seq(w);
        let mut elapsed = [0.0f64; KINDS.len()];
        let mut rates = [0.0f64; KINDS.len()];
        let mut sets: Vec<Vec<_>> = Vec::with_capacity(KINDS.len());
        for (i, &k) in KINDS.iter().enumerate() {
            let r = parallel_with(w, perf_cfg(workers, slots), k);
            elapsed[i] = r.elapsed.as_secs_f64();
            rates[i] = r.value.stats.accesses as f64 / elapsed[i] / 1e6;
            let mut set: Vec<_> = r.value.deps.dependences().map(|(d, e)| (d, e.count)).collect();
            set.sort();
            sets.push(set);
        }
        let identical = sets.windows(2).all(|w| w[0] == w[1]);
        if !identical {
            failed.push(format!("identical_deps on {}", w.meta.name));
        }
        let speedup = elapsed[1] / elapsed[0];
        speedup_sum += speedup;
        let mut cells = vec![w.meta.name.clone(), format!("{:.1}", base.as_secs_f64() * 1e3)];
        cells.extend(rates.iter().map(|r| format!("{r:.2}")));
        cells.push(times(speedup));
        cells.push(if identical { "yes".into() } else { "NO".into() });
        t.row(&cells);
    }
    let avg_speedup = speedup_sum / suite.len() as f64;
    let text = format!(
        "SPSC transport comparison (E15): sequential targets, {workers} workers\n\
         (same engine, same signatures; only the per-worker channel differs,\n\
         so the throughput gap is the transport's synchronization cost.\n\
         avg first-vs-second transport speedup: {})\n\n{}",
        times(avg_speedup),
        t.render()
    );
    Output { text, failed }
}

// ------------------------------------------ E18: chaos goodput

/// E18: goodput under an adversarial network — `push_with_retry`
/// against a checkpointing server while a seeded client-side
/// [`ChaosStream`](crate::chaos::ChaosStream) kills the connection every N
/// frames (and, at the harshest point, also duplicates every data frame
/// and fragments I/O). Each severity reports goodput (unique events
/// profiled per wall second), duplicated work (events resent across
/// reconnects) and mean recovery latency per reconnect. The final report
/// must be byte-identical to the clean run's — the exactly-once contract
/// measured end to end; a severity where it is not is a failed
/// `report_identical_to_clean` check.
pub fn chaos_goodput(cfg: &ExpConfig) -> Output {
    use crate::chaos::{ChaosStream, NetFaultPlan};
    use dp_server::{push_with_retry, PushOptions, RetryPolicy, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let w = &starbench_suite(cfg.wl_scale())[0];
    let events = record_events(w);
    let names: Vec<String> = (0..w.program.interner.len())
        .map(|i| w.program.interner.resolve(i as u32).to_owned())
        .collect();

    let ckpt = std::env::temp_dir().join(format!("dp-bench-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::create_dir_all(&ckpt).expect("e18 checkpoint dir");

    // (label, reset the connection every N written frames, harsh extras).
    // A frame is a 64-event chunk or a Sync: ~2 800 frames at full scale.
    let severities: &[(&str, Option<u64>, bool)] = if cfg.quick {
        &[("clean", None, false), ("reset/16", Some(16), false)]
    } else {
        &[
            ("clean", None, false),
            ("reset/128", Some(128), false),
            ("reset/32", Some(32), false),
            ("reset/8+dup", Some(8), true),
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
        RetryPolicy { max_attempts: 100_000, base_delay_ms: 1, max_delay_ms: 8, seed: SEED };

    let mut t = Table::new(&[
        "severity",
        "reconnects",
        "resent",
        "recover ms",
        "wall ms",
        "goodput kev/s",
        "identical",
    ]);
    let mut failed = Vec::new();
    let mut clean_report: Option<String> = None;
    for (label, reset, harsh) in severities {
        let mut plan = NetFaultPlan::new().with_seed(SEED | 1);
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
                true
            }
            Some(want) => want == &r.outcome.report,
        };
        if !identical {
            failed.push(format!("report_identical_to_clean at {label}"));
        }
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
    Output { text, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ExpConfig = ExpConfig { scale: 0.02, quick: true };

    /// Lines of the (only) table in `text` below its header rule.
    fn table_rows(text: &str) -> usize {
        text.lines().skip_while(|l| !l.starts_with("---")).skip(1).count()
    }

    #[test]
    fn table2_matches_paper_at_tiny_scale() {
        let s = table2(&TINY);
        let overall: Vec<&str> =
            s.text.lines().find(|l| l.contains("Overall")).unwrap().split_whitespace().collect();
        assert_eq!(overall, ["Overall", "147", "136", "136", "0"], "{}", s.text);
        assert_eq!(table_rows(&s.text), 8 + 1, "one row per NAS program, then Overall");
    }

    #[test]
    fn formula2_runs_and_rows_are_deterministic() {
        let a = formula2(&TINY);
        assert!(a.text.contains("predicted"));
        assert_eq!(table_rows(&a.text), 7, "{}", a.text);
        assert_eq!(a.text, formula2(&TINY).text, "same seed must reproduce accuracy numbers");
    }

    #[test]
    fn fig9_shows_neighbour_traffic() {
        let s = fig9(&TINY);
        assert!(s.text.contains("t1 -> t2") || s.text.contains("t2 -> t1"), "{}", s.text);
    }

    #[test]
    fn merge_factors_large() {
        let s = merge(&TINY);
        assert!(s.text.contains("BT"));
        assert!(s.text.contains("merge factor"));
    }

    #[test]
    fn spsc_comparison_deps_identical_and_summary_present() {
        let s = spsc(&TINY);
        assert!(s.failed.is_empty(), "{:?}", s.failed);
        assert!(s.text.contains("avg first-vs-second transport speedup"), "{}", s.text);
        assert!(!s.text.contains("NO"), "dependence sets diverged across transports:\n{}", s.text);
        // 4 quick workloads, each compared over the 3 transports
        assert_eq!(table_rows(&s.text), 4, "{}", s.text);
    }
}
