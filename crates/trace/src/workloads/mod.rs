//! The miniature workload library.
//!
//! Every experiment of the paper runs on NAS, Starbench or SPLASH-2x
//! programs. These are C/pthread codes we cannot ship or compile offline,
//! so each is rebuilt as a MiniVM program with the same *dependence
//! structure* — the property all the experiments actually measure:
//!
//! - **NAS minis** ([`nas`]): per-program OpenMP-annotated loop counts
//!   matching Table II, with the non-DiscoPoP-identifiable loops realized
//!   as reductions/histograms (loop-carried RAW that OpenMP parallelizes
//!   via `reduction`/`atomic` clauses but a dependence test must reject).
//! - **Starbench minis** ([`starbench`]): per-program distinct-address and
//!   access counts proportional to Table I (scaled ~10⁻², accesses ~10⁻³),
//!   in both sequential and pthread-style parallel versions.
//! - **SPLASH water-spatial** ([`splash`]): the neighbour-exchange kernel
//!   whose producer/consumer communication matrix Figure 9 shows.
//! - **Synthetic programs** ([`synth`]): uniform/skewed address streams
//!   for Formula 2 validation and racy/locked pairs for the data-race
//!   experiment.

pub mod nas;
pub mod patterns;
pub mod splash;
pub mod starbench;
pub mod synth;

use crate::ir::Program;

/// Which suite a workload belongss to (report grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NAS Parallel Benchmarks minis.
    Nas,
    /// Starbench minis.
    Starbench,
    /// SPLASH-2x minis.
    Splash,
    /// Synthetic stress programs.
    Synthetic,
}

/// Metadata accompanying a workload program.
#[derive(Debug, Clone)]
pub struct WorkloadMeta {
    /// Program name as it appears in the paper's tables.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// True if the program contains `spawn` (use `run_mt`).
    pub parallel: bool,
    /// Target threads when parallel (the paper's pthread runs use 4).
    pub nthreads: u32,
}

/// A ready-to-run workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The MiniVM program.
    pub program: Program,
    /// Metadata.
    pub meta: WorkloadMeta,
}

/// Global size multiplier for workloads. `Scale(1.0)` is the default mini
/// size (hundreds of thousands of accesses per program); the Table I
/// experiment uses larger scales, smoke tests smaller ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    /// Scales a baseline element/iteration count, clamped to ≥ 4.
    pub fn n(self, base: u64) -> i64 {
        ((base as f64 * self.0).round() as i64).max(4)
    }
}

/// All sequential NAS minis (Figure 5, Figure 7, Table II).
pub fn nas_suite(scale: Scale) -> Vec<Workload> {
    vec![
        nas::bt(scale),
        nas::sp(scale),
        nas::lu(scale),
        nas::is(scale),
        nas::ep(scale),
        nas::cg(scale),
        nas::mg(scale),
        nas::ft(scale),
    ]
}

/// All sequential Starbench minis (Table I, Figures 5/7).
pub fn starbench_suite(scale: Scale) -> Vec<Workload> {
    starbench::all(scale, None)
}

/// All pthread-style parallel Starbench minis with `nthreads` target
/// threads (Figures 6/8; the paper uses 4).
pub fn starbench_parallel_suite(scale: Scale, nthreads: u32) -> Vec<Workload> {
    starbench::all(scale, Some(nthreads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::tracer::{CollectTracer, NullTracer};

    #[test]
    fn scale_clamps() {
        assert_eq!(Scale(0.0).n(1000), 4);
        assert_eq!(Scale(2.0).n(10), 20);
        assert_eq!(Scale::default().n(7), 7);
    }

    /// Every workload must run to completion under both tracers and
    /// produce a non-trivial event stream.
    #[test]
    fn all_sequential_workloads_run() {
        let scale = Scale(0.05);
        for w in nas_suite(scale).into_iter().chain(starbench_suite(scale)) {
            assert!(!w.meta.parallel);
            let vm = Interp::new(&w.program);
            vm.run_seq(&mut NullTracer);
            let vm = Interp::new(&w.program);
            let mut t = CollectTracer::new();
            vm.run_seq(&mut t);
            let naccess = t.events.iter().filter(|e| e.as_access().is_some()).count();
            assert!(naccess > 100, "{}: only {naccess} accesses", w.meta.name);
        }
    }

    #[test]
    fn nas_omp_counts_match_table2() {
        // Table II, column "# OMP".
        let expected = [
            ("BT", 30),
            ("SP", 34),
            ("LU", 33),
            ("IS", 11),
            ("EP", 1),
            ("CG", 16),
            ("MG", 14),
            ("FT", 8),
        ];
        let suite = nas_suite(Scale(0.05));
        assert_eq!(suite.len(), expected.len());
        let mut total = 0;
        for (w, (name, omp)) in suite.iter().zip(expected) {
            assert_eq!(w.meta.name, name);
            let got = w.program.loops.iter().filter(|l| l.omp).count();
            assert_eq!(got, omp, "{name}: {got} OMP loops, expected {omp}");
            total += got;
        }
        assert_eq!(total, 147, "paper: 147 annotated loops overall");
    }

    #[test]
    fn starbench_has_11_programs_with_paper_names() {
        let names: Vec<_> =
            starbench_suite(Scale(0.05)).iter().map(|w| w.meta.name.clone()).collect();
        assert_eq!(
            names,
            [
                "c-ray",
                "kmeans",
                "md5",
                "ray-rot",
                "rgbyuv",
                "rotate",
                "rot-cc",
                "streamcluster",
                "tinyjpeg",
                "bodytrack",
                "h264dec"
            ]
        );
    }

    #[test]
    fn parallel_starbench_runs() {
        use dp_types::{ThreadId, TraceEvent};
        use parking_lot::Mutex;
        #[derive(Default)]
        struct F {
            all: Mutex<Vec<TraceEvent>>,
        }
        impl crate::tracer::TracerFactory for F {
            type Tracer = CollectTracer;
            fn tracer(&self, _tid: ThreadId) -> CollectTracer {
                CollectTracer::new()
            }
            fn join(&self, _tid: ThreadId, t: CollectTracer) {
                self.all.lock().extend(t.events);
            }
        }
        for w in starbench_parallel_suite(Scale(0.02), 4) {
            assert!(w.meta.parallel);
            assert_eq!(w.meta.nthreads, 4);
            let vm = Interp::new(&w.program);
            let f = F::default();
            vm.run_mt(&f);
            let all = f.all.into_inner();
            let mut tids: Vec<_> =
                all.iter().filter_map(|e| e.as_access()).map(|a| a.thread).collect();
            tids.sort_unstable();
            tids.dedup();
            assert!(tids.iter().any(|&t| t >= 1), "{}: no worker-thread accesses", w.meta.name);
        }
    }
}
