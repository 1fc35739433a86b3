//! Miniature NAS Parallel Benchmarks.
//!
//! Each mini reproduces the property Table II measures: the number of
//! loops annotated parallel in the OpenMP version (`# OMP`) and, among
//! them, how many a *dependence test* can identify as parallelizable. The
//! non-identifiable annotated loops are reductions and histogram updates —
//! OpenMP handles them with `reduction`/`atomic` clauses, but they carry a
//! genuine loop-carried RAW dependence, so a dependence-based test must
//! reject them. Expected identification counts (Table II):
//!
//! | program | # OMP | # identifiable |
//! |---|---|---|
//! | BT | 30 | 30 |
//! | SP | 34 | 34 |
//! | LU | 33 | 33 |
//! | IS | 11 | 8 |
//! | EP | 1 | 1 |
//! | CG | 16 | 9 |
//! | MG | 14 | 14 |
//! | FT | 8 | 7 |

use super::patterns as pat;
use super::{Scale, Suite, Workload, WorkloadMeta};
use crate::builder::{c, rnd, ProgramBuilder};
use crate::ir::{ArrayId, FuncId};

fn meta(name: &str) -> WorkloadMeta {
    WorkloadMeta { name: name.to_owned(), suite: Suite::Nas, parallel: false, nthreads: 0 }
}

/// Emits `count` DOALL loops cycling over `arrs` as destinations/sources,
/// numbering them from `k0` (so split phases keep globally distinct loop
/// names and array rotation).
fn doall_phases(
    f: &mut crate::builder::FuncBuilder<'_>,
    prefix: &str,
    k0: usize,
    count: usize,
    arrs: &[ArrayId],
    n: i64,
) {
    for k in k0..k0 + count {
        let dst = arrs[k % arrs.len()];
        let src = arrs[(k + 1) % arrs.len()];
        match k % 3 {
            0 => {
                pat::stencil(f, &format!("{prefix}_stencil{k}"), true, dst, src, n);
            }
            1 => {
                pat::elementwise(f, &format!("{prefix}_elem{k}"), true, dst, n);
            }
            _ => {
                pat::stencil(f, &format!("{prefix}_flux{k}"), true, dst, src, n);
            }
        }
    }
}

/// Defines one named phase function per `(name, loop_count)` entry, each
/// holding a slice of the program's DOALL loops — the `compute_rhs` /
/// `x_solve` / `y_solve` / `z_solve` structure of the real NAS solvers.
/// Returns the function ids to `call` from the time-step loop.
fn phase_functions(
    b: &mut ProgramBuilder,
    prefix: &str,
    phases: &[(&str, usize)],
    arrs: &[ArrayId],
    n: i64,
) -> Vec<FuncId> {
    let mut k0 = 0usize;
    let mut ids = Vec::with_capacity(phases.len());
    for (name, count) in phases {
        let arrs = arrs.to_vec();
        let (start, cnt) = (k0, *count);
        let pfx = prefix.to_owned();
        ids.push(b.named_func(name, move |f| {
            doall_phases(f, &pfx, start, cnt, &arrs, n);
        }));
        k0 += count;
    }
    ids
}

/// BT — block tridiagonal solver: 30 OMP loops, all DOALL, organized in
/// the real solver's phase functions (`compute_rhs`, `x_solve`,
/// `y_solve`, `z_solve`, `add`) called from the time-step loop.
pub fn bt(scale: Scale) -> Workload {
    let n = scale.n(1000);
    let mut b = ProgramBuilder::new("BT");
    let arrs: Vec<_> =
        ["u", "v", "w", "rhs", "forcing"].iter().map(|s| b.array(s, n as u64)).collect();
    let phases = phase_functions(
        &mut b,
        "bt",
        &[("compute_rhs", 7), ("x_solve", 6), ("y_solve", 6), ("z_solve", 5)],
        &arrs,
        n,
    );
    let arrs2 = arrs.clone();
    let program = b.main(move |f| {
        for (k, &a) in arrs2.iter().enumerate() {
            pat::init(f, &format!("init{k}"), true, a, n); // 5 OMP
        }
        f.for_loop("timestep", false, c(0), c(2), |f, _| {
            for &p in &phases {
                f.call(p); // 24 OMP loops across the four phases...
            }
        });
        // ...plus the final solution update. 5 + 24 + 1 = 30 OMP.
        pat::elementwise(f, "bt_add", true, arrs2[0], n);
    });
    Workload { program, meta: meta("BT") }
}

/// SP — scalar pentadiagonal solver: 34 OMP loops, all DOALL, with the
/// real code's `txinvr`/`x_solve`/`y_solve`/`z_solve`/`tzetar` phases.
pub fn sp(scale: Scale) -> Workload {
    let n = scale.n(1100);
    let mut b = ProgramBuilder::new("SP");
    let arrs: Vec<_> =
        ["u", "us", "vs", "speed", "rhs"].iter().map(|s| b.array(s, n as u64)).collect();
    let phases = phase_functions(
        &mut b,
        "sp",
        &[("txinvr", 5), ("x_solve", 6), ("y_solve", 6), ("z_solve", 6), ("tzetar", 6)],
        &arrs,
        n,
    );
    let arrs2 = arrs.clone();
    let program = b.main(move |f| {
        for (k, &a) in arrs2.iter().enumerate() {
            pat::init(f, &format!("init{k}"), true, a, n); // 5 OMP
        }
        f.for_loop("timestep", false, c(0), c(2), |f, _| {
            for &p in &phases {
                f.call(p); // 29 OMP loops across five phases
            }
        });
    });
    Workload { program, meta: meta("SP") }
}

/// LU — lower-upper Gauss-Seidel: 33 OMP loops (DOALL) organized in the
/// real code's `rhs`/`jacld`/`jacu`/`l2norm` phases, plus the two
/// sequential SSOR wavefront sweeps (`blts`/`buts`, not annotated).
pub fn lu(scale: Scale) -> Workload {
    let n = scale.n(900);
    let mut b = ProgramBuilder::new("LU");
    let arrs: Vec<_> = ["u", "rsd", "frct", "flux"].iter().map(|s| b.array(s, n as u64)).collect();
    let phases = phase_functions(
        &mut b,
        "lu",
        &[("rhs", 8), ("jacld", 7), ("jacu", 7), ("l2norm", 7)],
        &arrs,
        n,
    );
    let a0 = arrs[0];
    let a1 = arrs[1];
    let sweeps = b.named_func("ssor_sweeps", move |f| {
        pat::recurrence(f, "blts_sweep", a1, n); // sequential
        pat::recurrence(f, "buts_sweep", a0, n); // sequential
    });
    let arrs2 = arrs.clone();
    let program = b.main(move |f| {
        for (k, &a) in arrs2.iter().enumerate() {
            pat::init(f, &format!("init{k}"), true, a, n); // 4 OMP
        }
        f.for_loop("ssor_iter", false, c(0), c(2), |f, _| {
            for &p in &phases {
                f.call(p); // 29 OMP loops across four phases
            }
            f.call(sweeps);
        });
    });
    Workload { program, meta: meta("LU") }
}

/// IS — integer sort: 11 OMP loops; the 3 key-counting (histogram) loops
/// carry data-dependent RAW and are not identifiable. The rank prefix-scan
/// is sequential in the base version.
pub fn is(scale: Scale) -> Workload {
    let n = scale.n(4000);
    let m = (n / 8).max(4);
    let mut b = ProgramBuilder::new("IS");
    let keys = b.array("key_array", n as u64);
    let keys2 = b.array("key_buff1", n as u64);
    let sorted = b.array("key_buff2", n as u64);
    let hist = b.array("bucket_size", m as u64);
    let hist2 = b.array("bucket_ptrs", m as u64);
    let hist3 = b.array("rank_hist", m as u64);
    let perm = b.array("perm", n as u64);
    let rank = b.array("rank", m as u64);
    let program = b.main(|f| {
        // 8 identifiable OMP loops:
        f.for_loop("gen_keys", true, c(0), c(n), |f, i| {
            f.store(keys, i, rnd(c(m)));
        });
        pat::fill_perm(f, "fill_perm", perm, n, 7);
        pat::elementwise(f, "shift_keys", true, keys, n);
        pat::gather(f, "load_buff", true, keys2, keys, perm, n);
        pat::scatter_perm(f, "scatter_buff", true, sorted, keys2, perm, n);
        pat::stencil(f, "smooth1", true, keys2, keys, n);
        pat::elementwise(f, "mask", true, sorted, n);
        pat::init(f, "clear_rank", true, rank, m);
        // 3 OMP histogram loops (parallelized with atomics; carried RAW):
        pat::histogram(f, "count_keys", true, hist, keys, m, n);
        pat::histogram(f, "count_buff", true, hist2, keys2, m, n);
        pat::histogram(f, "count_sorted", true, hist3, sorted, m, n);
        // sequential prefix scan of bucket sizes:
        pat::recurrence(f, "prefix_scan", rank, m);
    });
    Workload { program, meta: meta("IS") }
}

/// EP — embarrassingly parallel: one OMP loop of independent experiments,
/// plus an unannotated sequential tally.
pub fn ep(scale: Scale) -> Workload {
    let n = scale.n(20_000);
    let bins = 16i64;
    let mut b = ProgramBuilder::new("EP");
    let results = b.array("results", n as u64);
    let tally = b.array("q_tally", bins as u64);
    let sum = b.scalar("sx");
    let program = b.main(|f| {
        // The single annotated loop: each iteration writes only its own slot.
        f.for_loop("experiments", true, c(0), c(n), |f, i| {
            let x = rnd(c(1 << 20));
            let y = rnd(c(1 << 20));
            f.store(results, i, x + y);
        });
        // Unannotated: histogram + reduction over the results.
        pat::histogram(f, "tally", false, tally, results, bins, n);
        pat::reduction(f, "final_sum", false, sum, tally, bins);
    });
    Workload { program, meta: meta("EP") }
}

/// CG — conjugate gradient: 16 OMP loops, of which the 7 dot-product
/// reductions are not identifiable by a dependence test.
pub fn cg(scale: Scale) -> Workload {
    let n = scale.n(1500);
    let mut b = ProgramBuilder::new("CG");
    let x = b.array("x", n as u64);
    let z = b.array("z", n as u64);
    let p = b.array("p", n as u64);
    let q = b.array("q", n as u64);
    let r = b.array("r", n as u64);
    let colidx = b.array("colidx", n as u64);
    let rho = b.scalar("rho");
    let alpha = b.scalar("alpha");
    let beta = b.scalar("beta");
    let d = b.scalar("d");
    let rnorm = b.scalar("rnorm");
    let zeta1 = b.scalar("zeta1");
    let zeta2 = b.scalar("zeta2");
    let program = b.main(|f| {
        // 4 identifiable init loops.
        pat::init(f, "init_x", true, x, n);
        pat::init(f, "init_r", true, r, n);
        pat::init(f, "init_p", true, p, n);
        pat::fill_perm(f, "init_colidx", colidx, n, 11);
        f.for_loop("cg_iter", false, c(0), c(3), |f, _| {
            // 3 identifiable sparse-matvec gathers (indirect indices).
            pat::gather(f, "spmv_q", true, q, p, colidx, n);
            pat::gather(f, "spmv_z", true, z, x, colidx, n);
            pat::gather(f, "spmv_r", true, r, z, colidx, n);
            // 2 identifiable axpy updates.
            pat::elementwise(f, "axpy_x", true, x, n);
            pat::elementwise(f, "axpy_r", true, r, n);
            // 7 OMP reduction loops (dot products / norms): carried RAW.
            pat::reduction(f, "dot_rho", true, rho, r, n);
            pat::reduction(f, "dot_d", true, d, q, n);
            pat::reduction(f, "dot_alpha", true, alpha, p, n);
            pat::reduction(f, "dot_beta", true, beta, z, n);
            pat::reduction(f, "norm_r", true, rnorm, r, n);
            pat::reduction(f, "zeta_num", true, zeta1, x, n);
            pat::reduction(f, "zeta_den", true, zeta2, z, n);
        });
    });
    Workload { program, meta: meta("CG") }
}

/// MG — multigrid: 14 OMP loops, all DOALL stencils across grid levels.
pub fn mg(scale: Scale) -> Workload {
    let n = scale.n(1600);
    let mut b = ProgramBuilder::new("MG");
    let fine = b.array("u_fine", n as u64);
    let mid = b.array("u_mid", (n / 2).max(4) as u64);
    let coarse = b.array("u_coarse", (n / 4).max(4) as u64);
    let resid = b.array("resid", n as u64);
    let resid_mid = b.array("resid_mid", (n / 2).max(4) as u64);
    let nm = (n / 2).max(4);
    let nc = (n / 4).max(4);
    let program = b.main(|f| {
        pat::init(f, "init_fine", true, fine, n); // 1
        pat::init(f, "init_resid", true, resid, n); // 2
        f.for_loop("vcycle", false, c(0), c(2), |f, _| {
            pat::stencil(f, "resid_fine", true, resid, fine, n); // 3
            pat::stencil(f, "restrict_mid", true, mid, resid, nm); // 4
            pat::stencil(f, "smooth_mid", true, resid_mid, mid, nm); // 5
            pat::stencil(f, "restrict_coarse", true, coarse, resid_mid, nc); // 6
            pat::elementwise(f, "solve_coarse", true, coarse, nc); // 7
            pat::stencil(f, "prolong_mid", true, mid, coarse, nc); // 8
            pat::elementwise(f, "correct_mid", true, mid, nm); // 9
            pat::stencil(f, "smooth_mid2", true, resid_mid, mid, nm); // 10
            pat::stencil(f, "prolong_fine", true, fine, mid, nm); // 11
            pat::elementwise(f, "correct_fine", true, fine, n); // 12
            pat::stencil(f, "smooth_fine", true, resid, fine, n); // 13
            pat::elementwise(f, "apply_fine", true, fine, n); // 14
        });
    });
    Workload { program, meta: meta("MG") }
}

/// FT — 3-D FFT: 8 OMP loops; the checksum reduction is not identifiable.
pub fn ft(scale: Scale) -> Workload {
    let n = scale.n(2000);
    let mut b = ProgramBuilder::new("FT");
    let re = b.array("u_re", n as u64);
    let im = b.array("u_im", n as u64);
    let scratch = b.array("scratch", n as u64);
    let twiddle = b.array("twiddle", n as u64);
    let perm = b.array("bitrev", n as u64);
    let checksum = b.scalar("chk");
    let program = b.main(|f| {
        pat::init(f, "init_re", true, re, n); // 1
        pat::init(f, "init_im", true, im, n); // 2
        pat::init(f, "init_twiddle", true, twiddle, n); // 3
        pat::fill_perm(f, "bitrev_perm", perm, n, 13); // 4
        f.for_loop("fft_stage", false, c(0), c(2), |f, _| {
            pat::scatter_perm(f, "reorder", true, scratch, re, perm, n); // 5
            pat::stencil(f, "butterfly_re", true, re, scratch, n); // 6
            pat::gather(f, "twiddle_mul", true, im, twiddle, perm, n); // 7
        });
        pat::reduction(f, "checksum", true, checksum, re, n); // 8 (OMP reduction)
    });
    Workload { program, meta: meta("FT") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::tracer::CollectTracer;

    #[test]
    fn cg_reduction_loops_have_multiple_iterations() {
        // Carried RAW on an accumulator requires ≥ 2 iterations; make sure
        // scaling never collapses the reduction loops.
        let w = cg(Scale(0.01));
        let vm = Interp::new(&w.program);
        let mut t = CollectTracer::new();
        vm.run_seq(&mut t);
        for l in w.program.loops.iter().filter(|l| l.name.starts_with("dot")) {
            let iters: Vec<u64> = t
                .events
                .iter()
                .filter_map(|e| match e {
                    dp_types::TraceEvent::LoopEnd { loop_id, iters, .. } if *loop_id == l.id => {
                        Some(*iters)
                    }
                    _ => None,
                })
                .collect();
            assert!(iters.iter().all(|&i| i >= 2), "{}: {iters:?}", l.name);
        }
    }

    #[test]
    fn ep_single_omp_loop() {
        let w = ep(Scale(0.01));
        assert_eq!(w.program.loops.iter().filter(|l| l.omp).count(), 1);
        assert_eq!(w.program.loops.iter().filter(|l| !l.omp).count(), 2);
    }

    #[test]
    fn is_histograms_are_omp_annotated() {
        let w = is(Scale(0.02));
        let hist_loops: Vec<_> =
            w.program.loops.iter().filter(|l| l.name.starts_with("count_")).collect();
        assert_eq!(hist_loops.len(), 3);
        assert!(hist_loops.iter().all(|l| l.omp));
    }
}
