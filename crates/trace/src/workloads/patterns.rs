//! Reusable loop patterns with known dependence structure.
//!
//! Each helper emits one static loop into a function body and documents
//! what a dependence test must conclude about it:
//!
//! | pattern | loop-carried RAW? | OpenMP-parallelizable? | identified by dep test? |
//! |---|---|---|---|
//! | [`init`] | no | yes | yes |
//! | [`elementwise`] | no | yes | yes |
//! | [`stencil`] | no (reads prior loop's writes) | yes | yes |
//! | [`gather`] | no | yes | yes |
//! | [`scatter_perm`] | no (permutation indices) | yes | yes |
//! | [`reduction`] | yes (on the accumulator) | yes, via `reduction` clause | **no** |
//! | [`histogram`] | yes (data-dependent) | yes, via `atomic` | **no** |
//! | [`recurrence`] | yes | no | no |
//!
//! The gap between "OpenMP-parallelizable" and "identified by a dependence
//! test" is exactly the `# OMP` − `# identified` difference of Table II.

use crate::builder::{c, imod, FuncBuilder};
use crate::ir::{ArrayId, ScalarId};
use dp_types::LoopId;

/// `A[i] = expr(i)` — pure initialization, trivially parallel.
pub fn init(f: &mut FuncBuilder<'_>, name: &str, omp: bool, a: ArrayId, n: i64) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        f.store(a, i.clone(), i * c(3) + c(1));
    })
}

/// `A[i] = A[i] op k` — read-then-write of the same element; only
/// intra-iteration WAR, still parallel.
pub fn elementwise(f: &mut FuncBuilder<'_>, name: &str, omp: bool, a: ArrayId, n: i64) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let v = f.ld(a, i.clone()) + c(7);
        f.store(a, i, v);
    })
}

/// `D[i] = S[i] + S[(i+1) mod n]` — reads a *different* array written by an
/// earlier loop: loop-independent RAW only; parallel.
pub fn stencil(
    f: &mut FuncBuilder<'_>,
    name: &str,
    omp: bool,
    dst: ArrayId,
    src: ArrayId,
    n: i64,
) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let v = f.ld(src, i.clone()) + f.ld(src, imod(i.clone() + c(1), c(n)));
        f.store(dst, i, v);
    })
}

/// `D[i] = S[IDX[i]]` — dynamically calculated indices (the case static
/// analysis must approximate pessimistically); parallel.
pub fn gather(
    f: &mut FuncBuilder<'_>,
    name: &str,
    omp: bool,
    dst: ArrayId,
    src: ArrayId,
    idx: ArrayId,
    n: i64,
) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let j = f.ld(idx, i.clone());
        let v = f.ld(src, j);
        f.store(dst, i, v);
    })
}

/// `D[P[i]] = S[i]` where `P` holds a permutation — a scatter that *is*
/// parallel, but only a dynamic test can see it.
pub fn scatter_perm(
    f: &mut FuncBuilder<'_>,
    name: &str,
    omp: bool,
    dst: ArrayId,
    src: ArrayId,
    perm: ArrayId,
    n: i64,
) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let j = f.ld(perm, i.clone());
        let v = f.ld(src, i);
        f.store(dst, j, v);
    })
}

/// Fills `perm` with the permutation `i -> (i*stride) mod n` (`stride`
/// coprime with `n` guarantees bijectivity; pass e.g. a prime ≠ factors
/// of n).
pub fn fill_perm(
    f: &mut FuncBuilder<'_>,
    name: &str,
    perm: ArrayId,
    n: i64,
    stride: i64,
) -> LoopId {
    f.for_loop(name, true, c(0), c(n), |f, i| {
        f.store(perm, i.clone(), imod(i * c(stride), c(n)));
    })
}

/// `acc += S[i]` — loop-carried RAW on the accumulator: parallelizable in
/// OpenMP only via a `reduction` clause, so a dependence test must report
/// it *not* parallelizable. These are the loops DiscoPoP misses in IS, CG
/// and FT (Table II).
pub fn reduction(
    f: &mut FuncBuilder<'_>,
    name: &str,
    omp: bool,
    acc: ScalarId,
    src: ArrayId,
    n: i64,
) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let v = f.lds(acc) + f.ld(src, i);
        f.store_scalar(acc, v);
    })
}

/// `H[K[i] mod m] += 1` — data-dependent loop-carried RAW (keys repeat);
/// OpenMP parallelizes it with atomics, a dependence test rejects it.
pub fn histogram(
    f: &mut FuncBuilder<'_>,
    name: &str,
    omp: bool,
    hist: ArrayId,
    keys: ArrayId,
    m: i64,
    n: i64,
) -> LoopId {
    f.for_loop(name, omp, c(0), c(n), |f, i| {
        let k = imod(f.ld(keys, i), c(m));
        let v = f.ld(hist, k.clone()) + c(1);
        f.store(hist, k, v);
    })
}

/// `A[i] = A[i-1] + k` — a true recurrence; sequential in every version.
pub fn recurrence(f: &mut FuncBuilder<'_>, name: &str, a: ArrayId, n: i64) -> LoopId {
    f.for_loop(name, false, c(1), c(n), |f, i| {
        let v = f.ld(a, i.clone() - c(1)) + c(1);
        f.store(a, i, v);
    })
}

/// `bands` static loops, each owning one contiguous slice of `arr` and
/// touching it with its own source lines (`A[i] = A[i] + b`).
///
/// This models what large codebases look like to the profiler: many
/// distinct store/load sites, each covering a subset of the address
/// space (the paper's h264dec has 42 kLOC and 31 138 distinct
/// dependences). The per-band line diversity is what makes signature
/// collisions *observable* as false positives (wrong source line) and
/// false negatives (a small band's true pair vanishing entirely) in the
/// Table I experiment.
pub fn banded(
    f: &mut FuncBuilder<'_>,
    prefix: &str,
    omp: bool,
    arr: ArrayId,
    n: i64,
    bands: i64,
) -> Vec<LoopId> {
    let bands = bands.clamp(1, n.max(1));
    let chunk = (n / bands).max(1);
    let mut ids = Vec::with_capacity(bands as usize);
    for b in 0..bands {
        let lo = b * chunk;
        let hi = if b == bands - 1 { n } else { lo + chunk };
        ids.push(f.for_loop(&format!("{prefix}_band{b}"), omp, c(lo), c(hi), |f, i| {
            let v = f.ld(arr, i.clone()) + c(b + 1);
            f.store(arr, i, v);
        }));
        // A band-boundary fixup touching a single element: a dependence
        // pair with exactly ONE dynamic instance. Real programs are full
        // of such rare-path pairs, and they are precisely what signature
        // collisions erase — the false-negative mass of Table I.
        let v = f.ld(arr, c(lo)) * c(2);
        f.store(arr, c(lo), v);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::interp::Interp;
    use crate::tracer::{CollectTracer, NullTracer};

    #[test]
    fn scatter_perm_writes_every_element_once() {
        let n = 16i64;
        let mut b = ProgramBuilder::new("t");
        let src = b.array("src", n as u64);
        let dst = b.array("dst", n as u64);
        let perm = b.array("perm", n as u64);
        let p = b.main(|f| {
            init(f, "init", true, src, n);
            fill_perm(f, "perm", perm, n, 5);
            scatter_perm(f, "scatter", true, dst, src, perm, n);
        });
        let vm = Interp::new(&p);
        let mut t = CollectTracer::new();
        vm.run_seq(&mut t);
        // Each dst element written exactly once → the permutation is valid.
        let dst_base = p.arrays[dst as usize].base;
        let mut writes: Vec<_> = t
            .events
            .iter()
            .filter_map(|e| e.as_access())
            .filter(|a| a.kind.is_write() && a.addr >= dst_base && a.addr < dst_base + 8 * 16)
            .map(|a| a.addr)
            .collect();
        writes.sort_unstable();
        writes.dedup();
        assert_eq!(writes.len(), 16);
    }

    #[test]
    fn reduction_accumulates() {
        let n = 10i64;
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", n as u64);
        let s = b.scalar("acc");
        let p = b.main(|f| {
            init(f, "init", true, a, n); // a[i] = 3i+1
            reduction(f, "red", true, s, a, n);
        });
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        let expect: i64 = (0..10).map(|i| 3 * i + 1).sum();
        assert_eq!(vm.scalar_value(s), expect);
    }

    #[test]
    fn histogram_counts_sum_to_n() {
        let n = 50i64;
        let m = 8i64;
        let mut b = ProgramBuilder::new("t");
        let keys = b.array("keys", n as u64);
        let hist = b.array("hist", m as u64);
        let p = b.main(|f| {
            init(f, "keys", true, keys, n);
            histogram(f, "hist", true, hist, keys, m, n);
        });
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        let total: i64 = (0..m as usize).map(|i| vm.array_value(hist, i)).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn recurrence_chains() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let p = b.main(|f| {
            recurrence(f, "rec", a, 8);
        });
        let vm = Interp::new(&p);
        vm.run_seq(&mut NullTracer);
        assert_eq!(vm.array_value(a, 7), 7);
        assert!(!p.loops[0].omp);
    }
}
