//! Differential fuzzing for the profiler stack.
//!
//! The repository accumulates engines that must all agree on what a
//! dependence is: the in-line serial profiler, the parallel pipeline over
//! its three transports, the DPSV service layer, and checkpoint/resume.
//! Hand-written workloads exercise each engine, but only on the programs
//! someone thought to write. This crate closes the gap adversarially:
//!
//! - [`oracle`] — runs one generated MiniVM program through *every*
//!   engine and demands dependence-for-dependence equality, plus zero
//!   false positives/negatives against the perfect-signature baseline.
//!   Equality is made deterministic (never flaky) by sizing the
//!   signature so its hash is injective on the program's footprint — an
//!   injective signature *is* a perfect table, so any divergence is a
//!   real bug, not a hash collision. Also the reference analysis passes.
//! - [`driver`] — the fuzz campaign loop: generate N seeded programs,
//!   check each, shrink any failure to a minimal repro and write it to
//!   a corpus directory, and validate measured FPR/FNR of deliberately
//!   undersized signatures against the paper's Formula 2 bound.
//! - [`webscale`] — a synthetic web-scale family: Zipfian event streams
//!   over ~10^6 distinct addresses at signature load factors beyond
//!   Table I, stressing eviction and router redistribution paths that
//!   small programs never reach.
//!
//!
//! The program side of the fuzzer sits here too, over `dp_trace`'s IR:
//!
//! - [`gen`] — a *seeded, reproducible* random program generator. The same
//!   `(seed, FuzzConfig)` pair always yields the same program, so a failure
//!   reported by CI is reproducible from the seed in the log alone.
//!   Generated programs exercise the constructs hand-written workloads
//!   under-cover: deep loop nests, indirection `A[B[i]]`, reductions,
//!   conditional accesses, lock regions and fork-join thread sections.
//! - [`text`] — a printable/parsable corpus format. Failing programs are
//!   committed as *programs*, not as seeds, so a corpus repro keeps
//!   reproducing the original bug even after the generator itself evolves.
//! - [`minimize()`] — a predicate-driven shrinker that reduces a failing
//!   program to a minimal statement count while the predicate (usually
//!   "the differential oracle still diverges") keeps holding.
//! - [`rng`] — the generator's own randomness, a self-contained
//!   xorshift64* stream (no external RNG crates, mirroring the
//!   fault-injection harness in `dp-queue`).

#![warn(missing_docs)]

pub mod driver;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod rng;
pub mod text;
pub mod webscale;

pub use driver::{run_fuzz, FoundDivergence, FuzzOpts, FuzzReport};
pub use gen::{generate, is_mt, FuzzConfig};
pub use minimize::{minimize, stmt_count};
pub use oracle::{
    check_program, dep_map, offline, perfect, record, resumed, served, AccuracySample, Corruption,
    Divergence, OracleConfig, OracleOutcome,
};
pub use rng::FuzzRng;
pub use text::{parse_program, print_program};
pub use webscale::{webscale_check, webscale_events, WebscaleConfig, WebscaleOutcome};
