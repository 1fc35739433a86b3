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
//! The program generator, corpus text format and minimizer live in
//! `dp_trace::fuzz`; this crate owns everything that needs the engines.

#![warn(missing_docs)]

pub mod driver;
pub mod oracle;
pub mod webscale;

pub use driver::{run_fuzz, FoundDivergence, FuzzOpts, FuzzReport};
pub use oracle::{
    check_program, dep_map, offline, perfect, record, resumed, served, AccuracySample, Corruption,
    Divergence, OracleConfig, OracleOutcome,
};
pub use webscale::{webscale_check, webscale_events, WebscaleConfig, WebscaleOutcome};
