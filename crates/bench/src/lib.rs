//! `dp-bench` — the paper's experiment runner.
//!
//! It reproduces the paper's tables and figures (E1–E15) plus the chaos
//! sweep (E18) as text tables; EXPERIMENTS.md records and interprets
//! them. Every *cost* number — ns/event, bytes/address, served-path
//! latency — comes from depbench (`benchmark/`) instead.
//!
//! * [`scenario`] — the registry: one `const` table of experiments with
//!   their full and `--quick` scales;
//! * [`experiments`] — the measurement code, one function per entry;
//! * [`baselines`] — the comparator stores the signature is measured
//!   against (shadow memory, hash table, SD3-style stride compression),
//!   one file each;
//! * [`runner`] — runs scenarios and maps failed checks to the exit code.
//!
//! The `dp-bench` binary (`src/bin/dp_bench.rs`) wires these into
//! `list` / `run <id>` / `run-all`. Criterion microbenchmarks live under
//! `benches/`; [`fmt`] and [`measure`] hold the table and timing helpers.

#![warn(missing_docs)]

pub mod baselines;
pub mod experiments;
pub mod fmt;
mod hashhist;
pub mod measure;
pub mod runner;
pub mod scenario;
mod shadow;
mod stride;
