//! Dependence-based program analyses on top of the profiler.
//!
//! The paper's thesis is that one generic dependence profiler can serve
//! many analyses. This crate holds the analyses used in its evaluation:
//!
//! - [`accuracy`] — false-positive/false-negative rates of profiled
//!   dependences against the perfect-signature baseline (Table I).
//! - [`parallelism`] — loop classification / parallelism discovery, the
//!   DiscoPoP use case (Table II, Section VII-A).
//! - [`comm`] — producer/consumer communication matrices from cross-thread
//!   RAW dependences (Figure 9, Section VII-B).
//! - [`races`] — potential data races from timestamp-reversal flags
//!   (Section V-B).
//! - [`graph`], [`looptable`], [`framework`] — the integrated
//!   program-analysis framework announced in the paper's conclusion:
//!   dependence-graph and loop-table representations plus a plugin API
//!   for downstream analyses.
//! - [`incremental`] — the online twin of the above: live
//!   loop-parallelism, communication and race state folded from
//!   [`AnalysisDelta`](dp_core::AnalysisDelta)s while the profile is
//!   still running, equal to the post-hoc passes once the stream ends.

#![warn(missing_docs)]

pub mod accuracy;
pub mod comm;
pub mod framework;
pub mod graph;
pub mod incremental;
pub mod looptable;
pub mod parallelism;
pub mod races;
pub mod schedule;
pub mod unions;

pub use accuracy::{compare, degradation, Accuracy, Degradation};
pub use comm::{communication_matrix, CommMatrix};
pub use framework::{Analysis, AnalysisContext, Framework};
pub use graph::DepGraph;
pub use incremental::{
    observed_comm_dim, observed_loop_metas, posthoc_report, OnlineAnalysis, OnlineLoopRow,
    OnlineReport,
};
pub use looptable::LoopTable;
pub use parallelism::{
    classify_loops, privatization_candidates, LoopClass, LoopMeta, LoopVerdict,
    PrivatizationCandidate,
};
pub use races::{find_races, RaceHint};
pub use schedule::{max_wave_width, schedule_waves, section_dag, SectionDag, SectionMeta};
pub use unions::{stability, union_runs};
