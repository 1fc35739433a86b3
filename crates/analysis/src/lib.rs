//! Dependence-based program analyses on top of the profiler.
//!
//! The paper's thesis is that one generic dependence profiler can serve
//! many analyses. This crate holds the analyses used in its evaluation,
//! each a plain function over a [`ProfileResult`]:
//!
//! - [`accuracy`] — false-positive/false-negative rates of profiled
//!   dependences against the perfect-signature baseline (Table I).
//! - [`parallelism`] — loop classification / parallelism discovery, the
//!   DiscoPoP use case (Table II, Section VII-A).
//! - [`comm`] — producer/consumer communication matrices from cross-thread
//!   RAW dependences (Figure 9, Section VII-B).
//! - [`races`] — potential data races from timestamp-reversal flags
//!   (Section V-B).
//! - [`graph`] — the dependence graph: Graphviz export and a RAW-depth
//!   critical-path proxy.
//! - [`incremental`] — the one report those analyses are joined into
//!   ([`OnlineReport`], with a JSON and a text renderer), built post-hoc
//!   ([`report_for`]) or live, folded from
//!   [`AnalysisDelta`](dp_core::AnalysisDelta)s while the profile is still
//!   running ([`OnlineAnalysis`]). The two are equal once the stream ends;
//!   the post-hoc passes are the oracle the live one is checked against.
//!
//! [`text_sections`] is what `depprof profile --analyze` prints.

#![warn(missing_docs)]

pub mod accuracy;
pub mod comm;
pub mod graph;
pub mod incremental;
pub mod parallelism;
pub mod races;

pub use accuracy::{compare, degradation, Accuracy, Degradation};
pub use comm::{communication_matrix, CommMatrix};
pub use graph::DepGraph;
pub use incremental::{
    observed_comm_dim, observed_loop_metas, posthoc_report, report_for, OnlineAnalysis,
    OnlineLoopRow, OnlineReport,
};
pub use parallelism::{
    classify_loops, privatization_candidates, LoopClass, LoopMeta, LoopVerdict,
    PrivatizationCandidate,
};
pub use races::{find_races, RaceHint};

use dp_core::{ExecNodeKind, ProfileResult};
use dp_types::Interner;

/// Every analysis of a finished profile as named text sections, in a
/// fixed order: the three sections of [`OnlineReport::to_text`] over the
/// program's static loop table, a dependence-graph summary, and the
/// dynamic execution tree with function and loop names. `nthreads` is
/// the target's thread count including main (0 for a sequential target,
/// which has no communication matrix).
pub fn text_sections(
    result: &ProfileResult,
    interner: &Interner,
    metas: &[LoopMeta],
    func_names: &[String],
    nthreads: usize,
) -> Vec<(&'static str, String)> {
    let comm_dim = if nthreads < 2 { 0 } else { nthreads + 1 };
    let mut sections = report_for(result, metas, comm_dim).to_text(interner);
    let graph = DepGraph::build(result);
    let (n, e) = graph.size();
    sections.push((
        "graph-summary",
        format!("{n} statements, {e} dependence edges, RAW depth {}", graph.raw_depth()),
    ));
    let tree = &result.exec_tree;
    let tree = if tree.roots().count() == 0 {
        "no structural events recorded".into()
    } else {
        tree.render(|k| match k {
            ExecNodeKind::Call(f) => {
                func_names.get(f as usize).cloned().unwrap_or_else(|| format!("fn{f}"))
            }
            ExecNodeKind::Loop(l) => metas
                .iter()
                .find(|m| m.id == l)
                .map(|m| format!("loop {}", m.name))
                .unwrap_or_else(|| format!("loop#{l}")),
        })
    };
    sections.push(("execution-tree", tree));
    sections
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{MtProfiler, ProfilerConfig, SequentialProfiler};
    use dp_types::{loc::loc, MemAccess, TraceEvent, Tracer, TracerFactory};

    /// `evs`, of any threads, profiled in order by the multi-threaded
    /// target's engine over perfect signatures: one tracer, one worker.
    pub(crate) fn mt_profile(evs: impl IntoIterator<Item = TraceEvent>) -> ProfileResult {
        let cfg = ProfilerConfig::default().with_workers(1);
        let prof = MtProfiler::with_store_factory(cfg, dp_sig::PerfectSignature::new);
        let mut tracer = prof.tracer(0);
        evs.into_iter().for_each(|ev| tracer.event(ev));
        prof.join(0, tracer);
        prof.finish()
    }

    #[test]
    fn text_sections_are_the_five_analyses_in_order() {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        p.event(TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 0)));
        let r = p.finish();
        let sections = text_sections(&r, &Interner::new(), &[], &[], 0);
        let names: Vec<_> = sections.iter().map(|(n, _)| *n).collect();
        let want =
            "parallelism-discovery communication-pattern race-hints graph-summary execution-tree";
        assert_eq!(names.join(" "), want);
        assert!(sections[3].1.contains("RAW depth 1"), "{}", sections[3].1);
        assert_eq!(sections[4].1, "no structural events recorded");
    }
}
