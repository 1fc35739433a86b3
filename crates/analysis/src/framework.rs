//! The plugin framework of Section VIII.
//!
//! "An integrated program-analysis framework with APIs to retrieve
//! dependence information is already in development. The framework
//! reorganizes profiled data into multiple representations ... and a
//! dependence-based program analysis can be implemented as a plugin."
//!
//! [`AnalysisContext`] exposes the representations (raw result,
//! dependence graph, loop table, interner); an [`Analysis`] plugin
//! consumes the context and produces a report fragment; the
//! [`Framework`] builds the representations once and runs every
//! registered plugin over them. The bundled plugins wrap this crate's
//! analyses, and downstream tools add their own by implementing the
//! one-method trait.

use crate::graph::DepGraph;
use crate::looptable::LoopTable;
use crate::parallelism::LoopMeta;
use dp_core::ProfileResult;
use dp_types::Interner;

/// Everything a plugin may inspect, built once per framework run.
pub struct AnalysisContext<'a> {
    /// The raw profiling result (dependence store, stats, memory).
    pub result: &'a ProfileResult,
    /// Variable names.
    pub interner: &'a Interner,
    /// Static loop metadata.
    pub loops: &'a [LoopMeta],
    /// Function names (indexed by static function id), for the execution
    /// and call trees.
    pub func_names: &'a [String],
    /// The dependence graph representation.
    pub graph: &'a DepGraph,
    /// The loop table representation.
    pub loop_table: &'a LoopTable,
    /// Target thread count (0 for sequential targets).
    pub nthreads: usize,
}

/// A dependence-based program analysis plugin.
pub trait Analysis {
    /// Short name shown in the combined report.
    fn name(&self) -> &str;
    /// Runs the analysis, returning a human-readable report fragment.
    fn run(&mut self, ctx: &AnalysisContext<'_>) -> String;
}

/// Builds the shared representations and runs plugins.
#[derive(Default)]
pub struct Framework {
    plugins: Vec<Box<dyn Analysis>>,
}

impl Framework {
    /// An empty framework (register plugins, or use
    /// [`Framework::with_builtin`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A framework preloaded with the paper's application analyses:
    /// parallelism discovery, communication patterns, race hints, and a
    /// graph summary.
    pub fn with_builtin() -> Self {
        let mut f = Self::new();
        f.register(Box::new(builtin::ParallelismPlugin));
        f.register(Box::new(builtin::CommPlugin));
        f.register(Box::new(builtin::RacePlugin));
        f.register(Box::new(builtin::GraphSummaryPlugin));
        f.register(Box::new(builtin::ExecTreePlugin));
        f
    }

    /// Registers a plugin.
    pub fn register(&mut self, plugin: Box<dyn Analysis>) {
        self.plugins.push(plugin);
    }

    /// Number of registered plugins.
    pub fn len(&self) -> usize {
        self.plugins.len()
    }

    /// True if no plugins are registered.
    pub fn is_empty(&self) -> bool {
        self.plugins.is_empty()
    }

    /// Builds the representations once and runs every plugin, returning
    /// `(name, report)` pairs.
    pub fn run(
        &mut self,
        result: &ProfileResult,
        interner: &Interner,
        loops: &[LoopMeta],
        func_names: &[String],
        nthreads: usize,
    ) -> Vec<(String, String)> {
        let graph = DepGraph::build(result);
        let loop_table = LoopTable::build(result, loops);
        let ctx = AnalysisContext {
            result,
            interner,
            loops,
            func_names,
            graph: &graph,
            loop_table: &loop_table,
            nthreads,
        };
        self.plugins.iter_mut().map(|p| (p.name().to_owned(), p.run(&ctx))).collect()
    }
}

/// The bundled plugins.
pub mod builtin {
    use super::*;

    /// Wraps loop classification (Section VII-A).
    pub struct ParallelismPlugin;

    impl Analysis for ParallelismPlugin {
        fn name(&self) -> &str {
            "parallelism-discovery"
        }

        fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
            let total = ctx.loop_table.rows.len();
            let doall = ctx.loop_table.parallelizable().count();
            let red = ctx.loop_table.reduction_candidates().count();
            format!(
                "{doall}/{total} loops parallelizable, {red} reduction candidates\n{}",
                ctx.loop_table.render(ctx.interner)
            )
        }
    }

    /// Wraps the communication matrix (Section VII-B).
    pub struct CommPlugin;

    impl Analysis for CommPlugin {
        fn name(&self) -> &str {
            "communication-pattern"
        }

        fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
            if ctx.nthreads < 2 {
                return "sequential target: no cross-thread communication".into();
            }
            let m = crate::comm::communication_matrix(ctx.result, ctx.nthreads + 1);
            format!("total volume {}\n{}", m.total(), m.render_ascii())
        }
    }

    /// Wraps race hints (Section V-B).
    pub struct RacePlugin;

    impl Analysis for RacePlugin {
        fn name(&self) -> &str {
            "race-hints"
        }

        fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
            let races = crate::races::find_races(ctx.result);
            if races.is_empty() {
                "no reversal-flagged dependences".into()
            } else {
                races
                    .iter()
                    .map(|r| {
                        format!(
                            "{:?} {} (t{}) <- {} (t{}) on '{}'",
                            r.dtype,
                            r.sink.0,
                            r.sink.1,
                            r.source.0,
                            r.source.1,
                            ctx.interner.get(r.var).unwrap_or("?")
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            }
        }
    }

    /// The dynamic execution tree of Section VIII, rendered with function
    /// and loop names.
    pub struct ExecTreePlugin;

    impl Analysis for ExecTreePlugin {
        fn name(&self) -> &str {
            "execution-tree"
        }

        fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
            use dp_core::ExecNodeKind;
            let tree = &ctx.result.exec_tree;
            if tree.roots().count() == 0 {
                return "no structural events recorded".into();
            }
            tree.render(|k| match k {
                ExecNodeKind::Call(f) => {
                    ctx.func_names.get(f as usize).cloned().unwrap_or_else(|| format!("fn{f}"))
                }
                ExecNodeKind::Loop(l) => ctx
                    .loops
                    .iter()
                    .find(|m| m.id == l)
                    .map(|m| format!("loop {}", m.name))
                    .unwrap_or_else(|| format!("loop#{l}")),
            })
        }
    }
    /// Dependence-graph shape summary (Kremlin-style critical-path proxy).
    pub struct GraphSummaryPlugin;

    impl Analysis for GraphSummaryPlugin {
        fn name(&self) -> &str {
            "graph-summary"
        }

        fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
            let (n, e) = ctx.graph.size();
            format!("{n} statements, {e} dependence edges, RAW depth {}", ctx.graph.raw_depth())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::SequentialProfiler;
    use dp_types::{loc::loc, MemAccess, TraceEvent, Tracer};

    fn tiny_result() -> ProfileResult {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        p.event(TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 0)));
        p.finish()
    }

    #[test]
    fn builtin_framework_runs_all_plugins() {
        let r = tiny_result();
        let interner = Interner::new();
        let mut f = Framework::with_builtin();
        assert_eq!(f.len(), 5);
        let reports = f.run(&r, &interner, &[], &[], 0);
        assert_eq!(reports.len(), 5);
        let names: Vec<_> = reports.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"parallelism-discovery"));
        assert!(names.contains(&"graph-summary"));
        let graph_report = &reports.iter().find(|(n, _)| n == "graph-summary").unwrap().1;
        assert!(graph_report.contains("RAW depth 1"), "{graph_report}");
    }

    #[test]
    fn custom_plugin_sees_context() {
        struct CountDeps;
        impl Analysis for CountDeps {
            fn name(&self) -> &str {
                "count"
            }
            fn run(&mut self, ctx: &AnalysisContext<'_>) -> String {
                ctx.result.stats.deps_merged.to_string()
            }
        }
        let r = tiny_result();
        let interner = Interner::new();
        let mut f = Framework::new();
        assert!(f.is_empty());
        f.register(Box::new(CountDeps));
        let out = f.run(&r, &interner, &[], &[], 0);
        assert_eq!(out[0].1, "2"); // INIT + RAW
    }
}
