//! The dependence graph representation.
//!
//! The paper's conclusion announces "an integrated program-analysis
//! framework ... \[that\] reorganizes profiled data into multiple
//! representations, including dynamic execution tree, call tree,
//! dependence graph, loop table". This module is the dependence-graph
//! representation: nodes are statements (source location + thread), edges
//! are the merged dependences, and the graph queries something reads —
//! successors, RAW depth, Graphviz export — come built in.

use dp_core::ProfileResult;
use dp_types::{DepFlags, DepType, SinkKey};
use dp_types::{FxHashMap, FxHashSet};
use std::collections::BTreeSet;

/// A statement node: location + target thread.
pub type Node = SinkKey;

/// One edge of the dependence graph, `source -> sink` in dataflow
/// direction (the *earlier* access points at the *later* one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GraphEdge {
    /// The earlier access (producer for RAW).
    pub from: Node,
    /// The later access (consumer for RAW).
    pub to: Node,
    /// Dependence type.
    pub dtype: DepType,
    /// Dynamic occurrence count.
    pub count: u64,
    /// Loop-carried anywhere?
    pub carried: bool,
}

/// Immutable dependence graph built from a profiling result.
#[derive(Debug, Default)]
pub struct DepGraph {
    edges: Vec<GraphEdge>,
    out: FxHashMap<Node, Vec<usize>>,
    nodes: BTreeSet<Node>,
}

impl DepGraph {
    /// Builds the graph from a result, dropping INIT records (they are
    /// markers, not dependences).
    pub fn build(result: &ProfileResult) -> Self {
        let mut g = DepGraph::default();
        for (d, v) in result.deps.dependences() {
            if d.edge.dtype == DepType::Init {
                continue;
            }
            let from = SinkKey { loc: d.edge.source_loc, thread: d.edge.source_thread };
            let to = d.sink;
            let idx = g.edges.len();
            g.edges.push(GraphEdge {
                from,
                to,
                dtype: d.edge.dtype,
                count: v.count,
                carried: d.edge.flags.contains(DepFlags::LOOP_CARRIED),
            });
            g.out.entry(from).or_default().push(idx);
            g.nodes.insert(from);
            g.nodes.insert(to);
        }
        g
    }

    /// Outgoing edges of `n` (statements that depend on `n`).
    pub fn successors(&self, n: Node) -> impl Iterator<Item = &GraphEdge> {
        self.out.get(&n).into_iter().flatten().map(move |&i| &self.edges[i])
    }

    /// Length (in edges) of the longest acyclic RAW chain — a crude
    /// critical-path proxy (what Kremlin computes from its profiles).
    pub fn raw_depth(&self) -> usize {
        // Memoized DFS over RAW edges; cycles (loop-carried self-deps)
        // are cut by the visiting set.
        fn depth(
            g: &DepGraph,
            n: Node,
            memo: &mut FxHashMap<Node, usize>,
            visiting: &mut FxHashSet<Node>,
        ) -> usize {
            if let Some(&d) = memo.get(&n) {
                return d;
            }
            if !visiting.insert(n) {
                return 0;
            }
            let best = g
                .successors(n)
                .filter(|e| e.dtype == DepType::Raw && e.to != n)
                .map(|e| 1 + depth(g, e.to, memo, visiting))
                .max()
                .unwrap_or(0);
            visiting.remove(&n);
            memo.insert(n, best);
            best
        }
        let mut memo = FxHashMap::default();
        let mut visiting = FxHashSet::default();
        self.nodes.iter().map(|&n| depth(self, n, &mut memo, &mut visiting)).max().unwrap_or(0)
    }

    /// Graphviz `dot` rendering (RAW solid, WAR dashed, WAW dotted;
    /// loop-carried edges in red).
    pub fn to_dot(&self, show_threads: bool) -> String {
        let mut s = String::from("digraph deps {\n  rankdir=TB;\n  node [shape=box];\n");
        let name = |n: &Node| {
            if show_threads {
                format!("\"{}|{}\"", n.loc, n.thread)
            } else {
                format!("\"{}\"", n.loc)
            }
        };
        for e in &self.edges {
            let style = match e.dtype {
                DepType::Raw => "solid",
                DepType::War => "dashed",
                DepType::Waw | DepType::Init => "dotted",
            };
            let color = if e.carried { "red" } else { "black" };
            s.push_str(&format!(
                "  {} -> {} [style={style}, color={color}, label=\"{} x{}\"];\n",
                name(&e.from),
                name(&e.to),
                e.dtype,
                e.count
            ));
        }
        s.push_str("}\n");
        s
    }

    /// Node and edge counts.
    pub fn size(&self) -> (usize, usize) {
        (self.nodes.len(), self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::SequentialProfiler;
    use dp_types::{loc::loc, MemAccess, SourceLoc, TraceEvent, Tracer};

    fn node(loc: SourceLoc, thread: u16) -> Node {
        SinkKey { loc, thread }
    }

    /// chain: line1 writes A, line2 reads A writes B, line3 reads B.
    fn chain_result() -> ProfileResult {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        p.event(TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 0)));
        p.event(TraceEvent::Access(MemAccess::write(0x10, 3, loc(1, 2), 2, 0)));
        p.event(TraceEvent::Access(MemAccess::read(0x10, 4, loc(1, 3), 2, 0)));
        p.finish()
    }

    #[test]
    fn build_and_query() {
        let r = chain_result();
        let g = DepGraph::build(&r);
        let (nodes, edges) = g.size();
        assert_eq!(edges, 2); // two RAWs (INITs dropped)
        assert_eq!(nodes, 3);
        let n1 = node(loc(1, 1), 0);
        let succ: Vec<_> = g.successors(n1).collect();
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].to, node(loc(1, 2), 0));
    }

    #[test]
    fn raw_depth_of_chain() {
        let r = chain_result();
        let g = DepGraph::build(&r);
        assert_eq!(g.raw_depth(), 2);
    }

    #[test]
    fn dot_export_mentions_styles() {
        let r = chain_result();
        let g = DepGraph::build(&r);
        let dot = g.to_dot(false);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("\"1:1\" -> \"1:2\""));
    }

    #[test]
    fn self_loop_cycle_does_not_hang() {
        // reduction: line5 reads+writes same address repeatedly
        let mut p = SequentialProfiler::perfect();
        for i in 0..5u64 {
            p.event(TraceEvent::Access(MemAccess::read(0x8, i * 2 + 1, loc(1, 5), 1, 0)));
            p.event(TraceEvent::Access(MemAccess::write(0x8, i * 2 + 2, loc(1, 5), 1, 0)));
        }
        let r = p.finish();
        let g = DepGraph::build(&r);
        assert_eq!(g.raw_depth(), 0); // only a self-loop, cut by cycle guard
    }
}
