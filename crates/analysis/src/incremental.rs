//! Online (incremental) analysis state — live loop-parallelism,
//! communication and race reports over a still-running profile.
//!
//! Every pass in this crate runs post-hoc over the merged dependence
//! map; a long-lived DPSV session could not answer "is this loop
//! parallelizable?" until `Finish`. This module maintains the same
//! answers *while chunks merge*: the engine drains
//! [`AnalysisDelta`]s from its dependence stores (see
//! [`DepStore::enable_delta`](dp_core::DepStore::enable_delta)) and
//! folds them into an [`OnlineAnalysis`], which can snapshot an
//! [`OnlineReport`] at any moment without stalling the feed.
//!
//! Three invariants make this sound:
//!
//! - **Delta composition follows the merge rules.** Occurrence counts
//!   add, qualifier flags OR, carrier sets union — exactly how
//!   [`DepStore::merge`](dp_core::DepStore::merge) combines worker
//!   maps, so deltas from different workers and different intervals
//!   fold in any order.
//! - **A delta holds what the passes read, and nothing else.** An edge
//!   enters the deltas, whole count first, once it has a carrier
//!   ([`classify_loops`], [`observed_loop_metas`]), carries `REVERSED`
//!   ([`find_races`]) or is a cross-thread RAW ([`communication_matrix`],
//!   [`observed_comm_dim`]); a new kind of reader widens that predicate.
//! - **Monotone demotion.** Dependence evidence only accumulates: a
//!   loop's blocker set only grows, so its verdict can only be demoted
//!   (DOALL → reduction → sequential), never promoted. The fold
//!   asserts this in debug builds.
//! - **Final-state equivalence.** Once every chunk has been folded,
//!   [`OnlineAnalysis::report`] equals [`posthoc_report`] over the
//!   finished [`ProfileResult`] — dependence for dependence. The fuzz
//!   oracle and the engine tests hold this bar on every workload.

use crate::comm::{communication_matrix, CommMatrix};
use crate::parallelism::{classify_loops, LoopClass, LoopMeta};
use crate::races::{find_races, RaceHint};
use dp_core::{AnalysisDelta, ProfileResult};
use dp_types::{DepFlags, DepType, Interner, LoopId, SinkKey, SourceLoc, ThreadId, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Merge key of a mirrored edge: the store's `(sink, edge)` identity.
type TotalKey = (SinkKey, (DepType, SourceLoc, ThreadId, VarId));

/// Per-loop incremental state.
#[derive(Debug, Clone, Default)]
struct IncLoop {
    /// A loop record has been folded (the loop executed).
    executed: bool,
    /// Dynamic instances so far.
    instances: u64,
    /// Iterations summed over instances so far.
    iterations: u64,
    /// Carried-RAW blocker records `(sink, source, var)` — grows
    /// monotonically, which is what makes demotion one-way.
    blockers: BTreeSet<(SourceLoc, SourceLoc, VarId)>,
}

/// Live analysis state, fed by [`AnalysisDelta`]s.
///
/// Memory is proportional to the *merged* dependence map (small, per
/// the paper's 10⁵ merge factor), not to the event stream.
#[derive(Debug, Clone, Default)]
pub struct OnlineAnalysis {
    /// Mirror of the part of the merged map the deltas carry:
    /// cumulative count and flag union per edge. Carrier sets are not
    /// mirrored — they are consumed into the per-loop blocker sets at
    /// fold time.
    totals: BTreeMap<TotalKey, (u64, DepFlags)>,
    /// Per-loop state, keyed by every loop id seen as a record or a
    /// carrier.
    loops: BTreeMap<LoopId, IncLoop>,
    /// Cross-thread RAW volume per `(producer, consumer)` pair.
    comm: BTreeMap<(ThreadId, ThreadId), u64>,
    /// Largest thread id observed on a cross-thread RAW, driving the
    /// matrix dimension exactly like [`observed_comm_dim`].
    max_comm_thread: Option<ThreadId>,
    /// Deltas folded (diagnostics).
    deltas_folded: u64,
    /// Last reported class rank per loop, for the monotone-demotion
    /// assertion.
    #[cfg(debug_assertions)]
    prev_rank: BTreeMap<LoopId, u8>,
}

impl OnlineAnalysis {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of deltas folded so far.
    pub fn deltas_folded(&self) -> u64 {
        self.deltas_folded
    }

    /// Folds one delta: counts add, flags OR, carriers union into the
    /// blocker sets. Order-insensitive across workers and intervals.
    pub fn fold(&mut self, delta: &AnalysisDelta) {
        self.deltas_folded += 1;
        for e in &delta.edges {
            let (dtype, source_loc, source_thread, var) = e.key;
            let t = self.totals.entry((e.sink, e.key)).or_insert((0, DepFlags::empty()));
            t.0 += e.count_delta;
            t.1 |= e.flags;
            // Every carrier marks its loop as observed; a carried RAW
            // additionally contributes a blocker record.
            let blocking = dtype == DepType::Raw && e.flags.contains(DepFlags::LOOP_CARRIED);
            for &l in &e.carriers {
                let entry = self.loops.entry(l).or_default();
                if blocking {
                    entry.blockers.insert((e.sink.loc, source_loc, var));
                }
            }
            if dtype == DepType::Raw && source_thread != e.sink.thread {
                *self.comm.entry((source_thread, e.sink.thread)).or_insert(0) += e.count_delta;
                let hi = source_thread.max(e.sink.thread);
                self.max_comm_thread = Some(self.max_comm_thread.map_or(hi, |m| m.max(hi)));
            }
        }
        for l in &delta.loops {
            let entry = self.loops.entry(l.id).or_default();
            entry.executed = true;
            entry.instances += l.instances_delta;
            entry.iterations += l.iters_delta;
        }
    }

    /// Snapshots the current report. Verdicts follow the post-hoc
    /// classifier exactly; the monotone-demotion rule (a verdict's
    /// rank never increases once the loop has executed) is asserted in
    /// debug builds and recorded for the next snapshot.
    pub fn report(&mut self) -> OnlineReport {
        let loops = self
            .loops
            .iter()
            .map(|(&id, st)| {
                let all_self = st.blockers.iter().all(|&(sink, src, _)| sink == src);
                let class = if !st.executed {
                    LoopClass::NotExecuted
                } else if st.blockers.is_empty() {
                    LoopClass::Doall
                } else if all_self {
                    LoopClass::Reduction
                } else {
                    LoopClass::Sequential
                };
                #[cfg(debug_assertions)]
                if let Some(prev) = self.prev_rank.insert(id, class_rank(class)) {
                    let rank = class_rank(class);
                    assert!(
                        rank <= prev || prev == class_rank(LoopClass::NotExecuted),
                        "loop {id} promoted {prev} -> {rank}: verdicts must only demote"
                    );
                }
                OnlineLoopRow {
                    id,
                    name: format!("loop#{id}"),
                    omp: false,
                    class,
                    instances: st.instances,
                    iterations: st.iterations,
                    blockers: st.blockers.iter().copied().collect(),
                }
            })
            .collect::<Vec<_>>();
        let dim = self.max_comm_thread.map_or(0, |m| m as usize + 1);
        let mut comm = CommMatrix::zero(dim);
        for (&(p, c), &count) in &self.comm {
            comm.add(p, c, count);
        }
        // Same base order as `DepStore::dependences` (the totals map is
        // keyed identically), so the stable sort reproduces
        // `find_races` exactly.
        let mut races: Vec<RaceHint> = self
            .totals
            .iter()
            .filter(|(_, (_, flags))| flags.contains(DepFlags::REVERSED))
            .map(|(&(sink, (dtype, source_loc, source_thread, var)), &(count, _))| RaceHint {
                var,
                dtype,
                sink: (sink.loc, sink.thread),
                source: (source_loc, source_thread),
                occurrences: count,
            })
            .collect();
        races.sort_by_key(|r| (r.sink, r.source));
        OnlineReport { loops, comm, races }
    }
}

/// Demotion ranking: higher is better, and a loop's rank never
/// increases once it has executed.
#[cfg(any(debug_assertions, test))]
fn class_rank(class: LoopClass) -> u8 {
    match class {
        LoopClass::Doall => 3,
        LoopClass::Reduction => 2,
        LoopClass::Sequential => 1,
        LoopClass::NotExecuted => 0,
    }
}

/// One loop row of an [`OnlineReport`] — Table-II-style verdict joined
/// with runtime statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineLoopRow {
    /// Static loop id.
    pub id: LoopId,
    /// The loop's name in the program's static loop table; sessions
    /// carry no such table and use the synthetic `loop#<id>`.
    pub name: String,
    /// Ground truth: annotated parallel in the OpenMP version (always
    /// `false` where no static loop table is known).
    pub omp: bool,
    /// Dependence-test verdict.
    pub class: LoopClass,
    /// Dynamic instances observed.
    pub instances: u64,
    /// Iterations summed over instances.
    pub iterations: u64,
    /// Carried-RAW blockers `(sink, source, var)`, sorted and deduped.
    pub blockers: Vec<(SourceLoc, SourceLoc, VarId)>,
}

/// The analysis report: loop classification, communication matrix and
/// race hints, built live ([`OnlineAnalysis::report`]) or from a finished
/// profile ([`report_for`]). Two reports over the same dependence
/// evidence compare equal ([`PartialEq`]), which is how the incremental
/// == post-hoc bar is enforced everywhere. [`to_json`](Self::to_json)
/// renders it for the wire, [`to_text`](Self::to_text) for a terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineReport {
    /// One row per observed loop, in id order.
    pub loops: Vec<OnlineLoopRow>,
    /// Producer × consumer matrix over cross-thread RAW dependences,
    /// sized by the largest communicating thread id.
    pub comm: CommMatrix,
    /// Reversal-flagged dependences, in [`find_races`] order.
    pub races: Vec<RaceHint>,
}

impl OnlineReport {
    /// Serializes the report (or a subset of its sections) as JSON for
    /// the DPSV `QueryResult` frame. Variable ids are resolved through
    /// `interner` where possible (`var<N>` fallback). Hand-rolled —
    /// the output is small and the repo carries no JSON dependency.
    pub fn to_json(&self, interner: &Interner, loops: bool, comm: bool, races: bool) -> String {
        let mut parts: Vec<String> = Vec::new();
        if loops {
            let rows: Vec<String> = self
                .loops
                .iter()
                .map(|r| {
                    let blockers: Vec<String> = r
                        .blockers
                        .iter()
                        .map(|&(sink, src, var)| {
                            format!(
                                "{{\"sink\":{},\"source\":{},\"var\":{}}}",
                                json_string(&sink.to_string()),
                                json_string(&src.to_string()),
                                json_string(&var_name(interner, var))
                            )
                        })
                        .collect();
                    format!(
                        "{{\"id\":{},\"name\":{},\"class\":{},\"instances\":{},\
                         \"iterations\":{},\"blockers\":[{}]}}",
                        r.id,
                        json_string(&r.name),
                        json_string(class_name(r.class)),
                        r.instances,
                        r.iterations,
                        blockers.join(",")
                    )
                })
                .collect();
            parts.push(format!("\"loops\":[{}]", rows.join(",")));
        }
        if comm {
            let n = self.comm.dim();
            let rows: Vec<String> = (0..n)
                .map(|p| {
                    let cells: Vec<String> = (0..n)
                        .map(|c| self.comm.get(p as ThreadId, c as ThreadId).to_string())
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            parts.push(format!(
                "\"comm\":{{\"dim\":{n},\"total\":{},\"counts\":[{}]}}",
                self.comm.total(),
                rows.join(",")
            ));
        }
        if races {
            let rows: Vec<String> = self
                .races
                .iter()
                .map(|r| {
                    format!(
                        "{{\"dtype\":{},\"var\":{},\"sink\":{},\"sink_thread\":{},\
                         \"source\":{},\"source_thread\":{},\"occurrences\":{}}}",
                        json_string(&r.dtype.to_string()),
                        json_string(&var_name(interner, r.var)),
                        json_string(&r.sink.0.to_string()),
                        r.sink.1,
                        json_string(&r.source.0.to_string()),
                        r.source.1,
                        r.occurrences
                    )
                })
                .collect();
            parts.push(format!("\"races\":[{}]", rows.join(",")));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Renders the report for a terminal as three named sections: the
    /// loop table with each loop's first blocker (variables resolved
    /// like the dependence report does, `var<N>` for a foreign id), the
    /// Figure 9 heatmap, and one line per race hint. A report built
    /// with a zero-dimension matrix is a sequential target's.
    pub fn to_text(&self, interner: &Interner) -> Vec<(&'static str, String)> {
        let count = |class| self.loops.iter().filter(|r| r.class == class).count();
        let mut loops = format!(
            "{}/{} loops parallelizable, {} reduction candidates\n\
             {:<24} {:>5} {:>11} {:>10} {:>10}  blocker\n",
            count(LoopClass::Doall),
            self.loops.len(),
            count(LoopClass::Reduction),
            "loop",
            "OMP",
            "class",
            "instances",
            "avg iters"
        );
        for r in &self.loops {
            let avg_iters =
                if r.instances == 0 { 0.0 } else { r.iterations as f64 / r.instances as f64 };
            let blocker = r
                .blockers
                .first()
                .map(|&(sink, src, var)| format!("{}: {src} -> {sink}", var_name(interner, var)))
                .unwrap_or_default();
            loops.push_str(&format!(
                "{:<24} {:>5} {:>11} {:>10} {:>10.1}  {}\n",
                r.name,
                if r.omp { "yes" } else { "no" },
                class_name(r.class),
                r.instances,
                avg_iters,
                blocker
            ));
        }
        let comm = if self.comm.dim() == 0 {
            "sequential target: no cross-thread communication".into()
        } else {
            format!("total volume {}\n{}", self.comm.total(), self.comm.render_ascii())
        };
        let races = if self.races.is_empty() {
            "no reversal-flagged dependences".into()
        } else {
            let lines: Vec<String> = self
                .races
                .iter()
                .map(|r| {
                    format!(
                        "{:?} {} (t{}) <- {} (t{}) on '{}'",
                        r.dtype,
                        r.sink.0,
                        r.sink.1,
                        r.source.0,
                        r.source.1,
                        interner.get(r.var).unwrap_or("?")
                    )
                })
                .collect();
            lines.join("\n")
        };
        vec![
            ("parallelism-discovery", loops),
            ("communication-pattern", comm),
            ("race-hints", races),
        ]
    }
}

/// A variable's name, `var<N>` for an id the interner never produced.
fn var_name(interner: &Interner, v: VarId) -> String {
    interner.get(v).map(str::to_owned).unwrap_or_else(|| format!("var{v}"))
}

/// Stable class names used in reports and JSON (the loop-table
/// vocabulary).
pub fn class_name(class: LoopClass) -> &'static str {
    match class {
        LoopClass::Doall => "DOALL",
        LoopClass::Reduction => "reduction",
        LoopClass::Sequential => "sequential",
        LoopClass::NotExecuted => "not-run",
    }
}

/// JSON string literal with minimal escaping (quotes, backslash,
/// control characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Loop metadata observable from a profile alone: every loop that left
/// a record or appears in a carrier set, with synthetic `loop#<id>`
/// names. This is what a session-side analysis can know without the
/// program's static loop table — and what [`OnlineAnalysis`] mirrors.
pub fn observed_loop_metas(result: &ProfileResult) -> Vec<LoopMeta> {
    let mut ids: BTreeSet<LoopId> = result.deps.loops().map(|(&id, _)| id).collect();
    for (_, val) in result.deps.dependences() {
        ids.extend(val.carriers.iter().copied());
    }
    ids.into_iter().map(|id| LoopMeta { id, name: format!("loop#{id}"), omp: false }).collect()
}

/// Communication-matrix dimension observable from a profile: one past
/// the largest thread id participating in a cross-thread RAW (0 when
/// there is no cross-thread communication).
pub fn observed_comm_dim(result: &ProfileResult) -> usize {
    result
        .deps
        .dependences()
        .filter(|(d, _)| d.edge.dtype == DepType::Raw && d.edge.source_thread != d.sink.thread)
        .map(|(d, _)| d.edge.source_thread.max(d.sink.thread) as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Runs the post-hoc passes ([`classify_loops`],
/// [`communication_matrix`], [`find_races`]) over a finished result and
/// joins each verdict with its loop record — the one place that does.
/// `metas` names the loops to report (a program's static loop table, or
/// [`observed_loop_metas`]); `comm_dim` sizes the matrix.
pub fn report_for(result: &ProfileResult, metas: &[LoopMeta], comm_dim: usize) -> OnlineReport {
    let loops = classify_loops(result, metas)
        .into_iter()
        .map(|v| {
            let rec = result.deps.loop_record(v.meta.id);
            let blockers: BTreeSet<(SourceLoc, SourceLoc, VarId)> =
                v.blockers.iter().copied().collect();
            OnlineLoopRow {
                id: v.meta.id,
                name: v.meta.name,
                omp: v.meta.omp,
                class: v.class,
                instances: rec.map_or(0, |r| r.instances),
                iterations: v.iterations,
                blockers: blockers.into_iter().collect(),
            }
        })
        .collect();
    OnlineReport { loops, comm: communication_matrix(result, comm_dim), races: find_races(result) }
}

/// The post-hoc twin of [`OnlineAnalysis::report`]: [`report_for`] over
/// what the profile alone shows. The equivalence bar everywhere is
/// `online.report() == posthoc_report(&final_result)`.
pub fn posthoc_report(result: &ProfileResult) -> OnlineReport {
    report_for(result, &observed_loop_metas(result), observed_comm_dim(result))
}

/// Builds the catch-up delta of a finished store: every loop record
/// and every edge an analysis reads, as one delta (tests and depbench
/// fold a finished result through it in one step).
pub fn full_delta(result: &ProfileResult) -> AnalysisDelta {
    let mut mirror = result.deps.clone();
    mirror.enable_delta();
    mirror.take_delta()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::mt_profile;
    use dp_core::{AlgoOptions, AlgoState, DepStore, ProfileStats, SequentialProfiler};
    use dp_sig::PerfectSignature;
    use dp_types::{loc::loc, MemAccess, TraceEvent, Tracer};

    fn fold_result(result: &ProfileResult) -> OnlineAnalysis {
        let mut online = OnlineAnalysis::new();
        online.fold(&full_delta(result));
        online
    }

    /// Loop classification and threads in one profile: what
    /// `AlgoState::on_event` leaves, which keeps each event's thread,
    /// sealed as a serial engine's `finish` seals it.
    fn mixed_profile() -> ProfileResult {
        let opts = AlgoOptions::default();
        let mut algo = AlgoState::new(PerfectSignature::new(), PerfectSignature::new(), opts);
        let mut p = |ev| algo.on_event(&ev);
        // doall loop 0
        p(TraceEvent::LoopBegin { loop_id: 0, loc: loc(1, 1), thread: 0, ts: 1 });
        for it in 0..4u64 {
            let t = 10 + it * 10;
            p(TraceEvent::LoopIter { loop_id: 0, iter: it, thread: 0, ts: t });
            p(TraceEvent::Access(MemAccess::write(0x100 + it * 8, t + 1, loc(1, 2), 1, 0)));
            p(TraceEvent::Access(MemAccess::read(0x100 + it * 8, t + 2, loc(1, 3), 1, 0)));
        }
        p(TraceEvent::LoopEnd { loop_id: 0, loc: loc(1, 4), iters: 4, thread: 0, ts: 99 });
        // reduction loop 1
        p(TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 100 });
        for it in 0..4u64 {
            let t = 110 + it * 10;
            p(TraceEvent::LoopIter { loop_id: 1, iter: it, thread: 0, ts: t });
            p(TraceEvent::Access(MemAccess::read(0x900, t + 1, loc(1, 6), 2, 0)));
            p(TraceEvent::Access(MemAccess::write(0x900, t + 2, loc(1, 6), 2, 0)));
        }
        p(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 7), iters: 4, thread: 0, ts: 999 });
        // cross-thread producer/consumer
        for i in 0..5u64 {
            p(TraceEvent::Access(MemAccess::write(0x2000, 2000 + i * 2, loc(2, 1), 3, 1)));
            p(TraceEvent::Access(MemAccess::read(0x2000, 2001 + i * 2, loc(2, 2), 3, 2)));
        }
        let (mut deps, exec_tree, counters, _) = algo.finish();
        let mut stats = ProfileStats::default();
        stats.absorb(counters);
        stats.deps_built = deps.deps_built();
        stats.deps_merged = deps.merged_len();
        deps.seal();
        ProfileResult { deps, exec_tree, stats, ..ProfileResult::default() }
    }

    #[test]
    fn folded_report_equals_posthoc() {
        let r = mixed_profile();
        let mut online = fold_result(&r);
        assert_eq!(online.report(), posthoc_report(&r));
    }

    #[test]
    fn incremental_folding_is_interval_insensitive() {
        // Feed the same program in two halves, draining between them:
        // the folded end state must match the one-shot fold.
        let mut p = SequentialProfiler::perfect();
        p.enable_online();
        let mut online = OnlineAnalysis::new();
        p.event(TraceEvent::LoopBegin { loop_id: 2, loc: loc(1, 8), thread: 0, ts: 1 });
        for it in 0..2u64 {
            let t = 10 + it * 10;
            p.event(TraceEvent::LoopIter { loop_id: 2, iter: it, thread: 0, ts: t });
            p.event(TraceEvent::Access(MemAccess::read(0x200 + it * 8, t + 1, loc(1, 9), 3, 0)));
            p.event(TraceEvent::Access(MemAccess::write(
                0x200 + (it + 1) * 8,
                t + 2,
                loc(1, 10),
                3,
                0,
            )));
        }
        online.fold(&p.take_delta());
        let mid = online.clone().report();
        for it in 2..4u64 {
            let t = 10 + it * 10;
            p.event(TraceEvent::LoopIter { loop_id: 2, iter: it, thread: 0, ts: t });
            p.event(TraceEvent::Access(MemAccess::read(0x200 + it * 8, t + 1, loc(1, 9), 3, 0)));
            p.event(TraceEvent::Access(MemAccess::write(
                0x200 + (it + 1) * 8,
                t + 2,
                loc(1, 10),
                3,
                0,
            )));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 2, loc: loc(1, 11), iters: 4, thread: 0, ts: 999 });
        online.fold(&p.take_delta());
        let r = p.finish();
        assert_eq!(online.report(), posthoc_report(&r));
        // And the mid-run verdict was already (or became) sequential —
        // never the other way around.
        let mid_rank = mid.loops.iter().find(|l| l.id == 2).map(|l| class_rank(l.class));
        let end_rank =
            online.report().loops.iter().find(|l| l.id == 2).map(|l| class_rank(l.class)).unwrap();
        // NotExecuted (rank 0) may rise once the record arrives; any
        // executed verdict only demotes.
        match mid_rank {
            None | Some(0) => {}
            Some(m) => assert!(end_rank <= m, "verdict promoted {m} -> {end_rank}"),
        }
    }

    #[test]
    fn verdicts_only_demote() {
        // First interval: loop looks DOALL. Second interval: a carried
        // RAW arrives and demotes it to sequential.
        let mut store = DepStore::new();
        store.enable_delta();
        store.record_loop(5, loc(1, 1), loc(1, 9), 4);
        store.add(
            SinkKey { loc: loc(1, 3), thread: 0 },
            DepType::Raw,
            loc(1, 2),
            0,
            1,
            DepFlags::INTRA_ITERATION,
            None,
        );
        let mut online = OnlineAnalysis::new();
        online.fold(&store.take_delta());
        let first = online.report();
        assert_eq!(first.loops.len(), 1);
        assert_eq!(first.loops[0].class, LoopClass::Doall);
        store.add(
            SinkKey { loc: loc(1, 3), thread: 0 },
            DepType::Raw,
            loc(1, 2),
            0,
            1,
            DepFlags::LOOP_CARRIED,
            Some(5),
        );
        online.fold(&store.take_delta());
        let second = online.report();
        assert_eq!(second.loops[0].class, LoopClass::Sequential);
        assert_eq!(second.loops[0].blockers, vec![(loc(1, 3), loc(1, 2), 1)]);
    }

    #[test]
    fn race_hints_match_posthoc_order_and_counts() {
        // REVERSED flags never arise in served (serial-engine) sessions,
        // so drive the race path with a hand-built store: several
        // reversal-flagged edges whose post-hoc sort order differs from
        // the store's (dtype-major) iteration order.
        let mut store = DepStore::new();
        let sink = SinkKey { loc: loc(3, 9), thread: 2 };
        for _ in 0..3 {
            store.add(sink, DepType::War, loc(3, 1), 1, 7, DepFlags::REVERSED, None);
        }
        store.add(sink, DepType::Raw, loc(3, 5), 1, 8, DepFlags::REVERSED, None);
        store.add(sink, DepType::Waw, loc(3, 5), 1, 8, DepFlags::REVERSED, None);
        store.add(
            SinkKey { loc: loc(2, 2), thread: 1 },
            DepType::Raw,
            loc(2, 1),
            0,
            9,
            DepFlags::empty(),
            None,
        );
        let result = ProfileResult { deps: store, ..Default::default() };
        let mut online = fold_result(&result);
        let report = online.report();
        assert_eq!(report.races, find_races(&result));
        assert_eq!(report.races.len(), 3);
        assert_eq!(report.races[0].occurrences, 3, "merged occurrences preserved");
        assert_eq!(report, posthoc_report(&result));
    }

    #[test]
    fn comm_matrix_dim_tracks_observed_threads() {
        let r = mt_profile([
            TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 3)),
            TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 5)),
        ]);
        let mut online = fold_result(&r);
        let report = online.report();
        assert_eq!(report.comm.dim(), 6);
        assert_eq!(report.comm.get(3, 5), 1);
        assert_eq!(report, posthoc_report(&r));
        // A purely sequential profile has a zero-dimension matrix.
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        p.event(TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 0)));
        let r = p.finish();
        let report = fold_result(&r).report();
        assert_eq!(report.comm.dim(), 0);
        assert_eq!(report, posthoc_report(&r));
    }

    fn result_with_loop() -> ProfileResult {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::LoopBegin { loop_id: 0, loc: loc(1, 1), thread: 0, ts: 1 });
        for it in 0..4u64 {
            p.event(TraceEvent::LoopIter { loop_id: 0, iter: it, thread: 0, ts: 2 + it * 10 });
            let a = 0x100 + it * 8;
            p.event(TraceEvent::Access(MemAccess::write(a, 3 + it * 10, loc(1, 2), 1, 0)));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 0, loc: loc(1, 3), iters: 4, thread: 0, ts: 99 });
        p.finish()
    }

    fn meta() -> Vec<LoopMeta> {
        vec![
            LoopMeta { id: 0, name: "init".into(), omp: true },
            LoopMeta { id: 7, name: "ghost".into(), omp: false },
        ]
    }

    #[test]
    fn table_rows_join_stats_and_verdicts() {
        let r = result_with_loop();
        let t = report_for(&r, &meta(), 0);
        assert_eq!(t.loops.len(), 2);
        assert_eq!((t.loops[0].instances, t.loops[0].iterations), (1, 4));
        assert!(t.loops[0].omp && !t.loops[1].omp);
        assert_eq!(t.loops[0].class, LoopClass::Doall);
        assert_eq!(t.loops[1].class, LoopClass::NotExecuted);
        let loops = &t.to_text(&Interner::new())[0].1;
        assert!(loops.starts_with("1/2 loops parallelizable, 0 reduction candidates\n"), "{loops}");
        assert!(loops.contains("       4.0  "), "avg iters column:\n{loops}");
    }

    #[test]
    fn render_mentions_loops() {
        let r = result_with_loop();
        let s = &report_for(&r, &meta(), 0).to_text(&Interner::new())[0].1;
        assert!(s.contains("init"));
        assert!(s.contains("DOALL"));
        assert!(s.contains("not-run"));
    }

    #[test]
    fn render_resolves_blocker_variable_names() {
        let mut interner = Interner::new();
        let acc = interner.intern("acc");
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 1 });
        for it in 0..3u64 {
            let t = 10 + it * 10;
            p.event(TraceEvent::LoopIter { loop_id: 1, iter: it, thread: 0, ts: t });
            p.event(TraceEvent::Access(MemAccess::read(0x900, t + 1, loc(1, 6), acc, 0)));
            p.event(TraceEvent::Access(MemAccess::write(0x900, t + 2, loc(1, 6), acc, 0)));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 7), iters: 3, thread: 0, ts: 99 });
        let r = p.finish();
        let t = report_for(&r, &[LoopMeta { id: 1, name: "sum".into(), omp: true }], 0);
        let s = &t.to_text(&interner)[0].1;
        assert!(s.contains("acc: 1:6 -> 1:6"), "blocker must name the variable:\n{s}");
        // A foreign id (not in this interner) falls back to var<N>.
        let s2 = &t.to_text(&Interner::new())[0].1;
        assert!(s2.contains(&format!("var{acc}: 1:6 -> 1:6")), "{s2}");
    }

    #[test]
    fn text_names_the_matrix_and_the_races() {
        let r = mixed_profile();
        let text = report_for(&r, &[], 3).to_text(&Interner::new());
        let names: Vec<_> = text.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parallelism-discovery", "communication-pattern", "race-hints"]);
        assert!(text[1].1.starts_with("total volume 5\nprod\\cons   0  1  2\n"), "{}", text[1].1);
        assert_eq!(text[2].1, "no reversal-flagged dependences");
        let sink = SinkKey { loc: loc(3, 9), thread: 2 };
        let mut store = DepStore::new();
        store.add(sink, DepType::War, loc(3, 1), 1, 7, DepFlags::REVERSED, None);
        let racy = ProfileResult { deps: store, ..Default::default() };
        let text = posthoc_report(&racy).to_text(&Interner::new());
        assert_eq!(text[1].1, "sequential target: no cross-thread communication");
        assert_eq!(text[2].1, "War 3:9 (t2) <- 3:1 (t1) on '?'");
    }

    #[test]
    fn json_snapshot_has_expected_shape() {
        let r = mixed_profile();
        let mut online = fold_result(&r);
        let report = online.report();
        let mut interner = Interner::new();
        interner.intern("a");
        interner.intern("acc");
        interner.intern("buf");
        let js = report.to_json(&interner, true, true, true);
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"loops\":["), "{js}");
        assert!(js.contains("\"class\":\"DOALL\""), "{js}");
        assert!(js.contains("\"class\":\"reduction\""), "{js}");
        assert!(js.contains("\"var\":\"acc\""), "{js}");
        assert!(js.contains("\"comm\":{\"dim\":3"), "{js}");
        assert!(js.contains("\"races\":[]"), "{js}");
        // Section selection drops the other keys.
        let only_comm = report.to_json(&interner, false, true, false);
        assert!(!only_comm.contains("\"loops\"") && only_comm.contains("\"comm\""));
        // Escaping.
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
