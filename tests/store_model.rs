//! Differential test of the flat-table [`DepStore`] against the store it
//! replaced.
//!
//! [`oracle::DepStore`] is the nested-`BTreeMap` store of the commit
//! before the flat table (its sorted order, its delta baselines and its
//! `save` bytes came for free from the maps), taught since only which
//! edges a delta carries: [`oracle::relevant`], the predicate spelled on
//! the maps' own values. Random interleavings of every mutating
//! operation run against both; after each step the two must hold the
//! same edges in the same order, write the same checkpoint bytes and
//! drain the same deltas, and the drained deltas must fold back into
//! exactly the relevant part of the store. One checkpoint blob written
//! by that commit is pinned as hex, so checkpoints taken before the flat
//! table still resume after it.
//!
//! A second property folds the deltas of random sequences — edges that
//! turn relevant late, late first drains, two worker stores — into an `OnlineAnalysis` and holds its report
//! equal to the reference passes' (`depprof::fuzz::oracle::posthoc_passes`) over the finished store.

use depprof::analysis::{OnlineAnalysis, OnlineReport};
use depprof::core::store::EdgeKey;
use depprof::core::{AnalysisDelta, DeltaEdge, DeltaLoop, DepStore, LoopRecord, ProfileResult};
use depprof::fuzz::oracle::{observed_comm_dim, observed_loop_metas, posthoc_passes};
use depprof::types::{
    loc::loc, ByteWriter, DepFlags, DepType, LoopId, SinkKey, SourceLoc, ThreadId, VarId,
};
use proptest::prelude::*;

#[allow(dead_code, clippy::too_many_arguments)]
mod oracle {
    use super::{AnalysisDelta, DeltaEdge, DeltaLoop, EdgeKey, LoopRecord};
    use depprof::types::{
        ByteReader, ByteWriter, DepEdge, DepFlags, DepType, Dependence, LoopId, SinkKey, SourceLoc,
        ThreadId, VarId, WireError,
    };
    use std::collections::{BTreeMap, BTreeSet};

    fn dtype_code(d: DepType) -> u8 {
        match d {
            DepType::Raw => 0,
            DepType::War => 1,
            DepType::Waw => 2,
            DepType::Init => 3,
        }
    }

    fn dtype_from(code: u8) -> Result<DepType, WireError> {
        Ok(match code {
            0 => DepType::Raw,
            1 => DepType::War,
            2 => DepType::Waw,
            3 => DepType::Init,
            _ => return Err(WireError::Invalid("unknown dependence type code")),
        })
    }

    /// True when an analysis reads the edge: it has a carrier (loop
    /// classification), carries `REVERSED` (race hints) or is a
    /// cross-thread RAW (communication matrix). Only such edges enter a
    /// delta.
    pub fn relevant(sink: &SinkKey, key: &EdgeKey, val: &EdgeVal) -> bool {
        !val.carriers.is_empty()
            || val.flags.contains(DepFlags::REVERSED)
            || (key.0 == DepType::Raw && key.2 != sink.thread)
    }

    /// Dirty-set bookkeeping for delta tracking: for every relevant edge
    /// (or loop) touched since the last drain, the counters already
    /// shipped, so the drain can ship exact movement without cloning the
    /// whole store.
    #[derive(Debug, Clone, Default)]
    struct DeltaTrack {
        /// `(sink, key) -> count` before the first touch of this interval
        /// (0 for edges that touch made relevant: nothing of them shipped
        /// before).
        edges: BTreeMap<(SinkKey, EdgeKey), u64>,
        /// `loop -> (instances, total_iters)` before the first touch.
        loops: BTreeMap<LoopId, (u64, u64)>,
    }

    /// Merged payload of one distinct dependence edge.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct EdgeVal {
        /// Dynamic occurrences merged into this record.
        pub count: u64,
        /// Union of qualifier flags over all occurrences.
        pub flags: DepFlags,
        /// Loops for which at least one occurrence was loop-carried.
        pub carriers: BTreeSet<LoopId>,
    }

    /// Duplicate-free dependence storage with deterministic iteration order.
    #[derive(Debug, Clone, Default)]
    pub struct DepStore {
        deps: BTreeMap<SinkKey, BTreeMap<EdgeKey, EdgeVal>>,
        loops: BTreeMap<LoopId, LoopRecord>,
        deps_built: u64,
        distinct: u64,
        /// `Some` from the first [`DepStore::take_delta`] on.
        delta: Option<DeltaTrack>,
    }

    impl DepStore {
        /// Empty store.
        pub fn new() -> Self {
            Self::default()
        }

        /// Records one dynamic dependence occurrence.
        #[allow(clippy::too_many_arguments)] // mirrors the paper's record fields
        pub fn add(
            &mut self,
            sink: SinkKey,
            dtype: DepType,
            source_loc: SourceLoc,
            source_thread: ThreadId,
            var: VarId,
            flags: DepFlags,
            carrier: Option<LoopId>,
        ) {
            self.deps_built += 1;
            let key = (dtype, source_loc, source_thread, var);
            let entry = self.deps.entry(sink).or_default().entry(key).or_insert_with(|| {
                self.distinct += 1;
                EdgeVal::default()
            });
            let shipped = if relevant(&sink, &key, entry) { entry.count } else { 0 };
            entry.count += 1;
            entry.flags |= flags;
            if let Some(l) = carrier {
                entry.carriers.insert(l);
            }
            if let Some(track) = self.delta.as_mut().filter(|_| relevant(&sink, &key, entry)) {
                track.edges.entry((sink, key)).or_insert(shipped);
            }
        }

        /// Records a finished loop instance.
        pub fn record_loop(&mut self, id: LoopId, begin: SourceLoc, end: SourceLoc, iters: u64) {
            let r = self.loops.entry(id).or_insert_with(|| LoopRecord {
                begin,
                end,
                instances: 0,
                total_iters: 0,
            });
            if let Some(track) = self.delta.as_mut() {
                track.loops.entry(id).or_insert((r.instances, r.total_iters));
            }
            r.instances += 1;
            r.total_iters += iters;
        }

        /// Every relevant edge and every loop record at a zero baseline:
        /// the dirty set of a store that starts tracking.
        fn catch_up(&self) -> DeltaTrack {
            let mut track = DeltaTrack::default();
            for (sink, edges) in &self.deps {
                for (key, _) in edges.iter().filter(|(key, val)| relevant(sink, key, val)) {
                    track.edges.insert((*sink, *key), 0);
                }
            }
            for id in self.loops.keys() {
                track.loops.insert(*id, (0, 0));
            }
            track
        }

        /// Drains the dirty set into an [`AnalysisDelta`] describing every
        /// edge and loop touched since the previous drain. The first drain
        /// starts tracking and ships the catch-up, so online analysis can
        /// start mid-session (or after a checkpoint rehydration) without
        /// missing history.
        pub fn take_delta(&mut self) -> AnalysisDelta {
            let track = self.delta.take().unwrap_or_else(|| self.catch_up());
            self.delta = Some(DeltaTrack::default());
            let mut out = AnalysisDelta::default();
            for ((sink, key), baseline) in track.edges {
                let Some(val) = self.deps.get(&sink).and_then(|m| m.get(&key)) else {
                    continue;
                };
                out.edges.push(DeltaEdge {
                    sink,
                    key,
                    count_delta: val.count - baseline,
                    flags: val.flags,
                    carriers: val.carriers.clone(),
                });
            }
            for (id, (base_inst, base_iters)) in track.loops {
                let Some(r) = self.loops.get(&id) else { continue };
                out.loops.push(DeltaLoop {
                    id,
                    begin: r.begin,
                    end: r.end,
                    instances_delta: r.instances - base_inst,
                    iters_delta: r.total_iters - base_iters,
                });
            }
            out
        }

        /// Total dynamic dependences recorded (pre-merge) — the numerator of
        /// the E9 merge factor.
        pub fn deps_built(&self) -> u64 {
            self.deps_built
        }

        /// Number of distinct (merged) dependences.
        pub fn merged_len(&self) -> u64 {
            self.distinct
        }

        /// Sinks in deterministic order.
        pub fn sinks(&self) -> impl Iterator<Item = (&SinkKey, &BTreeMap<EdgeKey, EdgeVal>)> {
            self.deps.iter()
        }

        /// Loop records in deterministic order.
        pub fn loops(&self) -> impl Iterator<Item = (&LoopId, &LoopRecord)> {
            self.loops.iter()
        }

        /// Looks up one loop record.
        pub fn loop_record(&self, id: LoopId) -> Option<&LoopRecord> {
            self.loops.get(&id)
        }

        /// Flattens into [`Dependence`] values (the unit the accuracy
        /// evaluation compares).
        pub fn dependences(&self) -> impl Iterator<Item = (Dependence, &EdgeVal)> {
            self.deps.iter().flat_map(|(sink, edges)| {
                edges.iter().map(move |(&(dtype, source_loc, source_thread, var), val)| {
                    (
                        Dependence {
                            sink: *sink,
                            edge: DepEdge {
                                dtype,
                                source_loc,
                                source_thread,
                                var,
                                carrier: val.carriers.iter().next().copied(),
                                flags: val.flags,
                            },
                        },
                        val,
                    )
                })
            })
        }

        /// Merges another store into this one (the final merge of the local
        /// worker maps, Figure 2: "we merge the data from all local maps into
        /// a global map. This step incurs only minor overhead since the local
        /// maps are free of duplicates").
        pub fn merge(&mut self, other: DepStore) {
            for (sink, edges) in other.deps {
                let dst = self.deps.entry(sink).or_default();
                for (k, v) in edges {
                    let e = dst.entry(k).or_insert_with(|| {
                        self.distinct += 1;
                        EdgeVal::default()
                    });
                    let shipped = if relevant(&sink, &k, e) { e.count } else { 0 };
                    e.count += v.count;
                    e.flags |= v.flags;
                    e.carriers.extend(v.carriers);
                    if let Some(track) = self.delta.as_mut().filter(|_| relevant(&sink, &k, e)) {
                        track.edges.entry((sink, k)).or_insert(shipped);
                    }
                }
            }
            for (id, r) in other.loops {
                let dst = self.loops.entry(id).or_insert_with(|| LoopRecord {
                    begin: r.begin,
                    end: r.end,
                    instances: 0,
                    total_iters: 0,
                });
                if let Some(track) = self.delta.as_mut() {
                    track.loops.entry(id).or_insert((dst.instances, dst.total_iters));
                }
                dst.instances += r.instances;
                dst.total_iters += r.total_iters;
            }
            self.deps_built += other.deps_built;
        }

        /// Applies an [`AnalysisDelta`] drained from another store: counts
        /// add, flags OR, carriers union — the [`merge`](DepStore::merge)
        /// rules, so replaying every delta of a session reconstructs the
        /// relevant part of the merged store. Only this model has it: the
        /// product folds deltas into `OnlineAnalysis`, never into a store.
        pub fn apply_delta(&mut self, delta: &AnalysisDelta) {
            for e in &delta.edges {
                let dst = self.deps.entry(e.sink).or_default();
                let entry = dst.entry(e.key).or_insert_with(|| {
                    self.distinct += 1;
                    EdgeVal::default()
                });
                entry.count += e.count_delta;
                entry.flags |= e.flags;
                entry.carriers.extend(e.carriers.iter().copied());
                self.deps_built += e.count_delta;
            }
            for l in &delta.loops {
                let dst = self.loops.entry(l.id).or_insert_with(|| LoopRecord {
                    begin: l.begin,
                    end: l.end,
                    instances: 0,
                    total_iters: 0,
                });
                dst.instances += l.instances_delta;
                dst.total_iters += l.iters_delta;
            }
        }

        /// Serializes the complete store — merged dependences, loop records
        /// and the pre-merge counters — for a checkpoint. BTreeMap iteration
        /// makes the byte stream deterministic: identical stores serialize to
        /// identical bytes.
        pub fn save(&self, out: &mut ByteWriter) {
            out.u64(self.deps_built);
            out.u64(self.distinct);
            out.u64(self.deps.len() as u64);
            for (sink, edges) in &self.deps {
                out.u32(sink.loc.pack());
                out.u16(sink.thread);
                out.u64(edges.len() as u64);
                for (&(dtype, source_loc, source_thread, var), v) in edges {
                    out.u8(dtype_code(dtype));
                    out.u32(source_loc.pack());
                    out.u16(source_thread);
                    out.u32(var);
                    out.u64(v.count);
                    out.u8(v.flags.bits());
                    out.u32(v.carriers.len() as u32);
                    for l in &v.carriers {
                        out.u32(*l);
                    }
                }
            }
            out.u64(self.loops.len() as u64);
            for (id, r) in &self.loops {
                out.u32(*id);
                out.u32(r.begin.pack());
                out.u32(r.end.pack());
                out.u64(r.instances);
                out.u64(r.total_iters);
            }
        }

        /// Rebuilds a store previously produced by [`DepStore::save`].
        pub fn load(bytes: &[u8]) -> Result<Self, WireError> {
            let mut r = ByteReader::new(bytes);
            let deps_built = r.u64()?;
            let distinct = r.u64()?;
            let nsinks = r.u64()?;
            let mut deps = BTreeMap::new();
            for _ in 0..nsinks {
                let sink = SinkKey { loc: SourceLoc::unpack(r.u32()?), thread: r.u16()? };
                let nedges = r.u64()?;
                let mut edges = BTreeMap::new();
                for _ in 0..nedges {
                    let dtype = dtype_from(r.u8()?)?;
                    let source_loc = SourceLoc::unpack(r.u32()?);
                    let source_thread = r.u16()?;
                    let var = r.u32()?;
                    let count = r.u64()?;
                    let flags = DepFlags::from_bits_truncate(r.u8()?);
                    let ncarriers = r.u32()?;
                    let mut carriers = BTreeSet::new();
                    for _ in 0..ncarriers {
                        carriers.insert(r.u32()?);
                    }
                    edges.insert(
                        (dtype, source_loc, source_thread, var),
                        EdgeVal { count, flags, carriers },
                    );
                }
                deps.insert(sink, edges);
            }
            let nloops = r.u64()?;
            let mut loops = BTreeMap::new();
            for _ in 0..nloops {
                let id = r.u32()?;
                loops.insert(
                    id,
                    LoopRecord {
                        begin: SourceLoc::unpack(r.u32()?),
                        end: SourceLoc::unpack(r.u32()?),
                        instances: r.u64()?,
                        total_iters: r.u64()?,
                    },
                );
            }
            if !r.is_done() {
                return Err(WireError::Invalid("trailing bytes after dependence store"));
            }
            Ok(DepStore { deps, loops, deps_built, distinct, delta: None })
        }

        /// Approximate heap footprint for the memory accounting.
        pub fn memory_usage(&self) -> usize {
            use std::mem::size_of;
            let per_sink = size_of::<SinkKey>() + size_of::<BTreeMap<EdgeKey, EdgeVal>>() + 32;
            let per_edge = size_of::<EdgeKey>() + size_of::<EdgeVal>() + 32;
            self.deps.len() * per_sink
                + self.distinct as usize * per_edge
                + self.loops.len() * (size_of::<LoopRecord>() + 16)
        }
    }
}

/// One occurrence to record: the arguments of `DepStore::add`.
type Occurrence = (SinkKey, EdgeKey, DepFlags, Option<LoopId>);

#[derive(Debug, Clone)]
enum Op {
    Add(Occurrence),
    RecordLoop(LoopId, u64),
    /// Build a second store from these occurrences and merge it in.
    Merge(Vec<Occurrence>, Option<LoopId>),
    TakeDelta,
    Seal,
    /// `save` → `load`, continuing on the loaded store.
    Reload,
}

const DTYPES: [DepType; 4] = [DepType::Raw, DepType::War, DepType::Waw, DepType::Init];

/// Occurrences over a domain small enough that most of them merge:
/// 2 files × 4 lines × 2 threads on either end, 3 variables, every flag
/// combination, and no carrier or one of three — so edges end up carried
/// by 0, 1 and ≥ 2 loops.
fn arb_occurrence() -> impl Strategy<Value = Occurrence> {
    let end = || (1u8..3, 1u32..5, 0u16..2);
    (end(), end(), 0usize..4, (0u32..3, 0u8..8), 0u32..6).prop_map(
        |((sf, sl, st), (f, l, t), dtype, (var, flags), carrier)| {
            (
                SinkKey { loc: loc(sf, sl), thread: st },
                (DTYPES[dtype], loc(f, l), t, var),
                DepFlags::from_bits_truncate(flags),
                carrier.checked_sub(3),
            )
        },
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        12 => arb_occurrence().prop_map(Op::Add),
        2 => (0u32..4, 0u64..9).prop_map(|(id, iters)| Op::RecordLoop(id, iters)),
        2 => (prop::collection::vec(arb_occurrence(), 0..12), 0u32..8)
            .prop_map(|(occ, l)| Op::Merge(occ, (l < 4).then_some(l))),
        3 => Just(Op::TakeDelta),
        2 => Just(Op::Seal),
        1 => Just(Op::Reload),
    ];
    prop::collection::vec(op, 1..120)
}

fn loop_ends(id: LoopId) -> (SourceLoc, SourceLoc) {
    (loc(1, 10 + id), loc(1, 20 + id))
}

fn saved(save: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut out = ByteWriter::new();
    save(&mut out);
    out.into_bytes()
}

type Edge = (SinkKey, EdgeKey, u64, DepFlags, Vec<LoopId>);
type Contents = (Vec<Edge>, Vec<(LoopId, LoopRecord)>, u64, u64);

fn key_of(e: &depprof::types::DepEdge) -> EdgeKey {
    (e.dtype, e.source_loc, e.source_thread, e.var)
}

fn contents(s: &DepStore) -> Contents {
    (
        s.dependences()
            .map(|(d, v)| {
                assert_eq!(d.edge.carrier, v.carriers.first().copied());
                assert_eq!(d.edge.flags, v.flags);
                (d.sink, key_of(&d.edge), v.count, v.flags, v.carriers.to_vec())
            })
            .collect(),
        s.loops().map(|(id, r)| (*id, r.clone())).collect(),
        s.deps_built(),
        s.merged_len(),
    )
}

fn oracle_contents(s: &oracle::DepStore) -> Contents {
    (
        s.dependences()
            .map(|(d, v)| {
                let carriers = v.carriers.iter().copied().collect();
                (d.sink, key_of(&d.edge), v.count, v.flags, carriers)
            })
            .collect(),
        s.loops().map(|(id, r)| (*id, r.clone())).collect(),
        s.deps_built(),
        s.merged_len(),
    )
}

/// The store under test and the oracle, driven in lockstep, and the
/// mirror the drained deltas are folded into.
#[derive(Default)]
struct Pair {
    new: DepStore,
    old: oracle::DepStore,
    mirror: oracle::DepStore,
}

impl Pair {
    fn add(new: &mut DepStore, old: &mut oracle::DepStore, occ: &Occurrence) {
        let &(sink, (dtype, source_loc, source_thread, var), flags, carrier) = occ;
        add(new, occ);
        old.add(sink, dtype, source_loc, source_thread, var, flags, carrier);
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add(occ) => Self::add(&mut self.new, &mut self.old, occ),
            Op::RecordLoop(id, iters) => {
                let (begin, end) = loop_ends(*id);
                self.new.record_loop(*id, begin, end, *iters);
                self.old.record_loop(*id, begin, end, *iters);
            }
            Op::Merge(occs, looped) => {
                let (mut new, mut old) = (DepStore::new(), oracle::DepStore::new());
                for occ in occs {
                    Self::add(&mut new, &mut old, occ);
                }
                if let Some(id) = looped {
                    let (begin, end) = loop_ends(*id);
                    new.record_loop(*id, begin, end, 3);
                    old.record_loop(*id, begin, end, 3);
                }
                self.new.merge(new);
                self.old.merge(old);
            }
            Op::TakeDelta => {
                let delta = self.new.take_delta();
                assert_eq!(delta, self.old.take_delta(), "same movement, same order");
                let ids: Vec<_> = delta.edges.iter().map(|e| (e.sink, e.key)).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "edges in (sink, key) order");
                self.mirror.apply_delta(&delta);
                let (mut edges, loops, ..) = contents(&self.new);
                edges.retain(|(sink, key, _, flags, carriers)| {
                    !carriers.is_empty()
                        || flags.contains(DepFlags::REVERSED)
                        || (key.0 == DepType::Raw && key.2 != sink.thread)
                });
                let (folded, folded_loops, ..) = oracle_contents(&self.mirror);
                assert_eq!(folded, edges, "deltas fold back into the relevant sub-store");
                assert_eq!(folded_loops, loops);
            }
            Op::Seal => self.new.seal(),
            Op::Reload => {
                let bytes = saved(|out| self.new.save(out));
                self.new = DepStore::load(&bytes).expect("own checkpoint loads");
                self.old = oracle::DepStore::load(&bytes).expect("the oracle reads it too");
                // Tracking is not persisted: the next drain ships the
                // relevant part of the store again, so the mirror starts over.
                self.mirror = oracle::DepStore::new();
            }
        }
    }

    fn check(&self) {
        assert_eq!(contents(&self.new), oracle_contents(&self.old));
        assert_eq!(saved(|out| self.new.save(out)), saved(|out| self.old.save(out)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every interleaving leaves the flat table and the nested maps
    /// holding the same thing, step by step.
    #[test]
    fn flat_table_matches_nested_maps(ops in arb_ops()) {
        let mut pair = Pair::default();
        for op in &ops {
            pair.apply(op);
            pair.check();
        }
        // Drain whatever is pending: the last deltas agree too.
        pair.apply(&Op::TakeDelta);
        pair.check();
    }
}

/// One step of a session as the engines drive their stores; the flag
/// picks the worker store in the two-worker legs.
#[derive(Debug, Clone)]
enum Step {
    Add(Occurrence, bool),
    RecordLoop(LoopId, u64, bool),
    Merge(Vec<Occurrence>, bool),
    Seal(bool),
    Drain,
}

/// Occurrences as Algorithm 1 builds them — `LOOP_CARRIED` exactly when
/// there is a carrier — over few enough identities that most edges
/// collect many occurrences, and with carriers (1 in 6) and `REVERSED`
/// (1 in 8) rare enough that an edge usually turns relevant late, if at
/// all. Threads differ on either end, so some RAWs are cross-thread.
fn arb_engine_occurrence() -> impl Strategy<Value = Occurrence> {
    let end = || (1u32..4, 0u16..2);
    (end(), end(), 0usize..4, (0u32..2, 0u8..8), 0u32..18).prop_map(
        |((sl, st), (l, t), dtype, (var, reversed), carrier)| {
            let carrier = (carrier < 3).then_some(carrier);
            let mut flags = match carrier {
                Some(_) => DepFlags::LOOP_CARRIED,
                None if l % 2 == 0 => DepFlags::INTRA_ITERATION,
                None => DepFlags::empty(),
            };
            if reversed == 0 {
                flags |= DepFlags::REVERSED;
            }
            (
                SinkKey { loc: loc(1, sl), thread: st },
                (DTYPES[dtype], loc(1, l), t, var),
                flags,
                carrier,
            )
        },
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        16 => (arb_engine_occurrence(), any::<bool>()).prop_map(|(occ, w)| Step::Add(occ, w)),
        2 => (0u32..4, 0u64..9, any::<bool>()).prop_map(|(id, n, w)| Step::RecordLoop(id, n, w)),
        1 => (prop::collection::vec(arb_engine_occurrence(), 0..8), any::<bool>())
            .prop_map(|(occ, w)| Step::Merge(occ, w)),
        1 => any::<bool>().prop_map(Step::Seal),
        2 => Just(Step::Drain),
    ];
    prop::collection::vec(step, 1..160)
}

fn add(store: &mut DepStore, occ: &Occurrence) {
    let &(sink, (dtype, source_loc, source_thread, var), flags, carrier) = occ;
    store.add(sink, dtype, source_loc, source_thread, var, flags, carrier);
}

/// Runs `steps` over `workers` stores, folding every drained delta into
/// one [`OnlineAnalysis`] as a session does, and returns its last report
/// beside the reference passes' over the merged stores' observed loops
/// and threads. Tracking starts at
/// the first [`Step::Drain`], whose delta is the catch-up (`early`: a
/// drain before the first step, so the stores track from the start).
///
/// An edge some occurrence flags `REVERSED` keeps to worker 0. Race
/// hints read its *count*, and a store that holds the edge but never saw
/// the reversal has no reason to ship its share; the engines that run
/// online never set the flag (only `MtProfiler` checks reversal), so no
/// session splits such an edge over stores (DESIGN.md, "Online analysis").
fn folded_and_posthoc(steps: &[Step], workers: usize, early: bool) -> (OnlineReport, OnlineReport) {
    let occurrences = steps.iter().flat_map(|step| match step {
        Step::Add(occ, _) => std::slice::from_ref(occ),
        Step::Merge(occs, _) => occs,
        _ => &[],
    });
    let racy: Vec<(SinkKey, EdgeKey)> = occurrences
        .filter(|occ| occ.2.contains(DepFlags::REVERSED))
        .map(|occ| (occ.0, occ.1))
        .collect();
    let worker = |w: bool, occ: Option<&Occurrence>| match occ {
        Some(occ) if racy.contains(&(occ.0, occ.1)) => 0,
        _ => w as usize % workers,
    };
    let mut stores = vec![DepStore::new(); workers];
    let mut online = OnlineAnalysis::new();
    let mut drain = |stores: &mut [DepStore]| {
        for store in stores {
            online.fold(&store.take_delta());
        }
    };
    if early {
        drain(&mut stores);
    }
    for step in steps {
        match step {
            Step::Add(occ, w) => add(&mut stores[worker(*w, Some(occ))], occ),
            Step::RecordLoop(id, iters, w) => {
                let (begin, end) = loop_ends(*id);
                stores[worker(*w, None)].record_loop(*id, begin, end, *iters);
            }
            Step::Merge(occs, w) => {
                // One store per destination, so a racy edge still lands whole.
                let mut parts = vec![DepStore::new(); workers];
                for occ in occs {
                    add(&mut parts[worker(*w, Some(occ))], occ);
                }
                for (store, part) in stores.iter_mut().zip(parts) {
                    store.merge(part);
                }
            }
            Step::Seal(w) => stores[worker(*w, None)].seal(),
            Step::Drain => drain(&mut stores),
        }
    }
    drain(&mut stores);
    let mut deps = DepStore::new();
    for store in stores {
        deps.merge(store);
    }
    deps.seal();
    let result = ProfileResult { deps, ..Default::default() };
    (
        online.report(),
        posthoc_passes(&result, &observed_loop_metas(&result), observed_comm_dim(&result)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deltas hold only the edges an analysis reads, and still the folded
    /// report — race occurrences, communication cells, blockers, loop
    /// rows — is the post-hoc passes' over the finished store: with
    /// tracking on from the start or started late, on one store or split
    /// over two workers.
    #[test]
    fn folded_deltas_answer_like_the_posthoc_passes(steps in arb_steps()) {
        for workers in [1, 2] {
            for early in [true, false] {
                let (folded, posthoc) = folded_and_posthoc(&steps, workers, early);
                prop_assert_eq!(folded, posthoc, "{} workers, early first drain: {}", workers, early);
            }
        }
    }
}

/// The late arrivals by name, with the numbers a reader can check: many
/// unshipped occurrences, then the one that makes the edge relevant.
#[test]
fn an_edge_that_turns_relevant_late_ships_every_occurrence() {
    let sink = SinkKey { loc: loc(1, 3), thread: 0 };
    let plain = |key: EdgeKey| Step::Add((sink, key, DepFlags::INTRA_ITERATION, None), false);
    let (raced, carried) = ((DepType::War, loc(1, 2), 0, 1), (DepType::Raw, loc(1, 1), 0, 1));
    let mut steps = vec![Step::RecordLoop(2, 30, false)];
    steps.extend((0..30).flat_map(|_| [plain(raced), plain(carried)]));
    // Tracking starts over 60 occurrences of two edges nothing reads,
    // and its catch-up ships nothing of them.
    steps.push(Step::Drain);
    steps.extend((0..10).flat_map(|_| [plain(raced), plain(carried)]));
    steps.push(Step::Drain);
    // The 41st occurrence of each is the first an analysis cares about;
    // a seal moves the records before the drain.
    steps.push(Step::Add((sink, raced, DepFlags::REVERSED, None), false));
    steps.push(Step::Add((sink, carried, DepFlags::LOOP_CARRIED, Some(2)), false));
    steps.extend([Step::Seal(false), Step::Drain, plain(raced), Step::Drain]);
    for early in [true, false] {
        let (folded, posthoc) = folded_and_posthoc(&steps, 1, early);
        assert_eq!(folded, posthoc);
        assert_eq!(folded.races.len(), 1);
        assert_eq!(folded.races[0].occurrences, 42);
        assert_eq!(folded.loops[0].blockers, [(loc(1, 3), loc(1, 1), 1)]);
    }
    // Never drained until the end, with the relevant occurrences long
    // in: the one catch-up ships all 42 once.
    steps.retain(|s| !matches!(s, Step::Drain));
    let (folded, posthoc) = folded_and_posthoc(&steps, 1, false);
    assert_eq!(folded, posthoc);
    assert_eq!(folded.races[0].occurrences, 42);
}

/// The store of the golden blob: edges added out of order, carried by
/// no loop, one loop, two and three loops, on three threads, with the
/// largest packable line.
fn golden_store() -> DepStore {
    fn sink(file: u8, line: u32, thread: ThreadId) -> SinkKey {
        SinkKey { loc: loc(file, line), thread }
    }
    let far = loc(255, (1 << 24) - 1);
    let var: VarId = 70_000;
    let mut s = DepStore::new();
    s.add(sink(2, 5, 1), DepType::Waw, loc(1, 5), 1, 6, DepFlags::empty(), None);
    s.add(sink(1, 63, 0), DepType::War, loc(2, 67), 1, 5, DepFlags::REVERSED, Some(7));
    s.add(sink(1, 63, 0), DepType::Raw, loc(1, 59), 0, 4, DepFlags::INTRA_ITERATION, None);
    s.add(sink(1, 63, 0), DepType::Raw, loc(1, 59), 0, 4, DepFlags::LOOP_CARRIED, Some(7));
    s.add(sink(1, 63, 0), DepType::Raw, loc(1, 59), 0, 4, DepFlags::LOOP_CARRIED, Some(3));
    s.add(sink(1, 63, 0), DepType::Raw, loc(1, 59), 0, 4, DepFlags::LOOP_CARRIED, Some(9));
    s.add(sink(1, 64, 0), DepType::Init, loc(1, 64), 0, 6, DepFlags::empty(), None);
    s.add(sink(1, 63, 2), DepType::Raw, far, 3, var, DepFlags::LOOP_CARRIED, Some(3));
    s.add(sink(1, 63, 2), DepType::Raw, far, 3, var, DepFlags::LOOP_CARRIED, Some(1));
    s.record_loop(7, loc(2, 1), loc(2, 9), 8);
    s.record_loop(3, loc(1, 10), loc(1, 20), 100);
    s.record_loop(7, loc(2, 1), loc(2, 9), 4);
    s
}

/// `golden_store().save()` as the commit before the flat table wrote it.
const GOLDEN_HEX: &str = concat!(
    "0900000000000000050000000000000004000000000000003f00000100000200000000000000003b0000010000040000",
    "000400000000000000030300000003000000070000000900000001430000020100050000000100000000000000040100",
    "0000070000003f0000010200010000000000000000ffffffff0300701101000200000000000000010200000001000000",
    "030000004000000100000100000000000000034000000100000600000001000000000000000000000000050000020100",
    "01000000000000000205000001010006000000010000000000000000000000000200000000000000030000000a000001",
    "140000010100000000000000640000000000000007000000010000020900000202000000000000000c00000000000000",
);

#[test]
fn checkpoint_bytes_of_the_previous_store_are_written_and_read() {
    let golden: Vec<u8> = (0..GOLDEN_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).expect("hex"))
        .collect();
    let store = golden_store();
    assert_eq!(saved(|out| store.save(out)), golden, "same bytes as before the flat table");
    let loaded = DepStore::load(&golden).expect("an older checkpoint still loads");
    assert_eq!(contents(&loaded), contents(&store));
    assert_eq!(saved(|out| loaded.save(out)), golden);
    let raw = loaded.dependences().next().expect("edges").1;
    assert_eq!((raw.count, raw.carriers), (4, &[3, 7, 9][..]));
}
