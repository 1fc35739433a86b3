//! The merged dependence store.
//!
//! "Finally, we merge identical dependences to reduce the memory overhead
//! and the time needed to write the dependences to disk. ... Merging
//! identical dependences decreased the average output file size for NAS
//! benchmarks from 6.1 GB to 53 KB, corresponding to an average reduction
//! by a factor of 10⁵." (Section III-B)
//!
//! The store is keyed by sink (aggregation as in Figure 1) and merges
//! edges by `(type, source, variable)`, accumulating a count, OR-ing
//! qualifier flags and collecting the set of loops the dependence was
//! observed carried for. `deps_built` counts every pre-merge record, so
//! the merge factor of experiment E9 is `deps_built / merged_len`.

use dp_types::{
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

/// Merge key of an edge under one sink.
pub type EdgeKey = (DepType, SourceLoc, ThreadId, VarId);

/// One touched edge inside an [`AnalysisDelta`]: the edge's identity, the
/// occurrences added since the last drain, and the edge's *cumulative*
/// flag union and carrier set (shipping the full sets makes applying a
/// delta idempotent — OR-ing and union-ing them again changes nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEdge {
    /// Sink of the dependence.
    pub sink: SinkKey,
    /// Merge key under the sink.
    pub key: EdgeKey,
    /// Occurrences merged into the edge since the previous drain.
    pub count_delta: u64,
    /// Union of qualifier flags over *all* occurrences so far.
    pub flags: DepFlags,
    /// Full set of loops the edge has been observed carried for.
    pub carriers: BTreeSet<LoopId>,
}

/// Loop-record movement inside an [`AnalysisDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaLoop {
    /// The loop.
    pub id: LoopId,
    /// Loop header location.
    pub begin: SourceLoc,
    /// Loop exit location.
    pub end: SourceLoc,
    /// Instances finished since the previous drain.
    pub instances_delta: u64,
    /// Iterations summed since the previous drain.
    pub iters_delta: u64,
}

/// What changed in a [`DepStore`] since the last drain — the unit the
/// online-analysis subsystem folds into its live loop/communication/race
/// state. Deltas from different stores (the parallel engine's per-worker
/// maps) compose by applying each in turn: counts add, flags OR, carrier
/// sets union — exactly the [`DepStore::merge`] rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisDelta {
    /// Edges touched since the last drain, in deterministic
    /// `(sink, key)` order.
    pub edges: Vec<DeltaEdge>,
    /// Loop records touched since the last drain, in id order.
    pub loops: Vec<DeltaLoop>,
}

impl AnalysisDelta {
    /// True when the delta carries no movement.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.loops.is_empty()
    }
}

/// Dirty-set bookkeeping for delta tracking: for every edge (or loop)
/// touched since the last drain, the pre-touch counters, so the drain can
/// ship exact movement without cloning the whole store.
#[derive(Debug, Clone, Default)]
struct DeltaTrack {
    /// `(sink, key) -> count` before the first touch of this interval
    /// (0 for edges born inside the interval).
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

/// Aggregated runtime record of one static loop (drives the `BGN`/`END`
/// lines of the report and Table II's iteration context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRecord {
    /// Loop header location.
    pub begin: SourceLoc,
    /// Loop exit location.
    pub end: SourceLoc,
    /// Dynamic instances (entries) of the loop.
    pub instances: u64,
    /// Iterations summed over all instances (the number printed after
    /// `END loop`).
    pub total_iters: u64,
}

/// Duplicate-free dependence storage with deterministic iteration order.
#[derive(Debug, Clone, Default)]
pub struct DepStore {
    deps: BTreeMap<SinkKey, BTreeMap<EdgeKey, EdgeVal>>,
    loops: BTreeMap<LoopId, LoopRecord>,
    deps_built: u64,
    distinct: u64,
    /// `Some` once delta tracking is enabled ([`DepStore::enable_delta`]).
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
        if let Some(track) = self.delta.as_mut() {
            track.edges.entry((sink, key)).or_insert(entry.count);
        }
        entry.count += 1;
        entry.flags |= flags;
        if let Some(l) = carrier {
            entry.carriers.insert(l);
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

    /// Turns on delta tracking. Everything already in the store is seeded
    /// into the dirty set at a zero baseline, so the first
    /// [`DepStore::take_delta`] ships the *full* current state — the
    /// catch-up that lets online analysis be enabled lazily mid-session
    /// (or after a checkpoint rehydration) without missing history.
    /// Idempotent: enabling twice does not reset in-flight baselines.
    pub fn enable_delta(&mut self) {
        if self.delta.is_some() {
            return;
        }
        let mut track = DeltaTrack::default();
        for (sink, edges) in &self.deps {
            for key in edges.keys() {
                track.edges.insert((*sink, *key), 0);
            }
        }
        for id in self.loops.keys() {
            track.loops.insert(*id, (0, 0));
        }
        self.delta = Some(track);
    }

    /// True once [`DepStore::enable_delta`] has run.
    pub fn delta_enabled(&self) -> bool {
        self.delta.is_some()
    }

    /// Drains the dirty set into an [`AnalysisDelta`] describing every
    /// edge and loop touched since the previous drain (or since
    /// [`DepStore::enable_delta`]). Returns an empty delta when tracking
    /// is off or nothing moved.
    pub fn take_delta(&mut self) -> AnalysisDelta {
        let Some(track) = self.delta.as_mut() else {
            return AnalysisDelta::default();
        };
        let dirty_edges = std::mem::take(&mut track.edges);
        let dirty_loops = std::mem::take(&mut track.loops);
        let mut out = AnalysisDelta::default();
        for ((sink, key), baseline) in dirty_edges {
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
        for (id, (base_inst, base_iters)) in dirty_loops {
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
                if let Some(track) = self.delta.as_mut() {
                    track.edges.entry((sink, k)).or_insert(e.count);
                }
                e.count += v.count;
                e.flags |= v.flags;
                e.carriers.extend(v.carriers);
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
    /// merged store. This is the post-hoc fallback path of the online
    /// analysis subsystem: a mirror store fed only by deltas is a valid
    /// input for any non-incremental pass.
    pub fn apply_delta(&mut self, delta: &AnalysisDelta) {
        for e in &delta.edges {
            let dst = self.deps.entry(e.sink).or_default();
            let entry = dst.entry(e.key).or_insert_with(|| {
                self.distinct += 1;
                EdgeVal::default()
            });
            if let Some(track) = self.delta.as_mut() {
                track.edges.entry((e.sink, e.key)).or_insert(entry.count);
            }
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
            if let Some(track) = self.delta.as_mut() {
                track.loops.entry(l.id).or_insert((dst.instances, dst.total_iters));
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    fn sink(line: u32) -> SinkKey {
        SinkKey { loc: loc(1, line), thread: 0 }
    }

    #[test]
    fn merging_counts_identical_deps() {
        let mut s = DepStore::new();
        for _ in 0..1000 {
            s.add(sink(63), DepType::Raw, loc(1, 59), 0, 4, DepFlags::empty(), None);
        }
        assert_eq!(s.deps_built(), 1000);
        assert_eq!(s.merged_len(), 1);
        let (_, edges) = s.sinks().next().unwrap();
        assert_eq!(edges.values().next().unwrap().count, 1000);
    }

    #[test]
    fn distinct_edges_kept_apart() {
        let mut s = DepStore::new();
        s.add(sink(63), DepType::Raw, loc(1, 59), 0, 4, DepFlags::empty(), None);
        s.add(sink(63), DepType::Raw, loc(1, 67), 0, 4, DepFlags::empty(), None);
        s.add(sink(63), DepType::War, loc(1, 59), 0, 4, DepFlags::empty(), None);
        s.add(sink(64), DepType::Raw, loc(1, 59), 0, 4, DepFlags::empty(), None);
        assert_eq!(s.merged_len(), 4);
        assert_eq!(s.sinks().count(), 2);
    }

    #[test]
    fn flags_and_carriers_accumulate() {
        let mut s = DepStore::new();
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::INTRA_ITERATION, None);
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::LOOP_CARRIED, Some(3));
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::LOOP_CARRIED, Some(7));
        let (_, edges) = s.sinks().next().unwrap();
        let v = edges.values().next().unwrap();
        assert!(v.flags.contains(DepFlags::LOOP_CARRIED | DepFlags::INTRA_ITERATION));
        assert_eq!(v.carriers.iter().copied().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(v.count, 3);
    }

    #[test]
    fn merge_stores() {
        let mut a = DepStore::new();
        let mut b = DepStore::new();
        a.add(sink(1), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), None);
        b.add(sink(1), DepType::Raw, loc(1, 1), 0, 1, DepFlags::LOOP_CARRIED, Some(2));
        b.add(sink(2), DepType::Waw, loc(1, 1), 0, 1, DepFlags::empty(), None);
        b.record_loop(0, loc(1, 1), loc(1, 9), 100);
        a.record_loop(0, loc(1, 1), loc(1, 9), 100);
        a.merge(b);
        assert_eq!(a.merged_len(), 2);
        assert_eq!(a.deps_built(), 3);
        let r = a.loop_record(0).unwrap();
        assert_eq!(r.instances, 2);
        assert_eq!(r.total_iters, 200);
        let (_, edges) = a.sinks().next().unwrap();
        let v = edges.values().next().unwrap();
        assert_eq!(v.count, 2);
        assert!(v.flags.contains(DepFlags::LOOP_CARRIED));
    }

    #[test]
    fn save_load_roundtrips_and_is_deterministic() {
        let mut s = DepStore::new();
        s.add(sink(63), DepType::Raw, loc(1, 59), 0, 4, DepFlags::INTRA_ITERATION, None);
        s.add(sink(63), DepType::Raw, loc(1, 59), 0, 4, DepFlags::LOOP_CARRIED, Some(3));
        s.add(sink(63), DepType::War, loc(2, 67), 1, 5, DepFlags::REVERSED, Some(7));
        s.add(sink(64), DepType::Init, loc(1, 64), 0, 6, DepFlags::empty(), None);
        s.record_loop(3, loc(1, 10), loc(1, 20), 100);
        s.record_loop(7, loc(2, 1), loc(2, 9), 8);
        let mut out = ByteWriter::new();
        s.save(&mut out);
        let bytes = out.into_bytes();
        let t = DepStore::load(&bytes).unwrap();
        assert_eq!(t.deps_built(), s.deps_built());
        assert_eq!(t.merged_len(), s.merged_len());
        assert_eq!(
            t.dependences().map(|(d, v)| (d, v.clone())).collect::<Vec<_>>(),
            s.dependences().map(|(d, v)| (d, v.clone())).collect::<Vec<_>>()
        );
        assert_eq!(t.loop_record(3), s.loop_record(3));
        assert_eq!(t.loop_record(7), s.loop_record(7));
        let mut again = ByteWriter::new();
        t.save(&mut again);
        assert_eq!(again.into_bytes(), bytes, "resave must be byte-identical");
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(DepStore::load(&[1, 2, 3]).is_err(), "truncated");
        let mut out = ByteWriter::new();
        DepStore::new().save(&mut out);
        let mut bytes = out.into_bytes();
        bytes.push(0); // trailing byte
        assert!(DepStore::load(&bytes).is_err());
    }

    /// Folds a delta into a plain store using the merge rules (counts
    /// add, flags OR, carriers union) — the reference consumer the
    /// online-analysis subsystem mirrors.
    fn fold(target: &mut DepStore, delta: &AnalysisDelta) {
        target.apply_delta(delta);
    }

    type Snapshot = (Vec<(Dependence, EdgeVal)>, Vec<(LoopId, LoopRecord)>);

    fn snapshot(s: &DepStore) -> Snapshot {
        (
            s.dependences().map(|(d, v)| (d, v.clone())).collect(),
            s.loops().map(|(id, r)| (*id, r.clone())).collect(),
        )
    }

    #[test]
    fn delta_tracks_exact_movement() {
        let mut s = DepStore::new();
        s.enable_delta();
        assert!(s.delta_enabled());
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::INTRA_ITERATION, None);
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(3));
        s.record_loop(3, loc(1, 1), loc(1, 9), 10);
        let d = s.take_delta();
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].count_delta, 2);
        assert!(d.edges[0].flags.contains(DepFlags::LOOP_CARRIED | DepFlags::INTRA_ITERATION));
        assert_eq!(d.loops.len(), 1);
        assert_eq!(d.loops[0].instances_delta, 1);
        assert_eq!(d.loops[0].iters_delta, 10);
        // Nothing moved since the drain.
        assert!(s.take_delta().is_empty());
        // Second interval ships only the new movement, but full flag/carrier sets.
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), Some(5));
        let d2 = s.take_delta();
        assert_eq!(d2.edges[0].count_delta, 1);
        assert!(d2.edges[0].flags.contains(DepFlags::LOOP_CARRIED));
        assert_eq!(d2.edges[0].carriers.iter().copied().collect::<Vec<_>>(), vec![3, 5]);
        assert!(d2.loops.is_empty());
    }

    #[test]
    fn enable_delta_mid_session_ships_full_catchup() {
        let mut s = DepStore::new();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(2));
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        s.record_loop(2, loc(1, 1), loc(1, 9), 4);
        s.enable_delta(); // late enable: history must still be shipped
        s.add(sink(2), DepType::War, loc(1, 5), 1, 8, DepFlags::empty(), None);
        let mut mirror = DepStore::new();
        fold(&mut mirror, &s.take_delta());
        assert_eq!(snapshot(&mirror), snapshot(&s));
        // enable_delta is idempotent: re-enabling keeps pending baselines.
        s.add(sink(2), DepType::War, loc(1, 5), 1, 8, DepFlags::empty(), None);
        s.enable_delta();
        let d = s.take_delta();
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].count_delta, 1);
        fold(&mut mirror, &d);
        assert_eq!(snapshot(&mirror), snapshot(&s));
    }

    #[test]
    fn folded_deltas_reconstruct_merged_stores() {
        // Deltas taken across merges of other stores (the parallel
        // engine's final merge) still fold into an identical mirror.
        let mut s = DepStore::new();
        s.enable_delta();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        let mut mirror = DepStore::new();
        fold(&mut mirror, &s.take_delta());
        let mut other = DepStore::new();
        other.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(9));
        other.add(sink(3), DepType::Waw, loc(2, 2), 1, 4, DepFlags::REVERSED, None);
        other.record_loop(9, loc(1, 1), loc(1, 3), 6);
        s.merge(other);
        fold(&mut mirror, &s.take_delta());
        assert_eq!(snapshot(&mirror), snapshot(&s));
    }

    #[test]
    fn delta_is_not_persisted_by_save() {
        let mut s = DepStore::new();
        s.enable_delta();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        let mut out = ByteWriter::new();
        s.save(&mut out);
        let t = DepStore::load(&out.into_bytes()).unwrap();
        assert!(!t.delta_enabled(), "tracking restarts from enable_delta after rehydration");
    }

    #[test]
    fn dependences_iterator_roundtrips() {
        let mut s = DepStore::new();
        s.add(sink(63), DepType::Raw, loc(1, 59), 2, 4, DepFlags::REVERSED, Some(1));
        let all: Vec<_> = s.dependences().collect();
        assert_eq!(all.len(), 1);
        let (d, v) = &all[0];
        assert_eq!(d.sink.loc, loc(1, 63));
        assert_eq!(d.edge.source_thread, 2);
        assert_eq!(d.edge.carrier, Some(1));
        assert_eq!(v.count, 1);
    }
}
