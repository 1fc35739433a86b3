//! The merged dependence store.
//!
//! "Finally, we merge identical dependences to reduce the memory overhead
//! and the time needed to write the dependences to disk. ... Merging
//! identical dependences decreased the average output file size for NAS
//! benchmarks from 6.1 GB to 53 KB, corresponding to an average reduction
//! by a factor of 10⁵." (Section III-B)
//!
//! The store merges at insertion: an edge is identified by its sink
//! (aggregation as in Figure 1) and `(type, source, variable)`, and each
//! occurrence adds to its count, ORs its qualifier flags and joins the
//! set of loops the dependence was observed carried for. `deps_built`
//! counts every pre-merge record, so the merge factor of experiment E9 is
//! `deps_built / merged_len`.
//!
//! Online analysis reads the store through one call,
//! [`DepStore::take_delta`]: the first drain starts tracking and ships
//! everything an analysis reads, each later one the movement since the
//! one before; [`DepStore::catch_up`] is the first without the tracking.
//! A store that is never drained tracks nothing.

use dp_types::{
    ByteReader, ByteWriter, DepEdge, DepFlags, DepType, Dependence, FxHashMap, LoopId, SinkKey,
    SourceLoc, ThreadId, VarId, WireError,
};
use std::collections::{BTreeMap, BTreeSet};

/// Dependence types by [`dtype_code`].
const DTYPES: [DepType; 4] = [DepType::Raw, DepType::War, DepType::Waw, DepType::Init];

fn dtype_code(d: DepType) -> u8 {
    match d {
        DepType::Raw => 0,
        DepType::War => 1,
        DepType::Waw => 2,
        DepType::Init => 3,
    }
}

fn dtype_from(code: u8) -> Result<DepType, WireError> {
    DTYPES.get(code as usize).copied().ok_or(WireError::Invalid("unknown dependence type code"))
}

/// Merge key of an edge under one sink.
pub type EdgeKey = (DepType, SourceLoc, ThreadId, VarId);

/// One touched edge inside an [`AnalysisDelta`]: the edge's identity, the
/// occurrences not yet shipped, and the edge's *cumulative*
/// flag union and carrier set (shipping the full sets makes applying a
/// delta idempotent — OR-ing and union-ing them again changes nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEdge {
    /// Sink of the dependence.
    pub sink: SinkKey,
    /// Merge key under the sink.
    pub key: EdgeKey,
    /// Occurrences not shipped before: those since the previous drain,
    /// or all of them the first time the edge ships.
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

/// What changed since the last drain in the part of a [`DepStore`] the
/// analyses read ([`DepStore::take_delta`]) — the unit the online-analysis
/// subsystem folds into its live state. Deltas from different stores (the
/// parallel engine's per-worker maps) compose by applying each in turn:
/// counts add, flags OR, carrier sets union — the [`DepStore::merge`] rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisDelta {
    /// Relevant edges touched since the last drain, in deterministic
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

/// Dirty-list bookkeeping for delta tracking: which relevant edges (and
/// loops) were touched since the last drain, with the counters already
/// shipped, so the drain ships exact movement without cloning the store.
#[derive(Debug, Clone, Default)]
struct DeltaTrack {
    /// `(arena index, count already shipped)` of every record whose
    /// [`DIRTY`] bit is set, in touch order: the count before the first
    /// touch of this interval, or 0 when that touch made it relevant.
    dirty: Vec<(u32, u64)>,
    /// `loop -> (instances, total_iters)` before the first touch.
    loops: BTreeMap<LoopId, (u64, u64)>,
}

/// Merged payload of one distinct dependence edge, as
/// [`DepStore::dependences`] lends it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeVal<'a> {
    /// Dynamic occurrences merged into this record.
    pub count: u64,
    /// Union of qualifier flags over all occurrences.
    pub flags: DepFlags,
    /// Loops for which at least one occurrence was loop-carried,
    /// ascending and duplicate-free.
    pub carriers: &'a [LoopId],
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

/// `EdgeRec::state`: `carrier` holds the first carrier the edge was seen
/// with.
const HAS_CARRIER: u8 = 1;
/// `EdgeRec::state`: the edge has two or more carriers; all of them
/// (the first included) are in [`DepStore::spill`].
const SPILLED: u8 = 1 << 1;
/// `EdgeRec::state`: the record is on [`DeltaTrack::dirty`].
const DIRTY: u8 = 1 << 2;

/// Free slot of [`DepStore::index`]. No entry equals it: positions stay below `cap·5/8`.
const EMPTY: u32 = u32::MAX;

/// Position bits of a `cap`-slot index entry: the low `log2(cap)`, all 32 from `cap = 2³²`.
fn pos_mask(cap: usize) -> u32 {
    (cap - 1) as u32 // a power of two: past 2³², `cap - 1` truncates to all ones
}

/// The tag beside the position: bits 32 and up of [`EdgeRec::hash`] in the bits
/// [`pos_mask`] leaves. `entry ^ tag` is the position if the tags agree, else above the mask.
fn tag_of(hash: u64, cap: usize) -> u32 {
    (hash >> 32) as u32 & !pos_mask(cap)
}

/// The `(sink, edge)` identity of a record, packed so that the derived
/// order is the `(SinkKey, EdgeKey)` order of the report and the
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Ident {
    /// `sink loc:32 | sink thread:16 | type:8`.
    sink: u64,
    /// `source loc:32 | source thread:16`.
    source: u64,
    var: VarId,
}

/// One distinct dependence edge: identity, merged payload and state
/// bits in 32 bytes, so two records share a cache line and none
/// straddles one.
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    count: u64,
    /// [`SourceLoc::pack`] of the sink location.
    sink_loc: u32,
    /// [`SourceLoc::pack`] of the source location.
    source_loc: u32,
    var: VarId,
    /// First carrier seen; meaningful under [`HAS_CARRIER`].
    carrier: LoopId,
    sink_thread: ThreadId,
    source_thread: ThreadId,
    /// [`dtype_code`] of the dependence type.
    dtype: u8,
    /// [`DepFlags::bits`].
    flags: u8,
    state: u8,
}

const _: () = assert!(std::mem::size_of::<EdgeRec>() == 32);

/// Packs a location for a record. The packed form orders like
/// [`SourceLoc`] itself only while the line fits its 24 bits — the same
/// limit the signature slots, the checkpoint and [`SourceLoc::new`] hold.
#[inline]
fn pack(loc: SourceLoc) -> u32 {
    debug_assert!(loc.line <= dp_types::loc::MAX_LINE, "line {} exceeds 24 bits", loc.line);
    loc.pack()
}

impl EdgeRec {
    /// A record with the given identity and nothing merged into it yet.
    #[inline]
    fn new(sink: SinkKey, (dtype, source_loc, source_thread, var): EdgeKey) -> Self {
        EdgeRec {
            count: 0,
            sink_loc: pack(sink.loc),
            source_loc: pack(source_loc),
            var,
            carrier: 0,
            sink_thread: sink.thread,
            source_thread,
            dtype: dtype_code(dtype),
            flags: 0,
            state: 0,
        }
    }

    #[inline]
    fn same_edge(&self, o: &EdgeRec) -> bool {
        self.sink_loc == o.sink_loc
            && self.source_loc == o.source_loc
            && self.var == o.var
            && self.sink_thread == o.sink_thread
            && self.source_thread == o.source_thread
            && self.dtype == o.dtype
    }

    /// True when an analysis reads this edge ([`DepStore::take_delta`]).
    /// Flags only OR, carriers only join and the identity is fixed, so
    /// an edge that is relevant once stays relevant.
    #[inline]
    fn relevant(&self) -> bool {
        self.state & HAS_CARRIER != 0
            || self.flags & DepFlags::REVERSED.bits() != 0
            || (self.dtype == dtype_code(DepType::Raw) && self.sink_thread != self.source_thread)
    }

    #[inline]
    fn ident(&self) -> Ident {
        Ident {
            sink: (self.sink_loc as u64) << 24 | (self.sink_thread as u64) << 8 | self.dtype as u64,
            source: (self.source_loc as u64) << 16 | self.source_thread as u64,
            var: self.var,
        }
    }

    /// Hash of the identity: one folded 64×64→128 multiply over the two
    /// words that hold everything but the type, which picks one of four
    /// scattered offsets from there.
    #[inline]
    fn hash(&self) -> u64 {
        let a = (self.sink_loc as u64) << 32 | self.source_loc as u64;
        let b =
            (self.var as u64) << 32 | (self.sink_thread as u64) << 16 | self.source_thread as u64;
        let p = ((a ^ 0x9e37_79b9_7f4a_7c15) as u128) * ((b ^ 0xd1b5_4a32_d192_ed03) as u128);
        let t = (self.dtype as u64).wrapping_mul(0x8cb9_2ba7_2f3d_8dd7);
        (p as u64) ^ ((p >> 64) as u64) ^ t
    }

    #[inline]
    fn sink(&self) -> SinkKey {
        SinkKey { loc: SourceLoc::unpack(self.sink_loc), thread: self.sink_thread }
    }

    #[inline]
    fn key(&self) -> EdgeKey {
        let dtype = DTYPES[self.dtype as usize];
        (dtype, SourceLoc::unpack(self.source_loc), self.source_thread, self.var)
    }
}

/// Index slots needed to hold `n` records at load ≤ 5/8.
fn index_cap(n: usize) -> usize {
    (n * 8).div_ceil(5).next_power_of_two().max(8)
}

/// Duplicate-free dependence storage: one arena of 32-byte edge records
/// and one open-addressed index over it (see DESIGN.md, "Dependence
/// store"). [`DepStore::add`] is one hash, one probe and one record
/// update; `(sink, key)` order exists only where it is consumed — the
/// readers walk the arena once [`DepStore::seal`] has sorted it, and sort
/// a permutation when it has not.
#[derive(Debug, Clone, Default)]
pub struct DepStore {
    arena: Vec<EdgeRec>,
    /// `position | tag` entries ([`tag_of`]) hashed by [`EdgeRec::hash`],
    /// linear probing, power-of-two length. Empty while nothing has been
    /// inserted since the last [`DepStore::seal`]; rebuilt by the next insert.
    index: Vec<u32>,
    /// Length of the arena's leading run known to lie in `(sink, key)`
    /// order; the whole arena, once sealed or while records happen to
    /// arrive in order.
    sorted_len: usize,
    /// Full ascending carrier lists of the [`SPILLED`] records. Keyed by
    /// identity, not position, so sealing leaves it alone.
    spill: FxHashMap<Ident, Vec<LoopId>>,
    loops: BTreeMap<LoopId, LoopRecord>,
    deps_built: u64,
    /// `Some` from the first [`DepStore::take_delta`] on: a store that
    /// is never drained tracks nothing.
    delta: Option<DeltaTrack>,
}

impl DepStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one dynamic dependence occurrence.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's record fields
    #[inline]
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
        let i = self.slot(EdgeRec::new(sink, (dtype, source_loc, source_thread, var)));
        self.bump(i, 1, flags, carrier.as_slice());
    }

    /// Position of the record with `probe`'s identity, appending it
    /// (count 0) when the store has none.
    #[inline]
    fn slot(&mut self, probe: EdgeRec) -> usize {
        if self.index.is_empty() {
            self.reindex(index_cap(self.arena.len() + 1));
        }
        let (cap, hash) = (self.index.len(), probe.hash());
        let (pos, tag) = (pos_mask(cap), tag_of(hash, cap));
        let mut at = hash as usize & (cap - 1);
        loop {
            let entry = self.index[at];
            if entry == EMPTY {
                return self.append(at, probe, tag);
            }
            let i = entry ^ tag;
            if i <= pos && self.arena[i as usize].same_edge(&probe) {
                return i as usize;
            }
            at = (at + 1) & (cap - 1);
        }
    }

    /// Appends `rec` and enters it, tagged `tag`, into the index at free
    /// slot `at`. The arena grows by a quarter, not by doubling: it is the
    /// bulk of the store and its slack is counted in
    /// [`DepStore::memory_usage`].
    #[cold]
    fn append(&mut self, at: usize, rec: EdgeRec, tag: u32) -> usize {
        let i = self.arena.len();
        assert!(i < EMPTY as usize, "dependence store is limited to u32::MAX - 1 edges");
        if i == self.sorted_len && self.arena.last().is_none_or(|last| last.ident() < rec.ident()) {
            self.sorted_len += 1;
        }
        if i == self.arena.capacity() {
            self.arena.reserve_exact((i / 4).max(4));
        }
        self.arena.push(rec);
        self.index[at] = i as u32 | tag;
        if (i + 1) * 8 > self.index.len() * 5 {
            self.reindex(self.index.len() * 2);
        }
        i
    }

    /// Rebuilds the index over the whole arena with `cap` slots.
    fn reindex(&mut self, cap: usize) {
        let mask = cap - 1;
        let mut index = vec![EMPTY; cap];
        for (i, rec) in self.arena.iter().enumerate() {
            let hash = rec.hash();
            let mut at = hash as usize & mask;
            while index[at] != EMPTY {
                at = (at + 1) & mask;
            }
            index[at] = i as u32 | tag_of(hash, cap);
        }
        self.index = index;
    }

    /// Merges `count` occurrences into record `i` — the one rule
    /// [`add`](DepStore::add), [`merge`](DepStore::merge) and
    /// [`load`](DepStore::load) share: counts add, flags OR, carriers
    /// union. Delta tracking lists a record only if the bump leaves it relevant.
    #[inline]
    fn bump(&mut self, i: usize, count: u64, flags: DepFlags, carriers: &[LoopId]) {
        let rec = &mut self.arena[i];
        if let Some(track) = self.delta.as_mut() {
            if rec.state & DIRTY == 0 {
                let shipped = rec.relevant();
                if shipped || flags.contains(DepFlags::REVERSED) || !carriers.is_empty() {
                    rec.state |= DIRTY;
                    track.dirty.push((i as u32, if shipped { rec.count } else { 0 }));
                }
            }
        }
        rec.count += count;
        rec.flags |= flags.bits();
        for &l in carriers {
            if rec.state & HAS_CARRIER == 0 {
                rec.state |= HAS_CARRIER;
                rec.carrier = l;
            } else if rec.carrier != l {
                Self::spill_carrier(&mut self.spill, rec, l);
            }
        }
    }

    /// Adds `l` to a record whose first carrier is another loop.
    #[cold]
    fn spill_carrier(spill: &mut FxHashMap<Ident, Vec<LoopId>>, rec: &mut EdgeRec, l: LoopId) {
        let all = spill.entry(rec.ident()).or_insert_with(|| vec![rec.carrier]);
        if let Err(at) = all.binary_search(&l) {
            all.insert(at, l);
        }
        rec.state |= SPILLED;
    }

    /// The carriers of `rec`, ascending.
    fn carriers<'a>(&'a self, rec: &'a EdgeRec) -> &'a [LoopId] {
        if rec.state & SPILLED != 0 {
            &self.spill[&rec.ident()]
        } else if rec.state & HAS_CARRIER != 0 {
            std::slice::from_ref(&rec.carrier)
        } else {
            &[]
        }
    }

    /// Records a finished loop instance.
    pub fn record_loop(&mut self, id: LoopId, begin: SourceLoc, end: SourceLoc, iters: u64) {
        self.bump_loop(id, begin, end, 1, iters);
    }

    fn bump_loop(&mut self, id: LoopId, begin: SourceLoc, end: SourceLoc, inst: u64, iters: u64) {
        let r = self.loops.entry(id).or_insert_with(|| LoopRecord {
            begin,
            end,
            instances: 0,
            total_iters: 0,
        });
        if let Some(track) = self.delta.as_mut() {
            track.loops.entry(id).or_insert((r.instances, r.total_iters));
        }
        r.instances += inst;
        r.total_iters += iters;
    }

    /// Drains the dirty list into an [`AnalysisDelta`] describing every
    /// loop and every *relevant* edge touched since the previous drain.
    /// An edge is relevant when it has a carrier, carries `REVERSED` or
    /// is a cross-thread RAW — what loop classification, race hints and
    /// the communication matrix read; any other edge stays out of every
    /// delta, and one that turns relevant late ships its whole count
    /// then. The first drain starts tracking and ships the
    /// [`catch_up`](Self::catch_up), so online analysis can start
    /// mid-session (or after a checkpoint rehydration) without missing
    /// history, and a store that is never drained pays nothing per edge.
    pub fn take_delta(&mut self) -> AnalysisDelta {
        let Some(track) = self.delta.as_mut() else {
            self.delta = Some(DeltaTrack::default());
            return self.catch_up();
        };
        let (dirty, loops) = (std::mem::take(&mut track.dirty), std::mem::take(&mut track.loops));
        for &(i, _) in &dirty {
            self.arena[i as usize].state &= !DIRTY;
        }
        self.ship(dirty, loops)
    }

    /// What a first drain ships, without starting tracking: a finished
    /// store's whole analysis input, drained before or not.
    pub fn catch_up(&self) -> AnalysisDelta {
        let relevant = self.arena.iter().zip(0..).filter(|(rec, _)| rec.relevant());
        let loops = self.loops.keys().map(|id| (*id, (0, 0)));
        self.ship(relevant.map(|(_, i)| (i, 0)).collect(), loops.collect())
    }

    /// The listed records and loops less what was shipped of each.
    fn ship(&self, dirty: Vec<(u32, u64)>, loops: BTreeMap<LoopId, (u64, u64)>) -> AnalysisDelta {
        let mut keyed: Vec<(Ident, u32, u64)> =
            dirty.iter().map(|&(i, base)| (self.arena[i as usize].ident(), i, base)).collect();
        keyed.sort_unstable();
        let edges = keyed.into_iter().map(|(_, i, baseline)| {
            let rec = &self.arena[i as usize];
            DeltaEdge {
                sink: rec.sink(),
                key: rec.key(),
                count_delta: rec.count - baseline,
                flags: DepFlags::from_bits_truncate(rec.flags),
                carriers: self.carriers(rec).iter().copied().collect(),
            }
        });
        let loops = loops.into_iter().filter_map(|(id, (base_inst, base_iters))| {
            let r = self.loops.get(&id)?;
            let (instances_delta, iters_delta) =
                (r.instances - base_inst, r.total_iters - base_iters);
            Some(DeltaLoop { id, begin: r.begin, end: r.end, instances_delta, iters_delta })
        });
        AnalysisDelta { edges: edges.collect(), loops: loops.collect() }
    }

    /// Total dynamic dependences recorded (pre-merge) — the numerator of
    /// the E9 merge factor.
    pub fn deps_built(&self) -> u64 {
        self.deps_built
    }

    /// Number of distinct (merged) dependences.
    pub fn merged_len(&self) -> u64 {
        self.arena.len() as u64
    }

    /// True when the arena lies in `(sink, key)` order.
    fn is_sorted(&self) -> bool {
        self.sorted_len == self.arena.len()
    }

    /// Sorts the arena into `(sink, key)` order, so that every reader
    /// walks it as it lies. Engines call this when they finish and
    /// before they write a checkpoint. The records move, so the index is
    /// dropped (the next insert rebuilds it) and the dirty list follows
    /// them by identity.
    pub fn seal(&mut self) {
        if !self.is_sorted() {
            let dirty = self.delta.as_mut().map_or(&mut [][..], |t| &mut t.dirty[..]);
            let listed: Vec<Ident> =
                dirty.iter().map(|&(i, _)| self.arena[i as usize].ident()).collect();
            if self.sorted_len * 2 >= self.arena.len() {
                // Sealed before (the last checkpoint) and grown a little
                // since: the run-detecting sort merges the tail in.
                self.arena.sort_by_key(EdgeRec::ident);
            } else {
                self.arena.sort_unstable_by_key(EdgeRec::ident);
            }
            for ((i, _), id) in dirty.iter_mut().zip(listed) {
                let at = self.arena.binary_search_by_key(&id, EdgeRec::ident);
                *i = at.expect("a listed record is in the arena") as u32;
            }
            self.sorted_len = self.arena.len();
            self.index = Vec::new();
        }
    }

    /// The records in `(sink, key)` order: as they lie once sealed, else
    /// through a permutation sorted beside their keys (a sort that fetches
    /// each key through the arena misses the cache on every comparison).
    fn in_order(&self) -> impl Iterator<Item = &EdgeRec> + '_ {
        let order = (!self.is_sorted()).then(|| {
            let mut keyed: Vec<(Ident, u32)> =
                self.arena.iter().zip(0..).map(|(rec, i)| (rec.ident(), i)).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, i)| i).collect::<Vec<u32>>()
        });
        (0..self.arena.len()).map(move |n| &self.arena[order.as_ref().map_or(n, |o| o[n] as usize)])
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
    /// evaluation compares), in `(sink, key)` order.
    pub fn dependences(&self) -> impl Iterator<Item = (Dependence, EdgeVal<'_>)> + '_ {
        self.in_order().map(move |rec| {
            let (dtype, source_loc, source_thread, var) = rec.key();
            let flags = DepFlags::from_bits_truncate(rec.flags);
            let carriers = self.carriers(rec);
            (
                Dependence {
                    sink: rec.sink(),
                    edge: DepEdge {
                        dtype,
                        source_loc,
                        source_thread,
                        var,
                        carrier: carriers.first().copied(),
                        flags,
                    },
                },
                EdgeVal { count: rec.count, flags, carriers },
            )
        })
    }

    /// Merges another store into this one (the final merge of the local
    /// worker maps, Figure 2: "we merge the data from all local maps into
    /// a global map. This step incurs only minor overhead since the local
    /// maps are free of duplicates").
    pub fn merge(&mut self, other: DepStore) {
        for rec in &other.arena {
            let i = self.slot(EdgeRec { count: 0, carrier: 0, flags: 0, state: 0, ..*rec });
            let flags = DepFlags::from_bits_truncate(rec.flags);
            self.bump(i, rec.count, flags, other.carriers(rec));
        }
        for (id, r) in other.loops {
            self.bump_loop(id, r.begin, r.end, r.instances, r.total_iters);
        }
        self.deps_built += other.deps_built;
    }

    /// Serializes the complete store — merged dependences, loop records
    /// and the pre-merge counters — for a checkpoint. The edges go out in
    /// `(sink, key)` order, grouped by sink, so identical stores
    /// serialize to identical bytes.
    pub fn save(&self, out: &mut ByteWriter) {
        let recs: Vec<&EdgeRec> = self.in_order().collect();
        let by_sink =
            || recs.chunk_by(|a, b| (a.sink_loc, a.sink_thread) == (b.sink_loc, b.sink_thread));
        out.u64(self.deps_built);
        out.u64(recs.len() as u64);
        out.u64(by_sink().count() as u64);
        for edges in by_sink() {
            out.u32(edges[0].sink_loc);
            out.u16(edges[0].sink_thread);
            out.u64(edges.len() as u64);
            for rec in edges {
                out.u8(rec.dtype);
                out.u32(rec.source_loc);
                out.u16(rec.source_thread);
                out.u32(rec.var);
                out.u64(rec.count);
                out.u8(rec.flags);
                let carriers = self.carriers(rec);
                out.u32(carriers.len() as u32);
                for l in carriers {
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

    /// Rebuilds a store previously produced by [`DepStore::save`]. Only
    /// what `save` can have written is accepted: edges in strictly
    /// ascending `(sink, key)` order (so none repeats), carriers
    /// strictly ascending, and a header that counts the edges present.
    pub fn load(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let mut s = DepStore { deps_built: r.u64()?, ..DepStore::default() };
        let distinct = r.u64()?;
        let nsinks = r.u64()?;
        let mut carriers: Vec<LoopId> = Vec::new();
        for _ in 0..nsinks {
            let sink = SinkKey { loc: SourceLoc::unpack(r.u32()?), thread: r.u16()? };
            let nedges = r.u64()?;
            for _ in 0..nedges {
                let dtype = dtype_from(r.u8()?)?;
                let source_loc = SourceLoc::unpack(r.u32()?);
                let (source_thread, var) = (r.u16()?, r.u32()?);
                let edges = s.arena.len();
                let i = s.slot(EdgeRec::new(sink, (dtype, source_loc, source_thread, var)));
                if s.arena.len() == edges || !s.is_sorted() {
                    return Err(WireError::Invalid("dependence edges repeat or are out of order"));
                }
                let count = r.u64()?;
                let flags = DepFlags::from_bits_truncate(r.u8()?);
                carriers.clear();
                for _ in 0..r.u32()? {
                    let l = r.u32()?;
                    if carriers.last().is_some_and(|&last| last >= l) {
                        return Err(WireError::Invalid("carriers repeat or are out of order"));
                    }
                    carriers.push(l);
                }
                s.bump(i, count, flags, &carriers);
            }
        }
        if s.merged_len() != distinct {
            return Err(WireError::Invalid("dependence count disagrees with the edges present"));
        }
        let nloops = r.u64()?;
        for _ in 0..nloops {
            let id = r.u32()?;
            s.loops.insert(
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
        Ok(s)
    }

    /// Heap footprint for the memory accounting: what the arena, the
    /// index, the spill map and the dirty list have *allocated* (their
    /// capacities), plus the per-loop maps at a B-tree node's share per
    /// entry.
    pub fn memory_usage(&self) -> usize {
        use std::mem::size_of;
        let spilled: usize = self.spill.values().map(|v| v.capacity() * size_of::<LoopId>()).sum();
        let (dirty, dirty_loops) =
            self.delta.as_ref().map_or((0, 0), |t| (t.dirty.capacity(), t.loops.len()));
        self.arena.capacity() * size_of::<EdgeRec>()
            + self.index.capacity() * size_of::<u32>()
            + self.spill.capacity() * (size_of::<(Ident, Vec<LoopId>)>() + 1)
            + spilled
            + dirty * size_of::<(u32, u64)>()
            + self.loops.len() * (size_of::<LoopRecord>() + 16)
            + dirty_loops * (size_of::<(LoopId, (u64, u64))>() + 16)
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
        assert_eq!(s.dependences().next().unwrap().1.count, 1000);
    }

    #[test]
    fn distinct_edges_kept_apart() {
        let mut s = DepStore::new();
        s.add(sink(63), DepType::Raw, loc(1, 59), 0, 4, DepFlags::empty(), None);
        s.add(sink(63), DepType::Raw, loc(1, 67), 0, 4, DepFlags::empty(), None);
        s.add(sink(63), DepType::War, loc(1, 59), 0, 4, DepFlags::empty(), None);
        s.add(sink(64), DepType::Raw, loc(1, 59), 0, 4, DepFlags::empty(), None);
        assert_eq!(s.merged_len(), 4);
        let sinks: BTreeSet<SinkKey> = s.dependences().map(|(d, _)| d.sink).collect();
        assert_eq!(sinks.len(), 2);
    }

    #[test]
    fn flags_and_carriers_accumulate() {
        let mut s = DepStore::new();
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::INTRA_ITERATION, None);
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::LOOP_CARRIED, Some(3));
        s.add(sink(5), DepType::Raw, loc(1, 5), 0, 1, DepFlags::LOOP_CARRIED, Some(7));
        let (d, v) = s.dependences().next().unwrap();
        assert!(v.flags.contains(DepFlags::LOOP_CARRIED | DepFlags::INTRA_ITERATION));
        assert_eq!(v.carriers, [3, 7]);
        assert_eq!(d.edge.carrier, Some(3));
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
        let (_, v) = a.dependences().next().unwrap();
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
        assert_eq!(t.dependences().collect::<Vec<_>>(), s.dependences().collect::<Vec<_>>());
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

    /// A two-edge store under one sink, saved.
    fn two_edge_blob() -> Vec<u8> {
        let mut s = DepStore::new();
        s.add(sink(7), DepType::Raw, loc(1, 3), 0, 1, DepFlags::empty(), None);
        s.add(sink(7), DepType::Raw, loc(1, 4), 0, 1, DepFlags::empty(), None);
        let mut out = ByteWriter::new();
        s.save(&mut out);
        out.into_bytes()
    }

    #[test]
    fn load_rejects_a_header_that_miscounts_the_edges() {
        let mut bytes = two_edge_blob();
        assert!(DepStore::load(&bytes).is_ok());
        assert_eq!(bytes[8..16], 2u64.to_le_bytes(), "the distinct-edge count");
        bytes[8] = 3;
        assert!(DepStore::load(&bytes).is_err());
    }

    #[test]
    fn load_rejects_a_repeated_edge() {
        let mut bytes = two_edge_blob();
        // Header 24 bytes, sink 14; each carrier-less edge is 24 bytes
        // and starts type:1, source loc:4.
        let (first, second) = (38, 62);
        assert_eq!(bytes[second + 1], 4, "the second edge's source line");
        bytes.copy_within(first..first + 24, second);
        assert!(DepStore::load(&bytes).is_err());
    }

    #[test]
    fn memory_usage_counts_what_is_allocated() {
        assert!(DepStore::new().memory_usage() < 256);
        let mut s = DepStore::new();
        for n in 0..100_000u32 {
            let at = SinkKey { loc: loc(1, n % 400 + 1), thread: 0 };
            s.add(at, DepType::Raw, loc(1, n / 400 + 1), 0, 1, DepFlags::empty(), None);
        }
        assert_eq!(s.merged_len(), 100_000);
        let allocated = s.arena.capacity() * 32 + s.index.len() * 4;
        assert_eq!(s.memory_usage(), allocated);
        assert!(s.memory_usage() <= 64 * 100_000, "{} bytes", s.memory_usage());
        // Carrier lists and the dirty list are counted once they exist.
        let before = s.memory_usage();
        s.take_delta();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), Some(1));
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), Some(2));
        assert!(s.memory_usage() > before);
    }

    #[test]
    fn probes_stay_short_on_a_grid_of_lines() {
        // Real keys are low-entropy: a few hundred lines of one file on
        // either end. The index must still scatter them.
        let mut s = DepStore::new();
        for n in 0..90_000u32 {
            let at = SinkKey { loc: loc(1, n % 300 + 1), thread: 0 };
            s.add(at, DepType::Raw, loc(1, n / 300 + 1), 0, 7, DepFlags::empty(), None);
        }
        let (mask, pos) = (s.index.len() - 1, pos_mask(s.index.len()));
        let home = |entry: u32| s.arena[(entry & pos) as usize].hash() as usize;
        let displaced: usize = (0..s.index.len())
            .filter(|&at| s.index[at] != EMPTY)
            .map(|at| at.wrapping_sub(home(s.index[at])) & mask)
            .sum();
        // Linear probing at load ≤ 5/8 displaces under one slot on average.
        assert!(
            displaced < s.arena.len() * 3 / 2,
            "{displaced} slots over {} edges",
            s.arena.len()
        );
    }

    #[test]
    fn sealing_sorts_in_place_and_keeps_everything_reachable() {
        let mut s = DepStore::new();
        s.take_delta();
        for line in (1..=40).rev() {
            s.add(sink(line), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), Some(line % 3));
            s.add(sink(line), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), Some(5));
        }
        let before: Vec<_> =
            s.dependences().map(|(d, v)| (d, v.count, v.carriers.to_vec())).collect();
        s.seal();
        assert!(s.is_sorted() && s.index.is_empty());
        let after: Vec<_> =
            s.dependences().map(|(d, v)| (d, v.count, v.carriers.to_vec())).collect();
        assert_eq!(before, after);
        // The dirty list followed the records; an add after sealing finds
        // its edge again instead of duplicating it.
        s.add(sink(40), DepType::Raw, loc(1, 1), 0, 1, DepFlags::empty(), None);
        assert_eq!(s.merged_len(), 40);
        let d = s.take_delta();
        assert_eq!(d.edges.len(), 40);
        assert_eq!(d.edges.iter().map(|e| e.count_delta).sum::<u64>(), 81);
        assert_eq!(d.edges[39].sink, sink(40));
        assert_eq!(d.edges[39].count_delta, 3);
    }

    /// Folds a delta into a plain store using the merge rules (counts
    /// add, flags OR, carriers union) — the reference consumer the
    /// online-analysis subsystem mirrors.
    fn fold(target: &mut DepStore, delta: &AnalysisDelta) {
        for e in &delta.edges {
            let i = target.slot(EdgeRec::new(e.sink, e.key));
            let carriers: Vec<LoopId> = e.carriers.iter().copied().collect();
            target.bump(i, e.count_delta, e.flags, &carriers);
        }
        for l in &delta.loops {
            target.bump_loop(l.id, l.begin, l.end, l.instances_delta, l.iters_delta);
        }
    }

    type Snapshot<'a> = (Vec<(Dependence, EdgeVal<'a>)>, Vec<(LoopId, LoopRecord)>);

    fn snapshot(s: &DepStore) -> Snapshot<'_> {
        (s.dependences().collect(), s.loops().map(|(id, r)| (*id, r.clone())).collect())
    }

    /// The sub-store the deltas promise to reconstruct: every loop record
    /// and the edges some analysis reads, the predicate spelled on the
    /// public view rather than on the record bits.
    fn relevant(s: &DepStore) -> Snapshot<'_> {
        let (mut edges, loops) = snapshot(s);
        edges.retain(|(d, v)| {
            !v.carriers.is_empty()
                || v.flags.contains(DepFlags::REVERSED)
                || (d.edge.dtype == DepType::Raw && d.edge.source_thread != d.sink.thread)
        });
        (edges, loops)
    }

    #[test]
    fn delta_tracks_exact_movement() {
        let mut s = DepStore::new();
        assert!(s.take_delta().is_empty(), "an empty store catches up on nothing");
        assert!(s.delta.is_some(), "the first drain starts tracking");
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
    fn first_drain_ships_the_catchup_at_a_zero_baseline() {
        let mut s = DepStore::new();
        for _ in 0..3 {
            s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(2));
        }
        s.add(sink(2), DepType::Waw, loc(1, 2), 1, 7, DepFlags::REVERSED, None);
        // Read by no analysis: in the store, in no delta.
        s.add(sink(3), DepType::Waw, loc(1, 3), 0, 7, DepFlags::INTRA_ITERATION, None);
        s.record_loop(2, loc(1, 1), loc(1, 9), 4);
        s.record_loop(2, loc(1, 1), loc(1, 9), 5);
        assert!(s.delta.is_none(), "a store never drained tracks nothing");
        let d = s.take_delta();
        let shipped: Vec<_> = d.edges.iter().map(|e| (e.sink, e.count_delta)).collect();
        assert_eq!(shipped, vec![(sink(1), 3), (sink(2), 1)]);
        assert_eq!(d.edges[0].carriers.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert!(d.edges[1].flags.contains(DepFlags::REVERSED));
        let l = &d.loops[..];
        assert_eq!((l.len(), l[0].id, l[0].instances_delta, l[0].iters_delta), (1, 2, 2, 9));
        // From here on, only movement ships.
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        s.add(sink(3), DepType::Waw, loc(1, 3), 0, 7, DepFlags::empty(), None);
        let d = s.take_delta();
        assert_eq!(d.edges.len(), 1);
        assert_eq!((d.edges[0].sink, d.edges[0].count_delta), (sink(1), 1));
        assert!(d.loops.is_empty());
    }

    #[test]
    fn first_drain_mid_session_ships_full_catchup() {
        let mut s = DepStore::new();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(2));
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        // Read by no analysis: in the store, in no delta.
        s.add(sink(3), DepType::Waw, loc(1, 3), 0, 7, DepFlags::INTRA_ITERATION, None);
        s.record_loop(2, loc(1, 1), loc(1, 9), 4);
        s.add(sink(2), DepType::Raw, loc(1, 5), 1, 8, DepFlags::empty(), None);
        // A late first drain: relevant history must still be shipped.
        let mut mirror = DepStore::new();
        fold(&mut mirror, &s.take_delta());
        assert_eq!(snapshot(&mirror), relevant(&s));
        assert_eq!((mirror.merged_len(), s.merged_len()), (2, 3));
        s.add(sink(2), DepType::Raw, loc(1, 5), 1, 8, DepFlags::empty(), None);
        s.add(sink(3), DepType::Waw, loc(1, 3), 0, 7, DepFlags::empty(), None);
        let d = s.take_delta();
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].count_delta, 1);
        fold(&mut mirror, &d);
        assert_eq!(snapshot(&mirror), relevant(&s));
    }

    #[test]
    fn irrelevant_edges_never_reach_the_dirty_list() {
        let listed = |s: &DepStore| s.delta.as_ref().expect("tracking is on").dirty.capacity();
        let mut s = DepStore::new();
        let busy = |s: &mut DepStore| {
            for n in 0..1000u32 {
                let flags = DepFlags::from_bits_truncate(n as u8 & 3); // never REVERSED
                let (dtype, source) = (DTYPES[n as usize % 4], loc(1, n % 7 + 1));
                s.add(sink(n % 50 + 1), dtype, source, 0, 1, flags, None);
            }
        };
        busy(&mut s);
        assert!(s.take_delta().is_empty(), "a catch-up over irrelevant edges ships nothing");
        busy(&mut s);
        s.seal();
        busy(&mut s);
        assert_eq!(listed(&s), 0, "the dirty list never allocated");
        assert!(s.take_delta().is_empty());
        // One occurrence with a carrier: the edge ships whole, the rest stay out.
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 1, DepFlags::LOOP_CARRIED, Some(4));
        let d = s.take_delta();
        let whole = s.dependences().find(|(_, v)| !v.carriers.is_empty()).expect("the edge").1;
        assert_eq!(d.edges.len(), 1);
        assert_eq!(d.edges[0].count_delta, whole.count);
        assert!(whole.count > 1 && (s.merged_len() as usize) > d.edges.len());
    }

    #[test]
    fn folded_deltas_reconstruct_merged_stores() {
        // Deltas taken across merges of other stores (the parallel
        // engine's final merge) still fold into an identical mirror.
        let mut s = DepStore::new();
        s.take_delta();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        let mut mirror = DepStore::new();
        fold(&mut mirror, &s.take_delta());
        let mut other = DepStore::new();
        other.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(9));
        other.add(sink(3), DepType::Waw, loc(2, 2), 1, 4, DepFlags::REVERSED, None);
        other.record_loop(9, loc(1, 1), loc(1, 3), 6);
        s.merge(other);
        fold(&mut mirror, &s.take_delta());
        assert_eq!(snapshot(&mirror), relevant(&s));
        assert_eq!(mirror.merged_len(), s.merged_len(), "the merge made every edge relevant");
    }

    #[test]
    fn delta_is_not_persisted_by_save() {
        let mut s = DepStore::new();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::LOOP_CARRIED, Some(1));
        s.take_delta();
        s.add(sink(1), DepType::Raw, loc(1, 1), 0, 7, DepFlags::empty(), None);
        let mut out = ByteWriter::new();
        s.save(&mut out);
        let mut t = DepStore::load(&out.into_bytes()).unwrap();
        assert!(t.delta.is_none(), "a rehydrated store tracks nothing until drained");
        // Its first drain is a catch-up; the original ships only movement,
        // though its catch-up, drained or not, is whole.
        assert_eq!(s.catch_up(), t.take_delta());
        assert_eq!(s.catch_up().edges[0].count_delta, 2);
        assert_eq!(s.take_delta().edges[0].count_delta, 1);
    }

    #[test]
    fn an_entry_splits_into_position_and_tag() {
        let hash = 0xdead_beef_0123_4567;
        assert_eq!((pos_mask(8), tag_of(hash, 8)), (7, 0xdead_bee8));
        let mid = 1 << 18;
        assert_eq!((pos_mask(mid), tag_of(hash, mid)), (0x3_ffff, 0xdeac_0000));
        // From 2³² slots on the position takes every bit and the tag none.
        for cap in [1 << 32, 1 << 33] {
            assert_eq!((pos_mask(cap), tag_of(hash, cap)), (u32::MAX, 0));
        }
        // The last position a load of 5/8 reaches, under the fullest tag,
        // is still not EMPTY (past 2³² slots `append`'s limit holds it).
        for cap in [8, mid, 1 << 32] {
            assert_ne!((cap * 5 / 8 - 1) as u32 | tag_of(u64::MAX, cap), EMPTY);
        }
    }

    #[test]
    fn edges_that_share_a_tag_keep_their_own_records() {
        // Planted: bits 35 and up of the two hashes agree, so the pair has
        // one tag at every index size, and so do bits 0–2, the home slot
        // at 8 slots; the identities differ in both lines.
        let (a, b) = ((sink(414), loc(1, 1029)), (sink(592), loc(1, 904)));
        let hash = |(at, source)| EdgeRec::new(at, (DepType::Raw, source, 0, 7)).hash();
        let (ha, hb) = (hash(a), hash(b));
        assert_eq!((ha >> 35, ha & 7), (hb >> 35, hb & 7), "the pair collides");
        let add = |s: &mut DepStore, (at, source)| {
            s.add(at, DepType::Raw, source, 0, 7, DepFlags::empty(), None);
        };
        let count = |s: &DepStore, (at, source): (SinkKey, SourceLoc)| {
            let mut own =
                s.dependences().filter(|(d, _)| (d.sink, d.edge.source_loc) == (at, source));
            own.next().expect("the edge has a record").1.count
        };
        let mut s = DepStore::new();
        for _ in 0..2 {
            add(&mut s, a);
            add(&mut s, b);
        }
        assert_eq!((s.index.len(), s.merged_len()), (8, 2));
        // Through six reindexes: the tags stay equal, the records apart.
        for n in 1..=500 {
            s.add(sink(3000), DepType::War, loc(2, n), 0, 1, DepFlags::empty(), None);
        }
        assert_eq!(s.index.len(), 1024);
        assert_eq!(tag_of(ha, 1024), tag_of(hb, 1024));
        add(&mut s, b);
        add(&mut s, a);
        assert_eq!(s.merged_len(), 502);
        assert_eq!((count(&s, a), count(&s, b)), (3, 3));
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
