//! Algorithm 1 — signature-based data-dependence extraction.
//!
//! The pseudocode of the paper, verbatim in structure:
//!
//! ```text
//! for each memory access c:
//!   index = hash(c)
//!   if c is write:
//!     if sig_write[index] empty:        c is initialization (INIT)
//!     else:
//!       if sig_read[index] not empty:   buildWAR()
//!       buildWAW()
//!     sig_write[index] = source line of c
//!   else:
//!     if sig_write[index] not empty:    buildRAW()
//!     sig_read[index] = source line of c
//! ```
//!
//! RAR dependences are deliberately not built ("we ignore read-after-read
//! dependences because in most program analyses they are not required").
//!
//! The state is generic over [`AccessStore`], so the same function is the
//! serial profiler, each parallel worker, the perfect-signature baseline
//! and the shadow-memory/hash-table comparators. `sig_read[index]` and
//! `sig_write[index]` share the one hash, so the two signatures are held
//! as one [`PairStore`] and an access is one probe of it
//! ([`PairStore::record`]): both entries come back, and the side the
//! access writes is stored in place.
//!
//! An entry's clock is its epoch, and its timestamp only in an engine that
//! checks reversal on a store that keeps timestamps (DESIGN.md "Epoch clock").

use crate::exectree::{ExecNodeKind, ExecTree};
use crate::loops::{CarrierInfo, LoopTracker};
use crate::store::DepStore;
use dp_metrics::SigGauges;
use dp_queue::Chunk;
use dp_sig::{AccessStore, PairStore, Side, SigEntry};
use dp_types::{
    AccessKind, Address, ByteReader, ByteWriter, DepFlags, DepType, LoopId, MemAccess, SinkKey,
    SourceLoc, Timestamp, TraceEvent, WireError,
};

/// Counters every engine reports (merged into
/// [`ProfileStats`](crate::ProfileStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgoCounters {
    /// Total events processed.
    pub events: u64,
    /// Memory accesses processed.
    pub accesses: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Dependences flagged REVERSED (potential data races).
    pub reversed: u64,
    /// Addresses removed by variable-lifetime analysis.
    pub lifetime_removals: u64,
}

/// Behaviour switches for [`AlgoState`].
#[derive(Debug, Clone, Copy)]
pub struct AlgoOptions {
    /// Enable loop-carried classification (requires [`Slot::HAS_CLOCK`](dp_sig::Slot::HAS_CLOCK)).
    pub track_carried: bool,
    /// Enable the Section V-B timestamp-reversal race signal (multi-threaded
    /// targets only): the one setting that keeps a store's timestamps.
    pub check_reversal: bool,
    /// Record loop BGN/END/iteration statistics. In the parallel engine
    /// loop events are broadcast to every worker for carried
    /// classification, so only one worker records them to avoid inflated
    /// counts.
    pub record_loops: bool,
    /// Set-based profiling (Section VI-B1): report dependences between
    /// code *sections* of `2^section_shift` lines instead of statements.
    /// The paper names this as a way to trade generality for speed and
    /// balance; 0 = full statement-level detail (the paper's choice).
    pub section_shift: u8,
}

impl Default for AlgoOptions {
    fn default() -> Self {
        AlgoOptions {
            track_carried: true,
            check_reversal: false,
            record_loops: true,
            section_shift: 0,
        }
    }
}

/// Formula 2 in reverse: from a signature's observed occupancy, estimate
/// how many distinct addresses were inserted (`E[occ] = m(1 − (1−1/m)ⁿ)`
/// solved for `n`), then feed that back through
/// [`dp_sig::predicted_fpr`]. Exact stores (`m == 0`) report 0 — they
/// have no false positives by construction.
fn gauge_fpr_pct(m: usize, occupied: usize) -> f64 {
    if m == 0 || occupied == 0 {
        return 0.0;
    }
    if occupied >= m {
        return 100.0;
    }
    let frac = occupied as f64 / m as f64;
    let n = ((1.0 - frac).ln() / (1.0 - 1.0 / m as f64).ln()).ceil() as u64;
    dp_sig::predicted_fpr(m, n) * 100.0
}

/// How many events ahead of the one being retired the signature cell is
/// prefetched: far enough to cover a miss into a slot array of tens of
/// MiB, near enough that the lines are still in L1 when retired. Chosen
/// by the sweep recorded in DESIGN.md "Lookahead feed".
const LOOKAHEAD: usize = 8;

/// The epoch at which the clock of a store without timestamps (32-bit
/// epochs) is renumbered; 8 bits in this crate's tests, so that they do.
const EPOCH_LIMIT: u64 = if cfg!(test) { u8::MAX as u64 } else { u32::MAX as u64 };

#[inline]
fn coarsen(loc: SourceLoc, shift: u8) -> SourceLoc {
    if shift == 0 {
        loc
    } else {
        SourceLoc::new(loc.file, (loc.line >> shift) << shift)
    }
}

/// Dependence-extraction state: the read and the write signature (as one
/// pair store), a loop tracker and the local (duplicate-free) dependence
/// map.
pub struct AlgoState<S: AccessStore> {
    sigs: S::Pair,
    /// The local dependence map ("thread-local map" in Figure 2).
    pub store: DepStore,
    /// The local dynamic execution tree (Section VIII representation).
    pub exec_tree: ExecTree,
    loops: LoopTracker,
    /// Loop boundaries seen, renumbered: the epoch clock.
    epoch: u64,
    counters: AlgoCounters,
    track_carried: bool,
    check_reversal: bool,
    record_loops: bool,
    section_shift: u8,
}

impl<S: AccessStore> AlgoState<S> {
    /// Creates the state from the two signatures, joined into one pair
    /// store ([`AccessStore::pair`]).
    pub fn new(sig_read: S, sig_write: S, opts: AlgoOptions) -> Self {
        AlgoState {
            sigs: S::pair(sig_read, sig_write),
            store: DepStore::new(),
            exec_tree: ExecTree::new(),
            loops: LoopTracker::new(),
            epoch: 0,
            counters: AlgoCounters::default(),
            track_carried: opts.track_carried && S::HAS_CLOCK,
            check_reversal: opts.check_reversal && S::HAS_TS,
            record_loops: opts.record_loops,
            section_shift: opts.section_shift,
        }
    }

    /// Entries and loop marks carry epochs unless reversal is checked on timestamps.
    #[inline]
    fn epochs(&self) -> bool {
        S::HAS_CLOCK && !(S::HAS_TS && self.check_reversal)
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AlgoCounters {
        self.counters
    }

    /// Processes a chunk of events strictly in order, each record read
    /// where it lies, touching the signature cell of event `i + 8`
    /// (`LOOKAHEAD`) while it retires event `i`, so the slot array's cache
    /// miss overlaps the work on the events before it. Same state
    /// afterwards as [`AlgoState::on_event`] on each in turn.
    pub fn on_chunk(&mut self, run: &Chunk) {
        let n = run.len();
        for i in 0..n.min(LOOKAHEAD) {
            self.prefetch(run.access_addr(i));
        }
        for i in 0..n {
            if i + LOOKAHEAD < n {
                self.prefetch(run.access_addr(i + LOOKAHEAD));
            }
            match run.access(i) {
                Some(a) => self.on_access(&a),
                None => self.on_event(&run.event(i)),
            }
        }
    }

    /// Starts loading the signature cell of an access's `addr`; a hint ([`PairStore::prefetch`]).
    #[inline]
    fn prefetch(&self, addr: Option<Address>) {
        if let Some(addr) = addr {
            self.sigs.prefetch(addr);
        }
    }

    /// Processes one event, immediately: when this returns, every reader
    /// of the state (`store`, gauges, checkpoints) sees the event. The
    /// lookahead lives in [`AlgoState::on_chunk`], never here.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Access(ref a) => return self.on_access(a),
            TraceEvent::LoopBegin { loop_id, loc, thread, ts } => {
                let mark = self.mark(ts);
                self.loops.begin(thread, loop_id, loc, mark);
                if self.record_loops {
                    self.exec_tree.enter(thread, ExecNodeKind::Loop(loop_id));
                }
            }
            TraceEvent::LoopIter { loop_id, thread, ts, .. } => {
                let mark = self.mark(ts);
                self.loops.iter(thread, loop_id, mark);
            }
            TraceEvent::LoopEnd { loop_id, loc, iters, thread, .. } => {
                if let Some((begin, _seen)) = self.loops.end(thread, loop_id, loc) {
                    // `iters` from the event is authoritative: front-ends
                    // may elide per-iteration events (the MT engine does).
                    if self.record_loops {
                        self.store.record_loop(loop_id, begin, loc, iters);
                    }
                }
                if self.record_loops {
                    self.exec_tree.exit(thread, ExecNodeKind::Loop(loop_id));
                }
            }
            TraceEvent::CallBegin { func, thread, .. } if self.record_loops => {
                self.exec_tree.enter(thread, ExecNodeKind::Call(func))
            }
            TraceEvent::CallEnd { func, thread, .. } if self.record_loops => {
                self.exec_tree.exit(thread, ExecNodeKind::Call(func))
            }
            TraceEvent::CallBegin { .. } | TraceEvent::CallEnd { .. } => {}
            TraceEvent::Dealloc { base, len, .. } => {
                for i in 0..len {
                    self.sigs.remove(base + i * 8);
                }
                self.counters.lifetime_removals += len;
            }
        }
        self.counters.events += 1;
    }

    /// The clock a loop boundary at `ts` marks: `ts`, or the next epoch,
    /// renumbered first once the last is spent.
    fn mark(&mut self, ts: Timestamp) -> Timestamp {
        if !self.epochs() {
            return ts;
        }
        if self.epoch == EPOCH_LIMIT && !S::HAS_TS {
            let (rank, top) = self.loops.renumber();
            self.sigs.reclock(&rank);
            self.epoch = top;
        }
        self.epoch += 1;
        self.epoch
    }

    #[inline(always)]
    fn on_access(&mut self, a: &MemAccess) {
        self.counters.events += 1;
        self.counters.accesses += 1;
        let clock = if self.epochs() { self.epoch } else { a.ts };
        let entry = SigEntry::new(a.loc, a.thread, clock);
        match a.kind {
            AccessKind::Write => {
                self.counters.writes += 1;
                let last = self.sigs.record(Side::Write, a.addr, entry);
                match last.write {
                    None => {
                        // First write: INIT record (printed as {INIT *}).
                        let loc = coarsen(a.loc, self.section_shift);
                        self.store.add(
                            SinkKey { loc, thread: a.thread },
                            DepType::Init,
                            loc,
                            a.thread,
                            a.var,
                            DepFlags::empty(),
                            None,
                        );
                    }
                    Some(w) => {
                        if let Some(r) = last.read {
                            self.build(DepType::War, a, &r);
                        }
                        self.build(DepType::Waw, a, &w);
                    }
                }
            }
            AccessKind::Read => {
                self.counters.reads += 1;
                if let Some(w) = self.sigs.record(Side::Read, a.addr, entry).write {
                    self.build(DepType::Raw, a, &w);
                }
            }
        }
    }

    fn build(&mut self, dtype: DepType, sink: &MemAccess, source: &SigEntry) {
        let mut flags = DepFlags::empty();
        let mut carrier: Option<LoopId> = None;
        if self.track_carried {
            match self.loops.classify(sink.thread, source.ts) {
                CarrierInfo::IntraIteration => flags |= DepFlags::INTRA_ITERATION,
                CarrierInfo::Carried(l) => {
                    flags |= DepFlags::LOOP_CARRIED;
                    carrier = Some(l);
                }
                CarrierInfo::FromOutside => {}
            }
        }
        if self.check_reversal && source.ts > sink.ts {
            // The source's timestamp is *later* than the sink's: the
            // access/push pair was not atomic — evidence of a potential
            // data race (Section V-B).
            flags |= DepFlags::REVERSED;
            self.counters.reversed += 1;
        }
        self.store.add(
            SinkKey { loc: coarsen(sink.loc, self.section_shift), thread: sink.thread },
            dtype,
            coarsen(source.loc, self.section_shift),
            source.thread,
            sink.var,
            flags,
            carrier,
        );
    }

    /// Extracts the signature state of `addr` (redistribution: the old
    /// owner's slots migrate to the new owner, Section IV-A).
    pub fn extract(&mut self, addr: u64) -> (Option<SigEntry>, Option<SigEntry>) {
        let [r, w] = self.sigs.get(addr);
        self.sigs.remove(addr);
        (r, w)
    }

    /// Injects migrated signature state (target side of redistribution).
    pub fn inject(&mut self, addr: u64, read: Option<SigEntry>, write: Option<SigEntry>) {
        for (side, entry) in Side::BOTH.into_iter().zip([read, write]) {
            if let Some(e) = entry {
                self.sigs.put(side, addr, e);
            }
        }
    }

    /// Bytes held by the signatures plus trackers.
    pub fn memory_usage(&self) -> usize {
        self.sigs.memory_usage() + self.loops.memory_usage() + self.store.memory_usage()
    }

    /// Consumes the state, returning the local store, execution tree,
    /// counters and signature memory.
    pub fn finish(self) -> (DepStore, ExecTree, AlgoCounters, usize) {
        let sig_mem = self.sigs.memory_usage();
        (self.store, self.exec_tree, self.counters, sig_mem)
    }

    /// Serializes the complete extraction state — both signatures (the
    /// read half's blob, then the write half's, each what its own
    /// signature would have written), the local dependence map, the
    /// execution tree, the loop stacks and the counters — for a
    /// crash-safe checkpoint. Returns `false` without
    /// writing anything useful when the access store does not support
    /// checkpointing (see [`AccessStore::save_state`]).
    ///
    /// The behaviour switches ([`AlgoOptions`]) are *not* serialized: a
    /// resumed engine reconstructs the state with the same configuration
    /// (recorded in the checkpoint header at the engine layer) before
    /// calling [`AlgoState::restore_state`].
    ///
    /// Seals the local dependence map first, so its edges are written as
    /// they lie and the next checkpoint sorts only what was added since.
    pub fn save_state(&mut self, out: &mut ByteWriter) -> bool {
        let mut halves = [ByteWriter::new(), ByteWriter::new()];
        for (side, half) in Side::BOTH.into_iter().zip(&mut halves) {
            if !self.sigs.save_state(side, half) {
                return false;
            }
        }
        for half in halves {
            out.blob(&half.into_bytes());
        }
        self.store.seal();
        let mut b = ByteWriter::new();
        self.store.save(&mut b);
        out.blob(&b.into_bytes());
        let mut b = ByteWriter::new();
        self.exec_tree.save(&mut b);
        out.blob(&b.into_bytes());
        let mut b = ByteWriter::new();
        self.loops.save(&mut b);
        out.blob(&b.into_bytes());
        out.u64(self.counters.events);
        out.u64(self.counters.accesses);
        out.u64(self.counters.reads);
        out.u64(self.counters.writes);
        out.u64(self.counters.reversed);
        out.u64(self.counters.lifetime_removals);
        true
    }

    /// Restores state previously produced by [`AlgoState::save_state`] on
    /// an identically-configured state (same store dimensions and
    /// [`AlgoOptions`]).
    /// An epoch store renumbers what it loads by the saved loop stacks
    /// ([`LoopTracker::renumber`]), which also converts a blob of timestamps.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = ByteReader::new(bytes);
        let sig_r = r.blob()?;
        let sig_w = r.blob()?;
        let store = DepStore::load(r.blob()?)?;
        let exec_tree = ExecTree::load(r.blob()?)?;
        let mut loops = LoopTracker::load(r.blob()?)?;
        let counters = AlgoCounters {
            events: r.u64()?,
            accesses: r.u64()?,
            reads: r.u64()?,
            writes: r.u64()?,
            reversed: r.u64()?,
            lifetime_removals: r.u64()?,
        };
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after algorithm state"));
        }
        if self.epochs() {
            let (rank, top) = loops.renumber();
            self.sigs.restore_state(sig_r, sig_w, &rank)?;
            self.epoch = top;
        } else {
            self.sigs.restore_state(sig_r, sig_w, &|ts| ts)?;
        }
        self.store = store;
        self.exec_tree = exec_tree;
        self.loops = loops;
        self.counters = counters;
        Ok(())
    }

    /// Observability gauges over both signatures: occupied slots, fixed
    /// slot capacity (0 for exact stores), cumulative evictions, bytes
    /// held now and an
    /// occupancy-based false-positive-rate estimate (Formula 2 inverted:
    /// the observed occupancy pins down the effective insert count, which
    /// [`dp_sig::predicted_fpr`] turns back into a rate). Must be read
    /// before [`AlgoState::finish`] consumes the state.
    pub fn sig_gauges(&self) -> SigGauges {
        let m = self.sigs.slot_capacity();
        let occupied = Side::BOTH.map(|side| self.sigs.occupied(side));
        SigGauges {
            occupied_slots: occupied.iter().sum::<usize>() as u64,
            total_slots: 2 * m as u64,
            evictions: Side::BOTH.map(|side| self.sigs.evictions(side)).iter().sum(),
            bytes: self.sigs.bytes_held() as u64,
            est_fpr_pct: occupied.map(|n| gauge_fpr_pct(m, n)).into_iter().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sig::{EpochSlot, ExtendedSlot, PerfectSignature, Signature};
    use dp_types::loc::loc;
    use proptest::prelude::*;

    type Perfect = AlgoState<PerfectSignature>;

    fn perfect() -> Perfect {
        AlgoState::new(PerfectSignature::new(), PerfectSignature::new(), AlgoOptions::default())
    }

    fn acc(kind: AccessKind, addr: u64, ts: u64, line: u32) -> TraceEvent {
        TraceEvent::Access(MemAccess { addr, ts, loc: loc(1, line), var: 1, thread: 0, kind })
    }

    fn deps_of(s: &Perfect) -> Vec<(DepType, u32, u32)> {
        s.store
            .dependences()
            .map(|(d, _)| (d.edge.dtype, d.sink.loc.line, d.edge.source_loc.line))
            .collect()
    }

    #[test]
    fn init_raw_war_waw_sequence() {
        let mut s = perfect();
        s.on_event(&acc(AccessKind::Write, 0x8, 1, 10)); // INIT @10
        s.on_event(&acc(AccessKind::Read, 0x8, 2, 11)); // RAW 11<-10
        s.on_event(&acc(AccessKind::Write, 0x8, 3, 12)); // WAR 12<-11, WAW 12<-10
        s.on_event(&acc(AccessKind::Read, 0x8, 4, 13)); // RAW 13<-12
        let mut d = deps_of(&s);
        d.sort();
        assert_eq!(
            d,
            vec![
                (DepType::Raw, 11, 10),
                (DepType::Raw, 13, 12),
                (DepType::War, 12, 11),
                (DepType::Waw, 12, 10),
                (DepType::Init, 10, 10),
            ]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
        );
        assert_eq!(s.counters().accesses, 4);
    }

    #[test]
    fn rar_not_recorded() {
        let mut s = perfect();
        s.on_event(&acc(AccessKind::Read, 0x8, 1, 10));
        s.on_event(&acc(AccessKind::Read, 0x8, 2, 11));
        assert_eq!(s.store.merged_len(), 0);
    }

    #[test]
    fn reads_of_never_written_address_build_nothing() {
        let mut s = perfect();
        s.on_event(&acc(AccessKind::Read, 0x8, 1, 10));
        s.on_event(&acc(AccessKind::Write, 0x8, 2, 11)); // INIT (no WAR per Algorithm 1)
                                                         // Per the pseudocode the WAR is *not* built when the write slot is
                                                         // empty — the write is classified as initialization.
        let d = deps_of(&s);
        assert_eq!(d, vec![(DepType::Init, 11, 11)]);
    }

    #[test]
    fn loop_carried_reduction_detected() {
        let mut s = perfect();
        // loop over: read acc (line 5), write acc (line 5)
        s.on_event(&acc(AccessKind::Write, 0x10, 1, 2)); // init acc before loop
        s.on_event(&TraceEvent::LoopBegin { loop_id: 7, loc: loc(1, 4), thread: 0, ts: 2 });
        for it in 0..3u64 {
            s.on_event(&TraceEvent::LoopIter { loop_id: 7, iter: it, thread: 0, ts: 3 + it * 10 });
            s.on_event(&acc(AccessKind::Read, 0x10, 4 + it * 10, 5));
            s.on_event(&acc(AccessKind::Write, 0x10, 5 + it * 10, 5));
        }
        s.on_event(&TraceEvent::LoopEnd {
            loop_id: 7,
            loc: loc(1, 6),
            iters: 3,
            thread: 0,
            ts: 40,
        });
        // The RAW 5<-5 must be flagged carried by loop 7 (iterations 1,2
        // read the value written in the previous iteration). Note there is
        // also a RAW 5<-2 from the pre-loop write (not carried).
        let raw = s
            .store
            .dependences()
            .find(|(d, _)| {
                d.edge.dtype == DepType::Raw && d.sink.loc.line == 5 && d.edge.source_loc.line == 5
            })
            .unwrap();
        assert!(raw.0.edge.flags.contains(DepFlags::LOOP_CARRIED));
        assert_eq!(raw.0.edge.carrier, Some(7));
        // First-iteration RAW (source = pre-loop write) is *not* carried —
        // but the merged record may also carry the FromOutside occurrence.
        let rec = s.store.loop_record(7).unwrap();
        assert_eq!(rec.total_iters, 3);
        assert_eq!(rec.instances, 1);
    }

    #[test]
    fn doall_loop_not_carried() {
        let mut s = perfect();
        s.on_event(&TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 1), thread: 0, ts: 1 });
        for it in 0..4u64 {
            s.on_event(&TraceEvent::LoopIter { loop_id: 1, iter: it, thread: 0, ts: 2 + it * 10 });
            let addr = 0x100 + it * 8; // disjoint per iteration
            s.on_event(&acc(AccessKind::Read, addr, 3 + it * 10, 2));
            s.on_event(&acc(AccessKind::Write, addr, 4 + it * 10, 2));
        }
        s.on_event(&TraceEvent::LoopEnd {
            loop_id: 1,
            loc: loc(1, 3),
            iters: 4,
            thread: 0,
            ts: 99,
        });
        for (d, _) in s.store.dependences() {
            assert!(!d.edge.flags.contains(DepFlags::LOOP_CARRIED), "unexpected carried dep {d:?}");
        }
    }

    #[test]
    fn lifetime_removal_prevents_false_raw() {
        let mut s = perfect();
        s.on_event(&acc(AccessKind::Write, 0x100, 1, 10));
        s.on_event(&TraceEvent::Dealloc { base: 0x100, len: 1, thread: 0, ts: 2 });
        s.on_event(&acc(AccessKind::Read, 0x100, 3, 20)); // fresh allocation
        assert!(
            !deps_of(&s).iter().any(|&(t, _, _)| t == DepType::Raw),
            "RAW across a free/realloc boundary"
        );
        assert_eq!(s.counters().lifetime_removals, 1);
    }

    #[test]
    fn reversal_flagging() {
        let mut s: AlgoState<PerfectSignature> = AlgoState::new(
            PerfectSignature::new(),
            PerfectSignature::new(),
            AlgoOptions { track_carried: false, check_reversal: true, ..AlgoOptions::default() },
        );
        // Write arrives with ts 10, then a read with *smaller* ts 5 —
        // the events were pushed out of order: potential race.
        s.on_event(&acc(AccessKind::Write, 0x8, 10, 1));
        s.on_event(&acc(AccessKind::Read, 0x8, 5, 2));
        let (d, _) = s.store.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw).unwrap();
        assert!(d.edge.flags.contains(DepFlags::REVERSED));
        assert_eq!(s.counters().reversed, 1);
    }

    #[test]
    fn signature_collisions_yield_false_deps_but_bounded_memory() {
        // 1-slot signature: every address collides; the algorithm still
        // runs and memory stays fixed.
        let sig = || Signature::<ExtendedSlot>::new(1);
        let mut s = AlgoState::new(
            sig(),
            sig(),
            AlgoOptions { track_carried: false, record_loops: false, ..AlgoOptions::default() },
        );
        for i in 0..100u64 {
            s.on_event(&acc(AccessKind::Write, 0x1000 + i * 8, i * 2 + 1, 1));
            s.on_event(&acc(AccessKind::Read, 0x1000 + i * 8, i * 2 + 2, 2));
        }
        // Only the very first write is INIT; all later ones collide into
        // occupied slots and produce (false) WAW/WAR records.
        assert!(s.store.merged_len() >= 2);
        assert!(s.memory_usage() < 10_000);
    }

    #[test]
    fn section_granularity_merges_nearby_statements() {
        let mk = |shift| {
            let mut s: AlgoState<PerfectSignature> = AlgoState::new(
                PerfectSignature::new(),
                PerfectSignature::new(),
                AlgoOptions { section_shift: shift, ..AlgoOptions::default() },
            );
            // writes at lines 16..24 and reads at 32..40: statement-level
            // yields many distinct pairs, 4-bit sections collapse them.
            for i in 0..8u64 {
                s.on_event(&acc(AccessKind::Write, 0x100 + i * 8, i + 1, 16 + i as u32));
            }
            for i in 0..8u64 {
                s.on_event(&acc(AccessKind::Read, 0x100 + i * 8, 100 + i, 32 + i as u32));
            }
            s.store.merged_len()
        };
        let fine = mk(0);
        let coarse = mk(4);
        assert!(coarse < fine, "coarse {coarse} fine {fine}");
        assert!(coarse <= 3, "coarse {coarse}"); // one INIT section + ~1 RAW section pair
    }

    #[test]
    fn sig_gauges_cover_both_stores() {
        let mut s = perfect();
        s.on_event(&acc(AccessKind::Write, 0x8, 1, 10));
        s.on_event(&acc(AccessKind::Write, 0x8, 2, 11)); // re-insert: 1 eviction
        s.on_event(&acc(AccessKind::Read, 0x8, 3, 12));
        let g = s.sig_gauges();
        assert_eq!(g.occupied_slots, 2, "one read entry + one write entry");
        assert_eq!(g.total_slots, 0, "exact stores have no fixed capacity");
        assert_eq!(g.evictions, 1);
        assert_eq!(g.est_fpr_pct, 0.0, "exact stores never produce false positives");

        let sig = || Signature::<ExtendedSlot>::new(8);
        let mut s = AlgoState::new(
            sig(),
            sig(),
            AlgoOptions { track_carried: false, ..AlgoOptions::default() },
        );
        for i in 0..4u64 {
            s.on_event(&acc(AccessKind::Write, 0x1000 + i * 8, i + 1, 1));
        }
        let g = s.sig_gauges();
        assert_eq!(g.total_slots, 16, "read + write signatures of 8 slots each");
        assert!(g.occupied_slots >= 1 && g.occupied_slots <= 4);
        assert!(g.est_fpr_pct > 0.0, "a partially full signature has nonzero predicted FPR");
        assert!(g.est_fpr_pct <= 100.0);
    }

    #[test]
    fn save_restore_resumes_identically() {
        // Feed a prefix (including a still-open loop), checkpoint, then
        // feed the identical suffix to the original and the restored
        // state: dependences, loop records and counters must match.
        let mut a = perfect();
        a.on_event(&acc(AccessKind::Write, 0x8, 1, 10));
        a.on_event(&TraceEvent::LoopBegin { loop_id: 7, loc: loc(1, 4), thread: 0, ts: 2 });
        a.on_event(&TraceEvent::LoopIter { loop_id: 7, iter: 0, thread: 0, ts: 3 });
        a.on_event(&acc(AccessKind::Read, 0x8, 4, 5));
        a.on_event(&acc(AccessKind::Write, 0x8, 5, 5));
        let mut out = ByteWriter::new();
        assert!(a.save_state(&mut out));
        let bytes = out.into_bytes();
        let mut b = perfect();
        b.restore_state(&bytes).unwrap();
        let suffix = |s: &mut Perfect| {
            s.on_event(&TraceEvent::LoopIter { loop_id: 7, iter: 1, thread: 0, ts: 13 });
            s.on_event(&acc(AccessKind::Read, 0x8, 14, 5)); // carried RAW
            s.on_event(&acc(AccessKind::Write, 0x8, 15, 5));
            s.on_event(&TraceEvent::LoopEnd {
                loop_id: 7,
                loc: loc(1, 6),
                iters: 2,
                thread: 0,
                ts: 20,
            });
        };
        suffix(&mut a);
        suffix(&mut b);
        assert_eq!(a.counters(), b.counters());
        let carried: Vec<_> = b.store.dependences().collect();
        assert_eq!(a.store.dependences().collect::<Vec<_>>(), carried);
        assert_eq!(a.store.loop_record(7), b.store.loop_record(7));
        assert!(
            carried
                .iter()
                .any(|(d, _)| d.edge.flags.contains(DepFlags::LOOP_CARRIED)
                    && d.edge.carrier == Some(7)),
            "loop nest survived the checkpoint: {carried:?}"
        );
    }

    #[test]
    fn save_restore_works_for_signature_stores() {
        let sig = || Signature::<ExtendedSlot>::new(64);
        let mk = || {
            AlgoState::new(
                sig(),
                sig(),
                AlgoOptions { check_reversal: true, ..AlgoOptions::default() },
            )
        };
        let mut a = mk();
        for i in 0..40u64 {
            a.on_event(&acc(AccessKind::Write, 0x1000 + i * 8, i * 2 + 1, 1 + i as u32));
            a.on_event(&acc(AccessKind::Read, 0x1000 + i * 8, i * 2 + 2, 50));
        }
        let mut out = ByteWriter::new();
        assert!(a.save_state(&mut out));
        let bytes = out.into_bytes();
        let mut b = mk();
        b.restore_state(&bytes).unwrap();
        assert_eq!(a.sig_gauges().occupied_slots, b.sig_gauges().occupied_slots);
        assert_eq!(a.counters(), b.counters());
        // Identical state re-serializes to identical bytes.
        let mut again = ByteWriter::new();
        assert!(b.save_state(&mut again));
        assert_eq!(again.into_bytes(), bytes);
        // A differently-sized signature refuses the blob.
        let small = || Signature::<ExtendedSlot>::new(8);
        let mut c = AlgoState::new(small(), small(), AlgoOptions::default());
        assert!(c.restore_state(&bytes).is_err());
    }

    #[test]
    fn extract_inject_roundtrip() {
        let mut a = perfect();
        a.on_event(&acc(AccessKind::Write, 0x8, 1, 10));
        a.on_event(&acc(AccessKind::Read, 0x8, 2, 11));
        let (r, w) = a.extract(0x8);
        assert_eq!(r.unwrap().loc.line, 11);
        assert_eq!(w.unwrap().loc.line, 10);
        assert_eq!(a.extract(0x8), (None, None), "extraction empties both signatures");
        let mut b = perfect();
        b.inject(0x8, r, w);
        b.on_event(&acc(AccessKind::Read, 0x8, 3, 12));
        let d = deps_of(&b);
        assert!(d.contains(&(DepType::Raw, 12, 10)), "{d:?}");
    }

    /// A random single-thread loop nest, at most four deep, in program
    /// order: half its events are loop boundaries, so a stream of 800
    /// or more passes this build's `EPOCH_LIMIT` and renumbers.
    fn arb_nest() -> impl Strategy<Value = Vec<TraceEvent>> {
        let step = (0u8..10, 0u64..24, 1u32..30);
        prop::collection::vec(step, 800..1400).prop_map(|steps| {
            let (mut evs, mut open, mut ts) = (Vec::new(), Vec::new(), 0u64);
            for (op, addr, line) in steps {
                ts += 1;
                let (thread, loc) = (0, loc(2, line));
                let ev = match (op, open.last().copied()) {
                    (0..=3, _) | (9, None) => {
                        let kind = if line % 2 == 0 { AccessKind::Write } else { AccessKind::Read };
                        let a = MemAccess { addr: addr * 8, ts, loc, var: 1, thread, kind };
                        TraceEvent::Access(a)
                    }
                    (9, Some(loop_id)) => {
                        open.pop();
                        TraceEvent::LoopEnd { loop_id, loc, iters: 0, thread, ts }
                    }
                    (4..=5, _) | (_, None) if open.len() < 4 => {
                        open.push(line % 5);
                        TraceEvent::LoopBegin { loop_id: line % 5, loc, thread, ts }
                    }
                    (_, top) => {
                        let loop_id = top.expect("a loop is open");
                        TraceEvent::LoopIter { loop_id, iter: 0, thread, ts }
                    }
                };
                evs.push(ev);
            }
            evs
        })
    }

    /// The one configuration that keeps timestamps, on a store that holds
    /// them: the timestamp side of every check against epochs.
    fn stamping() -> AlgoOptions {
        AlgoOptions { check_reversal: true, ..AlgoOptions::default() }
    }

    fn sig_algo<T: dp_sig::Slot>(opts: AlgoOptions) -> AlgoState<Signature<T>> {
        AlgoState::new(Signature::new(256), Signature::new(256), opts)
    }

    fn stamped_perfect() -> Perfect {
        AlgoState::new(PerfectSignature::new(), PerfectSignature::new(), stamping())
    }

    /// `evs` as a parallel worker reads them: queued records, no
    /// timestamps.
    fn queued(evs: &[TraceEvent]) -> dp_queue::Chunk {
        let mut chunk = dp_queue::Chunk::new(evs.len());
        evs.iter().for_each(|&ev| chunk.push(ev));
        chunk
    }

    fn saved<S: AccessStore>(s: &mut AlgoState<S>) -> Vec<u8> {
        let mut out = ByteWriter::new();
        assert!(s.save_state(&mut out));
        out.into_bytes()
    }

    /// The dependence store's bytes and the counters: what a report reads.
    fn outcome<S: AccessStore>(mut s: AlgoState<S>) -> (Vec<u8>, AlgoCounters) {
        let mut out = ByteWriter::new();
        s.store.seal();
        s.store.save(&mut out);
        (out.into_bytes(), s.counters)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Epochs classify every dependence as timestamps do, across the
        /// renumberings of this build's 8-bit clock; and a checkpoint of
        /// either clock, taken anywhere and loaded into an epoch engine,
        /// resumes to the same store.
        #[test]
        fn epoch_classification_equals_timestamp_classification(
            evs in arb_nest(),
            raw_cut in 0usize..1_000_000,
        ) {
            let boundaries = evs.iter().filter(|e| {
                matches!(e, TraceEvent::LoopBegin { .. } | TraceEvent::LoopIter { .. })
            });
            prop_assert!(boundaries.count() > EPOCH_LIMIT as usize);
            let cut = raw_cut % (evs.len() + 1);
            let epoch_algo = || sig_algo::<EpochSlot>(AlgoOptions::default());
            let (mut epochs, mut stamps) = (epoch_algo(), sig_algo::<ExtendedSlot>(stamping()));
            evs[..cut].iter().for_each(|ev| epochs.on_event(ev));
            evs[..cut].iter().for_each(|ev| stamps.on_event(ev));
            let (mut from_epochs, mut from_stamps) = (epoch_algo(), epoch_algo());
            from_epochs.restore_state(&saved(&mut epochs)).unwrap();
            from_stamps.restore_state(&saved(&mut stamps)).unwrap();
            for s in [&mut from_epochs, &mut from_stamps, &mut epochs] {
                evs[cut..].iter().for_each(|ev| s.on_event(ev));
            }
            evs[cut..].iter().for_each(|ev| stamps.on_event(ev));
            let want = outcome(stamps);
            prop_assert_eq!(&outcome(epochs), &want, "uninterrupted");
            prop_assert_eq!(&outcome(from_epochs), &want, "resumed at {}", cut);
            prop_assert_eq!(&outcome(from_stamps), &want, "converted at {}", cut);

            // A store that keeps timestamps, run on epochs as every engine
            // but the reversal check runs it: from records without
            // timestamps, and resumed from a blob of either clock.
            let (mut epochs, mut stamps) = (perfect(), stamped_perfect());
            epochs.on_chunk(&queued(&evs[..cut]));
            evs[..cut].iter().for_each(|ev| stamps.on_event(ev));
            let (mut from_epochs, mut from_stamps) = (perfect(), perfect());
            from_epochs.restore_state(&saved(&mut epochs)).unwrap();
            from_stamps.restore_state(&saved(&mut stamps)).unwrap();
            for s in [&mut from_epochs, &mut from_stamps, &mut epochs] {
                s.on_chunk(&queued(&evs[cut..]));
            }
            evs[cut..].iter().for_each(|ev| stamps.on_event(ev));
            let want = outcome(stamps);
            prop_assert_eq!(&outcome(epochs), &want, "perfect, uninterrupted");
            prop_assert_eq!(&outcome(from_epochs), &want, "perfect, resumed at {}", cut);
            prop_assert_eq!(&outcome(from_stamps), &want, "perfect, converted at {}", cut);
        }
    }
}
