//! The serial profiler (Section III): Algorithm 1 applied in-line on the
//! instrumented program's own thread.
//!
//! This is the `serial` bar of Figure 5 and the engine used with a
//! [`PerfectSignature`] as the accuracy baseline
//! of Table I.

use crate::algo::{AlgoOptions, AlgoState, LOOKAHEAD};
use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::result::{MemoryReport, ProfileResult, ProfileStats};
use dp_sig::{AccessStore, PerfectSignature, Signature};
use dp_types::TraceEvent;

/// The last `LOOKAHEAD` events fed one at a time, oldest at `head`: a
/// caller that holds no chunk still gets its signature cell prefetched
/// that many events before they are probed.
struct DelayLine {
    slots: [TraceEvent; LOOKAHEAD],
    head: usize,
    len: usize,
}

impl DelayLine {
    fn new() -> Self {
        // Filler never read: `len` says which slots hold events.
        DelayLine {
            slots: [TraceEvent::CallEnd { func: 0, thread: 0, ts: 0 }; LOOKAHEAD],
            head: 0,
            len: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.len == LOOKAHEAD
    }

    /// The oldest event, read where it lies: retiring from a copy would
    /// make the engine's field loads wait on the copy's stores.
    fn oldest(&self) -> Option<&TraceEvent> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn drop_oldest(&mut self) {
        self.head = (self.head + 1) % LOOKAHEAD;
        self.len -= 1;
    }

    fn push(&mut self, ev: TraceEvent) {
        debug_assert!(!self.is_full());
        self.slots[(self.head + self.len) % LOOKAHEAD] = ev;
        self.len += 1;
    }
}

/// In-line profiler; implements the trace substrate's `Tracer` contract.
///
/// Events fed one at a time pass through a short delay line: each is
/// prefetched on arrival and retired, strictly in order, once eight
/// (`LOOKAHEAD`) later events have arrived. Every method that reads or
/// moves engine state retires the line first, so no caller can observe
/// the delay.
pub struct SequentialProfiler<S: AccessStore> {
    algo: AlgoState<S>,
    delayed: DelayLine,
}

impl SequentialProfiler<crate::DefaultSig> {
    /// Default engine: epoch-slot read and write signatures of
    /// `nslots` slots each (not split between the two — the paper sizes
    /// each signature at the stated slot count), held as one table of
    /// `nslots` read/write slot pairs ([`SigPair`](dp_sig::SigPair)) under
    /// their one hash, so memory is at most `nslots × 2 × slot`.
    pub fn with_signature(nslots: usize) -> Self {
        Self::with_stores(Signature::new(nslots), Signature::new(nslots))
    }
}

impl SequentialProfiler<PerfectSignature> {
    /// Exact baseline engine ("perfect signature", Section VI-A).
    pub fn perfect() -> Self {
        Self::with_stores(PerfectSignature::new(), PerfectSignature::new())
    }
}

impl<S: AccessStore> SequentialProfiler<S> {
    /// Engine over custom stores (shadow memory, hash history, compact
    /// slots — the baselines of Sections III-B/VI).
    pub fn with_stores(read: S, write: S) -> Self {
        Self::with_options(read, write, AlgoOptions::default())
    }

    /// Engine with explicit [`AlgoOptions`] (e.g. the set-based profiling
    /// mode of Section VI-B1 via `section_shift`).
    pub fn with_options(read: S, write: S, opts: AlgoOptions) -> Self {
        SequentialProfiler { algo: AlgoState::new(read, write, opts), delayed: DelayLine::new() }
    }

    /// Takes one instrumentation event: prefetches its cell now, retires
    /// the event that arrived eight (`LOOKAHEAD`) events ago.
    #[inline]
    pub fn on_event(&mut self, ev: &TraceEvent) {
        self.algo.prefetch(ev.as_access().map(|a| a.addr));
        if self.delayed.is_full() {
            self.retire_oldest();
        }
        self.delayed.push(*ev);
    }

    /// Takes a run of events the caller already holds, looking ahead
    /// inside the run (see [`AlgoState::on_chunk`]).
    pub fn on_chunk(&mut self, evs: &[TraceEvent]) {
        self.retire_delayed();
        self.algo.on_chunk(evs);
    }

    fn retire_oldest(&mut self) -> bool {
        let Some(oldest) = self.delayed.oldest() else { return false };
        self.algo.on_event(oldest);
        self.delayed.drop_oldest();
        true
    }

    /// Retires every event still in the delay line, in order.
    fn retire_delayed(&mut self) {
        while self.retire_oldest() {}
    }

    /// Turns on online analysis: the in-line store starts tracking
    /// dependence-map movement (see
    /// [`DepStore::enable_delta`](crate::store::DepStore::enable_delta)).
    /// Idempotent; a late enable catches up on the first drain.
    pub fn enable_online(&mut self) {
        self.retire_delayed();
        self.algo.store.enable_delta();
    }

    /// True once [`SequentialProfiler::enable_online`] has run.
    pub fn online_enabled(&self) -> bool {
        self.algo.store.delta_enabled()
    }

    /// Drains the movement since the previous drain (empty when online
    /// analysis is off or nothing moved).
    pub fn take_delta(&mut self) -> crate::store::AnalysisDelta {
        self.retire_delayed();
        self.algo.store.take_delta()
    }

    /// Captures the full profiler state as a checkpoint: one worker blob
    /// (the in-line engine *is* its single worker), no router, no queue
    /// ledger. Returns `Unsupported` for access stores that cannot
    /// serialize themselves (shadow memory, hash history).
    pub fn checkpoint_data(
        &mut self,
        generation: u64,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<CheckpointData, CheckpointError> {
        self.retire_delayed();
        let mut out = dp_types::wire::ByteWriter::new();
        if !self.algo.save_state(&mut out) {
            return Err(CheckpointError::Unsupported(
                "the access store does not support checkpointing",
            ));
        }
        Ok(CheckpointData {
            generation,
            records_read,
            config,
            router: Vec::new(),
            ledger: Vec::new(),
            workers: vec![out.into_bytes()],
        })
    }

    /// Restores state captured by [`SequentialProfiler::checkpoint_data`]
    /// into this freshly constructed engine (which must have been built
    /// with the same store dimensions and options).
    pub fn restore(&mut self, data: &CheckpointData) -> Result<(), CheckpointError> {
        let [state] = data.workers.as_slice() else {
            return Err(CheckpointError::Wire(dp_types::wire::WireError::Invalid(
                "serial checkpoint must hold exactly one worker blob",
            )));
        };
        self.algo.restore_state(state)?;
        Ok(())
    }

    /// Finishes the run.
    pub fn finish(mut self) -> ProfileResult {
        self.retire_delayed();
        let mem_all = self.algo.memory_usage();
        let gauges = self.algo.sig_gauges();
        let (mut store, exec_tree, counters, sig_mem) = self.algo.finish();
        let mut stats = ProfileStats::default();
        stats.absorb(counters);
        stats.deps_built = store.deps_built();
        stats.deps_merged = store.merged_len();
        // Read before sealing, which drops the index: the report is of
        // the run's footprint, not the result's.
        let store_mem = store.memory_usage();
        store.seal();
        let memory = MemoryReport {
            signatures: sig_mem,
            queues: 0,
            chunks: 0,
            dep_store: store_mem + exec_tree.memory_usage(),
            stats_maps: mem_all.saturating_sub(sig_mem + store_mem),
        };
        // The in-line engine has no queues: every event is "pushed" and
        // "consumed" at the same program point, so the conservation law
        // holds trivially — but the snapshot is still populated so
        // `--stats` reports signature gauges for serial runs too.
        let metrics = dp_metrics::MetricsSnapshot {
            workers: 0,
            conservation: dp_metrics::Conservation {
                pushed: stats.events,
                consumed: stats.events,
                ..dp_metrics::Conservation::default()
            },
            signatures: gauges,
            ..dp_metrics::MetricsSnapshot::default()
        };
        ProfileResult {
            deps: store,
            exec_tree,
            stats,
            memory,
            workers: 0,
            per_worker_events: Vec::new(),
            metrics,
        }
    }
}

impl<S: AccessStore> dp_types::Tracer for SequentialProfiler<S> {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.on_event(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{loc::loc, AccessKind, DepType, MemAccess};

    #[test]
    fn profile_simple_stream() {
        let mut p = SequentialProfiler::perfect();
        p.on_event(&TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        p.on_event(&TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 0)));
        let r = p.finish();
        assert_eq!(r.stats.accesses, 2);
        assert_eq!(r.stats.deps_merged, 2); // INIT + RAW
        assert!(r
            .deps
            .dependences()
            .any(|(d, _)| d.edge.dtype == DepType::Raw && d.sink.loc.line == 2));
        assert_eq!(r.workers, 0);
        assert!(r.memory.total() > 0);
    }

    #[test]
    fn serial_checkpoint_restore_resumes_identically() {
        let mut evs = Vec::new();
        for i in 0..60u64 {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            evs.push(TraceEvent::Access(MemAccess {
                addr: 0x100 + (i % 11) * 8,
                ts: i + 1,
                loc: loc(1, (i % 5) as u32 + 1),
                var: 1,
                thread: 0,
                kind,
            }));
        }
        let mut reference = SequentialProfiler::perfect();
        for ev in &evs {
            reference.on_event(ev);
        }
        let r_ref = reference.finish();
        let cut = 23;
        let mut first = SequentialProfiler::perfect();
        for ev in &evs[..cut] {
            first.on_event(ev);
        }
        let data = first.checkpoint_data(0, cut as u64, Vec::new()).unwrap();
        assert_eq!(data.workers.len(), 1);
        let mut resumed = SequentialProfiler::perfect();
        resumed.restore(&data).unwrap();
        for ev in &evs[cut..] {
            resumed.on_event(ev);
        }
        let r2 = resumed.finish();
        let deps = |r: &ProfileResult| {
            let mut v: Vec<String> =
                r.deps.dependences().map(|(d, val)| format!("{d:?}={val:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(r_ref.stats.accesses, r2.stats.accesses);
        assert_eq!(deps(&r_ref), deps(&r2));
    }

    #[test]
    fn serial_checkpoint_unsupported_store_is_an_error() {
        let mut p = SequentialProfiler::with_stores(
            dp_sig::ShadowMemory::new(),
            dp_sig::ShadowMemory::new(),
        );
        let err = p.checkpoint_data(0, 0, Vec::new()).expect_err("shadow memory cannot save");
        assert!(matches!(err, CheckpointError::Unsupported(_)), "{err}");
    }

    /// Signature memory follows occupancy up to the paper's figure — two
    /// arrays of `nslots` 8-byte slots — and stops there: never more
    /// than that plus the directories and one region in transit each.
    #[test]
    fn signature_engine_has_bounded_signature_memory() {
        const SLOTS: usize = 3 << 12;
        let arrays = 2 * SLOTS * 8;
        let run = |addrs: u64| {
            let mut p = SequentialProfiler::with_signature(SLOTS);
            for i in 0..addrs {
                p.on_event(&TraceEvent::Access(MemAccess::write(
                    i * 8,
                    2 * i + 1,
                    loc(1, 1),
                    1,
                    0,
                )));
                p.on_event(&TraceEvent::Access(MemAccess::read(i * 8, 2 * i + 2, loc(1, 2), 1, 0)));
            }
            p.finish().memory.signatures
        };
        let untouched = run(0);
        assert!(untouched < arrays / 100, "{untouched} bytes for two empty signatures");
        let (few, some, saturated) = (run(100), run(1_500), run(200_000));
        assert!(untouched < few && few < some && some < saturated);
        assert!(some < arrays / 2, "{some} bytes at an eighth full");
        let slack = 2 * ((1 << 12) * 8 + 1024);
        assert!((arrays..arrays + slack).contains(&saturated), "{saturated}");
    }
}
