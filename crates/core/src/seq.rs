//! The serial profiler (Section III): Algorithm 1 applied in-line on the
//! instrumented program's own thread.
//!
//! This is the `serial` bar of Figure 5 and the engine used with a
//! [`PerfectSignature`] as the accuracy baseline
//! of Table I.

use crate::algo::{AlgoOptions, AlgoState};
use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::result::{MemoryReport, ProfileResult, ProfileStats};
use dp_queue::{Chunk, Record};
use dp_sig::{AccessStore, PerfectSignature, Signature};
use dp_types::TraceEvent;

/// Events held and handed to [`AlgoState::on_chunk`] as one run. Chosen
/// by the sweep recorded in DESIGN.md "Lookahead feed".
const RUN: usize = 64;

/// In-line profiler of thread-0 streams; implements the trace substrate's
/// `Tracer` contract. Events are packed into a run of up to `RUN` — an
/// unstamped [`Chunk`], 17 bytes an event and no thread or timestamp, so
/// every store runs the epoch clock — and retired through
/// [`AlgoState::on_chunk`], strictly in order, when the run fills. Every
/// method that reads or moves engine state retires the run first, so no
/// caller can observe the wait.
pub struct SequentialProfiler<S: AccessStore> {
    algo: AlgoState<S>,
    run: Chunk,
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
        SequentialProfiler { algo: AlgoState::new(read, write, opts), run: Chunk::new(RUN) }
    }

    /// Takes one instrumentation event, of thread 0 (debug-asserted);
    /// retires the run once it holds `RUN` events.
    #[inline]
    pub fn on_event(&mut self, ev: &TraceEvent) {
        self.run.push_record(Record::pack(ev));
        if self.run.is_full() {
            self.retire_run();
        }
    }

    /// Retires every event held in the run, in order.
    fn retire_run(&mut self) {
        self.algo.on_chunk(&self.run);
        self.run.reset();
    }

    /// Turns on online analysis: the in-line store starts tracking
    /// dependence-map movement (see
    /// [`DepStore::enable_delta`](crate::store::DepStore::enable_delta)).
    /// Idempotent; a late enable catches up on the first drain.
    pub fn enable_online(&mut self) {
        self.retire_run();
        self.algo.store.enable_delta();
    }

    /// True once [`SequentialProfiler::enable_online`] has run.
    pub fn online_enabled(&self) -> bool {
        self.algo.store.delta_enabled()
    }

    /// Drains the movement since the previous drain (empty when online
    /// analysis is off or nothing moved).
    pub fn take_delta(&mut self) -> crate::store::AnalysisDelta {
        self.retire_run();
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
        self.retire_run();
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
        self.retire_run();
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

    /// Few enough slots that the 48 addresses of [`mixed_stream`] collide.
    const SLOTS: usize = 64;

    /// `n` well-nested events of every kind over 48 addresses — loops
    /// with iterations, calls, deallocations — drawn by a fixed xorshift.
    fn mixed_stream(n: usize) -> Vec<TraceEvent> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        // Open frames: `(Some(loop id), iterations)` or `(None, func)`.
        let mut open: Vec<(Option<u32>, u64)> = Vec::new();
        let mut evs = Vec::with_capacity(n);
        for ts in 1..=n as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x >> 8) % 48;
            let ev = match x % 16 {
                0 if open.len() < 3 => {
                    let id = slot as u32 % 5;
                    open.push((Some(id), 0));
                    TraceEvent::LoopBegin { loop_id: id, loc: loc(1, 80 + id), thread: 0, ts }
                }
                1 | 2 if matches!(open.last(), Some((Some(_), _))) => {
                    let Some((Some(id), iters)) = open.last_mut() else { unreachable!() };
                    *iters += 1;
                    TraceEvent::LoopIter { loop_id: *id, iter: *iters - 1, thread: 0, ts }
                }
                3 if !open.is_empty() => match open.pop().expect("not empty") {
                    (Some(id), iters) => TraceEvent::LoopEnd {
                        loop_id: id,
                        loc: loc(1, 90 + id),
                        iters,
                        thread: 0,
                        ts,
                    },
                    (None, func) => TraceEvent::CallEnd { func: func as u32, thread: 0, ts },
                },
                4 if open.len() < 3 => {
                    open.push((None, slot % 4));
                    TraceEvent::CallBegin { func: (slot % 4) as u32, thread: 0, ts }
                }
                5 => TraceEvent::Dealloc { base: 0x1000 + (slot % 6) * 64, len: 8, thread: 0, ts },
                k => TraceEvent::Access(MemAccess {
                    addr: 0x1000 + slot * 8,
                    ts,
                    loc: loc(1, (x >> 20) as u32 % 40 + 1),
                    var: 1,
                    thread: 0,
                    kind: if k % 2 == 0 { AccessKind::Write } else { AccessKind::Read },
                }),
            };
            evs.push(ev);
        }
        evs
    }

    /// `AlgoState::on_event` applied to each event in turn.
    fn immediate(evs: &[TraceEvent], online: bool) -> AlgoState<crate::DefaultSig> {
        let mut algo =
            AlgoState::new(Signature::new(SLOTS), Signature::new(SLOTS), AlgoOptions::default());
        if online {
            algo.store.enable_delta();
        }
        evs.iter().for_each(|ev| algo.on_event(ev));
        algo
    }

    /// The profiler, fed each event through `on_event`.
    fn fed(evs: &[TraceEvent], online: bool) -> SequentialProfiler<crate::DefaultSig> {
        let mut p = SequentialProfiler::with_signature(SLOTS);
        if online {
            p.enable_online();
        }
        evs.iter().for_each(|ev| p.on_event(ev));
        p
    }

    /// The complete engine state, read where it lies: no flush.
    fn state<S: AccessStore>(algo: &mut AlgoState<S>) -> (Vec<u8>, dp_metrics::SigGauges) {
        let mut out = dp_types::wire::ByteWriter::new();
        assert!(algo.save_state(&mut out));
        (out.into_bytes(), algo.sig_gauges())
    }

    /// `finish` leaves what `AlgoState::on_event` on each event leaves.
    fn assert_finishes_as(
        p: SequentialProfiler<crate::DefaultSig>,
        mut want: AlgoState<crate::DefaultSig>,
        at: &str,
    ) {
        let r = p.finish();
        let s = &r.stats;
        let c = want.counters();
        assert_eq!(
            [s.events, s.accesses, s.reads, s.writes, s.reversed, s.lifetime_removals],
            [c.events, c.accesses, c.reads, c.writes, c.reversed, c.lifetime_removals],
            "{at}"
        );
        assert_eq!(r.metrics.signatures, want.sig_gauges(), "{at}");
        let (mut got, mut expected) =
            (dp_types::wire::ByteWriter::new(), dp_types::wire::ByteWriter::new());
        r.deps.save(&mut got);
        want.store.seal();
        want.store.save(&mut expected);
        assert!(got.into_bytes() == expected.into_bytes(), "{at}: store bytes");
    }

    /// A run boundary never shows. With `RUN − 1`, `RUN` and `RUN + 1`
    /// events fed — a run one short of full, one just retired, one just
    /// begun — each method that reads or moves engine state sees what
    /// `AlgoState::on_event` on each event in turn leaves, and the rest of
    /// a stream over two runs long ends there too. The checkpoint is
    /// resumed into a fresh engine.
    #[test]
    fn every_flush_point_retires_the_run() {
        let evs = mixed_stream(2 * RUN + 77);
        for cut in [RUN - 1, RUN, RUN + 1] {
            let (head, tail) = evs.split_at(cut);

            let mut p = fed(head, false);
            p.enable_online();
            let mut want = immediate(head, false);
            want.store.enable_delta();
            assert_eq!(state(&mut p.algo), state(&mut want), "enable_online at {cut}");
            tail.iter().for_each(|ev| p.on_event(ev));
            tail.iter().for_each(|ev| want.on_event(ev));
            assert_eq!(p.take_delta(), want.store.take_delta(), "enable_online at {cut}");
            assert_finishes_as(p, want, &format!("enable_online at {cut}"));

            let mut p = fed(head, true);
            let mut want = immediate(head, true);
            assert_eq!(p.take_delta(), want.store.take_delta(), "take_delta at {cut}");
            tail.iter().for_each(|ev| p.on_event(ev));
            tail.iter().for_each(|ev| want.on_event(ev));
            assert_eq!(p.take_delta(), want.store.take_delta(), "take_delta after {cut}");
            assert_finishes_as(p, want, &format!("take_delta at {cut}"));

            let data = fed(head, false).checkpoint_data(1, cut as u64, Vec::new()).unwrap();
            assert!(data.workers[0] == state(&mut immediate(head, false)).0, "checkpoint at {cut}");
            let mut resumed = SequentialProfiler::with_signature(SLOTS);
            resumed.restore(&data).unwrap();
            tail.iter().for_each(|ev| resumed.on_event(ev));
            assert_finishes_as(resumed, immediate(&evs, false), &format!("resumed at {cut}"));

            assert_finishes_as(
                fed(head, false),
                immediate(head, false),
                &format!("finish at {cut}"),
            );
        }
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
