//! The multi-threaded-target engine (Section V).
//!
//! Differences from the sequential-target pipeline:
//!
//! - **Multiple producers.** Every target thread owns a
//!   [`MtThreadTracer`] with private per-worker chunk buffers; the worker
//!   queues are therefore MPMC ("the different implementation of lock-free
//!   queues" whose extra memory Section VI-B2 mentions).
//! - **Access/push atomicity (Figure 4).** The interpreter calls
//!   [`Tracer::sync_point`] before releasing any target lock; the tracer
//!   flushes its pending chunks there, so events of lock-protected
//!   accesses reach the owner worker in lock order and per-address
//!   temporal order is preserved for correctly synchronized programs.
//! - **Timestamp-reversal detection (Section V-B).** Workers verify that
//!   the dependence source's timestamp precedes the sink's. A reversal
//!   proves the access/push pair was not atomic — i.e. the accesses were
//!   not mutually exclusive — and the dependence is flagged `REVERSED` as
//!   a potential data race.
//! - Dependence records carry thread ids on both endpoints (Figure 3).
//! - Loop-carried classification is disabled (cross-thread iteration
//!   context is not well defined); loop records still accumulate via
//!   `LoopBegin`/`LoopEnd`, routed by `loop_id` so each loop is tracked by
//!   exactly one worker.
//!
//! Behind the queues it is the same supervised worker pool as the
//! sequential pipeline's (see [`workers`](crate::workers)): one worker
//! loop, one failure model, one end-of-run harvest, one delivery routine
//! (its stall clock is the worker's, so a deadline one target thread paid
//! makes the others fail fast). What stays here is what many producers
//! change: per-thread tracers over `Arc<MpmcQueue>` senders, and no
//! diversion of a dead worker's traffic to survivors — with many
//! producers there is no single point that could preserve per-address
//! order across the switch, so dropping-and-accounting is the honest
//! choice.

use crate::algo::{AlgoOptions, AlgoState};
use crate::config::ProfilerConfig;
use crate::result::ProfileResult;
use crate::workers::{shared, WorkerCtx, WorkerMsg, Workers};
use dp_queue::{Chunk, ChunkPool, MpmcQueue, TransportSender};
use dp_sig::AccessStore;
use dp_types::{Record, ThreadId, Timestamp, TraceEvent, Tracer, TracerFactory};
use std::sync::Arc;

struct MtShared {
    /// MPMC whatever [`ProfilerConfig::transport`] says: every target
    /// thread pushes.
    senders: Vec<Arc<MpmcQueue<WorkerMsg>>>,
    ctx: Arc<WorkerCtx>,
}

/// Per-target-thread tracer: buffers events per worker, flushing full
/// chunks eagerly and partial chunks at every sync point (lock release,
/// barrier, thread exit), and holding a chunk for a worker only from its
/// first event for it on.
pub struct MtThreadTracer {
    shared: Arc<MtShared>,
    pending: Vec<Chunk>,
}

impl MtThreadTracer {
    fn append(&mut self, wid: usize, rec: Record, (thread, ts): (ThreadId, Timestamp)) {
        self.shared.ctx.pool.ready(&mut self.pending[wid]).push_stamped(rec, thread, ts);
        if self.pending[wid].is_full() {
            self.flush(wid);
        }
    }

    fn flush(&mut self, wid: usize) {
        if !self.pending[wid].is_empty() {
            let sh = &*self.shared;
            sh.ctx.send_chunk(wid, &sh.senders[wid], std::mem::take(&mut self.pending[wid]));
        }
    }
}

impl Tracer for MtThreadTracer {
    fn event(&mut self, ev: TraceEvent) {
        let (rec, stamp) = (Record::pack(&ev), (ev.thread(), ev.ts()));
        match ev {
            // Formula 1 with the 8-byte alignment shifted out (see
            // `ParallelProfiler::owner`).
            TraceEvent::Access(a) => {
                self.append(((a.addr >> 3) % self.pending.len() as u64) as usize, rec, stamp)
            }
            // Structural events (loop records + execution tree) all go to
            // worker 0 so per-thread nesting stays coherent.
            TraceEvent::LoopBegin { .. }
            | TraceEvent::LoopEnd { .. }
            | TraceEvent::CallBegin { .. }
            | TraceEvent::CallEnd { .. } => self.append(0, rec, stamp),
            // Iteration boundaries are only needed for carried
            // classification, which is off for multi-threaded targets.
            TraceEvent::LoopIter { .. } => {}
            TraceEvent::Dealloc { .. } => {
                for wid in 0..self.pending.len() {
                    self.append(wid, rec, stamp);
                }
            }
        }
    }

    fn sync_point(&mut self) {
        // Push everything buffered *while still inside the lock region* —
        // the atomicity requirement of Figure 4.
        for wid in 0..self.pending.len() {
            self.flush(wid);
        }
    }
}

/// The profiler for multi-threaded targets. Use as the
/// [`TracerFactory`] of `Interp::run_mt`, then call [`MtProfiler::finish`].
pub struct MtProfiler {
    shared: Arc<MtShared>,
    workers: Workers,
}

impl MtProfiler {
    /// Starts `cfg.workers` profiling workers using extended-slot
    /// signatures sized from `cfg.total_slots`.
    pub fn new(cfg: ProfilerConfig) -> Self {
        Self::with_store_factory(cfg.clone(), move || {
            dp_sig::Signature::<dp_sig::ExtendedSlot>::new(cfg.slots_per_worker())
        })
    }

    /// Starts workers over custom stores (e.g.
    /// [`PerfectSignature`](dp_sig::PerfectSignature) for accuracy runs).
    pub fn with_store_factory<S: AccessStore + 'static>(
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
    ) -> Self {
        let w = cfg.workers.max(1);
        let opts = |wid| AlgoOptions {
            track_carried: false,
            check_reversal: true,
            // Structural events are routed to worker 0 only.
            record_loops: wid == 0,
            ..AlgoOptions::default()
        };
        let algos = (0..w).map(|wid| AlgoState::new(make_store(), make_store(), opts(wid)));
        let pool = ChunkPool::stamped(w * cfg.queue_chunks * 4, cfg.chunk_capacity);
        let (senders, workers) =
            Workers::spawn(&cfg, pool, algos.collect(), |cap| shared(MpmcQueue::new(cap)));
        let shared = Arc::new(MtShared { senders, ctx: workers.ctx.clone() });
        MtProfiler { shared, workers }
    }

    /// Drains the pipeline, joins the workers and merges their results —
    /// salvaging survivors and bounding every wait by the drain deadline
    /// when a worker was lost. Call only after the target program has
    /// fully finished (all target threads joined).
    pub fn finish(mut self) -> ProfileResult {
        self.workers.begin_drain();
        let sh = &*self.shared;
        let drain = self.workers.drain();
        let shutdown_ok: Vec<bool> = (sh.senders.iter().enumerate())
            .map(|(wid, tx)| sh.ctx.deliver(wid, tx, WorkerMsg::Shutdown, Some(drain)).is_ok())
            .collect();
        // The MT router is distributed across target threads, so there is
        // no central hot-address table to report.
        let mut r = self.workers.finish(&shutdown_ok, Vec::new());
        // Replies nobody is waiting for: counted and dropped, never fatal.
        r.stats.spurious_replies = sh.ctx.stale_replies().len() as u64;
        r.memory.queues = sh.senders.iter().map(|s| s.memory_usage()).sum();
        r
    }
}

impl TracerFactory for MtProfiler {
    type Tracer = MtThreadTracer;

    fn tracer(&self, _tid: ThreadId) -> MtThreadTracer {
        let sh = &self.shared;
        MtThreadTracer {
            shared: sh.clone(),
            pending: (0..sh.senders.len()).map(|_| Chunk::default()).collect(),
        }
    }

    fn join(&self, _tid: ThreadId, tracer: MtThreadTracer) {
        // The thread is done: none replaces the chunks it hands on.
        let sh = &*self.shared;
        for (wid, chunk) in tracer.pending.into_iter().enumerate() {
            sh.ctx.send_chunk(wid, &sh.senders[wid], chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_queue::FaultPlan;
    use dp_types::{loc::loc, AccessKind, DepFlags, DepType, MemAccess};
    use std::time::{Duration, Instant};

    fn cfg(workers: usize) -> ProfilerConfig {
        ProfilerConfig::default().with_workers(workers).with_chunk_capacity(4)
    }

    fn acc(kind: AccessKind, addr: u64, ts: u64, line: u32, thread: u16) -> TraceEvent {
        TraceEvent::Access(MemAccess { addr, ts, loc: loc(4, line), var: 1, thread, kind })
    }

    #[test]
    fn cross_thread_raw_carries_thread_ids() {
        let prof = MtProfiler::new(cfg(2));
        // Producer thread 1 writes, consumer thread 2 reads, with a sync
        // point (lock release) between them so order is guaranteed.
        let mut t1 = prof.tracer(1);
        t1.event(acc(AccessKind::Write, 0x80, 1, 58, 1));
        t1.sync_point();
        let mut t2 = prof.tracer(2);
        t2.event(acc(AccessKind::Read, 0x80, 2, 64, 2));
        t2.sync_point();
        prof.join(1, t1);
        prof.join(2, t2);
        let r = prof.finish();
        assert!(!r.degraded(), "healthy MT run must not be degraded: {:?}", r.stats);
        let raw = r.deps.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw).unwrap().0;
        assert_eq!(raw.sink.thread, 2);
        assert_eq!(raw.edge.source_thread, 1);
        assert!(!raw.edge.flags.contains(DepFlags::REVERSED));
    }

    #[test]
    fn reversed_timestamps_flag_race() {
        let prof = MtProfiler::new(cfg(1));
        // The write (ts 10) is pushed *after* the read (ts 12) reached the
        // worker... simulate by delivering the newer-ts write first.
        let mut t1 = prof.tracer(1);
        t1.event(acc(AccessKind::Write, 0x40, 12, 5, 1));
        t1.sync_point();
        let mut t2 = prof.tracer(2);
        t2.event(acc(AccessKind::Read, 0x40, 10, 6, 2));
        t2.sync_point();
        prof.join(1, t1);
        prof.join(2, t2);
        let r = prof.finish();
        assert_eq!(r.stats.reversed, 1);
        let raw = r.deps.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw).unwrap().0;
        assert!(raw.edge.flags.contains(DepFlags::REVERSED));
    }

    #[test]
    fn loop_records_from_mt_threads() {
        let prof = MtProfiler::new(cfg(2));
        let mut t1 = prof.tracer(1);
        t1.event(TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 1, ts: 1 });
        t1.event(TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 7, thread: 1, ts: 9 });
        prof.join(1, t1);
        let r = prof.finish();
        let rec = r.deps.loop_record(3).unwrap();
        assert_eq!(rec.total_iters, 7);
        assert_eq!(rec.instances, 1);
    }

    /// A reply still on the queue at `finish` — an answer that missed
    /// its window — is counted in `spurious_replies`, not mistaken for a
    /// current one and not fatal.
    #[test]
    fn mt_stale_reply_at_finish_is_counted_not_fatal() {
        use crate::workers::Reply;
        let prof = MtProfiler::new(cfg(2).with_slots(1 << 10).with_drain_deadline_ms(2000));
        let mut t1 = prof.tracer(1);
        for i in 0..6u64 {
            t1.event(acc(AccessKind::Write, 0x80 + i * 8, 2 * i + 1, 5, 1));
            t1.event(acc(AccessKind::Read, 0x80 + i * 8, 2 * i + 2, 6, 1));
        }
        let late = Reply::CheckpointState { worker: 0, state: Some(vec![0xEE]) };
        assert!(prof.shared.ctx.resp.push(late).is_ok());
        prof.join(1, t1);
        let r = prof.finish();
        assert!(!r.degraded(), "{:?}", r.stats);
        assert_eq!(r.stats.spurious_replies, 1);
        assert_eq!(r.stats.accesses, 12);
    }

    /// The shared worker loop makes the stall hook reachable from MT: a
    /// worker that stops consuming is abandoned after the drain deadline,
    /// wakes, and hands over what it had — an `Unresponsive` record with
    /// its partial results salvaged, not a hang.
    #[test]
    fn mt_stalled_worker_is_salvaged_as_unresponsive() {
        use crate::result::FailureCause;
        let c =
            cfg(2).with_fault_plan(FaultPlan::none().with_stall(1, 1)).with_drain_deadline_ms(300);
        let prof = MtProfiler::new(c);
        let mut t1 = prof.tracer(1);
        t1.event(acc(AccessKind::Write, 0x80, 1, 5, 1)); // worker 0
        t1.event(acc(AccessKind::Read, 0x80, 2, 6, 1)); // worker 0
        t1.event(acc(AccessKind::Write, 0x88, 3, 7, 1)); // worker 1, consumed
        t1.sync_point();
        t1.event(acc(AccessKind::Read, 0x88, 4, 8, 1)); // worker 1, stalled by now
        prof.join(1, t1);
        let started = Instant::now();
        let r = prof.finish();
        assert!(started.elapsed() < Duration::from_secs(2), "finish must not wait out a stall");
        let failed: Vec<_> = r.stats.worker_failures.iter().map(|f| (f.worker, &f.cause)).collect();
        assert_eq!(failed, [(1, &FailureCause::Unresponsive)]);
        // Salvaged: the stalled worker's one consumed access is in the
        // totals, the one behind the stall is in flight, none vanished.
        assert_eq!(r.per_worker_events, [2, 1]);
        assert!(r.deps.dependences().any(|(d, _)| d.edge.dtype == DepType::Raw));
        let c = r.metrics.conservation;
        assert_eq!(c.in_flight_at_shutdown, 1);
        assert_eq!(c.pushed, c.consumed + c.dropped + c.rerouted + c.in_flight_at_shutdown);
    }

    /// A panicking MT worker degrades the run; survivors are salvaged.
    #[test]
    fn mt_worker_panic_degrades_instead_of_aborting() {
        use crate::result::FailureCause;
        let c =
            cfg(2).with_fault_plan(FaultPlan::none().with_panic(1, 0)).with_drain_deadline_ms(500);
        let prof = MtProfiler::new(c);
        let mut t1 = prof.tracer(1);
        // Worker 0 owns (addr >> 3) % 2 == 0; worker 1 the odd class.
        t1.event(acc(AccessKind::Write, 0x80, 1, 5, 1)); // worker 0
        t1.event(acc(AccessKind::Read, 0x80, 2, 6, 1)); // worker 0
        t1.event(acc(AccessKind::Write, 0x88, 3, 7, 1)); // worker 1 (dying)
        prof.join(1, t1);
        let r = prof.finish();
        assert!(r.degraded());
        assert_eq!(r.stats.worker_failures.len(), 1);
        assert_eq!(r.stats.worker_failures[0].worker, 1);
        assert!(matches!(r.stats.worker_failures[0].cause, FailureCause::Panic(_)));
        // The surviving worker's RAW is present.
        assert!(r.deps.dependences().any(|(d, _)| d.edge.dtype == DepType::Raw));
    }

    /// Returns once every worker has consumed what was sent before and
    /// handed its chunks back: each answers a message queued behind them.
    fn quiesce(prof: &MtProfiler) {
        use crate::workers::Reply;
        let sh = &*prof.shared;
        let mut expect: Vec<bool> = (sh.senders.iter().enumerate())
            .map(|(wid, tx)| sh.ctx.deliver(wid, tx, WorkerMsg::DeltaFlush, None).is_ok())
            .collect();
        let strays = prof.workers.await_replies(&mut expect, |msg| match msg {
            Reply::Delta { worker, .. } => Ok(worker),
            other => Err(other),
        });
        assert!(strays.is_empty() && !expect.contains(&true));
    }

    /// A joined thread's chunks go back to the pool, so fork–join rounds
    /// reuse them: the pool's peak after 32 rounds is the one after 1.
    #[test]
    fn joins_hand_every_chunk_back() {
        let chunk_bytes = |rounds: u64| {
            let prof = MtProfiler::new(cfg(2).with_chunk_capacity(16));
            for round in 0..rounds {
                let mut t = prof.tracer(1);
                for i in 0..10u64 {
                    t.event(acc(AccessKind::Write, 0x80 + i * 8, round * 10 + i + 1, 5, 1));
                }
                prof.join(1, t);
                quiesce(&prof);
            }
            let r = prof.finish();
            assert!(!r.degraded() && r.metrics.conservation.holds(), "{:?}", r.stats);
            assert_eq!(r.metrics.conservation.consumed, rounds * 10);
            r.memory.chunks
        };
        assert_eq!(chunk_bytes(1), chunk_bytes(32));
    }

    /// The config's plan reaches the MT engine's queues too: target
    /// threads pushing concurrently meet seeded spurious "full" answers
    /// and the workers spurious "empty" ones, and neither loses, degrades
    /// or miscounts anything.
    #[test]
    fn mt_spurious_queue_chaos_is_lossless() {
        let plan = FaultPlan::none().with_seed(9).with_spurious(30, 30);
        let prof = MtProfiler::new(cfg(3).with_fault_plan(plan));
        std::thread::scope(|s| {
            for tid in 1..=3u16 {
                let mut t = prof.tracer(tid);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let addr = 0x1000 + (i % 24) * 8 + tid as u64 * 0x1000;
                        t.event(acc(AccessKind::Write, addr, 2 * i + 1, 5, tid));
                        t.event(acc(AccessKind::Read, addr, 2 * i + 2, 6, tid));
                    }
                    t.sync_point();
                });
            }
        });
        let r = prof.finish();
        assert!(!r.degraded(), "{:?}", r.stats);
        assert_eq!(r.stats.accesses, 1200);
        let c = r.metrics.conservation;
        assert!(c.holds(), "{c:?}");
        assert_eq!((c.pushed, c.consumed, c.dropped), (1200, 1200, 0));
        let chunks = r.metrics.chunks;
        assert!(chunks.push_retries > 0 && chunks.empty_pops > 0, "{chunks:?}");
    }
}
