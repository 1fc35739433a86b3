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
//! The failure model matches the sequential pipeline (see
//! [`parallel`](crate::parallel)): workers run under `catch_unwind` and
//! flag themselves dead, producers fail fast on dead workers (dropping and
//! counting instead of spinning forever), and `finish()` salvages every
//! surviving worker's results within the drain deadline. Unlike the
//! sequential router, dead-worker traffic is *not* diverted to survivors:
//! with many producers there is no single point that could preserve
//! per-address order across the switch, so dropping-and-accounting is the
//! honest choice.

use crate::algo::{AlgoOptions, AlgoState};
use crate::config::{OverflowPolicy, ProfilerConfig};
use crate::parallel::{panic_message, EngineMetrics, WorkerMsg};
use crate::result::{FailureCause, MemoryReport, ProfileResult, ProfileStats, WorkerFailure};
use crate::store::DepStore;
use dp_metrics::{
    ChunkStats, Conservation, MetricsSnapshot, ObserverHandle, PhaseTimings, SigGauges, Stopwatch,
    WorkerMetrics,
};
use dp_queue::{Backoff, ChannelTap, Chunk, ChunkPool, MpmcQueue};
use dp_sig::AccessStore;
use dp_types::{ThreadId, TraceEvent, Tracer, TracerFactory};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type WorkerResult =
    (DepStore, crate::exectree::ExecTree, crate::algo::AlgoCounters, usize, SigGauges);

/// How a supervised MT worker thread ended.
enum MtExit {
    Finished(Box<WorkerResult>),
    Panicked { payload: String },
}

struct MtShared {
    queues: Vec<MpmcQueue<WorkerMsg>>,
    pool: Arc<ChunkPool>,
    chunks_pushed: AtomicU64,
    /// `dead[w]`: worker `w` panicked (set by the worker itself).
    dead: Vec<AtomicBool>,
    /// `stalled[w]`: a producer timed out delivering to `w` under
    /// [`OverflowPolicy::Drop`]; later producers fail fast until a push
    /// succeeds again.
    stalled: Vec<AtomicBool>,
    /// Events dropped per destination worker (dead or stalled).
    dropped: Vec<AtomicU64>,
    overflow: OverflowPolicy,
    stall_deadline_ms: u64,
    /// Conservation ledger (same law as the sequential pipeline, with
    /// `rerouted` pinned to zero — MT never diverts dead-worker traffic).
    metrics: EngineMetrics,
    /// Per-queue traffic taps. MT queues are raw [`MpmcQueue`]s shared by
    /// many producers, so the taps are fed inline here instead of through
    /// the `MeteredSender`/`MeteredReceiver` decorators.
    taps: Vec<ChannelTap>,
    /// Checkpoint reply slots: worker `w` deposits `Some(state)` when it
    /// handles [`WorkerMsg::Checkpoint`]. The inner option is `None`
    /// when the worker's access store does not support checkpointing.
    ckpt_replies: Mutex<Vec<Option<Option<Vec<u8>>>>>,
}

impl MtShared {
    fn drop_after(&self) -> Option<Duration> {
        match self.overflow {
            OverflowPolicy::Block => None,
            OverflowPolicy::Drop => Some(Duration::from_millis(self.stall_deadline_ms)),
        }
    }

    /// Delivers `msg` to `wid`, spinning with backoff while the queue is
    /// full; gives the message back when the worker is dead, or — with
    /// `drop_after` set — full past the deadline (the worker is then
    /// marked stalled so other producers fail fast).
    fn deliver(
        &self,
        wid: usize,
        mut msg: WorkerMsg,
        drop_after: Option<Duration>,
    ) -> Result<(), WorkerMsg> {
        let mut backoff = Backoff::new();
        let mut deadline: Option<Instant> = None;
        let mut waited_since: Option<Instant> = None;
        loop {
            if self.dead[wid].load(Ordering::Acquire) {
                return Err(msg);
            }
            match self.queues[wid].push(msg) {
                Ok(()) => {
                    self.stalled[wid].store(false, Ordering::Relaxed);
                    let tap = &self.taps[wid];
                    let n = tap.pushes.inc();
                    tap.high_water.record(n.saturating_sub(tap.pops.get()));
                    if let Some(since) = waited_since {
                        self.metrics.stall[wid].add(since.elapsed().as_nanos() as u64);
                    }
                    return Ok(());
                }
                Err(back) => {
                    msg = back;
                    self.taps[wid].push_fulls.inc();
                    waited_since.get_or_insert_with(Instant::now);
                    if let Some(limit) = drop_after {
                        if self.stalled[wid].load(Ordering::Acquire) {
                            return Err(msg);
                        }
                        let d = *deadline.get_or_insert_with(|| Instant::now() + limit);
                        if Instant::now() >= d {
                            self.stalled[wid].store(true, Ordering::Release);
                            return Err(msg);
                        }
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// Drop accounting for an undeliverable message.
    fn account_drop(&self, wid: usize, msg: WorkerMsg) {
        if let WorkerMsg::Events(chunk) = msg {
            self.dropped[wid].fetch_add(chunk.len() as u64, Ordering::Relaxed);
            self.metrics.dropped[wid].add(chunk.len() as u64);
            self.pool.release(chunk);
        }
    }
}

/// Per-target-thread tracer: buffers events per worker, flushing full
/// chunks eagerly and partial chunks at every sync point (lock release,
/// barrier, thread exit).
pub struct MtThreadTracer {
    shared: Arc<MtShared>,
    pending: Vec<Chunk>,
}

impl MtThreadTracer {
    fn append(&mut self, wid: usize, ev: TraceEvent) {
        self.pending[wid].push(ev);
        if self.pending[wid].is_full() {
            self.flush(wid);
        }
    }

    fn flush(&mut self, wid: usize) {
        if self.pending[wid].is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.pending[wid], self.shared.pool.acquire());
        let len = chunk.len() as u64;
        // Once per chunk: every target thread shares this counter's line.
        self.shared.metrics.pushed.add(len);
        let drop_after = self.shared.drop_after();
        match self.shared.deliver(wid, WorkerMsg::Events(chunk), drop_after) {
            Ok(()) => {
                self.shared.chunks_pushed.fetch_add(1, Ordering::Relaxed);
                self.shared.metrics.enqueued[wid].add(len);
            }
            Err(msg) => self.shared.account_drop(wid, msg),
        }
    }
}

impl Tracer for MtThreadTracer {
    fn event(&mut self, ev: TraceEvent) {
        let w = self.pending.len() as u64;
        match ev {
            // Formula 1 with the 8-byte alignment shifted out (see
            // `ParallelProfiler::owner`).
            TraceEvent::Access(a) => self.append(((a.addr >> 3) % w) as usize, ev),
            // Structural events (loop records + execution tree) all go to
            // worker 0 so per-thread nesting stays coherent.
            TraceEvent::LoopBegin { .. }
            | TraceEvent::LoopEnd { .. }
            | TraceEvent::CallBegin { .. }
            | TraceEvent::CallEnd { .. } => {
                let _ = w;
                self.append(0, ev);
            }
            // Iteration boundaries are only needed for carried
            // classification, which is off for multi-threaded targets.
            TraceEvent::LoopIter { .. } => {}
            TraceEvent::Dealloc { .. } => {
                for wid in 0..self.pending.len() {
                    self.append(wid, ev);
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
    handles: Mutex<Vec<JoinHandle<MtExit>>>,
    drain_deadline_ms: u64,
    observer: ObserverHandle,
    timer: Stopwatch,
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
        let pool = ChunkPool::new(w * cfg.queue_chunks * 4, cfg.chunk_capacity);
        let shared = Arc::new(MtShared {
            queues: (0..w).map(|_| MpmcQueue::new(cfg.queue_chunks)).collect(),
            pool,
            chunks_pushed: AtomicU64::new(0),
            dead: (0..w).map(|_| AtomicBool::new(false)).collect(),
            stalled: (0..w).map(|_| AtomicBool::new(false)).collect(),
            dropped: (0..w).map(|_| AtomicU64::new(0)).collect(),
            overflow: cfg.overflow,
            stall_deadline_ms: cfg.stall_deadline_ms,
            metrics: EngineMetrics::new(w),
            taps: (0..w).map(|_| ChannelTap::default()).collect(),
            ckpt_replies: Mutex::new((0..w).map(|_| None).collect()),
        });
        let mut handles = Vec::with_capacity(w);
        for wid in 0..w {
            let algo = AlgoState::new(
                make_store(),
                make_store(),
                AlgoOptions {
                    track_carried: false,
                    check_reversal: true,
                    // Structural events are routed to worker 0 only.
                    record_loops: wid == 0,
                    section_shift: 0,
                },
            );
            let sh = shared.clone();
            let plan = cfg.fault_plan.clone();
            handles.push(std::thread::spawn(move || mt_worker(sh, wid, algo, plan)));
        }
        MtProfiler {
            shared,
            handles: Mutex::new(handles),
            drain_deadline_ms: cfg.drain_deadline_ms,
            observer: cfg.observer,
            timer: Stopwatch::start(),
        }
    }

    /// Monotone progress value for a run watchdog: events pushed by the
    /// target threads plus events consumed by the workers. Constant 0
    /// when the `metrics` feature is off.
    pub fn heartbeat(&self) -> u64 {
        let m = &self.shared.metrics;
        m.pushed.get() + m.consumed.iter().map(dp_metrics::Counter::get).sum::<u64>()
    }

    /// Captures a checkpoint of every worker's extraction state plus the
    /// conservation ledger.
    ///
    /// Call only at a global sync point of the target program: every
    /// target thread must have passed [`Tracer::sync_point`] (flushing
    /// its chunk buffers) with no new events produced since, so the
    /// queue contents ahead of the barrier fully determine worker
    /// state. The MT engine supports *writing* checkpoints (an
    /// emergency snapshot a later sequential replay can inspect);
    /// resuming an MT run is not supported — there is no single trace
    /// position to seek multiple free-running target threads to.
    pub fn checkpoint_data(
        &self,
        generation: u64,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<crate::checkpoint::CheckpointData, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointData, CheckpointError};
        let w = self.shared.queues.len();
        let drain = Duration::from_millis(self.drain_deadline_ms.max(1));
        {
            let mut slots = self.shared.ckpt_replies.lock();
            slots.clear();
            slots.resize(w, None);
        }
        for wid in 0..w {
            if self.shared.deliver(wid, WorkerMsg::Checkpoint, Some(drain)).is_err() {
                return Err(CheckpointError::WorkerUnavailable(wid));
            }
        }
        let deadline = Instant::now() + drain;
        let mut workers = Vec::with_capacity(w);
        for wid in 0..w {
            loop {
                if let Some(reply) = self.shared.ckpt_replies.lock()[wid].take() {
                    match reply {
                        Some(bytes) => workers.push(bytes),
                        None => {
                            return Err(CheckpointError::Unsupported(
                                "the worker access store does not support checkpointing",
                            ))
                        }
                    }
                    break;
                }
                if self.shared.dead[wid].load(Ordering::Acquire) || Instant::now() >= deadline {
                    return Err(CheckpointError::WorkerUnavailable(wid));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(CheckpointData {
            generation,
            records_read,
            config,
            // The MT router is distributed across target threads: no
            // central statistics to capture.
            router: Vec::new(),
            ledger: self.shared.metrics.save(),
            workers,
        })
    }

    /// Drains the pipeline, joins the workers and merges their results —
    /// salvaging survivors and bounding every wait by the drain deadline
    /// when a worker was lost. Call only after the target program has
    /// fully finished (all target threads joined).
    pub fn finish(self) -> ProfileResult {
        let feed_nanos = self.timer.elapsed_nanos();
        let drain_timer = Stopwatch::start();
        let w = self.shared.queues.len();
        let drain = Duration::from_millis(self.drain_deadline_ms.max(1));
        let shutdown_ok: Vec<bool> = (0..w)
            .map(|wid| self.shared.deliver(wid, WorkerMsg::Shutdown, Some(drain)).is_ok())
            .collect();
        let mut stats = ProfileStats::default();
        let mut global = DepStore::new();
        let mut exec_tree = crate::exectree::ExecTree::new();
        let mut sig_mem = 0usize;
        let mut per_worker_events = Vec::new();
        let mut failures: Vec<WorkerFailure> = Vec::new();
        let mut gauges = SigGauges::default();
        let grace = Duration::from_millis(self.drain_deadline_ms.clamp(50, 500));
        for (wid, h) in self.handles.into_inner().into_iter().enumerate() {
            let wait = if shutdown_ok[wid] { drain } else { grace };
            let end = Instant::now() + wait;
            while !h.is_finished() && Instant::now() < end {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !h.is_finished() {
                // Unresponsive past the deadline: detach instead of
                // hanging finish() forever.
                failures.push(WorkerFailure {
                    worker: wid,
                    workers: w,
                    cause: FailureCause::Unresponsive,
                });
                per_worker_events.push(0);
                continue;
            }
            let exit = match h.join() {
                Ok(e) => e,
                Err(p) => MtExit::Panicked { payload: panic_message(&*p) },
            };
            match exit {
                MtExit::Finished(res) => {
                    let (store, tree, counters, mem, g) = *res;
                    if !shutdown_ok[wid] {
                        failures.push(WorkerFailure {
                            worker: wid,
                            workers: w,
                            cause: FailureCause::Unresponsive,
                        });
                    }
                    gauges.occupied_slots += g.occupied_slots;
                    gauges.total_slots += g.total_slots;
                    gauges.evictions += g.evictions;
                    gauges.est_fpr_pct = gauges.est_fpr_pct.max(g.est_fpr_pct);
                    stats.absorb(counters);
                    sig_mem += mem;
                    per_worker_events.push(counters.accesses);
                    global.merge(store);
                    exec_tree.merge(&tree);
                }
                MtExit::Panicked { payload } => {
                    failures.push(WorkerFailure {
                        worker: wid,
                        workers: w,
                        cause: FailureCause::Panic(payload),
                    });
                    per_worker_events.push(0);
                }
            }
        }
        stats.deps_built = global.deps_built();
        stats.deps_merged = global.merged_len();
        stats.chunks_pushed = self.shared.chunks_pushed.load(Ordering::Relaxed);
        let dropped: Vec<u64> =
            self.shared.dropped.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        stats.dropped_events = dropped.iter().sum();
        if stats.dropped_events > 0 {
            stats.dropped_per_worker = dropped;
        }
        stats.worker_failures = failures;
        for f in &stats.worker_failures {
            self.observer.on_worker_failure(f.worker);
        }
        // The run's footprint, index included (see `SequentialProfiler::finish`).
        let store_mem = global.memory_usage();
        global.seal();
        let memory = MemoryReport {
            signatures: sig_mem,
            queues: self.shared.queues.iter().map(|q| q.memory_usage()).sum(),
            chunks: self.shared.pool.memory_usage(),
            dep_store: store_mem,
            stats_maps: 0,
        };
        let workers = self.shared.queues.len();
        let metrics = if dp_metrics::ENABLED {
            let m = &self.shared.metrics;
            let mut conservation = Conservation { pushed: m.pushed.get(), ..Default::default() };
            let mut per_worker = Vec::with_capacity(w);
            let mut stall_total = 0u64;
            let mut chunks_consumed = 0u64;
            for wid in 0..w {
                // Read `enqueued` first and clamp `consumed` to it: a
                // worker abandoned as unresponsive may still be draining
                // its queue concurrently with this snapshot, and the clamp
                // keeps the consumed/in-flight split internally consistent
                // (the producer-side counters are exact by construction).
                let enqueued = m.enqueued[wid].get();
                let consumed = m.consumed[wid].get().min(enqueued);
                let in_flight = enqueued - consumed;
                let dropped = m.dropped[wid].get();
                let stall = m.stall[wid].get();
                conservation.consumed += consumed;
                conservation.dropped += dropped;
                conservation.in_flight_at_shutdown += in_flight;
                stall_total += stall;
                chunks_consumed += m.consumed_chunks[wid].get();
                per_worker.push(WorkerMetrics {
                    worker: wid,
                    enqueued,
                    consumed,
                    dropped,
                    in_flight,
                    consumed_chunks: m.consumed_chunks[wid].get(),
                    stall_nanos: stall,
                });
            }
            let drain_nanos = drain_timer.elapsed_nanos();
            MetricsSnapshot {
                enabled: true,
                workers: w,
                // The chaos seed is a run-level fact the CLI stamps on
                // the snapshot; engines report 0.
                chaos_seed: 0,
                conservation,
                chunks: ChunkStats {
                    pushed: self.shared.chunks_pushed.load(Ordering::Relaxed),
                    consumed: chunks_consumed,
                    queue_highwater: self
                        .shared
                        .taps
                        .iter()
                        .map(|t| t.high_water.get())
                        .max()
                        .unwrap_or(0),
                    push_retries: self.shared.taps.iter().map(|t| t.push_fulls.get()).sum(),
                    empty_pops: self.shared.taps.iter().map(|t| t.empty_pops.get()).sum(),
                },
                stall_nanos: stall_total,
                signatures: gauges,
                // Checkpoint accounting is owned by the driver that owns
                // the checkpoint store, not by the engine.
                checkpoints: Default::default(),
                service: Default::default(),
                // The MT router is distributed across target threads, so
                // there is no central hot-address table to report.
                hot_addresses: Vec::new(),
                per_worker,
                timings: PhaseTimings {
                    feed_nanos,
                    drain_nanos,
                    total_nanos: feed_nanos + drain_nanos,
                },
            }
        } else {
            MetricsSnapshot::default()
        };
        self.observer.on_finish(&metrics);
        ProfileResult {
            deps: global,
            exec_tree,
            stats,
            memory,
            workers,
            per_worker_events,
            metrics,
        }
    }
}

impl TracerFactory for MtProfiler {
    type Tracer = MtThreadTracer;

    fn tracer(&self, _tid: ThreadId) -> MtThreadTracer {
        let w = self.shared.queues.len();
        MtThreadTracer {
            shared: self.shared.clone(),
            pending: (0..w).map(|_| self.shared.pool.acquire()).collect(),
        }
    }

    fn join(&self, _tid: ThreadId, mut tracer: MtThreadTracer) {
        tracer.sync_point();
    }
}

/// Injected panic hook for the MT engine (panic-only: stalls and reply
/// drops are sequential-pipeline concepts).
#[cfg(feature = "fault-inject")]
fn mt_fault_panic(wid: usize, chunks_done: u64, plan: &dp_queue::FaultPlan) {
    if let Some(f) = plan.panic_worker {
        if f.worker == wid && chunks_done >= f.after_chunks {
            panic!("injected fault: mt worker {wid} panicked after {} chunks", f.after_chunks);
        }
    }
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn mt_fault_panic(_: usize, _: u64, _: &dp_queue::FaultPlan) {}

fn mt_worker<S: AccessStore>(
    shared: Arc<MtShared>,
    wid: usize,
    algo: AlgoState<S>,
    plan: dp_queue::FaultPlan,
) -> MtExit {
    let sh = shared.clone();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_mt_worker(sh, wid, algo, plan)
    }));
    match out {
        Ok(res) => MtExit::Finished(Box::new(res)),
        Err(payload) => {
            // Flag death before the thread exits so producers fail fast.
            shared.dead[wid].store(true, Ordering::Release);
            MtExit::Panicked { payload: panic_message(&*payload) }
        }
    }
}

fn run_mt_worker<S: AccessStore>(
    shared: Arc<MtShared>,
    wid: usize,
    mut algo: AlgoState<S>,
    plan: dp_queue::FaultPlan,
) -> WorkerResult {
    let mut backoff = Backoff::new();
    let mut chunks_done = 0u64;
    loop {
        mt_fault_panic(wid, chunks_done, &plan);
        let msg = shared.queues[wid].pop();
        if msg.is_some() {
            shared.taps[wid].pops.inc();
        } else {
            shared.taps[wid].empty_pops.inc();
        }
        match msg {
            Some(WorkerMsg::Events(chunk)) => {
                // Consumed means *off the queue*: counted before
                // processing, so events lost to a mid-chunk panic are
                // still accounted as consumed rather than in-flight.
                shared.metrics.consumed[wid].add(chunk.len() as u64);
                shared.metrics.consumed_chunks[wid].inc();
                algo.on_chunk(chunk.events());
                shared.pool.release(chunk);
                chunks_done += 1;
                backoff.reset();
            }
            Some(WorkerMsg::Inject { addr, read, write }) => algo.inject(addr, read, write),
            Some(WorkerMsg::Extract { .. })
            | Some(WorkerMsg::EnableDelta)
            | Some(WorkerMsg::DeltaFlush) => { /* not used in MT mode */ }
            Some(WorkerMsg::Checkpoint) => {
                // Queue FIFO order guarantees everything flushed before
                // the barrier is already folded into `algo`.
                let mut out = dp_types::wire::ByteWriter::new();
                let state = algo.save_state(&mut out).then(|| out.into_bytes());
                shared.ckpt_replies.lock()[wid] = Some(state);
            }
            Some(WorkerMsg::Shutdown) => break,
            None => backoff.snooze(),
        }
    }
    let gauges = algo.sig_gauges();
    let (store, tree, counters, mem) = algo.finish();
    (store, tree, counters, mem, gauges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{loc::loc, AccessKind, DepFlags, DepType, MemAccess};

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

    /// At a global sync point the MT engine can snapshot every worker's
    /// extraction state plus a conserved ledger.
    #[test]
    fn mt_checkpoint_captures_all_workers() {
        let prof = MtProfiler::new(cfg(2).with_drain_deadline_ms(2000));
        let mut t1 = prof.tracer(1);
        t1.event(acc(AccessKind::Write, 0x80, 1, 5, 1));
        t1.event(acc(AccessKind::Write, 0x88, 2, 6, 1));
        t1.sync_point();
        let data = prof.checkpoint_data(0, 2, b"mt".to_vec()).unwrap();
        assert_eq!(data.workers.len(), 2);
        assert!(data.workers.iter().all(|w| !w.is_empty()));
        assert!(data.router.is_empty(), "MT has no central router state");
        if dp_metrics::ENABLED {
            assert!(!data.ledger.is_empty());
        }
        // The engine keeps running after the snapshot.
        t1.event(acc(AccessKind::Read, 0x80, 3, 7, 1));
        prof.join(1, t1);
        let r = prof.finish();
        assert!(!r.degraded(), "{:?}", r.stats);
        assert!(r.deps.dependences().any(|(d, _)| d.edge.dtype == DepType::Raw));
    }

    /// A panicking MT worker degrades the run; survivors are salvaged.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn mt_worker_panic_degrades_instead_of_aborting() {
        use dp_queue::FaultPlan;
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
}
