//! The supervised worker threads every pipeline runs on.
//!
//! Section V's engine for multi-threaded targets is Section IV's pipeline
//! with multi-producer queues and a timestamp check, so the two share
//! everything behind the queues: the messages ([`WorkerMsg`] in, `Reply`
//! out), the worker loop under its one `catch_unwind`, the supervision
//! flags, the fault hooks, the conservation ledger (`EngineMetrics`),
//! and the end of a run — join every worker within the drain deadline,
//! salvage what the survivors hold, merge it, and assemble the
//! [`MetricsSnapshot`] — and the one way to reach a worker:
//! `WorkerCtx::deliver` and the chunk send built on it, whatever queue
//! is behind the sending end. [`parallel`](crate::parallel) and
//! [`mt`](crate::mt) differ only in who produces and which queue carries
//! the messages.
//!
//! ## Failure model
//!
//! Profiling must never take the target down with it. A panicking worker
//! is contained, flags itself dead before its thread exits, and producers
//! fail fast on dead workers instead of spinning on a queue nobody will
//! drain. `Workers::finish` is a supervisor: it bounds every wait by
//! [`ProfilerConfig::drain_deadline_ms`] and reports each lost worker as
//! a [`WorkerFailure`], so a degraded profile says exactly *what* is
//! missing (the worker's residue class under Formula 1).

use crate::algo::{AlgoCounters, AlgoState};
use crate::checkpoint::CheckpointError;
use crate::config::ProfilerConfig;
use crate::exectree::ExecTree;
use crate::result::{FailureCause, MemoryReport, ProfileResult, ProfileStats, WorkerFailure};
use crate::store::{AnalysisDelta, DepStore};
use dp_metrics::{
    ChunkStats, Conservation, Counter, HotAddress, MetricsSnapshot, PhaseTimings, SigGauges,
    Stopwatch, WorkerMetrics,
};
use dp_queue::{
    Backoff, ChannelTap, Chunk, ChunkPool, FaultPlan, MpmcQueue, Spurious, TransportReceiver,
    TransportSender,
};
use dp_sig::{AccessStore, SigEntry};
use dp_types::{Address, ByteReader, ByteWriter, WireError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Messages flowing through a worker's queue.
pub enum WorkerMsg {
    /// A chunk of trace events.
    Events(Chunk),
    /// Redistribution: extract and return the signature state of `addr`.
    Extract {
        /// Address being migrated away from this worker.
        addr: Address,
    },
    /// Redistribution: adopt the signature state of `addr`.
    Inject {
        /// Address being migrated to this worker.
        addr: Address,
        /// Read-signature entry, if any.
        read: Option<SigEntry>,
        /// Write-signature entry, if any.
        write: Option<SigEntry>,
    },
    /// Quiesce barrier: serialize the worker's complete extraction
    /// state and reply on the response queue. Queue FIFO order
    /// guarantees the worker has consumed every event routed before
    /// this message when it replies, so the blob captures a consistent
    /// cut of the run.
    Checkpoint,
    /// Online analysis: drain the worker's dirty set and reply with an
    /// [`AnalysisDelta`] on the response queue. FIFO order makes the
    /// delta cover exactly the events routed before this message.
    DeltaFlush,
    /// Drain and exit.
    Shutdown,
}

/// Worker→producer responses, all on one bounded queue (redistribution
/// replies bounded by `top_k`, the others by the worker count).
pub(crate) enum Reply {
    Extracted {
        addr: Address,
        read: Option<SigEntry>,
        write: Option<SigEntry>,
    },
    /// Reply to [`WorkerMsg::Checkpoint`]; `state` is `None` when the
    /// worker's access store does not support checkpointing.
    CheckpointState {
        worker: usize,
        state: Option<Vec<u8>>,
    },
    /// Reply to [`WorkerMsg::DeltaFlush`]. The worker has already drained
    /// its dirty set, so a receiver outside its collect window parks the
    /// delta instead of dropping it.
    Delta {
        worker: usize,
        delta: AnalysisDelta,
    },
}

struct WorkerOutput {
    store: DepStore,
    exec_tree: ExecTree,
    counters: AlgoCounters,
    sig_mem: usize,
    gauges: SigGauges,
}

/// How a supervised worker thread ended.
enum WorkerExit {
    /// Clean exit (or an abandoned stall that woke up): results salvaged.
    Finished(Box<WorkerOutput>),
    /// The worker panicked; the payload is kept for the [`WorkerFailure`].
    Panicked(String),
}

/// The event-conservation ledger, shared by the producers and every
/// worker.
///
/// The invariant the counters are built to prove (and the metrics test
/// suite checks across every transport and chaos seed):
///
/// ```text
/// pushed == consumed + dropped + rerouted + in_flight_at_shutdown
/// ```
///
/// where `in_flight[w] = enqueued[w] − consumed[w]`. Rerouted copies are
/// a *terminal* disposition: they are counted once at routing time and
/// marked in their chunk ([`Chunk::mark_rerouted`]), and every downstream
/// tap (enqueue, drop, consume) excludes the marks, keeping the law's
/// columns disjoint (the MT engine never diverts, so its `rerouted` stays
/// zero). All counters are `dp-metrics` primitives (relaxed atomics).
pub(crate) struct EngineMetrics {
    /// Events in every chunk flushed towards a queue (counted once per
    /// chunk, not per event: the counter is a cache line every producer
    /// shares). Readers flush the pending chunks first.
    pub(crate) pushed: Counter,
    /// Event copies diverted away from a dead owner at routing time.
    pub(crate) rerouted: Counter,
    /// Per worker: events inside successfully enqueued chunks, rerouted
    /// marks excluded.
    pub(crate) enqueued: Vec<Counter>,
    /// Per worker: events dropped at the flush tap, rerouted marks
    /// excluded.
    pub(crate) dropped: Vec<Counter>,
    /// Per worker: events popped off the queue (counted at pop, before
    /// processing — "consumed" means *removed from the queue*), rerouted
    /// marks excluded.
    pub(crate) consumed: Vec<Counter>,
    /// Per worker: event chunks popped off the queue.
    pub(crate) consumed_chunks: Vec<Counter>,
    /// Per worker: nanoseconds its queue stayed continuously full while
    /// producers waited on it, charged once an episode however many
    /// waited.
    pub(crate) stall: Vec<Counter>,
}

impl EngineMetrics {
    fn new(workers: usize) -> Self {
        let col = |_| Counter::new();
        EngineMetrics {
            pushed: Counter::new(),
            rerouted: Counter::new(),
            enqueued: (0..workers).map(col).collect(),
            dropped: (0..workers).map(col).collect(),
            consumed: (0..workers).map(col).collect(),
            consumed_chunks: (0..workers).map(col).collect(),
            stall: (0..workers).map(col).collect(),
        }
    }

    /// Monotone progress value for a run watchdog: events pushed plus
    /// events consumed, so progress on either side of the queues moves
    /// it.
    pub(crate) fn heartbeat(&self) -> u64 {
        self.pushed.get() + self.consumed.iter().map(Counter::get).sum::<u64>()
    }

    /// Serializes the ledger for a checkpoint. The stall clocks are wall
    /// time, not profile state, and stay out of it, as the phase timings
    /// do: two runs that reach the same state write the same bytes.
    pub(crate) fn save(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.u64(self.pushed.get());
        out.u64(self.rerouted.get());
        out.u32(self.enqueued.len() as u32);
        for wid in 0..self.enqueued.len() {
            out.u64(self.enqueued[wid].get());
            out.u64(self.dropped[wid].get());
            out.u64(self.consumed[wid].get());
            out.u64(self.consumed_chunks[wid].get());
        }
        out.into_bytes()
    }

    /// Restores a checkpointed ledger into this (fresh) engine's zeroed
    /// counters via `add`, preserving the conservation law across the
    /// resume. `&self` suffices: counters are interior-mutable.
    pub(crate) fn restore(&self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = ByteReader::new(bytes);
        self.pushed.add(r.u64()?);
        self.rerouted.add(r.u64()?);
        let nw = r.u32()? as usize;
        if nw != self.enqueued.len() {
            return Err(WireError::Invalid("ledger worker count differs from checkpoint"));
        }
        for wid in 0..nw {
            self.enqueued[wid].add(r.u64()?);
            self.dropped[wid].add(r.u64()?);
            self.consumed[wid].add(r.u64()?);
            self.consumed_chunks[wid].add(r.u64()?);
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after ledger state"));
        }
        Ok(())
    }
}

/// Everything the worker threads share with their producers.
pub(crate) struct WorkerCtx {
    pub(crate) pool: Arc<ChunkPool>,
    pub(crate) resp: MpmcQueue<Reply>,
    /// `dead[w]`: worker `w` panicked. Set by the worker itself on the
    /// way out (before its thread exits), read by producers to fail fast
    /// instead of blocking on a queue nobody will drain.
    pub(crate) dead: Vec<AtomicBool>,
    /// `abandon[w]`: the supervisor gave up on worker `w`. A stalled
    /// worker that is still responsive to this flag (the injected-stall
    /// hook is) exits so its partial results can be salvaged.
    abandon: Vec<AtomicBool>,
    /// `exited[w]`: worker `w`'s thread has left its code, whichever way;
    /// the condvar wakes the supervisor waiting for that in `finish`.
    exited: (Mutex<Vec<bool>>, Condvar),
    pub(crate) metrics: EngineMetrics,
    /// Event chunks delivered, to any worker.
    pub(crate) chunks_pushed: Counter,
    /// Per worker: events in chunks that could not be delivered, rerouted
    /// marks included ([`ProfileStats::dropped_per_worker`]).
    pub(crate) dropped_events: Vec<Counter>,
    /// Per worker: its channel's push/pop counters.
    taps: Vec<ChannelTap>,
    /// Per worker: when its queue became continuously full, as
    /// [`WorkerCtx::clock`] read then; 0 while the last push went in. One
    /// clock a worker whoever pushes, so a full-queue episode is charged
    /// to the worker's stall account once, and a deadline one producer
    /// paid is paid for all.
    full_since: Vec<AtomicU64>,
    epoch: Instant,
    /// [`ProfilerConfig::drop_after`]: what a full queue may cost a send.
    pub(crate) drop_after: Option<Duration>,
    /// The fault-injection script, its spurious-"full" schedule per
    /// worker channel, and the counter that makes "drop the *n*-th
    /// Extracted reply" global across workers.
    plan: FaultPlan,
    spurious_full: Vec<Spurious>,
    extract_replies: AtomicU64,
}

impl WorkerCtx {
    /// The context of a worker per queue capacity over `pool`, its clock started now.
    fn new(cfg: &ProfilerConfig, queue_caps: &[usize], pool: Arc<ChunkPool>) -> Self {
        let w = queue_caps.len();
        let flags = || (0..w).map(|_| AtomicBool::new(false)).collect();
        WorkerCtx {
            pool,
            resp: MpmcQueue::new((cfg.top_k * 4).max(64).max(w)),
            dead: flags(),
            abandon: flags(),
            exited: (Mutex::new(vec![false; w]), Condvar::new()),
            metrics: EngineMetrics::new(w),
            chunks_pushed: Counter::new(),
            dropped_events: (0..w).map(|_| Counter::new()).collect(),
            taps: queue_caps.iter().map(|&cap| ChannelTap::new(cap)).collect(),
            full_since: (0..w).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            drop_after: cfg.drop_after(),
            plan: cfg.fault_plan.clone(),
            spurious_full: (0..w).map(|wid| cfg.fault_plan.spurious_full(wid)).collect(),
            extract_replies: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn is_dead(&self, wid: usize) -> bool {
        self.dead[wid].load(Ordering::Acquire)
    }

    /// Nanoseconds since the engine started, plus one, so that no reading
    /// is 0.
    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// Delivers `msg` to worker `wid` through `tx`, its channel's sending
    /// end, backing off while the queue is full. Gives the message back
    /// instead of blocking forever when the worker is dead (flagged, or
    /// seen through a closed endpoint, which flags it), or — with
    /// `drop_after` set — once the queue has been continuously full that
    /// long. The deadline runs from when the queue *became* full,
    /// whichever producer was pushing, so after one paid deadline every
    /// later send to a still-stalled worker fails at once. The fault
    /// plan's spurious "full" answers are injected here, inside the tap,
    /// for every queue alike.
    pub(crate) fn deliver<S: TransportSender<WorkerMsg> + ?Sized>(
        &self,
        wid: usize,
        tx: &S,
        mut msg: WorkerMsg,
        drop_after: Option<Duration>,
    ) -> Result<(), WorkerMsg> {
        let full_since = &self.full_since[wid];
        let mut backoff = Backoff::new();
        loop {
            if self.is_dead(wid) {
                return Err(msg);
            }
            let pushed = if self.spurious_full[wid].fires() { Err(msg) } else { tx.push(msg) };
            self.taps[wid].on_push(pushed.is_ok());
            match pushed {
                Ok(()) => {
                    // The push that ends a full-queue episode charges its
                    // wait to the worker's stall account (a plain load
                    // first: most pushes end none, and need no RMW).
                    if full_since.load(Ordering::Relaxed) != 0 {
                        let since = full_since.swap(0, Ordering::Relaxed);
                        if since != 0 {
                            self.metrics.stall[wid].add(self.clock().saturating_sub(since));
                        }
                    }
                    return Ok(());
                }
                Err(back) => {
                    msg = back;
                    if tx.is_closed() {
                        self.dead[wid].store(true, Ordering::Release);
                        return Err(msg);
                    }
                    // The first push to find the queue full starts the clock.
                    let now = self.clock();
                    let cas =
                        full_since.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
                    let since = cas.err().unwrap_or(now);
                    if drop_after.is_some_and(|d| now.saturating_sub(since) >= d.as_nanos() as u64)
                    {
                        return Err(msg);
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// Sends a filled chunk to worker `wid` under
    /// [`WorkerCtx::drop_after`] and ledgers it: pushed, then
    /// enqueued — or, when the worker is dead or stalled, dropped, with
    /// the chunk back in the pool. True when it was delivered. An empty
    /// chunk goes straight back to the pool.
    pub(crate) fn send_chunk<S: TransportSender<WorkerMsg> + ?Sized>(
        &self,
        wid: usize,
        tx: &S,
        chunk: Chunk,
    ) -> bool {
        if chunk.is_empty() {
            self.pool.release(chunk);
            return false;
        }
        let len = chunk.len() as u64;
        // Rerouted copies were already accounted at routing time.
        let unmarked = (chunk.len() - chunk.rerouted()) as u64;
        // Once per chunk: every producer shares this counter's line.
        self.metrics.pushed.add(len);
        match self.deliver(wid, tx, WorkerMsg::Events(chunk), self.drop_after) {
            Ok(()) => {
                self.chunks_pushed.inc();
                self.metrics.enqueued[wid].add(unmarked);
                true
            }
            Err(WorkerMsg::Events(chunk)) => {
                // Account for every lost event, so the degraded profile
                // quantifies exactly what is missing.
                self.dropped_events[wid].add(len);
                self.metrics.dropped[wid].add(unmarked);
                self.pool.release(chunk);
                false
            }
            Err(_) => unreachable!("deliver returns the message it was given"),
        }
    }

    /// Empties the reply queue of answers that missed their window, so
    /// that none can pass for an answer to the next request.
    pub(crate) fn stale_replies(&self) -> Vec<Reply> {
        std::iter::from_fn(|| self.resp.pop()).collect()
    }
}

/// A shared queue's channel: one `Arc` on each side.
pub(crate) fn shared<Q>(queue: Q) -> (Arc<Q>, Arc<Q>) {
    let q = Arc::new(queue);
    (q.clone(), q)
}

/// The worker threads of one engine, owned by its supervisor.
pub(crate) struct Workers {
    pub(crate) ctx: Arc<WorkerCtx>,
    handles: Vec<JoinHandle<WorkerExit>>,
    drain_deadline_ms: u64,
    /// Started at spawn, restarted by [`Workers::begin_drain`].
    timer: Stopwatch,
    feed_nanos: u64,
}

impl Workers {
    /// Starts one supervised worker thread per element of `algos`, each
    /// behind its own channel from `channel` (called with the capacity,
    /// [`ProfilerConfig::queue_chunks`]), and returns the sending ends; the
    /// producers take their chunks from `pool`. Every worker state is built
    /// (and, on resume, restored) by the caller before any thread exists.
    pub(crate) fn spawn<S: AccessStore + 'static, Tx, R: TransportReceiver<WorkerMsg> + 'static>(
        cfg: &ProfilerConfig,
        pool: Arc<ChunkPool>,
        algos: Vec<AlgoState<S>>,
        channel: impl Fn(usize) -> (Tx, R),
    ) -> (Vec<Tx>, Workers) {
        let (senders, receivers): (Vec<Tx>, Vec<R>) =
            algos.iter().map(|_| channel(cfg.queue_chunks)).unzip();
        let caps: Vec<usize> = receivers.iter().map(|rx| rx.capacity()).collect();
        let ctx = Arc::new(WorkerCtx::new(cfg, &caps, pool));
        // Workers that cannot each have a CPU beside a producer run below it.
        let defer = algos.len() >= std::thread::available_parallelism().map_or(1, |n| n.get());
        let handles = (algos.into_iter().zip(receivers).enumerate())
            .map(|(wid, (algo, rx))| {
                let ctx = ctx.clone();
                std::thread::spawn(move || worker_entry(wid, rx, algo, &ctx, defer))
            })
            .collect();
        let workers = Workers {
            ctx,
            handles,
            drain_deadline_ms: cfg.drain_deadline_ms,
            timer: Stopwatch::start(),
            feed_nanos: 0,
        };
        (senders, workers)
    }

    /// The bound on every supervisor wait.
    pub(crate) fn drain(&self) -> Duration {
        Duration::from_millis(self.drain_deadline_ms.max(1))
    }

    /// The one reply wait: pops the response queue until every worker
    /// flagged in `expect` has answered or flagged itself dead (flags
    /// cleared as they do), or the drain deadline passes. `claim` names
    /// the worker a reply answers for and keeps its payload, or hands the
    /// reply back; those come back as strays for the caller to dispose of.
    pub(crate) fn await_replies(
        &self,
        expect: &mut [bool],
        mut claim: impl FnMut(Reply) -> Result<usize, Reply>,
    ) -> Vec<Reply> {
        let mut strays = Vec::new();
        let deadline = Instant::now() + self.drain();
        while expect.contains(&true) {
            match self.ctx.resp.pop().map(&mut claim) {
                Some(Ok(worker)) => expect[worker] = false,
                Some(Err(msg)) => strays.push(msg),
                None => {
                    for (wid, e) in expect.iter_mut().enumerate() {
                        *e &= !self.ctx.is_dead(wid);
                    }
                    if Instant::now() >= deadline {
                        break; // slow worker: its answer goes stale, not lost
                    }
                    std::thread::yield_now();
                }
            }
        }
        strays
    }

    /// Every worker's answer to a [`WorkerMsg::Checkpoint`] the caller has
    /// just delivered to each, and the strays met while waiting. A dead
    /// or silent worker yields [`CheckpointError::WorkerUnavailable`]
    /// rather than a checkpoint that silently lies about the run.
    pub(crate) fn checkpoint_states(&self) -> (Result<Vec<Vec<u8>>, CheckpointError>, Vec<Reply>) {
        let w = self.handles.len();
        let mut states: Vec<Option<Option<Vec<u8>>>> = vec![None; w];
        let strays = self.await_replies(&mut vec![true; w], |msg| match msg {
            Reply::CheckpointState { worker, state } if worker < w && states[worker].is_none() => {
                states[worker] = Some(state);
                Ok(worker)
            }
            other => Err(other),
        });
        let states = (states.into_iter().enumerate())
            .map(|(wid, st)| {
                st.ok_or(CheckpointError::WorkerUnavailable(wid))?.ok_or(
                    CheckpointError::Unsupported(
                        "the worker access store does not support checkpointing",
                    ),
                )
            })
            .collect();
        (states, strays)
    }

    /// Ends the feed phase: everything timed from here on is the drain.
    pub(crate) fn begin_drain(&mut self) {
        self.feed_nanos = self.timer.elapsed_nanos();
        self.timer = Stopwatch::start();
    }

    /// The end of a run, after the caller has tried to deliver
    /// [`WorkerMsg::Shutdown`] to every worker (`shutdown_ok[w]`): joins
    /// each worker within the drain deadline, abandons the ones that do
    /// not come, merges what the survivors hold and assembles the result.
    /// A dead or unresponsive worker degrades the profile (see
    /// [`ProfileStats::degraded`]) instead of hanging or aborting the
    /// caller. Left for the caller: its own statistics, and the queue and
    /// statistics-map bytes of the memory report.
    pub(crate) fn finish(
        mut self,
        shutdown_ok: &[bool],
        hot_addresses: Vec<HotAddress>,
    ) -> ProfileResult {
        let w = self.handles.len();
        let drain = self.drain();
        let grace = Duration::from_millis(self.drain_deadline_ms.clamp(50, 500));
        for (wid, ok) in shutdown_ok.iter().enumerate() {
            if !ok {
                self.ctx.abandon[wid].store(true, Ordering::Release);
            }
        }
        let mut stats = ProfileStats::default();
        let mut deps = DepStore::new();
        let mut exec_tree = ExecTree::new();
        let mut sig_mem = 0usize;
        let mut per_worker_events = Vec::with_capacity(w);
        let mut gauges = SigGauges::default();
        for (wid, h) in std::mem::take(&mut self.handles).into_iter().enumerate() {
            // Shutdown delivery was itself bounded: nothing but a stalled
            // worker keeps its queue full for a whole drain deadline once
            // the producers have stopped, so such a worker gets only the
            // grace period.
            let wait = if shutdown_ok[wid] { drain } else { grace };
            let (exit, abandoned) = join_within(h, wid, &self.ctx, wait, grace);
            let mut fail = |cause| {
                stats.worker_failures.push(WorkerFailure { worker: wid, workers: w, cause })
            };
            match exit {
                Some(WorkerExit::Finished(out)) => {
                    if !shutdown_ok[wid] || abandoned {
                        // Partial results salvaged from a worker that had
                        // to be abandoned (e.g. an injected stall).
                        fail(FailureCause::Unresponsive);
                    }
                    stats.absorb(out.counters);
                    sig_mem += out.sig_mem;
                    per_worker_events.push(out.counters.accesses);
                    gauges.occupied_slots += out.gauges.occupied_slots;
                    gauges.total_slots += out.gauges.total_slots;
                    gauges.evictions += out.gauges.evictions;
                    gauges.bytes += out.gauges.bytes;
                    // The worst worker's predicted FPR bounds the run's.
                    gauges.est_fpr_pct = gauges.est_fpr_pct.max(out.gauges.est_fpr_pct);
                    deps.merge(out.store);
                    exec_tree.merge(&out.exec_tree);
                }
                Some(WorkerExit::Panicked(payload)) => {
                    fail(FailureCause::Panic(payload));
                    per_worker_events.push(0);
                }
                // Never exited within the deadline; the thread is detached
                // rather than blocking the caller forever.
                None => {
                    fail(FailureCause::Unresponsive);
                    per_worker_events.push(0);
                }
            }
        }
        stats.deps_built = deps.deps_built();
        stats.deps_merged = deps.merged_len();
        stats.chunks_pushed = self.ctx.chunks_pushed.get();
        let dropped: Vec<u64> = self.ctx.dropped_events.iter().map(Counter::get).collect();
        stats.dropped_events = dropped.iter().sum();
        if stats.dropped_events > 0 {
            stats.dropped_per_worker = dropped;
        }
        // The run's footprint, index included (see `SequentialProfiler::finish`).
        let dep_store = deps.memory_usage();
        deps.seal();
        let memory = MemoryReport {
            signatures: sig_mem,
            chunks: self.ctx.pool.memory_usage(),
            dep_store,
            ..MemoryReport::default()
        };
        let metrics = self.snapshot(gauges, stats.chunks_pushed, hot_addresses);
        ProfileResult { deps, exec_tree, stats, memory, workers: w, per_worker_events, metrics }
    }

    /// Assembles the final [`MetricsSnapshot`] from the ledger and the
    /// channel taps.
    fn snapshot(
        &self,
        signatures: SigGauges,
        chunks_pushed: u64,
        hot_addresses: Vec<HotAddress>,
    ) -> MetricsSnapshot {
        let m = &self.ctx.metrics;
        let w = m.enqueued.len();
        let mut conservation = Conservation {
            pushed: m.pushed.get(),
            rerouted: m.rerouted.get(),
            ..Conservation::default()
        };
        let mut per_worker = Vec::with_capacity(w);
        let mut stall_total = 0u64;
        let mut chunks_consumed = 0u64;
        for wid in 0..w {
            let enqueued = m.enqueued[wid].get();
            // An abandoned-but-running worker may still be consuming while
            // we snapshot; clamping to `enqueued` (read first) keeps the
            // split between consumed and in-flight internally consistent.
            let consumed = m.consumed[wid].get().min(enqueued);
            let dropped = m.dropped[wid].get();
            let in_flight = enqueued - consumed;
            let stall_nanos = m.stall[wid].get();
            let consumed_chunks = m.consumed_chunks[wid].get();
            conservation.consumed += consumed;
            conservation.dropped += dropped;
            conservation.in_flight_at_shutdown += in_flight;
            stall_total += stall_nanos;
            chunks_consumed += consumed_chunks;
            per_worker.push(WorkerMetrics {
                worker: wid,
                enqueued,
                consumed,
                dropped,
                in_flight,
                consumed_chunks,
                stall_nanos,
            });
        }
        let taps = &self.ctx.taps;
        let chunks = ChunkStats {
            pushed: chunks_pushed,
            consumed: chunks_consumed,
            queue_highwater: taps.iter().map(|t| t.high_water.get()).max().unwrap_or(0),
            push_retries: taps.iter().map(|t| t.push_fulls.get()).sum(),
            empty_pops: taps.iter().map(|t| t.empty_pops.get()).sum(),
        };
        let drain_nanos = self.timer.elapsed_nanos();
        MetricsSnapshot {
            workers: w,
            // The chaos seed is a run-level fact the CLI stamps on the
            // snapshot; engines report 0.
            chaos_seed: 0,
            conservation,
            chunks,
            stall_nanos: stall_total,
            signatures,
            // Engines only produce checkpoint blobs on demand; the driver
            // that owns the checkpoint store fills these in afterwards.
            checkpoints: Default::default(),
            service: Default::default(),
            hot_addresses,
            per_worker,
            timings: PhaseTimings {
                feed_nanos: self.feed_nanos,
                drain_nanos,
                total_nanos: self.feed_nanos + drain_nanos,
            },
        }
    }
}

/// Waits for worker `wid`'s thread to end, escalating rather than
/// blocking: wait up to `wait` for its exit signal, then raise the abandon
/// flag and wait up to `grace` more, then give up and leave the thread
/// detached. Returns the exit (None if the thread never finished) and
/// whether it was abandoned.
fn join_within(
    h: JoinHandle<WorkerExit>,
    wid: usize,
    ctx: &WorkerCtx,
    wait: Duration,
    grace: Duration,
) -> (Option<WorkerExit>, bool) {
    let (abandon, (exited, signal)) = (&ctx.abandon[wid], &ctx.exited);
    // Nothing panics holding the lock, so it is never poisoned.
    let exited_within = |t| signal.wait_timeout_while(exited.lock().unwrap(), t, |e| !e[wid]);
    let mut abandoned = abandon.load(Ordering::Acquire);
    let mut exited = exited_within(wait).unwrap().0[wid];
    if !exited && !abandoned {
        abandon.store(true, Ordering::Release);
        abandoned = true;
        exited = exited_within(grace).unwrap().0[wid];
    }
    if !exited && !h.is_finished() {
        return (None, abandoned);
    }
    // `join` waits out the thread's teardown after its exit signal. `Err`
    // is a panic that somehow escaped the worker's catch_unwind.
    let exit = h.join().unwrap_or_else(|p| WorkerExit::Panicked(panic_message(&*p)));
    (Some(exit), abandoned)
}

/// Best-effort stringification of a panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Injected panic/stall hook, called at the top of every worker-loop
/// iteration. Returns true when an (injected) stalled worker has been
/// abandoned and should exit so its partial results can be salvaged.
fn fault_pause_or_panic(wid: usize, chunks_done: u64, ctx: &WorkerCtx) -> bool {
    if let Some(f) = ctx.plan.panic_worker {
        if f.worker == wid && chunks_done >= f.after_chunks {
            panic!("injected fault: worker {wid} panicked after {} chunks", f.after_chunks);
        }
    }
    if let Some(f) = ctx.plan.stall_worker {
        if f.worker == wid && chunks_done >= f.after_chunks {
            // Stop consuming; stay alive until the supervisor gives up on
            // us, then exit without draining (a stalled worker's queued
            // events are part of what the degraded run lost).
            while !ctx.abandon[wid].load(Ordering::Acquire) {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            return true;
        }
    }
    false
}

/// Injected reply-loss hook: true when this `Extracted` reply is the one
/// the plan says to swallow.
fn fault_drop_reply(ctx: &WorkerCtx) -> bool {
    match ctx.plan.drop_nth_extract_reply {
        Some(n) => ctx.extract_replies.fetch_add(1, Ordering::Relaxed) == n,
        None => false,
    }
}

/// Supervised entry point of a worker thread: contains panics (flagging
/// `dead[wid]` before the thread exits so producers fail fast) and
/// reports the exit kind to the supervisor in [`Workers::finish`].
fn worker_entry<S: AccessStore, R: TransportReceiver<WorkerMsg>>(
    wid: usize,
    q: R,
    algo: AlgoState<S>,
    ctx: &WorkerCtx,
    defer: bool,
) -> WorkerExit {
    if defer {
        defer_to_producers();
    }
    let run = std::panic::AssertUnwindSafe(move || run_worker(wid, q, algo, ctx));
    let exit = match std::panic::catch_unwind(run) {
        Ok(out) => WorkerExit::Finished(Box::new(out)),
        Err(payload) => {
            ctx.dead[wid].store(true, Ordering::Release);
            WorkerExit::Panicked(panic_message(&*payload))
        }
    };
    ctx.exited.0.lock().unwrap()[wid] = true;
    ctx.exited.1.notify_all();
    exit
}

/// Drops the calling worker thread below the threads that feed it: nice
/// 10 and `SCHED_BATCH`, so that on a host with fewer CPUs than pipeline
/// threads a runnable worker does not take its producer's CPU (DESIGN.md
/// "In-flight window"). A refused call changes nothing; the bounded
/// queues still pace the producer.
fn defer_to_producers() {
    #[cfg(target_os = "linux")]
    unsafe {
        extern "C" {
            // setpriority(2) and sched_setscheduler(2), provided by libc;
            // with `who`/`pid` 0 both act on the calling thread only.
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        setpriority(0, 0, 10); // PRIO_PROCESS
        sched_setscheduler(0, 3, &0); // SCHED_BATCH, priority 0
    }
}

fn run_worker<S: AccessStore, R: TransportReceiver<WorkerMsg>>(
    wid: usize,
    q: R,
    mut algo: AlgoState<S>,
    ctx: &WorkerCtx,
) -> WorkerOutput {
    // The response queue is sized for every reply that can be in flight;
    // a full one means the producer is mid-poll, so yield and retry.
    let reply = |mut msg: Reply| {
        while let Err(back) = ctx.resp.push(msg) {
            msg = back;
            std::thread::yield_now();
        }
    };
    // The worker counts its own pops, and takes the fault plan's spurious
    // "empty" answers, inside the tap.
    let (tap, spurious_empty) = (&ctx.taps[wid], ctx.plan.spurious_empty(wid));
    let mut backoff = Backoff::new();
    let mut chunks_done = 0u64;
    loop {
        if fault_pause_or_panic(wid, chunks_done, ctx) {
            break;
        }
        let msg = if spurious_empty.fires() { None } else { q.pop() };
        tap.on_pop(msg.is_some());
        match msg {
            Some(WorkerMsg::Events(chunk)) => {
                // Consumed means *off the queue*: count at pop (the
                // counters live in the shared ledger, so they survive a
                // mid-chunk panic) with rerouted marks excluded.
                ctx.metrics.consumed[wid].add((chunk.len() - chunk.rerouted()) as u64);
                ctx.metrics.consumed_chunks[wid].inc();
                algo.on_chunk(&chunk);
                ctx.pool.release(chunk);
                chunks_done += 1;
                backoff.reset();
            }
            Some(WorkerMsg::Extract { addr }) => {
                let (read, write) = algo.extract(addr);
                if !fault_drop_reply(ctx) {
                    reply(Reply::Extracted { addr, read, write });
                }
            }
            Some(WorkerMsg::Inject { addr, read, write }) => algo.inject(addr, read, write),
            Some(WorkerMsg::Checkpoint) => {
                let mut out = ByteWriter::new();
                let state = algo.save_state(&mut out).then(|| out.into_bytes());
                reply(Reply::CheckpointState { worker: wid, state });
            }
            Some(WorkerMsg::DeltaFlush) => {
                reply(Reply::Delta { worker: wid, delta: algo.store.take_delta() });
            }
            Some(WorkerMsg::Shutdown) => break,
            None => backoff.snooze(),
        }
    }
    let gauges = algo.sig_gauges();
    let (store, exec_tree, counters, sig_mem) = algo.finish();
    WorkerOutput { store, exec_tree, counters, sig_mem, gauges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverflowPolicy;
    use std::time::Duration;

    type Queue = Arc<MpmcQueue<WorkerMsg>>;

    /// A one-worker context with no worker thread, and the two ends of
    /// that worker's queue, already full: nothing drains it unless the
    /// test does.
    fn stalled(limit: Duration) -> (WorkerCtx, Queue, Queue) {
        let cfg = ProfilerConfig::default().with_overflow(OverflowPolicy::Drop);
        let (tx, rx) = shared(MpmcQueue::new(1));
        let ctx = WorkerCtx::new(&cfg, &[rx.capacity()], ChunkPool::new(4, cfg.chunk_capacity));
        while tx.push(WorkerMsg::DeltaFlush).is_ok() {}
        // The engine is older than the limit before the queue fills, so a
        // deadline counted from the engine's start would already be spent.
        std::thread::sleep(limit + limit / 2);
        (ctx, tx, rx)
    }

    #[test]
    fn full_queue_deadline_runs_from_the_episode_start() {
        let limit = Duration::from_millis(60);
        let (ctx, tx, _rx) = stalled(limit);
        let t = Instant::now();
        assert!(ctx.deliver(0, &tx, WorkerMsg::Shutdown, Some(limit)).is_err());
        assert!(t.elapsed() >= limit, "gave up before the {limit:?} limit");
        assert!(!ctx.is_dead(0));
        // The episode's clock is shared: the next producer pays no second
        // deadline for the same stall.
        let t = Instant::now();
        assert!(ctx.deliver(0, &tx, WorkerMsg::Shutdown, Some(limit)).is_err());
        assert!(t.elapsed() < limit);
    }

    /// The calling thread, and only it, drops to nice 10 and
    /// `SCHED_BATCH`: fields 19 and 41 of `/proc/thread-self/stat`.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_deferred_worker_runs_below_its_producer() {
        let nice_and_policy = || {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let fields: Vec<&str> = stat.rsplit_once(')').unwrap().1.split_whitespace().collect();
            (fields[16].to_string(), fields[38].to_string())
        };
        let before = nice_and_policy();
        let worker = std::thread::spawn(move || {
            defer_to_producers();
            nice_and_policy()
        });
        assert_eq!(worker.join().unwrap(), ("10".to_string(), "3".to_string()));
        assert_eq!(nice_and_policy(), before, "the producer's thread kept its priority");
    }

    #[test]
    fn briefly_full_queue_in_an_old_run_still_takes_the_message() {
        let limit = Duration::from_millis(200);
        let (ctx, tx, rx) = stalled(limit);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let popped = rx.pop().is_some();
            (popped, rx)
        });
        assert!(ctx.deliver(0, &tx, WorkerMsg::Shutdown, Some(limit)).is_ok());
        let (popped, rx) = consumer.join().unwrap();
        assert!(popped);
        assert!(matches!(std::iter::from_fn(|| rx.pop()).last(), Some(WorkerMsg::Shutdown)));
        // The episode ended with the push, and was charged to the stall
        // account once.
        assert!(ctx.metrics.stall[0].get() > 0);
        assert_eq!(ctx.full_since[0].load(Ordering::Relaxed), 0);
    }
}
