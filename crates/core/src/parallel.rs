//! The parallel profiling pipeline for sequential targets (Section IV,
//! Figure 2).
//!
//! The instrumented program's thread (the "producer") routes each memory
//! access to the worker that owns its address:
//!
//! ```text
//! worker ID = memory address % W                       (Formula 1)
//! ```
//!
//! overridden by the redistribution rules of Section IV-A ("Redistribution
//! rules are stored in a map and have higher priority than the modulo
//! function"). Accesses travel in fixed-capacity chunks through one
//! bounded queue per worker; because an address is owned by exactly one
//! worker and chunks preserve program order, each worker sees its
//! addresses' accesses in temporal order, which is what makes the
//! RAW/WAR/WAW distinction sound. Workers run Algorithm 1 against private
//! signatures and store dependences in private duplicate-free maps, merged
//! once at the end.
//!
//! ## Hot-address redistribution (Section IV-A)
//!
//! The router keeps a bounded summary of the hottest addresses (a fixed
//! table of `(address, count)` buckets — exact until two
//! counted addresses share a bucket, lower bounds after); every
//! [`ProfilerConfig::redistribute_every`] chunks it checks whether the
//! `top_k` hottest addresses are spread evenly over the workers. If not,
//! it reassigns them round-robin by heat and *migrates the signature
//! state*: the old owner receives an `Extract` message (positioned after
//! all of the address's earlier accesses — queue FIFO guarantees this),
//! replies with the slot contents on a response queue, and the router
//! forwards an `Inject` to the new owner before any buffered or subsequent
//! access of that address reaches it. The address's accesses are buffered
//! at the router while the migration is in flight, so per-address temporal
//! order is preserved across the move.
//!
//! ## Failure model
//!
//! Profiling must never take the target down with it. Worker loops run
//! under `catch_unwind`; a panicking worker flags itself dead before its
//! thread exits, and the router fails fast on dead workers instead of
//! spinning on a queue nobody will drain. `finish()` is a supervisor: it
//! salvages every surviving worker's dependence map, bounds all waits by
//! [`ProfilerConfig::drain_deadline_ms`], and reports losses precisely —
//! per-worker dropped-event counts, cancelled migrations and
//! [`WorkerFailure`] records — in [`ProfileStats`], so a degraded profile
//! says exactly *what* is missing (the dead worker's residue class under
//! Formula 1) rather than failing silently. Under
//! [`OverflowPolicy::Drop`] a stalled-but-alive worker is handled the
//! same way: once its queue has been continuously full past the stall
//! deadline, events destined for it are dropped *and counted* instead of
//! blocking the target forever. This mirrors the paper's own philosophy
//! of graceful degradation (signatures trade accuracy for memory,
//! Formula 2) — here the trade is completeness for termination.
//!
//! The engine is generic over the per-worker [`Transport`]: the SPSC
//! fast path ([`dp_queue::SpscTransport`] — sound here because a
//! sequential target has exactly one producing thread), the lock-free
//! MPMC build ([`dp_queue::MpmcQueue`] via [`Shared`]) and the
//! lock-based comparator of Figure 5 ([`dp_queue::LockQueue`] via
//! [`Shared`]); everything else is shared, so measured differences are
//! attributable to the transport alone. Fault-injection tests swap in
//! [`dp_queue::FailingTransport`] through
//! [`ParallelProfiler::with_transport`].

use crate::algo::{AlgoCounters, AlgoOptions, AlgoState};
use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::config::{OverflowPolicy, ProfilerConfig, TransportKind};
use crate::hot::HotTable;
use crate::result::{FailureCause, MemoryReport, ProfileResult, ProfileStats, WorkerFailure};
use crate::store::DepStore;
use dp_metrics::{
    ChunkStats, Conservation, Counter, HotAddress, MetricsSnapshot, PhaseTimings, SigGauges,
    Stopwatch, WorkerMetrics,
};
use dp_queue::{
    Backoff, ChannelTap, Chunk, ChunkPool, FaultPlan, MeteredReceiver, MeteredSender, MpmcQueue,
    Shared, SpscTransport, Transport, TransportReceiver, TransportSender,
};
use dp_sig::{AccessStore, SigEntry};
use dp_types::{Address, ByteReader, ByteWriter, FxHashMap, TraceEvent, Tracer, WireError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Online analysis: start tracking dependence-map movement
    /// ([`DepStore::enable_delta`]) in this worker's store.
    EnableDelta,
    /// Online analysis: drain the worker's dirty set and reply with an
    /// [`AnalysisDelta`] on the response queue. FIFO order makes the
    /// delta cover exactly the events routed before this message.
    DeltaFlush,
    /// Drain and exit.
    Shutdown,
}

/// Worker→router responses (redistribution replies bounded by `top_k`,
/// checkpoint replies bounded by the worker count).
enum RouterMsg {
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
    /// Reply to [`WorkerMsg::DeltaFlush`]. A reply that misses its
    /// collect window is parked in `pending_deltas` rather than dropped:
    /// the worker already drained its dirty set, so losing the reply
    /// would lose the movement for good.
    Delta {
        worker: usize,
        delta: crate::store::AnalysisDelta,
    },
}

struct WorkerOutput {
    store: DepStore,
    exec_tree: crate::exectree::ExecTree,
    counters: AlgoCounters,
    sig_mem: usize,
    gauges: SigGauges,
}

/// How a supervised worker thread ended.
enum WorkerExit {
    /// Clean exit (or an abandoned stall that woke up): results salvaged.
    Finished(Box<WorkerOutput>),
    /// The worker panicked; `catch_unwind` contained it and the payload
    /// is preserved for the [`WorkerFailure`] record.
    Panicked { payload: String },
}

/// Router↔worker supervision flags, shared by `Arc`.
struct Supervision {
    /// `dead[w]`: worker `w` panicked. Set by the worker itself on the
    /// way out (before its thread exits), read by the router to fail
    /// fast instead of blocking on a queue nobody will drain.
    dead: Vec<AtomicBool>,
    /// `abandon[w]`: the supervisor gave up on worker `w`. A stalled
    /// worker that is still responsive to this flag (the injected-stall
    /// hook is) exits so its partial results can be salvaged.
    abandon: Vec<AtomicBool>,
}

impl Supervision {
    fn new(workers: usize) -> Self {
        Supervision {
            dead: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            abandon: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// Runtime state of the fault-injection script: the plan plus the shared
/// counter that makes "drop the *n*-th Extracted reply" global across
/// workers. Always present (so [`ProfilerConfig`] needs no feature gate);
/// every hook that consults it compiles to nothing without the
/// `fault-inject` feature.
// Fields are only read by the `fault-inject` hooks; the struct is kept
// unconditionally so call sites don't need feature gates.
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
struct FaultRt {
    plan: FaultPlan,
    extract_replies: AtomicU64,
}

struct Inflight {
    /// Worker the state is being extracted from.
    source: usize,
    /// Worker the state is migrating to.
    target: usize,
    /// Accesses of the migrating address, buffered until the `Inject`
    /// has been sent so per-address temporal order survives the move.
    buffered: Vec<TraceEvent>,
}

/// The event-conservation ledger, shared by the router and every worker.
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
/// columns disjoint. All counters are `dp-metrics` primitives — relaxed
/// atomics with the `metrics` feature, zero-sized no-ops without it.
pub(crate) struct EngineMetrics {
    /// Events in every chunk flushed towards a queue (counted once per
    /// chunk, not per event: the counter is a cache line every producer
    /// shares), plus migration buffers dropped before ever reaching a
    /// chunk (those count `pushed` and `dropped` at the same instant).
    /// Readers flush the pending chunks first.
    pub(crate) pushed: Counter,
    /// Event copies diverted away from a dead owner at routing time.
    pub(crate) rerouted: Counter,
    /// Per worker: events inside successfully enqueued chunks, rerouted
    /// marks excluded.
    pub(crate) enqueued: Vec<Counter>,
    /// Per worker: events dropped at the flush tap or from migration
    /// buffers, rerouted marks excluded.
    pub(crate) dropped: Vec<Counter>,
    /// Per worker: events popped off the queue (counted at pop, before
    /// processing — "consumed" means *removed from the queue*), rerouted
    /// marks excluded.
    pub(crate) consumed: Vec<Counter>,
    /// Per worker: event chunks popped off the queue.
    pub(crate) consumed_chunks: Vec<Counter>,
    /// Per worker: nanoseconds the router spent blocked on the worker's
    /// continuously-full queue.
    pub(crate) stall: Vec<Counter>,
}

impl EngineMetrics {
    pub(crate) fn new(workers: usize) -> Self {
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

    /// Serializes the ledger for a checkpoint. With the `metrics`
    /// feature off the counters are no-ops and the blob records zeros —
    /// the snapshot is all-zero in that build anyway.
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
            out.u64(self.stall[wid].get());
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
            self.stall[wid].add(r.u64()?);
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after ledger state"));
        }
        Ok(())
    }
}

/// Everything a worker thread shares with the router, bundled so the
/// spawn path hands over one value.
struct WorkerCtx {
    pool: Arc<ChunkPool>,
    resp: Arc<MpmcQueue<RouterMsg>>,
    sup: Arc<Supervision>,
    fault: Arc<FaultRt>,
    metrics: Arc<EngineMetrics>,
}

/// The parallel profiler. Implements [`Tracer`], so the instrumented
/// program pushes events into it directly; call
/// [`ParallelProfiler::finish`] afterwards.
///
/// Generic over the per-worker [`Transport`]. With [`SpscTransport`] the
/// senders are `!Sync`, which makes the whole profiler `!Sync`: the
/// compiler enforces the single-producer contract the SPSC fast path
/// relies on.
pub struct ParallelProfiler<S: AccessStore + 'static, X: Transport<WorkerMsg>> {
    senders: Vec<MeteredSender<X::Sender>>,
    pool: Arc<ChunkPool>,
    resp: Arc<MpmcQueue<RouterMsg>>,
    handles: Vec<JoinHandle<WorkerExit>>,
    sup: Arc<Supervision>,
    /// Per-worker channel taps (push/pop/depth counters shared with the
    /// metered endpoints).
    taps: Vec<Arc<ChannelTap>>,
    /// The conservation ledger shared with the workers.
    metrics: Arc<EngineMetrics>,
    /// Started at construction; splits feed from drain in the snapshot.
    timer: Stopwatch,
    pending: Vec<Chunk>,
    /// Section IV-A access statistics, in bounded memory.
    hot: HotTable,
    rules: FxHashMap<Address, usize>,
    inflight: FxHashMap<Address, Inflight>,
    chunks_pushed: u64,
    redistributions: u64,
    /// Router-side drop accounting, per destination worker.
    dropped: Vec<u64>,
    /// Continuously-full-since marker per worker queue; `None` while the
    /// last push succeeded. The basis of stall detection.
    full_since: Vec<Option<Instant>>,
    rerouted_events: u64,
    cancelled_migrations: u64,
    spurious_replies: u64,
    in_rebalance: bool,
    in_poll: bool,
    /// Online analysis enabled (workers track dependence-map movement).
    online: bool,
    /// Delta replies that arrived outside a collect window; handed to
    /// the next [`ParallelProfiler::collect_deltas`] caller.
    pending_deltas: Vec<crate::store::AnalysisDelta>,
    cfg: ProfilerConfig,
    _store: std::marker::PhantomData<S>,
}

impl<S, X> ParallelProfiler<S, X>
where
    S: AccessStore + 'static,
    X: Transport<WorkerMsg>,
{
    /// Starts `cfg.workers` worker threads, building each worker's two
    /// signatures with `make_store` (called twice per worker).
    pub fn new(cfg: ProfilerConfig, make_store: impl Fn() -> S) -> Self
    where
        X: Default,
    {
        Self::with_transport(X::default(), cfg, make_store)
    }

    /// Like [`ParallelProfiler::new`], but over an explicit transport
    /// instance — the entry point for fault-injection tests, which pass a
    /// [`dp_queue::FailingTransport`] carrying a seeded chaos plan.
    pub fn with_transport(transport: X, cfg: ProfilerConfig, make_store: impl Fn() -> S) -> Self {
        match Self::spawn(transport, cfg, make_store, None) {
            Ok(p) => p,
            // The error paths all require a checkpoint to restore from.
            Err(_) => unreachable!("spawn without worker states is infallible"),
        }
    }

    /// Rebuilds a profiler from a checkpoint: every worker's signatures,
    /// dependence map and loop stacks are restored *before* its thread
    /// starts, then the router's statistics, rules and conservation
    /// ledger are restored, so feeding the remaining trace records
    /// produces exactly what an uninterrupted run would.
    ///
    /// `cfg` must describe the same engine shape the checkpoint was
    /// written under (worker count, store dimensions, chunking).
    pub fn resume(
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
        data: &CheckpointData,
    ) -> Result<Self, CheckpointError>
    where
        X: Default,
    {
        Self::resume_with_transport(X::default(), cfg, make_store, data)
    }

    /// [`ParallelProfiler::resume`] over an explicit transport instance.
    pub fn resume_with_transport(
        transport: X,
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
        data: &CheckpointData,
    ) -> Result<Self, CheckpointError> {
        let mut p = Self::spawn(transport, cfg, make_store, Some(&data.workers))?;
        p.restore_router(&data.router)?;
        p.metrics.restore(&data.ledger)?;
        Ok(p)
    }

    /// Shared constructor body. With `worker_states` set, each worker's
    /// extraction state is restored before its thread spawns — errors
    /// surface synchronously and no thread is left running.
    fn spawn(
        transport: X,
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
        worker_states: Option<&[Vec<u8>]>,
    ) -> Result<Self, CheckpointError> {
        let w = cfg.workers.max(1);
        if let Some(states) = worker_states {
            if states.len() != w {
                return Err(CheckpointError::Wire(WireError::Invalid(
                    "worker count differs from checkpoint",
                )));
            }
        }
        // Build (and, on resume, restore) every worker's state before
        // spawning any thread: a restore failure must not leave threads
        // behind.
        let mut algos = Vec::with_capacity(w);
        for wid in 0..w {
            let mut algo = AlgoState::new(
                make_store(),
                make_store(),
                AlgoOptions {
                    track_carried: cfg.track_carried,
                    check_reversal: false,
                    // Loop events are broadcast; only worker 0 records
                    // them, so iteration counts stay exact.
                    record_loops: wid == 0,
                    section_shift: 0,
                },
            );
            if let Some(states) = worker_states {
                algo.restore_state(&states[wid])?;
            }
            algos.push(algo);
        }
        let pool = ChunkPool::new(w * cfg.queue_chunks * 2, cfg.chunk_capacity);
        let resp = Arc::new(MpmcQueue::new((cfg.top_k * 4).max(64).max(w)));
        let sup = Arc::new(Supervision::new(w));
        let fault =
            Arc::new(FaultRt { plan: cfg.fault_plan.clone(), extract_replies: AtomicU64::new(0) });
        let metrics = Arc::new(EngineMetrics::new(w));
        let mut senders = Vec::with_capacity(w);
        let mut taps = Vec::with_capacity(w);
        let mut handles = Vec::with_capacity(w);
        for (wid, algo) in algos.into_iter().enumerate() {
            let (tx, rx) = transport.channel(wid, cfg.queue_chunks);
            let tap = ChannelTap::shared();
            let tx = MeteredSender::new(tx, tap.clone());
            let rx = MeteredReceiver::new(rx, tap.clone());
            taps.push(tap);
            let ctx = WorkerCtx {
                pool: pool.clone(),
                resp: resp.clone(),
                sup: sup.clone(),
                fault: fault.clone(),
                metrics: metrics.clone(),
            };
            handles.push(std::thread::spawn(move || worker_loop(wid, rx, algo, ctx)));
            senders.push(tx);
        }
        let pending = (0..w).map(|_| pool.acquire()).collect();
        Ok(ParallelProfiler {
            senders,
            pool,
            resp,
            handles,
            sup,
            taps,
            metrics,
            timer: Stopwatch::start(),
            pending,
            hot: HotTable::new(),
            rules: FxHashMap::default(),
            inflight: FxHashMap::default(),
            chunks_pushed: 0,
            redistributions: 0,
            dropped: vec![0; w],
            full_since: vec![None; w],
            rerouted_events: 0,
            cancelled_migrations: 0,
            spurious_replies: 0,
            in_rebalance: false,
            in_poll: false,
            online: false,
            pending_deltas: Vec::new(),
            cfg,
            _store: std::marker::PhantomData,
        })
    }

    #[inline]
    fn owner(&self, addr: Address) -> usize {
        // Formula 1: `worker ID = memory address % W`. The paper's
        // addresses are byte-granular; MiniVM addresses are 8-byte
        // aligned, so the raw modulo would alias (all addresses ≡ 0 mod
        // 8) and send everything to worker 0 — shift the alignment out
        // first to get the even distribution the formula is meant to
        // achieve.
        self.rules.get(&addr).copied().unwrap_or(((addr >> 3) % self.senders.len() as u64) as usize)
    }

    #[inline]
    fn is_dead(&self, wid: usize) -> bool {
        self.sup.dead[wid].load(Ordering::Acquire)
    }

    /// First live worker cyclically after `wid` (exclusive), if any.
    fn next_live(&self, wid: usize) -> Option<usize> {
        let w = self.senders.len();
        (1..w).map(|k| (wid + k) % w).find(|&k| !self.is_dead(k))
    }

    /// [`Self::owner`], diverted away from dead workers: a surviving
    /// worker adopts the dead worker's traffic (it sees only the suffix
    /// after the death, so dependences it finds are exact; dependences
    /// crossing the failure point are lost and the run is degraded).
    /// The second element is true when the event was diverted — the
    /// caller marks the copy rerouted in its chunk so the conservation
    /// ledger's downstream taps can exclude it.
    fn route(&mut self, addr: Address) -> (usize, bool) {
        let wid = self.owner(addr);
        if !self.is_dead(wid) {
            return (wid, false);
        }
        match self.next_live(wid) {
            Some(f) => {
                self.rerouted_events += 1;
                (f, true)
            }
            // Every worker is dead; deliver() will drop and account.
            None => (wid, false),
        }
    }

    /// How long a single delivery may stay blocked on a full queue. The
    /// deadline is measured from when the queue *became* continuously
    /// full (`full_since`), so after one paid deadline subsequent sends
    /// to a still-stalled worker fail immediately.
    fn event_drop_after(&self) -> Option<Duration> {
        match self.cfg.overflow {
            OverflowPolicy::Block => None,
            OverflowPolicy::Drop => Some(Duration::from_millis(self.cfg.stall_deadline_ms)),
        }
    }

    /// Delivers `msg` to `wid`, spinning with backoff while the queue is
    /// full. Gives the message back instead of blocking forever when the
    /// worker is dead (flagged or observed via a closed endpoint), or —
    /// with `drop_after` set — when the queue has been continuously full
    /// for that long.
    fn deliver(
        &mut self,
        wid: usize,
        mut msg: WorkerMsg,
        drop_after: Option<Duration>,
    ) -> Result<(), WorkerMsg> {
        let mut backoff = Backoff::new();
        loop {
            if self.is_dead(wid) {
                return Err(msg);
            }
            match self.senders[wid].push(msg) {
                Ok(()) => {
                    if let Some(since) = self.full_since[wid].take() {
                        // The queue had been continuously full: the wait
                        // just ended, charge it to this worker's stall
                        // account.
                        self.metrics.stall[wid].add(since.elapsed().as_nanos() as u64);
                    }
                    return Ok(());
                }
                Err(back) => {
                    msg = back;
                    if self.senders[wid].is_closed() {
                        self.sup.dead[wid].store(true, Ordering::Release);
                        return Err(msg);
                    }
                    let now = Instant::now();
                    let since = *self.full_since[wid].get_or_insert(now);
                    if let Some(limit) = drop_after {
                        if now.duration_since(since) >= limit {
                            return Err(msg);
                        }
                    }
                    backoff.snooze();
                }
            }
        }
    }

    #[inline]
    fn append(&mut self, wid: usize, ev: TraceEvent) {
        self.append_routed(wid, ev, false);
    }

    /// [`Self::append`] with the routing verdict: a diverted copy is
    /// counted rerouted once, here, and marked in its chunk so the
    /// enqueue/drop/consume taps exclude it downstream.
    #[inline]
    fn append_routed(&mut self, wid: usize, ev: TraceEvent, diverted: bool) {
        self.pending[wid].push(ev);
        if diverted {
            self.metrics.rerouted.inc();
            self.pending[wid].mark_rerouted();
        }
        if self.pending[wid].is_full() {
            self.flush(wid);
        }
    }

    fn flush(&mut self, wid: usize) {
        if self.pending[wid].is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.pending[wid], self.pool.acquire());
        self.metrics.pushed.add(chunk.len() as u64);
        // Rerouted copies were already accounted at routing time.
        let unmarked = (chunk.len() - chunk.rerouted()) as u64;
        match self.deliver(wid, WorkerMsg::Events(chunk), self.event_drop_after()) {
            Ok(()) => {
                self.chunks_pushed += 1;
                self.metrics.enqueued[wid].add(unmarked);
            }
            Err(WorkerMsg::Events(chunk)) => {
                // Dead or stalled worker: account for every lost event so
                // the degraded profile quantifies exactly what is missing.
                self.dropped[wid] += chunk.len() as u64;
                self.metrics.dropped[wid].add(unmarked);
                self.pool.release(chunk);
            }
            Err(_) => unreachable!("deliver returns the message it was given"),
        }
        if !self.inflight.is_empty() {
            self.poll_responses();
        }
        // Never start a redistribution while a migration's buffered
        // events are being drained (`in_poll`): a nested Extract issued
        // between two halves of the buffered stream would capture the
        // signature state mid-replay and orphan the remainder.
        if self.cfg.redistribution
            && !self.in_rebalance
            && !self.in_poll
            && self.chunks_pushed.is_multiple_of(self.cfg.redistribute_every)
        {
            self.maybe_redistribute();
        }
    }

    fn flush_all(&mut self) {
        for wid in 0..self.pending.len() {
            self.flush(wid);
        }
    }

    /// Delivers a migration's buffered accesses to `target` (diverted if
    /// the target died), after the `Inject` — per-address order preserved.
    fn replay_buffered(&mut self, target: usize, buffered: Vec<TraceEvent>) {
        let dest = if self.is_dead(target) { self.next_live(target) } else { Some(target) };
        match dest {
            Some(t) => {
                for ev in buffered {
                    self.append(t, ev);
                }
            }
            // Every worker is dead: the buffer is lost, but accounted.
            // These events never reached a chunk, so the conservation
            // ledger counts them pushed and dropped at the same instant.
            None => {
                self.dropped[target] += buffered.len() as u64;
                self.metrics.pushed.add(buffered.len() as u64);
                self.metrics.dropped[target].add(buffered.len() as u64);
            }
        }
    }

    fn poll_responses(&mut self) {
        // Non-reentrant: appends below can flush, and flushing polls. The
        // outer invocation keeps draining, so skipping the nested call
        // loses nothing.
        if self.in_poll {
            return;
        }
        self.in_poll = true;
        self.resolve_dead_migrations();
        while let Some(msg) = self.resp.pop() {
            let (addr, read, write) = match msg {
                RouterMsg::Extracted { addr, read, write } => (addr, read, write),
                // A delta reply outside `collect_deltas`' window (a
                // worker that answered after the deadline): the worker
                // already drained its dirty set, so park the movement
                // for the next collection instead of losing it.
                RouterMsg::Delta { delta, .. } => {
                    if !delta.is_empty() {
                        self.pending_deltas.push(delta);
                    }
                    continue;
                }
                // A checkpoint reply outside `checkpoint_data`'s collect
                // loop (e.g. from a worker that answered after the
                // deadline): counted and dropped, never fatal.
                RouterMsg::CheckpointState { .. } => {
                    self.spurious_replies += 1;
                    continue;
                }
            };
            // A reply with no pending migration (its migration was
            // cancelled after the source was presumed dead, and the reply
            // arrived anyway) is counted and ignored — it must not kill
            // the router.
            let Some(inf) = self.inflight.remove(&addr) else {
                self.spurious_replies += 1;
                continue;
            };
            let mut target = inf.target;
            if self.is_dead(target) {
                match self.next_live(target) {
                    Some(f) => {
                        // Divert the migration to a surviving worker.
                        self.rules.insert(addr, f);
                        target = f;
                    }
                    None => {
                        self.cancelled_migrations += 1;
                        self.dropped[inf.target] += inf.buffered.len() as u64;
                        // Never chunked: pushed and dropped at once, as in
                        // replay_buffered's all-dead arm.
                        self.metrics.pushed.add(inf.buffered.len() as u64);
                        self.metrics.dropped[inf.target].add(inf.buffered.len() as u64);
                        continue;
                    }
                }
            }
            if self
                .deliver(target, WorkerMsg::Inject { addr, read, write }, self.event_drop_after())
                .is_err()
            {
                // Stalled target: the extracted state is lost; the
                // buffered suffix still goes through normal (accounted)
                // delivery below.
                self.cancelled_migrations += 1;
            }
            self.replay_buffered(target, inf.buffered);
        }
        self.in_poll = false;
    }

    /// Cancels migrations whose source died before replying: the reply
    /// will never come, so the buffered accesses are released to the
    /// target with fresh state instead of being held forever.
    fn resolve_dead_migrations(&mut self) {
        if self.inflight.is_empty() {
            return;
        }
        let stuck: Vec<Address> = self
            .inflight
            .iter()
            .filter(|(_, inf)| self.sup.dead[inf.source].load(Ordering::Acquire))
            .map(|(&a, _)| a)
            .collect();
        for addr in stuck {
            let inf = self.inflight.remove(&addr).expect("collected from the same map");
            self.cancelled_migrations += 1;
            self.replay_buffered(inf.target, inf.buffered);
        }
    }

    /// Section IV-A: keep the `top_k` hottest addresses evenly spread.
    fn maybe_redistribute(&mut self) {
        self.in_rebalance = true;
        let k = self.cfg.top_k;
        let w = self.senders.len();
        let top = self.hot.top(k);
        // Check balance: how many of the top-k does each worker own?
        let mut load = vec![0usize; w];
        for &(a, _) in &top {
            load[self.owner(a)] += 1;
        }
        let ideal = top.len().div_ceil(w);
        if load.iter().all(|&l| l <= ideal) {
            self.in_rebalance = false;
            return; // already even
        }
        // Reassign round-robin by heat and migrate owners that change.
        let mut moved = 0usize;
        for (rank, &(addr, _)) in top.iter().enumerate() {
            let desired = rank % w;
            let old = self.owner(addr);
            // A migration needs both endpoints alive: a dead source has
            // no state to extract, a dead target nothing to inject into.
            if old == desired
                || self.inflight.contains_key(&addr)
                || self.is_dead(old)
                || self.is_dead(desired)
            {
                continue;
            }
            // Order: everything routed so far must precede Extract.
            self.flush(old);
            let prev = self.rules.insert(addr, desired);
            self.inflight
                .insert(addr, Inflight { source: old, target: desired, buffered: Vec::new() });
            match self.deliver(old, WorkerMsg::Extract { addr }, self.event_drop_after()) {
                Ok(()) => moved += 1,
                Err(_) => {
                    // Unreachable source: cancel the migration and restore
                    // the previous routing.
                    self.inflight.remove(&addr);
                    match prev {
                        Some(p) => self.rules.insert(addr, p),
                        None => self.rules.remove(&addr),
                    };
                    self.cancelled_migrations += 1;
                }
            }
        }
        if moved > 0 {
            self.redistributions += 1;
            self.cfg.observer.on_redistribution(moved);
        }
        self.in_rebalance = false;
    }

    /// Quiesces the pipeline at a chunk barrier and captures a complete,
    /// consistent checkpoint: in-flight migrations are completed first
    /// (a checkpoint must not capture signature state mid-move), pending
    /// chunks are flushed, then every worker serializes its extraction
    /// state after consuming everything routed before the barrier (queue
    /// FIFO order guarantees the cut is consistent). The caller supplies
    /// the trace position and an opaque configuration blob, and writes
    /// the result through a
    /// [`CheckpointStore`](crate::checkpoint::CheckpointStore).
    ///
    /// Every wait is bounded by [`ProfilerConfig::drain_deadline_ms`]; a
    /// dead or unresponsive worker yields
    /// [`CheckpointError::WorkerUnavailable`] rather than a checkpoint
    /// that silently lies about the run.
    pub fn checkpoint_data(
        &mut self,
        generation: u64,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<CheckpointData, CheckpointError> {
        let drain = Duration::from_millis(self.cfg.drain_deadline_ms.max(1));
        let deadline = Instant::now() + drain;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.poll_responses();
            if self.inflight.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        if !self.inflight.is_empty() {
            // A migration source never replied: its signature state is
            // in limbo and no consistent cut exists.
            let wid = self.inflight.values().next().map(|i| i.source).unwrap_or(0);
            return Err(CheckpointError::WorkerUnavailable(wid));
        }
        self.flush_all();
        let w = self.senders.len();
        for wid in 0..w {
            if self.deliver(wid, WorkerMsg::Checkpoint, Some(drain)).is_err() {
                return Err(CheckpointError::WorkerUnavailable(wid));
            }
        }
        let mut states: Vec<Option<Vec<u8>>> = (0..w).map(|_| None).collect();
        let mut replied = vec![false; w];
        let mut got = 0usize;
        let deadline = Instant::now() + drain;
        while got < w {
            match self.resp.pop() {
                Some(RouterMsg::CheckpointState { worker, state }) => {
                    if worker < w && !replied[worker] {
                        replied[worker] = true;
                        states[worker] = state;
                        got += 1;
                    } else {
                        self.spurious_replies += 1;
                    }
                }
                // `inflight` is empty, so any Extracted reply here is by
                // definition spurious (a cancelled migration's late
                // answer).
                Some(RouterMsg::Extracted { .. }) => self.spurious_replies += 1,
                // A late delta reply: park the movement, never drop it.
                Some(RouterMsg::Delta { delta, .. }) => {
                    if !delta.is_empty() {
                        self.pending_deltas.push(delta);
                    }
                }
                None => {
                    if let Some(wid) = (0..w).find(|&wid| !replied[wid] && self.is_dead(wid)) {
                        return Err(CheckpointError::WorkerUnavailable(wid));
                    }
                    if Instant::now() >= deadline {
                        let wid = replied.iter().position(|r| !r).unwrap_or(0);
                        return Err(CheckpointError::WorkerUnavailable(wid));
                    }
                    std::thread::yield_now();
                }
            }
        }
        let mut workers = Vec::with_capacity(w);
        for st in states {
            workers.push(st.ok_or(CheckpointError::Unsupported(
                "the worker access store does not support checkpointing",
            ))?);
        }
        Ok(CheckpointData {
            generation,
            records_read,
            config,
            router: self.save_router(),
            ledger: self.metrics.save(),
            workers,
        })
    }

    /// Serializes the router's statistics and rules, both sorted by
    /// address so identical states produce identical bytes. The layout is
    /// the one written when the statistics were a count per address: any
    /// number of `(addr, count)` pairs.
    fn save_router(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.u64(self.chunks_pushed);
        out.u64(self.redistributions);
        out.u64(self.rerouted_events);
        out.u64(self.cancelled_migrations);
        out.u64(self.spurious_replies);
        out.u32(self.dropped.len() as u32);
        for d in &self.dropped {
            out.u64(*d);
        }
        let mut counts: Vec<(Address, u64)> = self.hot.entries().collect();
        counts.sort_unstable_by_key(|&(a, _)| a);
        out.u64(counts.len() as u64);
        for (a, c) in counts {
            out.u64(a);
            out.u64(c);
        }
        let mut rules: Vec<(Address, usize)> = self.rules.iter().map(|(&a, &r)| (a, r)).collect();
        rules.sort_unstable_by_key(|&(a, _)| a);
        out.u64(rules.len() as u64);
        for (a, r) in rules {
            out.u64(a);
            out.u32(r as u32);
        }
        out.into_bytes()
    }

    fn restore_router(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = ByteReader::new(bytes);
        self.chunks_pushed = r.u64()?;
        self.redistributions = r.u64()?;
        self.rerouted_events = r.u64()?;
        self.cancelled_migrations = r.u64()?;
        self.spurious_replies = r.u64()?;
        let nd = r.u32()? as usize;
        if nd != self.dropped.len() {
            return Err(WireError::Invalid("router drop-vector length differs from checkpoint"));
        }
        for d in self.dropped.iter_mut() {
            *d = r.u64()?;
        }
        // Folded in file order, which is address order. A blob this build
        // wrote holds at most one address per bucket and reloads to the
        // table that wrote it; an older blob with a count per address
        // folds to what the table keeps of those counts.
        let nc = r.u64()?;
        let mut hot = HotTable::new();
        for _ in 0..nc {
            let a = r.u64()?;
            hot.add(a, r.u64()?);
        }
        self.hot = hot;
        let nr = r.u64()?;
        let mut rules = FxHashMap::default();
        for _ in 0..nr {
            let a = r.u64()?;
            let wid = r.u32()? as usize;
            if wid >= self.senders.len() {
                return Err(WireError::Invalid("redistribution rule targets a nonexistent worker"));
            }
            rules.insert(a, wid);
        }
        self.rules = rules;
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after router state"));
        }
        Ok(())
    }

    /// Turns on online analysis: every live worker starts tracking
    /// dependence-map movement ([`DepStore::enable_delta`]). The
    /// worker-side enable seeds its full current state at a zero
    /// baseline, so the first [`ParallelProfiler::collect_deltas`] ships
    /// complete history no matter how late this is called. Idempotent.
    pub fn enable_online(&mut self) {
        if self.online {
            return;
        }
        self.online = true;
        for wid in 0..self.senders.len() {
            if !self.is_dead(wid) {
                // A dead or stalled worker just misses the enable; its
                // dependences surface when its store merges at finish.
                let _ = self.deliver(wid, WorkerMsg::EnableDelta, self.event_drop_after());
            }
        }
    }

    /// True once [`ParallelProfiler::enable_online`] has run.
    pub fn online_enabled(&self) -> bool {
        self.online
    }

    /// Flushes pending chunks and drains every live worker's dirty set
    /// into [`AnalysisDelta`]s (plus any parked late replies). Best
    /// effort under chaos: a worker that stays silent past the drain
    /// deadline is skipped — its movement is parked by `poll_responses`
    /// when the reply finally lands, so nothing is lost, merely late.
    /// With a quiet pipeline (every fed event consumed, as at the final
    /// query of a session) the folded deltas reproduce the workers'
    /// stores exactly.
    pub fn collect_deltas(&mut self) -> Vec<crate::store::AnalysisDelta> {
        let mut out = std::mem::take(&mut self.pending_deltas);
        if !self.online {
            return out;
        }
        let drain = Duration::from_millis(self.cfg.drain_deadline_ms.max(1));
        // Complete in-flight migrations first so buffered accesses reach
        // their worker before the flush barrier.
        let deadline = Instant::now() + drain;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.poll_responses();
            if self.inflight.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        self.flush_all();
        let w = self.senders.len();
        let mut expect = vec![false; w];
        let mut waiting = 0usize;
        for (wid, e) in expect.iter_mut().enumerate() {
            if !self.is_dead(wid) && self.deliver(wid, WorkerMsg::DeltaFlush, Some(drain)).is_ok() {
                *e = true;
                waiting += 1;
            }
        }
        let deadline = Instant::now() + drain;
        while waiting > 0 {
            match self.resp.pop() {
                Some(RouterMsg::Delta { worker, delta }) => {
                    if worker < w && expect[worker] {
                        expect[worker] = false;
                        waiting -= 1;
                    }
                    // Replies from an earlier window count too: deltas
                    // compose in any order (counts add, flags OR,
                    // carriers union).
                    if !delta.is_empty() {
                        out.push(delta);
                    }
                }
                Some(RouterMsg::Extracted { .. }) | Some(RouterMsg::CheckpointState { .. }) => {
                    self.spurious_replies += 1;
                }
                None => {
                    for (wid, e) in expect.iter_mut().enumerate() {
                        if *e && self.sup.dead[wid].load(Ordering::Acquire) {
                            *e = false;
                            waiting -= 1;
                        }
                    }
                    if Instant::now() >= deadline {
                        break; // slow worker: answer goes stale, not lost
                    }
                    std::thread::yield_now();
                }
            }
        }
        out
    }

    /// Monotone progress heartbeat for the run watchdog, piggybacked on
    /// the conservation ledger: events the router has pushed plus
    /// events the workers have consumed, so progress on either side of
    /// the queues moves the value. Constant 0 when the `metrics`
    /// feature is off — callers then track feed-side progress
    /// themselves.
    pub fn heartbeat(&self) -> u64 {
        self.metrics.pushed.get() + self.metrics.consumed.iter().map(Counter::get).sum::<u64>()
    }

    /// Completes migrations, drains the pipeline, joins the workers and
    /// merges their results. Every wait is bounded by
    /// [`ProfilerConfig::drain_deadline_ms`]: a dead or unresponsive
    /// worker degrades the profile (see [`ProfileStats::degraded`])
    /// instead of hanging or aborting the caller.
    pub fn finish(mut self) -> ProfileResult {
        // Feed phase ends here; everything below is the drain.
        let feed_nanos = self.timer.elapsed_nanos();
        let drain_timer = Stopwatch::start();
        let drain = Duration::from_millis(self.cfg.drain_deadline_ms.max(1));
        let deadline = Instant::now() + drain;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.poll_responses();
            if self.inflight.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        // Migrations still pending past the deadline (a dropped reply, a
        // stalled source) are cancelled: the buffered accesses reach the
        // target with fresh state rather than being lost in limbo.
        if !self.inflight.is_empty() {
            let addrs: Vec<Address> = self.inflight.keys().copied().collect();
            for addr in addrs {
                let inf = self.inflight.remove(&addr).expect("keys from the same map");
                self.cancelled_migrations += 1;
                self.replay_buffered(inf.target, inf.buffered);
            }
        }
        self.flush_all();
        let w = self.senders.len();
        let mut shutdown_ok = vec![false; w];
        for (wid, ok) in shutdown_ok.iter_mut().enumerate() {
            // Shutdown delivery is always bounded: nothing but a stalled
            // worker can keep its queue full for the whole drain deadline
            // once the producer has stopped feeding it.
            match self.deliver(wid, WorkerMsg::Shutdown, Some(drain)) {
                Ok(()) => *ok = true,
                Err(_) => self.sup.abandon[wid].store(true, Ordering::Release),
            }
        }
        let mut stats = ProfileStats::default();
        let mut global = DepStore::new();
        let mut exec_tree = crate::exectree::ExecTree::new();
        let mut sig_mem = 0usize;
        let mut per_worker_events = Vec::with_capacity(w);
        let mut failures: Vec<WorkerFailure> = Vec::new();
        let mut gauges = SigGauges::default();
        let grace = Duration::from_millis(self.cfg.drain_deadline_ms.clamp(50, 500));
        let handles = std::mem::take(&mut self.handles);
        for (wid, h) in handles.into_iter().enumerate() {
            let wait = if shutdown_ok[wid] { drain } else { grace };
            let (exit, abandoned) = join_within(h, &self.sup.abandon[wid], wait, grace);
            let healthy = shutdown_ok[wid] && !abandoned;
            match exit {
                Some(WorkerExit::Finished(out)) => {
                    if !healthy {
                        // Partial results salvaged from a worker that had
                        // to be abandoned (e.g. an injected stall).
                        failures.push(WorkerFailure {
                            worker: wid,
                            workers: w,
                            cause: FailureCause::Unresponsive,
                        });
                    }
                    stats.absorb(out.counters);
                    sig_mem += out.sig_mem;
                    per_worker_events.push(out.counters.accesses);
                    gauges.occupied_slots += out.gauges.occupied_slots;
                    gauges.total_slots += out.gauges.total_slots;
                    gauges.evictions += out.gauges.evictions;
                    // The worst worker's predicted FPR bounds the run's.
                    gauges.est_fpr_pct = gauges.est_fpr_pct.max(out.gauges.est_fpr_pct);
                    global.merge(out.store);
                    exec_tree.merge(&out.exec_tree);
                }
                Some(WorkerExit::Panicked { payload }) => {
                    failures.push(WorkerFailure {
                        worker: wid,
                        workers: w,
                        cause: FailureCause::Panic(payload),
                    });
                    per_worker_events.push(0);
                }
                None => {
                    // Never exited within the deadline; the thread is
                    // detached rather than blocking finish() forever.
                    failures.push(WorkerFailure {
                        worker: wid,
                        workers: w,
                        cause: FailureCause::Unresponsive,
                    });
                    per_worker_events.push(0);
                }
            }
        }
        stats.deps_built = global.deps_built();
        stats.deps_merged = global.merged_len();
        stats.chunks_pushed = self.chunks_pushed;
        stats.redistributions = self.redistributions;
        stats.redistributed_addrs = self.rules.len() as u64;
        stats.dropped_events = self.dropped.iter().sum();
        if stats.dropped_events > 0 {
            stats.dropped_per_worker = self.dropped.clone();
        }
        stats.rerouted_events = self.rerouted_events;
        stats.cancelled_migrations = self.cancelled_migrations;
        stats.spurious_replies = self.spurious_replies;
        stats.worker_failures = failures;
        for f in &stats.worker_failures {
            self.cfg.observer.on_worker_failure(f.worker);
        }
        let entry = std::mem::size_of::<(Address, u64)>() + 1;
        // The run's footprint, index included (see `SequentialProfiler::finish`).
        let store_mem = global.memory_usage();
        global.seal();
        let memory = MemoryReport {
            signatures: sig_mem,
            queues: self.senders.iter().map(|s| s.memory_usage()).sum(),
            chunks: self.pool.memory_usage(),
            dep_store: store_mem,
            stats_maps: self.hot.memory_usage() + self.rules.capacity() * entry,
        };
        let metrics = self.snapshot(feed_nanos, drain_timer.elapsed_nanos(), gauges);
        self.cfg.observer.on_finish(&metrics);
        ProfileResult {
            deps: global,
            exec_tree,
            stats,
            memory,
            workers: self.senders.len(),
            per_worker_events,
            metrics,
        }
    }

    /// Assembles the final [`MetricsSnapshot`] from the ledger, the
    /// channel taps and the router's hot-address statistics. Returns the
    /// all-zero default when the `metrics` feature is off.
    fn snapshot(
        &self,
        feed_nanos: u64,
        drain_nanos: u64,
        signatures: SigGauges,
    ) -> MetricsSnapshot {
        if !dp_metrics::ENABLED {
            return MetricsSnapshot::default();
        }
        let w = self.senders.len();
        let m = &self.metrics;
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
        let chunks = ChunkStats {
            pushed: self.chunks_pushed,
            consumed: chunks_consumed,
            queue_highwater: self.taps.iter().map(|t| t.high_water.get()).max().unwrap_or(0),
            push_retries: self.taps.iter().map(|t| t.push_fulls.get()).sum(),
            empty_pops: self.taps.iter().map(|t| t.empty_pops.get()).sum(),
        };
        // Top-k hottest addresses from the Section IV-A statistics, count
        // descending with the address as deterministic tie-break.
        let hot_addresses: Vec<HotAddress> = self
            .hot
            .top(self.cfg.top_k)
            .into_iter()
            .map(|(addr, count)| HotAddress { addr, count })
            .collect();
        MetricsSnapshot {
            enabled: true,
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
                feed_nanos,
                drain_nanos,
                total_nanos: feed_nanos + drain_nanos,
            },
        }
    }
}

impl<S, X> Tracer for ParallelProfiler<S, X>
where
    S: AccessStore + 'static,
    X: Transport<WorkerMsg>,
{
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Access(a) => {
                // Access statistics, updated on every access (Section
                // IV-A: "updated every time a memory access occurs").
                self.hot.add(a.addr, 1);
                if let Some(inf) = self.inflight.get_mut(&a.addr) {
                    inf.buffered.push(ev);
                    self.poll_responses();
                } else {
                    let (wid, diverted) = self.route(a.addr);
                    self.append_routed(wid, ev, diverted);
                }
            }
            TraceEvent::LoopBegin { .. }
            | TraceEvent::LoopIter { .. }
            | TraceEvent::LoopEnd { .. } => {
                if self.cfg.track_carried {
                    // Loop context is needed by every worker for carried
                    // classification.
                    for wid in 0..self.pending.len() {
                        if !self.is_dead(wid) {
                            self.append(wid, ev);
                        }
                    }
                } else {
                    let wid = if self.is_dead(0) { self.next_live(0).unwrap_or(0) } else { 0 };
                    self.append(wid, ev);
                }
            }
            TraceEvent::CallBegin { .. } | TraceEvent::CallEnd { .. } => {
                // Structural events feed the execution tree, recorded by
                // worker 0 only. (If worker 0 died the tree is part of
                // what the degraded run lost; the divert below just keeps
                // delivery from blocking.)
                let wid = if self.is_dead(0) { self.next_live(0).unwrap_or(0) } else { 0 };
                self.append(wid, ev);
            }
            TraceEvent::Dealloc { .. } => {
                // Every worker forgets the range (removing an address a
                // worker never owned is a harmless no-op).
                for wid in 0..self.pending.len() {
                    if !self.is_dead(wid) {
                        self.append(wid, ev);
                    }
                }
            }
        }
    }

    fn sync_point(&mut self) {
        self.flush_all();
    }
}

/// Waits for a worker thread to end, escalating rather than blocking:
/// poll for `wait`, then raise the abandon flag and poll for `grace`
/// more, then give up and leave the thread detached. Returns the exit
/// (None if the thread never finished) and whether it was abandoned.
fn join_within(
    h: JoinHandle<WorkerExit>,
    abandon: &AtomicBool,
    wait: Duration,
    grace: Duration,
) -> (Option<WorkerExit>, bool) {
    let mut abandoned = abandon.load(Ordering::Acquire);
    let end = Instant::now() + wait;
    while !h.is_finished() && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(1));
    }
    if !h.is_finished() && !abandoned {
        abandon.store(true, Ordering::Release);
        abandoned = true;
        let end = Instant::now() + grace;
        while !h.is_finished() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    if h.is_finished() {
        let exit = match h.join() {
            Ok(e) => e,
            // A panic that somehow escaped the worker's catch_unwind.
            Err(p) => WorkerExit::Panicked { payload: panic_message(&*p) },
        };
        (Some(exit), abandoned)
    } else {
        (None, abandoned)
    }
}

/// Best-effort stringification of a panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
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
#[cfg(feature = "fault-inject")]
fn fault_pause_or_panic(
    wid: usize,
    chunks_done: u64,
    fault: &FaultRt,
    abandon: &AtomicBool,
) -> bool {
    if let Some(f) = fault.plan.panic_worker {
        if f.worker == wid && chunks_done >= f.after_chunks {
            panic!("injected fault: worker {wid} panicked after {} chunks", f.after_chunks);
        }
    }
    if let Some(f) = fault.plan.stall_worker {
        if f.worker == wid && chunks_done >= f.after_chunks {
            // Stop consuming; stay alive until the supervisor gives up on
            // us, then exit without draining (a stalled worker's queued
            // events are part of what the degraded run lost).
            while !abandon.load(Ordering::Acquire) {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            return true;
        }
    }
    false
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn fault_pause_or_panic(_: usize, _: u64, _: &FaultRt, _: &AtomicBool) -> bool {
    false
}

/// Injected reply-loss hook: true when this `Extracted` reply is the one
/// the plan says to swallow.
#[cfg(feature = "fault-inject")]
fn fault_drop_reply(fault: &FaultRt) -> bool {
    match fault.plan.drop_nth_extract_reply {
        Some(n) => fault.extract_replies.fetch_add(1, Ordering::Relaxed) == n,
        None => false,
    }
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn fault_drop_reply(_: &FaultRt) -> bool {
    false
}

/// Supervised entry point of a worker thread: contains panics (flagging
/// `dead[wid]` before the thread exits so the router fails fast) and
/// reports the exit kind to the supervisor in `finish()`.
fn worker_loop<S: AccessStore, R: TransportReceiver<WorkerMsg>>(
    wid: usize,
    q: R,
    algo: AlgoState<S>,
    ctx: WorkerCtx,
) -> WorkerExit {
    let sup = ctx.sup.clone();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_worker(wid, q, algo, &ctx)
    }));
    match out {
        Ok(out) => WorkerExit::Finished(Box::new(out)),
        Err(payload) => {
            sup.dead[wid].store(true, Ordering::Release);
            WorkerExit::Panicked { payload: panic_message(&*payload) }
        }
    }
}

fn run_worker<S: AccessStore, R: TransportReceiver<WorkerMsg>>(
    wid: usize,
    q: R,
    mut algo: AlgoState<S>,
    ctx: &WorkerCtx,
) -> WorkerOutput {
    let mut backoff = Backoff::new();
    let mut chunks_done = 0u64;
    loop {
        if fault_pause_or_panic(wid, chunks_done, &ctx.fault, &ctx.sup.abandon[wid]) {
            break;
        }
        match q.pop() {
            Some(WorkerMsg::Events(chunk)) => {
                // Consumed means *off the queue*: count at pop (the
                // counters live in the shared ledger, so they survive a
                // mid-chunk panic) with rerouted marks excluded.
                ctx.metrics.consumed[wid].add((chunk.len() - chunk.rerouted()) as u64);
                ctx.metrics.consumed_chunks[wid].inc();
                algo.on_chunk(chunk.events());
                ctx.pool.release(chunk);
                chunks_done += 1;
                backoff.reset();
            }
            Some(WorkerMsg::Extract { addr }) => {
                let (read, write) = algo.extract(addr);
                if !fault_drop_reply(&ctx.fault) {
                    let mut msg = RouterMsg::Extracted { addr, read, write };
                    loop {
                        match ctx.resp.push(msg) {
                            Ok(()) => break,
                            Err(back) => {
                                msg = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }
            Some(WorkerMsg::Inject { addr, read, write }) => {
                algo.inject(addr, read, write);
            }
            Some(WorkerMsg::Checkpoint) => {
                let mut out = ByteWriter::new();
                let state = algo.save_state(&mut out).then(|| out.into_bytes());
                let mut msg = RouterMsg::CheckpointState { worker: wid, state };
                loop {
                    match ctx.resp.push(msg) {
                        Ok(()) => break,
                        Err(back) => {
                            msg = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            Some(WorkerMsg::EnableDelta) => {
                algo.store.enable_delta();
            }
            Some(WorkerMsg::DeltaFlush) => {
                let mut msg = RouterMsg::Delta { worker: wid, delta: algo.store.take_delta() };
                loop {
                    match ctx.resp.push(msg) {
                        Ok(()) => break,
                        Err(back) => {
                            msg = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            Some(WorkerMsg::Shutdown) => break,
            None => backoff.snooze(),
        }
    }
    let gauges = algo.sig_gauges();
    let (store, exec_tree, counters, sig_mem) = algo.finish();
    WorkerOutput { store, exec_tree, counters, sig_mem, gauges }
}

/// The lock-free build (the paper's main configuration).
pub type LockFreeProfiler<S> = ParallelProfiler<S, Shared<MpmcQueue<WorkerMsg>>>;
/// The lock-based comparator build (Figure 5).
pub type LockBasedProfiler<S> = ParallelProfiler<S, Shared<dp_queue::LockQueue<WorkerMsg>>>;
/// The SPSC fast-path build for sequential targets (one producing
/// thread; the `!Sync` senders make misuse a compile error).
pub type SpscProfiler<S> = ParallelProfiler<S, SpscTransport>;

/// A parallel profiler whose transport is chosen at runtime from
/// [`ProfilerConfig::transport`] ([`TransportKind`]). All variants share
/// the same engine code and produce bit-identical dependence sets; only
/// the per-worker channel implementation differs.
pub enum AnyParallelProfiler<S: AccessStore + 'static> {
    /// SPSC fast path ([`TransportKind::Spsc`]).
    Spsc(SpscProfiler<S>),
    /// Lock-free MPMC ([`TransportKind::Mpmc`]).
    Mpmc(LockFreeProfiler<S>),
    /// Lock-based comparator ([`TransportKind::Lock`]).
    Lock(LockBasedProfiler<S>),
}

impl<S: AccessStore + 'static> AnyParallelProfiler<S> {
    /// Starts the pipeline over the transport named by `cfg.transport`.
    pub fn new(cfg: ProfilerConfig, make_store: impl Fn() -> S) -> Self {
        match cfg.transport {
            TransportKind::Spsc => Self::Spsc(ParallelProfiler::new(cfg, make_store)),
            TransportKind::Mpmc => Self::Mpmc(ParallelProfiler::new(cfg, make_store)),
            TransportKind::Lock => Self::Lock(ParallelProfiler::new(cfg, make_store)),
        }
    }

    /// Rebuilds the pipeline from a checkpoint over the transport named
    /// by `cfg.transport` (see [`ParallelProfiler::resume`]). The
    /// configuration must match the one the checkpoint was taken under;
    /// a worker-count mismatch is rejected.
    pub fn resume(
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
        data: &CheckpointData,
    ) -> Result<Self, CheckpointError> {
        Ok(match cfg.transport {
            TransportKind::Spsc => Self::Spsc(ParallelProfiler::resume(cfg, make_store, data)?),
            TransportKind::Mpmc => Self::Mpmc(ParallelProfiler::resume(cfg, make_store, data)?),
            TransportKind::Lock => Self::Lock(ParallelProfiler::resume(cfg, make_store, data)?),
        })
    }

    /// Quiesces the pipeline and captures a consistent checkpoint (see
    /// [`ParallelProfiler::checkpoint_data`]).
    pub fn checkpoint_data(
        &mut self,
        generation: u64,
        records_read: u64,
        config: Vec<u8>,
    ) -> Result<CheckpointData, CheckpointError> {
        match self {
            Self::Spsc(p) => p.checkpoint_data(generation, records_read, config),
            Self::Mpmc(p) => p.checkpoint_data(generation, records_read, config),
            Self::Lock(p) => p.checkpoint_data(generation, records_read, config),
        }
    }

    /// Turns on online analysis in every live worker (see
    /// [`ParallelProfiler::enable_online`]).
    pub fn enable_online(&mut self) {
        match self {
            Self::Spsc(p) => p.enable_online(),
            Self::Mpmc(p) => p.enable_online(),
            Self::Lock(p) => p.enable_online(),
        }
    }

    /// True once online analysis has been enabled.
    pub fn online_enabled(&self) -> bool {
        match self {
            Self::Spsc(p) => p.online_enabled(),
            Self::Mpmc(p) => p.online_enabled(),
            Self::Lock(p) => p.online_enabled(),
        }
    }

    /// Drains the workers' dependence-map movement (see
    /// [`ParallelProfiler::collect_deltas`]).
    pub fn collect_deltas(&mut self) -> Vec<crate::store::AnalysisDelta> {
        match self {
            Self::Spsc(p) => p.collect_deltas(),
            Self::Mpmc(p) => p.collect_deltas(),
            Self::Lock(p) => p.collect_deltas(),
        }
    }

    /// Monotone progress value for the run watchdog (see
    /// [`ParallelProfiler::heartbeat`]).
    pub fn heartbeat(&self) -> u64 {
        match self {
            Self::Spsc(p) => p.heartbeat(),
            Self::Mpmc(p) => p.heartbeat(),
            Self::Lock(p) => p.heartbeat(),
        }
    }

    /// Short name of the active transport ("spsc", "lock-free",
    /// "lock-based").
    pub fn transport_kind(&self) -> &'static str {
        match self {
            Self::Spsc(_) => <SpscTransport as Transport<WorkerMsg>>::kind(),
            Self::Mpmc(_) => <Shared<MpmcQueue<WorkerMsg>> as Transport<WorkerMsg>>::kind(),
            Self::Lock(_) => {
                <Shared<dp_queue::LockQueue<WorkerMsg>> as Transport<WorkerMsg>>::kind()
            }
        }
    }

    /// Completes migrations, drains the pipeline, joins the workers and
    /// merges their results.
    pub fn finish(self) -> ProfileResult {
        match self {
            Self::Spsc(p) => p.finish(),
            Self::Mpmc(p) => p.finish(),
            Self::Lock(p) => p.finish(),
        }
    }
}

impl<S: AccessStore + 'static> Tracer for AnyParallelProfiler<S> {
    fn event(&mut self, ev: TraceEvent) {
        match self {
            Self::Spsc(p) => p.event(ev),
            Self::Mpmc(p) => p.event(ev),
            Self::Lock(p) => p.event(ev),
        }
    }

    fn sync_point(&mut self) {
        match self {
            Self::Spsc(p) => p.sync_point(),
            Self::Mpmc(p) => p.sync_point(),
            Self::Lock(p) => p.sync_point(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sig::PerfectSignature;
    use dp_types::{loc::loc, AccessKind, DepType, MemAccess};

    fn cfg(workers: usize) -> ProfilerConfig {
        ProfilerConfig::default()
            .with_workers(workers)
            .with_chunk_capacity(8)
            .with_redistribution(false)
    }

    fn acc(kind: AccessKind, addr: u64, ts: u64, line: u32) -> TraceEvent {
        TraceEvent::Access(MemAccess { addr, ts, loc: loc(1, line), var: 1, thread: 0, kind })
    }

    #[test]
    fn parallel_matches_serial_semantics() {
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(4), PerfectSignature::new);
        let mut ts = 0;
        let mut next = || {
            ts += 1;
            ts
        };
        for i in 0..64u64 {
            p.event(acc(AccessKind::Write, 0x1000 + i * 8, next(), 10));
        }
        for i in 0..64u64 {
            p.event(acc(AccessKind::Read, 0x1000 + i * 8, next(), 11));
        }
        let r = p.finish();
        assert_eq!(r.stats.accesses, 128);
        assert_eq!(r.workers, 4);
        assert!(!r.degraded(), "healthy run must not be degraded: {:?}", r.stats);
        // One INIT record and one RAW record (all merged).
        assert_eq!(r.stats.deps_merged, 2);
        let raw = r.deps.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw).unwrap();
        assert_eq!(raw.1.count, 64);
        assert_eq!(raw.0.sink.loc.line, 11);
        assert_eq!(raw.0.edge.source_loc.line, 10);
    }

    #[test]
    fn online_deltas_reconstruct_final_store() {
        use crate::store::AnalysisDelta;
        use dp_types::{DepFlags, LoopId, SinkKey, SourceLoc};
        use std::collections::{BTreeMap, BTreeSet};
        type Mirror = BTreeMap<(SinkKey, crate::store::EdgeKey), (u64, DepFlags, BTreeSet<LoopId>)>;
        type LoopMirror = BTreeMap<LoopId, (SourceLoc, SourceLoc, u64, u64)>;
        let fold = |edges: &mut Mirror, loops: &mut LoopMirror, deltas: Vec<AnalysisDelta>| {
            for d in deltas {
                for e in d.edges {
                    let v = edges.entry((e.sink, e.key)).or_insert((
                        0,
                        DepFlags::empty(),
                        BTreeSet::new(),
                    ));
                    v.0 += e.count_delta;
                    v.1 |= e.flags;
                    v.2.extend(e.carriers);
                }
                for l in d.loops {
                    let r = loops.entry(l.id).or_insert((l.begin, l.end, 0, 0));
                    r.2 += l.instances_delta;
                    r.3 += l.iters_delta;
                }
            }
        };
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(4), PerfectSignature::new);
        let mut ts = 0u64;
        let mut next = || {
            ts += 1;
            ts
        };
        let mut edges = Mirror::new();
        let mut loops = LoopMirror::new();
        p.event(TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 5), thread: 0, ts: next() });
        for i in 0..40u64 {
            p.event(TraceEvent::LoopIter { loop_id: 3, iter: i, thread: 0, ts: next() });
            p.event(acc(AccessKind::Write, 0x1000 + (i % 9) * 8, next(), 10));
            p.event(acc(AccessKind::Read, 0x1000 + (i % 9) * 8, next(), 11));
        }
        // Enable mid-run: the first collection must catch up on history.
        p.enable_online();
        fold(&mut edges, &mut loops, p.collect_deltas());
        for i in 0..40u64 {
            p.event(TraceEvent::LoopIter { loop_id: 3, iter: 40 + i, thread: 0, ts: next() });
            p.event(acc(AccessKind::Read, 0x1000 + (i % 9) * 8, next(), 12));
        }
        p.event(TraceEvent::LoopEnd {
            loop_id: 3,
            loc: loc(1, 9),
            iters: 80,
            thread: 0,
            ts: next(),
        });
        fold(&mut edges, &mut loops, p.collect_deltas());
        // Idle pipeline: another collection ships nothing.
        assert!(p.collect_deltas().iter().all(AnalysisDelta::is_empty));
        let r = p.finish();
        assert!(!r.degraded());
        let want_edges: Mirror = r
            .deps
            .dependences()
            .map(|(d, v)| {
                let e = d.edge;
                let key = (e.dtype, e.source_loc, e.source_thread, e.var);
                ((d.sink, key), (v.count, v.flags, v.carriers.iter().copied().collect()))
            })
            .collect();
        let want_loops: LoopMirror = r
            .deps
            .loops()
            .map(|(id, rec)| (*id, (rec.begin, rec.end, rec.instances, rec.total_iters)))
            .collect();
        assert_eq!(edges, want_edges, "folded deltas must equal the final merged store");
        assert_eq!(loops, want_loops);
    }

    #[test]
    fn lock_based_build_equivalent() {
        let mut p: LockBasedProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(3), PerfectSignature::new);
        for i in 0..32u64 {
            p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
            p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
        }
        let r = p.finish();
        assert_eq!(r.stats.deps_merged, 2);
    }

    #[test]
    fn spsc_build_equivalent() {
        let mut p: SpscProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(3), PerfectSignature::new);
        for i in 0..32u64 {
            p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
            p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
        }
        let r = p.finish();
        assert_eq!(r.stats.deps_merged, 2);
        assert_eq!(r.stats.accesses, 64);
    }

    #[test]
    fn spsc_redistribution_migrates_state_correctly() {
        let mut c = cfg(4).with_redistribution(true);
        c.redistribute_every = 2;
        c.top_k = 4;
        let mut p: SpscProfiler<PerfectSignature> = ParallelProfiler::new(c, PerfectSignature::new);
        let addrs = [0x100u64, 0x200, 0x300, 0x400];
        let mut ts = 0u64;
        for round in 0..2000u64 {
            for (k, &a) in addrs.iter().enumerate() {
                ts += 1;
                if round == 0 {
                    p.event(acc(AccessKind::Write, a, ts, 10 + k as u32));
                } else {
                    p.event(acc(AccessKind::Read, a, ts, 20 + k as u32));
                }
            }
        }
        let r = p.finish();
        assert!(r.stats.redistributions > 0, "redistribution never triggered");
        assert_eq!(r.stats.deps_merged, 8, "{:?}", r.stats);
        for (d, v) in r.deps.dependences() {
            if d.edge.dtype == DepType::Raw {
                assert_eq!(d.edge.source_loc.line, d.sink.loc.line - 10);
                assert_eq!(v.count, 1999);
            }
        }
    }

    #[test]
    fn any_profiler_dispatches_all_transports() {
        for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
            let c = cfg(2).with_transport(kind);
            let mut p: AnyParallelProfiler<PerfectSignature> =
                AnyParallelProfiler::new(c, PerfectSignature::new);
            assert_eq!(p.transport_kind(), kind.name());
            for i in 0..16u64 {
                p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
                p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
            }
            let r = p.finish();
            assert_eq!(r.stats.deps_merged, 2, "transport {kind:?}");
        }
    }

    #[test]
    fn redistribution_migrates_state_correctly() {
        let mut c = cfg(4).with_redistribution(true);
        c.redistribute_every = 2; // aggressive for the test
        c.top_k = 4;
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(c, PerfectSignature::new);
        // Hammer four addresses that all map to worker 0 (addr % 4 == 0),
        // forcing redistribution; dependences must stay exact.
        let addrs = [0x100u64, 0x200, 0x300, 0x400];
        let mut ts = 0u64;
        for round in 0..2000u64 {
            for (k, &a) in addrs.iter().enumerate() {
                ts += 1;
                let line = 10 + k as u32;
                if round == 0 {
                    p.event(acc(AccessKind::Write, a, ts, line));
                } else {
                    p.event(acc(AccessKind::Read, a, ts, 20 + k as u32));
                }
            }
        }
        let r = p.finish();
        assert!(r.stats.redistributions > 0, "redistribution never triggered");
        assert!(r.stats.redistributed_addrs > 0);
        // Exactly 4 INIT + 4 RAW records; every RAW sourced at its write
        // line (state migration preserved the signature entries).
        assert_eq!(r.stats.deps_merged, 8, "{:?}", r.stats);
        for (d, v) in r.deps.dependences() {
            if d.edge.dtype == DepType::Raw {
                assert_eq!(d.edge.source_loc.line, d.sink.loc.line - 10);
                assert_eq!(v.count, 1999);
            }
        }
    }

    #[test]
    fn dealloc_broadcast_forgets_everywhere() {
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(4), PerfectSignature::new);
        for i in 0..16u64 {
            p.event(acc(AccessKind::Write, 0x100 + i * 8, i + 1, 1));
        }
        p.event(TraceEvent::Dealloc { base: 0x100, len: 16, thread: 0, ts: 100 });
        for i in 0..16u64 {
            p.event(acc(AccessKind::Read, 0x100 + i * 8, 200 + i, 2));
        }
        let r = p.finish();
        assert!(
            !r.deps.dependences().any(|(d, _)| d.edge.dtype == DepType::Raw),
            "RAW survived a dealloc"
        );
        assert_eq!(r.stats.lifetime_removals, 16 * 4); // broadcast to 4 workers
    }

    #[test]
    fn loop_events_reach_all_workers_for_carried_detection() {
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(2), PerfectSignature::new);
        p.event(TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 1), thread: 0, ts: 1 });
        // accumulator on addr 0x8 (worker 1): read+write each iteration
        for it in 0..3u64 {
            p.event(TraceEvent::LoopIter { loop_id: 1, iter: it, thread: 0, ts: 10 + it * 10 });
            p.event(acc(AccessKind::Read, 0x8, 11 + it * 10, 5));
            p.event(acc(AccessKind::Write, 0x8, 12 + it * 10, 5));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 3, thread: 0, ts: 99 });
        let r = p.finish();
        let raw = r.deps.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw).unwrap();
        assert!(raw.0.edge.flags.contains(dp_types::DepFlags::LOOP_CARRIED));
        assert_eq!(raw.0.edge.carrier, Some(1));
        let rec = r.deps.loop_record(1).unwrap();
        assert_eq!(rec.instances, 1);
        assert_eq!(rec.total_iters, 3);
    }

    /// An injected worker panic must degrade the profile, not abort the
    /// process: the supervisor salvages every surviving worker's
    /// dependences and records which residue class died.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn worker_panic_degrades_instead_of_aborting() {
        let c =
            cfg(4).with_fault_plan(FaultPlan::none().with_panic(2, 0)).with_drain_deadline_ms(500);
        let mut p: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(c, PerfectSignature::new);
        // Worker k owns addresses with (addr >> 3) % 4 == k; give each
        // worker its own address and a W→R pair on distinct lines.
        for k in 0..4u64 {
            let addr = 0x1000 + k * 8;
            p.event(acc(AccessKind::Write, addr, k + 1, 10 + k as u32));
        }
        for k in 0..4u64 {
            let addr = 0x1000 + k * 8;
            p.event(acc(AccessKind::Read, addr, 100 + k, 20 + k as u32));
        }
        let r = p.finish();
        assert!(r.degraded());
        assert_eq!(r.stats.worker_failures.len(), 1);
        let f = &r.stats.worker_failures[0];
        assert_eq!(f.worker, 2);
        assert_eq!(f.workers, 4);
        assert!(matches!(&f.cause, FailureCause::Panic(m) if m.contains("injected fault")));
        // Surviving workers' RAWs (lines 20, 21, 23) are all present.
        for k in [0u32, 1, 3] {
            assert!(
                r.deps
                    .dependences()
                    .any(|(d, _)| d.edge.dtype == DepType::Raw && d.sink.loc.line == 20 + k),
                "surviving worker {k}'s RAW missing"
            );
        }
    }

    /// A chaotic transport (seeded spurious full/empty) is lossless, so
    /// the profile must be bit-identical to a clean run.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn chaotic_transport_profile_is_exact() {
        use dp_queue::FailingTransport;
        let plan = FaultPlan::none().with_seed(42).with_spurious(20, 20);
        let transport = FailingTransport::new(SpscTransport, plan);
        let mut p: ParallelProfiler<PerfectSignature, _> =
            ParallelProfiler::with_transport(transport, cfg(3), PerfectSignature::new);
        for i in 0..64u64 {
            p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
            p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
        }
        let r = p.finish();
        assert!(!r.degraded(), "{:?}", r.stats);
        assert_eq!(r.stats.deps_merged, 2);
        assert_eq!(r.stats.accesses, 128);
    }

    /// A small but varied stream: 13 addresses, writes and reads, a loop
    /// with iteration boundaries so carried classification is exercised.
    fn ckpt_stream(n: u64) -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        let mut ts = 0u64;
        evs.push(TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 1), thread: 0, ts: 0 });
        for i in 0..n {
            ts += 1;
            if i % 9 == 0 {
                evs.push(TraceEvent::LoopIter { loop_id: 3, iter: i / 9, thread: 0, ts });
                ts += 1;
            }
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            evs.push(acc(kind, 0x100 + (i % 13) * 8, ts, (i % 7) as u32 + 1));
        }
        evs.push(TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 2), iters: n / 9, thread: 0, ts });
        evs
    }

    fn owned_deps(r: &ProfileResult) -> Vec<String> {
        let mut v: Vec<String> =
            r.deps.dependences().map(|(d, val)| format!("{d:?}={val:?}")).collect();
        v.sort();
        v
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        for kind in [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock] {
            let evs = ckpt_stream(200);
            let cut = 77;
            let c = cfg(3).with_transport(kind);
            let mut reference: AnyParallelProfiler<PerfectSignature> =
                AnyParallelProfiler::new(c.clone(), PerfectSignature::new);
            for ev in &evs {
                reference.event(*ev);
            }
            let r_ref = reference.finish();
            assert!(!r_ref.degraded());
            // Interrupted run: prefix → checkpoint → resume → suffix.
            let mut first: AnyParallelProfiler<PerfectSignature> =
                AnyParallelProfiler::new(c.clone(), PerfectSignature::new);
            for ev in &evs[..cut] {
                first.event(*ev);
            }
            let data = first.checkpoint_data(1, cut as u64, b"cfg".to_vec()).unwrap();
            assert_eq!(data.generation, 1);
            assert_eq!(data.workers.len(), 3);
            drop(first.finish()); // the interrupted engine dies here
            let mut resumed =
                AnyParallelProfiler::resume(c.clone(), PerfectSignature::new, &data).unwrap();
            for ev in &evs[cut..] {
                resumed.event(*ev);
            }
            let r2 = resumed.finish();
            assert!(!r2.degraded(), "{kind:?}: {:?}", r2.stats);
            assert_eq!(r_ref.stats.accesses, r2.stats.accesses, "{kind:?}");
            assert_eq!(r_ref.stats.deps_merged, r2.stats.deps_merged, "{kind:?}");
            assert_eq!(owned_deps(&r_ref), owned_deps(&r2), "{kind:?}");
            assert_eq!(r_ref.deps.loop_record(3), r2.deps.loop_record(3), "{kind:?}");
            // The restored ledger keeps the conservation law across the
            // resume: the resumed snapshot accounts for *all* events.
            if dp_metrics::ENABLED {
                assert_eq!(
                    r_ref.metrics.conservation.pushed, r2.metrics.conservation.pushed,
                    "{kind:?}"
                );
                assert_eq!(
                    r_ref.metrics.conservation.consumed, r2.metrics.conservation.consumed,
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_resume_with_redistribution_is_deterministic() {
        // Hot addresses all map to worker 0, forcing migrations; the
        // resumed run must pick the same redistribution decisions even
        // though its hash maps were rebuilt in a different layout.
        let mut c = cfg(4).with_redistribution(true);
        c.redistribute_every = 2;
        c.top_k = 4;
        let addrs = [0x100u64, 0x200, 0x300, 0x400];
        let mut evs = Vec::new();
        let mut ts = 0u64;
        for round in 0..500u64 {
            for (k, &a) in addrs.iter().enumerate() {
                ts += 1;
                let kind = if round == 0 { AccessKind::Write } else { AccessKind::Read };
                evs.push(acc(kind, a, ts, if round == 0 { 10 } else { 20 } + k as u32));
            }
        }
        let mut reference: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(c.clone(), PerfectSignature::new);
        for ev in &evs {
            reference.event(*ev);
        }
        let r_ref = reference.finish();
        assert!(r_ref.stats.redistributions > 0, "redistribution never triggered");
        let cut = 999;
        let mut first: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::new(c.clone(), PerfectSignature::new);
        for ev in &evs[..cut] {
            first.event(*ev);
        }
        let data = first.checkpoint_data(1, cut as u64, Vec::new()).unwrap();
        drop(first.finish());
        let mut resumed: LockFreeProfiler<PerfectSignature> =
            ParallelProfiler::resume(c, PerfectSignature::new, &data).unwrap();
        for ev in &evs[cut..] {
            resumed.event(*ev);
        }
        let r2 = resumed.finish();
        assert!(!r2.degraded(), "{:?}", r2.stats);
        assert_eq!(owned_deps(&r_ref), owned_deps(&r2));
    }

    #[test]
    fn resume_rejects_mismatched_worker_count() {
        let mut p: SpscProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(3), PerfectSignature::new);
        p.event(acc(AccessKind::Write, 0x8, 1, 1));
        let data = p.checkpoint_data(0, 1, Vec::new()).unwrap();
        drop(p.finish());
        let err = SpscProfiler::<PerfectSignature>::resume(cfg(2), PerfectSignature::new, &data)
            .err()
            .expect("worker-count mismatch must be rejected");
        assert!(matches!(err, CheckpointError::Wire(_)), "{err}");
    }

    #[test]
    fn heartbeat_advances_with_traffic() {
        let mut p: SpscProfiler<PerfectSignature> =
            ParallelProfiler::new(cfg(2), PerfectSignature::new);
        let before = p.heartbeat();
        for i in 0..64u64 {
            p.event(acc(AccessKind::Write, i * 8, i + 1, 1));
        }
        p.flush_all();
        if dp_metrics::ENABLED {
            assert!(p.heartbeat() > before, "heartbeat must move with traffic");
        }
        p.finish();
    }
}
