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
//! state*, one address at a time and each in one step: the old owner
//! receives an `Extract` message (positioned after all of the address's
//! earlier accesses — queue FIFO guarantees this), the rule that names
//! the new owner goes in, the router waits for the slot contents on the
//! response queue and forwards them in an `Inject` to the new owner,
//! behind every event routed to it so far (so an epoch means the same at
//! both ends). The router routes nothing while it waits, so every later
//! access of the address queues up behind the `Inject` and per-address
//! temporal order holds across the move with nothing in flight once the
//! check returns.
//! Rounds are rare (the paper: "costly, at most 20×/run"), which is what
//! lets the wait be synchronous.
//!
//! ## Failure model
//!
//! The workers are the supervised pool of [`workers`](crate::workers): a
//! panicking worker flags itself dead, and the router fails fast on dead
//! workers instead of spinning on a queue nobody will drain — a surviving
//! worker adopts the dead one's traffic. A migration whose source cannot
//! be asked is cancelled with the rule left alone; one whose answer never
//! comes (the source died, or stayed silent past
//! [`ProfilerConfig::drain_deadline_ms`]) or cannot be handed on is
//! cancelled with the rule in place, and the address starts afresh at its
//! new owner. `finish()` reports losses precisely — per-worker
//! dropped-event counts, cancelled migrations and
//! [`WorkerFailure`](crate::result::WorkerFailure) records — in
//! [`ProfileStats`](crate::result::ProfileStats). Under
//! [`OverflowPolicy::Drop`](crate::config::OverflowPolicy) a stalled-but-alive worker is handled the
//! same way: once its queue has been continuously full past the stall
//! deadline, events destined for it are dropped *and counted* instead of
//! blocking the target forever. This mirrors the paper's own philosophy
//! of graceful degradation (signatures trade accuracy for memory,
//! Formula 2) — here the trade is completeness for termination.
//!
//! ## Transport
//!
//! The per-worker channel is chosen once, at construction, from
//! [`ProfilerConfig::transport`]: the SPSC fast path
//! ([`dp_queue::spsc_ring`], the default — a sequential target has
//! exactly one producing thread), the lock-free MPMC build
//! ([`dp_queue::MpmcQueue`]) or the lock-based comparator of Figure 5
//! ([`dp_queue::LockQueue`]). The router holds each sending end as a
//! boxed [`TransportSender`] and pays the indirect call once per chunk;
//! every message reaches its worker through the one delivery routine of
//! the shared worker pool, so measured differences are attributable to
//! the queue alone. A [`FaultPlan`](dp_queue::FaultPlan) in
//! [`ProfilerConfig::fault_plan`] injects its seeded queue chaos there,
//! whichever queue is chosen.

use crate::algo::{AlgoOptions, AlgoState};
use crate::checkpoint::{CheckpointData, CheckpointError};
use crate::config::{ProfilerConfig, TransportKind};
use crate::hot::HotTable;
use crate::result::ProfileResult;
use crate::store::AnalysisDelta;
use crate::workers::{shared, Reply, WorkerMsg, Workers};
use dp_metrics::HotAddress;
use dp_queue::{spsc_ring, Chunk, ChunkPool, LockQueue, MpmcQueue, Record, TransportSender};
use dp_sig::AccessStore;
use dp_types::{Address, ByteReader, ByteWriter, FxHashMap, TraceEvent, Tracer, WireError};
use std::time::Duration;

/// The parallel profiler. Implements [`Tracer`], so the instrumented
/// program pushes events into it directly; call
/// [`ParallelProfiler::finish`] afterwards.
///
/// One type for every transport and access store: both are chosen when
/// the workers are spawned and live behind the queues. The boxed senders
/// are `Send` but not `Sync`, so the profiler can move to another thread
/// but never be fed from two — the single-producer contract the SPSC fast
/// path relies on is compiler-enforced, whatever the transport:
///
/// ```
/// use dp_core::{ParallelProfiler, ProfilerConfig};
/// let p = ParallelProfiler::new(ProfilerConfig::default(), dp_sig::PerfectSignature::new);
/// std::thread::scope(|s| {
///     s.spawn(move || p.heartbeat());
/// });
/// ```
///
/// ```compile_fail,E0277
/// use dp_core::{ParallelProfiler, ProfilerConfig};
/// let p = ParallelProfiler::new(ProfilerConfig::default(), dp_sig::PerfectSignature::new);
/// std::thread::scope(|s| {
///     s.spawn(|| p.heartbeat());
/// });
/// ```
pub struct ParallelProfiler {
    senders: Vec<Box<dyn TransportSender<WorkerMsg>>>,
    workers: Workers,
    pending: Vec<Chunk>,
    /// Section IV-A access statistics, in bounded memory.
    hot: HotTable,
    rules: FxHashMap<Address, usize>,
    /// The `chunks_pushed` at which the next balance check falls due.
    balance_due: u64,
    redistributions: u64,
    cancelled_migrations: u64,
    spurious_replies: u64,
    /// Online analysis enabled (workers track dependence-map movement).
    online: bool,
    /// Delta replies that arrived outside a collect window; handed to
    /// the next [`ParallelProfiler::collect_deltas`] caller.
    pending_deltas: Vec<AnalysisDelta>,
    cfg: ProfilerConfig,
}

/// One extraction state per worker, each with two stores from
/// `make_store`, on the epoch clock: the queued records carry no
/// timestamps.
fn worker_algos<S: AccessStore>(
    cfg: &ProfilerConfig,
    make_store: impl Fn() -> S,
) -> Vec<AlgoState<S>> {
    let opts = |wid| AlgoOptions {
        // Loop events are broadcast; only worker 0 records them, so
        // iteration counts stay exact.
        record_loops: wid == 0,
        ..AlgoOptions::default()
    };
    (0..cfg.workers.max(1))
        .map(|wid| AlgoState::new(make_store(), make_store(), opts(wid)))
        .collect()
}

/// A channel with its sending end boxed, as the router holds it.
fn boxed<Tx: TransportSender<WorkerMsg> + 'static, R>(
    (tx, rx): (Tx, R),
) -> (Box<dyn TransportSender<WorkerMsg>>, R) {
    (Box::new(tx), rx)
}

impl ParallelProfiler {
    /// Starts `cfg.workers` worker threads over the transport named by
    /// `cfg.transport`, building each worker's two signatures with
    /// `make_store` (called twice per worker).
    pub fn new<S: AccessStore + 'static>(cfg: ProfilerConfig, make_store: impl Fn() -> S) -> Self {
        let algos = worker_algos(&cfg, make_store);
        Self::spawn(cfg, algos)
    }

    /// Rebuilds a profiler from a checkpoint: every worker's signatures,
    /// dependence map and loop stacks are restored *before* its thread
    /// starts (a restore failure leaves no thread behind), then the
    /// router's statistics, rules and conservation ledger are restored,
    /// so feeding the remaining trace records produces exactly what an
    /// uninterrupted run would.
    ///
    /// `cfg` must describe the same engine shape the checkpoint was
    /// written under (worker count, store dimensions, chunking).
    pub fn resume<S: AccessStore + 'static>(
        cfg: ProfilerConfig,
        make_store: impl Fn() -> S,
        data: &CheckpointData,
    ) -> Result<Self, CheckpointError> {
        let mut algos = worker_algos(&cfg, make_store);
        if data.workers.len() != algos.len() {
            return Err(WireError::Invalid("worker count differs from checkpoint").into());
        }
        for (algo, state) in algos.iter_mut().zip(&data.workers) {
            algo.restore_state(state)?;
        }
        let mut p = Self::spawn(cfg, algos);
        p.restore_router(&data.router)?;
        p.workers.ctx.metrics.restore(&data.ledger)?;
        Ok(p)
    }

    /// The one place the transport is chosen.
    fn spawn<S: AccessStore + 'static>(cfg: ProfilerConfig, algos: Vec<AlgoState<S>>) -> Self {
        let w = algos.len();
        let pool = ChunkPool::new(w * (cfg.queue_chunks + 2), cfg.chunk_capacity);
        let (senders, workers) = match cfg.transport {
            TransportKind::Spsc => Workers::spawn(&cfg, pool, algos, |cap| boxed(spsc_ring(cap))),
            TransportKind::Mpmc => {
                Workers::spawn(&cfg, pool, algos, |cap| boxed(shared(MpmcQueue::new(cap))))
            }
            TransportKind::Lock => {
                Workers::spawn(&cfg, pool, algos, |cap| boxed(shared(LockQueue::new(cap))))
            }
        };
        ParallelProfiler {
            senders,
            pending: (0..w).map(|_| workers.ctx.pool.acquire()).collect(),
            workers,
            hot: HotTable::new(),
            rules: FxHashMap::default(),
            balance_due: cfg.redistribute_every,
            redistributions: 0,
            cancelled_migrations: 0,
            spurious_replies: 0,
            online: false,
            pending_deltas: Vec::new(),
            cfg,
        }
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
        self.workers.ctx.is_dead(wid)
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
            Some(f) => (f, true),
            // Every worker is dead; the send will drop and account.
            None => (wid, false),
        }
    }

    /// Delivers a control message to `wid` through the pool's one
    /// delivery routine; false when it was given back.
    fn send(&self, wid: usize, msg: WorkerMsg, drop_after: Option<Duration>) -> bool {
        self.workers.ctx.deliver(wid, &*self.senders[wid], msg, drop_after).is_ok()
    }

    /// Appends `rec` to `wid`'s chunk and flushes a filled one. A diverted
    /// copy is counted rerouted once, here, and marked in its chunk so the
    /// enqueue/drop/consume taps exclude it downstream.
    #[inline]
    fn append(&mut self, wid: usize, rec: Record, diverted: bool) {
        self.pending[wid].push_record(rec);
        if diverted {
            self.workers.ctx.metrics.rerouted.inc();
            self.pending[wid].mark_rerouted();
        }
        if self.pending[wid].is_full() {
            self.flush(wid);
        }
    }

    /// Event chunks delivered so far, the clock of the balance check.
    fn chunks_pushed(&self) -> u64 {
        self.workers.ctx.chunks_pushed.get()
    }

    /// The next multiple of `redistribute_every` above `chunks_pushed`.
    fn next_balance(&self) -> u64 {
        let every = self.cfg.redistribute_every.max(1);
        (self.chunks_pushed() / every + 1) * every
    }

    /// Sends `wid`'s pending chunk and only then acquires the next, so a
    /// worker's live chunks are its queue's, the one it works on and this.
    fn flush(&mut self, wid: usize) {
        if !self.pending[wid].is_empty() {
            let ctx = &self.workers.ctx;
            let chunk = std::mem::take(&mut self.pending[wid]);
            ctx.send_chunk(wid, &*self.senders[wid], chunk);
            self.pending[wid] = ctx.pool.acquire();
        }
    }

    fn flush_all(&mut self) {
        for wid in 0..self.pending.len() {
            self.flush(wid);
        }
    }

    /// Section IV-A: keep the `top_k` hottest addresses evenly spread.
    fn maybe_redistribute(&mut self) {
        let w = self.senders.len();
        let top = self.hot.top(self.cfg.top_k);
        // Check balance: how many of the top-k does each worker own?
        let mut load = vec![0usize; w];
        for &(a, _) in &top {
            load[self.owner(a)] += 1;
        }
        let ideal = top.len().div_ceil(w);
        if load.iter().all(|&l| l <= ideal) {
            return; // already even
        }
        // Reassign round-robin by heat and migrate owners that change.
        let mut moved = false;
        for (rank, &(addr, _)) in top.iter().enumerate() {
            let (old, new) = (self.owner(addr), rank % w);
            // A migration needs both endpoints alive: a dead source has
            // no state to extract, a dead target nothing to inject into.
            if old != new && !self.is_dead(old) && !self.is_dead(new) {
                moved |= self.migrate(addr, old, new);
            }
        }
        self.redistributions += moved as u64;
    }

    /// Moves `addr` from `old` to `new` in one step; the router routes
    /// nothing meanwhile, so nothing is in flight on return. True once
    /// `old` has been asked for the state: it gives the state up whether
    /// or not its answer arrives, so from then on `new` owns the address
    /// and a missing answer only means it starts there afresh.
    fn migrate(&mut self, addr: Address, old: usize, new: usize) -> bool {
        // An answer to a cancelled move must not pass for one to this.
        self.dispose_strays(self.workers.ctx.stale_replies());
        // Order: everything routed so far must precede Extract.
        self.flush(old);
        if !self.send(old, WorkerMsg::Extract { addr }, self.workers.ctx.drop_after) {
            self.cancelled_migrations += 1;
            return false;
        }
        self.rules.insert(addr, new);
        let mut expect = vec![false; self.senders.len()];
        expect[old] = true;
        let mut state = None;
        let strays = self.workers.await_replies(&mut expect, |msg| match msg {
            Reply::Extracted { addr: a, read, write } if a == addr => {
                state = Some((read, write));
                Ok(old)
            }
            other => Err(other),
        });
        self.dispose_strays(strays);
        // No answer (a dead or silent source, a lost reply) or no way to
        // hand it on (the target died or stalled meanwhile): cancelled.
        // The target takes the state behind every event routed so far, as
        // the source gave it up: only there does its epoch mean the same.
        let injected = state.is_some_and(|(read, write)| {
            self.flush(new);
            let inject = WorkerMsg::Inject { addr, read, write };
            self.send(new, inject, self.workers.ctx.drop_after)
        });
        self.cancelled_migrations += !injected as u64;
        true
    }

    /// Replies nobody is waiting for: a late delta is parked for the next
    /// collection (the worker already drained its dirty set); anything
    /// else is counted and dropped, never fatal.
    fn dispose_strays(&mut self, msgs: Vec<Reply>) {
        for msg in msgs {
            match msg {
                Reply::Delta { delta, .. } if !delta.is_empty() => self.pending_deltas.push(delta),
                Reply::Delta { .. } => {}
                Reply::Extracted { .. } | Reply::CheckpointState { .. } => {
                    self.spurious_replies += 1
                }
            }
        }
    }

    /// Quiesces the pipeline at a chunk barrier and captures a complete,
    /// consistent checkpoint: pending chunks are flushed, then every
    /// worker serializes its extraction state after consuming everything
    /// routed before the barrier (queue FIFO order guarantees the cut is
    /// consistent; a migration is one router step, so none is ever under
    /// way here). The caller supplies the trace position and an opaque
    /// configuration blob, and writes the result through a
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
        // An answer to an earlier barrier must not pass for one to this.
        self.dispose_strays(self.workers.ctx.stale_replies());
        self.flush_all();
        // As `restore_router` will: this run and one resumed from the cut
        // hold their next balance check at the same chunk.
        self.balance_due = self.next_balance();
        for wid in 0..self.senders.len() {
            if !self.send(wid, WorkerMsg::Checkpoint, Some(self.workers.drain())) {
                return Err(CheckpointError::WorkerUnavailable(wid));
            }
        }
        let (states, strays) = self.workers.checkpoint_states();
        self.dispose_strays(strays);
        Ok(CheckpointData {
            generation,
            records_read,
            config,
            router: self.save_router(),
            ledger: self.workers.ctx.metrics.save(),
            workers: states?,
        })
    }

    /// Serializes the router's statistics and rules, both sorted by
    /// address so identical states produce identical bytes. The layout is
    /// the one written when the statistics were a count per address: any
    /// number of `(addr, count)` pairs.
    fn save_router(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.u64(self.chunks_pushed());
        out.u64(self.redistributions);
        out.u64(self.workers.ctx.metrics.rerouted.get());
        out.u64(self.cancelled_migrations);
        out.u64(self.spurious_replies);
        let dropped = &self.workers.ctx.dropped_events;
        out.u32(dropped.len() as u32);
        for d in dropped {
            out.u64(d.get());
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
        // Into the fresh pipeline's zeroed counters, as the ledger is.
        let ctx = &self.workers.ctx;
        ctx.chunks_pushed.add(r.u64()?);
        self.redistributions = r.u64()?;
        // The ledger's own copy, which it restores.
        r.u64()?;
        self.cancelled_migrations = r.u64()?;
        self.spurious_replies = r.u64()?;
        if r.u32()? as usize != ctx.dropped_events.len() {
            return Err(WireError::Invalid("router drop-vector length differs from checkpoint"));
        }
        for d in &ctx.dropped_events {
            d.add(r.u64()?);
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
        self.balance_due = self.next_balance();
        Ok(())
    }

    /// Turns on online analysis: every live worker starts tracking
    /// dependence-map movement
    /// ([`DepStore::enable_delta`](crate::store::DepStore::enable_delta)).
    /// The worker-side enable marks a catch-up at a zero baseline, so
    /// the first [`ParallelProfiler::collect_deltas`] ships every edge an
    /// analysis reads no matter how late this is called. Idempotent.
    pub fn enable_online(&mut self) {
        if self.online {
            return;
        }
        self.online = true;
        for wid in 0..self.senders.len() {
            if !self.is_dead(wid) {
                // A dead or stalled worker just misses the enable; its
                // dependences surface when its store merges at finish.
                self.send(wid, WorkerMsg::EnableDelta, self.workers.ctx.drop_after);
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
    /// deadline is skipped — its movement is parked by `dispose_strays`
    /// when the reply finally lands, so nothing is lost, merely late.
    /// With a quiet pipeline (every fed event consumed, as at the final
    /// query of a session) the folded deltas reproduce what the
    /// analyses read of the workers' stores exactly.
    pub fn collect_deltas(&mut self) -> Vec<AnalysisDelta> {
        let mut out = std::mem::take(&mut self.pending_deltas);
        if !self.online {
            return out;
        }
        self.flush_all();
        let drain = self.workers.drain();
        let mut expect: Vec<bool> = (0..self.senders.len())
            .map(|wid| self.send(wid, WorkerMsg::DeltaFlush, Some(drain)))
            .collect();
        // Replies from an earlier window count too: deltas compose in any
        // order (counts add, flags OR, carriers union).
        let strays = self.workers.await_replies(&mut expect, |msg| match msg {
            Reply::Delta { worker, delta } => {
                if !delta.is_empty() {
                    out.push(delta);
                }
                Ok(worker)
            }
            other => Err(other),
        });
        self.dispose_strays(strays);
        out
    }

    /// Monotone progress heartbeat for the run watchdog, piggybacked on
    /// the conservation ledger: events the router has pushed plus
    /// events the workers have consumed, so progress on either side of
    /// the queues moves the value.
    pub fn heartbeat(&self) -> u64 {
        self.workers.ctx.metrics.heartbeat()
    }

    /// Drains the pipeline, joins the workers and merges their results.
    /// Every wait is bounded by [`ProfilerConfig::drain_deadline_ms`]: a
    /// dead or unresponsive worker degrades the profile (see
    /// [`ProfileStats::degraded`](crate::result::ProfileStats::degraded))
    /// instead of hanging or aborting the caller.
    pub fn finish(mut self) -> ProfileResult {
        self.workers.begin_drain();
        let drain = self.workers.drain();
        self.dispose_strays(self.workers.ctx.stale_replies());
        for (wid, chunk) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            self.workers.ctx.send_chunk(wid, &*self.senders[wid], chunk);
        }
        let shutdown_ok: Vec<bool> = (0..self.senders.len())
            .map(|wid| self.send(wid, WorkerMsg::Shutdown, Some(drain)))
            .collect();
        // Top-k hottest addresses from the Section IV-A statistics, count
        // descending with the address as deterministic tie-break.
        let hot_addresses = (self.hot.top(self.cfg.top_k).into_iter())
            .map(|(addr, count)| HotAddress { addr, count })
            .collect();
        let mut r = self.workers.finish(&shutdown_ok, hot_addresses);
        r.stats.redistributions = self.redistributions;
        r.stats.redistributed_addrs = self.rules.len() as u64;
        r.stats.rerouted_events = r.metrics.conservation.rerouted;
        r.stats.cancelled_migrations = self.cancelled_migrations;
        r.stats.spurious_replies = self.spurious_replies;
        let entry = std::mem::size_of::<(Address, u64)>() + 1;
        r.memory.queues = self.senders.iter().map(|s| s.memory_usage()).sum();
        r.memory.stats_maps = self.hot.memory_usage() + self.rules.capacity() * entry;
        r
    }
}

impl Tracer for ParallelProfiler {
    /// Routes one event of thread 0, packed once ([`Record`]) for every worker it goes to.
    fn event(&mut self, ev: TraceEvent) {
        let rec = Record::pack(&ev);
        match ev {
            TraceEvent::Access(a) => {
                // Access statistics, updated on every access (Section
                // IV-A: "updated every time a memory access occurs").
                self.hot.add(a.addr, 1);
                let (wid, diverted) = self.route(a.addr);
                self.append(wid, rec, diverted);
            }
            TraceEvent::LoopBegin { .. }
            | TraceEvent::LoopIter { .. }
            | TraceEvent::LoopEnd { .. }
            | TraceEvent::Dealloc { .. } => {
                // Loop context is needed by every worker for carried
                // classification, and every worker forgets a freed range
                // (removing an address a worker never owned is a no-op).
                for wid in 0..self.pending.len() {
                    if !self.is_dead(wid) {
                        self.append(wid, rec, false);
                    }
                }
            }
            TraceEvent::CallBegin { .. } | TraceEvent::CallEnd { .. } => {
                // Structural events feed the execution tree, recorded by
                // worker 0 only. (If worker 0 died the tree is part of
                // what the degraded run lost; the divert below just keeps
                // delivery from blocking.)
                let wid = if self.is_dead(0) { self.next_live(0).unwrap_or(0) } else { 0 };
                self.append(wid, rec, false);
            }
        }
        // The balance check, once due, runs between events (never inside a
        // round's own flushes): a broadcast has reached every worker, so a
        // moved entry's two ends have seen the same boundaries and frees.
        if self.cfg.redistribution && self.chunks_pushed() >= self.balance_due {
            self.maybe_redistribute();
            self.balance_due = self.next_balance();
        }
    }

    fn sync_point(&mut self) {
        self.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_sig::PerfectSignature;
    use dp_types::{
        loc::loc, AccessKind, DepFlags, DepType, LoopId, MemAccess, SinkKey, SourceLoc,
    };
    use std::collections::{BTreeMap, BTreeSet};

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
        let mut p = ParallelProfiler::new(
            cfg(4).with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
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

    type Mirror = BTreeMap<(SinkKey, crate::store::EdgeKey), (u64, DepFlags, BTreeSet<LoopId>)>;
    type LoopMirror = BTreeMap<LoopId, (SourceLoc, SourceLoc, u64, u64)>;

    /// Folds deltas the way an online analysis does: counts add, flags
    /// OR, carriers union.
    fn fold(edges: &mut Mirror, loops: &mut LoopMirror, deltas: Vec<AnalysisDelta>) {
        for d in deltas {
            for e in d.edges {
                let v =
                    edges.entry((e.sink, e.key)).or_insert((0, DepFlags::empty(), BTreeSet::new()));
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
    }

    /// What the deltas must rebuild: the edges of the merged store an
    /// analysis reads, and every loop record. (Counts add up across
    /// workers in these tests because every address shows each of its
    /// edges the same way wherever it is owned, so all workers agree on
    /// which edges are relevant.)
    fn relevant(r: &ProfileResult) -> (Mirror, LoopMirror) {
        let edges = r
            .deps
            .dependences()
            .filter(|(d, v)| {
                !v.carriers.is_empty()
                    || v.flags.contains(DepFlags::REVERSED)
                    || (d.edge.dtype == DepType::Raw && d.edge.source_thread != d.sink.thread)
            })
            .map(|(d, v)| {
                let e = d.edge;
                let key = (e.dtype, e.source_loc, e.source_thread, e.var);
                ((d.sink, key), (v.count, v.flags, v.carriers.iter().copied().collect()))
            })
            .collect();
        let loops = r
            .deps
            .loops()
            .map(|(id, rec)| (*id, (rec.begin, rec.end, rec.instances, rec.total_iters)))
            .collect();
        (edges, loops)
    }

    #[test]
    fn online_deltas_reconstruct_final_store() {
        let mut p = ParallelProfiler::new(
            cfg(4).with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
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
        // The deltas carry the edges an analysis reads, so they rebuild
        // that part of the merged store and every loop record.
        let (want_edges, want_loops) = relevant(&r);
        assert_eq!(edges, want_edges, "folded deltas must equal the relevant merged store");
        assert!(!edges.is_empty() && (edges.len() as u64) < r.deps.merged_len());
        assert_eq!(loops, want_loops);
    }

    const TRANSPORTS: [TransportKind; 3] =
        [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock];

    #[test]
    fn every_transport_builds_the_same_profile() {
        assert_eq!(cfg(3).transport, TransportKind::Spsc, "the default is single-producer");
        for kind in TRANSPORTS {
            let mut p = ParallelProfiler::new(cfg(3).with_transport(kind), PerfectSignature::new);
            for i in 0..32u64 {
                p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
                p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
            }
            let r = p.finish();
            assert_eq!(r.stats.deps_merged, 2, "transport {kind:?}");
            assert_eq!(r.stats.accesses, 64, "transport {kind:?}");
        }
    }

    #[test]
    fn redistribution_migrates_state_correctly() {
        for kind in TRANSPORTS {
            let mut c = cfg(4).with_redistribution(true).with_transport(kind);
            c.redistribute_every = 2; // aggressive for the test
            c.top_k = 4;
            let mut p = ParallelProfiler::new(c, PerfectSignature::new);
            // Hammer four addresses that all map to worker 0 (addr % 4 == 0),
            // forcing redistribution; dependences must stay exact.
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
            assert!(r.stats.redistributed_addrs > 0);
            // Exactly 4 INIT + 4 RAW records; every RAW sourced at its write
            // line (state migration preserved the signature entries).
            assert_eq!(r.stats.deps_merged, 8, "{kind:?}: {:?}", r.stats);
            for (d, v) in r.deps.dependences() {
                if d.edge.dtype == DepType::Raw {
                    assert_eq!(d.edge.source_loc.line, d.sink.loc.line - 10);
                    assert_eq!(v.count, 1999);
                }
            }
        }
    }

    /// Collections between and after balance rounds: each round's
    /// `Extracted` answers are taken by the round itself, so none can
    /// land in a collection's wait window, and an edge counted partly at
    /// the old owner and partly at the new folds to its merged count.
    #[test]
    fn online_deltas_survive_redistribution() {
        for kind in TRANSPORTS {
            let mut c = cfg(4).with_redistribution(true).with_transport(kind);
            c.redistribute_every = 2;
            c.top_k = 4;
            let mut p = ParallelProfiler::new(c, PerfectSignature::new);
            let mut serial = crate::seq::SequentialProfiler::perfect();
            let (mut edges, mut loops) = (Mirror::new(), LoopMirror::new());
            let mut ts = 0u64;
            let mut feed = |p: &mut ParallelProfiler, ev: TraceEvent| {
                p.event(ev);
                serial.on_event(&ev);
            };
            feed(&mut p, TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 5), thread: 0, ts });
            // Two hot sets, each all on worker 0; the second overtakes the
            // first, so the balance check moves addresses twice.
            for i in 0..450u64 {
                ts += 1;
                feed(&mut p, TraceEvent::LoopIter { loop_id: 3, iter: i, thread: 0, ts });
                let base = if i < 150 { 0x100 } else { 0x1100 };
                for k in 0..4u64 {
                    ts += 2;
                    feed(&mut p, acc(AccessKind::Read, base + k * 0x100, ts - 1, 20 + k as u32));
                    feed(&mut p, acc(AccessKind::Write, base + k * 0x100, ts, 10 + k as u32));
                }
                if i == 60 {
                    assert!(p.redistributions > 0, "{kind:?}: enable after the first round");
                    p.enable_online();
                }
                if i >= 60 && i % 45 == 0 {
                    fold(&mut edges, &mut loops, p.collect_deltas());
                }
            }
            feed(
                &mut p,
                TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 9), iters: 450, thread: 0, ts },
            );
            fold(&mut edges, &mut loops, p.collect_deltas());
            assert!(p.collect_deltas().iter().all(AnalysisDelta::is_empty));
            let r = p.finish();
            assert!(!r.degraded(), "{kind:?}: {:?}", r.stats);
            assert!(r.stats.redistributions >= 2, "{kind:?}: {:?}", r.stats);
            assert_eq!((r.stats.cancelled_migrations, r.stats.spurious_replies), (0, 0));
            let (want_edges, want_loops) = relevant(&r);
            assert_eq!(edges, want_edges, "{kind:?}");
            assert!(!edges.is_empty());
            assert_eq!(loops, want_loops, "{kind:?}");
            assert_eq!(owned_deps(&r), owned_deps(&serial.finish()), "{kind:?}");
        }
    }

    /// An address moves while the boundary that renumbers the epoch clock
    /// (the 256th, in this build) is routed but still queued for its new
    /// owner: the old owner has renumbered, the new one has not. The
    /// write the address carries, made in the current outer iteration,
    /// must still read as that iteration's inside the inner loop the
    /// boundary opens, on every transport, as in the serial engine.
    #[test]
    fn a_move_across_a_renumbering_keeps_the_epoch() {
        for kind in TRANSPORTS {
            let c = cfg(2).with_slots(1 << 12).with_transport(kind);
            let slots = c.slots_per_worker();
            let mut p = ParallelProfiler::new(c, move || crate::DefaultSig::new(slots));
            let mut serial = crate::seq::SequentialProfiler::perfect();
            let (x, y) = (0x100, (0x108..).step_by(8).find(|&a| p.owner(a) != p.owner(0x100)));
            let (old, new) = (p.owner(x), p.owner(y.unwrap()));
            let mut ts = 0;
            let mut feed = |p: &mut ParallelProfiler, ev: TraceEvent| {
                p.event(ev);
                serial.on_event(&ev);
            };
            // One access of the new owner's first, so its queue does not
            // flush on the 256th boundary.
            feed(&mut p, acc(AccessKind::Write, y.unwrap(), 0, 1));
            feed(&mut p, TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 2), thread: 0, ts });
            for iter in 0..254 {
                ts += 1;
                feed(&mut p, TraceEvent::LoopIter { loop_id: 1, iter, thread: 0, ts });
            }
            feed(&mut p, acc(AccessKind::Write, x, ts + 1, 10));
            ts += 2;
            feed(&mut p, TraceEvent::LoopBegin { loop_id: 2, loc: loc(1, 3), thread: 0, ts });
            assert!(!p.pending[new].is_empty(), "the renumbering boundary is still queued");
            assert!(p.migrate(x, old, new));
            feed(&mut p, acc(AccessKind::Read, x, ts + 1, 11));
            for (loop_id, loc) in [(2, loc(1, 4)), (1, loc(1, 5))] {
                ts += 2;
                feed(&mut p, TraceEvent::LoopEnd { loop_id, loc, iters: 1, thread: 0, ts });
            }
            let r = p.finish();
            assert_eq!((r.stats.cancelled_migrations, r.stats.redistributed_addrs), (0, 1));
            let raw = r.deps.dependences().find(|(d, _)| d.edge.dtype == DepType::Raw);
            let (_, v) = raw.expect("the read of the moved address builds a RAW");
            assert!(v.carriers.is_empty() && v.flags.contains(DepFlags::INTRA_ITERATION), "{v:?}");
            assert_eq!(owned_deps(&r), owned_deps(&serial.finish()), "{kind:?}");
        }
    }

    /// Worker 0's chunk fills on a `Dealloc` broadcast while the two
    /// hottest addresses, B and A, are both worker 1's, so the balance
    /// check that falls due moves B to worker 0. It must run once the
    /// broadcast has reached worker 1 too: B's write is freed on both
    /// sides of the move, and the read after it builds nothing.
    #[test]
    fn a_balance_check_waits_for_a_broadcast_to_reach_every_worker() {
        for kind in TRANSPORTS {
            let mut c = cfg(2).with_redistribution(true).with_transport(kind);
            c.redistribute_every = 1;
            c.top_k = 2;
            let mut p = ParallelProfiler::new(c, PerfectSignature::new);
            let mut serial = crate::seq::SequentialProfiler::perfect();
            let addrs = |p: &ParallelProfiler, wid| {
                (0x100..).step_by(8).filter(move |&a| p.owner(a) == wid).take(7).collect::<Vec<_>>()
            };
            let (on_1, on_0) = (addrs(&p, 1), addrs(&p, 0));
            let (b, a) = (on_1[0], on_1[1]);
            let mut evs = vec![acc(AccessKind::Write, b, 1, 1), acc(AccessKind::Write, a, 2, 2)];
            evs.extend((3..6).map(|ts| acc(AccessKind::Read, b, ts, 3)));
            evs.extend((6..8).map(|ts| acc(AccessKind::Read, a, ts, 4)));
            evs.extend(on_0.iter().zip(8..).map(|(&c, ts)| acc(AccessKind::Write, c, ts, 5)));
            evs.push(TraceEvent::Dealloc { base: b, len: 1, thread: 0, ts: 20 });
            evs.push(acc(AccessKind::Read, b, 21, 6));
            for ev in evs {
                p.event(ev);
                serial.on_event(&ev);
            }
            let r = p.finish();
            assert_eq!((r.stats.redistributions, r.stats.cancelled_migrations), (1, 0));
            assert_eq!(owned_deps(&r), owned_deps(&serial.finish()), "{kind:?}");
        }
    }

    #[test]
    fn dealloc_broadcast_forgets_everywhere() {
        let mut p = ParallelProfiler::new(
            cfg(4).with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
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
        let mut p = ParallelProfiler::new(
            cfg(2).with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
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
    #[test]
    fn worker_panic_degrades_instead_of_aborting() {
        use crate::result::FailureCause;
        use dp_queue::FaultPlan;
        let c =
            cfg(4).with_fault_plan(FaultPlan::none().with_panic(2, 0)).with_drain_deadline_ms(500);
        let mut p =
            ParallelProfiler::new(c.with_transport(TransportKind::Mpmc), PerfectSignature::new);
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

    /// Queue chaos from the config's plan (seeded spurious full/empty)
    /// is lossless on every transport, so the profile must be
    /// bit-identical to a clean run.
    #[test]
    fn chaotic_transport_profile_is_exact() {
        use dp_queue::FaultPlan;
        let plan = FaultPlan::none().with_seed(42).with_spurious(20, 20);
        for kind in TRANSPORTS {
            let c = cfg(3).with_fault_plan(plan.clone()).with_transport(kind);
            let mut p = ParallelProfiler::new(c, PerfectSignature::new);
            for i in 0..64u64 {
                p.event(acc(AccessKind::Write, i * 8, i * 2 + 1, 1));
                p.event(acc(AccessKind::Read, i * 8, i * 2 + 2, 2));
            }
            let r = p.finish();
            assert!(!r.degraded(), "{kind:?}: {:?}", r.stats);
            assert_eq!(r.stats.deps_merged, 2, "{kind:?}");
            assert_eq!(r.stats.accesses, 128, "{kind:?}");
            assert!(r.metrics.chunks.push_retries > 0, "{kind:?}: the plan must reach the queue");
        }
    }

    /// Chunks the pool held at its peak: the chunk bytes of
    /// `memory.chunks`, its free list's own bytes left out.
    fn chunks_held(r: &ProfileResult, c: &ProfilerConfig) -> usize {
        let free_list = ChunkPool::new(r.workers * (c.queue_chunks + 2), c.chunk_capacity);
        let chunk_bytes = c.chunk_capacity * free_list.event_bytes();
        (r.memory.chunks - free_list.memory_usage()) / chunk_bytes
    }

    /// The pipeline holds a window, not a backlog: on a stream of
    /// thousands of chunks, no queue ever holds more than `queue_chunks`,
    /// and no more than `queue_chunks + 2` chunks a worker are live. The
    /// pool may allocate one more a worker: an acquire that misses a
    /// release still publishing allocates (see `ChunkPool`).
    #[test]
    fn a_long_stream_stays_inside_the_window() {
        for (w, kind) in [1, 3].into_iter().flat_map(|w| TRANSPORTS.map(|k| (w, k))) {
            let c = cfg(w).with_transport(kind);
            let mut p = ParallelProfiler::new(c.clone(), PerfectSignature::new);
            for i in 0..20_000u64 {
                let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
                p.event(acc(kind, (i % 4096) * 8, i + 1, 1 + (i % 7) as u32));
            }
            let r = p.finish();
            let ctx = format!("{w} workers, {kind:?}: {:?}", r.metrics.chunks);
            assert!(!r.degraded(), "{ctx}");
            assert!(r.metrics.chunks.pushed > 10 * (w * (c.queue_chunks + 2)) as u64, "{ctx}");
            assert!(r.metrics.chunks.queue_highwater <= c.queue_chunks as u64, "{ctx}");
            assert!(chunks_held(&r, &c) <= w * (c.queue_chunks + 3), "{ctx}");
        }
    }

    /// A worker that stops consuming lets its queue fill, and the
    /// high-water mark shows it: the depth is sampled at every push.
    #[test]
    fn a_stalled_workers_full_queue_reads_its_depth() {
        use dp_queue::FaultPlan;
        for kind in TRANSPORTS {
            let plan = FaultPlan::none().with_stall(0, 0);
            let c = (cfg(1).with_transport(kind).with_fault_plan(plan))
                .with_overflow(crate::config::OverflowPolicy::Drop)
                .with_stall_deadline_ms(20)
                .with_drain_deadline_ms(100);
            let mut p = ParallelProfiler::new(c.clone(), PerfectSignature::new);
            for i in 0..(8 * (c.queue_chunks as u64 + 3)) {
                p.event(acc(AccessKind::Write, i * 8, i + 1, 1));
            }
            let r = p.finish();
            assert!(r.degraded(), "{kind:?}");
            assert_eq!(r.metrics.chunks.queue_highwater, c.queue_chunks as u64, "{kind:?}");
        }
    }

    /// A run shorter than one chunk allocates one chunk a worker: the
    /// last flush sends each and acquires none in its place.
    #[test]
    fn a_run_shorter_than_a_chunk_holds_one_chunk_per_worker() {
        for kind in TRANSPORTS {
            let c = cfg(3).with_transport(kind);
            let mut p = ParallelProfiler::new(c.clone(), PerfectSignature::new);
            for i in 0..6u64 {
                p.event(acc(AccessKind::Write, i * 8, i + 1, 1));
            }
            let r = p.finish();
            assert_eq!(r.metrics.chunks.pushed, 3, "{kind:?}");
            assert_eq!(chunks_held(&r, &c), 3, "{kind:?}");
        }
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
        for kind in TRANSPORTS {
            let evs = ckpt_stream(200);
            let cut = 77;
            let c = cfg(3).with_transport(kind);
            let mut reference = ParallelProfiler::new(c.clone(), PerfectSignature::new);
            for ev in &evs {
                reference.event(*ev);
            }
            let r_ref = reference.finish();
            assert!(!r_ref.degraded());
            // Interrupted run: prefix → checkpoint → resume → suffix.
            let mut first = ParallelProfiler::new(c.clone(), PerfectSignature::new);
            for ev in &evs[..cut] {
                first.event(*ev);
            }
            let data = first.checkpoint_data(1, cut as u64, b"cfg".to_vec()).unwrap();
            assert_eq!(data.generation, 1);
            assert_eq!(data.workers.len(), 3);
            drop(first.finish()); // the interrupted engine dies here
            let mut resumed =
                ParallelProfiler::resume(c.clone(), PerfectSignature::new, &data).unwrap();
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
        let mut reference = ParallelProfiler::new(
            c.clone().with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
        for ev in &evs {
            reference.event(*ev);
        }
        let r_ref = reference.finish();
        assert!(r_ref.stats.redistributions > 0, "redistribution never triggered");
        let cut = 999;
        let mut first = ParallelProfiler::new(
            c.clone().with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
        );
        for ev in &evs[..cut] {
            first.event(*ev);
        }
        let data = first.checkpoint_data(1, cut as u64, Vec::new()).unwrap();
        drop(first.finish());
        let mut resumed = ParallelProfiler::resume(
            c.with_transport(TransportKind::Mpmc),
            PerfectSignature::new,
            &data,
        )
        .unwrap();
        for ev in &evs[cut..] {
            resumed.event(*ev);
        }
        let r2 = resumed.finish();
        assert!(!r2.degraded(), "{:?}", r2.stats);
        assert_eq!(owned_deps(&r_ref), owned_deps(&r2));
    }

    #[test]
    fn resume_rejects_mismatched_worker_count() {
        let mut p = ParallelProfiler::new(
            cfg(3).with_transport(TransportKind::Spsc),
            PerfectSignature::new,
        );
        p.event(acc(AccessKind::Write, 0x8, 1, 1));
        let data = p.checkpoint_data(0, 1, Vec::new()).unwrap();
        drop(p.finish());
        let err = ParallelProfiler::resume(cfg(2), PerfectSignature::new, &data)
            .err()
            .expect("worker-count mismatch must be rejected");
        assert!(matches!(err, CheckpointError::Wire(_)), "{err}");
    }

    #[test]
    fn heartbeat_advances_with_traffic() {
        let mut p = ParallelProfiler::new(
            cfg(2).with_transport(TransportKind::Spsc),
            PerfectSignature::new,
        );
        let before = p.heartbeat();
        for i in 0..64u64 {
            p.event(acc(AccessKind::Write, i * 8, i + 1, 1));
        }
        p.flush_all();
        assert!(p.heartbeat() > before, "heartbeat must move with traffic");
        p.finish();
    }
}
