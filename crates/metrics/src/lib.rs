//! Pipeline observability for the profiler (PR 3).
//!
//! The paper's parallel pipeline (Section IV, Figure 2) is steered by
//! runtime statistics — hot-address counts drive the periodic
//! redistribution of Section IV-A, and Formula 2 trades signature memory
//! for measurable accuracy — yet none of that state is visible while a
//! profile runs. This crate is the shared vocabulary for making it
//! visible:
//!
//! - [`Counter`], [`MaxGauge`], [`Stopwatch`] — the instrumentation
//!   primitives: relaxed atomics and monotonic clocks, always compiled;
//!   what they cost on the hot paths is measured by depbench.
//! - [`MetricsSnapshot`] — the frozen end-of-run picture: the
//!   event-conservation ledger ([`Conservation`]), chunk/queue stats,
//!   signature gauges, hot-address top-K, per-worker rows and per-phase
//!   timings, with stable-order JSON and text export.
//!
//! The core invariant the engines maintain (and the test suite proves) is
//! the conservation law: every event pushed into the pipeline is accounted
//! for exactly once,
//!
//! ```text
//! pushed == consumed + dropped + rerouted + in_flight_at_shutdown
//! ```

#![warn(missing_docs)]

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Instrumentation primitives.
// ---------------------------------------------------------------------------

/// A monotonically increasing counter, incremented from any thread.
///
/// `Relaxed` atomics: no ordering is implied between counters —
/// snapshots are taken after the counted threads are joined.
#[derive(Debug, Default)]
pub struct Counter(std::sync::atomic::AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(std::sync::atomic::AtomicU64::new(0))
    }

    /// Adds one; returns the new value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A gauge that remembers the maximum value ever recorded (queue
/// high-water marks), as a relaxed atomic like [`Counter`].
#[derive(Debug, Default)]
pub struct MaxGauge(std::sync::atomic::AtomicU64);

impl MaxGauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        MaxGauge(std::sync::atomic::AtomicU64::new(0))
    }

    /// Raises the maximum to `v` if `v` exceeds it.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Largest value recorded so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A wall-clock stopwatch for phase timings, on the monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

// ---------------------------------------------------------------------------
// Snapshot data model (plain data).
// ---------------------------------------------------------------------------

/// The event-conservation ledger. Every event the router pushes into the
/// pipeline ends in exactly one of four terminal states, so
///
/// ```text
/// pushed == consumed + dropped + rerouted + in_flight_at_shutdown
/// ```
///
/// `rerouted` counts event copies diverted away from a dead worker
/// (supervision, DESIGN.md failure class 1/2); they are marked in their
/// chunk and *excluded* from the downstream enqueue/consume/drop taps, so
/// each column of the ledger is disjoint. [`Conservation::holds`] checks
/// the law.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Events handed to the pipeline (every copy: a broadcast counts
    /// once per destination).
    pub pushed: u64,
    /// Events popped and analyzed by worker threads.
    pub consumed: u64,
    /// Events the router could not deliver: dropped by the `drop`
    /// overflow policy, or sent to a worker that had died. Rerouted
    /// copies in such a chunk are left out (they count in `rerouted`), so
    /// `ProfileStats::dropped_events`, which counts them, can be larger;
    /// what a failed worker left in its queue is `in_flight_at_shutdown`.
    pub dropped: u64,
    /// Event copies diverted to a substitute worker because their owner
    /// was already dead when they were routed.
    pub rerouted: u64,
    /// Events still sitting in the queues of failed or abandoned workers
    /// when the run ended (a healthy shutdown drains everything, so this
    /// is 0 unless the profile is degraded).
    pub in_flight_at_shutdown: u64,
}

impl Conservation {
    /// True when the conservation law balances.
    pub fn holds(&self) -> bool {
        self.pushed == self.consumed + self.dropped + self.rerouted + self.in_flight_at_shutdown
    }
}

/// Chunk-level traffic through the per-worker queues.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Event chunks successfully enqueued by the router.
    pub pushed: u64,
    /// Event chunks popped and drained by workers.
    pub consumed: u64,
    /// Highest queue depth (messages) observed on any single worker queue.
    pub queue_highwater: u64,
    /// Push attempts bounced by a full queue (each is one backoff round).
    pub push_retries: u64,
    /// Worker pops that found an empty queue (idle spinning).
    pub empty_pops: u64,
}

/// Signature occupancy and accuracy gauges (Section III-B), summed over
/// the read and write stores of every worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SigGauges {
    /// Occupied slots across all signatures.
    pub occupied_slots: u64,
    /// Total slots across all signatures (0 for exact stores, whose
    /// capacity is unbounded).
    pub total_slots: u64,
    /// Insertions that displaced existing state: hash-collision
    /// overwrites in a signature, re-inserts of an existing key in exact
    /// stores.
    pub evictions: u64,
    /// Bytes the stores hold at this moment (for a signature: directory,
    /// sparse tables and dense regions — what `--slots` bounds, not what
    /// it names).
    pub bytes: u64,
    /// Formula 2 estimate of the false-positive rate implied by the
    /// current occupancy, in percent (0 for exact stores).
    pub est_fpr_pct: f64,
}

/// Durability counters: checkpoints written during the run and, for
/// resumed runs, the trace position the run picked up from. Kept by the
/// run's checkpoint store, not the engines — the engines only produce
/// checkpoint blobs on demand and never touch the disk themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointMetrics {
    /// Checkpoints successfully written by this run.
    pub generations: u64,
    /// Size in bytes of the most recently written checkpoint file.
    pub last_bytes: u64,
    /// Total nanoseconds spent serializing and atomically writing
    /// checkpoints (quiesce time included).
    pub write_nanos: u64,
    /// Trace position (records already folded in) this run resumed from;
    /// 0 for a run started from the beginning.
    pub resumed_from: u64,
}

/// Service-layer resilience counters: what the DPSV session survived.
/// Zero everywhere for offline runs; filled in by the server's
/// `SessionEngine` when a profile arrived over the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Times a client re-`Hello`ed into this session (resume after a
    /// disconnect or a hibernation).
    pub reconnects: u64,
    /// Times the session was hibernated to the checkpoint store after
    /// sitting idle (engine evicted, slot freed).
    pub hibernated: u64,
    /// Times the session was rehydrated from a checkpoint on `Hello`.
    pub rehydrated: u64,
    /// Events the server discarded because their stream position was
    /// below the already-profiled watermark — resend overlap and
    /// duplicated frames, dropped so nothing is double-counted.
    pub events_skipped_on_resume: u64,
}

/// One entry of the hot-address top-K (the router-side statistics that
/// drive Section IV-A redistribution).
///
/// The router keeps these in a fixed-size table, one address per bucket:
/// `count` is the address's exact access count until another counted
/// address shares its bucket, and a lower bound after (each access of
/// the other address wears it down by one). An address holding the
/// majority of its bucket's accesses is always present.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotAddress {
    /// The memory address.
    pub addr: u64,
    /// Accesses observed on it.
    pub count: u64,
}

/// Per-worker row of the ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker index.
    pub worker: usize,
    /// Events enqueued to this worker (rerouted copies excluded).
    pub enqueued: u64,
    /// Events this worker popped and analyzed (rerouted copies excluded).
    pub consumed: u64,
    /// Events dropped on this worker's queue.
    pub dropped: u64,
    /// `enqueued - consumed` at shutdown (0 for a healthy worker).
    pub in_flight: u64,
    /// Event chunks this worker drained.
    pub consumed_chunks: u64,
    /// Nanoseconds the router spent blocked on this worker's full queue.
    pub stall_nanos: u64,
}

/// Wall-clock phase timings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Construction of the profiler until `finish()` was called (the
    /// feeding phase, overlapping the instrumented program).
    pub feed_nanos: u64,
    /// `finish()` entry until all workers were joined (the drain phase).
    pub drain_nanos: u64,
    /// Total: construction until the result was assembled.
    pub total_nanos: u64,
}

/// The frozen end-of-run metrics picture, attached to every
/// `ProfileResult`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Worker count of the run.
    pub workers: usize,
    /// Effective chaos/fault-injection seed of the run (0 when no fault
    /// plan was active). Surfaced so a failure observed under chaos can
    /// be replayed from the `--stats` artifact alone.
    pub chaos_seed: u64,
    /// The event-conservation ledger.
    pub conservation: Conservation,
    /// Chunk/queue traffic.
    pub chunks: ChunkStats,
    /// Total router stall time across all workers, nanoseconds.
    pub stall_nanos: u64,
    /// Signature gauges summed over all workers.
    pub signatures: SigGauges,
    /// Durability counters (checkpoints written, resume position).
    pub checkpoints: CheckpointMetrics,
    /// Service-layer resilience counters (reconnects, hibernation,
    /// duplicate-skip accounting); all zero for offline runs.
    pub service: ServiceMetrics,
    /// Hot-address top-K, ordered by count descending then address
    /// ascending.
    pub hot_addresses: Vec<HotAddress>,
    /// Per-worker ledger rows.
    pub per_worker: Vec<WorkerMetrics>,
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl MetricsSnapshot {
    /// Renders the snapshot as pretty-printed JSON with a *stable* key
    /// order (hand-rolled, not reflection-based, so goldens don't churn).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"chaos_seed\": {},", self.chaos_seed);
        s.push_str("  \"conservation\": {\n");
        let c = &self.conservation;
        let _ = writeln!(s, "    \"pushed\": {},", c.pushed);
        let _ = writeln!(s, "    \"consumed\": {},", c.consumed);
        let _ = writeln!(s, "    \"dropped\": {},", c.dropped);
        let _ = writeln!(s, "    \"rerouted\": {},", c.rerouted);
        let _ = writeln!(s, "    \"in_flight_at_shutdown\": {}", c.in_flight_at_shutdown);
        s.push_str("  },\n");
        s.push_str("  \"chunks\": {\n");
        let k = &self.chunks;
        let _ = writeln!(s, "    \"pushed\": {},", k.pushed);
        let _ = writeln!(s, "    \"consumed\": {},", k.consumed);
        let _ = writeln!(s, "    \"queue_highwater\": {},", k.queue_highwater);
        let _ = writeln!(s, "    \"push_retries\": {},", k.push_retries);
        let _ = writeln!(s, "    \"empty_pops\": {}", k.empty_pops);
        s.push_str("  },\n");
        let _ = writeln!(s, "  \"stall_nanos\": {},", self.stall_nanos);
        s.push_str("  \"signatures\": {\n");
        let g = &self.signatures;
        let _ = writeln!(s, "    \"occupied_slots\": {},", g.occupied_slots);
        let _ = writeln!(s, "    \"total_slots\": {},", g.total_slots);
        let _ = writeln!(s, "    \"evictions\": {},", g.evictions);
        let _ = writeln!(s, "    \"bytes\": {},", g.bytes);
        let _ = writeln!(s, "    \"est_fpr_pct\": {:.6}", g.est_fpr_pct);
        s.push_str("  },\n");
        let p = &self.checkpoints;
        let _ = writeln!(
            s,
            "  \"checkpoints\": {{ \"generations\": {}, \"last_bytes\": {}, \
             \"write_nanos\": {}, \"resumed_from\": {} }},",
            p.generations, p.last_bytes, p.write_nanos, p.resumed_from
        );
        let v = &self.service;
        let _ = writeln!(
            s,
            "  \"service\": {{ \"reconnects\": {}, \"hibernated\": {}, \
             \"rehydrated\": {}, \"events_skipped_on_resume\": {} }},",
            v.reconnects, v.hibernated, v.rehydrated, v.events_skipped_on_resume
        );
        s.push_str("  \"hot_addresses\": [");
        for (i, h) in self.hot_addresses.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(s, "    {{ \"addr\": {}, \"count\": {} }}", h.addr, h.count);
        }
        s.push_str(if self.hot_addresses.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"per_worker\": [");
        for (i, w) in self.per_worker.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{ \"worker\": {}, \"enqueued\": {}, \"consumed\": {}, \"dropped\": {}, \
                 \"in_flight\": {}, \"consumed_chunks\": {}, \"stall_nanos\": {} }}",
                w.worker,
                w.enqueued,
                w.consumed,
                w.dropped,
                w.in_flight,
                w.consumed_chunks,
                w.stall_nanos
            );
        }
        s.push_str(if self.per_worker.is_empty() { "],\n" } else { "\n  ],\n" });
        let t = &self.timings;
        let _ = writeln!(
            s,
            "  \"timings_nanos\": {{ \"feed\": {}, \"drain\": {}, \"total\": {} }}",
            t.feed_nanos, t.drain_nanos, t.total_nanos
        );
        s.push_str("}\n");
        s
    }

    /// Renders the snapshot as human-readable text (same field order as
    /// the JSON form).
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = writeln!(s, "workers: {}", self.workers);
        if self.chaos_seed != 0 {
            let _ = writeln!(s, "chaos seed: {}", self.chaos_seed);
        }
        let c = &self.conservation;
        let _ = writeln!(
            s,
            "conservation: pushed={} consumed={} dropped={} rerouted={} in_flight={} ({})",
            c.pushed,
            c.consumed,
            c.dropped,
            c.rerouted,
            c.in_flight_at_shutdown,
            if c.holds() { "law holds" } else { "LAW VIOLATED" }
        );
        let k = &self.chunks;
        let _ = writeln!(
            s,
            "chunks: pushed={} consumed={} queue_highwater={} push_retries={} empty_pops={}",
            k.pushed, k.consumed, k.queue_highwater, k.push_retries, k.empty_pops
        );
        let _ = writeln!(s, "stall: {} ns", self.stall_nanos);
        let g = &self.signatures;
        let _ = writeln!(
            s,
            "signatures: occupied={}/{} evictions={} bytes={} est_fpr={:.4}%",
            g.occupied_slots, g.total_slots, g.evictions, g.bytes, g.est_fpr_pct
        );
        let p = &self.checkpoints;
        if p.generations > 0 || p.resumed_from > 0 {
            let _ = writeln!(
                s,
                "checkpoints: generations={} last_bytes={} write={}ns resumed_from={}",
                p.generations, p.last_bytes, p.write_nanos, p.resumed_from
            );
        }
        let v = &self.service;
        if *v != ServiceMetrics::default() {
            let _ = writeln!(
                s,
                "service: reconnects={} hibernated={} rehydrated={} skipped_on_resume={}",
                v.reconnects, v.hibernated, v.rehydrated, v.events_skipped_on_resume
            );
        }
        if !self.hot_addresses.is_empty() {
            let _ = writeln!(s, "hot addresses:");
            for h in &self.hot_addresses {
                let _ = writeln!(s, "  {:#x}  {}", h.addr, h.count);
            }
        }
        if !self.per_worker.is_empty() {
            let _ = writeln!(s, "per worker:");
            for w in &self.per_worker {
                let _ =
                    writeln!(
                    s,
                    "  w{}: enqueued={} consumed={} dropped={} in_flight={} chunks={} stall={}ns",
                    w.worker, w.enqueued, w.consumed, w.dropped, w.in_flight, w.consumed_chunks,
                    w.stall_nanos
                );
            }
        }
        let t = &self.timings;
        let _ = writeln!(
            s,
            "timings: feed={}ns drain={}ns total={}ns",
            t.feed_nanos, t.drain_nanos, t.total_nanos
        );
        s
    }
}

// ---------------------------------------------------------------------------
// Per-session service accounting.
// ---------------------------------------------------------------------------

/// Per-session counters for the networked profiling service: what one
/// client connection pushed and what the server did with it. Unlike the
/// hot-path [`Counter`]s these are plain fields — they tick once per
/// *frame*, not per access, on the one thread that owns the session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Frames received (all kinds).
    pub frames: u64,
    /// `Chunk` frames received.
    pub chunks: u64,
    /// Events fed into the engine (accesses + loop/call/dealloc events).
    pub events: u64,
    /// `Sync` round-trips served.
    pub syncs: u64,
    /// Live-analysis `Query` frames answered.
    pub queries: u64,
    /// Payload bytes of every frame received over the wire after
    /// `Hello`, counted once per frame as it arrives. Frames handed to
    /// the in-process `SessionEngine::handle` add nothing.
    pub bytes_in: u64,
    /// The session's checkpoint store's counters: its `resumed_from` is
    /// the resume position handed to the client in `HelloAck`.
    pub checkpoints: CheckpointMetrics,
    /// What the session survived, as its result's snapshot reports it.
    pub service: ServiceMetrics,
}

impl SessionMetrics {
    /// Renders the counters as a single stable-keyed JSON object — the
    /// payload of the protocol's `Stats` frame.
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"frames\": {}, \"chunks\": {}, \"events\": {}, \"syncs\": {}, \
             \"queries\": {}, \
             \"bytes_in\": {}, \"resumed_from\": {}, \"checkpoint_generations\": {}, \
             \"reconnects\": {}, \"hibernated\": {}, \"rehydrated\": {}, \
             \"events_skipped_on_resume\": {} }}",
            self.frames,
            self.chunks,
            self.events,
            self.syncs,
            self.queries,
            self.bytes_in,
            self.checkpoints.resumed_from,
            self.checkpoints.generations,
            self.service.reconnects,
            self.service.hibernated,
            self.service.rehydrated,
            self.service.events_skipped_on_resume
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_every_increment() {
        let c = Counter::new();
        let v = c.inc();
        c.add(4);
        assert_eq!(v, 1);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let g = MaxGauge::new();
        g.record(3);
        g.record(7);
        g.record(5);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed_nanos();
        let b = w.elapsed_nanos();
        assert!(b >= a);
    }

    #[test]
    fn conservation_law() {
        let mut c = Conservation {
            pushed: 100,
            consumed: 80,
            dropped: 10,
            rerouted: 6,
            in_flight_at_shutdown: 4,
        };
        assert!(c.holds());
        c.dropped += 1;
        assert!(!c.holds());
    }

    #[test]
    fn json_has_stable_key_order() {
        let snap = MetricsSnapshot {
            workers: 2,
            hot_addresses: vec![HotAddress { addr: 0x1000, count: 9 }],
            per_worker: vec![WorkerMetrics { worker: 0, ..Default::default() }],
            ..Default::default()
        };
        let j = snap.to_json();
        let keys = [
            "\"workers\"",
            "\"conservation\"",
            "\"chunks\"",
            "\"stall_nanos\"",
            "\"signatures\"",
            "\"checkpoints\"",
            "\"service\"",
            "\"hot_addresses\"",
            "\"per_worker\"",
            "\"timings_nanos\"",
        ];
        let mut last = 0;
        for k in keys {
            let at = j[last..].find(k).unwrap_or_else(|| panic!("{k} missing or out of order"));
            last += at + k.len();
        }
        // Balanced and parseable-looking: every line ends in a JSON
        // structural character, no trailing commas before closers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n  }"));
        assert!(!j.contains(",\n  ]"));
    }

    #[test]
    fn empty_lists_render_as_empty_arrays() {
        let j = MetricsSnapshot::default().to_json();
        assert!(j.contains("\"hot_addresses\": []"));
        assert!(j.contains("\"per_worker\": []"));
    }

    #[test]
    fn checkpoint_metrics_render_in_both_forms() {
        let mut snap = MetricsSnapshot::default();
        // A fresh run with no checkpoints keeps the text form quiet but
        // the JSON keys stable.
        assert!(!snap.to_text().contains("checkpoints:"));
        assert!(snap.to_json().contains("\"checkpoints\": { \"generations\": 0"));
        snap.checkpoints = CheckpointMetrics {
            generations: 3,
            last_bytes: 4096,
            write_nanos: 1200,
            resumed_from: 500,
        };
        let t = snap.to_text();
        assert!(t.contains("checkpoints: generations=3 last_bytes=4096"), "{t}");
        assert!(t.contains("resumed_from=500"), "{t}");
        let j = snap.to_json();
        assert!(j.contains("\"generations\": 3"), "{j}");
        assert!(j.contains("\"resumed_from\": 500"), "{j}");
    }

    #[test]
    fn service_metrics_render_in_both_forms() {
        let mut snap = MetricsSnapshot::default();
        // Offline runs keep the text form quiet but the JSON keys stable.
        assert!(!snap.to_text().contains("service:"));
        assert!(snap.to_json().contains("\"service\": { \"reconnects\": 0"));
        snap.service = ServiceMetrics {
            reconnects: 2,
            hibernated: 1,
            rehydrated: 1,
            events_skipped_on_resume: 4096,
        };
        let t = snap.to_text();
        assert!(t.contains("service: reconnects=2 hibernated=1 rehydrated=1"), "{t}");
        let j = snap.to_json();
        assert!(j.contains("\"events_skipped_on_resume\": 4096"), "{j}");
    }

    #[test]
    fn session_metrics_json_carries_resilience_counters() {
        let m = SessionMetrics {
            service: ServiceMetrics {
                reconnects: 3,
                hibernated: 1,
                rehydrated: 2,
                events_skipped_on_resume: 77,
            },
            ..Default::default()
        };
        let j = m.to_json();
        for want in [
            "\"reconnects\": 3",
            "\"hibernated\": 1",
            "\"rehydrated\": 2",
            "\"events_skipped_on_resume\": 77",
        ] {
            assert!(j.contains(want), "{want} missing in {j}");
        }
    }

    #[test]
    fn text_reports_violations() {
        let mut snap = MetricsSnapshot::default();
        snap.conservation.pushed = 5;
        assert!(snap.to_text().contains("LAW VIOLATED"));
        snap.conservation.consumed = 5;
        assert!(snap.to_text().contains("law holds"));
    }
}
