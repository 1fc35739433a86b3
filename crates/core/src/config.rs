//! Profiler configuration.

use dp_queue::FaultPlan;

/// What the router does when a worker's queue has been continuously full
/// for longer than [`ProfilerConfig::stall_deadline_ms`].
///
/// The queues are bounded (Section IV: "a separate queue for each worker
/// thread"), so a worker that stops consuming — a stall, a livelock, an
/// injected fault — eventually propagates backpressure all the way to the
/// instrumented program. `Block` preserves that strict behaviour; `Drop`
/// trades completeness for forward progress and *accounts for the loss*:
/// every dropped event is counted per worker and surfaced in
/// `ProfileStats::dropped_per_worker`, mirroring how the paper's
/// signatures trade accuracy for memory under Formula 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Spin (with backoff) until the worker drains its queue. Lossless;
    /// a permanently stalled worker hangs the producer. This is the
    /// paper's behaviour and the default.
    #[default]
    Block = 0,
    /// After the queue has been continuously full for the stall
    /// deadline, drop events destined to the stalled worker and count
    /// them. The profile is marked degraded but the run terminates.
    Drop = 1,
}

impl OverflowPolicy {
    /// Short name as used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            OverflowPolicy::Block => "block",
            OverflowPolicy::Drop => "drop",
        }
    }

    /// Parses a command-line spelling (`block`, `drop`).
    pub fn parse(s: &str) -> Option<OverflowPolicy> {
        match s {
            "block" => Some(OverflowPolicy::Block),
            "drop" => Some(OverflowPolicy::Drop),
            _ => None,
        }
    }

    /// The byte this policy is stored as in a session spec.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`OverflowPolicy::code`]; `None` for an unknown byte.
    pub fn from_code(code: u8) -> Option<OverflowPolicy> {
        [OverflowPolicy::Block, OverflowPolicy::Drop].into_iter().find(|p| p.code() == code)
    }
}

/// Which per-worker channel implementation the parallel pipeline routes
/// events through. All three produce bit-identical dependence sets; they
/// differ only in synchronization cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Single-producer single-consumer rings — the default: only the
    /// instrumented program's thread feeds the pipeline, and
    /// [`ParallelProfiler`](crate::ParallelProfiler) is `!Sync`, so the
    /// single-producer contract is compiler-enforced.
    #[default]
    Spsc = 0,
    /// Lock-free MPMC queues (the paper's main configuration, and what
    /// the multi-threaded-target engine always uses, whatever this says).
    Mpmc = 1,
    /// Mutex-protected queues — the lock-based comparator of Figure 5.
    Lock = 2,
}

impl TransportKind {
    /// Short name as used in reports and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Spsc => "spsc",
            TransportKind::Mpmc => "lock-free",
            TransportKind::Lock => "lock-based",
        }
    }

    /// Parses a command-line spelling (`spsc`, `mpmc`/`lock-free`,
    /// `lock`/`lock-based`/`lockq`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "spsc" => Some(TransportKind::Spsc),
            "mpmc" | "lock-free" | "lockfree" => Some(TransportKind::Mpmc),
            "lock" | "lock-based" | "lockq" => Some(TransportKind::Lock),
            _ => None,
        }
    }

    /// The byte this transport is stored as in a session spec and in a
    /// replay checkpoint's CONFIG section.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`TransportKind::code`]; `None` for an unknown byte.
    pub fn from_code(code: u8) -> Option<TransportKind> {
        [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock]
            .into_iter()
            .find(|k| k.code() == code)
    }
}

/// Tunables shared by all engines. Defaults follow the paper's evaluation
/// setup where one exists.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Total signature slots, split evenly among workers (the paper uses
    /// 6.25·10⁶ per thread × 16 threads = 10⁸ total; scaled workloads use
    /// proportionally scaled totals).
    pub total_slots: usize,
    /// Number of profiling worker threads (the paper evaluates 8 and 16).
    pub workers: usize,
    /// Events per chunk ("whose size can be configured in the interest of
    /// scalability").
    pub chunk_capacity: usize,
    /// Chunks each worker queue can buffer before the producer backs off
    /// (DESIGN.md "In-flight window" has the depth sweeps behind 8).
    pub queue_chunks: usize,
    /// Enable hot-address redistribution (Section IV-A).
    pub redistribution: bool,
    /// Redistribution check interval in chunks ("we check whether
    /// redistribution is needed after every 50,000 chunks").
    pub redistribute_every: u64,
    /// How many hottest addresses to keep balanced ("the top ten most
    /// heavily accessed addresses").
    pub top_k: usize,
    /// Per-worker channel implementation for the parallel pipeline.
    pub transport: TransportKind,
    /// What to do when a worker queue stays full past the stall deadline.
    pub overflow: OverflowPolicy,
    /// How long a queue must be *continuously* full before the owner is
    /// presumed stalled (milliseconds). Only [`OverflowPolicy::Drop`]
    /// reads it, to bound the producer's wait; `Block` never does.
    /// `Shutdown` at the end of a run is bounded by
    /// [`ProfilerConfig::drain_deadline_ms`] under either policy.
    pub stall_deadline_ms: u64,
    /// Upper bound on the end-of-run drain (in-flight migrations,
    /// worker joins) in milliseconds. Past it, pending migrations are
    /// cancelled and unresponsive workers are abandoned rather than
    /// hanging `finish()` forever.
    pub drain_deadline_ms: u64,
    /// Deterministic fault-injection script (testing only;
    /// [`FaultPlan::none()`] — the default — injects nothing). Both
    /// engines read all of it: the worker faults in their worker loop,
    /// the seeded spurious full/empty answers on every worker queue,
    /// whatever [`ProfilerConfig::transport`] says.
    pub fault_plan: FaultPlan,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            total_slots: 1 << 20,
            workers: 8,
            chunk_capacity: 1024,
            queue_chunks: 8,
            redistribution: true,
            redistribute_every: 50_000,
            top_k: 10,
            transport: TransportKind::default(),
            overflow: OverflowPolicy::default(),
            stall_deadline_ms: 100,
            drain_deadline_ms: 2_000,
            fault_plan: FaultPlan::none(),
        }
    }
}

impl ProfilerConfig {
    /// Slots per worker (ceiling division so the total is never under).
    pub fn slots_per_worker(&self) -> usize {
        self.total_slots.div_ceil(self.workers.max(1)).max(1)
    }

    /// How long one delivery may stay blocked on a full queue before the
    /// message is given back: never under [`OverflowPolicy::Block`], the
    /// stall deadline under [`OverflowPolicy::Drop`].
    pub(crate) fn drop_after(&self) -> Option<std::time::Duration> {
        match self.overflow {
            OverflowPolicy::Block => None,
            OverflowPolicy::Drop => Some(std::time::Duration::from_millis(self.stall_deadline_ms)),
        }
    }

    /// Builder-style setter for the worker count.
    pub fn with_workers(mut self, w: usize) -> Self {
        self.workers = w.max(1);
        self
    }

    /// Builder-style setter for total slots.
    pub fn with_slots(mut self, s: usize) -> Self {
        self.total_slots = s.max(1);
        self
    }

    /// Builder-style setter for chunk capacity.
    pub fn with_chunk_capacity(mut self, c: usize) -> Self {
        self.chunk_capacity = c.max(1);
        self
    }

    /// Builder-style toggle for redistribution.
    pub fn with_redistribution(mut self, on: bool) -> Self {
        self.redistribution = on;
        self
    }

    /// Builder-style setter for the transport.
    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }

    /// Builder-style setter for the overflow policy.
    pub fn with_overflow(mut self, p: OverflowPolicy) -> Self {
        self.overflow = p;
        self
    }

    /// Builder-style setter for the stall deadline (milliseconds).
    pub fn with_stall_deadline_ms(mut self, ms: u64) -> Self {
        self.stall_deadline_ms = ms;
        self
    }

    /// Builder-style setter for the drain deadline (milliseconds).
    pub fn with_drain_deadline_ms(mut self, ms: u64) -> Self {
        self.drain_deadline_ms = ms;
        self
    }

    /// Builder-style setter for the fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slot_split() {
        let cfg = ProfilerConfig::default().with_workers(16).with_slots(100_000_000);
        assert_eq!(cfg.slots_per_worker(), 6_250_000);
    }

    #[test]
    fn builders() {
        let cfg = ProfilerConfig::default()
            .with_workers(0)
            .with_chunk_capacity(0)
            .with_redistribution(false);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.chunk_capacity, 1);
        assert!(!cfg.redistribution);
        assert_eq!(cfg.transport, TransportKind::Spsc);
        let cfg = cfg.with_transport(TransportKind::Lock);
        assert_eq!(cfg.transport, TransportKind::Lock);
    }

    #[test]
    fn overflow_names_round_trip() {
        for (code, p) in [OverflowPolicy::Block, OverflowPolicy::Drop].into_iter().enumerate() {
            assert_eq!(OverflowPolicy::parse(p.name()), Some(p));
            assert_eq!((p.code(), OverflowPolicy::from_code(p.code())), (code as u8, Some(p)));
        }
        assert_eq!(OverflowPolicy::parse("bogus"), None);
        assert_eq!(OverflowPolicy::from_code(2), None);
        assert_eq!(ProfilerConfig::default().overflow, OverflowPolicy::Block);
        assert!(ProfilerConfig::default().fault_plan.is_none());
        let cfg = ProfilerConfig::default()
            .with_overflow(OverflowPolicy::Drop)
            .with_stall_deadline_ms(5)
            .with_drain_deadline_ms(50);
        assert_eq!(cfg.overflow, OverflowPolicy::Drop);
        assert_eq!(cfg.stall_deadline_ms, 5);
        assert_eq!(cfg.drain_deadline_ms, 50);
    }

    #[test]
    fn transport_names_round_trip() {
        let kinds = [TransportKind::Spsc, TransportKind::Mpmc, TransportKind::Lock];
        for (code, k) in kinds.into_iter().enumerate() {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
            assert_eq!((k.code(), TransportKind::from_code(k.code())), (code as u8, Some(k)));
        }
        assert_eq!(TransportKind::from_code(3), None);
        assert_eq!(TransportKind::parse("mpmc"), Some(TransportKind::Mpmc));
        assert_eq!(TransportKind::parse("lockq"), Some(TransportKind::Lock));
        assert_eq!(TransportKind::parse("bogus"), None);
    }
}
