//! Profiling results: dependences, statistics and memory accounting.

use crate::algo::AlgoCounters;
use crate::exectree::ExecTree;
use crate::store::DepStore;
use dp_metrics::MetricsSnapshot;

/// Deterministic memory accounting of the profiler's own data structures —
/// the quantity Figures 7 and 8 report (there via max-RSS; here summed
/// from the structures directly so results are machine-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// All signature arrays (read+write, all workers).
    pub signatures: usize,
    /// Worker queues.
    pub queues: usize,
    /// Chunk pool at its high-water mark.
    pub chunks: usize,
    /// Merged dependence storage (global + peak of locals).
    pub dep_store: usize,
    /// Access statistics and redistribution rules (Section IV-A).
    pub stats_maps: usize,
}

impl MemoryReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.signatures + self.queues + self.chunks + self.dep_store + self.stats_maps
    }
}

/// Why a profiling worker was lost mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The worker's thread panicked; the payload (if it was a string) is
    /// preserved for diagnostics.
    Panic(String),
    /// The worker stopped consuming its queue and did not exit within
    /// the drain deadline; it was abandoned by the supervisor.
    Unresponsive,
}

/// Record of a lost worker: which one, out of how many, and why. The
/// worker id pins down exactly which addresses the degraded profile is
/// missing — under Formula 1 (with the 8-byte alignment shifted out)
/// worker `k` of `W` owns every address with `(addr >> 3) % W == k`,
/// except where redistribution rules moved an address elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Id of the failed worker.
    pub worker: usize,
    /// Total workers in the run (so the owned residue class is
    /// reconstructible from the record alone).
    pub workers: usize,
    /// What happened.
    pub cause: FailureCause,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {}/{} (addresses with (addr>>3) % {} == {}) ",
            self.worker, self.workers, self.workers, self.worker
        )?;
        match &self.cause {
            FailureCause::Panic(msg) => write!(f, "panicked: {msg}"),
            FailureCause::Unresponsive => write!(f, "unresponsive, abandoned"),
        }
    }
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Default)]
pub struct ProfileStats {
    /// Events processed across all workers.
    pub events: u64,
    /// Memory accesses among them.
    pub accesses: u64,
    /// Reads.
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Dynamic (pre-merge) dependence records.
    pub deps_built: u64,
    /// Distinct (merged) dependences.
    pub deps_merged: u64,
    /// Chunks pushed through the queues.
    pub chunks_pushed: u64,
    /// Redistribution rounds performed.
    pub redistributions: u64,
    /// Addresses currently governed by redistribution rules.
    pub redistributed_addrs: u64,
    /// REVERSED-flagged dependences (potential races, Section V-B).
    pub reversed: u64,
    /// Addresses dropped by variable-lifetime analysis.
    pub lifetime_removals: u64,
    /// Events the router dropped (dead or stalled workers under
    /// [`OverflowPolicy::Drop`](crate::config::OverflowPolicy)); sum of
    /// `dropped_per_worker`.
    pub dropped_events: u64,
    /// Per-worker breakdown of `dropped_events` (indexed by the worker
    /// the events were destined for). Empty when nothing was dropped.
    pub dropped_per_worker: Vec<u64>,
    /// Events re-routed away from a dead worker to a surviving one.
    pub rerouted_events: u64,
    /// In-flight migrations cancelled because a participant died or the
    /// drain deadline expired.
    pub cancelled_migrations: u64,
    /// `Extracted` replies that matched no pending migration (logged and
    /// ignored instead of killing the router).
    pub spurious_replies: u64,
    /// Workers lost mid-run. Empty on a healthy run.
    pub worker_failures: Vec<WorkerFailure>,
}

impl ProfileStats {
    /// Folds a worker's counters in.
    pub fn absorb(&mut self, c: AlgoCounters) {
        self.events += c.events;
        self.accesses += c.accesses;
        self.reads += c.reads;
        self.writes += c.writes;
        self.reversed += c.reversed;
        self.lifetime_removals += c.lifetime_removals;
    }

    /// True when the profile is incomplete: a worker was lost or events
    /// were dropped. Dependences present are still exact; dependences
    /// involving lost events are missing.
    pub fn degraded(&self) -> bool {
        !self.worker_failures.is_empty() || self.dropped_events > 0
    }
}

/// The outcome of a profiling run.
#[derive(Debug, Clone, Default)]
pub struct ProfileResult {
    /// Merged global dependence store.
    pub deps: DepStore,
    /// Merged dynamic execution tree (Section VIII representation).
    pub exec_tree: ExecTree,
    /// Run statistics.
    pub stats: ProfileStats,
    /// Memory accounting.
    pub memory: MemoryReport,
    /// Profiling workers used (0 = in-line serial engine).
    pub workers: usize,
    /// Events processed by each worker — the load-balance view behind
    /// Section IV-A (redistribution) and the imbalance discussion of
    /// Section VI-B1. Empty for the in-line serial engine.
    pub per_worker_events: Vec<u64>,
    /// Pipeline observability counters (present on every result so
    /// `--stats` output has a stable shape).
    pub metrics: MetricsSnapshot,
}

impl ProfileResult {
    /// Load imbalance across workers: max/mean of per-worker event
    /// counts (1.0 = perfectly balanced; meaningless for serial runs).
    pub fn load_imbalance(&self) -> f64 {
        if self.per_worker_events.is_empty() {
            return 1.0;
        }
        let max = *self.per_worker_events.iter().max().unwrap() as f64;
        let mean =
            self.per_worker_events.iter().sum::<u64>() as f64 / self.per_worker_events.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// True when the run lost a worker or dropped events; see
    /// [`ProfileStats::degraded`].
    pub fn degraded(&self) -> bool {
        self.stats.degraded()
    }

    /// The E9 merge factor: dynamic records per distinct record.
    pub fn merge_factor(&self) -> f64 {
        if self.stats.deps_merged == 0 {
            1.0
        } else {
            self.stats.deps_built as f64 / self.stats.deps_merged as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_total_sums() {
        let m = MemoryReport { signatures: 1, queues: 2, chunks: 3, dep_store: 4, stats_maps: 5 };
        assert_eq!(m.total(), 15);
    }

    #[test]
    fn degraded_flags() {
        let mut r = ProfileResult::default();
        assert!(!r.degraded());
        r.stats.dropped_events = 1;
        assert!(r.degraded());
        let mut r = ProfileResult::default();
        r.stats.worker_failures.push(WorkerFailure {
            worker: 2,
            workers: 8,
            cause: FailureCause::Panic("boom".into()),
        });
        assert!(r.degraded());
        let shown = r.stats.worker_failures[0].to_string();
        assert!(shown.contains("worker 2/8"), "{shown}");
        assert!(shown.contains("panicked: boom"), "{shown}");
    }

    #[test]
    fn merge_factor() {
        let mut r = ProfileResult::default();
        assert_eq!(r.merge_factor(), 1.0);
        r.stats.deps_built = 1000;
        r.stats.deps_merged = 10;
        assert_eq!(r.merge_factor(), 100.0);
    }
}
