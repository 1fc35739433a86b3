//! `dp-core` — the data-dependence profiler itself.
//!
//! This crate implements the paper's contribution on top of the substrates:
//!
//! - [`algo`] — Algorithm 1: the signature-based dependence-extraction
//!   step shared by every engine, generic over the
//!   [`AccessStore`](dp_sig::AccessStore) policy (signature, perfect
//!   signature, shadow memory, hash table).
//! - [`seq`] — the serial profiler (Section III): consumes the event
//!   stream in-line.
//! - [`parallel`] — the parallel pipeline for sequential targets
//!   (Section IV, Figure 2): the profiled program's thread routes accesses
//!   into per-worker queues by `addr % W`; workers keep private signatures
//!   and duplicate-free dependence maps; hot-address statistics trigger
//!   redistribution. One type, whose per-worker transport
//!   ([`TransportKind`]) is chosen at construction: the SPSC fast path
//!   (the default), the lock-free MPMC build ([`dp_queue::MpmcQueue`])
//!   and the lock-based comparator ([`dp_queue::LockQueue`]) of Figure 5
//!   share every other line of code.
//! - [`mt`] — the multi-threaded-target engine (Section V): one tracer per
//!   target thread, flush-on-unlock for the access/push atomicity of
//!   Figure 4, and timestamp-reversal detection flagging potential data
//!   races.
//! - [`workers`] — what the two pipelines share behind their queues: the
//!   supervised worker threads, their messages and message loop, the one
//!   way a message reaches a worker, the conservation ledger and the
//!   end-of-run harvest.
//! - [`store`] — the merged dependence store (identical dependences are
//!   counted, not duplicated — the 10⁵× output reduction of Section
//!   III-B).
//! - [`loops`] — runtime control-flow tracking (BGN/END records, iteration
//!   counts) and loop-carried classification.
//! - [`report`] — the textual output format of Figures 1 and 3.

#![warn(missing_docs)]

pub mod algo;
pub mod checkpoint;
pub mod config;
pub mod exectree;
mod hot;
pub mod loops;
pub mod mt;
pub mod parallel;
pub mod report;
pub mod result;
pub mod seq;
pub mod session;
pub mod store;
pub mod watchdog;
pub mod workers;

pub use algo::{AlgoOptions, AlgoState};
pub use checkpoint::{
    CheckpointData, CheckpointError, CheckpointStore, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::{OverflowPolicy, ProfilerConfig, TransportKind};
pub use exectree::{ExecNode, ExecNodeKind, ExecTree};
pub use mt::MtProfiler;
pub use parallel::ParallelProfiler;
pub use result::{FailureCause, MemoryReport, ProfileResult, ProfileStats, WorkerFailure};
pub use watchdog::Watchdog;
pub use workers::WorkerMsg;
// Re-exported so downstream code can script faults without depending on
// dp-queue directly.
pub use dp_queue::{FaultPlan, WorkerFault};
// Re-exported so downstream code can read snapshots without depending
// on dp-metrics directly.
pub use dp_metrics::{CheckpointMetrics, Conservation, MetricsSnapshot, SessionMetrics, SigGauges};
pub use seq::SequentialProfiler;
pub use session::{ProfileSession, SessionSpec};
pub use store::{AnalysisDelta, DeltaEdge, DeltaLoop, DepStore, EdgeVal, LoopRecord};

/// The signature store of the serial and parallel engines: epoch slots
/// (source location + loop epoch, 8 bytes). [`MtProfiler`] keeps 16-byte
/// [`ExtendedSlot`](dp_sig::ExtendedSlot)s.
pub type DefaultSig = dp_sig::Signature<dp_sig::EpochSlot>;
