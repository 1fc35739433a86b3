//! Queues and chunk management for the parallel profiling pipeline
//! (Section IV of the paper).
//!
//! "To buffer incoming memory accesses before they are consumed, we use a
//! separate queue for each worker thread ... Since the major
//! synchronization overhead comes from locking and unlocking the queues, we
//! made the queues lock-free to lower the overhead."
//!
//! This crate provides:
//!
//! - [`MpmcQueue`] — a bounded lock-free queue (Vyukov's array-based
//!   algorithm). Sequential targets have a single producer (the main
//!   thread); multi-threaded targets have one producer per target thread —
//!   the paper notes the parallel-target mode needs "a different
//!   implementation of lock-free queues", which is why the queue is MPMC.
//! - [`SpscRing`](spsc) — a single-producer single-consumer ring, the
//!   fastest possible path for sequential targets; benchmarked against
//!   [`MpmcQueue`] in `dp-bench`.
//! - [`LockQueue`] — the mutex-protected comparator used for the
//!   lock-based-vs-lock-free experiment (Figure 5: the lock-free design is
//!   1.6×/1.3× faster on NAS/Starbench).
//! - [`Chunk`] / [`ChunkPool`] — fixed-capacity chunks of packed event
//!   [`Record`](dp_types::Record)s (a tag and a 16-byte body each) with lock-free
//!   recycling ("Empty chunks are recycled and can be reused").
//! - [`TransportSender`] / [`TransportReceiver`] — the two endpoint
//!   traits every queue's channel ends implement (the SPSC ring's halves,
//!   an `Arc` of a shared queue on each side), so the lock-free and
//!   lock-based pipelines share all other code.
//! - [`Backoff`] — bounded exponential spin/yield backoff for the
//!   producer-full and consumer-empty paths.
//! - [`FaultPlan`] / [`fault`] — deterministic fault injection (worker
//!   panics, stalls, dropped migration replies, seeded [`Spurious`]
//!   full/empty answers on every queue) so every recovery path is
//!   exercised by reproducible tests.
//! - [`ChannelTap`] — the observability tap: per-channel counters of
//!   pushes, pops, full-queue bounces, empty polls and the depth
//!   high-water mark, counted by the engines uniformly across all three
//!   queues.

#![warn(missing_docs)]

pub mod backoff;
pub mod chunk;
pub mod fault;
pub mod lockq;
pub mod metered;
pub mod mpmc;
pub mod spsc;
pub mod traits;

pub use backoff::Backoff;
pub use chunk::{Chunk, ChunkPool};
pub use fault::{chaos_seeds, FaultPlan, Spurious, WorkerFault};
pub use lockq::LockQueue;
pub use metered::ChannelTap;
pub use mpmc::MpmcQueue;
pub use spsc::{spsc_ring, SpscConsumer, SpscProducer};
pub use traits::{TransportReceiver, TransportSender};

/// Pads a value to a cache line to prevent false sharing between the
/// producer and consumer indices of the queues.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
