//! Signature-based memory-access tracking (Section III-B of the paper).
//!
//! The profiler must remember, for every memory address, the most recent
//! read and the most recent write (their source locations, threads and
//! timestamps). Shadow memory does this exactly but its footprint follows
//! the address-space extent; hash tables do it exactly but pay for bucket
//! searches on every access. A *signature* — a concept borrowed from
//! transactional-memory conflict detection — trades a controlled amount of
//! accuracy for bounded, tunable memory: a fixed-length slot array indexed
//! by a single hash of the address. The length fixes the accuracy and
//! bounds the memory; what is allocated follows what the array holds
//! (see [`signature`]).
//!
//! This crate provides:
//!
//! - [`Signature`] — the fixed-length, single-hash signature, stored
//!   region by region (sparse until a region fills), with
//!   [`CompactSlot`] (4 B/slot, matching the paper's evaluation
//!   configuration), [`EpochSlot`] (8 B/slot; adds the loop epoch that
//!   loop-carried classification of a sequential target reads) and
//!   [`ExtendedSlot`] (16 B/slot; adds the thread id and timestamp needed
//!   for multi-threaded targets) layouts, and its pair form [`SigPair`] — the read and
//!   the write signature as one table of `{read, write}` slot pairs;
//! - [`PerfectSignature`] — the exact baseline used to quantify false
//!   positive/negative rates (Section VI-A), with its pair form
//!   [`PerfectPair`];
//! - [`predicted_fpr`] — Formula 2, the analytical false-positive model.
//!
//! Both stores implement [`AccessStore`], so every profiling engine in
//! `dp-core` is generic over the tracking policy; an engine probes the
//! read and the write store of an address together through their
//! [`PairStore`]. The comparators of the paper's evaluation (shadow
//! memory, a hash table, SD3-style stride compression) implement the
//! same contract in `dp-bench`, beside the experiments that measure
//! them.

#![warn(missing_docs)]

pub mod entry;
pub mod fpr;
pub mod hash;
pub mod perfect;
pub mod signature;
pub mod store;

pub use entry::{CompactSlot, EpochSlot, ExtendedSlot, SigEntry, Slot};
pub use fpr::{predicted_fpr, recommended_slots};
pub use hash::SigHash;
pub use perfect::{PerfectPair, PerfectSignature};
pub use signature::{SigPair, Signature};
pub use store::{AccessStore, Last, PairStore, Side};
