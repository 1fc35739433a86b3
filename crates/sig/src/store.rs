//! The access-store abstraction every profiling engine is generic over.

use crate::entry::SigEntry;
use dp_types::{Address, ByteWriter, WireError};

/// Remembers the most recent access entry per address.
///
/// Two instances are used per profiled address space — one for reads, one
/// for writes (Algorithm 1). Implementations may be approximate
/// ([`Signature`](crate::Signature)) or exact
/// ([`PerfectSignature`](crate::PerfectSignature),
/// [`ShadowMemory`](crate::ShadowMemory), [`HashHistory`](crate::HashHistory)).
pub trait AccessStore: Send {
    /// Whether entries preserve timestamps (see
    /// [`Slot::HAS_TS`](crate::Slot::HAS_TS)).
    const HAS_TS: bool;

    /// The membership check: the last recorded entry for `addr`, if any.
    fn get(&self, addr: Address) -> Option<SigEntry>;

    /// Insertion: records `entry` as the latest access to `addr`.
    fn put(&mut self, addr: Address, entry: SigEntry);

    /// Hint that `addr` is about to be looked up: a store whose lookup is
    /// one dependent cache miss starts that miss early. Never changes
    /// what any other method returns. Default: nothing.
    #[inline]
    fn prefetch(&self, addr: Address) {
        let _ = addr;
    }

    /// Removal, for variable-lifetime analysis: forget `addr`. On an
    /// approximate store this clears the slot `addr` hashes to, which may
    /// also forget a colliding address — the accepted cost of the
    /// single-hash design (Section III-B).
    fn remove(&mut self, addr: Address);

    /// Drops all entries.
    fn clear(&mut self);

    /// Number of occupied slots/entries (diagnostic).
    fn occupied(&self) -> usize;

    /// Cumulative count of insertions that displaced existing state: a
    /// put into an already-occupied slot (approximate stores cannot tell
    /// a same-address update from a collision overwrite — the slot holds
    /// no address) or a re-insert of an existing key (exact stores). In a
    /// collision-free signature the two definitions coincide, which is
    /// what the gauge tests exploit. Stores that don't track it report 0.
    fn evictions(&self) -> u64 {
        0
    }

    /// Fixed slot capacity for stores with one (the signature's `m` of
    /// Formula 2); 0 for stores whose capacity grows with the footprint.
    fn slot_capacity(&self) -> usize {
        0
    }

    /// Bytes of memory attributable to this store, for the accounting
    /// behind Figures 7/8: computed from what is allocated, never from a
    /// configured capacity. A store whose allocation can fall again
    /// ([`Signature`](crate::Signature)) reports its high-water mark.
    fn memory_usage(&self) -> usize;

    /// Bytes allocated at this moment (the `sig.bytes` gauge). Differs
    /// from [`AccessStore::memory_usage`] only for a store that reports
    /// a high-water mark there.
    fn bytes_held(&self) -> usize {
        self.memory_usage()
    }

    /// Serializes the store's complete state into `out` for a crash-safe
    /// checkpoint, returning `true` on success. The default says the
    /// store cannot be checkpointed (`false`, nothing written) — engines
    /// then refuse `write_checkpoint` rather than persisting a lie.
    /// [`Signature`](crate::Signature) and
    /// [`PerfectSignature`](crate::PerfectSignature) override this.
    fn save_state(&self, out: &mut ByteWriter) -> bool {
        let _ = out;
        false
    }

    /// Restores state previously produced by [`AccessStore::save_state`]
    /// on an identically-configured store. The default rejects, matching
    /// the default `save_state`.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let _ = bytes;
        Err(WireError::Invalid("this access store does not support checkpointing"))
    }
}
