//! The access-store abstraction every profiling engine is generic over.

use crate::entry::SigEntry;
use dp_types::{Address, ByteWriter, Timestamp, WireError};

/// Remembers the most recent access entry per address.
///
/// Algorithm 1 keeps two per profiled address space — one for reads, one
/// for writes — and probes them together, so an engine never holds an
/// `AccessStore` itself: it joins the two with [`AccessStore::pair`] and
/// holds the [`PairStore`] that returns. Implementations may be
/// approximate ([`Signature`](crate::Signature)) or exact
/// ([`PerfectSignature`](crate::PerfectSignature),
/// [`ShadowMemory`](crate::ShadowMemory), [`HashHistory`](crate::HashHistory)).
pub trait AccessStore: Send + Sized {
    /// Whether entries preserve timestamps (see
    /// [`Slot::HAS_TS`](crate::Slot::HAS_TS)).
    const HAS_TS: bool;
    /// Whether entries keep a clock loop-carried classification can read
    /// (see [`Slot::HAS_CLOCK`](crate::Slot::HAS_CLOCK)): the timestamp,
    /// or an epoch when [`AccessStore::HAS_TS`] is false.
    const HAS_CLOCK: bool = Self::HAS_TS;

    /// The read store and the write store of one address space as one.
    type Pair: PairStore;

    /// Joins a read store and a write store of the same configuration,
    /// entries and counters included. A store with no pair form of its
    /// own answers [`Halves`].
    fn pair(read: Self, write: Self) -> Self::Pair;

    /// The membership check: the last recorded entry for `addr`, if any.
    fn get(&self, addr: Address) -> Option<SigEntry>;

    /// Insertion: records `entry` as the latest access to `addr`.
    fn put(&mut self, addr: Address, entry: SigEntry);

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

/// Which of an address's two entries: the last read or the last write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The last read.
    Read = 0,
    /// The last write.
    Write = 1,
}

impl Side {
    /// Both sides, in checkpoint order.
    pub const BOTH: [Side; 2] = [Side::Read, Side::Write];
}

/// What Algorithm 1 reads before it records an access: the last write,
/// and for a write also the last read (a read builds only a RAW).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Last {
    /// The last write of the address.
    pub write: Option<SigEntry>,
    /// The last read of the address when a write is recorded; `None`
    /// when a read is.
    pub read: Option<SigEntry>,
}

/// The last read and the last write of every address, probed together:
/// the one query Algorithm 1 asks. Both signatures of Section III-B share
/// one hash, so an address's two entries share an index, and
/// [`Signature`](crate::Signature)'s pair form stores them side by side.
/// Per-side methods answer what the two separate stores answered.
pub trait PairStore: Send {
    /// Returns the entries Algorithm 1 reads for an access to `addr` (see
    /// [`Last`]), then records `entry` as its latest access of `side`.
    fn record(&mut self, side: Side, addr: Address, entry: SigEntry) -> Last;

    /// Hint that `addr` is about to be recorded: a store whose probe is
    /// one dependent cache miss starts that miss early. Never changes
    /// what any other method returns. Default: nothing.
    #[inline]
    fn prefetch(&self, addr: Address) {
        let _ = addr;
    }

    /// Both entries of `addr`, indexed by [`Side`].
    fn get(&self, addr: Address) -> [Option<SigEntry>; 2];

    /// Records `entry` as the latest access of `side` to `addr`.
    fn put(&mut self, side: Side, addr: Address, entry: SigEntry);

    /// Forgets both entries of `addr` (see [`AccessStore::remove`]).
    fn remove(&mut self, addr: Address);

    /// Drops all entries of both sides.
    fn clear(&mut self);

    /// [`AccessStore::occupied`] of one side.
    fn occupied(&self, side: Side) -> usize;

    /// [`AccessStore::evictions`] of one side.
    fn evictions(&self, side: Side) -> u64;

    /// [`AccessStore::slot_capacity`] of each side.
    fn slot_capacity(&self) -> usize;

    /// [`AccessStore::memory_usage`] of both sides together.
    fn memory_usage(&self) -> usize;

    /// [`AccessStore::bytes_held`] of both sides together.
    fn bytes_held(&self) -> usize;

    /// Writes what [`AccessStore::save_state`] wrote for the store of one
    /// side.
    fn save_state(&self, side: Side, out: &mut ByteWriter) -> bool;

    /// Restores both sides from what [`PairStore::save_state`] wrote, each
    /// entry's clock passed through `clock` on its way in: how an engine
    /// whose entries hold epochs renumbers a checkpoint's clocks before
    /// they must fit its slots. A timestamp engine passes the identity.
    fn restore_state(
        &mut self,
        read: &[u8],
        write: &[u8],
        clock: &dyn Fn(Timestamp) -> Timestamp,
    ) -> Result<(), WireError>;

    /// Passes every held entry's clock through `clock`, in place: an
    /// epoch engine's renumbering.
    fn reclock(&mut self, clock: &dyn Fn(Timestamp) -> Timestamp);
}

/// Two stores behind the pair interface, probed one after the other as
/// Algorithm 1 did before the signatures were fused: the pair form of
/// every store without one of its own.
pub struct Halves<S>([S; 2]);

impl<S: AccessStore> Halves<S> {
    /// Joins a read store and a write store.
    pub fn new(read: S, write: S) -> Self {
        Halves([read, write])
    }
}

impl<S: AccessStore> PairStore for Halves<S> {
    #[inline]
    fn record(&mut self, side: Side, addr: Address, entry: SigEntry) -> Last {
        let [read, write] = &self.0;
        let last = Last {
            write: write.get(addr),
            read: if side == Side::Write { read.get(addr) } else { None },
        };
        self.0[side as usize].put(addr, entry);
        last
    }

    fn get(&self, addr: Address) -> [Option<SigEntry>; 2] {
        self.0.each_ref().map(|half| half.get(addr))
    }

    fn put(&mut self, side: Side, addr: Address, entry: SigEntry) {
        self.0[side as usize].put(addr, entry);
    }

    fn remove(&mut self, addr: Address) {
        self.0.iter_mut().for_each(|half| half.remove(addr));
    }

    fn clear(&mut self) {
        self.0.iter_mut().for_each(S::clear);
    }

    fn occupied(&self, side: Side) -> usize {
        self.0[side as usize].occupied()
    }

    fn evictions(&self, side: Side) -> u64 {
        self.0[side as usize].evictions()
    }

    fn slot_capacity(&self) -> usize {
        self.0[0].slot_capacity()
    }

    fn memory_usage(&self) -> usize {
        self.0.iter().map(S::memory_usage).sum()
    }

    fn bytes_held(&self) -> usize {
        self.0.iter().map(S::bytes_held).sum()
    }

    fn save_state(&self, side: Side, out: &mut ByteWriter) -> bool {
        self.0[side as usize].save_state(out)
    }

    /// Refuses a store whose entries hold epochs: its halves restore
    /// only as saved.
    fn restore_state(
        &mut self,
        read: &[u8],
        write: &[u8],
        _: &dyn Fn(Timestamp) -> Timestamp,
    ) -> Result<(), WireError> {
        if S::HAS_CLOCK && !S::HAS_TS {
            return Err(WireError::Invalid("per-side halves cannot renumber epochs"));
        }
        self.0[0].restore_state(read)?;
        self.0[1].restore_state(write)
    }

    fn reclock(&mut self, _: &dyn Fn(Timestamp) -> Timestamp) {
        panic!("per-side halves cannot renumber epochs");
    }
}
