//! The comparator stores of the paper's evaluation: what the signature
//! is measured against, never what `depprof` runs.
//!
//! - [`ShadowMemory`] — the classical two-level shadow memory, the
//!   "Naive" bars of Figures 7/8 (`fig7`, `mt_profile_shadow`);
//! - [`HashHistory`] — the "hash table" the paper measures as 1.5–3.7×
//!   slower than signatures (`ablate-hash`);
//! - [`StrideStore`] — SD3-style stride compression, the paper's primary
//!   comparator (`ablate-sd3`).
//!
//! Each implements `dp_sig::AccessStore`, so every engine of `dp-core`
//! runs it unchanged, and reaches `dp_sig::PairStore` through
//! [`Halves`]. None can be checkpointed: they keep the contract's default
//! answer.

pub use crate::hashhist::HashHistory;
pub use crate::shadow::ShadowMemory;
pub use crate::stride::StrideStore;
use dp_sig::{AccessStore, Last, PairStore, Side, SigEntry};
use dp_types::{Address, ByteWriter, Timestamp, WireError};

/// Two stores behind the pair interface, probed one after the other as
/// Algorithm 1 did before the signatures were fused: the pair form of
/// every comparator.
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
