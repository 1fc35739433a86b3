//! The fixed-size, single-hash signature (Section III-B).

use crate::entry::{SigEntry, Slot};
use crate::hash::SigHash;
use crate::store::AccessStore;
use dp_types::{Address, ByteReader, ByteWriter, WireError};

/// An approximate set-with-payload over addresses: a fixed-length slot
/// array indexed by one hash function.
///
/// Supported operations follow the paper: *insertion* ([`Signature::put`]),
/// *membership check* ([`Signature::get`]), element removal for
/// variable-lifetime analysis ([`Signature::remove`]) and *disambiguation*
/// ([`Signature::intersect_slots`]). Hash collisions overwrite — the
/// signature deliberately keeps no collision chains, which is what bounds
/// both its memory (fixed) and its per-access cost (one hash, one array
/// access). Collisions surface as false positives/negatives in the profiled
/// dependences at the rates quantified in Table I and predicted by
/// [`predicted_fpr`](crate::predicted_fpr).
#[derive(Debug, Clone)]
pub struct Signature<S: Slot> {
    slots: Box<[S]>,
    hash: SigHash,
    occupied: usize,
    evictions: u64,
}

impl<S: Slot> Signature<S> {
    /// Creates a signature with `nslots` slots, all vacant.
    pub fn new(nslots: usize) -> Self {
        Signature {
            slots: vec![S::EMPTY; nslots].into_boxed_slice(),
            hash: SigHash::new(nslots),
            occupied: 0,
            evictions: 0,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn nslots(&self) -> usize {
        self.slots.len()
    }

    /// The slot index `addr` maps to.
    #[inline]
    pub fn slot_of(&self, addr: Address) -> usize {
        self.hash.index(addr)
    }

    /// Reads a slot by index (diagnostics and state migration).
    #[inline]
    pub fn slot(&self, idx: usize) -> S {
        self.slots[idx]
    }

    /// Overwrites a slot by index (state migration during redistribution:
    /// the extracted slot of the old worker is injected into the new one).
    pub fn set_slot(&mut self, idx: usize, slot: S) {
        let was = self.slots[idx].is_empty();
        let is = slot.is_empty();
        self.slots[idx] = slot;
        match (was, is) {
            (true, false) => self.occupied += 1,
            (false, true) => self.occupied -= 1,
            _ => {}
        }
    }

    /// Extracts (returns and clears) the slot `addr` maps to.
    pub fn take(&mut self, addr: Address) -> Option<SigEntry> {
        let idx = self.slot_of(addr);
        let e = self.slots[idx].decode();
        if e.is_some() {
            self.slots[idx] = S::EMPTY;
            self.occupied -= 1;
        }
        e
    }

    /// Disambiguation (Section III-B): slot indices occupied in both
    /// signatures. If an address was inserted into both, its slot is
    /// guaranteed to be in the result (no false negatives); colliding
    /// addresses can contribute false positives, exactly as in
    /// transactional-memory signatures.
    pub fn intersect_slots(&self, other: &Signature<S>) -> Vec<usize> {
        assert_eq!(self.nslots(), other.nslots(), "intersect requires equal-size signatures");
        (0..self.nslots())
            .filter(|&i| !self.slots[i].is_empty() && !other.slots[i].is_empty())
            .collect()
    }

    /// Load factor in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.occupied as f64 / self.nslots().max(1) as f64
    }
}

impl<S: Slot> AccessStore for Signature<S> {
    const APPROXIMATE: bool = true;
    const HAS_TS: bool = S::HAS_TS;
    const HAS_THREAD: bool = S::HAS_THREAD;

    #[inline]
    fn get(&self, addr: Address) -> Option<SigEntry> {
        self.slots[self.hash.index(addr)].decode()
    }

    #[inline]
    fn put(&mut self, addr: Address, entry: SigEntry) {
        let idx = self.hash.index(addr);
        if self.slots[idx].is_empty() {
            self.occupied += 1;
        } else {
            self.evictions += 1;
        }
        self.slots[idx] = S::encode(entry);
    }

    #[inline]
    fn prefetch(&self, addr: Address) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let slot: *const S = &self.slots[self.hash.index(addr)];
            // SAFETY: `_mm_prefetch` is a hint that never faults and is part
            // of the x86_64 baseline (SSE); the pointer is a live slot's.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot.cast::<i8>()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    #[inline]
    fn remove(&mut self, addr: Address) {
        let idx = self.hash.index(addr);
        if !self.slots[idx].is_empty() {
            self.slots[idx] = S::EMPTY;
            self.occupied -= 1;
        }
    }

    fn clear(&mut self) {
        self.slots.fill(S::EMPTY);
        self.occupied = 0;
    }

    fn occupied(&self) -> usize {
        self.occupied
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn slot_capacity(&self) -> usize {
        self.nslots()
    }

    fn memory_usage(&self) -> usize {
        self.slots.len() * std::mem::size_of::<S>() + std::mem::size_of::<Self>()
    }

    /// Checkpoint form: slot count (so restore can verify the hash
    /// configuration matches), eviction counter, then one record per
    /// *occupied* slot — sparse, since real signatures run far below
    /// full occupancy. Entries round-trip through [`SigEntry`], so a
    /// lossy layout (e.g. [`CompactSlot`](crate::CompactSlot)) restores
    /// to exactly the bytes it would have held anyway.
    fn save_state(&self, out: &mut ByteWriter) -> bool {
        out.u64(self.nslots() as u64);
        out.u64(self.evictions);
        out.u64(self.occupied as u64);
        for (idx, slot) in self.slots.iter().enumerate() {
            if let Some(e) = slot.decode() {
                out.u64(idx as u64);
                out.u32(e.loc.pack());
                out.u16(e.thread);
                out.u64(e.ts);
            }
        }
        true
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = ByteReader::new(bytes);
        let nslots = r.u64()? as usize;
        if nslots != self.nslots() {
            return Err(WireError::Invalid("signature slot count differs from checkpoint"));
        }
        let evictions = r.u64()?;
        let occupied = r.u64()? as usize;
        self.clear();
        for _ in 0..occupied {
            let idx = r.u64()? as usize;
            if idx >= nslots {
                return Err(WireError::Invalid("slot index out of range"));
            }
            let loc = dp_types::SourceLoc::unpack(r.u32()?);
            let thread = r.u16()?;
            let ts = r.u64()?;
            self.set_slot(idx, S::encode(SigEntry { loc, thread, ts }));
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after signature state"));
        }
        self.evictions = evictions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{CompactSlot, ExtendedSlot};
    use dp_types::loc::loc;

    fn e(line: u32, thread: u16, ts: u64) -> SigEntry {
        SigEntry::new(loc(1, line), thread, ts)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s: Signature<ExtendedSlot> = Signature::new(1 << 16);
        s.put(0x1000, e(60, 1, 5));
        assert_eq!(s.get(0x1000), Some(e(60, 1, 5)));
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn overwrite_same_address() {
        let mut s: Signature<ExtendedSlot> = Signature::new(1 << 12);
        s.put(0x8, e(10, 0, 1));
        s.put(0x8, e(20, 0, 2));
        assert_eq!(s.get(0x8).unwrap().loc.line, 20);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn remove_clears_slot() {
        let mut s: Signature<CompactSlot> = Signature::new(1 << 12);
        s.put(0x10, e(3, 0, 0));
        s.remove(0x10);
        assert_eq!(s.get(0x10), None);
        assert_eq!(s.occupied(), 0);
        // Removing an absent address is a no-op.
        s.remove(0x10);
        assert_eq!(s.occupied(), 0);
    }

    #[test]
    fn collision_overwrites_no_chains() {
        // With exactly one slot every address collides: membership returns
        // the latest entry regardless of address — the documented
        // approximation.
        let mut s: Signature<ExtendedSlot> = Signature::new(1);
        s.put(0xA, e(1, 0, 1));
        s.put(0xB, e(2, 0, 2));
        assert_eq!(s.get(0xA).unwrap().loc.line, 2);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn take_extracts_and_clears() {
        let mut s: Signature<ExtendedSlot> = Signature::new(1 << 10);
        s.put(0x20, e(7, 2, 9));
        let got = s.take(0x20).unwrap();
        assert_eq!(got, e(7, 2, 9));
        assert_eq!(s.get(0x20), None);
        assert_eq!(s.take(0x20), None);
    }

    #[test]
    fn set_slot_tracks_occupancy() {
        let mut s: Signature<ExtendedSlot> = Signature::new(4);
        s.set_slot(2, ExtendedSlot::encode(e(1, 0, 0)));
        assert_eq!(s.occupied(), 1);
        s.set_slot(2, ExtendedSlot::EMPTY);
        assert_eq!(s.occupied(), 0);
    }

    #[test]
    fn intersection_contains_common_elements() {
        let mut a: Signature<CompactSlot> = Signature::new(1 << 14);
        let mut b: Signature<CompactSlot> = Signature::new(1 << 14);
        for addr in (0..100u64).map(|i| 0x1000 + i * 8) {
            a.put(addr, e(1, 0, 0));
        }
        for addr in (50..150u64).map(|i| 0x1000 + i * 8) {
            b.put(addr, e(2, 0, 0));
        }
        let common = a.intersect_slots(&b);
        // Every truly-common address's slot must appear.
        for addr in (50..100u64).map(|i| 0x1000 + i * 8) {
            assert!(common.contains(&a.slot_of(addr)));
        }
    }

    #[test]
    fn evictions_count_occupied_slot_overwrites() {
        let mut s: Signature<ExtendedSlot> = Signature::new(1);
        s.put(0xA, e(1, 0, 1));
        assert_eq!(s.evictions(), 0, "put into a vacant slot is not an eviction");
        s.put(0xB, e(2, 0, 2)); // collision overwrite
        s.put(0xA, e(3, 0, 3)); // same-address update: indistinguishable, counts too
        assert_eq!(s.evictions(), 2);
        assert_eq!(s.slot_capacity(), 1);
        s.remove(0xA);
        s.put(0xB, e(4, 0, 4));
        assert_eq!(s.evictions(), 2, "the freed slot was vacant again");
    }

    #[test]
    fn memory_usage_is_slot_dominated() {
        let s: Signature<CompactSlot> = Signature::new(1_000_000);
        let m = s.memory_usage();
        assert!((4_000_000..4_001_000).contains(&m), "{m}");
        // The paper's 10^8-slot × 4 B configuration = 382 MiB.
        let big = 100_000_000usize * 4;
        assert_eq!(big / (1024 * 1024), 381);
    }

    #[test]
    fn save_restore_roundtrips_state() {
        let mut s: Signature<ExtendedSlot> = Signature::new(1 << 10);
        for a in 0..200u64 {
            s.put(0x1000 + a * 8, e(1 + a as u32, (a % 3) as u16, a));
        }
        s.remove(0x1000);
        let mut out = ByteWriter::new();
        assert!(s.save_state(&mut out));
        let bytes = out.into_bytes();
        let mut t: Signature<ExtendedSlot> = Signature::new(1 << 10);
        t.restore_state(&bytes).unwrap();
        assert_eq!(t.occupied(), s.occupied());
        assert_eq!(t.evictions(), s.evictions());
        for a in 0..200u64 {
            assert_eq!(t.get(0x1000 + a * 8), s.get(0x1000 + a * 8));
        }
        // A resave must produce identical bytes (determinism).
        let mut again = ByteWriter::new();
        assert!(t.save_state(&mut again));
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn restore_rejects_size_mismatch_and_garbage() {
        let s: Signature<CompactSlot> = Signature::new(64);
        let mut out = ByteWriter::new();
        assert!(s.save_state(&mut out));
        let bytes = out.into_bytes();
        let mut wrong: Signature<CompactSlot> = Signature::new(128);
        assert!(wrong.restore_state(&bytes).is_err());
        let mut right: Signature<CompactSlot> = Signature::new(64);
        assert!(right.restore_state(&bytes[..bytes.len() - 1]).is_err());
        assert!(right.restore_state(&bytes).is_ok());
    }

    #[test]
    fn clear_resets() {
        let mut s: Signature<ExtendedSlot> = Signature::new(64);
        for a in 0..32u64 {
            s.put(a * 16, e(1, 0, a));
        }
        assert!(s.occupied() > 0);
        s.clear();
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.load(), 0.0);
    }
}
