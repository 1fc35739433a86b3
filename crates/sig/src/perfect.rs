//! The "perfect signature" accuracy baseline (Section VI-A).
//!
//! "Essentially, the perfect signature is a table where each memory address
//! has its own entry, so that false positives are never produced." We use a
//! hash map with the fast Fx hasher; exactness, not speed, is its job —
//! it defines ground truth for the FPR/FNR measurements of Table I.

use crate::entry::SigEntry;
use crate::store::AccessStore;
use dp_types::{Address, ByteReader, ByteWriter, FxHashMap, WireError};

/// Exact per-address access store.
#[derive(Debug, Default, Clone)]
pub struct PerfectSignature {
    map: FxHashMap<Address, SigEntry>,
    evictions: u64,
}

impl PerfectSignature {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates with capacity for `n` addresses.
    pub fn with_capacity(n: usize) -> Self {
        PerfectSignature {
            map: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            evictions: 0,
        }
    }
}

impl AccessStore for PerfectSignature {
    const HAS_TS: bool = true;

    #[inline]
    fn get(&self, addr: Address) -> Option<SigEntry> {
        self.map.get(&addr).copied()
    }

    #[inline]
    fn put(&mut self, addr: Address, entry: SigEntry) {
        if self.map.insert(addr, entry).is_some() {
            self.evictions += 1;
        }
    }

    #[inline]
    fn remove(&mut self, addr: Address) {
        self.map.remove(&addr);
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn occupied(&self) -> usize {
        self.map.len()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn memory_usage(&self) -> usize {
        // hashbrown stores (K, V) plus one control byte per bucket.
        self.map.capacity() * (std::mem::size_of::<(Address, SigEntry)>() + 1)
            + std::mem::size_of::<Self>()
    }

    /// Checkpoint form: eviction counter, entry count, then
    /// `(addr, entry)` pairs sorted by address so identical states
    /// serialize to identical bytes regardless of hash-map iteration
    /// order (checkpoint determinism is what the resume-equivalence
    /// tests compare).
    fn save_state(&self, out: &mut ByteWriter) -> bool {
        out.u64(self.evictions);
        out.u64(self.map.len() as u64);
        let mut entries: Vec<(&Address, &SigEntry)> = self.map.iter().collect();
        entries.sort_by_key(|(a, _)| **a);
        for (addr, e) in entries {
            out.u64(*addr);
            out.u32(e.loc.pack());
            out.u16(e.thread);
            out.u64(e.ts);
        }
        true
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = ByteReader::new(bytes);
        let evictions = r.u64()?;
        let n = r.u64()? as usize;
        let mut map = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let addr = r.u64()?;
            let loc = dp_types::SourceLoc::unpack(r.u32()?);
            let thread = r.u16()?;
            let ts = r.u64()?;
            map.insert(addr, SigEntry { loc, thread, ts });
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after perfect-signature state"));
        }
        self.map = map;
        self.evictions = evictions;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    fn e(line: u32) -> SigEntry {
        SigEntry::new(loc(1, line), 0, 0)
    }

    #[test]
    fn exactness_no_cross_talk() {
        let mut p = PerfectSignature::new();
        // Addresses that would collide in any small signature stay distinct.
        for i in 0..10_000u64 {
            p.put(i * 8, e(i as u32 % 1000 + 1));
        }
        for i in 0..10_000u64 {
            assert_eq!(p.get(i * 8).unwrap().loc.line, i as u32 % 1000 + 1);
        }
        assert_eq!(p.occupied(), 10_000);
    }

    #[test]
    fn remove_forgets_the_address() {
        let mut p = PerfectSignature::new();
        p.put(0x8, e(2));
        p.remove(0x8);
        assert_eq!(p.get(0x8), None);
        assert_eq!(p.occupied(), 0);
    }

    #[test]
    fn evictions_count_reinserts_only() {
        let mut p = PerfectSignature::new();
        p.put(0x8, e(1));
        p.put(0x10, e(2));
        assert_eq!(p.evictions(), 0, "distinct keys never displace each other");
        p.put(0x8, e(3));
        assert_eq!(p.evictions(), 1);
        p.remove(0x8);
        p.put(0x8, e(4));
        assert_eq!(p.evictions(), 1, "re-insert after removal hits an empty entry");
        assert_eq!(p.slot_capacity(), 0, "exact stores have no fixed slot capacity");
    }

    #[test]
    fn save_restore_roundtrips_exactly() {
        let mut p = PerfectSignature::new();
        for i in 0..500u64 {
            p.put(i * 8, SigEntry::new(loc(1, 1 + (i % 90) as u32), (i % 4) as u16, i));
        }
        p.put(0x8, e(77)); // one eviction
        let mut out = ByteWriter::new();
        assert!(p.save_state(&mut out));
        let bytes = out.into_bytes();
        let mut q = PerfectSignature::new();
        q.restore_state(&bytes).unwrap();
        assert_eq!(q.occupied(), p.occupied());
        assert_eq!(q.evictions(), p.evictions());
        for i in 0..500u64 {
            assert_eq!(q.get(i * 8), p.get(i * 8));
        }
        // Deterministic bytes regardless of map iteration order.
        let mut again = ByteWriter::new();
        assert!(q.save_state(&mut again));
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn memory_grows_with_footprint() {
        let mut p = PerfectSignature::new();
        let m0 = p.memory_usage();
        for i in 0..100_000u64 {
            p.put(i * 8, e(1));
        }
        assert!(p.memory_usage() > m0 + 100_000 * std::mem::size_of::<SigEntry>() / 2);
    }
}
