//! The "hash table" baseline (Section III-B).
//!
//! "An alternative is to record memory accesses using a hash table, but
//! this approach incurs additional time overhead since when more than one
//! address is hashed into the same bucket, the bucket has to be searched
//! for the address in question. ... the hash table approach is about
//! 1.5 – 3.7× slower than our approach."
//!
//! To reproduce that comparison honestly we implement an open-chaining
//! hash table with a *fixed* bucket count, SipHash-quality hashing (std's
//! default) and per-bucket linear search — i.e. the costs the paper
//! attributes to the approach: hash + chase + compare, plus allocation for
//! chain nodes. It is exact (never confuses addresses).

use crate::baselines::Halves;
use dp_sig::{AccessStore, SigEntry};
use dp_types::Address;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Exact chained hash table of per-address entries.
pub struct HashHistory {
    buckets: Vec<Vec<(Address, SigEntry)>>,
    state: RandomState,
    occupied: usize,
}

impl HashHistory {
    /// Creates a table with `nbuckets` chains.
    pub fn new(nbuckets: usize) -> Self {
        assert!(nbuckets >= 1);
        HashHistory { buckets: vec![Vec::new(); nbuckets], state: RandomState::new(), occupied: 0 }
    }

    #[inline]
    fn bucket(&self, addr: Address) -> usize {
        (self.state.hash_one(addr) as usize) % self.buckets.len()
    }
}

impl AccessStore for HashHistory {
    const HAS_TS: bool = true;

    type Pair = Halves<Self>;

    fn pair(read: Self, write: Self) -> Halves<Self> {
        Halves::new(read, write)
    }

    fn get(&self, addr: Address) -> Option<SigEntry> {
        let b = &self.buckets[self.bucket(addr)];
        b.iter().find(|(a, _)| *a == addr).map(|&(_, e)| e)
    }

    fn put(&mut self, addr: Address, entry: SigEntry) {
        let idx = self.bucket(addr);
        let b = &mut self.buckets[idx];
        if let Some(slot) = b.iter_mut().find(|(a, _)| *a == addr) {
            slot.1 = entry;
        } else {
            b.push((addr, entry));
            self.occupied += 1;
        }
    }

    fn remove(&mut self, addr: Address) {
        let idx = self.bucket(addr);
        let b = &mut self.buckets[idx];
        if let Some(pos) = b.iter().position(|(a, _)| *a == addr) {
            b.swap_remove(pos);
            self.occupied -= 1;
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.occupied = 0;
    }

    fn occupied(&self) -> usize {
        self.occupied
    }

    fn memory_usage(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Vec<(Address, SigEntry)>>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<(Address, SigEntry)>())
                .sum::<usize>()
            + std::mem::size_of::<Self>()
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
    fn exact_under_forced_collisions() {
        let mut h = HashHistory::new(4); // tiny: every bucket chains
        for i in 0..256u64 {
            h.put(i * 8, e(i as u32 + 1));
        }
        for i in 0..256u64 {
            assert_eq!(h.get(i * 8).unwrap().loc.line, i as u32 + 1);
        }
        assert_eq!(h.occupied(), 256);
    }

    #[test]
    fn update_in_place() {
        let mut h = HashHistory::new(16);
        h.put(0x8, e(1));
        h.put(0x8, e(2));
        assert_eq!(h.get(0x8).unwrap().loc.line, 2);
        assert_eq!(h.occupied(), 1);
    }

    #[test]
    fn remove_is_exact() {
        let mut h = HashHistory::new(1); // all in one bucket
        h.put(0x8, e(1));
        h.put(0x10, e(2));
        h.remove(0x8);
        assert_eq!(h.get(0x8), None);
        assert_eq!(h.get(0x10).unwrap().loc.line, 2);
        assert_eq!(h.occupied(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut h = HashHistory::new(8);
        h.put(1, e(1));
        h.clear();
        assert_eq!(h.occupied(), 0);
        assert_eq!(h.get(1), None);
    }
}
