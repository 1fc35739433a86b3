//! Two-level shadow memory — the classical exact baseline whose memory
//! overhead motivates signatures (Section III-B).
//!
//! "In shadow memory, the access history of addresses is stored in a table
//! where the index of an address is the address itself. ... the memory
//! overhead of shadow memory is still too high" even with multilevel
//! tables. We implement the multilevel variant: a page directory keyed by
//! `addr >> PAGE_BITS`, each materialized page holding one
//! [`SigEntry`]-equivalent record per 8-byte granule. Memory grows with the
//! *extent* of touched pages, which is what the "Naive" bars of Figures 7/8
//! report.

use crate::baselines::Halves;
use dp_sig::{AccessStore, SigEntry};
use dp_types::{Address, FxHashMap, SourceLoc, ThreadId, Timestamp};

/// log2 of granules per page.
const PAGE_BITS: u32 = 12; // 4096 granules = 32 KiB of target memory per page
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// One packed shadow record (same information as
/// [`ExtendedSlot`](dp_sig::ExtendedSlot)).
#[derive(Clone, Copy)]
struct Cell {
    loc: u32,
    thread: ThreadId,
    ts: Timestamp,
}

const EMPTY_CELL: Cell = Cell { loc: 0, thread: 0, ts: 0 };

type Page = Box<[Cell; PAGE_SIZE]>;

/// Exact access store with page-granular allocation, indexed by address.
pub struct ShadowMemory {
    pages: FxHashMap<u64, Page>,
    occupied: usize,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowMemory {
    /// Creates an empty shadow memory.
    pub fn new() -> Self {
        ShadowMemory { pages: FxHashMap::default(), occupied: 0 }
    }

    /// Addresses are tracked at 8-byte granularity, like the profiler's
    /// simulated address space.
    #[inline]
    fn split(addr: Address) -> (u64, usize) {
        let granule = addr >> 3;
        (granule >> PAGE_BITS, (granule as usize) & (PAGE_SIZE - 1))
    }
}

impl AccessStore for ShadowMemory {
    const HAS_TS: bool = true;

    type Pair = Halves<Self>;

    fn pair(read: Self, write: Self) -> Halves<Self> {
        Halves::new(read, write)
    }

    fn get(&self, addr: Address) -> Option<SigEntry> {
        let (pg, off) = Self::split(addr);
        let cell = self.pages.get(&pg)?[off];
        if cell.loc == 0 {
            None
        } else {
            Some(SigEntry { loc: SourceLoc::unpack(cell.loc), thread: cell.thread, ts: cell.ts })
        }
    }

    fn put(&mut self, addr: Address, entry: SigEntry) {
        let (pg, off) = Self::split(addr);
        let page = self.pages.entry(pg).or_insert_with(|| Box::new([EMPTY_CELL; PAGE_SIZE]));
        if page[off].loc == 0 {
            self.occupied += 1;
        }
        page[off] = Cell { loc: entry.loc.pack(), thread: entry.thread, ts: entry.ts };
    }

    fn remove(&mut self, addr: Address) {
        let (pg, off) = Self::split(addr);
        if let Some(page) = self.pages.get_mut(&pg) {
            if page[off].loc != 0 {
                page[off] = EMPTY_CELL;
                self.occupied -= 1;
            }
        }
    }

    fn clear(&mut self) {
        self.pages.clear();
        self.occupied = 0;
    }

    fn occupied(&self) -> usize {
        self.occupied
    }

    fn memory_usage(&self) -> usize {
        self.pages.len() * (PAGE_SIZE * std::mem::size_of::<Cell>() + 16)
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    fn e(line: u32, ts: u64) -> SigEntry {
        SigEntry::new(loc(1, line), 0, ts)
    }

    #[test]
    fn exact_roundtrip() {
        let mut s = ShadowMemory::new();
        s.put(0x1000, e(60, 1));
        s.put(0x1008, e(61, 2));
        assert_eq!(s.get(0x1000).unwrap().loc.line, 60);
        assert_eq!(s.get(0x1008).unwrap().loc.line, 61);
        assert_eq!(s.get(0x1010), None);
        assert_eq!(s.occupied(), 2);
    }

    #[test]
    fn remove_works() {
        let mut s = ShadowMemory::new();
        s.put(0x40, e(5, 1));
        s.remove(0x40);
        assert_eq!(s.get(0x40), None);
        assert_eq!(s.occupied(), 0);
        s.remove(0xdead_0000); // absent page: no-op
    }

    #[test]
    fn memory_tracks_address_extent_not_count() {
        // Two stores with the same number of addresses but different
        // spatial spread: shadow memory charges for the spread one.
        let mut dense = ShadowMemory::new();
        let mut sparse = ShadowMemory::new();
        for i in 0..1000u64 {
            dense.put(0x10_0000 + i * 8, e(1, i));
            sparse.put(i * 0x10_0000, e(1, i)); // one page each
        }
        assert!(sparse.memory_usage() > 100 * dense.memory_usage());
        assert_eq!(dense.occupied(), sparse.occupied());
    }

    #[test]
    fn granularity_is_8_bytes() {
        let mut s = ShadowMemory::new();
        s.put(0x100, e(1, 1));
        // Same granule: overwrites.
        s.put(0x107, e(2, 2));
        assert_eq!(s.get(0x100).unwrap().loc.line, 2);
        assert_eq!(s.occupied(), 1);
    }
}
