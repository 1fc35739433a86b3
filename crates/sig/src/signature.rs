//! The fixed-size, single-hash signature (Section III-B), stored region
//! by region.
//!
//! Logically a [`Signature`] is the paper's array of `N` slots indexed by
//! one hash: every collision, eviction and checkpoint byte follows from
//! that array alone. Physically the index space `[0, N)` is cut into
//! regions of [`REGION_SLOTS`] slots and each region owns only what it
//! holds:
//!
//! - an untouched region owns nothing;
//! - a *sparse* region is a small open-addressed table keyed by the
//!   offset in the region — linear probing from a home cell that rises
//!   with the offset, backward-shift deletion, doubling from `MIN_CELLS`
//!   cells while the load stays at or under three quarters; offsets
//!   (two bytes a cell) and slots lie in two arrays, so a probe sequence
//!   reads one line of offsets and then the one slot it wants;
//! - once the next doubling would cost more than half the bytes of the
//!   region's plain slot array (past 768 of 4 096 slots, for both slot
//!   layouts), the region becomes that array (*dense*) and is from then
//!   on the paper's structure behind one directory load.
//!
//! Conversion is one-way (a region that filled once is expected to stay
//! full, and a table that can shrink needs a second threshold and
//! hysteresis between the two) and one region at a time, so the moment
//! at which both forms of a region exist costs one region, not a second
//! copy of the signature. [`AccessStore::memory_usage`] reports the
//! high-water mark of the bytes allocated, that moment included.

use crate::entry::{SigEntry, Slot};
use crate::hash::SigHash;
use crate::store::AccessStore;
use dp_types::{Address, ByteReader, ByteWriter, WireError};
use std::mem::size_of;

const REGION_BITS: u32 = 12;

/// Slots per region: the granule in which a [`Signature`] allocates. The
/// last region of a signature whose slot count is not a multiple is
/// shorter.
pub const REGION_SLOTS: usize = 1 << REGION_BITS;

/// Cells of a sparse region's first table.
const MIN_CELLS: usize = 4;

/// Marks a vacant cell in [`Table::offs`]; no offset reaches it.
const VACANT: u16 = u16::MAX;

/// A sparse region's open-addressed table, offsets apart from slots so
/// that a probe sequence reads two bytes a cell and mostly one line; no
/// cells while the region is vacant or dense.
#[derive(Debug, Clone)]
struct Table<S> {
    /// The offset each cell holds, or [`VACANT`]: a power of two of
    /// cells, or none.
    offs: Box<[u16]>,
    /// The slot of each cell whose offset is not [`VACANT`].
    slots: Box<[S]>,
    /// Occupied cells.
    live: u32,
    /// `off >> shift` is the home cell of `off`.
    shift: u32,
}

impl<S: Slot> Table<S> {
    /// Bytes one cell takes.
    const CELL: usize = size_of::<u16>() + size_of::<S>();

    fn none() -> Self {
        Table { offs: Box::default(), slots: Box::default(), live: 0, shift: 0 }
    }

    /// Probes for `off`: the cell holding it, or the vacant cell that
    /// ends its probe sequence (the load bound keeps one in every table;
    /// a table without cells answers with a cell it does not have, and
    /// has no room for it either).
    #[inline]
    fn find(&self, off: usize) -> Result<usize, usize> {
        if self.offs.is_empty() {
            return Err(0);
        }
        let mask = self.offs.len() - 1;
        let mut i = off >> self.shift;
        loop {
            let held = self.offs[i & mask];
            if held == off as u16 {
                return Ok(i & mask);
            }
            if held == VACANT {
                return Err(i & mask);
            }
            i += 1;
        }
    }

    /// The sparse half of `get`. Kept out of line so that Algorithm 1's
    /// three probe sites inline only the dense test and one load.
    #[inline(never)]
    fn lookup(&self, off: usize) -> Option<SigEntry> {
        self.slots[self.find(off).ok()?].decode()
    }

    /// True while one more cell can be filled without passing three
    /// quarters full.
    fn has_room(&self) -> bool {
        (self.live as usize + 1) * 4 <= self.offs.len() * 3
    }

    /// Fills the vacant cell `at`.
    fn fill(&mut self, at: usize, off: usize, slot: S) {
        (self.offs[at], self.slots[at]) = (off as u16, slot);
        self.live += 1;
    }

    /// Vacates cell `hole` and closes the gap: every later cell of the
    /// run moves back unless that would put it before its home.
    fn delete(&mut self, mut hole: usize) {
        let mask = self.offs.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let off = self.offs[j];
            if off == VACANT {
                break;
            }
            let home = usize::from(off) >> self.shift;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.offs[hole] = off;
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.offs[hole] = VACANT;
        self.live -= 1;
    }

    /// Replaces the table by one of `cap` cells holding the same entries.
    fn rehash(&mut self, cap: usize, region_slots: usize) {
        let offs = std::mem::replace(&mut self.offs, vec![VACANT; cap].into_boxed_slice());
        let slots = std::mem::replace(&mut self.slots, vec![S::EMPTY; cap].into_boxed_slice());
        self.shift = region_slots.next_power_of_two().trailing_zeros() - cap.trailing_zeros();
        self.live = 0;
        for (&off, &slot) in offs.iter().zip(&slots[..]).filter(|(&off, _)| off != VACANT) {
            let at = self.find(off.into()).expect_err("offsets in a table are distinct");
            self.fill(at, off.into(), slot);
        }
    }

    /// The occupied cells as `(offset, slot)`, in any order.
    fn entries(&self) -> impl Iterator<Item = (usize, S)> + '_ {
        let cells = self.offs.iter().zip(&self.slots[..]);
        cells.filter(|(&off, _)| off != VACANT).map(|(&off, &slot)| (usize::from(off), slot))
    }
}

/// An approximate set-with-payload over addresses: a fixed-length slot
/// array indexed by one hash function.
///
/// Supported operations follow the paper: *insertion* ([`Signature::put`]),
/// *membership check* ([`Signature::get`]) and element removal for
/// variable-lifetime analysis ([`Signature::remove`]). Hash collisions
/// overwrite — the signature deliberately keeps no collision chains,
/// which is what bounds both its memory (never more than the `N`-slot
/// array, plus a directory under 1 % of it and one region in transit)
/// and its per-access cost (one hash, one array access once a region is
/// dense). Collisions surface as false positives/negatives in the
/// profiled dependences at the rates quantified in Table I and predicted
/// by [`predicted_fpr`](crate::predicted_fpr).
///
/// The slot count is an upper bound on memory, not a reservation: see
/// the [module documentation](self) for how the array is stored.
#[derive(Debug, Clone)]
pub struct Signature<S: Slot> {
    /// Per region, its slot array once it is dense; empty before, so that
    /// `dense[r].get(off)` is the dense test and the bounds check in one.
    /// Apart from `tables` to keep what the dense path reads small.
    dense: Box<[Box<[S]>]>,
    /// Per region, its table while it is sparse.
    tables: Box<[Table<S>]>,
    hash: SigHash,
    occupied: usize,
    evictions: u64,
    /// Bytes allocated now: the two directories, tables and dense regions.
    held: usize,
    /// The most `held` has been, counting both forms of a region while
    /// it is converted or its table regrown.
    peak: usize,
}

/// Splits a logical slot index into region and offset within it.
#[inline]
fn split(idx: usize) -> (usize, usize) {
    (idx >> REGION_BITS, idx & (REGION_SLOTS - 1))
}

impl<S: Slot> Signature<S> {
    /// Creates a signature with `nslots` slots, all vacant.
    pub fn new(nslots: usize) -> Self {
        let regions = nslots.div_ceil(REGION_SLOTS);
        let held = regions * (size_of::<Box<[S]>>() + size_of::<Table<S>>());
        Signature {
            dense: (0..regions).map(|_| Box::default()).collect(),
            tables: (0..regions).map(|_| Table::none()).collect(),
            hash: SigHash::new(nslots),
            occupied: 0,
            evictions: 0,
            held,
            peak: held,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn nslots(&self) -> usize {
        self.hash.nslots()
    }

    /// The slot index `addr` maps to.
    #[inline]
    pub fn slot_of(&self, addr: Address) -> usize {
        self.hash.index(addr)
    }

    /// Stores `slot()` at logical index `idx`; true if the slot was vacant
    /// before. Counters are the caller's. The slot is built in the arm
    /// that stores it: built ahead of the branch it goes to the stack for
    /// the sparse call as narrow stores, and the dense arm's 16-byte copy
    /// from there stalls on them (get-and-put 7.1 → 11.8 ns in L1).
    #[inline]
    fn replace(&mut self, idx: usize, slot: impl Fn() -> S) -> bool {
        let (r, off) = split(idx);
        match self.dense[r].get_mut(off) {
            Some(held) => {
                let was_vacant = held.is_empty();
                *held = slot();
                was_vacant
            }
            None => self.replace_sparse(r, off, slot()),
        }
    }

    /// The sparse half of `replace`, out of line like [`Table::lookup`].
    #[inline(never)]
    fn replace_sparse(&mut self, r: usize, off: usize, slot: S) -> bool {
        let table = &mut self.tables[r];
        match table.find(off) {
            Ok(at) => {
                if slot.is_empty() {
                    table.delete(at);
                } else {
                    table.slots[at] = slot;
                }
                false
            }
            Err(at) => {
                // A put that encodes as vacant stores nothing, as in the
                // flat array.
                if !slot.is_empty() {
                    if table.has_room() {
                        table.fill(at, off, slot);
                    } else {
                        self.grow(r, off, slot);
                    }
                }
                true
            }
        }
    }

    /// Stores a new offset in a sparse region whose table is full: in a
    /// table twice the size — or, when that table would cost more than
    /// half the region's slot array, in that array, which the region is
    /// from then on.
    fn grow(&mut self, r: usize, off: usize, slot: S) {
        let table = &mut self.tables[r];
        let was = table.offs.len() * Table::<S>::CELL;
        let cap = (table.offs.len() * 2).max(MIN_CELLS);
        // [`REGION_SLOTS`], or what is left for the last region.
        let slots = (self.hash.nslots() - r * REGION_SLOTS).min(REGION_SLOTS);
        let (grown, array) = (cap * Table::<S>::CELL, slots * size_of::<S>());
        if grown * 2 > array {
            let mut dense = vec![S::EMPTY; slots].into_boxed_slice();
            for (held, slot) in table.entries() {
                dense[held] = slot;
            }
            dense[off] = slot;
            self.dense[r] = dense;
            self.reallocated(was, array);
            self.tables[r] = Table::none();
        } else {
            table.rehash(cap, slots);
            let at = table.find(off).expect_err("the offset is new to the region");
            table.fill(at, off, slot);
            self.reallocated(was, grown);
        }
    }

    /// Accounts for `now` bytes allocated and filled before the `was`
    /// bytes they replace are freed.
    fn reallocated(&mut self, was: usize, now: usize) {
        self.peak = self.peak.max(self.held + now);
        self.held = self.held + now - was;
    }

    /// Overwrites a slot by index, keeping `occupied` true.
    fn set_slot(&mut self, idx: usize, slot: S) {
        match (self.replace(idx, || slot), slot.is_empty()) {
            (true, false) => self.occupied += 1,
            (false, true) => self.occupied -= 1,
            _ => {}
        }
    }
}

impl<S: Slot> AccessStore for Signature<S> {
    const HAS_TS: bool = S::HAS_TS;

    #[inline]
    fn get(&self, addr: Address) -> Option<SigEntry> {
        let (r, off) = split(self.hash.index(addr));
        match self.dense[r].get(off) {
            Some(slot) => slot.decode(),
            None => self.tables[r].lookup(off),
        }
    }

    #[inline]
    fn put(&mut self, addr: Address, entry: SigEntry) {
        if self.replace(self.hash.index(addr), || S::encode(entry)) {
            self.occupied += 1;
        } else {
            self.evictions += 1;
        }
    }

    #[inline]
    fn prefetch(&self, addr: Address) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (r, off) = split(self.hash.index(addr));
            let hint = |line: *const i8| {
                // SAFETY: `_mm_prefetch` is a hint that never faults and is
                // part of the x86_64 baseline (SSE); the pointer is a live
                // slot's or cell's.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line) }
            };
            match self.dense[r].get(off) {
                Some(slot) => hint((slot as *const S).cast()),
                None => {
                    let table = &self.tables[r];
                    let home = off >> table.shift;
                    if let (Some(off), Some(slot)) = (table.offs.get(home), table.slots.get(home)) {
                        hint((off as *const u16).cast());
                        hint((slot as *const S).cast());
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    #[inline]
    fn remove(&mut self, addr: Address) {
        if !self.replace(self.hash.index(addr), || S::EMPTY) {
            self.occupied -= 1;
        }
    }

    fn clear(&mut self) {
        *self =
            Signature { evictions: self.evictions, peak: self.peak, ..Self::new(self.nslots()) };
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

    /// The most bytes this signature has had allocated at once —
    /// directory, sparse tables, dense regions and, while a region is
    /// converted or its table regrown, both of its forms — not the
    /// `nslots × size_of::<S>()` it may grow to.
    fn memory_usage(&self) -> usize {
        self.peak + size_of::<Self>()
    }

    fn bytes_held(&self) -> usize {
        self.held + size_of::<Self>()
    }

    /// Checkpoint form: slot count (so restore can verify the hash
    /// configuration matches), eviction counter, then one record per
    /// *occupied* slot in ascending index order — sparse, since real
    /// signatures run far below full occupancy. Entries round-trip
    /// through [`SigEntry`], so a lossy layout (e.g.
    /// [`CompactSlot`](crate::CompactSlot)) restores to exactly the bytes
    /// it would have held anyway. How a region is stored leaves no trace.
    fn save_state(&self, out: &mut ByteWriter) -> bool {
        out.u64(self.nslots() as u64);
        out.u64(self.evictions);
        out.u64(self.occupied as u64);
        let mut record = |idx: usize, e: SigEntry| {
            out.u64(idx as u64);
            out.u32(e.loc.pack());
            out.u16(e.thread);
            out.u64(e.ts);
        };
        for (r, (dense, table)) in self.dense.iter().zip(&self.tables[..]).enumerate() {
            let base = r * REGION_SLOTS;
            for (off, slot) in dense.iter().enumerate() {
                if let Some(e) = slot.decode() {
                    record(base + off, e);
                }
            }
            let mut sparse: Vec<(usize, S)> = table.entries().collect();
            sparse.sort_unstable_by_key(|&(off, _)| off);
            for (off, slot) in sparse {
                record(base + off, slot.decode().expect("the cell is occupied"));
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
    fn set_slot_tracks_occupancy() {
        let mut s: Signature<ExtendedSlot> = Signature::new(4);
        s.set_slot(2, ExtendedSlot::encode(e(1, 0, 0)));
        assert_eq!(s.occupied(), 1);
        s.set_slot(2, ExtendedSlot::EMPTY);
        assert_eq!(s.occupied(), 0);
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

    /// An address per slot index of `s`, found by scanning.
    fn addrs_by_slot<S: Slot>(s: &Signature<S>) -> Vec<Address> {
        let mut by_slot = vec![None; s.nslots()];
        let mut missing = s.nslots();
        for addr in (0u64..).map(|i| i * 8) {
            let at = &mut by_slot[s.slot_of(addr)];
            if at.is_none() {
                *at = Some(addr);
                missing -= 1;
                if missing == 0 {
                    break;
                }
            }
        }
        by_slot.into_iter().flatten().collect()
    }

    /// Empty, a signature owns its directory and nothing else; memory then
    /// rises with occupancy and stops at the paper's figure — the slot
    /// array — plus the directory (under 1 %) and the one region that was
    /// last in transit.
    #[test]
    fn memory_usage_is_slot_dominated() {
        const N: usize = 1_000_000;
        let array = N * size_of::<CompactSlot>();
        let mut s: Signature<CompactSlot> = Signature::new(N);
        assert!(s.memory_usage() < array / 100, "{}", s.memory_usage());
        let mut last = s.memory_usage();
        for (i, addr) in (0..8 * N as u64).map(|i| i * 8).enumerate() {
            s.put(addr, e(1, 0, 0));
            if i % 4096 == 0 {
                assert!(s.memory_usage() >= last, "memory is monotone in occupancy");
                assert!(s.bytes_held() <= s.memory_usage());
                last = s.memory_usage();
            }
        }
        assert!(s.occupied() > N - N / 1000, "saturated: {}", s.occupied());
        let m = s.memory_usage();
        let region = REGION_SLOTS * size_of::<CompactSlot>();
        assert!((array..array + array / 100 + region).contains(&m), "{m}");
        // The paper's 10^8-slot × 4 B configuration = 382 MiB.
        assert_eq!(m / 100_000, 40, "4.0 MB at 10^6 slots");
        assert_eq!(100_000_000usize * 4 / (1024 * 1024), 381);
    }

    /// The high-water mark counts the moment a converting region exists
    /// in both forms.
    #[test]
    fn memory_usage_counts_the_conversion_transient() {
        let mut s: Signature<ExtendedSlot> = Signature::new(2 * REGION_SLOTS);
        let addrs = addrs_by_slot(&s);
        let array = REGION_SLOTS * size_of::<ExtendedSlot>();
        let mut puts = 0;
        let (before, after) = loop {
            let before = s.bytes_held();
            s.put(addrs[puts], e(1, 0, puts as u64));
            puts += 1;
            if s.bytes_held() >= before + array / 2 {
                break (before, s.bytes_held());
            }
            assert!(puts < REGION_SLOTS, "region 0 never converted");
        };
        // 1 024 cells of 18 bytes hold 768 entries; the next one converts.
        assert_eq!(puts, 769);
        assert_eq!(before + array - after, 1024 * 18);
        assert!(s.memory_usage() >= before + array, "both copies existed at once");
        assert!(s.memory_usage() > after);
        assert_eq!(s.occupied(), 769);
        for (i, &addr) in addrs[..769].iter().enumerate() {
            assert_eq!(s.get(addr), Some(e(1, 0, i as u64)));
        }
        assert_eq!(s.get(addrs[769]), None);
        // Nothing ever converts back, and `clear` returns all but the directory.
        for &addr in &addrs[..769] {
            s.remove(addr);
        }
        assert_eq!((s.occupied(), s.bytes_held()), (0, after));
        s.clear();
        assert_eq!(s.bytes_held(), Signature::<ExtendedSlot>::new(2 * REGION_SLOTS).bytes_held());
    }

    /// A sparse region's probe sequence wraps around the end of its table,
    /// and removing from the middle of a run shifts the rest back.
    #[test]
    fn sparse_probe_wraps_and_remove_shifts_back() {
        let mut s: Signature<ExtendedSlot> = Signature::new(REGION_SLOTS);
        let addrs = addrs_by_slot(&s);
        // Eight cells, home = offset >> 9. Four offsets that all belong
        // in the last cell spill across the wrap into cells 0 and 1 (the
        // order is what regrowing from four cells left); two that belong
        // in cell 3 follow.
        let offs = [4095usize, 4094, 4093, 4092, 1600, 1601];
        for &off in &offs {
            s.put(addrs[off], e(off as u32, 0, 0));
        }
        let cells = |s: &Signature<ExtendedSlot>| -> Vec<u16> {
            s.tables[0].offs.iter().map(|&off| if off == VACANT { 0 } else { off }).collect()
        };
        assert_eq!(cells(&s), [4093, 4095, 4092, 1600, 1601, 0, 0, 4094]);
        // From the middle of the run: its tail moves back one cell, but
        // 1600 and 1601 may not move before their home.
        s.remove(addrs[4093]);
        assert_eq!(cells(&s), [4095, 4092, 0, 1600, 1601, 0, 0, 4094]);
        // From the head of the run: the tail is pulled back across the wrap.
        s.remove(addrs[4094]);
        assert_eq!(cells(&s), [4092, 0, 0, 1600, 1601, 0, 0, 4095]);
        s.remove(addrs[1600]);
        assert_eq!(cells(&s), [4092, 0, 0, 1601, 0, 0, 0, 4095]);
        for off in offs {
            let held = [4095, 4092, 1601].contains(&off);
            assert_eq!(s.get(addrs[off]), held.then(|| e(off as u32, 0, 0)), "offset {off}");
        }
        assert_eq!(s.occupied(), 3);
        let mut out = ByteWriter::new();
        assert!(s.save_state(&mut out));
        let saved: Vec<u64> = out.into_bytes()[24..]
            .chunks(22)
            .map(|rec| u64::from_le_bytes(rec[..8].try_into().unwrap()))
            .collect();
        assert_eq!(saved, [1601, 4092, 4095], "ascending index, whatever the cell order");
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
        assert_eq!(s.get(0), None);
    }
}
