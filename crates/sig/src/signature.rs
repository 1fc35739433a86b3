//! The fixed-size, single-hash signature (Section III-B), stored region
//! by region.
//!
//! Logically a [`Signature`] is the paper's array of `N` slots indexed by
//! one hash: every collision, eviction and checkpoint byte follows from
//! that array alone. Its pair form [`SigPair`] is the paper's read and
//! write signatures under their one hash, fused: `N` cells of a
//! `{read, write}` slot pair, so that Algorithm 1 finds both entries of an
//! address with one hash and one probe ([`PairStore::record`]) while each
//! side still answers exactly what its own `N`-slot array would.
//! Physically the index space `[0, N)` is cut into regions of
//! [`REGION_SLOTS`] cells and each region owns only what it holds:
//!
//! - an untouched region owns nothing;
//! - a *sparse* region is a small open-addressed table of single slots
//!   keyed by offset in the region and side (`offset · SIDES + side`) —
//!   linear probing from a home cell that rises with the offset (each
//!   side from its own), backward-shift deletion, doubling from
//!   `MIN_CELLS` cells while the load stays at or under three quarters;
//!   keys (two bytes a cell) and slots lie in two arrays, so a probe
//!   sequence reads one line of keys and then the one slot it wants;
//! - once the next doubling would cost more than half the bytes of the
//!   region's plain cell array (past 768 of a region's 4 096 slots, or
//!   1 536 of a pair region's 8 192, for both slot layouts), the region
//!   becomes that array (*dense*) and is from then on the paper's
//!   structure behind one directory load. The array starts on a cache
//!   line, so no cell — an 8- or 16-byte slot, a 16- or 32-byte pair —
//!   straddles two. With [`EpochSlot`](crate::EpochSlot) a sparse cell
//!   is 10 bytes and a dense pair region 64 KiB; with
//!   [`ExtendedSlot`](crate::ExtendedSlot), 18 bytes and 128 KiB.
//!
//! Conversion is one-way (a region that filled once is expected to stay
//! full, and a table that can shrink needs a second threshold and
//! hysteresis between the two) and one region at a time, so the moment
//! at which both forms of a region exist costs one region, not a second
//! copy of the signature. [`AccessStore::memory_usage`] reports the
//! high-water mark of the bytes allocated, that moment included.

use crate::entry::{SigEntry, Slot};
use crate::hash::SigHash;
use crate::store::{AccessStore, Last, PairStore, Side};
use dp_types::{Address, ByteReader, ByteWriter, Timestamp, WireError};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::size_of;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

const REGION_BITS: u32 = 12;

/// Cells per region: the granule in which a [`Signature`] allocates. The
/// last region of a signature whose cell count is not a multiple is
/// shorter.
pub const REGION_SLOTS: usize = 1 << REGION_BITS;

/// Cells of a sparse region's first table.
const MIN_CELLS: usize = 4;

/// Marks a vacant cell in [`Table::keys`]; no key reaches it.
const VACANT: u16 = u16::MAX;

/// A sparse region's open-addressed table, keys apart from slots so that
/// a probe sequence reads two bytes a cell and mostly one line; no cells
/// while the region is vacant or dense. A key is `offset · SIDES + side`.
#[derive(Debug)]
struct Table<S, const SIDES: usize> {
    /// The key each cell holds, or [`VACANT`]: a power of two of cells,
    /// or none.
    keys: Box<[u16]>,
    /// The slot of each cell whose key is not [`VACANT`].
    slots: Box<[S]>,
    /// Occupied cells.
    live: u32,
    /// Scales a key's position down to its home cell (see [`Table::home`]).
    shift: u32,
}

impl<S: Slot, const SIDES: usize> Table<S, SIDES> {
    /// Bytes one cell takes.
    const CELL: usize = size_of::<u16>() + size_of::<S>();

    fn none() -> Self {
        Table { keys: Box::default(), slots: Box::default(), live: 0, shift: 0 }
    }

    /// The cell the probe sequence of `key` starts from: one that rises
    /// with the offset, so that a sweep of addresses walks the table
    /// forwards. Each side after the first starts a fraction of a region
    /// further on: with a pair's two keys at one home, every run would
    /// hold both of an address's entries and be twice as long.
    #[inline]
    fn home(&self, key: usize) -> usize {
        let (off, side) = (key / SIDES, key % SIDES);
        let spread = (off + side * (REGION_SLOTS / SIDES)) % REGION_SLOTS;
        (spread * SIDES + side) >> self.shift
    }

    /// Probes for `key`: the cell holding it, or the vacant cell that
    /// ends its probe sequence (the load bound keeps one in every table;
    /// a table without cells answers with a cell it does not have, and
    /// has no room for it either).
    #[inline]
    fn find(&self, key: usize) -> Result<usize, usize> {
        if self.keys.is_empty() {
            return Err(0);
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let held = self.keys[i & mask];
            if held == key as u16 {
                return Ok(i & mask);
            }
            if held == VACANT {
                return Err(i & mask);
            }
            i += 1;
        }
    }

    /// The slot `key` holds, vacant if none.
    #[inline]
    fn get(&self, key: usize) -> S {
        self.find(key).map_or(S::EMPTY, |at| self.slots[at])
    }

    /// True while one more cell can be filled without passing three
    /// quarters full.
    fn has_room(&self) -> bool {
        (self.live as usize + 1) * 4 <= self.keys.len() * 3
    }

    /// Fills the vacant cell `at`.
    fn fill(&mut self, at: usize, key: usize, slot: S) {
        (self.keys[at], self.slots[at]) = (key as u16, slot);
        self.live += 1;
    }

    /// Vacates cell `hole` and closes the gap: every later cell of the
    /// run moves back unless that would put it before its home.
    fn delete(&mut self, mut hole: usize) {
        let mask = self.keys.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let key = self.keys[j];
            if key == VACANT {
                break;
            }
            let home = self.home(key.into());
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.keys[hole] = key;
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.keys[hole] = VACANT;
        self.live -= 1;
    }

    /// Replaces the table by one of `cap` cells holding the same entries,
    /// for a region of `key_space` keys.
    fn rehash(&mut self, cap: usize, key_space: usize) {
        let keys = std::mem::replace(&mut self.keys, vec![VACANT; cap].into_boxed_slice());
        let slots = std::mem::replace(&mut self.slots, vec![S::EMPTY; cap].into_boxed_slice());
        self.shift = key_space.next_power_of_two().trailing_zeros() - cap.trailing_zeros();
        self.live = 0;
        for (&key, &slot) in keys.iter().zip(&slots[..]).filter(|(&key, _)| key != VACANT) {
            let at = self.find(key.into()).expect_err("keys in a table are distinct");
            self.fill(at, key.into(), slot);
        }
    }

    /// The occupied cells as `(key, slot)`, in any order.
    fn entries(&self) -> impl Iterator<Item = (usize, S)> + '_ {
        let cells = self.keys.iter().zip(&self.slots[..]);
        cells.filter(|(&key, _)| key != VACANT).map(|(&key, &slot)| (usize::from(key), slot))
    }
}

/// A dense region's cells: a boxed slice that starts on a cache line, so
/// that no cell whose size divides 64 bytes straddles two lines. A
/// `Box<[T]>` is aligned only to `T`, which leaves every other 32-byte
/// pair across a line boundary.
struct Lines<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: a `Lines` owns its cells as a `Box<[T]>` does.
unsafe impl<T: Copy + Send> Send for Lines<T> {}
// SAFETY: shared access only reads the cells, as through a `&[T]`.
unsafe impl<T: Copy + Sync> Sync for Lines<T> {}

impl<T: Copy> Lines<T> {
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len).and_then(|l| l.align_to(64)).expect("a region fits in memory")
    }

    /// `len` cells, each `fill`.
    fn filled(len: usize, fill: T) -> Self {
        let layout = Self::layout(len);
        if layout.size() == 0 {
            return Lines { ptr: NonNull::dangling(), len };
        }
        // SAFETY: the layout's size is not zero.
        let ptr = NonNull::new(unsafe { alloc(layout) }.cast::<T>());
        let ptr = ptr.unwrap_or_else(|| handle_alloc_error(layout));
        for i in 0..len {
            // SAFETY: `i` is inside the allocation of `len` cells just made.
            unsafe { ptr.as_ptr().add(i).write(fill) };
        }
        Lines { ptr, len }
    }
}

impl<T: Copy> Default for Lines<T> {
    fn default() -> Self {
        Lines { ptr: NonNull::dangling(), len: 0 }
    }
}

impl<T: Copy> Drop for Lines<T> {
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        if layout.size() != 0 {
            // SAFETY: `filled` allocated the cells with this layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
        }
    }
}

impl<T: Copy> Deref for Lines<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `len` initialised cells (or a dangling, empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> DerefMut for Lines<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, borrowed uniquely through `self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for Lines<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An approximate set-with-payload over addresses: a fixed-length array
/// of cells indexed by one hash function, each cell `SIDES` slots.
///
/// Supported operations follow the paper: *insertion* ([`Signature::put`]),
/// *membership check* ([`Signature::get`]) and element removal for
/// variable-lifetime analysis ([`Signature::remove`]). Hash collisions
/// overwrite — the signature deliberately keeps no collision chains,
/// which is what bounds both its memory (never more than the `N`-cell
/// array, plus a directory under 1 % of it and one region in transit)
/// and its per-access cost (one hash, one array access once a region is
/// dense). Collisions surface as false positives/negatives in the
/// profiled dependences at the rates quantified in Table I and predicted
/// by [`predicted_fpr`](crate::predicted_fpr).
///
/// The slot count is an upper bound on memory, not a reservation: see
/// the [module documentation](self) for how the array is stored.
#[derive(Debug)]
pub struct Signature<S: Slot, const SIDES: usize = 1> {
    /// Per region, its cell array once it is dense; empty before, so that
    /// `dense[r].get(off)` is the dense test and the bounds check in one.
    /// Apart from `tables` to keep what the dense path reads small.
    dense: Box<[Lines<[S; SIDES]>]>,
    /// Per region, its table while it is sparse.
    tables: Box<[Table<S, SIDES>]>,
    hash: SigHash,
    occupied: [usize; SIDES],
    evictions: [u64; SIDES],
    /// Bytes allocated now: the two directories, tables and dense regions.
    held: usize,
    /// The most `held` has been, counting both forms of a region while
    /// it is converted or its table regrown.
    peak: usize,
}

/// The read and the write signature of Algorithm 1 as one table of
/// `{read, write}` slot pairs: what [`AccessStore::pair`] makes of two
/// [`Signature`]s.
pub type SigPair<S> = Signature<S, 2>;

/// Splits a logical slot index into region and offset within it.
#[inline]
fn split(idx: usize) -> (usize, usize) {
    (idx >> REGION_BITS, idx & (REGION_SLOTS - 1))
}

impl<S: Slot, const SIDES: usize> Signature<S, SIDES> {
    /// Creates a signature with `nslots` cells, all vacant.
    pub fn new(nslots: usize) -> Self {
        let regions = nslots.div_ceil(REGION_SLOTS);
        let held = regions * (size_of::<Lines<[S; SIDES]>>() + size_of::<Table<S, SIDES>>());
        Signature {
            dense: (0..regions).map(|_| Lines::default()).collect(),
            tables: (0..regions).map(|_| Table::none()).collect(),
            hash: SigHash::new(nslots),
            occupied: [0; SIDES],
            evictions: [0; SIDES],
            held,
            peak: held,
        }
    }

    /// Number of cells (of slots, per side).
    #[inline]
    pub fn nslots(&self) -> usize {
        self.hash.nslots()
    }

    /// The cell index `addr` maps to.
    #[inline]
    pub fn slot_of(&self, addr: Address) -> usize {
        self.hash.index(addr)
    }

    /// The slot of `side` at logical index `idx`.
    #[inline]
    fn lookup(&self, idx: usize, side: usize) -> S {
        let (r, off) = split(idx);
        match self.dense[r].get(off) {
            Some(cell) => cell[side],
            None => self.lookup_sparse(r, off * SIDES + side),
        }
    }

    /// The sparse half of `lookup`. Kept out of line so that the probe
    /// sites inline only the dense test and one load.
    #[inline(never)]
    fn lookup_sparse(&self, r: usize, key: usize) -> S {
        self.tables[r].get(key)
    }

    /// Stores `slot()` as `side` of logical index `idx`; true if that slot
    /// was vacant before. Counters are the caller's. The slot is built in
    /// the arm that stores it: built ahead of the branch it goes to the
    /// stack for the sparse call as narrow stores, and the dense arm's
    /// 16-byte copy from there stalls on them (get-and-put 7.1 → 11.8 ns
    /// in L1). For the same reason the old slot is tested, never copied
    /// out whole.
    #[inline]
    fn replace(&mut self, idx: usize, side: usize, slot: impl Fn() -> S) -> bool {
        let (r, off) = split(idx);
        match self.dense[r].get_mut(off) {
            Some(cell) => {
                let was_vacant = cell[side].is_empty();
                cell[side] = slot();
                was_vacant
            }
            None => self.replace_sparse(r, off * SIDES + side, slot()),
        }
    }

    /// The sparse half of `replace`, out of line like `lookup_sparse`.
    #[inline(never)]
    fn replace_sparse(&mut self, r: usize, key: usize, slot: S) -> bool {
        let table = &mut self.tables[r];
        match table.find(key) {
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
                        table.fill(at, key, slot);
                    } else {
                        self.grow(r, key, slot);
                    }
                }
                true
            }
        }
    }

    /// Stores a new key in a sparse region whose table is full: in a
    /// table twice the size — or, when that table would cost more than
    /// half the region's cell array, in that array, which the region is
    /// from then on.
    fn grow(&mut self, r: usize, key: usize, slot: S) {
        // [`REGION_SLOTS`], or what is left for the last region.
        let cells = (self.nslots() - r * REGION_SLOTS).min(REGION_SLOTS);
        let table = &mut self.tables[r];
        let was = table.keys.len() * Table::<S, SIDES>::CELL;
        let cap = (table.keys.len() * 2).max(MIN_CELLS);
        let (grown, array) = (cap * Table::<S, SIDES>::CELL, cells * size_of::<[S; SIDES]>());
        if grown * 2 > array {
            let mut dense = Lines::filled(cells, [S::EMPTY; SIDES]);
            for (held, slot) in table.entries().chain([(key, slot)]) {
                dense[held / SIDES][held % SIDES] = slot;
            }
            self.dense[r] = dense;
            self.reallocated(was, array);
            self.tables[r] = Table::none();
        } else {
            table.rehash(cap, cells * SIDES);
            let at = table.find(key).expect_err("the key is new to the region");
            table.fill(at, key, slot);
            self.reallocated(was, grown);
        }
    }

    /// Accounts for `now` bytes allocated and filled before the `was`
    /// bytes they replace are freed.
    fn reallocated(&mut self, was: usize, now: usize) {
        self.peak = self.peak.max(self.held + now);
        self.held = self.held + now - was;
    }

    /// Overwrites `side` of a cell by index, keeping `occupied` true.
    fn set_slot(&mut self, idx: usize, side: usize, slot: S) {
        match (self.replace(idx, side, || slot), slot.is_empty()) {
            (true, false) => self.occupied[side] += 1,
            (false, true) => self.occupied[side] -= 1,
            _ => {}
        }
    }

    /// Records `entry` as `side` of the cell `addr` maps to.
    #[inline]
    fn put_side(&mut self, side: usize, addr: Address, entry: SigEntry) {
        if self.replace(self.hash.index(addr), side, || S::encode(entry)) {
            self.occupied[side] += 1;
        } else {
            self.evictions[side] += 1;
        }
    }

    /// Vacates every side of the cell `addr` maps to.
    fn remove_cell(&mut self, addr: Address) {
        let (r, off) = split(self.hash.index(addr));
        let was_vacant = match self.dense[r].get_mut(off) {
            Some(cell) => {
                let was_vacant = cell.each_ref().map(|slot| slot.is_empty());
                *cell = [S::EMPTY; SIDES];
                was_vacant
            }
            None => {
                std::array::from_fn(|side| self.replace_sparse(r, off * SIDES + side, S::EMPTY))
            }
        };
        for (occupied, was_vacant) in self.occupied.iter_mut().zip(was_vacant) {
            *occupied -= usize::from(!was_vacant);
        }
    }

    /// Drops every entry and every region, keeping the counters that
    /// outlive a `clear`.
    fn reset(&mut self) {
        *self =
            Signature { evictions: self.evictions, peak: self.peak, ..Self::new(self.nslots()) };
    }

    /// Starts loading the cell `addr` maps to: the cell of a dense
    /// region, or each side's home cell — its key line and its slot — in
    /// a sparse one.
    #[inline]
    fn hint(&self, addr: Address) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let (r, off) = split(self.hash.index(addr));
            let hint = |line: *const i8| {
                // SAFETY: `_mm_prefetch` is a hint that never faults and is
                // part of the x86_64 baseline (SSE); the pointer is a live
                // cell's.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(line) }
            };
            match self.dense[r].get(off) {
                Some(cell) => hint((cell as *const [S; SIDES]).cast()),
                None => {
                    let table = &self.tables[r];
                    let mask = table.keys.len().wrapping_sub(1);
                    for side in 0..SIDES {
                        let home = table.home(off * SIDES + side) & mask;
                        if let (Some(key), Some(slot)) =
                            (table.keys.get(home), table.slots.get(home))
                        {
                            hint((key as *const u16).cast());
                            hint((slot as *const S).cast());
                        }
                    }
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// The occupied slots of `side` as `(index, slot)`, in ascending
    /// index order whatever the regions' forms.
    fn held(&self, side: usize) -> impl Iterator<Item = (usize, S)> + '_ {
        let regions = self.dense.iter().zip(&self.tables[..]).enumerate();
        regions.flat_map(move |(r, (dense, table))| {
            let mut sparse: Vec<(usize, S)> = table
                .entries()
                .filter(|&(key, _)| key % SIDES == side)
                .map(|(key, slot)| (key / SIDES, slot))
                .collect();
            sparse.sort_unstable_by_key(|&(off, _)| off);
            let cells = dense.iter().map(move |cell| cell[side]).enumerate();
            let slots = cells.chain(sparse).filter(|(_, slot)| !slot.is_empty());
            slots.map(move |(off, slot)| (r * REGION_SLOTS + off, slot))
        })
    }

    /// Checkpoint form of one side: slot count (so restore can verify the
    /// hash configuration matches), eviction counter, then one record per
    /// *occupied* slot in ascending index order — sparse, since real
    /// signatures run far below full occupancy. Entries round-trip
    /// through [`SigEntry`], so a lossy layout (e.g.
    /// [`CompactSlot`](crate::CompactSlot)) restores to exactly the bytes
    /// it would have held anyway. How a region is stored, and whether the
    /// slots were one side of a pair, leaves no trace.
    fn save_side(&self, side: usize, out: &mut ByteWriter) {
        out.u64(self.nslots() as u64);
        out.u64(self.evictions[side]);
        out.u64(self.occupied[side] as u64);
        for (idx, slot) in self.held(side) {
            let e = slot.decode().expect("held slots are occupied");
            out.u64(idx as u64);
            out.u32(e.loc.pack());
            out.u16(e.thread);
            out.u64(e.ts);
        }
    }

    /// Replaces every side's entries and counters by what `save_side`
    /// wrote for it, each entry's clock passed through `clock`.
    fn restore_sides(
        &mut self,
        blobs: [&[u8]; SIDES],
        clock: &dyn Fn(Timestamp) -> Timestamp,
    ) -> Result<(), WireError> {
        self.reset();
        for (side, bytes) in blobs.into_iter().enumerate() {
            let mut r = ByteReader::new(bytes);
            let nslots = r.u64()? as usize;
            if nslots != self.nslots() {
                return Err(WireError::Invalid("signature slot count differs from checkpoint"));
            }
            let evictions = r.u64()?;
            let occupied = r.u64()? as usize;
            for _ in 0..occupied {
                let idx = r.u64()? as usize;
                if idx >= nslots {
                    return Err(WireError::Invalid("slot index out of range"));
                }
                let loc = dp_types::SourceLoc::unpack(r.u32()?);
                let thread = r.u16()?;
                let ts = clock(r.u64()?);
                self.set_slot(idx, side, S::encode(SigEntry { loc, thread, ts }));
            }
            if !r.is_done() {
                return Err(WireError::Invalid("trailing bytes after signature state"));
            }
            self.evictions[side] = evictions;
        }
        Ok(())
    }

    /// The most bytes this signature has had allocated at once —
    /// directory, sparse tables, dense regions and, while a region is
    /// converted or its table regrown, both of its forms — not the
    /// `nslots × SIDES × size_of::<S>()` it may grow to.
    fn peak_bytes(&self) -> usize {
        self.peak + size_of::<Self>()
    }

    fn held_bytes(&self) -> usize {
        self.held + size_of::<Self>()
    }
}

impl<S: Slot> AccessStore for Signature<S> {
    const HAS_TS: bool = S::HAS_TS;
    const HAS_CLOCK: bool = S::HAS_CLOCK;

    type Pair = SigPair<S>;

    /// Moves both signatures' slots and counters into one table of pairs.
    fn pair(read: Self, write: Self) -> SigPair<S> {
        assert_eq!(read.nslots(), write.nslots(), "the two signatures share one hash");
        let mut pair = SigPair::new(read.nslots());
        for (side, half) in [read, write].iter().enumerate() {
            for (idx, slot) in half.held(0) {
                pair.set_slot(idx, side, slot);
            }
            pair.evictions[side] = half.evictions[0];
        }
        pair
    }

    #[inline]
    fn get(&self, addr: Address) -> Option<SigEntry> {
        self.lookup(self.hash.index(addr), 0).decode()
    }

    #[inline]
    fn put(&mut self, addr: Address, entry: SigEntry) {
        self.put_side(0, addr, entry);
    }

    #[inline]
    fn remove(&mut self, addr: Address) {
        self.remove_cell(addr);
    }

    fn clear(&mut self) {
        self.reset();
    }

    fn occupied(&self) -> usize {
        self.occupied[0]
    }

    fn evictions(&self) -> u64 {
        self.evictions[0]
    }

    fn slot_capacity(&self) -> usize {
        self.nslots()
    }

    /// The high-water mark of the bytes allocated (see `peak_bytes`).
    fn memory_usage(&self) -> usize {
        self.peak_bytes()
    }

    fn bytes_held(&self) -> usize {
        self.held_bytes()
    }

    fn save_state(&self, out: &mut ByteWriter) -> bool {
        self.save_side(0, out);
        true
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.restore_sides([bytes], &|ts| ts)
    }
}

impl<S: Slot> SigPair<S> {
    /// What [`PairStore::record`] of `side` returns, decoded field by
    /// field from the two slots where they lie.
    #[inline]
    fn last(side: Side, read: &S, write: &S) -> Last {
        Last { write: write.decode(), read: (side == Side::Write).then(|| read.decode()).flatten() }
    }

    /// The sparse half of `record`'s probe, out of line like
    /// `lookup_sparse`: where each side of offset `off` lies in region
    /// `r`'s table. Only positions cross the call; the slots are decoded
    /// where they lie, as in the dense arm (an entry decoded here and
    /// handed back would be copied out whole from the narrow stores that
    /// wrote it).
    #[inline(never)]
    fn find_sides(&self, r: usize, off: usize) -> [Result<usize, usize>; 2] {
        let table = &self.tables[r];
        [table.find(2 * off), table.find(2 * off + 1)]
    }
}

impl<S: Slot> PairStore for SigPair<S> {
    /// One hash, one directory load and, once the region is dense, one
    /// pair cell: both entries come out of the cell the store goes
    /// into. They are decoded in place, field by field, before the store:
    /// copied out whole, a slot that the access before stored field by
    /// field (a read, then a write, of one address) is a 16-byte load
    /// that waits for those narrow stores to drain.
    #[inline(always)]
    fn record(&mut self, side: Side, addr: Address, entry: SigEntry) -> Last {
        let s = side as usize;
        let (r, off) = split(self.hash.index(addr));
        let (last, was_vacant) = match self.dense[r].get_mut(off) {
            Some(cell) => {
                let last = Self::last(side, &cell[0], &cell[1]);
                let was_vacant = cell[s].is_empty();
                cell[s] = S::encode(entry);
                (last, was_vacant)
            }
            None => {
                let at = self.find_sides(r, off);
                let table = &self.tables[r];
                let vacant = S::EMPTY;
                let slot = |side: usize| at[side].ok().map_or(&vacant, |at| &table.slots[at]);
                let last = Self::last(side, slot(0), slot(1));
                // Built where it is stored, as in `replace`.
                match at[s] {
                    Ok(at) if !S::encode(entry).is_empty() => {
                        self.tables[r].slots[at] = S::encode(entry);
                    }
                    _ => {
                        self.replace_sparse(r, 2 * off + s, S::encode(entry));
                    }
                }
                (last, at[s].is_err())
            }
        };
        if was_vacant {
            self.occupied[s] += 1;
        } else {
            self.evictions[s] += 1;
        }
        last
    }

    #[inline]
    fn prefetch(&self, addr: Address) {
        self.hint(addr);
    }

    fn get(&self, addr: Address) -> [Option<SigEntry>; 2] {
        let idx = self.hash.index(addr);
        [0, 1].map(|side| self.lookup(idx, side).decode())
    }

    fn put(&mut self, side: Side, addr: Address, entry: SigEntry) {
        self.put_side(side as usize, addr, entry);
    }

    fn remove(&mut self, addr: Address) {
        self.remove_cell(addr);
    }

    fn clear(&mut self) {
        self.reset();
    }

    fn occupied(&self, side: Side) -> usize {
        self.occupied[side as usize]
    }

    fn evictions(&self, side: Side) -> u64 {
        self.evictions[side as usize]
    }

    fn slot_capacity(&self) -> usize {
        self.nslots()
    }

    fn memory_usage(&self) -> usize {
        self.peak_bytes()
    }

    fn bytes_held(&self) -> usize {
        self.held_bytes()
    }

    fn save_state(&self, side: Side, out: &mut ByteWriter) -> bool {
        self.save_side(side as usize, out);
        true
    }

    fn restore_state(
        &mut self,
        read: &[u8],
        write: &[u8],
        clock: &dyn Fn(Timestamp) -> Timestamp,
    ) -> Result<(), WireError> {
        self.restore_sides([read, write], clock)
    }

    /// Rewrites every slot in place, a table cell left vacant too (it is
    /// never read).
    fn reclock(&mut self, clock: &dyn Fn(Timestamp) -> Timestamp) {
        let cells = self.dense.iter_mut().flat_map(|dense| dense.iter_mut().flatten());
        for slot in cells.chain(self.tables.iter_mut().flat_map(|table| table.slots.iter_mut())) {
            if let Some(e) = slot.decode() {
                *slot = S::encode(SigEntry { ts: clock(e.ts), ..e });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{CompactSlot, EpochSlot, ExtendedSlot};
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
        s.set_slot(2, 0, ExtendedSlot::encode(e(1, 0, 0)));
        assert_eq!(s.occupied(), 1);
        s.set_slot(2, 0, ExtendedSlot::EMPTY);
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
    fn addrs_by_slot<S: Slot, const SIDES: usize>(s: &Signature<S, SIDES>) -> Vec<Address> {
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
            s.tables[0].keys.iter().map(|&off| if off == VACANT { 0 } else { off }).collect()
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

    /// A pair region holds 1 536 entries of either side as a table — 2 048
    /// cells of 18 bytes, as two single regions at their limit did — and
    /// becomes 4 096 cache-line-aligned 32-byte pairs on the next.
    #[test]
    fn pair_region_converts_past_1536_entries_into_aligned_pairs() {
        let mut s: SigPair<ExtendedSlot> = SigPair::new(2 * REGION_SLOTS);
        let vacant = s.bytes_held();
        let addrs = addrs_by_slot(&s);
        for (i, &addr) in addrs[..768].iter().enumerate() {
            let ts = 2 * i as u64;
            let last = s.record(Side::Write, addr, e(1, 0, ts + 1));
            assert_eq!(last, Last { write: None, read: None });
            let last = s.record(Side::Read, addr, e(2, 0, ts + 2));
            assert_eq!(last, Last { write: Some(e(1, 0, ts + 1)), read: None });
        }
        assert_eq!(s.bytes_held() - vacant, 2048 * 18, "still a table");
        assert!(s.dense[0].is_empty());
        let last = s.record(Side::Write, addrs[0], e(3, 0, 9_999));
        assert_eq!(last, Last { write: Some(e(1, 0, 1)), read: Some(e(2, 0, 2)) });
        assert_eq!(s.bytes_held() - vacant, 2048 * 18, "an overwrite adds no entry");
        s.record(Side::Write, addrs[768], e(4, 0, 10_000));
        assert_eq!(s.bytes_held() - vacant, REGION_SLOTS * 32, "dense");
        assert_eq!(s.dense[0].as_ptr() as usize % 64, 0);
        assert_eq!(s.get(addrs[0]), [Some(e(2, 0, 2)), Some(e(3, 0, 9_999))]);
        assert_eq!(s.get(addrs[768]), [None, Some(e(4, 0, 10_000))]);
        let occupied = [Side::Read, Side::Write].map(|side| PairStore::occupied(&s, side));
        assert_eq!(occupied, [768, 769]);
        assert_eq!([s.evictions[0], s.evictions[1]], [0, 1]);
        s.remove(addrs[0]);
        assert_eq!(s.get(addrs[0]), [None, None]);
        assert_eq!(
            [PairStore::occupied(&s, Side::Read), PairStore::occupied(&s, Side::Write)],
            [767, 768]
        );
    }

    /// With epoch slots a pair region's table cell is 10 bytes and its
    /// dense form 4 096 16-byte pairs, past the same 1 536 entries; a
    /// reclock rewrites every held clock in either form, and a reclocked
    /// restore fits timestamps no epoch slot holds.
    #[test]
    fn epoch_pair_region_halves_the_bytes_and_reclocks() {
        let mut s: SigPair<EpochSlot> = SigPair::new(2 * REGION_SLOTS);
        let vacant = s.bytes_held();
        let addrs = addrs_by_slot(&s);
        for (i, &addr) in addrs[..768].iter().enumerate() {
            s.record(Side::Write, addr, e(1, 0, 2 * i as u64 + 1));
            s.record(Side::Read, addr, e(2, 0, 2 * i as u64 + 2));
        }
        assert_eq!(s.bytes_held() - vacant, 2048 * 10, "still a table");
        s.reclock(&|ts| ts + 5);
        assert_eq!(s.get(addrs[3]), [Some(e(2, 0, 13)), Some(e(1, 0, 12))]);
        s.record(Side::Write, addrs[768], e(4, 0, 10_000));
        assert_eq!(s.bytes_held() - vacant, REGION_SLOTS * 16, "dense");
        assert_eq!(s.dense[0].as_ptr() as usize % 64, 0);
        s.reclock(&|ts| ts / 2);
        assert_eq!(s.get(addrs[3]), [Some(e(2, 0, 6)), Some(e(1, 0, 6))]);
        assert_eq!(s.get(addrs[768]), [None, Some(e(4, 0, 5_000))]);

        let mut wide: SigPair<ExtendedSlot> = SigPair::new(2 * REGION_SLOTS);
        wide.put(Side::Write, addrs[1], e(1, 0, 7 << 32));
        wide.put(Side::Read, addrs[1], e(2, 0, 9 << 32));
        let blobs = Side::BOTH.map(|side| {
            let mut out = ByteWriter::new();
            assert!(PairStore::save_state(&wide, side, &mut out));
            out.into_bytes()
        });
        s.restore_state(&blobs[0], &blobs[1], &|ts| ts >> 32).unwrap();
        assert_eq!(s.get(addrs[1]), [Some(e(2, 0, 9)), Some(e(1, 0, 7))]);
        assert_eq!(s.get(addrs[3]), [None, None]);
    }

    /// Two signatures joined into a pair keep their entries and counters,
    /// and each side saves what its signature saved.
    #[test]
    fn pair_of_two_signatures_keeps_both() {
        let mut read: Signature<ExtendedSlot> = Signature::new(5_000);
        let mut write: Signature<ExtendedSlot> = Signature::new(5_000);
        for a in 0..2_000u64 {
            write.put(a * 8, e(1, 0, a));
            if a % 3 == 0 {
                read.put(a * 8, e(2, 1, a));
            }
        }
        let save = |f: &dyn Fn(&mut ByteWriter)| {
            let mut out = ByteWriter::new();
            f(&mut out);
            out.into_bytes()
        };
        let halves = [
            save(&|out| assert!(read.save_state(out))),
            save(&|out| assert!(write.save_state(out))),
        ];
        let pair = Signature::pair(read, write);
        for (side, half) in Side::BOTH.into_iter().zip(&halves) {
            assert!(&save(&|out| assert!(PairStore::save_state(&pair, side, out))) == half);
        }
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
