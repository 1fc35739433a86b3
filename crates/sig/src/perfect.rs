//! The "perfect signature" accuracy baseline (Section VI-A).
//!
//! "Essentially, the perfect signature is a table where each memory address
//! has its own entry, so that false positives are never produced." We use a
//! hash map with the fast Fx hasher; exactness, not speed, is its job —
//! it defines ground truth for the FPR/FNR measurements of Table I. Its
//! pair form, [`PerfectPair`], is one map from address to last read and
//! last write, so that Algorithm 1 pays one lookup an access.

use crate::entry::SigEntry;
use crate::store::{AccessStore, Last, PairStore, Side};
use dp_types::{Address, ByteReader, ByteWriter, FxHashMap, SourceLoc, Timestamp, WireError};

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

/// Writes one store's checkpoint form (see
/// [`PerfectSignature::save_state`]).
fn save(out: &mut ByteWriter, evictions: u64, mut entries: Vec<(Address, SigEntry)>) {
    entries.sort_unstable_by_key(|&(addr, _)| addr);
    out.u64(evictions);
    out.u64(entries.len() as u64);
    for (addr, e) in entries {
        out.u64(addr);
        out.u32(e.loc.pack());
        out.u16(e.thread);
        out.u64(e.ts);
    }
}

/// Reads what [`save`] wrote: the eviction counter and the entries.
fn load(bytes: &[u8]) -> Result<(u64, Vec<(Address, SigEntry)>), WireError> {
    let mut r = ByteReader::new(bytes);
    let evictions = r.u64()?;
    let n = r.u64()?;
    let mut entries = Vec::new();
    for _ in 0..n {
        let addr = r.u64()?;
        let loc = dp_types::SourceLoc::unpack(r.u32()?);
        let thread = r.u16()?;
        let ts = r.u64()?;
        entries.push((addr, SigEntry { loc, thread, ts }));
    }
    if !r.is_done() {
        return Err(WireError::Invalid("trailing bytes after perfect-signature state"));
    }
    Ok((evictions, entries))
}

impl AccessStore for PerfectSignature {
    const HAS_TS: bool = true;

    type Pair = PerfectPair;

    fn pair(read: Self, write: Self) -> PerfectPair {
        let mut pair = PerfectPair::default();
        for (side, half) in [read, write].into_iter().enumerate() {
            pair.evictions[side] = half.evictions;
            pair.fill(side, half.map);
        }
        pair
    }

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
        save(out, self.evictions, self.map.iter().map(|(&addr, &e)| (addr, e)).collect());
        true
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let (evictions, entries) = load(bytes)?;
        self.map = entries.into_iter().collect();
        self.evictions = evictions;
        Ok(())
    }
}

/// The perfect signature's pair form: each address's last read and last
/// write under one key.
#[derive(Debug, Default, Clone)]
pub struct PerfectPair {
    map: FxHashMap<Address, Both>,
    occupied: [usize; 2],
    evictions: [u64; 2],
}

/// An address's last read and last write, each packed as a checkpoint
/// packs it (exact for every valid location), with which of the two it
/// has: 32 bytes where two `Option<SigEntry>` take 64, so a run that
/// touches a million addresses once each grows and scans half the map.
#[derive(Debug, Default, Clone, Copy)]
struct Both {
    loc: [u32; 2],
    thread: [u16; 2],
    held: [bool; 2],
    ts: [u64; 2],
}

impl Both {
    #[inline]
    fn get(&self, side: usize) -> Option<SigEntry> {
        let (loc, thread, ts) =
            (SourceLoc::unpack(self.loc[side]), self.thread[side], self.ts[side]);
        self.held[side].then_some(SigEntry { loc, thread, ts })
    }

    /// Stores `e` as `side`; true if the side held an entry before.
    #[inline]
    fn set(&mut self, side: usize, e: SigEntry) -> bool {
        (self.loc[side], self.thread[side], self.ts[side]) = (e.loc.pack(), e.thread, e.ts);
        std::mem::replace(&mut self.held[side], true)
    }
}

impl PerfectPair {
    /// Records each `(addr, entry)` as the latest of `side`.
    fn fill(&mut self, side: usize, entries: impl IntoIterator<Item = (Address, SigEntry)>) {
        for (addr, e) in entries {
            if !self.map.entry(addr).or_default().set(side, e) {
                self.occupied[side] += 1;
            }
        }
    }
}

impl PairStore for PerfectPair {
    /// Inlined into both of Algorithm 1's probe sites, so that the
    /// entries it returns are never copied out whole from the narrow
    /// stores that decoded them.
    #[inline(always)]
    fn record(&mut self, side: Side, addr: Address, entry: SigEntry) -> Last {
        let both = self.map.entry(addr).or_default();
        let last = Last {
            write: both.get(Side::Write as usize),
            read: if side == Side::Write { both.get(Side::Read as usize) } else { None },
        };
        if both.set(side as usize, entry) {
            self.evictions[side as usize] += 1;
        } else {
            self.occupied[side as usize] += 1;
        }
        last
    }

    fn get(&self, addr: Address) -> [Option<SigEntry>; 2] {
        let both = self.map.get(&addr).copied().unwrap_or_default();
        [0, 1].map(|side| both.get(side))
    }

    fn put(&mut self, side: Side, addr: Address, entry: SigEntry) {
        self.record(side, addr, entry);
    }

    fn remove(&mut self, addr: Address) {
        let held = self.map.remove(&addr).unwrap_or_default().held;
        for (occupied, held) in self.occupied.iter_mut().zip(held) {
            *occupied -= usize::from(held);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.occupied = [0; 2];
    }

    fn occupied(&self, side: Side) -> usize {
        self.occupied[side as usize]
    }

    fn evictions(&self, side: Side) -> u64 {
        self.evictions[side as usize]
    }

    fn slot_capacity(&self) -> usize {
        0
    }

    fn memory_usage(&self) -> usize {
        self.map.capacity() * (std::mem::size_of::<(Address, Both)>() + 1)
            + std::mem::size_of::<Self>()
    }

    fn bytes_held(&self) -> usize {
        self.memory_usage()
    }

    /// What [`PerfectSignature::save_state`] wrote for the side's store.
    fn save_state(&self, side: Side, out: &mut ByteWriter) -> bool {
        let entries =
            self.map.iter().filter_map(|(&addr, both)| Some((addr, both.get(side as usize)?)));
        save(out, self.evictions[side as usize], entries.collect());
        true
    }

    fn restore_state(
        &mut self,
        read: &[u8],
        write: &[u8],
        clock: &dyn Fn(Timestamp) -> Timestamp,
    ) -> Result<(), WireError> {
        let loaded = [load(read)?, load(write)?];
        *self = PerfectPair::default();
        for (side, (evictions, entries)) in loaded.into_iter().enumerate() {
            self.evictions[side] = evictions;
            self.fill(
                side,
                entries.into_iter().map(|(a, e)| (a, SigEntry { ts: clock(e.ts), ..e })),
            );
        }
        Ok(())
    }

    fn reclock(&mut self, clock: &dyn Fn(Timestamp) -> Timestamp) {
        for both in self.map.values_mut() {
            for side in 0..2 {
                if both.held[side] {
                    both.ts[side] = clock(both.ts[side]);
                }
            }
        }
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

    /// The pair answers, counts and saves what the two stores it replaces
    /// would: each half's checkpoint bytes are that store's.
    #[test]
    fn pair_equals_two_stores() {
        let (mut read, mut write) = (PerfectSignature::new(), PerfectSignature::new());
        let mut pair = PerfectSignature::pair(PerfectSignature::new(), PerfectSignature::new());
        for i in 0..3_000u64 {
            let (addr, entry) = (i % 700 * 8, SigEntry::new(loc(1, 1 + i as u32 % 50), 0, i));
            let side = if i % 3 == 0 { Side::Read } else { Side::Write };
            let last = pair.record(side, addr, entry);
            assert_eq!(last.write, write.get(addr));
            assert_eq!(last.read, if side == Side::Write { read.get(addr) } else { None });
            [&mut read, &mut write][side as usize].put(addr, entry);
            if i % 11 == 0 {
                pair.remove(addr);
                read.remove(addr);
                write.remove(addr);
            }
        }
        let saved = |f: &dyn Fn(&mut ByteWriter) -> bool| {
            let mut out = ByteWriter::new();
            assert!(f(&mut out));
            out.into_bytes()
        };
        let halves = [saved(&|out| read.save_state(out)), saved(&|out| write.save_state(out))];
        for (side, store) in Side::BOTH.into_iter().zip([&read, &write]) {
            assert_eq!(pair.occupied(side), store.occupied());
            assert_eq!(pair.evictions(side), store.evictions());
            assert!(saved(&|out| pair.save_state(side, out)) == halves[side as usize]);
        }
        let mut restored = PerfectPair::default();
        restored.restore_state(&halves[0], &halves[1], &|ts| ts).unwrap();
        for side in Side::BOTH {
            assert!(saved(&|out| restored.save_state(side, out)) == halves[side as usize]);
        }
        let joined = PerfectSignature::pair(read, write);
        assert!(saved(&|out| joined.save_state(Side::Write, out)) == halves[1]);
    }

    /// The clock map reaches every held entry, on restore and in place,
    /// and leaves a vacant side vacant.
    #[test]
    fn pair_reclocks_held_entries() {
        let at = |line, ts| SigEntry::new(loc(1, line), 0, ts);
        let mut pair = PerfectPair::default();
        pair.put(Side::Write, 0x8, at(1, 10));
        pair.put(Side::Read, 0x10, at(2, 20));
        pair.reclock(&|ts| ts / 10);
        assert_eq!(pair.get(0x8), [None, Some(at(1, 1))]);
        assert_eq!(pair.get(0x10), [Some(at(2, 2)), None]);
        let halves = Side::BOTH.map(|side| {
            let mut out = ByteWriter::new();
            assert!(pair.save_state(side, &mut out));
            out.into_bytes()
        });
        let mut restored = PerfectPair::default();
        restored.restore_state(&halves[0], &halves[1], &|ts| ts + 5).unwrap();
        assert_eq!(restored.get(0x8), [None, Some(at(1, 6))]);
        assert_eq!(restored.get(0x10), [Some(at(2, 7)), None]);
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
