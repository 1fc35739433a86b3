//! Model-based property tests for the access stores: the *exact* stores
//! must agree with a hash-map model on arbitrary operation sequences, the
//! approximate stores must satisfy their documented contracts, the
//! regioned [`Signature`] must be indistinguishable from the flat slot
//! array it is specified by, and its pair form [`SigPair`] from two such
//! arrays under one hash.

use dp_sig::signature::REGION_SLOTS;
use dp_sig::{
    AccessStore, CompactSlot, EpochSlot, ExtendedSlot, HashHistory, Last, PairStore,
    PerfectSignature, ShadowMemory, Side, SigEntry, SigHash, SigPair, Signature, Slot, StrideStore,
};
use dp_types::loc::loc;
use dp_types::ByteWriter;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy)]
enum Op {
    Put { slot: u8, line: u16 },
    Remove { slot: u8 },
    Get { slot: u8 },
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (any::<u8>(), 1u16..1000).prop_map(|(slot, line)| Op::Put { slot, line }),
            1 => any::<u8>().prop_map(|slot| Op::Remove { slot }),
            3 => any::<u8>().prop_map(|slot| Op::Get { slot }),
        ],
        1..max,
    )
}

fn addr(slot: u8) -> u64 {
    0x10_0000 + slot as u64 * 8
}

fn check_exact<S: AccessStore>(mut store: S, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model: HashMap<u64, u32> = HashMap::new();
    let mut ts = 0u64;
    for &op in ops {
        match op {
            Op::Put { slot, line } => {
                ts += 1;
                store.put(addr(slot), SigEntry::new(loc(1, line as u32), 0, ts));
                model.insert(addr(slot), line as u32);
            }
            Op::Remove { slot } => {
                store.remove(addr(slot));
                model.remove(&addr(slot));
            }
            Op::Get { slot } => {
                let got = store.get(addr(slot)).map(|e| e.loc.line);
                prop_assert_eq!(got, model.get(&addr(slot)).copied());
            }
        }
    }
    prop_assert_eq!(store.occupied(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn perfect_matches_model(ops in ops(300)) {
        check_exact(PerfectSignature::new(), &ops)?;
    }

    #[test]
    fn shadow_matches_model(ops in ops(300)) {
        check_exact(ShadowMemory::new(), &ops)?;
    }

    #[test]
    fn hash_history_matches_model(ops in ops(300), buckets in 1usize..64) {
        check_exact(HashHistory::new(buckets), &ops)?;
    }

    /// A signature big enough that the 256 possible addresses cannot
    /// collide behaves exactly like the model too.
    #[test]
    fn oversized_signature_matches_model(ops in ops(300)) {
        // 2^22 slots for 256 addresses: collision would need two of the
        // fixed addresses hashing together, which a seeded run either
        // always or never exhibits — verified to be collision-free.
        let sig = Signature::<ExtendedSlot>::new(1 << 22);
        let distinct: Vec<u64> = (0..=255u8).map(addr).collect();
        let mut seen = std::collections::HashSet::new();
        for &a in &distinct {
            prop_assume!(seen.insert(sig.slot_of(a)));
        }
        check_exact(sig, &ops)?;
    }

    /// StrideStore contract: an address that was `put` and not removed is
    /// either reported with *some* line (possibly another line's run —
    /// the documented approximation) or not at all; a removed address is
    /// never reported; memory stays below per-address storage on a
    /// strided workload.
    #[test]
    fn stride_store_contract(ops in ops(300)) {
        let mut store = StrideStore::new();
        let mut present = std::collections::HashSet::new();
        let mut ts = 0u64;
        for &op in &ops {
            match op {
                Op::Put { slot, line } => {
                    ts += 1;
                    store.put(addr(slot), SigEntry::new(loc(1, line as u32), 0, ts));
                    present.insert(addr(slot));
                }
                Op::Remove { slot } => {
                    store.remove(addr(slot));
                    present.remove(&addr(slot));
                }
                Op::Get { slot } => {
                    let got = store.get(addr(slot));
                    if !present.contains(&addr(slot)) {
                        prop_assert!(got.is_none(), "removed/absent address reported");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The regioned signature against the flat array it replaced.
// ---------------------------------------------------------------------

/// The signature as the paper draws it and as it was stored before the
/// regions: one `Vec` of slots indexed by the hash. The oracle.
struct Flat<S> {
    slots: Vec<S>,
    hash: SigHash,
    occupied: usize,
    evictions: u64,
}

impl<S: Slot> Flat<S> {
    fn new(n: usize) -> Self {
        Flat { slots: vec![S::EMPTY; n], hash: SigHash::new(n), occupied: 0, evictions: 0 }
    }

    fn get(&self, addr: u64) -> Option<SigEntry> {
        self.slots[self.hash.index(addr)].decode()
    }

    fn put(&mut self, addr: u64, entry: SigEntry) {
        let slot = &mut self.slots[self.hash.index(addr)];
        if slot.is_empty() {
            self.occupied += 1;
        } else {
            self.evictions += 1;
        }
        *slot = S::encode(entry);
    }

    fn remove(&mut self, addr: u64) {
        let slot = &mut self.slots[self.hash.index(addr)];
        if !slot.is_empty() {
            *slot = S::EMPTY;
            self.occupied -= 1;
        }
    }

    fn clear(&mut self) {
        self.slots.fill(S::EMPTY);
        self.occupied = 0;
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.u64(self.slots.len() as u64);
        out.u64(self.evictions);
        out.u64(self.occupied as u64);
        for (idx, e) in self.slots.iter().enumerate().filter_map(|(i, s)| Some((i, s.decode()?))) {
            out.u64(idx as u64);
            out.u32(e.loc.pack());
            out.u16(e.thread);
            out.u64(e.ts);
        }
        out.into_bytes()
    }
}

/// Entries a full region's sparse table holds before the next one turns
/// the region dense (1 024 cells at three quarters, for both layouts).
const SPARSE_LIMIT: usize = 768;

/// Addresses of one signature size, sorted into its regions so that a
/// run can leave every kind of region behind: of each four consecutive
/// regions the first is offered enough addresses to go dense, the second
/// addresses for exactly [`SPARSE_LIMIT`] distinct slots plus one `tip`
/// for a slot beyond them, the third a few, the fourth none.
struct Pool {
    nslots: usize,
    regions: Vec<Vec<u64>>,
    tips: Vec<Option<u64>>,
}

impl Pool {
    fn new(nslots: usize) -> Pool {
        let hash = SigHash::new(nslots);
        let count = nslots.div_ceil(REGION_SLOTS);
        let mut regions = vec![Vec::new(); count];
        let mut tips = vec![None; count];
        let mut slots: Vec<HashSet<usize>> = vec![HashSet::new(); count];
        for addr in (0..3000 * count as u64).map(|i| 0x7f00_0000 + i * 8) {
            let idx = hash.index(addr);
            let r = idx / REGION_SLOTS;
            let seen = slots[r].contains(&idx);
            let quota = [usize::MAX, SPARSE_LIMIT, 40, 0][r % 4];
            if seen || slots[r].len() < quota {
                slots[r].insert(idx);
                regions[r].push(addr);
            } else if r % 4 == 1 {
                tips[r].get_or_insert(addr);
            }
        }
        Pool { nslots, regions, tips }
    }

    fn addr(&self, region: usize, nth: usize) -> Option<u64> {
        let addrs = &self.regions[region % self.regions.len()];
        (!addrs.is_empty()).then(|| addrs[nth % addrs.len()])
    }
}

/// Slot counts under test: single slots, a short only region, one full
/// region, a one-slot last region, a short last region, many regions.
const SIZES: [usize; 7] = [1, 3, 128, 4096, 4097, 100_000, 1 << 20];

fn pools() -> &'static [Pool] {
    static POOLS: std::sync::OnceLock<Vec<Pool>> = std::sync::OnceLock::new();
    POOLS.get_or_init(|| SIZES.iter().map(|&n| Pool::new(n)).collect())
}

#[derive(Debug, Clone, Copy)]
enum SigOp {
    Put {
        region: usize,
        nth: usize,
        line: u32,
    },
    /// Puts the first `per_mille` thousandths of a region's addresses.
    Fill {
        region: usize,
        per_mille: usize,
    },
    /// Puts the one address that takes a region filled to the limit over it.
    Tip {
        region: usize,
    },
    Remove {
        region: usize,
        nth: usize,
    },
    /// Removes every `stride`-th of a region's addresses.
    Thin {
        region: usize,
        stride: usize,
    },
    Get {
        region: usize,
        nth: usize,
    },
    Clear,
    /// `save_state`, then `restore_state` into a fresh signature.
    Reload,
}

fn sig_ops() -> impl Strategy<Value = Vec<SigOp>> {
    let region = || 0usize..8;
    let nth = || 0usize..4000;
    prop::collection::vec(
        prop_oneof![
            8 => (region(), nth(), 1u32..5000)
                .prop_map(|(region, nth, line)| SigOp::Put { region, nth, line }),
            3 => (region(), prop_oneof![2 => 0usize..1001, 1 => Just(1000usize)])
                .prop_map(|(region, per_mille)| SigOp::Fill { region, per_mille }),
            2 => region().prop_map(|region| SigOp::Tip { region }),
            4 => (region(), nth()).prop_map(|(region, nth)| SigOp::Remove { region, nth }),
            1 => (region(), 1usize..7).prop_map(|(region, stride)| SigOp::Thin { region, stride }),
            6 => (region(), nth()).prop_map(|(region, nth)| SigOp::Get { region, nth }),
            1 => Just(SigOp::Clear),
            1 => Just(SigOp::Reload),
        ],
        1..48,
    )
}

fn save<S: Slot>(sig: &Signature<S>) -> Vec<u8> {
    let mut out = ByteWriter::new();
    assert!(sig.save_state(&mut out));
    out.into_bytes()
}

fn check_against_flat<S: Slot>(pool: &Pool, ops: &[SigOp]) -> Result<(), TestCaseError> {
    let n = pool.nslots;
    let mut sig = Signature::<S>::new(n);
    let mut flat = Flat::<S>::new(n);
    let mut ts = 0u64;
    let mut entry = |line: u32| {
        ts += 1;
        SigEntry::new(loc((ts % 3) as u8 + 1, line), (ts % 5) as u16, ts)
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            SigOp::Put { region, nth, line } => {
                if let Some(addr) = pool.addr(region, nth) {
                    let e = entry(line);
                    sig.put(addr, e);
                    flat.put(addr, e);
                }
            }
            SigOp::Fill { region, per_mille } => {
                let addrs = &pool.regions[region % pool.regions.len()];
                for &addr in &addrs[..addrs.len() * per_mille / 1000] {
                    let e = entry(7);
                    sig.put(addr, e);
                    flat.put(addr, e);
                }
            }
            SigOp::Tip { region } => {
                if let Some(addr) = pool.tips[region % pool.tips.len()] {
                    let e = entry(9);
                    sig.put(addr, e);
                    flat.put(addr, e);
                }
            }
            SigOp::Remove { region, nth } => {
                if let Some(addr) = pool.addr(region, nth) {
                    sig.remove(addr);
                    flat.remove(addr);
                }
            }
            SigOp::Thin { region, stride } => {
                let addrs = &pool.regions[region % pool.regions.len()];
                for &addr in addrs.iter().step_by(stride) {
                    sig.remove(addr);
                    flat.remove(addr);
                }
            }
            SigOp::Get { region, nth } => {
                if let Some(addr) = pool.addr(region, nth) {
                    prop_assert_eq!(sig.get(addr), flat.get(addr), "n={} step {}", n, step);
                }
            }
            SigOp::Clear => {
                sig.clear();
                flat.clear();
            }
            SigOp::Reload => {
                let bytes = save(&sig);
                sig = Signature::new(n);
                sig.restore_state(&bytes).expect("own bytes restore");
            }
        }
        prop_assert_eq!(sig.occupied(), flat.occupied, "n={} after step {}: {:?}", n, step, op);
        prop_assert_eq!(sig.evictions(), flat.evictions, "n={} after step {}: {:?}", n, step, op);
        if step % 8 == 7 || step + 1 == ops.len() {
            prop_assert!(save(&sig) == flat.save_state(), "n={} after step {}: {:?}", n, step, op);
            for region in 0..pool.regions.len().min(8) {
                for nth in (0..4000).step_by(97) {
                    if let Some(addr) = pool.addr(region, nth) {
                        prop_assert_eq!(sig.get(addr), flat.get(addr));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]

    /// Whatever mix of vacant, sparse, full-to-the-limit and dense regions
    /// a run leaves behind, every answer, both counters and the
    /// checkpoint bytes are those of the flat array.
    #[test]
    fn regioned_signature_equals_flat_array(size in 0usize..SIZES.len(), ops in sig_ops()) {
        check_against_flat::<ExtendedSlot>(&pools()[size], &ops)?;
        check_against_flat::<CompactSlot>(&pools()[size], &ops)?;
    }
}

/// The deterministic walk the random one might miss: a region filled to
/// exactly the limit, tipped over, and emptied again, checked at each
/// stage — beside a dense, a sparse and a vacant neighbour.
#[test]
fn region_at_the_conversion_threshold_equals_flat_array() {
    let limit = [SigOp::Fill { region: 1, per_mille: 1000 }];
    let around = [
        SigOp::Fill { region: 0, per_mille: 1000 },
        SigOp::Fill { region: 2, per_mille: 1000 },
        SigOp::Fill { region: 1, per_mille: 1000 },
        SigOp::Reload,
        SigOp::Tip { region: 1 },
        SigOp::Reload,
        SigOp::Thin { region: 1, stride: 1 },
        SigOp::Thin { region: 0, stride: 2 },
        SigOp::Fill { region: 1, per_mille: 500 },
    ];
    for pool in pools().iter().filter(|p| p.nslots >= 2 * REGION_SLOTS) {
        let tip = pool.tips[1].expect("region 1 is offered a slot past the limit");
        let mut sig = Signature::<ExtendedSlot>::new(pool.nslots);
        let vacant = sig.bytes_held();
        for &addr in &pool.regions[1] {
            sig.put(addr, SigEntry::new(loc(1, 1), 0, 0));
        }
        assert_eq!(sig.occupied(), SPARSE_LIMIT);
        let table = sig.bytes_held() - vacant;
        assert_eq!(table, 1024 * 18, "n={}: at the limit the region is still a table", pool.nslots);
        sig.put(tip, SigEntry::new(loc(1, 1), 0, 0));
        assert_eq!(sig.bytes_held() - vacant, REGION_SLOTS * 16, "and one more makes it dense");
        for ops in [&limit[..], &around[..]] {
            check_against_flat::<ExtendedSlot>(pool, ops).unwrap();
            check_against_flat::<CompactSlot>(pool, ops).unwrap();
        }
    }
}

/// An entry whose location packs to zero encodes as the vacant slot; the
/// flat array counted such a put and stored nothing, and so does this.
#[test]
fn put_of_a_vacant_encoding_equals_flat_array() {
    for n in [64usize, REGION_SLOTS] {
        let mut sig = Signature::<ExtendedSlot>::new(n);
        let mut flat = Flat::<ExtendedSlot>::new(n);
        let nothing = SigEntry::new(loc(0, 0), 3, 9);
        let steps: [(u64, SigEntry); 5] = [
            (0x10, nothing),
            (0x18, SigEntry::new(loc(1, 5), 0, 1)),
            (0x18, nothing),
            (0x18, SigEntry::new(loc(1, 6), 0, 2)),
            (0x10, nothing),
        ];
        for (addr, e) in steps {
            sig.put(addr, e);
            flat.put(addr, e);
            assert_eq!(sig.get(addr), flat.get(addr));
            assert_eq!((sig.occupied(), sig.evictions()), (flat.occupied, flat.evictions));
        }
        assert!(save(&sig) == flat.save_state());
    }
}

// ---------------------------------------------------------------------
// The pair form against two flat arrays under the one hash.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum PairOp {
    /// A per-side put.
    Put {
        region: usize,
        nth: usize,
        line: u32,
        write: bool,
    },
    /// Algorithm 1's probe: both entries back, then the store.
    Record {
        region: usize,
        nth: usize,
        line: u32,
        write: bool,
    },
    /// Records the first `per_mille` thousandths of a region's addresses,
    /// on both sides where the region takes both.
    Fill {
        region: usize,
        per_mille: usize,
    },
    /// Records the one address that takes a region filled on both sides
    /// to the pair limit over it.
    Tip {
        region: usize,
        write: bool,
    },
    Remove {
        region: usize,
        nth: usize,
    },
    Thin {
        region: usize,
        stride: usize,
    },
    /// Both entries, nothing stored.
    Get {
        region: usize,
        nth: usize,
    },
    Clear,
    /// Both halves' `save_state`, restored into a fresh pair.
    Reload,
}

fn pair_ops() -> impl Strategy<Value = Vec<PairOp>> {
    // Regions 0–3 take reads and writes, 4–7 reads only, 8–11 writes only.
    let region = || 0usize..12;
    let nth = || 0usize..4000;
    let put = (region(), nth(), 1u32..5000, any::<bool>());
    prop::collection::vec(
        prop_oneof![
            4 => put.prop_map(|(region, nth, line, write)| PairOp::Put { region, nth, line, write }),
            6 => (region(), nth(), 1u32..5000, any::<bool>())
                .prop_map(|(region, nth, line, write)| PairOp::Record { region, nth, line, write }),
            3 => (region(), prop_oneof![2 => 0usize..1001, 1 => Just(1000usize)])
                .prop_map(|(region, per_mille)| PairOp::Fill { region, per_mille }),
            2 => (region(), any::<bool>()).prop_map(|(region, write)| PairOp::Tip { region, write }),
            4 => (region(), nth()).prop_map(|(region, nth)| PairOp::Remove { region, nth }),
            1 => (region(), 1usize..7).prop_map(|(region, stride)| PairOp::Thin { region, stride }),
            4 => (region(), nth()).prop_map(|(region, nth)| PairOp::Get { region, nth }),
            1 => Just(PairOp::Clear),
            1 => Just(PairOp::Reload),
        ],
        1..48,
    )
}

/// The sides region `region` of the ops takes: the one asked for, or the
/// only one a read-only or write-only region has.
fn sides_of(region: usize, write: bool) -> Side {
    match (region / 4, write) {
        (1, _) | (0, false) => Side::Read,
        _ => Side::Write,
    }
}

/// The two flat arrays Algorithm 1 probed before the fusion.
struct FlatPair<S>([Flat<S>; 2]);

impl<S: Slot> FlatPair<S> {
    fn record(&mut self, side: Side, addr: u64, entry: SigEntry) -> Last {
        let [read, write] = &self.0;
        let last = Last {
            write: write.get(addr),
            read: if side == Side::Write { read.get(addr) } else { None },
        };
        self.0[side as usize].put(addr, entry);
        last
    }
}

fn save_half<S: Slot>(pair: &SigPair<S>, side: Side) -> Vec<u8> {
    let mut out = ByteWriter::new();
    assert!(pair.save_state(side, &mut out));
    out.into_bytes()
}

fn check_pair_against_flat<S: Slot>(pool: &Pool, ops: &[PairOp]) -> Result<(), TestCaseError> {
    let n = pool.nslots;
    let mut pair = SigPair::<S>::new(n);
    let mut flat = FlatPair([Flat::<S>::new(n), Flat::<S>::new(n)]);
    let mut ts = 0u64;
    let mut entry = |line: u32| {
        ts += 1;
        SigEntry::new(loc((ts % 3) as u8 + 1, line), (ts % 5) as u16, ts)
    };
    for (step, &op) in ops.iter().enumerate() {
        match op {
            PairOp::Put { region, nth, line, write } => {
                if let Some(addr) = pool.addr(region, nth) {
                    let (side, e) = (sides_of(region, write), entry(line));
                    pair.put(side, addr, e);
                    flat.0[side as usize].put(addr, e);
                }
            }
            PairOp::Record { region, nth, line, write } => {
                if let Some(addr) = pool.addr(region, nth) {
                    let (side, e) = (sides_of(region, write), entry(line));
                    let got = pair.record(side, addr, e);
                    prop_assert_eq!(got, flat.record(side, addr, e), "n={} step {}", n, step);
                }
            }
            PairOp::Fill { region, per_mille } => {
                let addrs = &pool.regions[region % pool.regions.len()];
                for &addr in &addrs[..addrs.len() * per_mille / 1000] {
                    for write in [true, false] {
                        let (side, e) = (sides_of(region, write), entry(7));
                        prop_assert_eq!(pair.record(side, addr, e), flat.record(side, addr, e));
                    }
                }
            }
            PairOp::Tip { region, write } => {
                if let Some(addr) = pool.tips[region % pool.tips.len()] {
                    let (side, e) = (sides_of(region, write), entry(9));
                    prop_assert_eq!(pair.record(side, addr, e), flat.record(side, addr, e));
                }
            }
            PairOp::Remove { region, nth } => {
                if let Some(addr) = pool.addr(region, nth) {
                    pair.remove(addr);
                    flat.0.iter_mut().for_each(|half| half.remove(addr));
                }
            }
            PairOp::Thin { region, stride } => {
                let addrs = &pool.regions[region % pool.regions.len()];
                for &addr in addrs.iter().step_by(stride) {
                    pair.remove(addr);
                    flat.0.iter_mut().for_each(|half| half.remove(addr));
                }
            }
            PairOp::Get { region, nth } => {
                if let Some(addr) = pool.addr(region, nth) {
                    let want = flat.0.each_ref().map(|half| half.get(addr));
                    prop_assert_eq!(pair.get(addr), want, "n={} step {}", n, step);
                }
            }
            PairOp::Clear => {
                pair.clear();
                flat.0.iter_mut().for_each(Flat::clear);
            }
            PairOp::Reload => {
                let [read, write] = Side::BOTH.map(|side| save_half(&pair, side));
                pair = SigPair::new(n);
                pair.restore_state(&read, &write, &|ts| ts).expect("own bytes restore");
            }
        }
        for side in Side::BOTH {
            let half = &flat.0[side as usize];
            let (occupied, evictions) = (pair.occupied(side), pair.evictions(side));
            prop_assert_eq!(occupied, half.occupied, "n={} after step {}: {:?}", n, step, op);
            prop_assert_eq!(evictions, half.evictions, "n={} after step {}: {:?}", n, step, op);
            if step % 8 == 7 || step + 1 == ops.len() {
                let same = save_half(&pair, side) == half.save_state();
                prop_assert!(same, "{:?} half, n={} after step {}: {:?}", side, n, step, op);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(56))]

    /// The pair is two flat arrays under one hash: whatever mix of
    /// vacant, sparse, at-the-limit, dense, read-only and write-only
    /// regions a run leaves, every probe result, each side's counters and
    /// each half's checkpoint bytes are the arrays'.
    #[test]
    fn signature_pair_equals_two_flat_arrays(size in 0usize..SIZES.len(), ops in pair_ops()) {
        check_pair_against_flat::<ExtendedSlot>(&pools()[size], &ops)?;
        check_pair_against_flat::<CompactSlot>(&pools()[size], &ops)?;
        check_pair_against_flat::<EpochSlot>(&pools()[size], &ops)?;
    }
}

/// The deterministic walk: a region filled on both sides to exactly the
/// pair limit (1 536 entries — still a table), tipped over into the dense
/// array, reloaded and emptied again, beside dense, sparse, read-only and
/// write-only neighbours.
#[test]
fn pair_region_at_the_conversion_threshold_equals_two_flat_arrays() {
    let walk = [
        PairOp::Fill { region: 0, per_mille: 1000 },
        PairOp::Fill { region: 2, per_mille: 1000 },
        PairOp::Fill { region: 1, per_mille: 1000 },
        PairOp::Reload,
        PairOp::Tip { region: 1, write: false },
        PairOp::Reload,
        PairOp::Fill { region: 4, per_mille: 1000 },
        PairOp::Fill { region: 9, per_mille: 1000 },
        PairOp::Thin { region: 1, stride: 1 },
        PairOp::Fill { region: 1, per_mille: 500 },
        PairOp::Reload,
    ];
    for pool in pools().iter().filter(|p| p.nslots >= 2 * REGION_SLOTS) {
        let tip = pool.tips[1].expect("region 1 is offered a slot past the limit");
        let mut pair = SigPair::<ExtendedSlot>::new(pool.nslots);
        let vacant = pair.bytes_held();
        for &addr in &pool.regions[1] {
            for side in Side::BOTH {
                pair.record(side, addr, SigEntry::new(loc(1, 1), 0, 0));
            }
        }
        assert_eq!(pair.occupied(Side::Read) + pair.occupied(Side::Write), 2 * SPARSE_LIMIT);
        let n = pool.nslots;
        assert_eq!(pair.bytes_held() - vacant, 2048 * 18, "n={n}: at the limit, still a table");
        pair.record(Side::Read, tip, SigEntry::new(loc(1, 1), 0, 0));
        assert_eq!(pair.bytes_held() - vacant, REGION_SLOTS * 32, "and one more makes it dense");
        check_pair_against_flat::<ExtendedSlot>(pool, &walk).unwrap();
        check_pair_against_flat::<CompactSlot>(pool, &walk).unwrap();
        check_pair_against_flat::<EpochSlot>(pool, &walk).unwrap();
    }
}
