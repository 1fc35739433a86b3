//! The router's access statistics in bounded memory (Section IV-A).
//!
//! Redistribution only ever reads the `top_k` hottest addresses, so the
//! router keeps a fixed table of `(address, count)` buckets instead of a
//! count per address: one multiply picks the bucket, and the bucket runs
//! a majority vote among the addresses that share it — the resident
//! address counts up, an empty bucket is taken, any other address wears
//! the resident down by one. Consequences the rest of the engine relies
//! on:
//!
//! - **Exact until shared.** While no two counted addresses map to one
//!   bucket nothing is ever worn down and every count is the address's
//!   true access count; after that a count is a lower bound.
//! - **Heavy hitters survive.** An address with a strict majority of its
//!   bucket's accesses is resident with count ≥ its accesses − the
//!   others' — and a hot address is a majority of its bucket unless it
//!   shares the bucket with one as hot.
//! - **Deterministic.** The table is a function of the access sequence
//!   alone, so a resumed run continues exactly as an uninterrupted one.

use dp_types::Address;

/// Buckets in the table: 128 KiB of state however many addresses the
/// target touches. At this size `add` is ≈ 1 ns of the router's ≈ 19 per
/// event (measured by taking it out), the `--stats` golden's ten counts
/// stay exact and the skewed-stream experiment (E13b) still migrates its
/// hot addresses, so nothing pulls the size either way.
const BUCKETS: usize = 1 << BUCKET_BITS;
const BUCKET_BITS: u32 = 13;

#[derive(Clone, Copy, Default)]
struct Bucket {
    addr: Address,
    /// 0 = vacant (the stale `addr` is then meaningless).
    count: u64,
}

/// Fixed-size heavy-hitter summary of the accesses routed so far.
pub(crate) struct HotTable {
    buckets: Box<[Bucket]>,
}

impl HotTable {
    pub(crate) fn new() -> Self {
        HotTable { buckets: vec![Bucket::default(); BUCKETS].into_boxed_slice() }
    }

    #[inline]
    fn index(addr: Address) -> usize {
        // Fibonacci hashing of the 8-byte granule number: consecutive
        // array elements land in distinct buckets.
        ((addr >> 3).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BUCKET_BITS)) as usize
    }

    /// Counts `n` accesses of `addr` (`n` > 1 when folding a checkpoint
    /// written with one count per address).
    #[inline]
    pub(crate) fn add(&mut self, addr: Address, n: u64) {
        let b = &mut self.buckets[Self::index(addr)];
        if b.count == 0 {
            *b = Bucket { addr, count: n };
        } else if b.addr == addr {
            b.count = b.count.saturating_add(n);
        } else if b.count >= n {
            b.count -= n;
        } else {
            *b = Bucket { addr, count: n - b.count };
        }
    }

    /// Every resident `(address, count)`, in bucket order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Address, u64)> + '_ {
        self.buckets.iter().filter(|b| b.count > 0).map(|b| (b.addr, b.count))
    }

    /// The `k` hottest residents, count descending; ties break by address
    /// so the choice does not depend on bucket order.
    pub(crate) fn top(&self, k: usize) -> Vec<(Address, u64)> {
        let mut top: Vec<(Address, u64)> = self.entries().collect();
        top.sort_unstable_by_key(|&(a, c)| (std::cmp::Reverse(c), a));
        top.truncate(k);
        top
    }

    /// Bytes held — a constant.
    pub(crate) fn memory_usage(&self) -> usize {
        std::mem::size_of_val(&*self.buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_while_no_bucket_is_shared() {
        let mut t = HotTable::new();
        // 2 000 consecutive array elements: Fibonacci hashing keeps them
        // apart, so every count is the true one.
        for round in 0..5u64 {
            for i in 0..2000u64 {
                for _ in 0..=(i % 3 + round % 2) {
                    t.add(0x7000_0000 + i * 8, 1);
                }
            }
        }
        let got: std::collections::BTreeMap<_, _> = t.entries().collect();
        assert_eq!(got.len(), 2000, "two of the addresses shared a bucket");
        for i in 0..2000u64 {
            let want = (0..5u64).map(|round| i % 3 + round % 2 + 1).sum::<u64>();
            assert_eq!(got[&(0x7000_0000 + i * 8)], want);
        }
        // i % 3 == 2 is the hottest class (count 17); ties go to the
        // lowest addresses.
        let hottest = |i: u64| (0x7000_0000 + i * 8, 17);
        assert_eq!(t.top(3), vec![hottest(2), hottest(5), hottest(8)]);
        assert_eq!(t.memory_usage(), BUCKETS * 16);
    }

    #[test]
    fn a_bucket_majority_is_resident_with_at_least_its_margin() {
        let hot = 0x1000u64;
        let rivals: Vec<u64> = (1..)
            .map(|i| hot + i * 8)
            .filter(|&a| HotTable::index(a) == HotTable::index(hot))
            .take(5)
            .collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for trial in 0..200u64 {
            let mut t = HotTable::new();
            let (mut mine, mut theirs) = (0u64, 0u64);
            let len = 50 + trial * 7;
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // ≈ 60 % hot, the rest spread over the rivals.
                if x % 10 < 6 {
                    t.add(hot, 1);
                    mine += 1;
                } else {
                    t.add(rivals[(x >> 8) as usize % rivals.len()], 1);
                    theirs += 1;
                }
            }
            if mine > theirs {
                let got = t.entries().find(|&(a, _)| a == hot);
                let count = got.unwrap_or_else(|| panic!("trial {trial}: majority evicted")).1;
                assert!(count >= mine - theirs, "trial {trial}: {count} < {mine} - {theirs}");
                assert!(count <= mine, "a count never exceeds the truth");
            }
        }
    }

    #[test]
    fn weighted_fold_matches_unit_steps() {
        let (a, b) = (0x1000u64, {
            let i = HotTable::index(0x1000);
            (1..).map(|k| 0x1000 + k * 8).find(|&x| HotTable::index(x) == i).unwrap()
        });
        let mut unit = HotTable::new();
        let mut folded = HotTable::new();
        for _ in 0..7 {
            unit.add(a, 1);
        }
        for _ in 0..10 {
            unit.add(b, 1);
        }
        folded.add(a, 7);
        folded.add(b, 10);
        assert_eq!(unit.entries().collect::<Vec<_>>(), vec![(b, 3)]);
        assert_eq!(folded.entries().collect::<Vec<_>>(), vec![(b, 3)]);
    }
}
