//! A stride-compressed access store — the core idea of SD3, the paper's
//! primary comparator.
//!
//! "SD3 \[16\] exploits pipeline and data parallelism to extract data
//! dependences from loops. At the same time, SD3 reduces the memory
//! overhead by compressing strided accesses using a finite state machine."
//!
//! Each *source line* owns a list of **runs** `(base, stride, len)`,
//! learned by a per-line FSM exactly as in SD3: the first access opens a
//! run, the second fixes the stride, subsequent accesses either extend the
//! run or open a new one. Membership is answered from a coarse spatial
//! bucket index over the runs. Memory therefore scales with the number of
//! *distinct strided sequences*, not with the number of addresses —
//! excellent for affine array walks, no better than per-address storage
//! for random access.
//!
//! The compression trades the same things the paper's comparison hinges
//! on: per-address timestamps are gone (`HAS_TS = false`, so loop-carried
//! classification and race detection are unavailable) and when several
//! lines interleave over one address the attribution is approximate (the
//! run with the most recent activity wins, not necessarily the most
//! recent toucher of that address). Experiment E14 quantifies both sides.

use crate::entry::SigEntry;
use crate::store::{AccessStore, Halves};
use dp_types::{Address, FxHashMap, FxHashSet, SourceLoc, ThreadId, Timestamp};

const BUCKET_SHIFT: u32 = 12; // 4 KiB spatial buckets

#[derive(Debug, Clone)]
struct Run {
    base: Address,
    stride: u64, // 0 while the FSM is still learning (single element)
    len: u64,
    loc: SourceLoc,
    thread: ThreadId,
    last_ts: Timestamp,
}

impl Run {
    #[inline]
    fn end(&self) -> Address {
        if self.len <= 1 {
            self.base
        } else {
            self.base + self.stride * (self.len - 1)
        }
    }

    #[inline]
    fn contains(&self, addr: Address) -> bool {
        if addr < self.base || addr > self.end() {
            return false;
        }
        if self.len <= 1 || self.stride == 0 {
            return addr == self.base;
        }
        (addr - self.base).is_multiple_of(self.stride)
    }
}

/// SD3-style stride-compressed access store.
pub struct StrideStore {
    runs: Vec<Run>,
    /// Open (extendable) run per source line, by packed location.
    open_by_line: FxHashMap<u32, usize>,
    /// Spatial index: bucket -> run ids overlapping the bucket.
    buckets: FxHashMap<u64, Vec<usize>>,
    /// Addresses explicitly forgotten (variable-lifetime analysis).
    removed: FxHashSet<Address>,
}

impl Default for StrideStore {
    fn default() -> Self {
        Self::new()
    }
}

impl StrideStore {
    /// Empty store.
    pub fn new() -> Self {
        StrideStore {
            runs: Vec::new(),
            open_by_line: FxHashMap::default(),
            buckets: FxHashMap::default(),
            removed: FxHashSet::default(),
        }
    }

    fn index_address(&mut self, run_id: usize, addr: Address) {
        let b = addr >> BUCKET_SHIFT;
        let ids = self.buckets.entry(b).or_default();
        if ids.last() != Some(&run_id) {
            ids.push(run_id);
        }
    }

    fn open_run(&mut self, entry: SigEntry, addr: Address) {
        let id = self.runs.len();
        self.runs.push(Run {
            base: addr,
            stride: 0,
            len: 1,
            loc: entry.loc,
            thread: entry.thread,
            last_ts: entry.ts,
        });
        self.open_by_line.insert(entry.loc.pack(), id);
        self.index_address(id, addr);
    }

    /// Number of runs learned so far (compression diagnostic: compare to
    /// the number of distinct addresses).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

impl AccessStore for StrideStore {
    const HAS_TS: bool = false;

    type Pair = Halves<Self>;

    fn pair(read: Self, write: Self) -> Halves<Self> {
        Halves::new(read, write)
    }

    fn get(&self, addr: Address) -> Option<SigEntry> {
        if self.removed.contains(&addr) {
            return None;
        }
        let ids = self.buckets.get(&(addr >> BUCKET_SHIFT))?;
        ids.iter()
            .filter_map(|&i| {
                let r = &self.runs[i];
                r.contains(addr).then_some(r)
            })
            .max_by_key(|r| r.last_ts)
            .map(|r| SigEntry { loc: r.loc, thread: r.thread, ts: 0 })
    }

    fn put(&mut self, addr: Address, entry: SigEntry) {
        self.removed.remove(&addr);
        let key = entry.loc.pack();
        if let Some(&id) = self.open_by_line.get(&key) {
            // Borrow juggling: decide on the FSM transition first.
            enum Action {
                Touch,
                LearnStride(u64),
                Extend,
                Reopen,
            }
            let action = {
                let r = &self.runs[id];
                if addr == r.base && r.len == 1 {
                    Action::Touch
                } else if r.len == 1 && addr > r.base {
                    Action::LearnStride(addr - r.base)
                } else if r.stride > 0 && addr == r.end() + r.stride {
                    Action::Extend
                } else if r.contains(addr) {
                    Action::Touch
                } else {
                    Action::Reopen
                }
            };
            match action {
                Action::Touch => {
                    let r = &mut self.runs[id];
                    r.last_ts = entry.ts;
                    r.thread = entry.thread;
                }
                Action::LearnStride(s) => {
                    {
                        let r = &mut self.runs[id];
                        r.stride = s;
                        r.len = 2;
                        r.last_ts = entry.ts;
                        r.thread = entry.thread;
                    }
                    self.index_address(id, addr);
                }
                Action::Extend => {
                    {
                        let r = &mut self.runs[id];
                        r.len += 1;
                        r.last_ts = entry.ts;
                        r.thread = entry.thread;
                    }
                    self.index_address(id, addr);
                }
                Action::Reopen => self.open_run(entry, addr),
            }
        } else {
            self.open_run(entry, addr);
        }
    }

    fn remove(&mut self, addr: Address) {
        self.removed.insert(addr);
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.open_by_line.clear();
        self.buckets.clear();
        self.removed.clear();
    }

    fn occupied(&self) -> usize {
        self.runs.len()
    }

    fn memory_usage(&self) -> usize {
        use std::mem::size_of;
        self.runs.len() * size_of::<Run>()
            + self.open_by_line.len() * (size_of::<(u32, usize)>() + 8)
            + self.buckets.values().map(|v| v.capacity() * size_of::<usize>() + 24).sum::<usize>()
            + self.removed.len() * (size_of::<Address>() + 8)
            + size_of::<Self>()
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
    fn strided_walk_compresses_to_one_run() {
        let mut s = StrideStore::new();
        for i in 0..10_000u64 {
            s.put(0x1000 + i * 8, e(5, i + 1));
        }
        assert_eq!(s.run_count(), 1, "affine walk must stay one run");
        // Every address answers with the line.
        for i in [0u64, 1, 9_999] {
            assert_eq!(s.get(0x1000 + i * 8).unwrap().loc.line, 5);
        }
        // Off-stride addresses are not claimed.
        assert_eq!(s.get(0x1004), None);
        assert!(s.memory_usage() < 200_000, "{}", s.memory_usage());
    }

    #[test]
    fn random_access_degenerates_to_many_runs() {
        let mut s = StrideStore::new();
        let mut rng = 7u64;
        for i in 0..2000u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.put((rng >> 20) & !7, e(5, i));
        }
        assert!(s.run_count() > 500, "{}", s.run_count());
    }

    #[test]
    fn two_lines_two_runs() {
        let mut s = StrideStore::new();
        for i in 0..100u64 {
            s.put(0x1000 + i * 8, e(5, 2 * i));
            s.put(0x8000 + i * 8, e(9, 2 * i + 1));
        }
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.get(0x1000).unwrap().loc.line, 5);
        assert_eq!(s.get(0x8000).unwrap().loc.line, 9);
    }

    #[test]
    fn latest_active_run_wins_on_overlap() {
        let mut s = StrideStore::new();
        for i in 0..10u64 {
            s.put(0x1000 + i * 8, e(5, i));
        }
        for i in 0..10u64 {
            s.put(0x1000 + i * 8, e(9, 100 + i));
        }
        // Line 9's run is more recent.
        assert_eq!(s.get(0x1008).unwrap().loc.line, 9);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut s = StrideStore::new();
        s.put(0x40, e(1, 1));
        s.remove(0x40);
        assert_eq!(s.get(0x40), None);
        s.put(0x40, e(2, 2));
        assert_eq!(s.get(0x40).unwrap().loc.line, 2);
    }

    #[test]
    fn non_monotone_stride_reopens() {
        let mut s = StrideStore::new();
        s.put(0x100, e(5, 1));
        s.put(0x110, e(5, 2)); // stride 0x10 learned
        s.put(0x120, e(5, 3)); // extend
        s.put(0x90, e(5, 4)); // backwards: reopen
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.get(0x90).unwrap().loc.line, 5);
        assert_eq!(s.get(0x120).unwrap().loc.line, 5);
    }

    #[test]
    fn clear_empties() {
        let mut s = StrideStore::new();
        s.put(0x8, e(1, 1));
        s.clear();
        assert_eq!(s.get(0x8), None);
        assert_eq!(s.run_count(), 0);
    }
}
