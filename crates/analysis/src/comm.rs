//! Communication-pattern detection (Section VII-B, Figure 9).
//!
//! "Producer-consumer behavior describes a read-after-write relation
//! between memory operations, which can be easily derived from the RAW
//! dependences produced by our profiler. With detailed information such as
//! thread IDs available, we can generate the communication matrix directly
//! from the output of our profiler."
//!
//! The matrix is indexed `[producer][consumer]`; each cross-thread RAW
//! dependence contributes its dynamic occurrence count. The ASCII
//! rendering shades cells by intensity, darkest = strongest, like the
//! squares of Figure 9.

use dp_core::ProfileResult;
use dp_types::{DepType, ThreadId};

/// A producer × consumer communication-intensity matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl CommMatrix {
    /// Empty matrix of dimension `n` — the starting point for
    /// incremental construction (see `dp_analysis::incremental`).
    pub fn zero(n: usize) -> Self {
        CommMatrix { n, counts: vec![0; n * n] }
    }

    /// Adds `count` occurrences to the `producer -> consumer` cell.
    /// Out-of-range or self-communication contributions are ignored,
    /// mirroring [`communication_matrix`]'s filter.
    pub fn add(&mut self, producer: ThreadId, consumer: ThreadId, count: u64) {
        let (p, c) = (producer as usize, consumer as usize);
        if p != c && p < self.n && c < self.n {
            self.counts[p * self.n + c] += count;
        }
    }

    /// Matrix dimension (threads).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Communication intensity from `producer` to `consumer`.
    pub fn get(&self, producer: ThreadId, consumer: ThreadId) -> u64 {
        self.counts[producer as usize * self.n + consumer as usize]
    }

    /// Total cross-thread communication volume.
    pub fn total(&self) -> u64 {
        (0..self.n)
            .flat_map(|p| (0..self.n).map(move |c| (p, c)))
            .filter(|(p, c)| p != c)
            .map(|(p, c)| self.counts[p * self.n + c])
            .sum()
    }

    /// ASCII heatmap, producers on rows (the Figure 9 rendering).
    pub fn render_ascii(&self) -> String {
        const SHADES: [char; 5] = ['·', '░', '▒', '▓', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        out.push_str("prod\\cons ");
        for c in 0..self.n {
            out.push_str(&format!("{c:>3}"));
        }
        out.push('\n');
        for p in 0..self.n {
            out.push_str(&format!("{p:>9} "));
            for c in 0..self.n {
                let v = self.counts[p * self.n + c];
                let shade = if v == 0 {
                    SHADES[0]
                } else {
                    let bucket = (v * 4).div_ceil(max).min(4) as usize;
                    SHADES[bucket.max(1)]
                };
                out.push_str(&format!("  {shade}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the communication matrix from cross-thread RAW dependences.
/// Thread ids are used as matrix indices directly; `nthreads` must exceed
/// the largest thread id observed (main = 0, spawned = 1..).
pub fn communication_matrix(result: &ProfileResult, nthreads: usize) -> CommMatrix {
    let mut m = CommMatrix { n: nthreads, counts: vec![0; nthreads * nthreads] };
    for (d, val) in result.deps.dependences() {
        if d.edge.dtype != DepType::Raw {
            continue;
        }
        let (prod, cons) = (d.edge.source_thread as usize, d.sink.thread as usize);
        if prod == cons || prod >= nthreads || cons >= nthreads {
            continue;
        }
        m.counts[prod * nthreads + cons] += val.count;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::mt_profile;
    use dp_types::{loc::loc, MemAccess, TraceEvent};

    #[test]
    fn producer_consumer_counted() {
        // thread 1 writes, thread 2 reads, 5 times
        let r = mt_profile((0..5u64).flat_map(|i| {
            [
                TraceEvent::Access(MemAccess::write(0x8, i * 2 + 1, loc(1, 1), 1, 1)),
                TraceEvent::Access(MemAccess::read(0x8, i * 2 + 2, loc(1, 2), 1, 2)),
            ]
        }));
        let m = communication_matrix(&r, 4);
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.get(2, 1), 0);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn self_communication_excluded() {
        let r = mt_profile([
            TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 1)),
            TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 2), 1, 1)),
        ]);
        let m = communication_matrix(&r, 2);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn ascii_rendering_shades() {
        let mut evs = Vec::new();
        for i in 0..10u64 {
            evs.push(TraceEvent::Access(MemAccess::write(0x8, i * 2 + 1, loc(1, 1), 1, 0)));
            evs.push(TraceEvent::Access(MemAccess::read(0x8, i * 2 + 2, loc(1, 2), 1, 1)));
        }
        evs.push(TraceEvent::Access(MemAccess::write(0x10, 100, loc(1, 3), 1, 1)));
        evs.push(TraceEvent::Access(MemAccess::read(0x10, 101, loc(1, 4), 1, 0)));
        let r = mt_profile(evs);
        let m = communication_matrix(&r, 2);
        let art = m.render_ascii();
        assert!(art.contains('█'), "{art}");
        assert!(art.contains('·'), "{art}");
        assert_eq!(art.lines().count(), 3);
    }
}
