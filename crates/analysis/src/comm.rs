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
//! squares of Figure 9. The analysis fold builds it
//! ([`report_for`](crate::report_for)); thread ids index it directly, so
//! its dimension must exceed the largest thread id (main = 0, spawned =
//! 1..).

use dp_types::ThreadId;

/// A producer × consumer communication-intensity matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl CommMatrix {
    /// Empty matrix of dimension `n`, filled by [`add`](Self::add).
    pub fn zero(n: usize) -> Self {
        CommMatrix { n, counts: vec![0; n * n] }
    }

    /// Adds `count` occurrences to the `producer -> consumer` cell.
    /// Out-of-range or self-communication contributions are ignored.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::mt_profile;
    use dp_core::ProfileResult;
    use dp_types::{loc::loc, MemAccess, TraceEvent};

    fn matrix(r: &ProfileResult, dim: usize) -> CommMatrix {
        crate::report_for(r, &[], dim).comm
    }

    #[test]
    fn producer_consumer_counted() {
        // thread 1 writes, thread 2 reads, 5 times
        let r = mt_profile((0..5u64).flat_map(|i| {
            [
                TraceEvent::Access(MemAccess::write(0x8, i * 2 + 1, loc(1, 1), 1, 1)),
                TraceEvent::Access(MemAccess::read(0x8, i * 2 + 2, loc(1, 2), 1, 2)),
            ]
        }));
        let m = matrix(&r, 4);
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
        let m = matrix(&r, 2);
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
        let m = matrix(&r, 2);
        let art = m.render_ascii();
        assert!(art.contains('█'), "{art}");
        assert!(art.contains('·'), "{art}");
        assert_eq!(art.lines().count(), 3);
    }
}
