//! Slot layouts and the logical entry they encode.
//!
//! The paper's slots store "the source line number where the memory access
//! occurs" in a few bytes. Our [`CompactSlot`] does exactly that (a packed
//! `file:line` in 4 bytes — the size the paper's evaluation assumes).
//! Multi-threaded targets (Section V) and loop-carried classification
//! additionally need the accessing thread and the access timestamp; the
//! [`ExtendedSlot`] stores those at 16 bytes per slot. The memory-overhead
//! ablation (DESIGN.md E13) quantifies the difference.

use dp_types::{SourceLoc, ThreadId, Timestamp};

/// The logical content of one signature slot: who accessed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigEntry {
    /// Source location of the most recent access.
    pub loc: SourceLoc,
    /// Thread that performed it (0 when the layout cannot store it).
    pub thread: ThreadId,
    /// Timestamp of the access (0 when the layout cannot store it).
    pub ts: Timestamp,
}

impl SigEntry {
    /// Creates an entry.
    #[inline]
    pub fn new(loc: SourceLoc, thread: ThreadId, ts: Timestamp) -> Self {
        SigEntry { loc, thread, ts }
    }
}

/// A fixed-width slot representation.
///
/// Implementations must reserve one bit pattern ([`Slot::EMPTY`]) for the
/// vacant state, distinguishable from every encoded entry.
pub trait Slot: Copy + Send + 'static {
    /// Whether this layout preserves the access timestamp. Engines consult
    /// this to decide if loop-carried classification and timestamp-reversal
    /// (race) detection are meaningful.
    const HAS_TS: bool;
    /// The vacant slot.
    const EMPTY: Self;

    /// Encodes an entry. Lossy layouts drop fields they cannot hold.
    fn encode(entry: SigEntry) -> Self;
    /// Decodes the slot; `None` if vacant.
    fn decode(self) -> Option<SigEntry>;
    /// True if vacant.
    fn is_empty(self) -> bool;
}

/// 4-byte slot: packed `file:line` only. This is the configuration whose
/// memory footprint the paper reports ("each slot is four bytes; 10⁸ slots
/// consume only 382 MB").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactSlot(u32);

impl Slot for CompactSlot {
    const HAS_TS: bool = false;
    const EMPTY: Self = CompactSlot(0);

    #[inline]
    fn encode(entry: SigEntry) -> Self {
        CompactSlot(entry.loc.pack())
    }

    #[inline]
    fn decode(self) -> Option<SigEntry> {
        if self.0 == 0 {
            None
        } else {
            Some(SigEntry { loc: SourceLoc::unpack(self.0), thread: 0, ts: 0 })
        }
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// 16-byte slot: location, thread and timestamp. Required for
/// multi-threaded targets (thread ids in dependence records, Figure 3;
/// timestamp-reversal race detection, Section V-B) and for loop-carried
/// dependence classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendedSlot {
    loc: u32,
    thread: u16,
    _pad: u16,
    ts: u64,
}

impl Slot for ExtendedSlot {
    const HAS_TS: bool = true;
    const EMPTY: Self = ExtendedSlot { loc: 0, thread: 0, _pad: 0, ts: 0 };

    #[inline]
    fn encode(entry: SigEntry) -> Self {
        ExtendedSlot { loc: entry.loc.pack(), thread: entry.thread, _pad: 0, ts: entry.ts }
    }

    #[inline]
    fn decode(self) -> Option<SigEntry> {
        if self.loc == 0 {
            None
        } else {
            Some(SigEntry { loc: SourceLoc::unpack(self.loc), thread: self.thread, ts: self.ts })
        }
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.loc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    #[test]
    fn compact_roundtrip_drops_thread_and_ts() {
        let e = SigEntry::new(loc(1, 60), 3, 99);
        let d = CompactSlot::encode(e).decode().unwrap();
        assert_eq!(d.loc, e.loc);
        assert_eq!(d.thread, 0);
        assert_eq!(d.ts, 0);
    }

    #[test]
    fn extended_roundtrip_exact() {
        let e = SigEntry::new(loc(4, 58), 2, 1_000_000);
        assert_eq!(ExtendedSlot::encode(e).decode().unwrap(), e);
    }

    #[test]
    fn empties() {
        assert!(CompactSlot::EMPTY.is_empty());
        assert!(ExtendedSlot::EMPTY.is_empty());
        assert!(CompactSlot::EMPTY.decode().is_none());
        assert!(ExtendedSlot::EMPTY.decode().is_none());
        assert!(!CompactSlot::encode(SigEntry::new(loc(1, 1), 0, 0)).is_empty());
    }

    #[test]
    fn slot_sizes_match_paper_accounting() {
        assert_eq!(std::mem::size_of::<CompactSlot>(), 4);
        assert_eq!(std::mem::size_of::<ExtendedSlot>(), 16);
    }
}
