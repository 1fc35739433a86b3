//! Slot layouts and the logical entry they encode.
//!
//! The paper's slots store "the source line number where the memory access
//! occurs" in a few bytes. Our [`CompactSlot`] does exactly that (a packed
//! `file:line` in 4 bytes — the size the paper's evaluation assumes).
//! Loop-carried classification needs, besides, to place the access
//! against the loop boundaries: [`EpochSlot`] stores the count of
//! boundaries before it, an *epoch*, at 8 bytes per slot, which is all a
//! single-thread stream in program order needs. Multi-threaded targets
//! (Section V) need the accessing thread and the access timestamp itself;
//! the [`ExtendedSlot`] stores those at 16 bytes per slot. The
//! memory-overhead ablation (DESIGN.md E13) quantifies the difference.

use dp_types::{SourceLoc, ThreadId, Timestamp};

/// The logical content of one signature slot: who accessed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigEntry {
    /// Source location of the most recent access.
    pub loc: SourceLoc,
    /// Thread that performed it (0 when the layout cannot store it).
    pub thread: ThreadId,
    /// The access's clock (0 when the layout cannot store one): its
    /// timestamp, or on an epoch layout its epoch.
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
    /// Whether this layout preserves the access timestamp, which
    /// timestamp-reversal (race) detection needs.
    const HAS_TS: bool;
    /// Whether this layout keeps a clock that loop-carried classification
    /// can read: the timestamp, or an epoch when [`Slot::HAS_TS`] is false.
    const HAS_CLOCK: bool = Self::HAS_TS;
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

/// 8-byte slot for sequential targets: location and epoch, the number
/// of loop boundaries (`LoopBegin`, `LoopIter`) the stream passed before
/// the access. On one thread in program order the epoch answers the only
/// question classification asks of a timestamp — which side of each
/// active loop's marks the access lies — so a `{read, write}` pair is 16
/// bytes, four to a cache line. The engine keeps the epoch within 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSlot {
    loc: u32,
    epoch: u32,
}

impl Slot for EpochSlot {
    const HAS_TS: bool = false;
    const HAS_CLOCK: bool = true;
    const EMPTY: Self = EpochSlot { loc: 0, epoch: 0 };

    #[inline]
    fn encode(entry: SigEntry) -> Self {
        debug_assert!(entry.ts <= u32::MAX.into(), "an epoch fits in 32 bits");
        EpochSlot { loc: entry.loc.pack(), epoch: entry.ts as u32 }
    }

    #[inline]
    fn decode(self) -> Option<SigEntry> {
        if self.loc == 0 {
            None
        } else {
            Some(SigEntry { loc: SourceLoc::unpack(self.loc), thread: 0, ts: self.epoch.into() })
        }
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.loc == 0
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
    fn epoch_roundtrip_drops_thread() {
        let e = SigEntry::new(loc(4, 58), 2, u32::MAX.into());
        let d = EpochSlot::encode(e).decode().unwrap();
        assert_eq!((d.loc, d.thread, d.ts), (e.loc, 0, e.ts));
    }

    #[test]
    fn empties() {
        assert!(CompactSlot::EMPTY.is_empty());
        assert!(ExtendedSlot::EMPTY.is_empty());
        assert!(EpochSlot::EMPTY.is_empty());
        assert!(CompactSlot::EMPTY.decode().is_none());
        assert!(ExtendedSlot::EMPTY.decode().is_none());
        assert!(!CompactSlot::encode(SigEntry::new(loc(1, 1), 0, 0)).is_empty());
    }

    #[test]
    fn slot_sizes_match_paper_accounting() {
        assert_eq!(std::mem::size_of::<CompactSlot>(), 4);
        assert_eq!(std::mem::size_of::<EpochSlot>(), 8);
        assert_eq!(std::mem::size_of::<ExtendedSlot>(), 16);
    }
}
