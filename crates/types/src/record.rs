//! The one byte layout of an event, from the producer to the worker.
//!
//! A [`Record`] is an event's kind and a 16-byte body: what a DPSV
//! `Chunk` ([`crate::protocol`]), a trace file and a queued chunk hold.
//! A body holds what the profiler reads of its kind, and no thread or
//! timestamp: every stream of records is thread 0's, and its engines keep
//! the epoch clock. (The multi-threaded engine keeps its threads in
//! columns beside its records, and never leaves the process.)
//!
//! | tag | kind              | body word 0                | body word 1 |
//! |-----|-------------------|----------------------------|-------------|
//! | 0, 1| read, write       | address                    | location · variable |
//! | 2   | loop begin        | loop id · location         | 0 |
//! | 3   | loop iteration    | loop id                    | iteration |
//! | 4   | loop end          | loop id · location         | iterations |
//! | 5, 6| call begin, end   | function                   | 0 |
//! | 7   | deallocation      | base                       | length |
//!
//! `a · b` is two 32-bit fields in one word, `a` in the low half;
//! locations are packed ([`SourceLoc::pack`]). The tag is a byte of its
//! own because no 16 bytes hold every event: an access alone needs 129
//! bits.

use crate::access::{AccessKind, MemAccess};
use crate::event::TraceEvent;
use crate::ids::{ThreadId, Timestamp};
use crate::loc::SourceLoc;

/// Bytes of one record: the tag and the body.
pub const RECORD_BYTES: usize = 1 + 16;

/// What a [`Record`] holds; the discriminant is the record's tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// An access that reads.
    Read,
    /// An access that writes.
    Write,
    /// [`TraceEvent::LoopBegin`].
    LoopBegin,
    /// [`TraceEvent::LoopIter`].
    LoopIter,
    /// [`TraceEvent::LoopEnd`].
    LoopEnd,
    /// [`TraceEvent::CallBegin`].
    CallBegin,
    /// [`TraceEvent::CallEnd`].
    CallEnd,
    /// [`TraceEvent::Dealloc`].
    Dealloc,
}

impl EventKind {
    const ALL: [EventKind; 8] = {
        use EventKind::*;
        [Read, Write, LoopBegin, LoopIter, LoopEnd, CallBegin, CallEnd, Dealloc]
    };

    /// The kind tagged `tag`; tags past 7 are no kind's.
    #[inline]
    pub fn from_tag(tag: u8) -> Option<EventKind> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// The body bits each kind uses, word by word, in tag order (see the
/// table above).
const USED: [[u64; 2]; 8] = {
    let (all, low) = (!0, u32::MAX as u64);
    [[all, all], [all, all], [all, 0], [low, all], [all, all], [low, 0], [low, 0], [all, all]]
};

/// The most 8-byte words a `Dealloc` read from outside the process may
/// free: 2³⁶ (512 GiB). MiniVM's `Free` only names arrays the traced
/// process held, 8 bytes a word. Algorithm 1 clears a
/// slot per word (≈ 6 ns): 2³⁶ take minutes, 2⁶¹ would take centuries.
pub const MAX_DEALLOC_WORDS: u64 = 1 << 36;

/// One event as every stream of thread 0's events holds it (see the
/// module docs). Packed once per event, so a broadcast event is copied,
/// not packed again, into each worker's chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// What the body holds.
    pub kind: EventKind,
    /// The body's two words.
    pub body: [u64; 2],
}

/// Two 32-bit fields in one body word, the first in the low half.
#[inline]
fn halves(lo: u32, hi: u32) -> u64 {
    lo as u64 | (hi as u64) << 32
}

impl Record {
    /// Packs `ev`, dropping its thread and timestamp.
    #[inline]
    pub fn pack(ev: &TraceEvent) -> Record {
        use EventKind::*;
        let (kind, body) = match *ev {
            TraceEvent::Access(a) => {
                let kind = if a.kind.is_write() { Write } else { Read };
                (kind, [a.addr, halves(a.loc.pack(), a.var)])
            }
            TraceEvent::LoopBegin { loop_id, loc, .. } => {
                (LoopBegin, [halves(loop_id, loc.pack()), 0])
            }
            TraceEvent::LoopIter { loop_id, iter, .. } => (LoopIter, [loop_id.into(), iter]),
            TraceEvent::LoopEnd { loop_id, loc, iters, .. } => {
                (LoopEnd, [halves(loop_id, loc.pack()), iters])
            }
            TraceEvent::CallBegin { func, .. } => (CallBegin, [func.into(), 0]),
            TraceEvent::CallEnd { func, .. } => (CallEnd, [func.into(), 0]),
            TraceEvent::Dealloc { base, len, .. } => (Dealloc, [base, len]),
        };
        Record { kind, body }
    }

    /// A record read from outside the process: `None` unless `tag` names a
    /// kind, every body bit the kind does not use is 0 — so what is
    /// accepted re-encodes to the same bytes — and, for a `Dealloc`, `len`
    /// is at most [`MAX_DEALLOC_WORDS`] and `base + 8·len` fits in a `u64`.
    #[inline]
    pub fn from_wire(tag: u8, body: [u64; 2]) -> Option<Record> {
        let kind = EventKind::from_tag(tag)?;
        let [w0, w1] = USED[kind as usize];
        let unused = body[0] & !w0 | body[1] & !w1;
        // Algorithm 1 clears `base + 8·i` for every `i < len`.
        let [base, len] = body;
        let fits = kind != EventKind::Dealloc
            || len <= MAX_DEALLOC_WORDS && base.checked_add(len * 8).is_some();
        (unused == 0 && fits).then_some(Record { kind, body })
    }

    /// The access, if this is one, on thread 0 at timestamp 0: the
    /// consumer's fast path, which builds no [`TraceEvent`].
    #[inline]
    pub fn as_access(self) -> Option<MemAccess> {
        let [addr, b] = self.body;
        let kind = match self.kind {
            EventKind::Read => AccessKind::Read,
            EventKind::Write => AccessKind::Write,
            _ => return None,
        };
        let (loc, var) = (SourceLoc::unpack(b as u32), (b >> 32) as u32);
        Some(MemAccess { addr, ts: 0, loc, var, thread: 0, kind })
    }

    /// The event packed, with the thread and timestamp given.
    #[inline]
    pub fn unpack(self, thread: ThreadId, ts: Timestamp) -> TraceEvent {
        let [a, b] = self.body;
        let (lo, hi) = (a as u32, (a >> 32) as u32);
        match self.kind {
            EventKind::Read | EventKind::Write => {
                let a = self.as_access().expect("an access kind");
                TraceEvent::Access(MemAccess { thread, ts, ..a })
            }
            EventKind::LoopBegin => {
                TraceEvent::LoopBegin { loop_id: lo, loc: SourceLoc::unpack(hi), thread, ts }
            }
            EventKind::LoopIter => TraceEvent::LoopIter { loop_id: lo, iter: b, thread, ts },
            EventKind::LoopEnd => {
                let loc = SourceLoc::unpack(hi);
                TraceEvent::LoopEnd { loop_id: lo, loc, iters: b, thread, ts }
            }
            EventKind::CallBegin => TraceEvent::CallBegin { func: lo, thread, ts },
            EventKind::CallEnd => TraceEvent::CallEnd { func: lo, thread, ts },
            EventKind::Dealloc => TraceEvent::Dealloc { base: a, len: b, thread, ts },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every body bit a kind leaves unused must be 0 on the wire: one set
    /// bit is refused, whichever it is. (A deallocation uses every bit;
    /// its range has a test of its own.)
    #[test]
    fn an_unused_body_bit_does_not_decode() {
        for kind in EventKind::ALL.into_iter().take(7) {
            for bit in 0..128 {
                let mut body = [0; 2];
                body[bit / 64] = 1 << (bit % 64);
                let used = USED[kind as usize][bit / 64] & body[bit / 64] != 0;
                let read = Record::from_wire(kind as u8, body);
                assert_eq!(read.is_some(), used, "{kind:?}, bit {bit}");
            }
        }
    }

    /// A deallocation of [`MAX_DEALLOC_WORDS`] decodes; one word more
    /// does not, wherever it starts.
    #[test]
    fn a_dealloc_longer_than_the_bound_does_not_decode() {
        let dealloc = EventKind::Dealloc as u8;
        for base in [0, 0x1000] {
            assert!(Record::from_wire(dealloc, [base, MAX_DEALLOC_WORDS]).is_some(), "{base}");
            assert_eq!(Record::from_wire(dealloc, [base, MAX_DEALLOC_WORDS + 1]), None, "{base}");
        }
    }
}
