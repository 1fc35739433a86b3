//! The instrumentation event stream.
//!
//! A profiled run is, from the profiler's perspective, nothing but a stream
//! of [`TraceEvent`]s per target thread. Memory accesses dominate the
//! stream; loop events carry the runtime control-flow information of
//! Section III (BGN/END records, iteration counts) and drive the
//! loop-carried classification used by the parallelism-discovery
//! application (Section VII-A); deallocation events drive the
//! variable-lifetime analysis of Section III-B.
//!
//! This module also owns the one byte layout of an event ([`BODY_LEN`],
//! [`TraceEvent::encode_into`], [`TraceEvent::decode`]): what a DPSV
//! `Chunk` carries, body after body, past its `base` and count, on a
//! socket and in a trace file alike.

use crate::access::{AccessKind, MemAccess};
use crate::ids::{Address, LoopId, ThreadId, Timestamp};
use crate::loc::SourceLoc;

/// One event of the instrumentation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instrumented memory access.
    Access(MemAccess),
    /// Control enters a loop (`BGN loop` in the output). Emitted once per
    /// dynamic loop instance, before the first iteration.
    LoopBegin {
        /// Static loop id.
        loop_id: LoopId,
        /// Location of the loop header.
        loc: SourceLoc,
        /// Thread executing the loop.
        thread: ThreadId,
        /// Timestamp at entry.
        ts: Timestamp,
    },
    /// A new iteration of the innermost active loop begins. The first
    /// iteration of an instance is also announced (`iter == 0`).
    LoopIter {
        /// Static loop id.
        loop_id: LoopId,
        /// Iteration number within the current instance, from 0.
        iter: u64,
        /// Thread executing the loop.
        thread: ThreadId,
        /// Timestamp at the iteration boundary.
        ts: Timestamp,
    },
    /// Control leaves a loop (`END loop <iterations>` in the output).
    LoopEnd {
        /// Static loop id.
        loop_id: LoopId,
        /// Location of the loop exit.
        loc: SourceLoc,
        /// Iterations executed by this instance.
        iters: u64,
        /// Thread executing the loop.
        thread: ThreadId,
        /// Timestamp at exit.
        ts: Timestamp,
    },
    /// Control enters a function (drives the dynamic execution / call
    /// tree representation of the Section VIII framework).
    CallBegin {
        /// Static function id.
        func: u32,
        /// Thread performing the call.
        thread: ThreadId,
        /// Timestamp at entry.
        ts: Timestamp,
    },
    /// Control returns from a function.
    CallEnd {
        /// Static function id.
        func: u32,
        /// Thread performing the return.
        thread: ThreadId,
        /// Timestamp at exit.
        ts: Timestamp,
    },
    /// A contiguous address range was deallocated; the variable-lifetime
    /// analysis removes the range from the signatures so a later, unrelated
    /// allocation reusing the addresses does not manufacture false
    /// dependences (Section III-B).
    Dealloc {
        /// First address of the range.
        base: Address,
        /// Number of addressable slots (8-byte granules) in the range.
        len: u64,
        /// Thread performing the deallocation.
        thread: ThreadId,
        /// Timestamp of the deallocation.
        ts: Timestamp,
    },
}

impl TraceEvent {
    /// The target-program thread that produced this event.
    pub fn thread(&self) -> ThreadId {
        match *self {
            TraceEvent::Access(a) => a.thread,
            TraceEvent::LoopBegin { thread, .. }
            | TraceEvent::LoopIter { thread, .. }
            | TraceEvent::LoopEnd { thread, .. }
            | TraceEvent::CallBegin { thread, .. }
            | TraceEvent::CallEnd { thread, .. }
            | TraceEvent::Dealloc { thread, .. } => thread,
        }
    }

    /// The timestamp of the event.
    pub fn ts(&self) -> Timestamp {
        match *self {
            TraceEvent::Access(a) => a.ts,
            TraceEvent::LoopBegin { ts, .. }
            | TraceEvent::LoopIter { ts, .. }
            | TraceEvent::LoopEnd { ts, .. }
            | TraceEvent::CallBegin { ts, .. }
            | TraceEvent::CallEnd { ts, .. }
            | TraceEvent::Dealloc { ts, .. } => ts,
        }
    }

    /// Returns the contained access, if this is an access event.
    pub fn as_access(&self) -> Option<&MemAccess> {
        match self {
            TraceEvent::Access(a) => Some(a),
            _ => None,
        }
    }
}

const TAG_READ: u8 = 0;
const TAG_WRITE: u8 = 1;
const TAG_LOOP_BEGIN: u8 = 2;
const TAG_LOOP_ITER: u8 = 3;
const TAG_LOOP_END: u8 = 4;
const TAG_CALL_BEGIN: u8 = 5;
const TAG_CALL_END: u8 = 6;
const TAG_DEALLOC: u8 = 7;

/// Bytes of an event's wire body — the tag byte and the fixed-width
/// fields after it — indexed by tag; tags past the end are not defined.
/// Tags 0 and 1 are the two access kinds.
pub const BODY_LEN: [u8; 8] = [
    1 + 8 + 8 + 4 + 4 + 2, // read: addr, ts, loc, var, thread
    1 + 8 + 8 + 4 + 4 + 2, // write
    1 + 4 + 4 + 2 + 8,     // loop begin: loop, loc, thread, ts
    1 + 4 + 8 + 2 + 8,     // loop iter: loop, iter, thread, ts
    1 + 4 + 4 + 8 + 2 + 8, // loop end: loop, loc, iters, thread, ts
    1 + 4 + 2 + 8,         // call begin: func, thread, ts
    1 + 4 + 2 + 8,         // call end
    1 + 8 + 8 + 2 + 8,     // dealloc: base, len, thread, ts
];

/// Bytes of an access's wire body, the longest of any event's.
pub const ACCESS_WIRE_BYTES: usize = BODY_LEN[TAG_READ as usize] as usize;

/// One little-endian field at a constant offset of a fixed-size array.
macro_rules! get {
    ($f:ident, $at:expr, $ty:ty) => {
        <$ty>::from_le_bytes(
            $f[$at..$at + std::mem::size_of::<$ty>()].try_into().expect("constant range"),
        )
    };
}

/// Appends an access's wire body: the access arm of
/// [`TraceEvent::encode_into`].
#[inline]
pub fn encode_access(a: &MemAccess, out: &mut Vec<u8>) {
    out.push(if a.kind.is_write() { TAG_WRITE } else { TAG_READ });
    out.extend_from_slice(&a.addr.to_le_bytes());
    out.extend_from_slice(&a.ts.to_le_bytes());
    out.extend_from_slice(&a.loc.pack().to_le_bytes());
    out.extend_from_slice(&a.var.to_le_bytes());
    out.extend_from_slice(&a.thread.to_le_bytes());
}

/// Reads an access's wire body in place; any tag but 0 is a write.
#[inline]
pub fn decode_access(b: &[u8; ACCESS_WIRE_BYTES]) -> MemAccess {
    MemAccess {
        addr: get!(b, 1, u64),
        ts: get!(b, 9, u64),
        loc: SourceLoc::unpack(get!(b, 17, u32)),
        var: get!(b, 21, u32),
        thread: get!(b, 25, u16),
        kind: if b[0] == TAG_READ { AccessKind::Read } else { AccessKind::Write },
    }
}

impl TraceEvent {
    /// Appends the event's wire body: tag byte, then its fields.
    #[inline]
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            TraceEvent::Access(ref a) => encode_access(a, out),
            TraceEvent::LoopBegin { loop_id, loc, thread, ts } => {
                out.push(TAG_LOOP_BEGIN);
                out.extend_from_slice(&loop_id.to_le_bytes());
                out.extend_from_slice(&loc.pack().to_le_bytes());
                out.extend_from_slice(&thread.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
            }
            TraceEvent::LoopIter { loop_id, iter, thread, ts } => {
                out.push(TAG_LOOP_ITER);
                out.extend_from_slice(&loop_id.to_le_bytes());
                out.extend_from_slice(&iter.to_le_bytes());
                out.extend_from_slice(&thread.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
            }
            TraceEvent::LoopEnd { loop_id, loc, iters, thread, ts } => {
                out.push(TAG_LOOP_END);
                out.extend_from_slice(&loop_id.to_le_bytes());
                out.extend_from_slice(&loc.pack().to_le_bytes());
                out.extend_from_slice(&iters.to_le_bytes());
                out.extend_from_slice(&thread.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
            }
            TraceEvent::CallBegin { func, thread, ts }
            | TraceEvent::CallEnd { func, thread, ts } => {
                let begin = matches!(self, TraceEvent::CallBegin { .. });
                out.push(if begin { TAG_CALL_BEGIN } else { TAG_CALL_END });
                out.extend_from_slice(&func.to_le_bytes());
                out.extend_from_slice(&thread.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
            }
            TraceEvent::Dealloc { base, len, thread, ts } => {
                out.push(TAG_DEALLOC);
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&thread.to_le_bytes());
                out.extend_from_slice(&ts.to_le_bytes());
            }
        }
    }

    /// Reads one wire body. `None` unless `body` starts with a defined
    /// tag and is exactly as long as [`BODY_LEN`] says for it, and — for a
    /// `Dealloc` — `base + 8·len` fits in a `u64`. Each arm
    /// works on a fixed-size array, so every field is one load at a
    /// constant offset.
    #[inline]
    pub fn decode(body: &[u8]) -> Option<TraceEvent> {
        Some(match *body.first()? {
            TAG_READ | TAG_WRITE => TraceEvent::Access(decode_access(body.try_into().ok()?)),
            TAG_LOOP_BEGIN => {
                let b: &[u8; 19] = body.try_into().ok()?;
                TraceEvent::LoopBegin {
                    loop_id: get!(b, 1, u32),
                    loc: SourceLoc::unpack(get!(b, 5, u32)),
                    thread: get!(b, 9, u16),
                    ts: get!(b, 11, u64),
                }
            }
            TAG_LOOP_ITER => {
                let b: &[u8; 23] = body.try_into().ok()?;
                TraceEvent::LoopIter {
                    loop_id: get!(b, 1, u32),
                    iter: get!(b, 5, u64),
                    thread: get!(b, 13, u16),
                    ts: get!(b, 15, u64),
                }
            }
            TAG_LOOP_END => {
                let b: &[u8; 27] = body.try_into().ok()?;
                TraceEvent::LoopEnd {
                    loop_id: get!(b, 1, u32),
                    loc: SourceLoc::unpack(get!(b, 5, u32)),
                    iters: get!(b, 9, u64),
                    thread: get!(b, 17, u16),
                    ts: get!(b, 19, u64),
                }
            }
            t @ (TAG_CALL_BEGIN | TAG_CALL_END) => {
                let b: &[u8; 15] = body.try_into().ok()?;
                let (func, thread, ts) = (get!(b, 1, u32), get!(b, 5, u16), get!(b, 7, u64));
                if t == TAG_CALL_BEGIN {
                    TraceEvent::CallBegin { func, thread, ts }
                } else {
                    TraceEvent::CallEnd { func, thread, ts }
                }
            }
            TAG_DEALLOC => {
                let b: &[u8; 27] = body.try_into().ok()?;
                let (base, len) = (get!(b, 1, u64), get!(b, 9, u64));
                // Algorithm 1 clears `base + 8·i` for every `i < len`.
                len.checked_mul(8).and_then(|bytes| base.checked_add(bytes))?;
                TraceEvent::Dealloc { base, len, thread: get!(b, 17, u16), ts: get!(b, 19, u64) }
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::loc;

    #[test]
    fn accessors() {
        let a = TraceEvent::Access(MemAccess::read(0x8, 5, loc(1, 60), 1, 2));
        assert_eq!(a.thread(), 2);
        assert_eq!(a.ts(), 5);
        assert!(a.as_access().is_some());

        let b = TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 60), thread: 3, ts: 9 };
        assert_eq!(b.thread(), 3);
        assert_eq!(b.ts(), 9);
        assert!(b.as_access().is_none());

        let d = TraceEvent::Dealloc { base: 0x100, len: 8, thread: 0, ts: 11 };
        assert_eq!(d.thread(), 0);
        assert_eq!(d.ts(), 11);
    }

    #[test]
    fn every_kind_round_trips_at_the_tabled_length() {
        let kinds = [
            TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 2)),
            TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 1)),
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
            TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 },
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 3 },
            TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 },
            TraceEvent::CallEnd { func: 5, thread: 1, ts: 5 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 },
        ];
        let mut out = Vec::new();
        for (tag, ev) in kinds.iter().enumerate() {
            let start = out.len();
            ev.encode_into(&mut out);
            let body = &out[start..];
            assert_eq!((body[0] as usize, body.len()), (tag, BODY_LEN[tag] as usize), "{ev:?}");
            assert_eq!(TraceEvent::decode(body), Some(*ev));
            assert_eq!(TraceEvent::decode(&body[..body.len() - 1]), None, "short {ev:?}");
            assert_eq!(TraceEvent::decode(&[body, &[0]].concat()), None, "long {ev:?}");
        }
        assert_eq!(TraceEvent::decode(&[8; 27]), None);
        assert_eq!(TraceEvent::decode(&[]), None);
        // A `Chunk` reserves this much per event before encoding.
        assert_eq!(BODY_LEN.iter().max().map(|&n| n as usize), Some(ACCESS_WIRE_BYTES));
    }

    #[test]
    fn dealloc_range_past_the_address_space_does_not_decode() {
        let body = |base: u64, len: u64| {
            let mut out = Vec::new();
            TraceEvent::Dealloc { base, len, thread: 0, ts: 1 }.encode_into(&mut out);
            out
        };
        let top = u64::MAX - 7;
        assert!(TraceEvent::decode(&body(top - 8, 1)).is_some(), "ends at the last word");
        assert_eq!(TraceEvent::decode(&body(top, 1)), None, "one word past it");
        assert_eq!(TraceEvent::decode(&body(0x100, u64::MAX / 8 + 1)), None, "8·len overflows");
        assert_eq!(TraceEvent::decode(&body(0x100, u64::MAX / 8 - 0x1f)), None);
        assert!(TraceEvent::decode(&body(0x100, u64::MAX / 8 - 0x20)).is_some());
    }
}
