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
//! An event's one byte layout is its packed [`Record`](crate::Record),
//! which keeps no thread or timestamp; a stream that leaves the process
//! carries records, not events.

use crate::access::MemAccess;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::loc;
    use crate::record::{Record, RECORD_BYTES};

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

    /// One event of every kind, in tag order, on thread 0 at timestamp 0.
    fn kinds() -> [TraceEvent; 8] {
        [
            TraceEvent::Access(MemAccess::read(0xdead_beef, 0, loc(2, 61), 7, 0)),
            TraceEvent::Access(MemAccess::write(0xdead_beef, 0, loc(2, 60), 7, 0)),
            TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 0 },
            TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 0 },
            TraceEvent::LoopEnd { loop_id: 3, loc: loc(1, 20), iters: 10, thread: 0, ts: 0 },
            TraceEvent::CallBegin { func: 5, thread: 0, ts: 0 },
            TraceEvent::CallEnd { func: 5, thread: 0, ts: 0 },
            TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 0 },
        ]
    }

    /// Each kind packs into a record under the tag the record table gives
    /// it, reads back from the wire as it was packed, and unpacks to the
    /// event; the thread and timestamp are the caller's.
    #[test]
    fn every_kind_round_trips_at_the_tabled_length() {
        for (tag, ev) in kinds().into_iter().enumerate() {
            let r = Record::pack(&ev);
            assert_eq!(r.kind as usize, tag, "{ev:?}");
            assert_eq!(Record::from_wire(tag as u8, r.body), Some(r), "{ev:?}");
            assert_eq!(r.unpack(0, 0), ev);
            assert_eq!(r.as_access().is_some(), tag <= 1);
            let stamped = r.unpack(3, 9);
            assert_eq!((Record::pack(&stamped), stamped.thread(), stamped.ts()), (r, 3, 9));
        }
        assert_eq!(RECORD_BYTES, 1 + std::mem::size_of::<[u64; 2]>());
        for tag in 8..=u8::MAX {
            assert_eq!(Record::from_wire(tag, [0; 2]), None, "tag {tag}");
        }
    }

    /// A deallocation whose range runs past the end of the address space
    /// packs, but no reader takes its record.
    #[test]
    fn dealloc_range_past_the_address_space_does_not_decode() {
        let read = |base, len| {
            let r = Record::pack(&TraceEvent::Dealloc { base, len, thread: 0, ts: 0 });
            Record::from_wire(r.kind as u8, r.body)
        };
        let top = u64::MAX - 7;
        assert!(read(top - 8, 1).is_some(), "ends at the last word");
        assert_eq!(read(top, 1), None, "one word past it");
        assert_eq!(read(0x100, u64::MAX / 8 + 1), None, "8·len overflows");
        assert_eq!(read(0x100, u64::MAX / 8 - 0x1f), None);
        // A range that fits, but longer than any reader takes.
        assert_eq!(read(0x100, u64::MAX / 8 - 0x20), None, "over MAX_DEALLOC_WORDS");
    }
}
