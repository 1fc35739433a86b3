//! Bridging an event stream onto the DPSV wire: batches consecutive
//! events of every kind into `Chunk` frames, in order.
//!
//! Both producers of DPSV frames chunk here: `depprof push`, which
//! replays a recorded `.dptr` file over the network, and the trace file
//! itself, which is a DPSV session on disk ([`crate::tracefile`]). The
//! chunker packs [`TraceEvent`]s into `Chunk` frames of up to
//! `chunk_events` events each. Loop, call and dealloc events ride in line
//! with the accesses around them, so the 6-byte frame overhead is paid
//! once per chunk however loop-dense the stream, and a reader feeds its
//! engine in exactly the recorded order.
//!
//! Every frame is *positional*: a `Chunk` carries the absolute stream
//! index of its first event, counted from the chunker's base. A resuming
//! client constructs the chunker [`with_base`](FrameChunker::with_base)
//! at the server's `resume_from` watermark and the positions line up
//! exactly.

use dp_types::protocol::Frame;
use dp_types::{Interner, TraceEvent};

/// Events per `Chunk` frame unless a caller says otherwise: what a trace
/// file holds per frame and what `depprof push` sends.
pub const DEFAULT_CHUNK_EVENTS: usize = 512;

/// Interns a `Hello`'s variable-name table. Events name their variable
/// by position in the table, so a repeated name, which would intern to
/// its first position and shift every later variable down by one, is
/// refused; only the leading `"*"` every [`Interner`] starts with may be
/// listed again.
pub fn intern_names(names: &[String]) -> Result<Interner, &'static str> {
    let mut interner = Interner::new();
    for (id, name) in names.iter().enumerate() {
        let fresh = interner.len();
        if interner.intern(name) as usize != fresh && !(id == 0 && name == "*") {
            return Err("duplicate name");
        }
    }
    Ok(interner)
}

/// Batches [`TraceEvent`]s into DPSV `Chunk` frames, preserving order.
#[derive(Debug)]
pub struct FrameChunker {
    pending: Vec<TraceEvent>,
    capacity: usize,
    /// Absolute index of `pending[0]` (of the next event pushed while
    /// `pending` is empty).
    base: u64,
}

impl FrameChunker {
    /// A chunker emitting `Chunk` frames of at most `chunk_events`
    /// events (minimum 1), positions counted from 0.
    pub fn new(chunk_events: usize) -> Self {
        Self::with_base(chunk_events, 0)
    }

    /// A chunker whose first event has absolute stream index `base` —
    /// what a resumed push uses so its frames carry the positions the
    /// server expects after `HelloAck.resume_from`.
    pub fn with_base(chunk_events: usize, base: u64) -> Self {
        let capacity = chunk_events.max(1);
        FrameChunker { pending: Vec::with_capacity(capacity), capacity, base }
    }

    /// Absolute index the next pushed event will occupy.
    pub fn position(&self) -> u64 {
        self.base + self.pending.len() as u64
    }

    /// Accepts one event. Returns the `Chunk` it filled, if any.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) -> Option<Frame> {
        self.pending.push(ev);
        if self.pending.len() >= self.capacity {
            self.flush()
        } else {
            None
        }
    }

    /// Flushes any buffered events (call at end of stream, or before a
    /// `Sync`/`Finish`).
    pub fn flush(&mut self) -> Option<Frame> {
        if self.pending.is_empty() {
            return None;
        }
        let base = self.base;
        self.base += self.pending.len() as u64;
        let events = std::mem::replace(&mut self.pending, Vec::with_capacity(self.capacity));
        Some(Frame::Chunk { base, events })
    }

    /// Events currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;
    use dp_types::MemAccess;

    fn acc(i: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess::read(0x100 + i * 8, i + 1, loc(1, 1), 0, 0))
    }

    fn stream() -> Vec<TraceEvent> {
        vec![
            acc(0),
            acc(1),
            TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 10 },
            acc(2),
            acc(3),
            acc(4),
            TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 1, thread: 0, ts: 20 },
            acc(5),
        ]
    }

    #[test]
    fn chunker_preserves_order_and_batches() {
        let evs = stream();
        let mut chunker = FrameChunker::new(3);
        let mut frames = Vec::new();
        for ev in evs.clone() {
            frames.extend(chunker.push(ev));
        }
        frames.extend(chunker.flush());
        // Every chunk but the flushed last one is full, loop events
        // included: nothing cuts a chunk short.
        let lens: Vec<usize> = frames
            .iter()
            .map(|f| match f {
                Frame::Chunk { events, .. } => events.len(),
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(lens, [3, 3, 2]);
        let roundtrip: Vec<TraceEvent> = frames
            .into_iter()
            .flat_map(|f| match f {
                Frame::Chunk { events, .. } => events,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(roundtrip, evs, "order preserved exactly");
        assert_eq!(chunker.position(), evs.len() as u64);
    }

    #[test]
    fn frames_carry_contiguous_positions() {
        let evs = stream();
        for base in [0u64, 17] {
            let mut chunker = FrameChunker::with_base(2, base);
            let mut frames = Vec::new();
            for ev in evs.clone() {
                frames.extend(chunker.push(ev));
            }
            frames.extend(chunker.flush());
            // Walk the frames: every frame's position must equal the
            // running event count — no gaps, no overlap.
            let mut next = base;
            for f in frames {
                let Frame::Chunk { base: b, events } = f else { panic!("unexpected frame {f:?}") };
                assert_eq!(b, next, "chunk base");
                next += events.len() as u64;
            }
            assert_eq!(next, base + evs.len() as u64);
            assert_eq!(chunker.position(), next);
        }
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut chunker = FrameChunker::new(8);
        assert!(chunker.flush().is_none());
        assert_eq!(chunker.pending(), 0);
        assert!(chunker.push(acc(0)).is_none());
        assert_eq!(chunker.pending(), 1);
        assert!(chunker.flush().is_some());
        assert!(chunker.flush().is_none());
    }
}
