//! Bridging a recorded event stream onto the DPSV wire: batches
//! consecutive accesses into `Chunk` frames and passes control-flow
//! events through in order.
//!
//! This is what lets `depprof push` replay any recorded `.dptr` file
//! over the network: the trace reader yields [`TraceEvent`]s one at a
//! time, and the chunker turns them into the protocol's frame stream —
//! access-dense regions become large `Chunk` frames (amortizing the
//! 6-byte frame overhead over hundreds of accesses), while loop, call
//! and dealloc events flush the pending chunk first so the server feeds
//! its engine in exactly the recorded order.
//!
//! Every emitted frame is *positional*: `Chunk` frames carry the
//! absolute stream index of their first access and `LoopEvent` frames
//! their own index, counted from the chunker's base. A resuming client
//! constructs the chunker [`with_base`](FrameChunker::with_base) at the
//! server's `resume_from` watermark and the positions line up exactly.

use dp_types::protocol::Frame;
use dp_types::{MemAccess, TraceEvent};

/// Batches [`TraceEvent`]s into DPSV frames, preserving event order.
#[derive(Debug)]
pub struct FrameChunker {
    pending: Vec<MemAccess>,
    capacity: usize,
    /// Absolute index of the next event pushed.
    pos: u64,
    /// Absolute index of `pending[0]` (valid while `pending` is non-empty).
    chunk_base: u64,
}

impl FrameChunker {
    /// A chunker emitting `Chunk` frames of at most `chunk_events`
    /// accesses (minimum 1), positions counted from 0.
    pub fn new(chunk_events: usize) -> Self {
        Self::with_base(chunk_events, 0)
    }

    /// A chunker whose first event has absolute stream index `base` —
    /// what a resumed push uses so its frames carry the positions the
    /// server expects after `HelloAck.resume_from`.
    pub fn with_base(chunk_events: usize, base: u64) -> Self {
        let capacity = chunk_events.max(1);
        FrameChunker {
            pending: Vec::with_capacity(capacity),
            capacity,
            pos: base,
            chunk_base: base,
        }
    }

    /// Absolute index the next pushed event will occupy.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Accepts one event. Returns the frames that became ready: zero or
    /// one `Chunk` flush, followed by the event's own frame when it is
    /// not an access.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) -> ReadyFrames {
        match ev {
            TraceEvent::Access(a) => {
                if self.pending.is_empty() {
                    self.chunk_base = self.pos;
                }
                self.pending.push(a);
                self.pos += 1;
                let full = self.pending.len() >= self.capacity;
                ReadyFrames { chunk: if full { self.take_pending() } else { None }, event: None }
            }
            other => {
                let chunk = self.take_pending();
                let event = Some((self.pos, other));
                self.pos += 1;
                ReadyFrames { chunk, event }
            }
        }
    }

    /// Flushes any buffered accesses (call at end of stream, or before a
    /// `Sync`/`Finish`).
    pub fn flush(&mut self) -> Option<Frame> {
        self.take_pending().map(|(base, accesses)| Frame::Chunk { base, accesses })
    }

    /// Accesses currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The buffered accesses and the stream index of the first, if any.
    fn take_pending(&mut self) -> Option<(u64, Vec<MemAccess>)> {
        if self.pending.is_empty() {
            None
        } else {
            Some((self.chunk_base, std::mem::take(&mut self.pending)))
        }
    }
}

/// The zero to two frames one [`FrameChunker::push`] made ready, in wire
/// order. Held inline — and small: just the parts of the `Chunk` and
/// `LoopEvent` frames it will yield — so pushing an event allocates
/// nothing and the common "no frame yet" answer is two empty options.
#[derive(Debug)]
pub struct ReadyFrames {
    chunk: Option<(u64, Vec<MemAccess>)>,
    event: Option<(u64, TraceEvent)>,
}

impl Iterator for ReadyFrames {
    type Item = Frame;

    #[inline]
    fn next(&mut self) -> Option<Frame> {
        if let Some((base, accesses)) = self.chunk.take() {
            return Some(Frame::Chunk { base, accesses });
        }
        self.event.take().map(|(seq, ev)| Frame::LoopEvent { seq, ev })
    }
}

/// Unpacks one incoming frame back into the events it carries (the
/// server-side inverse of [`FrameChunker`]), dropping the positions.
/// Non-event frames yield an empty vector.
pub fn frame_events(frame: Frame) -> Vec<TraceEvent> {
    match frame {
        Frame::Chunk { accesses, .. } => accesses.into_iter().map(TraceEvent::Access).collect(),
        Frame::LoopEvent { ev, .. } => vec![ev],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    fn acc(i: u64) -> TraceEvent {
        TraceEvent::Access(MemAccess::read(0x100 + i * 8, i + 1, loc(1, 1), 0, 0))
    }

    #[test]
    fn chunker_preserves_order_and_batches() {
        let evs: Vec<TraceEvent> = vec![
            acc(0),
            acc(1),
            TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 10 },
            acc(2),
            acc(3),
            acc(4),
            TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 9), iters: 1, thread: 0, ts: 20 },
            acc(5),
        ];
        let mut chunker = FrameChunker::new(2);
        let mut frames = Vec::new();
        for ev in evs.clone() {
            frames.extend(chunker.push(ev));
        }
        frames.extend(chunker.flush());
        // Chunks never exceed the capacity, and a control event always
        // flushes the pending chunk ahead of itself.
        for f in &frames {
            if let Frame::Chunk { accesses, .. } = f {
                assert!(!accesses.is_empty() && accesses.len() <= 2);
            }
        }
        let roundtrip: Vec<TraceEvent> = frames.into_iter().flat_map(frame_events).collect();
        assert_eq!(roundtrip, evs, "order preserved exactly");
        assert_eq!(chunker.position(), evs.len() as u64);
    }

    #[test]
    fn frames_carry_contiguous_positions() {
        let evs: Vec<TraceEvent> = vec![
            acc(0),
            TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 10 },
            acc(1),
            acc(2),
            acc(3),
        ];
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
                match f {
                    Frame::Chunk { base: b, accesses } => {
                        assert_eq!(b, next, "chunk base");
                        next += accesses.len() as u64;
                    }
                    Frame::LoopEvent { seq, .. } => {
                        assert_eq!(seq, next, "loop event seq");
                        next += 1;
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            assert_eq!(next, base + evs.len() as u64);
        }
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut chunker = FrameChunker::new(8);
        assert!(chunker.flush().is_none());
        assert_eq!(chunker.pending(), 0);
        chunker.push(acc(0));
        assert_eq!(chunker.pending(), 1);
        assert!(chunker.flush().is_some());
        assert!(chunker.flush().is_none());
    }
}
