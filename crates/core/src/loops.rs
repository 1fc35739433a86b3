//! Runtime control-flow tracking and loop-carried classification.
//!
//! Each engine (or worker) maintains, per target thread, the stack of
//! dynamically active loops with three timestamps per level: instance
//! entry (`begin_ts`), start of the current iteration (`iter_start_ts`)
//! and the running iteration count. When a dependence is built, the sink's
//! stack answers the question the parallelism-discovery application needs
//! (Section VII-A): *which enclosing loop, if any, does this dependence
//! cross an iteration boundary of?*
//!
//! For a source access with timestamp `s` and the active loop `L` of the
//! sink's thread:
//!
//! - `s ≥ iter_start_ts(L)` for the innermost loop → both accesses lie in
//!   the same iteration (`INTRA_ITERATION`);
//! - `begin_ts(L) ≤ s < iter_start_ts(L)` → the source ran in an earlier
//!   iteration of the *same instance* of `L`: the dependence is
//!   **loop-carried** with carrier `L` (innermost such `L` wins);
//! - `s < begin_ts(L)` for every active `L` → the dependence enters the
//!   loop nest from outside and constrains no loop.
//!
//! `s` and the marks are in the clock the engine's slots carry: the
//! timestamp, or the epoch (DESIGN.md "Epoch clock").

use dp_types::{ByteReader, ByteWriter, LoopId, SourceLoc, ThreadId, Timestamp, WireError};

/// One active loop level.
#[derive(Debug, Clone, Copy)]
struct ActiveLoop {
    loop_id: LoopId,
    begin: SourceLoc,
    end: SourceLoc,
    begin_ts: Timestamp,
    iter_start_ts: Timestamp,
    iters: u64,
}

/// Classification of a dependence source relative to the sink's loop nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarrierInfo {
    /// Source in the current iteration of the innermost active loop (or no
    /// active loop and nothing to say).
    IntraIteration,
    /// Source in an earlier iteration of the given (innermost qualifying)
    /// loop instance.
    Carried(LoopId),
    /// Source predates every active loop instance.
    FromOutside,
}

/// Per-thread stacks of active loops. Engines for sequential targets only
/// ever see thread 0; the structure still supports many threads so the
/// same code serves every engine.
#[derive(Debug, Default)]
pub struct LoopTracker {
    stacks: Vec<Vec<ActiveLoop>>, // indexed by ThreadId
}

impl LoopTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn stack_mut(&mut self, t: ThreadId) -> &mut Vec<ActiveLoop> {
        let i = t as usize;
        if self.stacks.len() <= i {
            self.stacks.resize_with(i + 1, Vec::new);
        }
        &mut self.stacks[i]
    }

    /// Handles a `LoopBegin` event. The paper's `BGN loop` line location is
    /// taken from `loc`; `end_hint` may equal `loc` and is patched by
    /// [`LoopTracker::end`].
    pub fn begin(&mut self, t: ThreadId, loop_id: LoopId, loc: SourceLoc, ts: Timestamp) {
        self.stack_mut(t).push(ActiveLoop {
            loop_id,
            begin: loc,
            end: loc,
            begin_ts: ts,
            iter_start_ts: ts,
            iters: 0,
        });
    }

    /// Handles a `LoopIter` event.
    pub fn iter(&mut self, t: ThreadId, loop_id: LoopId, ts: Timestamp) {
        if let Some(top) = self.stack_mut(t).last_mut() {
            if top.loop_id == loop_id {
                top.iter_start_ts = ts;
                top.iters += 1;
            }
        }
    }

    /// Handles a `LoopEnd` event; returns `(begin, iters)` of the finished
    /// instance for the loop record.
    pub fn end(
        &mut self,
        t: ThreadId,
        loop_id: LoopId,
        end_loc: SourceLoc,
    ) -> Option<(SourceLoc, u64)> {
        let stack = self.stack_mut(t);
        if stack.last().map(|l| l.loop_id) == Some(loop_id) {
            let mut top = stack.pop().unwrap();
            top.end = end_loc;
            Some((top.begin, top.iters))
        } else {
            None
        }
    }

    /// Classifies a dependence whose sink runs now on thread `t` and whose
    /// source carries timestamp `source_ts`.
    pub fn classify(&self, t: ThreadId, source_ts: Timestamp) -> CarrierInfo {
        let Some(stack) = self.stacks.get(t as usize) else {
            return CarrierInfo::IntraIteration;
        };
        // Innermost first.
        for l in stack.iter().rev() {
            if source_ts >= l.iter_start_ts {
                return CarrierInfo::IntraIteration;
            }
            if source_ts >= l.begin_ts {
                return CarrierInfo::Carried(l.loop_id);
            }
        }
        if stack.is_empty() {
            CarrierInfo::IntraIteration
        } else {
            CarrierInfo::FromOutside
        }
    }

    /// Renumbers the active marks by `rank(x) = #{active marks ≤ x}`, which
    /// keeps every comparison [`LoopTracker::classify`] makes, and returns
    /// `rank`, for the entries in the same clock, with its largest value.
    pub fn renumber(&mut self) -> (impl Fn(Timestamp) -> Timestamp, Timestamp) {
        let mut marks: Vec<Timestamp> =
            self.stacks.iter().flatten().flat_map(|l| [l.begin_ts, l.iter_start_ts]).collect();
        marks.sort_unstable();
        let top = marks.len() as Timestamp;
        let rank = move |x| marks.partition_point(|&m| m <= x) as Timestamp;
        for l in self.stacks.iter_mut().flatten() {
            (l.begin_ts, l.iter_start_ts) = (rank(l.begin_ts), rank(l.iter_start_ts));
        }
        (rank, top)
    }

    /// Serializes every thread's active-loop stack for a checkpoint, so
    /// carried classification after a resume sees the same loop nest and
    /// timestamps an uninterrupted run would.
    pub fn save(&self, out: &mut ByteWriter) {
        out.u32(self.stacks.len() as u32);
        for s in &self.stacks {
            out.u32(s.len() as u32);
            for l in s {
                out.u32(l.loop_id);
                out.u32(l.begin.pack());
                out.u32(l.end.pack());
                out.u64(l.begin_ts);
                out.u64(l.iter_start_ts);
                out.u64(l.iters);
            }
        }
    }

    /// Rebuilds a tracker previously produced by [`LoopTracker::save`].
    pub fn load(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let nthreads = r.count()?;
        let mut stacks = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let depth = r.count()?;
            let mut stack = Vec::with_capacity(depth);
            for _ in 0..depth {
                stack.push(ActiveLoop {
                    loop_id: r.u32()?,
                    begin: SourceLoc::unpack(r.u32()?),
                    end: SourceLoc::unpack(r.u32()?),
                    begin_ts: r.u64()?,
                    iter_start_ts: r.u64()?,
                    iters: r.u64()?,
                });
            }
            stacks.push(stack);
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after loop tracker"));
        }
        Ok(LoopTracker { stacks })
    }

    /// Approximate heap footprint.
    pub fn memory_usage(&self) -> usize {
        self.stacks
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<ActiveLoop>() + 24)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::loc::loc;

    #[test]
    fn single_loop_classification() {
        let mut t = LoopTracker::new();
        // program: ts 1..: write A (ts 1); loop begins ts 2; iter0 ts 3;
        // access ts 4 (write B); iter1 ts 5; access ts 6 reads B.
        t.begin(0, 0, loc(1, 10), 2);
        t.iter(0, 0, 3);
        // within iter 0, source ts 1 is from before the loop:
        assert_eq!(t.classify(0, 1), CarrierInfo::FromOutside);
        // source ts 4 (this iteration):
        assert_eq!(t.classify(0, 4), CarrierInfo::IntraIteration);
        t.iter(0, 0, 5);
        // now source ts 4 is in the previous iteration → carried:
        assert_eq!(t.classify(0, 4), CarrierInfo::Carried(0));
        // and pre-loop source is still FromOutside:
        assert_eq!(t.classify(0, 1), CarrierInfo::FromOutside);
        let (begin, iters) = t.end(0, 0, loc(1, 20)).unwrap();
        assert_eq!(begin, loc(1, 10));
        assert_eq!(iters, 2);
        assert_eq!(t.stacks[0].len(), 0);
    }

    #[test]
    fn nested_outer_carried() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 10); // outer
        t.iter(0, 0, 11); // outer iter 0
        t.begin(0, 1, loc(1, 2), 12); // inner instance 1
        t.iter(0, 1, 13);
        // access at ts 14 inside inner
        t.end(0, 1, loc(1, 5));
        t.iter(0, 0, 20); // outer iter 1
        t.begin(0, 1, loc(1, 2), 21); // inner instance 2
        t.iter(0, 1, 22);
        // source ts 14: previous *outer* iteration; inner instance is new,
        // so carried by the outer loop.
        assert_eq!(t.classify(0, 14), CarrierInfo::Carried(0));
        // source ts 21.5-ish (same inner iteration):
        assert_eq!(t.classify(0, 23), CarrierInfo::IntraIteration);
        t.iter(0, 1, 25);
        // source ts 23: previous inner iteration → carried by inner.
        assert_eq!(t.classify(0, 23), CarrierInfo::Carried(1));
    }

    #[test]
    fn no_active_loop_is_intra() {
        let t = LoopTracker::new();
        assert_eq!(t.classify(0, 5), CarrierInfo::IntraIteration);
        assert_eq!(t.classify(7, 5), CarrierInfo::IntraIteration);
    }

    #[test]
    fn per_thread_stacks_independent() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 1);
        t.iter(0, 0, 2);
        t.begin(3, 1, loc(1, 9), 1);
        t.iter(3, 1, 5);
        t.iter(0, 0, 9);
        assert_eq!(t.classify(0, 4), CarrierInfo::Carried(0));
        assert_eq!(t.classify(3, 6), CarrierInfo::IntraIteration);
        assert_eq!(t.stacks[0].len(), 1);
        assert_eq!(t.stacks[3].len(), 1);
    }

    #[test]
    fn save_load_preserves_mid_loop_classification() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 10); // outer
        t.iter(0, 0, 11);
        t.begin(0, 1, loc(1, 2), 12); // inner, still active
        t.iter(0, 1, 13);
        t.iter(0, 1, 20);
        let mut out = ByteWriter::new();
        t.save(&mut out);
        let bytes = out.into_bytes();
        let mut u = LoopTracker::load(&bytes).unwrap();
        assert_eq!(u.stacks[0].len(), 2);
        for ts in [5u64, 11, 14, 21] {
            assert_eq!(u.classify(0, ts), t.classify(0, ts), "ts {ts}");
        }
        // Ending the inner loop on the restored tracker reports the same
        // instance data as on the original.
        assert_eq!(u.end(0, 1, loc(1, 5)), t.end(0, 1, loc(1, 5)));
        let mut again = ByteWriter::new();
        LoopTracker::load(&bytes).unwrap().save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn load_rejects_truncation() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 1);
        let mut out = ByteWriter::new();
        t.save(&mut out);
        let bytes = out.into_bytes();
        assert!(LoopTracker::load(&bytes[..bytes.len() - 2]).is_err());
    }

    /// A count no blob of this size can hold is an error, not an
    /// allocation of `u32::MAX` stacks or loops.
    #[test]
    fn load_rejects_an_oversized_count() {
        let mut threads = ByteWriter::new();
        threads.u32(u32::MAX);
        assert!(LoopTracker::load(&threads.into_bytes()).is_err());
        let mut depth = ByteWriter::new();
        depth.u32(1);
        depth.u32(u32::MAX);
        depth.bytes(&[0; 36]);
        assert!(LoopTracker::load(&depth.into_bytes()).is_err());
    }

    /// Renumbered marks classify every renumbered clock value as the
    /// marks before classified the value before, on two threads' nests.
    #[test]
    fn renumbering_keeps_every_classification() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 10);
        t.iter(0, 0, 14);
        t.begin(0, 1, loc(1, 2), 14);
        t.iter(0, 1, 30);
        t.begin(2, 5, loc(1, 9), 3);
        t.iter(2, 5, 22);
        let before: Vec<_> = (0..40).map(|x| (t.classify(0, x), t.classify(2, x))).collect();
        let (rank, top) = t.renumber();
        assert_eq!(top, 6);
        for x in 0..40 {
            let after = (t.classify(0, rank(x)), t.classify(2, rank(x)));
            assert_eq!(after, before[x as usize], "clock {x} renumbered to {}", rank(x));
            assert!(rank(x) <= top);
        }
    }

    #[test]
    fn mismatched_end_is_ignored() {
        let mut t = LoopTracker::new();
        t.begin(0, 0, loc(1, 1), 1);
        assert!(t.end(0, 99, loc(1, 2)).is_none());
        assert_eq!(t.stacks[0].len(), 1);
    }
}
