//! Loop parallelism discovery (Section VII-A, Table II).
//!
//! The DiscoPoP use case: a loop is potentially parallelizable (DOALL) if
//! the profile shows no RAW dependence carried across its iterations.
//! Loop-carried WAR/WAW dependences do not block parallelization — they
//! are removable by privatization — and a loop whose only carried RAW
//! dependences are self-dependences on an accumulator (`sink == source`
//! location) is a *reduction*: parallelizable with an OpenMP `reduction`
//! clause but, by dependence evidence alone, not DOALL. This is exactly
//! why DiscoPoP identifies 136 of the 147 annotated NAS loops: the gap is
//! reductions and data-dependent updates (IS, CG, FT).
//!
//! The verdict ladder itself lives in the one analysis fold
//! ([`report_for`](crate::report_for)); this module holds its vocabulary
//! and the privatization pass.

use dp_core::ProfileResult;
use dp_types::{DepFlags, DepType, LoopId};

/// Static loop metadata the analysis needs (decoupled from the trace
/// substrate; build it from `Program::loops`).
#[derive(Debug, Clone)]
pub struct LoopMeta {
    /// Loop id as it appears in the profile's carrier sets.
    pub id: LoopId,
    /// Human-readable name.
    pub name: String,
    /// Ground truth: annotated parallel in the OpenMP version.
    pub omp: bool,
}

/// Dependence-test verdict for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopClass {
    /// No loop-carried RAW: parallelizable ("identified" in Table II).
    Doall,
    /// Carried RAW only via accumulator self-dependences: an OpenMP
    /// `reduction` candidate, but not identified by the dependence test.
    Reduction,
    /// Carried RAW through memory: sequential.
    Sequential,
    /// The loop never executed in this profile.
    NotExecuted,
}

/// A variable blocking a loop only through carried WAR/WAW dependences:
/// giving each iteration (thread) a private copy removes the dependence —
/// the classic privatization transformation parallelization assistants
/// suggest alongside DOALL detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivatizationCandidate {
    /// The loop in question.
    pub loop_id: LoopId,
    /// Interned variable id (resolve via the program's interner).
    pub var: dp_types::VarId,
    /// Carried WAR occurrences.
    pub war: u64,
    /// Carried WAW occurrences.
    pub waw: u64,
}

/// Finds, for each loop, the variables whose only carried dependences are
/// WAR/WAW (privatizable). Variables that also carry a RAW through the
/// loop are excluded — privatization cannot fix a true dependence.
pub fn privatization_candidates(
    result: &ProfileResult,
    loops: &[LoopMeta],
) -> Vec<PrivatizationCandidate> {
    use std::collections::BTreeMap;
    // (loop, var) -> (war, waw, raw)
    let mut per: BTreeMap<(LoopId, dp_types::VarId), (u64, u64, u64)> = BTreeMap::new();
    for (d, val) in result.deps.dependences() {
        if !d.edge.flags.contains(DepFlags::LOOP_CARRIED) {
            continue;
        }
        for &l in val.carriers {
            let e = per.entry((l, d.edge.var)).or_default();
            match d.edge.dtype {
                DepType::War => e.0 += val.count,
                DepType::Waw => e.1 += val.count,
                DepType::Raw => e.2 += val.count,
                DepType::Init => {}
            }
        }
    }
    let known: std::collections::BTreeSet<LoopId> = loops.iter().map(|m| m.id).collect();
    per.into_iter()
        .filter(|((l, _), (war, waw, raw))| {
            known.contains(l) && *raw == 0 && (*war > 0 || *waw > 0)
        })
        .map(|((loop_id, var), (war, waw, _))| PrivatizationCandidate { loop_id, var, war, waw })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnlineLoopRow;
    use dp_core::SequentialProfiler;
    use dp_types::{loc::loc, MemAccess, TraceEvent, Tracer};

    /// Loop `id`'s row of the analysis over a one-loop table.
    fn row(r: &ProfileResult, id: LoopId, omp: bool) -> OnlineLoopRow {
        let meta = LoopMeta { id, name: format!("loop{id}"), omp };
        crate::report_for(r, &[meta], 0).loops.remove(0)
    }

    /// doall loop: each iteration touches its own address.
    fn doall_events() -> Vec<TraceEvent> {
        let mut evs = vec![TraceEvent::LoopBegin { loop_id: 0, loc: loc(1, 1), thread: 0, ts: 1 }];
        for it in 0..4u64 {
            let t = 10 + it * 10;
            evs.push(TraceEvent::LoopIter { loop_id: 0, iter: it, thread: 0, ts: t });
            evs.push(TraceEvent::Access(MemAccess::write(0x100 + it * 8, t + 1, loc(1, 2), 1, 0)));
            evs.push(TraceEvent::Access(MemAccess::read(0x100 + it * 8, t + 2, loc(1, 3), 1, 0)));
        }
        evs.push(TraceEvent::LoopEnd { loop_id: 0, loc: loc(1, 4), iters: 4, thread: 0, ts: 99 });
        evs
    }

    /// reduction loop: read+write the same scalar at one line.
    fn reduction_events() -> Vec<TraceEvent> {
        let mut evs =
            vec![TraceEvent::LoopBegin { loop_id: 1, loc: loc(1, 5), thread: 0, ts: 100 }];
        for it in 0..4u64 {
            let t = 110 + it * 10;
            evs.push(TraceEvent::LoopIter { loop_id: 1, iter: it, thread: 0, ts: t });
            evs.push(TraceEvent::Access(MemAccess::read(0x900, t + 1, loc(1, 6), 2, 0)));
            evs.push(TraceEvent::Access(MemAccess::write(0x900, t + 2, loc(1, 6), 2, 0)));
        }
        evs.push(TraceEvent::LoopEnd { loop_id: 1, loc: loc(1, 7), iters: 4, thread: 0, ts: 999 });
        evs
    }

    /// genuinely sequential: A[i] depends on A[i-1], different lines.
    fn recurrence_events() -> Vec<TraceEvent> {
        let mut evs =
            vec![TraceEvent::LoopBegin { loop_id: 2, loc: loc(1, 8), thread: 0, ts: 1000 }];
        for it in 0..4u64 {
            let t = 1010 + it * 10;
            evs.push(TraceEvent::LoopIter { loop_id: 2, iter: it, thread: 0, ts: t });
            // read previous element (written at line 10 last iteration)
            evs.push(TraceEvent::Access(MemAccess::read(0x200 + it * 8, t + 1, loc(1, 9), 3, 0)));
            evs.push(TraceEvent::Access(MemAccess::write(
                0x200 + (it + 1) * 8,
                t + 2,
                loc(1, 10),
                3,
                0,
            )));
        }
        evs.push(TraceEvent::LoopEnd {
            loop_id: 2,
            loc: loc(1, 11),
            iters: 4,
            thread: 0,
            ts: 9999,
        });
        evs
    }

    fn profile(evs: &[TraceEvent]) -> ProfileResult {
        let mut p = SequentialProfiler::perfect();
        for e in evs {
            p.event(*e);
        }
        p.finish()
    }

    #[test]
    fn doall_identified() {
        let v = row(&profile(&doall_events()), 0, true);
        assert_eq!(v.class, LoopClass::Doall);
        assert!(v.omp);
        assert_eq!((v.instances, v.iterations), (1, 4));
    }

    #[test]
    fn reduction_not_identified() {
        let v = row(&profile(&reduction_events()), 1, true);
        assert_eq!(v.class, LoopClass::Reduction);
        assert_eq!(v.blockers, [(loc(1, 6), loc(1, 6), 2)]);
    }

    #[test]
    fn recurrence_sequential() {
        let v = row(&profile(&recurrence_events()), 2, false);
        assert_eq!(v.class, LoopClass::Sequential);
        assert_eq!(v.blockers, [(loc(1, 9), loc(1, 10), 3)]);
    }

    #[test]
    fn unexecuted_loop_reported() {
        let v = row(&profile(&doall_events()), 9, true);
        assert_eq!(v.class, LoopClass::NotExecuted);
        assert_eq!((v.name.as_str(), v.instances, v.iterations), ("loop9", 0, 0));
    }
}

#[cfg(test)]
mod privatization_tests {
    use super::*;
    use dp_core::SequentialProfiler;
    use dp_types::{loc::loc, AccessKind, MemAccess, TraceEvent, Tracer};

    /// A loop where a temporary is written then read within each
    /// iteration: carried WAW/WAR on the temp, no carried RAW.
    #[test]
    fn temp_variable_is_privatizable() {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::LoopBegin { loop_id: 4, loc: loc(1, 1), thread: 0, ts: 1 });
        for it in 0..3u64 {
            let t = 10 + it * 10;
            p.event(TraceEvent::LoopIter { loop_id: 4, iter: it, thread: 0, ts: t });
            // write temp (addr 0x8, var 9) then read it, same iteration
            p.event(TraceEvent::Access(MemAccess {
                addr: 0x8,
                ts: t + 1,
                loc: loc(1, 2),
                var: 9,
                thread: 0,
                kind: AccessKind::Write,
            }));
            p.event(TraceEvent::Access(MemAccess {
                addr: 0x8,
                ts: t + 2,
                loc: loc(1, 3),
                var: 9,
                thread: 0,
                kind: AccessKind::Read,
            }));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 4, loc: loc(1, 4), iters: 3, thread: 0, ts: 99 });
        let r = p.finish();
        let metas = [LoopMeta { id: 4, name: "l".into(), omp: true }];
        let cands = privatization_candidates(&r, &metas);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].var, 9);
        assert!(cands[0].waw > 0, "{cands:?}"); // write of next iter vs write of prev
                                                // And the loop itself is NOT DOALL (carried WAW) but also not
                                                // blocked by RAW — classify still says DOALL because only RAW blocks:
        let v = crate::report_for(&r, &metas, 0);
        assert_eq!(v.loops[0].class, LoopClass::Doall);
    }

    /// A reduction's accumulator must NOT be a privatization candidate
    /// (it carries a RAW).
    #[test]
    fn accumulator_is_not_privatizable() {
        let mut p = SequentialProfiler::perfect();
        p.event(TraceEvent::LoopBegin { loop_id: 5, loc: loc(1, 1), thread: 0, ts: 1 });
        for it in 0..3u64 {
            let t = 10 + it * 10;
            p.event(TraceEvent::LoopIter { loop_id: 5, iter: it, thread: 0, ts: t });
            p.event(TraceEvent::Access(MemAccess {
                addr: 0x10,
                ts: t + 1,
                loc: loc(1, 2),
                var: 3,
                thread: 0,
                kind: AccessKind::Read,
            }));
            p.event(TraceEvent::Access(MemAccess {
                addr: 0x10,
                ts: t + 2,
                loc: loc(1, 2),
                var: 3,
                thread: 0,
                kind: AccessKind::Write,
            }));
        }
        p.event(TraceEvent::LoopEnd { loop_id: 5, loc: loc(1, 3), iters: 3, thread: 0, ts: 99 });
        let r = p.finish();
        let metas = [LoopMeta { id: 5, name: "red".into(), omp: true }];
        assert!(privatization_candidates(&r, &metas).is_empty());
    }
}
