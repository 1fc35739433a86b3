//! Potential data races from timestamp reversals (Section V-B).
//!
//! "The situation where the atomicity of access occurrence and reporting
//! is violated can only happen if there are no synchronization mechanisms
//! in place to keep the two accesses to \[the\] memory location mutually
//! exclusive. ... its absence definitely exposes a potential data race."
//!
//! Every `REVERSED`-flagged dependence is one hint; the analysis fold
//! lists them ([`report_for`](crate::report_for)).

use dp_types::{DepType, SourceLoc, ThreadId, VarId};

/// One potential race: a dependence observed with reversed timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceHint {
    /// Variable involved.
    pub var: VarId,
    /// Dependence type under which the reversal was seen.
    pub dtype: DepType,
    /// The two statements involved (sink, source) with their threads.
    pub sink: (SourceLoc, ThreadId),
    /// Source statement and thread.
    pub source: (SourceLoc, ThreadId),
    /// How many dynamic occurrences the merged record accumulated (not
    /// all of them necessarily reversed).
    pub occurrences: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{MtProfiler, ProfileResult, ProfilerConfig};
    use dp_types::{loc::loc, MemAccess, TraceEvent, Tracer, TracerFactory};

    fn races(r: &ProfileResult) -> Vec<RaceHint> {
        crate::report_for(r, &[], 0).races
    }

    #[test]
    fn reversed_dep_surfaces_as_race_hint() {
        let prof = MtProfiler::new(ProfilerConfig::default().with_workers(1));
        let mut t1 = prof.tracer(1);
        t1.event(TraceEvent::Access(MemAccess::write(0x40, 12, loc(1, 5), 3, 1)));
        t1.sync_point();
        let mut t2 = prof.tracer(2);
        t2.event(TraceEvent::Access(MemAccess::read(0x40, 10, loc(1, 6), 3, 2)));
        t2.sync_point();
        prof.join(1, t1);
        prof.join(2, t2);
        let r = prof.finish();
        let races = races(&r);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].dtype, DepType::Raw);
        assert_eq!(races[0].sink.1, 2);
        assert_eq!(races[0].source.1, 1);
    }

    #[test]
    fn ordered_deps_produce_no_hints() {
        let prof = MtProfiler::new(ProfilerConfig::default().with_workers(1));
        let mut t1 = prof.tracer(1);
        t1.event(TraceEvent::Access(MemAccess::write(0x40, 1, loc(1, 5), 3, 1)));
        t1.sync_point();
        let mut t2 = prof.tracer(2);
        t2.event(TraceEvent::Access(MemAccess::read(0x40, 2, loc(1, 6), 3, 2)));
        t2.sync_point();
        prof.join(1, t1);
        prof.join(2, t2);
        let r = prof.finish();
        assert!(races(&r).is_empty());
    }
}
