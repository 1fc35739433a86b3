//! Accuracy of profiled dependences (Section VI-A, Table I).
//!
//! "To measure the false positive rate (FPR) and the false negative rate
//! (FNR) of the profiled dependences, we implemented a 'perfect
//! signature' ... We use the perfect signature as the baseline."
//!
//! A dependence is identified by `(type, sink, source, variable)`; INIT
//! markers are not dependences and are excluded. FPR is the fraction of
//! profiled dependences that are not in the baseline; FNR is the fraction
//! of baseline dependences the profiler missed.

use dp_core::ProfileResult;
use dp_types::{DepType, FxHashSet, SourceLoc, ThreadId, VarId};

type Ident = (DepType, SourceLoc, ThreadId, SourceLoc, ThreadId, VarId);

/// FPR/FNR comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Distinct dependences in the baseline (the "# dependences" column).
    pub baseline: usize,
    /// Distinct dependences reported by the profiler under test.
    pub profiled: usize,
    /// Reported but not real.
    pub false_positives: usize,
    /// Real but not reported.
    pub false_negatives: usize,
}

impl Accuracy {
    /// False positive rate in percent (of reported dependences), as in
    /// Table I.
    pub fn fpr(&self) -> f64 {
        100.0 * self.false_positives as f64 / self.profiled.max(1) as f64
    }

    /// False negative rate in percent (of baseline dependences).
    pub fn fnr(&self) -> f64 {
        100.0 * self.false_negatives as f64 / self.baseline.max(1) as f64
    }
}

/// Degradation report of a single run: how much of the event stream the
/// profiler actually observed, and what that implies for completeness.
///
/// The paper's Formula 2 quantifies the accuracy a signature gives up for
/// bounded memory; this is the same reporting discipline applied to the
/// fault-tolerance path — when workers die or events are dropped under
/// backpressure, the loss is *measured and bounded*, not silent. All
/// numbers come from [`ProfileStats`](dp_core::ProfileStats); dependences
/// that were reported remain exact, the loss is purely one of coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Accesses the workers actually processed.
    pub observed_events: u64,
    /// Events the router dropped (dead/stalled workers).
    pub dropped_events: u64,
    /// Event copies the router diverted from a dead owner to a surviving
    /// worker (coverage preserved, per-worker attribution changed).
    pub rerouted_events: u64,
    /// Events still sitting in abandoned workers' queues when the drain
    /// deadline expired.
    pub in_flight_at_shutdown: u64,
    /// Ids of workers lost mid-run.
    pub failed_workers: Vec<usize>,
    /// Total workers in the run.
    pub workers: usize,
}

impl Degradation {
    /// True when anything was lost.
    pub fn degraded(&self) -> bool {
        self.dropped_events > 0 || !self.failed_workers.is_empty()
    }

    /// Fraction of the offered event stream that was lost, in percent
    /// (dropped / (observed + dropped)).
    pub fn loss_rate(&self) -> f64 {
        let offered = self.observed_events + self.dropped_events;
        100.0 * self.dropped_events as f64 / offered.max(1) as f64
    }

    /// Formula-2-style estimate of the false-negative rate the loss
    /// induces, in percent: a dependence is observed only if both its
    /// endpoints were, so under a uniform loss rate `p` the expected
    /// fraction of missed dependences is `1 - (1 - p)²`. An estimate,
    /// not a bound — losses concentrated on one worker's residue class
    /// (the usual failure shape) miss that class's dependences entirely.
    pub fn expected_fnr(&self) -> f64 {
        let p = self.loss_rate() / 100.0;
        100.0 * (1.0 - (1.0 - p) * (1.0 - p))
    }

    /// One-line human-readable summary (the CLI's degraded banner).
    pub fn summary(&self) -> String {
        if !self.degraded() {
            return "profile complete (no events dropped, no worker failures)".to_string();
        }
        let workers = if self.failed_workers.is_empty() {
            String::new()
        } else {
            let ids: Vec<String> = self.failed_workers.iter().map(|w| format!("{w}")).collect();
            format!(
                ", worker{} {} of {} failed",
                if ids.len() == 1 { "" } else { "s" },
                ids.join("/"),
                self.workers
            )
        };
        let rerouted = if self.rerouted_events == 0 {
            String::new()
        } else {
            format!(", {} events rerouted", self.rerouted_events)
        };
        format!(
            "profile degraded ({} events dropped, {:.2}% of stream{}{})",
            self.dropped_events,
            self.loss_rate(),
            workers,
            rerouted
        )
    }
}

fn ident_set(r: &ProfileResult) -> FxHashSet<Ident> {
    r.deps
        .dependences()
        .filter(|(d, _)| d.edge.dtype != DepType::Init)
        .map(|(d, _)| d.identity())
        .collect()
}

/// Compares a profiled result against the perfect-signature baseline.
pub fn compare(baseline: &ProfileResult, profiled: &ProfileResult) -> Accuracy {
    let base = ident_set(baseline);
    let prof = ident_set(profiled);
    let false_positives = prof.difference(&base).count();
    let false_negatives = base.difference(&prof).count();
    Accuracy { baseline: base.len(), profiled: prof.len(), false_positives, false_negatives }
}

/// The degradation report of a run (see [`Degradation`]).
pub fn degradation(r: &ProfileResult) -> Degradation {
    Degradation {
        observed_events: r.stats.events,
        dropped_events: r.stats.dropped_events,
        rerouted_events: r.metrics.conservation.rerouted,
        in_flight_at_shutdown: r.metrics.conservation.in_flight_at_shutdown,
        failed_workers: r.stats.worker_failures.iter().map(|f| f.worker).collect(),
        workers: r.workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::SequentialProfiler;
    use dp_sig::{ExtendedSlot, Signature};
    use dp_types::{loc::loc, MemAccess, TraceEvent};

    /// Write every address, then read every address: collisions in a
    /// small signature corrupt the remembered write lines, producing both
    /// false positives (wrong source) and false negatives (true pair
    /// missing).
    fn stream(n: u64) -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        let mut ts = 0;
        for i in 0..n {
            ts += 1;
            evs.push(TraceEvent::Access(MemAccess::write(
                0x1000 + i * 8,
                ts,
                loc(1, i as u32 + 1),
                1,
                0,
            )));
        }
        for i in 0..n {
            ts += 1;
            evs.push(TraceEvent::Access(MemAccess::read(
                0x1000 + i * 8,
                ts,
                loc(1, i as u32 + 10_000),
                1,
                0,
            )));
        }
        evs
    }

    fn run<S: dp_sig::AccessStore>(
        mut p: SequentialProfiler<S>,
        evs: &[TraceEvent],
    ) -> ProfileResult {
        for e in evs {
            p.on_event(e);
        }
        p.finish()
    }

    #[test]
    fn perfect_vs_perfect_is_exact() {
        let evs = stream(500);
        let a = run(SequentialProfiler::perfect(), &evs);
        let b = run(SequentialProfiler::perfect(), &evs);
        let acc = compare(&a, &b);
        assert_eq!(acc.fpr(), 0.0);
        assert_eq!(acc.fnr(), 0.0);
        assert!(acc.baseline > 0);
    }

    #[test]
    fn large_signature_is_near_exact_small_is_not() {
        let evs = stream(2000);
        let base = run(SequentialProfiler::perfect(), &evs);
        let big = run(
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(1 << 20),
                Signature::<ExtendedSlot>::new(1 << 20),
            ),
            &evs,
        );
        let small = run(
            SequentialProfiler::with_stores(
                Signature::<ExtendedSlot>::new(64),
                Signature::<ExtendedSlot>::new(64),
            ),
            &evs,
        );
        let acc_big = compare(&base, &big);
        let acc_small = compare(&base, &small);
        assert!(acc_big.fpr() < 1.0, "big fpr {}", acc_big.fpr());
        assert!(acc_big.fnr() < 1.0, "big fnr {}", acc_big.fnr());
        assert!(
            acc_small.fpr() > acc_big.fpr() && acc_small.fnr() > acc_big.fnr(),
            "small {} {} vs big {} {}",
            acc_small.fpr(),
            acc_small.fnr(),
            acc_big.fpr(),
            acc_big.fnr()
        );
    }

    #[test]
    fn degradation_rates_and_summary() {
        let mut r = ProfileResult { workers: 4, ..Default::default() };
        r.stats.events = 900;
        assert!(!degradation(&r).degraded());
        assert_eq!(degradation(&r).loss_rate(), 0.0);
        assert!(degradation(&r).summary().contains("complete"));

        r.stats.dropped_events = 100;
        r.stats.worker_failures.push(dp_core::WorkerFailure {
            worker: 2,
            workers: 4,
            cause: dp_core::FailureCause::Unresponsive,
        });
        let d = degradation(&r);
        assert!(d.degraded());
        assert_eq!(d.loss_rate(), 10.0);
        // 1 - 0.9² = 19%
        assert!((d.expected_fnr() - 19.0).abs() < 1e-9, "{}", d.expected_fnr());
        let s = d.summary();
        assert!(s.contains("100 events dropped"), "{s}");
        assert!(s.contains("worker 2 of 4 failed"), "{s}");
        // Rerouting is only mentioned when it happened.
        assert!(!s.contains("rerouted"), "{s}");
        r.metrics.conservation.rerouted = 7;
        let s = degradation(&r).summary();
        assert!(s.contains(", 7 events rerouted"), "{s}");
    }

    #[test]
    fn degradation_of_empty_run_is_clean() {
        let d = degradation(&ProfileResult::default());
        assert_eq!(d.loss_rate(), 0.0);
        assert_eq!(d.expected_fnr(), 0.0);
        assert!(!d.degraded());
    }

    #[test]
    fn init_records_do_not_count() {
        let mut p = SequentialProfiler::perfect();
        p.on_event(&TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 1), 1, 0)));
        let r = p.finish();
        let acc = compare(&r, &r);
        assert_eq!(acc.baseline, 0);
    }
}
