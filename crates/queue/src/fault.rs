//! Deterministic fault injection for the profiling pipeline.
//!
//! The paper's central trade-off is *graceful degradation*: signatures
//! bound memory by accepting a quantified accuracy loss (Section III-B,
//! Formula 2). The fault-tolerance layer extends the same philosophy to
//! the runtime — a worker panic, a stalled queue or a lost migration
//! reply degrades the profile instead of aborting it. Recovery code that
//! is only exercised by real crashes is recovery code that does not work;
//! this module makes every failure mode *schedulable*, so the recovery
//! paths run under seeded, reproducible tests.
//!
//! [`FaultPlan`] is a declarative script of faults for one profiling run,
//! carried in the engine's configuration and read at well-defined points:
//!
//! - engine-level faults in the worker loop ("panic worker 2 after 5
//!   chunks", "stall worker 1 from chunk 0", "drop the first migration
//!   reply");
//! - queue-level chaos on every worker channel, whatever the queue: seeded
//!   [`Spurious`] push failures (the channel claims to be full when it is
//!   not) and empty pops (it claims to be empty when it is not). Both are
//!   pure performance faults — no message is ever lost or reordered — so a
//!   correct engine must produce bit-identical dependence sets through
//!   any seed, which is exactly what the chaos suites assert.
//!
//! Always compiled: with [`FaultPlan::none`] (the default) every hook is a
//! branch on a `None` or a zero percentage.

use std::sync::atomic::{AtomicU64, Ordering};

/// One worker-targeted fault: trigger on worker `worker` after it has
/// processed `after_chunks` event chunks (0 = before the first chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// The worker the fault targets.
    pub worker: usize,
    /// Event chunks the worker processes before the fault fires.
    pub after_chunks: u64,
}

impl WorkerFault {
    /// Parses the command-line spelling `worker@chunks` (e.g. `2@5`).
    pub fn parse(s: &str) -> Option<WorkerFault> {
        let (w, n) = s.split_once('@')?;
        Some(WorkerFault { worker: w.parse().ok()?, after_chunks: n.parse().ok()? })
    }
}

/// A deterministic, declarative script of faults to inject into one
/// profiling run. See the [module docs](self) for the philosophy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the [`Spurious`] schedules: the push side and the pop side
    /// of each worker's channel derive their own stream from `seed` and
    /// the worker id, so a single-producer run fails the same attempts
    /// whatever the thread interleaving.
    pub seed: u64,
    /// Panic worker *k* after *n* chunks (inside its worker loop, where
    /// the supervisor's `catch_unwind` contains it).
    pub panic_worker: Option<WorkerFault>,
    /// Stall worker *k* after *n* chunks: the worker stops consuming its
    /// queue but stays alive, parking until the supervisor abandons it.
    /// This is the scenario bounded backpressure exists for.
    pub stall_worker: Option<WorkerFault>,
    /// Drop the *n*-th (0-based) migration `Extracted` reply instead of
    /// sending it to the router: the migrated signature state is lost and
    /// the router's in-flight entry must be resolved by the drain
    /// deadline, not by the reply.
    pub drop_nth_extract_reply: Option<u64>,
    /// Percentage (0–100) of pushes to a worker's channel that spuriously
    /// report "full".
    pub spurious_send_fail_pct: u8,
    /// Percentage (0–100) of a worker's pops that spuriously report
    /// "empty".
    pub spurious_recv_empty_pct: u8,
}

impl FaultPlan {
    /// The empty plan: no faults, every hook short-circuits.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault is scheduled (the hooks are all inert).
    pub fn is_none(&self) -> bool {
        self.panic_worker.is_none()
            && self.stall_worker.is_none()
            && self.drop_nth_extract_reply.is_none()
            && self.spurious_send_fail_pct == 0
            && self.spurious_recv_empty_pct == 0
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: panic worker `worker` after `after_chunks` chunks.
    pub fn with_panic(mut self, worker: usize, after_chunks: u64) -> Self {
        self.panic_worker = Some(WorkerFault { worker, after_chunks });
        self
    }

    /// Builder: stall worker `worker` after `after_chunks` chunks.
    pub fn with_stall(mut self, worker: usize, after_chunks: u64) -> Self {
        self.stall_worker = Some(WorkerFault { worker, after_chunks });
        self
    }

    /// Builder: drop the `n`-th (0-based) migration reply.
    pub fn with_dropped_reply(mut self, n: u64) -> Self {
        self.drop_nth_extract_reply = Some(n);
        self
    }

    /// Builder: seeded spurious channel failures (percentages 0–100).
    pub fn with_spurious(mut self, send_fail_pct: u8, recv_empty_pct: u8) -> Self {
        self.spurious_send_fail_pct = send_fail_pct.min(100);
        self.spurious_recv_empty_pct = recv_empty_pct.min(100);
        self
    }

    /// The schedule of spurious "full" answers to pushes into worker
    /// `wid`'s channel.
    pub fn spurious_full(&self, wid: usize) -> Spurious {
        Spurious::new(self.seed, wid, 0xA5, self.spurious_send_fail_pct)
    }

    /// The schedule of spurious "empty" answers to worker `wid`'s pops.
    pub fn spurious_empty(&self, wid: usize) -> Spurious {
        Spurious::new(self.seed, wid, 0x5A, self.spurious_recv_empty_pct)
    }
}

/// Reads `DEPPROF_CHAOS_SEED` (a comma-separated list of `u64`s) and
/// returns the seeds the chaos suites should run, falling back to
/// `defaults` when the variable is unset. A present-but-unparseable
/// value is *not* silently ignored: it prints a warning on stderr and
/// falls back, so a typo'd seed list shows up in the test log instead
/// of quietly testing nothing the operator asked for.
pub fn chaos_seeds(defaults: &[u64]) -> Vec<u64> {
    match std::env::var("DEPPROF_CHAOS_SEED") {
        Ok(raw) => {
            let parsed: Result<Vec<u64>, _> =
                raw.split(',').map(|s| s.trim().parse::<u64>()).collect();
            match parsed {
                Ok(seeds) if !seeds.is_empty() => seeds,
                _ => {
                    eprintln!(
                        "warning: DEPPROF_CHAOS_SEED={raw:?} is not a comma-separated \
                         list of u64 seeds; falling back to the default seeds"
                    );
                    defaults.to_vec()
                }
            }
        }
        Err(_) => defaults.to_vec(),
    }
}

/// A seeded schedule of spurious queue failures for one end of one
/// worker's channel: pushes answer "full", or pops "empty", on the
/// attempts the schedule picks ([`FaultPlan::spurious_full`],
/// [`FaultPlan::spurious_empty`]). Nothing is consumed by a spurious
/// answer and the caller retries, so messages are never lost, duplicated
/// or reordered: any engine that is correct under one seed is correct
/// under all of them, with bit-identical dependence output.
#[derive(Debug)]
pub struct Spurious {
    state: AtomicU64,
    pct: u8,
}

impl Spurious {
    fn new(seed: u64, wid: usize, salt: u64, pct: u8) -> Self {
        // SplitMix-style mixing; never zero (xorshift's absorbing state).
        let mut z = seed ^ (wid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Spurious { state: AtomicU64::new((z ^ (z >> 31)) | 1), pct }
    }

    /// True when this attempt must fail spuriously. At 0 % it is never
    /// true and touches no shared state; otherwise each call advances an
    /// xorshift64* stream, atomically, so producers on several threads
    /// draw from one schedule.
    pub fn fires(&self) -> bool {
        if self.pct == 0 {
            return false;
        }
        let step = |mut x: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let prev = self.state.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(step(x)));
        let x = step(prev.expect("the step never declines to update"));
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 100 < self.pct as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().with_panic(1, 5).is_none());
        assert!(!FaultPlan::none().with_stall(0, 0).is_none());
        assert!(!FaultPlan::none().with_dropped_reply(0).is_none());
        assert!(!FaultPlan::none().with_spurious(10, 0).is_none());
        // The seed alone schedules nothing.
        assert!(FaultPlan::none().with_seed(42).is_none());
    }

    #[test]
    fn chaos_seeds_falls_back_with_warning_on_garbage() {
        // Env vars are process-global: keep every case in one test so
        // parallel test threads never race on the variable.
        let defaults = [1u64, 7, 42];
        std::env::remove_var("DEPPROF_CHAOS_SEED");
        assert_eq!(chaos_seeds(&defaults), defaults);
        std::env::set_var("DEPPROF_CHAOS_SEED", "5, 99");
        assert_eq!(chaos_seeds(&defaults), vec![5, 99]);
        std::env::set_var("DEPPROF_CHAOS_SEED", "not-a-seed");
        assert_eq!(chaos_seeds(&defaults), defaults, "garbage must fall back, not panic");
        std::env::set_var("DEPPROF_CHAOS_SEED", "");
        assert_eq!(chaos_seeds(&defaults), defaults);
        std::env::remove_var("DEPPROF_CHAOS_SEED");
    }

    #[test]
    fn worker_fault_parses_cli_spelling() {
        assert_eq!(WorkerFault::parse("2@5"), Some(WorkerFault { worker: 2, after_chunks: 5 }));
        assert_eq!(WorkerFault::parse("0@0"), Some(WorkerFault { worker: 0, after_chunks: 0 }));
        assert_eq!(WorkerFault::parse("2"), None);
        assert_eq!(WorkerFault::parse("x@y"), None);
    }

    /// Queue-level chaos: the spurious-failure schedules.
    mod transport {
        use super::super::*;

        #[test]
        fn same_seed_same_schedule() {
            let mk = |seed| {
                let s = FaultPlan::none().with_seed(seed).with_spurious(50, 0).spurious_full(3);
                (0..64).map(|_| s.fires()).collect::<Vec<_>>()
            };
            assert_eq!(mk(7), mk(7), "same seed must fail the same pushes");
            assert_ne!(mk(7), mk(8), "different seeds must differ (w.h.p.)");
            assert!(mk(7).contains(&true) && mk(7).contains(&false));
            // The pop side has its own percentage: 0 never fires.
            let quiet = FaultPlan::none().with_seed(7).with_spurious(50, 0).spurious_empty(3);
            assert!((0..64).all(|_| !quiet.fires()));
        }
    }
}
