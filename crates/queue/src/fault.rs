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
//! Two layers:
//!
//! - [`FaultPlan`] — a declarative script of engine-level faults ("panic
//!   worker 2 after 5 chunks", "stall worker 1 from chunk 0", "drop the
//!   first migration reply"). The profiling engines consult the plan at
//!   well-defined points in their worker loops; with [`FaultPlan::none`]
//!   (the default) every hook is a branch on a `None`.
//! - [`FailingTransport`] — a [`Transport`]
//!   decorator that injects *queue-level* chaos: seeded spurious push
//!   failures (the channel claims to be full when it is not) and
//!   spurious empty pops (the channel claims to be empty when it is
//!   not). Both are pure
//!   performance faults — no message is ever lost or reordered — so a
//!   correct engine must produce bit-identical dependence sets through
//!   any seed, which is exactly what the chaos suite asserts.
//!
//! Both are always compiled: an inert plan costs a branch per hook, and
//! the decorator costs nothing unless a caller wraps a transport in it.

use crate::traits::{Transport, TransportReceiver, TransportSender};
use std::cell::Cell;

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
    /// Seed for the [`FailingTransport`] RNG streams (each endpoint
    /// derives its own stream from `seed` and its worker id, so runs are
    /// reproducible regardless of thread interleaving).
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
    /// [`FailingTransport`]: percentage (0–100) of pushes that spuriously
    /// report "full".
    pub spurious_send_fail_pct: u8,
    /// [`FailingTransport`]: percentage (0–100) of pops that spuriously
    /// report "empty".
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

    /// Builder: seeded spurious transport failures (percentages 0–100).
    pub fn with_spurious(mut self, send_fail_pct: u8, recv_empty_pct: u8) -> Self {
        self.spurious_send_fail_pct = send_fail_pct.min(100);
        self.spurious_recv_empty_pct = recv_empty_pct.min(100);
        self
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

/// xorshift64*: tiny, fast, and plenty for fault scheduling.
fn xorshift(state: &Cell<u64>) -> u64 {
    let mut x = state.get();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state.set(x);
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn stream_seed(seed: u64, wid: usize, salt: u64) -> u64 {
    // SplitMix-style mixing; never zero (xorshift's absorbing state).
    let mut z = seed ^ (wid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// A [`Transport`] decorator injecting seeded, deterministic
/// queue-level chaos (spurious full/empty results). Messages are
/// never lost, duplicated or reordered: any engine that is correct
/// over this transport under one seed is correct under all of them,
/// and its dependence output must be bit-identical to the plain
/// transport's.
pub struct FailingTransport<X> {
    inner: X,
    plan: FaultPlan,
}

impl<X> FailingTransport<X> {
    /// Wraps `inner`, injecting the transport-level faults of `plan`.
    pub fn new(inner: X, plan: FaultPlan) -> Self {
        FailingTransport { inner, plan }
    }
}

impl<X: Default> Default for FailingTransport<X> {
    fn default() -> Self {
        FailingTransport::new(X::default(), FaultPlan::none())
    }
}

/// Sender half of a [`FailingTransport`] channel.
pub struct FailingSender<S> {
    inner: S,
    rng: Cell<u64>,
    fail_pct: u8,
}

/// Receiver half of a [`FailingTransport`] channel.
pub struct FailingReceiver<R> {
    inner: R,
    rng: Cell<u64>,
    empty_pct: u8,
}

impl<T, X: Transport<T>> Transport<T> for FailingTransport<X> {
    type Sender = FailingSender<X::Sender>;
    type Receiver = FailingReceiver<X::Receiver>;

    fn channel(&self, wid: usize, cap: usize) -> (Self::Sender, Self::Receiver) {
        let (tx, rx) = self.inner.channel(wid, cap);
        (
            FailingSender {
                inner: tx,
                rng: Cell::new(stream_seed(self.plan.seed, wid, 0xA5)),
                fail_pct: self.plan.spurious_send_fail_pct,
            },
            FailingReceiver {
                inner: rx,
                rng: Cell::new(stream_seed(self.plan.seed, wid, 0x5A)),
                empty_pct: self.plan.spurious_recv_empty_pct,
            },
        )
    }

    fn kind() -> &'static str {
        "failing"
    }
}

impl<T, S: TransportSender<T>> TransportSender<T> for FailingSender<S> {
    fn push(&self, value: T) -> Result<(), T> {
        if self.fail_pct > 0 && (xorshift(&self.rng) % 100) < self.fail_pct as u64 {
            return Err(value); // spurious "full"; the value is intact
        }
        self.inner.push(value)
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

impl<T, R: TransportReceiver<T>> TransportReceiver<T> for FailingReceiver<R> {
    fn pop(&self) -> Option<T> {
        if self.empty_pct > 0 && (xorshift(&self.rng) % 100) < self.empty_pct as u64 {
            return None; // spurious "empty"; nothing is consumed
        }
        self.inner.pop()
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

    mod transport {
        use super::super::*;
        use crate::traits::{Transport, TransportReceiver, TransportSender};
        use crate::{MpmcQueue, Shared, SpscTransport};

        /// Spurious failures must not lose, duplicate or reorder values.
        fn chaos_preserves_fifo<X: Transport<u64> + Default>(seed: u64) {
            let plan = FaultPlan::none().with_seed(seed).with_spurious(30, 30);
            let t = FailingTransport::new(X::default(), plan);
            let (tx, rx) = t.channel(0, 8);
            let mut next_pop = 0u64;
            for i in 0..10_000u64 {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            // Drain a little so real fullness clears.
                            if let Some(got) = rx.pop() {
                                assert_eq!(got, next_pop);
                                next_pop += 1;
                            }
                        }
                    }
                }
            }
            while next_pop < 10_000 {
                if let Some(got) = rx.pop() {
                    assert_eq!(got, next_pop);
                    next_pop += 1;
                }
            }
            assert!(rx.pop().is_none() || rx.pop().is_none(), "queue must end empty");
        }

        #[test]
        fn chaos_is_lossless_over_every_inner_transport() {
            for seed in [1, 42, 0xDEAD_BEEF] {
                chaos_preserves_fifo::<SpscTransport>(seed);
                chaos_preserves_fifo::<Shared<MpmcQueue<u64>>>(seed);
                chaos_preserves_fifo::<Shared<crate::LockQueue<u64>>>(seed);
            }
        }

        #[test]
        fn same_seed_same_schedule() {
            let mk = |seed| {
                let t = FailingTransport::new(
                    SpscTransport,
                    FaultPlan::none().with_seed(seed).with_spurious(50, 0),
                );
                let (tx, _rx) = t.channel(3, 64);
                (0..64u64).map(|i| tx.push(i).is_ok()).collect::<Vec<_>>()
            };
            assert_eq!(mk(7), mk(7), "same seed must fail the same pushes");
            assert_ne!(mk(7), mk(8), "different seeds must differ (w.h.p.)");
        }

        #[test]
        fn closed_detection_passes_through() {
            let t = FailingTransport::new(SpscTransport, FaultPlan::none());
            let (tx, rx) = Transport::<u64>::channel(&t, 0, 4);
            assert!(!tx.is_closed());
            drop(rx);
            assert!(tx.is_closed());
        }
    }
}
