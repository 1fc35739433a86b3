//! Model-based property tests: every queue must behave exactly like a
//! bounded `VecDeque` under arbitrary push/pop interleavings
//! (single-threaded — concurrency is covered by the stress tests in the
//! unit suites; these pin the sequential semantics the pipeline builds
//! on: FIFO order, capacity behaviour, emptiness).

use dp_queue::{spsc_ring, FaultPlan, LockQueue, MpmcQueue, TransportReceiver, TransportSender};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32),
    Pop,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => any::<u32>().prop_map(Op::Push), 2 => Just(Op::Pop)],
        1..max,
    )
}

/// A shared queue's channel: one `Arc` on each side.
fn shared<Q>(queue: Q) -> (Arc<Q>, Arc<Q>) {
    let q = Arc::new(queue);
    (q.clone(), q)
}

fn check_against_model(
    cap_pow2: usize,
    ops: &[Op],
    push: impl Fn(u32) -> Result<(), u32>,
    pop: impl Fn() -> Option<u32>,
) {
    let mut model: VecDeque<u32> = VecDeque::new();
    for &op in ops {
        match op {
            Op::Push(v) => {
                let model_full = model.len() >= cap_pow2;
                match push(v) {
                    Ok(()) => {
                        assert!(!model_full, "queue accepted a push beyond capacity");
                        model.push_back(v);
                    }
                    Err(back) => {
                        assert_eq!(back, v, "rejected push must return the value");
                        assert!(model_full, "queue rejected a push while below capacity");
                    }
                }
            }
            Op::Pop => {
                assert_eq!(pop(), model.pop_front(), "FIFO order diverged");
            }
        }
    }
    // Drain: remaining contents must match exactly.
    while let Some(expect) = model.pop_front() {
        assert_eq!(pop(), Some(expect));
    }
    assert_eq!(pop(), None);
}

/// The same model check, phrased against the endpoint traits the engine
/// reaches a worker through. Capacities are powers of two so the rings'
/// round-up doesn't change the bound.
fn check_transport_model<S: TransportSender<u32>, R: TransportReceiver<u32>>(
    (tx, rx): (S, R),
    cap_pow2: usize,
    ops: &[Op],
) {
    check_against_model(cap_pow2, ops, |v| tx.push(v), || rx.pop());
    assert!(tx.memory_usage() >= cap_pow2 * std::mem::size_of::<u32>());
}

/// The pipeline's shutdown protocol: the router pushes its backlog and a
/// sentinel, the worker (another thread) drains until the sentinel. Every
/// queue must deliver the full backlog, in order, across the thread
/// boundary — also when `plan` makes both sides fail spuriously on its
/// seeded schedule and retry, as the engines do.
fn check_shutdown_drain<S, R>((tx, rx): (S, R), plan: &FaultPlan)
where
    S: TransportSender<u32>,
    R: TransportReceiver<u32> + 'static,
{
    const N: u32 = 10_000;
    const SHUTDOWN: u32 = u32::MAX;
    let (full, empty) = (plan.spurious_full(0), plan.spurious_empty(0));
    let worker = std::thread::spawn(move || {
        let mut got = Vec::new();
        loop {
            match if empty.fires() { None } else { rx.pop() } {
                Some(SHUTDOWN) => break,
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        got
    });
    for mut v in (0..N).chain([SHUTDOWN]) {
        while let Err(back) = if full.fires() { Err(v) } else { tx.push(v) } {
            v = back;
            std::thread::yield_now();
        }
    }
    let got = worker.join().unwrap();
    assert_eq!(got.len() as u32, N, "events lost before shutdown");
    assert!(got.iter().copied().eq(0..N), "drain order diverged");
}

#[test]
fn all_transports_drain_on_shutdown() {
    let plan = FaultPlan::none();
    check_shutdown_drain(shared(MpmcQueue::new(16)), &plan);
    check_shutdown_drain(shared(LockQueue::new(16)), &plan);
    check_shutdown_drain(spsc_ring(16), &plan);
}

/// The shutdown-drain protocol must also survive queue-level chaos: with
/// seeded spurious full/empty results both sides retry, and every message
/// still arrives exactly once, in order.
#[test]
fn chaotic_transports_still_drain_on_shutdown() {
    for seed in [3u64, 17, 99] {
        let plan = FaultPlan::none().with_seed(seed).with_spurious(25, 25);
        check_shutdown_drain(spsc_ring(16), &plan);
        check_shutdown_drain(shared(MpmcQueue::new(16)), &plan);
        check_shutdown_drain(shared(LockQueue::new(16)), &plan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mpmc_matches_model(ops in ops(300), cap_shift in 1u32..6) {
        let q = MpmcQueue::new(1 << cap_shift);
        check_against_model(1 << cap_shift, &ops, |v| q.push(v), || q.pop());
    }

    #[test]
    fn transports_match_model(ops in ops(300), cap_shift in 1u32..6) {
        let cap = 1 << cap_shift;
        check_transport_model(shared(MpmcQueue::new(cap)), cap, &ops);
        check_transport_model(shared(LockQueue::new(cap)), cap, &ops);
        check_transport_model(spsc_ring(cap), cap, &ops);
    }

    #[test]
    fn lockqueue_matches_model(ops in ops(300), cap_shift in 1u32..6) {
        let q = LockQueue::new(1 << cap_shift);
        check_against_model(1 << cap_shift, &ops, |v| q.push(v), || q.pop());
    }

    #[test]
    fn spsc_matches_model(ops in ops(300), cap_shift in 1u32..6) {
        let cap = 1usize << cap_shift;
        let (p, c) = spsc_ring::<u32>(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for &op in &ops {
            match op {
                Op::Push(v) => match p.push(v) {
                    Ok(()) => {
                        prop_assert!(model.len() < cap);
                        model.push_back(v);
                    }
                    Err(back) => {
                        prop_assert_eq!(back, v);
                        prop_assert!(model.len() >= cap);
                    }
                },
                Op::Pop => {
                    prop_assert_eq!(c.pop(), model.pop_front());
                }
            }
        }
        while let Some(expect) = model.pop_front() {
            prop_assert_eq!(c.pop(), Some(expect));
        }
        prop_assert_eq!(c.pop(), None);
    }
}

/// Cross-thread FIFO per producer through the MPMC queue: with two
/// producers pushing tagged sequences, each producer's values must arrive
/// in its program order (the property the parallel pipeline's per-address
/// soundness rests on).
#[test]
fn mpmc_per_producer_fifo_under_concurrency() {
    const PER: u64 = 20_000;
    let q = Arc::new(MpmcQueue::<u64>::new(128));
    let mut handles = Vec::new();
    for p in 0..2u64 {
        let q = q.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..PER {
                let mut v = (p << 32) | i;
                while let Err(back) = q.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        }));
    }
    let mut last = [0u64, 0];
    let mut seen = 0u64;
    while seen < 2 * PER {
        if let Some(v) = q.pop() {
            let p = (v >> 32) as usize;
            let i = v & 0xffff_ffff;
            assert!(i == 0 || i >= last[p], "producer {p} out of order: {i} after {}", last[p]);
            last[p] = i;
            seen += 1;
        } else {
            std::thread::yield_now();
        }
    }
    for h in handles {
        h.join().unwrap();
    }
}
