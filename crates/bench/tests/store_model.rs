//! The comparator stores against the exact-store model dp-sig's own
//! `store_model` uses (one copy, included by path): shadow memory and the
//! hash table must agree with it on arbitrary operation sequences, and
//! the stride store must keep its documented contract. None of them can
//! be checkpointed, and the engines must refuse to checkpoint them.

use dp_bench::baselines::{HashHistory, ShadowMemory, StrideStore};
use dp_core::report::render;
use dp_core::{CheckpointError, ParallelProfiler, ProfilerConfig, SequentialProfiler};
use dp_sig::{AccessStore, SigEntry};
use dp_types::loc::loc;
use dp_types::{Interner, MemAccess, TraceEvent, Tracer};
use proptest::prelude::*;

#[path = "../../sig/tests/model/mod.rs"]
mod model;
use model::{addr, check_exact, ops, Op};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shadow_matches_model(ops in ops(300)) {
        check_exact(ShadowMemory::new(), &ops)?;
    }

    #[test]
    fn hash_history_matches_model(ops in ops(300), buckets in 1usize..64) {
        check_exact(HashHistory::new(buckets), &ops)?;
    }

    /// StrideStore contract: an address that was `put` and not removed is
    /// either reported with *some* line (possibly another line's run —
    /// the documented approximation) or not at all; a removed address is
    /// never reported.
    #[test]
    fn stride_store_contract(ops in ops(300)) {
        let mut store = StrideStore::new();
        let mut present = std::collections::HashSet::new();
        let mut ts = 0u64;
        for &op in &ops {
            match op {
                Op::Put { slot, line } => {
                    ts += 1;
                    store.put(addr(slot), SigEntry::new(loc(1, line as u32), 0, ts));
                    present.insert(addr(slot));
                }
                Op::Remove { slot } => {
                    store.remove(addr(slot));
                    present.remove(&addr(slot));
                }
                Op::Get { slot } => {
                    let got = store.get(addr(slot));
                    if !present.contains(&addr(slot)) {
                        prop_assert!(got.is_none(), "removed/absent address reported");
                    }
                }
            }
        }
    }
}

/// A refused checkpoint leaves the parallel pipeline running: the events
/// after it are profiled, nothing is lost, and the report is the serial
/// engine's over the same store.
#[test]
fn checkpoint_of_an_unsupported_store_is_an_error() {
    let mut serial = SequentialProfiler::with_stores(ShadowMemory::new(), ShadowMemory::new());
    let err = serial.checkpoint_data(0, 0, Vec::new()).expect_err("shadow memory cannot save");
    assert!(matches!(err, CheckpointError::Unsupported(_)), "{err}");

    let evs: Vec<TraceEvent> = (0..4_000u64)
        .map(|i| {
            let (addr, line) = (0x1000 + (i % 512) * 8, 1 + (i % 7) as u32);
            TraceEvent::Access(if i % 3 == 0 {
                MemAccess::write(addr, i + 1, loc(1, line), 1, 0)
            } else {
                MemAccess::read(addr, i + 1, loc(1, line), 1, 0)
            })
        })
        .collect();
    let (head, tail) = evs.split_at(evs.len() / 2);
    let mut parallel =
        ParallelProfiler::new(ProfilerConfig::default().with_workers(2), ShadowMemory::new);
    head.iter().for_each(|ev| parallel.event(*ev));
    let err = parallel
        .checkpoint_data(1, head.len() as u64, Vec::new())
        .expect_err("shadow memory cannot save");
    assert!(matches!(err, CheckpointError::Unsupported(_)), "{err}");
    tail.iter().for_each(|ev| parallel.event(*ev));
    let r = parallel.finish();
    assert!(!r.degraded(), "a refused checkpoint degraded the run: {:?}", r.stats);
    assert_eq!(r.stats.accesses, evs.len() as u64);

    let mut reference = SequentialProfiler::with_stores(ShadowMemory::new(), ShadowMemory::new());
    evs.iter().for_each(|ev| reference.on_event(ev));
    let interner = Interner::new();
    assert_eq!(render(&r, &interner, false), render(&reference.finish(), &interner, false));
}
