//! The multi-threaded-target engine over a comparator store: the
//! shadow memory of Figure 7's "naive" bars profiles an MT target too.

use dp_bench::baselines::ShadowMemory;
use dp_core::{MtProfiler, ProfilerConfig};
use dp_trace::workloads::{synth, Scale};
use dp_trace::Interp;

#[test]
fn shadow_store_mt_engine_works_too() {
    let w = synth::locked_counter(Scale(0.05), 2);
    let vm = Interp::new(&w.program);
    let cfg = ProfilerConfig::default().with_workers(2).with_slots(1 << 18);
    let prof = MtProfiler::with_store_factory(cfg, ShadowMemory::new);
    vm.run_mt(&prof);
    let r = prof.finish();
    assert!(r.stats.deps_merged > 0);
    assert!(r.memory.signatures > 0);
}
