//! The communication-topology suite, verified through the *profiler*
//! (not ground truth): the Figure 9 method must recover each kernel's
//! known topology from cross-thread RAW records alone.

use depprof::analysis::report_for;
use depprof::core::ProfilerConfig;
use depprof::trace::workloads::{splash, Scale};

fn profile(w: &depprof::trace::workloads::Workload) -> depprof::core::ProfileResult {
    // Section VII: applications use signatures large enough for exact
    // dependences.
    let ample = (w.program.address_footprint() as usize * 64).next_power_of_two();
    let cfg = ProfilerConfig::default().with_workers(4).with_slots(ample);
    depprof::profile_mt(&w.program, cfg)
}

#[test]
fn fft_matrix_is_dense_all_to_all() {
    let t = 4u32;
    let w = splash::fft(Scale(0.1), t);
    let m = report_for(&profile(&w), &[], t as usize + 1).comm;
    for p in 1..=t as u16 {
        for c in 1..=t as u16 {
            if p != c {
                assert!(m.get(p, c) > 0, "missing flow t{p}->t{c}\n{}", m.render_ascii());
            }
        }
    }
}

#[test]
fn lu_matrix_shows_rotating_broadcast() {
    let t = 3u32;
    let w = splash::lu_contig(Scale(0.1), t);
    let m = report_for(&profile(&w), &[], t as usize + 1).comm;
    for p in 1..=t as u16 {
        let consumers = (1..=t as u16).filter(|&c| c != p && m.get(p, c) > 0).count();
        assert_eq!(
            consumers,
            t as usize - 1,
            "producer t{p} does not broadcast\n{}",
            m.render_ascii()
        );
    }
}

#[test]
fn ocean_matrix_is_grid_banded() {
    let t = 6u32; // 2 x 3 grid
    let cols = 3i64;
    let w = splash::ocean(Scale(0.1), t);
    let m = report_for(&profile(&w), &[], t as usize + 1).comm;
    let (mut nb, mut far) = (0u64, 0u64);
    for p in 1..=t as u16 {
        for c in 1..=t as u16 {
            if p == c {
                continue;
            }
            let (pr, pc) = (((p - 1) as i64) / cols, ((p - 1) as i64) % cols);
            let (cr, cc) = (((c - 1) as i64) / cols, ((c - 1) as i64) % cols);
            if (pr - cr).abs() + (pc - cc).abs() == 1 {
                nb += m.get(p, c);
            } else {
                far += m.get(p, c);
            }
        }
    }
    assert!(nb > 0 && nb > far * 5, "nb={nb} far={far}\n{}", m.render_ascii());
}

#[test]
fn comm_kernels_are_race_free() {
    for w in splash::comm_suite(Scale(0.05), 4) {
        let r = profile(&w);
        assert_eq!(r.stats.reversed, 0, "{} flagged reversals", w.meta.name);
    }
}
