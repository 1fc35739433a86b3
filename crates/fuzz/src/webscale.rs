//! Web-scale synthetic stress: Zipfian streams past Table I load factors.
//!
//! Generated MiniVM programs have footprints of a few hundred addresses —
//! they never push a real signature into eviction, and they never make
//! the router's hot-address redistribution fire. This module fabricates
//! the opposite regime directly at the event level: a seeded stream over
//! a universe of millions of addresses, with Zipfian (log-uniform rank)
//! reuse so a small head is blisteringly hot while a long tail drives the
//! signature load factor past 1.0 and forces evictions.
//!
//! At saturation the approximate signature legitimately disagrees with
//! the perfect baseline (that is Formula 2's whole subject), and serial
//! vs parallel runs legitimately disagree with each other (slots are
//! partitioned differently), so the oracle here is *within-class*
//! determinism instead of one global equality:
//!
//! - serial class: serial == served(serial) == resumed(serial);
//! - parallel class: spsc == mpmc == lock == served(par) == resumed(par).
//!
//! Plus structural evidence that the stress actually stressed: the
//! stream touched more distinct addresses than the signature has slots,
//! and the engines counted evictions.

use dp_core::{SessionSpec, TransportKind};
use dp_types::loc::loc;
use dp_types::{MemAccess, TraceEvent};
use std::collections::HashSet;

use crate::oracle::{dep_map, offline, resumed, served};
use crate::FuzzRng;

/// Shape of one web-scale stress stream.
#[derive(Debug, Clone, Copy)]
pub struct WebscaleConfig {
    /// Stream seed.
    pub seed: u64,
    /// Address-universe size (distinct addresses possible).
    pub universe: u64,
    /// Events in the stream.
    pub events: u64,
    /// Writes per thousand events.
    pub write_permille: u64,
    /// Total signature slots — deliberately smaller than the distinct
    /// footprint, so the load factor lands past 1.0.
    pub slots: usize,
    /// Workers for the parallel class.
    pub workers: usize,
}

impl WebscaleConfig {
    /// CI-friendly scale: ~10^5 distinct addresses, load factor ≈ 2.
    pub fn quick(seed: u64) -> Self {
        WebscaleConfig {
            seed,
            universe: 600_000,
            events: 500_000,
            write_permille: 300,
            slots: 1 << 16,
            workers: 3,
        }
    }

    /// Full scale: millions of distinct addresses, load factor ≈ 5.
    pub fn full(seed: u64) -> Self {
        WebscaleConfig {
            seed,
            universe: 8_000_000,
            events: 4_000_000,
            write_permille: 300,
            slots: 1 << 18,
            workers: 3,
        }
    }
}

/// Evidence a passing stress run hands back.
#[derive(Debug, Clone, Copy)]
pub struct WebscaleOutcome {
    /// Events generated.
    pub events: u64,
    /// Distinct addresses actually touched.
    pub distinct_addrs: u64,
    /// Signature load factor (distinct addresses per serial slot).
    pub load_factor: f64,
    /// Evictions counted by the serial engine.
    pub evictions_serial: u64,
    /// Evictions counted across the parallel pipeline's workers.
    pub evictions_parallel: u64,
    /// Redistribution rounds the router performed under the Zipfian head.
    pub redistributions: u64,
}

/// Generates the seeded stream. Ranks are drawn log-uniformly (a heavy
/// Zipf-like head) two thirds of the time and uniformly over the whole
/// universe one third of the time — the uniform component is what drags
/// the distinct footprint into the millions at full scale.
pub fn webscale_events(cfg: &WebscaleConfig) -> Vec<TraceEvent> {
    let mut rng = FuzzRng::new(cfg.seed ^ 0x5eb5_ca1e);
    const BASE: u64 = 0x4000_0000;
    let mut out = Vec::with_capacity(cfg.events as usize);
    for ts in 1..=cfg.events {
        let rank = if rng.chance(1, 3) { rng.below(cfg.universe) } else { rng.zipf(cfg.universe) };
        let addr = BASE + rank * 8;
        // A few hundred source lines, so the dependence set stays
        // bounded while the address footprint explodes.
        let line = (rank % 384) as u32 + 1;
        let acc = if rng.chance(cfg.write_permille, 1000) {
            MemAccess::write(addr, ts, loc(1, line), 0, 0)
        } else {
            MemAccess::read(addr, ts, loc(1, line + 400), 0, 0)
        };
        out.push(TraceEvent::Access(acc));
    }
    out
}

/// Runs the within-class differential check on one stress stream.
pub fn webscale_check(cfg: &WebscaleConfig) -> Result<WebscaleOutcome, String> {
    let events = webscale_events(cfg);
    let distinct: u64 = {
        let set: HashSet<u64> =
            events.iter().filter_map(|e| e.as_access()).map(|a| a.addr).collect();
        set.len() as u64
    };
    if distinct <= cfg.slots as u64 {
        return Err(format!(
            "stress misconfigured: {distinct} distinct addrs does not exceed {} slots",
            cfg.slots
        ));
    }

    let serial_spec = SessionSpec { slots: cfg.slots, ..SessionSpec::default() };
    let par_spec = |transport| SessionSpec {
        parallel: true,
        workers: cfg.workers,
        transport,
        slots: cfg.slots,
        ..SessionSpec::default()
    };
    let names = vec!["web".to_string()];
    let cut = events.len() / 2;

    // Serial class.
    let serial = offline(&serial_spec, &events);
    let want_serial = dep_map(&serial);
    for (leg, r) in [
        ("served-serial", served(&serial_spec, &events, names.clone())),
        ("resumed-serial", resumed(&serial_spec, &events, cut)),
    ] {
        if dep_map(&r) != want_serial {
            return Err(format!("webscale leg {leg} diverged from serial (seed {})", cfg.seed));
        }
    }

    // Parallel class.
    let par = offline(&par_spec(TransportKind::Spsc), &events);
    let want_par = dep_map(&par);
    for (leg, r) in [
        ("par-mpmc", offline(&par_spec(TransportKind::Mpmc), &events)),
        ("par-lock", offline(&par_spec(TransportKind::Lock), &events)),
        ("served-par", served(&par_spec(TransportKind::Spsc), &events, names)),
        ("resumed-par", resumed(&par_spec(TransportKind::Spsc), &events, cut)),
    ] {
        if dep_map(&r) != want_par {
            return Err(format!("webscale leg {leg} diverged from par-spsc (seed {})", cfg.seed));
        }
    }

    // The stress must actually have saturated the signatures.
    let evictions_serial = serial.metrics.signatures.evictions;
    let evictions_parallel = par.metrics.signatures.evictions;
    if evictions_serial == 0 {
        return Err(format!(
            "no serial evictions at load factor {:.2} — stress did not bite",
            distinct as f64 / cfg.slots as f64
        ));
    }
    if evictions_parallel == 0 {
        return Err("no parallel evictions — stress did not bite".to_string());
    }

    Ok(WebscaleOutcome {
        events: cfg.events,
        distinct_addrs: distinct,
        load_factor: distinct as f64 / cfg.slots as f64,
        evictions_serial,
        evictions_parallel,
        redistributions: par.stats.redistributions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_stress_saturates_and_agrees() {
        let cfg = WebscaleConfig {
            events: 120_000,
            universe: 150_000,
            slots: 1 << 14,
            ..WebscaleConfig::quick(3)
        };
        let out = webscale_check(&cfg).expect("quick webscale run");
        assert!(out.load_factor > 1.0, "load factor {:.2}", out.load_factor);
        assert!(out.distinct_addrs > cfg.slots as u64);
    }

    #[test]
    fn stream_is_seed_deterministic_and_head_heavy() {
        let cfg = WebscaleConfig::quick(9);
        let a = webscale_events(&WebscaleConfig { events: 20_000, ..cfg });
        let b = webscale_events(&WebscaleConfig { events: 20_000, ..cfg });
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y), "same seed must replay identically");
        // Zipfian head: the hottest address should appear far more often
        // than the mean.
        let mut counts = std::collections::HashMap::new();
        for e in &a {
            *counts.entry(e.as_access().unwrap().addr).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        let mean = a.len() as f64 / counts.len() as f64;
        assert!(max as f64 > 20.0 * mean, "max {max} vs mean {mean:.2}");
    }
}
