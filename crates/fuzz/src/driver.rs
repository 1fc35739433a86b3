//! The fuzz campaign loop: generate, check, shrink, persist, aggregate.

use std::io::Write;
use std::path::PathBuf;

use dp_trace::fuzz::{generate, minimize, print_program, stmt_count, FuzzConfig};
use dp_trace::ir::Program;
use dp_types::wire::atomic_write;

use crate::oracle::{check_program, AccuracySample, Divergence, OracleConfig};
use crate::webscale::{webscale_check, WebscaleConfig};

/// Campaign knobs — the CLI's `depprof fuzz` flags in struct form.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Programs to generate and check.
    pub seeds: u64,
    /// First seed (so campaigns can be sharded across CI jobs).
    pub start_seed: u64,
    /// Use the small/fast generator configuration and web-scale shape.
    pub quick: bool,
    /// Where minimized failing programs are written (skipped when
    /// `None`).
    pub corpus_dir: Option<PathBuf>,
    /// Predicate-evaluation budget for the minimizer, per failure.
    pub max_shrink_checks: usize,
    /// Also run the web-scale Zipfian stress streams.
    pub webscale: bool,
    /// Workers for the parallel oracle legs.
    pub workers: usize,
    /// Deliberate stream corruption threaded into every sequential
    /// check — used by the harness to prove divergences are caught and
    /// minimized, never set in a real campaign.
    pub corruption: Option<crate::oracle::Corruption>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seeds: 50,
            start_seed: 0,
            quick: false,
            corpus_dir: None,
            max_shrink_checks: 400,
            webscale: true,
            workers: 3,
            corruption: None,
        }
    }
}

/// One caught divergence, shrunk and (optionally) persisted.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Generator seed of the original failing program.
    pub seed: u64,
    /// Leg that disagreed.
    pub leg: String,
    /// First differences, human-readable.
    pub detail: String,
    /// The minimized program that still fails.
    pub program: Program,
    /// Statement count of the minimized program.
    pub stmts: usize,
    /// Where the repro was written, when a corpus dir was configured.
    pub corpus_path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds checked.
    pub seeds: u64,
    /// Sequential programs among them.
    pub sequential: u64,
    /// Oracle legs each sequential program ran.
    pub sequential_legs: usize,
    /// Multi-threaded programs among them.
    pub mt: u64,
    /// Total accesses across all reference runs.
    pub total_accesses: u64,
    /// Divergences caught (empty on a healthy campaign).
    pub divergences: Vec<FoundDivergence>,
    /// Undersized-signature accuracy samples.
    pub samples: Vec<AccuracySample>,
    /// Web-scale stress streams run.
    pub webscale_runs: u64,
    /// Web-scale failures (empty on a healthy campaign).
    pub webscale_failures: Vec<String>,
}

impl FuzzReport {
    /// Mean measured false-positive rate over all accuracy samples.
    pub fn mean_fpr(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.measured_fpr))
    }

    /// Mean measured false-negative rate over all accuracy samples.
    pub fn mean_fnr(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.measured_fnr))
    }

    /// Mean Formula 2 dependence-level bound over the same samples.
    pub fn mean_dep_bound(&self) -> f64 {
        mean(self.samples.iter().map(|s| s.dep_bound))
    }

    /// True when measured accuracy stayed within the Formula 2 envelope
    /// in aggregate: the mean measured FPR and FNR do not exceed the
    /// mean dependence-level bound.
    pub fn accuracy_within_formula2(&self) -> bool {
        self.samples.is_empty()
            || (self.mean_fpr() <= self.mean_dep_bound() + 1e-9
                && self.mean_fnr() <= self.mean_dep_bound() + 1e-9)
    }

    /// Overall campaign verdict.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
            && self.webscale_failures.is_empty()
            && self.accuracy_within_formula2()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Shrinks a failing program under "the oracle still rejects it" and
/// writes the repro to the corpus directory as a standalone `.minivm`
/// file with the provenance in a comment header.
fn shrink_and_save(
    seed: u64,
    prog: &Program,
    d: Divergence,
    ocfg: &OracleConfig,
    opts: &FuzzOpts,
    log: &mut dyn FnMut(String),
) -> FoundDivergence {
    let mut pred = |p: &Program| check_program(p, ocfg).is_err();
    let min = minimize(prog, opts.max_shrink_checks, &mut pred);
    let stmts = stmt_count(&min);
    log(format!(
        "seed {seed}: minimized {} -> {} statements (leg {})",
        stmt_count(prog),
        stmts,
        d.leg
    ));
    let corpus_path = opts.corpus_dir.as_ref().and_then(|dir| {
        let path = dir.join(format!("seed{seed}_{}.minivm", d.leg));
        let body = format!(
            "; fuzz repro: seed {seed}, diverging leg {}\n; {}\n{}",
            d.leg,
            d.detail.replace('\n', " "),
            print_program(&min)
        );
        std::fs::create_dir_all(dir).ok()?;
        atomic_write(&path, |f| f.write_all(body.as_bytes())).ok()?;
        Some(path)
    });
    FoundDivergence {
        seed,
        leg: d.leg.to_string(),
        detail: d.detail,
        program: min,
        stmts,
        corpus_path,
    }
}

/// Runs a fuzz campaign. `log` receives progress lines (the CLI prints
/// them; tests usually discard them).
pub fn run_fuzz(opts: &FuzzOpts, log: &mut dyn FnMut(String)) -> FuzzReport {
    let mut report = FuzzReport::default();
    let ocfg = OracleConfig {
        workers: opts.workers,
        accuracy: true,
        corruption: opts.corruption,
        ..OracleConfig::default()
    };
    for i in 0..opts.seeds {
        let seed = opts.start_seed + i;
        // Every fourth program is a fork-join MT target; the rest take
        // every replay leg of the oracle.
        let mut cfg = if opts.quick { FuzzConfig::quick() } else { FuzzConfig::default() };
        cfg.mt = seed % 4 == 3;
        let prog = generate(seed, &cfg);
        match check_program(&prog, &ocfg) {
            Ok(out) => {
                if out.legs == 1 {
                    report.mt += 1;
                } else {
                    report.sequential += 1;
                    report.sequential_legs = out.legs;
                }
                report.total_accesses += out.accesses;
                if let Some(s) = out.accuracy {
                    report.samples.push(s);
                }
            }
            Err(d) => {
                log(format!("seed {seed}: DIVERGENCE on {} — {}", d.leg, d.detail));
                let found = shrink_and_save(seed, &prog, *d, &ocfg, opts, log);
                report.divergences.push(found);
            }
        }
        if (i + 1) % 25 == 0 {
            log(format!(
                "checked {}/{} seeds ({} seq, {} mt, {} divergences)",
                i + 1,
                opts.seeds,
                report.sequential,
                report.mt,
                report.divergences.len()
            ));
        }
    }
    report.seeds = opts.seeds;

    if opts.webscale {
        let cfgs = if opts.quick {
            vec![WebscaleConfig::quick(opts.start_seed)]
        } else {
            vec![WebscaleConfig::quick(opts.start_seed), WebscaleConfig::full(opts.start_seed + 1)]
        };
        for cfg in cfgs {
            match webscale_check(&cfg) {
                Ok(out) => {
                    report.webscale_runs += 1;
                    log(format!(
                        "webscale seed {}: {} events, {} distinct addrs, load {:.2}, \
                         {} serial / {} parallel evictions, {} redistributions",
                        cfg.seed,
                        out.events,
                        out.distinct_addrs,
                        out.load_factor,
                        out.evictions_serial,
                        out.evictions_parallel,
                        out.redistributions
                    ));
                }
                Err(e) => report.webscale_failures.push(e),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Corruption;

    #[test]
    fn quick_campaign_is_clean() {
        let opts = FuzzOpts { seeds: 12, quick: true, webscale: false, ..FuzzOpts::default() };
        let report = run_fuzz(&opts, &mut |_| {});
        assert!(report.passed(), "divergences: {:?}", report.divergences);
        assert_eq!(report.seeds, 12);
        assert!(report.sequential > 0 && report.mt > 0);
        assert!(report.total_accesses > 0);
    }

    #[test]
    fn injected_divergence_is_caught_and_minimized() {
        let dir = std::env::temp_dir().join(format!("dp-fuzz-corpus-{}", std::process::id()));
        let opts = FuzzOpts {
            seeds: 8,
            quick: true,
            webscale: false,
            corpus_dir: Some(dir.clone()),
            corruption: Some(Corruption::DropAccess(5)),
            ..FuzzOpts::default()
        };
        let report = run_fuzz(&opts, &mut |_| {});
        assert!(!report.divergences.is_empty(), "corruption was not caught");
        for d in &report.divergences {
            assert!(d.stmts <= 20, "repro not minimal: {} statements", d.stmts);
            let path = d.corpus_path.as_ref().expect("repro written");
            let text = std::fs::read_to_string(path).unwrap();
            let back = dp_trace::fuzz::parse_program(&text).expect("repro parses");
            assert_eq!(format!("{:?}", back.funcs), format!("{:?}", d.program.funcs));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accuracy_aggregate_respects_formula_2() {
        let opts = FuzzOpts { seeds: 16, quick: true, webscale: false, ..FuzzOpts::default() };
        let report = run_fuzz(&opts, &mut |_| {});
        assert!(!report.samples.is_empty(), "no accuracy samples collected");
        assert!(
            report.accuracy_within_formula2(),
            "mean fpr {:.2}% / fnr {:.2}% vs bound {:.2}%",
            report.mean_fpr(),
            report.mean_fnr(),
            report.mean_dep_bound()
        );
    }
}
