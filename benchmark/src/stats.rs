//! Order statistics the benchmark reports: median, quartiles, and the
//! highest percentile a sample is large enough to support.

/// Median, quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile (0..=1) of an ascending sample, interpolating on
/// positions `p·(n+1)` — the "exclusive" method Python's
/// `statistics.quantiles` uses, so spreads computed here and by the
/// driver agree.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo >= n {
        v[n - 1]
    } else {
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Median and quartiles of a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// The percentiles a latency may be reported at, highest first, as the
/// share of samples beyond each in thousandths.
const LADDER_BEYOND: [usize; 8] = [1, 10, 20, 50, 100, 200, 300, 500];

/// The highest percentile of the ladder (99.9, 99, 98, 95, 90, 80, 70,
/// 50) that leaves at least ten of `n` samples beyond it, or `None` when
/// even the median does not.
pub fn eligible_percentile(n: usize) -> Option<f64> {
    let beyond = LADDER_BEYOND.into_iter().find(|beyond| n * beyond / 1000 >= 10)?;
    Some(100.0 - beyond as f64 / 10.0)
}

/// A latency sample reduced to what may be reported of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    pub samples: usize,
    /// Median; 0 with fewer than twenty samples (ten beyond it).
    pub p50: f64,
    /// Value at `hi_percentile`; 0 when no percentile is eligible.
    pub hi: f64,
    /// The percentile `hi` was read at; 0 when none is eligible.
    pub hi_percentile: f64,
}

/// Reduces a latency sample, refusing any percentile with fewer than ten
/// samples beyond it.
pub fn latency(values: &[f64]) -> Latency {
    let n = values.len();
    let Some(p) = eligible_percentile(n) else {
        return Latency { samples: n, ..Latency::default() };
    };
    let v = sorted(values);
    Latency {
        samples: n,
        p50: quantile_sorted(&v, 0.5),
        hi: quantile_sorted(&v, p / 100.0),
        hi_percentile: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(eligible_percentile(0), None);
        assert_eq!(eligible_percentile(19), None);
        assert_eq!(eligible_percentile(20), Some(50.0));
        assert_eq!(eligible_percentile(35), Some(70.0));
        assert_eq!(eligible_percentile(980), Some(98.0));
        assert_eq!(eligible_percentile(1000), Some(99.0));
        assert_eq!(eligible_percentile(10_000), Some(99.9));
    }

    #[test]
    fn latency_refuses_thin_samples() {
        let thin: Vec<f64> = (0..12).map(f64::from).collect();
        let l = latency(&thin);
        assert_eq!((l.samples, l.p50, l.hi, l.hi_percentile), (12, 0.0, 0.0, 0.0));
        let ok: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = latency(&ok);
        assert_eq!(l.hi_percentile, 90.0);
        assert!(l.hi > l.p50 && l.hi <= 100.0);
    }
}
