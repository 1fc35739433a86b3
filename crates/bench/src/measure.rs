//! Timing helpers.

use std::time::{Duration, Instant};

/// A measured quantity with its wall-clock duration.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The computed value.
    pub value: T,
    /// Elapsed wall time.
    pub elapsed: Duration,
}

/// Times a closure once.
pub fn time<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed { value, elapsed: start.elapsed() }
}

/// Slowdown of `measured` relative to `baseline` (the paper's ×-factors).
pub fn slowdown(measured: Duration, baseline: Duration) -> f64 {
    let b = baseline.as_secs_f64();
    if b <= 0.0 {
        f64::NAN
    } else {
        measured.as_secs_f64() / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures() {
        let t = time(|| 21 * 2);
        assert_eq!(t.value, 42);
    }

    #[test]
    fn slowdown_ratio() {
        assert!((slowdown(Duration::from_secs(2), Duration::from_secs(1)) - 2.0).abs() < 1e-9);
        assert!(slowdown(Duration::from_secs(1), Duration::ZERO).is_nan());
    }
}
