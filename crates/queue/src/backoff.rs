//! Bounded exponential backoff for lock-free retry loops.
//!
//! Modeled on crossbeam's `Backoff`: start with `spin_loop` hints, escalate
//! to `yield_now` once spinning is clearly not helping. Producers (the
//! router, or any target thread of a multi-threaded target) use it on a
//! full worker queue, applying backpressure on the instrumented program;
//! workers use it when their queue runs empty. Neither blocks. Where the
//! workers outnumber the CPUs they run below their producers' scheduling
//! priority, so a yielding producer gets its CPU back first (`dp_core`'s
//! workers module).

/// Exponential spin/yield backoff.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Fresh backoff (shortest spin).
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets to the shortest spin after progress was made.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Waits one escalation step: `2^step` spin hints while `step` is
    /// small, an OS yield afterwards.
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// True once spinning has escalated past the spin phase; callers that
    /// can block (e.g. the lock-based queue) may switch strategy then.
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_saturates() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..YIELD_LIMIT + 2 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
