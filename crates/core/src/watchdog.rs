//! The run watchdog: turns hangs into resumable runs.
//!
//! A background thread watches a shared progress counter that the feed
//! loop bumps as records flow. When the counter stands still for a full
//! deadline, the watchdog *fires*: it sets a sticky flag the feed loop
//! polls between chunks, giving it the chance to write an emergency
//! checkpoint and exit with the documented watchdog exit code. If the
//! feed loop never reacts — it is the thing that is stuck — a second
//! unheeded deadline triggers the hard-timeout action supplied by the
//! caller (the CLI passes `std::process::exit(EXIT_WATCHDOG)`), so a
//! wedged process still dies with a meaningful code and a resumable
//! checkpoint from the last healthy barrier on disk.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monitors a progress counter and escalates when it stalls.
pub struct Watchdog {
    progress: Arc<AtomicU64>,
    fired: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the monitor thread. `deadline` is the no-progress window
    /// after which the watchdog fires; `on_hard_timeout` runs if a
    /// *second* deadline passes with the fired flag unheeded and still
    /// no progress.
    pub fn spawn(deadline: Duration, on_hard_timeout: impl FnOnce() + Send + 'static) -> Self {
        let progress = Arc::new(AtomicU64::new(0));
        let fired = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let progress = progress.clone();
            let fired = fired.clone();
            let stop = stop.clone();
            std::thread::spawn(move || monitor(deadline, &progress, &fired, &stop, on_hard_timeout))
        };
        Watchdog { progress, fired, stop, handle: Some(handle) }
    }

    /// The shared counter, for feeding progress from another thread.
    pub fn progress_handle(&self) -> Arc<AtomicU64> {
        self.progress.clone()
    }

    /// Whether the watchdog has fired (sticky). The feed loop polls
    /// this between chunks and, when set, writes an emergency
    /// checkpoint and exits.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

impl Drop for Watchdog {
    /// Stops the monitor thread and joins it.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn monitor(
    deadline: Duration,
    progress: &AtomicU64,
    fired: &AtomicBool,
    stop: &AtomicBool,
    on_hard_timeout: impl FnOnce(),
) {
    let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut last = progress.load(Ordering::Relaxed);
    let mut last_change = Instant::now();
    let mut fired_at: Option<Instant> = None;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(poll);
        let cur = progress.load(Ordering::Relaxed);
        if cur != last {
            last = cur;
            last_change = Instant::now();
            // Progress resumed: disarm the hard timeout (the fired flag
            // stays sticky — the feed loop still gets to checkpoint and
            // exit cleanly at its next poll).
            fired_at = None;
            continue;
        }
        let now = Instant::now();
        if fired.load(Ordering::Acquire) {
            if let Some(t) = fired_at {
                if now.duration_since(t) >= deadline {
                    // The feed loop never reacted to the fired flag: it
                    // is the stuck party. Escalate.
                    on_hard_timeout();
                    return;
                }
            }
        } else if now.duration_since(last_change) >= deadline {
            fired.store(true, Ordering::Release);
            fired_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_progress_never_fires() {
        let hard = Arc::new(AtomicBool::new(false));
        let h = hard.clone();
        let wd = Watchdog::spawn(Duration::from_millis(60), move || {
            h.store(true, Ordering::SeqCst);
        });
        let end = Instant::now() + Duration::from_millis(250);
        while Instant::now() < end {
            wd.progress_handle().fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!wd.fired());
        drop(wd);
        assert!(!hard.load(Ordering::SeqCst));
    }

    #[test]
    fn stall_fires_then_escalates_to_hard_timeout() {
        let hard = Arc::new(AtomicBool::new(false));
        let h = hard.clone();
        let wd = Watchdog::spawn(Duration::from_millis(40), move || {
            h.store(true, Ordering::SeqCst);
        });
        wd.progress_handle().fetch_add(1, Ordering::Relaxed);
        // First deadline: fired flag.
        let end = Instant::now() + Duration::from_secs(2);
        while !wd.fired() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wd.fired(), "watchdog never fired on a stalled counter");
        // Second unheeded deadline: hard timeout.
        let end = Instant::now() + Duration::from_secs(2);
        while !hard.load(Ordering::SeqCst) && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(hard.load(Ordering::SeqCst), "hard timeout never ran");
    }

    #[test]
    fn progress_after_firing_disarms_hard_timeout() {
        let hard = Arc::new(AtomicBool::new(false));
        let h = hard.clone();
        let wd = Watchdog::spawn(Duration::from_millis(40), move || {
            h.store(true, Ordering::SeqCst);
        });
        let end = Instant::now() + Duration::from_secs(2);
        while !wd.fired() && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wd.fired());
        // Resume progress: the sticky flag stays, the escalation stops.
        let end = Instant::now() + Duration::from_millis(200);
        while Instant::now() < end {
            wd.progress_handle().fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(wd.fired(), "fired flag is sticky");
        assert!(!hard.load(Ordering::SeqCst), "hard timeout must disarm on progress");
        drop(wd);
    }

    #[test]
    fn stop_prevents_firing() {
        let wd = Watchdog::spawn(Duration::from_millis(30), || {
            panic!("hard timeout after stop");
        });
        drop(wd);
        std::thread::sleep(Duration::from_millis(120));
    }
}
