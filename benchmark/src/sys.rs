//! The two things the benchmark needs from the C library, which the
//! standard library does not offer: pointing stderr elsewhere for a
//! while, and a thread's own CPU time. Linux only, like the benchmark.

use std::fs::OpenOptions;
use std::os::fd::AsRawFd;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(from: i32, to: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has consumed, user and kernel, including
/// network processing the kernel did in its context. Two threads at the
/// ends of one socket each get their own share, which wall time around
/// either of them cannot give.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout Linux
    // uses on 64-bit targets, and the clock id is a constant the kernel
    // defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Silences the product's own stderr chatter while a served pass runs.
///
/// The server logs every session it opens and the watch client prints
/// each snapshot to stderr. That output is not the benchmark's, and a
/// pipe the caller drains slowly would put the caller's speed into the
/// measurement, so file descriptor 2 points at the null device for the
/// duration of a pass.
///
/// Restores stderr when dropped (also on unwind, so a panic message after
/// the guard is gone still reaches the caller).
pub struct QuietStderr {
    saved: i32,
}

impl QuietStderr {
    /// Points stderr at the null device. Returns `None`, leaving stderr
    /// alone, when the device cannot be opened or duplicated.
    pub fn engage() -> Option<QuietStderr> {
        let null = OpenOptions::new().write(true).open("/dev/null").ok()?;
        // SAFETY: `dup` and `dup2` take plain descriptor numbers and touch
        // no memory; 2 is the process's stderr and `null` is open for the
        // whole block.
        unsafe {
            let saved = dup(2);
            if saved < 0 {
                return None;
            }
            if dup2(null.as_raw_fd(), 2) < 0 {
                close(saved);
                return None;
            }
            Some(QuietStderr { saved })
        }
    }
}

impl Drop for QuietStderr {
    fn drop(&mut self) {
        // SAFETY: `saved` is the descriptor `engage` duplicated and nobody
        // else closes it; errors are ignored because `Drop` must not panic.
        unsafe {
            dup2(self.saved, 2);
            close(self.saved);
        }
    }
}
