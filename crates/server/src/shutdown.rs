//! Process-wide graceful-shutdown flag, set from SIGINT/SIGTERM.
//!
//! std has no signal API and no `poll`, and this workspace takes no
//! external dependencies, so both go through C bindings to libc, which
//! every Rust binary links. The handler does the only async-signal-safe
//! thing possible: it sets a static atomic. The accept loop waits in
//! `poll(2)` and connection threads read on short timeouts; both check
//! the flag between waits, write their emergency checkpoints, and exit
//! with a documented code — instead of dying mid-checkpoint-write.

use std::sync::atomic::AtomicBool;

/// Exit code for "terminated by signal after a clean shutdown": one code
/// for SIGTERM and SIGINT alike (emergency checkpoints were written first).
pub const SIGTERM_EXIT: i32 = 7;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-wide shutdown flag. `true` once a SIGINT/SIGTERM was
/// received.
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

#[cfg(unix)]
pub(crate) mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// POSIX `struct pollfd`, and `nfds_t` below.
    #[repr(C)]
    struct PollFd(i32, i16, i16);
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        // POSIX signal(2) and poll(2), provided by libc (always linked on unix).
        fn signal(signum: i32, handler: usize) -> usize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Blocks until `listener` has a client to accept, a signal cuts the
    /// wait short, or `timeout` passes (off unix: sleeps `timeout`).
    pub fn wait_readable(listener: &impl std::os::fd::AsRawFd, timeout: std::time::Duration) {
        const POLLIN: i16 = 1;
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: one live `PollFd` (nfds 1) holding the borrowed listener's open fd.
        unsafe { poll(&mut PollFd(listener.as_raw_fd(), POLLIN, 0), 1, ms) };
    }
}

#[cfg(not(unix))]
pub(crate) mod imp {
    pub fn install() {}

    pub fn wait_readable<T>(_: &T, timeout: std::time::Duration) {
        std::thread::sleep(timeout)
    }
}

/// Installs the SIGINT/SIGTERM handlers (a no-op off unix). Safe to call
/// more than once. libc then restarts an interrupted read (`SA_RESTART`),
/// so connection threads read with timeouts rather than wait for an
/// `EINTR` that may never surface; `poll(2)` is never restarted.
pub fn install_signal_handlers() {
    imp::install();
}
