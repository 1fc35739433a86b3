//! Process-wide graceful-shutdown flag, set from SIGINT/SIGTERM.
//!
//! std has no signal API, and this workspace takes no external
//! dependencies, so the handler is installed through the C `signal`
//! binding that libc links into every Rust binary. The handler does the
//! only async-signal-safe thing possible: it sets a static atomic. The
//! accept loop and connection threads poll the flag between frames
//! (their sockets use short read timeouts), write their emergency
//! checkpoints, and exit with a documented code — instead of dying
//! mid-checkpoint-write.

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
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2), provided by libc (always linked on unix).
        fn signal(signum: i32, handler: usize) -> usize;
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
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (a no-op off unix). Safe to
/// call more than once. Note that with handlers installed, interrupted
/// blocking syscalls are restarted by libc (`SA_RESTART` semantics of
/// `signal(2)`), which is why the server's sockets poll with read
/// timeouts rather than waiting for an `EINTR` that may never surface.
pub fn install_signal_handlers() {
    imp::install();
}
