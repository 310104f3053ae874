//! SIGINT/SIGTERM → a process-wide shutdown flag, with no libc crate.
//!
//! The C runtime is already linked through `std`, so `signal(2)` is
//! declared directly. The handler only stores into a static atomic —
//! the one operation that is unconditionally async-signal-safe — and
//! the serving loop polls [`shutdown_requested`].

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has arrived (or [`request_shutdown`] was
/// called).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Raises the shutdown flag from ordinary code (tests, admin paths).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the POSIX C function; the handler is an
        // `extern "C"` fn that performs a single atomic store.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {
        // No signal wiring off Unix; ctrl-c still terminates the
        // process, just without the drain.
    }
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install_shutdown_handler() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_reflects_requests() {
        // The flag is process-wide and other tests may already have
        // raised it, so only the state after a request is checked.
        install_shutdown_handler();
        request_shutdown();
        assert!(shutdown_requested());
    }
}
