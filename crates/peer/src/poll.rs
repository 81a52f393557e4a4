//! `poll(2)`: the one readiness wait the socket transport needs. std
//! has no selector, so this module declares the libc call itself and
//! holds the workspace's only `unsafe` (DESIGN.md §11). Unix only.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::Duration;

/// Readable, or a connection waiting to be accepted.
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

/// One watched descriptor, laid out as the kernel's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready (hang-ups and errors included)
/// or `timeout` passes; `Duration::MAX` waits without a bound. The
/// timeout rounds up to whole milliseconds, so a short bound sleeps
/// rather than spins. A signal or an error ends the wait early too:
/// callers re-check whatever they were waiting for.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ms = if timeout == Duration::MAX {
        -1
    } else {
        c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `#[repr(C)]` pollfd records and `nfds` is its length, so the
    // kernel reads and writes only inside it, and keeps no pointer
    // past the call's return.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
}
