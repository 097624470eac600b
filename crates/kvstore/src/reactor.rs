//! A dependency-free readiness reactor over `poll(2)`.
//!
//! The thread-per-core server (`tpc.rs`) needs exactly two kernel
//! facilities std does not expose: *readiness polling* over a set of
//! nonblocking sockets, and a *wake pipe* so another thread (shutdown) can
//! interrupt a poll. Rather than pulling in `mio`/`libc`, this
//! module declares the three POSIX entry points it needs directly —
//! mirroring the vendored-shim approach of `compat/loom`: the smallest
//! possible surface, fully owned by the repo.
//!
//! This is the crate's only unsafe boundary (workspace rule: `unsafe` is
//! forbidden outside sanctioned modules — see
//! `xtask/src/lint/rules/unsafe_blocks.rs`). Every site carries its
//! safety argument inline; the FFI signatures are transcribed from
//! POSIX.1-2008 (`poll`, `pipe`, `read`, `write` on file descriptors the
//! process owns).
//!
//! Unix-only by construction; the TPC server is gated the same way.

#![cfg(unix)]
// This module is a sanctioned unsafe boundary (see the module docs above
// and `xtask/src/lint/rules/unsafe_blocks.rs`); every site carries its
// justification inline.
#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable readiness (POSIX `POLLIN`).
pub const POLL_IN: i16 = 0x001;
/// Writable readiness (POSIX `POLLOUT`).
pub const POLL_OUT: i16 = 0x004;
/// Error condition (POSIX `POLLERR`, output only).
pub const POLL_ERR: i16 = 0x008;
/// Peer hung up (POSIX `POLLHUP`, output only).
pub const POLL_HUP: i16 = 0x010;

/// `struct pollfd` as defined by POSIX: the layout poll(2) expects.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` readiness.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The fd reported readable (or in an error/hup state, which a read
    /// will surface as EOF/ECONNRESET — callers treat it like readable).
    pub fn readable(&self) -> bool {
        self.revents & (POLL_IN | POLL_ERR | POLL_HUP) != 0
    }

    /// The fd reported writable.
    pub fn writable(&self) -> bool {
        self.revents & POLL_OUT != 0
    }
}

mod ffi {
    use std::os::unix::io::RawFd;

    // POSIX.1-2008 signatures, transcribed for the platform C library that
    // std already links. `nfds_t` is `c_ulong` on every unix Rust targets.
    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
        pub fn pipe(fds: *mut RawFd) -> i32;
        pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: RawFd) -> i32;
        pub fn fcntl(fd: RawFd, cmd: i32, arg: i32) -> i32;
    }

    /// `F_SETFL` (POSIX value, identical on Linux and the BSDs).
    pub const F_SETFL: i32 = 4;
    /// `F_GETFL`.
    pub const F_GETFL: i32 = 3;
}

/// `O_NONBLOCK` for [`set_nonblocking_fd`].
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

/// Blocks until at least one entry is ready, `timeout` elapses, or a
/// signal interrupts the wait. Returns how many entries have non-zero
/// `revents`. A `timeout` of `None` waits forever.
///
/// # Errors
///
/// Returns the OS error from `poll(2)`; `EINTR` is retried internally.
pub fn poll_events(entries: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        None => -1,
        // Saturate instead of wrapping: a >24-day timeout is "forever".
        Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX),
    };
    loop {
        // justified: poll(2) on a valid (possibly empty) pollfd array the
        // caller owns exclusively for the duration of the call; the kernel
        // writes only within `entries.len()` elements.
        let rc = unsafe { ffi::poll(entries.as_mut_ptr(), entries.len() as _, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

/// Puts a raw fd into nonblocking mode (used for the wake pipe's ends;
/// sockets use std's `set_nonblocking`).
fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    // justified: fcntl on an fd this module just created and still owns;
    // F_GETFL/F_SETFL have no memory side effects.
    let flags = unsafe { ffi::fcntl(fd, ffi::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // justified: see above — same owned fd, integer argument only.
    let rc = unsafe { ffi::fcntl(fd, ffi::F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A self-pipe: other threads call [`WakePipe::wake`] to make the owning
/// worker's [`poll_events`] return promptly; the worker polls
/// [`WakePipe::read_fd`] for readability and [`WakePipe::drain`]s it.
///
/// Both ends are nonblocking: `wake` never stalls the sender (a full pipe
/// already guarantees a pending wakeup), and `drain` never stalls the
/// worker.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// justified: raw fds are plain integers; write(2)/read(2) on a pipe are
// atomic and thread-safe per POSIX, so sharing the pipe across threads is
// sound.
unsafe impl Send for WakePipe {}
// justified: no interior state beyond the two fds; see the Send argument.
unsafe impl Sync for WakePipe {}

impl WakePipe {
    /// Creates the pipe with both ends nonblocking.
    ///
    /// # Errors
    ///
    /// Returns the OS error from `pipe(2)` or `fcntl(2)`.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [RawFd; 2] = [-1, -1];
        // justified: pipe(2) writes exactly two fds into the array we own.
        let rc = unsafe { ffi::pipe(fds.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let pipe = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking_fd(pipe.read_fd)?;
        set_nonblocking_fd(pipe.write_fd)?;
        Ok(pipe)
    }

    /// The fd a worker adds to its poll set with [`POLL_IN`] interest.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the owning worker. Safe from any thread; if the pipe is
    /// already full the pending bytes already guarantee a wakeup, so
    /// `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = [1u8];
        // justified: write(2) of one byte from a live stack buffer to an
        // owned fd; short/failed writes are intentionally ignored (EAGAIN
        // means a wakeup is already pending).
        let _ = unsafe { ffi::write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Consumes all pending wake bytes so the next poll blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // justified: read(2) into a live stack buffer of the stated
            // length on an owned nonblocking fd.
            let n = unsafe { ffi::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // justified: close(2) of fds this struct exclusively owns; double
        // close is impossible because Drop runs once.
        unsafe {
            ffi::close(self.read_fd);
            ffi::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wake_pipe_makes_poll_return() {
        let pipe = WakePipe::new().expect("pipe");
        let mut entries = [PollFd::new(pipe.read_fd(), POLL_IN)];
        // Nothing pending: poll times out with zero ready.
        let n = poll_events(&mut entries, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0);
        // A wake from another thread flips it to readable.
        let pipe = std::sync::Arc::new(pipe);
        let t = std::thread::spawn({
            let pipe = std::sync::Arc::clone(&pipe);
            move || pipe.wake()
        });
        let n = poll_events(&mut entries, Some(Duration::from_secs(5))).expect("poll");
        t.join().expect("waker thread");
        assert_eq!(n, 1);
        assert!(entries[0].readable());
        // Drain resets readiness.
        pipe.drain();
        let mut entries = [PollFd::new(pipe.read_fd(), POLL_IN)];
        let n = poll_events(&mut entries, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0);
    }

    #[test]
    fn wake_is_saturating_not_blocking() {
        let pipe = WakePipe::new().expect("pipe");
        // Far more wakes than the pipe buffer holds; must never block.
        for _ in 0..200_000 {
            pipe.wake();
        }
        pipe.drain();
    }

    #[test]
    fn socket_readiness_via_poll() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        listener.set_nonblocking(true).expect("nonblocking");

        let mut entries = [PollFd::new(listener.as_raw_fd(), POLL_IN)];
        let n = poll_events(&mut entries, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0, "no pending connection yet");

        let mut client = TcpStream::connect(addr).expect("connect");
        let n = poll_events(&mut entries, Some(Duration::from_secs(5))).expect("poll");
        assert_eq!(n, 1, "pending connection must wake the poll");
        assert!(entries[0].readable());

        let (accepted, _) = listener.accept().expect("accept");
        accepted.set_nonblocking(true).expect("nonblocking");
        let mut entries = [PollFd::new(accepted.as_raw_fd(), POLL_IN)];
        let n = poll_events(&mut entries, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0, "no bytes yet");
        client.write_all(b"hi").expect("write");
        let n = poll_events(&mut entries, Some(Duration::from_secs(5))).expect("poll");
        assert_eq!(n, 1, "bytes must wake the poll");
        assert!(entries[0].readable());
    }
}
