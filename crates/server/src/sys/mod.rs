//! Thin, std-only wrappers over the OS primitives the event-driven
//! connection layer needs: readiness multiplexing (behind the [`Poller`]
//! trait, with `poll(2)` and edge-triggered `epoll(7)` backends) and a
//! self-pipe wake channel.
//!
//! The workspace builds with no external crates, so instead of `libc` or
//! `mio` the handful of syscalls used here are declared directly via
//! `extern "C"` against the platform's C library — this module tree is the
//! one place in the crate allowed to contain `unsafe`, and every unsafe
//! block is a plain FFI call with arguments derived from slices and
//! fixed-size arrays owned by the caller.
//!
//! [`Poller`] abstracts the readiness set: a driver registers each
//! connection once under a stable token, modifies its interest only on
//! state transitions, and blocks in [`Poller::wait`] for a batch of
//! [`Event`]s. [`PollPoller`](poll::PollPoller) keeps the portable
//! rebuild-the-array-per-wait semantics; [`EpollPoller`](epoll::EpollPoller)
//! (Linux) holds the interest set in the kernel so a wait costs O(ready),
//! not O(registered). [`WakePipe`] is the classic self-pipe trick — any
//! thread writes a byte to wake the loop out of its wait, and the loop
//! drains the pipe on wake so the next write wakes it again. Both ends are
//! nonblocking: a full pipe means a wake is already pending, which is
//! exactly the semantic we want.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_void};
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

mod poll;

#[cfg(target_os = "linux")]
mod epoll;

pub use poll::PollPoller;

#[cfg(target_os = "linux")]
pub use epoll::EpollPoller;

/// One entry of a `poll(2)` set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch (negative entries are ignored by the
    /// kernel).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events (may also carry [`POLLERR`] / [`POLLHUP`] /
    /// [`POLLNVAL`], which need not be requested).
    pub revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    #[cfg(test)]
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;
/// An error condition on the descriptor (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// The peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;
/// The peer shut down its *write* side (sent FIN) — unlike [`POLLHUP`]
/// this fires on a graceful half-close while the connection is still
/// writable, but only when requested in `events`. Linux-specific; on other
/// platforms it is `0` (never requested, never reported) and the
/// [`peek_peer`] probe after a [`POLLHUP`] does the classifying.
#[cfg(target_os = "linux")]
pub const POLLRDHUP: i16 = 0x2000;
/// See the Linux definition; no such bit exists on this platform.
#[cfg(not(target_os = "linux"))]
pub const POLLRDHUP: i16 = 0;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004;

/// `SIGHUP` — the conventional "reload your configuration" signal.
const SIGHUP: c_int = 1;
/// `signal(2)`'s error return.
const SIG_ERR: usize = usize::MAX;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    // The handler is passed as a plain address: the only handler ever
    // installed is `sighup_flag_handler` below, whose ABI matches what the
    // kernel calls.
    fn signal(signum: c_int, handler: usize) -> usize;
    // fcntl(2) is variadic in C; declaring it with a fixed third argument
    // would be undefined behaviour on ABIs where variadic and fixed calls
    // differ (Apple's AAPCS64 passes varargs on the stack), so the
    // declaration stays honestly variadic.
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    fn close(fd: c_int) -> c_int;
    #[cfg(test)]
    fn raise(signum: c_int) -> c_int;
}

/// Converts an optional wait budget to the millisecond form `poll(2)` and
/// `epoll_wait(2)` share: `None` → block forever (`-1`), sub-millisecond
/// durations round *up* so a deadline a few microseconds away cannot
/// degenerate into a zero-timeout busy spin.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int,
    }
}

/// Blocks until at least one descriptor in `fds` is ready, the timeout
/// elapses (`Ok(0)`), or a signal interrupts the wait (also `Ok(0)` — the
/// caller's loop re-derives its deadline every tick, so a spurious early
/// return is harmless). `None` waits indefinitely.
///
/// Sub-millisecond timeouts round *up*, so a deadline a few microseconds
/// away cannot degenerate into a zero-timeout busy spin.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd-compatible entries; the kernel writes only within its bounds.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms(timeout)) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}

/// Which readiness syscall a `Poller` implementation rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// Portable `poll(2)`: the interest set is rebuilt and handed to the
    /// kernel on every wait — O(registered) per tick.
    Poll,
    /// Linux edge-triggered `epoll(7)`: the interest set lives in the
    /// kernel — O(changes) to maintain, O(ready) per wait.
    Epoll,
}

impl IoBackend {
    /// The lower-case name used by `--io-backend` and `/v1/stats`.
    pub fn as_str(self) -> &'static str {
        match self {
            IoBackend::Poll => "poll",
            IoBackend::Epoll => "epoll",
        }
    }
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The operator-facing backend selection: a concrete backend, or `Auto`
/// (the default), which resolves to `epoll` where it exists and `poll`
/// elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IoBackendChoice {
    /// Pick the best backend the platform offers (`epoll` on Linux,
    /// `poll` elsewhere).
    #[default]
    Auto,
    /// Force the portable `poll(2)` backend.
    Poll,
    /// Force the Linux `epoll(7)` backend (an error off Linux).
    Epoll,
}

impl IoBackendChoice {
    /// Parses the `auto|poll|epoll` spelling of `--io-backend`.
    pub fn parse(s: &str) -> Result<IoBackendChoice, String> {
        match s {
            "auto" => Ok(IoBackendChoice::Auto),
            "poll" => Ok(IoBackendChoice::Poll),
            "epoll" => Ok(IoBackendChoice::Epoll),
            other => Err(format!("expected auto|poll|epoll, got '{other}'")),
        }
    }

    /// The concrete backend this choice resolves to on this platform.
    /// `Epoll` resolves off Linux too (so the name can round-trip through
    /// configs); `new_poller` is where an unbuildable choice errors.
    pub fn resolve(self) -> IoBackend {
        match self {
            IoBackendChoice::Poll => IoBackend::Poll,
            IoBackendChoice::Epoll => IoBackend::Epoll,
            #[cfg(target_os = "linux")]
            IoBackendChoice::Auto => IoBackend::Epoll,
            #[cfg(not(target_os = "linux"))]
            IoBackendChoice::Auto => IoBackend::Poll,
        }
    }
}

/// One readiness notification from [`Poller::wait`]: the token the fd was
/// registered under plus the `POLL*`-encoded conditions that are true.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen registration token (a driver's slot index).
    pub token: usize,
    /// Ready conditions, encoded with the [`POLLIN`]/[`POLLOUT`]/
    /// [`POLLERR`]/[`POLLHUP`]/[`POLLRDHUP`] bits regardless of backend.
    pub revents: i16,
}

impl Event {
    /// Whether any of `mask`'s bits are set.
    pub fn has(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

/// A pluggable readiness set: the event-loop driver registers each
/// connection once under a stable token, adjusts interest only when the
/// connection's state machine changes what it is waiting for, and blocks in
/// [`Poller::wait`] for whatever became ready.
///
/// Contract shared by both backends:
///
/// * `interest` is a `POLL*` mask of [`POLLIN`] | [`POLLOUT`] |
///   [`POLLRDHUP`]; error and hangup conditions are always reported without
///   being requested. An interest of `0` keeps the fd registered for those
///   implicit conditions only.
/// * Tokens are caller-owned and must be unique among live registrations;
///   they come back verbatim in [`Event::token`].
/// * [`Poller::edge_triggered`] distinguishes the delivery contract: an
///   edge-triggered backend reports a condition when it *becomes* true, so
///   ready handlers must drain to `WouldBlock` before waiting again; a
///   level-triggered backend re-reports until the condition clears.
///   [`Poller::modify`] re-arms: conditions true at modify time are
///   reported by the next wait on either backend.
pub trait Poller: Send {
    /// The syscall family behind this poller.
    fn backend(&self) -> IoBackend;

    /// Whether readiness is reported edge-triggered (see trait docs).
    fn edge_triggered(&self) -> bool;

    /// Adds `fd` to the set under `token`, watching for `interest`.
    fn register(&mut self, fd: RawFd, token: usize, interest: i16) -> io::Result<()>;

    /// Replaces the interest of an already-registered `fd`, re-arming it:
    /// conditions already true are reported by the next [`Poller::wait`].
    fn modify(&mut self, fd: RawFd, token: usize, interest: i16) -> io::Result<()>;

    /// Removes `fd` from the set. Must be called before the fd is closed
    /// (the `poll` backend would otherwise report `POLLNVAL`; `epoll`
    /// auto-forgets closed fds but the token bookkeeping must not drift).
    fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()>;

    /// Clears `events` and fills it with what is ready, blocking at most
    /// `timeout` (`None` = forever). Returns the number of events.
    /// A signal interruption or timeout is `Ok(0)`.
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize>;
}

/// Builds the poller for `choice`, resolving `Auto` to the platform's best
/// backend. Forcing `epoll` off Linux is an error.
pub fn new_poller(choice: IoBackendChoice) -> io::Result<Box<dyn Poller>> {
    match choice.resolve() {
        IoBackend::Poll => Ok(Box::new(PollPoller::new())),
        #[cfg(target_os = "linux")]
        IoBackend::Epoll => Ok(Box::new(EpollPoller::new()?)),
        #[cfg(not(target_os = "linux"))]
        IoBackend::Epoll => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the epoll backend requires Linux; use --io-backend auto or poll",
        )),
    }
}

/// `recv(2)`'s "look, don't consume" flag — same value on Linux and the
/// BSDs.
const MSG_PEEK: c_int = 0x2;

/// What a nonblocking `MSG_PEEK` probe of a socket revealed about the
/// peer's read side. Used to classify a hangup event: a peer that
/// `shutdown(SHUT_WR)`'d and still awaits its response looks identical to
/// an aborted one in `poll`'s hangup bits alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerProbe {
    /// Unconsumed bytes are buffered ahead of any FIN; the stream is still
    /// deliverable.
    Data,
    /// Orderly end of stream: the peer sent FIN but the connection is
    /// intact — a response written now still reaches it.
    Eof,
    /// The connection is dead (`ECONNRESET` and friends): nothing written
    /// can arrive.
    Reset,
    /// Nothing to observe yet (the probe would block).
    Pending,
}

/// Peeks one byte off `fd` without consuming it (the socket must be
/// nonblocking).
pub fn peek_peer(fd: RawFd) -> PeerProbe {
    let mut byte = 0u8;
    loop {
        // SAFETY: one-byte MSG_PEEK read into a live stack buffer; the
        // kernel consumes nothing.
        let n = unsafe { recv(fd, (&raw mut byte).cast::<c_void>(), 1, MSG_PEEK) };
        if n > 0 {
            return PeerProbe::Data;
        }
        if n == 0 {
            return PeerProbe::Eof;
        }
        let e = io::Error::last_os_error();
        match e.kind() {
            io::ErrorKind::Interrupted => {}
            io::ErrorKind::WouldBlock => return PeerProbe::Pending,
            _ => return PeerProbe::Reset,
        }
    }
}

/// Set by the `SIGHUP` handler, consumed by [`sighup_pending`].
static SIGHUP_PENDING: AtomicBool = AtomicBool::new(false);

/// The installed `SIGHUP` handler: setting a relaxed atomic flag is on the
/// short list of things that are async-signal-safe.
extern "C" fn sighup_flag_handler(_signum: c_int) {
    SIGHUP_PENDING.store(true, Ordering::Relaxed);
}

/// Installs a `SIGHUP` handler that records the signal in a flag instead of
/// killing the process (the default disposition). Poll the flag with
/// [`sighup_pending`] — the `rpg serve` loop does, and re-applies its
/// tenant manifest when it fires.
pub fn install_sighup() -> io::Result<()> {
    // SAFETY: installs a handler that only writes one static atomic; the
    // function address is a valid `extern "C" fn(c_int)`.
    if unsafe { signal(SIGHUP, sighup_flag_handler as *const () as usize) } == SIG_ERR {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Whether a `SIGHUP` arrived since the last call; reading clears the flag.
pub fn sighup_pending() -> bool {
    SIGHUP_PENDING.swap(false, Ordering::Relaxed)
}

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on a descriptor this process just created; F_GETFL
    // reads no variadic argument.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: as above; F_SETFL reads one `int` vararg (int promotes
    // through C varargs unchanged).
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A nonblocking self-pipe: the read end sits in an event loop's readiness
/// set, and [`WakePipe::wake`] from any thread makes the loop's wait
/// return.
///
/// Wakes coalesce by design — once the pipe holds a byte, further wakes are
/// free no-ops (`EAGAIN` on a full pipe still means "a wake is pending"),
/// and the loop's [`WakePipe::drain`] resets it for the next round. Because
/// drain always empties the pipe completely, the next successful wake write
/// is a fresh readability edge — safe under both level- and edge-triggered
/// delivery.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe with both ends nonblocking.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a stack array of exactly the two slots pipe(2)
        // fills.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let wake = WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(wake.read_fd)?;
        set_nonblocking(wake.write_fd)?;
        Ok(wake)
    }

    /// The descriptor to register for [`POLLIN`] in a readiness set.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes the owning loop's wait return. Never blocks: a full pipe
    /// means a wake is already pending and the write is dropped.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a live stack buffer to our own fd.
        let _ = unsafe { write(self.write_fd, (&raw const byte).cast::<c_void>(), 1) };
    }

    /// Consumes all pending wake bytes so the next [`WakePipe::wake`]
    /// triggers the wait again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live stack buffer of the stated length.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: closing descriptors this struct owns exclusively.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_makes_poll_return_and_drain_resets() {
        let wake = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        // Nothing pending: poll times out.
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].has(POLLIN));
        // A wake (or several — they coalesce) makes the read end readable.
        wake.wake();
        wake.wake();
        let n = poll_fds(&mut fds, Some(Duration::from_millis(1000))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].has(POLLIN));
        // Draining resets it.
        wake.drain();
        fds[0].revents = 0;
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "drained pipe must not stay readable");
    }

    #[test]
    fn wake_from_another_thread_interrupts_a_long_poll() {
        let wake = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = wake.clone();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "poll must return on the wake, not the timeout"
        );
        handle.join().unwrap();
    }

    #[test]
    fn sighup_sets_the_flag_once_per_delivery() {
        install_sighup().unwrap();
        assert!(!sighup_pending(), "no signal yet");
        // SAFETY: raising a signal this process just installed a
        // flag-setting handler for.
        assert_eq!(unsafe { raise(SIGHUP) }, 0);
        assert!(sighup_pending(), "the delivered SIGHUP must be observed");
        assert!(!sighup_pending(), "reading the flag clears it");
    }

    #[test]
    fn poll_timeout_rounds_subms_up_instead_of_spinning() {
        let wake = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        let started = Instant::now();
        let n = poll_fds(&mut fds, Some(Duration::from_micros(100))).unwrap();
        assert_eq!(n, 0);
        // 100µs rounds up to 1ms; mostly this asserts the call returned
        // (zero would have been legal too, but the round-up avoids a hot
        // spin when an event loop's deadline is microseconds away).
        assert!(started.elapsed() >= Duration::from_micros(100));
    }

    #[test]
    fn peek_peer_classifies_data_eof_and_pending() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();
        // Quiet connected socket: the probe would block.
        assert_eq!(peek_peer(fd), PeerProbe::Pending);
        // Buffered bytes peek as data — and stay unconsumed.
        client.write_all(b"x").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(peek_peer(fd), PeerProbe::Data);
        assert_eq!(peek_peer(fd), PeerProbe::Data, "MSG_PEEK must not consume");
        // A graceful half-close becomes EOF once the buffered byte drains.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut sink = [0u8; 8];
        // SAFETY: reads into a live stack buffer of the stated length.
        let n = unsafe { read(fd, sink.as_mut_ptr().cast::<c_void>(), sink.len()) };
        assert_eq!(n, 1);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(peek_peer(fd), PeerProbe::Eof);
    }

    #[test]
    fn wake_never_blocks_even_when_the_pipe_is_full() {
        let wake = WakePipe::new().unwrap();
        // A pipe holds ~64KiB; far more wakes than that must all return
        // immediately (the surplus is dropped, a wake stays pending).
        for _ in 0..100_000 {
            wake.wake();
        }
        let mut fds = [PollFd::new(wake.read_fd(), POLLIN)];
        assert_eq!(
            poll_fds(&mut fds, Some(Duration::from_millis(10))).unwrap(),
            1
        );
        wake.drain();
    }

    #[test]
    fn auto_choice_resolves_to_the_platform_backend() {
        let resolved = IoBackendChoice::Auto.resolve();
        if cfg!(target_os = "linux") {
            assert_eq!(resolved, IoBackend::Epoll);
        } else {
            assert_eq!(resolved, IoBackend::Poll);
        }
        assert_eq!(IoBackendChoice::parse("poll"), Ok(IoBackendChoice::Poll));
        assert_eq!(IoBackendChoice::parse("epoll"), Ok(IoBackendChoice::Epoll));
        assert_eq!(IoBackendChoice::parse("auto"), Ok(IoBackendChoice::Auto));
        assert!(IoBackendChoice::parse("kqueue").is_err());
    }

    /// Backends this platform can build, for the trait-level parity tests.
    fn available_pollers() -> Vec<Box<dyn Poller>> {
        let mut pollers: Vec<Box<dyn Poller>> = vec![new_poller(IoBackendChoice::Poll).unwrap()];
        if cfg!(target_os = "linux") {
            pollers.push(new_poller(IoBackendChoice::Epoll).unwrap());
        }
        pollers
    }

    #[test]
    fn every_backend_reports_a_wake_under_its_token() {
        for mut poller in available_pollers() {
            let backend = poller.backend();
            let wake = WakePipe::new().unwrap();
            poller.register(wake.read_fd(), 7, POLLIN).unwrap();
            let mut events = Vec::new();
            // Quiet pipe: the wait times out empty.
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: nothing is ready yet");
            wake.wake();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(n, 1, "{backend}: the wake must be reported");
            assert_eq!(events[0].token, 7, "{backend}: token round-trips");
            assert!(events[0].has(POLLIN), "{backend}: readable");
        }
    }

    #[test]
    fn every_backend_masks_interest_and_rearms_on_modify() {
        for mut poller in available_pollers() {
            let backend = poller.backend();
            let wake = WakePipe::new().unwrap();
            // Registered with empty interest: a pending byte is invisible.
            poller.register(wake.read_fd(), 3, 0).unwrap();
            wake.wake();
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: interest 0 must mask readability");
            // Modify re-arms: the already-true readability is reported.
            poller.modify(wake.read_fd(), 3, POLLIN).unwrap();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(n, 1, "{backend}: modify must surface pending readiness");
            assert!(events[0].has(POLLIN), "{backend}");
            // Deregister: a fresh wake is no longer observed.
            wake.drain();
            poller.deregister(wake.read_fd(), 3).unwrap();
            wake.wake();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "{backend}: deregistered fds are silent");
        }
    }

    #[test]
    fn distinct_tokens_multiplex_one_wait() {
        for mut poller in available_pollers() {
            let backend = poller.backend();
            let first = WakePipe::new().unwrap();
            let second = WakePipe::new().unwrap();
            poller.register(first.read_fd(), 10, POLLIN).unwrap();
            poller.register(second.read_fd(), 20, POLLIN).unwrap();
            first.wake();
            second.wake();
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(n, 2, "{backend}: both pipes are ready");
            let mut tokens: Vec<usize> = events.iter().map(|e| e.token).collect();
            tokens.sort_unstable();
            assert_eq!(tokens, vec![10, 20], "{backend}");
        }
    }
}
