//! # amc-epoll
//!
//! The smallest readiness layer the event-loop runtime needs: a
//! [`Poller`] over Linux `epoll(7)` and a cross-thread [`Waker`] over
//! `eventfd(2)`.
//!
//! The build environment has no registry access, so `mio` is not an
//! option; instead this crate binds the four syscall wrappers it needs
//! directly against the C library that `std` already links. The surface
//! mirrors the subset of mio's API the `amc-rpc` event loops use:
//! register/reregister/deregister an fd under a `u64` token, wait for
//! events, wake the loop from another thread.
//!
//! Registrations are level-triggered: a reader that drains until
//! `WouldBlock` and a writer that flushes until `WouldBlock` need no
//! edge-tracking state, and a missed event is re-reported on the next
//! wait instead of being lost. The site server's listener, waker and
//! connections are also *one-shot* ([`Interest::oneshot`]): reported to
//! exactly one of the threads waiting on their poller, then silent until
//! that thread re-arms them — what lets many threads share one poller.

#![deny(missing_docs)]
#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// The syscall wrappers, resolved at link time against the libc `std`
// already pulls in. Signatures match glibc exactly.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

// epoll interest/event bits (uapi/linux/eventpoll.h).
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x8_0000;

const EFD_CLOEXEC: i32 = 0x8_0000;
const EFD_NONBLOCK: i32 = 0x800;

/// `struct epoll_event`. Packed: on x86-64 the kernel ABI has no padding
/// between `events` and `data`, and glibc declares the struct
/// `__attribute__((packed))` to match.
#[repr(C, packed)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or a peer hang-up is pending, which a read
    /// will surface as EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error/hang-up state; the owner should tear the
    /// connection down after draining what a read still returns.
    pub error: bool,
}

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report readable.
    pub readable: bool,
    /// Report writable.
    pub writable: bool,
    /// Report once, then nothing until [`Poller::reregister`] re-arms it.
    pub oneshot: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        oneshot: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            // A peer's half-close is a read-side event: an fd watched
            // only for writing must not keep reporting it.
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        if self.oneshot {
            bits |= EPOLLONESHOT;
        }
        bits
    }
}

/// An epoll instance. Any number of threads may wait on it at once.
pub struct Poller {
    epfd: RawFd,
}

// The fd is just an integer owned by this struct; epoll instances are
// documented thread-safe for concurrent ctl/wait.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

impl Poller {
    /// Create a poller.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Option<(u64, Interest)>) -> io::Result<()> {
        let mut ev = interest.map(|(token, i)| EpollEvent {
            events: i.bits(),
            data: token,
        });
        let ptr = ev
            .as_mut()
            .map(|e| e as *mut EpollEvent)
            .unwrap_or(std::ptr::null_mut());
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some((token, interest)))
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some((token, interest)))
    }

    /// Stop watching `fd`. Errors are swallowed: deregistering an
    /// already-closed fd is a no-op, not a failure.
    pub fn deregister(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, None);
    }

    /// Block until at least one event is ready or `timeout` elapses
    /// (`None` blocks indefinitely). Fills `out` (cleared first) and
    /// returns the number of events. EINTR retries internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        // SAFETY: `EpollEvent` is two integers; all-zero is a valid value.
        let mut raw: [EpollEvent; 256] = unsafe { std::mem::zeroed() };
        let n = self.wait_raw(&mut raw, timeout)?;
        out.extend(raw[..n].iter().map(EpollEvent::event));
        Ok(n)
    }

    /// Like [`Poller::wait`], but take at most one report: the shape for
    /// many threads sharing one poller, where a thread that took several
    /// would serve them one after another while its peers sat idle.
    pub fn wait_one(&self, timeout: Option<Duration>) -> io::Result<Option<Event>> {
        let mut raw = [EpollEvent { events: 0, data: 0 }];
        let n = self.wait_raw(&mut raw, timeout)?;
        Ok((n == 1).then(|| raw[0].event()))
    }

    fn wait_raw(&self, raw: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |d| d.as_millis().min(i32::MAX as u128) as i32);
        loop {
            // SAFETY: `raw` is a live, writable buffer of `raw.len()`
            // events, and the kernel writes at most that many.
            let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl EpollEvent {
    fn event(&self) -> Event {
        let bits = self.events;
        Event {
            token: self.data,
            readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
            writable: bits & EPOLLOUT != 0,
            error: bits & (EPOLLERR | EPOLLHUP) != 0,
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// A cross-thread wake-up line for a [`Poller`]: an `eventfd` the owner
/// registers like any other fd. Any thread may [`Waker::wake`]; the loop
/// [`Waker::drain`]s on readiness.
pub struct Waker {
    fd: RawFd,
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Create a non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register with the poller.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the poller's next (or current) wait return. Signal-safe,
    /// never blocks: the eventfd counter saturates rather than growing a
    /// queue.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Consume pending wake-ups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn reports_readability_on_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"hi").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
    }

    #[test]
    fn waker_wakes_a_blocked_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 1, Interest::READ).unwrap();

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 1);
        waker.drain();
        t.join().unwrap();
        // Drained: the next wait is quiet again.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn write_interest_reports_writable_and_deregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let s = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        s.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(
                s.as_raw_fd(),
                3,
                Interest {
                    writable: true,
                    ..Interest::READ
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        poller.deregister(s.as_raw_fd());
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn oneshot_reports_once_until_rearmed() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        let interest = Interest {
            oneshot: true,
            ..Interest::READ
        };
        poller.register(waker.fd(), 5, interest).unwrap();
        waker.wake();
        let tick = Some(Duration::from_millis(10));
        let first = poller.wait_one(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(first.map(|e| e.token), Some(5));
        // Still readable (never drained), yet silent: the report was spent.
        assert!(poller.wait_one(tick).unwrap().is_none());
        poller.reregister(waker.fd(), 5, interest).unwrap();
        assert_eq!(poller.wait_one(tick).unwrap().map(|e| e.token), Some(5));
    }

    #[test]
    fn two_waiting_threads_each_take_a_different_report() {
        let poller = Poller::new().unwrap();
        let wakers = [Waker::new().unwrap(), Waker::new().unwrap()];
        let interest = Interest {
            oneshot: true,
            ..Interest::READ
        };
        for (token, w) in wakers.iter().enumerate() {
            poller.register(w.fd(), token as u64, interest).unwrap();
        }
        let barrier = std::sync::Barrier::new(3);
        let tokens: Vec<u64> = std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let ev = poller.wait_one(Some(Duration::from_secs(5))).unwrap();
                        ev.expect("a report for each waiter").token
                    })
                })
                .collect();
            barrier.wait();
            wakers.iter().for_each(Waker::wake);
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut sorted = tokens.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [0, 1],
            "one report each, never the same: {tokens:?}"
        );
    }
}
