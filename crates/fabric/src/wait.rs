//! The shared wait primitives: [`Waiters`] for the blocking waits on a
//! mutex-guarded condition that many threads may share, [`WorkSignal`]
//! for the fabric's idle progress thread, and `WakeSocket` for the
//! receive that sleeps in the kernel instead.
//!
//! Every blocking wait on a condition — the fabric's lane send queues
//! and receives, the runtime's address-board fetches, flag waits and
//! barriers, the service's request completion — parks on its first
//! miss. A receive has one waiter per channel, so the message store
//! (`store`) parks it registered on its channel, and the delivery that
//! readies the channel wakes that thread alone; the other waits use
//! [`Waiters`]. Spinning first only pays when the thread
//! that will produce the awaited state has a CPU of its own; on a host
//! where rank, progress and engine threads outnumber the cores, a
//! spinning waiter holds the very CPU its producer is queued for. The
//! notifying side stays cheap instead: [`Waiters`] counts its parked
//! threads, so a notify with nobody parked is a load under the lock the
//! notifier already holds, not a futex syscall.
//!
//! A blocking internode receive over TCP waits for bytes on a socket,
//! so it sleeps in `poll(2)` on its lane sockets: the sender's `write`
//! wakes it from inside the kernel, with no wake-up of its own to pay.
//! Only a delivery some other thread made must reach it from userspace,
//! as one byte on the receiving thread's `WakeSocket`, registered on
//! its channel in the store like a parked receiver's thread.

use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The threads parked on one mutex-guarded condition.
///
/// Protocol: change the guarded state and call [`Waiters::notify`]
/// while still holding the mutex; wait with [`Waiters::wait_for`],
/// passing the guard of that same mutex. The parked count is raised by
/// a waiter that holds the mutex and read by a notifier that holds it,
/// so no wake-up can be lost: a waiter that saw the old state was
/// counted (and already on the condvar, which releases the mutex
/// atomically) before the notifier could take the lock, and a waiter
/// that takes the lock after the notifier sees the new state.
#[derive(Default)]
pub struct Waiters {
    /// Threads inside [`Waiters::wait_for`]'s park. Only touched under
    /// the guarded mutex, whose lock and unlock order every access, so
    /// relaxed atomics suffice.
    parked: AtomicUsize,
    cv: Condvar,
}

impl Waiters {
    /// No thread parked yet.
    pub fn new() -> Waiters {
        Waiters::default()
    }

    /// Wake every parked waiter. `_held` is the guard of the mutex the
    /// waiters park on: the caller has just changed the state under it.
    /// Costs one relaxed load when nobody is parked.
    pub fn notify<T>(&self, _held: &MutexGuard<'_, T>) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Block until `ready` returns `Some` or `timeout` passes without it.
    /// `ready` runs under the lock, first before any clock read — a wait
    /// whose condition already holds costs no `Instant::now()` — and
    /// again after every wake-up. Returns the guard with `ready`'s value,
    /// or with `None` on timeout so the caller can describe what it
    /// waited for. A mutex poisoned while parked comes back as `Err`,
    /// carrying the guard and `None`.
    pub fn wait_for<'a, T, R>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> LockResult<(MutexGuard<'a, T>, Option<R>)> {
        if let Some(r) = ready(&mut guard) {
            return Ok((guard, Some(r)));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok((guard, None));
            }
            self.parked.fetch_add(1, Ordering::Relaxed);
            let woke = self.cv.wait_timeout(guard, left);
            // Reacquired (poisoned or not): the count drops under the lock.
            self.parked.fetch_sub(1, Ordering::Relaxed);
            guard = match woke {
                Ok((g, _)) => g,
                Err(p) => return Err(PoisonError::new((p.into_inner().0, None))),
            };
            if let Some(r) = ready(&mut guard) {
                return Ok((guard, Some(r)));
            }
        }
    }
}

/// A wakeup channel for the fabric's progress thread: callers with new
/// work (a frame pushed onto a send queue, a repair request, shutdown)
/// `notify()`, and the idle thread `wait()`s until something changes
/// or a timer deadline arrives.
///
/// The epoch counter makes the fast paths cheap and race-free:
/// - `notify()` is a single `fetch_add` plus a conditional condvar
///   signal — it only takes the mutex when a waiter has registered, so
///   the steady-state (thread busy, nobody parked) costs one atomic.
/// - The thread reads the epoch *before* scanning its endpoints, does the
///   scan, and parks only if the epoch is unchanged — work enqueued
///   mid-scan bumps the epoch and the park returns immediately instead
///   of being missed.
#[derive(Default)]
pub struct WorkSignal {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WorkSignal {
    /// A fresh signal at epoch 0.
    pub fn new() -> WorkSignal {
        WorkSignal::default()
    }

    /// The current epoch. Read this *before* checking for work; pass it
    /// to [`WorkSignal::wait`] so a notification between the check and
    /// the park is never lost.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Announce new work. Wakes every parked waiter; costs one atomic
    /// add when nobody is parked.
    pub fn notify(&self) {
        // SeqCst on both sides: the epoch bump and the sleeper count are
        // a store-then-load pair against `wait`'s, and only a total
        // order guarantees at least one side sees the other.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Whether a thread is parked in [`WorkSignal::wait`] right now.
    pub fn is_parked(&self) -> bool {
        self.sleepers.load(Ordering::SeqCst) > 0
    }

    /// Park until the epoch moves past `seen` or `timeout` elapses.
    /// Returns immediately if a notification already happened since
    /// `seen` was read.
    pub fn wait(&self, seen: u64, timeout: Duration) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        let mut g = self.lock.lock().unwrap();
        while self.epoch.load(Ordering::SeqCst) == seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g2, _res) = self.cv.wait_timeout(g, deadline - now).unwrap();
            g = g2;
        }
        drop(g);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The wake-up of a thread that sleeps in `poll(2)`: a nonblocking
/// socket pair whose read end the sleeper polls beside the sockets it
/// waits on, and whose write end anyone else rings with one byte. Made
/// once per thread and kept for the thread's life, so a wait opens no
/// descriptor; it closes when the thread and every holder drop it.
pub(crate) struct WakeSocket {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakeSocket {
    /// A fresh socket pair, both ends nonblocking.
    pub(crate) fn new() -> std::io::Result<WakeSocket> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakeSocket { rx, tx })
    }

    /// The descriptor to poll for readability.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Make the read end readable. The caller rings at most once per
    /// sleep, so the byte always fits.
    pub(crate) fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Take the bytes rung since the last drain, with one read: how
    /// many there were.
    pub(crate) fn drain(&self) -> usize {
        (&self.rx).read(&mut [0; 8]).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiters_ready_condition_returns_without_parking() {
        let m = std::sync::Mutex::new(7u32);
        let w = Waiters::new();
        let (_g, got) = w
            .wait_for(m.lock().unwrap(), Duration::ZERO, |v| Some(*v))
            .unwrap();
        assert_eq!(got, Some(7));
    }

    #[test]
    fn waiters_time_out_with_the_guard() {
        let m = std::sync::Mutex::new(0u32);
        let w = Waiters::new();
        let start = Instant::now();
        let (g, got) = w
            .wait_for(m.lock().unwrap(), Duration::from_millis(10), |v| {
                (*v > 0).then_some(())
            })
            .unwrap();
        assert_eq!(got, None);
        assert_eq!(*g, 0, "the caller keeps the lock to describe the miss");
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(w.parked.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn lost_wakeup_waiters_ping_pong() {
        // Two threads take turns on one counter; each parks until the
        // counter has its parity. A notify skipped while the other side
        // is parked leaves that park to run out its whole timeout.
        let _stress = crate::wake_stress();
        const ROUNDS: u64 = 20_000;
        const T: Duration = Duration::from_secs(5);
        let shared = std::sync::Arc::new((Mutex::new(0u64), Waiters::new()));
        let player = |parity: u64| {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                let (m, w) = &*shared;
                for round in 0..ROUNDS {
                    let t0 = Instant::now();
                    let (mut g, turn) = w
                        .wait_for(m.lock().unwrap(), T, |v| (*v % 2 == parity).then_some(()))
                        .unwrap();
                    assert!(
                        turn.is_some() && t0.elapsed() < T,
                        "round {round} waited out its timeout: a wake-up was lost"
                    );
                    *g += 1;
                    w.notify(&g);
                }
            })
        };
        let (a, b) = (player(0), player(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*shared.0.lock().unwrap(), 2 * ROUNDS);
    }

    #[test]
    fn signal_wakes_a_parked_waiter() {
        let sig = std::sync::Arc::new(WorkSignal::new());
        let seen = sig.epoch();
        let s2 = sig.clone();
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            s2.wait(seen, Duration::from_secs(10));
            start.elapsed()
        });
        // Give the waiter a moment to park, then notify.
        std::thread::sleep(Duration::from_millis(20));
        sig.notify();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "notify must cut the wait short, waited {waited:?}"
        );
    }

    #[test]
    fn stale_epoch_returns_immediately() {
        let sig = WorkSignal::new();
        let seen = sig.epoch();
        sig.notify();
        let start = Instant::now();
        sig.wait(seen, Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a notification before the wait must not be lost"
        );
    }

    #[test]
    fn wait_times_out_without_notification() {
        let sig = WorkSignal::new();
        let start = Instant::now();
        sig.wait(sig.epoch(), Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }
}
