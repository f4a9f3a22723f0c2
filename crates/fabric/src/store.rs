//! The receive-side message store shared by every backend: per-channel
//! FIFO queues with blocking, timeout-bounded receives, plus sequence
//! hold-back and duplicate suppression for backends whose wire can
//! reorder or re-deliver traffic.
//!
//! MPI's non-overtaking rule is per `(src, dst, tag)` channel. The
//! in-process backend delivers in send order by construction and uses
//! [`MsgStore::push`]. The TCP backend sends every message whole as one
//! frame on its sender's lane, but a lane kill moves a channel's unacked
//! frames onto a survivor, and its ack-based retransmit re-sends a lost
//! frame after later ones landed, or re-delivers one whose ack was lost
//! — so a later frame of a channel can arrive before an earlier one.
//! Wire deliveries therefore carry a per-channel sequence number and go
//! through [`MsgStore::deliver`], which holds out-of-order arrivals
//! until the gap fills and silently drops re-deliveries of
//! already-consumed or already-held sequence numbers (counted in
//! [`MsgStore::dups_dropped`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::error::{BlockedRecv, FabricError, FabricResult, TimeoutDiag};
use crate::wait::WakeSocket;
use crate::ChanKey;

/// How to wake the receiver blocked on a channel.
enum Waker {
    /// A thread parked in [`MsgStore::pop_within`].
    Parked(Thread),
    /// The wake socket of a thread asleep in `poll(2)` (see
    /// [`MsgStore::pop_driving`]).
    Polling(Arc<WakeSocket>),
}

impl Waker {
    fn wake(self) {
        match self {
            Waker::Parked(t) => t.unpark(),
            Waker::Polling(w) => w.ring(),
        }
    }
}

#[derive(Default)]
struct ChanState {
    /// In-order messages ready to be received.
    ready: VecDeque<Vec<u8>>,
    /// Next wire sequence number expected on this channel.
    next_seq: u64,
    /// Out-of-order wire arrivals, held until `next_seq` catches up.
    held: BTreeMap<u64, Vec<u8>>,
    /// When the current blocked receive started waiting (if any).
    waiting_since: Option<Instant>,
    /// This channel's receiver drives the wire itself (see
    /// `MsgStore::pop_driving`).
    driven: bool,
    /// The blocked receiver, registered under the lock that found
    /// nothing ready: the delivery that readies a message takes it and
    /// wakes it once, however many deliveries follow.
    waker: Option<Waker>,
}

impl ChanState {
    /// Register the receiver that just found nothing ready. Its
    /// receiver clears a registration after every sleep, and a channel
    /// has one receiver, so no other registration can be live.
    fn register(&mut self, w: Waker) {
        debug_assert!(self.waker.is_none(), "two receivers blocked on one channel");
        self.waker = Some(w);
    }

    /// The registered receiver, taken for waking, if a message is ready
    /// for it.
    fn take_waker(&mut self) -> Option<Waker> {
        if self.ready.is_empty() {
            None
        } else {
            self.waker.take()
        }
    }
}

/// Per-channel FIFO message store with blocking receive.
///
/// Waking follows one rule: a receiver that finds nothing ready
/// registers how to wake it (its parked thread or its wake socket) on
/// its channel under the lock that found nothing, and the delivery that
/// readies the channel takes the registration and wakes it once, after
/// letting the lock go.
pub struct MsgStore {
    /// Backend name, for timeout diagnostics.
    backend: &'static str,
    chans: Mutex<HashMap<ChanKey, ChanState>>,
    /// Wire re-deliveries suppressed by sequence dedup.
    dups: AtomicU64,
    /// Driven channels — a lock-free "is any receiver driving?" gate
    /// for [`MsgStore::note_arrival`].
    drivers: AtomicUsize,
}

impl MsgStore {
    /// An empty store whose diagnostics name `backend`.
    pub fn new(backend: &'static str) -> Self {
        MsgStore {
            backend,
            chans: Mutex::new(HashMap::new()),
            dups: AtomicU64::new(0),
            drivers: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> FabricResult<std::sync::MutexGuard<'_, HashMap<ChanKey, ChanState>>> {
        self.chans.lock().map_err(|_| FabricError::QueuePoisoned {
            what: "receive store",
        })
    }

    /// Deliver a message that is already in channel order (in-process
    /// delivery, node-local bypass).
    pub fn push(&self, key: ChanKey, payload: Vec<u8>) {
        let waker = self.lock().ok().and_then(|mut g| {
            let st = g.entry(key).or_default();
            st.ready.push_back(payload);
            st.take_waker()
        });
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Deliver a wire message carrying per-channel sequence `seq`;
    /// reorders so receivers always observe send order. Returns whether
    /// the message was fresh — a re-delivery of a consumed or held
    /// sequence number (a retransmit whose original won the race, or an
    /// injected duplicate) is dropped and counted, never delivered twice.
    pub fn deliver(&self, key: ChanKey, seq: u64, payload: Vec<u8>) -> bool {
        let Ok(mut g) = self.lock() else {
            return false;
        };
        let st = g.entry(key).or_default();
        if seq < st.next_seq {
            // Already consumed: a duplicate from retransmit or chaos.
            self.dups.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if seq == st.next_seq {
            st.ready.push_back(payload);
            st.next_seq += 1;
            // Release any arrivals that were waiting on this gap.
            while let Some(m) = st.held.remove(&st.next_seq) {
                st.ready.push_back(m);
                st.next_seq += 1;
            }
            let waker = st.take_waker();
            drop(g);
            if let Some(w) = waker {
                w.wake();
            }
            true
        } else if let std::collections::btree_map::Entry::Vacant(e) = st.held.entry(seq) {
            e.insert(payload);
            true
        } else {
            // Already held: duplicate of an out-of-order arrival.
            self.dups.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Blocking receive of the next in-order message on `key`, giving up
    /// with a [`FabricError::Timeout`] naming the channel, the backend,
    /// the hold-back state and traffic elsewhere in the store — so an
    /// under-synchronized schedule fails in seconds with the evidence
    /// needed to tell a missing sender from a stuck transport.
    ///
    /// A miss parks the calling thread, registered on the channel, until
    /// the delivery that readies it unparks it. A channel has one
    /// receiver: no two threads may block on `key` at once.
    pub fn pop_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        let mut deadline = None;
        loop {
            let mut g = self.lock()?;
            let st = g.entry(key).or_default();
            if deadline.is_some() {
                // Back from a park: clear the registration, rung or not.
                st.waker = None;
            }
            if let Some(m) = st.ready.pop_front() {
                st.waiting_since = None;
                return Ok(m);
            }
            let now = Instant::now();
            st.waiting_since.get_or_insert(now);
            let left = deadline
                .get_or_insert(now + timeout)
                .saturating_duration_since(now);
            if left.is_zero() {
                return Err(Self::timeout_diag(self.backend, &mut g, key, timeout));
            }
            st.register(Waker::Parked(std::thread::current()));
            drop(g);
            std::thread::park_timeout(left);
        }
    }

    /// Pop the next in-order message on `key` for a receiver that makes
    /// wire progress itself while it waits: it sleeps in `poll(2)` on
    /// the sockets the message could arrive on and on `poller`. When
    /// nothing is ready, `poller` is registered under the same lock that
    /// found nothing, so a delivery after this pop — by the progress
    /// thread, a driving caller or another rank — rings it once; the
    /// receiver clears the registration after every sleep with
    /// [`MsgStore::stop_polling`]. Marks the channel driven: from now
    /// on [`MsgStore::note_arrival`] leaves its arrivals to its
    /// receiver, until a [`MsgStore::try_pop`] or a
    /// [`MsgStore::timed_out`] says the receiver stopped driving.
    pub(crate) fn pop_driving(
        &self,
        key: ChanKey,
        poller: &Arc<WakeSocket>,
    ) -> FabricResult<Option<Vec<u8>>> {
        let mut g = self.lock()?;
        let st = g.entry(key).or_default();
        if !st.driven {
            st.driven = true;
            self.drivers.fetch_add(1, Ordering::SeqCst);
        }
        let msg = st.ready.pop_front();
        if msg.is_some() {
            st.waiting_since = None;
        } else {
            st.waiting_since.get_or_insert_with(Instant::now);
            st.register(Waker::Polling(Arc::clone(poller)));
        }
        Ok(msg)
    }

    /// Clear the registration [`MsgStore::pop_driving`] made for `key`.
    /// Returns whether a delivery rang it meanwhile: its byte is on the
    /// wake socket, and no later one will be.
    pub(crate) fn stop_polling(&self, key: ChanKey) -> bool {
        self.lock()
            .ok()
            .and_then(|mut g| g.get_mut(&key).map(|st| st.waker.take().is_none()))
            .unwrap_or(false)
    }

    /// Clear `st`'s driven mark, if set.
    fn undrive(&self, st: &mut ChanState) {
        if std::mem::take(&mut st.driven) {
            self.drivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Whether any channel of this store is driven: some receiver here
    /// reads the wire itself (see `MsgStore::pop_driving`).
    pub fn driven(&self) -> bool {
        self.drivers.load(Ordering::SeqCst) > 0
    }

    /// A frame of channel `key` was just written onto a socket into this
    /// store's node. Returns whether the channel's driving receiver will
    /// pick it up — it sleeps in `poll(2)` on that socket, which the
    /// write itself woke, or polls it on its next receive — or `false`,
    /// when someone else must be woken to read it.
    pub fn note_arrival(&self, key: ChanKey) -> bool {
        // Nobody driving anywhere: no lock needed to say so.
        if !self.driven() {
            return false;
        }
        self.lock()
            .is_ok_and(|g| g.get(&key).is_some_and(|st| st.driven))
    }

    /// The typed timeout of a receive on `key` that waited `timeout` for
    /// nothing (see [`MsgStore::pop_within`]). A receiver that gave up
    /// may not come back, so the channel stops being driven and its
    /// wake socket is let go.
    pub fn timed_out(&self, key: ChanKey, timeout: Duration) -> FabricError {
        match self.lock() {
            Ok(mut g) => {
                let err = Self::timeout_diag(self.backend, &mut g, key, timeout);
                let st = g.entry(key).or_default();
                st.waker = None;
                self.undrive(st);
                err
            }
            Err(e) => e,
        }
    }

    fn timeout_diag(
        backend: &'static str,
        g: &mut HashMap<ChanKey, ChanState>,
        key: ChanKey,
        timeout: Duration,
    ) -> FabricError {
        let ready_elsewhere = g
            .iter()
            .filter(|(k, _)| **k != key)
            .map(|(_, st)| st.ready.len())
            .sum();
        let st = g.entry(key).or_default();
        let since = st.waiting_since.take();
        FabricError::Timeout(Box::new(TimeoutDiag {
            backend,
            chan: key,
            waited: since.map_or(timeout, |t| t.elapsed()),
            lane: None,
            ready: 0,
            held: st.held.len(),
            next_seq: st.next_seq,
            ready_elsewhere,
            send_queue_depth: None,
            dead_lanes: Vec::new(),
            suspected: Vec::new(),
        }))
    }

    /// Non-blocking receive: the next in-order message on `key` if one
    /// is ready, `Ok(None)` otherwise. Unlike a zero-timeout
    /// [`MsgStore::pop_within`] this never builds a timeout diagnostic,
    /// so a polling scheduler can call it millions of times without
    /// allocating. A polled channel is not driven: its arrivals go to
    /// whoever progresses the wire for pollers.
    pub fn try_pop(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        let mut g = self.lock()?;
        Ok(g.get_mut(&key).and_then(|st| {
            self.undrive(st);
            st.ready.pop_front()
        }))
    }

    /// Receives currently blocked in this store, for the watchdog.
    pub fn blocked(&self) -> Vec<BlockedRecv> {
        let Ok(g) = self.lock() else {
            return Vec::new();
        };
        let now = Instant::now();
        let mut out: Vec<BlockedRecv> = g
            .iter()
            .filter_map(|(key, st)| {
                st.waiting_since.map(|since| BlockedRecv {
                    chan: *key,
                    waited: now.saturating_duration_since(since),
                    held: st.held.len(),
                    next_seq: st.next_seq,
                })
            })
            .collect();
        out.sort_by_key(|b| std::cmp::Reverse(b.waited));
        out
    }

    /// Wire re-deliveries suppressed by sequence dedup so far.
    pub fn dups_dropped(&self) -> u64 {
        self.dups.load(Ordering::Relaxed)
    }

    /// Drop messages that were delivered but never received. Sequence
    /// state survives: senders keep counting across iterations, so the
    /// expected-sequence cursor must too.
    pub fn clear_ready(&self) {
        if let Ok(mut g) = self.lock() {
            for st in g.values_mut() {
                st.ready.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: ChanKey = (0, 1, 7);

    #[test]
    fn push_pop_fifo() {
        let s = MsgStore::new("test");
        s.push(K, vec![1]);
        s.push(K, vec![2]);
        assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![1]);
        assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![2]);
    }

    #[test]
    fn out_of_order_wire_arrivals_are_reassembled() {
        let s = MsgStore::new("test");
        s.deliver(K, 2, vec![2]);
        s.deliver(K, 0, vec![0]);
        s.deliver(K, 1, vec![1]);
        for want in 0u8..3 {
            assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![want]);
        }
    }

    #[test]
    fn pop_blocks_until_gap_fills() {
        let s = std::sync::Arc::new(MsgStore::new("test"));
        s.deliver(K, 1, vec![1]);
        let s2 = std::sync::Arc::clone(&s);
        let t = std::thread::spawn(move || s2.pop_within(K, Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(10));
        s.deliver(K, 0, vec![0]);
        assert_eq!(t.join().unwrap().unwrap(), vec![0]);
    }

    #[test]
    fn consumed_duplicates_are_dropped_and_counted() {
        let s = MsgStore::new("test");
        assert!(s.deliver(K, 0, vec![0]));
        assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![0]);
        // A retransmit of seq 0 arrives after the original was consumed.
        assert!(!s.deliver(K, 0, vec![0]));
        assert_eq!(s.dups_dropped(), 1);
        // The cursor is unharmed: seq 1 still delivers next.
        assert!(s.deliver(K, 1, vec![1]));
        assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![1]);
    }

    #[test]
    fn held_duplicates_are_dropped_and_counted() {
        let s = MsgStore::new("test");
        assert!(s.deliver(K, 2, vec![2]));
        assert!(!s.deliver(K, 2, vec![99]), "duplicate of a held frame");
        assert_eq!(s.dups_dropped(), 1);
        s.deliver(K, 0, vec![0]);
        s.deliver(K, 1, vec![1]);
        for want in 0u8..3 {
            assert_eq!(
                s.pop_within(K, Duration::from_secs(1)).unwrap(),
                vec![want],
                "held original (not the duplicate payload) must deliver"
            );
        }
    }

    #[test]
    fn try_pop_returns_ready_or_none() {
        let s = MsgStore::new("test");
        assert_eq!(s.try_pop(K).unwrap(), None, "empty store");
        s.push(K, vec![1]);
        s.push(K, vec![2]);
        assert_eq!(s.try_pop(K).unwrap(), Some(vec![1]), "FIFO order");
        assert_eq!(s.try_pop(K).unwrap(), Some(vec![2]));
        assert_eq!(s.try_pop(K).unwrap(), None, "drained");
        // A held out-of-order frame is not ready.
        s.deliver(K, 5, vec![5]);
        assert_eq!(s.try_pop(K).unwrap(), None);
    }

    #[test]
    fn timeout_is_a_typed_diagnostic() {
        let s = MsgStore::new("test");
        // Traffic elsewhere and a held frame show up in the diagnostic.
        s.push((4, 5, 0), vec![9]);
        s.deliver(K, 3, vec![3]);
        let err = s.pop_within(K, Duration::from_millis(20)).unwrap_err();
        match err {
            FabricError::Timeout(d) => {
                assert_eq!(d.chan, K);
                assert_eq!(d.backend, "test");
                assert_eq!(d.held, 1);
                assert_eq!(d.ready_elsewhere, 1);
                let msg = d.to_string();
                assert!(msg.contains("tag 7"), "{msg}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn blocked_receives_are_visible_to_the_watchdog() {
        let s = std::sync::Arc::new(MsgStore::new("test"));
        let s2 = std::sync::Arc::clone(&s);
        let t = std::thread::spawn(move || s2.pop_within(K, Duration::from_millis(300)));
        std::thread::sleep(Duration::from_millis(50));
        let blocked = s.blocked();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].chan, K);
        assert!(blocked[0].waited >= Duration::from_millis(30));
        s.push(K, vec![1]);
        t.join().unwrap().unwrap();
        assert!(s.blocked().is_empty(), "wait cleared on delivery");
    }

    #[test]
    fn clear_ready_keeps_sequence_cursor() {
        let s = MsgStore::new("test");
        s.deliver(K, 0, vec![0]);
        s.clear_ready();
        s.deliver(K, 1, vec![1]);
        assert_eq!(s.pop_within(K, Duration::from_secs(1)).unwrap(), vec![1]);
    }

    #[test]
    fn polling_registration_returns_earlier_deliveries_and_rings_once_for_later() {
        let s = MsgStore::new("test");
        let wake = Arc::new(WakeSocket::new().unwrap());
        // Nobody drives the channel yet: the writer must wake someone.
        assert!(!s.note_arrival(K));
        // A delivery made before the registration is what it returns,
        // and nothing is left registered to ring.
        s.deliver(K, 0, vec![7]);
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![7]));
        assert!(s.note_arrival(K), "a driving receiver picks it up");
        s.deliver(K, 1, vec![8]);
        assert_eq!(wake.drain(), 0, "rang with nobody registered");
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![8]));
        // A miss registers; the deliveries after it ring exactly once.
        assert_eq!(s.pop_driving(K, &wake).unwrap(), None);
        assert_eq!(wake.drain(), 0);
        s.deliver(K, 2, vec![9]);
        s.deliver(K, 3, vec![10]);
        assert_eq!(wake.drain(), 1, "one wake byte per registration");
        assert!(s.stop_polling(K), "the delivery rang the registration");
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![9]));
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![10]));
        // A registration cleared unrung, or by a timeout, rings no more.
        assert_eq!(s.pop_driving(K, &wake).unwrap(), None);
        assert!(!s.stop_polling(K));
        s.deliver(K, 4, vec![11]);
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![11]));
        assert_eq!(s.pop_driving(K, &wake).unwrap(), None);
        assert!(matches!(
            s.timed_out(K, Duration::ZERO),
            FabricError::Timeout(_)
        ));
        s.deliver(K, 5, vec![12]);
        assert_eq!(wake.drain(), 0, "a timed-out receiver was rung");
        assert_eq!(Arc::strong_count(&wake), 1, "the store kept the socket");
        // A timed-out receiver stops driving, and so does a poller.
        assert!(!s.note_arrival(K));
        assert_eq!(s.pop_driving(K, &wake).unwrap(), Some(vec![12]));
        assert!(s.note_arrival(K));
        assert_eq!(s.try_pop(K).unwrap(), None);
        assert!(!s.note_arrival(K), "a polled channel is not driven");
        assert!(!s.driven());
    }

    #[test]
    fn lost_wakeup_store_ping_pong() {
        // Each side parks in `pop_within` until the other's push lands;
        // a push that skipped the wake-up while its receiver was parked
        // would leave that park to run out its whole timeout.
        let _stress = crate::wake_stress();
        const ROUNDS: u32 = 20_000;
        const T: Duration = Duration::from_secs(5);
        const PING: ChanKey = (0, 1, 1);
        const PONG: ChanKey = (1, 0, 1);
        let pop = |s: &MsgStore, key: ChanKey, round: u32| {
            let t0 = Instant::now();
            let m = s.pop_within(key, T).unwrap();
            assert!(
                t0.elapsed() < T,
                "round {round} waited out its timeout: a wake-up was lost"
            );
            m
        };
        let s = std::sync::Arc::new(MsgStore::new("test"));
        let s2 = std::sync::Arc::clone(&s);
        let echo = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let m = pop(&s2, PING, round);
                s2.push(PONG, m);
            }
        });
        for round in 0..ROUNDS {
            s.push(PING, round.to_le_bytes().to_vec());
            assert_eq!(pop(&s, PONG, round), round.to_le_bytes());
        }
        echo.join().unwrap();
    }

    #[test]
    fn lost_wakeup_every_parked_receiver_gets_its_own_delivery() {
        // Eight receivers park on eight channels of one store. Even
        // channels are fed by `push`; odd ones by `deliver`, each
        // round's second frame first, so the first is held until its
        // gap fills. A delivery that woke the wrong receiver, or none,
        // leaves a park to run out its whole timeout.
        let _stress = crate::wake_stress();
        const ROUNDS: u64 = 2_000;
        const T: Duration = Duration::from_secs(5);
        let chans: Vec<ChanKey> = (0..8).map(|i| (i, 8 + i, i as u32)).collect();
        let s = Arc::new(MsgStore::new("test"));
        let receivers: Vec<_> = chans
            .iter()
            .map(|&key| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for n in 0..2 * ROUNDS {
                        let t0 = Instant::now();
                        let m = s.pop_within(key, T).unwrap();
                        assert!(
                            t0.elapsed() < T,
                            "channel {key:?} message {n} waited out its timeout"
                        );
                        assert_eq!(m, n.to_le_bytes(), "channel {key:?}");
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        for round in 0..ROUNDS {
            let (a, b) = (2 * round, 2 * round + 1);
            for (i, &key) in chans.iter().enumerate() {
                if i % 2 == 0 {
                    s.push(key, a.to_le_bytes().to_vec());
                    s.push(key, b.to_le_bytes().to_vec());
                } else {
                    assert!(s.deliver(key, b, b.to_le_bytes().to_vec()));
                    assert!(s.deliver(key, a, a.to_le_bytes().to_vec()));
                }
            }
        }
        for r in receivers {
            r.join().unwrap();
        }
        assert!(s.blocked().is_empty());
    }
}
