//! One lane endpoint's send side: the bounded user queue and the
//! unbounded control queue drained into its socket.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::pool::{FrameBuf, WriteCursor};
use crate::timeout::sync_timeout;
use crate::wait::Waiters;
use crate::wire::Frame;
use crate::ChanKey;

#[derive(Default)]
struct QueueInner {
    user: VecDeque<FrameBuf>,
    ctrl: VecDeque<FrameBuf>,
    closed: bool,
}

/// Why a bounded push did not complete.
pub(super) enum PushError {
    /// The queue stayed at capacity for the whole [`sync_timeout`].
    Timeout(Duration),
    /// The queue mutex was poisoned by a panicking thread.
    Poisoned,
}

/// One lane endpoint's send side: bounded user queue + unbounded control
/// queue (drained first). The queue object outlives any one socket: a
/// reconnected connection's fresh endpoint drains the same queue.
pub(super) struct SendQueue {
    inner: Mutex<QueueInner>,
    cap: usize,
    /// Deepest the unbounded control queue has ever been — the one
    /// queue backpressure cannot bound, so it gets a high-water mark.
    pub(super) ctrl_hwm: AtomicU64,
    /// Senders parked on a full user queue.
    can_push: Waiters,
    /// The endpoint draining this queue last hit `WouldBlock` with bytes
    /// still in its cursor: the socket's reader wakes the progress thread
    /// when it drains bytes (the writer has no other edge).
    pub(super) write_blocked: AtomicBool,
}

impl SendQueue {
    pub(super) fn new(cap: usize) -> Self {
        SendQueue {
            // The user queue is bounded: reserve it whole, so a push
            // never allocates, however rarely the queue fills.
            inner: Mutex::new(QueueInner {
                user: VecDeque::with_capacity(cap),
                ..QueueInner::default()
            }),
            cap,
            ctrl_hwm: AtomicU64::new(0),
            can_push: Waiters::new(),
            write_blocked: AtomicBool::new(false),
        }
    }

    /// Enqueue a user frame, blocking while the queue is at capacity.
    /// `before_park` runs once, under the queue lock, if the caller is
    /// about to block. Returns whether the caller stalled waiting for
    /// space.
    pub(super) fn push_user(
        &self,
        frame: FrameBuf,
        before_park: impl FnOnce(),
    ) -> Result<bool, PushError> {
        let timeout = sync_timeout();
        let mut stalled = false;
        let mut before_park = Some(before_park);
        let g = self.inner.lock().map_err(|_| PushError::Poisoned)?;
        let (mut g, room) = self
            .can_push
            .wait_for(g, timeout, |q| {
                let room = q.user.len() < self.cap || q.closed;
                if !room {
                    stalled = true;
                    if let Some(f) = before_park.take() {
                        f();
                    }
                }
                room.then_some(())
            })
            .map_err(|_| PushError::Poisoned)?;
        if room.is_none() {
            return Err(PushError::Timeout(timeout));
        }
        g.user.push_back(frame);
        Ok(stalled)
    }

    /// Enqueue a protocol frame (acks, retransmits, heartbeats). Never
    /// blocks — this is what keeps the progress thread always able to
    /// drain the wire. Returns `false` only on a poisoned queue.
    pub(super) fn push_ctrl(&self, frame: FrameBuf) -> bool {
        match self.inner.lock() {
            Ok(mut g) => {
                g.ctrl.push_back(frame);
                let depth = g.ctrl.len() as u64;
                drop(g);
                self.ctrl_hwm.fetch_max(depth, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Nonblocking drain into a write cursor (control frames first)
    /// until the cursor stages at least `target` bytes or the queue is
    /// empty. Returns the bytes moved and whether any staged frame was
    /// not a payload frame, and collects the identity of every staged
    /// payload frame into `staged` (for the wire-time RTT stamp and the
    /// arrival notice). Frees user-queue capacity, waking blocked
    /// senders.
    pub(super) fn pop_into(
        &self,
        cursor: &mut WriteCursor,
        target: usize,
        staged: &mut Vec<(ChanKey, u64)>,
    ) -> (usize, bool) {
        let Ok(mut g) = self.inner.lock() else {
            return (0, false);
        };
        let mut moved = 0usize;
        let mut ctrl = false;
        let mut popped_user = false;
        while cursor.remaining_bytes() < target {
            let next = g.ctrl.pop_front().or_else(|| {
                let f = g.user.pop_front();
                popped_user |= f.is_some();
                f
            });
            match next {
                // The queue's refcount moves into the cursor; the lane's
                // ring (if any) keeps the bytes alive for retransmit.
                Some(f) => {
                    match Frame::peek_payload_id(f.header()) {
                        Some(id) => staged.push(id),
                        None => ctrl = true,
                    }
                    moved += f.wire_len();
                    cursor.push(f);
                }
                None => break,
            }
        }
        if popped_user {
            self.can_push.notify(&g);
        }
        (moved, ctrl)
    }

    /// Frames queued and not yet staged for the wire.
    pub(super) fn depth(&self) -> usize {
        self.inner
            .lock()
            .map(|g| g.user.len() + g.ctrl.len())
            .unwrap_or(0)
    }

    pub(super) fn close(&self) {
        if let Ok(mut g) = self.inner.lock() {
            g.closed = true;
            self.can_push.notify(&g);
        }
    }
}
