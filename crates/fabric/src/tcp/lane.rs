//! One reliability stream per directed lane connection: the sender's
//! ring of unacked frames in lane-sequence (`lseq`) order, and the
//! receiver's record of which lane sequence numbers arrived, from which
//! it owes one cumulative watermark.
//!
//! Who writes a lane's ACK frame: nobody, if a payload frame going back
//! on the lane carries the watermark first. Otherwise whoever decoded
//! the frames — at once when the lane owes [`ACK_BATCH`]; a rank before
//! it sleeps in a receive; a driving caller before it pauses. The
//! progress thread writes no ack sooner, so it never takes one a rank's
//! reply is about to carry: an ack still owed a whole retransmit tick
//! later is the retransmit duty's to write, well inside the retransmit
//! timeout.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::pool::FrameBuf;
use crate::ChanKey;

/// Payload frames a lane may owe an ack for before whoever decoded the
/// last of them writes the lane's ACK frame at once.
pub(super) const ACK_BATCH: u32 = 32;

/// A payload frame awaiting its lane's cumulative-ack watermark.
pub(super) struct PendingFrame {
    /// This frame's lane sequence number.
    pub(super) lseq: u64,
    /// The channel it belongs to, and its sequence on the channel.
    pub(super) chan: ChanKey,
    pub(super) seq: u64,
    /// A refcount on the encoded frame (shared with the send queue and
    /// any retransmit in flight), ready to re-send verbatim.
    pub(super) buf: FrameBuf,
    /// Re-sends performed so far.
    pub(super) attempts: u32,
    /// When the next re-send (or the exhaustion verdict) is due.
    pub(super) next_at: Instant,
    /// First *wire* transmission instant, for ack round-trip
    /// measurement: registration time until [`TxRing::mark_on_wire`]
    /// re-stamps it as the frame leaves the send queue for its socket.
    pub(super) first_sent: Instant,
    /// Whether `first_sent` has been re-stamped at wire time.
    pub(super) on_wire: bool,
}

impl PendingFrame {
    pub(super) fn new(lseq: u64, chan: ChanKey, seq: u64, buf: FrameBuf, rto: Duration) -> Self {
        let now = Instant::now();
        PendingFrame {
            lseq,
            chan,
            seq,
            buf,
            attempts: 0,
            next_at: now + rto,
            first_sent: now,
            on_wire: false,
        }
    }
}

/// The sending side of one directed lane: the next lane sequence number
/// and every frame sent on the lane and not yet acked, in `lseq` order.
/// Sequence numbers run on across reconnects, so bytes a break loses
/// are a gap the retransmit duty fills.
#[derive(Default)]
pub(super) struct TxRing {
    /// The next lane sequence number: how many payload frames the lane
    /// has numbered.
    pub(super) next: AtomicU64,
    pub(super) frames: Mutex<VecDeque<PendingFrame>>,
}

impl TxRing {
    /// Reserve the lane sequence number of the next frame.
    pub(super) fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a frame for retransmit and ack round-trip measurement.
    /// A frame normally appends, but two threads sending on one lane
    /// reserve their numbers before they register and may register in
    /// either order, so a frame inserts at its ordered slot. Returns how
    /// many frames of the lane now await an ack.
    pub(super) fn insert(&self, p: PendingFrame) -> usize {
        let Ok(mut ring) = self.frames.lock() else {
            return 0;
        };
        let pos = ring
            .iter()
            .rposition(|q| q.lseq < p.lseq)
            .map_or(0, |i| i + 1);
        ring.insert(pos, p);
        ring.len()
    }

    /// Apply watermark `wm`: every frame below it arrived, so drop the
    /// whole prefix. A first transmission's round trip goes to `sample`;
    /// a retransmitted frame's does not, since either copy may have
    /// drawn the ack.
    pub(super) fn ack(&self, wm: u64, mut sample: impl FnMut(Duration)) {
        let Ok(mut ring) = self.frames.lock() else {
            return;
        };
        let now = Instant::now();
        while let Some(p) = ring.pop_front_if(|p| p.lseq < wm) {
            if p.attempts == 0 {
                sample(now.saturating_duration_since(p.first_sent));
            }
        }
    }

    /// Re-stamp `first_sent` for frames just staged onto their socket,
    /// so ack RTT measures the *wire* round trip. Stamping at
    /// registration instead would fold in time spent queued behind the
    /// lane's own backlog — which grows with the number of lanes and
    /// drowns the transport signal the ramp gates watch.
    pub(super) fn mark_on_wire(&self, staged: &[(ChanKey, u64)], now: Instant) {
        let Ok(mut ring) = self.frames.lock() else {
            return;
        };
        for &(_, lseq) in staged {
            let Ok(i) = ring.binary_search_by_key(&lseq, |p| p.lseq) else {
                continue;
            };
            // Only the first staging counts; a chaos-duplicated or
            // retransmitted copy must not shrink the measured RTT.
            let p = &mut ring[i];
            if !p.on_wire {
                p.on_wire = true;
                p.first_sent = now;
            }
        }
    }
}

/// The receiving side of one directed lane: which lane sequence numbers
/// arrived, as one past the highest seen and the ranges still missing
/// below it, and how many payload frames arrived since an ack last left.
#[derive(Default)]
pub(super) struct LaneRx {
    high: u64,
    /// Missing `[start, end)` ranges below `high`, in order. An arrival
    /// past `high` adds at most one, however far it jumps.
    pub(super) gaps: Vec<(u64, u64)>,
    /// Payload frames that arrived since an ack last left.
    pub(super) owed: u32,
    /// `owed` was already set at the progress thread's previous ack tick.
    aged: bool,
}

impl LaneRx {
    /// Note the arrival of frame `lseq`; returns whether it was new. A
    /// duplicate owes the watermark as much as a new frame: the ack it
    /// drew may be the thing that was lost.
    pub(super) fn arrive(&mut self, lseq: u64) -> bool {
        self.owed = self.owed.saturating_add(1);
        if lseq >= self.high {
            if lseq > self.high {
                self.gaps.push((self.high, lseq));
            }
            self.high = lseq + 1;
            return true;
        }
        let Some(i) = self.gaps.iter().position(|&(a, b)| a <= lseq && lseq < b) else {
            return false;
        };
        let (a, b) = self.gaps[i];
        match (a < lseq, lseq + 1 < b) {
            (false, false) => {
                self.gaps.remove(i);
            }
            (true, false) => self.gaps[i].1 = lseq,
            (false, true) => self.gaps[i].0 = lseq + 1,
            (true, true) => {
                self.gaps[i].1 = lseq;
                self.gaps.insert(i + 1, (lseq + 1, b));
            }
        }
        true
    }

    /// The lowest lane sequence number not seen yet: everything below it
    /// arrived.
    pub(super) fn watermark(&self) -> u64 {
        self.gaps.first().map_or(self.high, |g| g.0)
    }

    /// Take the ack owed, if any: the watermark, when it acknowledges
    /// something.
    pub(super) fn take_ack(&mut self) -> Option<u64> {
        self.aged = false;
        let wm = self.watermark();
        (std::mem::take(&mut self.owed) > 0 && wm > 0).then_some(wm)
    }

    /// The retransmit duty's ack tick: take the ack only if it was owed
    /// at the previous tick too — no reverse frame took it meanwhile, so
    /// none is about to.
    pub(super) fn take_aged(&mut self) -> Option<u64> {
        if self.owed == 0 {
            return None;
        }
        if !std::mem::replace(&mut self.aged, true) {
            return None;
        }
        self.take_ack()
    }
}
