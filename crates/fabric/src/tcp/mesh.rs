//! The state shared by `send`/`recv` callers and the progress thread:
//! lane selection, writing and applying lane acks, and the dispatch of
//! every decoded frame.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pipmcoll_model::Topology;

use super::drive::{driving, write_inline};
use super::endpoint::EndpointSlot;
use super::lane::{LaneRx, ACK_BATCH};
use super::queue::SendQueue;
use super::repair::RepairReq;
use super::{LaneKey, TcpConfig};
use crate::chaos::WireChaos;
use crate::error::FabricError;
use crate::pool::{FrameBuf, FramePool};
use crate::stats::LatencyHist;
use crate::store::MsgStore;
use crate::wait::WorkSignal;
use crate::wire::{Frame, FrameKind};
use crate::ChanKey;

pub(super) struct LaneCounters {
    pub(super) msgs: AtomicU64,
    pub(super) bytes: AtomicU64,
    pub(super) stalls: AtomicU64,
}

/// One lane connection between a node pair (keyed `(lo, hi, lane)` with
/// `lo < hi`): the current socket pair and its repair generation.
pub(super) struct ConnEntry {
    /// Bumped on every successful repair; shared with the connection's
    /// endpoints so a superseded endpoint retires itself, and dedups
    /// break reports.
    pub(super) gen: Arc<AtomicU64>,
    /// `lo`'s endpoint stream.
    pub(super) out: Arc<TcpStream>,
    /// `hi`'s endpoint stream.
    pub(super) inn: Arc<TcpStream>,
}

/// Progress-thread plumbing: its wakeup signal, the repair queue, and
/// the listener its repair duty reconnects through.
pub(super) struct ProgressShared {
    pub(super) addr: SocketAddr,
    /// The loopback listener; blocking during initial connect, then
    /// nonblocking for the repair duty's accepts.
    pub(super) listener: Mutex<TcpListener>,
    /// Break reports awaiting the repair duty.
    pub(super) repair_q: Mutex<VecDeque<RepairReq>>,
    /// The progress thread's wakeup signal.
    pub(super) signal: WorkSignal,
    /// Live progress-thread census (incremented at spawn,
    /// guard-decremented on exit) — the observable behind the
    /// thread-budget tests. `Arc` so a probe can outlive the fabric and
    /// verify `Drop` joined the thread.
    pub(super) live: Arc<AtomicUsize>,
}

/// Everything shared between `send`/`recv` callers and the progress
/// thread.
pub(super) struct Mesh {
    /// Unique per fabric: names the mesh in a driving thread's mark.
    pub(super) id: u64,
    pub(super) topo: Topology,
    pub(super) cfg: TcpConfig,
    pub(super) progress: ProgressShared,
    /// Per-node receive stores.
    pub(super) stores: Vec<Arc<MsgStore>>,
    /// Send queues keyed by `(from_node, to_node, lane)`; fixed at
    /// construction, shared across reconnects.
    pub(super) queues: HashMap<LaneKey, Arc<SendQueue>>,
    /// Every directed endpoint's write and read halves, indexed by
    /// [`Mesh::slot`]; repair swaps fresh halves in.
    pub(super) slots: Vec<EndpointSlot>,
    /// Live connections keyed by `(lo, hi, lane)`.
    pub(super) conns: Mutex<HashMap<LaneKey, ConnEntry>>,
    /// Pooled frame buffers shared by every encode on this fabric.
    pub(super) pool: FramePool,
    /// Round-trip from first transmission to the covering ack.
    pub(super) ack_rtt: LatencyHist,
    /// Inbound frames discarded on CRC-32C mismatch, summed over every
    /// endpoint's decoder.
    pub(super) corrupt_frames: AtomicU64,
    /// Retransmits blamed per lane (the lane that lost the frame, not
    /// the lane the retry rides) — one brownout-score input.
    pub(super) lane_retransmits: Vec<AtomicU64>,
    /// Per-lane ack round-trip histograms — the other brownout input.
    pub(super) lane_rtt: Vec<LatencyHist>,
    /// Per-lane brownout flags: a browned lane is excluded from lane
    /// selection (gray failure demotion) but its endpoints stay up so
    /// probes — and restoration — remain possible.
    pub(super) browned: Vec<AtomicBool>,
    /// Nanoseconds (since `started`) each lane was last demoted; a
    /// frame heard on the lane *after* this instant is the recovery
    /// evidence that restores it.
    pub(super) browned_since: Vec<AtomicU64>,
    /// Nanoseconds (since `started`) a frame was last decoded on each
    /// lane, in either direction; 0 = never.
    pub(super) lane_heard: Vec<AtomicU64>,
    /// Failures recorded off the caller's path, drained by the runtime.
    pub(super) errors: Mutex<Vec<FabricError>>,
    /// Per-lane kill flags; a killed lane is never repaired.
    pub(super) killed: Vec<AtomicBool>,
    pub(super) shutdown: AtomicBool,
    /// Frame-level fault stream, when a chaos wrapper installed one.
    pub(super) chaos: Mutex<Option<Arc<WireChaos>>>,
    /// Lock-free "is chaos installed?" gate: the send path, every
    /// control-frame push and the ack flush consult chaos, and taking
    /// the mutex just to find `None` measurably serialized concurrent
    /// senders on the no-fault hot path.
    pub(super) chaos_installed: AtomicBool,
    /// Next send sequence per channel.
    pub(super) seqs: Mutex<HashMap<ChanKey, u64>>,
    pub(super) retransmits: AtomicU64,
    /// Standalone ACK frames written.
    pub(super) ack_frames: AtomicU64,
    /// Eager frames the sending thread wrote onto the socket itself.
    pub(super) inline_sends: AtomicU64,
    /// Frames a waiting rank decoded from the socket itself.
    pub(super) rank_reads: AtomicU64,
    /// Payload frames a driving caller wrote or decoded itself.
    pub(super) driver_frames: AtomicU64,
    /// Payload bytes copied in user space on the send side
    /// ([`Mesh::copy_frame`]).
    pub(super) send_copied: AtomicU64,
    /// Payload bytes the decoders copied out of their read buffers.
    pub(super) recv_copied: AtomicU64,
    /// A driving caller skipped waking the progress thread (see
    /// [`Mesh::notify_worker`]); [`Mesh::hand_back`] pays the wake-up.
    pub(super) driver_owed: AtomicBool,
    pub(super) lane_ctrs: Vec<LaneCounters>,
    pub(super) local_msgs: AtomicU64,
    pub(super) local_bytes: AtomicU64,
    /// Construction instant; `last_activity` is nanoseconds since this.
    pub(super) started: Instant,
    /// Nanoseconds (since `started`) of the last frame crossing the wire
    /// in either direction; 0 = never.
    pub(super) last_activity: AtomicU64,
    /// Nanoseconds (since `started`) node `a` last heard *anything* from
    /// node `b`, flattened `a * nodes + b`; 0 = never (treated as
    /// construction time, since the heartbeat sideband starts at once).
    pub(super) last_heard: Vec<AtomicU64>,
    /// Nanoseconds node `a` last sent anything to node `b` (same
    /// layout). The send path refreshes this, which is what makes busy
    /// pairs' liveness ride piggyback — the heartbeat duty only emits
    /// a standalone beat when this goes stale.
    pub(super) last_sent: Vec<AtomicU64>,
    /// Directed suspicion flags (`a` suspects `b`), same layout. Set by
    /// the heartbeat duty past the miss budget, cleared by any frame
    /// arrival from `b`.
    pub(super) hb_suspected: Vec<AtomicBool>,
    /// Test hook: a muted node's standalone beats are suppressed, so its
    /// peers' suspicion machinery can be exercised without killing real
    /// rank threads.
    pub(super) muted: Vec<AtomicBool>,
    /// Ranks with a retransmit-exhaustion death verdict:
    /// rank → (last unacked seq, attempts).
    pub(super) dead_peers: Mutex<HashMap<usize, (u64, u32)>>,
}

impl Mesh {
    pub(super) fn touch(&self) {
        self.touch_at(self.now_nanos());
    }

    pub(super) fn touch_at(&self, nanos: u64) {
        self.last_activity.store(nanos, Ordering::Relaxed);
    }

    pub(super) fn now_nanos(&self) -> u64 {
        (self.started.elapsed().as_nanos() as u64).max(1)
    }

    /// The installed chaos stream, without touching the mutex in the
    /// common uninstalled case.
    pub(super) fn chaos(&self) -> Option<Arc<WireChaos>> {
        if !self.chaos_installed.load(Ordering::Acquire) {
            return None;
        }
        self.chaos.lock().ok().and_then(|g| g.clone())
    }

    pub(super) fn pair(&self, a: usize, b: usize) -> usize {
        a * self.topo.nodes() + b
    }

    /// The halves of endpoint `(from, to, lane)`: it writes `from → to`
    /// and reads `to → from` on that lane's connection.
    pub(super) fn slot(&self, (from, to, lane): LaneKey) -> &EndpointSlot {
        &self.slots[(from * self.topo.nodes() + to) * self.cfg.lanes + lane]
    }

    /// Wake the progress thread: a send queue or a socket just gained
    /// work. A thread driving this mesh writes and reads every endpoint
    /// at its next pass, so it only notes the wake-up as owed until it
    /// stops driving.
    pub(super) fn notify_worker(&self) {
        if driving(self) {
            self.driver_owed.store(true, Ordering::Release);
        } else {
            self.progress.signal.notify();
        }
    }

    /// Pay the wake-up a driving caller owes the progress thread, if any.
    pub(super) fn hand_back(&self) {
        if self.driver_owed.swap(false, Ordering::AcqRel) {
            self.progress.signal.notify();
        }
    }

    /// Push a control frame onto `(from, to, lane)`'s queue and wake the
    /// progress thread. Returns `false` if the queue is missing/poisoned.
    ///
    /// This is the single choke point every control path funnels
    /// through — acks, retransmits, heartbeats — so a
    /// chaos link fault or partition is consulted *here*: a partition
    /// that spared retransmits or heartbeats would not be a partition.
    /// A cut frame is swallowed (counted, not errored), exactly like a
    /// wire that ate it.
    pub(super) fn push_ctrl_to(&self, from: usize, to: usize, lane: usize, buf: FrameBuf) -> bool {
        if let Some(c) = self.chaos() {
            if c.cut(from, to) {
                c.note_cut();
                return true;
            }
        }
        match self.queues.get(&(from, to, lane)) {
            Some(q) => {
                let ok = q.push_ctrl(buf);
                if ok {
                    self.notify_worker();
                }
                ok
            }
            None => false,
        }
    }

    /// Node `here` heard a frame from node `peer` at `nanos`: refresh the
    /// beat and retract any suspicion — arrival is proof of life, which
    /// is what resolves a symmetric false-suspicion partition (both sides
    /// keep beating, both sides clear). The clock read is hoisted to the
    /// caller: the frame decode loop stamps activity, peer liveness and
    /// lane liveness from one `Instant::now()` per frame (clock reads are
    /// tens to hundreds of ns on virtualized hosts, and three per frame
    /// showed up on the 64B message-rate sweep).
    pub(super) fn note_heard_at(&self, here: usize, peer: usize, nanos: u64) {
        let idx = self.pair(here, peer);
        self.last_heard[idx].store(nanos, Ordering::Relaxed);
        self.hb_suspected[idx].store(false, Ordering::Relaxed);
    }

    pub(super) fn note_sent(&self, here: usize, peer: usize) {
        self.last_sent[self.pair(here, peer)].store(self.now_nanos(), Ordering::Relaxed);
    }

    /// A frame was decoded on `lane` — the arrival evidence the
    /// brownout duty's restore check reads. Caller supplies the
    /// timestamp (see [`Mesh::note_heard_at`]).
    pub(super) fn note_lane_heard_at(&self, lane: usize, nanos: u64) {
        if let Some(a) = self.lane_heard.get(lane) {
            a.store(nanos, Ordering::Relaxed);
        }
    }

    /// Whether `lane` should carry fresh traffic: neither killed nor
    /// brownout-demoted.
    pub(super) fn lane_usable(&self, lane: usize) -> bool {
        !self.killed[lane].load(Ordering::Relaxed) && !self.browned[lane].load(Ordering::Relaxed)
    }

    /// Lanes currently demoted by the brownout duty (killed lanes are
    /// reported as dead, not browned, even if they browned first).
    pub(super) fn browned_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| {
                self.browned[l].load(Ordering::Relaxed) && !self.killed[l].load(Ordering::Relaxed)
            })
            .collect()
    }

    /// Record a retransmit-exhaustion death verdict against `peer`.
    pub(super) fn record_dead_peer(&self, peer: usize, last_seq: u64, attempts: u32) {
        if let Ok(mut g) = self.dead_peers.lock() {
            let e = g.entry(peer).or_insert((last_seq, attempts));
            if last_seq >= e.0 {
                *e = (last_seq, attempts.max(e.1));
            }
        }
    }

    /// Ranks this endpoint's local evidence says are dead, as relevant
    /// to a receive on `chan` timing out: the sender if its node's
    /// heartbeat went silent, plus every retransmit-exhausted peer.
    pub(super) fn suspects_for(&self, chan: ChanKey) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .dead_peers
            .lock()
            .map(|g| g.keys().copied().collect())
            .unwrap_or_default();
        let (src, dst, _) = chan;
        if self.topo.node_of(src) != self.topo.node_of(dst) {
            let idx = self.pair(self.topo.node_of(dst), self.topo.node_of(src));
            if self.hb_suspected[idx].load(Ordering::Relaxed) {
                out.push(src);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    pub(super) fn record(&self, e: FabricError) {
        if let Ok(mut g) = self.errors.lock() {
            g.push(e);
        }
    }

    pub(super) fn dead_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| self.killed[l].load(Ordering::Relaxed))
            .collect()
    }

    pub(super) fn alive_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| !self.killed[l].load(Ordering::Relaxed))
            .collect()
    }

    /// The lane a sending rank nominally rides with every lane alive —
    /// what a failure diagnostic names when none survive.
    pub(super) fn nominal_lane(&self, src: usize) -> usize {
        self.topo.local_of(src) % self.cfg.lanes
    }

    /// The lane a sending rank's messages ride right now: its local id
    /// modulo the *usable* lanes — neither killed nor brownout-demoted —
    /// so a killed or browned lane's traffic degrades onto the rest. If
    /// every survivor is browned it falls back to the merely-alive set:
    /// degraded delivery beats none. `None` only if every lane is dead.
    /// Allocation-free — this sits on the eager send path.
    pub(super) fn effective_lane(&self, src: usize) -> Option<usize> {
        let local = self.topo.local_of(src);
        let usable = |l: &usize| self.lane_usable(*l);
        let count = (0..self.cfg.lanes).filter(usable).count();
        if count == self.cfg.lanes {
            // No lane killed or browned — the no-fault common case:
            // plain modulo, no filtered re-scan.
            return Some(local % count);
        }
        if count > 0 {
            return (0..self.cfg.lanes).filter(usable).nth(local % count);
        }
        let alive = |l: &usize| !self.killed[*l].load(Ordering::Relaxed);
        let count = (0..self.cfg.lanes).filter(alive).count();
        if count == 0 {
            return None;
        }
        (0..self.cfg.lanes).filter(alive).nth(local % count)
    }

    /// [`Mesh::effective_lane`] with the no-survivors case as the typed
    /// error the send path reports.
    pub(super) fn effective_lane_or_dead(
        &self,
        src: usize,
        detail: impl FnOnce() -> String,
    ) -> Result<usize, FabricError> {
        self.effective_lane(src)
            .ok_or_else(|| FabricError::LaneDead {
                lane: self.nominal_lane(src),
                detail: detail(),
            })
    }

    /// A private copy of frame `buf` to alter (a chaos bit-flip, a lane
    /// migration's restamp); its payload bytes count as copied.
    pub(super) fn copy_frame(&self, buf: &FrameBuf) -> FrameBuf {
        self.send_copied
            .fetch_add(buf.payload().len() as u64, Ordering::Relaxed);
        self.pool.copy_bytes(buf)
    }

    /// An encoded control frame of `kind` from node `from` to node `to`:
    /// a heartbeat, or a lane's ACK carrying watermark `seq`. No channel
    /// is involved; it names each node's first rank.
    pub(super) fn ctrl_frame(&self, kind: FrameKind, from: usize, to: usize, seq: u64) -> FrameBuf {
        self.pool.encode(&Frame {
            kind,
            src: self.topo.rank_of(from, 0) as u32,
            dst: self.topo.rank_of(to, 0) as u32,
            tag: 0,
            seq,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: Vec::new(),
        })
    }

    /// Write the ACK for the lane read by endpoint `key` if `take` finds
    /// one owed (see [`LaneRx`]), over `key`'s own write half: with
    /// `inline` from the calling thread when the half is free and
    /// nothing waits ahead, and otherwise through the queue.
    pub(super) fn ack_lane(
        &self,
        key: LaneKey,
        inline: bool,
        take: fn(&mut LaneRx) -> Option<u64>,
    ) {
        let Some(wm) = self.slot(key).owed_ack(take) else {
            return;
        };
        let (here, peer, lane) = key;
        if self.chaos().is_some_and(|c| c.ack_fate_for(here, peer)) {
            // Eaten by the wire (probabilistically, or by a cut edge):
            // the sender retransmits, and the duplicate re-owes the
            // watermark — nothing wedges.
            return;
        }
        self.ack_frames.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.ctrl_frame(FrameKind::Ack, here, peer, wm);
        if inline && !driving(self) {
            match write_inline(self, key, buf) {
                Ok(()) => return,
                Err(b) => buf = b,
            }
        }
        if !self.push_ctrl_to(here, peer, lane, buf) {
            self.record(FabricError::QueuePoisoned {
                what: "control send queue",
            });
        }
    }

    /// Process one decoded frame, frame `lseq` of the lane read by
    /// endpoint `key`. Returns whether the lane now owes an ack for
    /// [`ACK_BATCH`] frames.
    pub(super) fn handle_frame(&self, key: LaneKey, lseq: u64, f: Frame) -> bool {
        // An ack for the frames `key` sent: an ACK's `seq`, or riding a
        // payload frame's `aux` (watermark + 1; 0 = none aboard). A
        // heartbeat carries nothing: any arrival was a beat already.
        let wm = match f.kind {
            FrameKind::Eager => f.aux.checked_sub(1),
            FrameKind::Ack => Some(f.seq),
            FrameKind::Heartbeat => None,
        };
        if let Some(wm) = wm {
            // RTT samples for the fabric and the lane's brownout score.
            self.slot(key).tx.ack(wm, |rtt| {
                self.ack_rtt.record(rtt);
                self.lane_rtt[key.2].record(rtt);
            });
        }
        if f.kind != FrameKind::Eager {
            return false;
        }
        self.stores[key.0].deliver(f.chan(), f.seq, f.payload);
        // Noted after the delivery, so no ack ever covers a frame the
        // store has not taken; a duplicate is noted too.
        self.slot(key).arrive(lseq) >= ACK_BATCH
    }
}
