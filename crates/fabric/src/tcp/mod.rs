//! The socket backend: real loopback TCP with **k lanes** per node pair
//! — the paper's multi-object internode transport made concrete, with
//! loss recovery and lane failover.
//!
//! Topology: every node pair gets `lanes` TCP connections. Every
//! message, whatever its size, rides its *sending rank's* lane whole, as
//! one frame: the local id modulo the usable lanes, so each of a node's
//! ranks drives its own lane, exactly the paper's mapping of objects to
//! local ranks (Fig. 2). A killed or browned lane's traffic degrades
//! onto the survivors.
//!
//! **Who drives a socket.** All sockets are nonblocking. Each endpoint
//! (one direction of one lane connection) is split into a write half
//! (stream, [`WriteCursor`]) and a read half (stream, [`FrameDecoder`]),
//! each behind its own lock in a per-lane slot; whoever holds a half
//! does its work, through the same write and read steps:
//!
//! * **the sender first**: `send` writes a frame straight onto its
//!   lane's socket when a receiver on the destination node reads the
//!   wire itself, the progress thread is parked, the lane is not
//!   streaming and nothing is queued ahead of it. A torn write leaves
//!   the rest in the cursor for the progress thread.
//! * **the waiter first**: `recv_within` sleeps in `poll(2)` on the
//!   sockets of every live lane from the sending node, plus its thread's
//!   wake socket, and reads those the kernel reports readable, decoding
//!   and dispatching every frame (deliver, apply piggybacked acks); before
//!   each sleep it writes the acks those lanes owe. A frame written onto
//!   one of them wakes it from inside the kernel; a frame another thread
//!   read and delivered rings its wake socket.
//! * **the poller first**: a thread that polls with `try_recv` instead
//!   of waiting (the service engine) calls [`Fabric::drive`] once per
//!   pass, which runs the progress thread's pass over every endpoint
//!   while that thread is parked — read and decode each inbound socket,
//!   write each send queue, and on its last pass before a pause queue
//!   every ack owed — and pokes it while it runs.
//!   While it drives, its sends are queued, and its sends and ack
//!   pushes only note the progress thread's wake-up as owed, because
//!   its next pass does the work; every way out of driving (its last
//!   call, a send about to block on a full queue) pays that wake-up
//!   first.
//! * **the progress thread as backstop**: one thread per fabric (none
//!   for a fabric of one node) owns every endpoint. Each pass it runs
//!   the timer duties that are due, then walks the endpoints: it refills
//!   each write cursor from the send queue (control frames first) and
//!   `write_vectored`s many pooled frames in one syscall, and drains
//!   each socket it can lock.
//!
//! Wake-ups: a receiving rank sleeps in the kernel, on its sockets, so
//! the `write` that lands its frame is its wake-up and the sender pays
//! none; a delivery made by any other thread (the progress thread, a
//! driving caller, another rank) writes one byte to the receiver's wake
//! socket, registered with the store under the lock that found nothing
//! ready. The progress thread is woken in userspace: every producer (a
//! sender pushing a frame, a repair request, shutdown) bumps its
//! [`WorkSignal`]; so does a write whose channel has no driving
//! receiver, since the reverse endpoint's socket now has readable
//! bytes, and a read that drained bytes a writer stuck on `WouldBlock`
//! waits for — all nodes live in this process, so either end is always
//! positioned to poke the other.
//!
//! Liveness never depends on a rank: a progress pass that made no
//! progress parks with a bounded timeout (≤ 10 ms, shorter when a timer
//! is due sooner) and then re-scans every endpoint, so bytes no rank
//! picked up are delivered and a missed edge costs milliseconds, not
//! liveness. A thread that loses a half's lock is owed a re-read (read
//! half) or a re-notify of the progress thread (write half) by the
//! holder, so a rank holding a half never costs the progress thread its
//! bounded park, and a wake-up a driving thread defers is paid when it
//! stops driving.
//!
//! Timers ride the same thread as deadline-ordered duties: a retransmit
//! scan every `rto/4`, a heartbeat tick every `heartbeat/2`, a brownout
//! window when enabled, and repair-queue processing on demand. A fabric
//! therefore owns one thread, whatever its node pairs and lanes.
//!
//! Backpressure: each lane's user send queue is bounded; `send` blocks
//! (and counts a stall) while it is full. Acks, retransmits and
//! heartbeats travel on an unbounded control queue drained first — frame
//! handling inside the progress thread never blocks on a full queue, so
//! it always drains the wire and TCP flow control always eventually
//! releases any blocked sender.
//!
//! Every internode message goes as eager frames, whatever its size, and
//! each is retransmit-protected from the moment it is encoded: no
//! handshake, and no message a break or a lane kill can lose.
//!
//! Hot-path economics: a frame's header is encoded exactly once into a
//! pooled, refcounted buffer ([`crate::pool::FrameBuf`]) beside the
//! payload the caller handed over, which moves in uncopied — the send
//! queue, the write cursor, the lane's retransmit ring, and any
//! retransmit in flight share refcounts on that one frame, and its
//! header buffer recycles when the last holder drops. One
//! `write_vectored` sends header and payload as two slices, and a read
//! lands a payload in the message's own vector, so each payload byte is
//! copied at most once in user space on each side of the wire: never on
//! the send side, and only the part a read happened to buffer ahead of
//! its frame's header on the receive side ([`FabricStats`] counts both).
//! After pool warm-up the steady-state eager send path performs no heap
//! allocation at all. A lane's unacked frames stay few without any
//! sender waiting: whoever decodes the frames writes the lane's ack once
//! it owes 32 of them.
//!
//! Robustness (loss recovery, reconnect, failover and chaos hooks):
//!
//! * **Cumulative ack + retransmit, per lane** — each directed lane
//!   connection numbers its payload frames (`lseq`, across reconnects),
//!   and a frame stays in its lane's ring until the receiver's lane
//!   *watermark* passes it. Any payload frame going back on the lane,
//!   whatever its channel, carries the owed watermark in `aux`;
//!   otherwise whoever decoded the frames writes an ACK frame (see
//!   `lane`). The retransmit duty re-sends a ring's timed-out frames,
//!   oldest first, on their lane with exponential backoff and jitter;
//!   channel dedup makes re-deliveries idempotent and a duplicate re-owes
//!   the watermark, so a lost ack never wedges the sender. An exhausted
//!   budget becomes a typed [`FabricError::PeerDead`] verdict; the frame
//!   keeps retrying.
//! * **Reconnect** — a broken socket is reported to the repair duty,
//!   which re-establishes the connection and swaps fresh endpoint halves
//!   into their slots, deduplicating reports by generation number.
//!   Frames lost in the break are a gap in the lane's sequence, which
//!   retransmit fills.
//! * **Lane failover** — [`Fabric::kill_lane`] severs a lane and future
//!   sends remap over the survivors; the retransmit duty moves the dead
//!   lane's unacked frames onto them under fresh lane sequence numbers.
//!   Per-channel FIFO survives because receivers reorder by channel
//!   sequence number. The last surviving lane refuses to die.
//! * **Chaos** — when a [`WireChaos`] stream is installed, every payload
//!   frame's first transmission rolls a fate *below* sequence
//!   assignment: a dropped frame looks exactly like wire loss and a
//!   duplicate looks exactly like a spurious retransmit.
//!
//! Node-local messages never touch a socket: one "node" here is a set of
//! ranks sharing an address space, so a self-send is delivered straight
//! into the node's store (counted separately in [`FabricStats`]). A
//! caller that acts for both ranks can skip even that: [`Fabric::node_of`]
//! answers from the topology.
//!
//! [`WriteCursor`]: crate::pool::WriteCursor
//! [`FrameDecoder`]: crate::wire::FrameDecoder

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pipmcoll_model::Topology;

use crate::chaos::{FrameFate, WireChaos};
use crate::error::{DeadPeer, FabricDiag, FabricError, FabricHealth, FabricResult, QueueDiag};
use crate::pool::{FrameBuf, FramePool, PoolStats};
use crate::stats::{FabricStats, LaneStats, LatencyHist};
use crate::store::MsgStore;
use crate::wait::WorkSignal;
use crate::wire::{Frame, FrameKind};
use crate::{ChanKey, Fabric};
use drive::{driving, next_mesh_id, recv_driving, send_inline};
use endpoint::EndpointSlot;
use lane::{LaneRx, PendingFrame};
use mesh::{ConnEntry, LaneCounters, Mesh, ProgressShared};
use queue::{PushError, SendQueue};
use repair::install_endpoint;
use worker::worker_loop;

mod drive;
mod duties;
mod endpoint;
mod lane;
mod mesh;
mod queue;
mod repair;
#[cfg(test)]
mod tests;
mod worker;

/// Tuning knobs for [`TcpFabric`].
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Connections per node pair (the paper's object count k); a
    /// sending rank's messages ride lane `local rank % k`.
    pub lanes: usize,
    /// Bounded user send window (in messages) per directed node pair,
    /// split evenly across its lanes (each lane queue gets at least 1
    /// slot). A per-pair budget keeps the total in-flight backlog —
    /// and with it ack latency — independent of the lane count, instead
    /// of multiplying the window by k.
    pub queue_cap: usize,
    /// Base retransmit timeout: how long an eager frame may stay unacked
    /// before its first re-send (doubles per attempt, jittered).
    pub rto: Duration,
    /// Re-send budget per eager frame; exhausting it records a
    /// [`FabricError::PeerDead`] verdict against the receiver.
    pub max_retransmits: u32,
    /// Heartbeat sideband interval per node pair: a pair that has sent
    /// nothing for this long gets a standalone [`FrameKind::Heartbeat`]
    /// frame (busy pairs piggyback liveness on their regular traffic —
    /// any frame arrival counts as a beat). [`Duration::ZERO`] disables
    /// the sideband. Default from `PIPMCOLL_HEARTBEAT_MS` (250 ms).
    pub heartbeat: Duration,
    /// Missed-beat budget: a node silent for `heartbeat * misses` is
    /// suspected dead (cleared the instant any frame arrives from it).
    pub heartbeat_misses: u32,
    /// Gray-failure brownout evaluation window. Every window, the
    /// progress thread scores each lane from its retransmit delta and
    /// ack-RTT p99; an over-threshold lane is *demoted* (excluded from
    /// lane selection, reported in [`FabricHealth::browned_lanes`]) but
    /// not killed, and recovery probes restore it once frames cross it
    /// again.
    /// [`Duration::ZERO`] disables brownout entirely. Default from
    /// `PIPMCOLL_BROWNOUT_MS` (0 = off).
    pub brownout_window: Duration,
    /// Retransmits blamed on one lane within one window that demote it
    /// (default 16).
    pub brownout_retransmits: u64,
}

/// `PIPMCOLL_HEARTBEAT_MS` (0 disables), parsed once. Malformed values
/// fall back to the default — [`crate::env::validate`] rejects them at
/// [`TcpFabric::connect`].
fn env_heartbeat() -> Duration {
    static HB: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *HB.get_or_init(|| Duration::from_millis(crate::env::read_u64_or("PIPMCOLL_HEARTBEAT_MS", 250)))
}

/// `PIPMCOLL_BROWNOUT_MS` (0 disables), parsed once; same fallback
/// policy as [`env_heartbeat`].
fn env_brownout_window() -> Duration {
    static W: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *W.get_or_init(|| Duration::from_millis(crate::env::read_u64_or("PIPMCOLL_BROWNOUT_MS", 0)))
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            lanes: 4,
            queue_cap: 1024,
            rto: Duration::from_millis(25),
            max_retransmits: 8,
            heartbeat: env_heartbeat(),
            heartbeat_misses: 4,
            brownout_window: env_brownout_window(),
            brownout_retransmits: 16,
        }
    }
}

/// `(from_node, to_node, lane)` — one direction of one lane connection.
type LaneKey = (usize, usize, usize);

/// Loopback TCP transport with per-node-pair lane pools, ack-based loss
/// recovery, reconnect, and lane failover, over nonblocking sockets
/// that its ranks and one progress thread drive.
pub struct TcpFabric {
    mesh: Arc<Mesh>,
    /// The progress thread; `None` for a fabric of one node.
    worker: Option<JoinHandle<()>>,
}

impl TcpFabric {
    /// Build the full lane mesh for `topo` on loopback: `cfg.lanes`
    /// connections per node pair, every socket nonblocking, with one
    /// progress thread to drive them (none when there is no internode
    /// endpoint).
    pub fn connect(topo: Topology, cfg: TcpConfig) -> io::Result<TcpFabric> {
        // Reject malformed PIPMCOLL_* variables here, before any worker
        // thread reads them through a silently-defaulting cache.
        crate::env::validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        assert!(cfg.lanes >= 1, "a fabric needs at least one lane");
        assert!(cfg.queue_cap >= 1, "send queues need capacity");
        assert!(!cfg.rto.is_zero(), "retransmit timeout must be positive");
        let nodes = topo.nodes();
        let stores: Vec<Arc<MsgStore>> =
            (0..nodes).map(|_| Arc::new(MsgStore::new("tcp"))).collect();
        let lane_ctrs: Vec<LaneCounters> = (0..cfg.lanes)
            .map(|_| LaneCounters {
                msgs: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
            })
            .collect();
        let mut queues = HashMap::new();
        for a in 0..nodes {
            for b in 0..nodes {
                if a == b {
                    continue;
                }
                // `queue_cap` budgets the *pair*, not the lane: see its
                // doc. Integer division may undershoot the budget by up
                // to lanes-1 slots; exactness doesn't matter, the flat
                // total does.
                let per_lane = (cfg.queue_cap / cfg.lanes).max(1);
                for lane in 0..cfg.lanes {
                    queues.insert((a, b, lane), Arc::new(SendQueue::new(per_lane)));
                }
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // One slot per directed (node, node, lane), in `Mesh::slot`'s
        // order; a node's slots to itself stay empty.
        let slots = (0..nodes * nodes * cfg.lanes)
            .map(|_| EndpointSlot::new())
            .collect();
        let mesh = Arc::new(Mesh {
            id: next_mesh_id(),
            topo,
            cfg,
            progress: ProgressShared {
                addr,
                listener: Mutex::new(listener),
                repair_q: Mutex::new(VecDeque::new()),
                signal: WorkSignal::new(),
                live: Arc::new(AtomicUsize::new(0)),
            },
            stores,
            queues,
            slots,
            conns: Mutex::new(HashMap::new()),
            pool: FramePool::new(),
            ack_rtt: LatencyHist::new(),
            corrupt_frames: AtomicU64::new(0),
            lane_retransmits: (0..cfg.lanes).map(|_| AtomicU64::new(0)).collect(),
            lane_rtt: (0..cfg.lanes).map(|_| LatencyHist::new()).collect(),
            browned: (0..cfg.lanes).map(|_| AtomicBool::new(false)).collect(),
            browned_since: (0..cfg.lanes).map(|_| AtomicU64::new(0)).collect(),
            lane_heard: (0..cfg.lanes).map(|_| AtomicU64::new(0)).collect(),
            errors: Mutex::new(Vec::new()),
            killed: (0..cfg.lanes).map(|_| AtomicBool::new(false)).collect(),
            shutdown: AtomicBool::new(false),
            chaos: Mutex::new(None),
            chaos_installed: AtomicBool::new(false),
            seqs: Mutex::new(HashMap::new()),
            retransmits: AtomicU64::new(0),
            ack_frames: AtomicU64::new(0),
            inline_sends: AtomicU64::new(0),
            rank_reads: AtomicU64::new(0),
            driver_frames: AtomicU64::new(0),
            send_copied: AtomicU64::new(0),
            recv_copied: AtomicU64::new(0),
            driver_owed: AtomicBool::new(false),
            lane_ctrs,
            local_msgs: AtomicU64::new(0),
            local_bytes: AtomicU64::new(0),
            started: Instant::now(),
            last_activity: AtomicU64::new(0),
            last_heard: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
            last_sent: (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect(),
            hb_suspected: (0..nodes * nodes).map(|_| AtomicBool::new(false)).collect(),
            muted: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            dead_peers: Mutex::new(HashMap::new()),
        });
        // Loopback connect/accept pairs deterministically: the accept
        // queue is FIFO, we connect one socket at a time, and the
        // listener stays blocking until every initial connection is up.
        {
            let listener = mesh
                .progress
                .listener
                .lock()
                .expect("fresh mutex cannot be poisoned");
            let mut conns = HashMap::new();
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    for lane in 0..mesh.cfg.lanes {
                        let out = TcpStream::connect(addr)?;
                        let (inn, _) = listener.accept()?;
                        out.set_nodelay(true)?;
                        inn.set_nodelay(true)?;
                        out.set_nonblocking(true)?;
                        inn.set_nonblocking(true)?;
                        let gen = Arc::new(AtomicU64::new(0));
                        let (out, inn) = (Arc::new(out), Arc::new(inn));
                        for (here, peer, stream) in [(a, b, &out), (b, a, &inn)] {
                            install_endpoint(
                                &mesh,
                                (here, peer, lane),
                                0,
                                &gen,
                                Arc::clone(stream),
                            );
                        }
                        conns.insert((a, b, lane), ConnEntry { gen, out, inn });
                    }
                }
            }
            // From here on only the repair duty accepts.
            listener.set_nonblocking(true)?;
            *mesh.conns.lock().expect("fresh mutex cannot be poisoned") = conns;
        }
        if mesh.queues.is_empty() {
            // One node: no endpoint for a progress thread to drive.
            return Ok(TcpFabric { mesh, worker: None });
        }
        // Count the thread before it is scheduled so the census reads 1
        // the instant `connect` returns; its drop guard is the matching
        // decrement. A failed spawn unwinds the credit itself.
        mesh.progress.live.fetch_add(1, Ordering::SeqCst);
        let worker = std::thread::Builder::new()
            .name("fab-pool-0".into())
            .spawn({
                let mesh = Arc::clone(&mesh);
                move || worker_loop(mesh)
            })
            .inspect_err(|_| {
                mesh.progress.live.fetch_sub(1, Ordering::SeqCst);
            })?;
        Ok(TcpFabric {
            mesh,
            worker: Some(worker),
        })
    }

    /// This backend's configuration.
    pub fn config(&self) -> TcpConfig {
        self.mesh.cfg
    }

    /// Counters of the shared frame-buffer pool (hits/misses/recycles) —
    /// the observable behind the zero-steady-state-allocation claim.
    pub fn pool_stats(&self) -> PoolStats {
        self.mesh.pool.stats()
    }

    /// A census probe that outlives the fabric: reads the number of live
    /// progress threads — 1 while a fabric with an internode endpoint
    /// runs, 0 for one node and once `Drop` has joined the thread. The
    /// observable behind the thread-budget and clean-shutdown tests.
    pub fn census_probe(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.mesh.progress.live)
    }

    /// Payload frames registered for retransmit and not yet covered by
    /// an ack watermark — drains to zero once all traffic is acked.
    pub fn pending_frames(&self) -> usize {
        let ring_len = |s: &EndpointSlot| s.tx.frames.lock().map_or(0, |r| r.len());
        self.mesh.slots.iter().map(ring_len).sum()
    }

    /// Test hook: suppress (or restore) `node`'s standalone heartbeat
    /// beats, so peers' suspicion machinery can be exercised without
    /// killing rank threads. Regular traffic from the node still counts
    /// as proof of life — exactly the piggybacking contract.
    pub fn mute_node(&self, node: usize, muted: bool) {
        if let Some(m) = self.mesh.muted.get(node) {
            m.store(muted, Ordering::Relaxed);
        }
    }

    /// Test/chaos hook: sever the socket of one lane connection without
    /// marking the lane dead, forcing the repair duty to reconnect it.
    /// Returns `false` if no such connection exists.
    pub fn break_connection(&self, a: usize, b: usize, lane: usize) -> bool {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let Ok(conns) = self.mesh.conns.lock() else {
            return false;
        };
        match conns.get(&(lo, hi, lane)) {
            Some(e) => {
                let _ = e.out.shutdown(Shutdown::Both);
                let _ = e.inn.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }
}

impl Fabric for TcpFabric {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn lanes(&self) -> usize {
        self.mesh.cfg.lanes
    }

    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        let mesh = &self.mesh;
        let (src, dst, _) = key;
        let node_s = mesh.topo.node_of(src);
        let node_d = mesh.topo.node_of(dst);
        if node_s == node_d {
            // Same address space: no socket, no lane.
            mesh.local_msgs.fetch_add(1, Ordering::Relaxed);
            mesh.local_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            mesh.stores[node_d].push(key, payload);
            return Ok(());
        }
        let seq = {
            let mut g = mesh.seqs.lock().map_err(|_| FabricError::QueuePoisoned {
                what: "sequence table",
            })?;
            let c = g.entry(key).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let lane = mesh.effective_lane_or_dead(src, || "no surviving lane".into())?;
        let q = mesh
            .queues
            .get(&(node_s, node_d, lane))
            .ok_or_else(|| FabricError::LaneDead {
                lane,
                detail: "no send queue for this node pair".into(),
            })?;
        // Outbound traffic doubles as this node pair's heartbeat.
        mesh.note_sent(node_s, node_d);
        let ctrs = &mesh.lane_ctrs[lane];
        ctrs.msgs.fetch_add(1, Ordering::Relaxed);
        ctrs.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let slot = mesh.slot((node_s, node_d, lane));
        // The ack this lane owes the peer rides along in `aux`
        // (watermark + 1; 0 = none aboard).
        let aux = slot.owed_ack(LaneRx::take_ack).map_or(0, |wm| wm + 1);
        let frame = Frame {
            kind: FrameKind::Eager,
            src: src as u32,
            dst: dst as u32,
            tag: key.2,
            seq,
            aux,
            seg_idx: 0,
            seg_count: 0,
            payload: Vec::new(),
        };
        // The one encode on the send path: the header, as the next frame
        // of its lane, into a pooled buffer beside the payload, which
        // moves in uncopied; every holder below is a refcount.
        let lseq = slot.tx.reserve();
        let buf = mesh.pool.encode_lane(&frame, payload, lseq);
        // Register for retransmit before the frame can be lost: the
        // lane's ring holds a refcount on the same pooled bytes, and its
        // cumulative ack pops a prefix.
        let pending = PendingFrame::new(lseq, key, seq, buf.clone(), mesh.cfg.rto);
        let unacked = slot.tx.insert(pending);
        // A frame goes onto its socket from this thread when it can (see
        // `send_inline`); otherwise it is queued and the progress thread
        // woken. Returns whether the push stalled. A driving caller about
        // to block on a full queue first pays the wake-up it deferred:
        // the progress thread must drain the queue.
        let post = |buf: FrameBuf| -> FabricResult<bool> {
            let buf = match send_inline(mesh, (node_s, node_d, lane), unacked, buf) {
                Ok(()) => return Ok(false),
                Err(buf) => buf,
            };
            let hand_back = || {
                if driving(mesh) {
                    mesh.driver_owed.store(false, Ordering::Relaxed);
                    mesh.progress.signal.notify();
                }
            };
            let stalled = q.push_user(buf, hand_back).map_err(|e| match e {
                PushError::Timeout(waited) => FabricError::PeerHung {
                    chan: key,
                    attempts: 0,
                    detail: format!(
                        "send queue on lane {lane} stayed full for {waited:?} — receiver not draining"
                    ),
                },
                PushError::Poisoned => FabricError::QueuePoisoned { what: "send queue" },
            })?;
            mesh.notify_worker();
            Ok(stalled)
        };
        // Chaos rolls the frame's fate (cut edge, degraded lane, then the
        // per-class streams): an ordinary frame to lose, duplicate,
        // corrupt, recover.
        let chaos = mesh.chaos();
        let fate = chaos
            .as_ref()
            .map_or(FrameFate::Deliver, |c| c.fate_for(node_s, node_d, lane));
        let stalled = match fate {
            // "Lost on the wire": the retransmit duty recovers it.
            FrameFate::Drop => false,
            FrameFate::Dup => {
                let a = post(buf.clone())?;
                let b = post(buf)?;
                a || b
            }
            FrameFate::Corrupt => {
                // Line noise: a bit-flipped *copy* goes out while the ring
                // keeps the pristine bytes for the retransmit the
                // receiver's CRC reject will provoke.
                let mut copy = mesh.copy_frame(&buf);
                if let (Some(c), Some((header, payload))) = (chaos.as_ref(), copy.parts_mut()) {
                    c.corrupt_bytes(header, payload);
                }
                post(copy)?
            }
            FrameFate::Deliver => post(buf)?,
        };
        if stalled {
            ctrs.stalls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        let mesh = &self.mesh;
        let node_s = mesh.topo.node_of(key.0);
        let node_d = mesh.topo.node_of(key.1);
        let got = if node_s == node_d {
            mesh.stores[node_d].pop_within(key, timeout)
        } else {
            recv_driving(mesh, key, timeout)
        };
        match got {
            Err(FabricError::Timeout(mut d)) => {
                // Enrich the store's channel-level view with the lane
                // and sender-queue state only this backend knows.
                if node_s != node_d {
                    d.lane = mesh.effective_lane(key.0);
                    d.send_queue_depth = d
                        .lane
                        .and_then(|l| mesh.queues.get(&(node_s, node_d, l)))
                        .map(|q| q.depth());
                }
                d.dead_lanes = mesh.dead_lanes();
                d.suspected = mesh.suspects_for(key);
                Err(FabricError::Timeout(d))
            }
            r => r,
        }
    }

    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        self.mesh.stores[self.mesh.topo.node_of(key.1)].try_pop(key)
    }

    fn reset(&self) {
        for s in &self.mesh.stores {
            s.clear_ready();
        }
    }

    fn stats(&self) -> FabricStats {
        let mesh = &self.mesh;
        FabricStats {
            lanes: mesh
                .lane_ctrs
                .iter()
                .map(|c| LaneStats {
                    msgs: c.msgs.load(Ordering::Relaxed),
                    bytes: c.bytes.load(Ordering::Relaxed),
                    stalls: c.stalls.load(Ordering::Relaxed),
                })
                .collect(),
            local_msgs: mesh.local_msgs.load(Ordering::Relaxed),
            local_bytes: mesh.local_bytes.load(Ordering::Relaxed),
            retransmits: mesh.retransmits.load(Ordering::Relaxed),
            ack_frames: mesh.ack_frames.load(Ordering::Relaxed),
            inline_sends: mesh.inline_sends.load(Ordering::Relaxed),
            rank_reads: mesh.rank_reads.load(Ordering::Relaxed),
            driver_frames: mesh.driver_frames.load(Ordering::Relaxed),
            send_copied_bytes: mesh.send_copied.load(Ordering::Relaxed),
            recv_copied_bytes: mesh.recv_copied.load(Ordering::Relaxed),
            dups_dropped: mesh.stores.iter().map(|s| s.dups_dropped()).sum(),
            corrupt_frames: mesh.corrupt_frames.load(Ordering::Relaxed),
            ack_rtt: mesh.ack_rtt.snapshot(),
            ctrl_queue_hwm: mesh
                .queues
                .values()
                .map(|q| q.ctrl_hwm.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    fn diag(&self) -> FabricDiag {
        let mesh = &self.mesh;
        let mut blocked: Vec<_> = mesh.stores.iter().flat_map(|s| s.blocked()).collect();
        blocked.sort_by_key(|b| std::cmp::Reverse(b.waited));
        let queues = mesh
            .queues
            .iter()
            .filter_map(|(&(f, t, l), q)| {
                let depth = q.depth();
                (depth > 0).then_some(QueueDiag {
                    from_node: f,
                    to_node: t,
                    lane: l,
                    depth,
                })
            })
            .collect();
        let last = mesh.last_activity.load(Ordering::Relaxed);
        FabricDiag {
            blocked,
            queues,
            dead_lanes: mesh.dead_lanes(),
            last_wire_activity: (last > 0).then(|| {
                let now = mesh.started.elapsed().as_nanos() as u64;
                Duration::from_nanos(now.saturating_sub(last))
            }),
        }
    }

    fn drain_errors(&self) -> Vec<FabricError> {
        self.mesh
            .errors
            .lock()
            .map(|mut g| std::mem::take(&mut *g))
            .unwrap_or_default()
    }

    fn kill_lane(&self, lane: usize) -> bool {
        let mesh = &self.mesh;
        if lane >= mesh.cfg.lanes {
            return false;
        }
        // The conns lock serializes concurrent kills (and repairs) so
        // two kills cannot race past the last-survivor check.
        let Ok(conns) = mesh.conns.lock() else {
            return false;
        };
        if mesh.killed[lane].load(Ordering::Relaxed) || mesh.alive_lanes().len() <= 1 {
            return false;
        }
        mesh.killed[lane].store(true, Ordering::Relaxed);
        for (&(_, _, l), entry) in conns.iter() {
            if l == lane {
                let _ = entry.out.shutdown(Shutdown::Both);
                let _ = entry.inn.shutdown(Shutdown::Both);
            }
        }
        // Wake the progress thread so the killed lane's endpoints retire
        // at once; the retransmit duty moves the lane's unacked frames
        // onto the survivors.
        mesh.progress.signal.notify();
        true
    }

    fn install_chaos(&self, chaos: Arc<WireChaos>) -> bool {
        match self.mesh.chaos.lock() {
            Ok(mut g) => {
                *g = Some(chaos);
                self.mesh.chaos_installed.store(true, Ordering::Release);
                true
            }
            Err(_) => false,
        }
    }

    fn node_of(&self, rank: usize) -> Option<usize> {
        let topo = &self.mesh.topo;
        (rank < topo.world_size()).then(|| topo.node_of(rank))
    }

    fn drive(&self, stay: bool) {
        drive::drive(&self.mesh, stay)
    }

    fn health(&self) -> FabricHealth {
        let mesh = &self.mesh;
        let nodes = mesh.topo.nodes();
        let mut suspected_nodes = Vec::new();
        for a in 0..nodes {
            for b in 0..nodes {
                if a != b && mesh.hb_suspected[mesh.pair(a, b)].load(Ordering::Relaxed) {
                    suspected_nodes.push((a, b));
                }
            }
        }
        let mut dead_peers: Vec<DeadPeer> = mesh
            .dead_peers
            .lock()
            .map(|g| {
                g.iter()
                    .map(|(&peer, &(last_seq, attempts))| DeadPeer {
                        peer,
                        last_seq,
                        attempts,
                    })
                    .collect()
            })
            .unwrap_or_default();
        dead_peers.sort_unstable_by_key(|d| d.peer);
        FabricHealth {
            suspected_nodes,
            dead_peers,
            dead_lanes: mesh.dead_lanes(),
            browned_lanes: mesh.browned_lanes(),
        }
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        let mesh = &self.mesh;
        mesh.shutdown.store(true, Ordering::Relaxed);
        // Wake blocked senders (queues) and the parked progress thread
        // (signal); it observes the flag and exits, dropping its
        // endpoints.
        for q in mesh.queues.values() {
            q.close();
        }
        mesh.progress.signal.notify();
        if let Some(t) = self.worker.take() {
            let _ = t.join();
        }
    }
}
