//! The socket backend: real loopback TCP with **k striped lanes** per
//! node pair — the paper's multi-object internode transport made
//! concrete, with loss recovery and lane failover.
//!
//! Topology: every node pair gets `lanes` TCP connections. A message
//! below [`TcpConfig::stripe_min`] rides its *sending rank's* nominal
//! lane — the local id modulo the usable lanes, so each of a node's
//! ranks drives its own lane, exactly the paper's mapping of objects to
//! local ranks (Fig. 2). A message at or above it splits into one
//! segment per usable lane (Träff's 1/k decomposition), so one large
//! transfer drives every socket. A killed or browned lane's traffic
//! degrades onto the survivors.
//!
//! **Who drives a socket.** All sockets are nonblocking. Each endpoint
//! (one direction of one lane connection) is split into a write half
//! (stream, [`WriteCursor`]) and a read half (stream, [`FrameDecoder`]),
//! each behind its own lock in a per-lane slot; whoever holds a half
//! does its work, through the same write and read steps:
//!
//! * **the sender first**: `send` writes an eager frame straight onto
//!   its lane's socket when a receiver on the destination node reads
//!   the wire itself, the lane's worker is parked, the channel is not
//!   streaming and nothing is queued ahead of it. A torn write leaves
//!   the rest in the cursor for the worker.
//! * **the waiter first**: `recv_within` drains the sockets from the
//!   sending node whose worker is parked, decoding and dispatching every
//!   frame (deliver, ack, answer the rendezvous handshake), before it
//!   parks on the store. A frame written while it waits is announced to
//!   it: a parked waiter is woken to read the socket itself.
//! * **the poller first**: a thread that polls with `try_recv` instead
//!   of waiting (the service engine) calls [`Fabric::drive`] once per
//!   pass, which runs a worker's pass over every endpoint whose worker
//!   is parked — read and decode each inbound socket, flush the acks
//!   owed, write each send queue — and pokes a running worker instead.
//!   While it drives, its sends are queued, and its sends and ack
//!   pushes only note the owner's wake-up as owed, because its next
//!   pass does the work; every way out of driving (its last call, a
//!   send about to block on a full queue) pays the owed wake-ups first.
//! * **the progress pool as backstop**: a small fixed pool of progress
//!   threads (default `min(4, cores)`, override
//!   [`TcpConfig::progress_threads`]), *not* a thread pair per
//!   endpoint, owns the endpoints round-robin. A worker's loop rotates
//!   over its endpoints: it refills each write cursor from the send
//!   queue (control frames first) and `write_vectored`s many pooled
//!   frames in one syscall, and drains each socket it can lock.
//!
//! Wakeups are edge-triggered in userspace: every producer (a sender
//! pushing a frame, a repair request, shutdown) bumps the owning
//! worker's [`WorkSignal`]; a write that is not announced to a waiting
//! receiver signals the owner of the *reverse* endpoint, whose socket
//! now has readable bytes, and a read that drained bytes signals the
//! reverse endpoint's owner again if that writer last hit `WouldBlock`
//! — all nodes live in this process, so either end is always positioned
//! to poke the other.
//!
//! Liveness never depends on a rank: a worker whose cycle made no
//! progress parks with a bounded timeout (≤ 10 ms) and then re-scans
//! every endpoint it owns, so bytes no rank picked up are delivered and
//! a missed edge costs milliseconds, not liveness. A thread that loses
//! a half's lock is owed a re-read (read half) or a re-notify of the
//! worker (write half) by the holder, so a rank holding a half never
//! costs the worker its bounded park, and a wake-up a driving thread
//! defers is paid when it stops driving.
//!
//! The former repair, retransmit and heartbeat threads fold into worker
//! 0 as deadline-ordered timer duties: a retransmit scan every `rto/4`,
//! a heartbeat tick every `heartbeat/2`, and repair-queue processing on
//! demand. Total fabric-owned threads are therefore O(pool) — a
//! constant — instead of O(node pairs × lanes), the wall that kept the
//! thread-per-lane design from multiplying lanes the way the paper's
//! Fig. 1 premise requires.
//!
//! Backpressure: each lane's user send queue is bounded; `send` blocks
//! (and counts a stall) while it is full. Protocol replies (CTS, DATA,
//! ACK) travel on an unbounded control queue drained first — frame
//! handling inside a worker never blocks on a full queue, so workers
//! always drain the wire and TCP flow control always eventually
//! releases any blocked sender.
//!
//! Hot-path economics: an eager frame is encoded exactly once into a
//! pooled, refcounted buffer ([`crate::pool::FrameBuf`]) — the send
//! queue, the write cursor, the retransmit pending queue, and any
//! retransmit in flight share refcounts on the same bytes, and the
//! buffer recycles when the last holder drops. After pool warm-up the
//! steady-state eager send path performs no heap allocation at all,
//! also while its acks lag: past 128 unacked frames (half the pool) a
//! sender on an idle lane waits for them.
//!
//! Robustness (loss recovery, reconnect, failover and chaos hooks):
//!
//! * **Cumulative ack + retransmit** — every eager frame (and every
//!   rendezvous DATA frame) stays in its channel's pending queue until
//!   the receiver's ack *watermark* passes it. Receivers batch acks and
//!   piggyback them on reverse-direction eager frames in the spare
//!   `aux` header field. Worker 0's retransmit scan re-sends unacked
//!   frames with exponential backoff and jitter; receiver sequence
//!   dedup makes re-deliveries idempotent, and every delivery re-raises
//!   the watermark, so a lost ack never wedges the sender. An exhausted
//!   budget becomes a typed [`FabricError::PeerDead`] verdict.
//! * **Reconnect** — a broken socket is reported to worker 0's repair
//!   duty, which re-establishes the connection and hands fresh
//!   endpoints to their owners, deduplicating reports by generation
//!   number. Frames lost in the break are recovered by retransmit.
//! * **Lane failover** — [`Fabric::kill_lane`] severs a lane and future
//!   sends restripe over the survivors; per-channel FIFO survives
//!   because receivers reassemble by sequence number. The last
//!   surviving lane refuses to die.
//! * **Chaos** — when a [`WireChaos`] stream is installed, every eager
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
use crate::wait::{Waiters, WorkSignal};
use crate::wire::{Frame, FrameKind};
use crate::{ChanKey, Fabric};
use drive::{driving, next_mesh_id, recv_driving, send_inline};
use endpoint::{EndpointSlot, Half};
use mesh::{ConnEntry, LaneCounters, Mesh, ProgressShared, RdvMsg};
use queue::{PushError, SendQueue};
use repair::install_endpoint;
use worker::{resolve_pool_size, worker_loop};

mod drive;
mod duties;
mod endpoint;
mod mesh;
mod queue;
mod repair;
#[cfg(test)]
mod tests;
mod worker;

/// Tuning knobs for [`TcpFabric`].
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Striped connections per node pair (the paper's object count k).
    pub lanes: usize,
    /// Smallest payload split into per-lane segments (Träff's 1/k
    /// decomposition, arXiv:1910.13373); smaller messages ride their
    /// sender's nominal lane whole, so the small-message rate is
    /// untouched. Must be at least 1.
    pub stripe_min: usize,
    /// Largest payload sent eagerly; above this the rendezvous handshake
    /// (RTS/CTS/DATA) is used.
    pub eager_max: usize,
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
    /// Progress-pool size; `0` means auto (`min(4, cores)`). The pool is
    /// additionally capped at the endpoint count — a fabric never spawns
    /// a worker with nothing to drive.
    pub progress_threads: usize,
    /// Gray-failure brownout evaluation window. Every window, worker 0
    /// scores each lane from its retransmit delta and ack-RTT p99; an
    /// over-threshold lane is *demoted* (excluded from lane selection,
    /// reported in [`FabricHealth::browned_lanes`]) but not killed, and
    /// recovery probes restore it once frames cross it again.
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
            stripe_min: 8 * 1024,
            eager_max: 64 * 1024,
            queue_cap: 1024,
            rto: Duration::from_millis(25),
            max_retransmits: 8,
            heartbeat: env_heartbeat(),
            heartbeat_misses: 4,
            progress_threads: 0,
            brownout_window: env_brownout_window(),
            brownout_retransmits: 16,
        }
    }
}

/// `(from_node, to_node, lane)` — one direction of one lane connection.
type LaneKey = (usize, usize, usize);

/// Loopback TCP transport with per-node-pair lane pools, ack-based loss
/// recovery, reconnect, and lane failover — all driven by a fixed-size
/// progress pool over nonblocking sockets.
pub struct TcpFabric {
    mesh: Arc<Mesh>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpFabric {
    /// Build the full lane mesh for `topo` on loopback: `cfg.lanes`
    /// connections per node pair, every socket nonblocking, all driven
    /// by a pool of progress threads: `cfg.progress_threads` (0 = the
    /// host's CPUs, at most 4), capped at the endpoint count.
    pub fn connect(topo: Topology, cfg: TcpConfig) -> io::Result<TcpFabric> {
        // Reject malformed PIPMCOLL_* variables here, before any worker
        // thread reads them through a silently-defaulting cache.
        crate::env::validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        assert!(cfg.lanes >= 1, "a fabric needs at least one lane");
        assert!(
            cfg.stripe_min >= 1,
            "stripe_min 0 would split every message, empty ones included"
        );
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
        // Two endpoints (one per direction) per undirected pair per lane.
        let n_endpoints = nodes * nodes.saturating_sub(1) * cfg.lanes;
        let pool_size = resolve_pool_size(&cfg, n_endpoints);
        // Deterministic endpoint → worker assignment, round-robin over
        // the enumeration order, so load spreads evenly and `send` can
        // wake exactly the right worker.
        let mut owners = HashMap::new();
        if pool_size > 0 {
            let mut eidx = 0usize;
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    for lane in 0..cfg.lanes {
                        owners.insert((a, b, lane), eidx % pool_size);
                        eidx += 1;
                        owners.insert((b, a, lane), eidx % pool_size);
                        eidx += 1;
                    }
                }
            }
        }
        // One slot per directed (node, node, lane), in `Mesh::slot`'s
        // order; a node's slots to itself stay empty.
        let slots = (0..nodes * nodes * cfg.lanes)
            .map(|i| EndpointSlot {
                owner: owners
                    .get(&(i / cfg.lanes / nodes, i / cfg.lanes % nodes, i % cfg.lanes))
                    .copied()
                    .unwrap_or(0),
                write: Half::empty(),
                read: Half::empty(),
            })
            .collect();
        let mesh = Arc::new(Mesh {
            id: next_mesh_id(),
            topo,
            cfg,
            progress: ProgressShared {
                addr,
                listener: Mutex::new(listener),
                repair_q: Mutex::new(VecDeque::new()),
                signals: (0..pool_size).map(|_| WorkSignal::new()).collect(),
                pool_size,
                live: Arc::new(AtomicUsize::new(0)),
            },
            stores,
            queues,
            slots,
            conns: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            acked: Waiters::new(),
            acks_owed: Mutex::new(HashMap::new()),
            owed_len: AtomicUsize::new(0),
            acks_wanted: AtomicBool::new(false),
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
            rdv_stash: Mutex::new(HashMap::new()),
            next_rdv: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            striped_msgs: AtomicU64::new(0),
            inline_sends: AtomicU64::new(0),
            rank_reads: AtomicU64::new(0),
            driver_frames: AtomicU64::new(0),
            driver_owed: (0..pool_size).map(|_| AtomicBool::new(false)).collect(),
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
            // From here on only worker 0's repair duty accepts.
            listener.set_nonblocking(true)?;
            *mesh.conns.lock().expect("fresh mutex cannot be poisoned") = conns;
        }
        let workers = (0..pool_size)
            .map(|w| {
                // Count the worker before it is scheduled so the census
                // reads `pool_size` the instant `connect` returns; the
                // worker's drop guard is the matching decrement. A
                // failed spawn unwinds the credit itself.
                mesh.progress.live.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("fab-pool-{w}"))
                    .spawn({
                        let mesh = Arc::clone(&mesh);
                        move || worker_loop(mesh, w)
                    })
                    .inspect_err(|_| {
                        mesh.progress.live.fetch_sub(1, Ordering::SeqCst);
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TcpFabric { mesh, workers })
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

    /// Resolved progress-pool size: the total number of fabric-owned
    /// threads, independent of node-pair × lane count.
    pub fn progress_thread_count(&self) -> usize {
        self.mesh.progress.pool_size
    }

    /// Progress threads alive right now (the census behind the
    /// thread-budget and clean-shutdown tests).
    pub fn live_progress_threads(&self) -> usize {
        self.mesh.progress.live.load(Ordering::SeqCst)
    }

    /// A census probe that outlives the fabric: reads the number of
    /// live progress threads, and reads 0 once `Drop` has joined the
    /// pool — the observable behind the clean-shutdown test.
    pub fn census_probe(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.mesh.progress.live)
    }

    /// Payload frames registered for retransmit and not yet covered by
    /// an ack watermark — drains to zero once all traffic is acked.
    pub fn pending_frames(&self) -> usize {
        self.mesh
            .pending
            .lock()
            .map(|g| g.values().map(|q| q.len()).sum())
            .unwrap_or(0)
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
        // Fix the segment plan before anything else: it decides how many
        // sequence numbers this message consumes *and* whether it goes
        // eager — splitting first can turn a rendezvous-sized message
        // into eager-sized segments, skipping the RTS/CTS round trip the
        // whole message would have paid.
        let segs = mesh.plan_segments(payload.len());
        let seq = {
            let mut g = mesh.seqs.lock().map_err(|_| FabricError::QueuePoisoned {
                what: "sequence table",
            })?;
            let c = g.entry(key).or_insert(0);
            let s = *c;
            // Segments occupy consecutive sequences on the channel, so
            // the receiver's hold-back ordering and cumulative acks see
            // them as ordinary frames.
            *c += segs as u64;
            s
        };
        let lane = mesh.effective_lane_or_dead(src, || "no surviving lane".into())?;
        // Outbound traffic doubles as this node pair's heartbeat.
        mesh.note_sent(node_s, node_d);
        // A message counts once, on its sender's primary lane, however
        // many segments it splits into — stats totals stay message- and
        // payload-exact however the message splits.
        let ctrs = &mesh.lane_ctrs[lane];
        ctrs.msgs.fetch_add(1, Ordering::Relaxed);
        ctrs.bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let seg_len = if segs > 1 {
            payload.len().div_ceil(segs)
        } else {
            payload.len()
        };
        let eager = seg_len <= mesh.cfg.eager_max;
        let chaos = mesh.chaos();
        // A driving caller about to block on a full queue first hands
        // back the wake-ups it deferred: the lane's worker must drain it.
        let push_to = |q: &SendQueue, lane: usize, buf: FrameBuf| {
            let hand_back = || {
                if driving(mesh) {
                    mesh.hand_back();
                    mesh.owner_signal((node_s, node_d, lane)).notify();
                }
            };
            q.push_user(buf, hand_back).map_err(|e| match e {
                PushError::Timeout(waited) => FabricError::PeerHung {
                    chan: key,
                    attempts: 0,
                    detail: format!(
                        "send queue on lane {lane} stayed full for {waited:?} — receiver not draining"
                    ),
                },
                PushError::Poisoned => FabricError::QueuePoisoned { what: "send queue" },
            })
        };
        // An eager frame goes onto its socket from this thread when it
        // can (see `send_inline`); otherwise it is queued and the
        // lane's worker woken. Returns whether the push stalled.
        let post = |q: &SendQueue, lane: usize, unacked: usize, buf: FrameBuf| match send_inline(
            mesh,
            key,
            (node_s, node_d, lane),
            unacked,
            buf,
        ) {
            Ok(()) => Ok::<_, FabricError>(false),
            Err(buf) => {
                let stalled = push_to(q, lane, buf)?;
                mesh.notify_owner(node_s, node_d, lane);
                Ok(stalled)
            }
        };
        if eager {
            // Piggyback any cumulative ack owed on the reverse channel
            // in the spare `aux` field (watermark + 1; 0 = none). The
            // `owed_len` gate keeps the common no-acks-owed case to one
            // relaxed load. A striped message carries it on segment 0
            // only.
            let mut aux = 0;
            if mesh.owed_len.load(Ordering::Relaxed) > 0 {
                if let Ok(mut owed) = mesh.acks_owed.lock() {
                    if let Some(wm) = owed.remove(&(dst, src, key.2)) {
                        aux = wm + 1;
                        mesh.owed_len.store(owed.len(), Ordering::Relaxed);
                    }
                }
            }
            if segs > 1 {
                mesh.striped_msgs.fetch_add(1, Ordering::Relaxed);
            }
            let mut stalled = false;
            for i in 0..segs {
                let lo = (i * seg_len).min(payload.len());
                let hi = ((i + 1) * seg_len).min(payload.len());
                let seg_seq = seq + i as u64;
                let frame = Frame {
                    kind: FrameKind::Eager,
                    src: src as u32,
                    dst: dst as u32,
                    tag: key.2,
                    seq: seg_seq,
                    aux: if i == 0 { aux } else { 0 },
                    seg_idx: i as u16,
                    seg_count: if segs > 1 { segs as u16 } else { 0 },
                    payload: Vec::new(),
                };
                // The one encode on the eager path: header + payload
                // laid out into a pooled buffer; every holder below is
                // a refcount.
                let buf = mesh.pool.encode_seg(&frame, &payload[lo..hi]);
                // Scatter: segment i rides lane (stripe + i) over the
                // survivors; an unstriped message is the i == 0 case on
                // its usual lane.
                let seg_lane = mesh.seg_lane(src, i).unwrap_or(lane);
                let q = mesh
                    .queues
                    .get(&(node_s, node_d, seg_lane))
                    .ok_or_else(|| FabricError::LaneDead {
                        lane: seg_lane,
                        detail: "no send queue for this node pair".into(),
                    })?;
                // Register for retransmit before the frame can be lost.
                // The pending queue holds a refcount on the same pooled
                // bytes — sequence numbers only grow, so the cumulative
                // ack pops a prefix and the deque keeps its allocation.
                let unacked = mesh.register_pending(key, seg_seq, buf.clone(), seg_lane);
                // Chaos rolls a fate per segment (cut edge, degraded
                // lane, then the per-class streams): each is an
                // ordinary frame to lose, duplicate, corrupt, recover.
                let fate = chaos
                    .as_ref()
                    .map_or(FrameFate::Deliver, |c| c.fate_for(node_s, node_d, seg_lane));
                let pushed = match fate {
                    // "Lost on the wire": the retransmit duty recovers
                    // it.
                    FrameFate::Drop => false,
                    FrameFate::Dup => {
                        let a = post(q, seg_lane, unacked, buf.clone())?;
                        let b = post(q, seg_lane, unacked, buf)?;
                        a || b
                    }
                    FrameFate::Corrupt => {
                        // Line noise: a bit-flipped *copy* goes out
                        // while the pending table keeps the pristine
                        // bytes for the retransmit the receiver's CRC
                        // reject will provoke.
                        let mut copy = mesh.pool.copy_bytes(&buf);
                        if let (Some(c), Some(bytes)) = (chaos.as_ref(), copy.as_mut_slice()) {
                            c.corrupt_bytes(bytes);
                        }
                        post(q, seg_lane, unacked, copy)?
                    }
                    FrameFate::Deliver => post(q, seg_lane, unacked, buf)?,
                };
                stalled |= pushed;
            }
            if stalled {
                ctrs.stalls.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let rdv = mesh.next_rdv.fetch_add(1, Ordering::Relaxed);
            mesh.rdv_stash
                .lock()
                .map_err(|_| FabricError::QueuePoisoned {
                    what: "rendezvous stash",
                })?
                .insert(
                    rdv,
                    RdvMsg {
                        chan: key,
                        seq,
                        segs,
                        payload,
                    },
                );
            if segs > 1 {
                mesh.striped_msgs.fetch_add(1, Ordering::Relaxed);
            }
            let rts = Frame {
                kind: FrameKind::Rts,
                src: src as u32,
                dst: dst as u32,
                tag: key.2,
                seq,
                aux: rdv,
                seg_idx: 0,
                seg_count: 0,
                payload: Vec::new(),
            };
            let buf = mesh.pool.encode(&rts);
            let q =
                mesh.queues
                    .get(&(node_s, node_d, lane))
                    .ok_or_else(|| FabricError::LaneDead {
                        lane,
                        detail: "no send queue for this node pair".into(),
                    })?;
            // A cut edge eats the RTS exactly as it would on the wire:
            // the stash entry ages out with the fabric and the transfer
            // surfaces as a timeout — the same observable as a lost
            // handshake.
            if let Some(c) = chaos.as_ref() {
                if c.cut(node_s, node_d) {
                    c.note_cut();
                    return Ok(());
                }
            }
            // The RTS itself is not retransmitted; the DATA frames it
            // eventually provokes are (registered at CTS time). A lost
            // handshake surfaces as a timeout.
            if push_to(q, lane, buf)? {
                ctrs.stalls.fetch_add(1, Ordering::Relaxed);
            }
            // The frame is queued; wake the worker that drives this lane.
            mesh.notify_owner(node_s, node_d, lane);
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
            striped_msgs: mesh.striped_msgs.load(Ordering::Relaxed),
            inline_sends: mesh.inline_sends.load(Ordering::Relaxed),
            rank_reads: mesh.rank_reads.load(Ordering::Relaxed),
            driver_frames: mesh.driver_frames.load(Ordering::Relaxed),
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
        // Wake every worker so the killed lane's endpoints retire at
        // once; queued eager frames migrate to the survivors via
        // retransmit.
        for s in &mesh.progress.signals {
            s.notify();
        }
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
        // Wake blocked senders (queues) and parked workers (signals);
        // workers observe the flag and exit, dropping their endpoints.
        for q in mesh.queues.values() {
            q.close();
        }
        for s in &mesh.progress.signals {
            s.notify();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}
