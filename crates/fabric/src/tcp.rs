//! The socket backend: real loopback TCP with **k striped lanes** per
//! node pair — the paper's multi-object internode transport made
//! concrete, with loss recovery and lane failover.
//!
//! Topology: every node pair gets `lanes` TCP connections. A message's
//! lane is determined by its *sending rank's local id* striped over the
//! lanes that are still alive, so each of a node's ranks drives its own
//! lane — exactly the paper's mapping of objects to local ranks (Fig. 2)
//! — and a killed lane's traffic degrades onto the survivors.
//!
//! **Progress pool.** All sockets are nonblocking and driven by a small
//! fixed pool of progress threads (default `min(4, cores)`, override
//! `PIPMCOLL_PROGRESS_THREADS`), *not* by a thread pair per connection
//! endpoint. Each endpoint (one direction of one lane connection) is
//! owned by exactly one worker; a worker's loop rotates over its
//! endpoints doing nonblocking work on each:
//!
//! * **write**: refill the endpoint's [`WriteCursor`] from its send
//!   queue (control frames first), then `write_vectored` many pooled
//!   frames — eager payloads, piggybacked cumulative acks, protocol
//!   replies — in one syscall. `WouldBlock` leaves the cursor holding
//!   the torn frame at its resume offset; backpressure propagates to
//!   senders through the bounded queue, never by blocking a worker.
//! * **read**: drain the socket into a [`FrameDecoder`], which
//!   reassembles frames split across reads, and dispatch each decoded
//!   frame (deliver, ack, answer the rendezvous handshake).
//!
//! Wakeups are edge-triggered in userspace: every producer (a sender
//! pushing a frame, a repair request, shutdown) bumps the owning
//! worker's [`WorkSignal`]; after a successful write the worker signals
//! the owner of the *reverse* endpoint, whose socket now has readable
//! bytes, and after a read that drained bytes it signals the reverse
//! endpoint's owner again if that writer last hit `WouldBlock` — all
//! nodes live in this process, so either end is always positioned to
//! poke the other. A worker whose cycle made no progress parks at once
//! with a bounded timeout, so a missed edge costs milliseconds, not
//! liveness.
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
//! steady-state eager send path performs no heap allocation at all.
//!
//! Robustness (the PR 3 layer, unchanged in contract):
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
//! into the node's store (counted separately in [`FabricStats`]).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pipmcoll_model::Topology;

use crate::chaos::{ChaosRng, FrameFate, WireChaos};
use crate::error::{DeadPeer, FabricDiag, FabricError, FabricHealth, FabricResult, QueueDiag};
use crate::pool::{FrameBuf, FramePool, PoolStats, WriteCursor};
use crate::stats::{FabricStats, LaneStats, LatencyHist};
use crate::store::{MsgStore, Wakes};
use crate::timeout::sync_timeout;
use crate::wait::{Waiters, WorkSignal};
use crate::wire::{Frame, FrameDecoder, FrameKind, WireError};
use crate::{ChanKey, Fabric};

/// How a sender's traffic maps onto the k lanes of a node pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LanePolicy {
    /// The paper's mapping (Fig. 2): each sending rank pins to one lane
    /// (`local_of(src)` modulo the surviving lanes), so a node's ranks
    /// drive distinct lanes and a lone transfer uses one socket.
    #[default]
    Modulo,
    /// Träff's 1/k decomposition (arXiv:1910.13373): a message at or
    /// above [`TcpConfig::stripe_min`] is split into per-lane segments
    /// scattered round-robin over every surviving lane, so one large
    /// transfer drives k sockets — and, when each segment fits
    /// [`TcpConfig::eager_max`], skips the rendezvous round trip that
    /// the whole message would have paid. Smaller messages keep the
    /// allocation-free modulo fast path.
    Stripe,
}

impl LanePolicy {
    /// Parse the `PIPMCOLL_LANE_POLICY` spelling.
    pub fn parse(s: &str) -> Option<LanePolicy> {
        match s.trim() {
            "modulo" => Some(LanePolicy::Modulo),
            "stripe" => Some(LanePolicy::Stripe),
            _ => None,
        }
    }
}

/// Tuning knobs for [`TcpFabric`].
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Striped connections per node pair (the paper's object count k).
    pub lanes: usize,
    /// How messages map onto lanes. Default from `PIPMCOLL_LANE_POLICY`
    /// (`modulo`).
    pub lane_policy: LanePolicy,
    /// Smallest payload the stripe policy splits into segments; smaller
    /// messages stay on the modulo fast path so the small-message rate
    /// is untouched. Irrelevant under [`LanePolicy::Modulo`].
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
    /// a worker with nothing to drive. Default from
    /// `PIPMCOLL_PROGRESS_THREADS` (absent/0 = auto).
    pub progress_threads: usize,
    /// Gray-failure brownout evaluation window. Every window, worker 0
    /// scores each lane from its retransmit delta and ack-RTT p99; an
    /// over-threshold lane is *demoted* (excluded from lane selection,
    /// reported in [`FabricHealth::browned_lanes`]) but not killed, and
    /// recovery probes restore it once frames cross it again.
    /// [`Duration::ZERO`] disables brownout entirely. Default from
    /// `PIPMCOLL_BROWNOUT_MS` (0 = off).
    pub brownout_window: Duration,
    /// Retransmits blamed on one lane within one window that demote it.
    /// Default from `PIPMCOLL_BROWNOUT_RETRANSMITS` (16).
    pub brownout_retransmits: u64,
    /// Per-lane ack-RTT p99 (milliseconds) that demotes a lane; 0 makes
    /// the score retransmit-only. Default from `PIPMCOLL_BROWNOUT_P99_MS`
    /// (250).
    pub brownout_p99_ms: u64,
}

/// `PIPMCOLL_HEARTBEAT_MS` (0 disables), parsed once. Malformed values
/// fall back to the default — [`crate::env::validate`] rejects them at
/// [`TcpFabric::connect`].
fn env_heartbeat() -> Duration {
    static HB: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *HB.get_or_init(|| Duration::from_millis(crate::env::read_u64_or("PIPMCOLL_HEARTBEAT_MS", 250)))
}

/// `PIPMCOLL_PROGRESS_THREADS` (0 or absent = auto), parsed once; same
/// fallback policy as [`env_heartbeat`].
fn env_progress_threads() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| crate::env::read_usize_or("PIPMCOLL_PROGRESS_THREADS", 0))
}

/// `PIPMCOLL_BROWNOUT_MS` (0 disables), parsed once; same fallback
/// policy as [`env_heartbeat`].
fn env_brownout_window() -> Duration {
    static W: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *W.get_or_init(|| Duration::from_millis(crate::env::read_u64_or("PIPMCOLL_BROWNOUT_MS", 0)))
}

/// `PIPMCOLL_BROWNOUT_RETRANSMITS`, parsed once; same fallback policy
/// as [`env_heartbeat`].
fn env_brownout_retransmits() -> u64 {
    static N: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *N.get_or_init(|| crate::env::read_u64_or("PIPMCOLL_BROWNOUT_RETRANSMITS", 16))
}

/// `PIPMCOLL_BROWNOUT_P99_MS` (0 = retransmit-only scoring), parsed
/// once; same fallback policy as [`env_heartbeat`].
fn env_brownout_p99() -> u64 {
    static P: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *P.get_or_init(|| crate::env::read_u64_or("PIPMCOLL_BROWNOUT_P99_MS", 250))
}

/// `PIPMCOLL_LANE_POLICY` (`modulo`/`stripe`), parsed once; same
/// fallback policy as [`env_heartbeat`].
fn env_lane_policy() -> LanePolicy {
    static P: std::sync::OnceLock<LanePolicy> = std::sync::OnceLock::new();
    *P.get_or_init(|| {
        std::env::var("PIPMCOLL_LANE_POLICY")
            .ok()
            .and_then(|v| LanePolicy::parse(&v))
            .unwrap_or_default()
    })
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            lanes: 4,
            lane_policy: env_lane_policy(),
            stripe_min: 8 * 1024,
            eager_max: 64 * 1024,
            queue_cap: 1024,
            rto: Duration::from_millis(25),
            max_retransmits: 8,
            heartbeat: env_heartbeat(),
            heartbeat_misses: 4,
            progress_threads: env_progress_threads(),
            brownout_window: env_brownout_window(),
            brownout_retransmits: env_brownout_retransmits(),
            brownout_p99_ms: env_brownout_p99(),
        }
    }
}

/// Staging budget for one worker *cycle*, shared across its endpoints:
/// each endpoint's per-pass refill target is this divided by the
/// worker's endpoint count (floored at [`STAGE_MIN`]). Budgeting the
/// cycle rather than the endpoint keeps a worker's round-trip time —
/// and therefore ack latency — roughly constant as lanes multiply,
/// instead of growing linearly with endpoints.
const BATCH_MAX: usize = 256 * 1024;

/// Per-endpoint refill floor: enough to fill a `write_vectored` batch
/// of small frames, so heavily-subscribed workers still amortize the
/// queue lock and the syscall over dozens of frames.
const STAGE_MIN: usize = 4 * 1024;

/// Frames per `write_vectored` call (conservative portable IOV cap).
const MAX_IOV: usize = 64;

/// Socket reads one endpoint may take per progress pass before yielding
/// to its siblings (each read fills up to the scratch buffer, 64 KiB) —
/// fairness under a one-sided flood.
const MAX_READS_PER_PASS: usize = 4;

/// `(from_node, to_node, lane)` — one direction of one lane connection.
type LaneKey = (usize, usize, usize);

#[derive(Default)]
struct QueueInner {
    user: VecDeque<FrameBuf>,
    ctrl: VecDeque<FrameBuf>,
    closed: bool,
}

/// Why a bounded push did not complete.
enum PushError {
    /// The queue stayed at capacity for the whole [`sync_timeout`].
    Timeout(Duration),
    /// The queue mutex was poisoned by a panicking thread.
    Poisoned,
}

/// One lane endpoint's send side: bounded user queue + unbounded control
/// queue (drained first). The queue object outlives any one socket: a
/// reconnected connection's fresh endpoint drains the same queue.
struct SendQueue {
    inner: Mutex<QueueInner>,
    cap: usize,
    /// Deepest the unbounded control queue has ever been — the one
    /// queue backpressure cannot bound, so it gets a high-water mark.
    ctrl_hwm: AtomicU64,
    /// Senders parked on a full user queue.
    can_push: Waiters,
    /// The endpoint draining this queue last hit `WouldBlock` with bytes
    /// still in its cursor: the socket's reader wakes that endpoint's
    /// worker when it drains bytes (the writer has no other edge).
    write_blocked: AtomicBool,
}

impl SendQueue {
    fn new(cap: usize) -> Self {
        SendQueue {
            inner: Mutex::new(QueueInner::default()),
            cap,
            ctrl_hwm: AtomicU64::new(0),
            can_push: Waiters::new(),
            write_blocked: AtomicBool::new(false),
        }
    }

    /// Enqueue a user frame, blocking while the queue is at capacity.
    /// Returns whether the caller stalled waiting for space.
    fn push_user(&self, frame: FrameBuf) -> Result<bool, PushError> {
        let timeout = sync_timeout();
        let mut stalled = false;
        let g = self.inner.lock().map_err(|_| PushError::Poisoned)?;
        let (mut g, room) = self
            .can_push
            .wait_for(g, timeout, |q| {
                let room = q.user.len() < self.cap || q.closed;
                stalled |= !room;
                room.then_some(())
            })
            .map_err(|_| PushError::Poisoned)?;
        if room.is_none() {
            return Err(PushError::Timeout(timeout));
        }
        g.user.push_back(frame);
        Ok(stalled)
    }

    /// Enqueue a protocol frame (CTS/DATA/ACK, retransmits). Never
    /// blocks — this is what keeps the progress pool always able to
    /// drain the wire. Returns `false` only on a poisoned queue.
    fn push_ctrl(&self, frame: FrameBuf) -> bool {
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
    /// empty. Returns the bytes moved, and collects the identity of
    /// every staged payload frame into `staged` (for the wire-time RTT
    /// stamp). Frees user-queue capacity, waking blocked senders.
    fn pop_into(
        &self,
        cursor: &mut WriteCursor,
        target: usize,
        staged: &mut Vec<(ChanKey, u64)>,
    ) -> usize {
        let Ok(mut g) = self.inner.lock() else {
            return 0;
        };
        let mut moved = 0usize;
        let mut popped_user = false;
        while cursor.remaining_bytes() < target {
            let next = g.ctrl.pop_front().or_else(|| {
                let f = g.user.pop_front();
                popped_user |= f.is_some();
                f
            });
            match next {
                // The queue's refcount moves into the cursor; the pending
                // table (if any) keeps the bytes alive for retransmit.
                Some(f) => {
                    if let Some(id) = Frame::peek_payload_id(&f) {
                        staged.push(id);
                    }
                    moved += f.len();
                    cursor.push(f);
                }
                None => break,
            }
        }
        if popped_user {
            self.can_push.notify(&g);
        }
        moved
    }

    /// Frames queued and not yet staged for the wire.
    fn depth(&self) -> usize {
        self.inner
            .lock()
            .map(|g| g.user.len() + g.ctrl.len())
            .unwrap_or(0)
    }

    fn close(&self) {
        if let Ok(mut g) = self.inner.lock() {
            g.closed = true;
            self.can_push.notify(&g);
        }
    }
}

struct LaneCounters {
    msgs: AtomicU64,
    bytes: AtomicU64,
    stalls: AtomicU64,
}

/// A stashed rendezvous payload waiting for the receiver's CTS.
struct RdvMsg {
    chan: ChanKey,
    seq: u64,
    /// Segments the DATA phase will split into (fixed — and the
    /// sequence range reserved — at `send` time, so the stripe decision
    /// cannot drift between RTS and CTS as lanes die).
    segs: usize,
    payload: Vec<u8>,
}

/// A payload frame awaiting the receiver's cumulative-ack watermark
/// (eager frames and rendezvous DATA frames alike).
struct PendingFrame {
    /// This frame's channel sequence number.
    seq: u64,
    /// A refcount on the encoded frame (shared with the send queue and
    /// any retransmit in flight), ready to re-send verbatim.
    buf: FrameBuf,
    /// Re-sends performed so far.
    attempts: u32,
    /// When the next re-send (or the exhaustion verdict) is due.
    next_at: Instant,
    /// First *wire* transmission instant, for ack round-trip
    /// measurement: registration-time until [`Mesh::mark_on_wire`]
    /// re-stamps it as the frame leaves the send queue for its socket.
    first_sent: Instant,
    /// Whether `first_sent` has been re-stamped at wire time.
    on_wire: bool,
    /// The lane this frame was last pushed onto — a retransmit blames
    /// *this* lane's health score (the lane that lost the frame), then
    /// re-routes over the current live set and updates it.
    lane: usize,
}

/// One lane connection between a node pair (keyed `(lo, hi, lane)` with
/// `lo < hi`): the current socket pair and its repair generation.
struct ConnEntry {
    /// Bumped on every successful repair; shared with the connection's
    /// endpoints so a superseded endpoint retires itself, and dedups
    /// break reports.
    gen: Arc<AtomicU64>,
    /// `lo`'s endpoint stream.
    out: TcpStream,
    /// `hi`'s endpoint stream.
    inn: TcpStream,
}

/// A break report from a progress worker to worker 0's repair duty.
struct RepairReq {
    lo: usize,
    hi: usize,
    lane: usize,
    /// The generation the failing endpoint belonged to (stale reports
    /// for an already-repaired connection are dropped).
    gen: u64,
}

/// One direction of one lane connection, as driven by its owning
/// progress worker: the nonblocking stream plus all per-endpoint
/// progress state (resumable write cursor, incremental frame decoder).
struct Endpoint {
    here: usize,
    peer: usize,
    lane: usize,
    /// The repair generation this endpoint belongs to.
    gen: u64,
    /// The connection's live generation; `gen != cur_gen` means a repair
    /// superseded this endpoint and it must retire without touching the
    /// shared send queue again.
    cur_gen: Arc<AtomicU64>,
    stream: TcpStream,
    queue: Arc<SendQueue>,
    /// The reverse direction's queue, whose writer this endpoint's reads
    /// unblock (see [`SendQueue::write_blocked`]).
    reverse: Arc<SendQueue>,
    decoder: FrameDecoder,
    cursor: WriteCursor,
    /// Frames handled since the last owed-ack flush.
    since_flush: u32,
    /// Scratch for the payload-frame identities staged each refill
    /// (reused across passes; emptied after the wire-time RTT stamp).
    staged: Vec<(ChanKey, u64)>,
}

impl Endpoint {
    /// A fresh endpoint for `(here, peer, lane)` at repair generation
    /// `gen`, or `None` if the mesh has no queue for that direction.
    fn new(
        mesh: &Mesh,
        (here, peer, lane): LaneKey,
        gen: u64,
        cur_gen: &Arc<AtomicU64>,
        stream: TcpStream,
    ) -> Option<Endpoint> {
        Some(Endpoint {
            here,
            peer,
            lane,
            gen,
            cur_gen: Arc::clone(cur_gen),
            stream,
            queue: Arc::clone(mesh.queues.get(&(here, peer, lane))?),
            reverse: Arc::clone(mesh.queues.get(&(peer, here, lane))?),
            decoder: FrameDecoder::new(),
            cursor: WriteCursor::new(),
            since_flush: 0,
            staged: Vec::new(),
        })
    }
}

/// Progress-pool plumbing: endpoint ownership, wakeup signals, the
/// repair queue, and the listener worker 0 repairs through.
struct ProgressShared {
    addr: SocketAddr,
    /// The loopback listener; blocking during initial connect, then
    /// nonblocking for worker 0's repair accepts.
    listener: Mutex<TcpListener>,
    /// Break reports awaiting worker 0.
    repair_q: Mutex<VecDeque<RepairReq>>,
    /// Per-worker hand-off of freshly created endpoints (initial
    /// connect, repair).
    inboxes: Vec<Mutex<Vec<Endpoint>>>,
    /// Per-worker wakeup signals.
    signals: Vec<WorkSignal>,
    /// Endpoint owner map: `(here, peer, lane)` → worker index.
    owners: HashMap<LaneKey, usize>,
    /// Resolved pool size.
    pool_size: usize,
    /// Live worker census (incremented on entry, guard-decremented on
    /// exit) — the observable behind the thread-budget tests. `Arc` so
    /// a probe can outlive the fabric and verify `Drop` joined the pool.
    live: Arc<AtomicUsize>,
}

/// Everything shared between `send`/`recv` callers and the progress
/// pool.
struct Mesh {
    topo: Topology,
    cfg: TcpConfig,
    progress: ProgressShared,
    /// Per-node receive stores.
    stores: Vec<Arc<MsgStore>>,
    /// Send queues keyed by `(from_node, to_node, lane)`; fixed at
    /// construction, shared across reconnects.
    queues: HashMap<LaneKey, Arc<SendQueue>>,
    /// Live connections keyed by `(lo, hi, lane)`.
    conns: Mutex<HashMap<LaneKey, ConnEntry>>,
    /// Unacked payload frames, per channel in sequence order (sequence
    /// numbers only grow, so a cumulative ack is a pop-front prefix and
    /// each deque keeps its allocation across the whole run).
    pending: Mutex<HashMap<ChanKey, VecDeque<PendingFrame>>>,
    /// Ack watermarks owed to peers, keyed by the received channel.
    /// Drained either by a worker's batched standalone-ack flush or by
    /// a reverse-direction eager send that piggybacks the watermark.
    acks_owed: Mutex<HashMap<ChanKey, u64>>,
    /// Cheap gate so the eager send path skips the `acks_owed` lock
    /// entirely when nothing is owed (the common case).
    owed_len: AtomicUsize,
    /// Pooled frame buffers shared by every encode on this fabric.
    pool: FramePool,
    /// Round-trip from first transmission to the covering ack.
    ack_rtt: LatencyHist,
    /// Inbound frames discarded on CRC-32C mismatch, summed over every
    /// endpoint's decoder.
    corrupt_frames: AtomicU64,
    /// Retransmits blamed per lane (the lane that lost the frame, not
    /// the lane the retry rides) — one brownout-score input.
    lane_retransmits: Vec<AtomicU64>,
    /// Per-lane ack round-trip histograms — the other brownout input.
    lane_rtt: Vec<LatencyHist>,
    /// Per-lane brownout flags: a browned lane is excluded from lane
    /// selection (gray failure demotion) but its endpoints stay up so
    /// probes — and restoration — remain possible.
    browned: Vec<AtomicBool>,
    /// Nanoseconds (since `started`) each lane was last demoted; a
    /// frame heard on the lane *after* this instant is the recovery
    /// evidence that restores it.
    browned_since: Vec<AtomicU64>,
    /// Nanoseconds (since `started`) a frame was last decoded on each
    /// lane, in either direction; 0 = never.
    lane_heard: Vec<AtomicU64>,
    /// Failures recorded by progress workers, drained by the runtime.
    errors: Mutex<Vec<FabricError>>,
    /// Per-lane kill flags; a killed lane is never repaired.
    killed: Vec<AtomicBool>,
    shutdown: AtomicBool,
    /// Frame-level fault stream, when a chaos wrapper installed one.
    chaos: Mutex<Option<Arc<WireChaos>>>,
    /// Lock-free "is chaos installed?" gate: the send path, every
    /// control-frame push and the ack flush consult chaos, and taking
    /// the mutex just to find `None` measurably serialized concurrent
    /// lane workers on the no-fault hot path.
    chaos_installed: AtomicBool,
    /// Next send sequence per channel.
    seqs: Mutex<HashMap<ChanKey, u64>>,
    /// Rendezvous payloads stashed until the receiver grants CTS.
    rdv_stash: Mutex<HashMap<u64, RdvMsg>>,
    next_rdv: AtomicU64,
    retransmits: AtomicU64,
    /// Messages the stripe policy split into per-lane segments.
    striped_msgs: AtomicU64,
    lane_ctrs: Vec<LaneCounters>,
    local_msgs: AtomicU64,
    local_bytes: AtomicU64,
    /// Construction instant; `last_activity` is nanoseconds since this.
    started: Instant,
    /// Nanoseconds (since `started`) of the last frame crossing the wire
    /// in either direction; 0 = never.
    last_activity: AtomicU64,
    /// Nanoseconds (since `started`) node `a` last heard *anything* from
    /// node `b`, flattened `a * nodes + b`; 0 = never (treated as
    /// construction time, since the heartbeat sideband starts at once).
    last_heard: Vec<AtomicU64>,
    /// Nanoseconds node `a` last sent anything to node `b` (same
    /// layout). The send path refreshes this, which is what makes busy
    /// pairs' liveness ride piggyback — the heartbeat duty only emits
    /// a standalone beat when this goes stale.
    last_sent: Vec<AtomicU64>,
    /// Directed suspicion flags (`a` suspects `b`), same layout. Set by
    /// the heartbeat duty past the miss budget, cleared by any frame
    /// arrival from `b`.
    hb_suspected: Vec<AtomicBool>,
    /// Test hook: a muted node's standalone beats are suppressed, so its
    /// peers' suspicion machinery can be exercised without killing real
    /// rank threads.
    muted: Vec<AtomicBool>,
    /// Ranks with a retransmit-exhaustion death verdict:
    /// rank → (last unacked seq, attempts).
    dead_peers: Mutex<HashMap<usize, (u64, u32)>>,
}

impl Mesh {
    fn touch(&self) {
        self.touch_at(self.now_nanos());
    }

    fn touch_at(&self, nanos: u64) {
        self.last_activity.store(nanos, Ordering::Relaxed);
    }

    fn now_nanos(&self) -> u64 {
        (self.started.elapsed().as_nanos() as u64).max(1)
    }

    /// The installed chaos stream, without touching the mutex in the
    /// common uninstalled case.
    fn chaos(&self) -> Option<Arc<WireChaos>> {
        if !self.chaos_installed.load(Ordering::Acquire) {
            return None;
        }
        self.chaos.lock().ok().and_then(|g| g.clone())
    }

    fn pair(&self, a: usize, b: usize) -> usize {
        a * self.topo.nodes() + b
    }

    /// Wake the worker that owns endpoint `(from, to, lane)` — its send
    /// queue or its socket just gained work.
    fn notify_owner(&self, from: usize, to: usize, lane: usize) {
        if let Some(&w) = self.progress.owners.get(&(from, to, lane)) {
            self.progress.signals[w].notify();
        }
    }

    /// Push a control frame onto `(from, to, lane)`'s queue and wake the
    /// owning worker. Returns `false` if the queue is missing/poisoned.
    ///
    /// This is the single choke point every control path funnels
    /// through — acks, CTS/DATA replies, retransmits, heartbeats — so a
    /// chaos link fault or partition is consulted *here*: a partition
    /// that spared retransmits or heartbeats would not be a partition.
    /// A cut frame is swallowed (counted, not errored), exactly like a
    /// wire that ate it.
    fn push_ctrl_to(&self, from: usize, to: usize, lane: usize, buf: FrameBuf) -> bool {
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
                    self.notify_owner(from, to, lane);
                }
                ok
            }
            None => false,
        }
    }

    /// Node `here` heard a frame from node `peer`: refresh the beat and
    /// retract any suspicion — arrival is proof of life, which is what
    /// resolves a symmetric false-suspicion partition (both sides keep
    /// beating, both sides clear).
    /// A frame arrived from `peer` — proof of life. The clock read is
    /// hoisted to the caller: the frame decode loop stamps activity,
    /// peer liveness and lane liveness from ONE `Instant::now()` per
    /// frame (clock reads are tens to hundreds of ns on virtualized
    /// hosts, and three per frame showed up on the 64B message-rate
    /// sweep).
    fn note_heard_at(&self, here: usize, peer: usize, nanos: u64) {
        let idx = self.pair(here, peer);
        self.last_heard[idx].store(nanos, Ordering::Relaxed);
        self.hb_suspected[idx].store(false, Ordering::Relaxed);
    }

    fn note_sent(&self, here: usize, peer: usize) {
        self.last_sent[self.pair(here, peer)].store(self.now_nanos(), Ordering::Relaxed);
    }

    /// A frame was decoded on `lane` — the arrival evidence the
    /// brownout duty's restore check reads. Caller supplies the
    /// timestamp (see [`Mesh::note_heard_at`]).
    fn note_lane_heard_at(&self, lane: usize, nanos: u64) {
        if let Some(a) = self.lane_heard.get(lane) {
            a.store(nanos, Ordering::Relaxed);
        }
    }

    /// Whether `lane` should carry fresh traffic: neither killed nor
    /// brownout-demoted.
    fn lane_usable(&self, lane: usize) -> bool {
        !self.killed[lane].load(Ordering::Relaxed) && !self.browned[lane].load(Ordering::Relaxed)
    }

    /// Lanes currently demoted by the brownout duty (killed lanes are
    /// reported as dead, not browned, even if they browned first).
    fn browned_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| {
                self.browned[l].load(Ordering::Relaxed) && !self.killed[l].load(Ordering::Relaxed)
            })
            .collect()
    }

    /// Record a retransmit-exhaustion death verdict against `peer`.
    fn record_dead_peer(&self, peer: usize, last_seq: u64, attempts: u32) {
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
    fn suspects_for(&self, chan: ChanKey) -> Vec<usize> {
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

    fn record(&self, e: FabricError) {
        if let Ok(mut g) = self.errors.lock() {
            g.push(e);
        }
    }

    fn dead_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| self.killed[l].load(Ordering::Relaxed))
            .collect()
    }

    fn alive_lanes(&self) -> Vec<usize> {
        (0..self.cfg.lanes)
            .filter(|&l| !self.killed[l].load(Ordering::Relaxed))
            .collect()
    }

    /// The lane a sending rank nominally stripes onto with every lane
    /// alive — what a failure diagnostic names when none survive.
    fn nominal_lane(&self, src: usize) -> usize {
        self.topo.local_of(src) % self.cfg.lanes
    }

    /// The lane a sending rank's traffic is striped onto right now: its
    /// local id modulo the *surviving* lanes, so killed lanes degrade
    /// onto the rest. `None` only if every lane is dead. Allocation-free
    /// — this sits on the eager send path.
    fn effective_lane(&self, src: usize) -> Option<usize> {
        self.seg_lane(src, 0)
    }

    /// [`Mesh::effective_lane`] with the no-survivors case as the typed
    /// error — the single helper both the send path and the retransmit
    /// duty report through. (Each used to derive the fallback lane on
    /// its own, so once lanes had died their diagnostics disagreed
    /// about which lane was at fault.)
    fn effective_lane_or_dead(
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

    /// The lane for segment `i` of a striped message from `src`: the
    /// sender's stripe rotated round-robin over the *usable* lanes —
    /// neither killed nor brownout-demoted — so a browned lane sheds
    /// fresh traffic exactly like a dead one (segment 0 is exactly
    /// [`Mesh::effective_lane`], so an unstriped message is the `i == 0`
    /// case). If every survivor is browned the stripe falls back to the
    /// merely-alive set: degraded delivery beats none. Allocation-free —
    /// this sits on the eager send path.
    fn seg_lane(&self, src: usize, i: usize) -> Option<usize> {
        let usable = |l: &usize| self.lane_usable(*l);
        let count = (0..self.cfg.lanes).filter(usable).count();
        if count == self.cfg.lanes {
            // No lane killed or browned — the no-fault common case:
            // plain modulo, no filtered re-scan.
            return Some((self.topo.local_of(src) + i) % count);
        }
        if count > 0 {
            return (0..self.cfg.lanes)
                .filter(usable)
                .nth((self.topo.local_of(src) + i) % count);
        }
        let alive = |l: &usize| !self.killed[*l].load(Ordering::Relaxed);
        let count = (0..self.cfg.lanes).filter(alive).count();
        if count == 0 {
            return None;
        }
        (0..self.cfg.lanes)
            .filter(alive)
            .nth((self.topo.local_of(src) + i) % count)
    }

    /// How many segments the lane policy splits a `len`-byte payload
    /// into: 1 under [`LanePolicy::Modulo`], below
    /// [`TcpConfig::stripe_min`], or with fewer than two surviving
    /// lanes; otherwise one segment per surviving lane, renormalized so
    /// every segment is non-empty and the count fits the u16 wire
    /// field.
    fn plan_segments(&self, len: usize) -> usize {
        if self.cfg.lane_policy != LanePolicy::Stripe || len < self.cfg.stripe_min.max(1) {
            return 1;
        }
        // Stripe over the lanes fresh traffic can actually use (the
        // same set `seg_lane` routes over): a browned lane must not
        // inflate the segment count it will never carry.
        let usable = (0..self.cfg.lanes).filter(|&l| self.lane_usable(l)).count();
        let routable = if usable > 0 {
            usable
        } else {
            (0..self.cfg.lanes)
                .filter(|&l| !self.killed[l].load(Ordering::Relaxed))
                .count()
        };
        if routable < 2 {
            return 1;
        }
        let want = routable.min(usize::from(u16::MAX));
        // Recompute through the chunk size so exactly this many
        // non-empty chunks come out even when `len` barely clears the
        // threshold.
        let seg_len = len.div_ceil(want).max(1);
        len.div_ceil(seg_len).max(1)
    }

    /// Apply a cumulative ack on `chan`: every pending frame below
    /// `watermark` (the receiver's next-expected sequence) is delivered,
    /// so drop the whole prefix from the retransmit queue. First
    /// transmissions feed the ack round-trip histogram; retransmitted
    /// frames do not (their covering ack is ambiguous).
    fn apply_ack(&self, chan: ChanKey, watermark: u64) {
        let now = Instant::now();
        let Ok(mut pending) = self.pending.lock() else {
            return;
        };
        let Some(q) = pending.get_mut(&chan) else {
            return;
        };
        while q.front().is_some_and(|p| p.seq < watermark) {
            let p = q.pop_front().expect("front just checked");
            if p.attempts == 0 {
                let rtt = now.saturating_duration_since(p.first_sent);
                self.ack_rtt.record(rtt);
                // The same sample attributed to the lane that carried
                // the frame — the brownout duty's RTT input.
                if let Some(h) = self.lane_rtt.get(p.lane) {
                    h.record(rtt);
                }
            }
        }
    }

    /// Register a payload frame (eager or rendezvous DATA) for
    /// retransmit protection and ack round-trip measurement. The deque
    /// stays sequence-sorted: eager frames append (the common case hits
    /// the `rposition` fast path on the last element), while a
    /// rendezvous DATA frame — whose CTS returns after later eager
    /// sequences were already registered — inserts at its ordered slot,
    /// keeping `apply_ack`'s prefix-pop and the head-of-queue retransmit
    /// scan correct.
    fn register_pending(&self, chan: ChanKey, seq: u64, buf: FrameBuf, lane: usize) {
        let now = Instant::now();
        let Ok(mut pending) = self.pending.lock() else {
            return;
        };
        let q = pending.entry(chan).or_default();
        let pos = q
            .iter()
            .rposition(|p| p.seq < seq)
            .map(|i| i + 1)
            .unwrap_or(0);
        q.insert(
            pos,
            PendingFrame {
                seq,
                buf,
                attempts: 0,
                next_at: now + self.cfg.rto,
                first_sent: now,
                on_wire: false,
                lane,
            },
        );
    }

    /// Re-stamp `first_sent` for frames a worker just staged onto their
    /// socket, so ack RTT measures the *wire* round trip. Stamping at
    /// registration instead would fold in time spent queued behind the
    /// lane's own backlog — which grows with the number of lanes and
    /// drowns the transport signal the ramp gates watch.
    fn mark_on_wire(&self, staged: &[(ChanKey, u64)], now: Instant) {
        let Ok(mut pending) = self.pending.lock() else {
            return;
        };
        for &(chan, seq) in staged {
            let Some(q) = pending.get_mut(&chan) else {
                continue;
            };
            // The deque is sequence-sorted (see `register_pending`).
            let Ok(i) = q.binary_search_by_key(&seq, |p| p.seq) else {
                continue;
            };
            let p = &mut q[i];
            // Only the first staging counts; a chaos-duplicated or
            // retransmitted copy must not shrink the measured RTT.
            if !p.on_wire {
                p.on_wire = true;
                p.first_sent = now;
            }
        }
    }

    /// Note that `chan`'s receiver owes its sender a cumulative ack up
    /// to `watermark`. Watermarks only rise; `owed_len` lets the send
    /// path and the workers' flush skip the lock when nothing is owed.
    fn note_owed(&self, chan: ChanKey, watermark: u64) {
        if watermark == 0 {
            // Nothing contiguous delivered yet (an out-of-order frame is
            // merely held) — an ack would carry no information.
            return;
        }
        let Ok(mut owed) = self.acks_owed.lock() else {
            return;
        };
        let e = owed.entry(chan).or_insert(0);
        if watermark > *e {
            *e = watermark;
        }
        self.owed_len.store(owed.len(), Ordering::Relaxed);
    }

    /// Flush every owed cumulative ack as a standalone ACK control
    /// frame. Called by workers when an inbound socket goes quiet (or
    /// every 32 frames under sustained load), so a stream of n eager
    /// frames costs far fewer than n control replies. Gated by
    /// `owed_len`, so the idle case is one relaxed atomic load.
    fn flush_owed_acks(&self) {
        if self.owed_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let drained: Vec<(ChanKey, u64)> = {
            let Ok(mut owed) = self.acks_owed.lock() else {
                return;
            };
            self.owed_len.store(0, Ordering::Relaxed);
            owed.drain().collect()
        };
        let chaos = self.chaos();
        for (chan, wm) in drained {
            let from = self.topo.node_of(chan.1);
            let to = self.topo.node_of(chan.0);
            if chaos.as_ref().is_some_and(|c| c.ack_fate_for(from, to)) {
                // Ack eaten by the wire (probabilistically, or by a cut
                // edge): the sender retransmits, the receiver dedups,
                // and the duplicate's re-raised watermark is re-owed —
                // nothing wedges.
                continue;
            }
            let Some(lane) = self.effective_lane(chan.1) else {
                continue;
            };
            let ack = Frame {
                kind: FrameKind::Ack,
                src: chan.0 as u32,
                dst: chan.1 as u32,
                tag: chan.2,
                seq: wm,
                aux: 0,
                seg_idx: 0,
                seg_count: 0,
                payload: Vec::new(),
            };
            if !self.push_ctrl_to(from, to, lane, self.pool.encode(&ack)) {
                self.record(FabricError::QueuePoisoned {
                    what: "control send queue",
                });
            }
        }
    }

    /// Process one decoded frame arriving at node `here` from `peer` on
    /// `lane`. Never panics: anything unexpected is recorded and the
    /// worker keeps going.
    fn handle_frame(&self, here: usize, peer: usize, lane: usize, frame: Frame, wakes: &mut Wakes) {
        match frame.kind {
            // Rendezvous DATA participates in the cumulative-ack protocol
            // exactly like an eager frame: the raised watermark retires
            // the sender's pending entry and feeds the ack-RTT histogram.
            FrameKind::Eager | FrameKind::Data => {
                // A piggybacked cumulative ack for the reverse channel
                // rides in an eager frame's `aux` (watermark + 1; 0 =
                // none aboard); a DATA frame's `aux` is its rendezvous id.
                if frame.kind == FrameKind::Eager && frame.aux > 0 {
                    let rev = (frame.dst as usize, frame.src as usize, frame.tag);
                    self.apply_ack(rev, frame.aux - 1);
                }
                // Record the owed ack even when dedup drops the frame:
                // the previous ack may be the thing that was lost, and
                // the duplicate's watermark re-covers it.
                let chan = frame.chan();
                let (_, watermark) = self.stores[here].deliver_deferred(
                    chan,
                    frame.seq,
                    frame.seg_idx,
                    frame.seg_count,
                    frame.payload,
                    wakes,
                );
                self.note_owed(chan, watermark);
            }
            FrameKind::Rts => {
                // Grant immediately: the store reorders, so there is
                // nothing to reserve here.
                let cts = Frame {
                    kind: FrameKind::Cts,
                    payload: Vec::new(),
                    ..frame
                };
                self.push_ctrl_to(here, peer, lane, self.pool.encode(&cts));
            }
            FrameKind::Cts => {
                let msg = match self.rdv_stash.lock() {
                    Ok(mut g) => g.remove(&frame.aux),
                    Err(_) => {
                        self.record(FabricError::QueuePoisoned {
                            what: "rendezvous stash",
                        });
                        return;
                    }
                };
                // One bad control frame must not kill the lane: record
                // it and keep decoding.
                let Some(msg) = msg else {
                    self.record(FabricError::MalformedFrame {
                        lane,
                        detail: format!(
                            "CTS from node {peer} names unknown rendezvous transfer {}",
                            frame.aux
                        ),
                        expected_version: None,
                        got: None,
                    });
                    return;
                };
                // The DATA phase honours the segment plan fixed at send
                // time: `segs` frames on consecutive sequences, each an
                // ordinary acked/retransmittable frame. Explicit ranges
                // (not `chunks`) so even a degenerate plan still emits
                // exactly `segs` frames.
                let total = msg.payload.len();
                let segs = msg.segs.max(1);
                let seg_len = total.div_ceil(segs).max(1);
                for i in 0..segs {
                    let lo = (i * seg_len).min(total);
                    let hi = ((i + 1) * seg_len).min(total);
                    let data = Frame {
                        kind: FrameKind::Data,
                        src: msg.chan.0 as u32,
                        dst: msg.chan.1 as u32,
                        tag: msg.chan.2,
                        seq: msg.seq + i as u64,
                        aux: frame.aux,
                        seg_idx: i as u16,
                        seg_count: if segs > 1 { segs as u16 } else { 0 },
                        payload: Vec::new(),
                    };
                    let buf = self.pool.encode_seg(&data, &msg.payload[lo..hi]);
                    // Striped DATA scatters like striped eager; a single
                    // DATA keeps the CTS arrival lane.
                    let data_lane = if segs > 1 {
                        self.seg_lane(msg.chan.0, i).unwrap_or(lane)
                    } else {
                        lane
                    };
                    // Retransmit-protect the DATA before it can be lost
                    // — this is what makes a rendezvous transfer ack'd,
                    // measured, and recoverable.
                    self.register_pending(msg.chan, msg.seq + i as u64, buf.clone(), data_lane);
                    self.push_ctrl_to(here, peer, data_lane, buf);
                }
            }
            FrameKind::Ack => {
                // `seq` is the receiver's next-expected watermark.
                self.apply_ack(frame.chan(), frame.seq);
            }
            FrameKind::Heartbeat => {
                // Nothing to do: the worker already counted the arrival
                // as a beat (any frame kind does).
            }
        }
    }
}

// ---------------------------------------------------------------------
// Progress pool: worker loop, endpoint stepping, and worker-0 duties.
// ---------------------------------------------------------------------

/// Queue a break report for worker 0's repair duty — unless the socket
/// broke because of shutdown or a deliberate lane kill, which are not
/// repairable.
fn report_break(mesh: &Mesh, ep: &Endpoint) {
    if mesh.shutdown.load(Ordering::Relaxed) || mesh.killed[ep.lane].load(Ordering::Relaxed) {
        return;
    }
    let (lo, hi) = if ep.here < ep.peer {
        (ep.here, ep.peer)
    } else {
        (ep.peer, ep.here)
    };
    if let Ok(mut q) = mesh.progress.repair_q.lock() {
        q.push_back(RepairReq {
            lo,
            hi,
            lane: ep.lane,
            gen: ep.gen,
        });
    }
    mesh.progress.signals[0].notify();
}

/// One nonblocking progress pass over one endpoint: stage queued frames
/// into the cursor, `write_vectored` them out, then drain the socket
/// through the decoder and dispatch every complete frame. Returns
/// `(keep, progressed)` — `keep == false` retires the endpoint (its
/// break, if unexpected, has been reported).
fn endpoint_step(mesh: &Mesh, ep: &mut Endpoint, stage: usize, scratch: &mut [u8]) -> (bool, bool) {
    let mut progressed = false;

    // WRITE: refill the cursor (up to this endpoint's share of the
    // worker's cycle budget), then push as much as the socket takes.
    if ep.cursor.remaining_bytes() < stage
        && ep.queue.pop_into(&mut ep.cursor, stage, &mut ep.staged) > 0
    {
        progressed = true;
    }
    if !ep.staged.is_empty() {
        // The RTT clock starts here — when the frame leaves its queue
        // for the socket — not at registration (see `mark_on_wire`).
        mesh.mark_on_wire(&ep.staged, Instant::now());
        ep.staged.clear();
    }
    let mut wrote = false;
    while !ep.cursor.is_empty() {
        let slices = ep.cursor.io_slices(MAX_IOV);
        match ep.stream.write_vectored(&slices) {
            Ok(0) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
            Ok(n) => {
                ep.cursor.advance(n);
                wrote = true;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Ask the socket's reader for a wake-up when it drains
                // bytes, then retry once: a drain that raced the flag
                // would otherwise go unnoticed until the park cap.
                if !ep.queue.write_blocked.swap(true, Ordering::SeqCst) {
                    continue;
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
        }
    }
    if ep.cursor.is_empty() && ep.queue.write_blocked.load(Ordering::Relaxed) {
        ep.queue.write_blocked.store(false, Ordering::Relaxed);
    }
    if wrote {
        mesh.touch();
        // The endpoint that *reads* what we just wrote is the reverse
        // direction of this connection — all nodes share this process,
        // so poke its owner instead of waiting out a park timeout.
        mesh.notify_owner(ep.peer, ep.here, ep.lane);
    }

    // READ: drain the socket (bounded per pass for fairness), decode,
    // dispatch.
    let mut reads = 0usize;
    // Receiver wake-ups owed by this read's deliveries, paid once the
    // read's frames are all in.
    let mut wakes = Wakes::default();
    let store = &mesh.stores[ep.here];
    loop {
        match ep.stream.read(scratch) {
            Ok(0) => {
                // Peer closed — a break or shutdown.
                report_break(mesh, ep);
                return (false, progressed);
            }
            Ok(n) => {
                progressed = true;
                ep.decoder.feed(&scratch[..n]);
                loop {
                    match ep.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            // Any frame is proof of life for the peer —
                            // and for its lane (brownout restore). One
                            // clock read stamps all three signals.
                            let nanos = mesh.now_nanos();
                            mesh.touch_at(nanos);
                            mesh.note_heard_at(ep.here, ep.peer, nanos);
                            mesh.note_lane_heard_at(ep.lane, nanos);
                            mesh.handle_frame(ep.here, ep.peer, ep.lane, frame, &mut wakes);
                            ep.since_flush += 1;
                            // Batch acks: every 32 frames under sustained
                            // load (the quiet-socket flush is below).
                            if ep.since_flush >= 32 {
                                mesh.flush_owed_acks();
                                ep.since_flush = 0;
                            }
                        }
                        Ok(None) => {
                            store.wake(&mut wakes);
                            break;
                        }
                        Err(e) => {
                            // A garbled header cannot be resynced on a
                            // byte stream; reconnect instead. (Checksum
                            // failures never land here — the decoder
                            // skips and counts them silently.)
                            let skipped = ep.decoder.take_corrupt();
                            if skipped > 0 {
                                mesh.corrupt_frames.fetch_add(skipped, Ordering::Relaxed);
                            }
                            if !mesh.shutdown.load(Ordering::Relaxed)
                                && !mesh.killed[ep.lane].load(Ordering::Relaxed)
                            {
                                let (expected_version, got) = match e {
                                    WireError::Version { expected, got } => {
                                        (Some(expected), Some(got))
                                    }
                                    _ => (None, None),
                                };
                                mesh.record(FabricError::MalformedFrame {
                                    lane: ep.lane,
                                    detail: format!("unreadable frame from node {}: {e}", ep.peer),
                                    expected_version,
                                    got,
                                });
                            }
                            store.wake(&mut wakes);
                            report_break(mesh, ep);
                            return (false, progressed);
                        }
                    }
                }
                // Fold any checksum-dropped frames into the fabric-wide
                // counter; their payloads come back via retransmit.
                let skipped = ep.decoder.take_corrupt();
                if skipped > 0 {
                    mesh.corrupt_frames.fetch_add(skipped, Ordering::Relaxed);
                }
                reads += 1;
                if reads >= MAX_READS_PER_PASS {
                    // Yield to sibling endpoints; leftover bytes are
                    // picked up next pass (we made progress, so the
                    // worker loops straight back around).
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Socket gone quiet: flush the acks batched above.
                if ep.since_flush > 0 {
                    mesh.flush_owed_acks();
                    ep.since_flush = 0;
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
        }
    }
    if reads > 0 && ep.reverse.write_blocked.load(Ordering::SeqCst) {
        // The reverse endpoint writes into the socket we just drained.
        mesh.notify_owner(ep.peer, ep.here, ep.lane);
    }
    (true, progressed)
}

/// Worker 0's retransmit duty: one scan re-sending unacked frames with
/// exponential backoff + jitter, converting an exhausted budget into a
/// typed [`FabricError::PeerDead`].
fn retransmit_pass(mesh: &Mesh, rng: &mut ChaosRng) {
    let now = Instant::now();
    let mut due: Vec<(ChanKey, usize, FrameBuf)> = Vec::new();
    {
        let Ok(mut pending) = mesh.pending.lock() else {
            mesh.record(FabricError::QueuePoisoned {
                what: "retransmit table",
            });
            return;
        };
        for (&chan, q) in pending.iter_mut() {
            // Only the channel's *head* frame can be the gap the
            // receiver is stuck on — later unacked frames are usually
            // delivered and merely held behind it, so re-sending them
            // would only feed the dedup counter.
            let Some(p) = q.front_mut() else {
                continue;
            };
            if now < p.next_at {
                continue;
            }
            if p.attempts >= mesh.cfg.max_retransmits {
                // The strongest local death verdict the transport can
                // reach: the whole retransmit budget spent with no ack.
                let p = q.pop_front().expect("head just checked");
                mesh.record_dead_peer(chan.1, p.seq, p.attempts);
                mesh.record(FabricError::PeerDead {
                    peer: chan.1,
                    last_seq: p.seq,
                    attempts: p.attempts,
                });
                continue;
            }
            p.attempts += 1;
            let backoff = mesh.cfg.rto * 2u32.saturating_pow(p.attempts).min(64);
            let jittered = backoff.mul_f64(0.75 + 0.5 * rng.unit());
            p.next_at = now + jittered.min(Duration::from_secs(1));
            // Count the attempt *here*, before the frame can reach the
            // wire: once it is pushed the receiver may deliver it and a
            // caller may observe the recovery, so counting after the
            // push makes `stats().retransmits` lag what the fabric
            // demonstrably did (a real test flake).
            mesh.retransmits.fetch_add(1, Ordering::Relaxed);
            // Blame the lane that *lost* the frame (where it last rode)
            // — the brownout health score — then re-route via the
            // current usable-lane stripe, so frames lost on a killed or
            // browned lane migrate to the healthy survivors.
            if let Some(ctr) = mesh.lane_retransmits.get(p.lane) {
                ctr.fetch_add(1, Ordering::Relaxed);
            }
            match mesh.effective_lane(chan.0) {
                Some(lane) => {
                    p.lane = lane;
                    // A refcount on the pooled bytes, not a copy.
                    due.push((chan, lane, p.buf.clone()));
                }
                None => {
                    let seq = p.seq;
                    mesh.record(FabricError::LaneDead {
                        lane: mesh.nominal_lane(chan.0),
                        detail: format!(
                            "no surviving lane to retransmit {} -> {} tag {} seq {seq}",
                            chan.0, chan.1, chan.2
                        ),
                    });
                }
            }
        }
    }
    for (chan, lane, buf) in due {
        let from = mesh.topo.node_of(chan.0);
        let to = mesh.topo.node_of(chan.1);
        mesh.push_ctrl_to(from, to, lane, buf);
    }
}

/// Worker 0's heartbeat duty: one tick of the liveness sideband. Emits
/// a standalone beat for each directed node pair whose outbound traffic
/// has gone quiet for a full interval — busy pairs never see one, their
/// regular frames *are* the beats — and promotes pairs silent past the
/// miss budget to suspected. Suspicion is node-granular and advisory:
/// the runtime's agreement protocol decides which *ranks* are dead.
fn heartbeat_pass(mesh: &Mesh) {
    let interval = mesh.cfg.heartbeat;
    let budget = interval * mesh.cfg.heartbeat_misses.max(1);
    let nodes = mesh.topo.nodes();
    let now = mesh.now_nanos();
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            let idx = mesh.pair(a, b);
            // Promote silence past the budget to suspicion. An unheard
            // pair (0) is aged from construction.
            let heard = mesh.last_heard[idx].load(Ordering::Relaxed);
            if Duration::from_nanos(now.saturating_sub(heard)) > budget {
                mesh.hb_suspected[idx].store(true, Ordering::Relaxed);
            }
            // Emit a's beat towards b when a→b has been quiet.
            if mesh.muted[a].load(Ordering::Relaxed) {
                continue;
            }
            let sent = mesh.last_sent[idx].load(Ordering::Relaxed);
            if Duration::from_nanos(now.saturating_sub(sent)) < interval {
                continue;
            }
            // Beat over a healthy lane when one exists; a browned lane
            // only carries beats when nothing better survives.
            let Some(lane) = (0..mesh.cfg.lanes)
                .find(|&l| mesh.lane_usable(l))
                .or_else(|| mesh.alive_lanes().first().copied())
            else {
                continue;
            };
            let beat = Frame {
                kind: FrameKind::Heartbeat,
                src: mesh.topo.rank_of(a, 0) as u32,
                dst: mesh.topo.rank_of(b, 0) as u32,
                tag: 0,
                seq: 0,
                aux: 0,
                seg_idx: 0,
                seg_count: 0,
                payload: Vec::new(),
            };
            if mesh.push_ctrl_to(a, b, lane, mesh.pool.encode(&beat)) {
                mesh.note_sent(a, b);
            }
        }
    }
}

/// Worker 0's brownout duty: one evaluation window of the gray-failure
/// detector. Per lane, the health score is the retransmit delta blamed
/// on it this window plus its cumulative ack-RTT p99; an over-threshold
/// lane is *demoted* — excluded from fresh lane selection via the
/// usable-lane filter, reported in [`FabricHealth::browned_lanes`] —
/// but its endpoints stay up. Each window a demoted lane gets a probe
/// heartbeat; the first frame heard on the lane after demotion is the
/// recovery evidence that restores it (and wipes its RTT history, so
/// stale degradation cannot immediately re-demote). Demotion never
/// takes the last usable lane: with nothing healthy left, degraded
/// delivery beats none — that escalation belongs to the fail-stop
/// machinery, not brownout.
fn brownout_pass(mesh: &Mesh, prev: &mut [u64]) {
    let nodes = mesh.topo.nodes();
    let chaos = mesh.chaos();
    for (lane, prev_rtx) in prev.iter_mut().enumerate().take(mesh.cfg.lanes) {
        if mesh.killed[lane].load(Ordering::Relaxed) {
            continue;
        }
        let total = mesh.lane_retransmits[lane].load(Ordering::Relaxed);
        let delta = total.saturating_sub(*prev_rtx);
        *prev_rtx = total;
        if mesh.browned[lane].load(Ordering::Relaxed) {
            let heard = mesh.lane_heard[lane].load(Ordering::Relaxed);
            let since = mesh.browned_since[lane].load(Ordering::Relaxed);
            if heard > since {
                // A frame crossed the lane after demotion: the gray
                // failure lifted. Restore it and forget the degraded
                // RTT samples.
                mesh.browned[lane].store(false, Ordering::Relaxed);
                mesh.lane_rtt[lane].clear();
                continue;
            }
            // Probe: a heartbeat pushed over the browned lane itself
            // (regular traffic avoids it, so nothing else would ever
            // cross it again). The probe rolls the same chaos fate as
            // data — a still-degraded lane eats it and the lane stays
            // demoted.
            if nodes >= 2 {
                let fate = chaos
                    .as_ref()
                    .map_or(FrameFate::Deliver, |c| c.fate_for(0, 1, lane));
                if fate != FrameFate::Drop {
                    let beat = Frame {
                        kind: FrameKind::Heartbeat,
                        src: mesh.topo.rank_of(0, 0) as u32,
                        dst: mesh.topo.rank_of(1, 0) as u32,
                        tag: 0,
                        seq: 0,
                        aux: 0,
                        seg_idx: 0,
                        seg_count: 0,
                        payload: Vec::new(),
                    };
                    mesh.push_ctrl_to(0, 1, lane, mesh.pool.encode(&beat));
                }
            }
            continue;
        }
        let p99_over = mesh.cfg.brownout_p99_ms > 0
            && mesh.lane_rtt[lane]
                .snapshot()
                .p99_us
                .is_some_and(|p99| p99 >= mesh.cfg.brownout_p99_ms.saturating_mul(1000));
        if delta >= mesh.cfg.brownout_retransmits.max(1) || p99_over {
            let usable_others = (0..mesh.cfg.lanes)
                .filter(|&l| l != lane && mesh.lane_usable(l))
                .count();
            if usable_others >= 1 {
                mesh.browned_since[lane].store(mesh.now_nanos(), Ordering::Relaxed);
                mesh.browned[lane].store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Hand a fresh endpoint to its owning worker.
fn deliver_endpoint(mesh: &Mesh, ep: Endpoint) {
    let Some(&w) = mesh.progress.owners.get(&(ep.here, ep.peer, ep.lane)) else {
        return;
    };
    if let Ok(mut inbox) = mesh.progress.inboxes[w].lock() {
        inbox.push(ep);
    }
    mesh.progress.signals[w].notify();
}

/// Establish one fresh loopback connection pair through the (now
/// nonblocking) listener — we are both sides, so worker 0 connects and
/// accepts itself. Returns nodelay'd, nonblocking streams.
fn reconnect_nb(mesh: &Mesh) -> io::Result<(TcpStream, TcpStream)> {
    let listener = mesh
        .progress
        .listener
        .lock()
        .map_err(|_| io::Error::other("listener mutex poisoned"))?;
    let out = TcpStream::connect(mesh.progress.addr)?;
    let deadline = Instant::now() + Duration::from_secs(1);
    let inn = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "loopback accept timed out during repair",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    out.set_nodelay(true)?;
    inn.set_nodelay(true)?;
    out.set_nonblocking(true)?;
    inn.set_nonblocking(true)?;
    Ok((out, inn))
}

/// Repair one reported break: dedup by generation, sever the old
/// sockets, reconnect, and hand fresh endpoints to their owners. On
/// failure the lane is marked dead (unless it is the last survivor) so
/// fresh traffic stops routing onto it.
fn repair_one(mesh: &Mesh, req: RepairReq) {
    if mesh.shutdown.load(Ordering::Relaxed) || mesh.killed[req.lane].load(Ordering::Relaxed) {
        return;
    }
    let Ok(mut conns) = mesh.conns.lock() else {
        return;
    };
    let key = (req.lo, req.hi, req.lane);
    let Some(entry) = conns.get_mut(&key) else {
        return;
    };
    if entry.gen.load(Ordering::Relaxed) != req.gen {
        return; // already repaired
    }
    // Make both old endpoints notice, wherever they are in their step.
    let _ = entry.out.shutdown(Shutdown::Both);
    let _ = entry.inn.shutdown(Shutdown::Both);
    match reconnect_nb(mesh) {
        Ok((out, inn)) => match (out.try_clone(), inn.try_clone()) {
            (Ok(lo_stream), Ok(hi_stream)) => {
                // Bumping the generation retires the superseded
                // endpoints before their replacements can race them for
                // queued frames.
                let new_gen = entry.gen.fetch_add(1, Ordering::Relaxed) + 1;
                entry.out = out;
                entry.inn = inn;
                for (here, peer, stream) in
                    [(req.lo, req.hi, lo_stream), (req.hi, req.lo, hi_stream)]
                {
                    let Some(ep) =
                        Endpoint::new(mesh, (here, peer, req.lane), new_gen, &entry.gen, stream)
                    else {
                        continue;
                    };
                    deliver_endpoint(mesh, ep);
                }
            }
            _ => mesh.record(FabricError::LaneDead {
                lane: req.lane,
                detail: "could not clone repaired streams for endpoints".into(),
            }),
        },
        Err(e) => {
            mesh.record(FabricError::LaneDead {
                lane: req.lane,
                detail: format!(
                    "reconnect between nodes {} and {} failed: {e}",
                    req.lo, req.hi
                ),
            });
            // Stop routing fresh traffic onto a lane we cannot repair —
            // unless it is the last survivor.
            if mesh.alive_lanes().len() > 1 {
                mesh.killed[req.lane].store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Worker 0's repair duty: drain and process the break-report queue.
/// Returns whether anything was repaired (progress).
fn repair_pass(mesh: &Mesh) -> bool {
    let reqs: Vec<RepairReq> = match mesh.progress.repair_q.lock() {
        Ok(mut q) => q.drain(..).collect(),
        Err(_) => return false,
    };
    if reqs.is_empty() {
        return false;
    }
    for req in reqs {
        repair_one(mesh, req);
    }
    true
}

/// The progress-pool worker loop. Every worker drives its owned
/// endpoints; worker 0 additionally runs the retransmit, heartbeat and
/// repair timer duties. A cycle that makes no progress parks the worker
/// on its [`WorkSignal`] with a bounded timeout (worker 0's bounded by
/// its next timer deadline).
fn worker_loop(mesh: Arc<Mesh>, widx: usize) {
    // The census was incremented at spawn time (so a fresh fabric's
    // count is accurate before the OS schedules us); this guard only
    // decrements, on every exit path including panic.
    struct Census<'a>(&'a AtomicUsize);
    impl Drop for Census<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _census = Census(&mesh.progress.live);

    let rt_tick = (mesh.cfg.rto / 4).max(Duration::from_millis(1));
    let hb_enabled = widx == 0 && !mesh.cfg.heartbeat.is_zero();
    let hb_tick = (mesh.cfg.heartbeat / 2).max(Duration::from_millis(1));
    let bw_enabled = widx == 0 && !mesh.cfg.brownout_window.is_zero();
    let bw_tick = mesh.cfg.brownout_window.max(Duration::from_millis(1));
    let mut next_rt = Instant::now() + rt_tick;
    let mut next_hb = Instant::now() + hb_tick;
    let mut next_bw = Instant::now() + bw_tick;
    // Per-lane retransmit totals at the last brownout window boundary.
    let mut bw_prev = vec![0u64; mesh.cfg.lanes];
    // Jitter decorrelates retransmit bursts; a fixed seed keeps runs
    // reproducible.
    let mut rng = ChaosRng::new(0xF0F0_F0F0 ^ widx as u64);
    let mut eps: Vec<Endpoint> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        // Epoch read precedes the work scan: anything enqueued after
        // this line bumps the epoch and cuts the park short.
        let seen = mesh.progress.signals[widx].epoch();
        if let Ok(mut inbox) = mesh.progress.inboxes[widx].lock() {
            eps.append(&mut inbox);
        }
        if mesh.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut progressed = false;
        if widx == 0 {
            let now = Instant::now();
            if now >= next_rt {
                retransmit_pass(&mesh, &mut rng);
                next_rt = now + rt_tick;
            }
            if hb_enabled && now >= next_hb {
                heartbeat_pass(&mesh);
                next_hb = now + hb_tick;
            }
            if bw_enabled && now >= next_bw {
                brownout_pass(&mesh, &mut bw_prev);
                next_bw = now + bw_tick;
            }
            progressed |= repair_pass(&mesh);
        }
        // This cycle's per-endpoint staging share: the cycle budget
        // split across the worker's endpoints, so cycle time (and ack
        // RTT) stays flat-ish as lanes multiply.
        let stage = (BATCH_MAX / eps.len().max(1)).max(STAGE_MIN);
        eps.retain_mut(|ep| {
            if mesh.killed[ep.lane].load(Ordering::Relaxed)
                || ep.cur_gen.load(Ordering::Relaxed) != ep.gen
            {
                // Killed lane or superseded by a repair: retire without
                // touching the shared queue again.
                return false;
            }
            let (keep, did) = endpoint_step(&mesh, ep, stage, &mut scratch);
            progressed |= did;
            keep
        });
        if progressed {
            // Flush owed acks once per cycle, not only per-endpoint:
            // with many lanes each endpoint sees a thin slice of the
            // traffic, so a per-endpoint frame counter alone would let
            // watermarks age for a whole cycle's worth of frames and
            // ack RTT would grow with the lane count. `owed_len` makes
            // this a single atomic load when nothing is owed.
            mesh.flush_owed_acks();
            continue;
        }
        let cap = if widx == 0 {
            let mut deadline = next_rt;
            if hb_enabled {
                deadline = deadline.min(next_hb);
            }
            if bw_enabled {
                deadline = deadline.min(next_bw);
            }
            deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(10))
        } else {
            Duration::from_millis(10)
        };
        mesh.progress.signals[widx].wait(seen, cap);
    }
}

// ---------------------------------------------------------------------
// Construction and the public Fabric surface.
// ---------------------------------------------------------------------

/// Resolve the progress-pool size for this fabric: the configured (or
/// auto) size, capped at the endpoint count — a single-node fabric
/// spawns no progress threads at all.
fn resolve_pool_size(cfg: &TcpConfig, endpoints: usize) -> usize {
    if endpoints == 0 {
        return 0;
    }
    let want = match cfg.progress_threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4),
        n => n,
    };
    want.min(endpoints).max(1)
}

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
    /// by [`resolve_pool_size`] progress threads.
    pub fn connect(topo: Topology, cfg: TcpConfig) -> io::Result<TcpFabric> {
        // Reject malformed PIPMCOLL_* variables here, before any worker
        // thread reads them through a silently-defaulting cache.
        crate::env::validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        assert!(cfg.lanes >= 1, "a fabric needs at least one lane");
        assert!(
            cfg.lane_policy == LanePolicy::Modulo || cfg.stripe_min >= 1,
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
        let mesh = Arc::new(Mesh {
            topo,
            cfg,
            progress: ProgressShared {
                addr,
                listener: Mutex::new(listener),
                repair_q: Mutex::new(VecDeque::new()),
                inboxes: (0..pool_size).map(|_| Mutex::new(Vec::new())).collect(),
                signals: (0..pool_size).map(|_| WorkSignal::new()).collect(),
                owners,
                pool_size,
                live: Arc::new(AtomicUsize::new(0)),
            },
            stores,
            queues,
            conns: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            acks_owed: Mutex::new(HashMap::new()),
            owed_len: AtomicUsize::new(0),
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
                        for (here, peer, stream) in
                            [(a, b, out.try_clone()?), (b, a, inn.try_clone()?)]
                        {
                            let ep = Endpoint::new(&mesh, (here, peer, lane), 0, &gen, stream)
                                .expect("queue exists for every directed pair");
                            deliver_endpoint(&mesh, ep);
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
        // payload-exact under both policies.
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
        let push_to = |q: &Arc<SendQueue>, lane: usize, buf: FrameBuf| {
            q.push_user(buf).map_err(|e| match e {
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
                mesh.register_pending(key, seg_seq, buf.clone(), seg_lane);
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
                        let a = push_to(q, seg_lane, buf.clone())?;
                        let b = push_to(q, seg_lane, buf)?;
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
                        push_to(q, seg_lane, copy)?
                    }
                    FrameFate::Deliver => push_to(q, seg_lane, buf)?,
                };
                stalled |= pushed;
                // The frame is queued; wake the worker driving its lane.
                mesh.notify_owner(node_s, node_d, seg_lane);
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
        let node_d = mesh.topo.node_of(key.1);
        match mesh.stores[node_d].pop_within(key, timeout) {
            Err(FabricError::Timeout(mut d)) => {
                // Enrich the store's channel-level view with the lane
                // and sender-queue state only this backend knows.
                let node_s = mesh.topo.node_of(key.0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;

    fn two_nodes(lanes: usize) -> TcpFabric {
        TcpFabric::connect(
            Topology::new(2, 4),
            TcpConfig {
                lanes,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric")
    }

    fn fast_rto(lanes: usize, ranks_per_node: usize) -> TcpFabric {
        TcpFabric::connect(
            Topology::new(2, ranks_per_node),
            TcpConfig {
                lanes,
                rto: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric")
    }

    #[test]
    fn internode_roundtrip() {
        let f = two_nodes(2);
        f.send((0, 4, 9), vec![1, 2, 3]).unwrap();
        assert_eq!(f.recv((0, 4, 9)).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn local_messages_bypass_lanes() {
        let f = two_nodes(2);
        f.send((0, 1, 0), vec![5; 10]).unwrap();
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![5; 10]);
        let s = f.stats();
        assert_eq!(s.total_msgs(), 0);
        assert_eq!(s.local_msgs, 1);
        assert_eq!(s.local_bytes, 10);
    }

    #[test]
    fn lanes_are_striped_by_sender_local_rank() {
        let f = two_nodes(4);
        for src in 0..4 {
            f.send((src, 4, 0), vec![src as u8]).unwrap();
        }
        for src in 0..4 {
            assert_eq!(f.recv((src, 4, 0)).unwrap(), vec![src as u8]);
        }
        let s = f.stats();
        assert_eq!(s.total_msgs(), 4);
        for lane in 0..4 {
            assert_eq!(s.lanes[lane].msgs, 1, "one sender per lane");
        }
    }

    #[test]
    fn rendezvous_payload_is_intact() {
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                eager_max: 16,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        f.send((0, 1, 3), big.clone()).unwrap();
        assert_eq!(f.recv((0, 1, 3)).unwrap(), big);
    }

    #[test]
    fn drop_joins_progress_threads() {
        let f = two_nodes(3);
        f.send((0, 4, 0), vec![1]).unwrap();
        assert_eq!(f.recv((0, 4, 0)).unwrap(), vec![1]);
        drop(f); // must not hang or panic
    }

    #[test]
    fn pool_size_is_independent_of_lanes() {
        let narrow = two_nodes(1);
        let wide = two_nodes(8);
        assert!(
            wide.progress_thread_count() <= 4,
            "pool exceeds min(4, cores): {}",
            wide.progress_thread_count()
        );
        assert!(wide.progress_thread_count() >= narrow.progress_thread_count());
        // 8× the lanes may not mean 8× the threads — the whole point.
        assert!(
            wide.progress_thread_count() <= narrow.progress_thread_count() * 4,
            "pool scales with lanes: {} vs {}",
            wide.progress_thread_count(),
            narrow.progress_thread_count()
        );
        assert_eq!(wide.live_progress_threads(), wide.progress_thread_count());
    }

    #[test]
    fn rendezvous_transfers_record_ack_rtt() {
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                eager_max: 16,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        f.send((0, 1, 0), vec![7; 4096]).unwrap();
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![7; 4096]);
        // The DATA frame's covering ack must land and be measured.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let s = f.stats().ack_rtt;
            if s.count >= 1 {
                assert!(s.p50_us.is_some(), "samples imply a percentile");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "rendezvous DATA never fed the ack-RTT histogram"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // And the pending table drains — nothing left unacked.
        let deadline = Instant::now() + Duration::from_secs(10);
        while f.pending_frames() > 0 {
            assert!(Instant::now() < deadline, "pending DATA never retired");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn recv_timeout_diag_names_backend_lane_and_queue() {
        let f = two_nodes(2);
        let err = f
            .recv_within((1, 4, 5), Duration::from_millis(30))
            .unwrap_err();
        match err {
            FabricError::Timeout(d) => {
                assert_eq!(d.backend, "tcp");
                assert_eq!(d.chan, (1, 4, 5));
                assert_eq!(d.lane, Some(1), "rank 1 stripes onto lane 1 of 2");
                assert_eq!(d.send_queue_depth, Some(0));
                assert!(d.dead_lanes.is_empty());
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn killed_lane_remaps_traffic_and_preserves_fifo() {
        let f = fast_rto(4, 4);
        // Every sender streams to rank 4; kill a lane mid-stream.
        for i in 0..10u8 {
            for src in 0..4usize {
                f.send((src, 4, 1), vec![i, src as u8]).unwrap();
            }
        }
        assert!(f.kill_lane(1));
        assert!(!f.kill_lane(1), "a lane dies once");
        for i in 10..20u8 {
            for src in 0..4usize {
                f.send((src, 4, 1), vec![i, src as u8]).unwrap();
            }
        }
        // FIFO per channel must survive the remap; frames lost in the
        // kill are recovered by retransmit onto surviving lanes.
        for src in 0..4usize {
            for i in 0..20u8 {
                assert_eq!(f.recv((src, 4, 1)).unwrap(), vec![i, src as u8]);
            }
        }
        assert_eq!(f.diag().dead_lanes, vec![1]);
    }

    #[test]
    fn kill_refuses_last_survivor() {
        let f = fast_rto(2, 4);
        assert!(f.kill_lane(0));
        assert!(!f.kill_lane(1), "last lane must survive");
        assert!(!f.kill_lane(7), "no such lane");
        f.send((0, 4, 0), vec![7]).unwrap();
        assert_eq!(f.recv((0, 4, 0)).unwrap(), vec![7]);
    }

    #[test]
    fn dropped_eager_frames_are_recovered_by_retransmit() {
        let f = fast_rto(1, 1);
        let wire = Arc::new(WireChaos::new(&ChaosConfig {
            drop: 0.4,
            seed: 11,
            ..ChaosConfig::default()
        }));
        assert!(f.install_chaos(Arc::clone(&wire)));
        for i in 0..50u8 {
            f.send((0, 1, 2), vec![i]).unwrap();
        }
        for i in 0..50u8 {
            assert_eq!(f.recv((0, 1, 2)).unwrap(), vec![i]);
        }
        assert!(wire.dropped() > 0, "seed 11 must drop something in 50");
        assert!(
            f.stats().retransmits >= wire.dropped(),
            "every dropped frame needs at least one retransmit: {} retransmits, {} dropped",
            f.stats().retransmits,
            wire.dropped(),
        );
        assert!(f.drain_errors().is_empty(), "recovery is not an error");
    }

    #[test]
    fn duplicated_eager_frames_collapse_to_one_delivery() {
        let f = fast_rto(1, 1);
        let wire = Arc::new(WireChaos::new(&ChaosConfig {
            dup: 0.5,
            seed: 3,
            ..ChaosConfig::default()
        }));
        assert!(f.install_chaos(Arc::clone(&wire)));
        for i in 0..40u8 {
            f.send((0, 1, 0), vec![i]).unwrap();
        }
        for i in 0..40u8 {
            assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![i]);
        }
        assert!(wire.dupped() > 0, "seed 3 must duplicate something in 40");
        // No 41st message may exist.
        assert!(matches!(
            f.recv_within((0, 1, 0), Duration::from_millis(50)),
            Err(FabricError::Timeout(_))
        ));
        assert!(f.stats().dups_dropped >= wire.dupped());
    }

    /// Poll `f` until `pred(health)` holds, panicking with the last
    /// snapshot after `budget`.
    fn wait_health(
        f: &TcpFabric,
        budget: Duration,
        what: &str,
        pred: impl Fn(&FabricHealth) -> bool,
    ) {
        let deadline = Instant::now() + budget;
        loop {
            let h = f.health();
            if pred(&h) {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: last health {h:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn muted_nodes_suspect_each_other_and_heartbeats_clear_it() {
        // The symmetric false-suspicion partition: both nodes stop
        // beating (muted, not dead), each suspects the other; once beats
        // resume, the first arrival retracts the suspicion on each side.
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                heartbeat: Duration::from_millis(10),
                heartbeat_misses: 3,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        f.mute_node(0, true);
        f.mute_node(1, true);
        wait_health(&f, Duration::from_secs(10), "suspicion never formed", |h| {
            h.suspected_nodes.contains(&(0, 1)) && h.suspected_nodes.contains(&(1, 0))
        });
        f.mute_node(0, false);
        f.mute_node(1, false);
        wait_health(
            &f,
            Duration::from_secs(10),
            "suspicion never cleared",
            |h| h.suspected_nodes.is_empty(),
        );
        assert!(f.health().is_clean());
    }

    #[test]
    fn retransmit_exhaustion_is_a_typed_peer_dead_verdict() {
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                rto: Duration::from_millis(2),
                max_retransmits: 3,
                heartbeat: Duration::ZERO,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        // Eat every standalone ack: the message is delivered, but the
        // sender's pending entry can never retire and the budget runs out.
        let wire = Arc::new(WireChaos::new(&ChaosConfig {
            ack_drop: 1.0,
            seed: 5,
            ..ChaosConfig::default()
        }));
        assert!(f.install_chaos(Arc::clone(&wire)));
        f.send((0, 1, 7), vec![9]).unwrap();
        assert_eq!(f.recv((0, 1, 7)).unwrap(), vec![9]);
        wait_health(&f, Duration::from_secs(10), "no PeerDead verdict", |h| {
            h.dead_peers.iter().any(|d| d.peer == 1 && d.attempts == 3)
        });
        let errs = f.drain_errors();
        assert!(
            errs.iter()
                .any(|e| matches!(e, FabricError::PeerDead { peer: 1, .. })),
            "typed PeerDead not recorded: {errs:?}"
        );
        // A subsequent receive timeout on a channel from the dead peer
        // names it in the diagnostic.
        let err = f
            .recv_within((1, 0, 9), Duration::from_millis(20))
            .unwrap_err();
        match err {
            FabricError::Timeout(d) => {
                assert_eq!(d.suspected, vec![1], "diag must name the dead peer")
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    fn striped(lanes: usize, stripe_min: usize, eager_max: usize) -> TcpFabric {
        TcpFabric::connect(
            Topology::new(2, 4),
            TcpConfig {
                lanes,
                lane_policy: LanePolicy::Stripe,
                stripe_min,
                eager_max,
                rto: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric")
    }

    #[test]
    fn striped_eager_message_scatters_over_all_lanes() {
        let f = striped(4, 16, 64 * 1024);
        let big: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        f.send((0, 4, 0), big.clone()).unwrap();
        assert_eq!(f.recv((0, 4, 0)).unwrap(), big);
        let s = f.stats();
        assert_eq!(s.total_msgs(), 1, "a striped message still counts once");
        assert_eq!(s.total_bytes(), 8192);
        assert_eq!(s.striped_msgs, 1);
    }

    #[test]
    fn striping_bypasses_rendezvous_when_segments_fit_eager() {
        // 8 KiB payload, eager_max 4 KiB: whole-message would go
        // rendezvous, but 4 lanes make 2 KiB segments — all eager, so
        // the rendezvous stash is never touched.
        let f = striped(4, 16, 4 * 1024);
        let big: Vec<u8> = (0..8192u32).map(|i| (i % 249) as u8).collect();
        f.send((1, 4, 2), big.clone()).unwrap();
        assert_eq!(f.recv((1, 4, 2)).unwrap(), big);
        assert_eq!(f.stats().striped_msgs, 1);
    }

    #[test]
    fn striped_rendezvous_payload_is_intact() {
        // eager_max 16: even 1/4 segments exceed it, so the transfer
        // takes the RTS/CTS path and DATA itself is striped.
        let f = striped(4, 16, 16);
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        f.send((0, 4, 3), big.clone()).unwrap();
        assert_eq!(f.recv((0, 4, 3)).unwrap(), big);
        assert_eq!(f.stats().striped_msgs, 1);
    }

    #[test]
    fn small_messages_stay_on_the_modulo_fast_path_under_stripe() {
        let f = striped(4, 1024, 64 * 1024);
        for src in 0..4 {
            f.send((src, 4, 0), vec![src as u8; 8]).unwrap();
        }
        for src in 0..4 {
            assert_eq!(f.recv((src, 4, 0)).unwrap(), vec![src as u8; 8]);
        }
        let s = f.stats();
        assert_eq!(s.striped_msgs, 0, "below stripe_min nothing splits");
        for lane in 0..4 {
            assert_eq!(s.lanes[lane].msgs, 1, "one sender per lane");
        }
    }

    #[test]
    fn striped_fifo_survives_interleaving_and_a_lane_kill() {
        let f = striped(4, 64, 64 * 1024);
        let mk = |i: u8, n: usize| vec![i; n];
        for i in 0..6u8 {
            // Alternate striped (256 B) and unstriped (8 B) messages on
            // one channel; kill a lane mid-stream.
            f.send((0, 4, 1), mk(i, if i % 2 == 0 { 256 } else { 8 }))
                .unwrap();
            if i == 3 {
                assert!(f.kill_lane(2));
            }
        }
        for i in 0..6u8 {
            let want = mk(i, if i % 2 == 0 { 256 } else { 8 });
            assert_eq!(f.recv((0, 4, 1)).unwrap(), want, "message {i}");
        }
    }

    #[test]
    fn striped_eager_recovers_from_chaos_drops() {
        let f = striped(2, 64, 64 * 1024);
        let wire = Arc::new(WireChaos::new(&ChaosConfig {
            drop: 0.3,
            seed: 17,
            ..ChaosConfig::default()
        }));
        assert!(f.install_chaos(Arc::clone(&wire)));
        let msgs: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 200]).collect();
        for m in &msgs {
            f.send((0, 4, 5), m.clone()).unwrap();
        }
        for m in &msgs {
            assert_eq!(&f.recv((0, 4, 5)).unwrap(), m);
        }
        assert!(wire.dropped() > 0, "seed 17 must drop something in 60 segs");
        assert!(f.drain_errors().is_empty(), "recovery is not an error");
    }

    #[test]
    fn broken_connection_reconnects_and_delivery_continues() {
        let f = fast_rto(1, 1);
        f.send((0, 1, 0), vec![1]).unwrap();
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![1]);
        assert!(f.break_connection(0, 1, 0));
        assert!(!f.break_connection(0, 1, 9), "no such lane");
        // Traffic sent across the break must still arrive: anything lost
        // mid-repair is recovered by retransmit.
        for i in 0..20u8 {
            f.send((0, 1, 0), vec![10 + i]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![10 + i]);
        }
        assert!(f.drain_errors().is_empty(), "a repaired break is silent");
    }

    /// Poll the health view until `browned_lanes == want` (the brownout
    /// duty runs on worker 0's window clock, not the test's).
    fn wait_browned(f: &TcpFabric, want: &[usize]) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if f.health().browned_lanes == want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    #[test]
    fn gray_failing_lane_is_demoted_and_restored_after_the_fault_clears() {
        let f = TcpFabric::connect(
            Topology::new(2, 2),
            TcpConfig {
                lanes: 2,
                rto: Duration::from_millis(5),
                brownout_window: Duration::from_millis(20),
                brownout_retransmits: 2,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        let wire = Arc::new(WireChaos::new(&ChaosConfig::default()));
        assert!(f.install_chaos(Arc::clone(&wire)));
        // Gray failure: lane 1 silently eats every frame while its
        // sockets stay connected — the case fail-stop detection cannot
        // see (no error, no disconnect, just loss).
        wire.degrade_lane(1, 1.0);
        // Sender local rank 1 nominally stripes onto lane 1, so every
        // first transmission is eaten; each retransmit attempt blames
        // lane 1 and re-rolls the stripe.
        for i in 0..8u8 {
            f.send((1, 3, 7), vec![i]).unwrap();
        }
        // Two blamed retransmits inside one 20 ms window demote the
        // lane: browned, not dead.
        assert!(
            wait_browned(&f, &[1]),
            "lane 1 never browned: health {:?}",
            f.health().browned_lanes
        );
        assert!(
            f.diag().dead_lanes.is_empty(),
            "browned is a demotion, not a death"
        );
        // The stalled traffic completes: retransmits migrate to the
        // healthy lane once the browned one leaves the usable stripe.
        for i in 0..8u8 {
            assert_eq!(f.recv((1, 3, 7)).unwrap(), vec![i]);
        }
        // Fresh sends from the lane-1 sender also avoid the browned
        // lane while it is demoted.
        f.send((1, 3, 8), vec![0xAB]).unwrap();
        assert_eq!(f.recv((1, 3, 8)).unwrap(), vec![0xAB]);
        assert!(
            f.drain_errors().is_empty(),
            "brownout recovery is not an error"
        );
        // The gray failure lifts; the next window's probe heartbeat
        // crosses the lane and restores it.
        wire.heal_lanes();
        assert!(
            wait_browned(&f, &[]),
            "lane 1 never restored after heal: health {:?}",
            f.health().browned_lanes
        );
    }

    #[test]
    fn lost_wakeup_full_send_queue() {
        // A one-slot queue per pair: nearly every send parks until a
        // progress worker frees the slot, so a free that skipped the
        // notify would leave the sender parked for a whole sync timeout.
        const N: u32 = 10_000;
        let t = sync_timeout();
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                queue_cap: 1,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        let timed = |i: u32, op: &dyn Fn()| {
            let t0 = Instant::now();
            op();
            assert!(
                t0.elapsed() < t,
                "message {i} waited out the sync timeout: a wake-up was lost"
            );
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    timed(i, &|| f.send((0, 1, 4), i.to_le_bytes().to_vec()).unwrap());
                }
            });
            for i in 0..N {
                timed(i, &|| {
                    assert_eq!(f.recv((0, 1, 4)).unwrap(), i.to_le_bytes())
                });
            }
        });
        assert!(f.stats().lanes[0].stalls > 0, "the queue never filled");
        assert!(f.drain_errors().is_empty());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn write_stall_is_woken_by_the_reader() {
        // One lane, two workers: the two ends of the connection land on
        // different workers, so only the reading worker can tell when a
        // writer stuck on `WouldBlock` may go on. A frame far larger than
        // the socket buffers completes no frame (and so sends no ack
        // back) for many read passes; without a wake-up from the reader
        // each refill of the socket costs the writer a park of up to
        // 10 ms. Small kernel buffers make those refills many: on a
        // 2-vCPU VM the transfer takes ~0.25 s with the wake-up and
        // ~1.4 s without it.
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
        }
        const SOL_SOCKET: i32 = 1;
        const SO_SNDBUF: i32 = 7;
        const SO_RCVBUF: i32 = 8;
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes: 1,
                progress_threads: 2,
                eager_max: 64 << 20,
                // No retransmit of a frame that is still streaming.
                rto: Duration::from_secs(5),
                ..TcpConfig::default()
            },
        )
        .unwrap();
        let bytes: i32 = 16 << 10;
        for conn in f.mesh.conns.lock().unwrap().values() {
            for stream in [&conn.out, &conn.inn] {
                for opt in [SO_SNDBUF, SO_RCVBUF] {
                    // SAFETY: a live socket descriptor, and a pointer to
                    // an i32 of the length passed.
                    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, opt, &bytes, 4) };
                    assert_eq!(rc, 0, "setsockopt");
                }
            }
        }
        let msg = vec![0x5A; 4 << 20];
        let start = Instant::now();
        f.send((1, 0, 2), msg.clone()).unwrap();
        assert_eq!(f.recv((1, 0, 2)).unwrap(), msg);
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "4 MiB over one lane took {took:?}: the writer waited out its park cap"
        );
    }
}
