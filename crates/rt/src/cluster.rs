//! Cluster orchestration: spawn one thread per rank, run an algorithm
//! (optionally many timed iterations), collect final buffers.
//!
//! The safe entry point is [`run_cluster_verified`]: it records the
//! algorithm's schedule, runs the sound happens-before analysis, and only
//! then executes on threads. The unverified [`run_cluster`] remains for
//! benches and for algorithms already proven elsewhere — callers take on
//! the data-race risk themselves (the `SharedBuf` accesses are unchecked
//! `UnsafeCell` reads/writes; an unordered conflicting pair is UB).
//!
//! ## Failure model (fail-stop, report, never hang)
//!
//! A rank whose transport send/receive fails, whose board fetch or flag
//! wait times out, or whose algorithm body panics is marked *failed*: its
//! remaining communication becomes a no-op, the cause lands in
//! [`RtResult::failures`], and the rank keeps walking the iteration
//! framing so its peers are never abandoned mid-barrier. Barriers are
//! timeout-bounded ([`TimedBarrier`]) so even a rank that dies between
//! framing points degrades into a recorded timeout, and a watchdog thread
//! converts a run making *no* progress for `2 × sync_timeout()` into a
//! structured diagnostic (via [`Fabric::diag`]) naming the stuck channels
//! and queue depths. The run always returns; `failures` is empty exactly
//! when every rank completed cleanly.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pipmcoll_fabric::{sync_timeout, ChanKey, Fabric, FabricDiag, FabricStats};
use pipmcoll_model::Topology;
use pipmcoll_sched::{record_with_sizes, BufSizes, Comm, Tag};

use crate::barrier::TimedBarrier;
use crate::comm::RtComm;
use crate::shared::{Board, BufKey, FlagSet, SharedBuf};

/// Everything the rank threads share — the "node address space".
pub struct ClusterShared {
    /// Cluster shape.
    pub topo: Topology,
    /// Rank `r` of this run is fabric rank `ranks[r]`: the identity,
    /// except on a fault-tolerant retry, which re-ranks the survivors
    /// densely while the fabric keeps their original ids.
    ranks: Vec<usize>,
    /// Fault-tolerant attempt number. From 1 on, wire tags carry it
    /// (`fabric::tag::retry`) so a stale frame from a failed attempt
    /// can never satisfy a retry receive.
    epoch: u32,
    /// Per-rank user send buffers.
    send_arc: Vec<Arc<SharedBuf>>,
    /// Per-rank user receive buffers.
    recv_arc: Vec<Arc<SharedBuf>>,
    /// Per-rank scratch buffers (append-only per iteration, reused across
    /// iterations).
    temps: Vec<Mutex<Vec<Arc<SharedBuf>>>>,
    /// Per-rank address boards.
    pub boards: Vec<Board>,
    /// Per-rank flag sets.
    pub flags: Vec<FlagSet>,
    /// The internode transport carrying point-to-point messages.
    pub fabric: Arc<dyn Fabric>,
    /// Per-node barriers (timeout-bounded; see the failure model above).
    pub node_barriers: Vec<TimedBarrier>,
    /// World barrier for iteration framing (timeout-bounded).
    pub world_barrier: TimedBarrier,
    /// Failures recorded by ranks and the watchdog during the run.
    failures: Mutex<Vec<RankFailure>>,
    /// Monotone progress counter bumped by every completed communication
    /// operation; the watchdog fires when it stops moving.
    progress: AtomicU64,
}

impl ClusterShared {
    /// Shared state for one run of `topo` whose rank `r` is fabric
    /// rank `ranks[r]`, tagging its messages for attempt `epoch`.
    pub(crate) fn new(
        topo: Topology,
        fabric: Arc<dyn Fabric>,
        sizes: &dyn Fn(usize) -> BufSizes,
        init: &dyn Fn(usize) -> Vec<u8>,
        ranks: Vec<usize>,
        epoch: u32,
    ) -> Self {
        let world = topo.world_size();
        assert_eq!(ranks.len(), world, "one fabric rank per rank");
        let mut send_arc = Vec::with_capacity(world);
        let mut recv_arc = Vec::with_capacity(world);
        for r in 0..world {
            let sz = sizes(r);
            let send = init(r);
            assert_eq!(
                send.len(),
                sz.send,
                "rank {r}: send init produced {} bytes, declared {}",
                send.len(),
                sz.send
            );
            send_arc.push(Arc::new(SharedBuf::from_vec(send)));
            recv_arc.push(Arc::new(SharedBuf::new(sz.recv)));
        }
        ClusterShared {
            topo,
            send_arc,
            recv_arc,
            temps: (0..world).map(|_| Mutex::new(Vec::new())).collect(),
            boards: ranks.iter().map(|&r| Board::for_rank(r)).collect(),
            flags: ranks.iter().map(|&r| FlagSet::for_rank(r)).collect(),
            ranks,
            epoch,
            fabric,
            node_barriers: (0..topo.nodes())
                .map(|_| TimedBarrier::new(topo.ppn()))
                .collect(),
            world_barrier: TimedBarrier::new(world),
            failures: Mutex::new(Vec::new()),
            progress: AtomicU64::new(0),
        }
    }

    /// The fabric rank of rank `r`.
    pub(crate) fn fabric_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// The wire channel of a message from rank `src` to rank `dst`
    /// under collective tag `tag`.
    pub(crate) fn chan(&self, src: usize, dst: usize, tag: Tag) -> ChanKey {
        let tag = if self.epoch == 0 {
            tag
        } else {
            debug_assert!(tag <= 0xFFFF, "collective tags must fit 16 bits");
            pipmcoll_fabric::tag::retry(self.epoch, tag)
        };
        (self.ranks[src], self.ranks[dst], tag)
    }

    /// Record a failure (`rank: None` for run-level failures such as
    /// watchdog reports) and count it as progress so the watchdog does
    /// not re-report a stall that is already being torn down.
    pub(crate) fn record_failure(&self, rank: Option<usize>, detail: String) {
        if let Ok(mut g) = self.failures.lock() {
            g.push(RankFailure {
                rank,
                epoch: self.epoch,
                detail,
            });
        }
        self.bump_progress();
    }

    /// Note forward progress (a completed communication operation).
    pub(crate) fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a buffer by key (temps via `Arc` so the lock is short).
    pub fn buf_of(&self, key: BufKey) -> Arc<SharedBuf> {
        match key {
            BufKey::Send(r) => Arc::clone(&self.send_arc[r]),
            BufKey::Recv(r) => Arc::clone(&self.recv_arc[r]),
            BufKey::Temp(r, i) => {
                let g = self.temps[r].lock().unwrap();
                Arc::clone(
                    g.get(i)
                        .unwrap_or_else(|| panic!("rank {r} temp {i} not allocated")),
                )
            }
        }
    }

    /// Ensure rank `r`'s temp `idx` exists with `bytes` bytes. Iterations
    /// re-allocate deterministically, so an existing temp of the right size
    /// is reused.
    pub fn ensure_temp(&self, r: usize, idx: usize, bytes: usize) {
        let mut g = self.temps[r].lock().unwrap();
        assert!(idx <= g.len(), "temps must be allocated in order");
        if idx == g.len() {
            g.push(Arc::new(SharedBuf::new(bytes)));
        } else {
            assert_eq!(
                g[idx].len(),
                bytes,
                "iteration re-allocated temp {idx} with a different size"
            );
        }
    }

    /// Tear down after every worker thread has exited: final receive
    /// buffers (by rank) plus everything recorded in the failure log.
    pub(crate) fn into_parts(self) -> (Vec<Vec<u8>>, Vec<RankFailure>) {
        let recv = self
            .recv_arc
            .into_iter()
            .map(|a| {
                Arc::try_unwrap(a)
                    .ok()
                    .expect("no outstanding buffer references")
                    .into_vec()
            })
            .collect();
        let failures = self
            .failures
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        (recv, failures)
    }

    /// Reset mutable cross-iteration state (boards, flags, channels).
    fn reset(&self) {
        for b in &self.boards {
            b.clear();
        }
        for f in &self.flags {
            f.clear();
        }
        self.fabric.reset();
    }
}

/// One failure observed during a cluster run.
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The rank the failure is attributed to, or `None` for run-level
    /// failures (watchdog reports, fabric-internal errors).
    pub rank: Option<usize>,
    /// The fault-tolerant attempt that observed it (0 = the first
    /// attempt, and every run without retries).
    pub epoch: u32,
    /// Human-readable cause, carrying the underlying diagnostic (stuck
    /// channel, queue depths, panic message, …).
    pub detail: String,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            Some(r) => write!(f, "rank {r} (epoch {}): {}", self.epoch, self.detail),
            None => write!(f, "run (epoch {}): {}", self.epoch, self.detail),
        }
    }
}

/// Result of a cluster run.
pub struct RtResult {
    /// Final receive-buffer contents, indexed by rank.
    pub recv: Vec<Vec<u8>>,
    /// Wall-clock time across all iterations (excluding thread spawn).
    pub elapsed: Duration,
    /// Number of timed iterations.
    pub iters: usize,
    /// Traffic counters of the fabric that carried the internode
    /// point-to-point messages.
    pub fabric_stats: FabricStats,
    /// Everything that went wrong: rank failures (transport errors,
    /// sync timeouts, algorithm panics), watchdog stall reports, and
    /// fabric-internal errors drained at the end of the run. Empty
    /// exactly when the run completed cleanly; `recv` contents are only
    /// meaningful in that case.
    pub failures: Vec<RankFailure>,
}

impl RtResult {
    /// Mean wall-clock time per iteration.
    pub fn per_iter(&self) -> Duration {
        self.elapsed / self.iters.max(1) as u32
    }

    /// Whether the run completed with no recorded failures.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panic with every recorded failure if the run was not clean —
    /// the one-liner for tests that expect success.
    pub fn expect_clean(&self) {
        assert!(
            self.failures.is_empty(),
            "cluster run recorded {} failure(s):\n  {}",
            self.failures.len(),
            self.failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n  ")
        );
    }
}

/// Render a watchdog stall into the diagnostic recorded in
/// [`RtResult::failures`]: how long the run has been silent plus the
/// fabric's view of blocked receives (worst first), non-empty send
/// queues and dead lanes.
pub fn watchdog_report(stalled_for: Duration, diag: &FabricDiag) -> String {
    format!("watchdog: no progress for {stalled_for:?} (limit 2 x sync_timeout); {diag}")
}

/// The part of a [`FabricDiag`] that identifies *which* stall is in
/// progress: the set of starved channels plus any dead lanes. Durations
/// and queue depths are deliberately excluded — they drift every poll
/// even when the run is stuck in exactly the same place, and the
/// watchdog must not re-report a stall whose shape has not changed.
fn stall_signature(diag: &FabricDiag) -> (Vec<ChanKey>, Vec<usize>) {
    let mut chans: Vec<_> = diag.blocked.iter().map(|b| b.chan).collect();
    chans.sort_unstable();
    chans.dedup();
    (chans, diag.dead_lanes.clone())
}

/// Background thread that watches the shared progress counter and records
/// a [`watchdog_report`] when the whole run stalls for `2 × sync_timeout`.
struct Watchdog {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(shared: Arc<ClusterShared>) -> Watchdog {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("rt-watchdog".into())
            .spawn(move || {
                let threshold = sync_timeout() * 2;
                let poll = (sync_timeout() / 8)
                    .clamp(Duration::from_millis(5), Duration::from_millis(250));
                let mut last_count = shared.progress.load(Ordering::Relaxed);
                let mut last_change = Instant::now();
                let mut reported: Option<(Vec<ChanKey>, Vec<usize>)> = None;
                let (lock, cv) = &*stop2;
                let Ok(mut done) = lock.lock() else { return };
                loop {
                    if *done {
                        return;
                    }
                    let Ok((guard, _)) = cv.wait_timeout(done, poll) else {
                        return;
                    };
                    done = guard;
                    if *done {
                        return;
                    }
                    let count = shared.progress.load(Ordering::Relaxed);
                    if count != last_count {
                        last_count = count;
                        last_change = Instant::now();
                        // Real progress means the next stall is a new
                        // event, even if it lands on the same channels.
                        reported = None;
                        continue;
                    }
                    let stalled = last_change.elapsed();
                    if stalled >= threshold {
                        let diag = shared.fabric.diag();
                        let sig = stall_signature(&diag);
                        // One report per distinct stall: re-record only
                        // when the set of stuck channels or dead lanes
                        // changes, not every threshold the same corpse
                        // stays dead.
                        if reported.as_ref() != Some(&sig) {
                            shared.record_failure(None, watchdog_report(stalled, &diag));
                            reported = Some(sig);
                        }
                        // Recording (or skipping) re-arms the stall clock
                        // so the signature is re-checked every threshold,
                        // not every poll.
                        last_count = shared.progress.load(Ordering::Relaxed);
                        last_change = Instant::now();
                    }
                }
            })
            .expect("spawn rt-watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        let (lock, cv) = &*self.stop;
        if let Ok(mut done) = lock.lock() {
            *done = true;
        }
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

pub(crate) fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("algorithm panicked: {msg}")
}

/// A collective algorithm written against the backend-neutral [`Comm`]
/// trait, so the *same* implementation can be recorded (for validation and
/// happens-before analysis) and executed on threads.
/// [`run_cluster_verified`] needs both views of one algorithm, which a
/// plain closure monomorphised to `RtComm` cannot provide.
pub trait Algo: Sync {
    /// Execute the algorithm on one rank's communicator.
    fn run<C: Comm>(&self, c: &mut C);
}

/// Record `algo`, prove it safe, then execute it on real threads.
///
/// The recorded schedule must pass structural validation and the sound
/// happens-before race/deadlock analysis ([`pipmcoll_sched::hb`]); this
/// panics (before any thread is spawned) rather than execute a schedule
/// with an unordered conflicting access — on the thread runtime such a
/// pair is a genuine data race on an `UnsafeCell` buffer, i.e. UB, not
/// merely a wrong answer.
pub fn run_cluster_verified<S, I, A>(topo: Topology, sizes: S, init: I, algo: &A) -> RtResult
where
    S: Fn(usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    A: Algo,
{
    run_cluster_verified_on(pipmcoll_fabric::from_env(topo), topo, sizes, init, algo)
}

/// [`run_cluster_verified`] over an explicit [`Fabric`]. The proof
/// obligation is fabric-independent: the happens-before analysis works on
/// the recorded schedule, and every fabric provides the same per-channel
/// FIFO matching semantics (enforced by the backend-conformance suite).
pub fn run_cluster_verified_on<S, I, A>(
    fabric: Arc<dyn Fabric>,
    topo: Topology,
    sizes: S,
    init: I,
    algo: &A,
) -> RtResult
where
    S: Fn(usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    A: Algo,
{
    let sched = record_with_sizes(topo, &sizes, |c| algo.run(c));
    if let Err(e) = sched.validate() {
        panic!("refusing to execute: schedule fails validation: {e}");
    }
    if let Err(e) = pipmcoll_sched::hb::check(&sched) {
        panic!("refusing to execute: schedule fails happens-before analysis: {e}");
    }
    run_cluster_on(fabric, topo, sizes, init, 1, |c| algo.run(c))
}

/// Run `algo` once per rank on real threads. Buffer sizes and send-buffer
/// contents are supplied per rank, exactly like the dataflow interpreter's
/// API — so the two backends can be cross-validated on identical inputs.
///
/// Prefer [`run_cluster_verified`] unless the algorithm's schedule has
/// already been proven race-free: this entry point executes whatever it is
/// given, and shared-buffer races are undefined behavior.
pub fn run_cluster<S, I, F>(topo: Topology, sizes: S, init: I, algo: F) -> RtResult
where
    S: Fn(usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    F: Fn(&mut RtComm) + Sync,
{
    run_cluster_timed(topo, sizes, init, 1, algo)
}

/// Run `iters` timed iterations of `algo` (shared state is reset between
/// iterations; scratch buffers are reused). Used by the benches.
///
/// The internode transport is chosen by the environment
/// (`PIPMCOLL_FABRIC`, see [`pipmcoll_fabric::from_env`]): in-process
/// channels by default, real loopback TCP with k lanes when
/// `PIPMCOLL_FABRIC=tcp` — which lets the entire test suite double as a
/// socket-transport soak without code changes.
pub fn run_cluster_timed<S, I, F>(
    topo: Topology,
    sizes: S,
    init: I,
    iters: usize,
    algo: F,
) -> RtResult
where
    S: Fn(usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    F: Fn(&mut RtComm) + Sync,
{
    run_cluster_on(
        pipmcoll_fabric::from_env(topo),
        topo,
        sizes,
        init,
        iters,
        algo,
    )
}

/// [`run_cluster_timed`] over an explicit [`Fabric`] — the backend-neutral
/// core every other entry point funnels into.
pub fn run_cluster_on<S, I, F>(
    fabric: Arc<dyn Fabric>,
    topo: Topology,
    sizes: S,
    init: I,
    iters: usize,
    algo: F,
) -> RtResult
where
    S: Fn(usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    F: Fn(&mut RtComm) + Sync,
{
    assert!(iters >= 1);
    let world = topo.world_size();
    let shared = Arc::new(ClusterShared::new(
        topo,
        Arc::clone(&fabric),
        &sizes,
        &init,
        (0..world).collect(),
        0,
    ));
    let elapsed = Mutex::new(Duration::ZERO);
    // Iteration framing must absorb a fail-stop cascade: a rank stuck in
    // a receive times out after one sync_timeout, then a node peer stuck
    // at a node barrier times out after another — so the world barrier
    // waits three before giving up itself.
    let frame_timeout = sync_timeout() * 3;
    let watchdog = Watchdog::spawn(Arc::clone(&shared));
    std::thread::scope(|scope| {
        for rank in 0..world {
            let shared = Arc::clone(&shared);
            let sizes = &sizes;
            let algo = &algo;
            let elapsed = &elapsed;
            scope.spawn(move || {
                let mut comm = RtComm::new(Arc::clone(&shared), rank, sizes(rank));
                if let Err(e) = shared.world_barrier.wait_within(frame_timeout) {
                    shared.record_failure(Some(rank), format!("start framing: {e}"));
                    return;
                }
                let t0 = Instant::now();
                for it in 0..iters {
                    comm.reset_iter();
                    // A rank that panics (failed assertion, bounds check)
                    // becomes a recorded failure, not a hung suite: the
                    // unwinding stops here, the rank is marked failed, and
                    // it keeps walking the framing barriers below so its
                    // peers are released (their own waits on it degrade
                    // into recorded timeouts).
                    if let Err(payload) =
                        std::panic::catch_unwind(AssertUnwindSafe(|| algo(&mut comm)))
                    {
                        comm.mark_failed(panic_detail(payload));
                    }
                    if let Err(e) = shared.world_barrier.wait_within(frame_timeout) {
                        shared.record_failure(Some(rank), format!("iteration framing: {e}"));
                        break;
                    }
                    if it + 1 < iters {
                        if rank == 0 {
                            shared.reset();
                        }
                        if let Err(e) = shared.world_barrier.wait_within(frame_timeout) {
                            shared.record_failure(Some(rank), format!("reset framing: {e}"));
                            break;
                        }
                    }
                }
                if rank == 0 {
                    if let Ok(mut g) = elapsed.lock() {
                        *g = t0.elapsed();
                    }
                }
            });
        }
    });
    watchdog.stop();
    let shared = Arc::try_unwrap(shared)
        .ok()
        .expect("all worker threads have exited");
    let (recv, mut failures) = shared.into_parts();
    failures.extend(fabric.drain_errors().into_iter().map(|e| RankFailure {
        rank: None,
        epoch: 0,
        detail: format!("fabric: {e}"),
    }));
    RtResult {
        recv,
        elapsed: elapsed.into_inner().unwrap_or_else(|e| e.into_inner()),
        iters,
        fabric_stats: fabric.stats(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_sched::verify::pattern;
    use pipmcoll_sched::{BufId, Comm, Region, RemoteRegion};

    #[test]
    fn pt2pt_roundtrip() {
        let topo = Topology::new(2, 1);
        let res = run_cluster(
            topo,
            |_| BufSizes::new(8, 8),
            |r| pattern(r, 8),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 0, Region::new(BufId::Send, 0, 8));
                } else {
                    c.recv(0, 0, Region::new(BufId::Recv, 0, 8));
                }
            },
        );
        assert_eq!(res.recv[1], pattern(0, 8));
    }

    #[test]
    fn shared_copy_and_flags() {
        let topo = Topology::new(1, 3);
        let res = run_cluster(
            topo,
            |_| BufSizes::new(16, 16),
            |r| pattern(r, 16),
            |c| {
                let l = c.local();
                if l == 0 {
                    c.post_addr(0, Region::new(BufId::Send, 0, 16));
                    c.wait_flag(0, 2);
                } else {
                    c.copy_in(
                        RemoteRegion::new(c.local_root(), 0, 0, 16),
                        Region::new(BufId::Recv, 0, 16),
                    );
                    c.signal(c.local_root(), 0);
                }
            },
        );
        assert_eq!(res.recv[1], pattern(0, 16));
        assert_eq!(res.recv[2], pattern(0, 16));
    }

    #[test]
    fn iterations_reset_state() {
        let topo = Topology::new(1, 2);
        let res = run_cluster_timed(
            topo,
            |_| BufSizes::new(4, 4),
            |r| pattern(r, 4),
            5,
            |c| {
                if c.local() == 0 {
                    c.post_addr(0, Region::new(BufId::Send, 0, 4));
                    c.wait_flag(0, 1); // would hang if flags weren't reset
                } else {
                    c.copy_in(
                        RemoteRegion::new(c.local_root(), 0, 0, 4),
                        Region::new(BufId::Recv, 0, 4),
                    );
                    c.signal(c.local_root(), 0);
                }
            },
        );
        assert_eq!(res.iters, 5);
        assert_eq!(res.recv[1], pattern(0, 4));
    }

    #[test]
    fn node_barriers_are_per_node() {
        let topo = Topology::new(2, 2);
        // Would deadlock if barriers spanned the world.
        let res = run_cluster(
            topo,
            |_| BufSizes::new(0, 0),
            |_| Vec::new(),
            |c| {
                c.node_barrier();
                c.node_barrier();
            },
        );
        assert_eq!(res.recv.len(), 4);
    }

    struct FlaggedSharedBcast;

    impl Algo for FlaggedSharedBcast {
        fn run<C: Comm>(&self, c: &mut C) {
            if c.local() == 0 {
                c.post_addr(0, Region::new(BufId::Send, 0, 16));
                c.wait_flag(0, 2);
            } else {
                c.copy_in(
                    RemoteRegion::new(c.local_root(), 0, 0, 16),
                    Region::new(BufId::Recv, 0, 16),
                );
                c.signal(c.local_root(), 0);
            }
        }
    }

    #[test]
    fn verified_runs_clean_algo() {
        let topo = Topology::new(1, 3);
        let res = run_cluster_verified(
            topo,
            |_| BufSizes::new(16, 16),
            |r| pattern(r, 16),
            &FlaggedSharedBcast,
        );
        assert_eq!(res.recv[1], pattern(0, 16));
        assert_eq!(res.recv[2], pattern(0, 16));
    }

    /// Two local peers copy-out into the same remote bytes with nothing
    /// ordering the writes. The barrier keeps the *schedule* free of
    /// structural complaints — only the happens-before race check sees it.
    struct UnorderedSharedWrites;

    impl Algo for UnorderedSharedWrites {
        fn run<C: Comm>(&self, c: &mut C) {
            if c.local() == 0 {
                c.post_addr(0, Region::new(BufId::Recv, 0, 8));
            } else {
                c.copy_out(
                    Region::new(BufId::Send, 0, 8),
                    RemoteRegion::new(c.local_root(), 0, 0, 8),
                );
            }
            c.node_barrier();
        }
    }

    #[test]
    #[should_panic(expected = "happens-before")]
    fn verified_refuses_racy_algo() {
        run_cluster_verified(
            Topology::new(1, 3),
            |_| BufSizes::new(8, 8),
            |r| pattern(r, 8),
            &UnorderedSharedWrites,
        );
    }

    #[test]
    fn pt2pt_roundtrip_over_tcp_lanes() {
        use pipmcoll_fabric::{TcpConfig, TcpFabric};
        let topo = Topology::new(2, 2);
        let fabric = Arc::new(
            TcpFabric::connect(
                topo,
                TcpConfig {
                    lanes: 2,
                    ..TcpConfig::default()
                },
            )
            .expect("loopback fabric"),
        );
        let res = run_cluster_on(
            fabric,
            topo,
            |_| BufSizes::new(8, 8),
            |r| pattern(r, 8),
            2,
            |c| {
                if c.node() == 0 {
                    c.send(c.rank() + 2, 5, Region::new(BufId::Send, 0, 8));
                } else {
                    c.recv(c.rank() - 2, 5, Region::new(BufId::Recv, 0, 8));
                }
            },
        );
        assert_eq!(res.recv[2], pattern(0, 8));
        assert_eq!(res.recv[3], pattern(1, 8));
        // Two iterations, two senders, one per lane.
        assert_eq!(res.fabric_stats.total_msgs(), 4);
        assert_eq!(res.fabric_stats.lanes.len(), 2);
        assert_eq!(res.fabric_stats.lanes[0].msgs, 2);
        assert_eq!(res.fabric_stats.lanes[1].msgs, 2);
    }

    #[test]
    fn clean_runs_report_no_failures() {
        let topo = Topology::new(2, 1);
        let res = run_cluster(
            topo,
            |_| BufSizes::new(8, 8),
            |r| pattern(r, 8),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 0, Region::new(BufId::Send, 0, 8));
                } else {
                    c.recv(0, 0, Region::new(BufId::Recv, 0, 8));
                }
            },
        );
        res.expect_clean();
        assert!(res.ok());
    }

    #[test]
    fn rank_panic_becomes_a_recorded_failure() {
        let topo = Topology::new(1, 2);
        // Pre-fail-stop, a panicking rank aborted the whole process; now
        // it must degrade into a structured failure naming the rank.
        let res = run_cluster(
            topo,
            |_| BufSizes::new(4, 4),
            |r| pattern(r, 4),
            |c| {
                if c.rank() == 1 {
                    panic!("deliberate test panic");
                }
            },
        );
        assert!(!res.ok());
        assert_eq!(res.failures.len(), 1, "{:?}", res.failures);
        assert_eq!(res.failures[0].rank, Some(1));
        assert!(
            res.failures[0].detail.contains("deliberate test panic"),
            "{}",
            res.failures[0].detail
        );
    }

    #[test]
    fn watchdog_report_names_the_stuck_channel() {
        use pipmcoll_fabric::InProcFabric;
        // A receive blocked on a channel no one sends on must be visible
        // in the fabric diagnostic the watchdog renders.
        let fabric = Arc::new(InProcFabric::new());
        let f2 = Arc::clone(&fabric);
        let t = std::thread::spawn(move || {
            let _ = f2.recv_within((1, 0, 9), Duration::from_millis(300));
        });
        std::thread::sleep(Duration::from_millis(50));
        let report = watchdog_report(Duration::from_secs(21), &fabric.diag());
        assert!(report.contains("no progress for 21s"), "{report}");
        assert!(report.contains("1 -> 0 tag 9"), "{report}");
        t.join().unwrap();
    }

    #[test]
    fn temps_reused_across_iterations() {
        let topo = Topology::new(1, 1);
        let res = run_cluster_timed(
            topo,
            |_| BufSizes::new(8, 8),
            |_| vec![7u8; 8],
            3,
            |c| {
                let t = c.alloc_temp(8);
                c.local_copy(Region::new(BufId::Send, 0, 8), Region::new(t, 0, 8));
                c.local_copy(Region::new(t, 0, 8), Region::new(BufId::Recv, 0, 8));
            },
        );
        assert_eq!(res.recv[0], vec![7u8; 8]);
    }
}
