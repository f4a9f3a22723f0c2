//! Fault-tolerant completion: detect rank deaths, agree on the failed
//! set, shrink to the survivors, and re-run the collective until it
//! completes — the ULFM-style survive-and-complete loop (DESIGN.md §3e).
//!
//! [`run_cluster_ft`] wraps each collective attempt in an *epoch*:
//!
//! 1. **Attempt** — the algorithm runs on every current member, with
//!    every blocking wait bounded by `op_timeout = sync_timeout() / 4`
//!    so one detect → agree → retry cycle fits the `3 × sync_timeout`
//!    completion budget. A rank scheduled to die by the
//!    [`FaultPlan`] panics with a
//!    [`RankKilled`] payload mid-stream and
//!    its thread exits without another word — exactly the silence a
//!    crashed process leaves behind.
//! 2. **Agreement** — every live member runs `agree`: an
//!    all-to-all sweep gossip over suspicion bitmaps. Suspicion seeds
//!    come from the attempt (receive timeouts name the starved
//!    channel's sender; the fabric's [`health`](pipmcoll_fabric::Fabric::health)
//!    view names peers with exhausted retransmits and
//!    heartbeat-silent nodes), and agreement itself is the refutation
//!    step: any member heard from during a sweep is alive, no matter
//!    who suspected it, so cascade suspicion of a merely-slow rank
//!    clears while a genuinely dead rank times out sweep after sweep.
//!    Members commit once nobody's set changed for two sweeps — a
//!    one-sweep lag that makes the commit sweep the same on every
//!    survivor (see the convergence note on `agree`).
//! 3. **Shrink + retry** — survivors re-rank densely into
//!    `Topology::new(survivors, 1)` and re-execute the algorithm on a
//!    `ShrunkComm`, whose wire tags carry the epoch
//!    (`0xFE00_0000 | epoch << 16 | tag`) so stale frames from the
//!    failed attempt can never satisfy a retry receive. Send buffers
//!    are the prefix of each survivor's original contribution, matching
//!    what an in-process run on the survivor topology would use.
//!
//! Known limits (documented, not accidental): fail-stop only (no
//! byzantine behaviour), no rejoin — a rank agreed dead stays dead even
//! if it was merely slow — and world size is capped at 64 ranks by the
//! `u64` suspicion bitmaps.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipmcoll_fabric::{sync_timeout, ChanKey, Fabric, FabricError, FabricStats};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_sched::{BufId, BufSizes, Comm, FlagId, Region, RemoteRegion, Req, Slot, Tag};

use crate::cluster::{panic_detail, Algo, ClusterShared, RankFailure};
use crate::comm::RtComm;
use crate::fault::{FaultComm, FaultPlan, OpCounters, RankKilled};
use crate::shared::SharedBuf;

/// Bail-out bound on agreement sweeps (pathology guard; a converging
/// run commits in 1–3 sweeps).
const MAX_SWEEPS: u32 = 6;
/// Maximum attempts (first try + retries) before giving up.
pub const MAX_EPOCHS: u32 = 4;

/// A set of ranks as a 64-bit bitmap — the unit of suspicion gossip.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct RankSet(u64);

impl RankSet {
    /// The empty set.
    pub fn new() -> RankSet {
        RankSet(0)
    }

    /// Construct from raw bits.
    pub fn from_bits(bits: u64) -> RankSet {
        RankSet(bits)
    }

    /// The raw bitmap.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Add `r` to the set.
    pub fn insert(&mut self, r: usize) {
        debug_assert!(r < 64, "RankSet supports world sizes up to 64");
        self.0 |= 1u64 << r;
    }

    /// Remove `r` from the set.
    pub fn remove(&mut self, r: usize) {
        self.0 &= !(1u64 << r);
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: usize) -> bool {
        r < 64 && self.0 & (1u64 << r) != 0
    }

    /// Union `other` into this set.
    pub fn union(&mut self, other: RankSet) {
        self.0 |= other.0;
    }

    /// Remove every rank in `other` from this set.
    pub fn subtract(&mut self, other: RankSet) {
        self.0 &= !other.0;
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of ranks in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// The ranks in ascending order.
    pub fn ranks(&self) -> Vec<usize> {
        (0..64).filter(|&r| self.contains(r)).collect()
    }
}

impl std::fmt::Debug for RankSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RankSet{:?}", self.ranks())
    }
}

/// One gossip message an [`AgreeCore`] wants sent: `payload` to
/// original rank `to` at sweep `sweep` of the current agreement. The
/// driver owns tag packing (rt uses `fabric::tag::agree`, the service
/// uses `fabric::tag::svc_agree`) so the two layers' agreements can
/// never collide on the wire.
#[derive(Clone, Debug)]
pub struct AgreeMsg {
    /// Destination (original world rank).
    pub to: usize,
    /// The sweep number this message belongs to.
    pub sweep: u32,
    /// `[suspects: u64 LE][flags: u64 LE]`.
    pub payload: Vec<u8>,
}

/// The verdict of a completed agreement: either a quorate commit or a
/// refusal to commit from the minority side of a partition.
///
/// The quorum rule closes the split-brain hole in plain sweep gossip:
/// under a network partition each side's sweeps converge on "the other
/// side is dead", and without a quorum check both sides would commit
/// *different* failed sets and shrink onto divergent groups. A core
/// now commits only when the surviving group (members minus the failed
/// set) holds **quorum** in the epoch's member group: a strict
/// majority, or — the standard even-split tie-breaker — exactly half
/// *including the group's lowest-ranked member*. At most one side of
/// any partition can satisfy that, so two different failed sets can
/// never both commit; the tie-breaker keeps a genuine death of half
/// the group recoverable (the low-rank half continues) without
/// reopening the divergence hole. The non-quorate side resolves
/// [`AgreeOutcome::QuorumLost`] instead: a typed refusal that its
/// driver surfaces as an error rather than retrying into the
/// partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreeOutcome {
    /// The surviving group is a strict majority: the failed set is
    /// committed and (if non-empty or anyone saw a fault) a retry on
    /// the shrunken group is wanted.
    Commit {
        /// The agreed failed set.
        failed: RankSet,
        /// Whether the epoch must be retried.
        retry: bool,
    },
    /// The reachable group is not a strict majority of the members:
    /// this core is (or may be) on the minority side of a partition
    /// and refuses to commit a failed set that could diverge from the
    /// majority's.
    QuorumLost {
        /// Members this core could still reach (itself included).
        survivors: RankSet,
        /// The full member group of the epoch.
        members: RankSet,
    },
}

/// What an [`AgreeCore`] driver should do next.
#[derive(Clone, Debug)]
pub enum AgreeStep {
    /// Poll [`AgreeCore::outstanding`] for sweep [`AgreeCore::sweep`]
    /// messages, [`AgreeCore::deliver`] any arrivals, then step again.
    Poll,
    /// The sweep finalized early; idle until the instant (keeping all
    /// members' sweeps in lockstep), then step again.
    Pad(Instant),
    /// A new sweep began: send these, then keep polling.
    Sweep(Vec<AgreeMsg>),
    /// Committed — read [`AgreeCore::committed`].
    Done,
}

/// The sans-io core of crash-tolerant failed-set agreement: all-to-all
/// sweep gossip over suspicion bitmaps, factored out of the blocking
/// `agree` so the service engine can drive the identical protocol
/// from a non-blocking poll loop (one core per rank it owns) without
/// parking its scheduler thread.
///
/// Protocol (unchanged from the blocking original): each sweep `s`
/// (bounded by a deadline `Δ` after its start), every live member sends
/// `[suspects: u64 LE][flags: u64 LE]` (bit 0: someone wants a retry,
/// bit 1: my set changed last sweep) to *every* other member, then
/// collects the same from everyone until the sweep deadline. Receipt is
/// proof of life — a member heard from this sweep is cleared from the
/// suspect set even if gossip named it — while a member silent past the
/// deadline is suspected. A member that sees any fault signal pads each
/// sweep to the full deadline, keeping members' sweeps in lockstep, and
/// keeps sweeping until its set is stable **and** no peer reported a
/// change for the previous sweep — so every survivor commits the same
/// set on the same sweep. A fault-free run short-circuits: all-zero
/// payloads from everyone commits the empty set after sweep 0 with no
/// padding.
///
/// Driving contract: call [`AgreeCore::begin`] once and send its
/// messages (a failed send goes back via [`AgreeCore::send_failed`]),
/// then loop on [`AgreeCore::step`] — `Poll` means try to receive from
/// [`AgreeCore::outstanding`] at the current sweep and deliver,
/// `Pad(t)` means nothing to do until `t`, `Sweep(msgs)` means send
/// those, `Done` means [`AgreeCore::committed`] has the verdict.
pub struct AgreeCore {
    me: usize,
    members: Vec<usize>,
    delta: Duration,
    suspects: RankSet,
    want_retry: bool,
    changed_prev: bool,
    sweep: u32,
    /// Suspect set snapshot at the start of the current sweep.
    before: RankSet,
    alive: RankSet,
    outstanding: Vec<usize>,
    peer_changed_prev: bool,
    fault_seen: bool,
    deadline: Instant,
    /// Current sweep finalized (its verdict folded in), padding until
    /// the deadline before the next sweep starts.
    finalized: bool,
    committed: Option<AgreeOutcome>,
}

impl AgreeCore {
    /// A core for member `me` of `members`, seeded with `seed`
    /// suspicions; `want_retry` marks this member as having seen a
    /// fault during the attempt. `delta` is the per-sweep window (the
    /// blocking driver uses `2 × op_timeout`).
    pub fn new(
        me: usize,
        members: Vec<usize>,
        seed: RankSet,
        want_retry: bool,
        delta: Duration,
    ) -> AgreeCore {
        let mut suspects = seed;
        suspects.remove(me);
        AgreeCore {
            me,
            members,
            delta,
            suspects,
            want_retry,
            changed_prev: false,
            sweep: 0,
            before: RankSet::new(),
            alive: RankSet::new(),
            outstanding: Vec::new(),
            peer_changed_prev: false,
            fault_seen: false,
            deadline: Instant::now(),
            finalized: false,
            committed: None,
        }
    }

    /// Start sweep 0 at `now`: returns the messages to send.
    pub fn begin(&mut self, now: Instant) -> Vec<AgreeMsg> {
        self.start_sweep(now)
    }

    /// The current sweep number (for tag packing while polling).
    pub fn sweep(&self) -> u32 {
        self.sweep
    }

    /// Members not yet heard from this sweep.
    pub fn outstanding(&self) -> &[usize] {
        &self.outstanding
    }

    /// The verdict, once [`AgreeStep::Done`]: a quorate
    /// [`AgreeOutcome::Commit`] with the failed set and retry flag, or
    /// [`AgreeOutcome::QuorumLost`] when this core ended on the
    /// minority side of a partition.
    pub fn committed(&self) -> Option<AgreeOutcome> {
        self.committed
    }

    /// Record that sending this sweep's gossip to `q` failed — `q` is
    /// suspected (refutable: a receipt from it this sweep clears it).
    pub fn send_failed(&mut self, q: usize) {
        if q != self.me {
            self.suspects.insert(q);
        }
    }

    /// Deliver one gossip payload received from `q` at the current
    /// sweep. A malformed payload still proves `q` alive.
    pub fn deliver(&mut self, q: usize, payload: &[u8]) {
        if self.committed.is_some() || self.finalized {
            return;
        }
        if payload.len() == 16 {
            let su = u64::from_le_bytes(payload[0..8].try_into().unwrap());
            let fl = u64::from_le_bytes(payload[8..16].try_into().unwrap());
            self.suspects.union(RankSet::from_bits(su));
            self.want_retry |= fl & 1 != 0;
            self.peer_changed_prev |= fl & 2 != 0;
            self.fault_seen |= su != 0 || fl != 0;
        }
        self.alive.insert(q);
        self.outstanding.retain(|&r| r != q);
    }

    /// Advance the state machine at `now`.
    pub fn step(&mut self, now: Instant) -> AgreeStep {
        if self.committed.is_some() {
            return AgreeStep::Done;
        }
        if !self.finalized {
            if !self.outstanding.is_empty() && now < self.deadline {
                return AgreeStep::Poll;
            }
            // Finalize this sweep: leftover silence is suspicion, any
            // receipt is proof of life, and I am certainly not dead.
            for q in std::mem::take(&mut self.outstanding) {
                self.suspects.insert(q);
            }
            self.suspects.subtract(self.alive);
            self.suspects.remove(self.me);
            let changed = self.suspects != self.before;
            if self.sweep == 0
                && self.before.is_empty()
                && !self.want_retry
                && !self.fault_seen
                && !changed
            {
                // Fault-free fast path: everyone reported all-zero —
                // every member is reachable, so quorum is trivial.
                self.committed = Some(AgreeOutcome::Commit {
                    failed: RankSet::new(),
                    retry: false,
                });
                return AgreeStep::Done;
            }
            if (self.sweep >= 1 && !changed && !self.peer_changed_prev)
                || self.sweep + 1 >= MAX_SWEEPS
            {
                let retry = self.want_retry || !self.suspects.is_empty();
                self.committed = Some(self.resolve(self.suspects, retry));
                return AgreeStep::Done;
            }
            self.changed_prev = changed;
            self.finalized = true;
        }
        // Fault mode: pad to the deadline so every member's next sweep
        // starts at most `entry skew` apart, which Δ absorbs.
        if now < self.deadline {
            return AgreeStep::Pad(self.deadline);
        }
        self.sweep += 1;
        AgreeStep::Sweep(self.start_sweep(now))
    }

    /// Apply the quorum rule to a converged suspect set: commit only
    /// if the surviving group holds quorum in the epoch's member group
    /// — a strict majority, or exactly half that includes the group's
    /// lowest-ranked member (the even-split tie-breaker) — otherwise
    /// resolve [`AgreeOutcome::QuorumLost`]. At most one side of any
    /// partition can hold quorum under this rule (the halves of an
    /// even split are disjoint, so only one contains the lowest rank),
    /// so two divergent failed sets can never both commit.
    fn resolve(&self, failed: RankSet, retry: bool) -> AgreeOutcome {
        let mut members = RankSet::new();
        for &m in &self.members {
            if m < 64 {
                members.insert(m);
            }
        }
        let mut survivors = members;
        survivors.subtract(failed);
        let n = members.len();
        let quorate = survivors.len() * 2 > n
            || (survivors.len() * 2 == n
                && members
                    .ranks()
                    .first()
                    .is_some_and(|&lo| survivors.contains(lo)));
        if quorate {
            AgreeOutcome::Commit { failed, retry }
        } else {
            AgreeOutcome::QuorumLost { survivors, members }
        }
    }

    fn start_sweep(&mut self, now: Instant) -> Vec<AgreeMsg> {
        let flags: u64 = (self.want_retry as u64) | ((self.changed_prev as u64) << 1);
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&self.suspects.bits().to_le_bytes());
        payload.extend_from_slice(&flags.to_le_bytes());
        self.before = self.suspects;
        self.alive = RankSet::new();
        self.outstanding = self
            .members
            .iter()
            .copied()
            .filter(|&q| q != self.me)
            .collect();
        self.peer_changed_prev = false;
        self.fault_seen = false;
        self.deadline = now + self.delta;
        self.finalized = false;
        self.outstanding
            .iter()
            .map(|&to| AgreeMsg {
                to,
                sweep: self.sweep,
                payload: payload.clone(),
            })
            .collect()
    }
}

/// Crash-tolerant agreement on the failed set — the blocking driver
/// over [`AgreeCore`] used by the thread runtime (see the core's docs
/// for the protocol; the service engine drives the same core from its
/// non-blocking poll loop).
///
/// Returns the core's [`AgreeOutcome`]: a quorate commit, or
/// `QuorumLost` when this member ended on the minority side of a
/// partition.
fn agree(
    fabric: &Arc<dyn Fabric>,
    me: usize,
    members: &[usize],
    seed: RankSet,
    want_retry: bool,
    epoch: u32,
    op_timeout: Duration,
) -> AgreeOutcome {
    let poll = (op_timeout / 32).clamp(Duration::from_millis(1), Duration::from_millis(10));
    let mut core = AgreeCore::new(me, members.to_vec(), seed, want_retry, op_timeout * 2);
    let mut to_send = core.begin(Instant::now());
    loop {
        for m in to_send.drain(..) {
            let tag = pipmcoll_fabric::tag::agree(epoch, m.sweep);
            if fabric.send((me, m.to, tag), m.payload).is_err() {
                core.send_failed(m.to);
            }
        }
        match core.step(Instant::now()) {
            AgreeStep::Done => return core.committed().expect("verdict set on Done"),
            AgreeStep::Sweep(msgs) => to_send = msgs,
            AgreeStep::Pad(until) => {
                let now = Instant::now();
                if until > now {
                    std::thread::sleep(until - now);
                }
            }
            AgreeStep::Poll => {
                // Round-robin short receives instead of one long receive
                // per member: a dead member must not eat the whole window
                // before a slow-but-alive member's message gets looked at.
                let tag = pipmcoll_fabric::tag::agree(epoch, core.sweep());
                for q in core.outstanding().to_vec() {
                    if let Ok(p) = fabric.recv_within((q, me, tag), poll) {
                        core.deliver(q, &p);
                    }
                }
            }
        }
    }
}

/// The per-attempt outcome one live member reports to the coordinator.
enum Verdict {
    /// This member committed a quorate failed set.
    Commit { agreed: RankSet, retry: bool },
    /// This member refused to commit: it could only reach a minority.
    QuorumLost { survivors: RankSet },
}

/// Translate a member's [`AgreeOutcome`] into its coordinator verdict.
fn verdict_of(outcome: AgreeOutcome) -> Verdict {
    match outcome {
        AgreeOutcome::Commit { failed, retry } => Verdict::Commit {
            agreed: failed,
            retry,
        },
        AgreeOutcome::QuorumLost { survivors, .. } => Verdict::QuorumLost { survivors },
    }
}

/// Result of a fault-tolerant cluster run.
pub struct FtResult {
    /// Final receive buffers by *original* rank; `None` for ranks that
    /// were killed or agreed dead. When the run retried, the surviving
    /// ranks' buffers come from the last (successful) attempt on the
    /// shrunken topology.
    pub recv: Vec<Option<Vec<u8>>>,
    /// The accumulated agreed failed set (original ranks, ascending).
    pub failed: Vec<usize>,
    /// Per original rank: the union of failed sets it committed across
    /// its completed agreements (`None` if it never completed one).
    /// Every survivor's entry must be identical — that is the whole
    /// point.
    pub committed: Vec<Option<Vec<usize>>>,
    /// Ranks that resolved [`AgreeOutcome::QuorumLost`] — they could
    /// only reach a minority and refused to commit a failed set. They
    /// stop participating (no divergent shrink) and their entry in
    /// [`FtResult::committed`] stays whatever earlier quorate epochs
    /// committed.
    pub quorum_lost: Vec<usize>,
    /// Ranks killed by the fault plan, in the order they died.
    pub killed: Vec<usize>,
    /// Attempts executed (1 = clean first try).
    pub epochs: usize,
    /// Wall clock for the whole detect → agree → retry loop.
    pub elapsed: Duration,
    /// Traffic counters of the underlying fabric.
    pub fabric_stats: FabricStats,
    /// Diagnostic trail: per-rank failures, kill notices, watchdogless
    /// run-level events. Non-empty whenever the run was not clean.
    pub failures: Vec<RankFailure>,
}

impl FtResult {
    /// Whether the run completed with no faults at all.
    pub fn clean(&self) -> bool {
        self.failed.is_empty() && self.killed.is_empty() && self.failures.is_empty()
    }
}

/// Run `algo` with survive-and-complete semantics over an explicit
/// fabric: detect deaths, agree on the failed set, shrink to the
/// survivors and retry, for at most [`MAX_EPOCHS`] attempts.
///
/// `sizes` is consulted per attempt topology — `sizes(topo, r)` for the
/// first attempt, `sizes(sub_topo, j)` for retries — because a shrunken
/// collective moves shrunken buffers. `init` supplies each *original*
/// rank's full send contribution; retries use the prefix the shrunken
/// sizes call for. Faults are injected per `plan` (use
/// [`FaultPlan::from_env`] to honour `PIPMCOLL_FAULT`).
pub fn run_cluster_ft<S, I, A>(
    fabric: Arc<dyn Fabric>,
    topo: Topology,
    sizes: S,
    init: I,
    algo: &A,
    plan: &FaultPlan,
) -> FtResult
where
    S: Fn(Topology, usize) -> BufSizes + Sync,
    I: Fn(usize) -> Vec<u8> + Sync,
    A: Algo,
{
    let world = topo.world_size();
    assert!(world <= 64, "fault-tolerant runs support up to 64 ranks");
    let op_timeout = sync_timeout() / 4;
    let t0 = Instant::now();

    let counters: Vec<Arc<OpCounters>> = (0..world)
        .map(|_| Arc::new(OpCounters::default()))
        .collect();
    let killed_log: Mutex<Vec<RankKilled>> = Mutex::new(Vec::new());
    let outputs: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; world]);
    let mut committed: Vec<Option<RankSet>> = vec![None; world];
    let mut failures: Vec<RankFailure> = Vec::new();
    let mut failed_total = RankSet::new();
    let mut quorum_lost_total = RankSet::new();
    let mut members: Vec<usize> = (0..world).collect();
    let mut epoch: u32 = 0;

    loop {
        let verdicts: Mutex<Vec<Option<Verdict>>> = Mutex::new((0..world).map(|_| None).collect());
        if epoch == 0 {
            // First attempt: the full topology, real intranode shared
            // ops, one RtComm per rank over the shared node state.
            let sizes0 = |r: usize| sizes(topo, r);
            let shared = Arc::new(ClusterShared::new(
                topo,
                Arc::clone(&fabric),
                &sizes0,
                &init,
            ));
            std::thread::scope(|scope| {
                for rank in 0..world {
                    let shared = Arc::clone(&shared);
                    let counters = Arc::clone(&counters[rank]);
                    let (verdicts, killed_log, fabric, sizes, plan) =
                        (&verdicts, &killed_log, &fabric, &sizes, plan);
                    let members = &members;
                    scope.spawn(move || {
                        let mut comm = RtComm::new(Arc::clone(&shared), rank, sizes(topo, rank));
                        comm.set_wait_timeout(op_timeout);
                        if let Err(e) = shared.world_barrier.wait_within(sync_timeout() * 3) {
                            shared.record_failure(Some(rank), format!("start framing: {e}"));
                            return;
                        }
                        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let mut fc = FaultComm::new(&mut comm, rank, plan, counters);
                            algo.run(&mut fc);
                        }));
                        if let Err(payload) = attempt {
                            if let Some(k) = payload.downcast_ref::<RankKilled>() {
                                // Injected death: fall silent immediately —
                                // no failure record, no agreement. Peers
                                // must discover this the hard way.
                                killed_log.lock().unwrap().push(*k);
                                return;
                            }
                            comm.mark_failed(panic_detail(payload));
                        }
                        let seed = gather_suspects(&comm.suspected(), fabric, topo, rank, members);
                        let want_retry = comm.failed() || !seed.is_empty();
                        let outcome = agree(fabric, rank, members, seed, want_retry, 0, op_timeout);
                        verdicts.lock().unwrap()[rank] = Some(verdict_of(outcome));
                    });
                }
            });
            let shared = Arc::try_unwrap(shared)
                .ok()
                .expect("all epoch-0 threads have exited");
            let (recv, fails) = shared.into_parts();
            failures.extend(fails);
            let mut out = outputs.lock().unwrap();
            for (r, bytes) in recv.into_iter().enumerate() {
                out[r] = Some(bytes);
            }
        } else {
            // Retry: survivors only, densely re-ranked, ppn = 1 — the
            // intranode phases degenerate to self-ops and everything
            // else is point-to-point over epoch-tagged fabric channels.
            let survivors = members.clone();
            let sub_topo = Topology::new(survivors.len(), 1);
            let failures_mx: Mutex<Vec<RankFailure>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for (j, &old) in survivors.iter().enumerate() {
                    let counters = Arc::clone(&counters[old]);
                    let (verdicts, killed_log, outputs, failures_mx, fabric, sizes, init, plan) = (
                        &verdicts,
                        &killed_log,
                        &outputs,
                        &failures_mx,
                        &fabric,
                        &sizes,
                        &init,
                        plan,
                    );
                    let survivors = &survivors;
                    let members = &members;
                    scope.spawn(move || {
                        let sz = sizes(sub_topo, j);
                        let full = init(old);
                        assert!(
                            full.len() >= sz.send,
                            "rank {old}: original contribution ({} bytes) shorter than \
                             the shrunken send size ({})",
                            full.len(),
                            sz.send
                        );
                        let mut comm = ShrunkComm::new(
                            Arc::clone(fabric),
                            sub_topo,
                            survivors.clone(),
                            j,
                            sz,
                            full[..sz.send].to_vec(),
                            epoch,
                            op_timeout,
                        );
                        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let mut fc = FaultComm::new(&mut comm, old, plan, counters);
                            algo.run(&mut fc);
                        }));
                        if let Err(payload) = attempt {
                            if let Some(k) = payload.downcast_ref::<RankKilled>() {
                                killed_log.lock().unwrap().push(*k);
                                return;
                            }
                            comm.mark_failed(panic_detail(payload));
                        }
                        // Health evidence is phrased in original-topology
                        // node pairs and rank ids, so map it with the
                        // original topology even on a shrunken attempt.
                        let seed = gather_suspects(&comm.suspected(), fabric, topo, old, members);
                        let want_retry = comm.failed.is_some() || !seed.is_empty();
                        let outcome =
                            agree(fabric, old, members, seed, want_retry, epoch, op_timeout);
                        verdicts.lock().unwrap()[old] = Some(verdict_of(outcome));
                        if let Some(detail) = comm.failed.take() {
                            failures_mx.lock().unwrap().push(RankFailure {
                                rank: Some(old),
                                detail,
                            });
                        }
                        outputs.lock().unwrap()[old] = Some(comm.into_recv());
                    });
                }
            });
            failures.extend(failures_mx.into_inner().unwrap_or_else(|e| e.into_inner()));
        }
        epoch += 1;

        // Coordinate: every member that completed agreement must have
        // committed the same verdict. A member that resolved
        // QuorumLost committed nothing — it drops out of the run (no
        // divergent shrink) with a per-rank failure record.
        let verdicts = verdicts.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut agreed: Option<RankSet> = None;
        let mut retry = false;
        let mut split = false;
        let mut lost_now = RankSet::new();
        for (r, v) in verdicts.iter().enumerate() {
            let Some(v) = v else { continue };
            match v {
                Verdict::Commit {
                    agreed: a,
                    retry: rt,
                } => {
                    let mut total = committed[r].unwrap_or_default();
                    total.union(*a);
                    committed[r] = Some(total);
                    retry |= rt;
                    match agreed {
                        None => agreed = Some(*a),
                        Some(x) if x != *a => split = true,
                        Some(_) => {}
                    }
                }
                Verdict::QuorumLost { survivors } => {
                    lost_now.insert(r);
                    failures.push(RankFailure {
                        rank: Some(r),
                        detail: format!(
                            "quorum lost at epoch {}: only {:?} of {} members reachable — \
                             refusing to commit a minority failed set",
                            epoch - 1,
                            survivors.ranks(),
                            members.len()
                        ),
                    });
                }
            }
        }
        quorum_lost_total.union(lost_now);
        let agreed = agreed.unwrap_or_default();
        if split {
            failures.push(RankFailure {
                rank: None,
                detail: format!(
                    "agreement split at epoch {}: survivors committed different failed sets",
                    epoch - 1
                ),
            });
            break;
        }
        failed_total.union(agreed);
        let killed_now: RankSet = {
            let g = killed_log.lock().unwrap();
            let mut s = RankSet::new();
            for k in g.iter() {
                s.insert(k.rank);
            }
            s
        };
        members
            .retain(|&r| !agreed.contains(r) && !killed_now.contains(r) && !lost_now.contains(r));
        if !retry {
            // No quorate member wants a retry. A symmetric partition
            // lands here with every member having resolved QuorumLost:
            // nothing was committed, nothing diverged, the run ends
            // with the refusals on record.
            break;
        }
        if members.is_empty() {
            failures.push(RankFailure {
                rank: None,
                detail: "no survivors left to retry with".into(),
            });
            break;
        }
        if epoch >= MAX_EPOCHS {
            failures.push(RankFailure {
                rank: None,
                detail: format!("giving up after {MAX_EPOCHS} attempts with faults persisting"),
            });
            break;
        }
    }

    let killed_log = killed_log.into_inner().unwrap_or_else(|e| e.into_inner());
    for k in &killed_log {
        failures.push(RankFailure {
            rank: Some(k.rank),
            detail: format!("killed by fault plan ({} #{})", k.op, k.at),
        });
    }
    failures.extend(fabric.drain_errors().into_iter().map(|e| RankFailure {
        rank: None,
        detail: format!("fabric: {e}"),
    }));
    let mut recv = outputs.into_inner().unwrap_or_else(|e| e.into_inner());
    for (r, slot) in recv.iter_mut().enumerate() {
        if !members.contains(&r) {
            *slot = None;
        }
    }
    FtResult {
        recv,
        failed: failed_total.ranks(),
        committed: committed
            .into_iter()
            .map(|c| c.map(|s| s.ranks()))
            .collect(),
        quorum_lost: quorum_lost_total.ranks(),
        killed: killed_log.iter().map(|k| k.rank).collect(),
        epochs: epoch as usize,
        elapsed: t0.elapsed(),
        fabric_stats: fabric.stats(),
        failures,
    }
}

/// Merge a rank's own suspicion evidence with the fabric's health view:
/// peers whose retransmits exhausted, plus every rank on a node the
/// heartbeat sideband reports silent (from this rank's node's view).
///
/// Only current `members` can be suspected: the fabric keeps reporting
/// a partitioned-away or long-dead node as silent forever, and seeding
/// agreement with ranks that were already committed dead would demand a
/// retry every epoch — spinning the runner to [`MAX_EPOCHS`] after the
/// surviving group has already completed cleanly.
fn gather_suspects(
    own: &[usize],
    fabric: &Arc<dyn Fabric>,
    topo: Topology,
    me: usize,
    members: &[usize],
) -> RankSet {
    let mut s = RankSet::new();
    for &r in own {
        if r < 64 {
            s.insert(r);
        }
    }
    let health = fabric.health();
    for d in health.dead_peers {
        if d.peer < 64 {
            s.insert(d.peer);
        }
    }
    let my_node = topo.node_of(me);
    for (a, b) in health.suspected_nodes {
        if a == my_node && b < topo.nodes() {
            for r in topo.ranks_on_node(b) {
                s.insert(r);
            }
        }
    }
    s.remove(me);
    let mut live = RankSet::new();
    for &m in members {
        if m < 64 {
            live.insert(m);
        }
    }
    let mut out = RankSet::new();
    for r in s.ranks() {
        if live.contains(r) {
            out.insert(r);
        }
    }
    out
}

/// Per-request state of a [`ShrunkComm`] (sends complete at issue).
enum SReq {
    SendDone,
    RecvPending { chan: ChanKey, to: Region },
    RecvDone,
}

/// The survivors' communicator for retry epochs: a dense re-ranking of
/// the survivor set as `Topology::new(n, 1)`.
///
/// Fabric channels keep using *original* rank ids (the mesh was built
/// for the original topology), while tags are remapped to
/// `fabric::tag::retry(epoch, tag)` so a stale frame from a failed
/// attempt can never match a retry receive. With ppn = 1 every
/// intranode op (boards, flags, copies, node barriers) involves only
/// the rank itself, so the whole node state lives inside this struct.
pub(crate) struct ShrunkComm {
    fabric: Arc<dyn Fabric>,
    topo: Topology,
    /// New rank → original rank.
    old: Vec<usize>,
    me: usize,
    sizes: BufSizes,
    send: Arc<SharedBuf>,
    recv: Arc<SharedBuf>,
    temps: Vec<Arc<SharedBuf>>,
    /// Own address board: slot → (buffer, offset, posted length).
    board: HashMap<Slot, (BufId, usize, usize)>,
    /// Own flag counters.
    flags: HashMap<FlagId, u32>,
    reqs: Vec<SReq>,
    chan_pending: HashMap<ChanKey, VecDeque<usize>>,
    epoch: u32,
    wait_timeout: Duration,
    failed: Option<String>,
    /// Original ranks implicated by this rank's failures.
    suspected: Vec<usize>,
}

impl ShrunkComm {
    #[allow(clippy::too_many_arguments)]
    fn new(
        fabric: Arc<dyn Fabric>,
        topo: Topology,
        old: Vec<usize>,
        me: usize,
        sizes: BufSizes,
        send: Vec<u8>,
        epoch: u32,
        wait_timeout: Duration,
    ) -> Self {
        debug_assert_eq!(send.len(), sizes.send);
        ShrunkComm {
            fabric,
            topo,
            old,
            me,
            sizes,
            send: Arc::new(SharedBuf::from_vec(send)),
            recv: Arc::new(SharedBuf::new(sizes.recv)),
            temps: Vec::new(),
            board: HashMap::new(),
            flags: HashMap::new(),
            reqs: Vec::new(),
            chan_pending: HashMap::new(),
            epoch,
            wait_timeout,
            failed: None,
            suspected: Vec::new(),
        }
    }

    fn into_recv(self) -> Vec<u8> {
        Arc::try_unwrap(self.recv)
            .ok()
            .expect("no outstanding recv references")
            .into_vec()
    }

    fn suspected(&self) -> Vec<usize> {
        let mut s = self.suspected.clone();
        s.sort_unstable();
        s.dedup();
        s
    }

    fn mark_failed(&mut self, detail: String) {
        if self.failed.is_none() {
            self.failed = Some(detail);
        }
    }

    fn suspect_from(&mut self, e: &FabricError) {
        let old_me = self.old[self.me];
        let mut add = |r: usize| {
            if r != old_me {
                self.suspected.push(r);
            }
        };
        match e {
            FabricError::Timeout(d) => {
                for &r in &d.suspected {
                    add(r);
                }
                add(d.chan.0);
            }
            FabricError::PeerDead { peer, .. } => add(*peer),
            FabricError::PeerHung { chan, .. } => add(chan.1),
            _ => {}
        }
    }

    /// Remap a collective tag into this epoch's retry namespace.
    fn wire_tag(&self, tag: Tag) -> u32 {
        debug_assert!(tag <= 0xFFFF, "collective tags must fit 16 bits");
        pipmcoll_fabric::tag::retry(self.epoch, tag)
    }

    fn buf(&self, b: BufId) -> Arc<SharedBuf> {
        match b {
            BufId::Send => Arc::clone(&self.send),
            BufId::Recv => Arc::clone(&self.recv),
            BufId::Temp(i) => Arc::clone(&self.temps[i as usize]),
        }
    }

    /// Resolve a posted slot on *this* rank (ppn = 1: every remote
    /// region is self-referential).
    fn resolve(&self, rr: &RemoteRegion) -> Result<Region, String> {
        assert_eq!(
            rr.rank, self.me,
            "ppn = 1 shrink: remote regions can only reference the rank itself"
        );
        let Some(&(buf, offset, len)) = self.board.get(&rr.slot) else {
            return Err(format!(
                "slot {} not posted on shrunken rank {}",
                rr.slot, self.me
            ));
        };
        assert!(
            rr.offset + rr.len <= len,
            "remote access [{}, {}) exceeds posted window of {len}",
            rr.offset,
            rr.offset + rr.len,
        );
        Ok(Region::new(buf, offset + rr.offset, rr.len))
    }

    fn drain_until(&mut self, req: usize) {
        let chan = match &self.reqs[req] {
            SReq::RecvPending { chan, .. } => *chan,
            _ => return,
        };
        loop {
            if self.failed.is_some() {
                return;
            }
            match &self.reqs[req] {
                SReq::RecvDone | SReq::SendDone => return,
                SReq::RecvPending { .. } => {}
            }
            let next = self
                .chan_pending
                .get_mut(&chan)
                .and_then(|q| q.pop_front())
                .expect("pending receive must be queued on its channel");
            let payload = match self.fabric.recv_within(chan, self.wait_timeout) {
                Ok(p) => p,
                Err(e) => {
                    self.suspect_from(&e);
                    self.mark_failed(e.to_string());
                    return;
                }
            };
            let state = std::mem::replace(&mut self.reqs[next], SReq::RecvDone);
            match state {
                SReq::RecvPending { to, .. } => {
                    assert_eq!(payload.len(), to.len, "message size mismatch");
                    self.buf(to.buf).write(to.offset, &payload);
                }
                _ => unreachable!("queued request is pending by construction"),
            }
        }
    }
}

impl Comm for ShrunkComm {
    fn topo(&self) -> Topology {
        self.topo
    }

    fn rank(&self) -> usize {
        self.me
    }

    fn buf_sizes(&self) -> BufSizes {
        self.sizes
    }

    fn alloc_temp(&mut self, bytes: usize) -> BufId {
        self.temps.push(Arc::new(SharedBuf::new(bytes)));
        BufId::Temp((self.temps.len() - 1) as u16)
    }

    fn isend(&mut self, dst: usize, tag: Tag, src: Region) -> Req {
        if self.failed.is_none() {
            let payload = self.buf(src.buf).read_vec(src.offset, src.len);
            let chan = (self.old[self.me], self.old[dst], self.wire_tag(tag));
            if let Err(e) = self.fabric.send(chan, payload) {
                self.suspect_from(&e);
                self.mark_failed(e.to_string());
            }
        }
        self.reqs.push(SReq::SendDone);
        Req(self.reqs.len() - 1)
    }

    fn irecv(&mut self, src: usize, tag: Tag, dst: Region) -> Req {
        let id = self.reqs.len();
        if self.failed.is_some() {
            self.reqs.push(SReq::RecvDone);
            return Req(id);
        }
        let chan = (self.old[src], self.old[self.me], self.wire_tag(tag));
        self.reqs.push(SReq::RecvPending { chan, to: dst });
        self.chan_pending.entry(chan).or_default().push_back(id);
        Req(id)
    }

    fn isend_shared(&mut self, dst: usize, tag: Tag, src: RemoteRegion) -> Req {
        match self.resolve(&src) {
            Ok(region) => self.isend(dst, tag, region),
            Err(e) => {
                self.mark_failed(e);
                self.reqs.push(SReq::SendDone);
                Req(self.reqs.len() - 1)
            }
        }
    }

    fn irecv_shared(&mut self, src: usize, tag: Tag, dst: RemoteRegion) -> Req {
        match self.resolve(&dst) {
            Ok(region) => self.irecv(src, tag, region),
            Err(e) => {
                self.mark_failed(e);
                self.reqs.push(SReq::RecvDone);
                Req(self.reqs.len() - 1)
            }
        }
    }

    fn wait(&mut self, req: Req) {
        if self.failed.is_some() {
            return;
        }
        self.drain_until(req.0);
    }

    fn post_addr(&mut self, slot: Slot, region: Region) {
        self.board
            .insert(slot, (region.buf, region.offset, region.len));
    }

    fn copy_in(&mut self, from: RemoteRegion, to: Region) {
        if self.failed.is_some() {
            return;
        }
        match self.resolve(&from) {
            Ok(src) => {
                let s = self.buf(src.buf);
                let d = self.buf(to.buf);
                SharedBuf::copy_between(&s, src.offset, &d, to.offset, to.len);
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn copy_out(&mut self, from: Region, to: RemoteRegion) {
        if self.failed.is_some() {
            return;
        }
        match self.resolve(&to) {
            Ok(dst) => {
                let s = self.buf(from.buf);
                let d = self.buf(dst.buf);
                SharedBuf::copy_between(&s, from.offset, &d, dst.offset, from.len);
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn reduce_in(&mut self, from: RemoteRegion, to: Region, op: ReduceOp, dt: Datatype) {
        if self.failed.is_some() {
            return;
        }
        match self.resolve(&from) {
            Ok(src) => {
                let s = self.buf(src.buf);
                let acc = self.buf(to.buf);
                acc.reduce_from(to.offset, &s, src.offset, to.len, op, dt);
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn local_copy(&mut self, from: Region, to: Region) {
        let s = self.buf(from.buf);
        let d = self.buf(to.buf);
        SharedBuf::copy_between(&s, from.offset, &d, to.offset, from.len);
    }

    fn local_reduce(&mut self, from: Region, to: Region, op: ReduceOp, dt: Datatype) {
        let s = self.buf(from.buf);
        let acc = self.buf(to.buf);
        acc.reduce_from(to.offset, &s, from.offset, to.len, op, dt);
    }

    fn signal(&mut self, rank: usize, flag: FlagId) {
        assert_eq!(rank, self.me, "ppn = 1 shrink: flags are self-only");
        *self.flags.entry(flag).or_insert(0) += 1;
    }

    fn wait_flag(&mut self, flag: FlagId, count: u32) {
        if self.failed.is_some() {
            return;
        }
        let have = self.flags.get(&flag).copied().unwrap_or(0);
        if have < count {
            // Single-threaded node: a wait no signal can ever satisfy
            // is a deadlock, not a delay.
            self.mark_failed(format!(
                "wait_flag({flag}, {count}) with only {have} signals on a ppn=1 node"
            ));
        }
    }

    fn node_barrier(&mut self) {
        // ppn = 1: a barrier with myself.
    }

    fn compute(&mut self, bytes: u64) {
        let mut acc = 0u64;
        for i in 0..bytes / 8 {
            acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(0x9E37_79B9));
        }
        std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_fabric::InProcFabric;
    use pipmcoll_sched::verify::pattern;

    #[test]
    fn rankset_basics() {
        let mut s = RankSet::new();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(63);
        s.insert(3);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(63) && !s.contains(0));
        assert_eq!(s.ranks(), vec![3, 63]);
        let mut t = RankSet::new();
        t.insert(0);
        t.union(s);
        assert_eq!(t.ranks(), vec![0, 3, 63]);
        t.remove(3);
        assert!(!t.contains(3));
        t.subtract(s);
        assert_eq!(t.ranks(), vec![0]);
        assert!(!RankSet::from_bits(0).contains(70));
    }

    /// Clean agreement: every member participates with empty seeds and
    /// commits the empty set on the sweep-0 fast path.
    #[test]
    fn agreement_clean_fast_path() {
        let fabric: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
        let members = [0usize, 1, 2, 3];
        let op_timeout = Duration::from_millis(200);
        let t0 = Instant::now();
        let results: Vec<AgreeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .iter()
                .map(|&me| {
                    let fabric = &fabric;
                    let members = &members[..];
                    s.spawn(move || {
                        agree(fabric, me, members, RankSet::new(), false, 0, op_timeout)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for outcome in results {
            let AgreeOutcome::Commit { failed, retry } = outcome else {
                panic!("clean run must commit, got {outcome:?}");
            };
            assert!(failed.is_empty());
            assert!(!retry);
        }
        // Fast path: no padding, well under one sweep window.
        assert!(t0.elapsed() < op_timeout * 2, "took {:?}", t0.elapsed());
    }

    /// One member is silent (dead): the others converge on exactly it,
    /// committing identical sets.
    #[test]
    fn agreement_converges_on_a_silent_member() {
        let fabric: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
        let members = [0usize, 1, 2, 3];
        let dead = 2usize;
        let op_timeout = Duration::from_millis(80);
        let results: Vec<(usize, RankSet, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .iter()
                .filter(|&&me| me != dead)
                .map(|&me| {
                    let fabric = &fabric;
                    let members = &members[..];
                    s.spawn(move || {
                        // Rank 1 saw the death during the attempt; the
                        // others discover it inside agreement.
                        let mut seed = RankSet::new();
                        let want_retry = me == 1;
                        if me == 1 {
                            seed.insert(dead);
                        }
                        let outcome = agree(fabric, me, members, seed, want_retry, 1, op_timeout);
                        let AgreeOutcome::Commit { failed, retry } = outcome else {
                            panic!("3-of-4 is a majority, got {outcome:?}");
                        };
                        (me, failed, retry)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (me, set, retry) in results {
            assert_eq!(set.ranks(), vec![dead], "rank {me} committed {set:?}");
            assert!(retry, "rank {me} must want a retry");
        }
    }

    /// Symmetric false suspicion: two live members seed-suspect each
    /// other; hearing from each other during the sweeps refutes both,
    /// and everyone commits the empty set.
    #[test]
    fn agreement_refutes_symmetric_false_suspicion() {
        let fabric: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
        let members = [0usize, 1, 2];
        let op_timeout = Duration::from_millis(80);
        let results: Vec<(usize, RankSet, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = members
                .iter()
                .map(|&me| {
                    let fabric = &fabric;
                    let members = &members[..];
                    s.spawn(move || {
                        let mut seed = RankSet::new();
                        if me == 0 {
                            seed.insert(1);
                        }
                        if me == 1 {
                            seed.insert(0);
                        }
                        let want_retry = !seed.is_empty();
                        let outcome = agree(fabric, me, members, seed, want_retry, 2, op_timeout);
                        let AgreeOutcome::Commit { failed, retry } = outcome else {
                            panic!("refuted suspicion keeps everyone: {outcome:?}");
                        };
                        (me, failed, retry)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (me, set, retry) in results {
            assert!(set.is_empty(), "rank {me} wrongly committed {set:?}");
            // The epoch still wants a retry (someone reported trouble),
            // but with an empty failed set the same members re-run.
            assert!(retry);
        }
    }

    /// Drive N [`AgreeCore`]s from ONE thread with non-blocking
    /// receives — the exact shape the service engine uses. All cores
    /// must commit identical sets, with a silent member detected and a
    /// clean run fast-pathing.
    #[test]
    fn agree_core_converges_under_single_thread_polling() {
        for dead in [None, Some(2usize)] {
            let fabric: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
            let members = vec![0usize, 1, 2, 3];
            let delta = Duration::from_millis(60);
            let mut cores: Vec<(usize, AgreeCore)> = members
                .iter()
                .copied()
                .filter(|&me| Some(me) != dead)
                .map(|me| {
                    let mut seed = RankSet::new();
                    // One member saw the death during its attempt.
                    if me == 0 {
                        if let Some(d) = dead {
                            seed.insert(d);
                        }
                    }
                    (
                        me,
                        AgreeCore::new(me, members.clone(), seed, dead.is_some(), delta),
                    )
                })
                .collect();
            let send = |from: usize, m: &AgreeMsg| {
                let tag = pipmcoll_fabric::tag::agree(9, m.sweep);
                fabric.send((from, m.to, tag), m.payload.clone()).unwrap();
            };
            for (me, core) in cores.iter_mut() {
                for m in core.begin(Instant::now()) {
                    send(*me, &m);
                }
            }
            let t0 = Instant::now();
            loop {
                let mut all_done = true;
                for (me, core) in cores.iter_mut() {
                    loop {
                        match core.step(Instant::now()) {
                            AgreeStep::Done => break,
                            AgreeStep::Pad(_) => {
                                all_done = false;
                                break;
                            }
                            AgreeStep::Sweep(msgs) => {
                                for m in msgs {
                                    send(*me, &m);
                                }
                            }
                            AgreeStep::Poll => {
                                let tag = pipmcoll_fabric::tag::agree(9, core.sweep());
                                let mut got = false;
                                for q in core.outstanding().to_vec() {
                                    if let Ok(Some(p)) = fabric.try_recv((q, *me, tag)) {
                                        core.deliver(q, &p);
                                        got = true;
                                    }
                                }
                                if !got {
                                    all_done = false;
                                    break;
                                }
                            }
                        }
                    }
                }
                if all_done {
                    break;
                }
                assert!(t0.elapsed() < Duration::from_secs(10), "agreement hangs");
                std::thread::yield_now();
            }
            let want: Vec<usize> = dead.into_iter().collect();
            for (me, core) in &cores {
                let outcome = core.committed().expect("all cores done");
                let AgreeOutcome::Commit { failed, retry } = outcome else {
                    panic!("rank {me}: a single death keeps quorum, got {outcome:?}");
                };
                assert_eq!(failed.ranks(), want, "rank {me} (dead={dead:?})");
                assert_eq!(retry, dead.is_some(), "rank {me} retry flag");
            }
        }
    }

    /// Drive one [`AgreeCore`] per member from a single thread while a
    /// partition silently eats every cross-side gossip message —
    /// exactly what a `part:` chaos spec does to the wire. Returns
    /// each member's final outcome.
    fn drive_partitioned(members: &[usize], side_a: &[usize]) -> Vec<(usize, AgreeOutcome)> {
        let fabric: Arc<dyn Fabric> = Arc::new(InProcFabric::new());
        let same_side = |x: usize, y: usize| side_a.contains(&x) == side_a.contains(&y);
        let delta = Duration::from_millis(50);
        let mut cores: Vec<(usize, AgreeCore)> = members
            .iter()
            .map(|&me| {
                // Each member enters agreement already suspecting the
                // other side (its attempt timed out against them).
                let mut seed = RankSet::new();
                for &q in members {
                    if !same_side(me, q) {
                        seed.insert(q);
                    }
                }
                (me, AgreeCore::new(me, members.to_vec(), seed, true, delta))
            })
            .collect();
        let send = |from: usize, m: &AgreeMsg| {
            if !same_side(from, m.to) {
                return; // the partition eats it
            }
            let tag = pipmcoll_fabric::tag::agree(11, m.sweep);
            fabric.send((from, m.to, tag), m.payload.clone()).unwrap();
        };
        for (me, core) in cores.iter_mut() {
            for m in core.begin(Instant::now()) {
                send(*me, &m);
            }
        }
        let t0 = Instant::now();
        loop {
            let mut all_done = true;
            for (me, core) in cores.iter_mut() {
                loop {
                    match core.step(Instant::now()) {
                        AgreeStep::Done => break,
                        AgreeStep::Pad(_) => {
                            all_done = false;
                            break;
                        }
                        AgreeStep::Sweep(msgs) => {
                            for m in msgs {
                                send(*me, &m);
                            }
                        }
                        AgreeStep::Poll => {
                            let tag = pipmcoll_fabric::tag::agree(11, core.sweep());
                            let mut got = false;
                            for q in core.outstanding().to_vec() {
                                if let Ok(Some(p)) = fabric.try_recv((q, *me, tag)) {
                                    core.deliver(q, &p);
                                    got = true;
                                }
                            }
                            if !got {
                                all_done = false;
                                break;
                            }
                        }
                    }
                }
            }
            if all_done {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "agreement hangs");
            std::thread::yield_now();
        }
        cores
            .iter()
            .map(|(me, c)| (*me, c.committed().expect("all cores done")))
            .collect()
    }

    /// Split brain, symmetric: a 2|2 partition splits the group into
    /// equal halves, the exact case where naive sweep gossip commits
    /// two *different* failed sets (each side: "the other two are
    /// dead"). The even-split tie-breaker awards quorum to the half
    /// holding the lowest-ranked member, so exactly one side commits
    /// and the other resolves `QuorumLost` — never a divergent pair.
    #[test]
    fn symmetric_partition_never_commits_divergent_sets() {
        let members = [0usize, 1, 2, 3];
        let side_a = [0usize, 1];
        let mut committed_sets: Vec<Vec<usize>> = Vec::new();
        for (me, outcome) in drive_partitioned(&members, &side_a) {
            if side_a.contains(&me) {
                // The half with rank 0 holds the tie-break quorum.
                let AgreeOutcome::Commit { failed, retry } = outcome else {
                    panic!("rank {me} holds the tie-break, got {outcome:?}");
                };
                committed_sets.push(failed.ranks());
                assert!(retry, "rank {me} must want a retry");
            } else {
                let AgreeOutcome::QuorumLost {
                    survivors,
                    members: m,
                } = outcome
                else {
                    panic!("rank {me} committed without quorum: {outcome:?}");
                };
                assert_eq!(survivors.ranks(), vec![2, 3], "rank {me} survivors");
                assert_eq!(m.ranks(), members.to_vec(), "rank {me} member group");
            }
        }
        // The whole point: every committed set is the same one.
        committed_sets.dedup();
        assert_eq!(
            committed_sets,
            vec![vec![2, 3]],
            "exactly one failed set may ever commit"
        );
    }

    /// Split brain, asymmetric: in a 3|2 partition only the 3-side
    /// holds a strict majority. It commits exactly the unreachable
    /// minority; the minority resolves `QuorumLost` and commits
    /// nothing — so the only failed set ever committed is the
    /// majority's, never two divergent ones.
    #[test]
    fn asymmetric_partition_minority_resolves_quorum_lost() {
        let members = [0usize, 1, 2, 3, 4];
        let side_a = [0usize, 1, 2];
        for (me, outcome) in drive_partitioned(&members, &side_a) {
            if side_a.contains(&me) {
                let AgreeOutcome::Commit { failed, retry } = outcome else {
                    panic!("majority rank {me} must commit, got {outcome:?}");
                };
                assert_eq!(failed.ranks(), vec![3, 4], "rank {me} failed set");
                assert!(retry, "rank {me} must want a retry on the survivors");
            } else {
                let AgreeOutcome::QuorumLost { survivors, .. } = outcome else {
                    panic!("minority rank {me} must refuse, got {outcome:?}");
                };
                assert_eq!(survivors.ranks(), vec![3, 4], "rank {me} survivors");
            }
        }
    }

    /// A clean ft run over in-process channels matches a plain run.
    #[test]
    fn ft_run_without_faults_is_just_a_run() {
        use pipmcoll_sched::BufId;
        struct Ring;
        impl Algo for Ring {
            fn run<C: Comm>(&self, c: &mut C) {
                let n = c.topo().world_size();
                let next = (c.rank() + 1) % n;
                let prev = (c.rank() + n - 1) % n;
                let r = c.irecv(prev, 7, Region::new(BufId::Recv, 0, 8));
                c.isend(next, 7, Region::new(BufId::Send, 0, 8));
                c.wait(r);
            }
        }
        let topo = Topology::new(4, 1);
        let res = run_cluster_ft(
            Arc::new(InProcFabric::new()),
            topo,
            |_, _| BufSizes::new(8, 8),
            |r| pattern(r, 8),
            &Ring,
            &FaultPlan::none(),
        );
        assert!(res.clean(), "failures: {:?}", res.failures);
        assert_eq!(res.epochs, 1);
        assert_eq!(res.failed, Vec::<usize>::new());
        for r in 0..4 {
            assert_eq!(
                res.recv[r].as_deref(),
                Some(&pattern((r + 3) % 4, 8)[..]),
                "rank {r}"
            );
            assert_eq!(res.committed[r].as_deref(), Some(&[][..]));
        }
    }
}
