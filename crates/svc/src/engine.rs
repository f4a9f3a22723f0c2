//! The scheduler: one thread interleaving the phases of every admitted
//! collective over the shared fabric.
//!
//! Each pass the engine (1) drains new submissions into per-job FIFOs,
//! (2) reaps cancellations and expired deadlines, (3) runs the failure
//! duty — poll [`Fabric::health`], gather suspicion evidence, drive the
//! non-blocking failed-set agreement when there is any — then (4) runs
//! an admission round — deficit round robin across jobs, each admission
//! planning the collective's [`CollSpec`] against the *current survivor
//! group*, paying its exact NIC-byte cost into the shared token bucket
//! and claiming a sequence slot from the job's [`TagSpace`] — and (5)
//! drives the fabric once ([`Fabric::drive`]: it writes what the pass
//! sent and reads what arrived, as a progress worker would), then polls
//! every in-flight collective's outstanding channels with the
//! non-blocking [`Fabric::try_recv`], feeding arrivals to the
//! collectives' executors.
//!
//! Every collective the engine runs is an [`NbColl`]: a recorded
//! `core::baseline` schedule, validated and `hb`-checked once per shape
//! and cached, on a resumable executor holding this collective's
//! buffers. Planning an admission is a cache hit; the engine never runs
//! a schedule that failed the happens-before analysis. A message
//! between two ranks of one node never reaches the fabric: the ranks
//! share an address space, so the engine delivers it to the
//! destination's executor in place. No
//! thread ever parks on a receive: a hundred concurrent collectives
//! cost one polling thread, not a hundred blocked ones. Before the
//! engine parks, sleeps or exits, it drives once more with `stay`
//! false, which hands the wire back to the fabric's progress workers;
//! it takes the wire back as soon as it wakes.
//!
//! ## Failure state machine (survive-and-complete)
//!
//! ```text
//!        evidence (health verdicts, send/recv errors, stalls, kills)
//!   Running ──────────────────────────────────────────────▶ Agreeing
//!      ▲                                                       │
//!      │   all cores commit an identical failed set F           │
//!      ◀───────────────────────────────────────────────────────┘
//!        F ≠ ∅: epoch += 1, members -= F; every affected active
//!        (touches F, wounded, or stalled) has its slot quarantined,
//!        unsent bytes refunded, and is re-queued **at the head** of
//!        its job's FIFO to be re-planned on the densely re-ranked
//!        survivor group under exponential backoff + jitter — unless
//!        its retry cap is spent (RetriesExhausted) or its root died
//!        (Unsatisfiable). Unaffected collectives keep polling the
//!        whole time; only *admission* pauses during agreement.
//! ```
//!
//! The agreement itself is the runtime's [`AgreeCore`] — the identical
//! sweep-gossip protocol `rt::ft` drives with blocking receives — run
//! here as a per-member state-machine farm polled by the engine thread,
//! on domain 1 of the `0xFF` tag namespace ([`tag::svc_agree`]) so the
//! two layers can never collide on the wire.
//!
//! Failure containment: a fabric error or a progress stall fails *that*
//! collective (its request resolves with the error, its sequence slot
//! is quarantined so lingering frames can never alias a future
//! collective) and the engine keeps driving the rest.
//!
//! [`Fabric::health`]: pipmcoll_fabric::Fabric::health
//! [`Fabric::try_recv`]: pipmcoll_fabric::Fabric::try_recv
//! [`Fabric::drive`]: pipmcoll_fabric::Fabric::drive
//! [`CollSpec`]: pipmcoll_core::nb::CollSpec
//! [`NbColl`]: pipmcoll_core::nb::NbColl
//! [`AgreeCore`]: pipmcoll_rt::AgreeCore
//! [`TagSpace`]: crate::tagspace::TagSpace

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_core::nb::{CollSpec, Msg, NbColl, PlanError};
use pipmcoll_fabric::{sync_timeout, tag, ChanKey, FabricError};
use pipmcoll_rt::{AgreeCore, AgreeOutcome, AgreeStep, KillSpec, OpClass, RankSet};

use crate::admission::{DrrLane, TokenBucket};
use crate::tagspace::TagSpace;
use crate::{JobCounters, Shared, SvcError};

/// A submitted-but-not-admitted collective in a job's FIFO.
struct Pending {
    spec: CollSpec,
    req: Arc<crate::ReqShared>,
    submitted: Instant,
    deadline: Option<Instant>,
    retry_max: u32,
    /// Re-plans already performed (0 on first submission).
    retries: u32,
    /// Backoff gate: not admitted before this instant.
    not_before: Option<Instant>,
    /// The schedule planned at admission time, and the member bitmap it
    /// was planned against (a failure epoch invalidates it).
    plan: Option<NbColl>,
    plan_members: u64,
    cost: u64,
    /// Whether a deferral has been counted against stats yet.
    deferral_counted: bool,
}

/// One job's scheduler-side state.
struct JobSched {
    fifo: VecDeque<Pending>,
    lane: DrrLane,
    tags: TagSpace,
    counters: Arc<JobCounters>,
}

/// An admitted, in-flight collective.
struct Active {
    comm: u32,
    slot: u32,
    coll: NbColl,
    /// Dense plan rank `j` is original rank `map[j]` (identity while no
    /// rank has failed).
    map: Vec<usize>,
    /// Kept for re-planning on a shrunk group after a failure epoch.
    spec: CollSpec,
    req: Arc<crate::ReqShared>,
    submitted: Instant,
    deadline: Option<Instant>,
    retry_max: u32,
    retries: u32,
    /// NIC bytes paid at admission, and how many actually hit the wire
    /// (the difference is refunded if the collective dies early).
    cost: u64,
    sent_bytes: u64,
    /// A recoverable fabric error was seen: the collective must be
    /// re-planned after the next agreement commit, whatever it decides.
    wounded: bool,
    last_progress: Instant,
    /// Channels with a message in flight towards us:
    /// `(chan, phase, dense_src, dense_dst)`.
    outstanding: Vec<(ChanKey, u32, usize, usize)>,
}

/// One engine-driven agreement: a core per surviving member, all swept
/// in lockstep on `tag::svc_agree(tag_epoch, sweep)`.
struct AgreeRun {
    tag_epoch: u32,
    cores: Vec<(usize, AgreeCore)>,
}

/// The engine loop: runs until [`Shared::stop`], then fails whatever is
/// still queued or in flight with [`SvcError::Shutdown`].
pub(crate) fn run(shared: Arc<Shared>) {
    Engine::new(shared).run();
}

struct Engine {
    shared: Arc<Shared>,
    jobs: HashMap<u32, JobSched>,
    active: Vec<Active>,
    bucket: TokenBucket,
    /// DRR visits jobs in a stable rotation of comm ids.
    rotation: Vec<u32>,
    /// Current survivor group, sorted ascending.
    members: Vec<usize>,
    /// All ranks ever committed failed.
    failed: RankSet,
    /// The fault DSL's op counts and the ranks it killed.
    faults: Faults,
    /// The node of each world rank, where the fabric knows it: two
    /// ranks on one node exchange messages in place (see [`send_all`]).
    nodes: Vec<Option<usize>>,
    /// Local suspicion accumulated since the last agreement.
    evidence: RankSet,
    /// Monotone counter naming each agreement's tag epoch.
    agree_seq: u32,
    agree: Option<AgreeRun>,
    /// Admission frozen: the last agreement resolved `QuorumLost` (the
    /// engine may be on the minority side of a partition). Suspicion
    /// evidence is deliberately kept, so detection keeps re-running
    /// agreement after each cooldown — the first one that commits
    /// (quorum regained) unfreezes admission.
    frozen: bool,
    /// Cooldown after a commit so still-draining state can't spark an
    /// immediate re-agreement.
    no_detect_until: Instant,
    /// Next full-FIFO reap sweep (head entries are groomed every
    /// admission round; deep entries only need this coarse sweep).
    next_reap: Instant,
    /// xorshift64* state for backoff jitter (fixed seed: runs are
    /// deterministic modulo scheduling).
    rng: u64,
    stall_after: Duration,
}

/// The fault DSL's state: per-rank `submit` / `poll` op counts, the
/// kills they trigger, and the ranks killed so far.
struct Faults {
    kills: Vec<KillSpec>,
    submits: Vec<u64>,
    polls: Vec<u64>,
    /// Ranks killed by `@submit` / `@poll` triggers: the engine stops
    /// acting on their behalf — skips their sends and their receives —
    /// and lets detection discover the silence.
    killed: RankSet,
}

impl Faults {
    /// Count one `op` of `rank`; a matching trigger kills it. Returns
    /// whether `rank` is dead. A dead rank performs no more ops.
    fn tick(&mut self, rank: usize, op: OpClass) -> bool {
        if self.killed.contains(rank) {
            return true;
        }
        let counts = if op == OpClass::Submit {
            &mut self.submits
        } else {
            &mut self.polls
        };
        if self.kills.is_empty() || rank >= counts.len() {
            return false;
        }
        counts[rank] += 1;
        let n = counts[rank];
        if self
            .kills
            .iter()
            .any(|k| k.rank == rank && k.op == op && k.at == n)
        {
            self.killed.insert(rank);
        }
        self.killed.contains(rank)
    }
}

impl Engine {
    fn new(shared: Arc<Shared>) -> Engine {
        let world = shared.cfg.world;
        let bucket = TokenBucket::new(shared.cfg.nic_budget, shared.cfg.burst);
        let mut kills = Vec::new();
        for r in 0..world {
            for k in shared.cfg.fault.triggers_for(r) {
                if matches!(k.op, OpClass::Submit | OpClass::Poll) {
                    kills.push(k);
                }
            }
        }
        let now = Instant::now();
        Engine {
            jobs: HashMap::new(),
            active: Vec::new(),
            bucket,
            rotation: Vec::new(),
            members: (0..world).collect(),
            failed: RankSet::new(),
            faults: Faults {
                kills,
                submits: vec![0; world],
                polls: vec![0; world],
                killed: RankSet::new(),
            },
            nodes: (0..world).map(|r| shared.fabric.node_of(r)).collect(),
            evidence: RankSet::new(),
            agree_seq: 0,
            agree: None,
            frozen: false,
            no_detect_until: now,
            next_reap: now,
            rng: 0x9E37_79B9_7F4A_7C15,
            stall_after: sync_timeout(),
            shared,
        }
    }

    fn run(&mut self) {
        loop {
            let epoch = self.shared.sig.epoch();
            let stopping = self.shared.stop.load(Ordering::Acquire);
            self.drain_inbox();
            if stopping {
                self.shutdown();
                self.shared.fabric.drive(false);
                return;
            }
            let now = Instant::now();
            self.reap(now);
            if self.shared.cfg.ft {
                self.detect(now);
                self.drive_agreement(now);
            }
            // Admission pauses during agreement (the member set is
            // about to change) and while frozen by a lost quorum
            // (admitting would retry into the partition); polling
            // never does — unaffected jobs keep completing
            // collectives throughout.
            if self.agree.is_none() && !self.frozen {
                self.admit(now);
            }
            // Write what admission sent and read what arrived, so the
            // poll below finds it (a no-op on fabrics without a wire).
            self.shared.fabric.drive(true);
            let progressed = self.poll(now);
            self.shared
                .inflight
                .store(self.active.len(), Ordering::Relaxed);

            let queued: usize = self.jobs.values().map(|j| j.fifo.len()).sum();
            if self.agree.is_some() {
                // Agreement sweeps pad on wall-clock deadlines; a short
                // sleep beats a hot spin without costing precision.
                if !progressed {
                    self.off_wire(|| std::thread::sleep(Duration::from_micros(200)));
                }
            } else if self.active.is_empty() && queued == 0 {
                self.off_wire(|| self.shared.sig.wait(epoch, Duration::from_millis(50)));
            } else if !progressed {
                std::thread::yield_now();
            }
        }
    }

    /// Park or sleep through `pause` with the wire handed back to the
    /// fabric's progress workers, then drive it again at once: the
    /// first admission after a pause must not wake a worker per send.
    fn off_wire(&self, pause: impl FnOnce()) {
        self.shared.fabric.drive(false);
        pause();
        self.shared.fabric.drive(true);
    }

    /// Drain submissions into per-job FIFOs, resolving per-request
    /// options against the config defaults.
    fn drain_inbox(&mut self) {
        let new: Vec<crate::Submission> =
            std::mem::take(&mut *self.shared.inbox.lock().unwrap_or_else(|p| p.into_inner()));
        if new.is_empty() {
            return;
        }
        let now = Instant::now();
        for sub in new {
            let cfg = &self.shared.cfg;
            let deadline = sub.opts.deadline.or(cfg.deadline).map(|d| now + d);
            let retry_max = sub.opts.retry_max.unwrap_or(cfg.retry_max);
            let sched = self.jobs.entry(sub.comm).or_insert_with(|| {
                self.rotation.push(sub.comm);
                JobSched {
                    fifo: VecDeque::new(),
                    lane: DrrLane::default(),
                    tags: TagSpace::new(self.shared.cfg.seq_bits),
                    counters: self
                        .shared
                        .counters
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .get(&sub.comm)
                        .cloned()
                        .unwrap_or_default(),
                }
            });
            sched.fifo.push_back(Pending {
                spec: sub.spec,
                req: sub.req,
                submitted: now,
                deadline,
                retry_max,
                retries: 0,
                not_before: None,
                plan: None,
                plan_members: 0,
                cost: 0,
                deferral_counted: false,
            });
        }
    }

    /// Resolve cancellations and expired deadlines. Actives are checked
    /// every pass (the set is small); queued entries behind the FIFO
    /// head only on a coarse 1 ms sweep (heads are groomed every
    /// admission round anyway).
    fn reap(&mut self, now: Instant) {
        let mut i = 0;
        while i < self.active.len() {
            let act = &self.active[i];
            let verdict = if act.req.is_cancelled() {
                Some(SvcError::Cancelled)
            } else if act.deadline.is_some_and(|d| now >= d) {
                Some(SvcError::DeadlineExpired {
                    waited: now.saturating_duration_since(act.submitted),
                })
            } else {
                None
            };
            let Some(e) = verdict else {
                i += 1;
                continue;
            };
            let act = self.active.swap_remove(i);
            self.bucket.refund(act.cost.saturating_sub(act.sent_bytes));
            let sched = self.jobs.get_mut(&act.comm).expect("job exists");
            let ctr = match e {
                SvcError::Cancelled => &sched.counters.cancelled,
                _ => &sched.counters.deadline_expired,
            };
            ctr.fetch_add(1, Ordering::Relaxed);
            act.resolve(e, sched);
        }
        if now < self.next_reap {
            return;
        }
        self.next_reap = now + Duration::from_millis(1);
        for sched in self.jobs.values_mut() {
            let counters = &sched.counters;
            sched.fifo.retain(|p| {
                let verdict = if p.req.is_cancelled() {
                    counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    Some(SvcError::Cancelled)
                } else if p.deadline.is_some_and(|d| now >= d) {
                    counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    Some(SvcError::DeadlineExpired {
                        waited: now.saturating_duration_since(p.submitted),
                    })
                } else {
                    None
                };
                match verdict {
                    None => true,
                    Some(e) => {
                        counters.queued.fetch_sub(1, Ordering::Relaxed);
                        p.req.complete(Err(e));
                        false
                    }
                }
            });
        }
    }

    /// The detection duty: gather suspicion evidence and, if there is
    /// any, start an agreement over the current member set.
    fn detect(&mut self, now: Instant) {
        if self.agree.is_some() || now < self.no_detect_until {
            return;
        }
        let member_bits = rank_bits(&self.members);
        // Transport verdicts: retransmit-exhaustion deaths name a rank
        // directly; heartbeat silence names a node (ppn = 1: node id ==
        // rank). Dead lanes name no rank — stalls cover those.
        let h = self.shared.fabric.health();
        for dp in &h.dead_peers {
            self.evidence.insert(dp.peer);
        }
        for &(_, silent) in &h.suspected_nodes {
            if silent < self.shared.cfg.world {
                self.evidence.insert(silent);
            }
        }
        // DSL kills: the engine stopped simulating these ranks, which
        // is this process's local death verdict about them.
        self.evidence.union(self.faults.killed);
        // A collective silent past the suspicion window: suspect every
        // rank it spans. Refutable — agreement receipts are proof of
        // life, so live members are cleared by sweep 0. Gray-failure
        // gate: while the fabric has a lane browned out, the stall is
        // more likely the degraded lane than a dead rank — the lane
        // remap gets one extra window to clear the stall before it
        // escalates to rank suspicion.
        let suspect_after = self.shared.cfg.suspect_after;
        let stall_cut = if h.browned_lanes.is_empty() {
            suspect_after
        } else {
            suspect_after * 2
        };
        for act in &self.active {
            if !act.outstanding.is_empty()
                && now.saturating_duration_since(act.last_progress) > stall_cut
            {
                for &r in &act.map {
                    self.evidence.insert(r);
                }
            }
        }
        self.evidence = RankSet::from_bits(self.evidence.bits() & member_bits);
        if self.evidence.is_empty() {
            return;
        }
        self.agree_seq += 1;
        let delta = self.shared.cfg.agree_delta;
        let fabric = Arc::clone(&self.shared.fabric);
        let mut cores = Vec::new();
        for &m in &self.members {
            if self.faults.killed.contains(m) {
                continue;
            }
            let mut core = AgreeCore::new(m, self.members.clone(), self.evidence, true, delta);
            for msg in core.begin(now) {
                let t = tag::svc_agree(self.agree_seq, msg.sweep);
                if fabric.send((m, msg.to, t), msg.payload).is_err() {
                    core.send_failed(msg.to);
                }
            }
            cores.push((m, core));
        }
        self.agree = Some(AgreeRun {
            tag_epoch: self.agree_seq,
            cores,
        });
    }

    /// Advance every agreement core one step; on unanimous commit,
    /// shrink the member set and re-queue affected collectives.
    fn drive_agreement(&mut self, now: Instant) {
        let Some(mut run) = self.agree.take() else {
            return;
        };
        let fabric = Arc::clone(&self.shared.fabric);
        let mut all_done = true;
        for (rank, core) in run.cores.iter_mut() {
            if core.committed().is_some() {
                continue;
            }
            let t = tag::svc_agree(run.tag_epoch, core.sweep());
            for q in core.outstanding().to_vec() {
                if let Ok(Some(p)) = fabric.try_recv((q, *rank, t)) {
                    core.deliver(q, &p);
                }
            }
            match core.step(now) {
                AgreeStep::Done => {}
                AgreeStep::Sweep(msgs) => {
                    for m in msgs {
                        let t = tag::svc_agree(run.tag_epoch, m.sweep);
                        if fabric.send((*rank, m.to, t), m.payload).is_err() {
                            core.send_failed(m.to);
                        }
                    }
                }
                AgreeStep::Poll | AgreeStep::Pad(_) => {}
            }
            if core.committed().is_none() {
                all_done = false;
            }
        }
        if !all_done {
            self.agree = Some(run);
            return;
        }
        // Survivor commit: a core that is itself in someone's committed
        // set is dead (only reachable when a member died mid-agreement)
        // and its verdict is discarded; the protocol guarantees the
        // surviving committers' sets are identical. A core that
        // resolved QuorumLost committed nothing — if NO core committed
        // (a symmetric partition), the engine freezes admission
        // instead of shrinking, because any set it picked could
        // diverge from what the other side of the partition decides.
        let mut union = RankSet::new();
        for (_, c) in &run.cores {
            if let AgreeOutcome::Commit { failed, .. } = c.committed().expect("all cores done") {
                union.union(failed);
            }
        }
        let mut committed = RankSet::new();
        let mut any_commit = false;
        let mut lost: Option<(RankSet, RankSet)> = None;
        for (r, c) in &run.cores {
            if union.contains(*r) {
                continue;
            }
            match c.committed().expect("all cores done") {
                AgreeOutcome::Commit { failed, .. } => {
                    committed.union(failed);
                    any_commit = true;
                }
                AgreeOutcome::QuorumLost { survivors, members } => {
                    if lost.is_none() {
                        lost = Some((survivors, members));
                    }
                }
            }
        }
        self.no_detect_until = now + self.shared.cfg.suspect_after;
        if !any_commit {
            if let Some((survivors, members)) = lost {
                self.freeze(survivors, members);
                return;
            }
        }
        // A commit — even of the empty set — proves quorum: unfreeze.
        self.evidence = RankSet::new();
        if self.frozen {
            self.frozen = false;
            self.shared.frozen.store(false, Ordering::Relaxed);
        }
        if !committed.is_empty() {
            self.failed.union(committed);
            self.members.retain(|r| !committed.contains(*r));
            self.shared.epoch.fetch_add(1, Ordering::Relaxed);
            self.shared
                .failed_bits
                .store(self.failed.bits(), Ordering::Relaxed);
        }
        self.requeue_troubled(committed, now);
        // A shrunk group invalidates every plan made against the old
        // one; they are re-planned lazily at their next admission.
        let mbits = rank_bits(&self.members);
        for sched in self.jobs.values_mut() {
            for p in sched.fifo.iter_mut() {
                if p.plan.is_some() && p.plan_members != mbits {
                    p.plan = None;
                }
            }
        }
    }

    /// Quorum lost: resolve every affected active with the typed
    /// [`SvcError::QuorumLost`] (retrying would just stall against the
    /// unreachable side again) and freeze admission. Suspicion
    /// evidence is kept so detection re-runs agreement after each
    /// cooldown; the first commit — quorum regained — unfreezes.
    fn freeze(&mut self, survivors: RankSet, members: RankSet) {
        self.frozen = true;
        self.shared.frozen.store(true, Ordering::Relaxed);
        let err = SvcError::QuorumLost {
            survivors: survivors.ranks(),
            members: members.len(),
        };
        let mut i = 0;
        while i < self.active.len() {
            let affected = {
                let a = &self.active[i];
                a.wounded || a.map.iter().any(|r| !survivors.contains(*r))
            };
            if !affected {
                i += 1;
                continue;
            }
            let act = self.active.swap_remove(i);
            self.bucket.refund(act.cost.saturating_sub(act.sent_bytes));
            let sched = self.jobs.get_mut(&act.comm).expect("job exists");
            sched.counters.failed.fetch_add(1, Ordering::Relaxed);
            act.resolve(err.clone(), sched);
        }
    }

    /// Pull every troubled active (touches the committed set, wounded
    /// by a recoverable error, or spanning a DSL-killed rank) back into
    /// its job's FIFO head for a re-plan — or resolve it typed if its
    /// retry cap is spent or its root is dead.
    fn requeue_troubled(&mut self, committed: RankSet, now: Instant) {
        let mut i = 0;
        while i < self.active.len() {
            let troubled = {
                let a = &self.active[i];
                a.wounded
                    || a.map
                        .iter()
                        .any(|r| committed.contains(*r) || self.faults.killed.contains(*r))
            };
            if !troubled {
                i += 1;
                continue;
            }
            let act = self.active.swap_remove(i);
            self.bucket.refund(act.cost.saturating_sub(act.sent_bytes));
            let backoff = self.backoff(act.retries);
            let sched = self.jobs.get_mut(&act.comm).expect("job exists");
            if act.retries >= act.retry_max {
                sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                let attempts = act.retries;
                act.resolve(SvcError::RetriesExhausted { attempts }, sched);
                continue;
            }
            if let Some(root) = act.spec.root().filter(|r| self.failed.contains(*r)) {
                sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                act.resolve(SvcError::Unsatisfiable { rank: root }, sched);
                continue;
            }
            sched.tags.quarantine(act.slot);
            mirror_slots(sched);
            sched.counters.retried.fetch_add(1, Ordering::Relaxed);
            sched.counters.queued.fetch_add(1, Ordering::Relaxed);
            sched.fifo.push_front(Pending {
                spec: act.spec,
                req: act.req,
                submitted: act.submitted,
                deadline: act.deadline,
                retry_max: act.retry_max,
                retries: act.retries + 1,
                not_before: Some(now + backoff),
                plan: None,
                plan_members: 0,
                cost: 0,
                deferral_counted: true,
            });
        }
    }

    /// Exponential backoff with jitter: `base · 2^retries`, capped at
    /// the suspicion window, plus up to 25 % jitter so retry storms
    /// from many affected collectives don't re-admit in lockstep.
    fn backoff(&mut self, retries: u32) -> Duration {
        let base = (self.shared.cfg.suspect_after / 16).max(Duration::from_millis(1));
        let capped = base
            .saturating_mul(1 << retries.min(8))
            .min(self.shared.cfg.suspect_after);
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter_us = self.rng % (capped.as_micros().max(1) as u64 / 4 + 1);
        capped + Duration::from_micros(jitter_us)
    }

    /// Admission: one DRR round over jobs with queued work, planning
    /// each head against the current survivor group.
    fn admit(&mut self, now: Instant) {
        let mut budget_left = self
            .shared
            .cfg
            .max_inflight
            .unwrap_or(usize::MAX)
            .saturating_sub(self.active.len());
        let members = self.members.clone();
        let mbits = rank_bits(&members);
        let world = self.shared.cfg.world;
        let quantum = self.shared.cfg.quantum;
        for ji in 0..self.rotation.len() {
            let comm = self.rotation[ji];
            let Some(sched) = self.jobs.get_mut(&comm) else {
                continue;
            };
            let mut credited = false;
            loop {
                // Groom the head: cancellations, deadlines, backoff
                // gates, (re-)planning.
                let head_cost = loop {
                    let Some(head) = sched.fifo.front_mut() else {
                        break None;
                    };
                    if head.req.is_cancelled() {
                        let p = sched.fifo.pop_front().expect("head");
                        sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                        sched.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        p.req.complete(Err(SvcError::Cancelled));
                        continue;
                    }
                    if head.deadline.is_some_and(|d| now >= d) {
                        let p = sched.fifo.pop_front().expect("head");
                        sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                        sched
                            .counters
                            .deadline_expired
                            .fetch_add(1, Ordering::Relaxed);
                        p.req.complete(Err(SvcError::DeadlineExpired {
                            waited: now.saturating_duration_since(p.submitted),
                        }));
                        continue;
                    }
                    if head.not_before.is_some_and(|t| now < t) {
                        // In backoff: the job sits this round out (FIFO
                        // order is preserved across retries).
                        break None;
                    }
                    if head.plan.is_none() || head.plan_members != mbits {
                        let planned = if members.is_empty() {
                            Err(PlanError::RootFailed {
                                root: head.spec.root().unwrap_or(0),
                            })
                        } else {
                            head.spec.plan_on(&members)
                        };
                        match planned {
                            Ok(c) => {
                                head.cost = c.nic_bytes();
                                head.plan = Some(c);
                                head.plan_members = mbits;
                            }
                            Err(e) => {
                                let p = sched.fifo.pop_front().expect("head");
                                sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                                sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                                p.req.complete(Err(match e {
                                    PlanError::RootFailed { root } => {
                                        SvcError::Unsatisfiable { rank: root }
                                    }
                                    e => SvcError::Invalid(e),
                                }));
                                continue;
                            }
                        }
                    }
                    break Some(head.cost);
                };
                let Some(cost) = head_cost else {
                    if sched.fifo.is_empty() {
                        // Idle lanes forfeit their credit: a returning
                        // job must not burst on banked quanta.
                        sched.lane.forfeit();
                    }
                    break;
                };
                if !credited {
                    sched.lane.credit(quantum, cost + quantum);
                    credited = true;
                }
                if budget_left == 0 || sched.lane.deficit < cost {
                    defer(sched.fifo.front_mut().expect("head"), &sched.counters);
                    break;
                }
                let Some(slot) = sched.tags.acquire() else {
                    defer(sched.fifo.front_mut().expect("head"), &sched.counters);
                    break;
                };
                if !self.bucket.try_take(cost) {
                    sched.tags.release(slot);
                    defer(sched.fifo.front_mut().expect("head"), &sched.counters);
                    break;
                }
                assert!(sched.lane.try_pay(cost), "deficit checked above");
                let mut p = sched.fifo.pop_front().expect("head exists");
                budget_left -= 1;
                mirror_slots(sched);
                sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                sched.counters.admitted.fetch_add(1, Ordering::Relaxed);
                sched
                    .counters
                    .admitted_bytes
                    .fetch_add(cost, Ordering::Relaxed);
                // Every participating rank performs a `submit` op — a
                // DSL trigger here kills the rank *before* its sends.
                for &r in &members {
                    self.faults.tick(r, OpClass::Submit);
                }
                let mut act = Active {
                    comm,
                    slot,
                    coll: p.plan.take().expect("groomed head is planned"),
                    map: members.clone(),
                    spec: p.spec,
                    req: p.req,
                    submitted: p.submitted,
                    deadline: p.deadline,
                    retry_max: p.retry_max,
                    retries: p.retries,
                    cost,
                    sent_bytes: 0,
                    wounded: false,
                    last_progress: now,
                    outstanding: Vec::new(),
                };
                let first = act.coll.start();
                match send_all(
                    &mut act,
                    &self.shared,
                    &self.nodes,
                    &mut self.faults,
                    &mut self.evidence,
                    first,
                ) {
                    Ok(()) if act.coll.done() => {
                        // Degenerate (single-rank) collectives finish
                        // without traffic.
                        finish(act, sched, world);
                    }
                    Ok(()) => self.active.push(act),
                    Err(e) => {
                        sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                        act.resolve(e, sched);
                    }
                }
            }
        }
    }

    /// Poll every in-flight collective's outstanding channels.
    fn poll(&mut self, now: Instant) -> bool {
        let fabric = Arc::clone(&self.shared.fabric);
        let world = self.shared.cfg.world;
        let ft = self.shared.cfg.ft;
        // In ft mode a stall is the detector's business first; the
        // terminal verdict is a backstop at twice the window.
        let stall_cut = if ft {
            self.stall_after * 2
        } else {
            self.stall_after
        };
        let mut progressed = false;
        let mut i = 0;
        while i < self.active.len() {
            let act = &mut self.active[i];
            let mut verdict: Option<SvcError> = None;
            let mut j = 0;
            while j < act.outstanding.len() {
                let (chan, phase, dsrc, ddst) = act.outstanding[j];
                // A dead destination never polls; its frames rot under
                // a tag headed for quarantine.
                if self.faults.tick(chan.1, OpClass::Poll) {
                    j += 1;
                    continue;
                }
                match fabric.try_recv(chan) {
                    Ok(None) => j += 1,
                    Ok(Some(payload)) => {
                        progressed = true;
                        act.outstanding.swap_remove(j);
                        act.last_progress = now;
                        let emitted = act.coll.deliver(dsrc, ddst, phase, payload);
                        if let Err(e) = send_all(
                            act,
                            &self.shared,
                            &self.nodes,
                            &mut self.faults,
                            &mut self.evidence,
                            emitted,
                        ) {
                            verdict = Some(e);
                            break;
                        }
                    }
                    Err(e) if ft && recoverable(&e) => {
                        // Survivable: mark the collective for a re-plan
                        // and feed the detector; the channel is gone.
                        act.wounded = true;
                        note_suspects(&e, &mut self.evidence);
                        act.outstanding.swap_remove(j);
                    }
                    Err(e) => {
                        verdict = Some(e.into());
                        break;
                    }
                }
            }
            if verdict.is_none()
                && self.agree.is_none()
                && !act.coll.done()
                && now.saturating_duration_since(act.last_progress) > stall_cut
            {
                verdict = Some(SvcError::Stalled {
                    waited: now.saturating_duration_since(act.last_progress),
                    outstanding: act.outstanding.len(),
                });
            }
            let done = act.coll.done();
            if let Some(e) = verdict {
                let act = self.active.swap_remove(i);
                self.bucket.refund(act.cost.saturating_sub(act.sent_bytes));
                let sched = self.jobs.get_mut(&act.comm).expect("job exists");
                sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                act.resolve(e, sched);
            } else if done {
                progressed = true;
                let act = self.active.swap_remove(i);
                let sched = self.jobs.get_mut(&act.comm).expect("job exists");
                finish(act, sched, world);
            } else {
                i += 1;
            }
        }
        progressed
    }

    /// Fail everything still queued or in flight with `Shutdown`.
    fn shutdown(&mut self) {
        for act in self.active.drain(..) {
            let sched = self.jobs.get_mut(&act.comm).expect("job exists");
            sched.counters.failed.fetch_add(1, Ordering::Relaxed);
            act.resolve(SvcError::Shutdown, sched);
        }
        for sched in self.jobs.values_mut() {
            while let Some(p) = sched.fifo.pop_front() {
                sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                sched.counters.failed.fetch_add(1, Ordering::Relaxed);
                p.req.complete(Err(SvcError::Shutdown));
            }
        }
        self.shared.inflight.store(0, Ordering::Relaxed);
    }
}

impl Active {
    /// Resolve as failed: the error to the request, the sequence slot
    /// into quarantine (frames bearing its tags may still be in flight
    /// somewhere — reuse would alias them onto a future collective).
    /// The caller bumps whichever counter classifies the outcome.
    fn resolve(self, e: SvcError, sched: &mut JobSched) {
        sched.tags.quarantine(self.slot);
        mirror_slots(sched);
        self.req.complete(Err(e));
    }
}

/// Resolve as completed: dense outputs expanded to world-rank order
/// (dead ranks get empty buffers), latency to the histogram, sequence
/// slot back to the job's pool.
fn finish(act: Active, sched: &mut JobSched, world: usize) {
    sched.counters.completed.fetch_add(1, Ordering::Relaxed);
    sched.counters.latency.record(act.submitted.elapsed());
    sched.tags.release(act.slot);
    mirror_slots(sched);
    let dense = act.coll.outputs();
    let result = if act.map.len() == world {
        // Identity map: the fast path every fault-free run takes.
        dense
    } else {
        let mut out = vec![Vec::new(); world];
        for (j, buf) in dense.into_iter().enumerate() {
            out[act.map[j]] = buf;
        }
        out
    };
    act.req.complete(Ok(result));
}

/// Send `msgs`, registering the receive side of each for polling. A
/// message between two ranks of one node (`nodes`) never reaches the
/// fabric: they share an address space, so the engine delivers it in
/// place, as the destination's receive (a `poll` op of the fault DSL),
/// and works off whatever that delivery emits the same way. A
/// DSL-killed source "sends" nothing, and a DSL-killed destination
/// receives nothing — the receive still registers, so the stall is
/// observable. Recoverable transport errors wound the collective
/// instead of failing it (the retry path owns it from there); only
/// structural errors are returned.
fn send_all(
    act: &mut Active,
    shared: &Shared,
    nodes: &[Option<usize>],
    faults: &mut Faults,
    evidence: &mut RankSet,
    msgs: Vec<Msg>,
) -> Result<(), SvcError> {
    let mut work = VecDeque::from(msgs);
    while let Some(m) = work.pop_front() {
        let (os, od) = (act.map[m.src], act.map[m.dst]);
        let chan: ChanKey = (os, od, tag::svc(act.comm, act.slot, m.phase));
        if faults.killed.contains(os) {
            act.outstanding.push((chan, m.phase, m.src, m.dst));
            continue;
        }
        act.sent_bytes += m.payload.len() as u64;
        if nodes[os].is_some() && nodes[os] == nodes[od] {
            if faults.tick(od, OpClass::Poll) {
                act.outstanding.push((chan, m.phase, m.src, m.dst));
            } else {
                shared.in_place.fetch_add(1, Ordering::Relaxed);
                work.extend(act.coll.deliver(m.src, m.dst, m.phase, m.payload));
            }
            continue;
        }
        match shared.fabric.send(chan, m.payload) {
            Ok(()) => {}
            Err(e) if recoverable(&e) => {
                act.wounded = true;
                note_suspects(&e, evidence);
            }
            Err(e) => return Err(e.into()),
        }
        act.outstanding.push((chan, m.phase, m.src, m.dst));
    }
    Ok(())
}

/// Whether a fabric error is survivable by shrink-and-retry (peer or
/// lane trouble) as opposed to structural (poisoned queues, malformed
/// frames, bad config).
fn recoverable(e: &FabricError) -> bool {
    matches!(
        e,
        FabricError::Timeout(_)
            | FabricError::PeerDead { .. }
            | FabricError::PeerHung { .. }
            | FabricError::LaneDead { .. }
    )
}

/// Extract rank-naming suspicion from a fabric error.
fn note_suspects(e: &FabricError, evidence: &mut RankSet) {
    match e {
        FabricError::PeerDead { peer, .. } => evidence.insert(*peer),
        FabricError::Timeout(d) => {
            for &r in &d.suspected {
                evidence.insert(r);
            }
        }
        _ => {}
    }
}

/// The member list as a `RankSet` bitmap.
fn rank_bits(members: &[usize]) -> u64 {
    let mut s = RankSet::new();
    for &r in members {
        if r < 64 {
            s.insert(r);
        }
    }
    s.bits()
}

/// Mirror the tag-space gauges into the job's atomic counters so
/// snapshots can check slot conservation without engine cooperation.
fn mirror_slots(sched: &mut JobSched) {
    sched
        .counters
        .slots_held
        .store(sched.tags.held(), Ordering::Relaxed);
    sched
        .counters
        .slots_free
        .store(sched.tags.free(), Ordering::Relaxed);
    sched
        .counters
        .slots_quarantined
        .store(sched.tags.quarantined(), Ordering::Relaxed);
}

/// Count one deferral against stats, once per collective.
fn defer(p: &mut Pending, counters: &Arc<JobCounters>) {
    if !p.deferral_counted {
        p.deferral_counted = true;
        counters.deferred.fetch_add(1, Ordering::Relaxed);
        counters.deferred_bytes.fetch_add(p.cost, Ordering::Relaxed);
    }
}
