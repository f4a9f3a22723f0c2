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
//! sent and reads what arrived, as the fabric's progress thread would),
//! then polls every in-flight collective's outstanding channels with
//! the non-blocking [`Fabric::try_recv`], feeding arrivals to the
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
//! false, which hands the wire back to the fabric's progress thread;
//! it takes the wire back as soon as it wakes.
//!
//! A collective is one `Coll` record from submission to resolution:
//! admission fills in its in-flight part (slot, rank map, bytes sent,
//! outstanding channels), a failure epoch's re-queue drops it again.
//! Every outcome leaves through `Engine::resolve`, the only code here
//! that publishes a result: gauges, NIC refund, slot and exactly one
//! outcome counter are settled first, so a woken caller never reads
//! counts that still include it.
//!
//! ## Failure state machine (survive-and-complete)
//!
//! ```text
//!        evidence (health verdicts, send/recv errors, stalls, kills)
//!   Running ──────────────────────────────────────────────▶ Agreeing
//!      ▲                                                       │
//!      │   all cores commit an identical failed set F           │
//!      ◀───────────────────────────────────────────────────────┘
//!        F ≠ ∅: epoch += 1, members -= F; every affected collective
//!        in flight (touches F, wounded, or stalled) drops its
//!        in-flight part — slot quarantined, unsent bytes refunded —
//!        and goes back **at the head** of its job's FIFO to be
//!        re-planned on the densely re-ranked survivor group under
//!        exponential backoff + jitter — unless its retry cap is
//!        spent (RetriesExhausted) or its root died (Unsatisfiable).
//!        Unaffected collectives keep polling the whole time; only
//!        *admission* pauses during agreement.
//! ```
//!
//! The agreement itself is the runtime's [`AgreeCore`] — the identical
//! sweep-gossip protocol `rt::ft` drives with blocking receives — run
//! here as a per-member state-machine farm polled by the engine thread,
//! on domain 1 of the `0xFF` tag namespace ([`tag::svc_agree`]) so the
//! two layers can never collide on the wire.
//!
//! Failure containment: a fabric error or a progress stall fails *that*
//! collective (it resolves with the error through the one exit, which
//! quarantines its sequence slot so lingering frames can never alias a
//! future collective) and the engine keeps driving the rest.
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
use pipmcoll_fabric::{sync_timeout, tag, ChanKey, ChaosRng, FabricError};
use pipmcoll_rt::{AgreeCore, AgreeOutcome, AgreeStep, KillSpec, OpClass, RankSet};

use crate::admission::{DrrLane, TokenBucket, QUANTUM};
use crate::tagspace::TagSpace;
use crate::{JobCounters, Shared, SvcError};

/// One service collective from submission until [`Engine::resolve`]
/// publishes its outcome; `flight` is set while it is admitted.
struct Coll {
    comm: u32,
    /// Its job's index in [`Engine::jobs`].
    job: usize,
    /// Kept for re-planning on a shrunk group after a failure epoch.
    spec: CollSpec,
    req: Arc<crate::ReqShared>,
    submitted: Instant,
    deadline: Option<Instant>,
    retry_max: u32,
    /// Re-plans already performed (0 on first submission).
    retries: u32,
    /// Backoff gate: not admitted before this instant.
    not_before: Option<Instant>,
    /// The schedule planned before admission, and the failure epoch it
    /// was planned in (a later epoch changed the members under it).
    plan: Option<NbColl>,
    plan_epoch: u64,
    /// The plan's NIC bytes, paid into the token bucket at admission.
    cost: u64,
    /// Whether a deferral has been counted against stats yet.
    deferral_counted: bool,
    /// The in-flight part: set by admission, dropped by a re-queue.
    flight: Option<Flight>,
}

/// What an admitted collective holds while in flight.
struct Flight {
    slot: u32,
    /// Dense plan rank `j` is original rank `map[j]` (identity while no
    /// rank has failed): the engine's member list of the admitting epoch.
    map: Arc<[usize]>,
    /// Bytes the fabric accepted or that were handed over in place; the
    /// rest of `cost` is refunded if the collective leaves flight early.
    sent_bytes: u64,
    /// A recoverable fabric error was seen: the collective must be
    /// re-planned after the next agreement commit, whatever it decides.
    wounded: bool,
    last_progress: Instant,
    /// Channels with a message in flight towards us:
    /// `(chan, phase, dense_src, dense_dst)`.
    outstanding: Vec<(ChanKey, u32, usize, usize)>,
}

/// One job's scheduler-side state.
struct JobSched {
    fifo: VecDeque<Coll>,
    lane: DrrLane,
    tags: TagSpace,
    counters: Arc<JobCounters>,
}

/// The engine loop: runs until [`Shared::stop`], then fails whatever is
/// still queued or in flight with [`SvcError::Shutdown`].
pub(crate) fn run(shared: Arc<Shared>) {
    Engine::new(shared).run();
}

struct Engine {
    shared: Arc<Shared>,
    /// Jobs in first-submission order: the rotation DRR visits.
    jobs: Vec<JobSched>,
    /// The index in `jobs` of each communicator id.
    job_of: HashMap<u32, usize>,
    /// Admitted collectives, each with its `flight` set.
    active: Vec<Coll>,
    bucket: TokenBucket,
    /// Current survivor group, sorted ascending. Replaced, never
    /// mutated, at a failure epoch, so admission shares it.
    members: Arc<[usize]>,
    /// The fault DSL's op counts and the ranks it killed.
    faults: Faults,
    /// The node of each world rank, where the fabric knows it: two
    /// ranks on one node exchange messages in place (see [`send_all`]).
    nodes: Vec<Option<usize>>,
    /// Local suspicion accumulated since the last agreement.
    evidence: RankSet,
    /// Monotone counter naming each agreement's tag epoch.
    agree_seq: u32,
    /// The running agreement: a core per surviving member, all swept in
    /// lockstep on `tag::svc_agree(agree_seq, sweep)`.
    agree: Option<Vec<(usize, AgreeCore)>>,
    /// Cooldown after a commit so still-draining state can't spark an
    /// immediate re-agreement.
    no_detect_until: Instant,
    /// Next full-FIFO reap sweep (head entries are groomed every
    /// admission round; deep entries only need this coarse sweep).
    next_reap: Instant,
    /// Backoff jitter (fixed seed: runs are deterministic modulo
    /// scheduling).
    rng: ChaosRng,
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
        let kills = (0..world)
            .flat_map(|r| shared.cfg.fault.triggers_for(r))
            .filter(|k| matches!(k.op, OpClass::Submit | OpClass::Poll))
            .collect();
        let now = Instant::now();
        Engine {
            jobs: Vec::new(),
            job_of: HashMap::new(),
            active: Vec::new(),
            bucket,
            members: (0..world).collect(),
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
            no_detect_until: now,
            next_reap: now,
            rng: ChaosRng::new(0x9E37_79B9_7F4A_7C15),
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
            if self.agree.is_none() && !self.shared.frozen.load(Ordering::Relaxed) {
                self.admit(now);
            }
            // Write what admission sent and read what arrived, so the
            // poll below finds it (a no-op on fabrics without a wire).
            self.shared.fabric.drive(true);
            let progressed = self.poll(now);
            self.shared
                .inflight
                .store(self.active.len(), Ordering::Relaxed);

            let queued: usize = self.jobs.iter().map(|j| j.fifo.len()).sum();
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

    /// The one exit: every collective, queued or admitted, resolves
    /// here. [`Engine::settle`] its books, bump exactly one outcome
    /// counter, and only then publish the result.
    fn resolve(&mut self, mut c: Coll, outcome: crate::SvcResult<Vec<Vec<u8>>>) {
        let counters = &self.settle(&mut c, outcome.is_ok()).counters;
        let counter = match &outcome {
            Ok(_) => {
                counters.latency.record(c.submitted.elapsed());
                &counters.completed
            }
            Err(SvcError::Cancelled) => &counters.cancelled,
            Err(SvcError::DeadlineExpired { .. }) => &counters.deadline_expired,
            Err(_) => &counters.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        c.req.complete(outcome);
    }

    /// Take `c` off the queued or in-flight gauge; if admitted, refund
    /// the NIC bytes the fabric never accepted and release its slot if
    /// `ok`, else quarantine it (frames bearing its tags may still be
    /// in flight). Returns its job.
    fn settle(&mut self, c: &mut Coll, ok: bool) -> &mut JobSched {
        let sched = &mut self.jobs[c.job];
        match c.flight.take() {
            None => {
                sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
            }
            Some(fl) => {
                self.shared
                    .inflight
                    .store(self.active.len(), Ordering::Relaxed);
                self.bucket.refund(c.cost.saturating_sub(fl.sent_bytes));
                if ok {
                    sched.tags.release(fl.slot);
                } else {
                    sched.tags.quarantine(fl.slot);
                }
            }
        }
        sched
    }

    /// Remove the next admitted collective at or after `*at` that `pick`
    /// has a verdict on; calling again with the same cursor visits the rest.
    fn pluck<T>(
        &mut self,
        at: &mut usize,
        mut pick: impl FnMut(&Coll) -> Option<T>,
    ) -> Option<(Coll, T)> {
        while *at < self.active.len() {
            if let Some(v) = pick(&self.active[*at]) {
                return Some((self.active.swap_remove(*at), v));
            }
            *at += 1;
        }
        None
    }

    /// Park or sleep through `pause` with the wire handed back to the
    /// fabric's progress thread, then drive it again at once: the
    /// first admission after a pause must not wake it once per send.
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
            let job = *self.job_of.entry(sub.comm).or_insert_with(|| {
                // `Svc::job` registered the job's counters.
                let all = self
                    .shared
                    .counters
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                let counters = Arc::clone(&all[&sub.comm]);
                self.jobs.push(JobSched {
                    fifo: VecDeque::new(),
                    lane: DrrLane::default(),
                    tags: TagSpace::with_gauges(cfg.seq_bits, Arc::clone(&counters.slots)),
                    counters,
                });
                self.jobs.len() - 1
            });
            self.jobs[job].fifo.push_back(Coll {
                comm: sub.comm,
                job,
                spec: sub.spec,
                req: sub.req,
                submitted: now,
                deadline,
                retry_max,
                retries: 0,
                not_before: None,
                plan: None,
                plan_epoch: 0,
                cost: 0,
                deferral_counted: false,
                flight: None,
            });
        }
    }

    /// Resolve cancellations and expired deadlines. Actives are checked
    /// every pass (the set is small); queued entries behind the FIFO
    /// head only on a coarse 1 ms sweep (heads are groomed every
    /// admission round anyway).
    fn reap(&mut self, now: Instant) {
        let mut at = 0;
        while let Some((c, e)) = self.pluck(&mut at, |c| c.expired(now)) {
            self.resolve(c, Err(e));
        }
        if now < self.next_reap {
            return;
        }
        self.next_reap = now + Duration::from_millis(1);
        for job in 0..self.jobs.len() {
            let mut at = 0;
            loop {
                let fifo = &mut self.jobs[job].fifo;
                let hit = fifo
                    .range(at..)
                    .enumerate()
                    .find_map(|(k, c)| c.expired(now).map(|e| (at + k, e)));
                let Some((k, e)) = hit else { break };
                let c = fifo.remove(k).expect("found above");
                at = k;
                self.resolve(c, Err(e));
            }
        }
    }

    /// The detection duty: gather suspicion evidence and, if there is
    /// any, start an agreement over the current member set.
    fn detect(&mut self, now: Instant) {
        if self.agree.is_some() || now < self.no_detect_until {
            return;
        }
        let member_bits = self.members.iter().fold(0u64, |b, &r| b | 1 << r);
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
        for fl in self.active.iter().filter_map(|c| c.flight.as_ref()) {
            if !fl.outstanding.is_empty()
                && now.saturating_duration_since(fl.last_progress) > stall_cut
            {
                for &r in fl.map.iter() {
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
        let fabric = &self.shared.fabric;
        let mut cores = Vec::new();
        for &m in self.members.iter() {
            if self.faults.killed.contains(m) {
                continue;
            }
            let mut core = AgreeCore::new(m, self.members.to_vec(), self.evidence, true, delta);
            for msg in core.begin(now) {
                let t = tag::svc_agree(self.agree_seq, msg.sweep);
                if fabric.send((m, msg.to, t), msg.payload).is_err() {
                    core.send_failed(msg.to);
                }
            }
            cores.push((m, core));
        }
        self.agree = Some(cores);
    }

    /// Advance every agreement core one step; on unanimous commit,
    /// shrink the member set and re-queue affected collectives.
    fn drive_agreement(&mut self, now: Instant) {
        let Some(mut cores) = self.agree.take() else {
            return;
        };
        let fabric = &self.shared.fabric;
        let mut all_done = true;
        for (rank, core) in cores.iter_mut() {
            if core.committed().is_some() {
                continue;
            }
            let t = tag::svc_agree(self.agree_seq, core.sweep());
            for q in core.outstanding().to_vec() {
                if let Ok(Some(p)) = fabric.try_recv((q, *rank, t)) {
                    core.deliver(q, &p);
                }
            }
            if let AgreeStep::Sweep(msgs) = core.step(now) {
                for m in msgs {
                    let t = tag::svc_agree(self.agree_seq, m.sweep);
                    if fabric.send((*rank, m.to, t), m.payload).is_err() {
                        core.send_failed(m.to);
                    }
                }
            }
            if core.committed().is_none() {
                all_done = false;
            }
        }
        if !all_done {
            self.agree = Some(cores);
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
        for (_, c) in &cores {
            if let AgreeOutcome::Commit { failed, .. } = c.committed().expect("all cores done") {
                union.union(failed);
            }
        }
        let mut committed = RankSet::new();
        let mut any_commit = false;
        let mut lost: Option<(RankSet, RankSet)> = None;
        for (r, c) in &cores {
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
                self.freeze(survivors, members, now);
                return;
            }
        }
        // A commit — even of the empty set — proves quorum: unfreeze.
        self.evidence = RankSet::new();
        self.shared.frozen.store(false, Ordering::Relaxed);
        if !committed.is_empty() {
            self.members = self
                .members
                .iter()
                .copied()
                .filter(|&r| !committed.contains(r))
                .collect();
            self.shared.epoch.fetch_add(1, Ordering::Relaxed);
            self.shared
                .failed_bits
                .fetch_or(committed.bits(), Ordering::Relaxed);
        }
        // A shrunk group invalidates every plan made against the old
        // one (the epoch moved); they are re-planned at admission. A
        // collective touching the committed set or a DSL-killed rank
        // re-plans unless its retry cap is spent or its root is dead.
        let killed = self.faults.killed;
        let failed = RankSet::from_bits(self.shared.failed_bits.load(Ordering::Relaxed));
        self.sweep_troubled(
            now,
            |r| committed.contains(r) || killed.contains(r),
            |c| {
                if c.retries >= c.retry_max {
                    return Some(SvcError::RetriesExhausted {
                        attempts: c.retries,
                    });
                }
                let root = c.spec.root().filter(|&r| failed.contains(r))?;
                Some(SvcError::Unsatisfiable { rank: root })
            },
        );
    }

    /// Quorum lost: resolve every affected collective in flight with
    /// the typed [`SvcError::QuorumLost`] (retrying would just stall
    /// against the unreachable side again) and freeze admission.
    /// Suspicion evidence is kept so detection re-runs agreement after
    /// each cooldown; the first commit — quorum regained — unfreezes.
    fn freeze(&mut self, survivors: RankSet, members: RankSet, now: Instant) {
        self.shared.frozen.store(true, Ordering::Relaxed);
        let err = SvcError::QuorumLost {
            survivors: survivors.ranks(),
            members: members.len(),
        };
        self.sweep_troubled(now, |r| !survivors.contains(r), |_| Some(err.clone()));
    }

    /// Take every collective in flight that is wounded or spans a rank
    /// `dead` names out of flight: resolve it with `verdict`'s error,
    /// or else push it back at its job's FIFO head, to be re-planned
    /// after a backoff.
    fn sweep_troubled(
        &mut self,
        now: Instant,
        dead: impl Fn(usize) -> bool,
        verdict: impl Fn(&Coll) -> Option<SvcError>,
    ) {
        let mut at = 0;
        while let Some((mut c, fail)) = self.pluck(&mut at, |c| {
            let fl = c.flight.as_ref()?;
            (fl.wounded || fl.map.iter().any(|&r| dead(r))).then(|| verdict(c))
        }) {
            if let Some(e) = fail {
                self.resolve(c, Err(e));
                continue;
            }
            c.not_before = Some(now + self.backoff(c.retries));
            c.retries += 1;
            c.plan = None;
            c.deferral_counted = true;
            let sched = self.settle(&mut c, false);
            sched.counters.retried.fetch_add(1, Ordering::Relaxed);
            sched.counters.queued.fetch_add(1, Ordering::Relaxed);
            sched.fifo.push_front(c);
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
        let jitter_us = self.rng.next_u64() % (capped.as_micros().max(1) as u64 / 4 + 1);
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
        let members = Arc::clone(&self.members);
        let epoch = self.shared.epoch.load(Ordering::Relaxed);
        let world = self.shared.cfg.world;
        for job in 0..self.jobs.len() {
            let mut credited = false;
            loop {
                // Groom the head: cancellations, deadlines, backoff
                // gates, (re-)planning.
                let sched = &mut self.jobs[job];
                let Some(head) = sched.fifo.front_mut() else {
                    // Idle lanes forfeit their credit: a returning job
                    // must not burst on banked quanta.
                    sched.lane.forfeit();
                    break;
                };
                if let Some(e) = head.expired(now) {
                    let c = sched.fifo.pop_front().expect("head");
                    self.resolve(c, Err(e));
                    continue;
                }
                if head.not_before.is_some_and(|t| now < t) {
                    // In backoff: the job sits this round out (FIFO
                    // order is preserved across retries).
                    break;
                }
                if head.plan.is_none() || head.plan_epoch != epoch {
                    let planned = if members.is_empty() {
                        Err(PlanError::RootFailed {
                            root: head.spec.root().unwrap_or(0),
                        })
                    } else {
                        head.spec.plan_on(&members)
                    };
                    match planned {
                        Ok(p) => {
                            head.cost = p.nic_bytes();
                            head.plan = Some(p);
                            head.plan_epoch = epoch;
                        }
                        Err(e) => {
                            let c = sched.fifo.pop_front().expect("head");
                            self.resolve(
                                c,
                                Err(match e {
                                    PlanError::RootFailed { root } => {
                                        SvcError::Unsatisfiable { rank: root }
                                    }
                                    e => SvcError::Invalid(e),
                                }),
                            );
                            continue;
                        }
                    }
                }
                let cost = head.cost;
                if !credited {
                    sched.lane.credit(QUANTUM, cost + QUANTUM);
                    credited = true;
                }
                if budget_left == 0 || sched.lane.deficit < cost {
                    head.defer(&sched.counters);
                    break;
                }
                // Tokens before the slot: a head that waits on the
                // bucket must not cycle a slot through the cooling
                // window every pass.
                if !self.bucket.try_take(cost) {
                    head.defer(&sched.counters);
                    break;
                }
                let Some(slot) = sched.tags.acquire() else {
                    self.bucket.refund(cost);
                    head.defer(&sched.counters);
                    break;
                };
                assert!(sched.lane.try_pay(cost), "deficit checked above");
                let mut c = sched.fifo.pop_front().expect("head exists");
                budget_left -= 1;
                sched.counters.queued.fetch_sub(1, Ordering::Relaxed);
                sched.counters.admitted.fetch_add(1, Ordering::Relaxed);
                sched
                    .counters
                    .admitted_bytes
                    .fetch_add(cost, Ordering::Relaxed);
                // Every participating rank performs a `submit` op — a
                // DSL trigger here kills the rank *before* its sends.
                for &r in members.iter() {
                    self.faults.tick(r, OpClass::Submit);
                }
                c.flight = Some(Flight {
                    slot,
                    map: Arc::clone(&members),
                    sent_bytes: 0,
                    wounded: false,
                    last_progress: now,
                    outstanding: Vec::new(),
                });
                let first = c.admitted().0.start();
                match send_all(
                    &mut c,
                    &self.shared,
                    &self.nodes,
                    &mut self.faults,
                    &mut self.evidence,
                    first,
                ) {
                    // Degenerate (single-rank) collectives finish
                    // without traffic.
                    Ok(()) if c.admitted().0.done() => {
                        let out = c.outputs(world);
                        self.resolve(c, Ok(out));
                    }
                    Ok(()) => self.active.push(c),
                    Err(e) => self.resolve(c, Err(e)),
                }
            }
        }
    }

    /// Poll every in-flight collective's outstanding channels.
    fn poll(&mut self, now: Instant) -> bool {
        let world = self.shared.cfg.world;
        let ft = self.shared.cfg.ft;
        // In ft mode a stall is the detector's business first; the
        // terminal verdict is a backstop at twice the window.
        let stall_cut = sync_timeout() * if ft { 2 } else { 1 };
        let mut progressed = false;
        let mut i = 0;
        while i < self.active.len() {
            let c = &mut self.active[i];
            let mut verdict: Option<SvcError> = None;
            let mut j = 0;
            loop {
                let (plan, fl) = c.admitted();
                let Some(&(chan, phase, dsrc, ddst)) = fl.outstanding.get(j) else {
                    break;
                };
                // A dead destination never polls; its frames rot under
                // a tag headed for quarantine.
                if self.faults.tick(chan.1, OpClass::Poll) {
                    j += 1;
                    continue;
                }
                match self.shared.fabric.try_recv(chan) {
                    Ok(None) => j += 1,
                    Ok(Some(payload)) => {
                        progressed = true;
                        fl.outstanding.swap_remove(j);
                        fl.last_progress = now;
                        let emitted = plan.deliver(dsrc, ddst, phase, payload);
                        if let Err(e) = send_all(
                            c,
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
                        fl.wounded = true;
                        note_suspects(&e, &mut self.evidence);
                        fl.outstanding.swap_remove(j);
                    }
                    Err(e) => {
                        verdict = Some(e.into());
                        break;
                    }
                }
            }
            let (plan, fl) = c.admitted();
            let done = plan.done();
            let quiet = now.saturating_duration_since(fl.last_progress);
            if verdict.is_none() && self.agree.is_none() && !done && quiet > stall_cut {
                verdict = Some(SvcError::Stalled {
                    waited: quiet,
                    outstanding: fl.outstanding.len(),
                });
            }
            if let Some(e) = verdict {
                let c = self.active.swap_remove(i);
                self.resolve(c, Err(e));
            } else if done {
                progressed = true;
                let mut c = self.active.swap_remove(i);
                let out = c.outputs(world);
                self.resolve(c, Ok(out));
            } else {
                i += 1;
            }
        }
        progressed
    }

    /// Fail everything still queued or in flight with `Shutdown`.
    fn shutdown(&mut self) {
        let mut left = std::mem::take(&mut self.active);
        for sched in &mut self.jobs {
            left.extend(sched.fifo.drain(..));
        }
        for c in left {
            self.resolve(c, Err(SvcError::Shutdown));
        }
    }
}

impl Coll {
    /// The plan and the in-flight part of an admitted collective.
    fn admitted(&mut self) -> (&mut NbColl, &mut Flight) {
        match (&mut self.plan, &mut self.flight) {
            (Some(plan), Some(fl)) => (plan, fl),
            _ => unreachable!("an admitted collective has a plan and a flight"),
        }
    }

    /// The cancel/deadline verdict on this collective at `now`.
    fn expired(&self, now: Instant) -> Option<SvcError> {
        if self.req.is_cancelled() {
            Some(SvcError::Cancelled)
        } else if self.deadline.is_some_and(|d| now >= d) {
            Some(SvcError::DeadlineExpired {
                waited: now.saturating_duration_since(self.submitted),
            })
        } else {
            None
        }
    }

    /// Count one deferral against stats, once per collective.
    fn defer(&mut self, counters: &JobCounters) {
        if !self.deferral_counted {
            self.deferral_counted = true;
            counters.deferred.fetch_add(1, Ordering::Relaxed);
            counters
                .deferred_bytes
                .fetch_add(self.cost, Ordering::Relaxed);
        }
    }

    /// A completed collective's dense outputs expanded to world-rank
    /// order (dead ranks get empty buffers).
    fn outputs(&mut self, world: usize) -> Vec<Vec<u8>> {
        let (plan, fl) = self.admitted();
        let dense = plan.outputs();
        if fl.map.len() == world {
            // Identity map: the fast path every fault-free run takes.
            return dense;
        }
        let mut out = vec![Vec::new(); world];
        for (j, buf) in dense.into_iter().enumerate() {
            out[fl.map[j]] = buf;
        }
        out
    }
}

/// Send `msgs`, registering the receive side of each for polling. A
/// message between two ranks of one node (`nodes`) never reaches the
/// fabric: they share an address space, so the engine delivers it in
/// place, as the destination's receive (a `poll` op of the fault DSL),
/// and works off whatever that delivery emits the same way. A
/// DSL-killed source "sends" nothing, and a DSL-killed destination
/// receives nothing — the receive still registers, so the stall is
/// observable. Only bytes the fabric accepted or that were handed over
/// in place count as sent. Recoverable transport errors wound the
/// collective instead of failing it (the retry path owns it from
/// there); only structural errors are returned.
fn send_all(
    c: &mut Coll,
    shared: &Shared,
    nodes: &[Option<usize>],
    faults: &mut Faults,
    evidence: &mut RankSet,
    msgs: Vec<Msg>,
) -> Result<(), SvcError> {
    let comm = c.comm;
    let (plan, fl) = c.admitted();
    let mut work = VecDeque::from(msgs);
    while let Some(m) = work.pop_front() {
        let (os, od) = (fl.map[m.src], fl.map[m.dst]);
        let chan: ChanKey = (os, od, tag::svc(comm, fl.slot, m.phase));
        let bytes = m.payload.len() as u64;
        if faults.killed.contains(os) {
            fl.outstanding.push((chan, m.phase, m.src, m.dst));
            continue;
        }
        if nodes[os].is_some() && nodes[os] == nodes[od] {
            if faults.tick(od, OpClass::Poll) {
                fl.outstanding.push((chan, m.phase, m.src, m.dst));
            } else {
                shared.in_place.fetch_add(1, Ordering::Relaxed);
                fl.sent_bytes += bytes;
                work.extend(plan.deliver(m.src, m.dst, m.phase, m.payload));
            }
            continue;
        }
        match shared.fabric.send(chan, m.payload) {
            Ok(()) => fl.sent_bytes += bytes,
            Err(e) if recoverable(&e) => {
                fl.wounded = true;
                note_suspects(&e, evidence);
            }
            Err(e) => return Err(e.into()),
        }
        fl.outstanding.push((chan, m.phase, m.src, m.dst));
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

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use std::sync::Mutex;

    use pipmcoll_fabric::wait::WorkSignal;
    use pipmcoll_fabric::InProcFabric;
    use pipmcoll_model::{Datatype, ReduceOp};

    use super::*;
    use crate::{ReqShared, Submission, SubmitOpts, SvcConfig};

    /// A metered config for world 2 whose bucket barely refills while a
    /// test runs (1 B/s).
    fn metered() -> SvcConfig {
        SvcConfig {
            nic_budget: Some(1),
            ..SvcConfig::new(2)
        }
    }

    /// An engine over an in-process fabric, not running, whose one job
    /// has one 16 × i32 allreduce queued.
    fn engine_with_one_queued(cfg: SvcConfig) -> Engine {
        let spec = CollSpec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs: vec![vec![0; 64]; cfg.world],
        };
        let shared = Arc::new(Shared {
            fabric: Arc::new(InProcFabric::new()),
            cfg,
            sig: WorkSignal::new(),
            inbox: Mutex::new(vec![Submission {
                comm: 0,
                spec,
                opts: SubmitOpts::default(),
                req: ReqShared::new(),
            }]),
            stop: AtomicBool::new(false),
            counters: Mutex::new(HashMap::from([(0, Arc::default())])),
            inflight: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            failed_bits: AtomicU64::new(0),
            frozen: AtomicBool::new(false),
            in_place: AtomicU64::new(0),
        });
        let mut engine = Engine::new(shared);
        engine.drain_inbox();
        engine
    }

    #[test]
    fn a_head_waiting_on_tokens_takes_no_slot() {
        let cfg = metered();
        let burst = cfg.burst;
        let mut e = engine_with_one_queued(cfg);
        assert!(e.bucket.try_take(burst), "empty the bucket");
        for _ in 0..5 {
            e.admit(Instant::now());
        }
        let job = &e.jobs[0];
        assert_eq!(job.fifo.len(), 1, "the head still waits");
        assert_eq!(job.tags.issued(), 0, "no slot was granted");
        assert_eq!(job.counters.deferred.load(Ordering::Relaxed), 1);
        // Tokens back: the head goes in on the slot a fresh space issues
        // first, so no earlier pass pushed a slot through the cooling
        // window.
        e.bucket.refund(burst);
        e.admit(Instant::now());
        let job = &e.jobs[0];
        assert!(job.fifo.is_empty());
        assert_eq!(job.tags.issued(), 1);
        assert_eq!(e.active.len(), 1);
        assert_eq!(e.active[0].flight.as_ref().map(|f| f.slot), Some(0));
    }

    #[test]
    fn a_head_waiting_on_a_slot_keeps_no_tokens() {
        let cfg = SvcConfig {
            seq_bits: 1,
            ..metered()
        };
        let burst = cfg.burst;
        let mut e = engine_with_one_queued(cfg);
        let tags = &mut e.jobs[0].tags;
        while tags.acquire().is_some() {}
        for _ in 0..5 {
            e.admit(Instant::now());
        }
        assert_eq!(e.jobs[0].fifo.len(), 1, "the head still waits");
        assert!(e.bucket.try_take(burst), "every pass refunded its tokens");
    }
}
