//! Sound happens-before analysis of recorded schedules: the workspace's
//! one race and deadlock proof.
//!
//! An execution shows what a schedule computes in the one order it ran;
//! a race whose competing orders were never run, or happen to produce
//! identical bytes, leaves no trace in it. This module instead runs a
//! classical vector-clock analysis that reasons about *every* legal
//! interleaving at once. Every checked execution asks for it first:
//! [`crate::verify::run`] (the tests' prove-then-execute call), the
//! thread runtime's verified launch, and the non-blocking collectives'
//! plan cache (`pipmcoll_core::nb`), which the service runs.
//!
//! # Model
//!
//! Every op becomes one **event**; receives additionally get a *delivery*
//! event (the moment the payload lands in the destination buffer, which is
//! not the moment the receive is posted), and node barriers are split into
//! an *arrive* and a *depart* event joined through a per-generation hub.
//! Happens-before edges are exactly the orderings the runtimes guarantee:
//!
//! * **program order** within each rank;
//! * **message matching**: the k-th send on a `(src, dst, tag)` channel
//!   happens-before the k-th delivery, the k-th receive-post
//!   happens-before its delivery, deliveries on one channel are FIFO, and
//!   a delivery happens-before the `Wait` on its request;
//! * **address posting**: `PostAddr(slot)` happens-before every op that
//!   resolves `(rank, slot)` — shared accesses block until the post;
//! * **flag prefix rule**: for a `WaitFlag(f, k)` on rank *q* where the
//!   whole program delivers `S` signals to `(q, f)` and sender *p*
//!   contributes `m_p` of them, the first `k − (S − m_p)` signals of *p*
//!   happen-before the wait — those are the signals that must have arrived
//!   in *every* interleaving when the counter first reaches `k` (signals
//!   from one sender arrive in program order);
//! * **barriers**: every arrive happens-before every depart of the same
//!   node generation.
//!
//! Each event carries a vector clock with one component per rank chain and
//! one per channel delivery chain; `a` happens-before `b` iff
//! `clock(b)[chain(a)] ≥ tick(a)`.
//!
//! # What is flagged
//!
//! * **Races**: two accesses to overlapping byte ranges of the same
//!   `(owner rank, buffer)`, at least one a write, on *unordered* events.
//!   Reads attach to the issuing event (both interpreters copy payloads at
//!   issue time); receive writes attach to the delivery event.
//! * **Deadlocks**: a cycle in the blocking (waits-for) relation — every
//!   edge above is one a runtime genuinely blocks on, so any cycle hangs.
//!   The cycle is reported by name.
//! * **Structural hangs**: receives no send can ever match, `WaitFlag`
//!   counts no signal population can satisfy, barrier generations some
//!   node rank never reaches, accesses to never-posted slots, and slots
//!   reposted with a different region (which would make resolution
//!   timing-dependent).
//!
//! The analysis is conservative: it may reject an exotic schedule whose
//! correctness relies on orderings it does not model (e.g. waiting for
//! fewer signals than are sent and relying on *which* arrive first), but
//! every schedule it accepts is race-free under all interleavings the
//! runtimes can produce.

use std::collections::HashMap;
use std::fmt;

use crate::ids::{BufId, Region};
use crate::op::Op;
use crate::schedule::Schedule;

/// Statistics from a successful analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct HbReport {
    /// Events in the happens-before graph.
    pub events: usize,
    /// Edges in the happens-before graph.
    pub edges: usize,
    /// Byte-range accesses extracted from the schedule.
    pub accesses: usize,
    /// Overlapping access pairs whose ordering was queried.
    pub pairs_checked: usize,
}

/// One side of a reported race.
#[derive(Clone, Debug)]
pub struct AccessSite {
    /// Rank executing the op.
    pub rank: usize,
    /// Op index within that rank's program.
    pub op: usize,
    /// Op mnemonic.
    pub what: &'static str,
    /// Whether the access occurs at message delivery (vs op issue).
    pub at_delivery: bool,
    /// Whether the access writes.
    pub write: bool,
    /// Accessed byte range `[start, end)` within the buffer.
    pub range: (usize, usize),
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} op {} ({}{}) {} [{}, {})",
            self.rank,
            self.op,
            self.what,
            if self.at_delivery {
                ", at delivery"
            } else {
                ""
            },
            if self.write { "writes" } else { "reads" },
            self.range.0,
            self.range.1
        )
    }
}

/// A single happens-before violation.
#[derive(Clone, Debug)]
pub enum Violation {
    /// Two unordered accesses to overlapping bytes, at least one a write.
    Race {
        /// Rank owning the accessed buffer.
        owner: usize,
        /// The accessed buffer.
        buf: BufId,
        /// One access.
        a: AccessSite,
        /// The other access.
        b: AccessSite,
    },
    /// A cycle in the waits-for relation; every participant blocks forever.
    Deadlock {
        /// Human-readable labels of the events on the cycle, in order.
        cycle: Vec<String>,
    },
    /// A receive that no send on its channel can ever match.
    UnmatchedRecv {
        /// Receiving rank.
        rank: usize,
        /// Op index of the receive.
        op: usize,
        /// Expected source rank.
        src: usize,
        /// Expected tag.
        tag: u32,
    },
    /// A `WaitFlag` whose count exceeds the total signals ever sent.
    StarvedWait {
        /// Waiting rank.
        rank: usize,
        /// Op index of the wait.
        op: usize,
        /// Flag id.
        flag: u16,
        /// Demanded count.
        count: u32,
        /// Signals the whole program delivers to this flag.
        available: u32,
    },
    /// A slot posted twice with different regions (resolution would depend
    /// on timing).
    RepostedSlot {
        /// Posting rank.
        rank: usize,
        /// Slot id.
        slot: u16,
        /// Op index of the first post.
        first_op: usize,
        /// Op index of the conflicting repost.
        second_op: usize,
    },
    /// A shared access to a slot its owner never posts; the access blocks
    /// forever.
    UnpostedSlot {
        /// Accessing rank.
        rank: usize,
        /// Op index of the access.
        op: usize,
        /// Rank that was expected to post.
        owner: usize,
        /// Slot id.
        slot: u16,
    },
    /// A shared access extending past the posted region.
    RemoteOutOfBounds {
        /// Accessing rank.
        rank: usize,
        /// Op index of the access.
        op: usize,
        /// The access, rendered.
        access: String,
        /// The posted region, rendered.
        posted: String,
    },
    /// A barrier generation some rank of the node never reaches; arrivals
    /// block forever.
    BarrierShortfall {
        /// Node id.
        node: usize,
        /// Barrier generation (1-based).
        generation: usize,
        /// Ranks that reach this generation.
        arrived: usize,
        /// Ranks on the node.
        expected: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Race { owner, buf, a, b } => write!(
                f,
                "race on rank {owner}'s {buf} buffer: {a} is unordered with {b}"
            ),
            Violation::Deadlock { cycle } => {
                write!(f, "deadlock cycle: {}", cycle.join(" -> "))
            }
            Violation::UnmatchedRecv { rank, op, src, tag } => write!(
                f,
                "rank {rank} op {op}: recv from {src} tag {tag} can never be matched"
            ),
            Violation::StarvedWait {
                rank,
                op,
                flag,
                count,
                available,
            } => write!(
                f,
                "rank {rank} op {op}: wait_flag({flag}, {count}) but only {available} signals exist"
            ),
            Violation::RepostedSlot {
                rank,
                slot,
                first_op,
                second_op,
            } => write!(
                f,
                "rank {rank}: slot {slot} posted at op {first_op} and reposted with a \
                 different region at op {second_op}; resolution is timing-dependent"
            ),
            Violation::UnpostedSlot {
                rank,
                op,
                owner,
                slot,
            } => write!(
                f,
                "rank {rank} op {op}: accesses slot {slot} of rank {owner}, which never posts it"
            ),
            Violation::RemoteOutOfBounds {
                rank,
                op,
                access,
                posted,
            } => write!(
                f,
                "rank {rank} op {op}: remote access {access} exceeds posted region {posted}"
            ),
            Violation::BarrierShortfall {
                node,
                generation,
                arrived,
                expected,
            } => write!(
                f,
                "node {node}: barrier #{generation} is reached by only {arrived} of \
                 {expected} ranks"
            ),
        }
    }
}

/// Analysis failure: one or more violations (races are capped at
/// [`MAX_RACES_REPORTED`]; the error notes when the cap was hit).
#[derive(Clone, Debug)]
pub struct HbError {
    /// Everything found, most fundamental first (structural, deadlock,
    /// races).
    pub violations: Vec<Violation>,
    /// Whether race reporting was truncated.
    pub truncated: bool,
}

/// Cap on the number of race pairs reported in one [`HbError`].
pub const MAX_RACES_REPORTED: usize = 16;

impl fmt::Display for HbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violation(s)", self.violations.len())?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        if self.truncated {
            write!(f, "\n  (further races omitted)")?;
        }
        Ok(())
    }
}

impl std::error::Error for HbError {}

/// Run the happens-before analysis on `sched`.
///
/// Returns graph statistics on success, or every violation found. The
/// schedule need not pass [`Schedule::validate`] first — the analysis
/// stands alone so it can classify deliberately broken (mutant) schedules —
/// but op regions must be in bounds of their rank's buffers.
pub fn check(sched: &Schedule) -> Result<HbReport, HbError> {
    Analyzer::new(sched).run()
}

const NO_CHAIN: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvKind {
    /// The op's issue point.
    Main,
    /// The delivery of a receive's payload.
    Deliver,
    /// The depart half of a node barrier.
    Depart,
    /// The rendezvous point of one barrier generation on one node.
    Hub { node: usize, gen: usize },
}

#[derive(Clone, Copy, Debug)]
struct Ev {
    rank: usize,
    op: usize,
    kind: EvKind,
    /// Vector-clock component this event ticks (rank chains first, then
    /// channel chains; `NO_CHAIN` for hubs, which are never queried).
    chain: usize,
    tick: u32,
}

#[derive(Clone, Copy, Debug)]
struct Access {
    ev: usize,
    owner: usize,
    buf: BufId,
    start: usize,
    end: usize,
    write: bool,
    rank: usize,
    op: usize,
    what: &'static str,
    at_delivery: bool,
}

struct Analyzer<'a> {
    sched: &'a Schedule,
    world: usize,
    events: Vec<Ev>,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    edges: usize,
    violations: Vec<Violation>,
    /// main event of each (rank, op).
    main: Vec<Vec<usize>>,
    /// delivery event of each receiving (rank, op).
    deliver: HashMap<(usize, usize), usize>,
    /// `(accessing rank, op) -> (post event, resolved region, owner)` for
    /// every op referencing a `RemoteRegion` that resolves.
    resolved: HashMap<(usize, usize), (usize, Region, usize)>,
    /// Number of channel chains assigned so far.
    channels: usize,
}

impl<'a> Analyzer<'a> {
    fn new(sched: &'a Schedule) -> Self {
        let world = sched.topo().world_size();
        Analyzer {
            sched,
            world,
            events: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            edges: 0,
            violations: Vec::new(),
            main: vec![Vec::new(); world],
            deliver: HashMap::new(),
            resolved: HashMap::new(),
            channels: 0,
        }
    }

    fn push_event(&mut self, ev: Ev) -> usize {
        self.events.push(ev);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.events.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.preds[to].push(from);
        self.succs[from].push(to);
        self.edges += 1;
    }

    fn run(mut self) -> Result<HbReport, HbError> {
        let barrier_sites = self.build_rank_chains();
        self.build_barriers(barrier_sites);
        self.build_channels();
        self.build_wait_edges();
        self.build_post_edges();
        self.build_signal_edges();

        let (order, clocks) = self.propagate_clocks();
        if order.len() < self.events.len() {
            self.report_cycle(&order);
            return Err(self.into_error(false));
        }

        let accesses = self.collect_accesses();
        let pairs = self.detect_races(&accesses, &clocks);
        if self.violations.is_empty() {
            Ok(HbReport {
                events: self.events.len(),
                edges: self.edges,
                accesses: accesses.len(),
                pairs_checked: pairs,
            })
        } else {
            let truncated = pairs == usize::MAX; // set by detect_races on cap
            Err(self.into_error(truncated))
        }
    }

    fn into_error(self, truncated: bool) -> HbError {
        HbError {
            violations: self.violations,
            truncated,
        }
    }

    /// Create main/deliver/depart events and program-order edges.
    /// Returns each barrier's `(node, generation, arrive, depart)`.
    fn build_rank_chains(&mut self) -> Vec<(usize, usize, usize, usize)> {
        let topo = self.sched.topo();
        let mut barriers = Vec::new();
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            let mut tick = 0u32;
            let next_tick = |t: &mut u32| {
                *t += 1;
                *t
            };
            let mut prev: Option<usize> = None;
            let mut gen = 0usize;
            for (i, op) in prog.ops.iter().enumerate() {
                let m = self.push_event(Ev {
                    rank,
                    op: i,
                    kind: EvKind::Main,
                    chain: rank,
                    tick: next_tick(&mut tick),
                });
                self.main[rank].push(m);
                if let Some(p) = prev {
                    self.edge(p, m);
                }
                prev = Some(m);
                match op {
                    Op::IRecv { .. } | Op::IRecvShared { .. } => {
                        // Chain/tick assigned when channels are matched.
                        let d = self.push_event(Ev {
                            rank,
                            op: i,
                            kind: EvKind::Deliver,
                            chain: NO_CHAIN,
                            tick: 0,
                        });
                        self.deliver.insert((rank, i), d);
                    }
                    Op::NodeBarrier => {
                        let depart = self.push_event(Ev {
                            rank,
                            op: i,
                            kind: EvKind::Depart,
                            chain: rank,
                            tick: next_tick(&mut tick),
                        });
                        barriers.push((topo.node_of(rank), gen, m, depart));
                        gen += 1;
                        prev = Some(depart);
                    }
                    _ => {}
                }
            }
        }
        barriers
    }

    /// Hub events: every arrive of a `(node, generation)` happens-before
    /// every depart. Generations some node rank never reaches are flagged.
    fn build_barriers(&mut self, sites: Vec<(usize, usize, usize, usize)>) {
        let topo = self.sched.topo();
        let mut groups: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
        for (node, gen, arrive, depart) in sites {
            groups
                .entry((node, gen))
                .or_default()
                .push((arrive, depart));
        }
        let mut keys: Vec<(usize, usize)> = groups.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (node, gen) = key;
            let members = &groups[&key];
            let expected = topo.ranks_on_node(node).count();
            if members.len() < expected {
                self.violations.push(Violation::BarrierShortfall {
                    node,
                    generation: gen + 1,
                    arrived: members.len(),
                    expected,
                });
            }
            let hub = self.push_event(Ev {
                rank: usize::MAX,
                op: usize::MAX,
                kind: EvKind::Hub { node, gen },
                chain: NO_CHAIN,
                tick: 0,
            });
            for &(arrive, depart) in &groups[&key] {
                self.edge(arrive, hub);
                self.edge(hub, depart);
            }
        }
    }

    /// Send→delivery, receive-post→delivery, and per-channel FIFO edges;
    /// assigns each delivery its channel chain and tick.
    fn build_channels(&mut self) {
        for ch in self.sched.wiring().channels() {
            if ch.recvs.is_empty() {
                continue;
            }
            let chain = self.world + self.channels;
            self.channels += 1;
            let mut prev_d: Option<usize> = None;
            for (k, &i) in ch.recvs.iter().enumerate() {
                let d = self.deliver[&(ch.dst, i)];
                self.events[d].chain = chain;
                self.events[d].tick = (k + 1) as u32;
                self.edge(self.main[ch.dst][i], d);
                if let Some(p) = prev_d {
                    self.edge(p, d);
                }
                prev_d = Some(d);
                if let Some(&s) = ch.sends.get(k) {
                    self.edge(self.main[ch.src][s], d);
                } else {
                    self.violations.push(Violation::UnmatchedRecv {
                        rank: ch.dst,
                        op: i,
                        src: ch.src,
                        tag: ch.tag,
                    });
                }
            }
        }
    }

    /// `Wait` on a receive request happens-after its delivery. Waits on
    /// sends add nothing: both runtimes buffer the payload at issue.
    fn build_wait_edges(&mut self) {
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                if let Op::Wait { req } = op {
                    if let Some(&d) = self.deliver.get(&(rank, req.0)) {
                        let m = self.main[rank][i];
                        self.edge(d, m);
                    }
                }
            }
        }
    }

    /// `PostAddr` happens-before every op resolving its `(rank, slot)`;
    /// records the resolved concrete region for access extraction.
    fn build_post_edges(&mut self) {
        let mut posts: HashMap<(usize, u16), (usize, Region, usize)> = HashMap::new();
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                if let Op::PostAddr { slot, region } = op {
                    match posts.get(&(rank, *slot)) {
                        None => {
                            posts.insert((rank, *slot), (self.main[rank][i], *region, i));
                        }
                        Some(&(_, first_region, first_op)) => {
                            if first_region != *region {
                                self.violations.push(Violation::RepostedSlot {
                                    rank,
                                    slot: *slot,
                                    first_op,
                                    second_op: i,
                                });
                            }
                        }
                    }
                }
            }
        }
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                let rr = match op {
                    Op::ISendShared { src, .. } => src,
                    Op::IRecvShared { dst, .. } => dst,
                    Op::CopyIn { from, .. } => from,
                    Op::CopyOut { to, .. } => to,
                    Op::ReduceIn { from, .. } => from,
                    _ => continue,
                };
                let Some(&(post_ev, base, _)) = posts.get(&(rr.rank, rr.slot)) else {
                    self.violations.push(Violation::UnpostedSlot {
                        rank,
                        op: i,
                        owner: rr.rank,
                        slot: rr.slot,
                    });
                    continue;
                };
                if rr.offset + rr.len > base.len {
                    self.violations.push(Violation::RemoteOutOfBounds {
                        rank,
                        op: i,
                        access: rr.to_string(),
                        posted: base.to_string(),
                    });
                    continue;
                }
                self.edge(post_ev, self.main[rank][i]);
                let concrete = Region::new(base.buf, base.offset + rr.offset, rr.len);
                self.resolved
                    .insert((rank, i), (post_ev, concrete, rr.rank));
            }
        }
    }

    /// The flag prefix rule (see module docs): for `WaitFlag(f, k)` on `q`,
    /// each sender's first `k − (S − m_p)` signals happen-before the wait.
    fn build_signal_edges(&mut self) {
        // (target rank, flag) -> sender -> signal events in program order.
        let mut signals: HashMap<(usize, u16), HashMap<usize, Vec<usize>>> = HashMap::new();
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                if let Op::Signal { rank: target, flag } = op {
                    signals
                        .entry((*target, *flag))
                        .or_default()
                        .entry(rank)
                        .or_default()
                        .push(self.main[rank][i]);
                }
            }
        }
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                let Op::WaitFlag { flag, count } = op else {
                    continue;
                };
                let senders = signals.get(&(rank, *flag));
                let total: u32 = senders
                    .map(|s| s.values().map(|v| v.len() as u32).sum())
                    .unwrap_or(0);
                if *count > total {
                    self.violations.push(Violation::StarvedWait {
                        rank,
                        op: i,
                        flag: *flag,
                        count: *count,
                        available: total,
                    });
                    continue;
                }
                let Some(senders) = senders else { continue };
                let wait_ev = self.main[rank][i];
                let mut sender_ranks: Vec<usize> = senders.keys().copied().collect();
                sender_ranks.sort_unstable();
                for p in sender_ranks {
                    let sigs = &senders[&p];
                    let guaranteed =
                        (*count as i64 - (total as i64 - sigs.len() as i64)).max(0) as usize;
                    for &s in sigs.iter().take(guaranteed) {
                        self.edge(s, wait_ev);
                    }
                }
            }
        }
    }

    /// Kahn topological order with vector-clock propagation. Returns the
    /// processed order and per-event clocks; a short order means a cycle.
    fn propagate_clocks(&self) -> (Vec<usize>, Vec<Vec<u32>>) {
        let n = self.events.len();
        let ncomp = self.world + self.channels;
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&e| indeg[e] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut clocks: Vec<Vec<u32>> = vec![Vec::new(); n];
        while let Some(e) = ready.pop() {
            let mut clock = vec![0u32; ncomp];
            for &p in &self.preds[e] {
                for (c, &v) in clock.iter_mut().zip(&clocks[p]) {
                    *c = (*c).max(v);
                }
            }
            let ev = self.events[e];
            if ev.chain != NO_CHAIN {
                clock[ev.chain] = ev.tick;
            }
            clocks[e] = clock;
            order.push(e);
            for &s in &self.succs[e] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        (order, clocks)
    }

    /// Extract and name one cycle from the residual (unprocessed) graph.
    fn report_cycle(&mut self, order: &[usize]) {
        let mut processed = vec![false; self.events.len()];
        for &e in order {
            processed[e] = true;
        }
        let start = (0..self.events.len())
            .find(|&e| !processed[e])
            .expect("a short order implies a residual event");
        // Every residual event keeps >= 1 residual predecessor; walking
        // predecessors must therefore revisit a node, closing a cycle.
        let mut seen_at: HashMap<usize, usize> = HashMap::new();
        let mut path = vec![start];
        let mut cur = start;
        loop {
            if let Some(&idx) = seen_at.get(&cur) {
                let cycle: Vec<String> = path[idx..path.len() - 1]
                    .iter()
                    .rev()
                    .map(|&e| self.label(e))
                    .collect();
                self.violations.push(Violation::Deadlock { cycle });
                return;
            }
            seen_at.insert(cur, path.len() - 1);
            cur = *self.preds[cur]
                .iter()
                .find(|&&p| !processed[p])
                .expect("residual events have residual predecessors");
            path.push(cur);
        }
    }

    fn label(&self, e: usize) -> String {
        let ev = self.events[e];
        match ev.kind {
            EvKind::Main => format!(
                "rank {} op {} ({})",
                ev.rank,
                ev.op,
                self.sched.programs()[ev.rank].ops[ev.op].mnemonic()
            ),
            EvKind::Deliver => format!("delivery for rank {} op {}", ev.rank, ev.op),
            EvKind::Depart => format!("rank {} op {} (barrier depart)", ev.rank, ev.op),
            EvKind::Hub { node, gen } => format!("node {} barrier #{}", node, gen + 1),
        }
    }

    /// Every byte-range access, attached to the event where it occurs.
    fn collect_accesses(&self) -> Vec<Access> {
        let mut out = Vec::new();
        for (rank, prog) in self.sched.programs().iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                let m = self.main[rank][i];
                let what = op.mnemonic();
                let mut own = |ev, region: &Region, write, at_delivery| {
                    if region.len > 0 {
                        out.push(Access {
                            ev,
                            owner: rank,
                            buf: region.buf,
                            start: region.offset,
                            end: region.end(),
                            write,
                            rank,
                            op: i,
                            what,
                            at_delivery,
                        });
                    }
                };
                match op {
                    Op::ISend { src, .. } => own(m, src, false, false),
                    Op::IRecv { dst, .. } => {
                        own(self.deliver[&(rank, i)], dst, true, true);
                    }
                    Op::LocalCopy { from, to } => {
                        own(m, from, false, false);
                        own(m, to, true, false);
                    }
                    Op::LocalReduce { from, to, .. } => {
                        own(m, from, false, false);
                        own(m, to, true, false);
                    }
                    Op::CopyIn { to, .. } => own(m, to, true, false),
                    Op::CopyOut { from, .. } => own(m, from, false, false),
                    Op::ReduceIn { to, .. } => own(m, to, true, false),
                    _ => {}
                }
                // The remote half of shared-address ops, in the owner's
                // buffer space.
                if let Some(&(_, concrete, owner)) = self.resolved.get(&(rank, i)) {
                    if concrete.len > 0 {
                        let (ev, write, at_delivery) = match op {
                            Op::ISendShared { .. } => (m, false, false),
                            Op::IRecvShared { .. } => (self.deliver[&(rank, i)], true, true),
                            Op::CopyIn { .. } | Op::ReduceIn { .. } => (m, false, false),
                            Op::CopyOut { .. } => (m, true, false),
                            _ => unreachable!("resolved set only for shared ops"),
                        };
                        out.push(Access {
                            ev,
                            owner,
                            buf: concrete.buf,
                            start: concrete.offset,
                            end: concrete.end(),
                            write,
                            rank,
                            op: i,
                            what,
                            at_delivery,
                        });
                    }
                }
            }
        }
        out
    }

    /// Flag every overlapping, conflicting, unordered access pair. Returns
    /// the number of pairs whose ordering was queried (`usize::MAX` when
    /// race reporting hit [`MAX_RACES_REPORTED`]).
    fn detect_races(&mut self, accesses: &[Access], clocks: &[Vec<u32>]) -> usize {
        let ordered = |a: usize, b: usize| {
            let ev = self.events[a];
            clocks[b][ev.chain] >= ev.tick
        };
        let mut by_buf: HashMap<(usize, BufId), Vec<usize>> = HashMap::new();
        for (idx, a) in accesses.iter().enumerate() {
            by_buf.entry((a.owner, a.buf)).or_default().push(idx);
        }
        let mut keys: Vec<(usize, BufId)> = by_buf.keys().copied().collect();
        keys.sort_unstable_by_key(|&(r, b)| (r, format!("{b}")));
        let mut pairs = 0usize;
        let mut races = 0usize;
        for key in keys {
            let mut idxs = by_buf.remove(&key).expect("key from map");
            idxs.sort_unstable_by_key(|&i| accesses[i].start);
            for (pos, &ia) in idxs.iter().enumerate() {
                let a = accesses[ia];
                for &ib in &idxs[pos + 1..] {
                    let b = accesses[ib];
                    if b.start >= a.end {
                        break; // sorted by start: nothing later overlaps a
                    }
                    if !a.write && !b.write {
                        continue;
                    }
                    if a.ev == b.ev {
                        continue;
                    }
                    pairs += 1;
                    if ordered(a.ev, b.ev) || ordered(b.ev, a.ev) {
                        continue;
                    }
                    let lo = a.start.max(b.start);
                    let hi = a.end.min(b.end);
                    self.violations.push(Violation::Race {
                        owner: key.0,
                        buf: key.1,
                        a: AccessSite {
                            rank: a.rank,
                            op: a.op,
                            what: a.what,
                            at_delivery: a.at_delivery,
                            write: a.write,
                            range: (lo, hi),
                        },
                        b: AccessSite {
                            rank: b.rank,
                            op: b.op,
                            what: b.what,
                            at_delivery: b.at_delivery,
                            write: b.write,
                            range: (lo, hi),
                        },
                    });
                    races += 1;
                    if races >= MAX_RACES_REPORTED {
                        return usize::MAX;
                    }
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BufSizes, Comm};
    use crate::ids::{BufId, Region, RemoteRegion};
    use crate::trace::record;
    use pipmcoll_model::Topology;

    fn topo22() -> Topology {
        Topology::new(2, 2)
    }

    fn assert_clean(sched: &Schedule) -> HbReport {
        match check(sched) {
            Ok(r) => r,
            Err(e) => panic!("expected clean schedule, got:\n{e}"),
        }
    }

    fn expect_violation(sched: &Schedule, pred: impl Fn(&Violation) -> bool, what: &str) {
        let err = check(sched).expect_err("schedule should be flagged");
        assert!(
            err.violations.iter().any(pred),
            "expected a {what} violation, got:\n{err}"
        );
    }

    #[test]
    fn ordered_pingpong_is_clean() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            } else if c.rank() == 2 {
                c.recv(0, 1, Region::new(BufId::Recv, 0, 8));
                // Reuse after wait: ordered, not a race.
                c.local_copy(
                    Region::new(BufId::Recv, 0, 4),
                    Region::new(BufId::Recv, 4, 4),
                );
            }
        });
        let rep = assert_clean(&s);
        assert!(rep.events > 0 && rep.edges > 0 && rep.accesses > 0);
    }

    #[test]
    fn missing_wait_is_a_race() {
        // Rank 2 reads its recv buffer without waiting for the delivery.
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            } else if c.rank() == 2 {
                let _ = c.irecv(0, 1, Region::new(BufId::Recv, 0, 8));
                c.local_copy(
                    Region::new(BufId::Recv, 0, 4),
                    Region::new(BufId::Send, 0, 4),
                );
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(v, Violation::Race { owner: 2, buf: BufId::Recv, a, b }
                    if a.at_delivery || b.at_delivery)
            },
            "delivery race",
        );
    }

    #[test]
    fn unsignalled_shared_write_is_a_race() {
        // Same shape as verify's `racy_schedule_refused_before_any_byte_moves`:
        // peer copy-out into the root's recv races the root's own local
        // copy.
        let s = record(topo22(), BufSizes::new(4, 4), |c| match c.local() {
            0 => {
                c.post_addr(0, Region::new(BufId::Recv, 0, 4));
                c.local_copy(
                    Region::new(BufId::Send, 0, 4),
                    Region::new(BufId::Recv, 0, 4),
                );
                c.node_barrier();
            }
            1 => {
                c.copy_out(
                    Region::new(BufId::Send, 0, 4),
                    RemoteRegion::new(c.local_root(), 0, 0, 4),
                );
                c.node_barrier();
            }
            _ => unreachable!(),
        });
        expect_violation(
            &s,
            |v| {
                matches!(
                    v,
                    Violation::Race {
                        buf: BufId::Recv,
                        ..
                    }
                )
            },
            "copy-out race",
        );
    }

    #[test]
    fn flag_ordering_makes_shared_write_clean() {
        let s = record(topo22(), BufSizes::new(4, 4), |c| match c.local() {
            0 => {
                c.post_addr(0, Region::new(BufId::Recv, 0, 4));
                c.wait_flag(0, 1);
                c.local_copy(
                    Region::new(BufId::Recv, 0, 4),
                    Region::new(BufId::Send, 0, 4),
                );
            }
            1 => {
                c.copy_out(
                    Region::new(BufId::Send, 0, 4),
                    RemoteRegion::new(c.local_root(), 0, 0, 4),
                );
                c.signal(c.local_root(), 0);
            }
            _ => unreachable!(),
        });
        assert_clean(&s);
    }

    #[test]
    fn partial_flag_wait_does_not_order_late_signals() {
        // Two writers signal once each into disjoint halves; the owner
        // waits for only one signal, so neither writer is guaranteed done.
        let t = Topology::new(1, 3);
        let s = record(t, BufSizes::new(4, 8), |c| match c.local() {
            0 => {
                c.post_addr(0, Region::new(BufId::Recv, 0, 8));
                c.wait_flag(0, 1);
                c.local_copy(
                    Region::new(BufId::Recv, 0, 4),
                    Region::new(BufId::Send, 0, 4),
                );
            }
            l => {
                c.copy_out(
                    Region::new(BufId::Send, 0, 4),
                    RemoteRegion::new(0, 0, (l - 1) * 4, 4),
                );
                c.signal(0, 0);
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(
                    v,
                    Violation::Race {
                        owner: 0,
                        buf: BufId::Recv,
                        ..
                    }
                )
            },
            "partial-wait race",
        );
    }

    #[test]
    fn barrier_orders_shared_access() {
        let t = Topology::new(1, 4);
        let s = record(t, BufSizes::new(4, 4), |c| {
            if c.local() != 0 {
                c.post_addr(0, Region::new(BufId::Send, 0, 4));
            }
            c.node_barrier();
            if c.local() == 0 {
                for l in 1..4 {
                    c.copy_in(
                        RemoteRegion::new(l, 0, 0, 4),
                        Region::new(BufId::Recv, 0, 4),
                    );
                }
            }
            c.node_barrier();
        });
        assert_clean(&s);
    }

    #[test]
    fn deadlock_cycle_is_named() {
        // Flag/barrier cycle (mirror of dataflow's `deadlock_detected`).
        let s = record(topo22(), BufSizes::new(0, 0), |c| match c.local() {
            0 => {
                c.wait_flag(0, 1);
                c.node_barrier();
            }
            1 => {
                c.node_barrier();
                c.signal(c.local_root(), 0);
            }
            _ => unreachable!(),
        });
        let err = check(&s).expect_err("cyclic schedule");
        let cycle = err
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::Deadlock { cycle } => Some(cycle),
                _ => None,
            })
            .unwrap_or_else(|| panic!("expected deadlock, got:\n{err}"));
        let joined = cycle.join(" -> ");
        assert!(joined.contains("waitflag"), "{joined}");
        assert!(joined.contains("barrier"), "{joined}");
    }

    #[test]
    fn barrier_shortfall_flagged() {
        let s = record(topo22(), BufSizes::new(0, 0), |c| {
            if c.local() == 0 {
                c.node_barrier();
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(
                    v,
                    Violation::BarrierShortfall {
                        arrived: 1,
                        expected: 2,
                        ..
                    }
                )
            },
            "barrier shortfall",
        );
    }

    #[test]
    fn unmatched_recv_flagged() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 2 {
                c.recv(0, 9, Region::new(BufId::Recv, 0, 8));
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(
                    v,
                    Violation::UnmatchedRecv {
                        rank: 2,
                        src: 0,
                        tag: 9,
                        ..
                    }
                )
            },
            "unmatched recv",
        );
    }

    #[test]
    fn starved_wait_flagged() {
        let s = record(topo22(), BufSizes::new(0, 0), |c| {
            if c.local() == 0 {
                c.wait_flag(3, 2);
            } else {
                c.signal(c.local_root(), 3);
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(
                    v,
                    Violation::StarvedWait {
                        count: 2,
                        available: 1,
                        ..
                    }
                )
            },
            "starved wait",
        );
    }

    #[test]
    fn unposted_slot_flagged() {
        let s = record(topo22(), BufSizes::new(4, 4), |c| {
            if c.local() == 1 {
                c.copy_in(
                    RemoteRegion::new(c.local_root(), 7, 0, 4),
                    Region::new(BufId::Recv, 0, 4),
                );
            }
        });
        expect_violation(
            &s,
            |v| matches!(v, Violation::UnpostedSlot { slot: 7, .. }),
            "unposted slot",
        );
    }

    #[test]
    fn conflicting_repost_flagged() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.local() == 0 {
                c.post_addr(0, Region::new(BufId::Send, 0, 4));
                c.post_addr(0, Region::new(BufId::Send, 4, 4));
            }
        });
        expect_violation(
            &s,
            |v| matches!(v, Violation::RepostedSlot { slot: 0, .. }),
            "conflicting repost",
        );
    }

    #[test]
    fn remote_out_of_bounds_flagged() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.local() == 0 {
                c.post_addr(0, Region::new(BufId::Send, 0, 4));
            } else {
                c.copy_in(
                    RemoteRegion::new(c.local_root(), 0, 2, 4),
                    Region::new(BufId::Recv, 0, 4),
                );
            }
        });
        expect_violation(
            &s,
            |v| matches!(v, Violation::RemoteOutOfBounds { .. }),
            "remote out of bounds",
        );
    }

    #[test]
    fn fifo_delivery_orders_same_channel_writes() {
        // Two in-flight receives into overlapping regions on one channel:
        // FIFO delivery orders the writes, so no race even before the waits.
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 7, Region::new(BufId::Send, 0, 4));
                c.send(2, 7, Region::new(BufId::Send, 4, 4));
            } else if c.rank() == 2 {
                let r1 = c.irecv(0, 7, Region::new(BufId::Recv, 0, 4));
                let r2 = c.irecv(0, 7, Region::new(BufId::Recv, 2, 4));
                c.wait(r2);
                c.wait(r1);
            }
        });
        assert_clean(&s);
    }

    #[test]
    fn cross_channel_concurrent_writes_race() {
        // Same overlap, but on two different channels: nothing orders the
        // deliveries.
        let s = record(Topology::new(3, 1), BufSizes::new(8, 8), |c| {
            match c.rank() {
                0 => c.send(2, 1, Region::new(BufId::Send, 0, 4)),
                1 => c.send(2, 2, Region::new(BufId::Send, 0, 4)),
                _ => {
                    let r1 = c.irecv(0, 1, Region::new(BufId::Recv, 0, 4));
                    let r2 = c.irecv(1, 2, Region::new(BufId::Recv, 2, 4));
                    c.wait(r1);
                    c.wait(r2);
                }
            }
        });
        expect_violation(
            &s,
            |v| {
                matches!(v, Violation::Race { owner: 2, buf: BufId::Recv, a, b }
                    if a.at_delivery && b.at_delivery && a.range == (2, 4))
            },
            "cross-channel delivery race",
        );
    }

    #[test]
    fn report_counts_are_plausible() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            } else if c.rank() == 2 {
                c.recv(0, 1, Region::new(BufId::Recv, 0, 8));
            }
        });
        let rep = assert_clean(&s);
        // send = isend+wait, recv = irecv+wait: 4 main events + 1 delivery.
        assert_eq!(rep.events, 5);
        assert_eq!(rep.accesses, 2);
    }
}
