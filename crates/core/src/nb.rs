//! Non-blocking collectives: recorded [`crate::baseline`] schedules,
//! run one message at a time on the resumable executor.
//!
//! The service layer (`pipmcoll-svc`) interleaves the phases of many
//! concurrent collectives over one shared fabric, so it cannot run an
//! algorithm as a function that blocks. It runs the algorithm's recorded
//! *schedule* instead. [`CollSpec::plan_on`] records the chosen
//! algorithm on a one-rank-per-node topology of the member group,
//! validates it, proves it race-free with [`hb::check`], and caches the
//! result by shape; an [`NbColl`] is that cached schedule on an
//! [`Exec`] holding one collective's buffers. [`NbColl::start`] runs
//! every rank until it blocks and returns the messages they sent; each
//! [`NbColl::deliver`] hands one arrived payload to its channel and runs
//! the destination on. The caller owns the transport — nothing here
//! touches a fabric, which keeps collectives unit-testable with a
//! loopback pump and lets the service route the same [`Msg`]s over any
//! [`Fabric`] backend with its own tag packing.
//!
//! Every algorithm comes from [`crate::baseline`], picked with the
//! blocking library's [`crate::tuning`] switch-points (a measured
//! `PIPMCOLL_TUNE_TABLE` included):
//!
//! * allreduce — [`baseline::allreduce_reduce_bcast`] below the switch,
//!   [`baseline::allreduce_rabenseifner`] at or above it;
//! * allgather — [`baseline::allgather_recursive_doubling`] (Bruck on a
//!   non-power-of-two group) for small blocks, [`baseline::allgather_ring`]
//!   for large ones;
//! * bcast — [`baseline::bcast_binomial`]; scatter —
//!   [`baseline::scatter_binomial`].
//!
//! Each algorithm handles every group size and buffer length itself, so
//! the choice needs no structural gate.
//!
//! A message's [`Msg::phase`] is the rank of its schedule tag among the
//! schedule's distinct tags. It must reach the receiver's matching
//! `deliver`; the service encodes it, with the communicator id and the
//! collective's sequence slot, into the wire tag, so two collectives of
//! one job can never match each other's frames.
//!
//! [`Fabric`]: ../../pipmcoll_fabric/trait.Fabric.html

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_sched::{hb, record_with_sizes, BufId, BufSizes, Exec, HbReport, Schedule};

use crate::baseline;
use crate::tuning::{tuned_allgather_uses_large, tuned_allreduce_uses_large};
use crate::{AllgatherParams, AllreduceParams, ScatterParams};

/// Why a collective cannot be planned on a given member sub-group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The collective's root (bcast/scatter source) is not in the
    /// member set — no survivor holds the data, so no re-plan can
    /// complete it.
    RootFailed {
        /// The missing root, as an original world rank.
        root: usize,
    },
    /// The spec describes no collective: ragged inputs or chunks, a
    /// partial element, a root outside the world, or no ranks at all.
    Malformed {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::RootFailed { root } => {
                write!(f, "root rank {root} is not among the surviving members")
            }
            PlanError::Malformed { reason } => write!(f, "malformed collective: {reason}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A collective described at the *data* level, independent of the
/// member set it will run on — the unit of shrink-and-retry.
///
/// A planned [`NbColl`] is bound to one member group, so a collective
/// that must re-run on a survivor sub-group after a rank death keeps its
/// inputs in this form. `plan()` plans on the full group;
/// [`CollSpec::plan_on`] plans the same collective on a densely
/// re-ranked sub-group, taking each survivor's original contribution
/// (allreduce/allgather inputs, the root's chunks/data) so the sub-group
/// result is byte-identical to a fresh run on that member set.
#[derive(Clone, Debug)]
pub enum CollSpec {
    /// Elementwise reduction of `inputs[r]` across all ranks.
    Allreduce {
        /// Element type.
        dt: Datatype,
        /// Reduction operator.
        op: ReduceOp,
        /// Per-rank contributions.
        inputs: Vec<Vec<u8>>,
    },
    /// Concatenation of all inputs in rank order.
    Allgather {
        /// Per-rank contributions.
        inputs: Vec<Vec<u8>>,
    },
    /// Rank `r` receives `chunks[r]` from the root.
    Scatter {
        /// Source rank.
        root: usize,
        /// Per-destination chunks (held by the root).
        chunks: Vec<Vec<u8>>,
    },
    /// Every rank receives `data` from the root.
    Bcast {
        /// World size (bcast carries one buffer, not one per rank).
        world: usize,
        /// Source rank.
        root: usize,
        /// The broadcast payload.
        data: Vec<u8>,
    },
}

impl CollSpec {
    /// The world size this collective was submitted against.
    pub fn world(&self) -> usize {
        match self {
            CollSpec::Allreduce { inputs, .. } => inputs.len(),
            CollSpec::Allgather { inputs } => inputs.len(),
            CollSpec::Scatter { chunks, .. } => chunks.len(),
            CollSpec::Bcast { world, .. } => *world,
        }
    }

    /// The collective kind (for stats and error messages).
    pub fn kind(&self) -> NbKind {
        match self {
            CollSpec::Allreduce { .. } => NbKind::Allreduce,
            CollSpec::Allgather { .. } => NbKind::Allgather,
            CollSpec::Scatter { .. } => NbKind::Scatter,
            CollSpec::Bcast { .. } => NbKind::Bcast,
        }
    }

    /// The rank whose death makes this collective unsatisfiable
    /// (bcast/scatter root), if any.
    pub fn root(&self) -> Option<usize> {
        match self {
            CollSpec::Scatter { root, .. } | CollSpec::Bcast { root, .. } => Some(*root),
            _ => None,
        }
    }

    /// Whether the spec describes a collective: at least one rank,
    /// inputs (or scatter chunks) of one length, whole allreduce
    /// elements, and a root inside the world.
    pub fn check(&self) -> Result<(), PlanError> {
        let fail = |reason: String| Err(PlanError::Malformed { reason });
        let world = self.world();
        if world == 0 {
            return fail(format!("{:?} over zero ranks", self.kind()));
        }
        if let Some(root) = self.root().filter(|&r| r >= world) {
            return fail(format!("root {root} outside a world of {world}"));
        }
        let (what, bufs) = match self {
            CollSpec::Allreduce { inputs, .. } => ("allreduce input", inputs),
            CollSpec::Allgather { inputs } => ("allgather input", inputs),
            CollSpec::Scatter { chunks, .. } => ("scatter chunk", chunks),
            CollSpec::Bcast { .. } => return Ok(()),
        };
        let len = bufs[0].len();
        if let Some(r) = bufs.iter().position(|b| b.len() != len) {
            return fail(format!(
                "{what} of rank {r} is {} bytes, rank 0's is {len}",
                bufs[r].len()
            ));
        }
        match self {
            CollSpec::Allreduce { dt, .. } if !len.is_multiple_of(dt.size()) => fail(format!(
                "allreduce inputs of {len} bytes hold a partial {dt:?}"
            )),
            _ => Ok(()),
        }
    }

    /// Plan on the full member set.
    ///
    /// # Panics
    /// Panics if the spec fails [`CollSpec::check`].
    pub fn plan(&self) -> NbColl {
        let all: Vec<usize> = (0..self.world()).collect();
        self.plan_on(&all)
            .unwrap_or_else(|e| panic!("cannot plan on the full group: {e}"))
    }

    /// Plan on the sub-group `members` (sorted, unique original ranks),
    /// densely re-ranked: plan rank `j` is original rank `members[j]`.
    /// Rooted collectives whose root is not a member fail with
    /// [`PlanError::RootFailed`] — nobody holds the source data — and a
    /// spec that fails [`CollSpec::check`] with [`PlanError::Malformed`].
    ///
    /// # Panics
    /// Panics if `members` is empty, unsorted, or names a rank outside
    /// the original world.
    pub fn plan_on(&self, members: &[usize]) -> Result<NbColl, PlanError> {
        let plan = self.shape_on(members)?.plan();
        let mut exec = Exec::new(Arc::clone(&plan.sched));
        let root = plan.shape.root;
        match self {
            CollSpec::Allreduce { inputs, .. } | CollSpec::Allgather { inputs } => {
                for (j, &r) in members.iter().enumerate() {
                    exec.buffer_mut(j, BufId::Send).copy_from_slice(&inputs[r]);
                }
            }
            CollSpec::Scatter { chunks, .. } => {
                let send = exec.buffer_mut(root, BufId::Send);
                let cb = chunks[0].len();
                for (j, &r) in members.iter().enumerate() {
                    send[j * cb..(j + 1) * cb].copy_from_slice(&chunks[r]);
                }
            }
            CollSpec::Bcast { data, .. } => {
                exec.buffer_mut(root, BufId::Send).copy_from_slice(data)
            }
        }
        Ok(NbColl { plan, exec })
    }

    /// The phases its plan on `members` uses — the schedule's distinct
    /// tags, so [`Msg::phase`] stays below this — without allocating
    /// the collective's buffers.
    pub fn phases_on(&self, members: &[usize]) -> Result<u32, PlanError> {
        Ok(self.shape_on(members)?.plan().phases)
    }

    /// The cache key of this collective on `members`.
    fn shape_on(&self, members: &[usize]) -> Result<Shape, PlanError> {
        assert!(!members.is_empty(), "cannot plan on an empty member set");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be sorted and unique"
        );
        assert!(
            *members.last().unwrap() < self.world(),
            "member rank outside the original world"
        );
        self.check()?;
        let root = match self.root() {
            Some(root) => members
                .iter()
                .position(|&r| r == root)
                .ok_or(PlanError::RootFailed { root })?,
            None => 0,
        };
        let (bytes, dt, op) = match self {
            CollSpec::Allreduce { dt, op, inputs } => (inputs[0].len(), *dt, *op),
            CollSpec::Allgather { inputs } => (inputs[0].len(), Datatype::Byte, ReduceOp::Sum),
            CollSpec::Scatter { chunks, .. } => (chunks[0].len(), Datatype::Byte, ReduceOp::Sum),
            CollSpec::Bcast { data, .. } => (data.len(), Datatype::Byte, ReduceOp::Sum),
        };
        Ok(Shape {
            kind: self.kind(),
            world: members.len(),
            bytes,
            dt,
            op,
            root,
        })
    }
}

/// One message the caller must transport: send `payload` from rank
/// `src` to rank `dst`, and hand it to [`NbColl::deliver`] over there
/// with the same `phase`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Algorithm phase, disambiguating messages between the same pair.
    pub phase: u32,
    /// The bytes.
    pub payload: Vec<u8>,
}

/// Which collective a plan runs (for stats and debugging).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NbKind {
    /// Reduce + broadcast, or Rabenseifner at large counts.
    Allreduce,
    /// Recursive doubling / Bruck, or ring for large blocks.
    Allgather,
    /// Binomial scatter from a root.
    Scatter,
    /// Binomial broadcast from a root.
    Bcast,
}

/// What a schedule depends on: everything but the bytes themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Shape {
    kind: NbKind,
    /// Member-group size; the plan's ranks are dense.
    world: usize,
    /// Bytes per rank: an allreduce/allgather input, a scatter chunk,
    /// the bcast payload.
    bytes: usize,
    dt: Datatype,
    op: ReduceOp,
    /// Dense root (0 for unrooted kinds).
    root: usize,
}

impl Shape {
    /// Record the algorithm the switch-points pick for this shape, one
    /// rank per node.
    fn record(&self) -> Schedule {
        let topo = Topology::new(self.world, 1);
        let (cb, root) = (self.bytes, self.root);
        match self.kind {
            NbKind::Allreduce => {
                let p = AllreduceParams {
                    count: cb / self.dt.size(),
                    dt: self.dt,
                    op: self.op,
                };
                if tuned_allreduce_uses_large(p.count) {
                    record_with_sizes(topo, p.buf_sizes(), |c| {
                        baseline::allreduce_rabenseifner(c, &p)
                    })
                } else {
                    record_with_sizes(topo, p.buf_sizes(), |c| {
                        baseline::allreduce_reduce_bcast(c, &p)
                    })
                }
            }
            NbKind::Allgather => {
                let p = AllgatherParams { cb };
                if tuned_allgather_uses_large(cb) {
                    record_with_sizes(topo, p.buf_sizes(topo), |c| baseline::allgather_ring(c, &p))
                } else {
                    record_with_sizes(topo, p.buf_sizes(topo), |c| {
                        baseline::allgather_recursive_doubling(c, &p)
                    })
                }
            }
            NbKind::Scatter => {
                let p = ScatterParams { cb, root };
                record_with_sizes(topo, p.buf_sizes(topo), |c| {
                    baseline::scatter_binomial(c, &p)
                })
            }
            NbKind::Bcast => record_with_sizes(
                topo,
                |r| BufSizes::new(if r == root { cb } else { 0 }, cb),
                |c| baseline::bcast_binomial(c, cb, root),
            ),
        }
    }

    /// This shape's plan, from the cache or recorded and checked now.
    fn plan(self) -> Arc<Plan> {
        let mut cache = plan_cache().lock().unwrap_or_else(|p| p.into_inner());
        if let Some(plan) = cache.plans.get(&self) {
            let plan = Arc::clone(plan);
            cache.stats.hits += 1;
            return plan;
        }
        // Recorded and checked under the lock, so a shape first asked
        // for by several threads at once is still checked once.
        let plan = Arc::new(Plan::new(self, &mut cache.stats));
        if cache.order.len() >= PLAN_CACHE_SHAPES {
            let oldest = cache.order.pop_front().expect("a full cache");
            cache.plans.remove(&oldest);
            cache.stats.evicted += 1;
        }
        cache.order.push_back(self);
        cache.plans.insert(self, Arc::clone(&plan));
        plan
    }
}

/// One shape's recorded, validated and happens-before-checked schedule,
/// with what the executor and the service need to run it.
struct Plan {
    shape: Shape,
    sched: Arc<Schedule>,
    /// Per channel id: its [`Msg::phase`], the rank of its tag among the
    /// schedule's distinct tags.
    phase: Vec<u32>,
    /// Per destination rank: `(src, phase, channel)` of every channel
    /// into it.
    inbound: Vec<Vec<(usize, u32, usize)>>,
    /// Distinct tags, so phases run `0..phases`.
    phases: u32,
    /// Payload bytes of every `ISend`.
    nic_bytes: u64,
    /// The happens-before analysis that admitted this schedule.
    proof: HbReport,
}

impl Plan {
    /// Record `shape`, validate it and prove it race-free.
    ///
    /// # Panics
    /// Panics if a baseline algorithm fails either check: a bug in the
    /// algorithm, not in any input.
    fn new(shape: Shape, stats: &mut PlanCacheStats) -> Plan {
        let sched = shape.record();
        stats.recorded += 1;
        if let Err(e) = sched.validate() {
            panic!("{shape:?} records an invalid schedule: {e}");
        }
        let proof = hb::check(&sched)
            .unwrap_or_else(|e| panic!("{shape:?} fails happens-before analysis: {e}"));
        stats.hb_checked += 1;
        let channels = sched.wiring().channels();
        let mut tags: Vec<u32> = channels.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        let phase: Vec<u32> = channels
            .iter()
            .map(|c| tags.binary_search(&c.tag).expect("every tag is listed") as u32)
            .collect();
        let mut inbound = vec![Vec::new(); shape.world];
        for (id, c) in channels.iter().enumerate() {
            inbound[c.dst].push((c.src, phase[id], id));
        }
        Plan {
            shape,
            nic_bytes: sched.total_net_bytes(),
            sched: Arc::new(sched),
            phase,
            inbound,
            phases: tags.len() as u32,
            proof,
        }
    }
}

/// Shapes the plan cache holds; past this it evicts the oldest.
const PLAN_CACHE_SHAPES: usize = 256;

/// The process-wide plan cache's counters since start-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Schedules recorded (cache misses).
    pub recorded: u64,
    /// Schedules that passed validation and [`hb::check`].
    pub hb_checked: u64,
    /// Plans served from the cache.
    pub hits: u64,
    /// Shapes evicted to keep the cache bounded.
    pub evicted: u64,
}

#[derive(Default)]
struct PlanCache {
    plans: HashMap<Shape, Arc<Plan>>,
    /// Insertion order, for eviction.
    order: VecDeque<Shape>,
    stats: PlanCacheStats,
}

fn plan_cache() -> &'static Mutex<PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// A snapshot of the plan cache's counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    plan_cache().lock().unwrap_or_else(|p| p.into_inner()).stats
}

/// A whole collective — every member rank's buffers on one cached
/// schedule — driven by the caller.
///
/// Planning takes every member's input because the service owns all
/// ranks of its world in one process (exactly like the thread runtime);
/// correctness still depends on the transport, since a rank only ever
/// reads payloads the caller delivered to it.
pub struct NbColl {
    plan: Arc<Plan>,
    exec: Exec<Arc<Schedule>>,
}

impl NbColl {
    /// Which collective this is.
    pub fn kind(&self) -> NbKind {
        self.plan.shape.kind
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.plan.shape.world
    }

    /// Exclusive upper bound on the phase numbers this schedule uses.
    pub fn phases(&self) -> u32 {
        self.plan.phases
    }

    /// Total payload bytes the whole schedule puts on the transport.
    pub fn nic_bytes(&self) -> u64 {
        self.plan.nic_bytes
    }

    /// The cached schedule this collective runs.
    pub fn schedule(&self) -> &Schedule {
        &self.plan.sched
    }

    /// The happens-before analysis the schedule passed when its shape
    /// was first planned.
    pub fn proof(&self) -> &HbReport {
        &self.plan.proof
    }

    /// Kick every rank off: returns all messages sendable before any
    /// receive completes. Transport them, then feed arrivals back
    /// through [`NbColl::deliver`].
    pub fn start(&mut self) -> Vec<Msg> {
        for r in 0..self.world() {
            self.run(r);
        }
        self.sent()
    }

    /// Deliver one transported message to rank `dst` and return the
    /// messages it can now send. Delivery is order-tolerant across
    /// channels: a payload that arrives before its receive is posted
    /// waits in its channel. Messages of one `(src, dst, phase)` must
    /// be delivered in the order they were sent.
    ///
    /// # Panics
    /// Panics if the schedule has no such channel, or if it already
    /// received every message sent on it — the transport delivered a
    /// message this collective never sent.
    pub fn deliver(&mut self, src: usize, dst: usize, phase: u32, payload: Vec<u8>) -> Vec<Msg> {
        let chan = self.plan.inbound[dst]
            .iter()
            .find(|&&(s, p, _)| s == src && p == phase)
            .unwrap_or_else(|| panic!("no channel {src} -> {dst} in phase {phase}"))
            .2;
        self.exec.deliver(chan, payload);
        self.run(dst);
        self.sent()
    }

    fn run(&mut self, rank: usize) {
        if let Err(e) = self.exec.run(rank) {
            panic!("a checked one-rank-per-node schedule failed: {e}");
        }
    }

    /// The messages sent since the last call.
    fn sent(&mut self) -> Vec<Msg> {
        let plan = &self.plan;
        let channels = plan.sched.wiring().channels();
        self.exec
            .drain_sent()
            .map(|(chan, payload)| Msg {
                src: channels[chan].src,
                dst: channels[chan].dst,
                phase: plan.phase[chan],
                payload,
            })
            .collect()
    }

    /// Whether every rank has finished its program.
    pub fn done(&self) -> bool {
        self.exec.done()
    }

    /// Per-rank results, valid once [`NbColl::done`]: each rank's
    /// receive buffer — the reduced vector (allreduce), the
    /// concatenated blocks (allgather), the rank's chunk (scatter), or
    /// the broadcast payload (bcast).
    ///
    /// # Panics
    /// Panics if the collective is not done.
    pub fn outputs(&self) -> Vec<Vec<u8>> {
        assert!(self.done(), "outputs read before completion");
        (0..self.world())
            .map(|r| self.exec.buffer(r, BufId::Recv).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::reduce_into;
    use pipmcoll_sched::verify;

    /// Drive a collective to completion over a lossless in-order loop:
    /// what the service does with a real fabric, minus the fabric.
    /// Returns the messages moved and their payload bytes.
    fn pump(coll: &mut NbColl) -> (usize, u64) {
        drive(coll, Order::Fifo)
    }

    #[derive(Clone, Copy, Debug)]
    enum Order {
        Fifo,
        Lifo,
        Random(u64),
    }

    /// Deliver every message in `order` until the collective drains.
    fn drive(coll: &mut NbColl, order: Order) -> (usize, u64) {
        let mut pending = coll.start();
        let (mut delivered, mut bytes) = (0, 0u64);
        let mut rng = match order {
            Order::Random(seed) => seed | 1,
            _ => 1,
        };
        while !pending.is_empty() {
            let at = match order {
                Order::Fifo => 0,
                Order::Lifo => pending.len() - 1,
                Order::Random(_) => {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    (rng % pending.len() as u64) as usize
                }
            };
            // Messages of one channel keep their order: take the
            // earliest pending one on the chosen message's channel.
            let m = &pending[at];
            let first = pending
                .iter()
                .position(|p| (p.src, p.dst, p.phase) == (m.src, m.dst, m.phase))
                .expect("the chosen message is pending");
            let m = pending.remove(first);
            delivered += 1;
            bytes += m.payload.len() as u64;
            assert!(delivered < 100_000, "collective does not converge");
            pending.extend(coll.deliver(m.src, m.dst, m.phase, m.payload));
        }
        assert!(coll.done(), "queue drained but ranks not done");
        (delivered, bytes)
    }

    fn ints(vals: &[i32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn allreduce(op: ReduceOp, inputs: Vec<Vec<u8>>) -> CollSpec {
        CollSpec::Allreduce {
            dt: Datatype::Int32,
            op,
            inputs,
        }
    }

    /// `⌈log₂ n⌉`: binomial tree depth.
    fn tree_depth(n: usize) -> u32 {
        usize::BITS - n.saturating_sub(1).leading_zeros()
    }

    /// Elements per rank at which allreduce switches to Rabenseifner.
    const LARGE_COUNT: usize = crate::tuning::MCOLL_ALLREDUCE_SWITCH_COUNT;
    /// Bytes per block at which allgather switches to the ring.
    const LARGE_BLOCK: usize = crate::tuning::MCOLL_ALLGATHER_SWITCH_BYTES;

    #[test]
    fn allreduce_sums_across_worlds() {
        for n in [1, 2, 3, 4, 7, 8, 13, 16] {
            let inputs: Vec<Vec<u8>> = (0..n).map(|r| ints(&[r, 1])).collect();
            let mut coll = allreduce(ReduceOp::Sum, inputs).plan();
            let (msgs, _) = pump(&mut coll);
            assert_eq!(msgs, 2 * (n as usize - 1), "reduce + bcast tree");
            let want = ints(&[(0..n).sum(), n]);
            for (r, out) in coll.outputs().iter().enumerate() {
                assert_eq!(*out, want, "rank {r} of {n} (after {msgs} msgs)");
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let inputs: Vec<Vec<u8>> = [3, -7, 20, 5].iter().map(|&v| ints(&[v])).collect();
        let mut mx = allreduce(ReduceOp::Max, inputs.clone()).plan();
        pump(&mut mx);
        assert!(mx.outputs().iter().all(|o| *o == ints(&[20])));
        let mut mn = allreduce(ReduceOp::Min, inputs).plan();
        pump(&mut mn);
        assert!(mn.outputs().iter().all(|o| *o == ints(&[-7])));
    }

    #[test]
    fn allgather_assembles_rank_order() {
        for n in [1, 2, 3, 5, 8] {
            for cb in [3, LARGE_BLOCK] {
                let inputs: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; cb]).collect();
                let want: Vec<u8> = inputs.concat();
                let mut coll = CollSpec::Allgather { inputs }.plan();
                pump(&mut coll);
                for (r, out) in coll.outputs().iter().enumerate() {
                    assert!(*out == want, "rank {r} of {n}, {cb} B blocks");
                }
            }
        }
    }

    #[test]
    fn scatter_delivers_each_chunk() {
        for root in [0, 2] {
            let chunks: Vec<Vec<u8>> = (0..5u8).map(|r| vec![r; 4]).collect();
            let mut coll = CollSpec::Scatter {
                root,
                chunks: chunks.clone(),
            }
            .plan();
            pump(&mut coll);
            for (r, out) in coll.outputs().iter().enumerate() {
                assert_eq!(*out, chunks[r], "rank {r}, root {root}");
            }
        }
    }

    #[test]
    fn bcast_reaches_every_rank() {
        for n in [1, 2, 3, 6, 8] {
            for root in [0, n - 1] {
                let mut coll = CollSpec::Bcast {
                    world: n,
                    root,
                    data: vec![0xAB; 16],
                }
                .plan();
                pump(&mut coll);
                for (r, out) in coll.outputs().iter().enumerate() {
                    assert_eq!(*out, vec![0xAB; 16], "rank {r} of {n}, root {root}");
                }
            }
        }
    }

    #[test]
    fn out_of_order_delivery_is_tolerated() {
        // Deliver in reverse: payloads wait in their channels until the
        // receive is posted, and the result must still be right.
        let inputs: Vec<Vec<u8>> = (0..8).map(|r| ints(&[r])).collect();
        let mut coll = allreduce(ReduceOp::Sum, inputs).plan();
        drive(&mut coll, Order::Lifo);
        assert!(coll.outputs().iter().all(|o| *o == ints(&[28])));
    }

    #[test]
    fn rsag_allreduce_matches_binomial() {
        for n in [2usize, 3, 4, 8, 16] {
            // Past the switch: Rabenseifner, folding non-powers of two.
            let inputs: Vec<Vec<u8>> = (0..n)
                .map(|r| {
                    ints(
                        &(0..LARGE_COUNT as i32)
                            .map(|i| r as i32 + i)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            let mut rsag = allreduce(ReduceOp::Sum, inputs.clone()).plan();
            let (msgs, _) = pump(&mut rsag);
            // The same sums, element-wise, through the small path.
            let small: Vec<Vec<u8>> = inputs.iter().map(|b| b[..64].to_vec()).collect();
            let mut binomial = allreduce(ReduceOp::Sum, small).plan();
            pump(&mut binomial);
            for (big, small) in rsag.outputs().iter().zip(binomial.outputs()) {
                assert_eq!(big[..64], small[..], "world {n} ({msgs} msgs)");
            }
            if n.is_power_of_two() {
                assert_eq!(rsag.phases(), 2 * tree_depth(n), "world {n}");
            }
        }
    }

    #[test]
    fn rsag_allreduce_max_under_lifo_delivery() {
        // Worst-case delivery order: range reduces must land on the
        // right segments.
        let count = LARGE_COUNT;
        let inputs: Vec<Vec<u8>> = (0..8)
            .map(|r| {
                ints(
                    &(0..count as i32)
                        .map(|i| (i * 7 + r * 13) % 101)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut coll = allreduce(ReduceOp::Max, inputs.clone()).plan();
        drive(&mut coll, Order::Lifo);
        let mut want = inputs[0].clone();
        for b in &inputs[1..] {
            reduce_into(ReduceOp::Max, Datatype::Int32, &mut want, b);
        }
        assert!(coll.outputs().iter().all(|o| *o == want));
    }

    #[test]
    fn rd_allgather_assembles_rank_order() {
        for n in [1usize, 2, 4, 8, 16] {
            let inputs: Vec<Vec<u8>> = (0..n).map(|r| vec![r as u8; 3]).collect();
            let want: Vec<u8> = inputs.concat();
            let mut coll = CollSpec::Allgather { inputs }.plan();
            pump(&mut coll);
            for (r, out) in coll.outputs().iter().enumerate() {
                assert_eq!(*out, want, "rank {r} of {n}");
            }
            // The whole point: log₂ n phases, not the ring's n − 1 steps.
            assert_eq!(coll.phases(), tree_depth(n), "world {n}");
        }
    }

    #[test]
    fn rd_allgather_handles_empty_blocks() {
        let mut coll = CollSpec::Allgather {
            inputs: vec![Vec::new(); 4],
        }
        .plan();
        pump(&mut coll);
        assert!(coll.outputs().iter().all(Vec::is_empty));
    }

    #[test]
    fn nic_bytes_matches_actual_traffic() {
        let mut specs = Vec::new();
        for n in [2usize, 3, 8] {
            specs.push(allreduce(
                ReduceOp::Sum,
                (0..n).map(|r| ints(&[r as i32])).collect(),
            ));
            specs.push(allreduce(
                ReduceOp::Sum,
                (0..n)
                    .map(|r| ints(&vec![r as i32; LARGE_COUNT + 3]))
                    .collect(),
            ));
            specs.push(CollSpec::Allgather {
                inputs: (0..n).map(|r| vec![r as u8; 5]).collect(),
            });
        }
        for spec in specs {
            let mut coll = spec.plan();
            let est = coll.nic_bytes();
            assert_eq!(
                est,
                pump(&mut coll).1,
                "{:?} world {}",
                spec.kind(),
                spec.world()
            );
        }
    }

    #[test]
    fn spec_dispatch_follows_the_switch_points() {
        // No PIPMCOLL_TUNE_TABLE in the test environment, so the static
        // constants decide. Small allgather blocks on a power-of-two
        // world take recursive doubling (log₂ n phases); at or past the
        // 64 KiB switch the ring comes back, on one tag for all n − 1
        // steps.
        let small = CollSpec::Allgather {
            inputs: vec![vec![1u8; 16]; 8],
        };
        assert_eq!(small.plan().phases(), 3, "recursive doubling");
        assert_eq!(pump(&mut small.plan()).0, 8 * 3);
        let large = CollSpec::Allgather {
            inputs: vec![vec![1u8; LARGE_BLOCK]; 8],
        };
        assert_eq!(large.plan().phases(), 1, "ring");
        assert_eq!(pump(&mut large.plan()).0, 8 * 7);
        // A non-power-of-two survivor group takes Bruck: ⌈log₂ 7⌉ rounds.
        let mut sub = small.plan_on(&[0, 1, 2, 4, 5, 6, 7]).unwrap();
        assert_eq!(sub.phases(), 3, "7 survivors Bruck");
        assert_eq!(pump(&mut sub).0, 7 * 3);

        // Allreduce past the 8 k-count switch plans Rabenseifner; both
        // plans must agree on the answer.
        let count = LARGE_COUNT + 8;
        let spec = allreduce(
            ReduceOp::Sum,
            (0..4).map(|r| ints(&vec![r; count])).collect(),
        );
        let mut planned = spec.plan();
        assert_eq!(planned.phases(), 4, "2 halving + 2 doubling steps");
        pump(&mut planned);
        assert!(planned
            .outputs()
            .iter()
            .all(|o| *o == ints(&vec![1 + 2 + 3; count])));
    }

    #[test]
    fn single_rank_worlds_complete_instantly() {
        let mut coll = allreduce(ReduceOp::Sum, vec![ints(&[5])]).plan();
        assert!(coll.start().is_empty());
        assert!(coll.done());
        assert_eq!(coll.outputs(), vec![ints(&[5])]);
        assert_eq!(coll.nic_bytes(), 0);
    }

    #[test]
    fn spec_full_plan_matches_direct_construction() {
        let inputs: Vec<Vec<u8>> = (0..5).map(|r| ints(&[r, 10])).collect();
        let spec = allreduce(ReduceOp::Sum, inputs);
        assert_eq!(spec.world(), 5);
        assert_eq!(spec.kind(), NbKind::Allreduce);
        let mut coll = spec.plan();
        assert_eq!(coll.kind(), NbKind::Allreduce);
        assert_eq!(coll.world(), 5);
        pump(&mut coll);
        let want = ints(&[10, 50]);
        assert!(coll.outputs().iter().all(|o| *o == want));
    }

    #[test]
    fn spec_replans_on_survivor_subgroups() {
        // Kill rank 2 of 5: the sub-group result must equal a fresh run
        // on exactly the survivors' inputs.
        let inputs: Vec<Vec<u8>> = (0..5).map(|r| ints(&[r])).collect();
        let survivors = [0usize, 1, 3, 4];
        let spec = allreduce(ReduceOp::Sum, inputs.clone());
        let mut coll = spec.plan_on(&survivors).unwrap();
        assert_eq!(coll.world(), 4);
        pump(&mut coll);
        assert!(coll.outputs().iter().all(|o| *o == ints(&[1 + 3 + 4])));

        let spec = CollSpec::Allgather { inputs };
        let mut coll = spec.plan_on(&survivors).unwrap();
        pump(&mut coll);
        let want: Vec<u8> = survivors.iter().flat_map(|&r| ints(&[r as i32])).collect();
        assert!(coll.outputs().iter().all(|o| *o == want));
    }

    #[test]
    fn spec_remaps_roots_to_dense_positions() {
        // Root 3 of 5 survives rank 1's death at dense position 2.
        let chunks: Vec<Vec<u8>> = (0..5u8).map(|r| vec![r; 2]).collect();
        let spec = CollSpec::Scatter { root: 3, chunks };
        let survivors = [0usize, 2, 3, 4];
        let mut coll = spec.plan_on(&survivors).unwrap();
        pump(&mut coll);
        let outs = coll.outputs();
        for (dense, &orig) in survivors.iter().enumerate() {
            assert_eq!(outs[dense], vec![orig as u8; 2], "original rank {orig}");
        }

        let spec = CollSpec::Bcast {
            world: 5,
            root: 4,
            data: vec![0xEE; 8],
        };
        let mut coll = spec.plan_on(&survivors).unwrap();
        pump(&mut coll);
        assert!(coll.outputs().iter().all(|o| *o == vec![0xEE; 8]));
    }

    #[test]
    fn spec_dead_root_is_unsatisfiable() {
        let spec = CollSpec::Bcast {
            world: 4,
            root: 1,
            data: vec![1, 2, 3],
        };
        assert_eq!(
            spec.plan_on(&[0, 2, 3]).err(),
            Some(PlanError::RootFailed { root: 1 })
        );
        assert_eq!(spec.root(), Some(1));
        let spec = CollSpec::Scatter {
            root: 0,
            chunks: vec![vec![1]; 3],
        };
        assert_eq!(
            spec.plan_on(&[1, 2]).err(),
            Some(PlanError::RootFailed { root: 0 })
        );
    }

    #[test]
    fn malformed_specs_are_refused_typed() {
        let malformed = |spec: CollSpec| {
            let err = spec.check().unwrap_err();
            assert!(matches!(err, PlanError::Malformed { .. }), "{err}");
            assert_eq!(spec.plan_on(&[0]).err(), Some(err));
        };
        malformed(allreduce(ReduceOp::Sum, vec![vec![0; 8], vec![0; 4]]));
        malformed(allreduce(ReduceOp::Sum, vec![vec![0; 6]; 2]));
        malformed(CollSpec::Allgather {
            inputs: vec![vec![0; 2], vec![0; 3]],
        });
        malformed(CollSpec::Scatter {
            root: 0,
            chunks: vec![vec![0; 2], vec![0; 1]],
        });
        malformed(CollSpec::Scatter {
            root: 2,
            chunks: vec![vec![0; 2]; 2],
        });
        malformed(CollSpec::Bcast {
            world: 2,
            root: 5,
            data: vec![1],
        });
        let err = allreduce(ReduceOp::Sum, Vec::new()).check().unwrap_err();
        assert!(matches!(err, PlanError::Malformed { .. }));
    }

    #[test]
    fn plans_are_recorded_once_per_shape() {
        // A shape no other test plans: 27 bytes a rank over 6 ranks.
        let spec = CollSpec::Allgather {
            inputs: vec![vec![7u8; 27]; 6],
        };
        let a = spec.plan();
        let b = spec.plan_on(&[0, 1, 2, 3, 4, 5]).unwrap();
        assert!(
            std::ptr::eq(a.schedule(), b.schedule()),
            "one cached schedule"
        );
        assert!(a.proof().events > 0);
        let other = spec.plan_on(&[0, 1, 2, 3, 4]).unwrap();
        assert!(
            !std::ptr::eq(a.schedule(), other.schedule()),
            "5 ranks differ"
        );
        let s = plan_cache_stats();
        assert!(s.hits >= 1 && s.hb_checked == s.recorded, "{s:?}");
    }

    /// The expected per-rank outputs of `spec`, computed without any
    /// schedule.
    fn reference(spec: &CollSpec) -> Vec<Vec<u8>> {
        match spec {
            CollSpec::Allreduce { dt, op, inputs } => {
                let mut acc = inputs[0].clone();
                for b in &inputs[1..] {
                    reduce_into(*op, *dt, &mut acc, b);
                }
                vec![acc; inputs.len()]
            }
            CollSpec::Allgather { inputs } => vec![inputs.concat(); inputs.len()],
            CollSpec::Scatter { chunks, .. } => chunks.clone(),
            CollSpec::Bcast { world, data, .. } => vec![data.clone(); *world],
        }
    }

    /// Every rank's send buffer for `spec` on its full group, as the
    /// planner fills it.
    fn send_buffers(spec: &CollSpec) -> Vec<Vec<u8>> {
        match spec {
            CollSpec::Allreduce { inputs, .. } | CollSpec::Allgather { inputs } => inputs.clone(),
            CollSpec::Scatter { root, chunks } => (0..chunks.len())
                .map(|r| {
                    if r == *root {
                        chunks.concat()
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            CollSpec::Bcast { world, root, data } => (0..*world)
                .map(|r| if r == *root { data.clone() } else { Vec::new() })
                .collect(),
        }
    }

    #[test]
    fn every_kind_matches_dataflow_and_reference() {
        let mut cases = Vec::new();
        for n in 1..=9usize {
            let pattern = |r: usize, len: usize| -> Vec<u8> {
                (0..len).map(|i| (r * 31 + i * 7 + len) as u8).collect()
            };
            for count in [3, LARGE_COUNT + 5] {
                for op in [ReduceOp::Sum, ReduceOp::Max] {
                    let int_pattern = |r: usize| -> Vec<u8> {
                        ints(
                            &(0..count)
                                .map(|i| ((r * 31 + i * 7) % 1000) as i32)
                                .collect::<Vec<_>>(),
                        )
                    };
                    cases.push(allreduce(op, (0..n).map(int_pattern).collect()));
                }
            }
            for cb in [5, LARGE_BLOCK] {
                cases.push(CollSpec::Allgather {
                    inputs: (0..n).map(|r| pattern(r, cb)).collect(),
                });
            }
            for root in [0, n / 2, n - 1] {
                cases.push(CollSpec::Scatter {
                    root,
                    chunks: (0..n).map(|r| pattern(r + root, 6)).collect(),
                });
                cases.push(CollSpec::Bcast {
                    world: n,
                    root,
                    data: pattern(root, 11),
                });
            }
        }
        for spec in &cases {
            let what = format!(
                "{:?} world {} root {:?}",
                spec.kind(),
                spec.world(),
                spec.root()
            );
            let want = reference(spec);
            let send = send_buffers(spec);
            let mut emitted = None;
            for order in [Order::Fifo, Order::Lifo, Order::Random(0x5EED)] {
                let mut coll = spec.plan();
                let (_, bytes) = drive(&mut coll, order);
                assert_eq!(coll.nic_bytes(), bytes, "{what}: nic_bytes under {order:?}");
                assert!(coll.outputs() == want, "{what}: {order:?} delivery");
                emitted.get_or_insert_with(|| {
                    let flow = verify::run(coll.schedule(), |r| send[r].clone())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(flow.recv == want, "{what}: dataflow");
                });
            }
        }
    }
}
