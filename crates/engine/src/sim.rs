//! The discrete-event simulation loop.
//!
//! Each rank is a state machine over its straight-line op list with a
//! virtual clock. A binary heap keyed `(clock, seq, rank)` always advances
//! the most-behind runnable rank, so shared resources are acquired in
//! near-arrival order; equal clocks run in push order. Messages match on
//! the channels and positions the schedule's [`Wiring`] assigns. A blocked
//! rank records what it waits for and is woken by the event that
//! satisfies it (message matched, address posted, flag signalled, barrier
//! completed).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pipmcoll_model::hockney::ceil_log;
use pipmcoll_model::{Mechanism, SimTime};
use pipmcoll_sched::{MsgRef, Op, Region, Schedule, Wiring};

use crate::config::EngineConfig;
use crate::report::{Breakdown, OpCategory, SimReport};
use crate::resources::ClusterResources;

/// Simulation failure (deadlock or invalid schedule).
#[derive(Clone, Debug)]
pub struct SimError {
    /// Human-readable description including stuck ranks on deadlock.
    pub message: String,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl std::error::Error for SimError {}

/// What a blocked rank waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaitKey {
    /// Its own send or receive to complete: only the channel's `src`
    /// waits on a send, only its `dst` on a receive.
    Msg(MsgRef),
    /// `rank` to post `slot`; the waiters park on `rank`'s node.
    Post { rank: usize, slot: u16 },
    /// Its own flag to reach the awaited count.
    Flag(u16),
    /// Barrier generation `gen` of `node` to complete; the waiters park
    /// on `node`.
    Barrier { node: usize, gen: usize },
}

struct SendEntry {
    ready: SimTime,
    bytes: u64,
    done: Option<SimTime>,
}

struct RecvEntry {
    post: SimTime,
    done: Option<SimTime>,
}

/// One channel's issued sends and receives, by position.
struct ChanState {
    sends: Vec<SendEntry>,
    recvs: Vec<RecvEntry>,
    matched: usize,
}

/// One generation of a node barrier.
#[derive(Clone, Copy, Default)]
struct BarrierGen {
    arrived: usize,
    latest: SimTime,
    done: Option<SimTime>,
}

struct RankSim {
    clock: SimTime,
    cats: Breakdown,
    pc: usize,
    /// Per flag, the times it was signalled, sorted.
    flag_times: Vec<Vec<SimTime>>,
    /// Per slot, the posted region and when it was posted.
    posted: Vec<Option<(Region, SimTime)>>,
    barriers_entered: usize,
    in_barrier: bool,
    blocked: Option<WaitKey>,
}

enum StepOutcome {
    Progress,
    Blocked(WaitKey),
    Done,
}

struct Sim<'a> {
    cfg: &'a EngineConfig,
    sched: &'a Schedule,
    wiring: &'a Wiring,
    ranks: Vec<RankSim>,
    res: ClusterResources,
    /// Per channel id.
    chans: Vec<ChanState>,
    /// Runnable ranks keyed `(clock, seq, rank)`.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    /// Per node, the ranks blocked on a post or barrier of that node, in
    /// the order they blocked.
    parked: Vec<Vec<usize>>,
    /// Per node, its barrier generations (generation `g` at `g - 1`).
    barriers: Vec<Vec<BarrierGen>>,
    /// Per accessor and owner's local index: whether the pair's first
    /// shared-memory transfer happened (drives XPMEM attach / page-fault
    /// amortisation).
    first_use: Vec<bool>,
    // counters
    net_msgs: u64,
    net_bytes: u64,
    intra_msgs: u64,
    intra_bytes_moved: u64,
    shared_ops: u64,
    syscalls: u64,
    ops_executed: usize,
}

/// Entry `i` of `v`, growing `v` with defaults to reach it.
fn grow<T: Clone + Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    &mut v[i]
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a EngineConfig, sched: &'a Schedule) -> Self {
        let topo = sched.topo();
        let wiring = sched.wiring();
        let ranks = (0..topo.world_size())
            .map(|_| RankSim {
                clock: SimTime::ZERO,
                cats: [SimTime::ZERO; 6],
                pc: 0,
                flag_times: Vec::new(),
                posted: Vec::new(),
                barriers_entered: 0,
                in_barrier: false,
                blocked: None,
            })
            .collect();
        let chans = wiring
            .channels()
            .iter()
            .map(|ch| ChanState {
                sends: Vec::with_capacity(ch.sends.len()),
                recvs: Vec::with_capacity(ch.recvs.len()),
                matched: 0,
            })
            .collect();
        Sim {
            cfg,
            sched,
            wiring,
            ranks,
            res: ClusterResources::new(topo.nodes(), topo.ppn()),
            chans,
            queue: BinaryHeap::new(),
            seq: 0,
            parked: vec![Vec::new(); topo.nodes()],
            barriers: vec![Vec::new(); topo.nodes()],
            first_use: vec![false; topo.world_size() * topo.ppn()],
            net_msgs: 0,
            net_bytes: 0,
            intra_msgs: 0,
            intra_bytes_moved: 0,
            shared_ops: 0,
            syscalls: 0,
            ops_executed: 0,
        }
    }

    /// Make `rank` runnable at its clock, after every rank pushed before
    /// it at the same clock.
    fn push(&mut self, rank: usize) {
        self.seq += 1;
        self.queue
            .push(Reverse((self.ranks[rank].clock, self.seq, rank)));
    }

    /// Block `rank` until the event `key` names.
    fn park(&mut self, rank: usize, key: WaitKey) {
        match key {
            WaitKey::Post { rank: owner, .. } => {
                self.parked[self.sched.topo().node_of(owner)].push(rank)
            }
            WaitKey::Barrier { node, .. } => self.parked[node].push(rank),
            WaitKey::Msg(_) | WaitKey::Flag(_) => {}
        }
        self.ranks[rank].blocked = Some(key);
    }

    /// Make `rank` runnable if it waits for `key`.
    fn wake(&mut self, rank: usize, key: WaitKey) {
        if self.ranks[rank].blocked == Some(key) {
            self.ranks[rank].blocked = None;
            self.push(rank);
        }
    }

    /// Make the ranks parked on `node` that wait for `key` runnable, in
    /// the order they blocked.
    fn wake_parked(&mut self, node: usize, key: WaitKey) {
        let mut parked = std::mem::take(&mut self.parked[node]);
        parked.retain(|&r| {
            let hit = self.ranks[r].blocked == Some(key);
            self.wake(r, key);
            !hit
        });
        self.parked[node] = parked;
    }

    /// Issue `rank`'s send or receive at op `pc` at its clock; `bytes` is
    /// a send's payload.
    fn issue(&mut self, rank: usize, pc: usize, bytes: usize) {
        let m = self.wiring.message(rank, pc).expect("a message op");
        let at = self.ranks[rank].clock;
        let st = &mut self.chans[m.chan];
        if m.recv {
            st.recvs.push(RecvEntry {
                post: at,
                done: None,
            });
        } else {
            st.sends.push(SendEntry {
                ready: at,
                bytes: bytes as u64,
                done: None,
            });
        }
        self.try_match(m.chan);
    }

    /// Match the next (send, recv) pair on `chan` if both sides are
    /// issued, computing the transfer through the resource model. Each
    /// issue adds one side, so at most one pair becomes ready.
    fn try_match(&mut self, chan: usize) {
        let st = &self.chans[chan];
        let m = st.matched;
        let (Some(send), Some(recv)) = (st.sends.get(m), st.recvs.get(m)) else {
            return;
        };
        let (bytes, sender_ready, recv_post) = (send.bytes, send.ready, recv.post);
        let ch = &self.wiring.channels()[chan];
        let (src, dst) = (ch.src, ch.dst);
        let (send_done, recv_done) = if self.sched.topo().same_node(src, dst) {
            self.intra_transfer(src, dst, bytes, sender_ready, recv_post)
        } else {
            self.inter_transfer(src, dst, bytes, sender_ready, recv_post)
        };
        let st = &mut self.chans[chan];
        st.sends[m].done = Some(send_done);
        st.recvs[m].done = Some(recv_done);
        st.matched += 1;
        let msg = |recv| WaitKey::Msg(MsgRef { chan, pos: m, recv });
        self.wake(src, msg(false));
        self.wake(dst, msg(true));
    }

    /// Internode transfer through injection → NIC TX → wire → NIC RX.
    fn inter_transfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        sender_ready: SimTime,
        recv_post: SimTime,
    ) -> (SimTime, SimTime) {
        let topo = self.sched.topo();
        let nic = &self.cfg.machine.nic;
        let rdv = nic.is_rendezvous(bytes);
        let mut start = sender_ready;
        if rdv {
            start = start.max(recv_post) + nic.rendezvous_handshake();
        }
        let (_, inj_end) = self.res.inj[src].acquire(start, nic.proc_occupancy(bytes));
        let (_, tx_end) =
            self.res.nic_tx[topo.node_of(src)].acquire(inj_end, nic.nic_occupancy(bytes));
        let arrival = tx_end + nic.latency;
        let (_, rx_end) =
            self.res.nic_rx[topo.node_of(dst)].acquire(arrival, nic.nic_occupancy(bytes));
        // Eager sends complete locally once injected (the payload is
        // buffered); rendezvous sends complete when the wire transfer ends.
        let send_done = if rdv { tx_end } else { inj_end };
        let recv_done = rx_end.max(recv_post) + nic.recv_overhead + self.cfg.machine.sw_overhead;
        self.net_msgs += 1;
        self.net_bytes += bytes;
        (send_done, recv_done)
    }

    /// Charge the set-up of one `mech` transfer of `bytes` from `a` to
    /// `b`, a rank of its node: its syscalls, and on the pair's first
    /// transfer the cached set-up. Returns the transfer's fixed overhead.
    fn setup(&mut self, mech: Mechanism, a: usize, b: usize, bytes: u64) -> SimTime {
        let topo = self.sched.topo();
        debug_assert!(topo.same_node(a, b), "shared access across nodes");
        let used = &mut self.first_use[a * topo.ppn() + topo.local_of(b)];
        let first = !std::mem::replace(used, true);
        self.syscalls += mech.syscalls_per_transfer() as u64;
        if first && mech.has_cached_setup() {
            self.syscalls += 2; // xpmem expose + attach
        }
        self.cfg
            .machine
            .mech_costs
            .per_transfer_overhead(mech, bytes, first)
    }

    /// Intranode point-to-point transfer through the configured mechanism.
    fn intra_transfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        sender_ready: SimTime,
        recv_post: SimTime,
    ) -> (SimTime, SimTime) {
        let node = self.sched.topo().node_of(src);
        let mem = &self.cfg.machine.mem;
        let costs = &self.cfg.machine.mech_costs;
        let mech = self.cfg.intranode_mech;
        let mut start = sender_ready + mem.alpha_r;
        if self.cfg.pip_handshake {
            // PiP-MPICH synchronises message sizes before transferring.
            start += costs.pip_size_sync;
        }
        start = start.max(recv_post);
        let overhead = self.setup(mech, src, dst, bytes);
        let moved = costs.bytes_moved(mech, bytes);
        let t0 = start + overhead;
        let (_, bus_end) = self.res.bus[node].acquire(t0, mem.bus_time(moved));
        let done = bus_end.max(t0 + mem.core_copy_time(moved));
        self.intra_msgs += 1;
        self.intra_bytes_moved += moved;
        (done, done + mem.alpha_r + self.cfg.machine.sw_overhead)
    }

    /// Shared-address copy/reduce. Priced as PiP (one copy, no syscalls)
    /// unless the mechanism-swap ablation selects another mechanism's
    /// copy/syscall/page-fault profile.
    fn shared_access(
        &mut self,
        rank: usize,
        bytes: u64,
        reduce: bool,
        owner: usize,
        post_time: SimTime,
    ) -> SimTime {
        let node = self.sched.topo().node_of(rank);
        let mem = &self.cfg.machine.mem;
        let mech = self.cfg.shared_mech;
        let overhead = self.setup(mech, rank, owner, bytes);
        let moved = self.cfg.machine.mech_costs.bytes_moved(mech, bytes);
        let t0 = self.ranks[rank].clock.max(post_time) + mem.alpha_r + overhead;
        let (_, bus_end) = self.res.bus[node].acquire(t0, mem.bus_time(moved));
        let mut core_end = t0 + mem.core_copy_time(moved);
        if reduce {
            core_end += mem.reduce_time(bytes);
        }
        self.shared_ops += 1;
        self.intra_bytes_moved += moved;
        bus_end.max(core_end)
    }

    /// The cost of issuing a send from `rank` to `dst`.
    fn issue_cost(&self, rank: usize, dst: usize) -> SimTime {
        let sw = self.cfg.machine.sw_overhead;
        if self.sched.topo().same_node(rank, dst) {
            sw
        } else {
            sw + self.cfg.machine.nic.send_overhead
        }
    }

    fn step(&mut self, rank: usize) -> StepOutcome {
        let prog = &self.sched.programs()[rank];
        let pc = self.ranks[rank].pc;
        let Some(&op) = prog.ops.get(pc) else {
            return StepOutcome::Done;
        };
        let topo = self.sched.topo();
        let mem = self.cfg.machine.mem;
        let clock_before = self.ranks[rank].clock;
        let category = match op {
            Op::ISend { .. } | Op::ISendShared { .. } => OpCategory::NetSend,
            Op::IRecv { .. } | Op::IRecvShared { .. } => OpCategory::NetRecv,
            // Attribute the wait to the direction of its request.
            Op::Wait { req } => match self.wiring.message(rank, req.0) {
                Some(m) if !m.recv => OpCategory::NetSend,
                _ => OpCategory::NetRecv,
            },
            Op::CopyIn { .. } | Op::CopyOut { .. } | Op::ReduceIn { .. } => OpCategory::SharedData,
            Op::LocalCopy { .. } | Op::LocalReduce { .. } => OpCategory::LocalData,
            Op::PostAddr { .. } | Op::Signal { .. } | Op::WaitFlag { .. } | Op::NodeBarrier => {
                OpCategory::Sync
            }
            Op::Compute { .. } => OpCategory::Compute,
        };
        // Ops on a peer's posted region wait for the post.
        let remote = match op {
            Op::ISendShared { src: rr, .. }
            | Op::IRecvShared { dst: rr, .. }
            | Op::CopyIn { from: rr, .. }
            | Op::CopyOut { to: rr, .. }
            | Op::ReduceIn { from: rr, .. } => Some(rr),
            _ => None,
        };
        let mut post = SimTime::ZERO;
        if let Some(rr) = remote {
            let posted = self.ranks[rr.rank].posted.get(rr.slot as usize);
            let Some((region, t)) = posted.copied().flatten() else {
                let (rank, slot) = (rr.rank, rr.slot);
                return StepOutcome::Blocked(WaitKey::Post { rank, slot });
            };
            debug_assert!(rr.offset + rr.len <= region.len);
            post = t;
        }
        match op {
            Op::ISend { dst, src, .. } => {
                let cost = self.issue_cost(rank, dst);
                self.ranks[rank].clock += cost;
                self.issue(rank, pc, src.len);
            }
            Op::IRecv { .. } => self.issue(rank, pc, 0),
            Op::ISendShared { dst, src, .. } => {
                // Multi-object send from a peer's posted buffer: the only
                // extra cost over a plain send is fetching the posted
                // address (one flag latency) — no staging copy.
                let c = self.ranks[rank].clock.max(post) + mem.alpha_r + self.issue_cost(rank, dst);
                self.ranks[rank].clock = c;
                self.shared_ops += 1;
                self.issue(rank, pc, src.len);
            }
            Op::IRecvShared { .. } => {
                let c = self.ranks[rank].clock.max(post) + mem.alpha_r;
                self.ranks[rank].clock = c;
                self.shared_ops += 1;
                self.issue(rank, pc, 0);
            }
            Op::Wait { req } => {
                let m = self
                    .wiring
                    .message(rank, req.0)
                    .expect("the recorder validates wait targets");
                let st = &self.chans[m.chan];
                let done = if m.recv {
                    st.recvs[m.pos].done
                } else {
                    st.sends[m.pos].done
                };
                let Some(t) = done else {
                    return StepOutcome::Blocked(WaitKey::Msg(m));
                };
                let c = self.ranks[rank].clock;
                self.ranks[rank].clock = c.max(t);
            }
            Op::PostAddr { slot, region } => {
                // A post is a store + release fence: half a flag latency.
                self.ranks[rank].clock += SimTime::from_ps(mem.alpha_r.as_ps() / 2);
                let t = self.ranks[rank].clock;
                *grow(&mut self.ranks[rank].posted, slot as usize) = Some((region, t));
                self.wake_parked(topo.node_of(rank), WaitKey::Post { rank, slot });
            }
            Op::CopyIn { from, .. } => {
                let end = self.shared_access(rank, from.len as u64, false, from.rank, post);
                self.ranks[rank].clock = end;
            }
            Op::CopyOut { from, to } => {
                let end = self.shared_access(rank, from.len as u64, false, to.rank, post);
                self.ranks[rank].clock = end;
            }
            Op::ReduceIn { from, .. } => {
                let end = self.shared_access(rank, from.len as u64, true, from.rank, post);
                self.ranks[rank].clock = end;
            }
            Op::LocalCopy { from, .. } => {
                let node = topo.node_of(rank);
                let t0 = self.ranks[rank].clock;
                let bytes = from.len as u64;
                let (_, bus_end) = self.res.bus[node].acquire(t0, mem.bus_time(bytes));
                self.ranks[rank].clock = bus_end.max(t0 + mem.core_copy_time(bytes));
            }
            Op::LocalReduce { from, .. } => {
                let node = topo.node_of(rank);
                let t0 = self.ranks[rank].clock;
                let bytes = from.len as u64;
                let (_, bus_end) = self.res.bus[node].acquire(t0, mem.bus_time(bytes));
                self.ranks[rank].clock =
                    bus_end.max(t0 + mem.core_copy_time(bytes) + mem.reduce_time(bytes));
            }
            Op::Signal { rank: peer, flag } => {
                // An atomic increment on a shared line: half a flag latency.
                self.ranks[rank].clock += SimTime::from_ps(mem.alpha_r.as_ps() / 2);
                let t = self.ranks[rank].clock;
                let times = grow(&mut self.ranks[peer].flag_times, flag as usize);
                times.insert(times.partition_point(|&x| x <= t), t);
                self.wake(peer, WaitKey::Flag(flag));
            }
            Op::WaitFlag { flag, count } => {
                let times = self.ranks[rank].flag_times.get(flag as usize);
                let times = times.map_or(&[][..], Vec::as_slice);
                if (times.len() as u32) < count {
                    return StepOutcome::Blocked(WaitKey::Flag(flag));
                }
                // A zero count is met at once: only the flag read costs.
                let kth = count
                    .checked_sub(1)
                    .map_or(SimTime::ZERO, |k| times[k as usize]);
                let c = self.ranks[rank].clock;
                self.ranks[rank].clock = c.max(kth) + mem.alpha_r;
            }
            Op::NodeBarrier => {
                let node = topo.node_of(rank);
                let st = &mut self.ranks[rank];
                if !st.in_barrier {
                    st.barriers_entered += 1;
                    st.in_barrier = true;
                    let (gen, clock) = (st.barriers_entered, st.clock);
                    let b = grow(&mut self.barriers[node], gen - 1);
                    b.arrived += 1;
                    b.latest = b.latest.max(clock);
                    if b.arrived == topo.ppn() {
                        let cost =
                            self.cfg.machine.barrier_unit * ceil_log(2, topo.ppn().max(2)) as u64;
                        b.done = Some(b.latest + cost);
                        self.wake_parked(node, WaitKey::Barrier { node, gen });
                    }
                }
                let gen = self.ranks[rank].barriers_entered;
                let Some(done) = self.barriers[node][gen - 1].done else {
                    return StepOutcome::Blocked(WaitKey::Barrier { node, gen });
                };
                self.ranks[rank].clock = done;
                self.ranks[rank].in_barrier = false;
            }
            Op::Compute { bytes } => {
                self.ranks[rank].clock += mem.reduce_time(bytes);
            }
        }
        let advanced = self.ranks[rank].clock.saturating_sub(clock_before);
        self.ranks[rank].cats[category.idx()] += advanced;
        self.ranks[rank].pc += 1;
        self.ops_executed += 1;
        StepOutcome::Progress
    }
}

/// Simulate `sched` under `cfg`, returning timing and traffic statistics.
///
/// The schedule should already be validated; invalid schedules produce a
/// `SimError` (deadlock) rather than UB.
pub fn simulate(cfg: &EngineConfig, sched: &Schedule) -> Result<SimReport, SimError> {
    assert_eq!(
        cfg.machine.topo,
        sched.topo(),
        "engine machine topology must match the schedule's"
    );
    let mut sim = Sim::new(cfg, sched);
    let world = sched.topo().world_size();
    for r in 0..world {
        sim.push(r);
    }
    let mut finish = vec![SimTime::ZERO; world];
    let mut finished = vec![false; world];
    while let Some(Reverse((_, _, rank))) = sim.queue.pop() {
        if finished[rank] {
            continue;
        }
        loop {
            // Yield to a more-behind rank so resources are acquired in
            // near-time order.
            if let Some(&Reverse((head, _, _))) = sim.queue.peek() {
                if sim.ranks[rank].clock > head {
                    sim.push(rank);
                    break;
                }
            }
            match sim.step(rank) {
                StepOutcome::Progress => continue,
                StepOutcome::Blocked(key) => {
                    sim.park(rank, key);
                    break;
                }
                StepOutcome::Done => {
                    finish[rank] = sim.ranks[rank].clock;
                    finished[rank] = true;
                    break;
                }
            }
        }
    }
    if !finished.iter().all(|&f| f) {
        let stuck: Vec<String> = (0..world)
            .filter(|&r| !finished[r])
            .map(|r| {
                let pc = sim.ranks[r].pc;
                let op = &sched.programs()[r].ops[pc];
                format!("rank {r} at op {pc} ({})", op.mnemonic())
            })
            .collect();
        return Err(SimError {
            message: format!("deadlock; stuck: {}", stuck.join(", ")),
        });
    }
    let makespan = finish.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let breakdown = sim.ranks.iter().map(|r| r.cats).collect();
    Ok(SimReport {
        makespan,
        rank_finish: finish,
        net_msgs: sim.net_msgs,
        net_bytes: sim.net_bytes,
        intra_msgs: sim.intra_msgs,
        intra_bytes_moved: sim.intra_bytes_moved,
        shared_ops: sim.shared_ops,
        syscalls: sim.syscalls,
        ops_executed: sim.ops_executed,
        breakdown,
    })
}

/// Convenience: check the schedule with [`Schedule::validate`], then
/// simulate it (tests and harnesses).
pub fn simulate_checked(cfg: &EngineConfig, sched: &Schedule) -> Result<SimReport, SimError> {
    sched.validate().map_err(|e| SimError {
        message: format!("validation: {e}"),
    })?;
    simulate(cfg, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::{presets, Mechanism};
    use pipmcoll_sched::BufId as B;
    use pipmcoll_sched::{record, BufSizes, Comm, Region};

    fn cfg(nodes: usize, ppn: usize) -> EngineConfig {
        EngineConfig::pip_mcoll(presets::bebop(nodes, ppn))
    }

    fn pingpong_sched(bytes: usize) -> pipmcoll_sched::Schedule {
        record(
            pipmcoll_model::Topology::new(2, 1),
            BufSizes::new(bytes, bytes),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 0, Region::new(B::Send, 0, bytes));
                } else {
                    c.recv(0, 0, Region::new(B::Recv, 0, bytes));
                }
            },
        )
    }

    #[test]
    fn single_message_latency_is_sane() {
        let s = pingpong_sched(8);
        let r = simulate_checked(&cfg(2, 1), &s).unwrap();
        // One small message: ~latency + overheads, order a few us.
        assert!(r.makespan > SimTime::from_ns(500));
        assert!(r.makespan < SimTime::from_us(20), "{}", r.makespan);
        assert_eq!(r.net_msgs, 1);
        assert_eq!(r.net_bytes, 8);
    }

    #[test]
    fn determinism() {
        let s = pingpong_sched(4096);
        let c = cfg(2, 1);
        let a = simulate(&c, &s).unwrap();
        let b = simulate(&c, &s).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.rank_finish, b.rank_finish);
    }

    #[test]
    fn bigger_message_takes_longer() {
        let c = cfg(2, 1);
        let small = simulate(&c, &pingpong_sched(1024)).unwrap();
        let large = simulate(&c, &pingpong_sched(1024 * 1024)).unwrap();
        assert!(large.makespan > small.makespan * 10);
    }

    #[test]
    fn rendezvous_adds_handshake() {
        let c = cfg(2, 1);
        let just_under = simulate(&c, &pingpong_sched(63 * 1024)).unwrap();
        let just_over = simulate(&c, &pingpong_sched(65 * 1024)).unwrap();
        // The 2 KiB extra payload costs ~0.6us of wire time; the handshake
        // costs ~2 more latencies. Expect a visible jump.
        let delta = just_over.makespan.saturating_sub(just_under.makespan);
        assert!(
            delta > SimTime::from_us(1),
            "handshake not visible: {delta}"
        );
    }

    #[test]
    fn intranode_cheaper_than_internode() {
        let bytes = 4096;
        let intra = record(
            pipmcoll_model::Topology::new(1, 2),
            BufSizes::new(bytes, bytes),
            |c| {
                if c.rank() == 0 {
                    c.send(1, 0, Region::new(B::Send, 0, bytes));
                } else {
                    c.recv(0, 0, Region::new(B::Recv, 0, bytes));
                }
            },
        );
        let r_intra = simulate_checked(&cfg(1, 2), &intra).unwrap();
        let r_inter = simulate_checked(&cfg(2, 1), &pingpong_sched(bytes)).unwrap();
        assert!(r_intra.makespan < r_inter.makespan);
        assert_eq!(r_intra.net_msgs, 0);
        assert_eq!(r_intra.intra_msgs, 1);
    }

    #[test]
    fn posix_double_copy_slower_than_pip_for_large() {
        let bytes = 256 * 1024;
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(bytes, bytes), |c| {
            if c.rank() == 0 {
                c.send(1, 0, Region::new(B::Send, 0, bytes));
            } else {
                c.recv(0, 0, Region::new(B::Recv, 0, bytes));
            }
        });
        let m = presets::bebop(1, 2);
        let pip = simulate(&EngineConfig::pip_mcoll(m), &s).unwrap();
        let posix = simulate(&EngineConfig::conventional(m, Mechanism::Posix), &s).unwrap();
        assert!(
            posix.makespan > pip.makespan,
            "double copy must cost more: posix {} vs pip {}",
            posix.makespan,
            pip.makespan
        );
        assert_eq!(posix.intra_bytes_moved, 2 * pip.intra_bytes_moved);
    }

    #[test]
    fn cma_syscall_hurts_small_messages() {
        let bytes = 64;
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(bytes, bytes), |c| {
            if c.rank() == 0 {
                for _ in 0..100 {
                    c.send(1, 0, Region::new(B::Send, 0, bytes));
                }
            } else {
                for _ in 0..100 {
                    c.recv(0, 0, Region::new(B::Recv, 0, bytes));
                }
            }
        });
        let m = presets::bebop(1, 2);
        let pip = simulate(&EngineConfig::pip_mcoll(m), &s).unwrap();
        let cma = simulate(&EngineConfig::conventional(m, Mechanism::Cma), &s).unwrap();
        assert!(cma.makespan > pip.makespan);
        assert_eq!(cma.syscalls, 100);
        assert_eq!(pip.syscalls, 0);
    }

    #[test]
    fn pip_handshake_penalises_baseline() {
        let bytes = 64;
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(bytes, bytes), |c| {
            if c.rank() == 0 {
                for _ in 0..100 {
                    c.send(1, 0, Region::new(B::Send, 0, bytes));
                }
            } else {
                for _ in 0..100 {
                    c.recv(0, 0, Region::new(B::Recv, 0, bytes));
                }
            }
        });
        let m = presets::bebop(1, 2);
        let mcoll = simulate(&EngineConfig::pip_mcoll(m), &s).unwrap();
        let mpich = simulate(&EngineConfig::pip_mpich(m), &s).unwrap();
        assert!(mpich.makespan > mcoll.makespan);
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let topo = pipmcoll_model::Topology::new(1, 4);
        let s = record(topo, BufSizes::new(0, 0), |c| {
            if c.local() == 0 {
                c.compute(1_000_000); // rank 0 is slow
            }
            c.node_barrier();
        });
        let r = simulate_checked(&cfg(1, 4), &s).unwrap();
        // Everyone finishes at (or after) rank 0's compute time.
        let slow = pipmcoll_model::SimTime::from_secs_f64(1_000_000.0 * 0.25e-9);
        for t in &r.rank_finish {
            assert!(*t >= slow);
        }
    }

    #[test]
    fn shared_ops_counted() {
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(16, 16), |c| match c.local() {
            1 => {
                c.post_addr(0, Region::new(B::Send, 0, 16));
                c.signal(c.local_root(), 0);
            }
            _ => {
                c.wait_flag(0, 1);
                c.copy_in(
                    pipmcoll_sched::RemoteRegion::new(1, 0, 0, 16),
                    Region::new(B::Recv, 0, 16),
                );
            }
        });
        let r = simulate_checked(&cfg(1, 2), &s).unwrap();
        assert_eq!(r.shared_ops, 1);
        assert_eq!(r.syscalls, 0);
        assert_eq!(r.net_msgs, 0);
    }

    #[test]
    fn zero_count_flag_wait_is_met_at_once() {
        // `wait_flag(f, 0)` waits for nothing, as in `validate`, `hb`
        // and `Exec`: the rank pays only the flag read.
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(8, 8), |c| c.wait_flag(0, 0));
        let cfg = cfg(1, 2);
        let r = simulate_checked(&cfg, &s).unwrap();
        assert_eq!(r.rank_finish, vec![cfg.machine.mem.alpha_r; 2]);
    }

    #[test]
    fn deadlock_reported() {
        let topo = pipmcoll_model::Topology::new(1, 3);
        type Body = fn(&mut pipmcoll_sched::TraceComm);
        let cases: [(&str, Body); 4] = [
            // A flag nobody signals.
            ("rank 0 at op 0 (waitflag)", |c| {
                if c.local() == 0 {
                    c.wait_flag(3, 1);
                }
            }),
            // A receive whose send never comes.
            ("rank 1 at op 1 (wait)", |c| {
                if c.local() == 1 {
                    c.recv(0, 7, Region::new(B::Recv, 0, 8));
                }
            }),
            // A copy from a slot its owner never posts.
            ("rank 0 at op 0 (copyin)", |c| {
                if c.local() == 0 {
                    let from = pipmcoll_sched::RemoteRegion::new(2, 0, 0, 8);
                    c.copy_in(from, Region::new(B::Recv, 0, 8));
                }
            }),
            // A node barrier that one rank of the node skips.
            ("rank 0 at op 0 (barrier), rank 2 at op 0 (barrier)", |c| {
                if c.local() != 1 {
                    c.node_barrier();
                }
            }),
        ];
        for (stuck, body) in cases {
            let s = record(topo, BufSizes::new(8, 8), body);
            let err = simulate(&cfg(1, 3), &s).unwrap_err();
            assert!(err.message.contains("deadlock"), "{err}");
            assert!(err.message.contains(stuck), "want {stuck:?}: {err}");
        }
    }

    #[test]
    fn multi_sender_scales_message_rate() {
        // The Fig-1 premise as an engine-level test: 18 senders achieve a
        // much higher aggregate message rate than 1.
        let msgs = 50;
        let bytes = 4096;
        let rate = |senders: usize| {
            let topo = pipmcoll_model::Topology::new(2, 18);
            let s = record(topo, BufSizes::new(bytes * msgs, bytes * msgs), |c| {
                let l = c.local();
                if c.node() == 0 && l < senders {
                    let mut reqs = Vec::new();
                    for i in 0..msgs {
                        reqs.push(c.isend(
                            topo.rank_of(1, l),
                            i as u32,
                            Region::new(B::Send, i * bytes, bytes),
                        ));
                    }
                    c.wait_all(&reqs);
                } else if c.node() == 1 && l < senders {
                    let mut reqs = Vec::new();
                    for i in 0..msgs {
                        reqs.push(c.irecv(
                            topo.rank_of(0, l),
                            i as u32,
                            Region::new(B::Recv, i * bytes, bytes),
                        ));
                    }
                    c.wait_all(&reqs);
                }
            });
            let r = simulate_checked(&cfg(2, 18), &s).unwrap();
            r.net_msg_rate()
        };
        let r1 = rate(1);
        let r8 = rate(8);
        assert!(r8 > 2.5 * r1, "multi-object scaling failed: {r1} vs {r8}");
    }
}
