//! The discrete-event simulation loop.
//!
//! Each rank is a state machine over its straight-line op list with a
//! virtual clock. A binary heap keyed `(clock, seq, rank)` always advances
//! the most-behind runnable rank, so shared resources are acquired in
//! near-arrival order. Blocked ranks park on a `WaitKey` and are woken by
//! the event that satisfies them (message matched, address posted, flag
//! signalled, barrier completed).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fxhash::{FastMap, FastSet};

use pipmcoll_model::hockney::ceil_log;
use pipmcoll_model::SimTime;
use pipmcoll_sched::{Op, Region, RemoteRegion, Schedule};

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

type Chan = (usize, usize, u32);

/// How far a rank may run ahead of the most-behind runnable rank before it
/// yields (keeps resource acquisition near time-order without thrashing the
/// scheduler heap).
const YIELD_SLACK: SimTime = SimTime::ZERO;

#[derive(Hash, Eq, PartialEq, Clone, Copy, Debug)]
enum WaitKey {
    Recv { chan: Chan, pos: usize },
    Send { chan: Chan, pos: usize },
    Post { rank: usize, slot: u16 },
    Flag { rank: usize, flag: u16 },
    Barrier { node: usize, gen: usize },
}

#[derive(Clone, Debug)]
struct SendEntry {
    ready: SimTime,
    bytes: u64,
    done: Option<SimTime>,
}

#[derive(Clone, Debug)]
struct RecvEntry {
    post: SimTime,
    done: Option<SimTime>,
}

#[derive(Default)]
struct ChanState {
    sends: Vec<SendEntry>,
    recvs: Vec<RecvEntry>,
    matched: usize,
}

struct RankSim {
    clock: SimTime,
    cats: Breakdown,
    pc: usize,
    flag_times: FastMap<u16, Vec<SimTime>>,
    posted: FastMap<u16, (Region, SimTime)>,
    barriers_entered: usize,
    in_barrier: bool,
    /// (chan, position, is_send) for each issued request op index.
    req_info: FastMap<usize, (Chan, usize, bool)>,
}

enum StepOutcome {
    Progress,
    Blocked(WaitKey),
    Done,
}

struct Sim<'a> {
    cfg: &'a EngineConfig,
    sched: &'a Schedule,
    ranks: Vec<RankSim>,
    res: ClusterResources,
    chans: FastMap<Chan, ChanState>,
    waiters: FastMap<WaitKey, Vec<usize>>,
    barrier_arrivals: FastMap<(usize, usize), (usize, SimTime)>,
    barrier_done: FastMap<(usize, usize), SimTime>,
    /// (accessor, owner) pairs whose first shared-memory transfer happened
    /// (drives XPMEM attach / page-fault amortisation).
    first_use: FastSet<(usize, usize)>,
    // counters
    net_msgs: u64,
    net_bytes: u64,
    intra_msgs: u64,
    intra_bytes_moved: u64,
    shared_ops: u64,
    syscalls: u64,
    ops_executed: usize,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a EngineConfig, sched: &'a Schedule) -> Self {
        let topo = sched.topo();
        let ranks = (0..topo.world_size())
            .map(|_| RankSim {
                clock: SimTime::ZERO,
                cats: [SimTime::ZERO; 6],
                pc: 0,
                flag_times: FastMap::default(),
                posted: FastMap::default(),
                barriers_entered: 0,
                in_barrier: false,
                req_info: FastMap::default(),
            })
            .collect();
        Sim {
            cfg,
            sched,
            ranks,
            res: ClusterResources::new(topo.nodes(), topo.ppn()),
            chans: FastMap::default(),
            waiters: FastMap::default(),
            barrier_arrivals: FastMap::default(),
            barrier_done: FastMap::default(),
            first_use: FastSet::default(),
            net_msgs: 0,
            net_bytes: 0,
            intra_msgs: 0,
            intra_bytes_moved: 0,
            shared_ops: 0,
            syscalls: 0,
            ops_executed: 0,
        }
    }

    fn wake(
        &mut self,
        key: WaitKey,
        queue: &mut BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        seq: &mut u64,
    ) {
        if let Some(ws) = self.waiters.remove(&key) {
            for r in ws {
                *seq += 1;
                queue.push(Reverse((self.ranks[r].clock, *seq, r)));
            }
        }
    }

    /// Attempt to match the next (send, recv) pair on `chan`; computes the
    /// transfer through the resource model when both sides are present.
    fn try_match(
        &mut self,
        chan: Chan,
        queue: &mut BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        seq: &mut u64,
    ) {
        loop {
            let st = self.chans.entry(chan).or_default();
            let m = st.matched;
            if m >= st.sends.len() || m >= st.recvs.len() {
                return;
            }
            let bytes = st.sends[m].bytes;
            let sender_ready = st.sends[m].ready;
            let recv_post = st.recvs[m].post;
            let (src, dst, _) = chan;
            let topo = self.sched.topo();
            let (send_done, recv_done) = if topo.same_node(src, dst) {
                self.intra_transfer(src, dst, bytes, sender_ready, recv_post)
            } else {
                self.inter_transfer(src, dst, bytes, sender_ready, recv_post)
            };
            let st = self.chans.get_mut(&chan).unwrap();
            st.sends[m].done = Some(send_done);
            st.recvs[m].done = Some(recv_done);
            st.matched += 1;
            self.wake(WaitKey::Send { chan, pos: m }, queue, seq);
            self.wake(WaitKey::Recv { chan, pos: m }, queue, seq);
        }
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

    /// Intranode point-to-point transfer through the configured mechanism.
    fn intra_transfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        sender_ready: SimTime,
        recv_post: SimTime,
    ) -> (SimTime, SimTime) {
        let topo = self.sched.topo();
        let node = topo.node_of(src);
        let mem = &self.cfg.machine.mem;
        let costs = &self.cfg.machine.mech_costs;
        let mech = self.cfg.intranode_mech;
        let mut start = sender_ready + mem.alpha_r;
        if self.cfg.pip_handshake {
            // PiP-MPICH synchronises message sizes before transferring.
            start += costs.pip_size_sync;
        }
        start = start.max(recv_post);
        let first = self.first_use.insert((src, dst));
        let overhead = costs.per_transfer_overhead(mech, bytes, first);
        self.syscalls += mech.syscalls_per_transfer() as u64;
        if first && mech.has_cached_setup() {
            self.syscalls += 2; // xpmem expose + attach
        }
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
        let topo = self.sched.topo();
        let node = topo.node_of(rank);
        let mem = &self.cfg.machine.mem;
        let mech = self.cfg.shared_mech;
        let costs = &self.cfg.machine.mech_costs;
        let first = self.first_use.insert((rank, owner));
        let overhead = costs.per_transfer_overhead(mech, bytes, first);
        self.syscalls += mech.syscalls_per_transfer() as u64;
        if first && mech.has_cached_setup() {
            self.syscalls += 2;
        }
        let moved = costs.bytes_moved(mech, bytes);
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

    /// Resolve a remote region's post time, or the key to wait on.
    fn remote_post_time(&self, rr: &RemoteRegion) -> Result<SimTime, WaitKey> {
        match self.ranks[rr.rank].posted.get(&rr.slot) {
            Some((region, t)) => {
                debug_assert!(rr.offset + rr.len <= region.len);
                Ok(*t)
            }
            None => Err(WaitKey::Post {
                rank: rr.rank,
                slot: rr.slot,
            }),
        }
    }

    fn step(
        &mut self,
        rank: usize,
        queue: &mut BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        seq: &mut u64,
    ) -> Result<StepOutcome, SimError> {
        let prog = &self.sched.programs()[rank];
        if self.ranks[rank].pc >= prog.ops.len() {
            return Ok(StepOutcome::Done);
        }
        let pc = self.ranks[rank].pc;
        let op = prog.ops[pc];
        let topo = self.sched.topo();
        let mem = self.cfg.machine.mem;
        let clock_before = self.ranks[rank].clock;
        let category = match op {
            Op::ISend { .. } | Op::ISendShared { .. } => OpCategory::NetSend,
            Op::IRecv { .. } | Op::IRecvShared { .. } => OpCategory::NetRecv,
            Op::Wait { req } => {
                // Attribute the wait to the direction of its request.
                match self.ranks[rank].req_info.get(&req.0) {
                    Some((_, _, true)) => OpCategory::NetSend,
                    _ => OpCategory::NetRecv,
                }
            }
            Op::CopyIn { .. } | Op::CopyOut { .. } | Op::ReduceIn { .. } => OpCategory::SharedData,
            Op::LocalCopy { .. } | Op::LocalReduce { .. } => OpCategory::LocalData,
            Op::PostAddr { .. } | Op::Signal { .. } | Op::WaitFlag { .. } | Op::NodeBarrier => {
                OpCategory::Sync
            }
            Op::Compute { .. } => OpCategory::Compute,
        };
        match op {
            Op::ISend { dst, tag, src } => {
                let chan = (rank, dst, tag);
                let nic = &self.cfg.machine.nic;
                let issue_cost = if topo.same_node(rank, dst) {
                    self.cfg.machine.sw_overhead
                } else {
                    self.cfg.machine.sw_overhead + nic.send_overhead
                };
                self.ranks[rank].clock += issue_cost;
                let st = self.chans.entry(chan).or_default();
                let pos = st.sends.len();
                st.sends.push(SendEntry {
                    ready: self.ranks[rank].clock,
                    bytes: src.len as u64,
                    done: None,
                });
                self.ranks[rank].req_info.insert(pc, (chan, pos, true));
                self.try_match(chan, queue, seq);
            }
            Op::IRecv { src, tag, .. } => {
                let chan = (src, rank, tag);
                let st = self.chans.entry(chan).or_default();
                let pos = st.recvs.len();
                st.recvs.push(RecvEntry {
                    post: self.ranks[rank].clock,
                    done: None,
                });
                self.ranks[rank].req_info.insert(pc, (chan, pos, false));
                self.try_match(chan, queue, seq);
            }
            Op::ISendShared { dst, tag, src } => {
                // Multi-object send from a peer's posted buffer: the only
                // extra cost over a plain send is fetching the posted
                // address (one flag latency) — no staging copy.
                let post = match self.remote_post_time(&src) {
                    Ok(t) => t,
                    Err(k) => return Ok(StepOutcome::Blocked(k)),
                };
                let chan = (rank, dst, tag);
                let nic = &self.cfg.machine.nic;
                let issue_cost = if topo.same_node(rank, dst) {
                    self.cfg.machine.sw_overhead
                } else {
                    self.cfg.machine.sw_overhead + nic.send_overhead
                };
                let c = self.ranks[rank].clock.max(post) + mem.alpha_r + issue_cost;
                self.ranks[rank].clock = c;
                let st = self.chans.entry(chan).or_default();
                let pos = st.sends.len();
                st.sends.push(SendEntry {
                    ready: c,
                    bytes: src.len as u64,
                    done: None,
                });
                self.ranks[rank].req_info.insert(pc, (chan, pos, true));
                self.shared_ops += 1;
                self.try_match(chan, queue, seq);
            }
            Op::IRecvShared { src, tag, dst } => {
                let post = match self.remote_post_time(&dst) {
                    Ok(t) => t,
                    Err(k) => return Ok(StepOutcome::Blocked(k)),
                };
                let chan = (src, rank, tag);
                let c = self.ranks[rank].clock.max(post) + mem.alpha_r;
                self.ranks[rank].clock = c;
                let st = self.chans.entry(chan).or_default();
                let pos = st.recvs.len();
                st.recvs.push(RecvEntry {
                    post: c,
                    done: None,
                });
                self.ranks[rank].req_info.insert(pc, (chan, pos, false));
                self.shared_ops += 1;
                self.try_match(chan, queue, seq);
            }
            Op::Wait { req } => {
                let (chan, pos, is_send) = self.ranks[rank].req_info[&req.0];
                let st = self.chans.get(&chan).expect("request channel exists");
                let done = if is_send {
                    st.sends[pos].done
                } else {
                    st.recvs[pos].done
                };
                match done {
                    Some(t) => {
                        let c = self.ranks[rank].clock;
                        self.ranks[rank].clock = c.max(t);
                    }
                    None => {
                        let key = if is_send {
                            WaitKey::Send { chan, pos }
                        } else {
                            WaitKey::Recv { chan, pos }
                        };
                        return Ok(StepOutcome::Blocked(key));
                    }
                }
            }
            Op::PostAddr { slot, region } => {
                // A post is a store + release fence: half a flag latency.
                self.ranks[rank].clock += SimTime::from_ps(mem.alpha_r.as_ps() / 2);
                let t = self.ranks[rank].clock;
                self.ranks[rank].posted.insert(slot, (region, t));
                self.wake(WaitKey::Post { rank, slot }, queue, seq);
            }
            Op::CopyIn { from, .. } => {
                let post = match self.remote_post_time(&from) {
                    Ok(t) => t,
                    Err(k) => return Ok(StepOutcome::Blocked(k)),
                };
                let end = self.shared_access(rank, from.len as u64, false, from.rank, post);
                self.ranks[rank].clock = end;
            }
            Op::CopyOut { from, to } => {
                let post = match self.remote_post_time(&to) {
                    Ok(t) => t,
                    Err(k) => return Ok(StepOutcome::Blocked(k)),
                };
                let end = self.shared_access(rank, from.len as u64, false, to.rank, post);
                self.ranks[rank].clock = end;
            }
            Op::ReduceIn { from, .. } => {
                let post = match self.remote_post_time(&from) {
                    Ok(t) => t,
                    Err(k) => return Ok(StepOutcome::Blocked(k)),
                };
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
                self.ranks[peer].flag_times.entry(flag).or_default().push(t);
                self.wake(WaitKey::Flag { rank: peer, flag }, queue, seq);
            }
            Op::WaitFlag { flag, count } => {
                let times = self.ranks[rank]
                    .flag_times
                    .get(&flag)
                    .cloned()
                    .unwrap_or_default();
                if (times.len() as u32) < count {
                    return Ok(StepOutcome::Blocked(WaitKey::Flag { rank, flag }));
                }
                let mut sorted = times;
                sorted.sort_unstable();
                let kth = sorted[count as usize - 1];
                let c = self.ranks[rank].clock;
                self.ranks[rank].clock = c.max(kth) + mem.alpha_r;
            }
            Op::NodeBarrier => {
                let node = topo.node_of(rank);
                if !self.ranks[rank].in_barrier {
                    self.ranks[rank].barriers_entered += 1;
                    self.ranks[rank].in_barrier = true;
                    let generation = self.ranks[rank].barriers_entered;
                    let entry = self
                        .barrier_arrivals
                        .entry((node, generation))
                        .or_insert((0, SimTime::ZERO));
                    entry.0 += 1;
                    entry.1 = entry.1.max(self.ranks[rank].clock);
                    if entry.0 == topo.ppn() {
                        let p = topo.ppn();
                        let cost = self.cfg.machine.barrier_unit * ceil_log(2, p.max(2)) as u64;
                        let done = entry.1 + cost;
                        self.barrier_done.insert((node, generation), done);
                        self.wake(
                            WaitKey::Barrier {
                                node,
                                gen: generation,
                            },
                            queue,
                            seq,
                        );
                    }
                }
                let generation = self.ranks[rank].barriers_entered;
                match self.barrier_done.get(&(node, generation)) {
                    Some(done) => {
                        self.ranks[rank].clock = *done;
                        self.ranks[rank].in_barrier = false;
                    }
                    None => {
                        return Ok(StepOutcome::Blocked(WaitKey::Barrier {
                            node,
                            gen: generation,
                        }))
                    }
                }
            }
            Op::Compute { bytes } => {
                self.ranks[rank].clock += mem.reduce_time(bytes);
            }
        }
        let advanced = self.ranks[rank].clock.saturating_sub(clock_before);
        self.ranks[rank].cats[category.idx()] += advanced;
        self.ranks[rank].pc += 1;
        self.ops_executed += 1;
        Ok(StepOutcome::Progress)
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
    let mut queue: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
    let mut seq: u64 = 0;
    for r in 0..world {
        seq += 1;
        queue.push(Reverse((SimTime::ZERO, seq, r)));
    }
    let mut finish = vec![SimTime::ZERO; world];
    let mut finished = vec![false; world];
    while let Some(Reverse((_, _, rank))) = queue.pop() {
        if finished[rank] {
            continue;
        }
        loop {
            // Yield to a more-behind rank so resources are acquired in
            // near-time order.
            if let Some(Reverse((head, _, _))) = queue.peek() {
                // Hysteresis: requeue only when meaningfully ahead of the
                // most-behind runnable rank; re-sorting the heap on every
                // sub-microsecond lead costs more accuracy than it buys.
                if sim.ranks[rank].clock > *head + YIELD_SLACK {
                    seq += 1;
                    queue.push(Reverse((sim.ranks[rank].clock, seq, rank)));
                    break;
                }
            }
            match sim.step(rank, &mut queue, &mut seq)? {
                StepOutcome::Progress => continue,
                StepOutcome::Blocked(key) => {
                    sim.waiters.entry(key).or_default().push(rank);
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

/// Convenience: simulate and also check the schedule with the dataflow
/// interpreter beforehand (tests and harnesses).
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
    fn deadlock_reported() {
        let topo = pipmcoll_model::Topology::new(1, 2);
        let s = record(topo, BufSizes::new(0, 0), |c| {
            if c.local() == 0 {
                c.wait_flag(3, 1);
            }
        });
        let err = simulate(&cfg(1, 2), &s).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
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
