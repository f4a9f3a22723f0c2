//! **Extension**: hierarchical PiP barrier.
//!
//! The flat dissemination barrier sends `N·P·⌈log₂(N·P)⌉` network messages;
//! in the PiP model intranode synchronisation costs only userspace flag
//! operations, so the hierarchical design synchronises each node with one
//! node barrier, disseminates among the `N` local roots only
//! (`N·⌈log₂N⌉` messages), and releases the node with a second barrier.

use pipmcoll_sched::{BufId, Comm, Region};

use crate::params::tags;

/// Hierarchical barrier: node barrier → dissemination over local roots →
/// node barrier.
pub fn barrier_mcoll<C: Comm>(c: &mut C) {
    let topo = c.topo();
    let n = topo.nodes();
    c.node_barrier();
    if n > 1 && c.is_local_root() {
        let node = c.node();
        let mut dist = 1usize;
        let mut round = 0u32;
        while dist < n {
            let to = topo.local_root((node + dist) % n);
            let from = topo.local_root((node + n - dist) % n);
            let tag = tags::MCOLL_SCATTER + 0x200 + round;
            let sreq = c.isend(to, tag, Region::new(BufId::Send, 0, 0));
            let rreq = c.irecv(from, tag, Region::new(BufId::Recv, 0, 0));
            c.wait(sreq);
            c.wait(rreq);
            dist <<= 1;
            round += 1;
        }
    }
    c.node_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::verify;
    use pipmcoll_sched::{record, BufSizes};

    #[test]
    fn completes_for_various_shapes() {
        for (nodes, ppn) in [(1usize, 1usize), (1, 6), (2, 2), (3, 3), (5, 2), (8, 1)] {
            let topo = Topology::new(nodes, ppn);
            let sched = record(topo, BufSizes::new(0, 0), barrier_mcoll);
            verify::run(&sched, |_| Vec::new()).unwrap_or_else(|e| panic!("{nodes}x{ppn}: {e}"));
        }
    }

    #[test]
    fn only_local_roots_touch_the_network() {
        let topo = Topology::new(4, 3);
        let sched = record(topo, BufSizes::new(0, 0), barrier_mcoll);
        for rank in topo.all_ranks() {
            let msgs = sched.programs()[rank].net_msgs_sent();
            if topo.is_local_root(rank) {
                assert_eq!(msgs, 2, "rank {rank}"); // log2(4) rounds
            } else {
                assert_eq!(msgs, 0, "rank {rank}");
            }
        }
    }

    #[test]
    fn cheaper_than_flat_dissemination_in_simulation() {
        use crate::baseline::barrier_dissemination;
        use pipmcoll_engine::{simulate, EngineConfig};
        use pipmcoll_model::presets;
        let machine = presets::bebop(16, 6);
        let flat = record(machine.topo, BufSizes::new(0, 0), barrier_dissemination);
        let hier = record(machine.topo, BufSizes::new(0, 0), barrier_mcoll);
        let cfg = EngineConfig::pip_mcoll(machine);
        let t_flat = simulate(&cfg, &flat).unwrap().makespan;
        let t_hier = simulate(&cfg, &hier).unwrap().makespan;
        assert!(
            t_hier < t_flat,
            "hierarchical must win: {t_hier} vs {t_flat}"
        );
    }
}
