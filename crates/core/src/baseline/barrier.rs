//! Dissemination barrier (the flat MPICH default): `⌈log₂ size⌉` rounds in
//! which every rank signals `(rank + 2^r)` and waits for `(rank − 2^r)` —
//! all `N·P` ranks exchange network messages every round.

use pipmcoll_sched::{BufId, Comm, Region};

use crate::params::tags;

/// Flat dissemination barrier over all ranks.
pub fn barrier_dissemination<C: Comm>(c: &mut C) {
    let size = c.topo().world_size();
    let rank = c.rank();
    if size == 1 {
        return;
    }
    let mut dist = 1usize;
    let mut round = 0u32;
    while dist < size {
        let to = (rank + dist) % size;
        let from = (rank + size - dist) % size;
        let tag = tags::BINOMIAL + 64 + round;
        let sreq = c.isend(to, tag, Region::new(BufId::Send, 0, 0));
        let rreq = c.irecv(from, tag, Region::new(BufId::Recv, 0, 0));
        c.wait(sreq);
        c.wait(rreq);
        dist <<= 1;
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::verify;
    use pipmcoll_sched::{record, BufSizes};

    #[test]
    fn completes_for_various_shapes() {
        for (nodes, ppn) in [(1usize, 1usize), (2, 2), (3, 3), (5, 2), (4, 4)] {
            let topo = Topology::new(nodes, ppn);
            let sched = record(topo, BufSizes::new(0, 0), barrier_dissemination);
            verify::run(&sched, |_| Vec::new()).unwrap_or_else(|e| panic!("{nodes}x{ppn}: {e}"));
        }
    }

    #[test]
    fn round_count_is_log2() {
        let topo = Topology::new(4, 4); // 16 ranks -> 4 rounds
        let sched = record(topo, BufSizes::new(0, 0), barrier_dissemination);
        assert_eq!(sched.programs()[0].net_msgs_sent(), 4);
    }
}
