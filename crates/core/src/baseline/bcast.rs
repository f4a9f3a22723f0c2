//! Binomial-tree broadcast (MPICH's small-message default, \[23\]).

use pipmcoll_sched::{BufId, Comm, Region};

use crate::baseline::{real_of, vrank};
use crate::params::tags;

/// Binomial broadcast of `cb` bytes from `root`.
///
/// Buffer convention: the root's payload is its `Send` buffer; every rank
/// (including the root) ends with the payload in its `Recv` buffer.
pub fn bcast_binomial<C: Comm>(c: &mut C, cb: usize, root: usize) {
    if vrank(c, root) == 0 {
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
    }
    bcast_tree(c, cb, root);
}

/// The tree of [`bcast_binomial`] without its root copy: the root's
/// payload is already in its `Recv`, and every other rank receives into
/// `Recv` from its parent and forwards from there.
pub(crate) fn bcast_tree<C: Comm>(c: &mut C, cb: usize, root: usize) {
    let size = c.topo().world_size();
    let vr = vrank(c, root);
    // Receive from the parent (the rank that differs in my lowest set bit).
    let mut mask = 1usize;
    while mask < size {
        if vr & mask != 0 {
            let parent = real_of(vr - mask, root, size);
            c.recv(parent, tags::BINOMIAL, Region::new(BufId::Recv, 0, cb));
            break;
        }
        mask <<= 1;
    }
    // Forward to children at decreasing distances.
    mask >>= 1;
    while mask > 0 {
        if vr & mask == 0 && vr + mask < size {
            let child = real_of(vr + mask, root, size);
            c.send(child, tags::BINOMIAL, Region::new(BufId::Recv, 0, cb));
        }
        mask >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::dataflow::execute_race_checked;
    use pipmcoll_sched::verify::pattern;
    use pipmcoll_sched::{record_with_sizes, BufSizes};

    fn run(nodes: usize, ppn: usize, cb: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(if r == root { cb } else { 0 }, cb),
            |c| bcast_binomial(c, cb, root),
        );
        sched.validate().unwrap();
        let res = execute_race_checked(&sched, |r| {
            if r == root {
                pattern(root, cb)
            } else {
                Vec::new()
            }
        })
        .unwrap();
        for rank in 0..topo.world_size() {
            assert_eq!(res.recv[rank], pattern(root, cb), "rank {rank}");
        }
    }

    #[test]
    fn bcast_power_of_two() {
        run(4, 2, 64, 0);
    }

    #[test]
    fn bcast_odd_world() {
        run(3, 3, 17, 0);
    }

    #[test]
    fn bcast_nonzero_root() {
        run(2, 4, 32, 5);
        run(5, 1, 8, 4);
    }

    #[test]
    fn bcast_single_rank() {
        run(1, 1, 16, 0);
    }
}
