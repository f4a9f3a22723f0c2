//! Binomial-tree reduce (MPICH's default for commutative operators) — the
//! conventional single-object comparison for the multi-object global
//! reduce extension.

use pipmcoll_sched::{BufId, Comm, Region};

use crate::baseline::{real_of, vrank};
use crate::params::tags;
use crate::AllreduceParams;

/// Binomial reduce of `count` elements to `root`: every rank contributes
/// `Send`; the root's result lands in its `Recv` (non-roots need no recv
/// buffer).
pub fn reduce_binomial<C: Comm>(c: &mut C, p: &AllreduceParams, root: usize) {
    let size = c.topo().world_size();
    let cb = p.cb();
    let vr = vrank(c, root);
    // Accumulator: the root reduces in place in Recv; others use scratch.
    let acc = if vr == 0 {
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        Region::new(BufId::Recv, 0, cb)
    } else {
        let t = c.alloc_temp(cb);
        c.local_copy(Region::new(BufId::Send, 0, cb), Region::new(t, 0, cb));
        Region::new(t, 0, cb)
    };
    if size == 1 {
        return;
    }
    let tmp = c.alloc_temp(cb);
    let mut mask = 1usize;
    while mask < size {
        if vr & mask != 0 {
            let parent = real_of(vr - mask, root, size);
            c.send(parent, tags::BINOMIAL + 32, acc);
            return;
        }
        if vr + mask < size {
            let child = real_of(vr + mask, root, size);
            c.recv(child, tags::BINOMIAL + 32, Region::new(tmp, 0, cb));
            c.local_reduce(Region::new(tmp, 0, cb), acc, p.op, p.dt);
        }
        mask <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::dtype::{bytes_to_doubles, doubles_to_bytes};
    use pipmcoll_model::{ReduceOp, Topology};
    use pipmcoll_sched::verify::{self, double_pattern, reference_reduce};
    use pipmcoll_sched::{record_with_sizes, BufSizes};

    fn run(nodes: usize, ppn: usize, count: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let p = AllreduceParams::sum_doubles(count);
        let cb = p.cb();
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == root { cb } else { 0 }),
            |c| reduce_binomial(c, &p, root),
        );
        let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
        assert_eq!(
            bytes_to_doubles(&res.recv[root]),
            reference_reduce(ReduceOp::Sum, topo.world_size(), count),
            "{nodes}x{ppn} root={root}"
        );
    }

    #[test]
    fn reduce_shapes() {
        run(1, 1, 4, 0);
        run(2, 2, 8, 0);
        run(3, 3, 16, 0);
        run(5, 2, 7, 0);
    }

    #[test]
    fn reduce_nonzero_roots() {
        run(2, 2, 8, 3);
        run(3, 3, 5, 4);
        run(4, 2, 9, 7);
    }
}
