//! **Extension**: global multi-object `MPI_Reduce`.
//!
//! Composition of the paper's building blocks: the chunked intranode
//! reduce (Fig. 5) produces one partial per node; partials then flow up
//! the radix-(P+1) node tree. At every head, the k−1 incoming partials are
//! received by k−1 *different local ranks* (multi-object RX) and merged
//! **chunk-parallel** — local rank `i` reduces element-chunk `i` of all
//! received buffers into the head's accumulator, so both receive bandwidth
//! and reduction arithmetic scale with P.
//!
//! Buffers: every rank contributes `Send`; the root rank (a local root)
//! receives the result in `Recv`; other ranks need no receive buffer.

use pipmcoll_sched::{BufId, Comm, Region, RemoteRegion};

use crate::mcoll::tree::{node_role, part_bounds};
use crate::params::{slots, tags};
use crate::util::split_even;
use crate::AllreduceParams;

/// Multi-object reduce to `root` (see module docs).
pub fn reduce_mcoll<C: Comm>(c: &mut C, p: &AllreduceParams, root: usize) {
    let topo = c.topo();
    let n = topo.nodes();
    let ppn = topo.ppn();
    let count = p.count;
    let esz = p.dt.size();
    let cb = count * esz;
    assert!(topo.is_local_root(root), "reduce root must be a local root");
    let root_node = topo.node_of(root);
    let node = c.node();
    let l = c.local();
    let vnode = (node + n - root_node) % n;
    let local_root = topo.local_root(node);
    let role = node_role(n, ppn + 1, vnode);
    let on_root_node = vnode == 0;

    // Accumulator: the root rank reduces into its user Recv; every other
    // node's local root uses a scratch buffer. Posted under RECV.
    let acc = if l == 0 {
        let region = if on_root_node {
            Region::new(BufId::Recv, 0, cb)
        } else {
            let t = c.alloc_temp(cb);
            Region::whole(t, cb)
        };
        c.post_addr(slots::RECV, region);
        Some(region)
    } else {
        None
    };
    // Everyone exposes its contribution and a partial-receive scratch.
    c.post_addr(slots::SEND, Region::new(BufId::Send, 0, cb));
    let tmp = c.alloc_temp(cb);
    c.post_addr(slots::AUX, Region::whole(tmp, cb));
    // My merge chunk and its staging buffer.
    let (elo, ehi) = split_even(count, ppn, l);
    let (coff, clen) = (elo * esz, (ehi - elo) * esz);
    let stage = c.alloc_temp(clen.max(1));
    c.node_barrier();

    // --- Phase 1: chunked intranode reduce into the accumulator (Fig. 5).
    if clen > 0 {
        c.local_copy(
            Region::new(BufId::Send, coff, clen),
            Region::new(stage, 0, clen),
        );
        for peer_l in 0..ppn {
            if peer_l == l {
                continue;
            }
            c.reduce_in(
                RemoteRegion::new(topo.rank_of(node, peer_l), slots::SEND, coff, clen),
                Region::new(stage, 0, clen),
                p.op,
                p.dt,
            );
        }
        if let Some(a) = acc {
            c.local_copy(Region::new(stage, 0, clen), a.sub(coff, clen));
        } else {
            c.copy_out(
                Region::new(stage, 0, clen),
                RemoteRegion::new(local_root, slots::RECV, coff, clen),
            );
        }
    }
    c.node_barrier();

    // Chunk-parallel merge of partials held in `holders`' AUX scratches
    // into the accumulator; bracketed by barriers at the call sites.
    let merge = |c: &mut C, holders: &[usize]| {
        if clen == 0 || holders.is_empty() {
            return;
        }
        if let Some(a) = acc {
            for &h in holders {
                if h == 0 {
                    c.local_reduce(Region::new(tmp, coff, clen), a.sub(coff, clen), p.op, p.dt);
                } else {
                    c.reduce_in(
                        RemoteRegion::new(topo.rank_of(node, h), slots::AUX, coff, clen),
                        a.sub(coff, clen),
                        p.op,
                        p.dt,
                    );
                }
            }
        } else {
            c.copy_in(
                RemoteRegion::new(local_root, slots::RECV, coff, clen),
                Region::new(stage, 0, clen),
            );
            for &h in holders {
                if h == l {
                    c.local_reduce(
                        Region::new(tmp, coff, clen),
                        Region::new(stage, 0, clen),
                        p.op,
                        p.dt,
                    );
                } else {
                    c.reduce_in(
                        RemoteRegion::new(topo.rank_of(node, h), slots::AUX, coff, clen),
                        Region::new(stage, 0, clen),
                        p.op,
                        p.dt,
                    );
                }
            }
            c.copy_out(
                Region::new(stage, 0, clen),
                RemoteRegion::new(local_root, slots::RECV, coff, clen),
            );
        }
    };

    // --- Phase 2: partials flow up the tree, deepest level first. At each
    // of my head levels I receive k−1 partials (one per local rank) and
    // merge them chunk-parallel.
    for h in role.head_levels.iter().rev() {
        let jj = l + 1;
        let receivers = h.k - 1;
        if jj < h.k {
            let (plo, _) = part_bounds(h.len, h.k, jj);
            let child = topo.rank_of((h.lo + plo + root_node) % n, 0);
            let tag = tags::MCOLL_AR_SMALL + 0x80 + h.level * 4;
            c.recv(child, tag, Region::whole(tmp, cb));
        }
        c.node_barrier();
        let holders: Vec<usize> = (0..receivers).collect();
        merge(c, &holders);
        c.node_barrier();
    }

    // Forward my node's subtree partial to my parent's designated local.
    if let Some(a) = role.attach {
        if l == 0 {
            let parent = topo.rank_of((a.parent_lo + root_node) % n, a.part - 1);
            let tag = tags::MCOLL_AR_SMALL + 0x80 + a.level * 4;
            let acc = acc.expect("local roots hold the accumulator");
            c.send(parent, tag, acc);
        }
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
            |c| reduce_mcoll(c, &p, root),
        );
        let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
        assert_eq!(
            bytes_to_doubles(&res.recv[root]),
            reference_reduce(ReduceOp::Sum, topo.world_size(), count),
            "{nodes}x{ppn} count={count} root={root}"
        );
    }

    #[test]
    fn single_node() {
        run(1, 4, 16, 0);
        run(1, 1, 3, 0);
    }

    #[test]
    fn tree_shapes() {
        run(2, 2, 8, 0);
        run(3, 3, 12, 0);
        run(5, 2, 7, 0);
        run(9, 2, 20, 0);
        run(7, 1, 5, 0);
    }

    #[test]
    fn nonzero_root_node() {
        run(4, 2, 8, 2);
        run(5, 3, 10, 6);
    }

    #[test]
    fn tiny_counts() {
        run(3, 5, 2, 0); // count < P: empty chunks
        run(4, 3, 1, 0);
    }

    #[test]
    fn max_operator() {
        let topo = Topology::new(3, 2);
        let count = 6;
        let p = AllreduceParams {
            count,
            dt: pipmcoll_model::Datatype::Double,
            op: ReduceOp::Max,
        };
        let cb = p.cb();
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == 0 { cb } else { 0 }),
            |c| reduce_mcoll(c, &p, 0),
        );
        let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
        assert_eq!(
            bytes_to_doubles(&res.recv[0]),
            reference_reduce(ReduceOp::Max, 6, count)
        );
    }
}
