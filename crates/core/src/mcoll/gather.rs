//! **Extension**: global multi-object `MPI_Gather`.
//!
//! The reverse of the multi-object scatter: data flows *up* the
//! radix-(P+1) node tree, and at every head the k−1 incoming sub-ranges
//! are received by k−1 *different local ranks* writing concurrently into
//! the head's buffer (`irecv_shared`) — multi-object on the receive side,
//! which is where gather's pressure is. At the root node the sub-ranges
//! land straight in the user buffer (≤2 real-layout segments each, because
//! subtrees are contiguous in virtual node order).
//!
//! Buffers: every rank contributes `cb` bytes in `Send`; the root (a local
//! root) ends with the rank-ordered `world·cb` result in `Recv`.

use pipmcoll_sched::{BufId, Comm, Region, RemoteRegion};

use crate::mcoll::scatter::node_segments;
use crate::mcoll::tree::{node_role, part_bounds, total_child_parts};
use crate::params::{flags, slots, tags};

/// Multi-object gather (see module docs).
pub fn gather_mcoll<C: Comm>(c: &mut C, cb: usize, root: usize) {
    let topo = c.topo();
    let n = topo.nodes();
    let ppn = topo.ppn();
    let nb = ppn * cb;
    assert!(topo.is_local_root(root), "gather root must be a local root");
    let root_node = topo.node_of(root);
    let node = c.node();
    let l = c.local();
    let vnode = (node + n - root_node) % n;
    let local_root = topo.local_root(node);
    let role = node_role(n, ppn + 1, vnode);
    let on_root_node = vnode == 0;

    // The head buffer: the root node's is the user Recv (real layout);
    // other heads stage their subtree in a virtual-contiguous scratch.
    let buf = if l == 0 {
        if on_root_node {
            c.post_addr(slots::WORK, Region::new(BufId::Recv, 0, n * nb));
            None
        } else {
            let t = c.alloc_temp(role.max_span * nb);
            c.post_addr(slots::WORK, Region::whole(t, role.max_span * nb));
            Some(t)
        }
    } else {
        None
    };

    // Intranode gather of my node's own chunk into the head buffer.
    let own_off = if on_root_node {
        // Real layout: my global rank's slot.
        c.rank() * cb
    } else {
        (vnode - role.base) * nb + l * cb
    };
    if l == 0 {
        let dst = if on_root_node {
            Region::new(BufId::Recv, own_off, cb)
        } else {
            Region::new(buf.expect("head scratch"), own_off, cb)
        };
        c.local_copy(Region::new(BufId::Send, 0, cb), dst);
    } else {
        c.copy_out(
            Region::new(BufId::Send, 0, cb),
            RemoteRegion::new(local_root, slots::WORK, own_off, cb),
        );
        c.signal(local_root, flags::READY);
    }

    // Receive sub-ranges from child heads — one local rank per part, all
    // writing concurrently into the head's posted buffer.
    let mut receives = 0u32;
    for h in &role.head_levels {
        let jj = l + 1;
        if jj < h.k {
            let (plo, phi) = part_bounds(h.len, h.k, jj);
            let child_vnode = h.lo + plo;
            let span = phi - plo;
            let child = topo.rank_of((child_vnode + root_node) % n, 0);
            if on_root_node {
                // Real-layout segments in the user Recv.
                let (segs, nseg) = node_segments(child_vnode, span, root_node, n);
                for (s, (real_start, len)) in segs[..nseg].iter().enumerate() {
                    let tag = tags::MCOLL_AG_SMALL + 0x80 + h.level * 4 + s as u32;
                    let r = c.irecv_shared(
                        child,
                        tag,
                        RemoteRegion::new(local_root, slots::WORK, real_start * nb, len * nb),
                    );
                    c.wait(r);
                }
            } else {
                let off = (child_vnode - role.base) * nb;
                let tag = tags::MCOLL_AG_SMALL + 0x80 + h.level * 4;
                let r = c.irecv_shared(
                    child,
                    tag,
                    RemoteRegion::new(local_root, slots::WORK, off, span * nb),
                );
                c.wait(r);
            }
            c.signal(local_root, flags::DONE);
        }
        receives += 1; // level processed (counted for nothing; clarity)
    }
    let _ = receives;

    // The head's local root forwards the assembled subtree to its parent
    // once everything has landed.
    if l == 0 {
        let expected = total_child_parts(&role) as u32;
        if expected > 0 {
            c.wait_flag(flags::DONE, expected);
        }
        if ppn > 1 {
            c.wait_flag(flags::READY, (ppn - 1) as u32);
        }
        if let Some(a) = role.attach {
            let t = buf.expect("non-root heads stage in scratch");
            let parent = topo.rank_of((a.parent_lo + root_node) % n, a.part - 1);
            if a.parent_lo == 0 {
                // Parent is the root node: match its real-layout segments.
                let (segs, nseg) = node_segments(a.lo, a.span, root_node, n);
                let mut off = 0usize;
                for (s, (_, len)) in segs[..nseg].iter().enumerate() {
                    let tag = tags::MCOLL_AG_SMALL + 0x80 + a.level * 4 + s as u32;
                    c.send(parent, tag, Region::new(t, off, len * nb));
                    off += len * nb;
                }
            } else {
                let tag = tags::MCOLL_AG_SMALL + 0x80 + a.level * 4;
                c.send(parent, tag, Region::whole(t, a.span * nb));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::verify::{self, pattern};
    use pipmcoll_sched::{record_with_sizes, BufSizes};

    fn run(nodes: usize, ppn: usize, cb: usize, root: usize) {
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == root { world * cb } else { 0 }),
            |c| gather_mcoll(c, cb, root),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        let mut expect = Vec::new();
        for r in 0..world {
            expect.extend_from_slice(&pattern(r, cb));
        }
        assert_eq!(res.recv[root], expect, "{nodes}x{ppn} root={root}");
    }

    #[test]
    fn single_node() {
        run(1, 4, 16, 0);
        run(1, 1, 8, 0);
    }

    #[test]
    fn tree_shapes() {
        run(2, 2, 16, 0);
        run(3, 2, 8, 0);
        run(5, 3, 8, 0);
        run(9, 2, 4, 0);
        run(11, 1, 8, 0);
    }

    #[test]
    fn nonzero_root_node() {
        run(4, 2, 16, 2);
        run(5, 2, 8, 8);
        run(7, 3, 4, 18);
    }
}
