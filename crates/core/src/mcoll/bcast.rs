//! **Extension**: global multi-object `MPI_Bcast`.
//!
//! The paper implements intranode broadcast only (§III-C); a full-cluster
//! multi-object broadcast is the natural next collective and is built here
//! from the same ingredients:
//!
//! * **small messages** — a radix-(P+1) tree over nodes in which the head
//!   node's P local ranks forward the payload to P child nodes
//!   *concurrently, straight from the local root's buffer* — one level per
//!   `log_{P+1} N`, maximum message rate;
//! * **large messages** — a scatter + allgather (van de Geijn) scheme:
//!   the payload is cut into N node-chunks, scattered down the same tree
//!   (each link carries only its subtree's bytes), then allgathered around
//!   the slice-parallel ring with overlapped intranode copies.
//!
//! Buffers: the root rank's payload in `Send`; every rank (root included)
//! ends with it in `Recv`. The root must be a local root.

use pipmcoll_sched::{BufId, Comm, Region, RemoteRegion, Req};

use crate::mcoll::tree::{node_role, part_bounds};
use crate::params::{slots, tags};
use crate::util::split_even;

/// Message-size switch between the tree and scatter+allgather schemes.
pub const BCAST_SWITCH_BYTES: usize = 64 * 1024;

/// Dispatching multi-object broadcast (see module docs).
pub fn bcast_mcoll<C: Comm>(c: &mut C, cb: usize, root: usize) {
    if cb >= BCAST_SWITCH_BYTES {
        bcast_mcoll_large(c, cb, root)
    } else {
        bcast_mcoll_small(c, cb, root)
    }
}

/// Small-message multi-object broadcast: radix-(P+1) node tree.
pub fn bcast_mcoll_small<C: Comm>(c: &mut C, cb: usize, root: usize) {
    let topo = c.topo();
    let n = topo.nodes();
    let ppn = topo.ppn();
    assert!(topo.is_local_root(root), "bcast root must be a local root");
    let root_node = topo.node_of(root);
    let node = c.node();
    let l = c.local();
    let vnode = (node + n - root_node) % n;
    let local_root = topo.local_root(node);
    let role = node_role(n, ppn + 1, vnode);

    // The local root materialises the payload in its Recv and posts it.
    if l == 0 {
        if vnode == 0 {
            c.local_copy(
                Region::new(BufId::Send, 0, cb),
                Region::new(BufId::Recv, 0, cb),
            );
        } else {
            let a = role.attach.expect("non-root nodes attach");
            let sender_node = (a.parent_lo + root_node) % n;
            let sender = topo.rank_of(sender_node, a.part - 1);
            c.recv(
                sender,
                tags::MCOLL_SCATTER + 0x80 + a.level * 4,
                Region::new(BufId::Recv, 0, cb),
            );
        }
        c.post_addr(slots::WORK, Region::new(BufId::Recv, 0, cb));
    }

    // Forward to child heads: local rank `part-1` drives each child link,
    // reading straight from the local root's posted buffer.
    let mut reqs: Vec<Req> = Vec::new();
    for h in &role.head_levels {
        let jj = l + 1;
        if jj < h.k {
            let (plo, _) = part_bounds(h.len, h.k, jj);
            let child_node = (h.lo + plo + root_node) % n;
            let child = topo.rank_of(child_node, 0);
            let tag = tags::MCOLL_SCATTER + 0x80 + h.level * 4;
            let req = if l == 0 {
                c.isend(child, tag, Region::new(BufId::Recv, 0, cb))
            } else {
                c.isend_shared(
                    child,
                    tag,
                    RemoteRegion::new(local_root, slots::WORK, 0, cb),
                )
            };
            reqs.push(req);
        }
    }

    // Intranode broadcast (overlaps the still-in-flight sends).
    if l != 0 {
        c.copy_in(
            RemoteRegion::new(local_root, slots::WORK, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
    }
    c.wait_all(&reqs);
}

/// Large-message multi-object broadcast: scatter the payload's node-chunks
/// down the tree, then ring-allgather them (slice-parallel, overlapped).
pub fn bcast_mcoll_large<C: Comm>(c: &mut C, cb: usize, root: usize) {
    let topo = c.topo();
    let n = topo.nodes();
    let ppn = topo.ppn();
    assert!(topo.is_local_root(root), "bcast root must be a local root");
    let root_node = topo.node_of(root);
    let node = c.node();
    let l = c.local();
    let vnode = (node + n - root_node) % n;
    let local_root = topo.local_root(node);
    if n == 1 {
        return bcast_mcoll_small(c, cb, root);
    }
    // Byte offset of virtual node v's chunk boundary (valid for v = n).
    let coff = |v: usize| v * cb / n;
    let role = node_role(n, ppn + 1, vnode);

    // --- Phase A: scatter chunks down the tree, directly into the local
    // root's Recv at their final offsets (virtual chunks are contiguous).
    if l == 0 {
        if vnode == 0 {
            c.local_copy(
                Region::new(BufId::Send, 0, cb),
                Region::new(BufId::Recv, 0, cb),
            );
        } else {
            let a = role.attach.expect("non-root nodes attach");
            let sender_node = (a.parent_lo + root_node) % n;
            let sender = topo.rank_of(sender_node, a.part - 1);
            let off = coff(a.lo);
            let len = coff(a.lo + a.span) - off;
            c.recv(
                sender,
                tags::MCOLL_SCATTER + 0xc0 + a.level * 4,
                Region::new(BufId::Recv, off, len),
            );
        }
        c.post_addr(slots::WORK, Region::new(BufId::Recv, 0, cb));
    }
    let mut reqs: Vec<Req> = Vec::new();
    for h in &role.head_levels {
        let jj = l + 1;
        if jj < h.k {
            let (plo, phi) = part_bounds(h.len, h.k, jj);
            let child_node = (h.lo + plo + root_node) % n;
            let child = topo.rank_of(child_node, 0);
            let off = coff(h.lo + plo);
            let len = coff(h.lo + phi) - off;
            let tag = tags::MCOLL_SCATTER + 0xc0 + h.level * 4;
            let req = if l == 0 {
                c.isend(child, tag, Region::new(BufId::Recv, off, len))
            } else {
                c.isend_shared(
                    child,
                    tag,
                    RemoteRegion::new(local_root, slots::WORK, off, len),
                )
            };
            reqs.push(req);
        }
    }
    c.wait_all(&reqs);
    c.node_barrier();

    // --- Phase B: slice-parallel ring allgather of the chunks over
    // *virtual* node order, with overlapped intranode chunk copies.
    let right = topo.rank_of(((vnode + 1) % n + root_node) % n, l);
    let left = topo.rank_of(((vnode + n - 1) % n + root_node) % n, l);
    let slice = |v: usize| {
        let (clo, chi) = split_even(cb, n, v);
        let (slo, shi) = split_even(chi - clo, ppn, l);
        (clo + slo, shi - slo)
    };
    let copy_chunk = |c: &mut C, v: usize| {
        let (clo, chi) = split_even(cb, n, v);
        if l != 0 && chi > clo {
            c.copy_in(
                RemoteRegion::new(local_root, slots::WORK, clo, chi - clo),
                Region::new(BufId::Recv, clo, chi - clo),
            );
        }
    };
    let mut pending = vnode;
    for t in 0..n - 1 {
        let sblk = (vnode + n - t) % n;
        let rblk = (vnode + n - t - 1) % n;
        let tag = tags::MCOLL_SCATTER + 0xf0;
        let (soff, slen) = slice(sblk);
        let (roff, rlen) = slice(rblk);
        let sreq = c.isend_shared(
            right,
            tag,
            RemoteRegion::new(local_root, slots::WORK, soff, slen),
        );
        let rreq = c.irecv_shared(
            left,
            tag,
            RemoteRegion::new(local_root, slots::WORK, roff, rlen),
        );
        copy_chunk(c, pending);
        c.wait(sreq);
        c.wait(rreq);
        c.node_barrier();
        pending = rblk;
    }
    copy_chunk(c, pending);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::verify::{self, pattern};
    use pipmcoll_sched::{record_with_sizes, BufSizes};

    fn run(
        algo: fn(&mut pipmcoll_sched::TraceComm, usize, usize),
        nodes: usize,
        ppn: usize,
        cb: usize,
        root: usize,
    ) {
        let topo = Topology::new(nodes, ppn);
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(if r == root { cb } else { 0 }, cb),
            |c| algo(c, cb, root),
        );
        let res = verify::run(&sched, |r| {
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
    fn small_tree_shapes() {
        run(bcast_mcoll_small, 1, 3, 16, 0);
        run(bcast_mcoll_small, 2, 2, 16, 0);
        run(bcast_mcoll_small, 5, 2, 33, 0);
        run(bcast_mcoll_small, 9, 2, 8, 0);
        run(bcast_mcoll_small, 7, 3, 10, 0);
    }

    #[test]
    fn small_nonzero_root_node() {
        run(bcast_mcoll_small, 4, 2, 16, 4);
        run(bcast_mcoll_small, 5, 3, 9, 12);
    }

    #[test]
    fn large_scatter_allgather_shapes() {
        run(bcast_mcoll_large, 2, 2, 64, 0);
        run(bcast_mcoll_large, 3, 2, 100, 0);
        run(bcast_mcoll_large, 5, 3, 260, 0);
        run(bcast_mcoll_large, 8, 2, 1024, 0);
        run(bcast_mcoll_large, 1, 4, 64, 0);
    }

    #[test]
    fn large_nonzero_root_node() {
        run(bcast_mcoll_large, 4, 2, 128, 2);
        run(bcast_mcoll_large, 6, 2, 97, 10);
    }

    #[test]
    fn large_tiny_payload_empty_chunks() {
        run(bcast_mcoll_large, 6, 2, 3, 0); // cb < N: some chunks empty
    }

    #[test]
    fn dispatch_switches() {
        run(bcast_mcoll, 3, 2, 512, 0); // tree
        run(bcast_mcoll, 3, 2, 96 * 1024, 0); // scatter+allgather
    }
}
