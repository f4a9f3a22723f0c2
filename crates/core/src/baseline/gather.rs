//! Binomial-tree gather — the inverse of the binomial scatter; used as the
//! conventional single-object comparison for the paper's intranode
//! multi-object gather (§III-C).

use pipmcoll_sched::{BufId, Comm, Region};

use crate::baseline::{real_of, real_segments, vrank};
use crate::params::tags;

/// Binomial gather of `cb` bytes per rank to `root`: afterwards the root's
/// `Recv` buffer holds rank `i`'s contribution at offset `i*cb`.
pub fn gather_binomial<C: Comm>(c: &mut C, cb: usize, root: usize) {
    let size = c.topo().world_size();
    let rank = c.rank();
    if size == 1 {
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        return;
    }
    let vr = vrank(c, root);

    if vr == 0 {
        // Root: place own chunk, then receive each child subtree directly
        // into the user buffer (≤2 real-layout segments per subtree).
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, rank * cb, cb),
        );
        let mut mask = 1usize;
        while mask < size {
            let child_vr = mask;
            if child_vr < size {
                let cspan = mask.min(size - child_vr);
                let child = real_of(child_vr, root, size);
                let (segs, n) = real_segments(child_vr, cspan, root, size);
                for (j, (real_lo, len)) in segs[..n].iter().enumerate() {
                    c.recv(
                        child,
                        tags::BINOMIAL + j as u32,
                        Region::new(BufId::Recv, real_lo * cb, len * cb),
                    );
                }
            }
            mask <<= 1;
        }
        return;
    }

    // Non-root: my subtree spans virtual [vr, vr + span) where span is
    // bounded by my lowest set bit (children occupy the bits below it).
    let lsb = vr & vr.wrapping_neg();
    let span = lsb.min(size - vr);
    let t = c.alloc_temp(span * cb);
    c.local_copy(Region::new(BufId::Send, 0, cb), Region::new(t, 0, cb));
    let mut mask = 1usize;
    while mask < lsb {
        let child_vr = vr + mask;
        if child_vr < size {
            let cspan = mask.min(size - child_vr);
            let child = real_of(child_vr, root, size);
            c.recv(child, tags::BINOMIAL, Region::new(t, mask * cb, cspan * cb));
        }
        mask <<= 1;
    }
    // Send the assembled subtree to my parent.
    let parent_vr = vr - lsb;
    let parent = real_of(parent_vr, root, size);
    if parent_vr == 0 {
        let (segs, n) = real_segments(vr, span, root, size);
        let mut off = 0usize;
        for (j, (_, len)) in segs[..n].iter().enumerate() {
            c.send(
                parent,
                tags::BINOMIAL + j as u32,
                Region::new(t, off, len * cb),
            );
            off += len * cb;
        }
    } else {
        c.send(parent, tags::BINOMIAL, Region::whole(t, span * cb));
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
            |c| gather_binomial(c, cb, root),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        let mut expect = Vec::new();
        for r in 0..world {
            expect.extend_from_slice(&pattern(r, cb));
        }
        assert_eq!(res.recv[root], expect);
    }

    #[test]
    fn gather_power_of_two() {
        run(4, 2, 16, 0);
    }

    #[test]
    fn gather_odd_world() {
        run(3, 3, 8, 0);
        run(5, 1, 4, 0);
    }

    #[test]
    fn gather_nonzero_root() {
        run(4, 2, 8, 5);
        run(3, 3, 8, 7);
    }

    #[test]
    fn gather_single_rank() {
        run(1, 1, 8, 0);
    }
}
