//! Baseline collective algorithms — the classic designs shipped by MPICH,
//! Open MPI, MVAPICH2 and Intel MPI, which the paper compares against.
//!
//! All baselines are *flat*: they treat the world as `N·P` equal ranks and
//! use only point-to-point messages (the engine routes intranode traffic
//! through the configured shared-memory mechanism automatically). This is
//! the paper's "conventional MPI" model: one sender/receiver object per
//! node for internode phases of tree algorithms.

pub mod allgather;
pub mod allreduce;
pub mod barrier;
pub mod bcast;
pub mod gather;
pub mod reduce;
pub mod scatter;

pub use allgather::{allgather_bruck, allgather_recursive_doubling, allgather_ring};
pub use allreduce::{allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_reduce_bcast};
pub use barrier::barrier_dissemination;
pub use bcast::bcast_binomial;
pub use gather::gather_binomial;
pub use reduce::reduce_binomial;
pub use scatter::scatter_binomial;

use pipmcoll_sched::Comm;

/// Virtual rank relative to `root` (binomial trees are rooted at vr 0).
#[inline]
pub(crate) fn vrank<C: Comm>(c: &C, root: usize) -> usize {
    let size = c.topo().world_size();
    (c.rank() + size - root % size) % size
}

/// Map a virtual rank back to a real rank.
#[inline]
pub(crate) fn real_of(vr: usize, root: usize, size: usize) -> usize {
    (vr + root) % size
}

/// Split the virtual range `[v_lo, v_lo + span)` into its ≤2 contiguous
/// *real-rank* segments `(real_start, len)` — needed because MPI buffer
/// layout is by real rank while binomial subtrees are contiguous in
/// virtual rank. The second segment is present only when the range wraps
/// past rank `size-1`.
pub(crate) fn real_segments(
    v_lo: usize,
    span: usize,
    root: usize,
    size: usize,
) -> ([(usize, usize); 2], usize) {
    debug_assert!(span >= 1 && span <= size);
    let real_lo = (v_lo + root) % size;
    let first = span.min(size - real_lo);
    if first == span {
        ([(real_lo, span), (0, 0)], 1)
    } else {
        ([(real_lo, first), (0, span - first)], 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_no_wrap() {
        let (segs, n) = real_segments(1, 3, 0, 8);
        assert_eq!(n, 1);
        assert_eq!(segs[0], (1, 3));
    }

    #[test]
    fn segments_wrap() {
        // Virtual [2, 6) with root 5 over size 8: real 7, 0, 1, 2.
        let (segs, n) = real_segments(2, 4, 5, 8);
        assert_eq!(n, 2);
        assert_eq!(segs[0], (7, 1));
        assert_eq!(segs[1], (0, 3));
    }

    #[test]
    fn segments_cover_exactly() {
        for size in [5usize, 8, 13] {
            for root in 0..size {
                for v_lo in 0..size {
                    for span in 1..=(size - v_lo) {
                        let (segs, n) = real_segments(v_lo, span, root, size);
                        let mut covered: Vec<usize> = Vec::new();
                        for seg in &segs[..n] {
                            covered.extend(seg.0..seg.0 + seg.1);
                        }
                        let mut expect: Vec<usize> =
                            (v_lo..v_lo + span).map(|v| (v + root) % size).collect();
                        expect.sort_unstable();
                        covered.sort_unstable();
                        assert_eq!(covered, expect, "v_lo={v_lo} span={span} root={root}");
                    }
                }
            }
        }
    }
}
