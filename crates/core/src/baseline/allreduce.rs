//! Baseline allreduce algorithms: recursive doubling \[23\] (small messages)
//! and Rabenseifner's reduce-scatter + allgather \[24\] (large messages) —
//! the conventional single-object designs every compared library ships.

use pipmcoll_sched::{BufId, Comm, Region};

use crate::baseline::bcast::bcast_tree;
use crate::baseline::reduce_binomial;
use crate::params::tags;
use crate::util::pof2_floor;
use crate::AllreduceParams;

/// Fold the `rem = size - pof2` extra ranks into the power-of-two core
/// (MPICH's standard pre-phase). Returns `Some(newrank)` for ranks that
/// participate in the core, `None` for ranks that idle until the unfold.
fn fold_to_pof2<C: Comm>(c: &mut C, p: &AllreduceParams, tmp: BufId) -> Option<usize> {
    let size = c.topo().world_size();
    let rank = c.rank();
    let cb = p.cb();
    let pof2 = pof2_floor(size);
    let rem = size - pof2;
    if rank < 2 * rem {
        if rank.is_multiple_of(2) {
            c.send(rank + 1, tags::ALLREDUCE, Region::new(BufId::Recv, 0, cb));
            None
        } else {
            c.recv(rank - 1, tags::ALLREDUCE, Region::new(tmp, 0, cb));
            c.local_reduce(
                Region::new(tmp, 0, cb),
                Region::new(BufId::Recv, 0, cb),
                p.op,
                p.dt,
            );
            Some(rank / 2)
        }
    } else {
        Some(rank - rem)
    }
}

/// Deliver the final result back to the ranks folded away in the pre-phase.
fn unfold_from_pof2<C: Comm>(c: &mut C, p: &AllreduceParams) {
    let size = c.topo().world_size();
    let rank = c.rank();
    let cb = p.cb();
    let rem = size - pof2_floor(size);
    if rank < 2 * rem {
        if !rank.is_multiple_of(2) {
            c.send(
                rank - 1,
                tags::ALLREDUCE + 96,
                Region::new(BufId::Recv, 0, cb),
            );
        } else {
            c.recv(
                rank + 1,
                tags::ALLREDUCE + 96,
                Region::new(BufId::Recv, 0, cb),
            );
        }
    }
}

/// The real rank of core participant `newrank`.
fn real_of_new(newrank: usize, rem: usize) -> usize {
    if newrank < rem {
        newrank * 2 + 1
    } else {
        newrank + rem
    }
}

/// Binomial reduce to rank 0, then binomial broadcast of the result
/// from rank 0's `Recv`: `2·⌈log₂ size⌉` rounds of whole-vector
/// messages, `2·(size−1)` messages in all — fewer than recursive
/// doubling's `size·log₂ size`, at twice its depth. The latency choice
/// for small vectors when messages, not rounds, are the scarce
/// resource.
pub fn allreduce_reduce_bcast<C: Comm>(c: &mut C, p: &AllreduceParams) {
    reduce_binomial(c, p, 0);
    bcast_tree(c, p.cb(), 0);
}

/// Recursive-doubling allreduce: `⌈log₂ size⌉` exchanges of the full
/// vector. Latency-optimal, but moves `cb·log₂ size` bytes per rank.
pub fn allreduce_recursive_doubling<C: Comm>(c: &mut C, p: &AllreduceParams) {
    let size = c.topo().world_size();
    let cb = p.cb();
    c.local_copy(
        Region::new(BufId::Send, 0, cb),
        Region::new(BufId::Recv, 0, cb),
    );
    if size == 1 {
        return;
    }
    let tmp = c.alloc_temp(cb);
    let pof2 = pof2_floor(size);
    let rem = size - pof2;
    if let Some(newrank) = fold_to_pof2(c, p, tmp) {
        let mut mask = 1usize;
        let mut step = 1u32;
        while mask < pof2 {
            let partner = real_of_new(newrank ^ mask, rem);
            let sreq = c.isend(
                partner,
                tags::ALLREDUCE + step,
                Region::new(BufId::Recv, 0, cb),
            );
            let rreq = c.irecv(partner, tags::ALLREDUCE + step, Region::new(tmp, 0, cb));
            c.wait(sreq);
            c.wait(rreq);
            c.local_reduce(
                Region::new(tmp, 0, cb),
                Region::new(BufId::Recv, 0, cb),
                p.op,
                p.dt,
            );
            mask <<= 1;
            step += 1;
        }
    }
    unfold_from_pof2(c, p);
}

/// Rabenseifner's allreduce: reduce-scatter by recursive halving, then
/// allgather by recursive doubling. Moves only `2·cb·(pof2-1)/pof2` bytes
/// per rank — the bandwidth-optimal baseline for large messages.
pub fn allreduce_rabenseifner<C: Comm>(c: &mut C, p: &AllreduceParams) {
    let size = c.topo().world_size();
    let count = p.count;
    let esz = p.dt.size();
    let cb = p.cb();
    c.local_copy(
        Region::new(BufId::Send, 0, cb),
        Region::new(BufId::Recv, 0, cb),
    );
    if size == 1 {
        return;
    }
    let tmp = c.alloc_temp(cb);
    let pof2 = pof2_floor(size);
    let rem = size - pof2;
    // Byte offset of chunk boundary i (element-aligned balanced split).
    let boff = |i: usize| i * count / pof2 * esz;

    if let Some(newrank) = fold_to_pof2(c, p, tmp) {
        // Phase 1: reduce-scatter by recursive halving. My interval of
        // chunk indices narrows from [0, pof2) to [newrank, newrank+1).
        let (mut lo, mut hi) = (0usize, pof2);
        let mut mask = pof2 >> 1;
        let mut step = 1u32;
        while mask > 0 {
            let partner = real_of_new(newrank ^ mask, rem);
            let mid = (lo + hi) / 2;
            let (keep_lo, keep_hi, send_lo, send_hi) = if newrank & mask == 0 {
                (lo, mid, mid, hi)
            } else {
                (mid, hi, lo, mid)
            };
            let send_bytes = boff(send_hi) - boff(send_lo);
            let keep_bytes = boff(keep_hi) - boff(keep_lo);
            let sreq = c.isend(
                partner,
                tags::ALLREDUCE + step,
                Region::new(BufId::Recv, boff(send_lo), send_bytes),
            );
            let rreq = c.irecv(
                partner,
                tags::ALLREDUCE + step,
                Region::new(tmp, 0, keep_bytes),
            );
            c.wait(sreq);
            c.wait(rreq);
            c.local_reduce(
                Region::new(tmp, 0, keep_bytes),
                Region::new(BufId::Recv, boff(keep_lo), keep_bytes),
                p.op,
                p.dt,
            );
            lo = keep_lo;
            hi = keep_hi;
            mask >>= 1;
            step += 1;
        }
        debug_assert_eq!((lo, hi), (newrank, newrank + 1));

        // Phase 2: allgather by recursive doubling over the same chunks.
        let mut mask = 1usize;
        let mut step = 33u32;
        while mask < pof2 {
            let pn = newrank ^ mask;
            let partner = real_of_new(pn, rem);
            let base = newrank & !(mask - 1);
            let pbase = pn & !(mask - 1);
            let my_lo = boff(base);
            let my_len = boff(base + mask) - my_lo;
            let p_lo = boff(pbase);
            let p_len = boff(pbase + mask) - p_lo;
            let sreq = c.isend(
                partner,
                tags::ALLREDUCE + step,
                Region::new(BufId::Recv, my_lo, my_len),
            );
            let rreq = c.irecv(
                partner,
                tags::ALLREDUCE + step,
                Region::new(BufId::Recv, p_lo, p_len),
            );
            c.wait(sreq);
            c.wait(rreq);
            mask <<= 1;
            step += 1;
        }
    }
    unfold_from_pof2(c, p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::Topology;
    use pipmcoll_sched::record_with_sizes;
    use pipmcoll_sched::verify::check_allreduce_sum;

    fn run(
        algo: fn(&mut pipmcoll_sched::TraceComm, &AllreduceParams),
        nodes: usize,
        ppn: usize,
        count: usize,
    ) {
        let topo = Topology::new(nodes, ppn);
        let p = AllreduceParams::sum_doubles(count);
        let sched = record_with_sizes(topo, p.buf_sizes(), |c| algo(c, &p));
        check_allreduce_sum(&sched, count).unwrap();
    }

    #[test]
    fn reduce_bcast_shapes() {
        run(allreduce_reduce_bcast, 1, 1, 5);
        run(allreduce_reduce_bcast, 4, 1, 16);
        run(allreduce_reduce_bcast, 3, 2, 7);
        run(allreduce_reduce_bcast, 7, 1, 3);
    }

    #[test]
    fn recursive_doubling_pof2() {
        run(allreduce_recursive_doubling, 2, 2, 16);
        run(allreduce_recursive_doubling, 4, 4, 3);
        run(allreduce_recursive_doubling, 1, 1, 5);
    }

    #[test]
    fn recursive_doubling_non_pof2() {
        run(allreduce_recursive_doubling, 3, 2, 16);
        run(allreduce_recursive_doubling, 5, 1, 7);
        run(allreduce_recursive_doubling, 3, 3, 2);
    }

    #[test]
    fn rabenseifner_pof2() {
        run(allreduce_rabenseifner, 2, 2, 64);
        run(allreduce_rabenseifner, 4, 2, 32);
        run(allreduce_rabenseifner, 8, 2, 128);
    }

    #[test]
    fn rabenseifner_non_pof2() {
        run(allreduce_rabenseifner, 3, 2, 64);
        run(allreduce_rabenseifner, 5, 1, 33);
        run(allreduce_rabenseifner, 7, 1, 100);
    }

    #[test]
    fn rabenseifner_tiny_count_zero_chunks() {
        // count < pof2: some chunks are empty; zero-length messages must
        // still match and the result must be correct.
        run(allreduce_rabenseifner, 4, 2, 3);
        run(allreduce_rabenseifner, 8, 2, 5);
    }

    #[test]
    fn non_sum_ops() {
        use pipmcoll_model::{Datatype, ReduceOp};
        use pipmcoll_sched::verify::{self, double_pattern, reference_reduce};
        for op in [ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            let topo = Topology::new(3, 2);
            let p = AllreduceParams {
                count: 9,
                dt: Datatype::Double,
                op,
            };
            let sched =
                record_with_sizes(topo, p.buf_sizes(), |c| allreduce_recursive_doubling(c, &p));
            let res = verify::run(&sched, |r| {
                pipmcoll_model::dtype::doubles_to_bytes(&double_pattern(r, 9))
            })
            .unwrap();
            let expect = reference_reduce(op, 6, 9);
            for rank in 0..6 {
                assert_eq!(
                    pipmcoll_model::dtype::bytes_to_doubles(&res.recv[rank]),
                    expect,
                    "op {op:?} rank {rank}"
                );
            }
        }
    }
}
