//! Auxiliary intranode collectives (§III-C): PiP-based broadcast, gather
//! and reduce. These are both standalone collectives (benchmarked against
//! binomial baselines) and the building blocks of the primary MColl
//! algorithms.
//!
//! All of them follow the paper's pattern: one rank posts a buffer address,
//! the others access it directly in userspace, and completion is signalled
//! with flags — no system calls, no double copies.

use pipmcoll_model::{Datatype, ReduceOp};
use pipmcoll_sched::{BufId, Comm, Region, RemoteRegion};

use crate::params::{copy, flags, slots};
use crate::util::split_even;

/// Emit a pull of `len` bytes from `peer`'s posted `slot` (starting at
/// `src_off` within the posted region) into this rank's `Recv` at
/// `dst_off`, split into cache-friendly sub-copies of at most
/// [`copy::CHUNK_BYTES`] each.
fn copy_in_chunked<C: Comm>(
    c: &mut C,
    peer: usize,
    slot: u16,
    src_off: usize,
    dst_off: usize,
    len: usize,
) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(copy::CHUNK_BYTES);
        c.copy_in(
            RemoteRegion::new(peer, slot, src_off + done, n),
            Region::new(BufId::Recv, dst_off + done, n),
        );
        done += n;
    }
}

/// Intranode broadcast, small-message variant: the root copies its payload
/// into a scratch buffer, posts the scratch address, and every peer copies
/// out (so the root's user buffer is immediately reusable). The root waits
/// for all peers' DONE signals.
///
/// Buffers: root's payload in `Send`; everyone (root included) ends with it
/// in `Recv`.
pub fn intra_bcast_small<C: Comm>(c: &mut C, cb: usize) {
    let p = c.topo().ppn();
    let root = c.local_root();
    if c.is_local_root() {
        let staging = c.alloc_temp(cb);
        c.local_copy(Region::new(BufId::Send, 0, cb), Region::new(staging, 0, cb));
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        c.post_addr(slots::WORK, Region::new(staging, 0, cb));
        if p > 1 {
            c.wait_flag(flags::DONE, (p - 1) as u32);
        }
    } else {
        c.copy_in(
            RemoteRegion::new(root, slots::WORK, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        c.signal(root, flags::DONE);
    }
}

/// Intranode broadcast, large-message variant: the root posts its source
/// buffer directly (no staging copy — the double copy is exactly what PiP
/// eliminates) and waits until every peer has copied out.
pub fn intra_bcast_large<C: Comm>(c: &mut C, cb: usize) {
    let p = c.topo().ppn();
    let root = c.local_root();
    if c.is_local_root() {
        c.post_addr(slots::WORK, Region::new(BufId::Send, 0, cb));
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        if p > 1 {
            c.wait_flag(flags::DONE, (p - 1) as u32);
        }
    } else {
        copy_in_chunked(c, root, slots::WORK, 0, 0, cb);
        c.signal(root, flags::DONE);
    }
}

/// Intranode broadcast, chunked fanned variant: instead of every peer
/// reading the full payload out of the root's buffer (making the root's
/// pages the single hot source for `P - 1` concurrent readers), the
/// payload is split into `P` even chunks and broadcast scatter+allgather
/// style entirely in shared memory:
///
/// 1. **scatter** — local rank `i` copies chunk `i` from the root's posted
///    send buffer into its own `Recv`, then posts that chunk and raises a
///    per-owner `CHUNK` flag at every peer;
/// 2. **allgather** — each rank pulls the other `P - 1` chunks from their
///    owners' buffers (start offset staggered by rank so no owner is hit
///    by all readers at once).
///
/// Each bulk copy is further capped at [`copy::CHUNK_BYTES`] per
/// operation. The root's send buffer is read exactly once per chunk, and
/// the allgather reads fan across `P` distinct source buffers.
pub fn intra_bcast_chunked<C: Comm>(c: &mut C, cb: usize) {
    let topo = c.topo();
    let p = topo.ppn();
    let node = c.node();
    let root = c.local_root();
    let l = c.local();
    if p == 1 {
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        return;
    }
    if c.is_local_root() {
        c.post_addr(slots::WORK, Region::new(BufId::Send, 0, cb));
    }
    // Scatter: my chunk, root's Send -> my Recv (root copies locally).
    let (lo, hi) = split_even(cb, p, l);
    if hi > lo {
        if c.is_local_root() {
            c.local_copy(
                Region::new(BufId::Send, lo, hi - lo),
                Region::new(BufId::Recv, lo, hi - lo),
            );
        } else {
            copy_in_chunked(c, root, slots::WORK, lo, lo, hi - lo);
        }
        // My chunk is in place: expose it (peers with an empty chunk of
        // their own still pull mine, so everyone posts a non-empty chunk).
        c.post_addr(slots::RECV, Region::new(BufId::Recv, lo, hi - lo));
    }
    // Tell every peer my chunk is readable; non-roots are also done
    // reading the root's Send — release it.
    for peer_l in 0..p {
        if peer_l != l {
            c.signal(topo.rank_of(node, peer_l), flags::CHUNK + l as u16);
        }
    }
    if !c.is_local_root() {
        c.signal(root, flags::DONE);
    }
    // Allgather: pull the other chunks from their owners, staggered.
    for i in 1..p {
        let owner_l = (l + i) % p;
        let (olo, ohi) = split_even(cb, p, owner_l);
        if ohi > olo {
            c.wait_flag(flags::CHUNK + owner_l as u16, 1);
            copy_in_chunked(
                c,
                topo.rank_of(node, owner_l),
                slots::RECV,
                0,
                olo,
                ohi - olo,
            );
        }
    }
    // The root returns only once every peer has retired its read of Send.
    if c.is_local_root() {
        c.wait_flag(flags::DONE, (p - 1) as u32);
    }
}

/// Dispatching intranode broadcast: staged below
/// [`copy::STAGING_MAX_BYTES`] (root buffer immediately reusable), fanned
/// chunked at and above [`copy::FAN_MIN_BYTES`] when there are enough
/// ranks to fan across, direct zero-copy in between.
pub fn intra_bcast<C: Comm>(c: &mut C, cb: usize) {
    let p = c.topo().ppn();
    if cb >= copy::FAN_MIN_BYTES && p > 2 {
        intra_bcast_chunked(c, cb)
    } else if cb <= copy::STAGING_MAX_BYTES {
        intra_bcast_small(c, cb)
    } else {
        intra_bcast_large(c, cb)
    }
}

/// Intranode gather (§III-C): the root posts its destination buffer; every
/// peer copies its `cb` bytes into position `local·cb` concurrently; the
/// root waits for all DONE signals. One copy per contributor, all in
/// parallel — the multi-object intranode pattern.
pub fn intra_gather<C: Comm>(c: &mut C, cb: usize) {
    let p = c.topo().ppn();
    let root = c.local_root();
    let l = c.local();
    if c.is_local_root() {
        c.post_addr(slots::RECV, Region::new(BufId::Recv, 0, p * cb));
        c.local_copy(
            Region::new(BufId::Send, 0, cb),
            Region::new(BufId::Recv, 0, cb),
        );
        if p > 1 {
            c.wait_flag(flags::DONE, (p - 1) as u32);
        }
    } else {
        c.copy_out(
            Region::new(BufId::Send, 0, cb),
            RemoteRegion::new(root, slots::RECV, l * cb, cb),
        );
        c.signal(root, flags::DONE);
    }
}

/// Intranode reduce, small-message variant: binomial tree over local
/// ranks. Each sender posts its accumulator and signals; the receiver
/// pulls it with a single `reduce_in`. `⌈log₂P⌉` levels — the paper's
/// `T_intra-reduces` term.
///
/// Buffers: everyone contributes `Send`; the root's result lands in `Recv`.
pub fn intra_reduce_binomial<C: Comm>(c: &mut C, cb: usize, op: ReduceOp, dt: Datatype) {
    intra_reduce_binomial_at(c, cb, op, dt, slots::AUX, flags::LEVEL)
}

/// [`intra_reduce_binomial`] with explicit slot and flag bases, for use
/// inside composed algorithms whose other phases also post addresses —
/// address-board slots must never be reused across phases (a reposted slot
/// could be resolved by a straggling peer access from the earlier phase).
pub fn intra_reduce_binomial_at<C: Comm>(
    c: &mut C,
    cb: usize,
    op: ReduceOp,
    dt: Datatype,
    slot: u16,
    flag_base: u16,
) {
    let topo = c.topo();
    let p = topo.ppn();
    let l = c.local();
    let node = c.node();
    // Accumulator: the root reduces in place in Recv; others use scratch.
    let acc = if l == 0 {
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
    let mut mask = 1usize;
    let mut level: u16 = 0;
    while mask < p {
        if l & mask != 0 {
            // Expose my accumulator to my parent and retire.
            let parent = topo.rank_of(node, l - mask);
            c.post_addr(slot, acc);
            c.signal(parent, flag_base + level);
            break;
        }
        if l + mask < p {
            let child = topo.rank_of(node, l + mask);
            c.wait_flag(flag_base + level, 1);
            c.reduce_in(RemoteRegion::new(child, slot, 0, cb), acc, op, dt);
        }
        mask <<= 1;
        level += 1;
    }
}

/// Intranode reduce, large-message variant (§III-C, Fig. 5): every rank
/// posts its source buffer and the root posts its destination; the buffer
/// is split into `P` chunks and local rank `i` reduces chunk `i` of *all*
/// source buffers into chunk `i` of the root's destination — `P`-way
/// parallel reduction bandwidth.
///
/// `count`/`dt` give the element geometry (chunks are element-aligned).
pub fn intra_reduce_chunked<C: Comm>(c: &mut C, count: usize, op: ReduceOp, dt: Datatype) {
    let topo = c.topo();
    let p = topo.ppn();
    let l = c.local();
    let node = c.node();
    let root = c.local_root();
    let esz = dt.size();
    let cb = count * esz;
    // Everyone exposes its contribution; the root exposes the destination.
    c.post_addr(slots::SEND, Region::new(BufId::Send, 0, cb));
    if l == 0 {
        c.post_addr(slots::RECV, Region::new(BufId::Recv, 0, cb));
    }
    c.node_barrier();
    // My chunk, element-aligned.
    let (elo, ehi) = split_even(count, p, l);
    let (off, len) = (elo * esz, (ehi - elo) * esz);
    if len > 0 {
        let stage = c.alloc_temp(len);
        c.local_copy(
            Region::new(BufId::Send, off, len),
            Region::new(stage, 0, len),
        );
        for peer_l in 0..p {
            if peer_l == l {
                continue;
            }
            let peer = topo.rank_of(node, peer_l);
            c.reduce_in(
                RemoteRegion::new(peer, slots::SEND, off, len),
                Region::new(stage, 0, len),
                op,
                dt,
            );
        }
        if l == 0 {
            c.local_copy(
                Region::new(stage, 0, len),
                Region::new(BufId::Recv, off, len),
            );
        } else {
            c.copy_out(
                Region::new(stage, 0, len),
                RemoteRegion::new(root, slots::RECV, off, len),
            );
        }
    }
    c.node_barrier();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_model::dtype::{bytes_to_doubles, doubles_to_bytes};
    use pipmcoll_model::Topology;
    use pipmcoll_sched::verify::{self, double_pattern, pattern, reference_reduce};
    use pipmcoll_sched::{record, record_with_sizes, BufSizes};

    #[test]
    fn bcast_small_delivers() {
        let topo = Topology::new(1, 6);
        let cb = 48;
        let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast_small(c, cb));
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        for rank in 0..6 {
            assert_eq!(res.recv[rank], pattern(0, cb), "rank {rank}");
        }
    }

    #[test]
    fn bcast_large_delivers() {
        let topo = Topology::new(1, 4);
        let cb = 4096;
        let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast_large(c, cb));
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        for rank in 0..4 {
            assert_eq!(res.recv[rank], pattern(0, cb));
        }
    }

    #[test]
    fn bcast_single_process_node() {
        let topo = Topology::new(1, 1);
        let sched = record(topo, BufSizes::new(8, 8), |c| intra_bcast_small(c, 8));
        let res = verify::run(&sched, |r| pattern(r, 8)).unwrap();
        assert_eq!(res.recv[0], pattern(0, 8));
    }

    #[test]
    fn bcast_chunked_delivers() {
        for (p, cb) in [(4usize, 4096usize), (6, 513), (3, 96 * 1024), (8, 1 << 20)] {
            let topo = Topology::new(1, p);
            let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast_chunked(c, cb));
            let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
            for rank in 0..p {
                assert_eq!(
                    res.recv[rank],
                    pattern(0, cb),
                    "P = {p}, cb = {cb}, rank {rank}"
                );
            }
        }
    }

    #[test]
    fn bcast_chunked_tiny_payload_empty_chunks() {
        // cb < P: some ranks own zero bytes and must neither post nor be
        // waited on, yet everyone still ends with the payload.
        let topo = Topology::new(1, 6);
        let cb = 3;
        let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast_chunked(c, cb));
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        for rank in 0..6 {
            assert_eq!(res.recv[rank], pattern(0, cb), "rank {rank}");
        }
    }

    #[test]
    fn bcast_chunked_single_process_node() {
        let topo = Topology::new(1, 1);
        let sched = record(topo, BufSizes::new(8, 8), |c| intra_bcast_chunked(c, 8));
        let res = verify::run(&sched, |r| pattern(r, 8)).unwrap();
        assert_eq!(res.recv[0], pattern(0, 8));
    }

    #[test]
    fn bcast_large_splits_into_capped_subcopies() {
        // A payload over the chunk cap must appear in the schedule as
        // multiple bounded copies, not one giant memcpy per peer.
        use crate::params::copy;
        let topo = Topology::new(1, 2);
        let cb = copy::CHUNK_BYTES * 2 + 17;
        let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast_large(c, cb));
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        assert_eq!(res.recv[1], pattern(0, cb));
    }

    #[test]
    fn bcast_dispatch_picks_by_size_and_width() {
        for (p, cb) in [
            (4usize, 1024usize),
            (4, 32 * 1024),
            (4, 128 * 1024),
            (2, 128 * 1024),
        ] {
            let topo = Topology::new(1, p);
            let sched = record(topo, BufSizes::new(cb, cb), |c| intra_bcast(c, cb));
            let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
            for rank in 0..p {
                assert_eq!(
                    res.recv[rank],
                    pattern(0, cb),
                    "P = {p}, cb = {cb}, rank {rank}"
                );
            }
        }
    }

    #[test]
    fn gather_collects_in_local_rank_order() {
        let topo = Topology::new(1, 5);
        let cb = 16;
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == 0 { 5 * cb } else { 0 }),
            |c| intra_gather(c, cb),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        let mut expect = Vec::new();
        for r in 0..5 {
            expect.extend_from_slice(&pattern(r, cb));
        }
        assert_eq!(res.recv[0], expect);
    }

    #[test]
    fn reduce_binomial_sums() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let topo = Topology::new(1, p);
            let count = 10;
            let cb = count * 8;
            let sched = record(topo, BufSizes::new(cb, cb), |c| {
                intra_reduce_binomial(c, cb, ReduceOp::Sum, Datatype::Double)
            });
            let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
            assert_eq!(
                bytes_to_doubles(&res.recv[0]),
                reference_reduce(ReduceOp::Sum, p, count),
                "P = {p}"
            );
        }
    }

    #[test]
    fn reduce_chunked_sums() {
        for (p, count) in [(4usize, 16usize), (3, 10), (5, 3), (1, 8), (6, 100)] {
            let topo = Topology::new(1, p);
            let cb = count * 8;
            let sched = record(topo, BufSizes::new(cb, cb), |c| {
                intra_reduce_chunked(c, count, ReduceOp::Sum, Datatype::Double)
            });
            let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
            assert_eq!(
                bytes_to_doubles(&res.recv[0]),
                reference_reduce(ReduceOp::Sum, p, count),
                "P = {p}, count = {count}"
            );
        }
    }

    #[test]
    fn reduce_chunked_max() {
        let topo = Topology::new(1, 4);
        let count = 12;
        let cb = count * 8;
        let sched = record(topo, BufSizes::new(cb, cb), |c| {
            intra_reduce_chunked(c, count, ReduceOp::Max, Datatype::Double)
        });
        let res = verify::run(&sched, |r| doubles_to_bytes(&double_pattern(r, count))).unwrap();
        assert_eq!(
            bytes_to_doubles(&res.recv[0]),
            reference_reduce(ReduceOp::Max, 4, count)
        );
    }

    #[test]
    fn multi_node_intranode_collectives_are_independent() {
        // Two nodes run independent intranode gathers.
        let topo = Topology::new(2, 3);
        let cb = 8;
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r % 3 == 0 { 3 * cb } else { 0 }),
            |c| intra_gather(c, cb),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap();
        for node in 0..2 {
            let root = node * 3;
            let mut expect = Vec::new();
            for l in 0..3 {
                expect.extend_from_slice(&pattern(node * 3 + l, cb));
            }
            assert_eq!(res.recv[root], expect, "node {node}");
        }
    }
}
