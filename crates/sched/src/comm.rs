//! The `Comm` trait: the single interface every collective algorithm is
//! written against.
//!
//! Implementations:
//! * [`crate::trace::TraceComm`] — records ops into a schedule (simulator
//!   path);
//! * `pipmcoll_rt::RtComm` — executes ops directly on threads sharing an
//!   address space (the PiP substitution, real data movement); its
//!   internode sends/recvs travel over a pluggable `pipmcoll_fabric`
//!   transport (in-process channels or real multi-lane TCP sockets).
//!
//! An algorithm is a plain function `fn algo<C: Comm>(c: &mut C, ...)`
//! invoked once per rank; `c.rank()` tells it who it is. Control flow may
//! depend only on `(topo, rank, sizes)` — never on transferred data — which
//! is what makes trace recording exact.

use pipmcoll_model::{Datatype, ReduceOp, Topology};

use crate::ids::{BufId, FlagId, Region, RemoteRegion, Req, Slot, Tag};

/// Sizes of the user-visible buffers a rank brings to a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BufSizes {
    /// Bytes in the user send buffer.
    pub send: usize,
    /// Bytes in the user receive/destination buffer.
    pub recv: usize,
}

impl BufSizes {
    /// Convenience constructor.
    pub fn new(send: usize, recv: usize) -> Self {
        BufSizes { send, recv }
    }
}

/// The per-rank communication interface (see module docs).
pub trait Comm {
    /// The cluster topology.
    fn topo(&self) -> Topology;

    /// This rank's global rank.
    fn rank(&self) -> usize;

    /// Sizes of this rank's user buffers.
    fn buf_sizes(&self) -> BufSizes;

    /// Allocate (or retrieve, if called with the same index ordering) a
    /// scratch buffer of at least `bytes` bytes; returns its id.
    fn alloc_temp(&mut self, bytes: usize) -> BufId;

    /// Nonblocking network send.
    fn isend(&mut self, dst: usize, tag: Tag, src: Region) -> Req;

    /// Nonblocking network receive.
    fn irecv(&mut self, src: usize, tag: Tag, dst: Region) -> Req;

    /// Multi-object nonblocking send *from a node-local peer's posted
    /// buffer* — no staging copy (PiP shared address space). Blocks (at
    /// execution time) until the peer posts the slot.
    fn isend_shared(&mut self, dst: usize, tag: Tag, src: RemoteRegion) -> Req;

    /// Multi-object nonblocking receive *into a node-local peer's posted
    /// buffer*. Blocks (at execution time) until the peer posts the slot.
    fn irecv_shared(&mut self, src: usize, tag: Tag, dst: RemoteRegion) -> Req;

    /// Block until `req` completes.
    fn wait(&mut self, req: Req);

    /// Publish a buffer's address under `slot` for node-local peers.
    fn post_addr(&mut self, slot: Slot, region: Region);

    /// Pull from a node-local peer's posted buffer (blocks until posted).
    fn copy_in(&mut self, from: RemoteRegion, to: Region);

    /// Push into a node-local peer's posted buffer (blocks until posted).
    fn copy_out(&mut self, from: Region, to: RemoteRegion);

    /// Pull from a peer's posted buffer, reducing into `to`.
    fn reduce_in(&mut self, from: RemoteRegion, to: Region, op: ReduceOp, dt: Datatype);

    /// Copy between this rank's own buffers.
    fn local_copy(&mut self, from: Region, to: Region);

    /// Reduce between this rank's own buffers: `to = op(to, from)`.
    fn local_reduce(&mut self, from: Region, to: Region, op: ReduceOp, dt: Datatype);

    /// Increment `flag` on node-local peer `rank`.
    fn signal(&mut self, rank: usize, flag: FlagId);

    /// Block until this rank's `flag` has been signalled `count` times in
    /// total since the start of the program.
    fn wait_flag(&mut self, flag: FlagId, count: u32);

    /// Barrier among the ranks of this node.
    fn node_barrier(&mut self);

    /// Account local CPU work proportional to `bytes`.
    fn compute(&mut self, bytes: u64);

    // ---- conveniences with default implementations ----

    /// Blocking send (isend + wait).
    fn send(&mut self, dst: usize, tag: Tag, src: Region) {
        let r = self.isend(dst, tag, src);
        self.wait(r);
    }

    /// Blocking receive (irecv + wait).
    fn recv(&mut self, src: usize, tag: Tag, dst: Region) {
        let r = self.irecv(src, tag, dst);
        self.wait(r);
    }

    /// Wait for every request in `reqs`.
    fn wait_all(&mut self, reqs: &[Req]) {
        for &r in reqs {
            self.wait(r);
        }
    }

    /// This rank's node id.
    fn node(&self) -> usize {
        self.topo().node_of(self.rank())
    }

    /// This rank's local rank on its node (`R_l`).
    fn local(&self) -> usize {
        self.topo().local_of(self.rank())
    }

    /// Whether this rank is its node's local root.
    fn is_local_root(&self) -> bool {
        self.local() == 0
    }

    /// The global rank of this node's local root.
    fn local_root(&self) -> usize {
        self.topo().local_root(self.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceComm;
    use pipmcoll_model::Topology;

    #[test]
    fn default_helpers_derive_from_topology() {
        let topo = Topology::new(3, 4);
        let c = TraceComm::new(topo, 7, BufSizes::new(16, 16));
        assert_eq!(c.node(), 1);
        assert_eq!(c.local(), 3);
        assert!(!c.is_local_root());
        assert_eq!(c.local_root(), 4);
    }
}
