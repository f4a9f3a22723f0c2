//! `RtComm`: the thread-backed implementation of the `Comm` trait.
//!
//! Fail-stop semantics: the first transport error or synchronization
//! timeout a rank observes is recorded into the cluster's failure report
//! and flips the rank into a *failed* state where every subsequent
//! communication call is a no-op. The rank then free-wheels through the
//! rest of the algorithm and rejoins the iteration framing, so one broken
//! rank degrades the run into a structured [`RankFailure`] list instead
//! of a process-wide hang or abort.
//!
//! [`RankFailure`]: crate::cluster::RankFailure

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_sched::{BufId, BufSizes, Comm, FlagId, Region, RemoteRegion, Req, Slot, Tag};

use crate::cluster::ClusterShared;
use crate::shared::{sync_timeout, BufKey, Posted, SharedBuf};

use pipmcoll_fabric::{ChanKey, FabricError};

enum ReqState {
    /// Sends complete at issue (payload snapshotted into the channel).
    SendDone,
    /// A pending receive: channel plus where the payload lands.
    RecvPending { chan: ChanKey, target: RecvTarget },
    /// Already satisfied.
    RecvDone,
}

enum RecvTarget {
    /// Into one of my own buffers.
    Own(Region),
    /// Into a peer's buffer resolved through the address board.
    Shared(Arc<SharedBuf>, usize, usize),
}

/// Per-rank communicator over the shared cluster state.
pub struct RtComm {
    shared: Arc<ClusterShared>,
    rank: usize,
    sizes: BufSizes,
    reqs: Vec<ReqState>,
    /// Issue-ordered pending receive queue per channel (MPI non-overtaking).
    chan_pending: HashMap<ChanKey, std::collections::VecDeque<usize>>,
    temp_next: usize,
    /// Fail-stop flag: set on the first failure, after which every
    /// communication call is a no-op (sticky across iterations — the
    /// run is already failed, draining it quickly is all that is left).
    failed: bool,
    /// Bound on every blocking wait this communicator performs. The
    /// default run uses the runtime-wide [`sync_timeout`]; the
    /// fault-tolerant runner shortens it so a whole
    /// detect → agree → retry cycle fits inside the acceptance budget.
    wait_timeout: Duration,
    /// Fabric ranks this communicator's own failures implicate: the
    /// senders of timed-out receives and any peers the fabric declared
    /// dead. Seed evidence for the failed-set agreement.
    suspected: Vec<usize>,
}

impl RtComm {
    pub(crate) fn new(shared: Arc<ClusterShared>, rank: usize, sizes: BufSizes) -> Self {
        RtComm {
            shared,
            rank,
            sizes,
            reqs: Vec::new(),
            chan_pending: HashMap::new(),
            temp_next: 0,
            failed: false,
            wait_timeout: sync_timeout(),
            suspected: Vec::new(),
        }
    }

    /// Override the per-wait timeout (fault-tolerant runs shorten it).
    pub(crate) fn set_wait_timeout(&mut self, t: Duration) {
        self.wait_timeout = t;
    }

    /// Fabric ranks implicated by this rank's failures so far (sorted,
    /// deduped).
    pub(crate) fn suspected(&self) -> Vec<usize> {
        let mut s = self.suspected.clone();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Note local evidence that fabric ranks `ranks` may be dead.
    fn suspect(&mut self, ranks: impl IntoIterator<Item = usize>) {
        let me = self.shared.fabric_rank(self.rank);
        for r in ranks {
            if r != me {
                self.suspected.push(r);
            }
        }
    }

    /// Pull the suspects out of a fabric error before stringifying it:
    /// a timeout names the starved channel's sender (and whatever the
    /// backend's diag already suspected); a PeerDead names its peer.
    fn suspect_from(&mut self, e: &FabricError) {
        match e {
            FabricError::Timeout(d) => {
                let mut s = d.suspected.clone();
                s.push(d.chan.0);
                self.suspect(s);
            }
            FabricError::PeerDead { peer, .. } => self.suspect([*peer]),
            FabricError::PeerHung { chan, .. } => self.suspect([chan.1]),
            _ => {}
        }
    }

    /// Reset per-iteration bookkeeping (scratch buffers are reused).
    pub(crate) fn reset_iter(&mut self) {
        self.reqs.clear();
        self.chan_pending.clear();
        self.temp_next = 0;
    }

    /// Record `detail` as this rank's failure, under its fabric rank,
    /// and enter fail-stop mode.
    pub(crate) fn mark_failed(&mut self, detail: String) {
        let me = self.shared.fabric_rank(self.rank);
        self.shared.record_failure(Some(me), detail);
        self.failed = true;
    }

    /// Whether this rank has failed and is free-wheeling to the end.
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn bump(&self) {
        self.shared.bump_progress();
    }

    /// Resolve one of my own regions to its shared buffer.
    fn own_buf(&self, buf: BufId) -> Arc<SharedBuf> {
        self.shared.buf_of(self.key_of(buf))
    }

    fn key_of(&self, buf: BufId) -> BufKey {
        match buf {
            BufId::Send => BufKey::Send(self.rank),
            BufId::Recv => BufKey::Recv(self.rank),
            BufId::Temp(i) => BufKey::Temp(self.rank, i as usize),
        }
    }

    /// Resolve a remote region through the owner's board (blocking, with
    /// the runtime-wide timeout). `Err` carries the diagnostic the
    /// caller records as this rank's failure.
    fn resolve(&self, rr: &RemoteRegion) -> Result<(Arc<SharedBuf>, usize), String> {
        let posted: Posted =
            self.shared.boards[rr.rank].try_fetch_within(rr.slot, self.wait_timeout)?;
        assert!(
            rr.offset + rr.len <= posted.len,
            "remote access [{}, {}) exceeds posted window of {}",
            rr.offset,
            rr.offset + rr.len,
            posted.len
        );
        Ok((self.shared.buf_of(posted.key), posted.offset + rr.offset))
    }

    /// Drain channel messages in issue order until request `req` is done.
    /// A transport error marks the rank failed and abandons the drain —
    /// pending receives stay unsatisfied, which is fine because every
    /// later `wait` on a failed rank is a no-op.
    fn drain_until(&mut self, req: usize) {
        let chan = match &self.reqs[req] {
            ReqState::RecvPending { chan, .. } => *chan,
            _ => return,
        };
        loop {
            if self.failed {
                return;
            }
            match &self.reqs[req] {
                ReqState::RecvDone => return,
                ReqState::RecvPending { .. } => {}
                ReqState::SendDone => return,
            }
            let next = self
                .chan_pending
                .get_mut(&chan)
                .and_then(|q| q.pop_front())
                .expect("pending receive must be queued on its channel");
            let payload = match self.shared.fabric.recv_within(chan, self.wait_timeout) {
                Ok(p) => p,
                Err(e) => {
                    self.suspect_from(&e);
                    self.mark_failed(e.to_string());
                    return;
                }
            };
            self.bump();
            let state = std::mem::replace(&mut self.reqs[next], ReqState::RecvDone);
            match state {
                ReqState::RecvPending { target, .. } => match target {
                    RecvTarget::Own(region) => {
                        assert_eq!(payload.len(), region.len, "message size mismatch");
                        self.own_buf(region.buf).write(region.offset, &payload);
                    }
                    RecvTarget::Shared(buf, off, len) => {
                        assert_eq!(payload.len(), len, "message size mismatch");
                        buf.write(off, &payload);
                    }
                },
                _ => unreachable!("queued request is pending by construction"),
            }
        }
    }
}

impl Comm for RtComm {
    fn topo(&self) -> Topology {
        self.shared.topo
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn buf_sizes(&self) -> BufSizes {
        self.sizes
    }

    fn alloc_temp(&mut self, bytes: usize) -> BufId {
        let idx = self.temp_next;
        self.temp_next += 1;
        self.shared.ensure_temp(self.rank, idx, bytes);
        BufId::Temp(idx as u16)
    }

    fn isend(&mut self, dst: usize, tag: Tag, src: Region) -> Req {
        if !self.failed {
            let payload = self.own_buf(src.buf).read_vec(src.offset, src.len);
            let chan = self.shared.chan(self.rank, dst, tag);
            match self.shared.fabric.send(chan, payload) {
                Ok(()) => self.bump(),
                Err(e) => {
                    self.suspect_from(&e);
                    self.mark_failed(e.to_string());
                }
            }
        }
        self.reqs.push(ReqState::SendDone);
        Req(self.reqs.len() - 1)
    }

    fn irecv(&mut self, src: usize, tag: Tag, dst: Region) -> Req {
        let id = self.reqs.len();
        if self.failed {
            self.reqs.push(ReqState::RecvDone);
            return Req(id);
        }
        let chan = self.shared.chan(src, self.rank, tag);
        self.reqs.push(ReqState::RecvPending {
            chan,
            target: RecvTarget::Own(dst),
        });
        self.chan_pending.entry(chan).or_default().push_back(id);
        Req(id)
    }

    fn isend_shared(&mut self, dst: usize, tag: Tag, src: RemoteRegion) -> Req {
        if !self.failed {
            match self.resolve(&src) {
                Ok((buf, off)) => {
                    let payload = buf.read_vec(off, src.len);
                    let chan = self.shared.chan(self.rank, dst, tag);
                    match self.shared.fabric.send(chan, payload) {
                        Ok(()) => self.bump(),
                        Err(e) => {
                            self.suspect_from(&e);
                            self.mark_failed(e.to_string());
                        }
                    }
                }
                Err(e) => self.mark_failed(e),
            }
        }
        self.reqs.push(ReqState::SendDone);
        Req(self.reqs.len() - 1)
    }

    fn irecv_shared(&mut self, src: usize, tag: Tag, dst: RemoteRegion) -> Req {
        let id = self.reqs.len();
        if self.failed {
            self.reqs.push(ReqState::RecvDone);
            return Req(id);
        }
        let (buf, off) = match self.resolve(&dst) {
            Ok(r) => r,
            Err(e) => {
                self.mark_failed(e);
                self.reqs.push(ReqState::RecvDone);
                return Req(id);
            }
        };
        let chan = self.shared.chan(src, self.rank, tag);
        self.reqs.push(ReqState::RecvPending {
            chan,
            target: RecvTarget::Shared(buf, off, dst.len),
        });
        self.chan_pending.entry(chan).or_default().push_back(id);
        Req(id)
    }

    fn wait(&mut self, req: Req) {
        if self.failed {
            return;
        }
        self.drain_until(req.0);
    }

    fn post_addr(&mut self, slot: Slot, region: Region) {
        if self.failed {
            return;
        }
        self.shared.boards[self.rank].post(
            slot,
            Posted {
                key: self.key_of(region.buf),
                offset: region.offset,
                len: region.len,
            },
        );
    }

    fn copy_in(&mut self, from: RemoteRegion, to: Region) {
        if self.failed {
            return;
        }
        match self.resolve(&from) {
            Ok((src, soff)) => {
                let dst = self.own_buf(to.buf);
                SharedBuf::copy_between(&src, soff, &dst, to.offset, to.len);
                self.bump();
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn copy_out(&mut self, from: Region, to: RemoteRegion) {
        if self.failed {
            return;
        }
        match self.resolve(&to) {
            Ok((dst, doff)) => {
                let src = self.own_buf(from.buf);
                SharedBuf::copy_between(&src, from.offset, &dst, doff, from.len);
                self.bump();
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn reduce_in(&mut self, from: RemoteRegion, to: Region, op: ReduceOp, dt: Datatype) {
        if self.failed {
            return;
        }
        match self.resolve(&from) {
            Ok((src, soff)) => {
                let acc = self.own_buf(to.buf);
                acc.reduce_from(to.offset, &src, soff, to.len, op, dt);
                self.bump();
            }
            Err(e) => self.mark_failed(e),
        }
    }

    fn local_copy(&mut self, from: Region, to: Region) {
        let src = self.own_buf(from.buf);
        let dst = self.own_buf(to.buf);
        SharedBuf::copy_between(&src, from.offset, &dst, to.offset, from.len);
    }

    fn local_reduce(&mut self, from: Region, to: Region, op: ReduceOp, dt: Datatype) {
        let src = self.own_buf(from.buf);
        let acc = self.own_buf(to.buf);
        acc.reduce_from(to.offset, &src, from.offset, to.len, op, dt);
    }

    fn signal(&mut self, rank: usize, flag: FlagId) {
        if self.failed {
            return;
        }
        self.shared.flags[rank].signal(flag);
        self.bump();
    }

    fn wait_flag(&mut self, flag: FlagId, count: u32) {
        if self.failed {
            return;
        }
        match self.shared.flags[self.rank].try_wait_within(flag, count, self.wait_timeout) {
            Ok(()) => self.bump(),
            Err(e) => self.mark_failed(e),
        }
    }

    fn node_barrier(&mut self) {
        // A failed rank skips node barriers entirely: it is free-wheeling
        // ahead of its peers, and arriving early would advance barrier
        // generations out from under the healthy ranks. Its absence makes
        // peers time out here, which records the cascade and fails them
        // too — fail-stop propagation, not a hang.
        if self.failed {
            return;
        }
        let node = self.shared.topo.node_of(self.rank);
        match self.shared.node_barriers[node].wait_within(self.wait_timeout) {
            Ok(()) => self.bump(),
            Err(e) => self.mark_failed(format!("node barrier: {e}")),
        }
    }

    fn compute(&mut self, bytes: u64) {
        // Represent γ·bytes of reduction-like arithmetic honestly.
        let mut acc = 0u64;
        for i in 0..bytes / 8 {
            acc = acc.wrapping_add(std::hint::black_box(i).wrapping_mul(0x9E37_79B9));
        }
        std::hint::black_box(acc);
    }
}
