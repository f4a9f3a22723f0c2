//! The paths on which a caller drives the sockets itself: `send` writes
//! an eager frame straight onto its lane, `recv_within` sleeps in
//! `poll(2)` on the sockets from the sending node and reads those the
//! kernel reports readable, and [`drive`] runs the progress thread's
//! pass over every endpoint from a polling thread. All of them run the
//! same `write_step` and `read_step` as the progress thread; only the
//! caller differs. Every socket read goes through [`read_spare`], straight into
//! the vector the bytes belong in.

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_short, c_void};
use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::endpoint::write_step;
use super::lane::LaneRx;
use super::mesh::Mesh;
use super::worker::stage_share;
use super::LaneKey;
use crate::error::FabricResult;
use crate::pool::FrameBuf;
use crate::wait::WakeSocket;
use crate::ChanKey;

#[cfg(not(unix))]
compile_error!("the TCP fabric's blocking receive sleeps in poll(2): it needs a unix target");

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

/// `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
}

const POLLIN: c_short = 0x1;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const POLLNVAL: c_short = 0x20;

/// Read at most `room` bytes from `stream` straight into the spare
/// capacity of `into`, growing its length by the count read: the
/// message's own vector or the decoder's buffer, with no bounce buffer
/// and no zeroing pass ahead of the copy the kernel makes. `Ok(0)` is
/// the peer closing. `room` must be positive and within the capacity.
pub(super) fn read_spare(stream: &TcpStream, into: &mut Vec<u8>, room: usize) -> io::Result<usize> {
    let spare = &mut into.spare_capacity_mut()[..room];
    // SAFETY: `spare` is `room` writable bytes owned by `into`, and the
    // descriptor stays open for the call: the caller borrows its stream.
    let got = unsafe { read(stream.as_raw_fd(), spare.as_mut_ptr().cast(), spare.len()) };
    let n = usize::try_from(got).map_err(|_| io::Error::last_os_error())?;
    // SAFETY: read(2) initialized the first `n ≤ room` spare bytes.
    unsafe { into.set_len(into.len() + n) };
    Ok(n)
}

/// Frames a lane may have awaiting an ack and still take an inline
/// write. A lane past it is streaming, not exchanging: its frames take
/// the queue, where the progress thread batches them into few syscalls.
const INLINE_MAX_UNACKED: usize = 64;

/// Write eager frame `buf`, one of `unacked` frames awaiting an ack on
/// endpoint `key`'s lane, onto the endpoint's socket from the calling
/// thread, or hand it back for the queue.
///
/// The frame goes inline only when the lane is not streaming, a
/// receiver on the destination node reads the wire itself (a poller's
/// frames are the progress thread's to read, so it may as well write
/// them, batched), the progress thread is parked (running, it batches
/// the frame into its next `write_vectored` anyway, and busy is exactly
/// when a send should stay cheap), and [`write_inline`] can write it.
///
/// A driving caller ([`drive`]) queues instead: its next pass writes
/// the frame, batched with the rest.
pub(super) fn send_inline(
    mesh: &Mesh,
    key: LaneKey,
    unacked: usize,
    buf: FrameBuf,
) -> Result<(), FrameBuf> {
    if driving(mesh)
        || unacked > INLINE_MAX_UNACKED
        || !mesh.stores[key.1].driven()
        || !mesh.progress.signal.is_parked()
    {
        return Err(buf);
    }
    write_inline(mesh, key, buf)?;
    mesh.inline_sends.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Write `buf` onto endpoint `key`'s socket from the calling thread if
/// the write half is free and nothing is queued or half-written ahead
/// of it; otherwise hand it back. A torn write leaves the rest in the
/// cursor for the progress thread to finish.
pub(super) fn write_inline(mesh: &Mesh, key: LaneKey, buf: FrameBuf) -> Result<(), FrameBuf> {
    let mut frame = Some(buf);
    let half = &mesh.slot(key).write;
    half.send_with(mesh, key, |wh| {
        if !wh.cursor.is_empty() || wh.queue.depth() > 0 {
            return Some(());
        }
        wh.stage(frame.take()?);
        let alive = write_step(mesh, wh, 0);
        if !wh.cursor.is_empty() {
            // Torn: the cursor keeps the rest and its one writer stays
            // whoever holds the half next — wake the progress thread to
            // finish it.
            mesh.notify_worker();
        }
        alive.map(|_| ())
    });
    frame.map_or(Ok(()), Err)
}

thread_local! {
    /// A rank's poll set, built on its first blocking receive.
    static POLL: RefCell<PollSet> = RefCell::new(PollSet::new());
    /// The id of the mesh this thread drives ([`drive`] with `stay`),
    /// 0 for none. Ids are never reused, so a mark outliving its fabric
    /// matches no other.
    static DRIVING: Cell<u64> = const { Cell::new(0) };
}

/// Drain every lane's socket carrying node `peer`'s traffic into node
/// `here`, as the progress thread would. Every lane, because each of
/// `peer`'s ranks rides its own and a lane kill moves frames onto the
/// survivors. While the progress thread runs, the lanes are left to it,
/// as on the send side: it batches the reads with the rest of its pass,
/// and a poke makes sure that pass comes.
fn drain_inbound(mesh: &Mesh, here: usize, peer: usize) {
    let worker = &mesh.progress.signal;
    for lane in 0..mesh.cfg.lanes {
        let key = (here, peer, lane);
        if worker.is_parked() {
            mesh.slot(key).read.read(mesh, key, false);
        } else {
            worker.notify();
        }
    }
}

/// What a thread sleeps on in [`recv_driving`], kept for the thread's
/// life so that no wait allocates or opens a descriptor: its wake
/// socket, and one sleep's lane sockets with their `pollfd`s.
struct PollSet {
    wake: Arc<WakeSocket>,
    /// The lanes polled in this sleep and their sockets, whose refcounts
    /// keep each descriptor number theirs until the reads are done.
    lanes: Vec<(usize, Arc<TcpStream>)>,
    /// `lanes`' descriptors in order, then the wake socket's.
    fds: Vec<PollFd>,
}

impl PollSet {
    fn new() -> PollSet {
        PollSet {
            wake: Arc::new(WakeSocket::new().expect("a receiving thread's wake socket pair")),
            lanes: Vec::new(),
            fds: Vec::new(),
        }
    }

    /// Sleep until a socket of a live lane from node `peer` into node
    /// `here` is readable or hangs up, the wake socket rings, or `left`
    /// passes (rounded up to `poll`'s milliseconds). Every live lane,
    /// whoever holds its read half: a frame may land on any of them just
    /// after the progress thread finished reading it, and its writer,
    /// seeing this receiver drive the channel, wakes no one else.
    fn sleep(&mut self, mesh: &Mesh, here: usize, peer: usize, left: Duration) {
        self.lanes.clear();
        self.fds.clear();
        let sleeper = |fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        for lane in 0..mesh.cfg.lanes {
            if mesh.killed[lane].load(Ordering::Relaxed) {
                continue;
            }
            if let Some(stream) = mesh.slot((here, peer, lane)).stream() {
                self.fds.push(sleeper(stream.as_raw_fd()));
                self.lanes.push((lane, stream));
            }
        }
        self.fds.push(sleeper(self.wake.fd()));
        let ms = c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a live array of `fds.len()` `pollfd`s, and
        // every descriptor in it stays open until the call returns: the
        // lanes' by the refcounts in `lanes`, the wake socket's by
        // `wake`. A failed call (EINTR) sets no `revents` and reads as a
        // wake-up with nothing ready.
        unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, ms) };
    }

    /// After a sleep: take the wake byte if a delivery `rung` (or the
    /// kernel reports one), and read each lane the kernel reported, as
    /// a rank. A lane that hung up is forgotten until a repair offers
    /// its replacement. Lanes whose half another thread holds are left
    /// to it (the holder reads again for us); if that was all there was
    /// to read, give the holder the CPU before polling again.
    fn read_ready(&mut self, mesh: &Mesh, here: usize, peer: usize, rung: bool) {
        if rung || self.fds.last().is_some_and(|w| w.revents != 0) {
            self.wake.drain();
        }
        let (mut busy, mut read) = (false, false);
        for ((lane, stream), fd) in self.lanes.drain(..).zip(&self.fds) {
            if fd.revents == 0 {
                continue;
            }
            let key = (here, peer, lane);
            let slot = mesh.slot(key);
            match slot.read.read(mesh, key, true) {
                Some(got) => read |= got,
                None if fd.revents & (POLLHUP | POLLERR | POLLNVAL) != 0 => {
                    slot.forget_stream(&stream);
                }
                None => busy = true,
            }
        }
        if busy && !read && !rung {
            std::thread::yield_now();
        }
    }
}

/// Blocking receive of an internode message that progresses the wire
/// while it waits: pop, or register this thread's wake socket with the
/// store under the lock that found nothing; write the acks owed on the
/// lanes from the sending node; sleep in `poll(2)` on the sockets of
/// every live lane from that node and on the wake socket; clear the
/// registration; read the lanes that became readable; repeat. A frame
/// written onto one of those sockets wakes the sleep from inside the
/// kernel, so its sender pays no wake-up. A delivery any other thread
/// makes rings the wake socket instead (see [`MsgStore::pop_driving`]).
/// The progress thread stays the backstop — a rank's reads only shorten
/// delivery, they never gate it.
///
/// [`MsgStore::pop_driving`]: crate::store::MsgStore::pop_driving
pub(super) fn recv_driving(mesh: &Mesh, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
    let here = mesh.topo.node_of(key.1);
    let peer = mesh.topo.node_of(key.0);
    let store = &mesh.stores[here];
    POLL.with_borrow_mut(|ps| {
        let mut deadline = None;
        loop {
            if let Some(m) = store.pop_driving(key, &ps.wake)? {
                return Ok(m);
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(store.timed_out(key, timeout));
            }
            // No reply carries the acks owed while this thread sleeps.
            for lane in 0..mesh.cfg.lanes {
                mesh.ack_lane((here, peer, lane), true, LaneRx::take_ack);
            }
            ps.sleep(mesh, here, peer, left);
            let rung = store.stop_polling(key);
            ps.read_ready(mesh, here, peer, rung);
        }
    })
}

/// A fresh mesh id for [`driving`]; never 0.
pub(super) fn next_mesh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Whether the calling thread drives `mesh` right now. Its wake-ups of
/// the progress thread wait until it stops (see [`Mesh::notify_worker`]).
pub(super) fn driving(mesh: &Mesh) -> bool {
    DRIVING.get() == mesh.id
}

/// One progress pass over every endpoint of `mesh` from the calling
/// thread: drain each inbound socket and decode what arrived as the
/// progress thread does, then write each send queue. Without `stay`,
/// every ack owed is queued first: the caller's next frames would have
/// carried them, and it is about to stop sending for a while. While
/// the progress thread runs, endpoints are left to it and it is poked
/// instead, as in [`drain_inbound`]. With `stay` the thread keeps
/// driving after the pass: its sends queue without an inline write
/// and, like its ack pushes, leave the progress thread asleep, because
/// its next pass writes them. Without `stay` it stops driving
/// ([`stop_driving`]) once the pass is done.
pub(super) fn drive(mesh: &Mesh, stay: bool) {
    DRIVING.set(mesh.id);
    let nodes = mesh.topo.nodes();
    for here in 0..nodes {
        for peer in (0..nodes).filter(|&p| p != here) {
            drain_inbound(mesh, here, peer);
        }
    }
    if !stay {
        for &key in mesh.queues.keys() {
            mesh.ack_lane(key, false, LaneRx::take_ack);
        }
    }
    let stage = stage_share(mesh.queues.len());
    for &key in mesh.queues.keys() {
        // A running progress thread was poked by the drain above.
        if mesh.progress.signal.is_parked() {
            mesh.slot(key).write.write(mesh, key, stage);
        }
    }
    if !stay {
        stop_driving(mesh);
    }
}

/// Stop driving `mesh`: clear the thread's mark and pay the wake-up it
/// deferred, if any, so no frame it left queued and no byte it left
/// unread waits out the progress thread's bounded park.
pub(super) fn stop_driving(mesh: &Mesh) {
    if driving(mesh) {
        DRIVING.set(0);
    }
    mesh.hand_back();
}
