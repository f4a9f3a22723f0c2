//! One direction of one lane connection, split into a write half and a
//! read half that any thread may drive, and the nonblocking steps that
//! write a half's queue out and decode what its socket read.

use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use super::drive::{driving, read_spare};
use super::lane::{LaneRx, TxRing};
use super::mesh::Mesh;
use super::queue::SendQueue;
use super::repair::RepairReq;
use super::LaneKey;
use crate::pool::{FrameBuf, WriteCursor};
use crate::wire::{Frame, FrameDecoder, FrameKind};
use crate::ChanKey;

/// Slices per `write_vectored` call (conservative portable IOV cap): 64
/// frames, each a header and a payload.
const MAX_IOV: usize = 128;

/// Socket reads one endpoint may take per progress pass before yielding
/// to its siblings (each read fills up to the decoder's 64 KiB buffer,
/// or the rest of one payload) — fairness under a one-sided flood.
const MAX_READS_PER_PASS: usize = 4;

/// The connection generation a half belongs to: `gen != cur` means a
/// repair superseded it, and it must retire without touching the shared
/// send queue or the socket again.
pub(super) struct GenTag {
    pub(super) gen: u64,
    pub(super) cur: Arc<AtomicU64>,
}

/// The sending side of endpoint `key`: the stream, the resumable write
/// cursor and the staged payload ids awaiting their wire-time stamp.
pub(super) struct WriteHalf {
    pub(super) key: LaneKey,
    pub(super) stream: Arc<TcpStream>,
    pub(super) queue: Arc<SendQueue>,
    pub(super) cursor: WriteCursor,
    /// Channel and lane sequence of each payload frame in the cursor
    /// (reused across passes; emptied once the cursor drains and their
    /// receivers have been told).
    pub(super) staged: Vec<(ChanKey, u64)>,
    /// How many of `staged` carry their wire-time RTT stamp.
    stamped: usize,
    /// The cursor holds a frame that is not a payload frame (an ack or a
    /// heartbeat), which no receiver waits on.
    staged_ctrl: bool,
}

/// The receiving side of endpoint `key`: the same stream, the
/// incremental frame decoder its reads land in.
pub(super) struct ReadHalf {
    pub(super) key: LaneKey,
    pub(super) stream: Arc<TcpStream>,
    /// The reverse direction's queue, whose writer this half's reads
    /// unblock (see [`SendQueue::write_blocked`]).
    pub(super) reverse: Arc<SendQueue>,
    pub(super) decoder: FrameDecoder,
}

impl WriteHalf {
    /// Put one encoded frame behind whatever the cursor holds.
    pub(super) fn stage(&mut self, buf: FrameBuf) {
        match Frame::peek_payload_id(buf.header()) {
            Some(id) => self.staged.push(id),
            None => self.staged_ctrl = true,
        }
        self.cursor.push(buf);
    }

    pub(super) fn new(key: LaneKey, stream: Arc<TcpStream>, queue: Arc<SendQueue>) -> Self {
        WriteHalf {
            key,
            stream,
            queue,
            cursor: WriteCursor::new(),
            staged: Vec::new(),
            stamped: 0,
            staged_ctrl: false,
        }
    }
}

impl ReadHalf {
    pub(super) fn new(key: LaneKey, stream: Arc<TcpStream>, reverse: Arc<SendQueue>) -> Self {
        ReadHalf {
            key,
            stream,
            reverse,
            decoder: FrameDecoder::new(),
        }
    }
}

/// One endpoint half, with the connection generation it belongs to, as
/// shared by the progress thread and the ranks: whoever takes its lock
/// does the work, and nobody waits for it.
///
/// A thread that loses the `try_lock` sets `missed`. What the holder
/// owes it on release depends on the half: see [`Half::read`] and
/// [`Half::send_with`].
pub(super) struct Half<T> {
    half: Mutex<Option<(GenTag, T)>>,
    missed: AtomicBool,
}

impl<T> Half<T> {
    pub(super) fn empty() -> Self {
        Half {
            half: Mutex::new(None),
            missed: AtomicBool::new(false),
        }
    }

    /// Swap in a fresh half (initial connect, repair). Blocks for the
    /// lock: the holder only ever does nonblocking socket work.
    pub(super) fn install(&self, tag: GenTag, fresh: T) {
        if let Ok(mut g) = self.half.lock() {
            *g = Some((tag, fresh));
        }
    }

    /// Take the lock without waiting. On a miss with `flag`, set
    /// `missed` and retry once: the flag store and the retry pair with
    /// the holder's unlock and flag check, so one of the two sees the
    /// other.
    fn take(&self, flag: bool) -> Option<MutexGuard<'_, Option<(GenTag, T)>>> {
        match self.half.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::WouldBlock) if flag => {
                self.missed.store(true, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                self.half.try_lock().ok()
            }
            Err(_) => None,
        }
    }

    /// Run `step` on the live half of endpoint `key` in `g`. A half whose
    /// lane is killed or whose generation went stale retires instead. So
    /// does one whose socket `step` reports broken by returning `None`,
    /// and the break goes to the repair duty.
    fn run<R>(
        g: &mut Option<(GenTag, T)>,
        mesh: &Mesh,
        key: LaneKey,
        step: impl FnOnce(&mut T) -> Option<R>,
    ) -> Option<R> {
        let (tag, h) = g.as_mut()?;
        if tag.cur.load(Ordering::Relaxed) != tag.gen || mesh.killed[key.2].load(Ordering::Relaxed)
        {
            *g = None;
            return None;
        }
        let out = step(h);
        if out.is_none() {
            report_break(mesh, key, tag.gen);
            *g = None;
        }
        out
    }
}

impl Half<ReadHalf> {
    /// One read pass over endpoint `key` ([`read_step`], `by_rank` as
    /// there). Reading is the same work whoever does it, so a thread
    /// that loses the lock leaves it to the holder: a holder that finds
    /// `missed` set after its pass takes the lock again and reads once
    /// more, so bytes that landed after its last read are never left
    /// for the progress thread's bounded park. Returns whether any
    /// bytes arrived, or `None` if the half was busy, absent or retired.
    pub(super) fn read(&self, mesh: &Mesh, key: LaneKey, by_rank: bool) -> Option<bool> {
        let mut got = None;
        while let Some(mut g) = self.take(true) {
            self.missed.store(false, Ordering::SeqCst);
            if let Some(read) = Self::run(&mut g, mesh, key, |rh| read_step(mesh, rh, by_rank)) {
                got = Some(read || got == Some(true));
            }
            drop(g);
            fence(Ordering::SeqCst);
            if !self.missed.load(Ordering::SeqCst) {
                break;
            }
        }
        got
    }
}

impl Half<WriteHalf> {
    /// The progress thread's or a driving caller's write pass over
    /// endpoint `key`
    /// ([`write_step`]). Losing the lock to a sending rank flags it (see
    /// [`Half::send_with`]). Returns whether anything moved, or `None`
    /// if the half was busy, absent or retired.
    pub(super) fn write(&self, mesh: &Mesh, key: LaneKey, stage: usize) -> Option<bool> {
        let mut g = self.take(true)?;
        self.missed.store(false, Ordering::Relaxed);
        Self::run(&mut g, mesh, key, |wh| write_step(mesh, wh, stage))
    }

    /// Run a sending rank's `step` on endpoint `key` if the lock is free
    /// — a frame that cannot go inline takes the queue instead. A
    /// progress thread that wanted the half meanwhile wanted the queue
    /// written out, which a sender does not do: on release the sender
    /// re-notifies it if its signal moved while the sender held the
    /// half.
    pub(super) fn send_with<R>(
        &self,
        mesh: &Mesh,
        key: LaneKey,
        step: impl FnOnce(&mut WriteHalf) -> Option<R>,
    ) -> Option<R> {
        let worker = &mesh.progress.signal;
        let mut g = self.take(false)?;
        let seen = worker.epoch();
        let out = Self::run(&mut g, mesh, key, step);
        drop(g);
        fence(Ordering::SeqCst);
        if self.missed.load(Ordering::SeqCst)
            && self.missed.swap(false, Ordering::SeqCst)
            && worker.epoch() != seen
        {
            worker.notify();
        }
        out
    }
}

/// Both halves of one endpoint, in its [`Mesh`] slot, and the
/// reliability state of the lane in each direction, which outlives
/// every connection the lane goes through.
pub(super) struct EndpointSlot {
    pub(super) write: Half<WriteHalf>,
    pub(super) read: Half<ReadHalf>,
    /// Frames this endpoint sent and the peer has not acked.
    pub(super) tx: TxRing,
    /// What arrived from the peer, and the ack owed for it.
    rx: Mutex<LaneRx>,
    /// Whether `rx` owes an ack, so a send or a receiver about to sleep
    /// skips the lock when nothing is owed. A stale `false` only defers
    /// the ack to the next send, sleep or tick.
    pub(super) owes: AtomicBool,
    /// The socket the read half reads, kept outside the half's lock so
    /// a receiver can poll it while another thread holds the half. Set
    /// when the endpoint is installed; `None` once a receiver saw it hang
    /// up.
    stream: Mutex<Option<Arc<TcpStream>>>,
}

impl EndpointSlot {
    /// Note frame `lseq` arriving from the peer. Returns how many
    /// payload frames now wait for an ack.
    pub(super) fn arrive(&self, lseq: u64) -> u32 {
        self.rx.lock().map_or(0, |mut rx| {
            rx.arrive(lseq);
            self.owes.store(true, Ordering::Relaxed);
            rx.owed
        })
    }

    /// The ack owed to the peer, if `take` (a [`LaneRx`] method) yields
    /// one.
    pub(super) fn owed_ack(&self, take: fn(&mut LaneRx) -> Option<u64>) -> Option<u64> {
        if !self.owes.load(Ordering::Relaxed) {
            return None;
        }
        let mut rx = self.rx.lock().ok()?;
        let wm = take(&mut rx);
        self.owes.store(rx.owed > 0, Ordering::Relaxed);
        wm
    }

    pub(super) fn new() -> Self {
        EndpointSlot {
            write: Half::empty(),
            read: Half::empty(),
            tx: TxRing::default(),
            rx: Mutex::new(LaneRx::default()),
            owes: AtomicBool::new(false),
            stream: Mutex::new(None),
        }
    }

    /// The socket to poll for this endpoint's inbound bytes. The caller
    /// holds the refcount for the whole poll, so a repair cannot close
    /// it and hand its descriptor number to another socket meanwhile.
    pub(super) fn stream(&self) -> Option<Arc<TcpStream>> {
        self.stream.lock().ok()?.clone()
    }

    /// Offer `stream` for polling (initial connect, repair).
    pub(super) fn set_stream(&self, stream: Arc<TcpStream>) {
        if let Ok(mut g) = self.stream.lock() {
            *g = Some(stream);
        }
    }

    /// Stop offering `dead`, a socket that hung up, unless a repair
    /// already replaced it: a hung-up socket polls readable forever.
    pub(super) fn forget_stream(&self, dead: &Arc<TcpStream>) {
        if let Ok(mut g) = self.stream.lock() {
            if g.as_ref().is_some_and(|s| Arc::ptr_eq(s, dead)) {
                *g = None;
            }
        }
    }
}

/// Queue a break report for the repair duty — unless the socket
/// broke because of shutdown or a deliberate lane kill, which are not
/// repairable.
fn report_break(mesh: &Mesh, (here, peer, lane): LaneKey, gen: u64) {
    if mesh.shutdown.load(Ordering::Relaxed) || mesh.killed[lane].load(Ordering::Relaxed) {
        return;
    }
    let (lo, hi) = if here < peer {
        (here, peer)
    } else {
        (peer, here)
    };
    if let Ok(mut q) = mesh.progress.repair_q.lock() {
        q.push_back(RepairReq { lo, hi, lane, gen });
    }
    mesh.progress.signal.notify();
}

/// One nonblocking write pass over a write half: top the cursor up from
/// the queue to `stage` bytes (control frames first), then
/// `write_vectored` as much as the socket takes. A sender that staged
/// its own frame with [`WriteHalf::stage`] passes `stage` 0. Returns
/// whether anything moved, or `None` if the socket broke.
///
/// A write that carried one whole payload frame to a channel whose
/// receiver drives the wire wakes nobody: that receiver sleeps in
/// `poll(2)` on this socket, so the write itself woke it, or it polls
/// the socket on its next receive. Anything else — a receiver not
/// driving, a control frame, a batch, a torn write — wakes the progress
/// thread, which reads and delivers it.
pub(super) fn write_step(mesh: &Mesh, wh: &mut WriteHalf, stage: usize) -> Option<bool> {
    let peer = wh.key.1;
    let mut progressed = false;
    if wh.cursor.remaining_bytes() < stage {
        let before = wh.staged.len();
        let (moved, ctrl) = wh.queue.pop_into(&mut wh.cursor, stage, &mut wh.staged);
        progressed = moved > 0;
        wh.staged_ctrl |= ctrl;
        if driving(mesh) {
            let payload = (wh.staged.len() - before) as u64;
            mesh.driver_frames.fetch_add(payload, Ordering::Relaxed);
        }
    }
    if wh.stamped < wh.staged.len() {
        // The RTT clock starts here — when the frame leaves its queue
        // for the socket — not at registration (see `mark_on_wire`).
        mesh.slot(wh.key)
            .tx
            .mark_on_wire(&wh.staged[wh.stamped..], Instant::now());
        wh.stamped = wh.staged.len();
    }
    let mut wrote = false;
    while !wh.cursor.is_empty() {
        let written = {
            let mut slices = [IoSlice::new(&[]); MAX_IOV];
            let n = wh.cursor.io_slices(&mut slices);
            (&*wh.stream).write_vectored(&slices[..n])
        };
        match written {
            Ok(0) => return None,
            Ok(n) => {
                wh.cursor.advance(n);
                wrote = true;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Ask the socket's reader for a wake-up when it drains
                // bytes, then retry once: a drain that raced the flag
                // would otherwise go unnoticed until the park cap.
                if !wh.queue.write_blocked.swap(true, Ordering::SeqCst) {
                    continue;
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    if wh.cursor.is_empty() && wh.queue.write_blocked.load(Ordering::Relaxed) {
        wh.queue.write_blocked.store(false, Ordering::Relaxed);
    }
    if wrote {
        mesh.touch();
        // Whoever reads what we just wrote: the receiver polling this
        // socket, else the progress thread — all nodes share this
        // process, so poke it instead of waiting out a park timeout.
        let mut unheard = true;
        if wh.cursor.is_empty() {
            if let ([(chan, _)], false) = (wh.staged.as_slice(), wh.staged_ctrl) {
                unheard = !mesh.stores[peer].note_arrival(*chan);
            }
            wh.staged.clear();
            wh.stamped = 0;
            wh.staged_ctrl = false;
        }
        if unheard {
            mesh.notify_worker();
        }
    }
    Some(progressed)
}

/// One nonblocking read pass over a read half: drain the socket (the
/// progress thread's pass is bounded, for fairness) straight into the
/// decoder — a payload whose header has arrived into the message's own
/// vector, anything else into the decoder's buffer — and dispatch every
/// complete frame. Once the lane owes an ack for [`ACK_BATCH`] frames, the reader
/// writes it at once: a rank (`by_rank`) inline when it can, anyone else
/// through the queue. Returns whether any bytes arrived, or `None` if
/// the socket broke or the stream is garbled.
///
/// [`ACK_BATCH`]: super::lane::ACK_BATCH
pub(super) fn read_step(mesh: &Mesh, rh: &mut ReadHalf, by_rank: bool) -> Option<bool> {
    let (here, peer, lane) = rh.key;
    let mut reads = 0usize;
    let mut frames = 0u64;
    let mut payload = 0u64;
    // `None` once the socket broke.
    let pass = loop {
        let (into, room) = rh.decoder.read_target();
        match read_spare(&rh.stream, into, room) {
            // Peer closed — a break or shutdown.
            Ok(0) => break None,
            Ok(n) => {
                let mut ack_due = false;
                let garbled = loop {
                    match rh.decoder.next_lane_frame() {
                        Ok(Some((lseq, frame))) => {
                            // Any frame is proof of life for the peer —
                            // and for its lane (brownout restore). One
                            // clock read stamps all three signals.
                            let nanos = mesh.now_nanos();
                            mesh.touch_at(nanos);
                            mesh.note_heard_at(here, peer, nanos);
                            mesh.note_lane_heard_at(lane, nanos);
                            payload += u64::from(frame.kind == FrameKind::Eager);
                            ack_due |= mesh.handle_frame(rh.key, lseq, frame);
                            frames += 1;
                        }
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                // Fold any checksum-dropped frames into the fabric-wide
                // counter; their payloads come back via retransmit.
                let skipped = rh.decoder.take_corrupt();
                if skipped > 0 {
                    mesh.corrupt_frames.fetch_add(skipped, Ordering::Relaxed);
                }
                let copied = rh.decoder.take_copied();
                if copied > 0 {
                    mesh.recv_copied.fetch_add(copied, Ordering::Relaxed);
                }
                if ack_due {
                    mesh.ack_lane(rh.key, by_rank, LaneRx::take_ack);
                }
                if let Some(e) = garbled {
                    // A garbled header cannot be resynced on a byte
                    // stream; reconnect instead. (Checksum failures never
                    // land here — the decoder skips and counts them.)
                    if !mesh.shutdown.load(Ordering::Relaxed)
                        && !mesh.killed[lane].load(Ordering::Relaxed)
                    {
                        mesh.record(e.malformed(lane, peer));
                    }
                    break None;
                }
                reads += 1;
                if n < room {
                    // A short read took all the socket had: no need to
                    // ask again for the `WouldBlock`.
                    break Some(());
                }
                if !by_rank && reads >= MAX_READS_PER_PASS {
                    // Yield to sibling endpoints; leftover bytes are
                    // picked up next pass (we made progress, so the
                    // progress thread loops straight back around). A
                    // rank reads on: nothing else would wake it for the
                    // rest.
                    break Some(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Some(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break None,
        }
    };
    if payload > 0 && driving(mesh) {
        mesh.driver_frames.fetch_add(payload, Ordering::Relaxed);
    }
    if by_rank && frames > 0 {
        mesh.rank_reads.fetch_add(frames, Ordering::Relaxed);
    }
    pass?;
    if reads > 0 && rh.reverse.write_blocked.load(Ordering::SeqCst) {
        // The reverse endpoint writes into the socket we just drained.
        mesh.notify_worker();
    }
    Some(reads > 0)
}
