//! One direction of one lane connection and the nonblocking progress
//! step that writes its queue out and decodes what its socket read.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use super::mesh::Mesh;
use super::queue::SendQueue;
use super::repair::RepairReq;
use super::LaneKey;
use crate::error::FabricError;
use crate::pool::WriteCursor;
use crate::store::Wakes;
use crate::wire::{FrameDecoder, WireError};
use crate::ChanKey;

/// Frames per `write_vectored` call (conservative portable IOV cap).
const MAX_IOV: usize = 64;

/// Socket reads one endpoint may take per progress pass before yielding
/// to its siblings (each read fills up to the scratch buffer, 64 KiB) —
/// fairness under a one-sided flood.
const MAX_READS_PER_PASS: usize = 4;

/// One direction of one lane connection, as driven by its owning
/// progress worker: the nonblocking stream plus all per-endpoint
/// progress state (resumable write cursor, incremental frame decoder).
pub(super) struct Endpoint {
    pub(super) here: usize,
    pub(super) peer: usize,
    pub(super) lane: usize,
    /// The repair generation this endpoint belongs to.
    pub(super) gen: u64,
    /// The connection's live generation; `gen != cur_gen` means a repair
    /// superseded this endpoint and it must retire without touching the
    /// shared send queue again.
    pub(super) cur_gen: Arc<AtomicU64>,
    pub(super) stream: TcpStream,
    pub(super) queue: Arc<SendQueue>,
    /// The reverse direction's queue, whose writer this endpoint's reads
    /// unblock (see [`SendQueue::write_blocked`]).
    pub(super) reverse: Arc<SendQueue>,
    pub(super) decoder: FrameDecoder,
    pub(super) cursor: WriteCursor,
    /// Frames handled since the last owed-ack flush.
    pub(super) since_flush: u32,
    /// Scratch for the payload-frame identities staged each refill
    /// (reused across passes; emptied after the wire-time RTT stamp).
    pub(super) staged: Vec<(ChanKey, u64)>,
}

impl Endpoint {
    /// A fresh endpoint for `(here, peer, lane)` at repair generation
    /// `gen`, or `None` if the mesh has no queue for that direction.
    pub(super) fn new(
        mesh: &Mesh,
        (here, peer, lane): LaneKey,
        gen: u64,
        cur_gen: &Arc<AtomicU64>,
        stream: TcpStream,
    ) -> Option<Endpoint> {
        Some(Endpoint {
            here,
            peer,
            lane,
            gen,
            cur_gen: Arc::clone(cur_gen),
            stream,
            queue: Arc::clone(mesh.queues.get(&(here, peer, lane))?),
            reverse: Arc::clone(mesh.queues.get(&(peer, here, lane))?),
            decoder: FrameDecoder::new(),
            cursor: WriteCursor::new(),
            since_flush: 0,
            staged: Vec::new(),
        })
    }
}

/// Queue a break report for worker 0's repair duty — unless the socket
/// broke because of shutdown or a deliberate lane kill, which are not
/// repairable.
pub(super) fn report_break(mesh: &Mesh, ep: &Endpoint) {
    if mesh.shutdown.load(Ordering::Relaxed) || mesh.killed[ep.lane].load(Ordering::Relaxed) {
        return;
    }
    let (lo, hi) = if ep.here < ep.peer {
        (ep.here, ep.peer)
    } else {
        (ep.peer, ep.here)
    };
    if let Ok(mut q) = mesh.progress.repair_q.lock() {
        q.push_back(RepairReq {
            lo,
            hi,
            lane: ep.lane,
            gen: ep.gen,
        });
    }
    mesh.progress.signals[0].notify();
}

/// One nonblocking progress pass over one endpoint: stage queued frames
/// into the cursor, `write_vectored` them out, then drain the socket
/// through the decoder and dispatch every complete frame. Returns
/// `(keep, progressed)` — `keep == false` retires the endpoint (its
/// break, if unexpected, has been reported).
pub(super) fn endpoint_step(
    mesh: &Mesh,
    ep: &mut Endpoint,
    stage: usize,
    scratch: &mut [u8],
) -> (bool, bool) {
    let mut progressed = false;

    // WRITE: refill the cursor (up to this endpoint's share of the
    // worker's cycle budget), then push as much as the socket takes.
    if ep.cursor.remaining_bytes() < stage
        && ep.queue.pop_into(&mut ep.cursor, stage, &mut ep.staged) > 0
    {
        progressed = true;
    }
    if !ep.staged.is_empty() {
        // The RTT clock starts here — when the frame leaves its queue
        // for the socket — not at registration (see `mark_on_wire`).
        mesh.mark_on_wire(&ep.staged, Instant::now());
        ep.staged.clear();
    }
    let mut wrote = false;
    while !ep.cursor.is_empty() {
        let slices = ep.cursor.io_slices(MAX_IOV);
        match ep.stream.write_vectored(&slices) {
            Ok(0) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
            Ok(n) => {
                ep.cursor.advance(n);
                wrote = true;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Ask the socket's reader for a wake-up when it drains
                // bytes, then retry once: a drain that raced the flag
                // would otherwise go unnoticed until the park cap.
                if !ep.queue.write_blocked.swap(true, Ordering::SeqCst) {
                    continue;
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
        }
    }
    if ep.cursor.is_empty() && ep.queue.write_blocked.load(Ordering::Relaxed) {
        ep.queue.write_blocked.store(false, Ordering::Relaxed);
    }
    if wrote {
        mesh.touch();
        // The endpoint that *reads* what we just wrote is the reverse
        // direction of this connection — all nodes share this process,
        // so poke its owner instead of waiting out a park timeout.
        mesh.notify_owner(ep.peer, ep.here, ep.lane);
    }

    // READ: drain the socket (bounded per pass for fairness), decode,
    // dispatch.
    let mut reads = 0usize;
    // Receiver wake-ups owed by this read's deliveries, paid once the
    // read's frames are all in.
    let mut wakes = Wakes::default();
    let store = &mesh.stores[ep.here];
    loop {
        match ep.stream.read(scratch) {
            Ok(0) => {
                // Peer closed — a break or shutdown.
                report_break(mesh, ep);
                return (false, progressed);
            }
            Ok(n) => {
                progressed = true;
                ep.decoder.feed(&scratch[..n]);
                loop {
                    match ep.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            // Any frame is proof of life for the peer —
                            // and for its lane (brownout restore). One
                            // clock read stamps all three signals.
                            let nanos = mesh.now_nanos();
                            mesh.touch_at(nanos);
                            mesh.note_heard_at(ep.here, ep.peer, nanos);
                            mesh.note_lane_heard_at(ep.lane, nanos);
                            mesh.handle_frame(ep.here, ep.peer, ep.lane, frame, &mut wakes);
                            ep.since_flush += 1;
                            // Batch acks: every 32 frames under sustained
                            // load (the quiet-socket flush is below).
                            if ep.since_flush >= 32 {
                                mesh.flush_owed_acks();
                                ep.since_flush = 0;
                            }
                        }
                        Ok(None) => {
                            store.wake(&mut wakes);
                            break;
                        }
                        Err(e) => {
                            // A garbled header cannot be resynced on a
                            // byte stream; reconnect instead. (Checksum
                            // failures never land here — the decoder
                            // skips and counts them silently.)
                            let skipped = ep.decoder.take_corrupt();
                            if skipped > 0 {
                                mesh.corrupt_frames.fetch_add(skipped, Ordering::Relaxed);
                            }
                            if !mesh.shutdown.load(Ordering::Relaxed)
                                && !mesh.killed[ep.lane].load(Ordering::Relaxed)
                            {
                                let (expected_version, got) = match e {
                                    WireError::Version { expected, got } => {
                                        (Some(expected), Some(got))
                                    }
                                    _ => (None, None),
                                };
                                mesh.record(FabricError::MalformedFrame {
                                    lane: ep.lane,
                                    detail: format!("unreadable frame from node {}: {e}", ep.peer),
                                    expected_version,
                                    got,
                                });
                            }
                            store.wake(&mut wakes);
                            report_break(mesh, ep);
                            return (false, progressed);
                        }
                    }
                }
                // Fold any checksum-dropped frames into the fabric-wide
                // counter; their payloads come back via retransmit.
                let skipped = ep.decoder.take_corrupt();
                if skipped > 0 {
                    mesh.corrupt_frames.fetch_add(skipped, Ordering::Relaxed);
                }
                reads += 1;
                if reads >= MAX_READS_PER_PASS {
                    // Yield to sibling endpoints; leftover bytes are
                    // picked up next pass (we made progress, so the
                    // worker loops straight back around).
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Socket gone quiet: flush the acks batched above.
                if ep.since_flush > 0 {
                    mesh.flush_owed_acks();
                    ep.since_flush = 0;
                }
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                report_break(mesh, ep);
                return (false, progressed);
            }
        }
    }
    if reads > 0 && ep.reverse.write_blocked.load(Ordering::SeqCst) {
        // The reverse endpoint writes into the socket we just drained.
        mesh.notify_owner(ep.peer, ep.here, ep.lane);
    }
    (true, progressed)
}
