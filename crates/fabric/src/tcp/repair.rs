//! The progress thread's repair duty: reconnect a broken lane connection and swap
//! the fresh endpoint halves into their slots.

use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::endpoint::{GenTag, ReadHalf, WriteHalf};
use super::mesh::Mesh;
use super::LaneKey;
use crate::error::FabricError;

/// A break report from whoever found a socket broken to the repair duty.
pub(super) struct RepairReq {
    pub(super) lo: usize,
    pub(super) hi: usize,
    pub(super) lane: usize,
    /// The generation the failing endpoint belonged to (stale reports
    /// for an already-repaired connection are dropped).
    pub(super) gen: u64,
}

/// Install endpoint `key`'s halves over `stream` at generation `gen` of
/// the connection whose live generation is `cur`, replacing whatever
/// the slot held, offer the stream to polling receivers, and wake the
/// progress thread.
pub(super) fn install_endpoint(
    mesh: &Mesh,
    key: LaneKey,
    gen: u64,
    cur: &Arc<AtomicU64>,
    stream: Arc<TcpStream>,
) {
    let (here, peer, lane) = key;
    let (Some(queue), Some(reverse)) =
        (mesh.queues.get(&key), mesh.queues.get(&(peer, here, lane)))
    else {
        return;
    };
    let tag = || GenTag {
        gen,
        cur: Arc::clone(cur),
    };
    let slot = mesh.slot(key);
    slot.write.install(
        tag(),
        WriteHalf::new(key, Arc::clone(&stream), Arc::clone(queue)),
    );
    slot.read.install(
        tag(),
        ReadHalf::new(key, Arc::clone(&stream), Arc::clone(reverse)),
    );
    slot.set_stream(stream);
    mesh.notify_worker();
}

/// Establish one fresh loopback connection pair through the (now
/// nonblocking) listener — we are both sides, so the progress thread
/// connects and accepts itself. Returns nodelay'd, nonblocking streams.
pub(super) fn reconnect_nb(mesh: &Mesh) -> io::Result<(TcpStream, TcpStream)> {
    let listener = mesh
        .progress
        .listener
        .lock()
        .map_err(|_| io::Error::other("listener mutex poisoned"))?;
    let out = TcpStream::connect(mesh.progress.addr)?;
    let deadline = Instant::now() + Duration::from_secs(1);
    let inn = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "loopback accept timed out during repair",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    };
    out.set_nodelay(true)?;
    inn.set_nodelay(true)?;
    out.set_nonblocking(true)?;
    inn.set_nonblocking(true)?;
    Ok((out, inn))
}

/// Repair one reported break: dedup by generation, sever the old
/// sockets, reconnect, and install fresh endpoints in their slots. On
/// failure the lane is marked dead (unless it is the last survivor) so
/// fresh traffic stops routing onto it.
pub(super) fn repair_one(mesh: &Mesh, req: RepairReq) {
    if mesh.shutdown.load(Ordering::Relaxed) || mesh.killed[req.lane].load(Ordering::Relaxed) {
        return;
    }
    let Ok(mut conns) = mesh.conns.lock() else {
        return;
    };
    let key = (req.lo, req.hi, req.lane);
    let Some(entry) = conns.get_mut(&key) else {
        return;
    };
    if entry.gen.load(Ordering::Relaxed) != req.gen {
        return; // already repaired
    }
    // Make both old endpoints notice, wherever they are in their step.
    let _ = entry.out.shutdown(Shutdown::Both);
    let _ = entry.inn.shutdown(Shutdown::Both);
    match reconnect_nb(mesh) {
        Ok((out, inn)) => {
            // Bumping the generation retires the superseded halves
            // before their replacements can race them for queued frames.
            let new_gen = entry.gen.fetch_add(1, Ordering::Relaxed) + 1;
            entry.out = Arc::new(out);
            entry.inn = Arc::new(inn);
            for (here, peer, stream) in [(req.lo, req.hi, &entry.out), (req.hi, req.lo, &entry.inn)]
            {
                install_endpoint(
                    mesh,
                    (here, peer, req.lane),
                    new_gen,
                    &entry.gen,
                    Arc::clone(stream),
                );
            }
        }
        Err(e) => {
            mesh.record(FabricError::LaneDead {
                lane: req.lane,
                detail: format!(
                    "reconnect between nodes {} and {} failed: {e}",
                    req.lo, req.hi
                ),
            });
            // Stop routing fresh traffic onto a lane we cannot repair —
            // unless it is the last survivor.
            if mesh.alive_lanes().len() > 1 {
                mesh.killed[req.lane].store(true, Ordering::Relaxed);
            }
        }
    }
}

/// The repair duty: drain and process the break-report queue.
/// Returns whether anything was repaired (progress).
pub(super) fn repair_pass(mesh: &Mesh) -> bool {
    let reqs: Vec<RepairReq> = match mesh.progress.repair_q.lock() {
        Ok(mut q) => q.drain(..).collect(),
        Err(_) => return false,
    };
    if reqs.is_empty() {
        return false;
    }
    for req in reqs {
        repair_one(mesh, req);
    }
    true
}
