//! Worker 0's repair duty: reconnect a broken lane connection and hand
//! the fresh endpoints to their owning workers.

use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::endpoint::Endpoint;
use super::mesh::Mesh;
use crate::error::FabricError;

/// A break report from a progress worker to worker 0's repair duty.
pub(super) struct RepairReq {
    pub(super) lo: usize,
    pub(super) hi: usize,
    pub(super) lane: usize,
    /// The generation the failing endpoint belonged to (stale reports
    /// for an already-repaired connection are dropped).
    pub(super) gen: u64,
}

/// Hand a fresh endpoint to its owning worker.
pub(super) fn deliver_endpoint(mesh: &Mesh, ep: Endpoint) {
    let Some(&w) = mesh.progress.owners.get(&(ep.here, ep.peer, ep.lane)) else {
        return;
    };
    if let Ok(mut inbox) = mesh.progress.inboxes[w].lock() {
        inbox.push(ep);
    }
    mesh.progress.signals[w].notify();
}

/// Establish one fresh loopback connection pair through the (now
/// nonblocking) listener — we are both sides, so worker 0 connects and
/// accepts itself. Returns nodelay'd, nonblocking streams.
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
/// sockets, reconnect, and hand fresh endpoints to their owners. On
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
        Ok((out, inn)) => match (out.try_clone(), inn.try_clone()) {
            (Ok(lo_stream), Ok(hi_stream)) => {
                // Bumping the generation retires the superseded
                // endpoints before their replacements can race them for
                // queued frames.
                let new_gen = entry.gen.fetch_add(1, Ordering::Relaxed) + 1;
                entry.out = out;
                entry.inn = inn;
                for (here, peer, stream) in
                    [(req.lo, req.hi, lo_stream), (req.hi, req.lo, hi_stream)]
                {
                    let Some(ep) =
                        Endpoint::new(mesh, (here, peer, req.lane), new_gen, &entry.gen, stream)
                    else {
                        continue;
                    };
                    deliver_endpoint(mesh, ep);
                }
            }
            _ => mesh.record(FabricError::LaneDead {
                lane: req.lane,
                detail: "could not clone repaired streams for endpoints".into(),
            }),
        },
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

/// Worker 0's repair duty: drain and process the break-report queue.
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
