//! The progress thread's timer duties: the retransmit scan (with the
//! lane acks nobody else wrote and the moves off dead lanes), the
//! heartbeat tick and the brownout (gray-failure) window.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::lane::{LaneRx, PendingFrame, ACK_BATCH};
use super::mesh::Mesh;
use super::LaneKey;
use crate::chaos::{ChaosRng, FrameFate};
use crate::error::FabricError;
use crate::wire::{Frame, FrameKind};

/// Per-lane ack-RTT p99 that demotes a lane — the slow-lane half of
/// the brownout score.
const BROWNOUT_P99: Duration = Duration::from_millis(250);

/// The retransmit duty, one scan over every directed lane. A
/// dead lane's unacked frames move onto the survivors. On a live lane,
/// the ack owed since the previous scan is written, and up to
/// [`ACK_BATCH`] timed-out frames are re-sent on the lane, oldest first
/// (the gap the receiver is stuck on, then frames that arrived behind
/// it or were lost with it), with exponential backoff and jitter. The
/// oldest frame's spent budget draws a typed [`FabricError::PeerDead`]
/// verdict, once; it keeps being re-sent at the capped backoff, since a
/// frame leaves its ring only when acked or when its lane dies.
pub(super) fn retransmit_pass(mesh: &Mesh, rng: &mut ChaosRng) {
    let now = Instant::now();
    for &key in mesh.queues.keys() {
        if mesh.killed[key.2].load(Ordering::Relaxed) {
            migrate(mesh, key);
            continue;
        }
        mesh.ack_lane(key, false, LaneRx::take_aged);
        let Ok(mut ring) = mesh.slot(key).tx.frames.lock() else {
            continue;
        };
        let head = ring.front().map(|p| p.lseq);
        let due = ring.iter_mut().filter(|p| now >= p.next_at);
        for p in due.take(ACK_BATCH as usize) {
            if p.attempts == mesh.cfg.max_retransmits && Some(p.lseq) == head {
                // The strongest local death verdict the transport can
                // reach: the whole budget spent with no ack.
                mesh.record_dead_peer(p.chan.1, p.seq, p.attempts);
                mesh.record(FabricError::PeerDead {
                    peer: p.chan.1,
                    last_seq: p.seq,
                    attempts: p.attempts,
                });
            }
            p.attempts = p.attempts.saturating_add(1);
            let backoff = mesh.cfg.rto * 2u32.saturating_pow(p.attempts).min(64);
            let jittered = backoff.mul_f64(0.75 + 0.5 * rng.unit());
            p.next_at = now + jittered.min(Duration::from_secs(1));
            // Counted before the push: once pushed, a caller may observe
            // the recovery, and `retransmits` must not lag it.
            mesh.retransmits.fetch_add(1, Ordering::Relaxed);
            // The lane lost the frame: the brownout health score.
            mesh.lane_retransmits[key.2].fetch_add(1, Ordering::Relaxed);
            // A refcount on the pooled bytes, not a copy.
            mesh.push_ctrl_to(key.0, key.1, key.2, p.buf.clone());
        }
    }
}

/// Move every unacked frame of dead lane `key` onto the lane its sender
/// rides now, in order, each as a fresh frame of that lane (see
/// [`Frame::restamp`]). The receiver's channel dedup absorbs the copies
/// of frames that did arrive.
fn migrate(mesh: &Mesh, (from, to, dead): LaneKey) {
    let moved: Vec<PendingFrame> = match mesh.slot((from, to, dead)).tx.frames.lock() {
        Ok(mut ring) if !ring.is_empty() => ring.drain(..).collect(),
        _ => return,
    };
    let rto = mesh.cfg.rto;
    for p in moved {
        let Some(lane) = mesh.effective_lane(p.chan.0) else {
            continue; // Never: the last lane cannot die.
        };
        let ring = &mesh.slot((from, to, lane)).tx;
        let lseq = ring.reserve();
        let mut buf = mesh.copy_frame(&p.buf);
        if let Some((header, payload)) = buf.parts_mut() {
            Frame::restamp(header, payload, lseq);
        }
        ring.insert(PendingFrame::new(lseq, p.chan, p.seq, buf.clone(), rto));
        mesh.push_ctrl_to(from, to, lane, buf);
    }
}

/// The heartbeat duty: one tick of the liveness sideband. Emits
/// a standalone beat for each directed node pair whose outbound traffic
/// has gone quiet for a full interval — busy pairs never see one, their
/// regular frames *are* the beats — and promotes pairs silent past the
/// miss budget to suspected. Suspicion is node-granular and advisory:
/// the runtime's agreement protocol decides which *ranks* are dead.
pub(super) fn heartbeat_pass(mesh: &Mesh) {
    let interval = mesh.cfg.heartbeat;
    let budget = interval * mesh.cfg.heartbeat_misses.max(1);
    let nodes = mesh.topo.nodes();
    let now = mesh.now_nanos();
    for a in 0..nodes {
        for b in 0..nodes {
            if a == b {
                continue;
            }
            let idx = mesh.pair(a, b);
            // Promote silence past the budget to suspicion. An unheard
            // pair (0) is aged from construction.
            let heard = mesh.last_heard[idx].load(Ordering::Relaxed);
            if Duration::from_nanos(now.saturating_sub(heard)) > budget {
                mesh.hb_suspected[idx].store(true, Ordering::Relaxed);
            }
            // Emit a's beat towards b when a→b has been quiet.
            if mesh.muted[a].load(Ordering::Relaxed) {
                continue;
            }
            let sent = mesh.last_sent[idx].load(Ordering::Relaxed);
            if Duration::from_nanos(now.saturating_sub(sent)) < interval {
                continue;
            }
            // Beat over a healthy lane when one exists; a browned lane
            // only carries beats when nothing better survives.
            let Some(lane) = (0..mesh.cfg.lanes)
                .find(|&l| mesh.lane_usable(l))
                .or_else(|| mesh.alive_lanes().first().copied())
            else {
                continue;
            };
            let beat = mesh.ctrl_frame(FrameKind::Heartbeat, a, b, 0);
            if mesh.push_ctrl_to(a, b, lane, beat) {
                mesh.note_sent(a, b);
            }
        }
    }
}

/// The brownout duty: one evaluation window of the gray-failure
/// detector. Per lane, the health score is the retransmit delta blamed
/// on it this window plus its cumulative ack-RTT p99; an over-threshold
/// lane is *demoted* — excluded from fresh lane selection via the
/// usable-lane filter, reported in [`FabricHealth::browned_lanes`] —
/// but its endpoints stay up. Each window a demoted lane gets a probe
/// heartbeat; the first frame heard on the lane after demotion is the
/// recovery evidence that restores it (and wipes its RTT history, so
/// stale degradation cannot immediately re-demote). Demotion never
/// takes the last usable lane: with nothing healthy left, degraded
/// delivery beats none — that escalation belongs to the fail-stop
/// machinery, not brownout.
pub(super) fn brownout_pass(mesh: &Mesh, prev: &mut [u64]) {
    let nodes = mesh.topo.nodes();
    let chaos = mesh.chaos();
    for (lane, prev_rtx) in prev.iter_mut().enumerate().take(mesh.cfg.lanes) {
        if mesh.killed[lane].load(Ordering::Relaxed) {
            continue;
        }
        let total = mesh.lane_retransmits[lane].load(Ordering::Relaxed);
        let delta = total.saturating_sub(*prev_rtx);
        *prev_rtx = total;
        if mesh.browned[lane].load(Ordering::Relaxed) {
            let heard = mesh.lane_heard[lane].load(Ordering::Relaxed);
            let since = mesh.browned_since[lane].load(Ordering::Relaxed);
            if heard > since {
                // A frame crossed the lane after demotion: the gray
                // failure lifted. Restore it and forget the degraded
                // RTT samples.
                mesh.browned[lane].store(false, Ordering::Relaxed);
                mesh.lane_rtt[lane].clear();
                continue;
            }
            // Probe: a heartbeat pushed over the browned lane itself
            // (regular traffic avoids it, so nothing else would ever
            // cross it again). The probe rolls the same chaos fate as
            // data — a still-degraded lane eats it and the lane stays
            // demoted.
            if nodes >= 2 {
                let fate = chaos
                    .as_ref()
                    .map_or(FrameFate::Deliver, |c| c.fate_for(0, 1, lane));
                if fate != FrameFate::Drop {
                    let beat = mesh.ctrl_frame(FrameKind::Heartbeat, 0, 1, 0);
                    mesh.push_ctrl_to(0, 1, lane, beat);
                }
            }
            continue;
        }
        let p99_over = mesh.lane_rtt[lane]
            .snapshot()
            .p99_us
            .is_some_and(|p99| p99 >= BROWNOUT_P99.as_micros() as u64);
        if delta >= mesh.cfg.brownout_retransmits.max(1) || p99_over {
            let usable_others = (0..mesh.cfg.lanes)
                .filter(|&l| l != lane && mesh.lane_usable(l))
                .count();
            if usable_others >= 1 {
                mesh.browned_since[lane].store(mesh.now_nanos(), Ordering::Relaxed);
                mesh.browned[lane].store(true, Ordering::Relaxed);
            }
        }
    }
}
