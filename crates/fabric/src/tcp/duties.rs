//! Worker 0's timer duties: the retransmit scan, the heartbeat tick
//! and the brownout (gray-failure) window.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::mesh::Mesh;
use crate::chaos::{ChaosRng, FrameFate};
use crate::error::FabricError;
use crate::pool::FrameBuf;
use crate::wire::{Frame, FrameKind};
use crate::ChanKey;

/// Per-lane ack-RTT p99 that demotes a lane — the slow-lane half of
/// the brownout score.
const BROWNOUT_P99: Duration = Duration::from_millis(250);

/// Worker 0's retransmit duty: one scan re-sending unacked frames with
/// exponential backoff + jitter, converting an exhausted budget into a
/// typed [`FabricError::PeerDead`].
pub(super) fn retransmit_pass(mesh: &Mesh, rng: &mut ChaosRng) {
    let now = Instant::now();
    let mut due: Vec<(ChanKey, usize, FrameBuf)> = Vec::new();
    {
        let Ok(mut pending) = mesh.pending.lock() else {
            mesh.record(FabricError::QueuePoisoned {
                what: "retransmit table",
            });
            return;
        };
        for (&chan, q) in pending.iter_mut() {
            // Only the channel's *head* frame can be the gap the
            // receiver is stuck on — later unacked frames are usually
            // delivered and merely held behind it, so re-sending them
            // would only feed the dedup counter.
            let Some(p) = q.front_mut() else {
                continue;
            };
            if now < p.next_at {
                continue;
            }
            if p.attempts >= mesh.cfg.max_retransmits {
                // The strongest local death verdict the transport can
                // reach: the whole retransmit budget spent with no ack.
                let p = q.pop_front().expect("head just checked");
                mesh.record_dead_peer(chan.1, p.seq, p.attempts);
                mesh.record(FabricError::PeerDead {
                    peer: chan.1,
                    last_seq: p.seq,
                    attempts: p.attempts,
                });
                continue;
            }
            p.attempts += 1;
            let backoff = mesh.cfg.rto * 2u32.saturating_pow(p.attempts).min(64);
            let jittered = backoff.mul_f64(0.75 + 0.5 * rng.unit());
            p.next_at = now + jittered.min(Duration::from_secs(1));
            // Count the attempt *here*, before the frame can reach the
            // wire: once it is pushed the receiver may deliver it and a
            // caller may observe the recovery, so counting after the
            // push makes `stats().retransmits` lag what the fabric
            // demonstrably did (a real test flake).
            mesh.retransmits.fetch_add(1, Ordering::Relaxed);
            // Blame the lane that *lost* the frame (where it last rode)
            // — the brownout health score — then re-route via the
            // current usable-lane stripe, so frames lost on a killed or
            // browned lane migrate to the healthy survivors.
            if let Some(ctr) = mesh.lane_retransmits.get(p.lane) {
                ctr.fetch_add(1, Ordering::Relaxed);
            }
            match mesh.effective_lane(chan.0) {
                Some(lane) => {
                    p.lane = lane;
                    // A refcount on the pooled bytes, not a copy.
                    due.push((chan, lane, p.buf.clone()));
                }
                None => {
                    let seq = p.seq;
                    mesh.record(FabricError::LaneDead {
                        lane: mesh.nominal_lane(chan.0),
                        detail: format!(
                            "no surviving lane to retransmit {} -> {} tag {} seq {seq}",
                            chan.0, chan.1, chan.2
                        ),
                    });
                }
            }
        }
    }
    for (chan, lane, buf) in due {
        let from = mesh.topo.node_of(chan.0);
        let to = mesh.topo.node_of(chan.1);
        mesh.push_ctrl_to(from, to, lane, buf);
    }
}

/// Worker 0's heartbeat duty: one tick of the liveness sideband. Emits
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
            let beat = Frame {
                kind: FrameKind::Heartbeat,
                src: mesh.topo.rank_of(a, 0) as u32,
                dst: mesh.topo.rank_of(b, 0) as u32,
                tag: 0,
                seq: 0,
                aux: 0,
                seg_idx: 0,
                seg_count: 0,
                payload: Vec::new(),
            };
            if mesh.push_ctrl_to(a, b, lane, mesh.pool.encode(&beat)) {
                mesh.note_sent(a, b);
            }
        }
    }
}

/// Worker 0's brownout duty: one evaluation window of the gray-failure
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
                    let beat = Frame {
                        kind: FrameKind::Heartbeat,
                        src: mesh.topo.rank_of(0, 0) as u32,
                        dst: mesh.topo.rank_of(1, 0) as u32,
                        tag: 0,
                        seq: 0,
                        aux: 0,
                        seg_idx: 0,
                        seg_count: 0,
                        payload: Vec::new(),
                    };
                    mesh.push_ctrl_to(0, 1, lane, mesh.pool.encode(&beat));
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
