//! The progress-pool worker loop and the pool's size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::duties::{brownout_pass, heartbeat_pass, retransmit_pass};
use super::mesh::Mesh;
use super::repair::repair_pass;
use super::{LaneKey, TcpConfig};
use crate::chaos::ChaosRng;

/// Staging budget for one worker *cycle*, shared across its endpoints:
/// each endpoint's per-pass refill target is this divided by the
/// worker's endpoint count (floored at [`STAGE_MIN`]). Budgeting the
/// cycle rather than the endpoint keeps a worker's round-trip time —
/// and therefore ack latency — roughly constant as lanes multiply,
/// instead of growing linearly with endpoints.
const BATCH_MAX: usize = 256 * 1024;

/// Per-endpoint refill floor: enough to fill a `write_vectored` batch
/// of small frames, so heavily-subscribed workers still amortize the
/// queue lock and the syscall over dozens of frames.
const STAGE_MIN: usize = 4 * 1024;

/// The progress-pool worker loop. Every worker drives the halves of its
/// owned endpoints that no rank is driving at the moment; worker 0
/// additionally runs the retransmit, heartbeat and repair timer duties.
/// A cycle that makes no progress parks the worker on its
/// [`WorkSignal`] with a bounded timeout (worker 0's bounded by its next
/// timer deadline), after which it re-scans every owned endpoint — so
/// bytes no rank picked up are always delivered.
pub(super) fn worker_loop(mesh: Arc<Mesh>, widx: usize) {
    // The census was incremented at spawn time (so a fresh fabric's
    // count is accurate before the OS schedules us); this guard only
    // decrements, on every exit path including panic.
    struct Census<'a>(&'a AtomicUsize);
    impl Drop for Census<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _census = Census(&mesh.progress.live);

    let rt_tick = (mesh.cfg.rto / 4).max(Duration::from_millis(1));
    let hb_enabled = widx == 0 && !mesh.cfg.heartbeat.is_zero();
    let hb_tick = (mesh.cfg.heartbeat / 2).max(Duration::from_millis(1));
    let bw_enabled = widx == 0 && !mesh.cfg.brownout_window.is_zero();
    let bw_tick = mesh.cfg.brownout_window.max(Duration::from_millis(1));
    let mut next_rt = Instant::now() + rt_tick;
    let mut next_hb = Instant::now() + hb_tick;
    let mut next_bw = Instant::now() + bw_tick;
    // Per-lane retransmit totals at the last brownout window boundary.
    let mut bw_prev = vec![0u64; mesh.cfg.lanes];
    // Jitter decorrelates retransmit bursts; a fixed seed keeps runs
    // reproducible.
    let mut rng = ChaosRng::new(0xF0F0_F0F0 ^ widx as u64);
    let mut owned: Vec<LaneKey> = mesh
        .queues
        .keys()
        .copied()
        .filter(|&key| mesh.slot(key).owner == widx)
        .collect();
    owned.sort_unstable();
    let stage = stage_share(owned.len());
    loop {
        // Epoch read precedes the work scan: anything enqueued after
        // this line bumps the epoch and cuts the park short.
        let seen = mesh.progress.signals[widx].epoch();
        if mesh.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut progressed = false;
        if widx == 0 {
            let now = Instant::now();
            if now >= next_rt {
                retransmit_pass(&mesh, &mut rng);
                next_rt = now + rt_tick;
            }
            if hb_enabled && now >= next_hb {
                heartbeat_pass(&mesh);
                next_hb = now + hb_tick;
            }
            if bw_enabled && now >= next_bw {
                brownout_pass(&mesh, &mut bw_prev);
                next_bw = now + bw_tick;
            }
            progressed |= repair_pass(&mesh);
        }
        for &key in &owned {
            // A half a rank holds right now is skipped; the rank owes
            // this worker a re-read or a re-notify (see `Half`).
            let slot = mesh.slot(key);
            progressed |= slot.write.write(&mesh, key, stage).unwrap_or(false);
            progressed |= slot.read.read(&mesh, key, false).unwrap_or(false);
        }
        if progressed {
            continue;
        }
        let cap = if widx == 0 {
            let mut deadline = next_rt;
            if hb_enabled {
                deadline = deadline.min(next_hb);
            }
            if bw_enabled {
                deadline = deadline.min(next_bw);
            }
            deadline
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(10))
        } else {
            Duration::from_millis(10)
        };
        mesh.progress.signals[widx].wait(seen, cap);
    }
}

/// The per-endpoint staging share of a cycle over `endpoints`
/// endpoints: the cycle budget split across them, so cycle time (and
/// ack RTT) stays flat-ish as lanes multiply.
pub(super) fn stage_share(endpoints: usize) -> usize {
    (BATCH_MAX / endpoints.max(1)).max(STAGE_MIN)
}

/// Resolve the progress-pool size for this fabric: the configured (or
/// auto) size, capped at the endpoint count — a single-node fabric
/// spawns no progress threads at all.
pub(super) fn resolve_pool_size(cfg: &TcpConfig, endpoints: usize) -> usize {
    if endpoints == 0 {
        return 0;
    }
    let want = match cfg.progress_threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4),
        n => n,
    };
    want.min(endpoints).max(1)
}
