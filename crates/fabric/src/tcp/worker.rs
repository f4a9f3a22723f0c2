//! The progress thread's loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::duties::{brownout_pass, heartbeat_pass, retransmit_pass};
use super::mesh::Mesh;
use super::repair::repair_pass;
use super::LaneKey;
use crate::chaos::ChaosRng;

/// Staging budget for one progress *pass*, shared across the endpoints:
/// each endpoint's per-pass refill target is this divided by the
/// endpoint count (floored at [`STAGE_MIN`]). Budgeting the pass rather
/// than the endpoint keeps the pass's round-trip time — and therefore
/// ack latency — roughly constant as lanes multiply, instead of growing
/// linearly with endpoints.
const BATCH_MAX: usize = 256 * 1024;

/// Per-endpoint refill floor: enough to fill a `write_vectored` batch
/// of small frames, so a mesh of many endpoints still amortizes the
/// queue lock and the syscall over dozens of frames.
const STAGE_MIN: usize = 4 * 1024;

/// Longest park of a pass that made no progress, whatever the timers.
const PARK_MAX: Duration = Duration::from_millis(10);

/// The progress thread's loop. Each pass runs the retransmit, heartbeat
/// and brownout duties that are due and the repair queue, then drives
/// the halves of every endpoint that no rank is driving at the moment.
/// A pass that makes no progress parks on the [`WorkSignal`] until the
/// next timer deadline, at most [`PARK_MAX`], after which the thread
/// re-scans every endpoint — so bytes no rank picked up are always
/// delivered.
///
/// [`WorkSignal`]: crate::wait::WorkSignal
pub(super) fn worker_loop(mesh: Arc<Mesh>) {
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
    let hb_enabled = !mesh.cfg.heartbeat.is_zero();
    let hb_tick = (mesh.cfg.heartbeat / 2).max(Duration::from_millis(1));
    let bw_enabled = !mesh.cfg.brownout_window.is_zero();
    let bw_tick = mesh.cfg.brownout_window.max(Duration::from_millis(1));
    let mut next_rt = Instant::now() + rt_tick;
    let mut next_hb = Instant::now() + hb_tick;
    let mut next_bw = Instant::now() + bw_tick;
    // Per-lane retransmit totals at the last brownout window boundary.
    let mut bw_prev = vec![0u64; mesh.cfg.lanes];
    // Jitter decorrelates retransmit bursts; a fixed seed keeps runs
    // reproducible.
    let mut rng = ChaosRng::new(0xF0F0_F0F0);
    let mut endpoints: Vec<LaneKey> = mesh.queues.keys().copied().collect();
    endpoints.sort_unstable();
    let stage = stage_share(endpoints.len());
    let signal = &mesh.progress.signal;
    loop {
        // Epoch read precedes the work scan: anything enqueued after
        // this line bumps the epoch and cuts the park short.
        let seen = signal.epoch();
        if mesh.shutdown.load(Ordering::Relaxed) {
            return;
        }
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
        let mut progressed = repair_pass(&mesh);
        for &key in &endpoints {
            // A half a rank holds right now is skipped; the rank owes
            // this thread a re-read or a re-notify (see `Half`).
            let slot = mesh.slot(key);
            progressed |= slot.write.write(&mesh, key, stage).unwrap_or(false);
            progressed |= slot.read.read(&mesh, key, false).unwrap_or(false);
        }
        if progressed {
            continue;
        }
        let mut deadline = next_rt;
        if hb_enabled {
            deadline = deadline.min(next_hb);
        }
        if bw_enabled {
            deadline = deadline.min(next_bw);
        }
        let cap = deadline.saturating_duration_since(Instant::now());
        signal.wait(seen, cap.min(PARK_MAX));
    }
}

/// The per-endpoint staging share of a pass over `endpoints`
/// endpoints: the pass budget split across them, so pass time (and
/// ack RTT) stays flat-ish as lanes multiply.
pub(super) fn stage_share(endpoints: usize) -> usize {
    (BATCH_MAX / endpoints.max(1)).max(STAGE_MIN)
}
