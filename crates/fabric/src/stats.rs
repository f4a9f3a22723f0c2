//! Per-lane traffic counters and latency histograms — the observables
//! that let benches and tests confirm a node's ranks spread their
//! messages over its lanes and that the ack path stays fast.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters for one lane (one object of the transport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Messages accepted for transmission on this lane.
    pub msgs: u64,
    /// Payload bytes accepted on this lane.
    pub bytes: u64,
    /// Times a sender blocked because this lane's bounded queue was full.
    pub stalls: u64,
}

/// A lock-free log2-bucketed latency histogram. Recording is two atomic
/// ops on the hot path; percentiles are computed at snapshot time from
/// the bucket counts. A percentile is reported as the *geometric
/// midpoint* of its bucket (`2^(i+0.5)` ns for bucket `i`), so the
/// reported value is within a factor of √2 of the true percentile in
/// either direction — an unbiased ±√2 bound, where the previous
/// upper-bound convention inflated every percentile by up to 2×.
pub struct LatencyHist {
    /// `buckets[i]` counts samples with `floor(log2(ns)) == i`
    /// (bucket 0 also holds sub-nanosecond samples).
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist::default()
    }

    /// Forget every sample. The brownout detector wipes a restored
    /// lane's history with this, so degraded-era samples cannot keep
    /// re-demoting a lane that has recovered.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Record one sample.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1);
        let bucket = 63 - ns.leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time percentile summary. An empty histogram reports
    /// `None` percentiles — "no samples" is observably different from a
    /// genuine sub-microsecond measurement.
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return LatencySnapshot::default();
        }
        // A percentile lands in the bucket where the running count
        // crosses it; report the bucket's geometric midpoint (2^(i+0.5)
        // ns, rounded to µs) — the unbiased representative of a log2
        // bucket, accurate to within ×/÷ √2. The old upper-bound
        // convention quantized every percentile onto powers of two
        // (1049/2098/4195 µs...) and overstated by up to 2×.
        let pick = |p: f64| {
            let target = ((total as f64) * p).ceil() as u64;
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let mid_ns = (1u64 << i) as f64 * std::f64::consts::SQRT_2;
                    return Some((mid_ns / 1000.0).round() as u64);
                }
            }
            None
        };
        LatencySnapshot {
            count: total,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
        }
    }
}

/// Percentile summary of a [`LatencyHist`] (integer µs so stats stay
/// `Eq`-comparable). Percentiles are `None` when no samples were
/// recorded — previously an empty histogram snapshotted as `0`, which
/// made "nothing was measured" look like "the ack RTT is zero" in
/// `BENCH_fabric.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median, in microseconds (geometric midpoint of its log2 bucket,
    /// ±√2); `None` if no samples were recorded.
    pub p50_us: Option<u64>,
    /// 99th percentile, in microseconds (geometric midpoint of its log2
    /// bucket, ±√2); `None` if no samples were recorded.
    pub p99_us: Option<u64>,
}

/// A snapshot of a fabric's traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// One entry per lane, in lane order.
    pub lanes: Vec<LaneStats>,
    /// Messages between ranks of one node, which never touch a lane
    /// (delivered through the shared address space).
    pub local_msgs: u64,
    /// Payload bytes of node-local messages.
    pub local_bytes: u64,
    /// Payload-bearing frames retransmitted because no ack arrived in
    /// time (loss on the wire, injected or real).
    pub retransmits: u64,
    /// Standalone ACK frames written: acks no payload frame going the
    /// other way on the lane could carry. 0 for backends without acks.
    pub ack_frames: u64,
    /// Wire re-deliveries suppressed by receiver sequence dedup.
    pub dups_dropped: u64,
    /// Inbound frames discarded because their CRC-32C failed (line
    /// noise, real or injected). Each one is recovered by the sender's
    /// retransmit exactly like a dropped frame — a non-zero count with
    /// correct results is the integrity layer working.
    pub corrupt_frames: u64,
    /// Eager frames the sending thread wrote onto the socket itself
    /// instead of queueing them for the progress thread; 0 for backends
    /// without sockets.
    pub inline_sends: u64,
    /// Frames a rank waiting in a receive decoded from the socket itself
    /// instead of the progress thread; 0 for backends without sockets.
    pub rank_reads: u64,
    /// Payload frames a thread driving the fabric ([`Fabric::drive`])
    /// wrote onto or decoded from a socket itself instead of the
    /// progress thread; 0 for backends without sockets.
    ///
    /// [`Fabric::drive`]: crate::Fabric::drive
    pub driver_frames: u64,
    /// Payload bytes the fabric copied in user space on the send side.
    /// The sender's message moves into its frame whole, so this stays 0
    /// without faults; a chaos bit-flip or a lane migration copies the
    /// frame it alters.
    pub send_copied_bytes: u64,
    /// Payload bytes the fabric copied in user space on the receive side:
    /// the part of a payload that a socket read buffered together with
    /// its frame's header, copied into the message. The rest is read
    /// straight into the message, so this never exceeds the payload
    /// bytes received.
    pub recv_copied_bytes: u64,
    /// Round-trip time from first transmission of an eager frame to the
    /// lane's cumulative ack that covered it (never from retransmissions
    /// — their acks are ambiguous).
    pub ack_rtt: LatencySnapshot,
    /// Deepest any control queue (the unbounded ack, retransmit and
    /// heartbeat side of a lane's send queue) ever got — visibility into the one
    /// queue backpressure cannot bound.
    pub ctrl_queue_hwm: u64,
}

impl FabricStats {
    /// Total messages accepted across all lanes (excluding node-local).
    pub fn total_msgs(&self) -> u64 {
        self.lanes.iter().map(|l| l.msgs).sum()
    }

    /// Total payload bytes accepted across all lanes (excluding
    /// node-local).
    pub fn total_bytes(&self) -> u64 {
        self.lanes.iter().map(|l| l.bytes).sum()
    }

    /// Total backpressure stalls across all lanes.
    pub fn total_stalls(&self) -> u64 {
        self.lanes.iter().map(|l| l.stalls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_lanes() {
        let s = FabricStats {
            lanes: vec![
                LaneStats {
                    msgs: 2,
                    bytes: 10,
                    stalls: 1,
                },
                LaneStats {
                    msgs: 3,
                    bytes: 20,
                    stalls: 0,
                },
            ],
            local_msgs: 7,
            local_bytes: 70,
            ..FabricStats::default()
        };
        assert_eq!(s.total_msgs(), 5);
        assert_eq!(s.total_bytes(), 30);
        assert_eq!(s.total_stalls(), 1);
    }

    #[test]
    fn empty_histogram_snapshots_to_none() {
        let s = LatencyHist::new().snapshot();
        assert_eq!(s, LatencySnapshot::default());
        assert_eq!(s.p50_us, None, "no samples must not read as 0µs");
        assert_eq!(s.p99_us, None);
    }

    #[test]
    fn percentiles_bracket_the_samples() {
        let h = LatencyHist::new();
        // 98 samples at ~1µs, two at ~1ms: the median stays in the fast
        // bucket while the 99th sample (the first outlier) sets p99.
        for _ in 0..98 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        h.record(Duration::from_millis(1));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // 1µs = 1000ns → bucket 9 (512..1024ns), geometric midpoint
        // 512·√2 ≈ 724ns → 1µs.
        assert_eq!(s.p50_us, Some(1));
        // 1ms = 1e6 ns → bucket 19 (524288..1048576ns), midpoint
        // 524288·√2 ≈ 741456ns → 741µs — not the power-of-two 1049.
        assert_eq!(s.p99_us, Some(741));
    }

    #[test]
    fn midpoints_are_never_power_of_two_quantized() {
        // The bug this guards against: percentiles reported as exact
        // bucket upper bounds (2^n ns), which read as measurements but
        // are quantization artifacts.
        let h = LatencyHist::new();
        h.record(Duration::from_micros(900));
        let p50 = h.snapshot().p50_us.expect("one sample recorded");
        let ns = p50 * 1000;
        assert!(!ns.is_power_of_two(), "p50 {p50}µs is a bucket bound");
        // The midpoint is within ×/÷√2 of the true 900µs sample.
        assert!((637..=1273).contains(&p50), "p50 {p50}µs outside ±√2");
    }

    #[test]
    fn extreme_samples_do_not_panic() {
        let h = LatencyHist::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.snapshot().count, 2);
    }
}
