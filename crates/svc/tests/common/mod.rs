//! Checks shared by the service's integration tests.

use pipmcoll_svc::SvcStats;

/// Assert the exactly-once and slot-conservation invariants on a
/// drained service, whose jobs (in communicator order) submitted
/// `submitted[i]` requests each: every request resolved exactly one
/// way, nothing is queued or in flight, no slot is held, and each
/// job's `2^seq_bits` slots are all free or quarantined.
pub fn assert_drained(stats: &SvcStats, seq_bits: u32, submitted: &[u64]) {
    assert_eq!(stats.jobs.len(), submitted.len(), "job count");
    assert_eq!(stats.inflight, 0, "collectives still in flight");
    for (j, &n) in stats.jobs.iter().zip(submitted) {
        assert_eq!(
            j.completed + j.failed + j.cancelled + j.deadline_expired,
            n,
            "job {}: {} completed + {} failed + {} cancelled + {} expired != {n} submitted",
            j.comm,
            j.completed,
            j.failed,
            j.cancelled,
            j.deadline_expired
        );
        assert_eq!(j.queue_depth, 0, "job {} still queues work", j.comm);
        assert_eq!(j.slots_held, 0, "job {} leaked seq slots", j.comm);
        assert_eq!(
            j.slots_free + j.slots_quarantined,
            1 << seq_bits,
            "job {} slot conservation",
            j.comm
        );
    }
}
