//! Admission control: a token-bucket NIC-byte budget shared by every
//! job, plus per-job deficit round robin so no tenant's queue starves.
//!
//! A collective's cost is its [`nic_bytes`] — the sum of its recorded
//! schedule's `ISend` payloads, exactly the bytes it will put on the
//! fabric (node-local steps included, since the engine charges those
//! as sent too), computed once per cached shape. Admission is all-or-nothing at collective granularity:
//! phases of an admitted collective are never throttled mid-flight
//! (they hold tag state and peer ranks are waiting), so the budget
//! gates *starts*, which is where a storm of tenants actually contends.
//!
//! Fairness invariant (checked by the storm bench): over any window in
//! which every job has queued work, admitted bytes per job differ by at
//! most one quantum plus one maximal collective — the classic DRR
//! bound. The scheduler credits each job's deficit by one quantum per
//! pass and admits from a job's FIFO head while its deficit covers the
//! head's cost; an empty queue forfeits the credit (deficits don't
//! accumulate while idle, so a returning job can't burst).
//!
//! [`nic_bytes`]: pipmcoll_core::nb::NbColl::nic_bytes

use std::time::Instant;

/// A token bucket metering NIC bytes per second across all jobs.
pub struct TokenBucket {
    /// Bytes per second, `None` = unlimited.
    rate: Option<u64>,
    /// Maximum tokens (burst size), bytes.
    burst: u64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` bytes/sec with `burst` capacity,
    /// starting full. `None` disables metering.
    pub fn new(rate: Option<u64>, burst: u64) -> TokenBucket {
        TokenBucket {
            rate,
            burst: burst.max(1),
            tokens: burst.max(1) as f64,
            last: Instant::now(),
        }
    }

    fn refill(&mut self) {
        let Some(rate) = self.rate else { return };
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * rate as f64).min(self.burst as f64);
    }

    /// Return `bytes` of unspent tokens: a cancelled or retried
    /// collective paid for its whole schedule at admission but only
    /// `sent` bytes ever reached the wire, so the difference goes back
    /// to the pool (capped at the burst — a refund can't bank more
    /// credit than the bucket can hold).
    pub fn refund(&mut self, bytes: u64) {
        if self.rate.is_none() || bytes == 0 {
            return;
        }
        self.refill();
        self.tokens = (self.tokens + bytes as f64).min(self.burst as f64);
    }

    /// Try to pay `cost` bytes. A cost larger than the whole burst is
    /// admitted when the bucket is full (the bucket then goes deep
    /// negative, stalling everyone until it refills) — otherwise an
    /// oversized collective could never start at all.
    pub fn try_take(&mut self, cost: u64) -> bool {
        if self.rate.is_none() {
            return true;
        }
        self.refill();
        let full = self.tokens >= self.burst as f64 - f64::EPSILON;
        if self.tokens >= cost as f64 || (cost > self.burst && full) {
            self.tokens -= cost as f64;
            true
        } else {
            false
        }
    }
}

/// One job's deficit-round-robin lane.
#[derive(Default)]
pub struct DrrLane {
    /// Accumulated credit, bytes.
    pub deficit: u64,
}

impl DrrLane {
    /// Credit one pass's quantum (capped so an idle-then-busy job can't
    /// have banked unbounded credit through scheduler passes where its
    /// queue was momentarily empty mid-drain).
    pub fn credit(&mut self, quantum: u64, cap: u64) {
        self.deficit = (self.deficit + quantum).min(cap);
    }

    /// Whether the lane can pay `cost`, and if so, pay it.
    pub fn try_pay(&mut self, cost: u64) -> bool {
        if self.deficit >= cost {
            self.deficit -= cost;
            true
        } else {
            false
        }
    }

    /// Forfeit banked credit (queue went empty).
    pub fn forfeit(&mut self) {
        self.deficit = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_bucket_always_admits() {
        let mut b = TokenBucket::new(None, 1);
        for _ in 0..100 {
            assert!(b.try_take(u64::MAX / 2));
        }
    }

    #[test]
    fn bucket_blocks_when_drained_and_refills_over_time() {
        let mut b = TokenBucket::new(Some(1_000_000), 1000);
        assert!(b.try_take(1000), "starts full");
        assert!(!b.try_take(1000), "drained");
        std::thread::sleep(Duration::from_millis(5));
        // 5 ms at 1 MB/s ≈ 5000 tokens, capped at the 1000 burst.
        assert!(b.try_take(1000), "refilled after sleep");
    }

    #[test]
    fn oversized_cost_admits_only_from_full() {
        let mut b = TokenBucket::new(Some(1_000_000_000), 100);
        assert!(b.try_take(5000), "oversized from a full bucket");
        assert!(
            !b.try_take(5000),
            "bucket is deep negative; a second oversized must wait"
        );
    }

    #[test]
    fn refund_returns_unspent_tokens_up_to_burst() {
        let mut b = TokenBucket::new(Some(1), 1000); // ~no refill
        assert!(b.try_take(1000));
        assert!(!b.try_take(600), "drained");
        b.refund(600);
        assert!(b.try_take(600), "refund restored the tokens");
        // Refunds cap at the burst: over-refunding can't bank credit.
        b.refund(u64::MAX / 2);
        assert!(b.try_take(1000));
        assert!(!b.try_take(1000), "only one burst's worth came back");
        // A refund on an unmetered bucket is a no-op.
        TokenBucket::new(None, 1).refund(123);
    }

    #[test]
    fn drr_lane_pays_only_with_credit() {
        let mut l = DrrLane::default();
        assert!(!l.try_pay(10));
        l.credit(8, 100);
        assert!(!l.try_pay(10));
        l.credit(8, 100);
        assert!(l.try_pay(10));
        assert_eq!(l.deficit, 6);
        l.forfeit();
        assert_eq!(l.deficit, 0);
    }

    #[test]
    fn drr_credit_is_capped() {
        let mut l = DrrLane::default();
        for _ in 0..1000 {
            l.credit(50, 200);
        }
        assert_eq!(l.deficit, 200);
    }
}
