//! A reusable barrier whose wait can give up: the fail-stop runtime must
//! never block forever on a peer that has already failed.
//!
//! `std::sync::Barrier` is all-or-nothing — if one rank dies before
//! arriving, every other rank blocks until the process is killed. The
//! cluster runner instead uses this generation-counted barrier: a rank
//! that waits longer than its timeout gets a structured error (which the
//! runner records as a [`crate::cluster::RankFailure`]) and unwinds
//! normally, so a single hung or failed rank degrades the run into a
//! diagnostic instead of a wedged test suite.

use std::sync::Mutex;
use std::time::Duration;

use pipmcoll_fabric::Waiters;

struct BarrierState {
    /// Ranks arrived in the current generation.
    arrived: usize,
    /// Completed generations; waiters leave when this advances.
    generation: u64,
}

/// A reusable `n`-party barrier with timeout-bounded waits.
pub struct TimedBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    waiters: Waiters,
}

impl TimedBarrier {
    /// A barrier for `n` participants (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        TimedBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            waiters: Waiters::new(),
        }
    }

    /// Arrive and wait for the other `n - 1` participants, giving up
    /// after `timeout` with a message naming how many ranks made it.
    ///
    /// A waiter that times out has still *arrived*: if the stragglers
    /// eventually show up the generation completes and later generations
    /// stay aligned — the timeout is a reporting mechanism, not a
    /// cancellation of the rendezvous.
    pub fn wait_within(&self, timeout: Duration) -> Result<(), String> {
        let mut g = self.state.lock().map_err(|_| "barrier lock poisoned")?;
        let my_gen = g.generation;
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation += 1;
            self.waiters.notify(&g);
            return Ok(());
        }
        match self
            .waiters
            .wait_for(g, timeout, |s| (s.generation != my_gen).then_some(()))
            .map_err(|_| "barrier lock poisoned")?
        {
            (_, Some(())) => Ok(()),
            (g, None) => Err(format!(
                "barrier timed out after {:?}: {}/{} ranks arrived",
                timeout, g.arrived, self.n
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn all_parties_release_together() {
        let b = Arc::new(TimedBarrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                b.wait_within(Duration::from_secs(2))
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(TimedBarrier::new(2));
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            for _ in 0..10 {
                b2.wait_within(Duration::from_secs(2)).unwrap();
            }
        });
        for _ in 0..10 {
            b.wait_within(Duration::from_secs(2)).unwrap();
        }
        t.join().unwrap();
    }

    #[test]
    fn missing_party_times_out_with_count() {
        let b = TimedBarrier::new(2);
        let err = b.wait_within(Duration::from_millis(30)).unwrap_err();
        assert!(err.contains("1/2"), "{err}");
    }

    #[test]
    fn late_straggler_still_completes_the_generation() {
        let b = Arc::new(TimedBarrier::new(2));
        // First waiter gives up...
        assert!(b.wait_within(Duration::from_millis(20)).is_err());
        // ...but its arrival counted, so the straggler completes the
        // generation instantly and the barrier stays usable.
        assert!(b.wait_within(Duration::from_secs(1)).is_ok());
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || b2.wait_within(Duration::from_secs(2)));
        b.wait_within(Duration::from_secs(2)).unwrap();
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn lost_wakeup_barrier_generations() {
        // Two of three parties park in every generation; a completion
        // that skipped the notify would leave them parked for the whole
        // timeout.
        const GENERATIONS: usize = 10_000;
        const T: Duration = Duration::from_secs(5);
        let b = Arc::new(TimedBarrier::new(3));
        let parties: Vec<_> = (0..3)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for generation in 0..GENERATIONS {
                        let t0 = std::time::Instant::now();
                        b.wait_within(T).unwrap();
                        assert!(
                            t0.elapsed() < T,
                            "generation {generation} waited out its timeout: a wake-up was lost"
                        );
                    }
                })
            })
            .collect();
        for p in parties {
            p.join().unwrap();
        }
    }
}
