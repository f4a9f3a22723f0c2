//! Per-communicator sequence-slot allocation — the generalization of
//! the retry layer's epoch-tag bitfield.
//!
//! Every collective a job runs needs a tag sub-space no *other*
//! in-flight collective of that job can collide with: the wire tag is
//! `fabric::tag::svc(comm, seq_slot, phase)`, so the sequence slot is
//! the only thing separating collective #7's phase-2 frames from
//! collective #4103's. Slots are a finite resource (2^seq_bits per
//! communicator) and long-lived jobs issue unbounded collectives, so
//! the allocator recycles: a slot returns to the pool when its
//! collective *completes* (every frame it addressed has been received —
//! nothing stale can still match), and is **quarantined forever** when
//! its collective *fails* (a timed-out collective may have frames
//! parked in receive stores indefinitely; reusing its tags would alias
//! them onto a future collective).
//!
//! Exhaustion is deferral, not error: [`TagSpace::acquire`] returns
//! `None` when every slot is held or quarantined, and the scheduler
//! simply leaves the collective queued until a completion frees one.
//!
//! **Cooling window.** Which free slot `acquire` hands out decides how
//! many distinct `(src, dst, tag)` channels a job spreads its traffic
//! over, and every channel owns receive-store, sender-sequence and
//! retransmit entries in the fabric. A released slot first waits in a
//! FIFO of the [`COOL`] most recent releases, then moves to a LIFO
//! stack of ready slots; `acquire` pops the stack and falls back to the
//! FIFO's oldest entry only when the stack is empty (small spaces). A
//! job with at most `d` collectives in flight therefore touches at most
//! `d + COOL` slots however long it runs, so the fabric's per-channel
//! entries stay hot, while a just-released slot still waits for
//! [`COOL`] other releases before it backs another collective (or, in a
//! space too small for that, for every other free slot to be issued).
//!
//! Reuse is safe at any distance: a slot is released only once its
//! collective consumed every frame addressed to its tags, and a wire
//! re-delivery (retransmit, chaos duplicate) carries a per-channel
//! sequence number below the receiver's cursor, which persists across
//! reuse, so the receive store drops it. The cooling window is defence
//! in depth on top of that.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Releases a slot waits behind before it is ready to reissue.
pub const COOL: usize = 64;

/// What a sequence slot is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Reusable: on the ready stack or in the cooling FIFO.
    Free,
    /// Backing an in-flight collective.
    Held,
    /// Retired: its collective failed and stale frames bearing its tag
    /// may exist somewhere in the fabric forever.
    Quarantined,
}

/// A [`TagSpace`]'s slot counts, written by the space on every change
/// so other threads can check conservation at any time.
#[derive(Default)]
pub(crate) struct SlotGauges {
    pub held: AtomicUsize,
    pub free: AtomicUsize,
    pub quarantined: AtomicUsize,
}

/// A bounded, recycling allocator of sequence slots for one
/// communicator.
pub struct TagSpace {
    slots: Vec<Slot>,
    /// Free slots ready to issue, most recently ready on top. Starts
    /// with every slot, lowest on top.
    ready: Vec<u32>,
    /// Released slots, oldest first, waiting for [`COOL`] later
    /// releases before they join `ready`.
    cooling: VecDeque<u32>,
    /// Collectives ever granted a slot.
    issued: u64,
    /// Live gauge: slots currently [`Slot::Held`]. Tracked
    /// incrementally so publishing the gauges costs O(1), not a slot
    /// scan — the admission hot loop changes them every collective.
    held: usize,
    quarantined: usize,
    gauges: Arc<SlotGauges>,
}

impl TagSpace {
    /// An allocator with `2^seq_bits` slots.
    ///
    /// # Panics
    /// Panics if `seq_bits` exceeds the wire field width
    /// ([`pipmcoll_fabric::tag::SVC_SEQ_BITS`]) or is zero.
    pub fn new(seq_bits: u32) -> TagSpace {
        TagSpace::with_gauges(seq_bits, Arc::default())
    }

    /// An allocator with `2^seq_bits` slots that publishes its counts
    /// to `gauges`.
    pub(crate) fn with_gauges(seq_bits: u32, gauges: Arc<SlotGauges>) -> TagSpace {
        assert!(
            (1..=pipmcoll_fabric::tag::SVC_SEQ_BITS).contains(&seq_bits),
            "seq_bits {seq_bits} outside 1..={}",
            pipmcoll_fabric::tag::SVC_SEQ_BITS
        );
        let n = 1u32 << seq_bits;
        TagSpace {
            slots: vec![Slot::Free; n as usize],
            ready: (0..n).rev().collect(),
            cooling: VecDeque::with_capacity(COOL + 1),
            issued: 0,
            held: 0,
            quarantined: 0,
            gauges,
        }
    }

    fn publish(&self) {
        let g = &self.gauges;
        g.held.store(self.held, Ordering::Relaxed);
        g.free.store(self.free(), Ordering::Relaxed);
        g.quarantined.store(self.quarantined, Ordering::Relaxed);
    }

    /// Total slots (2^seq_bits).
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Claim a free slot, or `None` when all are held or quarantined
    /// (caller defers the collective until a release).
    pub fn acquire(&mut self) -> Option<u32> {
        let slot = self.ready.pop().or_else(|| self.cooling.pop_front())?;
        self.slots[slot as usize] = Slot::Held;
        self.issued += 1;
        self.held += 1;
        self.publish();
        Some(slot)
    }

    /// Return a completed collective's slot to the pool, behind the
    /// cooling window.
    ///
    /// # Panics
    /// Panics if the slot is not currently held — releasing a free or
    /// quarantined slot is a scheduler bug.
    pub fn release(&mut self, slot: u32) {
        assert_eq!(
            self.slots[slot as usize],
            Slot::Held,
            "release of slot {slot} that is not held"
        );
        self.slots[slot as usize] = Slot::Free;
        self.held -= 1;
        self.cooling.push_back(slot);
        if self.cooling.len() > COOL {
            let cooled = self.cooling.pop_front().expect("window is non-empty");
            self.ready.push(cooled);
        }
        self.publish();
    }

    /// Retire a failed collective's slot permanently: frames bearing
    /// its tags may linger in receive stores, so it must never back
    /// another collective.
    ///
    /// # Panics
    /// Panics if the slot is not currently held.
    pub fn quarantine(&mut self, slot: u32) {
        assert_eq!(
            self.slots[slot as usize],
            Slot::Held,
            "quarantine of slot {slot} that is not held"
        );
        self.slots[slot as usize] = Slot::Quarantined;
        self.held -= 1;
        self.quarantined += 1;
        self.publish();
    }

    /// Collectives ever granted a slot.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Slots permanently retired by failures.
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Slots currently backing in-flight collectives. O(1).
    pub fn held(&self) -> usize {
        self.held
    }

    /// Slots currently reusable: the ready stack plus the cooling FIFO.
    /// The conservation invariant `held + free + quarantined == size`
    /// holds at all times; a drained scheduler must show `held == 0`.
    /// O(1).
    pub fn free(&self) -> usize {
        self.ready.len() + self.cooling.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use pipmcoll_fabric::ChaosRng;

    use super::*;

    #[test]
    fn acquire_release_cycles_past_the_space_size() {
        let mut ts = TagSpace::new(3); // 8 slots
        let mut seen = Vec::new();
        for _ in 0..50 {
            let s = ts.acquire().expect("a released slot is reusable");
            seen.push(s);
            ts.release(s);
        }
        assert_eq!(ts.issued(), 50);
        let distinct: HashSet<u32> = seen.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            8,
            "50 acquisitions over 8 slots use them all"
        );
        // Consecutive acquisitions never reuse the slot just released.
        for w in seen.windows(2) {
            assert_ne!(w[0], w[1], "back-to-back slot reuse");
        }
    }

    #[test]
    fn exhaustion_defers_instead_of_erroring() {
        let mut ts = TagSpace::new(2); // 4 slots
        let held: Vec<u32> = (0..4).map(|_| ts.acquire().unwrap()).collect();
        assert_eq!(ts.held(), 4);
        assert_eq!(ts.acquire(), None, "all slots held");
        ts.release(held[2]);
        assert_eq!(ts.acquire(), Some(held[2]), "released slot comes back");
    }

    #[test]
    fn quarantined_slots_never_come_back() {
        let mut ts = TagSpace::new(2);
        let s = ts.acquire().unwrap();
        ts.quarantine(s);
        assert_eq!(ts.quarantined(), 1);
        // Drain the remaining three; the quarantined one is never
        // handed out again.
        for _ in 0..3 {
            assert_ne!(ts.acquire(), Some(s));
        }
        assert_eq!(ts.acquire(), None, "only the quarantined slot is left");
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn double_release_is_a_bug() {
        let mut ts = TagSpace::new(1);
        let s = ts.acquire().unwrap();
        ts.release(s);
        ts.release(s);
    }

    /// The quarantine guarantee across seq wrap: a failed collective's
    /// slot is never reissued even after the space recycles many times
    /// past 2^seq_bits subsequent collectives, and slot accounting
    /// stays conserved the whole way.
    #[test]
    fn quarantined_slot_survives_seq_wrap() {
        let seq_bits = 2u32;
        let mut ts = TagSpace::new(seq_bits); // 4 slots
        let dead = ts.acquire().unwrap();
        ts.quarantine(dead);
        let cap = ts.size();
        let mut seen = HashSet::new();
        // 4 × 2^seq_bits subsequent collectives — well past one wrap.
        for i in 0..(4 << seq_bits) {
            let s = ts.acquire().unwrap_or_else(|| panic!("exhausted at {i}"));
            assert_ne!(s, dead, "quarantined slot reissued at collective {i}");
            seen.insert(s);
            assert_eq!(ts.held() + ts.free() + ts.quarantined(), cap);
            ts.release(s);
        }
        assert_eq!(ts.issued(), 1 + (4 << seq_bits));
        assert_eq!(seen.len(), cap - 1, "every live slot was reissued");
        assert_eq!(ts.quarantined(), 1);
        assert_eq!(ts.held(), 0);
        assert_eq!(ts.free(), cap - 1);
    }

    #[test]
    fn distinct_slots_while_held() {
        let mut ts = TagSpace::new(3);
        let mut held = HashSet::new();
        for _ in 0..8 {
            assert!(held.insert(ts.acquire().unwrap()), "duplicate live slot");
        }
    }

    /// A job keeping `depth` collectives in flight touches at most
    /// `depth + COOL` slots, however many it runs.
    #[test]
    fn working_set_stays_within_depth_plus_cooling_window() {
        let depth = 4;
        let mut ts = TagSpace::new(12);
        let mut rng = ChaosRng::new(0x5107);
        let mut live: Vec<u32> = (0..depth).map(|_| ts.acquire().unwrap()).collect();
        let mut touched: HashSet<u32> = live.iter().copied().collect();
        for _ in 0..100_000 {
            // Completions arrive in any order.
            let done = live.swap_remove(rng.range(0, live.len()));
            ts.release(done);
            let s = ts.acquire().unwrap();
            touched.insert(s);
            live.push(s);
        }
        assert_eq!(ts.issued(), 100_000 + depth as u64);
        assert!(
            touched.len() <= depth + COOL,
            "{} distinct slots touched, bound {}",
            touched.len(),
            depth + COOL
        );
    }

    /// With one collective in flight, a slot waits out `COOL` other
    /// releases: no slot repeats within `COOL + 1` consecutive
    /// acquisitions.
    #[test]
    fn released_slot_cools_for_the_whole_window() {
        let mut ts = TagSpace::new(12);
        let mut seen = Vec::new();
        for _ in 0..10_000 {
            let s = ts.acquire().unwrap();
            seen.push(s);
            ts.release(s);
        }
        for (i, w) in seen.windows(COOL + 1).enumerate() {
            let distinct: HashSet<u32> = w.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                w.len(),
                "slot reissued within the window at {i}"
            );
        }
    }

    /// Spaces smaller than the window fall back to the oldest release:
    /// `None` only when every slot is held or quarantined, and the slot
    /// just released is never reissued while another slot is free.
    #[test]
    fn small_spaces_exhaust_only_when_nothing_is_free() {
        for seq_bits in 1..=3 {
            let mut ts = TagSpace::new(seq_bits);
            let mut rng = ChaosRng::new(0xA110C ^ u64::from(seq_bits));
            let mut live: Vec<u32> = Vec::new();
            let mut dead = 0;
            let mut last_released = None;
            for step in 0..20_000 {
                let roll = rng.range(0, 8);
                if roll < 4 || live.is_empty() {
                    let free_before = ts.size() - live.len() - dead;
                    match ts.acquire() {
                        None => assert_eq!(
                            free_before, 0,
                            "seq_bits {seq_bits} step {step}: None with a slot free"
                        ),
                        Some(s) => {
                            if free_before > 1 {
                                assert_ne!(
                                    Some(s),
                                    last_released,
                                    "seq_bits {seq_bits} step {step}: just-released slot \
                                     reissued while another was free"
                                );
                            }
                            live.push(s);
                        }
                    }
                    last_released = None;
                } else if roll < 7 || dead + 1 >= ts.size() {
                    let s = live.swap_remove(rng.range(0, live.len()));
                    ts.release(s);
                    last_released = Some(s);
                } else {
                    let s = live.swap_remove(rng.range(0, live.len()));
                    ts.quarantine(s);
                    dead += 1;
                    last_released = None;
                }
            }
        }
    }

    /// A seeded random run of acquire/release/quarantine conserves the
    /// slot count and never issues a held or quarantined slot.
    #[test]
    fn random_sequence_conserves_slots() {
        for seed in 0..8u64 {
            let mut ts = TagSpace::new(7);
            let cap = ts.size();
            let mut rng = ChaosRng::new(seed);
            // Vecs, not hash sets: the picks below must replay from
            // the seed.
            let mut live: Vec<u32> = Vec::new();
            let mut dead: Vec<u32> = Vec::new();
            for step in 0..50_000 {
                match rng.range(0, 16) {
                    0..=7 => {
                        if let Some(s) = ts.acquire() {
                            assert!(
                                !dead.contains(&s),
                                "seed {seed} step {step}: quarantined {s}"
                            );
                            assert!(
                                !live.contains(&s),
                                "seed {seed} step {step}: {s} already held"
                            );
                            live.push(s);
                        } else {
                            assert_eq!(live.len() + dead.len(), cap);
                        }
                    }
                    8..=14 if !live.is_empty() => {
                        ts.release(live.swap_remove(rng.range(0, live.len())));
                    }
                    15 if !live.is_empty() && dead.len() < cap / 2 => {
                        let s = live.swap_remove(rng.range(0, live.len()));
                        ts.quarantine(s);
                        dead.push(s);
                    }
                    _ => {}
                }
                assert_eq!(ts.held(), live.len());
                assert_eq!(ts.quarantined(), dead.len());
                assert_eq!(ts.held() + ts.free() + ts.quarantined(), cap);
            }
        }
    }
}
