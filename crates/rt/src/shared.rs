//! Shared-address-space primitives: buffers peers may touch, the address
//! board and flag sets. (Point-to-point channel delivery lives in
//! `pipmcoll-fabric`; the runtime goes through its [`Fabric`] trait.)
//!
//! Everything here is built on `std::sync` only — the runtime deliberately
//! has no external dependencies.
//!
//! [`Fabric`]: pipmcoll_fabric::Fabric

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pipmcoll_model::dtype::reduce_into;
use pipmcoll_model::{Datatype, ReduceOp};

/// The runtime-wide blocking-wait timeout, parsed once in
/// `pipmcoll-fabric` and shared by [`Board::fetch`], [`FlagSet::wait`]
/// and the fabric's receives. Override with `PIPMCOLL_SYNC_TIMEOUT_MS`
/// (malformed values panic with a diagnostic).
pub use pipmcoll_fabric::sync_timeout;

use pipmcoll_fabric::Waiters;

/// A fixed-size byte buffer other ranks may read/write, PiP-style.
///
/// # Safety contract
/// Concurrent access must be ordered by the runtime's posts/flags/barriers
/// (which are lock-based and so create happens-before edges). Algorithms
/// are admitted to this runtime only after the schedule-level
/// happens-before analyzer (`pipmcoll_sched::hb`) proves every pair of
/// overlapping same-buffer accesses is ordered by those primitives — a
/// sound vector-clock check, not an interleaving sample.
pub struct SharedBuf {
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: see the type-level contract; all synchronisation is external and
// proven sufficient by the schedule-level happens-before analyzer.
unsafe impl Sync for SharedBuf {}
unsafe impl Send for SharedBuf {}

impl SharedBuf {
    /// A zeroed buffer of `len` bytes.
    pub fn new(len: usize) -> Self {
        SharedBuf {
            data: UnsafeCell::new(vec![0u8; len].into_boxed_slice()),
        }
    }

    /// A buffer initialised with `content`.
    pub fn from_vec(content: Vec<u8>) -> Self {
        SharedBuf {
            data: UnsafeCell::new(content.into_boxed_slice()),
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        // SAFETY: the box's length is immutable after construction.
        unsafe { (*self.data.get()).as_ref().len() }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check(&self, offset: usize, len: usize) {
        // `checked_add`: `offset + len` must not wrap in release builds —
        // a wrapped sum compares `<= self.len()` and would let a wildly
        // out-of-bounds access through.
        let end = offset
            .checked_add(len)
            .unwrap_or_else(|| panic!("shared access [{offset}, {offset}+{len}) overflows usize"));
        assert!(
            end <= self.len(),
            "shared access [{offset}, {end}) exceeds buffer of {}",
            self.len()
        );
    }

    /// Copy `src` into the buffer at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) {
        self.check(offset, src.len());
        // SAFETY: bounds checked; ordering per type contract.
        unsafe {
            let dst = (*self.data.get()).as_mut_ptr().add(offset);
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
    }

    /// Copy `len` bytes at `offset` into `dst`.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        self.check(offset, dst.len());
        // SAFETY: bounds checked; ordering per type contract.
        unsafe {
            let src = (*self.data.get()).as_ptr().add(offset);
            std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr(), dst.len());
        }
    }

    /// Copy out as a fresh vector.
    pub fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        // Validate the range *before* allocating: a wrapped or wild `len`
        // must fail the bounds check, not abort inside the allocator.
        self.check(offset, len);
        // SAFETY: bounds checked; ordering per type contract. Copying
        // from the slice fills the vector in one pass, with no zeroing
        // pass ahead of the copy.
        unsafe {
            let src = (*self.data.get()).as_ptr().add(offset);
            std::slice::from_raw_parts(src, len).to_vec()
        }
    }

    /// Direct buffer-to-buffer copy (the single-copy PiP fast path).
    ///
    /// # Panics
    /// Panics if `src` and `dst` are the same buffer and the two ranges
    /// overlap: the schedule-level discipline (checked by the HB analyzer
    /// and the trace recorder) forbids overlapping copies, so an overlap
    /// reaching this point is a bug that must not be papered over with
    /// `memmove` semantics.
    pub fn copy_between(src: &SharedBuf, soff: usize, dst: &SharedBuf, doff: usize, len: usize) {
        src.check(soff, len);
        dst.check(doff, len);
        if std::ptr::eq(src, dst) && soff < doff + len && doff < soff + len && len > 0 {
            panic!(
                "copy_between: overlapping ranges [{soff}, {}) and [{doff}, {}) \
                 within one buffer violate the region discipline",
                soff + len,
                doff + len
            );
        }
        // SAFETY: bounds checked; ranges proven non-overlapping above (for
        // distinct buffers the allocations cannot alias).
        unsafe {
            let s = (*src.data.get()).as_ptr().add(soff);
            let d = (*dst.data.get()).as_mut_ptr().add(doff);
            std::ptr::copy_nonoverlapping(s, d, len);
        }
    }

    /// Elementwise-reduce `len` bytes of `src` into this buffer at `offset`.
    pub fn reduce_from(
        &self,
        offset: usize,
        src: &SharedBuf,
        soff: usize,
        len: usize,
        op: ReduceOp,
        dt: Datatype,
    ) {
        self.check(offset, len);
        src.check(soff, len);
        // SAFETY: bounds checked; ordering per type contract. The source is
        // snapshotted to keep the reduce kernel on plain slices.
        let tmp = src.read_vec(soff, len);
        unsafe {
            let acc = &mut (&mut *self.data.get())[offset..offset + len];
            reduce_into(op, dt, acc, &tmp);
        }
    }

    /// Take the final contents (consumes the buffer).
    pub fn into_vec(self) -> Vec<u8> {
        self.data.into_inner().into_vec()
    }
}

/// Which buffer of which rank a posted region points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufKey {
    /// Rank `r`'s user send buffer.
    Send(usize),
    /// Rank `r`'s user receive buffer.
    Recv(usize),
    /// Rank `r`'s scratch buffer `i`.
    Temp(usize, usize),
}

/// A posted address: buffer identity plus the posted window.
#[derive(Clone, Copy, Debug)]
pub struct Posted {
    /// Which buffer.
    pub key: BufKey,
    /// Posted window start within the buffer.
    pub offset: usize,
    /// Posted window length.
    pub len: usize,
}

/// One rank's address board: slot → posted region, with blocking lookup.
#[derive(Default)]
pub struct Board {
    /// The posting rank, for diagnostics.
    owner: usize,
    posted: Mutex<HashMap<u16, Posted>>,
    waiters: Waiters,
}

impl Board {
    /// A board owned by rank `owner` (the owner appears in diagnostics).
    pub fn for_rank(owner: usize) -> Self {
        Board {
            owner,
            ..Board::default()
        }
    }

    /// Publish `p` under `slot` (a store + release in real PiP).
    pub fn post(&self, slot: u16, p: Posted) {
        let mut g = self.posted.lock().unwrap();
        g.insert(slot, p);
        self.waiters.notify(&g);
    }

    /// Blocking lookup of `slot`.
    ///
    /// # Panics
    /// Panics after [`sync_timeout`] with the owning rank and slot if the
    /// slot is never posted — an unsynchronized schedule fails in seconds
    /// with context instead of hanging the suite.
    pub fn fetch(&self, slot: u16) -> Posted {
        self.fetch_within(slot, sync_timeout())
    }

    /// [`Board::fetch`] with an explicit timeout.
    pub fn fetch_within(&self, slot: u16, timeout: Duration) -> Posted {
        match self.try_fetch_within(slot, timeout) {
            Ok(p) => p,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Non-panicking [`Board::fetch_within`]: the fail-stop communicator
    /// records the timeout as a rank failure instead of unwinding.
    pub fn try_fetch_within(&self, slot: u16, timeout: Duration) -> Result<Posted, String> {
        let poisoned = || format!("rank {} address board poisoned", self.owner);
        let g = self.posted.lock().map_err(|_| poisoned())?;
        match self
            .waiters
            .wait_for(g, timeout, |posted| posted.get(&slot).copied())
            .map_err(|_| poisoned())?
        {
            (_, Some(p)) => Ok(p),
            (g, None) => Err(format!(
                "timeout: rank {} never posted board slot {slot} \
                 (posted slots: {:?}) — schedule under-synchronized?",
                self.owner,
                g.keys().collect::<Vec<_>>()
            )),
        }
    }

    /// Reset between benchmark iterations.
    pub fn clear(&self) {
        self.posted.lock().unwrap().clear();
    }
}

/// One rank's notification flags: counter per flag id, with blocking wait.
#[derive(Default)]
pub struct FlagSet {
    /// The waiting rank, for diagnostics.
    owner: usize,
    counts: Mutex<HashMap<u16, u32>>,
    waiters: Waiters,
}

impl FlagSet {
    /// A flag set owned by rank `owner` (the owner appears in diagnostics).
    pub fn for_rank(owner: usize) -> Self {
        FlagSet {
            owner,
            ..FlagSet::default()
        }
    }

    /// Increment `flag` (a userspace atomic in real PiP).
    pub fn signal(&self, flag: u16) {
        let mut g = self.counts.lock().unwrap();
        *g.entry(flag).or_default() += 1;
        self.waiters.notify(&g);
    }

    /// Block until `flag` has been signalled at least `count` times.
    ///
    /// # Panics
    /// Panics after [`sync_timeout`] with rank/flag/progress context if the
    /// count is never reached.
    pub fn wait(&self, flag: u16, count: u32) {
        self.wait_within(flag, count, sync_timeout())
    }

    /// [`FlagSet::wait`] with an explicit timeout.
    pub fn wait_within(&self, flag: u16, count: u32, timeout: Duration) {
        if let Err(msg) = self.try_wait_within(flag, count, timeout) {
            panic!("{msg}");
        }
    }

    /// Non-panicking [`FlagSet::wait_within`]: the fail-stop communicator
    /// records the timeout as a rank failure instead of unwinding.
    pub fn try_wait_within(&self, flag: u16, count: u32, timeout: Duration) -> Result<(), String> {
        let poisoned = || format!("rank {} flag set poisoned", self.owner);
        let g = self.counts.lock().map_err(|_| poisoned())?;
        let have = |counts: &HashMap<u16, u32>| counts.get(&flag).copied().unwrap_or(0);
        match self
            .waiters
            .wait_for(g, timeout, |counts| (have(counts) >= count).then_some(()))
            .map_err(|_| poisoned())?
        {
            (_, Some(())) => Ok(()),
            (g, None) => Err(format!(
                "timeout: rank {} waited for flag {flag} to reach {count} \
                 but only {} signals arrived — schedule under-synchronized?",
                self.owner,
                have(&g)
            )),
        }
    }

    /// Reset between benchmark iterations.
    pub fn clear(&self) {
        self.counts.lock().unwrap().clear();
    }
}

/// One rank's buffers, visible to the whole node (address space).
pub struct RankBufs {
    /// User send buffer.
    pub send: SharedBuf,
    /// User receive buffer.
    pub recv: SharedBuf,
    /// Scratch buffers, appended as the algorithm allocates them. `Arc` so
    /// peers can hold a reference without the lock.
    pub temps: Mutex<Vec<Arc<SharedBuf>>>,
}

impl RankBufs {
    /// Fresh buffers with the given user-buffer contents/sizes.
    pub fn new(send: Vec<u8>, recv_len: usize) -> Self {
        RankBufs {
            send: SharedBuf::from_vec(send),
            recv: SharedBuf::new(recv_len),
            temps: Mutex::new(Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let b = SharedBuf::new(16);
        b.write(4, &[1, 2, 3]);
        assert_eq!(b.read_vec(4, 3), vec![1, 2, 3]);
        assert_eq!(b.read_vec(0, 2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oob_write_panics() {
        SharedBuf::new(4).write(2, &[0; 4]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn oob_check_does_not_wrap() {
        // offset + len wraps around; the old unchecked add let this pass.
        SharedBuf::new(4).read_vec(2, usize::MAX - 1);
    }

    #[test]
    fn copy_between_buffers() {
        let a = SharedBuf::from_vec(vec![9u8; 8]);
        let b = SharedBuf::new(8);
        SharedBuf::copy_between(&a, 2, &b, 4, 4);
        assert_eq!(b.read_vec(0, 8), vec![0, 0, 0, 0, 9, 9, 9, 9]);
    }

    #[test]
    fn copy_between_same_buffer_disjoint_ok() {
        let a = SharedBuf::from_vec(vec![1, 2, 3, 4, 0, 0, 0, 0]);
        SharedBuf::copy_between(&a, 0, &a, 4, 4);
        assert_eq!(a.read_vec(0, 8), vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "overlapping ranges")]
    fn copy_between_same_buffer_overlap_panics() {
        let a = SharedBuf::new(8);
        SharedBuf::copy_between(&a, 0, &a, 2, 4);
    }

    #[test]
    fn reduce_from_sums_doubles() {
        use pipmcoll_model::dtype::doubles_to_bytes;
        let acc = SharedBuf::from_vec(doubles_to_bytes(&[1.0, 2.0]));
        let src = SharedBuf::from_vec(doubles_to_bytes(&[10.0, 20.0]));
        acc.reduce_from(0, &src, 0, 16, ReduceOp::Sum, Datatype::Double);
        assert_eq!(
            pipmcoll_model::dtype::bytes_to_doubles(&acc.read_vec(0, 16)),
            vec![11.0, 22.0]
        );
    }

    #[test]
    fn board_blocks_until_posted() {
        let board = Arc::new(Board::default());
        let b2 = board.clone();
        let t = std::thread::spawn(move || b2.fetch(3));
        std::thread::sleep(std::time::Duration::from_millis(10));
        board.post(
            3,
            Posted {
                key: BufKey::Send(0),
                offset: 0,
                len: 8,
            },
        );
        let p = t.join().unwrap();
        assert_eq!(p.key, BufKey::Send(0));
    }

    #[test]
    fn flags_count_cumulatively() {
        let f = FlagSet::default();
        f.signal(1);
        f.signal(1);
        f.wait(1, 2); // returns immediately
    }

    fn panic_message(r: Box<dyn std::any::Any + Send>) -> String {
        r.downcast_ref::<String>()
            .cloned()
            .or_else(|| r.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn unposted_slot_times_out_with_context() {
        let board = Board::for_rank(5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            board.fetch_within(9, Duration::from_millis(30))
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("rank 5"), "{msg}");
        assert!(msg.contains("slot 9"), "{msg}");
    }

    #[test]
    fn starved_flag_times_out_with_context() {
        let flags = FlagSet::for_rank(3);
        flags.signal(7);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            flags.wait_within(7, 2, Duration::from_millis(30))
        }))
        .unwrap_err();
        let msg = panic_message(err);
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("flag 7"), "{msg}");
        assert!(msg.contains("only 1"), "{msg}");
    }

    #[test]
    fn lost_wakeup_board_and_flag_ping_pong() {
        // Two ranks alternate: post a slot, then wait on a flag the peer
        // signals after fetching it. A post or signal that skipped the
        // notify while the peer was parked would leave that park to run
        // out its whole timeout.
        const ROUNDS: u16 = 10_000;
        const T: Duration = Duration::from_secs(5);
        let boards = Arc::new([Board::for_rank(0), Board::for_rank(1)]);
        let flags = Arc::new([FlagSet::for_rank(0), FlagSet::for_rank(1)]);
        let rank = |me: usize| {
            let (boards, flags) = (Arc::clone(&boards), Arc::clone(&flags));
            std::thread::spawn(move || {
                let peer = 1 - me;
                for round in 0..ROUNDS {
                    let t0 = std::time::Instant::now();
                    let posted = Posted {
                        key: BufKey::Send(me),
                        offset: round.into(),
                        len: 1,
                    };
                    boards[me].post(round, posted);
                    let got = boards[peer].try_fetch_within(round, T).unwrap();
                    assert_eq!(got.offset, usize::from(round));
                    flags[peer].signal(0);
                    flags[me]
                        .try_wait_within(0, u32::from(round) + 1, T)
                        .unwrap();
                    assert!(
                        t0.elapsed() < T,
                        "round {round} waited out its timeout: a wake-up was lost"
                    );
                }
            })
        };
        let (a, b) = (rank(0), rank(1));
        a.join().unwrap();
        b.join().unwrap();
    }
}
