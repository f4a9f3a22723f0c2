//! Pooled, refcounted frames for the TCP fabric's send path.
//!
//! A [`FrameBuf`] is one frame in two parts: its encoded header, in a
//! header-sized buffer drawn from a bounded pool, and its payload — the
//! `Vec` the sender handed to `Fabric::send`, moved in whole. The
//! header's CRC is taken over the payload where it lies, and the write
//! path sends both parts as two `IoSlice`s of one `write_vectored`
//! ([`WriteCursor`]), so the payload is never copied in user space on
//! its way to the socket.
//!
//! The send queue, the write cursor, the lane's retransmit ring and any
//! retransmit in flight all hold refcounts on the *same* frame; when
//! the last holder drops, the header buffer, with its `Arc`, returns to
//! a bounded free-list to frame the next send. After warm-up the
//! steady-state eager path performs zero heap allocations (proven by
//! the counting-allocator test in `tests/alloc_steady_state.rs`): the
//! payload was allocated by the caller, and the pool supplies the rest.
//!
//! Recycling is race-free by construction: `Drop` only recycles when
//! `Arc::strong_count == 1`, and only the *sole remaining* holder can
//! observe a count of 1 — two concurrent droppers both see ≥ 2. A racy
//! miss (count read as 2 while the other holder is mid-drop) merely
//! skips one recycle; the frame is freed normally. Correctness never
//! depends on recycling happening.
//!
//! Who frees a payload: the last holder is usually the thread that
//! applied the lane's ack, not the sender that allocated the payload.
//! A small payload's allocation therefore stays with the recycled
//! buffer, emptied, and is freed when the buffer frames its next send —
//! on the sending thread, whose allocator made it, so small-message
//! streams keep the allocator's per-thread caches warm. Freeing them on
//! the acking thread instead cost `fabric_sweep`'s 64 B series at k = 4
//! about a tenth of its message rate on a 2-CPU host. A payload above
//! `MAX_RETAIN_CAP` (4 KiB) is freed at once.
//!
//! Bounds: the free-list holds at most [`POOL_CAP`] (256) buffers per
//! pool, each a header and at most 4 KiB of retired payload
//! allocation, so no large message stays pinned in the pool.

use std::io::IoSlice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::wire::{Frame, HEADER_LEN};

/// Free-list bound of a [`FramePool::new`] pool, in buffers.
pub const POOL_CAP: usize = 256;

/// Largest payload allocation a recycled buffer keeps, emptied, for the
/// next encode to free (see the module doc); larger ones are freed when
/// their frame retires.
const MAX_RETAIN_CAP: usize = 4096;

struct BufInner {
    /// The encoded header: [`HEADER_LEN`] bytes once encoded.
    header: Vec<u8>,
    /// The payload the header announces and checksums.
    payload: Vec<u8>,
    /// Weak so a pool can die while frames are still in flight; those
    /// frames then free normally instead of recycling.
    pool: Weak<PoolInner>,
}

struct PoolInner {
    free: Mutex<Vec<Arc<BufInner>>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
}

impl PoolInner {
    fn recycle(&self, mut arc: Arc<BufInner>) {
        // Sole holder (strong_count was 1 in FrameBuf::drop and nobody
        // else can resurrect a count-1 Arc), so get_mut succeeds.
        let Some(inner) = Arc::get_mut(&mut arc) else {
            return;
        };
        inner.header.clear();
        if inner.payload.capacity() > MAX_RETAIN_CAP {
            inner.payload = Vec::new();
        } else {
            inner.payload.clear();
        }
        let Ok(mut free) = self.free.lock() else {
            return;
        };
        if free.len() < self.cap {
            free.push(arc);
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counters for observing pool effectiveness (and, in tests, for
/// waiting until a buffer has actually been returned to the free-list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free-list.
    pub hits: u64,
    /// Acquisitions that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to the free-list over the pool's lifetime.
    pub recycled: u64,
    /// Buffers currently sitting in the free-list.
    pub free: usize,
}

/// A bounded pool of reusable frame buffers. Cloning the pool handle is
/// cheap and shares the free-list.
#[derive(Clone)]
pub struct FramePool {
    inner: Arc<PoolInner>,
}

impl Default for FramePool {
    fn default() -> Self {
        FramePool::with_cap(POOL_CAP)
    }
}

impl FramePool {
    /// A pool bounded by [`POOL_CAP`].
    pub fn new() -> FramePool {
        FramePool::default()
    }

    /// A pool retaining at most `cap` free buffers.
    pub fn with_cap(cap: usize) -> FramePool {
        FramePool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                cap,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                recycled: AtomicU64::new(0),
            }),
        }
    }

    /// An empty frame, recycled if one is free, freshly allocated
    /// otherwise with room for a header.
    pub fn acquire(&self) -> FrameBuf {
        let recycled = self.inner.free.lock().ok().and_then(|mut f| f.pop());
        let arc = match recycled {
            Some(arc) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                arc
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(BufInner {
                    header: Vec::with_capacity(HEADER_LEN),
                    payload: Vec::new(),
                    pool: Arc::downgrade(&self.inner),
                })
            }
        };
        FrameBuf { arc: Some(arc) }
    }

    /// `frame` as a pooled frame of lane 0, its payload copied from
    /// `frame.payload` (control frames carry none).
    pub fn encode(&self, frame: &Frame) -> FrameBuf {
        self.encode_lane(frame, frame.payload.clone(), 0)
    }

    /// Frame `payload` as frame `lseq` of its lane, with the header
    /// fields of `frame` (whose own payload is ignored): the header is
    /// encoded into a pooled buffer, and `payload` moves in beside it
    /// uncopied. The one place on the eager path where a frame is laid
    /// out; every later holder — send queue, retransmit ring,
    /// retransmit — is a refcount on it.
    pub fn encode_lane(&self, frame: &Frame, payload: Vec<u8>, lseq: u64) -> FrameBuf {
        let mut buf = self.acquire();
        let inner = buf
            .sole()
            .expect("freshly acquired buffer is uniquely owned");
        frame.encode_header_into(&mut inner.header, &payload, lseq);
        // Frees the allocation a recycled buffer kept, on this thread.
        inner.payload = payload;
        buf
    }

    /// A pooled copy of frame `buf`, header and payload, that stays
    /// mutable until shared. The chaos corrupt hook bit-flips such a
    /// copy for the wire while the retransmit ring keeps a refcount on
    /// the pristine original — injected corruption must be recoverable
    /// by retransmit, so the stored bytes must stay clean — and a lane
    /// migration restamps one.
    pub fn copy_bytes(&self, buf: &FrameBuf) -> FrameBuf {
        let mut copy = self.acquire();
        let inner = copy
            .sole()
            .expect("freshly acquired buffer is uniquely owned");
        inner.header.extend_from_slice(buf.header());
        inner.payload.extend_from_slice(buf.payload());
        copy
    }

    /// Point-in-time pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            free: self.inner.free.lock().map_or(0, |f| f.len()),
        }
    }
}

/// A refcounted handle on one frame: its encoded header and its
/// payload. `Clone` bumps the refcount (no copy); dropping the last
/// handle frees the payload and recycles the header buffer into its
/// pool's free-list.
pub struct FrameBuf {
    /// `Some` until `Drop` takes it; never observed as `None` otherwise.
    arc: Option<Arc<BufInner>>,
}

impl FrameBuf {
    fn inner(&self) -> &Arc<BufInner> {
        self.arc
            .as_ref()
            .expect("FrameBuf holds its arc until drop")
    }

    /// The frame's parts, while this handle is the sole owner.
    fn sole(&mut self) -> Option<&mut BufInner> {
        Arc::get_mut(self.arc.as_mut()?)
    }

    /// The encoded header.
    pub fn header(&self) -> &[u8] {
        &self.inner().header
    }

    /// The payload, sent right behind the header.
    pub fn payload(&self) -> &[u8] {
        &self.inner().payload
    }

    /// Bytes the frame takes on the wire: header and payload.
    pub fn wire_len(&self) -> usize {
        self.header().len() + self.payload().len()
    }

    /// Mutable access to the header and the payload, available only
    /// while this handle is the sole owner (i.e. before the frame is
    /// shared with a send queue or retransmit ring). `None` once cloned
    /// — shared frame bytes are immutable by construction.
    pub fn parts_mut(&mut self) -> Option<(&mut [u8], &mut [u8])> {
        self.sole()
            .map(|inner| (inner.header.as_mut_slice(), inner.payload.as_mut_slice()))
    }
}

impl Clone for FrameBuf {
    fn clone(&self) -> FrameBuf {
        FrameBuf {
            arc: Some(Arc::clone(self.inner())),
        }
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        let Some(arc) = self.arc.take() else {
            return;
        };
        // Only the final holder can see a strong count of 1, so at most
        // one dropper ever attempts the recycle.
        if Arc::strong_count(&arc) == 1 {
            if let Some(pool) = arc.pool.upgrade() {
                pool.recycle(arc);
            }
        }
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameBuf({} bytes)", self.wire_len())
    }
}

/// Partial-write resumption state for one nonblocking socket: a FIFO of
/// pooled frames queued for the wire, plus a byte offset into the front
/// frame marking how much of it a previous `write_vectored` managed to
/// push before `WouldBlock`.
///
/// A write pass writes by building [`IoSlice`] views over the
/// queued frames — each frame's header, then its payload, the front
/// frame resumed at its offset in either part — so one syscall carries
/// many frames; then [`WriteCursor::advance`]s by however many bytes the
/// kernel accepted. Fully written frames drop their pool refcount there
/// (the retransmit ring keeps the frame alive where needed); a torn
/// frame simply stays at the front with a larger offset until the
/// socket drains.
#[derive(Default)]
pub struct WriteCursor {
    frames: std::collections::VecDeque<FrameBuf>,
    /// Bytes of `frames[0]` (header, then payload) already written.
    offset: usize,
    /// Total unwritten bytes across all queued frames.
    remaining: usize,
}

impl WriteCursor {
    /// An empty cursor.
    pub fn new() -> WriteCursor {
        WriteCursor::default()
    }

    /// Queue one frame behind any partially written ones.
    pub fn push(&mut self, buf: FrameBuf) {
        self.remaining += buf.wire_len();
        self.frames.push_back(buf);
    }

    /// Whether nothing is queued (and no partial frame is in flight).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes queued (partial front frame counted partially).
    pub fn remaining_bytes(&self) -> usize {
        self.remaining
    }

    /// Queued frames, including a partially written front frame.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Fill `out` with vectored-write views over the queued frames, two
    /// per frame (its header and a non-empty payload), the front frame
    /// resumed at its offset, and return how many were filled (0 when
    /// nothing is queued). The caller owns the array, so a write
    /// allocates nothing.
    pub fn io_slices<'a>(&'a self, out: &mut [IoSlice<'a>]) -> usize {
        let mut n = 0;
        let mut skip = self.offset;
        for f in &self.frames {
            for part in [f.header(), f.payload()] {
                if skip >= part.len() {
                    // Written already, or an empty payload.
                    skip -= part.len();
                    continue;
                }
                let Some(slot) = out.get_mut(n) else {
                    return n;
                };
                *slot = IoSlice::new(&part[skip..]);
                skip = 0;
                n += 1;
            }
        }
        n
    }

    /// Consume `n` bytes accepted by the kernel: drop fully written
    /// frames (releasing their pool refcounts), remember the offset into
    /// a torn one.
    pub fn advance(&mut self, mut n: usize) {
        self.remaining = self.remaining.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.frames.front() else {
                return;
            };
            let left = front.wire_len() - self.offset;
            if n >= left {
                n -= left;
                self.offset = 0;
                self.frames.pop_front();
            } else {
                self.offset += n;
                return;
            }
        }
    }

    /// Drop everything queued (connection torn down; retransmit recovers
    /// what mattered).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.offset = 0;
        self.remaining = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameKind;

    fn frame(payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Eager,
            src: 1,
            dst: 2,
            tag: 7,
            seq: 3,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload,
        }
    }

    /// The frame's bytes as they go on the wire.
    fn wire(buf: &FrameBuf) -> Vec<u8> {
        [buf.header(), buf.payload()].concat()
    }

    #[test]
    fn encode_lane_matches_a_whole_frame_encode() {
        // The header and the payload concatenate to exactly the bytes of
        // a contiguous encode, across the tri-stream CRC threshold and an
        // odd length: the header's checksum, taken over the payload where
        // it lies, is the one a contiguous encode computes.
        let pool = FramePool::with_cap(4);
        for len in [0usize, 64, 8 * 1024, 128 * 1024 + 1] {
            let f = frame((0..len).map(|i| (i * 7 + 1) as u8).collect());
            let buf = pool.encode_lane(&frame(vec![]), f.payload.clone(), 0);
            assert_eq!(buf.header().len(), HEADER_LEN, "len {len}");
            assert_eq!(buf.payload(), f.payload.as_slice(), "len {len}");
            assert_eq!(wire(&buf), f.encode(), "len {len}");
            let mut lane = Vec::new();
            f.encode_lane_into(&mut lane, &f.payload, 9);
            let buf = pool.encode_lane(&f, f.payload.clone(), 9);
            assert_eq!(wire(&buf), lane, "len {len}, lseq 9");
        }
    }

    #[test]
    fn last_drop_recycles_and_next_acquire_reuses() {
        let pool = FramePool::with_cap(4);
        let a = pool.encode(&frame(vec![9u8; 32]));
        let b = a.clone();
        drop(a);
        assert_eq!(pool.stats().free, 0, "clone still holds the buffer");
        drop(b);
        let s = pool.stats();
        assert_eq!((s.free, s.recycled), (1, 1));
        let _c = pool.acquire();
        let s = pool.stats();
        assert_eq!((s.hits, s.free), (1, 0));
    }

    #[test]
    fn recycled_buffers_do_not_leak_prior_bytes() {
        let pool = FramePool::with_cap(4);
        let big = frame(vec![0xAB; 512]);
        drop(pool.encode(&big));
        assert_eq!(pool.stats().free, 1);
        // A smaller frame into the recycled buffer must match a fresh
        // encode exactly — no stale tail from the previous tenant.
        let small = frame(vec![1, 2, 3]);
        let reused = pool.encode(&small);
        assert_eq!(pool.stats().hits, 1, "must exercise the recycled path");
        assert_eq!(wire(&reused), small.encode());
    }

    #[test]
    fn copy_bytes_is_independent_and_mutable_until_shared() {
        let pool = FramePool::with_cap(4);
        let original = pool.encode(&frame(vec![7; 24]));
        let mut copy = pool.copy_bytes(&original);
        assert_eq!(wire(&copy), wire(&original));
        let (header, payload) = copy.parts_mut().expect("sole owner can mutate");
        header[0] ^= 0xFF;
        payload[0] ^= 0xFF;
        assert_ne!(
            copy.header(),
            original.header(),
            "the original stays pristine"
        );
        assert_ne!(
            copy.payload(),
            original.payload(),
            "the original stays pristine"
        );
        let _shared = copy.clone();
        assert!(copy.parts_mut().is_none(), "shared bytes are frozen");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = FramePool::with_cap(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.encode(&frame(vec![0; 8]))).collect();
        drop(bufs);
        assert_eq!(pool.stats().free, 2);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        // A large frame's header buffer recycles; its payload is freed,
        // so the pool never pins a large allocation. A small payload's
        // allocation stays, emptied, for the next encode to free.
        let pool = FramePool::with_cap(4);
        drop(pool.encode(&frame(vec![0; MAX_RETAIN_CAP + 1])));
        assert_eq!(pool.stats().free, 1);
        let reused = pool.acquire();
        assert_eq!(pool.stats().hits, 1, "must exercise the recycled path");
        assert_eq!(reused.inner().payload.capacity(), 0);
        assert_eq!(reused.inner().header.capacity(), HEADER_LEN);
        drop(reused);
        drop(pool.encode(&frame(vec![0; MAX_RETAIN_CAP])));
        let reused = pool.acquire();
        assert!(reused.payload().is_empty(), "no stale payload bytes");
        assert_eq!(reused.inner().payload.capacity(), MAX_RETAIN_CAP);
    }

    #[test]
    fn orphaned_frames_free_without_a_pool() {
        let pool = FramePool::with_cap(4);
        let buf = pool.encode(&frame(vec![5; 16]));
        drop(pool);
        drop(buf); // must not panic; weak upgrade fails, buffer frees
    }

    #[test]
    fn default_pool_retains_up_to_256_buffers() {
        let pool = FramePool::new();
        let bufs: Vec<_> = (0..POOL_CAP + 8)
            .map(|_| pool.encode(&frame(vec![1; 8])))
            .collect();
        drop(bufs);
        assert_eq!(pool.stats().free, 256);
    }

    #[test]
    fn cursor_resumes_partial_writes_and_recycles_written_frames() {
        let pool = FramePool::with_cap(8);
        let mut cur = WriteCursor::new();
        let f1 = pool.encode(&frame(vec![1; 10]));
        let f2 = pool.encode(&frame(vec![2; 10]));
        let (l1, l2) = (f1.wire_len(), f2.wire_len());
        cur.push(f1);
        cur.push(f2);
        assert_eq!(cur.remaining_bytes(), l1 + l2);
        assert_eq!(cur.frame_count(), 2);

        // A write torn inside the first frame's header resumes there,
        // then sends its payload and the whole second frame.
        cur.advance(HEADER_LEN - 5);
        let parts_of = |cur: &WriteCursor| {
            let mut slices = [IoSlice::new(&[]); 64];
            let n = cur.io_slices(&mut slices);
            slices[..n].iter().map(|s| s.to_vec()).collect::<Vec<_>>()
        };
        let parts = parts_of(&cur);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, [5, 10, HEADER_LEN, 10]);

        // Torn inside its payload: the slices resume at the offset, and
        // nothing recycles yet.
        cur.advance(5 + 7);
        let parts = parts_of(&cur);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, [3, HEADER_LEN, 10]);
        assert_eq!(parts[0], [1, 1, 1]);
        assert_eq!(pool.stats().free, 0);

        // Finishing the first frame releases it back to the pool.
        cur.advance(3);
        assert_eq!(cur.frame_count(), 1);
        assert_eq!(pool.stats().free, 1);

        cur.advance(l2);
        assert!(cur.is_empty());
        assert_eq!(cur.remaining_bytes(), 0);
        assert_eq!(pool.stats().free, 2);
        assert_eq!(cur.io_slices(&mut [IoSlice::new(&[]); 64]), 0);
    }

    #[test]
    fn cursor_caps_slices_per_write() {
        let pool = FramePool::with_cap(8);
        let mut cur = WriteCursor::new();
        for i in 0..5 {
            cur.push(pool.encode(&frame(vec![i as u8; 4])));
        }
        assert_eq!(cur.io_slices(&mut [IoSlice::new(&[]); 3]), 3);
        // A frame without a payload takes one slice, not two.
        let mut ctrl = WriteCursor::new();
        for _ in 0..3 {
            ctrl.push(pool.encode(&frame(vec![])));
        }
        assert_eq!(ctrl.io_slices(&mut [IoSlice::new(&[]); 8]), 3);
    }

    #[test]
    fn cursor_clear_releases_everything() {
        let pool = FramePool::with_cap(8);
        let mut cur = WriteCursor::new();
        cur.push(pool.encode(&frame(vec![7; 16])));
        cur.advance(5);
        cur.clear();
        assert!(cur.is_empty());
        assert_eq!(cur.remaining_bytes(), 0);
        assert_eq!(pool.stats().free, 1);
    }
}
