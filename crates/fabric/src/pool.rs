//! Pooled, refcounted frame buffers for the TCP fabric's send path.
//!
//! Every eager frame used to cost three heap events: the encode
//! allocation, a full `bytes.clone()` into the retransmit pending table,
//! and another clone when the retransmitter re-queued it. At the
//! small-message rates the paper cares about, the allocator — not the
//! sockets — became the bottleneck. A [`FrameBuf`] is an `Arc`-backed
//! byte buffer: the send queue, the retransmit ring, and any retransmit
//! in flight all hold refcounts on the *same* encoded bytes, and when
//! the last holder drops, the buffer returns to a bounded free-list to
//! be reused by the next send. After warm-up the steady-state eager
//! path performs zero heap allocations (proven by the counting-
//! allocator test in `tests/alloc_steady_state.rs`).
//!
//! Recycling is race-free by construction: `Drop` only recycles when
//! `Arc::strong_count == 1`, and only the *sole remaining* holder can
//! observe a count of 1 — two concurrent droppers both see ≥ 2. A racy
//! miss (count read as 2 while the other holder is mid-drop) merely
//! skips one recycle; the buffer is freed normally. Correctness never
//! depends on recycling happening.
//!
//! Bounds: the free-list holds at most [`POOL_CAP`] (256) buffers per
//! pool. Buffers above 256 KiB capacity are never retained — large
//! frames would otherwise pin large allocations forever.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use crate::wire::Frame;

/// Buffers with more capacity than this are dropped rather than
/// recycled, so one big frame can't pin memory in the pool.
const MAX_RETAIN_CAP: usize = 256 * 1024;

/// Smallest capacity a fresh buffer gets. Control frames (acks,
/// heartbeats) and small eager frames share the free list, so a buffer
/// first used for a bare header must take a small payload later without
/// growing — a regrow on the eager path is an allocation.
const MIN_CAP: usize = 256;

/// Free-list bound of a [`FramePool::new`] pool, in buffers.
pub const POOL_CAP: usize = 256;

struct BufInner {
    data: Vec<u8>,
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
        if inner.data.capacity() > MAX_RETAIN_CAP {
            return;
        }
        inner.data.clear();
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

    /// An empty buffer, recycled if one is free, freshly allocated
    /// otherwise with room for at least `size_hint` bytes, and never
    /// less than 256.
    pub fn acquire(&self, size_hint: usize) -> FrameBuf {
        let recycled = self.inner.free.lock().ok().and_then(|mut f| f.pop());
        let arc = match recycled {
            Some(arc) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                arc
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(BufInner {
                    data: Vec::with_capacity(size_hint.max(MIN_CAP)),
                    pool: Arc::downgrade(&self.inner),
                })
            }
        };
        FrameBuf { arc: Some(arc) }
    }

    /// Encode `frame` into a pooled buffer: the one place on the eager
    /// path where bytes are laid out. Every later holder — send queue,
    /// retransmit ring, retransmit — is a refcount on this buffer.
    pub fn encode(&self, frame: &Frame) -> FrameBuf {
        self.encode_seg(frame, &frame.payload, 0)
    }

    /// [`FramePool::encode`] as frame `lseq` of its lane, with the
    /// payload taken from `payload` instead of `frame.payload`: the send
    /// path encodes straight from the caller's message, so a send costs
    /// one pooled encode and no intermediate payload allocation.
    pub fn encode_seg(&self, frame: &Frame, payload: &[u8], lseq: u64) -> FrameBuf {
        let mut buf = self.acquire(crate::wire::HEADER_LEN + payload.len());
        let inner = Arc::get_mut(buf.arc.as_mut().expect("fresh FrameBuf holds its arc"))
            .expect("freshly acquired buffer is uniquely owned");
        frame.encode_lane_into(&mut inner.data, payload, lseq);
        buf
    }

    /// A pooled copy of already-encoded bytes. The chaos corrupt hook
    /// uses this to bit-flip a *copy* of a frame for the wire while the
    /// retransmit ring keeps a refcount on the pristine
    /// original — injected corruption must be recoverable by
    /// retransmit, so the stored bytes must stay clean.
    pub fn copy_bytes(&self, bytes: &[u8]) -> FrameBuf {
        let mut buf = self.acquire(bytes.len());
        let inner = Arc::get_mut(buf.arc.as_mut().expect("fresh FrameBuf holds its arc"))
            .expect("freshly acquired buffer is uniquely owned");
        inner.data.clear();
        inner.data.extend_from_slice(bytes);
        buf
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

/// A refcounted handle on one encoded frame. `Clone` bumps the
/// refcount (no copy); dropping the last handle recycles the buffer
/// into its pool's free-list.
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

    /// Mutable access to the bytes, available only while this handle is
    /// the sole owner (i.e. before the buffer is shared with a send
    /// queue or retransmit ring). `None` once cloned — shared frame bytes
    /// are immutable by construction.
    pub fn as_mut_slice(&mut self) -> Option<&mut [u8]> {
        Arc::get_mut(self.arc.as_mut()?).map(|inner| inner.data.as_mut_slice())
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner().data
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
        write!(f, "FrameBuf({} bytes)", self.len())
    }
}

/// Partial-write resumption state for one nonblocking socket: a FIFO of
/// pooled frames queued for the wire, plus a byte offset into the front
/// frame marking how much of it a previous `write_vectored` managed to
/// push before `WouldBlock`.
///
/// The progress pool writes by building [`std::io::IoSlice`] views over
/// the queued frames (the front one sliced at the resume offset) — one
/// syscall carries many frames — then [`WriteCursor::advance`]s by
/// however many bytes the kernel accepted. Fully written frames drop
/// their pool refcount there (the retransmit ring keeps the
/// underlying bytes alive where needed); a torn frame simply stays at
/// the front with a larger offset until the socket drains.
#[derive(Default)]
pub struct WriteCursor {
    frames: std::collections::VecDeque<FrameBuf>,
    /// Bytes of `frames[0]` already written to the socket.
    offset: usize,
    /// Total unwritten bytes across all queued frames.
    remaining: usize,
}

impl WriteCursor {
    /// An empty cursor.
    pub fn new() -> WriteCursor {
        WriteCursor::default()
    }

    /// Queue one encoded frame behind any partially written ones.
    pub fn push(&mut self, buf: FrameBuf) {
        self.remaining += buf.len();
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

    /// Fill `out` with vectored-write views over up to `out.len()`
    /// queued frames, the front one resumed at its offset, and return
    /// how many were filled (0 when nothing is queued). The caller owns
    /// the array, so a write allocates nothing.
    pub fn io_slices<'a>(&'a self, out: &mut [std::io::IoSlice<'a>]) -> usize {
        let mut n = 0;
        for (slot, f) in out.iter_mut().zip(&self.frames) {
            let skip = if n == 0 { self.offset } else { 0 };
            *slot = std::io::IoSlice::new(&f[skip..]);
            n += 1;
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
            let left = front.len() - self.offset;
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

    #[test]
    fn encode_seg_matches_a_whole_frame_encode() {
        let pool = FramePool::with_cap(4);
        let body = [1u8, 2, 3, 4, 5, 6];
        let seg = frame(vec![]);
        let buf = pool.encode_seg(&seg, &body[3..], 0);
        let mut whole = seg.clone();
        whole.payload = body[3..].to_vec();
        assert_eq!(&*buf, whole.encode().as_slice());
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
        let _c = pool.acquire(8);
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
        assert_eq!(&*reused, small.encode().as_slice());
    }

    #[test]
    fn copy_bytes_is_independent_and_mutable_until_shared() {
        let pool = FramePool::with_cap(4);
        let original = pool.encode(&frame(vec![7; 24]));
        let mut copy = pool.copy_bytes(&original);
        assert_eq!(&*copy, &*original);
        copy.as_mut_slice().expect("sole owner can mutate")[0] ^= 0xFF;
        assert_ne!(&*copy, &*original, "the original stays pristine");
        let _shared = copy.clone();
        assert!(copy.as_mut_slice().is_none(), "shared bytes are frozen");
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
        let pool = FramePool::with_cap(4);
        drop(pool.encode(&frame(vec![0; MAX_RETAIN_CAP + 1])));
        assert_eq!(pool.stats().free, 0);
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
        let (l1, l2) = (f1.len(), f2.len());
        cur.push(f1);
        cur.push(f2);
        assert_eq!(cur.remaining_bytes(), l1 + l2);
        assert_eq!(cur.frame_count(), 2);

        // A torn write partway into the first frame: the slices must
        // resume at the offset, and nothing recycles yet.
        cur.advance(l1 - 3);
        let mut slices = [std::io::IoSlice::new(&[]); 64];
        assert_eq!(cur.io_slices(&mut slices), 2);
        assert_eq!(slices[0].len(), 3);
        assert_eq!(slices[1].len(), l2);
        assert_eq!(pool.stats().free, 0);

        // Finishing the first frame releases it back to the pool.
        cur.advance(3);
        assert_eq!(cur.frame_count(), 1);
        assert_eq!(pool.stats().free, 1);

        cur.advance(l2);
        assert!(cur.is_empty());
        assert_eq!(cur.remaining_bytes(), 0);
        assert_eq!(pool.stats().free, 2);
        assert_eq!(cur.io_slices(&mut [std::io::IoSlice::new(&[]); 64]), 0);
    }

    #[test]
    fn cursor_caps_slices_per_write() {
        let pool = FramePool::with_cap(8);
        let mut cur = WriteCursor::new();
        for i in 0..5 {
            cur.push(pool.encode(&frame(vec![i as u8; 4])));
        }
        assert_eq!(cur.io_slices(&mut [std::io::IoSlice::new(&[]); 3]), 3);
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
