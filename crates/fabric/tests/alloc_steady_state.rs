//! Proof that the eager send path performs zero steady-state heap
//! allocations once the frame pool and channel tables are warm.
//!
//! A counting global allocator tracks allocations made by the test
//! thread only (progress threads allocate during setup and that is
//! fine — the claim is about the *caller's* per-message cost). Payload
//! vectors are pre-built before tracking starts, so every allocation
//! counted in `send` would be one the fabric itself performed per
//! message: a pool miss, a cold hash-map entry, or a queue growth.
//! A receiving rank may decode frames off the socket itself, so `recv`
//! is counted apart: it may allocate the payload vector of each frame
//! it decoded (`FabricStats::rank_reads`), and nothing else.
//!
//! This test has its own binary because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pipmcoll_fabric::{Fabric, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;

struct CountingAlloc;

thread_local! {
    /// Only the thread that flips this on is counted.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn tracking() -> bool {
    TRACK.try_with(|t| t.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        if tracking() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(p, l, n) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // Frees are free: recycling hands memory back, it doesn't cost.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn eager_send_path_is_allocation_free_after_warmup() {
    const WARMUP: usize = 512;
    const STEADY: usize = 2000;
    let topo = Topology::new(2, 1);
    let fabric = TcpFabric::connect(topo, TcpConfig::default()).expect("loopback fabric");
    let key = (0usize, 1usize, 7u32);
    let timeout = Duration::from_secs(10);

    // Pre-build every payload the tracked phase will consume: `send`
    // takes the vector by value, and that caller-side allocation must
    // not be charged to the fabric.
    let mut payloads: Vec<Vec<u8>> = (0..WARMUP + STEADY).map(|i| vec![i as u8; 64]).collect();
    let steady: Vec<Vec<u8>> = payloads.split_off(WARMUP);

    // Warm-up: populate the lane's queue and retransmit ring, the
    // channel's store entry, and stock the frame pool. Sending the whole
    // warm-up as one burst matters: a buffer is only recycled once its
    // lane's ack retires it from the ring, so burst pacing drives the
    // number of simultaneously live buffers — and therefore the eventual
    // free-list depth — to the pool cap. Ping-pong pacing would leave
    // only a handful of spares, and a moment of ack lag in the steady
    // phase could then drain the list and force a fresh allocation
    // (observed rarely in debug builds). The steady phase cannot run a
    // fully stocked list dry, and no sender waits for that: whoever
    // decodes the lane's frames, a worker or this thread, writes its ack
    // once the lane owes 32 frames, and this thread writes the ack owed
    // before each sleep in a receive.
    for p in payloads {
        fabric.send(key, p).expect("warmup send");
    }
    for _ in 0..WARMUP {
        fabric.recv_within(key, timeout).expect("warmup recv");
    }
    // Then at the steady phase's pacing until this thread has read the
    // socket itself (its read buffer is built on first use).
    for i in 0..10_000usize {
        fabric.send(key, vec![i as u8; 64]).expect("warmup send");
        fabric.recv_within(key, timeout).expect("warmup recv");
        if i >= 64 && fabric.stats().rank_reads > 0 {
            break;
        }
    }
    // Let the last acks land so the pool is fully restocked.
    std::thread::sleep(Duration::from_millis(100));

    let before = fabric.stats();
    let (mut send_allocs, mut recv_allocs) = (0, 0);
    let tracked = |op: &mut dyn FnMut()| {
        ALLOCS.store(0, Ordering::Relaxed);
        TRACK.with(|t| t.set(true));
        op();
        TRACK.with(|t| t.set(false));
        ALLOCS.load(Ordering::Relaxed)
    };
    for p in steady {
        let mut p = Some(p);
        send_allocs += tracked(&mut || {
            let p = p.take().expect("sent once");
            fabric.send(key, p).expect("steady send")
        });
        recv_allocs += tracked(&mut || {
            fabric.recv_within(key, timeout).expect("steady recv");
        });
    }

    assert_eq!(
        send_allocs, 0,
        "eager send path allocated {send_allocs} times over {STEADY} steady-state messages"
    );
    let after = fabric.stats();
    // A frame a worker decoded reaches this thread with its payload
    // vector already built; one this thread decoded cost that vector
    // here, and nothing else may.
    let decoded = after.rank_reads - before.rank_reads;
    assert!(
        recv_allocs <= decoded,
        "receive path allocated {recv_allocs} times over {STEADY} messages, \
         but decoded only {decoded} frames itself"
    );
    // The claim covers frames the sender wrote onto the socket itself,
    // not only the queue the progress thread drains.
    assert!(
        after.inline_sends > before.inline_sends,
        "no steady-state send went inline"
    );

    let ps = fabric.pool_stats();
    assert!(
        ps.hits >= STEADY as u64,
        "expected ≥{STEADY} pool hits in steady state, got {:?}",
        ps
    );
}

#[test]
fn recycled_frames_never_leak_bytes_across_channels() {
    // Pool poisoning at the fabric level: drive a distinctive payload
    // through one channel, then a shorter one through another, and
    // check the second delivery carries no residue of the first even
    // though both channels share one frame pool.
    let topo = Topology::new(2, 2);
    let fabric = TcpFabric::connect(topo, TcpConfig::default()).expect("loopback fabric");
    let timeout = Duration::from_secs(10);
    for round in 0..50u8 {
        let big = vec![0xee ^ round; 4096];
        fabric.send((0, 2, 1), big.clone()).expect("send big");
        assert_eq!(fabric.recv_within((0, 2, 1), timeout).unwrap(), big);
        let small = vec![round; 16];
        fabric.send((1, 3, 2), small.clone()).expect("send small");
        assert_eq!(
            fabric.recv_within((1, 3, 2), timeout).unwrap(),
            small,
            "round {round}: recycled frame leaked bytes across channels"
        );
    }
}
