//! Unit tests of the TCP backend; they may read the mesh directly.

use super::*;
use crate::chaos::ChaosConfig;
use crate::timeout::sync_timeout;

fn two_nodes(lanes: usize) -> TcpFabric {
    TcpFabric::connect(
        Topology::new(2, 4),
        TcpConfig {
            lanes,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric")
}

fn fast_rto(lanes: usize, ranks_per_node: usize) -> TcpFabric {
    TcpFabric::connect(
        Topology::new(2, ranks_per_node),
        TcpConfig {
            lanes,
            rto: Duration::from_millis(5),
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric")
}

#[test]
fn internode_roundtrip() {
    let f = two_nodes(2);
    f.send((0, 4, 9), vec![1, 2, 3]).unwrap();
    assert_eq!(f.recv((0, 4, 9)).unwrap(), vec![1, 2, 3]);
}

#[test]
fn local_messages_bypass_lanes() {
    let f = two_nodes(2);
    f.send((0, 1, 0), vec![5; 10]).unwrap();
    assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![5; 10]);
    let s = f.stats();
    assert_eq!(s.total_msgs(), 0);
    assert_eq!(s.local_msgs, 1);
    assert_eq!(s.local_bytes, 10);
}

#[test]
fn lanes_are_striped_by_sender_local_rank() {
    let f = two_nodes(4);
    for src in 0..4 {
        f.send((src, 4, 0), vec![src as u8]).unwrap();
    }
    for src in 0..4 {
        assert_eq!(f.recv((src, 4, 0)).unwrap(), vec![src as u8]);
    }
    let s = f.stats();
    assert_eq!(s.total_msgs(), 4);
    for lane in 0..4 {
        assert_eq!(s.lanes[lane].msgs, 1, "one sender per lane");
    }
}

#[test]
fn drop_joins_progress_threads() {
    let f = two_nodes(3);
    f.send((0, 4, 0), vec![1]).unwrap();
    assert_eq!(f.recv((0, 4, 0)).unwrap(), vec![1]);
    drop(f); // must not hang or panic
}

#[test]
fn recv_timeout_diag_names_backend_lane_and_queue() {
    let f = two_nodes(2);
    let err = f
        .recv_within((1, 4, 5), Duration::from_millis(30))
        .unwrap_err();
    match err {
        FabricError::Timeout(d) => {
            assert_eq!(d.backend, "tcp");
            assert_eq!(d.chan, (1, 4, 5));
            assert_eq!(d.lane, Some(1), "rank 1 rides lane 1 of 2");
            assert_eq!(d.send_queue_depth, Some(0));
            assert!(d.dead_lanes.is_empty());
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn killed_lane_remaps_traffic_and_preserves_fifo() {
    let f = fast_rto(4, 4);
    // Every sender streams to rank 4; kill a lane mid-stream.
    for i in 0..10u8 {
        for src in 0..4usize {
            f.send((src, 4, 1), vec![i, src as u8]).unwrap();
        }
    }
    assert!(f.kill_lane(1));
    assert!(!f.kill_lane(1), "a lane dies once");
    for i in 10..20u8 {
        for src in 0..4usize {
            f.send((src, 4, 1), vec![i, src as u8]).unwrap();
        }
    }
    // FIFO per channel must survive the remap; frames lost in the
    // kill are recovered by retransmit onto surviving lanes.
    for src in 0..4usize {
        for i in 0..20u8 {
            assert_eq!(f.recv((src, 4, 1)).unwrap(), vec![i, src as u8]);
        }
    }
    assert_eq!(f.diag().dead_lanes, vec![1]);
}

#[test]
fn kill_refuses_last_survivor() {
    let f = fast_rto(2, 4);
    assert!(f.kill_lane(0));
    assert!(!f.kill_lane(1), "last lane must survive");
    assert!(!f.kill_lane(7), "no such lane");
    f.send((0, 4, 0), vec![7]).unwrap();
    assert_eq!(f.recv((0, 4, 0)).unwrap(), vec![7]);
}

#[test]
fn dropped_eager_frames_are_recovered_by_retransmit() {
    let f = fast_rto(1, 1);
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        drop: 0.4,
        seed: 11,
        ..ChaosConfig::default()
    }));
    assert!(f.install_chaos(Arc::clone(&wire)));
    for i in 0..50u8 {
        f.send((0, 1, 2), vec![i]).unwrap();
    }
    for i in 0..50u8 {
        assert_eq!(f.recv((0, 1, 2)).unwrap(), vec![i]);
    }
    assert!(wire.dropped() > 0, "seed 11 must drop something in 50");
    assert!(
        f.stats().retransmits >= wire.dropped(),
        "every dropped frame needs at least one retransmit: {} retransmits, {} dropped",
        f.stats().retransmits,
        wire.dropped(),
    );
    assert!(f.drain_errors().is_empty(), "recovery is not an error");
}

#[test]
fn duplicated_eager_frames_collapse_to_one_delivery() {
    let f = fast_rto(1, 1);
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        dup: 0.5,
        seed: 3,
        ..ChaosConfig::default()
    }));
    assert!(f.install_chaos(Arc::clone(&wire)));
    for i in 0..40u8 {
        f.send((0, 1, 0), vec![i]).unwrap();
    }
    for i in 0..40u8 {
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![i]);
    }
    assert!(wire.dupped() > 0, "seed 3 must duplicate something in 40");
    // No 41st message may exist.
    assert!(matches!(
        f.recv_within((0, 1, 0), Duration::from_millis(50)),
        Err(FabricError::Timeout(_))
    ));
    assert!(f.stats().dups_dropped >= wire.dupped());
}

/// Poll `f` until `pred(health)` holds, panicking with the last
/// snapshot after `budget`.
fn wait_health(f: &TcpFabric, budget: Duration, what: &str, pred: impl Fn(&FabricHealth) -> bool) {
    let deadline = Instant::now() + budget;
    loop {
        let h = f.health();
        if pred(&h) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: last health {h:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn muted_nodes_suspect_each_other_and_heartbeats_clear_it() {
    // The symmetric false-suspicion partition: both nodes stop
    // beating (muted, not dead), each suspects the other; once beats
    // resume, the first arrival retracts the suspicion on each side.
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            heartbeat: Duration::from_millis(10),
            heartbeat_misses: 3,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric");
    f.mute_node(0, true);
    f.mute_node(1, true);
    wait_health(&f, Duration::from_secs(10), "suspicion never formed", |h| {
        h.suspected_nodes.contains(&(0, 1)) && h.suspected_nodes.contains(&(1, 0))
    });
    f.mute_node(0, false);
    f.mute_node(1, false);
    wait_health(
        &f,
        Duration::from_secs(10),
        "suspicion never cleared",
        |h| h.suspected_nodes.is_empty(),
    );
    assert!(f.health().is_clean());
}

#[test]
fn retransmit_exhaustion_is_a_typed_peer_dead_verdict() {
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            rto: Duration::from_millis(2),
            max_retransmits: 3,
            heartbeat: Duration::ZERO,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric");
    // Eat every standalone ack: the message is delivered, but the
    // sender's pending entry can never retire and the budget runs out.
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        ack_drop: 1.0,
        seed: 5,
        ..ChaosConfig::default()
    }));
    assert!(f.install_chaos(Arc::clone(&wire)));
    f.send((0, 1, 7), vec![9]).unwrap();
    assert_eq!(f.recv((0, 1, 7)).unwrap(), vec![9]);
    wait_health(&f, Duration::from_secs(10), "no PeerDead verdict", |h| {
        h.dead_peers.iter().any(|d| d.peer == 1 && d.attempts == 3)
    });
    let errs = f.drain_errors();
    assert!(
        errs.iter()
            .any(|e| matches!(e, FabricError::PeerDead { peer: 1, .. })),
        "typed PeerDead not recorded: {errs:?}"
    );
    // A subsequent receive timeout on a channel from the dead peer
    // names it in the diagnostic.
    let err = f
        .recv_within((1, 0, 9), Duration::from_millis(20))
        .unwrap_err();
    match err {
        FabricError::Timeout(d) => {
            assert_eq!(d.suspected, vec![1], "diag must name the dead peer")
        }
        other => panic!("expected timeout, got {other:?}"),
    }
}

/// Payload frames numbered so far on each lane from node `from` to node
/// `to`: a message is one frame, so this counts the frames each lane
/// carried (a lane kill's migration numbers moved frames again).
fn frames_per_lane(f: &TcpFabric, from: usize, to: usize) -> Vec<u64> {
    (0..f.mesh.cfg.lanes)
        .map(|l| f.mesh.slot((from, to, l)).tx.next.load(Ordering::Relaxed))
        .collect()
}

/// A retransmit timeout for tests that [`await_acks`]. An ack is
/// written within a retransmit scan or two (every `rto / 4`), but a
/// loaded host can delay that past a short `rto`. A frame re-sent
/// before its ack lands gives no RTT sample (Karn's rule), and a test
/// that sent only a few frames then measures none.
const ACKED_RTO: Duration = Duration::from_millis(250);

/// Wait until `f` has measured an ack and holds no unacked frame. Give
/// `f` an `rto` of [`ACKED_RTO`].
fn await_acks(f: &TcpFabric, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while f.stats().ack_rtt.count == 0 || f.pending_frames() > 0 {
        assert!(
            Instant::now() < deadline,
            "{what}: frames never acked: {:?}, {} pending",
            f.stats().ack_rtt,
            f.pending_frames()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        f.stats().ack_rtt.p50_us.is_some(),
        "samples imply a percentile"
    );
}

#[test]
fn default_config_stripes_large_messages_into_eager_segments() {
    // The shape the benchmark runs: the default config at k = 2 and
    // k = 1. Every message goes whole as one eager frame on its
    // sender's lane, whatever its size.
    for lanes in [2, 1] {
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes,
                rto: ACKED_RTO,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        let big: Vec<u8> = (0..128 * 1024u32).map(|i| (i % 251) as u8).collect();
        f.send((0, 1, 0), big.clone()).unwrap();
        assert_eq!(f.recv((0, 1, 0)).unwrap(), big, "k = {lanes}");
        let small = vec![7u8; 8 * 1024 - 1];
        f.send((0, 1, 1), small.clone()).unwrap();
        assert_eq!(f.recv((0, 1, 1)).unwrap(), small);
        let mut want = vec![0; lanes];
        want[0] = 2;
        assert_eq!(frames_per_lane(&f, 0, 1), want, "k = {lanes}");
        // Large frames are acked like small ones.
        await_acks(&f, &format!("k = {lanes}"));
    }
}

// Tests named for rendezvous or striping keep the names they had when
// large messages took a handshake or split over lanes; each now checks
// the same payload, order or failover on whole messages.

#[test]
fn rendezvous_payload_is_intact() {
    // One lane: a 100 000 B message goes whole, as one eager frame.
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    f.send((0, 1, 3), big.clone()).unwrap();
    assert_eq!(f.recv((0, 1, 3)).unwrap(), big);
    assert_eq!(f.stats().total_msgs(), 1);
    assert_eq!(frames_per_lane(&f, 0, 1), [1]);
}

#[test]
fn rendezvous_transfers_record_ack_rtt() {
    // A 4 KiB frame's covering ack must land and be measured, and the
    // pending table must drain.
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            rto: ACKED_RTO,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    f.send((0, 1, 0), vec![7; 4096]).unwrap();
    assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![7; 4096]);
    await_acks(&f, "4 KiB frame");
}

#[test]
fn striped_rendezvous_payload_is_intact() {
    // 100 000 B from sender 1 over 4 lanes: one frame on lane 1.
    let f = TcpFabric::connect(
        Topology::new(2, 4),
        TcpConfig {
            lanes: 4,
            rto: ACKED_RTO,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    f.send((1, 4, 3), big.clone()).unwrap();
    assert_eq!(f.recv((1, 4, 3)).unwrap(), big);
    assert_eq!(f.stats().total_msgs(), 1);
    assert_eq!(frames_per_lane(&f, 0, 1), [0, 1, 0, 0]);
    await_acks(&f, "100 000 B");
}

#[test]
fn small_messages_stay_on_the_modulo_fast_path_under_stripe() {
    let f = fast_rto(4, 4);
    for src in 0..4 {
        f.send((src, 4, 0), vec![src as u8; 8]).unwrap();
    }
    for src in 0..4 {
        assert_eq!(f.recv((src, 4, 0)).unwrap(), vec![src as u8; 8]);
    }
    let s = f.stats();
    for lane in 0..4 {
        assert_eq!(s.lanes[lane].msgs, 1, "one sender per lane");
    }
    assert_eq!(frames_per_lane(&f, 0, 1), [1, 1, 1, 1]);
}

#[test]
fn a_large_message_rides_its_senders_lane_whole() {
    // 128 KiB from local ranks 0 and 1 at k = 2 and k = 4: each is one
    // frame on its sender's lane. After that lane dies the sender's next
    // message goes whole on a survivor, byte-exact.
    let big = |src: usize, n: u32| -> Vec<u8> {
        (0..128 * 1024u32)
            .map(|i| (i % 251) as u8 ^ (src as u8) ^ (n as u8))
            .collect()
    };
    for lanes in [2usize, 4] {
        for src in [0usize, 1] {
            let f = TcpFabric::connect(
                Topology::new(2, 4),
                TcpConfig {
                    lanes,
                    rto: ACKED_RTO,
                    ..TcpConfig::default()
                },
            )
            .unwrap();
            let key = (src, 4 + src, 2);
            f.send(key, big(src, 0)).unwrap();
            assert_eq!(f.recv(key).unwrap(), big(src, 0), "k = {lanes}");
            let mut want = vec![0u64; lanes];
            want[src] = 1;
            assert_eq!(frames_per_lane(&f, 0, 1), want, "k = {lanes} src {src}");
            // Nothing unacked is left to migrate: the kill moves no frame.
            await_acks(&f, "first message");
            assert!(f.kill_lane(src));
            f.send(key, big(src, 1)).unwrap();
            assert_eq!(f.recv(key).unwrap(), big(src, 1), "k = {lanes} src {src}");
            let after = frames_per_lane(&f, 0, 1);
            assert_eq!(after[src], 1, "k = {lanes}: the dead lane carried more");
            assert_eq!(
                after.iter().sum::<u64>(),
                2,
                "k = {lanes} src {src}: {after:?}"
            );
            assert_eq!(f.stats().total_msgs(), 2);
            assert!(f.drain_errors().is_empty());
        }
    }
}

#[test]
fn striped_fifo_survives_interleaving_and_a_lane_kill() {
    let f = fast_rto(4, 4);
    let mk = |i: u8, n: usize| vec![i; n];
    for i in 0..6u8 {
        // Alternate 256 B and 8 B messages on one channel; kill the
        // sender's lane mid-stream.
        f.send((0, 4, 1), mk(i, if i % 2 == 0 { 256 } else { 8 }))
            .unwrap();
        if i == 3 {
            assert!(f.kill_lane(0));
        }
    }
    for i in 0..6u8 {
        let want = mk(i, if i % 2 == 0 { 256 } else { 8 });
        assert_eq!(f.recv((0, 4, 1)).unwrap(), want, "message {i}");
    }
}

#[test]
fn striped_eager_recovers_from_chaos_drops() {
    let f = fast_rto(2, 4);
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        drop: 0.3,
        seed: 17,
        ..ChaosConfig::default()
    }));
    assert!(f.install_chaos(Arc::clone(&wire)));
    let msgs: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 200]).collect();
    for m in &msgs {
        f.send((0, 4, 5), m.clone()).unwrap();
    }
    for m in &msgs {
        assert_eq!(&f.recv((0, 4, 5)).unwrap(), m);
    }
    assert!(
        wire.dropped() > 0,
        "seed 17 must drop something in 30 frames"
    );
    assert!(f.drain_errors().is_empty(), "recovery is not an error");
}

#[test]
fn broken_connection_reconnects_and_delivery_continues() {
    let f = fast_rto(1, 1);
    f.send((0, 1, 0), vec![1]).unwrap();
    assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![1]);
    assert!(f.break_connection(0, 1, 0));
    assert!(!f.break_connection(0, 1, 9), "no such lane");
    // Traffic sent across the break must still arrive: anything lost
    // mid-repair is recovered by retransmit.
    for i in 0..20u8 {
        f.send((0, 1, 0), vec![10 + i]).unwrap();
    }
    for i in 0..20u8 {
        assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![10 + i]);
    }
    assert!(f.drain_errors().is_empty(), "a repaired break is silent");
}

/// Poll the health view until `browned_lanes == want` (the brownout
/// duty runs on the progress thread's window clock, not the test's).
fn wait_browned(f: &TcpFabric, want: &[usize]) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        if f.health().browned_lanes == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn gray_failing_lane_is_demoted_and_restored_after_the_fault_clears() {
    let f = TcpFabric::connect(
        Topology::new(2, 2),
        TcpConfig {
            lanes: 2,
            rto: Duration::from_millis(5),
            brownout_window: Duration::from_millis(20),
            brownout_retransmits: 2,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric");
    let wire = Arc::new(WireChaos::new(&ChaosConfig::default()));
    assert!(f.install_chaos(Arc::clone(&wire)));
    // Gray failure: lane 1 silently eats every frame while its
    // sockets stay connected — the case fail-stop detection cannot
    // see (no error, no disconnect, just loss).
    wire.degrade_lane(1, 1.0);
    // Sender local rank 1 nominally rides lane 1, so every
    // first transmission is eaten; each retransmit blames lane 1.
    for i in 0..8u8 {
        f.send((1, 3, 7), vec![i]).unwrap();
    }
    // Two blamed retransmits inside one 20 ms window demote the
    // lane: browned, not dead.
    assert!(
        wait_browned(&f, &[1]),
        "lane 1 never browned: health {:?}",
        f.health().browned_lanes
    );
    assert!(
        f.diag().dead_lanes.is_empty(),
        "browned is a demotion, not a death"
    );
    // The stalled traffic completes: retransmits stay on lane 1, whose
    // sockets are live, and the lane fault eats only first
    // transmissions (a retransmit meets only cut edges, see
    // `Mesh::push_ctrl_to`).
    for i in 0..8u8 {
        assert_eq!(f.recv((1, 3, 7)).unwrap(), vec![i]);
    }
    // Fresh sends from the lane-1 sender also avoid the browned
    // lane while it is demoted.
    f.send((1, 3, 8), vec![0xAB]).unwrap();
    assert_eq!(f.recv((1, 3, 8)).unwrap(), vec![0xAB]);
    assert!(
        f.drain_errors().is_empty(),
        "brownout recovery is not an error"
    );
    // The gray failure lifts; the next window's probe heartbeat
    // crosses the lane and restores it.
    wire.heal_lanes();
    assert!(
        wait_browned(&f, &[]),
        "lane 1 never restored after heal: health {:?}",
        f.health().browned_lanes
    );
}

#[test]
fn lost_wakeup_full_send_queue() {
    // A one-slot queue per pair: nearly every send parks until the
    // progress thread frees the slot, so a free that skipped the
    // notify would leave the sender parked for a whole sync timeout.
    // A frame goes inline only to a receiver that reads the wire
    // itself; this one polls, so every frame takes the bounded queue.
    let _stress = crate::wake_stress();
    const N: u32 = 10_000;
    let t = sync_timeout();
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            queue_cap: 1,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let timed = |i: u32, op: &dyn Fn()| {
        let t0 = Instant::now();
        op();
        assert!(
            t0.elapsed() < t,
            "message {i} waited out the sync timeout: a wake-up was lost"
        );
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..N {
                timed(i, &|| f.send((0, 1, 4), i.to_le_bytes().to_vec()).unwrap());
            }
        });
        for i in 0..N {
            let t0 = Instant::now();
            let m = loop {
                if let Some(m) = f.try_recv((0, 1, 4)).unwrap() {
                    break m;
                }
                assert!(
                    t0.elapsed() < t,
                    "message {i} never arrived: a wake-up was lost"
                );
                std::thread::yield_now();
            };
            assert_eq!(m, i.to_le_bytes());
        }
    });
    let s = f.stats();
    assert_eq!(s.inline_sends, 0, "a frame skipped the queue");
    assert!(s.lanes[0].stalls > 0, "the queue never filled");
    assert!(f.drain_errors().is_empty());
}

#[test]
#[cfg(target_os = "linux")]
fn write_stall_is_woken_by_the_reader() {
    // One lane: the progress thread writes the frame and stalls on
    // `WouldBlock`, and only a reader that drains the socket (the
    // waiting rank, or the same thread's read pass) can tell when it
    // may go on. A frame far larger than the socket buffers completes
    // no frame (and so sends no ack back) for many read passes; without
    // a wake-up from the reader each refill of the socket costs the
    // writer a park of up to 10 ms. Small kernel buffers make those
    // refills many: on a 2-vCPU VM the transfer takes ~0.25 s with the
    // wake-up and ~1.4 s without it.
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            // No retransmit of a frame that is still streaming.
            rto: Duration::from_secs(5),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let bytes: i32 = 16 << 10;
    for conn in f.mesh.conns.lock().unwrap().values() {
        for stream in [&conn.out, &conn.inn] {
            for opt in [SO_SNDBUF, SO_RCVBUF] {
                // SAFETY: a live socket descriptor, and a pointer to
                // an i32 of the length passed.
                let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, opt, &bytes, 4) };
                assert_eq!(rc, 0, "setsockopt");
            }
        }
    }
    let msg = vec![0x5A; 4 << 20];
    let start = Instant::now();
    f.send((1, 0, 2), msg.clone()).unwrap();
    assert_eq!(f.recv((1, 0, 2)).unwrap(), msg);
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "4 MiB over one lane took {took:?}: the writer waited out its park cap"
    );
}

#[test]
fn lost_wakeup_inline_exchange() {
    // Two ranks trade 128 B frames, the benchmark's small-message
    // shape: each send goes onto the socket from the sending rank and
    // the receiving rank drains it itself. A poke lost between the
    // write and the receiver's park is recovered only by the progress
    // thread's bounded park (10 ms): rounds that slow are its signature. A few
    // may be the scheduler's; more than 20 in 20k are not.
    let _stress = crate::wake_stress();
    const ROUNDS: usize = 20_000;
    const T: Duration = Duration::from_secs(5);
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let exchange = |me: usize, round: usize| {
        let t0 = Instant::now();
        f.send((me, 1 - me, 3), vec![round as u8; 128]).unwrap();
        let got = f.recv_within((1 - me, me, 3), T).unwrap();
        assert_eq!(got, vec![round as u8; 128], "round {round}");
        let took = t0.elapsed();
        assert!(
            took < T,
            "round {round} waited out the timeout: a wake-up was lost"
        );
        took >= Duration::from_micros(9_500)
    };
    let slow = std::thread::scope(|s| {
        let peer = s.spawn(|| (0..ROUNDS).filter(|&r| exchange(1, r)).count());
        let mine = (0..ROUNDS).filter(|&r| exchange(0, r)).count();
        mine + peer.join().unwrap()
    });
    let s = f.stats();
    assert!(
        s.inline_sends > 0 && s.rank_reads > 0,
        "the exchange never took the rank-driven path: {s:?}"
    );
    assert!(
        slow <= 20,
        "{slow} rounds took ≥ 9.5 ms: wake-ups were lost to the progress thread's park"
    );
    assert!(f.drain_errors().is_empty());
}

#[test]
fn lost_wakeup_receive_delivered_by_another_thread() {
    // The exchange above, with a third thread driving the fabric in a
    // loop as the service engine does: it reads whatever lands on any
    // socket, often before the kernel has run the rank sleeping in
    // poll(2) on it. That sleep then finds its socket drained and sleeps
    // on; only the wake byte the store writes for the delivery ends it.
    // A lost byte leaves the receive to its timeout.
    let _stress = crate::wake_stress();
    const ROUNDS: usize = 10_000;
    const T: Duration = Duration::from_secs(5);
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let exchange = |me: usize, round: usize| {
        let t0 = Instant::now();
        f.send((me, 1 - me, 3), vec![round as u8; 128]).unwrap();
        let got = f.recv_within((1 - me, me, 3), T).unwrap();
        assert_eq!(got, vec![round as u8; 128], "round {round}");
        let took = t0.elapsed();
        assert!(
            took < T,
            "round {round} waited out the timeout: a wake-up was lost"
        );
        took >= Duration::from_micros(9_500)
    };
    let done = AtomicBool::new(false);
    /// Stops the driver however the exchange ends, panics included.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let slow = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                f.drive(false);
                std::thread::yield_now();
            }
        });
        let _stop = Stop(&done);
        let peer = s.spawn(|| (0..ROUNDS).filter(|&r| exchange(1, r)).count());
        let mine = (0..ROUNDS).filter(|&r| exchange(0, r)).count();
        mine + peer.join().unwrap()
    });
    let s = f.stats();
    assert!(
        s.driver_frames > 0 && s.rank_reads > 0,
        "the driver never read a frame, or the ranks never did: {s:?}"
    );
    assert!(
        slow <= 20,
        "{slow} rounds took ≥ 9.5 ms: wake-ups were lost to the progress thread's park"
    );
    assert!(f.drain_errors().is_empty());
}

/// Shrink the kernel send and receive buffers of every socket of `f` to
/// `bytes`, so a large frame cannot leave in one write.
#[cfg(target_os = "linux")]
fn shrink_socket_buffers(f: &TcpFabric, bytes: i32) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    for conn in f.mesh.conns.lock().unwrap().values() {
        for stream in [&conn.out, &conn.inn] {
            for opt in [SO_SNDBUF, SO_RCVBUF] {
                // SAFETY: a live socket descriptor, and a pointer to an
                // i32 of the length passed.
                let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, opt, &bytes, 4) };
                assert_eq!(rc, 0, "setsockopt");
            }
        }
    }
}

#[test]
#[cfg(target_os = "linux")]
fn inline_write_tears_and_the_worker_finishes() {
    // A 64 KiB eager frame against 16 KiB socket buffers: the sending
    // rank's inline write takes what fits and returns, and the rest
    // stays in the cursor for the progress thread. The bytes must
    // arrive whole and the frame's ack must retire it.
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            // No retransmit of a frame that is still streaming.
            rto: Duration::from_secs(5),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    shrink_socket_buffers(&f, 16 << 10);
    // Inline writes need a receiver that reads the wire itself, and the
    // progress thread parked.
    f.send((1, 0, 2), vec![1]).unwrap();
    assert_eq!(f.recv((1, 0, 2)).unwrap(), vec![1]);
    let inline_before = f.stats().inline_sends;
    let deadline = Instant::now() + Duration::from_secs(5);
    while !f.mesh.progress.signal.is_parked() {
        assert!(
            Instant::now() < deadline,
            "the progress thread never parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let msg: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 253) as u8).collect();
    f.send((1, 0, 2), msg.clone()).unwrap();
    assert_eq!(
        f.stats().inline_sends,
        inline_before + 1,
        "the segment went inline"
    );
    assert_eq!(f.recv((1, 0, 2)).unwrap(), msg);
    let deadline = Instant::now() + Duration::from_secs(10);
    while f.pending_frames() > 0 {
        assert!(Instant::now() < deadline, "the torn frame was never acked");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(f.drain_errors().is_empty());
}

#[test]
fn chaos_on_inline_sends_is_accounted_like_the_queue() {
    // Drop, duplicate and corrupt first transmissions while the ranks
    // write their own frames: the faults land on the inline path and
    // must be recovered and counted exactly as on the queued one.
    const ROUNDS: usize = 400;
    let f = fast_rto(2, 1);
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        drop: 0.05,
        dup: 0.05,
        corrupt: 0.05,
        seed: 19,
        ..ChaosConfig::default()
    }));
    assert!(f.install_chaos(Arc::clone(&wire)));
    let payload = |me: usize, round: usize| -> Vec<u8> {
        (0..128).map(|i| (i * 7 + round + 31 * me) as u8).collect()
    };
    let exchange = |me: usize| {
        for round in 0..ROUNDS {
            f.send((me, 1 - me, 5), payload(me, round)).unwrap();
            assert_eq!(
                f.recv((1 - me, me, 5)).unwrap(),
                payload(1 - me, round),
                "rank {me} round {round}"
            );
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| exchange(1));
        exchange(0);
    });
    let s = f.stats();
    assert!(s.inline_sends > 0, "no send went inline: {s:?}");
    assert!(
        wire.dropped() > 0 && wire.dupped() > 0 && wire.corrupted() > 0,
        "seed 19 must drop, duplicate and corrupt something"
    );
    assert_eq!(
        s.corrupt_frames,
        wire.corrupted(),
        "every flipped frame is caught once"
    );
    assert!(
        s.retransmits >= wire.dropped(),
        "{} drops but {} retransmits",
        wire.dropped(),
        s.retransmits
    );
    assert!(
        s.dups_dropped >= wire.dupped(),
        "{} duplicates but {} dropped by dedup",
        wire.dupped(),
        s.dups_dropped
    );
    assert!(f.drain_errors().is_empty(), "recovery is not an error");
}

/// A round slower than this waited for the progress thread's bounded
/// park.
const SLOW: Duration = Duration::from_millis(2);

#[test]
fn lost_wakeup_driver_handoff() {
    // A thread driving the fabric queues its sends without waking the
    // progress thread: its next pass writes them. Each round here queues one
    // frame while driving and then stops driving — by a last pass that
    // writes it (odd rounds) or with no pass at all (even rounds), so
    // only the wake-ups handed back on the way out can move it. The
    // peer waits as a rank and answers. A hand-off that skipped its
    // wake-up leaves the frame to the progress thread's bounded park
    // (it ends every `rto / 4`): a round takes milliseconds, not the
    // tens of microseconds of a woken thread: without the hand-off
    // about half the rounds are slow. A loaded
    // host makes a few percent slow by itself; more than 5% is a lost
    // wake-up.
    let _stress = crate::wake_stress();
    const ROUNDS: usize = 10_000;
    const T: Duration = Duration::from_secs(5);
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let slow = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                let got = f.recv_within((0, 1, 5), T).unwrap();
                assert_eq!(got, vec![round as u8; 64], "round {round}");
                f.send((1, 0, 6), got).unwrap();
            }
        });
        (0..ROUNDS)
            .filter(|&round| {
                let t0 = Instant::now();
                drive::drive(&f.mesh, true);
                f.send((0, 1, 5), vec![round as u8; 64]).unwrap();
                if round % 2 == 1 {
                    drive::drive(&f.mesh, false);
                } else {
                    drive::stop_driving(&f.mesh);
                }
                assert!(!drive::driving(&f.mesh));
                assert_eq!(f.recv_within((1, 0, 6), T).unwrap(), vec![round as u8; 64]);
                let took = t0.elapsed();
                assert!(took < T, "round {round} waited out the timeout");
                took >= SLOW
            })
            .count()
    });
    let s = f.stats();
    assert!(s.driver_frames > 0, "no pass wrote a frame: {s:?}");
    assert!(
        slow <= ROUNDS / 20,
        "{slow} rounds took ≥ {SLOW:?}: a hand-off lost its wake-up"
    );
    assert!(f.drain_errors().is_empty());
}

#[test]
fn lost_wakeup_driving_send_into_a_full_queue() {
    // A one-slot queue: a driving thread's second send finds the first
    // still queued, with the progress thread's wake-up deferred. Before
    // it blocks it must hand that wake-up back, or it waits out the
    // thread's bounded park for the slot (most sends do, without the hand-back;
    // a loaded host slows a few percent by itself).
    let _stress = crate::wake_stress();
    const ROUNDS: usize = 2_000;
    const T: Duration = Duration::from_secs(5);
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            queue_cap: 1,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let slow = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                for k in 0..2u8 {
                    let got = f.recv_within((0, 1, 7), T).unwrap();
                    assert_eq!(got, vec![round as u8, k], "round {round}");
                }
                f.send((1, 0, 8), vec![round as u8]).unwrap();
            }
        });
        (0..ROUNDS)
            .filter(|&round| {
                drive::drive(&f.mesh, true);
                f.send((0, 1, 7), vec![round as u8, 0]).unwrap();
                let t0 = Instant::now();
                f.send((0, 1, 7), vec![round as u8, 1]).unwrap();
                let took = t0.elapsed();
                drive::stop_driving(&f.mesh);
                assert_eq!(f.recv_within((1, 0, 8), T).unwrap(), vec![round as u8]);
                took >= SLOW
            })
            .count()
    });
    assert!(f.stats().lanes[0].stalls > 0, "the queue never filled");
    assert!(
        slow <= ROUNDS / 20,
        "{slow} driving sends took ≥ {SLOW:?}: a full queue lost its wake-up"
    );
    assert!(f.drain_errors().is_empty());
}

#[test]
fn lost_wakeup_driving_engine_beside_waiting_ranks() {
    // One 2×2 fabric carries both kinds of caller at once. Rank 0's
    // thread polls as the service engine does — `drive(true)` then
    // `try_recv`, yielding when nothing came — and trades with rank 2,
    // which blocks in `recv_within`; ranks 1 and 3 ping-pong on their
    // own channels meanwhile. The engine's sends wake nobody while it
    // drives, rank 2 sleeps in `poll(2)` on sockets the engine and the
    // progress thread read too, and both pairs' frames share the
    // progress thread. A wake-up lost to the progress thread leaves a
    // round to its bounded park: a loaded host makes a few percent of
    // rounds slow by itself, more than 5% is a lost wake-up. A wake
    // byte lost to a rank asleep in `poll(2)` leaves it asleep until an
    // unrelated frame or a timer's write lands on its sockets, which
    // takes hundreds of milliseconds: no round may take `STUCK`.
    let _stress = crate::wake_stress();
    const ROUNDS: usize = 5_000;
    const T: Duration = Duration::from_secs(5);
    const STUCK: Duration = Duration::from_millis(250);
    let bounded = |what: &str, round: usize, t0: Instant| {
        let took = t0.elapsed();
        assert!(
            took < STUCK,
            "{what} round {round} took {took:?}: a wake-up was lost"
        );
        took >= SLOW
    };
    let f = TcpFabric::connect(
        Topology::new(2, 2),
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let payload = |me: usize, round: usize| -> Vec<u8> {
        (0..64).map(|i| (i * 3 + round + 41 * me) as u8).collect()
    };
    let rank_exchange = |me: usize, peer: usize, round: usize| {
        let t0 = Instant::now();
        f.send((me, peer, 4), payload(me, round)).unwrap();
        let got = f.recv_within((peer, me, 4), T).unwrap();
        assert_eq!(got, payload(peer, round), "rank {me} round {round}");
        bounded("rank pair", round, t0)
    };
    let engine_round = |round: usize| {
        let t0 = Instant::now();
        f.drive(true);
        f.send((0, 2, 9), payload(0, round)).unwrap();
        let got = loop {
            f.drive(true);
            if let Some(m) = f.try_recv((2, 0, 9)).unwrap() {
                break m;
            }
            bounded("engine", round, t0);
            std::thread::yield_now();
        };
        assert_eq!(got, payload(2, round), "engine round {round}");
        bounded("engine", round, t0)
    };
    let slow = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                let t0 = Instant::now();
                let got = f.recv_within((0, 2, 9), T).unwrap();
                assert_eq!(got, payload(0, round), "rank 2 round {round}");
                bounded("rank 2", round, t0);
                f.send((2, 0, 9), payload(2, round)).unwrap();
            }
        });
        let one = s.spawn(|| (0..ROUNDS).filter(|&r| rank_exchange(1, 3, r)).count());
        let three = s.spawn(|| (0..ROUNDS).filter(|&r| rank_exchange(3, 1, r)).count());
        let engine = (0..ROUNDS).filter(|&r| engine_round(r)).count();
        f.drive(false);
        assert!(!drive::driving(&f.mesh));
        engine + one.join().unwrap() + three.join().unwrap()
    });
    let s = f.stats();
    assert!(
        s.driver_frames > 0 && s.rank_reads > 0,
        "the engine never moved a frame, or the ranks never read one: {s:?}"
    );
    assert!(
        slow <= 3 * ROUNDS / 20,
        "{slow} of {} rounds took ≥ {SLOW:?}: a wake-up was lost",
        3 * ROUNDS
    );
    assert!(f.drain_errors().is_empty());
}

/// Send one `len`-byte message on `chan`, hurt the wire with `fault`
/// right after, and require it byte-exact within a bounded receive — ten
/// fresh fabrics in a row, so a loss that only sometimes happens shows.
fn survives(lanes: usize, len: u32, fault: impl Fn(&TcpFabric)) {
    for trial in 0..10u32 {
        let f = TcpFabric::connect(
            Topology::new(2, 1),
            TcpConfig {
                lanes,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        let msg: Vec<u8> = (0..len).map(|i| (i % 251 + trial) as u8).collect();
        f.send((0, 1, 3), msg.clone()).unwrap();
        fault(&f);
        match f.recv_within((0, 1, 3), Duration::from_secs(5)) {
            Ok(got) => assert!(got == msg, "trial {trial}: payload differs"),
            Err(e) => panic!("trial {trial}: message lost: {e}"),
        }
    }
}

#[test]
fn large_message_survives_a_broken_connection() {
    // One lane: the 200 KiB message is one frame, which the break may
    // catch queued, half-written or unread; retransmit must recover it.
    survives(1, 200 * 1024, |f| assert!(f.break_connection(0, 1, 0)));
}

#[test]
fn striped_large_message_survives_a_lane_kill() {
    // Two lanes: the 300 KiB message is one frame on sender 0's lane 0,
    // which dies with it; the frame moves to lane 1.
    survives(2, 300 * 1024, |f| assert!(f.kill_lane(0)));
}

#[test]
fn acks_ride_reverse_frames_of_other_channels() {
    // Ping on tag 3, pong on tag 4: two channels, one lane. Each frame
    // carries the ack its lane owes for the last one the other way, so
    // the exchange needs next to no ACK frame of its own; the last
    // frame's ack is written by the retransmit duty's tick. (With acks
    // kept per channel, no ack could ride a frame of another tag.)
    const ROUNDS: u32 = 1000;
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ROUNDS {
                let got = f.recv((0, 1, 3)).unwrap();
                assert_eq!(got, vec![round as u8; 64], "ping {round}");
                f.send((1, 0, 4), got).unwrap();
            }
        });
        for round in 0..ROUNDS {
            f.send((0, 1, 3), vec![round as u8; 64]).unwrap();
            assert_eq!(f.recv((1, 0, 4)).unwrap(), vec![round as u8; 64]);
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while f.pending_frames() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} frames never acked",
            f.pending_frames()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let s = f.stats();
    let payload = s.total_msgs();
    assert_eq!(payload, 2 * u64::from(ROUNDS));
    assert!(
        s.ack_frames * 32 <= payload,
        "{} ACK frames for {payload} payload frames",
        s.ack_frames
    );
    assert!(f.drain_errors().is_empty());
}

#[test]
fn lane_rx_acks_a_gap_only_once_it_fills() {
    let mut rx = lane::LaneRx::default();
    assert_eq!(rx.take_ack(), None, "nothing arrived, nothing owed");
    assert!(rx.arrive(0) && rx.arrive(1));
    assert_eq!(rx.take_ack(), Some(2));
    assert_eq!(rx.take_ack(), None, "taken once");
    assert!(rx.arrive(3), "frame 2 lost, 3 lands");
    assert_eq!(rx.gaps, [(2, 3)]);
    assert_eq!(rx.take_ack(), Some(2), "the watermark stops at the gap");
    assert!(rx.arrive(2), "the retransmit fills it");
    assert!(rx.gaps.is_empty());
    assert_eq!(rx.take_ack(), Some(4));
}

#[test]
fn lane_rx_fills_two_gaps_out_of_order() {
    let mut rx = lane::LaneRx::default();
    for lseq in [0, 2, 5] {
        assert!(rx.arrive(lseq));
    }
    assert_eq!(rx.gaps, [(1, 2), (3, 5)]);
    assert_eq!(rx.watermark(), 1);
    assert!(rx.arrive(4), "the top of the second gap");
    assert_eq!(rx.gaps, [(1, 2), (3, 4)]);
    assert!(rx.arrive(3));
    assert_eq!(rx.watermark(), 1, "the first gap still holds it");
    assert!(rx.arrive(1));
    assert!(rx.gaps.is_empty());
    assert_eq!(rx.watermark(), 6);
}

#[test]
fn lane_rx_duplicate_below_high_reowes_the_watermark() {
    let mut rx = lane::LaneRx::default();
    for lseq in [0, 1, 3] {
        rx.arrive(lseq);
    }
    assert_eq!(rx.take_ack(), Some(2));
    // The ack was lost; the sender re-sends frame 1, long arrived.
    assert!(!rx.arrive(1), "a duplicate is no arrival");
    assert!(!rx.arrive(3), "nor is one above a gap");
    assert_eq!(rx.owed, 2);
    assert_eq!(rx.take_ack(), Some(2), "but it re-owes the watermark");
    // A gap splits where a frame lands inside it.
    rx.arrive(9);
    assert_eq!(rx.gaps, [(2, 3), (4, 9)]);
    rx.arrive(6);
    assert_eq!(rx.gaps, [(2, 3), (4, 6), (7, 9)]);
    assert!(!rx.arrive(6));
}

#[test]
fn lane_rx_jump_adds_exactly_one_range() {
    let mut rx = lane::LaneRx::default();
    rx.arrive(0);
    assert!(rx.arrive(1 << 40));
    assert_eq!(rx.gaps, [(1, (1 << 40))], "one range, whatever the jump");
    assert_eq!(rx.watermark(), 1);
    assert!(rx.arrive((1 << 40) - 1));
    assert_eq!(rx.gaps, [(1, (1 << 40) - 1)]);
}

#[test]
fn lane_reorders_when_two_senders_share_it() {
    // Two ranks of one node send on one lane: each reserves its number
    // before it encodes, and the later number may register and reach
    // the wire first.
    let pool = crate::pool::FramePool::new();
    let tx = lane::TxRing::default();
    let (a, b) = (tx.reserve(), tx.reserve());
    assert_eq!((a, b), (0, 1));
    let frame = |chan| lane::PendingFrame::new(0, chan, 0, pool.acquire(), Duration::ZERO);
    let mut fb = frame((1, 2, 0));
    fb.lseq = b;
    let mut fa = frame((0, 2, 0));
    fa.lseq = a;
    assert_eq!(tx.insert(fb), 1);
    assert_eq!(tx.insert(fa), 2, "the earlier number slots in first");
    let mut rx = lane::LaneRx::default();
    assert!(rx.arrive(b));
    assert_eq!(rx.take_ack(), None, "frame 0 is missing: nothing to ack");
    assert!(rx.arrive(a));
    assert_eq!(rx.take_ack(), Some(2));
    let mut samples = 0;
    tx.ack(1, |_| samples += 1);
    assert_eq!(tx.frames.lock().unwrap().len(), 1, "only frame 0 leaves");
    tx.ack(2, |_| samples += 1);
    assert_eq!(tx.frames.lock().unwrap().len(), 0);
    assert_eq!(samples, 2);
}

#[test]
fn a_burst_lost_to_a_cut_recovers_many_frames_per_retransmit_tick() {
    // A cut edge eats 400 frames of one lane in a row. Once it heals,
    // each retransmit tick must re-send a batch of them: one frame per
    // tick would take 400 ticks (~2.5 s at the default rto).
    const N: u32 = 400;
    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 1,
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let wire = Arc::new(WireChaos::new(&ChaosConfig::default()));
    assert!(f.install_chaos(Arc::clone(&wire)));
    wire.set_link(Some((0, 1)));
    for i in 0..N {
        f.send((0, 1, 6), i.to_le_bytes().to_vec()).unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    wire.set_link(None);
    let t0 = Instant::now();
    for i in 0..N {
        assert_eq!(f.recv((0, 1, 6)).unwrap(), i.to_le_bytes());
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "{N} lost frames took {took:?}"
    );
    assert!(f.drain_errors().is_empty());
}

#[test]
fn payload_bytes_are_copied_never_on_send_and_at_most_once_on_receive() {
    // A ping-pong per size, so both the ranks and the progress thread
    // read. The
    // send side moves each message into its frame; the receive side
    // copies at most the part of a payload that a read buffered with its
    // frame's header. Copies are taken per payload byte decoded, which
    // counts a retransmitted duplicate as well as the message.
    const ROUNDS: usize = 50;
    for size in [64usize, 8 * 1024, 128 * 1024] {
        let f = TcpFabric::connect(Topology::new(2, 1), TcpConfig::default()).unwrap();
        let msg = |round: usize, src: usize| -> Vec<u8> {
            (0..size).map(|i| (i ^ round ^ (src << 4)) as u8).collect()
        };
        for round in 0..ROUNDS {
            f.send((0, 1, 3), msg(round, 0)).unwrap();
            assert_eq!(f.recv((0, 1, 3)).unwrap(), msg(round, 0), "{size} B");
            f.send((1, 0, 3), msg(round, 1)).unwrap();
            assert_eq!(f.recv((1, 0, 3)).unwrap(), msg(round, 1), "{size} B");
        }
        let s = f.stats();
        let sent = s.total_bytes();
        assert_eq!(sent, (2 * ROUNDS * size) as u64);
        let decoded = sent + s.retransmits * size as u64;
        let send_copies = s.send_copied_bytes as f64 / sent as f64;
        let recv_copies = s.recv_copied_bytes as f64 / decoded as f64;
        println!(
            "{size} B: {send_copies:.3} send and {recv_copies:.3} receive copies per payload byte"
        );
        assert_eq!(
            s.send_copied_bytes, 0,
            "{size} B: the send path copied a payload"
        );
        assert!(
            recv_copies <= 1.0,
            "{size} B: {recv_copies} receive copies per byte"
        );
        assert!(
            s.recv_copied_bytes > 0 || size > 64 * 1024,
            "{size} B: copies went uncounted"
        );
    }
}

#[test]
fn direct_reads_decode_a_stream_in_every_chunking() {
    // Frames of 0 B, 64 B, 8 KiB and 128 KiB + 1, and a payload frame
    // with a flipped payload bit between the second and third, written
    // over loopback TCP in chunks of each size and read the way a read
    // half reads: into the decoder's buffer, or straight into a payload
    // whose header arrived.
    use crate::wire::{FrameDecoder, HEADER_LEN};
    use std::io::Write;
    let frame = |seq: u64, len: usize| Frame {
        kind: FrameKind::Eager,
        src: 1,
        dst: 2,
        tag: 3,
        seq,
        aux: seq + 1,
        seg_idx: 0,
        seg_count: 0,
        payload: (0..len).map(|i| (i * 31 + seq as usize) as u8).collect(),
    };
    let frames: Vec<Frame> = [0usize, 64, 8 * 1024, 128 * 1024 + 1]
        .iter()
        .enumerate()
        .map(|(i, &len)| frame(i as u64, len))
        .collect();
    let mut corrupt = frame(9, 4096).encode();
    corrupt[HEADER_LEN + 2048] ^= 0x04;
    let mut wire = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        if i == 2 {
            wire.extend_from_slice(&corrupt);
        }
        wire.extend_from_slice(&f.encode());
    }
    let payload_bytes: usize = frames.iter().map(|f| f.payload.len()).sum::<usize>() + 4096;
    for chunk in [1usize, 7, 48, 4096, 65_537] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (reader, _) = listener.accept().unwrap();
        writer.set_nonblocking(true).unwrap();
        reader.set_nonblocking(true).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let drain = |dec: &mut FrameDecoder, got: &mut Vec<Frame>| loop {
            let (into, room) = dec.read_target();
            match drive::read_spare(&reader, into, room) {
                Ok(n) => {
                    assert!(n > 0, "chunk {chunk}: the writer hung up");
                    while let Some(f) = dec.next_frame().expect("no WireError") {
                        got.push(f);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => panic!("chunk {chunk}: {e}"),
            }
        };
        for part in wire.chunks(chunk) {
            let mut rest = part;
            while !rest.is_empty() {
                match (&writer).write(rest) {
                    Ok(n) => rest = &rest[n..],
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("chunk {chunk}: {e}"),
                }
                drain(&mut dec, &mut got);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < frames.len() && Instant::now() < deadline {
            drain(&mut dec, &mut got);
            std::thread::yield_now();
        }
        assert_eq!(got, frames, "chunk {chunk}");
        assert_eq!(dec.take_corrupt(), 1, "chunk {chunk}");
        assert_eq!(dec.pending_bytes(), 0, "chunk {chunk}");
        assert!(dec.take_copied() <= payload_bytes as u64, "chunk {chunk}");
    }
}
