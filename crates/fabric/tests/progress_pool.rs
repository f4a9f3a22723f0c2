//! Progress-thread contracts: a fabric with an internode endpoint runs
//! exactly one progress thread, whatever its node pairs and lanes; a
//! fabric of one node runs none; and `Drop` joins the thread with
//! nothing left unacked or running.
//!
//! These are the guardrails on the event-driven core: a design with a
//! thread per lane endpoint spawns O(nodes² × k) threads, which is
//! exactly what these tests would catch coming back.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use pipmcoll_fabric::{Fabric, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;

/// Progress threads alive right now.
fn live(f: &TcpFabric) -> usize {
    f.census_probe().load(Ordering::SeqCst)
}

fn fabric(nodes: usize, ranks_per_node: usize, lanes: usize) -> TcpFabric {
    TcpFabric::connect(
        Topology::new(nodes, ranks_per_node),
        TcpConfig {
            lanes,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric")
}

#[test]
fn thread_budget_is_independent_of_pairs_and_lanes() {
    // 2 nodes × k=1: 2 endpoints. 4 nodes × k=8: 6 pairs × 8 lanes × 2
    // directions = 96 endpoints. Both run on one progress thread.
    let small = fabric(2, 1, 1);
    let big = fabric(4, 2, 8);
    assert_eq!(live(&small), 1, "2×1 k=1");
    assert_eq!(live(&big), 1, "4×2 k=8, 96 endpoints");
    // And the big mesh actually works: rank 0 (node 0) to rank 7
    // (node 3) round-trips with the one thread as backstop.
    big.send((0, 7, 0), vec![1, 2, 3]).unwrap();
    assert_eq!(big.recv((0, 7, 0)).unwrap(), vec![1, 2, 3]);
}

#[test]
fn one_node_fabric_spawns_no_progress_thread() {
    // No internode endpoint, nothing for a progress thread to drive:
    // node-local messages go straight into the node's store.
    let f = fabric(1, 4, 2);
    assert_eq!(live(&f), 0);
    f.send((0, 3, 1), vec![7; 5]).unwrap();
    assert_eq!(f.recv((0, 3, 1)).unwrap(), vec![7; 5]);
}

#[cfg(target_os = "linux")]
#[test]
fn the_progress_thread_is_named_fab_pool_0() {
    // Other tests in this binary may run fabrics at the same time, and
    // each names its thread `fab-pool-0` too: so no thread of this
    // process may carry another `fab-pool-` name, and while this
    // fabric lives at least one carries that one. A thread takes its
    // name once it starts running, so wait for it.
    let names = || -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("the process's task list")
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|n| n.trim_end().to_string())
            .filter(|n| n.starts_with("fab-pool-"))
            .collect()
    };
    let f = fabric(4, 2, 8);
    let deadline = Instant::now() + Duration::from_secs(10);
    let live = loop {
        let live = names();
        if !live.is_empty() {
            break live;
        }
        assert!(Instant::now() < deadline, "no thread took a fab-pool- name");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(live.iter().all(|n| n == "fab-pool-0"), "{live:?}");
    drop(f);
}

#[test]
fn shutdown_joins_the_pool_with_no_leaked_threads_or_pending_frames() {
    let f = fabric(2, 2, 4);
    for i in 0..100u8 {
        f.send((0, 2, 0), vec![i]).unwrap();
    }
    for i in 0..100u8 {
        assert_eq!(f.recv((0, 2, 0)).unwrap(), vec![i]);
    }
    // Every delivered frame's ack must land: the retransmit-pending
    // table drains to zero before shutdown, so nothing is abandoned.
    let deadline = Instant::now() + Duration::from_secs(10);
    while f.pending_frames() > 0 {
        assert!(
            Instant::now() < deadline,
            "pending frames never drained: {}",
            f.pending_frames()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let probe = f.census_probe();
    assert_eq!(probe.load(Ordering::SeqCst), 1);
    drop(f);
    assert_eq!(
        probe.load(Ordering::SeqCst),
        0,
        "Drop must join the progress thread"
    );
}
