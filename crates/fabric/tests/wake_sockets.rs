//! A thread's first blocking internode receive opens the wake socket
//! pair it sleeps on, and keeps it for the thread's life. Runtimes spawn
//! fresh rank threads for every batch of collectives, so the pair must
//! close with its thread, however the receive ended.
//!
//! This test has its own binary because it counts the process's open
//! descriptors, which tests running beside it would move.

#[test]
#[cfg(target_os = "linux")]
fn receiving_threads_leave_no_descriptors_behind() {
    use std::time::Duration;

    use pipmcoll_fabric::{Fabric, TcpConfig, TcpFabric};
    use pipmcoll_model::Topology;

    let f = TcpFabric::connect(
        Topology::new(2, 1),
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric");
    let open = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let before = open();
    for i in 0..200u32 {
        std::thread::scope(|s| {
            let rank = s.spawn(|| {
                // Nothing comes on tag 1: the receive sleeps and times out.
                assert!(f.recv_within((0, 1, 1), Duration::from_millis(1)).is_err());
                f.recv_within((0, 1, 2), Duration::from_secs(10)).unwrap()
            });
            f.send((0, 1, 2), i.to_le_bytes().to_vec()).unwrap();
            assert_eq!(rank.join().unwrap(), i.to_le_bytes());
        });
    }
    assert_eq!(
        open(),
        before,
        "threads that received left descriptors open"
    );
}
