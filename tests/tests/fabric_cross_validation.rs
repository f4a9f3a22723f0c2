//! Fabric cross-validation: the full collective grid must produce
//! byte-identical results whether internode messages travel over the
//! in-process channel backend or over real loopback TCP sockets with
//! k ∈ {1, 2, 4} lanes.
//!
//! The in-process run goes through [`run_cluster_verified_on`], so the
//! schedule is proven race- and deadlock-free once; the TCP runs reuse
//! the proven schedule (the happens-before argument is fabric-
//! independent — every backend provides the same per-channel FIFO
//! matching semantics, enforced by the fabric conformance suite).

use std::sync::Arc;
use std::time::Duration;

use pipmcoll_core::{
    build_schedule, AllgatherParams, AllreduceParams, CollectiveSpec, LibraryProfile, ScatterParams,
};
use pipmcoll_fabric::{ChaosConfig, ChaosFabric, InProcFabric, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;
use pipmcoll_rt::{run_cluster_on, run_cluster_verified_on, Algo};
use pipmcoll_sched::verify::pattern;
use pipmcoll_sched::{BufSizes, Comm};

struct LibAlgo {
    lib: LibraryProfile,
    spec: CollectiveSpec,
}

impl Algo for LibAlgo {
    fn run<C: Comm>(&self, c: &mut C) {
        match self.spec {
            CollectiveSpec::Scatter(p) => self.lib.scatter(c, &p),
            CollectiveSpec::Allgather(p) => self.lib.allgather(c, &p),
            CollectiveSpec::Allreduce(p) => self.lib.allreduce(c, &p),
        }
    }
}

/// Run `spec` under `lib` over in-process channels (verified) and over
/// TCP with each lane count; all results must be byte-identical.
fn cross_validate(lib: LibraryProfile, nodes: usize, ppn: usize, spec: CollectiveSpec) {
    let topo = Topology::new(nodes, ppn);
    let algo = LibAlgo { lib, spec };
    let sizes: Vec<BufSizes> = build_schedule(lib, topo, &spec)
        .programs()
        .iter()
        .map(|p| p.sizes)
        .collect();
    let sizes = &sizes;
    let reference = run_cluster_verified_on(
        Arc::new(InProcFabric::new()),
        topo,
        |r| sizes[r],
        |r| pattern(r, sizes[r].send),
        &algo,
    );
    for lanes in [1usize, 2, 4] {
        let fabric = Arc::new(
            TcpFabric::connect(
                topo,
                TcpConfig {
                    lanes,
                    ..TcpConfig::default()
                },
            )
            .expect("loopback fabric"),
        );
        let res = run_cluster_on(
            Arc::clone(&fabric) as Arc<dyn pipmcoll_fabric::Fabric>,
            topo,
            |r| sizes[r],
            |r| pattern(r, sizes[r].send),
            1,
            |c| algo.run(c),
        );
        assert_eq!(
            res.recv,
            reference.recv,
            "{} {nodes}x{ppn} {spec:?}: tcp fabric (k={lanes}) diverges from inproc",
            lib.name()
        );
        // Same schedule → same pt2pt message count. InProc has no
        // topology, so it books everything as lane traffic; TCP splits
        // node-local messages out — compare the grand totals, and check
        // that real internode traffic did cross the sockets.
        let tcp_total = res.fabric_stats.total_msgs() + res.fabric_stats.local_msgs;
        let ref_total = reference.fabric_stats.total_msgs() + reference.fabric_stats.local_msgs;
        assert_eq!(
            tcp_total,
            ref_total,
            "{} {nodes}x{ppn} k={lanes}: tcp and inproc disagree on pt2pt message count",
            lib.name()
        );
        if nodes > 1 {
            assert!(
                res.fabric_stats.total_msgs() > 0,
                "{} {nodes}x{ppn} k={lanes}: no traffic crossed the sockets",
                lib.name()
            );
        }
    }
}

/// Run `spec` over TCP wrapped in deterministic chaos (seeded 5% eager
/// drops, 2% duplicates, 0–5 ms injected delay) for each lane count; the
/// ack/retransmit + sequence-dedup machinery must make the run
/// indistinguishable from the clean in-process reference — byte-identical
/// buffers and an empty failure report. Returns the total retransmit
/// count so callers can assert the recovery machinery actually worked.
fn chaos_cross_validate(
    lib: LibraryProfile,
    nodes: usize,
    ppn: usize,
    spec: CollectiveSpec,
) -> u64 {
    let topo = Topology::new(nodes, ppn);
    let algo = LibAlgo { lib, spec };
    let sizes: Vec<BufSizes> = build_schedule(lib, topo, &spec)
        .programs()
        .iter()
        .map(|p| p.sizes)
        .collect();
    let sizes = &sizes;
    let reference = run_cluster_verified_on(
        Arc::new(InProcFabric::new()),
        topo,
        |r| sizes[r],
        |r| pattern(r, sizes[r].send),
        &algo,
    );
    reference.expect_clean();
    let mut retransmits = 0;
    for lanes in [1usize, 2, 4] {
        let tcp = TcpFabric::connect(
            topo,
            TcpConfig {
                lanes,
                // Fast retransmit clock so injected drops recover well
                // inside the test budget.
                rto: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        let chaos = ChaosConfig {
            drop: 0.05,
            dup: 0.02,
            delay: Duration::from_millis(5),
            seed: 7 + lanes as u64,
            ..ChaosConfig::default()
        };
        let cf = Arc::new(ChaosFabric::new(tcp, chaos));
        let fabric: Arc<dyn pipmcoll_fabric::Fabric> = cf.clone();
        // Several iterations through one chaos stream: the fate RNG
        // advances across iterations, so the drop/dup events land at
        // different frames each round instead of replaying the same
        // (possibly drop-free) prefix of the sequence.
        let res = run_cluster_on(
            fabric,
            topo,
            |r| sizes[r],
            |r| pattern(r, sizes[r].send),
            5,
            |c| algo.run(c),
        );
        assert!(
            res.failures.is_empty(),
            "{} {nodes}x{ppn} k={lanes} {spec:?}: chaos run recorded failures: {:?}",
            lib.name(),
            res.failures
        );
        assert_eq!(
            res.recv,
            reference.recv,
            "{} {nodes}x{ppn} {spec:?}: chaotic tcp fabric (k={lanes}) diverges from inproc",
            lib.name()
        );
        assert!(
            res.fabric_stats.retransmits >= cf.wire().dropped(),
            "{} {nodes}x{ppn} k={lanes}: {} injected drops but only {} retransmits",
            lib.name(),
            cf.wire().dropped(),
            res.fabric_stats.retransmits
        );
        retransmits += res.fabric_stats.retransmits;
    }
    retransmits
}

/// The dirty-wire grid: seeded bit-flip corruption on top of drops and
/// duplicates, for each lane count. Every message rides its sender's
/// lane whole, so with 2+ lanes a node's ranks spread the faults over
/// several lanes. Every injected
/// flip is confined to the CRC field + payload, so it must surface as a
/// receiver-side checksum mismatch (`corrupt_frames`) and be healed by
/// the same retransmit path that absorbs drops — the run must stay
/// byte-identical to the clean in-process reference with zero rank
/// failures. Adds the injected corruptions and each lane's payload
/// messages to `tally`, so the caller can assert the grid was not
/// vacuously clean or confined to one lane.
fn dirty_cross_validate(
    lib: LibraryProfile,
    nodes: usize,
    ppn: usize,
    spec: CollectiveSpec,
    tally: &mut DirtyTally,
) {
    let topo = Topology::new(nodes, ppn);
    let algo = LibAlgo { lib, spec };
    let sizes: Vec<BufSizes> = build_schedule(lib, topo, &spec)
        .programs()
        .iter()
        .map(|p| p.sizes)
        .collect();
    let sizes = &sizes;
    let reference = run_cluster_verified_on(
        Arc::new(InProcFabric::new()),
        topo,
        |r| sizes[r],
        |r| pattern(r, sizes[r].send),
        &algo,
    );
    reference.expect_clean();
    for lanes in [1usize, 2, 4] {
        let tcp = TcpFabric::connect(
            topo,
            TcpConfig {
                lanes,
                rto: Duration::from_millis(5),
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric");
        let chaos = ChaosConfig {
            corrupt: 0.02,
            drop: 0.05,
            dup: 0.02,
            delay: Duration::from_millis(5),
            seed: 0xD1271 + lanes as u64,
            ..ChaosConfig::default()
        };
        let cf = Arc::new(ChaosFabric::new(tcp, chaos));
        let fabric: Arc<dyn pipmcoll_fabric::Fabric> = cf.clone();
        // 20 iterations through one chaos stream: these collectives put
        // only a few dozen eager frames on the wire per iteration, and a
        // 2% corrupt roll (drawn after drop and dup pass) needs a few
        // hundred frames before flips land reliably inside the run.
        let res = run_cluster_on(
            fabric,
            topo,
            |r| sizes[r],
            |r| pattern(r, sizes[r].send),
            20,
            |c| algo.run(c),
        );
        assert!(
            res.failures.is_empty(),
            "{} {nodes}x{ppn} k={lanes} {spec:?}: dirty run recorded failures: {:?}",
            lib.name(),
            res.failures
        );
        assert_eq!(
            res.recv,
            reference.recv,
            "{} {nodes}x{ppn} {spec:?}: dirty tcp fabric (k={lanes}) diverges from inproc",
            lib.name()
        );
        // Every injected flip is an odd number of bit flips inside the
        // CRC-covered region, so each delivered corrupt frame must be
        // caught and counted — never silently accepted.
        assert!(
            res.fabric_stats.corrupt_frames >= cf.wire().corrupted(),
            "{} {nodes}x{ppn} k={lanes}: {} injected flips but only {} \
             checksum rejections — corrupt frames are being accepted",
            lib.name(),
            cf.wire().corrupted(),
            res.fabric_stats.corrupt_frames
        );
        // A caught corruption is a lost frame: the retransmit machinery
        // must have re-sent at least one frame per drop *and* per flip.
        assert!(
            res.fabric_stats.retransmits >= cf.wire().dropped() + cf.wire().corrupted(),
            "{} {nodes}x{ppn} k={lanes}: {} drops + {} flips but only {} retransmits",
            lib.name(),
            cf.wire().dropped(),
            cf.wire().corrupted(),
            res.fabric_stats.retransmits
        );
        // The faults must land on frames the ranks wrote themselves,
        // not only on the workers' queue.
        if lanes >= 2 {
            assert!(
                res.fabric_stats.inline_sends > 0,
                "{} {nodes}x{ppn} k={lanes}: no frame went inline — the grid ran \
                 on the queued path only",
                lib.name()
            );
        }
        tally.injected += cf.wire().corrupted();
        let per_lane = tally.lane_msgs.entry(lanes).or_insert(vec![0; lanes]);
        for (sum, l) in per_lane.iter_mut().zip(&res.fabric_stats.lanes) {
            *sum += l.msgs;
        }
    }
}

/// What the dirty-wire grid put on the wire, summed over its specs.
#[derive(Default)]
struct DirtyTally {
    /// Injected corruptions.
    injected: u64,
    /// Payload messages per lane, keyed by lane count.
    lane_msgs: std::collections::BTreeMap<usize, Vec<u64>>,
}

#[test]
fn collective_grid_survives_dirty_wire() {
    // One spec per collective family, each over k ∈ {1, 2, 4} lanes
    // with seeded corrupt:0.02,drop:0.05,dup:0.02. Injected corruptions
    // are summed across the grid: the test is vacuous unless some frame
    // was actually flipped on the wire. Lane use is summed too: the
    // scatter's internode messages all leave from its root, so they ride
    // one lane, but at k ≥ 2 the grid must put payload on two or more.
    let mut tally = DirtyTally::default();
    dirty_cross_validate(
        LibraryProfile::PipMColl,
        2,
        3,
        CollectiveSpec::Scatter(ScatterParams { cb: 256, root: 0 }),
        &mut tally,
    );
    dirty_cross_validate(
        LibraryProfile::PipMColl,
        3,
        2,
        CollectiveSpec::Allgather(AllgatherParams { cb: 128 }),
        &mut tally,
    );
    dirty_cross_validate(
        LibraryProfile::IntelMpi,
        2,
        3,
        CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(100)),
        &mut tally,
    );
    assert!(
        tally.injected > 0,
        "seeded 2% corruption over the whole grid flipped no frames — \
         corruption injection is not wired up"
    );
    for (lanes, msgs) in tally.lane_msgs.range(2..) {
        let carried = msgs.iter().filter(|&&m| m > 0).count();
        assert!(
            carried >= 2,
            "k={lanes}: payload frames rode {carried} lane(s) ({msgs:?}) — \
             the grid ran on one lane only"
        );
    }
}

#[test]
fn scatter_grid_over_tcp() {
    for lib in [LibraryProfile::PipMColl, LibraryProfile::IntelMpi] {
        for (nodes, ppn) in [(2, 3), (3, 2)] {
            for cb in [16usize, 256] {
                cross_validate(
                    lib,
                    nodes,
                    ppn,
                    CollectiveSpec::Scatter(ScatterParams { cb, root: 0 }),
                );
            }
        }
    }
}

#[test]
fn allgather_grid_over_tcp() {
    for lib in [LibraryProfile::PipMColl, LibraryProfile::PipMpich] {
        for (nodes, ppn) in [(2, 3), (3, 2)] {
            for cb in [32usize, 128] {
                cross_validate(
                    lib,
                    nodes,
                    ppn,
                    CollectiveSpec::Allgather(AllgatherParams { cb }),
                );
            }
        }
    }
    // Large-message ring path: over TCP, each 96 KiB block goes whole
    // as one frame on its sender's lane.
    cross_validate(
        LibraryProfile::PipMColl,
        3,
        2,
        CollectiveSpec::Allgather(AllgatherParams { cb: 96 * 1024 }),
    );
}

#[test]
fn allreduce_grid_over_tcp() {
    for lib in [LibraryProfile::PipMColl, LibraryProfile::Mvapich2] {
        for (nodes, ppn) in [(2, 3), (3, 2)] {
            for count in [9usize, 100] {
                cross_validate(
                    lib,
                    nodes,
                    ppn,
                    CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(count)),
                );
            }
        }
    }
    // Large-message reduce-scatter + ring path.
    cross_validate(
        LibraryProfile::PipMColl,
        2,
        3,
        CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(8192)),
    );
}

#[test]
fn collective_grid_survives_seeded_chaos() {
    // One spec per collective family at a small count, each over
    // k ∈ {1, 2, 4} chaotic lanes. Retransmits are summed across the
    // whole grid: with 5% injected drop some frame must have needed the
    // ack/backoff recovery path, otherwise this test is vacuous.
    let mut retransmits = 0;
    retransmits += chaos_cross_validate(
        LibraryProfile::PipMColl,
        2,
        3,
        CollectiveSpec::Scatter(ScatterParams { cb: 256, root: 0 }),
    );
    retransmits += chaos_cross_validate(
        LibraryProfile::PipMColl,
        3,
        2,
        CollectiveSpec::Allgather(AllgatherParams { cb: 128 }),
    );
    retransmits += chaos_cross_validate(
        LibraryProfile::IntelMpi,
        2,
        3,
        CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(100)),
    );
    assert!(
        retransmits > 0,
        "seeded 5% drop over the whole grid produced no retransmits — \
         chaos injection or recovery is not wired up"
    );
}
