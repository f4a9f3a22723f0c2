//! Survive-and-complete integration: collectives over the TCP fabric
//! with ranks murdered mid-run must finish among the survivors with
//! results byte-identical to an in-process run on the survivor set.
//!
//! The whole binary runs with `PIPMCOLL_SYNC_TIMEOUT_MS=600` (set
//! before the first `sync_timeout()` call caches the value) so the
//! detect → agree → retry cycle resolves in a couple of seconds, and
//! with heartbeats every 25 ms so node-level suspicion is fast.

use std::sync::{Arc, Once};
use std::time::Instant;

use pipmcoll_core::{
    build_schedule, AllgatherParams, AllreduceParams, CollectiveSpec, LibraryProfile, ScatterParams,
};
use pipmcoll_fabric::{ChaosConfig, ChaosFabric, InProcFabric, TcpConfig, TcpFabric};
use pipmcoll_integration::TestRng;
use pipmcoll_model::Topology;
use pipmcoll_rt::{run_cluster_ft, run_cluster_verified_on, Algo, FaultPlan};
use pipmcoll_sched::verify::pattern;
use pipmcoll_sched::{BufSizes, Comm};

fn init() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PIPMCOLL_SYNC_TIMEOUT_MS", "600");
        std::env::set_var("PIPMCOLL_HEARTBEAT_MS", "25");
    });
}

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

/// Buffer sizes for `spec` on `topo`, per rank — recomputed for the
/// shrunken topology on retries, exactly as the ft runner requires.
fn sizes_for(lib: LibraryProfile, topo: Topology, spec: &CollectiveSpec) -> Vec<BufSizes> {
    build_schedule(lib, topo, spec)
        .programs()
        .iter()
        .map(|p| p.sizes)
        .collect()
}

/// The ground truth: run `spec` in-process (verified) on the dense
/// ppn=1 topology of `survivors`, feeding each new rank the prefix of
/// its original contribution — the same inputs the ft retry uses.
fn reference_on_survivors(
    lib: LibraryProfile,
    spec: CollectiveSpec,
    survivors: &[usize],
) -> Vec<Vec<u8>> {
    let sub = Topology::new(survivors.len(), 1);
    let sizes = sizes_for(lib, sub, &spec);
    let sizes = &sizes;
    let algo = LibAlgo { lib, spec };
    let res = run_cluster_verified_on(
        Arc::new(InProcFabric::new()),
        sub,
        |j| sizes[j],
        |j| pattern(survivors[j], sizes[j].send),
        &algo,
    );
    res.expect_clean();
    res.recv
}

/// Run `spec` fault-tolerantly over TCP with `lanes` lanes and `plan`,
/// then check every survivor against the in-process reference on the
/// *observed* survivor set: identical committed failed sets, identical
/// bytes. Returns the result for extra per-test assertions.
fn survive_and_check(
    lib: LibraryProfile,
    topo: Topology,
    lanes: usize,
    spec: CollectiveSpec,
    plan: &FaultPlan,
) -> pipmcoll_rt::FtResult {
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
    let algo = LibAlgo { lib, spec };
    let orig_sizes = sizes_for(lib, topo, &spec);
    let orig_sizes = &orig_sizes;
    let res = run_cluster_ft(
        fabric,
        topo,
        |t, r| {
            if t == topo {
                orig_sizes[r]
            } else {
                sizes_for(lib, t, &spec)[r]
            }
        },
        |r| pattern(r, orig_sizes[r].send),
        &algo,
        plan,
    );
    let world = topo.world_size();
    let survivors: Vec<usize> = (0..world).filter(|r| !res.failed.contains(r)).collect();
    assert_eq!(
        res.killed
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>(),
        res.failed
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>(),
        "agreed failed set must be exactly the killed ranks (plan {plan}): {:?}",
        res.failures
    );
    let reference = reference_on_survivors(lib, spec, &survivors);
    for (j, &old) in survivors.iter().enumerate() {
        assert_eq!(
            res.committed[old].as_deref(),
            Some(&res.failed[..]),
            "survivor {old} committed a different failed set (plan {plan})"
        );
        assert_eq!(
            res.recv[old].as_deref(),
            Some(&reference[j][..]),
            "survivor {old} bytes diverge from the inproc survivor run (plan {plan})"
        );
    }
    for &dead in &res.failed {
        assert!(
            res.recv[dead].is_none(),
            "dead rank {dead} must have no output"
        );
    }
    res
}

/// The headline acceptance case: one rank killed mid-collective via the
/// `PIPMCOLL_FAULT` DSL; the survivors complete within 3× sync_timeout
/// with byte-identical results and every survivor names exactly the
/// killed rank.
#[test]
fn single_kill_over_tcp_completes_among_survivors() {
    init();
    std::env::set_var("PIPMCOLL_FAULT", "kill:rank=3@any=1");
    let plan = FaultPlan::from_env();
    std::env::remove_var("PIPMCOLL_FAULT");
    assert_eq!(plan.doomed(), vec![3]);

    let topo = Topology::new(2, 2);
    let lib = LibraryProfile::PipMColl;
    let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 64 });
    let t0 = Instant::now();
    let res = survive_and_check(lib, topo, 2, spec, &plan);
    let elapsed = t0.elapsed();

    assert_eq!(res.killed, vec![3]);
    assert_eq!(res.failed, vec![3]);
    assert_eq!(res.epochs, 2, "one failed attempt, one clean retry");
    assert!(
        res.failures.iter().any(|f| f.rank == Some(3)),
        "failures must name the killed rank: {:?}",
        res.failures
    );
    let budget = pipmcoll_fabric::sync_timeout() * 3;
    assert!(
        elapsed < budget,
        "survive-and-complete took {elapsed:?}, budget {budget:?}"
    );
}

/// Seeded kill grid: scatter/allgather/allreduce × k ∈ {1, 2, 4} lanes,
/// killing 1–3 ranks at pseudo-random operation counts. Every cell
/// asserts the survivors commit identical failed sets and match the
/// in-process reference on the survivor topology byte-for-byte.
///
/// Rank 0 is never killed: scatter's root (rank 0) is the only rank
/// holding the full input, and a retry cannot conjure bytes the new
/// root never had — a documented limit of the shrink protocol
/// (DESIGN.md §3e).
#[test]
fn seeded_kill_grid_survives_across_collectives_and_lanes() {
    init();
    let lib = LibraryProfile::PipMColl;
    let topo = Topology::new(3, 2);
    let world = topo.world_size();
    let specs = [
        CollectiveSpec::Scatter(ScatterParams { cb: 48, root: 0 }),
        CollectiveSpec::Allgather(AllgatherParams { cb: 48 }),
        CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(8)),
    ];
    let mut rng = TestRng::new(0x5EED_F00D_2026_0807);
    for (i, &spec) in specs.iter().enumerate() {
        for (l, &lanes) in [1usize, 2, 4].iter().enumerate() {
            // Cycle 1, 2, 3 victims across the grid cells.
            let kill_count = 1 + (i + l) % 3;
            let mut victims: Vec<usize> = Vec::new();
            while victims.len() < kill_count {
                let r = 1 + rng.range(0, world - 1);
                if !victims.contains(&r) {
                    victims.push(r);
                }
            }
            // The first victim dies on its very first counted op —
            // guaranteed to fire for every rank in every collective.
            // Extra victims get pseudo-random trigger points; a trigger
            // an op-sparse rank never reaches simply doesn't fire
            // (documented DSL semantics), so the checks are driven by
            // the *observed* kill set.
            let plan_src: Vec<String> = victims
                .iter()
                .enumerate()
                .map(|(v, &r)| {
                    let at = if v == 0 { 1 } else { 1 + rng.range(0, 3) };
                    format!("kill:rank={r}@any={at}")
                })
                .collect();
            let plan = FaultPlan::parse(&plan_src.join(";")).expect("generated plan parses");
            let res = survive_and_check(lib, topo, lanes, spec, &plan);
            assert!(
                !res.killed.is_empty() && res.killed.iter().all(|k| victims.contains(k)),
                "plan {plan} killed {:?}",
                res.killed
            );
            assert!(
                res.epochs >= 2,
                "a kill must force at least one retry (plan {plan})"
            );
        }
    }
}

/// Split-brain e2e: a symmetric network partition (node 0 vs node 1,
/// three ranks a side) severs every internode frame — data, heartbeats
/// and agreement gossip alike. Each side detects the other as silent
/// and runs agreement among the ranks it can still reach, so without a
/// quorum rule the two sides would commit *divergent* failed sets and
/// both "survive" with different worlds. The quorum tie-breaker gives
/// the half holding rank 0 the right to commit; the other half must
/// refuse — resolving `QuorumLost` instead of shrinking — and the
/// committed side completes the collective among itself with bytes
/// identical to the in-process reference.
#[test]
fn symmetric_partition_commits_one_side_and_minority_resolves_quorum_lost() {
    init();
    let topo = Topology::new(2, 3);
    let lib = LibraryProfile::PipMColl;
    let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 48 });
    let tcp = TcpFabric::connect(
        topo,
        TcpConfig {
            lanes: 2,
            ..TcpConfig::default()
        },
    )
    .expect("loopback fabric");
    // Node-index bitmasks: node 0 on one side, node 1 on the other —
    // the wire equivalent of `PIPMCOLL_CHAOS=part:0|1`.
    let fabric = Arc::new(ChaosFabric::new(
        tcp,
        ChaosConfig {
            part_a: 1 << 0,
            part_b: 1 << 1,
            seed: 42,
            ..ChaosConfig::default()
        },
    ));
    let algo = LibAlgo { lib, spec };
    let orig_sizes = sizes_for(lib, topo, &spec);
    let orig_sizes = &orig_sizes;
    let t0 = Instant::now();
    let res = run_cluster_ft(
        fabric,
        topo,
        |t, r| {
            if t == topo {
                orig_sizes[r]
            } else {
                sizes_for(lib, t, &spec)[r]
            }
        },
        |r| pattern(r, orig_sizes[r].send),
        &algo,
        &FaultPlan::none(),
    );
    let elapsed = t0.elapsed();

    // Nobody died — the partition manufactured the suspicion. The side
    // holding rank 0 (the group's lowest member, so the tie-break
    // winner of a 3-vs-3 split) commits the unreachable half; the
    // unreachable half refuses to commit a minority view.
    assert!(res.killed.is_empty(), "no rank was actually killed");
    assert_eq!(
        res.failed,
        vec![3, 4, 5],
        "the rank-0 side must commit exactly the other side: {:?}",
        res.failures
    );
    assert_eq!(
        res.quorum_lost,
        vec![3, 4, 5],
        "the minority side must resolve QuorumLost, not commit"
    );
    // The acceptance property: no two ranks ever committed *different*
    // failed sets. The majority all committed {3,4,5}; the minority
    // committed nothing at all.
    for r in 0..3 {
        assert_eq!(
            res.committed[r].as_deref(),
            Some(&[3usize, 4, 5][..]),
            "majority rank {r} committed a different set"
        );
    }
    for r in 3..6 {
        assert_eq!(
            res.committed[r], None,
            "minority rank {r} must never commit a failed set"
        );
        assert!(
            res.recv[r].is_none(),
            "minority rank {r} must produce no output"
        );
        assert!(
            res.failures
                .iter()
                .any(|f| f.rank == Some(r) && f.detail.contains("quorum lost")),
            "rank {r} must record a typed quorum-lost failure: {:?}",
            res.failures
        );
    }
    // The committed side re-runs on its own three ranks (all intranode,
    // untouched by the partition) and must match the clean reference.
    let reference = reference_on_survivors(lib, spec, &[0, 1, 2]);
    for (r, want) in reference.iter().enumerate() {
        assert_eq!(
            res.recv[r].as_deref(),
            Some(&want[..]),
            "majority rank {r} bytes diverge from the inproc survivor run"
        );
    }
    assert_eq!(res.epochs, 2, "one partitioned attempt, one clean retry");
    // Detection (≤ sync_timeout of silence), bounded agreement sweeps
    // and the intranode retry must all fit the survive-and-complete
    // budget; the minority's QuorumLost resolution happens strictly
    // inside it.
    let budget = pipmcoll_fabric::sync_timeout() * 3;
    assert!(
        elapsed < budget,
        "partitioned run took {elapsed:?}, budget {budget:?}"
    );
}

/// Calls the fault DSL's `any` class counts in `rank`'s program of
/// `spec` on `topo`: every op a `FaultComm` ticks. Algorithms issue the
/// same calls whatever their peers do, and a failed rank keeps walking
/// its program, so this is exactly the count one attempt adds.
fn counted_ops(lib: LibraryProfile, topo: Topology, spec: &CollectiveSpec, rank: usize) -> u64 {
    use pipmcoll_sched::Op;
    build_schedule(lib, topo, spec).programs()[rank]
        .ops
        .iter()
        .filter(|op| {
            matches!(
                op,
                Op::ISend { .. }
                    | Op::IRecv { .. }
                    | Op::ISendShared { .. }
                    | Op::IRecvShared { .. }
                    | Op::CopyIn { .. }
                    | Op::CopyOut { .. }
                    | Op::ReduceIn { .. }
                    | Op::Signal { .. }
                    | Op::NodeBarrier
            )
        })
        .count() as u64
}

/// Two shrinks where dense and original ids differ: rank 1 dies at its
/// first op, so the retry re-ranks {0, 2, 3} as {0, 1, 2}; rank 3 then
/// dies inside that retry, and a third attempt runs on {0, 2}. Every
/// attempt must wire, suspect and report in original ids.
#[test]
fn retries_keep_original_rank_ids_when_dense_ids_differ() {
    init();
    let lib = LibraryProfile::PipMColl;
    let topo = Topology::new(2, 2);
    let spec = CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(8));
    // Rank 3 is dense rank 2 of the first retry; the op counters persist
    // across attempts, so its trigger lands midway through that retry.
    let first = counted_ops(lib, topo, &spec, 3);
    let retry = counted_ops(lib, Topology::new(3, 1), &spec, 2);
    assert!(retry >= 1, "rank 3 must act in the retry");
    let at = first + retry.div_ceil(2);
    let plan =
        FaultPlan::parse(&format!("kill:rank=1@any=1;kill:rank=3@any={at}")).expect("plan parses");

    let res = survive_and_check(lib, topo, 2, spec, &plan);
    assert_eq!(res.killed, vec![1, 3], "{:?}", res.failures);
    assert_eq!(res.failed, vec![1, 3], "{:?}", res.failures);
    assert!(res.epochs >= 3, "two shrinks need three attempts");
    let reference = reference_on_survivors(lib, spec, &[0, 2]);
    assert_eq!(res.recv[0].as_deref(), Some(&reference[0][..]));
    assert_eq!(res.recv[2].as_deref(), Some(&reference[1][..]));
    // The live members of each attempt, in original ids: every failure
    // names one of its own attempt's. Rank 1 dies before its first op,
    // so it never records a failure of its own: one naming it is dense
    // rank 1 (original rank 2) leaking out of a retry.
    let live: [&[usize]; 3] = [&[0, 2, 3], &[0, 2, 3], &[0, 2]];
    for f in &res.failures {
        let members = live
            .get(f.epoch as usize)
            .unwrap_or_else(|| panic!("failure from attempt {}, past the third: {f}", f.epoch));
        let Some(r) = f.rank else { continue };
        if f.detail.starts_with("killed by fault plan") {
            continue;
        }
        assert!(
            members.contains(&r),
            "failure names rank {r}, not a live member of its attempt: {f}"
        );
    }
    // Kills carry the attempt their trigger fired in.
    let kill_epoch = |rank: usize| {
        res.failures
            .iter()
            .find(|f| f.rank == Some(rank) && f.detail.starts_with("killed by fault plan"))
            .map(|f| f.epoch)
    };
    assert_eq!(kill_epoch(1), Some(0), "{:?}", res.failures);
    assert_eq!(kill_epoch(3), Some(1), "{:?}", res.failures);
}
