//! The service over a real wire: a 2-node × 2-rank loopback
//! [`TcpFabric`] with 2 lanes, the `svc_storm` benchmark's world.
//!
//! On this fabric the engine drives the sockets itself
//! ([`Fabric::drive`]) and runs every step between two ranks of one
//! node in place, so no service message may take the fabric's
//! node-local path. These tests check that closed-loop results stay
//! byte-exact on that path, with and without a dirty wire, and that
//! the fault DSL's `@submit` / `@poll` kills still end in a committed
//! shrink when some receives never touch the fabric.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_fabric::{
    sync_timeout, ChaosConfig, ChaosFabric, Fabric, TcpConfig, TcpFabric, WireChaos,
};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_rt::FaultPlan;
use pipmcoll_svc::{Request, Svc, SvcConfig, SvcStats};

const NODES: usize = 2;
const PPN: usize = 2;
const WORLD: usize = NODES * PPN;
const ELEMS: usize = 16;

/// Held by every test here: each runs a spinning engine and a fabric,
/// and two at once on a two-CPU host delay each other's acks past a
/// retransmit timeout.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tcp(rto: Duration) -> Arc<TcpFabric> {
    Arc::new(
        TcpFabric::connect(
            Topology::new(NODES, PPN),
            TcpConfig {
                lanes: 2,
                rto,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric"),
    )
}

fn ints(vals: impl IntoIterator<Item = i32>) -> Vec<u8> {
    vals.into_iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Request `seed`'s inputs: rank `r` contributes `seed * 31 + r * 7 + i`
/// at element `i`.
fn inputs(seed: i32) -> Vec<Vec<u8>> {
    (0..WORLD as i32)
        .map(|r| ints((0..ELEMS as i32).map(|i| seed * 31 + r * 7 + i)))
        .collect()
}

/// The elementwise sum over `ranks` of request `seed`'s inputs.
fn reference(seed: i32, ranks: &[usize]) -> Vec<u8> {
    ints((0..ELEMS as i32).map(|i| ranks.iter().map(|&r| seed * 31 + r as i32 * 7 + i).sum()))
}

/// `jobs` jobs each keep `depth` allreduces in flight, resubmitting as
/// each completes, until `total` have completed; every result is
/// compared byte for byte with the reference sum over all ranks.
fn closed_loop(svc: &Svc, jobs: usize, depth: usize, total: usize) {
    let jobs: Vec<_> = (0..jobs).map(|_| svc.job().unwrap()).collect();
    let mut next = 0i32;
    let mut submit = |job: &pipmcoll_svc::Job| {
        next += 1;
        let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs(next));
        (req, next)
    };
    let mut inflight: Vec<VecDeque<(Request, i32)>> = jobs
        .iter()
        .map(|j| (0..depth).map(|_| submit(j)).collect())
        .collect();
    let all: Vec<usize> = (0..WORLD).collect();
    let mut done = 0;
    while done < total {
        for (job, queue) in jobs.iter().zip(&mut inflight) {
            let (req, seed) = queue.pop_front().expect("depth ≥ 1");
            let out = req.wait().unwrap_or_else(|e| panic!("request {seed}: {e}"));
            let want = reference(seed, &all);
            assert!(
                out.iter().all(|o| *o == want),
                "request {seed} diverged from the reference sum"
            );
            done += 1;
            queue.push_back(submit(job));
        }
    }
    for (req, seed) in inflight.into_iter().flatten() {
        let out = req.wait().unwrap_or_else(|e| panic!("request {seed}: {e}"));
        assert!(out.iter().all(|o| *o == reference(seed, &all)));
    }
}

#[test]
fn closed_loop_runs_node_local_steps_in_place_and_drives_the_wire() {
    let _serial = serial();
    let fabric = tcp(TcpConfig::default().rto);
    let svc = Svc::new(fabric.clone(), SvcConfig::new(WORLD)).unwrap();
    closed_loop(&svc, 8, 4, 5_000);
    let s = fabric.stats();

    let st = svc.stats();
    assert_eq!(
        s.local_msgs, 0,
        "a node-local step went through the fabric: {s:?}"
    );
    assert_eq!(s.retransmits, 0, "a clean wire lost a frame: {s:?}");
    assert!(
        s.driver_frames > 0,
        "the engine never drove the wire: {s:?}"
    );
    // Each lane's ack rides the frames going back on it, whichever
    // channel they belong to: few wire messages need an ACK frame.
    assert!(
        2 * s.ack_frames <= s.total_msgs(),
        "{} ACK frames for {} wire messages",
        s.ack_frames,
        s.total_msgs()
    );
    assert!(st.in_place > 0, "no step ran in place: {st:?}");
    assert!(fabric.drain_errors().is_empty());
}

#[test]
fn dirty_wire_recovers_with_engine_written_acks() {
    // Acks the engine writes and retransmits the progress thread sends
    // must work together: every drop, duplicate and flipped bit is
    // recovered.
    let _serial = serial();
    let fabric = tcp(Duration::from_millis(5));
    let wire = Arc::new(WireChaos::new(&ChaosConfig {
        drop: 0.02,
        dup: 0.02,
        corrupt: 0.02,
        seed: 18,
        ..ChaosConfig::default()
    }));
    assert!(fabric.install_chaos(Arc::clone(&wire)));
    let svc = Svc::new(fabric.clone(), SvcConfig::new(WORLD)).unwrap();
    closed_loop(&svc, 8, 4, 2_000);
    let s = fabric.stats();
    assert!(
        wire.dropped() > 0 && wire.dupped() > 0 && wire.corrupted() > 0,
        "seed 18 must inject every fault class"
    );
    assert!(s.retransmits > 0, "nothing was recovered: {s:?}");
    assert!(
        s.driver_frames > 0,
        "the engine never drove the wire: {s:?}"
    );
    assert_eq!(s.local_msgs, 0);
}

#[test]
fn chaos_wrapped_wire_runs_steps_in_place_and_drives_the_wire() {
    // The `PIPMCOLL_CHAOS` wrapper hands the engine the backend's
    // topology and wire progress: node-local steps still run in place,
    // and the engine still drives the sockets it injects faults on.
    let _serial = serial();
    let fabric = Arc::new(ChaosFabric::new(
        tcp(Duration::from_millis(5)),
        ChaosConfig {
            drop: 0.01,
            seed: 25,
            ..ChaosConfig::default()
        },
    ));
    assert!(fabric.wired());
    let svc = Svc::new(fabric.clone(), SvcConfig::new(WORLD)).unwrap();
    closed_loop(&svc, 8, 4, 2_000);
    let (s, st) = (fabric.stats(), svc.stats());
    assert!(fabric.wire().dropped() > 0, "seed 25 must drop a frame");
    assert!(st.in_place > 0, "no step ran in place: {st:?}");
    assert!(
        s.driver_frames > 0,
        "the engine never drove the wire: {s:?}"
    );
    assert_eq!(s.local_msgs, 0, "a node-local step went through the fabric");
    assert!(fabric.drain_errors().is_empty());
}

/// Fault-tolerant config with timing shrunk so detect → agree → retry
/// completes in well under a second.
fn ft_cfg(fault: &str) -> SvcConfig {
    SvcConfig {
        ft: true,
        suspect_after: Duration::from_millis(60),
        agree_delta: Duration::from_millis(40),
        fault: FaultPlan::parse(fault).expect("valid fault DSL"),
        ..SvcConfig::new(WORLD)
    }
}

/// Submit `colls` allreduces on each of 2 jobs while the fault DSL
/// kills `victim`. Every request must resolve exactly once, with the
/// reference sum over whichever group it completed on, and the
/// committed failed set must be the victim alone.
fn run_kill(fault: &str, victim: usize, colls: usize) -> SvcStats {
    let _serial = serial();
    let svc = Svc::new(tcp(TcpConfig::default().rto), ft_cfg(fault)).unwrap();
    let jobs: Vec<_> = (0..2).map(|_| svc.job().unwrap()).collect();
    let mut launched = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        for k in 0..colls {
            let seed = (ji * 1000 + k) as i32;
            launched.push((
                job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs(seed)),
                seed,
            ));
        }
    }
    let hang_cut = Instant::now() + sync_timeout() * 3;
    for (req, seed) in launched {
        let out = req.wait().unwrap_or_else(|e| panic!("request {seed}: {e}"));
        assert!(Instant::now() < hang_cut, "kill run hung");
        let group: Vec<usize> = (0..WORLD).filter(|&r| !out[r].is_empty()).collect();
        assert!(
            (0..WORLD).all(|r| group.contains(&r) || r == victim),
            "request {seed}: a live rank is missing from group {group:?}"
        );
        let want = reference(seed, &group);
        for &r in &group {
            assert_eq!(out[r], want, "request {seed}: rank {r} diverged");
        }
    }
    let stats = svc.stats();
    assert!(stats.epoch >= 1, "the kill must commit a failure epoch");
    assert_eq!(stats.failed, vec![victim], "committed failed set");
    assert_eq!(stats.inflight, 0);
    for j in &stats.jobs {
        // Each request resolved once: completions plus failures add up
        // to exactly the requests submitted, and none failed.
        assert_eq!(j.completed + j.failed, colls as u64, "job {}", j.comm);
        assert_eq!(j.failed, 0, "job {} spurious failures", j.comm);
        assert_eq!(j.slots_held, 0, "job {} leaked seq slots", j.comm);
    }
    stats
}

#[test]
fn poll_kill_of_a_remote_node_rank_commits_a_shrink() {
    // Rank 2 receives from rank 3 in place and from rank 0 over the
    // wire; both count as its polls.
    let stats = run_kill("kill:rank=2@poll=20", 2, 16);
    assert!(stats.in_place > 0);
}

#[test]
fn submit_kill_commits_a_shrink() {
    run_kill("kill:rank=3@submit=5", 3, 16);
}

#[test]
fn poll_kill_fires_on_a_rank_whose_receives_are_all_node_local() {
    // Rank 1 only ever receives from rank 0, on its own node: its polls
    // are the in-place deliveries.
    let stats = run_kill("kill:rank=1@poll=6", 1, 16);
    let retried: u64 = stats.jobs.iter().map(|j| j.retried).sum();
    assert!(retried >= 1, "the kill caught no collective in flight");
}
