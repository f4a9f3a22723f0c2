//! End-to-end service tests: many jobs running many non-blocking
//! collectives concurrently over one shared in-process fabric, plus the
//! tag-space exhaustion/recycling scenario under chaos delay and the
//! bound on how many fabric channels a long-running job touches.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pipmcoll_fabric::chaos::{ChaosConfig, ChaosFabric};
use pipmcoll_fabric::{ChanKey, Fabric, FabricDiag, FabricResult, FabricStats, InProcFabric};
use pipmcoll_model::{Datatype, ReduceOp};
use pipmcoll_svc::{Request, Svc, SvcConfig, SvcError};

fn ints(vals: &[i32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn from_ints(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn inproc() -> Arc<dyn Fabric> {
    Arc::new(InProcFabric::new())
}

/// Rank r contributes `[seed + r, seed + r + 1]`; the sum over `world`
/// ranks is the same for every rank.
fn allreduce_inputs(world: usize, seed: i32) -> (Vec<Vec<u8>>, Vec<i32>) {
    let inputs: Vec<Vec<u8>> = (0..world)
        .map(|r| ints(&[seed + r as i32, seed + r as i32 + 1]))
        .collect();
    let n = world as i32;
    let base: i32 = (0..n).map(|r| seed + r).sum();
    (inputs, vec![base, base + n])
}

#[test]
fn many_jobs_run_concurrent_allreduces_correctly() {
    let world = 8;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let jobs: Vec<_> = (0..4).map(|_| svc.job().unwrap()).collect();

    // 4 jobs × 8 collectives, all in flight before any wait.
    let mut launched = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        for k in 0..8 {
            let seed = (ji * 100 + k) as i32;
            let (inputs, want) = allreduce_inputs(world, seed);
            let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs);
            launched.push((req, want));
        }
    }
    for (req, want) in launched {
        let out = req.wait().expect("collective completes");
        assert_eq!(out.len(), world);
        for rank_out in out {
            assert_eq!(from_ints(&rank_out), want);
        }
    }

    let stats = svc.stats();
    assert_eq!(stats.jobs.len(), 4);
    for j in &stats.jobs {
        assert_eq!(j.completed, 8, "job {} completed", j.comm);
        assert_eq!(j.failed, 0);
        assert_eq!(j.queue_depth, 0);
        assert_eq!(j.latency.count, 8);
        assert!(j.admitted_bytes > 0);
    }
}

#[test]
fn mixed_collective_kinds_interleave_in_one_job() {
    let world = 4;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let job = svc.job().unwrap();

    let (ar_in, ar_want) = allreduce_inputs(world, 7);
    let ar = job.iallreduce(Datatype::Int32, ReduceOp::Sum, ar_in);
    let ag = job.iallgather((0..world).map(|r| ints(&[r as i32 * 11])).collect());
    let sc = job.iscatter(2, (0..world).map(|r| ints(&[100 + r as i32])).collect());
    let bc = job.ibcast(1, ints(&[42, 43]));

    let ar_out = ar.wait().unwrap();
    for rank_out in &ar_out {
        assert_eq!(from_ints(rank_out), ar_want);
    }
    let ag_out = ag.wait().unwrap();
    for rank_out in &ag_out {
        assert_eq!(from_ints(rank_out), vec![0, 11, 22, 33]);
    }
    let sc_out = sc.wait().unwrap();
    for (r, rank_out) in sc_out.iter().enumerate() {
        assert_eq!(from_ints(rank_out), vec![100 + r as i32]);
    }
    let bc_out = bc.wait().unwrap();
    for rank_out in &bc_out {
        assert_eq!(from_ints(rank_out), vec![42, 43]);
    }
}

#[test]
fn request_test_polls_nonblocking_to_completion() {
    let world = 4;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let job = svc.job().unwrap();
    let (inputs, want) = allreduce_inputs(world, 3);
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let out = loop {
        if let Some(res) = req.test() {
            break res.expect("completes");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "test() never completed"
        );
        std::thread::yield_now();
    };
    assert_eq!(from_ints(&out[0]), want);
}

#[test]
fn serialized_baseline_completes_everything_in_order() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(1),
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job_a = svc.job().unwrap();
    let job_b = svc.job().unwrap();

    let mut launched = Vec::new();
    for k in 0..6 {
        let (ia, wa) = allreduce_inputs(world, k * 2);
        let (ib, wb) = allreduce_inputs(world, k * 2 + 1);
        launched.push((job_a.iallreduce(Datatype::Int32, ReduceOp::Sum, ia), wa));
        launched.push((job_b.iallreduce(Datatype::Int32, ReduceOp::Sum, ib), wb));
    }
    let wants: Vec<_> = launched.iter().map(|(_, w)| w.clone()).collect();
    let reqs: Vec<_> = launched.into_iter().map(|(r, _)| r).collect();
    for (res, want) in Request::wait_all(reqs).into_iter().zip(wants) {
        let out = res.expect("serialized run completes");
        assert_eq!(from_ints(&out[0]), want);
    }
    let stats = svc.stats();
    let total: u64 = stats.jobs.iter().map(|j| j.completed).sum();
    assert_eq!(total, 12);
    // With one in-flight permit and 12 queued collectives, most waited.
    let deferred: u64 = stats.jobs.iter().map(|j| j.deferred).sum();
    assert!(deferred >= 1, "serialization must defer queued work");
}

/// Satellite 3: a job issuing more collectives than it has sequence
/// slots must recycle slots safely — with a chaos delay keeping frames
/// of earlier collectives in flight while later ones (re)use the
/// adjacent slots, every result must still be byte-correct and no
/// cross-wrap aliasing may occur.
#[test]
fn tag_space_exhaustion_wraps_safely_under_chaos_delay() {
    let world = 4;
    let chaos = ChaosConfig {
        delay: std::time::Duration::from_millis(2),
        seed: 0xC0FFEE,
        ..ChaosConfig::default()
    };
    let fabric: Arc<dyn Fabric> = Arc::new(ChaosFabric::new(InProcFabric::new(), chaos));
    let cfg = SvcConfig {
        seq_bits: 2, // 4 slots — far fewer than the collectives below
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(fabric, cfg).unwrap();
    let job = svc.job().unwrap();

    // 3× more collectives than slots, all submitted before any wait, so
    // the allocator must exhaust, defer, and recycle several times.
    let mut launched = Vec::new();
    for k in 0..12 {
        let (inputs, want) = allreduce_inputs(world, k * 13 + 1);
        launched.push((job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs), want));
    }
    // The last two are cancelled while still queued behind the slot
    // crunch: they must leave the FIFO without ever holding a slot, and
    // the wrap must proceed over the survivors.
    launched[10].0.cancel();
    launched[11].0.cancel();
    for (k, (req, want)) in launched.into_iter().enumerate() {
        if k >= 10 {
            assert_eq!(req.wait().unwrap_err(), SvcError::Cancelled);
            continue;
        }
        let out = req.wait().expect("wrapped collective completes");
        for rank_out in out {
            assert_eq!(
                from_ints(&rank_out),
                want,
                "cross-wrap aliasing corrupted data"
            );
        }
    }

    let stats = svc.stats();
    let j = &stats.jobs[0];
    assert_eq!(j.completed, 10, "all surviving collectives complete");
    assert_eq!(j.failed, 0);
    assert_eq!(j.cancelled, 2);
    assert!(
        j.deferred >= 1,
        "10 admissions over 4 slots must defer at least once (deferred={})",
        j.deferred
    );
    // Queued cancels never held a slot: nothing is quarantined, nothing
    // leaks.
    assert_eq!(j.slots_held, 0);
    assert_eq!(j.slots_quarantined, 0);
    assert_eq!(j.slots_free, 4);
}

/// Satellite 3, failure half: a mid-storm rank death quarantines the
/// affected collectives' slots, and the job keeps recycling the
/// *remaining* slots across several wraps — the quarantined slot is
/// never reissued (byte-correctness of every later collective is the
/// proof: aliasing a stale frame would corrupt one) and slot accounting
/// stays conserved.
#[test]
fn quarantine_on_failure_survives_seq_wrap() {
    let world = 4;
    let cfg = SvcConfig {
        seq_bits: 2, // 4 slots
        ft: true,
        suspect_after: std::time::Duration::from_millis(60),
        agree_delta: std::time::Duration::from_millis(40),
        // Rank 3 dies at the second admission: exactly one collective is
        // in flight on the full world and must re-plan. One at a time —
        // otherwise every concurrently pinned collective would
        // quarantine a slot and a 4-slot space could retire entirely.
        max_inflight: Some(1),
        fault: pipmcoll_rt::FaultPlan::parse("kill:rank=3@submit=2").unwrap(),
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();

    let mut launched = Vec::new();
    for k in 0..12 {
        let (inputs, _) = allreduce_inputs(world, k * 5 + 2);
        let ins: Vec<Vec<u8>> = inputs.clone();
        launched.push((job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs), ins));
    }
    for (req, inputs) in launched {
        let out = req.wait().expect("collective survives the death");
        // Completed either on the full world (pre-death) or on the
        // survivor group {0, 1, 2}; the output names which.
        let group: Vec<usize> = (0..world).filter(|&r| !out[r].is_empty()).collect();
        assert!(
            group == vec![0, 1, 2] || group == vec![0, 1, 2, 3],
            "unexpected completion group {group:?}"
        );
        let want: Vec<i32> = {
            let mut acc = from_ints(&inputs[group[0]]);
            for &r in &group[1..] {
                for (a, v) in acc.iter_mut().zip(from_ints(&inputs[r])) {
                    *a += v;
                }
            }
            acc
        };
        for &r in &group {
            assert_eq!(from_ints(&out[r]), want, "rank {r} diverged post-wrap");
        }
    }

    let stats = svc.stats();
    assert_eq!(stats.failed, vec![3]);
    assert!(stats.epoch >= 1);
    let j = &stats.jobs[0];
    assert_eq!(j.completed, 12);
    assert_eq!(j.failed, 0);
    assert!(j.retried >= 1, "the in-flight collective must re-plan");
    assert!(
        j.slots_quarantined >= 1,
        "the re-planned collective's old slot is retired"
    );
    assert_eq!(j.slots_held, 0, "no leaked slots after drain");
    assert_eq!(j.slots_free + j.slots_quarantined, 4, "slot conservation");
}

#[test]
fn nic_budget_defers_but_still_completes() {
    let world = 4;
    let cfg = SvcConfig {
        // Tiny burst: roughly one small collective's bytes, refilled
        // fast enough that the test finishes promptly.
        nic_budget: Some(1_000_000),
        burst: 64,
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let mut launched = Vec::new();
    for k in 0..8 {
        let (inputs, want) = allreduce_inputs(world, k + 20);
        launched.push((job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs), want));
    }
    for (req, want) in launched {
        let out = req.wait().expect("metered collective completes");
        assert_eq!(from_ints(&out[0]), want);
    }
    let stats = svc.stats();
    let j = &stats.jobs[0];
    assert_eq!(j.completed, 8);
    assert!(
        j.deferred >= 1,
        "a 64-byte burst must defer some of 8 queued collectives"
    );
    assert!(j.deferred_bytes > 0);
}

#[test]
fn dropping_the_service_fails_unadmitted_requests_with_shutdown() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(0), // nothing is ever admitted
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let (inputs, _) = allreduce_inputs(world, 1);
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs);
    drop(svc);
    assert_eq!(req.wait().unwrap_err(), SvcError::Shutdown);
}

/// Forwards to an [`InProcFabric`] and records every distinct channel
/// a message is sent on.
struct ChannelRecorder {
    inner: InProcFabric,
    sent_on: Mutex<HashSet<ChanKey>>,
}

impl ChannelRecorder {
    fn channels(&self) -> usize {
        self.sent_on.lock().unwrap().len()
    }
}

impl Fabric for ChannelRecorder {
    fn name(&self) -> &'static str {
        "channel-recorder"
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        self.sent_on.lock().unwrap().insert(key);
        self.inner.send(key, payload)
    }

    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        self.inner.recv_within(key, timeout)
    }

    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        self.inner.try_recv(key)
    }

    fn reset(&self) {
        self.inner.reset()
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn diag(&self) -> FabricDiag {
        self.inner.diag()
    }
}

/// A job that keeps `DEPTH` collectives in flight reuses a bounded set
/// of sequence slots — at most `DEPTH` plus the allocator's cooling
/// window — so it touches a bounded set of fabric channels, even after
/// more collectives than the space has slots.
#[test]
fn closed_loop_job_touches_a_bounded_channel_set() {
    const DEPTH: usize = 4;
    const COLLS: i32 = 5_000;
    let world = 4;
    let rec = Arc::new(ChannelRecorder {
        inner: InProcFabric::new(),
        sent_on: Mutex::new(HashSet::new()),
    });
    let cfg = SvcConfig::new(world);
    assert!(
        COLLS as usize > 1 << cfg.seq_bits,
        "the run must outlast one pass over the slot space"
    );
    let svc = Svc::new(rec.clone(), cfg).unwrap();
    let job = svc.job().unwrap();

    // One collective alone gives the channels each one uses.
    let (inputs, want) = allreduce_inputs(world, -1);
    let out = job
        .iallreduce(Datatype::Int32, ReduceOp::Sum, inputs)
        .wait()
        .unwrap();
    assert!(out.iter().all(|o| from_ints(o) == want));
    let per_coll = rec.channels();
    assert!(per_coll > 0);

    let mut inflight = VecDeque::new();
    for k in 0..COLLS {
        if inflight.len() == DEPTH {
            let (req, want): (Request, Vec<i32>) = inflight.pop_front().unwrap();
            for rank_out in req.wait().expect("collective completes") {
                assert_eq!(from_ints(&rank_out), want);
            }
        }
        let (inputs, want) = allreduce_inputs(world, k);
        inflight.push_back((job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs), want));
    }
    for (req, want) in inflight {
        for rank_out in req.wait().expect("collective completes") {
            assert_eq!(from_ints(&rank_out), want);
        }
    }

    let j = &svc.stats().jobs[0];
    assert_eq!(j.completed, COLLS as u64 + 1);
    assert_eq!(j.failed, 0);
    let bound = (DEPTH + pipmcoll_svc::tagspace::COOL) * per_coll;
    assert!(
        rec.channels() <= bound,
        "{} distinct channels after {} collectives, bound {bound} ({per_coll} per collective)",
        rec.channels(),
        COLLS + 1
    );
}

/// A malformed spec resolves at once, typed, on the caller's thread, and
/// never reaches the engine: another job's collective still completes.
#[test]
fn malformed_spec_is_refused_and_the_engine_keeps_running() {
    let world = 4;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let bad_job = svc.job().unwrap();
    let good_job = svc.job().unwrap();
    let ragged: Vec<Vec<u8>> = [8, 4, 8, 8].iter().map(|&n| vec![1u8; n]).collect();
    let bad = bad_job.iallreduce(Datatype::Int32, ReduceOp::Sum, ragged);
    match bad.test() {
        Some(Err(SvcError::Invalid(pipmcoll_svc::PlanError::Malformed { reason }))) => {
            assert!(reason.contains("rank 1"), "{reason}")
        }
        other => panic!("a ragged allreduce must resolve Invalid at submission: {other:?}"),
    }
    let partial = bad_job.iallreduce(Datatype::Int32, ReduceOp::Sum, vec![vec![0u8; 6]; world]);
    assert!(matches!(partial.wait(), Err(SvcError::Invalid(_))));
    let no_root = bad_job.ibcast(world, ints(&[1]));
    assert!(matches!(no_root.wait(), Err(SvcError::Invalid(_))));

    let (inputs, want) = allreduce_inputs(world, 5);
    let out = good_job
        .iallreduce(Datatype::Int32, ReduceOp::Sum, inputs)
        .wait()
        .expect("the engine survives a malformed spec");
    assert!(out.iter().all(|o| from_ints(o) == want));
    let stats = svc.stats();
    assert_eq!((stats.jobs[0].failed, stats.jobs[0].admitted), (3, 0));
    assert_eq!((stats.jobs[1].completed, stats.jobs[1].failed), (1, 0));
}

/// World 66 with small concurrent allgathers: recursive doubling falls
/// back to Bruck (7 rounds, 7 phases). The former hand-written ring
/// used one phase per step — 65 here — and overflowed the 6-bit phase
/// field: a panicking engine in debug builds, wrong bytes in release.
#[test]
fn allgathers_past_world_64_keep_their_phases_in_the_tag_field() {
    let world = 66;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let job = svc.job().unwrap();
    let reqs: Vec<(Request, Vec<u8>)> = (0..3)
        .map(|k| {
            let inputs: Vec<Vec<u8>> = (0..world).map(|r| ints(&[k * 1000 + r as i32])).collect();
            let want = inputs.concat();
            (job.iallgather(inputs), want)
        })
        .collect();
    for (i, (req, want)) in reqs.into_iter().enumerate() {
        let out = req.wait().expect("allgather completes");
        assert_eq!(out.len(), world);
        assert!(out.iter().all(|o| *o == want), "collective {i} of 3");
    }
    assert_eq!(svc.stats().jobs[0].failed, 0);
}
