//! Survive-and-complete fault tolerance for the service: seeded
//! kill-grid runs (the `svc-ft-smoke` CI gate), typed terminal errors
//! for dead roots and spent retry caps, cancellation and deadline
//! plumbing, and the no-leaked-slots conservation invariant.
//!
//! Every test sets its fault schedule and timing knobs directly on
//! [`SvcConfig`] — never via the process environment, which is shared
//! across the parallel test harness.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_fabric::{sync_timeout, Fabric, InProcFabric};
use pipmcoll_model::{Datatype, ReduceOp};
use pipmcoll_rt::FaultPlan;
use pipmcoll_svc::{Spec, SubmitOpts, Svc, SvcConfig, SvcError};

mod common;
use common::assert_drained;

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

/// Fault-tolerant config with timing shrunk so detect → agree → retry
/// completes in well under a second.
fn ft_cfg(world: usize, fault: &str) -> SvcConfig {
    SvcConfig {
        ft: true,
        suspect_after: Duration::from_millis(60),
        agree_delta: Duration::from_millis(40),
        fault: FaultPlan::parse(fault).expect("valid fault DSL"),
        ..SvcConfig::new(world)
    }
}

/// Rank `r` contributes `[seed + r, seed + r + 1]`.
fn allreduce_inputs(world: usize, seed: i32) -> Vec<Vec<u8>> {
    (0..world)
        .map(|r| ints(&[seed + r as i32, seed + r as i32 + 1]))
        .collect()
}

/// Elementwise i32 sum of `inputs` over the given ranks.
fn sum_over(inputs: &[Vec<u8>], ranks: &[usize]) -> Vec<i32> {
    let mut acc = from_ints(&inputs[ranks[0]]);
    for &r in &ranks[1..] {
        for (a, v) in acc.iter_mut().zip(from_ints(&inputs[r])) {
            *a += v;
        }
    }
    acc
}

/// The kill-grid core: `jobs_n` jobs each storm `colls` allreduces over
/// `world` ranks while the fault schedule kills `victims`. Every
/// request must resolve — byte-identical across the survivor set (or
/// the full world, if it finished before the death) — the committed
/// failed set must equal the victims, and no sequence slot may leak.
fn run_kill_grid(world: usize, jobs_n: usize, colls: usize, fault: &str, victims: &[usize]) {
    let cfg = ft_cfg(world, fault);
    let seq_bits = cfg.seq_bits;
    let slot_cap = 1usize << seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let jobs: Vec<_> = (0..jobs_n).map(|_| svc.job().unwrap()).collect();

    let mut launched = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        for k in 0..colls {
            let seed = (ji * 100 + k * 7 + 1) as i32;
            let inputs = allreduce_inputs(world, seed);
            let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs.clone());
            launched.push((req, inputs));
        }
    }

    let hang_cut = Instant::now() + sync_timeout() * 3;
    for (req, inputs) in launched {
        let out = req.wait().expect("surviving job's request resolves");
        assert!(Instant::now() < hang_cut, "kill-grid run hung");
        assert_eq!(out.len(), world, "outputs always span the full world");
        // The collective completed on the group it was planned against:
        // the full world, the final survivor set, or — with victims
        // dying at different times — an intermediate epoch's group. The
        // output names that group (dead ranks hold empty buffers);
        // whatever it was, only victims may be missing from it, and
        // every member must hold the byte-identical reduction over
        // exactly that group's inputs.
        let group: Vec<usize> = (0..world).filter(|&r| !out[r].is_empty()).collect();
        for v in (0..world).filter(|r| !group.contains(r)) {
            assert!(victims.contains(&v), "live rank {v} missing from result");
        }
        let want = sum_over(&inputs, &group);
        for &r in &group {
            assert_eq!(
                from_ints(&out[r]),
                want,
                "rank {r} diverged from group {group:?}"
            );
        }
    }

    let stats = svc.stats();
    assert!(stats.epoch >= 1, "a death must commit a failure epoch");
    let mut want_failed = victims.to_vec();
    want_failed.sort_unstable();
    assert_eq!(stats.failed, want_failed, "committed failed set");
    assert_eq!(stats.inflight, 0);
    let retried: u64 = stats.jobs.iter().map(|j| j.retried).sum();
    assert!(retried >= 1, "an in-flight collective must have re-planned");
    for j in &stats.jobs {
        assert_eq!(j.completed, colls as u64, "job {} completed", j.comm);
        assert_eq!(j.failed, 0, "job {} spurious failures", j.comm);
        assert_eq!(j.queue_depth, 0);
        assert_eq!(j.slots_held, 0, "job {} leaked seq slots", j.comm);
        assert_eq!(
            j.slots_free + j.slots_quarantined,
            slot_cap,
            "job {} slot conservation",
            j.comm
        );
    }
    assert_drained(&stats, seq_bits, &vec![colls as u64; jobs_n]);
}

/// Fault tolerance tracks ranks in a 64-bit set: a larger world with
/// `ft` on is refused, typed, before the engine starts.
#[test]
fn ft_past_world_64_is_refused_at_construction() {
    let cfg = SvcConfig {
        ft: true,
        ..SvcConfig::new(65)
    };
    match Svc::new(inproc(), cfg) {
        Err(SvcError::Config { reason }) => assert!(reason.contains("65"), "{reason}"),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("ft on a world of 65 must be refused"),
    }
    // The default leaves ft off past 64, and such a service starts.
    assert!(!SvcConfig::new(65).ft);
    assert!(Svc::new(inproc(), SvcConfig::new(65)).is_ok());
}

#[test]
fn kill_grid_one_victim_at_submit() {
    run_kill_grid(8, 1, 8, "kill:rank=3@submit=1", &[3]);
}

#[test]
fn kill_grid_one_victim_at_poll() {
    run_kill_grid(8, 1, 8, "kill:rank=1@poll=5", &[1]);
}

#[test]
fn kill_grid_two_victims_two_jobs() {
    run_kill_grid(8, 2, 8, "kill:rank=2@submit=1;kill:rank=5@poll=4", &[2, 5]);
}

#[test]
fn kill_grid_two_victims_one_job() {
    run_kill_grid(
        6,
        1,
        6,
        "kill:rank=0@submit=1;kill:rank=4@submit=1",
        &[0, 4],
    );
}

/// A broadcast or scatter whose root dies resolves
/// [`SvcError::Unsatisfiable`] — both for a collective in flight when
/// the root is killed (the re-queue path) and for one submitted after
/// the failure epoch committed (the admission-time plan check).
#[test]
fn dead_root_resolves_unsatisfiable() {
    let world = 4;
    let svc = Svc::new(inproc(), ft_cfg(world, "kill:rank=2@submit=1")).unwrap();
    let job = svc.job().unwrap();

    // In flight when rank 2 dies: requeue_troubled sees the dead root.
    let bc = job.ibcast(2, ints(&[42, 43]));
    let inputs = allreduce_inputs(world, 9);
    let ar = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs.clone());

    assert_eq!(bc.wait().unwrap_err(), SvcError::Unsatisfiable { rank: 2 });
    let out = ar.wait().expect("rootless collective survives the death");
    let want = sum_over(&inputs, &[0, 1, 3]);
    for &r in &[0usize, 1, 3] {
        assert_eq!(from_ints(&out[r]), want);
    }
    assert!(out[2].is_empty());

    // Submitted after the epoch: rejected at admission planning.
    let sc = job.iscatter(2, (0..world).map(|r| ints(&[r as i32])).collect());
    assert_eq!(sc.wait().unwrap_err(), SvcError::Unsatisfiable { rank: 2 });

    let stats = svc.stats();
    assert_eq!(stats.failed, vec![2]);
    let j = &stats.jobs[0];
    assert_eq!(j.completed, 1);
    assert_eq!(j.failed, 2, "both root-dead collectives count as failed");
    assert_eq!(j.slots_held, 0);
}

/// A spent retry cap resolves [`SvcError::RetriesExhausted`] instead of
/// re-planning forever: with `retry_max = 0`, the first death-driven
/// re-queue is already over the cap.
#[test]
fn spent_retry_cap_resolves_retries_exhausted() {
    let world = 4;
    let svc = Svc::new(inproc(), ft_cfg(world, "kill:rank=1@submit=1")).unwrap();
    let job = svc.job().unwrap();
    let req = job.submit_with(
        Spec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs: allreduce_inputs(world, 5),
        },
        SubmitOpts {
            retry_max: Some(0),
            ..SubmitOpts::default()
        },
    );
    assert_eq!(
        req.wait().unwrap_err(),
        SvcError::RetriesExhausted { attempts: 0 }
    );
    let stats = svc.stats();
    assert_eq!(stats.jobs[0].failed, 1);
    assert_eq!(stats.jobs[0].retried, 0, "cap 0 means no re-plan happened");
    assert_eq!(stats.jobs[0].slots_held, 0);
}

#[test]
fn cancel_resolves_queued_request_promptly() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(0), // never admitted: the cancel hits the FIFO
        ..SvcConfig::new(world)
    };
    let seq_bits = cfg.seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, allreduce_inputs(world, 1));
    req.cancel();
    assert_eq!(req.wait().unwrap_err(), SvcError::Cancelled);
    let j = &svc.stats().jobs[0];
    assert_eq!(j.cancelled, 1);
    assert_eq!(j.queue_depth, 0);
    assert_eq!(
        j.slots_quarantined, 0,
        "a never-admitted collective held no slot to quarantine"
    );
    assert_drained(&svc.stats(), seq_bits, &[1]);
}

/// Cancelling an *in-flight* collective quarantines its sequence slot:
/// peer frames bearing its tags may still arrive, so the slot can never
/// back another collective.
#[test]
fn cancel_quarantines_in_flight_slot() {
    let world = 4;
    // A DSL-killed rank with fault tolerance OFF pins the collective in
    // flight deterministically: admitted, but one rank's frames never
    // come and nothing re-plans it — it would sit until the stall
    // backstop, leaving an arbitrarily wide window to cancel into.
    let cfg = SvcConfig {
        ft: false,
        fault: FaultPlan::parse("kill:rank=1@submit=1").unwrap(),
        ..SvcConfig::new(world)
    };
    let seq_bits = cfg.seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, allreduce_inputs(world, 2));
    let cut = Instant::now() + Duration::from_secs(10);
    while svc.stats().inflight == 0 {
        assert!(Instant::now() < cut, "collective never admitted");
        std::thread::yield_now();
    }
    req.cancel();
    assert_eq!(req.wait().unwrap_err(), SvcError::Cancelled);
    let j = &svc.stats().jobs[0];
    assert_eq!(j.cancelled, 1);
    assert_eq!(j.slots_quarantined, 1, "in-flight cancel retires the slot");
    assert_eq!(j.slots_held, 0);
    assert_drained(&svc.stats(), seq_bits, &[1]);
}

#[test]
fn per_request_deadline_resolves_typed() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(0), // never admitted: the deadline must fire
        ..SvcConfig::new(world)
    };
    let seq_bits = cfg.seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let req = job.submit_with(
        Spec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs: allreduce_inputs(world, 3),
        },
        SubmitOpts {
            deadline: Some(Duration::from_millis(40)),
            ..SubmitOpts::default()
        },
    );
    match req.wait().unwrap_err() {
        SvcError::DeadlineExpired { waited } => {
            assert!(
                waited >= Duration::from_millis(40),
                "expired early: {waited:?}"
            );
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let j = &svc.stats().jobs[0];
    assert_eq!(j.deadline_expired, 1);
    assert_eq!(j.queue_depth, 0);
    assert_drained(&svc.stats(), seq_bits, &[1]);
}

#[test]
fn config_default_deadline_applies_to_plain_submissions() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(0),
        deadline: Some(Duration::from_millis(30)),
        ..SvcConfig::new(world)
    };
    let seq_bits = cfg.seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, allreduce_inputs(world, 4));
    assert!(matches!(
        req.wait().unwrap_err(),
        SvcError::DeadlineExpired { .. }
    ));
    assert_eq!(svc.stats().jobs[0].deadline_expired, 1);
    assert_drained(&svc.stats(), seq_bits, &[1]);
}

/// Dropping the only handle on an unfinished collective cancels it —
/// nobody can take the result, so letting it run would leak its slot
/// and queue share to a request no one is waiting on.
#[test]
fn dropped_request_is_cancelled() {
    let world = 4;
    let cfg = SvcConfig {
        max_inflight: Some(0),
        ..SvcConfig::new(world)
    };
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    drop(job.iallreduce(Datatype::Int32, ReduceOp::Sum, allreduce_inputs(world, 6)));
    let cut = Instant::now() + Duration::from_secs(10);
    loop {
        let j = &svc.stats().jobs[0];
        if j.cancelled == 1 && j.queue_depth == 0 {
            break;
        }
        assert!(Instant::now() < cut, "dropped request never reaped");
        std::thread::yield_now();
    }
}

/// A request that completes before the engine sees the cancel flag
/// keeps its result — cancellation is a request to stop waiting, not a
/// retroactive failure.
#[test]
fn cancel_after_completion_keeps_the_result() {
    let world = 4;
    let svc = Svc::new(inproc(), SvcConfig::new(world)).unwrap();
    let job = svc.job().unwrap();
    let inputs = allreduce_inputs(world, 8);
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs.clone());
    let out = req.wait().expect("completes");
    req.cancel(); // idempotent no-op after completion
    let want = sum_over(&inputs, &(0..world).collect::<Vec<_>>());
    assert_eq!(from_ints(&out[0]), want);
    assert_eq!(svc.stats().jobs[0].completed, 1);
}

/// Killing exactly half the members — the half holding the lowest
/// rank — leaves the survivors without quorum: the even-split
/// tie-breaker awards the partition side that contains the lowest
/// member, and {2, 3} does not. Agreement must NOT commit a failed
/// set (the other side of a real partition would commit the mirror
/// image); instead every affected request resolves the typed
/// [`SvcError::QuorumLost`] and admission freezes.
#[test]
fn losing_the_tie_break_half_freezes_admission_with_quorum_lost() {
    let world = 4;
    let cfg = ft_cfg(world, "kill:rank=0@submit=1;kill:rank=1@submit=1");
    let slot_cap = 1usize << cfg.seq_bits;
    let svc = Svc::new(inproc(), cfg).unwrap();
    let job = svc.job().unwrap();
    let inputs = allreduce_inputs(world, 5);
    let start = Instant::now();
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs);
    let err = req.wait().expect_err("minority side must not complete");
    assert!(
        start.elapsed() < sync_timeout() * 3,
        "quorum loss must resolve promptly, took {:?}",
        start.elapsed()
    );
    assert_eq!(
        err,
        SvcError::QuorumLost {
            survivors: vec![2, 3],
            members: world,
        }
    );

    let stats = svc.stats();
    assert!(stats.admission_frozen, "no quorum => admission frozen");
    assert_eq!(
        stats.epoch, 0,
        "freezing must not commit a failure epoch the other side could contradict"
    );
    assert!(
        stats.failed.is_empty(),
        "no failed set may be committed without quorum, got {:?}",
        stats.failed
    );
    assert_eq!(stats.inflight, 0);
    let j = &stats.jobs[0];
    assert_eq!(j.failed, 1);
    assert_eq!(j.slots_held, 0, "quorum-lost resolution leaked a slot");
    assert_eq!(
        j.slots_free + j.slots_quarantined,
        slot_cap,
        "slot conservation"
    );
}
