//! Ablation sanity (the knobs must move performance the way the paper's
//! reasoning predicts) and failure injection (corrupted schedules must be
//! rejected, not silently mis-simulated).

use pipmcoll_core::mcoll::{allgather_mcoll_large_opts, allgather_mcoll_small_k};
use pipmcoll_core::{build_schedule, AllgatherParams, CollectiveSpec, LibraryProfile};
use pipmcoll_engine::{simulate, EngineConfig};
use pipmcoll_model::{presets, Mechanism, Topology};
use pipmcoll_sched::dataflow::execute;
use pipmcoll_sched::verify::{check_allgather, pattern};
use pipmcoll_sched::{record_with_sizes, Op, Schedule};

fn allgather_sched(
    nodes: usize,
    ppn: usize,
    cb: usize,
    algo: impl FnMut(&mut pipmcoll_sched::TraceComm),
) -> Schedule {
    let topo = Topology::new(nodes, ppn);
    let p = AllgatherParams { cb };
    record_with_sizes(topo, p.buf_sizes(topo), algo)
}

// ---------------------------------------------------------------- ablations

#[test]
fn more_objects_is_faster_at_small_sizes() {
    // Fan-out ablation: k = P must beat k = 1 (the whole point of the
    // multi-object design), with intermediate k in between-ish.
    let (nodes, ppn, cb) = (16usize, 6usize, 64usize);
    let machine = presets::bebop(nodes, ppn);
    let cfg = EngineConfig::pip_mcoll(machine);
    let time_k = |k: usize| {
        let p = AllgatherParams { cb };
        let s = allgather_sched(nodes, ppn, cb, |c| allgather_mcoll_small_k(c, &p, k));
        check_allgather(&s, cb).unwrap();
        simulate(&cfg, &s).unwrap().makespan
    };
    let t1 = time_k(1);
    let t3 = time_k(3);
    let t6 = time_k(6);
    assert!(
        t6 < t1,
        "full multi-object must beat single-leader: {t6} vs {t1}"
    );
    assert!(t3 < t1, "partial fan-out must already help: {t3} vs {t1}");
}

#[test]
fn overlap_saves_time_at_large_sizes() {
    let (nodes, ppn, cb) = (8usize, 6usize, 256 * 1024usize);
    let machine = presets::bebop(nodes, ppn);
    let cfg = EngineConfig::pip_mcoll(machine);
    let p = AllgatherParams { cb };
    let on = allgather_sched(nodes, ppn, cb, |c| allgather_mcoll_large_opts(c, &p, true));
    let off = allgather_sched(nodes, ppn, cb, |c| allgather_mcoll_large_opts(c, &p, false));
    check_allgather(&on, cb).unwrap();
    check_allgather(&off, cb).unwrap();
    let t_on = simulate(&cfg, &on).unwrap().makespan;
    let t_off = simulate(&cfg, &off).unwrap().makespan;
    assert!(
        t_on < t_off,
        "overlap must hide copy time behind the wire: {t_on} vs {t_off}"
    );
}

#[test]
fn mechanism_swap_isolates_the_pip_advantage() {
    // The same MColl algorithm priced over other mechanisms must get
    // slower: POSIX double-copies (hurts large), CMA pays syscalls (hurts
    // small message floods), XPMEM pays attach setup.
    let (nodes, ppn) = (8usize, 6usize);
    let machine = presets::bebop(nodes, ppn);
    let time_with = |mech: Mechanism, cb: usize| {
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb });
        let sched = build_schedule(LibraryProfile::PipMColl, machine.topo, &spec);
        let cfg = EngineConfig::pip_mcoll(machine).with_shared_mech(mech);
        simulate(&cfg, &sched).unwrap().makespan
    };
    for cb in [64usize, 128 * 1024] {
        let pip = time_with(Mechanism::Pip, cb);
        for mech in [
            Mechanism::Posix,
            Mechanism::Cma,
            Mechanism::Limic,
            Mechanism::Xpmem,
        ] {
            let other = time_with(mech, cb);
            assert!(
                pip <= other,
                "cb={cb}: pip {pip} must not lose to {} {other}",
                mech.name()
            );
        }
        // The double copy must visibly hurt the copy-heavy large case.
        if cb > 1024 {
            let posix = time_with(Mechanism::Posix, cb);
            assert!(posix > pip, "double copy must cost at large sizes");
        }
    }
}

// -------------------------------------------------------- failure injection

fn valid_small_sched() -> Schedule {
    let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 32 });
    build_schedule(LibraryProfile::PipMColl, Topology::new(3, 2), &spec)
}

#[test]
fn dropping_a_send_is_caught() {
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    // Remove the first internode send we find.
    'outer: for prog in programs.iter_mut() {
        for i in 0..prog.ops.len() {
            if matches!(prog.ops[i], Op::ISendShared { .. } | Op::ISend { .. }) {
                prog.ops.remove(i);
                break 'outer;
            }
        }
    }
    let broken = Schedule::new(sched.topo(), programs);
    assert!(
        broken.validate().is_err(),
        "validator must flag the unmatched receive"
    );
}

#[test]
fn flipping_a_tag_is_caught() {
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    'outer: for prog in programs.iter_mut() {
        for op in prog.ops.iter_mut() {
            if let Op::ISendShared { tag, .. } = op {
                *tag ^= 0xdead;
                break 'outer;
            }
        }
    }
    let broken = Schedule::new(sched.topo(), programs);
    assert!(
        broken.validate().is_err(),
        "validator must flag the tag flip"
    );
}

#[test]
fn shrinking_a_recv_region_is_caught() {
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    'outer: for prog in programs.iter_mut() {
        for op in prog.ops.iter_mut() {
            if let Op::IRecvShared { dst, .. } = op {
                dst.len /= 2;
                break 'outer;
            }
        }
    }
    let broken = Schedule::new(sched.topo(), programs);
    assert!(
        broken.validate().is_err(),
        "validator must flag the size mismatch"
    );
}

#[test]
fn removing_a_barrier_is_caught() {
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    // Remove one rank's first barrier — the per-node count check fires.
    let pos = programs[1]
        .ops
        .iter()
        .position(|o| matches!(o, Op::NodeBarrier))
        .expect("mcoll allgather uses barriers");
    programs[1].ops.remove(pos);
    let broken = Schedule::new(sched.topo(), programs);
    assert!(broken.validate().is_err(), "barrier counts must mismatch");
}

#[test]
fn stray_wait_flag_deadlocks_cleanly() {
    // A wait on a flag nobody signals: static validation flags it, and the
    // interpreter reports a deadlock rather than hanging.
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    programs[0].ops.push(Op::WaitFlag { flag: 99, count: 1 });
    let broken = Schedule::new(sched.topo(), programs);
    assert!(
        broken.validate().is_err(),
        "unsatisfiable flag must be flagged"
    );
    let err =
        execute(&broken, |r| pattern(r, 32)).expect_err("interpreter must detect the deadlock");
    assert!(err.message.contains("deadlock"), "{err}");
}

#[test]
fn corrupted_remote_offset_is_caught_at_runtime() {
    // Static bounds can't see through the address board; the dataflow
    // interpreter must reject an out-of-window remote access.
    let sched = valid_small_sched();
    let mut programs = sched.programs().to_vec();
    'outer: for prog in programs.iter_mut() {
        for op in prog.ops.iter_mut() {
            if let Op::CopyIn { from, .. } = op {
                from.offset += 1 << 20;
                break 'outer;
            }
        }
    }
    let broken = Schedule::new(sched.topo(), programs);
    let err =
        execute(&broken, |r| pattern(r, 32)).expect_err("interpreter must reject the wild access");
    assert!(
        err.message.contains("exceeds posted region"),
        "unexpected error: {err}"
    );
}

#[test]
fn engine_rejects_wrong_topology() {
    let sched = valid_small_sched();
    let machine = presets::bebop(4, 4); // mismatched shape
    let cfg = EngineConfig::pip_mcoll(machine);
    let r = std::panic::catch_unwind(|| simulate(&cfg, &sched));
    assert!(r.is_err(), "topology mismatch must be rejected loudly");
}
