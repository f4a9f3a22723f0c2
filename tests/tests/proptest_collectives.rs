//! Randomized-property tests: random cluster shapes, sizes, roots and
//! operators — every recorded schedule must validate, pass the
//! happens-before race/deadlock analysis, and produce MPI-correct results.
//! Driven by a seeded in-tree PRNG (deterministic, dependency-free).

use pipmcoll_core::baseline::{
    allgather_bruck, allgather_recursive_doubling, allgather_ring, allreduce_rabenseifner,
    allreduce_recursive_doubling, bcast_binomial, gather_binomial,
};
use pipmcoll_core::mcoll::intranode::{
    intra_bcast_large, intra_bcast_small, intra_gather, intra_reduce_binomial, intra_reduce_chunked,
};
use pipmcoll_core::{
    AllgatherParams, AllreduceParams, CollectiveSpec, LibraryProfile, ScatterParams,
};
use pipmcoll_integration::{verify_collective, TestRng};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_sched::verify::{self, double_pattern, pattern, reference_reduce};
use pipmcoll_sched::{record, record_with_sizes, BufSizes};

const CASES: usize = 48;

fn shape(rng: &mut TestRng) -> (usize, usize) {
    (rng.range(1, 8), rng.range(1, 6))
}

#[test]
fn scatter_correct_for_all_libraries() {
    let mut rng = TestRng::new(0xA11CE);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let cb = rng.range(1, 200);
        let root = (rng.range(0, 7) % nodes) * ppn; // always a local root
        let lib = LibraryProfile::ALL[rng.range(0, LibraryProfile::ALL.len())];
        let spec = CollectiveSpec::Scatter(ScatterParams { cb, root });
        verify_collective(lib, nodes, ppn, &spec)
            .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} cb={cb} root={root}: {e}", lib.name()));
    }
}

#[test]
fn allgather_correct_for_all_libraries() {
    let mut rng = TestRng::new(0xB0B);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let cb = rng.range(1, 200);
        let lib = LibraryProfile::ALL[rng.range(0, LibraryProfile::ALL.len())];
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb });
        verify_collective(lib, nodes, ppn, &spec)
            .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} cb={cb}: {e}", lib.name()));
    }
}

#[test]
fn allreduce_correct_for_all_libraries() {
    let mut rng = TestRng::new(0xCAFE);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let count = rng.range(1, 150);
        let lib = LibraryProfile::ALL[rng.range(0, LibraryProfile::ALL.len())];
        let spec = CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(count));
        verify_collective(lib, nodes, ppn, &spec)
            .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} count={count}: {e}", lib.name()));
    }
}

#[test]
fn baseline_bcast_gather_correct() {
    let mut rng = TestRng::new(0xD00D);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let cb = rng.range(1, 100);
        let topo = Topology::new(nodes, ppn);
        let world = topo.world_size();
        let root = rng.range(0, 35) % world;
        // Broadcast.
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(if r == root { cb } else { 0 }, cb),
            |c| bcast_binomial(c, cb, root),
        );
        let res = verify::run(&sched, |r| {
            if r == root {
                pattern(root, cb)
            } else {
                Vec::new()
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));
        for rank in 0..world {
            assert_eq!(&res.recv[rank], &pattern(root, cb), "bcast rank {rank}");
        }
        // Gather.
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == root { world * cb } else { 0 }),
            |c| gather_binomial(c, cb, root),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap_or_else(|e| panic!("{e}"));
        let mut expect = Vec::new();
        for r in 0..world {
            expect.extend_from_slice(&pattern(r, cb));
        }
        assert_eq!(&res.recv[root], &expect, "gather root {root}");
    }
}

#[test]
fn intranode_reduce_any_operator() {
    let mut rng = TestRng::new(0xE220);
    for _ in 0..CASES {
        let ppn = rng.range(1, 8);
        let count = rng.range(1, 64);
        // Prod over patterned doubles explodes; test Sum/Max/Min.
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][rng.range(0, 3)];
        let chunked = rng.flip();
        let topo = Topology::new(1, ppn);
        let cb = count * 8;
        let sched = record(topo, BufSizes::new(cb, cb), |c| {
            if chunked {
                intra_reduce_chunked(c, count, op, Datatype::Double);
            } else {
                intra_reduce_binomial(c, cb, op, Datatype::Double);
            }
        });
        let res = verify::run(&sched, |r| {
            pipmcoll_model::dtype::doubles_to_bytes(&double_pattern(r, count))
        })
        .unwrap_or_else(|e| panic!("ppn={ppn} count={count} {op:?} chunked={chunked}: {e}"));
        assert_eq!(
            pipmcoll_model::dtype::bytes_to_doubles(&res.recv[0]),
            reference_reduce(op, ppn, count),
            "ppn={ppn} count={count} {op:?} chunked={chunked}"
        );
    }
}

#[test]
fn intranode_bcast_gather_correct() {
    let mut rng = TestRng::new(0xF00);
    for _ in 0..CASES {
        let ppn = rng.range(1, 9);
        let cb = rng.range(1, 128);
        let large = rng.flip();
        let topo = Topology::new(1, ppn);
        let sched = record(topo, BufSizes::new(cb, cb), |c| {
            if large {
                intra_bcast_large(c, cb);
            } else {
                intra_bcast_small(c, cb);
            }
        });
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap_or_else(|e| panic!("{e}"));
        for rank in 0..ppn {
            assert_eq!(&res.recv[rank], &pattern(0, cb), "bcast large={large}");
        }
        let sched = record_with_sizes(
            topo,
            |r| BufSizes::new(cb, if r == 0 { ppn * cb } else { 0 }),
            |c| intra_gather(c, cb),
        );
        let res = verify::run(&sched, |r| pattern(r, cb)).unwrap_or_else(|e| panic!("{e}"));
        let mut expect = Vec::new();
        for r in 0..ppn {
            expect.extend_from_slice(&pattern(r, cb));
        }
        assert_eq!(&res.recv[0], &expect, "gather ppn={ppn} cb={cb}");
    }
}

#[test]
fn baseline_allgathers_agree() {
    let mut rng = TestRng::new(0xAB5EED);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let cb = rng.range(1, 100);
        // All three baseline allgathers must produce identical results.
        let topo = Topology::new(nodes, ppn);
        let p = AllgatherParams { cb };
        let mut outs = Vec::new();
        for algo in [
            allgather_bruck as fn(&mut pipmcoll_sched::TraceComm, &AllgatherParams),
            allgather_recursive_doubling,
            allgather_ring,
        ] {
            let sched = record_with_sizes(topo, p.buf_sizes(topo), |c| algo(c, &p));
            let res = verify::run(&sched, |r| pattern(r, cb)).unwrap_or_else(|e| panic!("{e}"));
            outs.push(res.recv);
        }
        assert_eq!(&outs[0], &outs[1], "{nodes}x{ppn} cb={cb}");
        assert_eq!(&outs[0], &outs[2], "{nodes}x{ppn} cb={cb}");
    }
}

#[test]
fn baseline_allreduces_agree() {
    let mut rng = TestRng::new(0x5EED5);
    for _ in 0..CASES {
        let (nodes, ppn) = shape(&mut rng);
        let count = rng.range(1, 100);
        let topo = Topology::new(nodes, ppn);
        let p = AllreduceParams::sum_doubles(count);
        let mut outs = Vec::new();
        for algo in [
            allreduce_recursive_doubling as fn(&mut pipmcoll_sched::TraceComm, &AllreduceParams),
            allreduce_rabenseifner,
        ] {
            let sched = record_with_sizes(topo, p.buf_sizes(), |c| algo(c, &p));
            let res = verify::run(&sched, |r| {
                pipmcoll_model::dtype::doubles_to_bytes(&double_pattern(r, count))
            })
            .unwrap_or_else(|e| panic!("{e}"));
            outs.push(res.recv);
        }
        assert_eq!(&outs[0], &outs[1], "{nodes}x{ppn} count={count}");
    }
}
