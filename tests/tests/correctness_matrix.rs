//! Correctness matrix: every library profile × every collective × a grid of
//! cluster shapes and sizes. Each schedule is proven race- and
//! deadlock-free once (`hb::check`), executed once by the dataflow
//! interpreter, and its result checked against MPI semantics.

use pipmcoll_core::{
    AllgatherParams, AllreduceParams, CollectiveSpec, LibraryProfile, ScatterParams,
};
use pipmcoll_integration::verify_collective;

const SHAPES: [(usize, usize); 7] = [(1, 1), (1, 4), (2, 2), (3, 3), (4, 2), (5, 3), (8, 2)];

#[test]
fn scatter_matrix() {
    for lib in LibraryProfile::ALL {
        for (nodes, ppn) in SHAPES {
            for cb in [1usize, 8, 64, 1000] {
                let spec = CollectiveSpec::Scatter(ScatterParams { cb, root: 0 });
                verify_collective(lib, nodes, ppn, &spec)
                    .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} cb={cb}: {e}", lib.name()));
            }
        }
    }
}

#[test]
fn allgather_matrix() {
    for lib in LibraryProfile::ALL {
        for (nodes, ppn) in SHAPES {
            for cb in [1usize, 16, 100, 1024] {
                let spec = CollectiveSpec::Allgather(AllgatherParams { cb });
                verify_collective(lib, nodes, ppn, &spec)
                    .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} cb={cb}: {e}", lib.name()));
            }
        }
    }
}

#[test]
fn allreduce_matrix() {
    for lib in LibraryProfile::ALL {
        for (nodes, ppn) in SHAPES {
            for count in [1usize, 7, 64, 300] {
                let spec = CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(count));
                verify_collective(lib, nodes, ppn, &spec)
                    .unwrap_or_else(|e| panic!("{} {nodes}x{ppn} count={count}: {e}", lib.name()));
            }
        }
    }
}

#[test]
fn allgather_exercises_both_mcoll_algorithms_via_dispatch() {
    // Below and above the 64 kB switch-point.
    for cb in [1024usize, 64 * 1024, 128 * 1024] {
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb });
        verify_collective(LibraryProfile::PipMColl, 3, 2, &spec)
            .unwrap_or_else(|e| panic!("cb={cb}: {e}"));
    }
}

#[test]
fn allreduce_exercises_both_mcoll_algorithms_via_dispatch() {
    // Below and above the 8 k-count switch-point.
    for count in [512usize, 8 * 1024, 16 * 1024] {
        let spec = CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(count));
        verify_collective(LibraryProfile::PipMColl, 3, 2, &spec)
            .unwrap_or_else(|e| panic!("count={count}: {e}"));
    }
}

#[test]
fn scatter_nonzero_local_root_all_libraries() {
    for lib in LibraryProfile::ALL {
        // Root = local root of node 1 in a 3x2 cluster.
        let spec = CollectiveSpec::Scatter(ScatterParams { cb: 32, root: 2 });
        verify_collective(lib, 3, 2, &spec).unwrap_or_else(|e| panic!("{}: {e}", lib.name()));
    }
}

#[test]
fn wide_single_node_cluster() {
    // Everything intranode (N = 1, wide P) — pure PiP paths for MColl.
    for lib in [LibraryProfile::PipMColl, LibraryProfile::IntelMpi] {
        for spec in [
            CollectiveSpec::Scatter(ScatterParams { cb: 24, root: 0 }),
            CollectiveSpec::Allgather(AllgatherParams { cb: 24 }),
            CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(9)),
        ] {
            verify_collective(lib, 1, 9, &spec)
                .unwrap_or_else(|e| panic!("{} {spec:?}: {e}", lib.name()));
        }
    }
}

#[test]
fn many_nodes_single_rank_each() {
    // P = 1 degenerates multi-object to single-object; must still be exact.
    for lib in [LibraryProfile::PipMColl, LibraryProfile::PipMpich] {
        for spec in [
            CollectiveSpec::Scatter(ScatterParams { cb: 16, root: 0 }),
            CollectiveSpec::Allgather(AllgatherParams { cb: 16 }),
            CollectiveSpec::Allreduce(AllreduceParams::sum_doubles(4)),
        ] {
            verify_collective(lib, 11, 1, &spec)
                .unwrap_or_else(|e| panic!("{} {spec:?}: {e}", lib.name()));
        }
    }
}
