//! Shared helpers for the cross-crate integration tests.

use pipmcoll_core::{build_schedule, CollectiveSpec, LibraryProfile};
use pipmcoll_model::Topology;
use pipmcoll_sched::verify;
use pipmcoll_sched::Schedule;

/// Record `lib`'s schedule for `spec`, prove it race- and deadlock-free,
/// execute it once and check the result against MPI semantics.
pub fn verify_collective(
    lib: LibraryProfile,
    nodes: usize,
    ppn: usize,
    spec: &CollectiveSpec,
) -> Result<(), String> {
    let topo = Topology::new(nodes, ppn);
    let sched = build_schedule(lib, topo, spec);
    verify_schedule(&sched, spec)
}

/// Verify an already-recorded schedule against `spec`'s semantics (through
/// [`verify::run`]: validation, `hb::check`, then one dataflow execution).
pub fn verify_schedule(sched: &Schedule, spec: &CollectiveSpec) -> Result<(), String> {
    match spec {
        CollectiveSpec::Scatter(p) => verify::check_scatter(sched, p.root, p.cb),
        CollectiveSpec::Allgather(p) => verify::check_allgather(sched, p.cb),
        CollectiveSpec::Allreduce(p) => {
            assert_eq!(
                (p.dt, p.op),
                (
                    pipmcoll_model::Datatype::Double,
                    pipmcoll_model::ReduceOp::Sum
                ),
                "the generic checker covers SUM over doubles"
            );
            verify::check_allreduce_sum(sched, p.count)
        }
    }
}

/// Prove a schedule and run it through the dataflow interpreter with the
/// standard pattern inputs, returning final recv buffers (for rt
/// cross-validation).
pub fn dataflow_recv(sched: &Schedule) -> Vec<Vec<u8>> {
    verify::run(sched, |r| {
        verify::pattern(r, sched.programs()[r].sizes.send)
    })
    .expect("dataflow execution")
    .recv
}

/// Deterministic xorshift64* generator for randomized tests. The
/// implementation moved to `pipmcoll_fabric::ChaosRng` so the chaos
/// fabric and the test suite draw from one seeded source; the old name
/// stays for the property tests (same algorithm, same sequences).
pub use pipmcoll_fabric::ChaosRng as TestRng;
