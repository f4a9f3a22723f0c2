//! The service runs only recorded, checked, cached schedules: each
//! shape it admits is recorded and happens-before-checked once, and
//! every later collective of that shape reuses the cached plan.
//!
//! Alone in its own test binary, so no other test plans a shape in
//! this process and the plan cache's counters are exact.

use std::sync::Arc;

use pipmcoll_core::nb::plan_cache_stats;
use pipmcoll_fabric::InProcFabric;
use pipmcoll_model::{Datatype, ReduceOp};
use pipmcoll_svc::{Request, Svc, SvcConfig};

#[test]
fn every_admitted_shape_is_hb_checked_exactly_once() {
    let world = 5;
    let svc = Svc::new(Arc::new(InProcFabric::new()), SvcConfig::new(world)).unwrap();
    let jobs = [svc.job().unwrap(), svc.job().unwrap()];
    const ROUNDS: usize = 6;
    let mut reqs: Vec<Request> = Vec::new();
    for round in 0..ROUNDS {
        for job in &jobs {
            // Five shapes, each submitted by both jobs in every round.
            let b = round as u8;
            reqs.push(job.iallreduce(Datatype::Int32, ReduceOp::Sum, vec![vec![b; 8]; world]));
            reqs.push(job.iallreduce(Datatype::Int32, ReduceOp::Max, vec![vec![b; 8]; world]));
            reqs.push(job.iallgather(vec![vec![b; 3]; world]));
            reqs.push(job.iscatter(1, vec![vec![b; 2]; world]));
            reqs.push(job.ibcast(4, vec![b; 5]));
        }
    }
    let admissions = reqs.len() as u64;
    for res in Request::wait_all(reqs) {
        res.expect("collective completes");
    }
    let s = plan_cache_stats();
    assert_eq!(s.recorded, 5, "one recording per shape: {s:?}");
    assert_eq!(
        s.hb_checked, s.recorded,
        "each recording checked once: {s:?}"
    );
    assert_eq!(s.hits, admissions - 5, "every other admission hit: {s:?}");
    assert_eq!(s.evicted, 0);
}
