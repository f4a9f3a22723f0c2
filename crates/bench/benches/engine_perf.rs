//! Meta-benchmarks of the reproduction's own machinery: schedule recording
//! speed, dataflow interpretation speed, and discrete-event simulation
//! throughput. These guard the harness's ability to reach the paper's
//! 128×18 scale in reasonable time.

use pipmcoll_bench::microbench::{black_box, Group, Throughput};
use pipmcoll_core::{build_schedule, AllgatherParams, CollectiveSpec, LibraryProfile};
use pipmcoll_engine::{simulate, EngineConfig};
use pipmcoll_model::{presets, Topology};
use pipmcoll_sched::dataflow::execute;
use pipmcoll_sched::verify::pattern;

fn bench_recording() {
    let mut g = Group::new("schedule_recording");
    for (nodes, ppn) in [(8usize, 4usize), (32, 18)] {
        let topo = Topology::new(nodes, ppn);
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 64 });
        g.bench(&format!("mcoll_allgather/{nodes}x{ppn}"), || {
            black_box(build_schedule(LibraryProfile::PipMColl, topo, &spec));
        });
    }
}

fn bench_simulation() {
    let mut g = Group::new("des_simulation");
    for (nodes, ppn) in [(8usize, 4usize), (32, 18)] {
        let machine = presets::bebop(nodes, ppn);
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 64 });
        let sched = build_schedule(LibraryProfile::PipMColl, machine.topo, &spec);
        let cfg = EngineConfig::pip_mcoll(machine);
        g.throughput(Throughput::Elements(sched.total_ops() as u64));
        g.bench(&format!("mcoll_allgather/{nodes}x{ppn}"), || {
            black_box(simulate(&cfg, &sched).expect("simulate"));
        });
    }
}

fn bench_dataflow() {
    let mut g = Group::new("dataflow_interpreter");
    for (nodes, ppn) in [(4usize, 4usize), (8, 4)] {
        let topo = Topology::new(nodes, ppn);
        let spec = CollectiveSpec::Allgather(AllgatherParams { cb: 64 });
        let sched = build_schedule(LibraryProfile::PipMColl, topo, &spec);
        g.throughput(Throughput::Elements(sched.total_ops() as u64));
        g.bench(&format!("mcoll_allgather/{nodes}x{ppn}"), || {
            black_box(execute(&sched, |r| pattern(r, 64)).expect("interpret"));
        });
    }
}

fn main() {
    bench_recording();
    bench_simulation();
    bench_dataflow();
}
