//! Collective storm: hundreds of concurrent small allreduces across
//! tens of jobs over one shared TCP-loopback fabric, versus the same
//! load serialized one collective at a time (`max_inflight = 1`).
//!
//! This is the service crate's thesis measurement: with real delivery
//! latency underneath, a single scheduler thread interleaving phases of
//! many in-flight collectives overlaps their wire time, so the
//! submission-to-completion p99 collapses relative to running the same
//! queue one at a time. The bench also checks the DRR fairness
//! invariant: with every job submitting the same load, no job's p99 may
//! exceed 3× the median job's p99.
//!
//! Every collective is an allreduce of [`ELEMS`] i32 per rank over a
//! [`WORLD`]-rank world (2 nodes). Knobs: `PIPMCOLL_SVC_JOBS` (default
//! 16), `PIPMCOLL_STORM_COLLS` (collectives per job, default 16). With `PIPMCOLL_STORM_GATE=1` the process exits nonzero unless
//! concurrent p99 ≤ serialized p99 and the fairness bound holds (zero
//! failed requests and a drained service — no queued work, no held
//! slot, every slot free or quarantined — are enforced
//! unconditionally).
//!
//! Each mode also reports the engine's node-local steps run in place
//! (`SvcStats::in_place`) and the payload frames it wrote or read on
//! the wire itself (`FabricStats::driver_frames`).
//!
//! Writes `results/storm.json` and `BENCH_svc.json` at the repo root
//! (override with `PIPMCOLL_BENCH_ROOT`), both atomically.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pipmcoll_bench::{atomic_write, results_dir};
use pipmcoll_fabric::{Fabric, TcpConfig, TcpFabric};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_svc::{Request, Svc, SvcConfig};

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a positive integer, got {v:?}")),
    }
}

/// Ranks per job's world, split evenly over 2 nodes.
const WORLD: usize = 8;
/// i32 elements per rank in each allreduce.
const ELEMS: usize = 16;

struct StormLoad {
    jobs: usize,
    colls_per_job: usize,
}

struct JobOutcome {
    completed: u64,
    failed: u64,
    deferred: u64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    /// Collectives still queued after every request resolved.
    queue_depth: usize,
    /// Sequence slots still held after every request resolved.
    slots_held: usize,
    /// Free plus quarantined slots: the whole space once drained.
    slots_idle: usize,
}

struct RunResult {
    /// Sequence slots per job (`2^seq_bits`).
    slot_cap: usize,
    wall_ms: f64,
    wrong_results: u64,
    jobs: Vec<JobOutcome>,
    /// Node-local steps the engine ran in place (`SvcStats::in_place`).
    in_place: u64,
    /// Payload frames the engine wrote or read on the wire itself
    /// (`FabricStats::driver_frames`).
    driver_frames: u64,
}

impl RunResult {
    fn failed(&self) -> u64 {
        self.jobs.iter().map(|j| j.failed).sum::<u64>() + self.wrong_results
    }

    /// Assert the drained service's books: no job queues work or holds
    /// a slot, and every job's slots are all free or quarantined.
    fn assert_drained(&self, mode: &str) {
        for (i, j) in self.jobs.iter().enumerate() {
            assert_eq!(j.queue_depth, 0, "{mode} storm: job {i} still queues work");
            assert_eq!(j.slots_held, 0, "{mode} storm: job {i} leaked seq slots");
            assert_eq!(
                j.slots_idle, self.slot_cap,
                "{mode} storm: job {i} slot conservation"
            );
        }
    }

    /// Aggregate p99: the worst job's p99 (client-observed tail).
    fn p99_us(&self) -> u64 {
        self.jobs.iter().filter_map(|j| j.p99_us).max().unwrap_or(0)
    }

    /// Median of the per-job p50s.
    fn p50_us(&self) -> u64 {
        let mut v: Vec<u64> = self.jobs.iter().filter_map(|j| j.p50_us).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    }

    /// Median of the per-job p99s (the fairness reference point).
    fn median_job_p99_us(&self) -> u64 {
        let mut v: Vec<u64> = self.jobs.iter().filter_map(|j| j.p99_us).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    }
}

/// Run the whole storm once: every job submits its full queue up front,
/// then everything is waited on. `max_inflight = None` is the
/// concurrent service, `Some(1)` the serialized baseline.
fn run_storm(load: &StormLoad, max_inflight: Option<usize>) -> RunResult {
    // Two "nodes" over loopback so half the rank pairs cross real TCP.
    let topo = Topology::new(2, WORLD / 2);
    let fabric = Arc::new(TcpFabric::connect(topo, TcpConfig::default()).expect("loopback fabric"));
    let cfg = SvcConfig {
        max_inflight,
        ..SvcConfig::new(WORLD)
    };
    let slot_cap = 1 << cfg.seq_bits;
    let svc = Svc::new(Arc::clone(&fabric) as Arc<dyn Fabric>, cfg).expect("service starts");
    let jobs: Vec<_> = (0..load.jobs).map(|_| svc.job().expect("job")).collect();

    let t0 = Instant::now();
    let mut launched: Vec<(Request, i64)> = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        for k in 0..load.colls_per_job {
            // Rank r contributes seed + r per element; the reduced value
            // is the same for every element and every rank.
            let seed = (ji * 1000 + k) as i32;
            let inputs: Vec<Vec<u8>> = (0..WORLD)
                .map(|r| {
                    std::iter::repeat_n(seed + r as i32, ELEMS)
                        .flat_map(|v| v.to_le_bytes())
                        .collect()
                })
                .collect();
            let want: i64 = (0..WORLD as i64).map(|r| seed as i64 + r).sum();
            launched.push((job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs), want));
        }
    }
    let mut wrong = 0u64;
    for (req, want) in launched {
        match req.wait() {
            Err(_) => {} // counted via the per-job failed counter
            Ok(out) => {
                for rank_out in &out {
                    let ok = rank_out
                        .chunks_exact(4)
                        .all(|c| i64::from(i32::from_le_bytes(c.try_into().unwrap())) == want);
                    if !ok || rank_out.len() != ELEMS * 4 {
                        wrong += 1;
                    }
                }
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stats = svc.stats();
    RunResult {
        slot_cap,
        wall_ms,
        wrong_results: wrong,
        in_place: stats.in_place,
        driver_frames: fabric.stats().driver_frames,
        jobs: stats
            .jobs
            .iter()
            .map(|j| JobOutcome {
                completed: j.completed,
                failed: j.failed,
                deferred: j.deferred,
                p50_us: j.latency.p50_us,
                p99_us: j.latency.p99_us,
                queue_depth: j.queue_depth,
                slots_held: j.slots_held,
                slots_idle: j.slots_free + j.slots_quarantined,
            })
            .collect(),
    }
}

fn mode_json(name: &str, r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  \"{name}\": {{");
    let _ = writeln!(out, "    \"wall_ms\": {:.3},", r.wall_ms);
    let _ = writeln!(out, "    \"p50_us\": {},", r.p50_us());
    let _ = writeln!(out, "    \"p99_us\": {},", r.p99_us());
    let _ = writeln!(out, "    \"median_job_p99_us\": {},", r.median_job_p99_us());
    let _ = writeln!(out, "    \"failed\": {},", r.failed());
    let _ = writeln!(
        out,
        "    \"deferred\": {},",
        r.jobs.iter().map(|j| j.deferred).sum::<u64>()
    );
    let _ = writeln!(out, "    \"in_place\": {},", r.in_place);
    let _ = writeln!(out, "    \"driver_frames\": {},", r.driver_frames);
    let p99s: Vec<String> = r
        .jobs
        .iter()
        .map(|j| {
            j.p99_us
                .map_or_else(|| "null".to_string(), |u| u.to_string())
        })
        .collect();
    let _ = writeln!(out, "    \"job_p99_us\": [{}]", p99s.join(", "));
    out.push_str("  }");
    out
}

fn main() {
    let load = StormLoad {
        jobs: env_usize("PIPMCOLL_SVC_JOBS", 16),
        colls_per_job: env_usize("PIPMCOLL_STORM_COLLS", 16),
    };
    let total = load.jobs * load.colls_per_job;
    println!(
        "# storm — {} jobs × {} iallreduce(world={}, {} i32/rank) = {} collectives",
        load.jobs, load.colls_per_job, WORLD, ELEMS, total
    );

    eprintln!("  running concurrent ...");
    let conc = run_storm(&load, None);
    eprintln!("  running serialized (max_inflight=1) ...");
    let ser = run_storm(&load, Some(1));

    println!(
        "{:>14} {:>10} {:>10} {:>12} {:>8} {:>10} {:>14}",
        "mode", "p50_us", "p99_us", "wall_ms", "failed", "in_place", "driver_frames"
    );
    for (name, r) in [("concurrent", &conc), ("serialized", &ser)] {
        println!(
            "{:>14} {:>10} {:>10} {:>12.1} {:>8} {:>10} {:>14}",
            name,
            r.p50_us(),
            r.p99_us(),
            r.wall_ms,
            r.failed(),
            r.in_place,
            r.driver_frames
        );
    }
    let fairness_ok = conc
        .jobs
        .iter()
        .filter_map(|j| j.p99_us)
        .all(|p| p <= conc.median_job_p99_us().saturating_mul(3));
    println!(
        "p99 speedup serialized/concurrent: {:.2}x; fairness (max job p99 <= 3x median): {}",
        ser.p99_us() as f64 / conc.p99_us().max(1) as f64,
        if fairness_ok { "ok" } else { "VIOLATED" }
    );

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"id\": \"storm\",");
    let _ = writeln!(out, "  \"backend\": \"tcp-loopback\",");
    let _ = writeln!(out, "  \"jobs\": {},", load.jobs);
    let _ = writeln!(out, "  \"colls_per_job\": {},", load.colls_per_job);
    let _ = writeln!(out, "  \"world\": {},", WORLD);
    let _ = writeln!(out, "  \"elems_per_rank\": {},", ELEMS);
    out.push_str(&mode_json("concurrent", &conc));
    out.push_str(",\n");
    out.push_str(&mode_json("serialized", &ser));
    out.push_str("\n}\n");
    atomic_write(&results_dir().join("storm.json"), &out);
    let root = std::env::var("PIPMCOLL_BENCH_ROOT").unwrap_or_else(|_| ".".to_string());
    atomic_write(&PathBuf::from(root).join("BENCH_svc.json"), &out);

    // Correctness is unconditional: a storm with failed or wrong
    // results is a broken service, whatever the latency numbers say.
    assert_eq!(conc.failed(), 0, "concurrent storm had failed requests");
    assert_eq!(ser.failed(), 0, "serialized storm had failed requests");
    conc.assert_drained("concurrent");
    ser.assert_drained("serialized");
    assert_eq!(
        conc.jobs.iter().map(|j| j.completed).sum::<u64>(),
        total as u64
    );

    if std::env::var("PIPMCOLL_STORM_GATE").as_deref() == Ok("1") {
        assert!(
            conc.p99_us() <= ser.p99_us(),
            "gate: concurrent p99 {}us worse than serialized {}us",
            conc.p99_us(),
            ser.p99_us()
        );
        assert!(fairness_ok, "gate: DRR fairness bound violated");
        println!("gates passed");
    }
}
