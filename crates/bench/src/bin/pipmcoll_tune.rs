//! Self-tuning sweep: measure both PiP-MColl algorithm families for
//! allreduce and allgather on the real TCP loopback fabric (k = 4
//! lanes, the fabric's default) across a size grid, and emit the
//! measured crossover points as `results/tune_table.json` — a
//! [`SelectionTable`] the runtime loads via `PIPMCOLL_TUNE_TABLE` to
//! override the paper's static switch constants.
//!
//! Methodology (MPI Advance-style measured selection): for every size
//! on the grid, run the *small* and the *large* algorithm explicitly —
//! the dispatch switch is bypassed, each family is forced —
//! best-of-`TRIALS` with `ITERS` collective iterations per timed run.
//! A size's winner is the family with the lower best time; the table
//! rows are exactly the measured grid, so the runtime's
//! nearest-size lookup never extrapolates beyond a measurement.
//!
//! Knobs: `PIPMCOLL_TUNE_ITERS` (default 5), `PIPMCOLL_TUNE_TRIALS`
//! (default 3). With `PIPMCOLL_TUNE_GATE=1` the bin additionally
//! asserts, on the measured data, that the tuned pick is never slower
//! than the static-constant pick at the allreduce gate counts
//! {2048, 4096, 8192, 16384} and exits non-zero on a violation.
//!
//! Also merges the full measurement body into `BENCH_fabric.json` as
//! the `"tune"` section, kept as `results/BENCH_fragment_tune.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pipmcoll_bench::{atomic_write, results_dir, write_bench_fabric_section};
use pipmcoll_core::mcoll::{
    allgather_mcoll_large, allgather_mcoll_small, allreduce_mcoll_large, allreduce_mcoll_small,
};
use pipmcoll_core::tuning::{self, Algo, SelectionTable};
use pipmcoll_core::{AllgatherParams, AllreduceParams};
use pipmcoll_fabric::{Fabric, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;
use pipmcoll_rt::run_cluster_on;
use pipmcoll_sched::verify::pattern;
use pipmcoll_sched::BufSizes;

/// Tuning topology: 2 nodes so every collective crosses the fabric,
/// small enough for the 1-CPU CI container.
const NODES: usize = 2;
const PPN: usize = 2;
/// Lanes per node pair, the fabric's default.
const LANES: usize = 4;

/// Allreduce sizes (element counts) bracketing the paper's 8 k switch.
const ALLREDUCE_COUNTS: [usize; 6] = [512, 2048, 4096, 8192, 16384, 32768];
/// Allgather sizes (bytes per rank) bracketing the 64 KiB switch.
const ALLGATHER_BYTES: [usize; 5] = [4096, 16384, 65536, 131072, 262144];
/// Gate counts: the tuned pick must not lose to the static pick here.
const GATE_COUNTS: [usize; 4] = [2048, 4096, 8192, 16384];

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a positive integer, got {v:?}")),
    }
}

/// Which collective + forced family one measurement runs.
#[derive(Clone, Copy)]
enum Forced {
    AllreduceSmall(AllreduceParams),
    AllreduceLarge(AllreduceParams),
    AllgatherSmall(AllgatherParams),
    AllgatherLarge(AllgatherParams),
}

impl Forced {
    fn run(&self, c: &mut pipmcoll_rt::RtComm) {
        match self {
            Forced::AllreduceSmall(p) => allreduce_mcoll_small(c, p),
            Forced::AllreduceLarge(p) => allreduce_mcoll_large(c, p),
            Forced::AllgatherSmall(p) => allgather_mcoll_small(c, p),
            Forced::AllgatherLarge(p) => allgather_mcoll_large(c, p),
        }
    }

    fn sizes(&self, topo: Topology) -> Vec<BufSizes> {
        match self {
            Forced::AllreduceSmall(p) | Forced::AllreduceLarge(p) => {
                let f = p.buf_sizes();
                (0..topo.world_size()).map(f).collect()
            }
            Forced::AllgatherSmall(p) | Forced::AllgatherLarge(p) => {
                let f = p.buf_sizes(topo);
                (0..topo.world_size()).map(f).collect()
            }
        }
    }
}

/// Best-of-`trials` time for one collective family at one size, in
/// microseconds per collective iteration. Fabric setup and rank-thread
/// spawn are identical across families, so they cancel in comparisons.
fn measure_us(forced: Forced, iters: usize, trials: usize) -> f64 {
    let topo = Topology::new(NODES, PPN);
    let sizes = forced.sizes(topo);
    let sizes = &sizes;
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let fabric = Arc::new(
            TcpFabric::connect(
                topo,
                TcpConfig {
                    lanes: LANES,
                    ..TcpConfig::default()
                },
            )
            .expect("loopback fabric"),
        );
        let t0 = Instant::now();
        let res = run_cluster_on(
            Arc::clone(&fabric) as Arc<dyn Fabric>,
            topo,
            |r| sizes[r],
            |r| pattern(r, sizes[r].send),
            iters,
            |c| forced.run(c),
        );
        let t = t0.elapsed().as_secs_f64();
        assert!(
            res.failures.is_empty(),
            "tune run failed: {:?}",
            res.failures
        );
        best = best.min(t);
    }
    best * 1e6 / iters as f64
}

/// All measurements for one collective: per size, both families.
struct CollRows {
    /// `"allreduce"` / `"allgather"`.
    name: &'static str,
    /// `"count"` / `"bytes"`.
    unit: &'static str,
    rows: Vec<SizeRow>,
}

struct SizeRow {
    size: usize,
    small_us: f64,
    large_us: f64,
}

impl SizeRow {
    fn winner(&self) -> Algo {
        if self.large_us < self.small_us {
            Algo::Large
        } else {
            Algo::Small
        }
    }
}

fn sweep_collective(
    name: &'static str,
    unit: &'static str,
    sizes: &[usize],
    iters: usize,
    trials: usize,
    forced_of: impl Fn(usize, bool) -> Forced,
) -> CollRows {
    let mut rows = Vec::new();
    for &size in sizes {
        let small_us = measure_us(forced_of(size, false), iters, trials);
        let large_us = measure_us(forced_of(size, true), iters, trials);
        eprintln!("  {name} {size} {unit}: small {small_us:.1}us large {large_us:.1}us");
        rows.push(SizeRow {
            size,
            small_us,
            large_us,
        });
    }
    CollRows { name, unit, rows }
}

/// The static-constant pick for a size, mirroring the blocking
/// dispatch's fallback path.
fn static_pick(name: &str, size: usize) -> Algo {
    let large = match name {
        "allreduce" => tuning::mcoll_allreduce_uses_large(size),
        _ => tuning::mcoll_allgather_uses_large(size),
    };
    if large {
        Algo::Large
    } else {
        Algo::Small
    }
}

fn main() {
    let iters = env_usize("PIPMCOLL_TUNE_ITERS", 5);
    let trials = env_usize("PIPMCOLL_TUNE_TRIALS", 3);
    eprintln!("tuning on {NODES}x{PPN} loopback TCP, k={LANES}, {iters} iters, best of {trials}");

    let allreduce = sweep_collective(
        "allreduce",
        "count",
        &ALLREDUCE_COUNTS,
        iters,
        trials,
        |count, large| {
            let p = AllreduceParams::sum_doubles(count);
            if large {
                Forced::AllreduceLarge(p)
            } else {
                Forced::AllreduceSmall(p)
            }
        },
    );
    let allgather = sweep_collective(
        "allgather",
        "bytes",
        &ALLGATHER_BYTES,
        iters,
        trials,
        |cb, large| {
            let p = AllgatherParams { cb };
            if large {
                Forced::AllgatherLarge(p)
            } else {
                Forced::AllgatherSmall(p)
            }
        },
    );

    // Assemble and persist the selection table.
    let table = SelectionTable::new(
        allreduce
            .rows
            .iter()
            .map(|r| (r.size as u64, r.winner()))
            .collect(),
        allgather
            .rows
            .iter()
            .map(|r| (r.size as u64, r.winner()))
            .collect(),
    );
    let dir = results_dir();
    let table_path = dir.join("tune_table.json");
    atomic_write(&table_path, &table.to_json());
    println!("selection table -> {}", table_path.display());

    for coll in [&allreduce, &allgather] {
        println!("\n{} ({}):", coll.name, coll.unit);
        for row in &coll.rows {
            println!(
                "  {:>8} {:>6}  small {:>10.1}us  large {:>10.1}us  -> {}  (static: {})",
                row.size,
                coll.unit,
                row.small_us,
                row.large_us,
                row.winner().name(),
                static_pick(coll.name, row.size).name(),
            );
        }
    }

    let body = tune_json(iters, trials, &[&allreduce, &allgather]);
    write_bench_fabric_section("tune", &body);

    // Gate: on the measured grid the tuned pick (argmin of the two
    // measured families) can never be slower than the static pick —
    // verify it anyway, per size, so a table-assembly regression that
    // inverts a pick fails loudly in CI.
    if std::env::var("PIPMCOLL_TUNE_GATE").as_deref() == Ok("1") {
        let mut bad = 0;
        for &count in &GATE_COUNTS {
            let Some(row) = allreduce.rows.iter().find(|r| r.size == count) else {
                continue;
            };
            let (s, l) = (row.small_us, row.large_us);
            let tuned = match table
                .allreduce_uses_large(count)
                .expect("gate count is on the measured grid")
            {
                true => l,
                false => s,
            };
            let fixed = match static_pick("allreduce", count) {
                Algo::Large => l,
                Algo::Small => s,
            };
            let ratio = fixed / tuned;
            println!(
                "gate allreduce {count}: tuned {tuned:.1}us static {fixed:.1}us ({ratio:.2}x)"
            );
            if tuned > fixed {
                eprintln!("GATE VIOLATION: tuned pick slower than static at count {count}");
                bad += 1;
            }
        }
        if bad > 0 {
            std::process::exit(1);
        }
        println!("tune gate passed: tuned >= 1.0x static at all gate counts");
    }
}

/// Hand-rolled JSON body for the `"tune"` BENCH_fabric section.
fn tune_json(iters: usize, trials: usize, colls: &[&CollRows]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"id\": \"pipmcoll_tune\",");
    let _ = writeln!(out, "  \"backend\": \"tcp-loopback\",");
    let _ = writeln!(out, "  \"nodes\": {NODES},");
    let _ = writeln!(out, "  \"ppn\": {PPN},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"lanes\": {LANES},");
    let _ = writeln!(out, "  \"collectives\": [");
    for (i, coll) in colls.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", coll.name);
        let _ = writeln!(out, "      \"unit\": \"{}\",", coll.unit);
        let _ = writeln!(out, "      \"rows\": [");
        for (j, row) in coll.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"size\": {}, \"small_us\": {:.1}, \"large_us\": {:.1}, \"algo\": \"{}\"}}{}",
                row.size,
                row.small_us,
                row.large_us,
                row.winner().name(),
                if j + 1 < coll.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{}", if i + 1 < colls.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}
