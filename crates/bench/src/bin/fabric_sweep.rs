//! Fabric lane sweep: drive the real TCP loopback transport with 8
//! concurrent sender/receiver pairs while sweeping the number of lanes
//! k ∈ {1..8} × message size — the socket-backed analogue of the
//! paper's Fig. 1 (message rate / throughput vs. concurrent objects).
//!
//! Every point runs the fabric's lane mapping: each message, whatever
//! its size, rides its sender's lane (`local rank % k`) whole, so the
//! 8 pairs spread over min(8, k) lanes. The 64B series probes the
//! message-rate floor and the 128KiB series the bandwidth.
//!
//! Writes `results/fabric_sweep.csv` (throughput table) and merges the
//! full series (incl. message rates and ack-RTT percentiles) into the
//! `sweep` section of `BENCH_fabric.json` at the repo root, kept as
//! `results/BENCH_fragment_sweep.json`, with the run's CPU count and
//! source commit. Scale knobs:
//! `PIPMCOLL_FABRIC_MSGS` (max messages per pair, default 20000),
//! `PIPMCOLL_FABRIC_TRIALS` (best-of trials per point, default 3).

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pipmcoll_bench::{results_dir, write_bench_fabric_section, Figure, Series};
use pipmcoll_fabric::{Fabric, LatencySnapshot, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;

const PAIRS: usize = 8;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a positive integer, got {v:?}")),
    }
}

/// One timed trial: `PAIRS` senders on node 0 each blast `n_msgs`
/// messages of `size` bytes to their partner on node 1. Returns elapsed
/// seconds from the start barrier until the last receiver has its last
/// message — fabric setup and thread spawn are outside the window.
fn trial(lanes: usize, size: usize, n_msgs: usize) -> (f64, LatencySnapshot) {
    let topo = Topology::new(2, PAIRS);
    let fabric = Arc::new(
        TcpFabric::connect(
            topo,
            TcpConfig {
                lanes,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric"),
    );
    let start = Barrier::new(2 * PAIRS + 1);
    let done = Barrier::new(PAIRS + 1);
    let payload = vec![0xa5u8; size];
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let start = &start;
        let done = &done;
        let payload = &payload;
        for p in 0..PAIRS {
            let fab = Arc::clone(&fabric);
            s.spawn(move || {
                start.wait();
                for _ in 0..n_msgs {
                    fab.send((p, PAIRS + p, 0), payload.clone())
                        .expect("bench send");
                }
            });
            let fab = Arc::clone(&fabric);
            s.spawn(move || {
                start.wait();
                for _ in 0..n_msgs {
                    let m = fab.recv((p, PAIRS + p, 0)).expect("bench recv");
                    assert_eq!(m.len(), size);
                }
                done.wait();
            });
        }
        start.wait();
        let t0 = Instant::now();
        done.wait(); // every receiver has drained its pair's stream
        elapsed = t0.elapsed().as_secs_f64();
    });
    (elapsed, fabric.stats().ack_rtt)
}

/// Best-of-`trials` measurement, returning (Mmsg/s, MB/s) plus the
/// ack-RTT percentile snapshot of the fastest trial.
fn measure(lanes: usize, size: usize, n_msgs: usize, trials: usize) -> (f64, f64, LatencySnapshot) {
    let mut best = f64::INFINITY;
    let mut lat = LatencySnapshot::default();
    for _ in 0..trials {
        let (t, l) = trial(lanes, size, n_msgs);
        if t < best {
            best = t;
            lat = l;
        }
    }
    let msgs = (PAIRS * n_msgs) as f64;
    let bytes = msgs * size as f64;
    (msgs / best / 1e6, bytes / best / 1e6, lat)
}

fn main() {
    let max_msgs = env_usize("PIPMCOLL_FABRIC_MSGS", 20_000);
    let trials = env_usize("PIPMCOLL_FABRIC_TRIALS", 3);
    let lanes_grid: Vec<usize> = (1..=8).collect();
    // Small sizes probe message rate (Fig. 1a), large ones bandwidth
    // (Fig. 1b). Message counts shrink with size to bound the byte
    // volume per point.
    let sizes: [(usize, &str); 4] = [
        (64, "64B"),
        (1024, "1KiB"),
        (16 * 1024, "16KiB"),
        (128 * 1024, "128KiB"),
    ];
    let budget: usize = 32 << 20; // bytes per pair per trial, cap

    let mut series = Vec::new();
    let mut rates: Vec<SweepRow> = Vec::new();
    for &(size, label) in &sizes {
        let n_msgs = (budget / size).clamp(64, max_msgs);
        eprintln!("  sweeping {label} ({n_msgs} msgs/pair, best of {trials}) ...");
        let mut mbs = Vec::new();
        let mut mmsgs = Vec::new();
        let mut lats = Vec::new();
        for &k in &lanes_grid {
            let (mm, mb, lat) = measure(k, size, n_msgs, trials);
            mbs.push(mb);
            mmsgs.push(mm);
            lats.push(lat);
        }
        series.push(Series {
            label: format!("{label}_MBs"),
            points: lanes_grid
                .iter()
                .zip(&mbs)
                .map(|(&k, &y)| (k as f64, y))
                .collect(),
        });
        rates.push(SweepRow {
            label: label.to_string(),
            mbs,
            mmsgs,
            lats,
            n_msgs,
        });
    }

    let fig = Figure {
        id: "fabric_sweep".into(),
        title: "TCP fabric loopback sweep: throughput vs lanes (paper Fig. 1 analogue)".into(),
        x_name: "lanes".into(),
        y_name: "MB/s".into(),
        series,
    };
    println!("{}", fig.table());
    let dir = results_dir();
    let json = sweep_json(&lanes_grid, &rates, trials);
    std::fs::write(dir.join("fabric_sweep.csv"), fig.csv()).expect("write csv");
    write_bench_fabric_section("sweep", &json);
}

/// One message size's results across the lane grid.
struct SweepRow {
    label: String,
    mbs: Vec<f64>,
    mmsgs: Vec<f64>,
    lats: Vec<LatencySnapshot>,
    n_msgs: usize,
}

/// Hand-rolled JSON (the workspace carries no serialization dependency):
/// the full sweep, message rates and ack-RTT percentiles included, for
/// EXPERIMENTS.md tooling and the `BENCH_fabric.json` perf trajectory.
fn sweep_json(lanes: &[usize], rates: &[SweepRow], trials: usize) -> String {
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // "No samples" is `null`, observably different from a measured 0.
    let fmt_opt = |v: &[Option<u64>]| {
        v.iter()
            .map(|x| x.map_or_else(|| "null".to_string(), |u| u.to_string()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"id\": \"fabric_sweep\",");
    let _ = writeln!(out, "  \"backend\": \"tcp-loopback\",");
    let _ = writeln!(out, "  \"pairs\": {PAIRS},");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(
        out,
        "  \"lanes\": [{}],",
        lanes
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"series\": [");
    for (i, row) in rates.iter().enumerate() {
        let p50: Vec<Option<u64>> = row.lats.iter().map(|l| l.p50_us).collect();
        let p99: Vec<Option<u64>> = row.lats.iter().map(|l| l.p99_us).collect();
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"label\": \"{}\",", row.label);
        let _ = writeln!(out, "      \"msgs_per_pair\": {},", row.n_msgs);
        let _ = writeln!(out, "      \"mb_per_s\": [{}],", fmt(&row.mbs));
        let _ = writeln!(out, "      \"mmsg_per_s\": [{}],", fmt(&row.mmsgs));
        let _ = writeln!(out, "      \"ack_rtt_p50_us\": [{}],", fmt_opt(&p50));
        let _ = writeln!(out, "      \"ack_rtt_p99_us\": [{}]", fmt_opt(&p99));
        let _ = writeln!(out, "    }}{}", if i + 1 < rates.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out
}
