//! Hot-path latency sweep: round-trip ping-pong over the real TCP
//! loopback fabric, k concurrent pairs × message size, recording every
//! round trip in a latency histogram — the per-message cost view that
//! complements `fabric_sweep`'s throughput view.
//!
//! Also reports the frame-pool hit rate after each point, so regressions
//! in the zero-allocation eager path show up as a falling hit ratio long
//! before they show up in throughput.
//!
//! Merges the `hotpath` section of `BENCH_fabric.json` at the repo root,
//! kept as `results/BENCH_fragment_hotpath.json`, with the run's CPU
//! count and source commit. Scale knob:
//! `PIPMCOLL_HOTPATH_MSGS` (round trips per pair, default 2000).

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pipmcoll_bench::write_bench_fabric_section;
use pipmcoll_fabric::{Fabric, LatencyHist, LatencySnapshot, TcpConfig, TcpFabric};
use pipmcoll_model::Topology;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a positive integer, got {v:?}")),
    }
}

/// One measured point: `k` pinger threads on node 0 each run `n` round
/// trips against an echo partner on node 1, every RTT recorded.
struct Point {
    lat: LatencySnapshot,
    mmsg_per_s: f64,
    pool_hit_pct: f64,
}

fn run_point(k: usize, size: usize, n: usize) -> Point {
    let topo = Topology::new(2, k);
    let fabric = Arc::new(
        TcpFabric::connect(
            topo,
            TcpConfig {
                lanes: k,
                ..TcpConfig::default()
            },
        )
        .expect("loopback fabric"),
    );
    let hist = LatencyHist::new();
    let start = Barrier::new(2 * k + 1);
    let done = Barrier::new(k + 1);
    let payload = vec![0x5au8; size];
    let mut elapsed = 0.0;
    std::thread::scope(|s| {
        let start = &start;
        let done = &done;
        let hist = &hist;
        let payload = &payload;
        for p in 0..k {
            let fab = Arc::clone(&fabric);
            s.spawn(move || {
                start.wait();
                for _ in 0..n {
                    let t0 = Instant::now();
                    fab.send((p, k + p, 0), payload.clone()).expect("ping");
                    let echo = fab.recv((k + p, p, 1)).expect("pong");
                    hist.record(t0.elapsed());
                    assert_eq!(echo.len(), size);
                }
                done.wait();
            });
            let fab = Arc::clone(&fabric);
            s.spawn(move || {
                start.wait();
                for _ in 0..n {
                    let m = fab.recv((p, k + p, 0)).expect("echo recv");
                    fab.send((k + p, p, 1), m).expect("echo send");
                }
            });
        }
        start.wait();
        let t0 = Instant::now();
        done.wait(); // every pinger has its last echo back
        elapsed = t0.elapsed().as_secs_f64();
    });
    let ps = fabric.pool_stats();
    let served = ps.hits + ps.misses;
    Point {
        lat: hist.snapshot(),
        // 2 messages per round trip per pair.
        mmsg_per_s: (2 * k * n) as f64 / elapsed.max(1e-9) / 1e6,
        pool_hit_pct: if served == 0 {
            0.0
        } else {
            100.0 * ps.hits as f64 / served as f64
        },
    }
}

fn main() {
    let n = env_usize("PIPMCOLL_HOTPATH_MSGS", 2000);
    let lanes_grid = [1usize, 2, 4, 8];
    let sizes: [(usize, &str); 3] = [(64, "64B"), (1024, "1KiB"), (16 * 1024, "16KiB")];

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"id\": \"hotpath_sweep\",");
    let _ = writeln!(out, "  \"backend\": \"tcp-loopback\",");
    let _ = writeln!(out, "  \"round_trips_per_pair\": {n},");
    let _ = writeln!(out, "  \"trials\": 1,");
    let _ = writeln!(
        out,
        "  \"lanes\": [{}],",
        lanes_grid
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"series\": [");
    println!("# hotpath_sweep — ping-pong RTT percentiles (µs) and pool hit rate");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>12} {:>10}",
        "size", "k", "p50_us", "p99_us", "Mmsg/s", "pool_hit%"
    );
    for (si, &(size, label)) in sizes.iter().enumerate() {
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut rate = Vec::new();
        let mut hit = Vec::new();
        for &k in &lanes_grid {
            let pt = run_point(k, size, n);
            // "No samples" renders as `null`/`-`, never a fake 0.
            let show = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |u| u.to_string());
            let json = |p: Option<u64>| p.map_or_else(|| "null".to_string(), |u| u.to_string());
            println!(
                "{:>8} {:>6} {:>10} {:>10} {:>12.3} {:>10.1}",
                label,
                k,
                show(pt.lat.p50_us),
                show(pt.lat.p99_us),
                pt.mmsg_per_s,
                pt.pool_hit_pct
            );
            p50.push(json(pt.lat.p50_us));
            p99.push(json(pt.lat.p99_us));
            rate.push(format!("{:.3}", pt.mmsg_per_s));
            hit.push(format!("{:.1}", pt.pool_hit_pct));
        }
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"label\": \"{label}\",");
        let _ = writeln!(out, "      \"rtt_p50_us\": [{}],", p50.join(", "));
        let _ = writeln!(out, "      \"rtt_p99_us\": [{}],", p99.join(", "));
        let _ = writeln!(out, "      \"mmsg_per_s\": [{}],", rate.join(", "));
        let _ = writeln!(out, "      \"pool_hit_pct\": [{}]", hit.join(", "));
        let _ = writeln!(out, "    }}{}", if si + 1 < sizes.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push('}');

    write_bench_fabric_section("hotpath", &out);
}
