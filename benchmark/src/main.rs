//! End-to-end and per-layer benchmark of the PiP-MColl thread runtime
//! (`pipmcoll-rt`) and multi-tenant collective service (`pipmcoll-svc`)
//! over the loopback TCP fabric.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in its own process: 2 s of warm-up
//! and `--seconds` of measurement. Every result is checked against a
//! reference the benchmark computes itself. With `--trace 0` the run is
//! [`SEGMENTS`] segments, each on a freshly set-up transport, with
//! [`SETUPS`] timed set-ups between them, and it prints the end-to-end
//! metrics. With `--trace 1` it measures a quarter of `--seconds`
//! untraced, then the other three quarters with timing wrappers around
//! each layer's calls, prints the per-layer metrics and writes a Chrome
//! trace to `benchmark/out/`. Metrics print as `name value unit` lines;
//! the last line of standard output is one JSON object with every
//! metric. See `README.md` for why each workload and metric exists.

mod metrics;
mod micro;
mod procfs;
mod rt_work;
mod stats;
mod svc_work;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_core::AllreduceParams;
use pipmcoll_fabric::TcpConfig;
use pipmcoll_model::Topology;
use pipmcoll_svc::SvcConfig;

use metrics::{Def, Report, END_TO_END, PER_LAYER};
use micro::{NbCosts, SchedCosts};
use rt_work::RtShape;
use stats::{percentile, tail_quantile};
use timed::Recorder;

/// Measured segments per untraced run. Each runs on a transport (and
/// service) of its own, built by the last of the set-ups timed just
/// before it. Where the scheduler happens to place a fabric's progress
/// threads then varies between segments instead of between runs, and
/// set-up and collectives sample the same stretch of machine time: on a
/// shared host the speed of a CPU-bound loop drifts by ±10% over seconds
/// and by up to 30% over minutes.
pub const SEGMENTS: usize = 10;

/// Set-ups timed before each segment.
const SETUPS_PER_SEGMENT: usize = 3;

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = SEGMENTS * SETUPS_PER_SEGMENT;

/// The transport every workload runs on: loopback TCP with two lanes
/// (so connections never outnumber this host's two CPUs); every other
/// field at its default. `main` refuses to run with any `PIPMCOLL_*`
/// variable set, so the defaults cannot be changed from outside.
pub fn tcp_config() -> TcpConfig {
    TcpConfig {
        lanes: 2,
        ..TcpConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RtAllreduceSmall,
    RtAllreduceLarge,
    RtIntranodeLarge,
    SvcStorm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RtAllreduceSmall,
        Workload::RtAllreduceLarge,
        Workload::RtIntranodeLarge,
        Workload::SvcStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RtAllreduceSmall => "rt_allreduce_small",
            Workload::RtAllreduceLarge => "rt_allreduce_large",
            Workload::RtIntranodeLarge => "rt_intranode_large",
            Workload::SvcStorm => "svc_storm",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub warmup: Duration,
    pub seconds: Duration,
    pub trace: bool,
}

impl Opts {
    /// Time each single-layer kernel round repeats for.
    pub fn micro_budget(&self) -> Duration {
        (self.seconds / 400).clamp(Duration::from_millis(1), Duration::from_millis(25))
    }
}

/// What a workload hands back: its metrics, how many collectives it
/// attempted and how many failed or came back wrong, and (traced runs)
/// the recorder holding its spans.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub rec: Option<Arc<Recorder>>,
}

/// Tail latency of the traced window's samples (µs; a failed request
/// is +∞) and their count.
pub fn set_tail(r: &mut Report, lat: &mut [f64]) -> Result<(), String> {
    if lat.is_empty() {
        return Err("no collective completed in the traced window".into());
    }
    r.set("bench.samples", lat.len() as f64);
    r.set("bench.lat_p90_us", percentile(lat, 0.9));
    r.set("bench.lat_p99_us", percentile(lat, 0.99));
    r.set(
        "bench.lat_p999_us",
        percentile(lat, tail_quantile(lat.len())),
    );
    Ok(())
}

pub fn set_nb(r: &mut Report, nb: &NbCosts) {
    r.set("core.nb_plan_us", nb.plan_us);
    r.set("core.nb_step_ns_per_msg", nb.step_ns_per_msg);
    r.set("core.nb_msgs_per_coll", nb.msgs_per_coll);
}

/// Median record/validate/happens-before cost, in µs, of the PiP-MColl
/// allreduce `p` on `topo` over [`SETUPS`] recordings.
pub fn set_sched(r: &mut Report, topo: Topology, p: &AllreduceParams) -> Result<(), String> {
    let costs: Vec<SchedCosts> = (0..SETUPS)
        .map(|_| micro::record_and_check(topo, p).map(|(_, c)| c))
        .collect::<Result<_, _>>()?;
    let us = |f: fn(&SchedCosts) -> Duration| {
        let mut v: Vec<f64> = costs.iter().map(|c| f(c).as_secs_f64() * 1e6).collect();
        percentile(&mut v, 0.5)
    };
    r.set("sched.record_us", us(|c| c.record));
    r.set("sched.validate_us", us(|c| c.validate));
    r.set("sched.hb_check_us", us(|c| c.hb_check));
    Ok(())
}

/// Samples of one measured phase that can be pooled with another's.
pub trait Merge: Default {
    fn merge(&mut self, other: Self);
    /// Latency of each collective the phase timed, µs (+∞ if it failed).
    fn latencies(&mut self) -> &mut [f64];
}

/// What the untraced measurement produced: the median set-up time (s),
/// the median over segments of their median latency (µs), the pooled
/// measured segments, and the pooled warm-ups, whose results are
/// checked but not timed.
pub struct Measured<P> {
    pub setup_s: f64,
    pub lat_p50_us: f64,
    pub timed: P,
    pub warm: P,
}

/// The untraced measurement: [`SEGMENTS`] segments, each preceded by
/// [`SETUPS_PER_SEGMENT`] timed `setup`s. The state the last of them
/// built is warmed up for a share of `--warmup` and then measured for a
/// share of `--seconds`. Tearing a state down is not timed. Medians
/// over segments, rather than over pooled samples, keep a few segments
/// that ran while the host was slow from moving the result.
pub fn measure<S, P: Merge>(
    o: &Opts,
    mut setup: impl FnMut() -> Result<S, String>,
    mut phase: impl FnMut(&S, Duration) -> P,
) -> Result<Measured<P>, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut p50s = Vec::with_capacity(SEGMENTS);
    let (mut timed, mut warm) = (P::default(), P::default());
    for _ in 0..SEGMENTS {
        let mut state = None;
        for _ in 0..SETUPS_PER_SEGMENT {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(setup()?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let state = state.expect("at least one set-up per segment");
        warm.merge(phase(&state, o.warmup / SEGMENTS as u32));
        let mut seg = phase(&state, o.seconds / SEGMENTS as u32);
        if seg.latencies().is_empty() {
            return Err("no collective completed in a measured segment".into());
        }
        p50s.push(percentile(seg.latencies(), 0.5));
        timed.merge(seg);
    }
    Ok(Measured {
        setup_s: percentile(&mut setups, 0.5),
        lat_p50_us: percentile(&mut p50s, 0.5),
        timed,
        warm,
    })
}

impl<P: Merge> Measured<P> {
    /// Report the end-to-end metrics and the sample count.
    pub fn report(&mut self, r: &mut Report) {
        r.set("lat_p50_us", self.lat_p50_us);
        r.set("setup_s", self.setup_s);
        r.set("bench.samples", self.timed.latencies().len() as f64);
    }
}

/// Run `w` once and return every metric its mode declares.
pub fn run(w: Workload, o: &Opts) -> Result<Outcome, String> {
    let mut out = match w {
        Workload::RtAllreduceSmall => rt_work::run(
            RtShape {
                nodes: 2,
                ppn: 1,
                count: 16,
            },
            o,
        ),
        Workload::RtAllreduceLarge => rt_work::run(
            RtShape {
                nodes: 2,
                ppn: 1,
                count: 32768,
            },
            o,
        ),
        Workload::RtIntranodeLarge => rt_work::run(
            RtShape {
                nodes: 1,
                ppn: 2,
                count: 32768,
            },
            o,
        ),
        Workload::SvcStorm => svc_work::run(o),
    }?;
    let r = &mut out.report;
    if o.trace {
        let b = o.micro_budget();
        r.set("fabric.wire_encode_ns_64B", micro::wire_encode_ns_64b(b));
        r.set("fabric.wire_decode_ns_64B", micro::wire_decode_ns_64b(b));
        r.set("fabric.crc_gb_s_256KiB", micro::crc_gb_s_256kib(b));
        r.set("model.reduce_gb_s", micro::reduce_gb_s(b));
        r.set(
            "bench.fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        r.set("host.rss_peak_mb", procfs::peak_rss_mib());
    }
    Ok(out)
}

fn parse_args() -> Result<(Workload, Opts), String> {
    let mut workload = None;
    let mut o = Opts {
        seed: 1,
        warmup: Duration::from_secs(2),
        seconds: Duration::from_secs(25),
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => o.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                o.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, o))
}

/// The commit the sources came from, when they sit in a git checkout.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git/");
    let read = |p: &str| std::fs::read_to_string(format!("{git}{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn json_num(v: f64) -> String {
    // JSON has no infinity: a failed request's +∞ latency prints as the
    // largest finite double, and the run is already marked incorrect.
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() -> ExitCode {
    let (w, o) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // TcpConfig::default(), SvcConfig::new() and the tuned algorithm
    // dispatch all read PIPMCOLL_* variables; an inherited one would
    // silently change what is measured.
    let inherited: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PIPMCOLL_"))
        .collect();
    if !inherited.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {} set: the benchmark pins its own configuration",
            inherited.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} trace {}",
        w.name(),
        o.seed,
        u8::from(o.trace)
    );
    println!(
        "# warmup {:?} measure {:?} setups {SETUPS} nproc {nproc} commit {}",
        o.warmup,
        o.seconds,
        git_commit()
    );
    println!(
        "# transport: TCP over loopback 127.0.0.1; {:?}",
        tcp_config()
    );
    if w == Workload::SvcStorm {
        println!("# service: {:?}", SvcConfig::new(4));
    }

    let t0 = Instant::now();
    let host0 = procfs::host_ticks();
    let out = match run(w, &o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let defs: &'static [Def] = if o.trace { PER_LAYER } else { END_TO_END };
    let values = match out.report.select(defs) {
        Ok(v) => v,
        Err(missing) => {
            eprintln!("benchmark: {} did not produce {missing}", w.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# samples {} attempted {} failed {} run {:.1}s; host CPU stolen by the hypervisor {:.1}%",
        out.report.get("bench.samples").unwrap_or(0.0),
        out.attempted,
        out.failed,
        t0.elapsed().as_secs_f64(),
        procfs::steal_frac_since(host0) * 100.0
    );
    if let Some(rec) = &out.rec {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
            "trace-{}-{}.json",
            w.name(),
            o.seed
        ));
        match rec.write_chrome_trace(&path) {
            Ok(n) => println!("# chrome trace: {} ({n} spans)", path.display()),
            Err(e) => eprintln!("benchmark: writing {}: {e}", path.display()),
        }
    }
    for note in out.notes.iter().take(5) {
        eprintln!("benchmark: failure: {note}");
    }
    for (d, v) in &values {
        println!("{} {} {}", d.name, json_num(*v), d.unit);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_num(*v),
                d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> Opts {
        Opts {
            seed: 3,
            warmup: Duration::from_millis(100),
            seconds: Duration::from_millis(200),
            trace,
        }
    }

    fn check(w: Workload) {
        for trace in [false, true] {
            let out = run(w, &quick(trace)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
            assert!(out.attempted > 0);
            let defs = if trace { PER_LAYER } else { END_TO_END };
            let vals = out
                .report
                .select(defs)
                .unwrap_or_else(|m| panic!("{} trace={trace} did not produce {m}", w.name()));
            for (d, v) in vals {
                assert!(!d.unit.is_empty());
                assert!(v.is_finite(), "{} {} = {v}", w.name(), d.name);
            }
            if trace {
                assert_eq!(out.report.get("bench.fail_frac"), Some(0.0));
                assert!(out.rec.expect("traced run keeps its recorder").span_count() > 0);
            } else {
                for d in END_TO_END {
                    assert!(
                        out.report.get(d.name).unwrap() > 0.0,
                        "{} {}",
                        w.name(),
                        d.name
                    );
                }
            }
        }
    }

    #[test]
    fn rt_allreduce_small_emits_every_metric() {
        check(Workload::RtAllreduceSmall);
    }

    #[test]
    fn rt_allreduce_large_emits_every_metric() {
        check(Workload::RtAllreduceLarge);
    }

    #[test]
    fn rt_intranode_large_emits_every_metric() {
        check(Workload::RtIntranodeLarge);
    }

    #[test]
    fn svc_storm_emits_every_metric() {
        check(Workload::SvcStorm);
    }

    /// BENCHMARK.json at the repository root must declare exactly the
    /// workloads and metrics this binary produces.
    #[test]
    fn benchmark_json_matches_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let count = |needle: &str| text.matches(needle).count();
        for w in Workload::ALL {
            assert_eq!(
                count(&format!("{{\"name\": \"{}\",", w.name())),
                1,
                "{}",
                w.name()
            );
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert_eq!(count(&entry), 1, "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            count("\"better\": "),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics this binary does not produce"
        );
    }
}
