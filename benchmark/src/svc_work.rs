//! Service workload `svc_storm`: many jobs' non-blocking allreduces
//! driven by the single `svc-engine` thread over a 2-node × 2-rank
//! loopback world. It is a closed loop: 8 jobs each keep 4 collectives
//! in flight and resubmit on every completion, so the engine runs at its
//! throughput ceiling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipmcoll_core::nb::CollSpec;
use pipmcoll_core::AllreduceParams;
use pipmcoll_fabric::{Fabric, TcpFabric};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_svc::{Job, Request, Svc, SvcConfig, SvcResult};

use crate::metrics::Probe;
use crate::micro;
use crate::stats::{percentile, Rng};
use crate::timed::{Recorder, TimedFabric};
use crate::{measure, set_nb, set_sched, set_tail, tcp_config, Merge, Opts, Outcome};

const NODES: usize = 2;
const PPN: usize = 2;
const WORLD: usize = NODES * PPN;

/// 16 i32 (64 B) per rank.
const ELEMS: usize = 16;

const JOBS: usize = 8;
const DEPTH: usize = 4;

/// Pre-built input sets, so generating a request costs one clone and
/// checking a result one comparison.
const SETS: usize = 64;

/// One request's inputs (per rank) and the result every rank must get.
struct InputSet {
    inputs: Vec<Vec<u8>>,
    want: Vec<u8>,
}

fn input_sets(rng: &mut Rng) -> Vec<InputSet> {
    (0..SETS)
        .map(|_| {
            let vals: Vec<Vec<i32>> = (0..WORLD)
                .map(|_| {
                    (0..ELEMS)
                        .map(|_| (rng.next_u64() >> 44) as i32 - (1 << 19))
                        .collect()
                })
                .collect();
            let want = (0..ELEMS)
                .flat_map(|i| vals.iter().map(|v| v[i]).sum::<i32>().to_le_bytes())
                .collect();
            InputSet {
                inputs: vals
                    .iter()
                    .map(|v| v.iter().flat_map(|x| x.to_le_bytes()).collect())
                    .collect(),
                want,
            }
        })
        .collect()
}

/// Submit one allreduce of `set`. Returns the request and the instant
/// it was submitted; the call's duration goes to `submit_ns` (traced
/// runs only).
fn submit(job: &Job, set: &InputSet, submit_ns: Option<&mut Vec<f64>>) -> (Request, Instant) {
    let inputs = set.inputs.clone();
    let t0 = Instant::now();
    let req = job.iallreduce(Datatype::Int32, ReduceOp::Sum, inputs);
    if let Some(v) = submit_ns {
        v.push(t0.elapsed().as_nanos() as f64);
    }
    (req, t0)
}

fn correct(res: &SvcResult<Vec<Vec<u8>>>, set: &InputSet) -> bool {
    matches!(res, Ok(out) if out.len() == WORLD && out.iter().all(|o| *o == set.want))
}

/// A running service and its jobs. Jobs are declared (and dropped)
/// first: each holds the service's fabric, which must go with it.
struct Service {
    jobs: Vec<Job>,
    svc: Svc,
    fabric: Arc<TcpFabric>,
}

/// Set-up, as a user pays it: connect the fabric, start the service,
/// open the jobs and run one checked collective through it.
fn start(probe: &InputSet, rec: Option<&Arc<Recorder>>) -> Result<Service, String> {
    let fabric = Arc::new(
        TcpFabric::connect(Topology::new(NODES, PPN), tcp_config())
            .map_err(|e| format!("loopback fabric: {e}"))?,
    );
    let shared: Arc<dyn Fabric> = match rec {
        Some(rec) => Arc::new(TimedFabric::new(Arc::clone(&fabric), Arc::clone(rec))),
        None => Arc::clone(&fabric) as Arc<dyn Fabric>,
    };
    let svc = Svc::new(shared, SvcConfig::new(WORLD)).map_err(|e| format!("service: {e}"))?;
    let jobs = (0..JOBS)
        .map(|_| svc.job())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("job: {e}"))?;
    let res = jobs[0]
        .iallreduce(Datatype::Int32, ReduceOp::Sum, probe.inputs.clone())
        .wait();
    if !correct(&res, probe) {
        return Err(format!("first collective failed: {res:?}"));
    }
    Ok(Service { jobs, svc, fabric })
}

/// Latencies and failures of one measured phase.
#[derive(Default)]
pub struct Phase {
    lat_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Collectives completed correctly inside the window.
    delivered: u64,
    wall: Duration,
    submit_ns: Vec<f64>,
}

impl Phase {
    /// Collectives completed correctly per second of the phase.
    fn per_s(&self) -> f64 {
        self.delivered as f64 / self.wall.as_secs_f64()
    }

    /// Account one request; `in_window`: it completed inside the window,
    /// so its latency and delivery count.
    fn record(&mut self, ok: bool, lat: Duration, in_window: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        } else if in_window {
            self.delivered += 1;
        }
        if in_window {
            self.lat_us.push(if ok {
                lat.as_secs_f64() * 1e6
            } else {
                f64::INFINITY
            });
        }
    }
}

impl Merge for Phase {
    fn merge(&mut self, o: Phase) {
        self.lat_us.extend(o.lat_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.delivered += o.delivered;
        self.wall += o.wall;
        self.submit_ns.extend(o.submit_ns);
    }

    fn latencies(&mut self) -> &mut [f64] {
        &mut self.lat_us
    }
}

struct Slot {
    req: Request,
    submitted: Instant,
    set: usize,
}

/// Closed loop for `dur`: every job keeps [`DEPTH`] collectives in
/// flight. Finished slots are harvested with `test`; only when none is
/// ready does the loop block, on the oldest request. Requests still in
/// flight at the end are drained and checked but not timed.
fn storm_phase(
    s: &Service,
    sets: &[InputSet],
    rng: &mut Rng,
    dur: Duration,
    traced: bool,
) -> Phase {
    let mut ph = Phase::default();
    let n = s.jobs.len() * DEPTH;
    let end = Instant::now() + dur;
    let mut launch = |i: usize, ph: &mut Phase| {
        let set = rng.below(sets.len());
        let (req, submitted) = submit(
            &s.jobs[i / DEPTH],
            &sets[set],
            traced.then_some(&mut ph.submit_ns),
        );
        Slot {
            req,
            submitted,
            set,
        }
    };
    let mut slots: Vec<Option<Slot>> = (0..n).map(|i| Some(launch(i, &mut ph))).collect();
    loop {
        let mut ready: Vec<(usize, SvcResult<Vec<Vec<u8>>>)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?.req.test()?)))
            .collect();
        if ready.is_empty() {
            let Some(i) = (0..n)
                .filter(|&i| slots[i].is_some())
                .min_by_key(|&i| slots[i].as_ref().map(|s| s.submitted))
            else {
                break;
            };
            let res = slots[i].as_ref().expect("slot is live").req.wait();
            ready.push((i, res));
        }
        for (i, res) in ready {
            let done = slots[i].take().expect("slot is live");
            let now = Instant::now();
            ph.record(
                correct(&res, &sets[done.set]),
                now - done.submitted,
                now < end,
            );
            if now < end {
                slots[i] = Some(launch(i, &mut ph));
            }
        }
    }
    ph.wall = dur;
    ph
}

/// Mean queue depth and in-flight count of `svc`, sampled every 10 ms
/// until `stop` is raised.
fn sample_depths(svc: &Svc, stop: &AtomicBool) -> (f64, f64) {
    let (mut q, mut f, mut n) = (0.0, 0.0, 0.0);
    while !stop.load(Ordering::Relaxed) {
        let st = svc.stats();
        q += st.jobs.iter().map(|j| j.queue_depth).sum::<usize>() as f64;
        f += st.inflight as f64;
        n += 1.0;
        std::thread::sleep(Duration::from_millis(10));
    }
    (q / f64::max(n, 1.0), f / f64::max(n, 1.0))
}

fn deferred_admitted(svc: &Svc) -> (u64, u64) {
    svc.stats()
        .jobs
        .iter()
        .fold((0, 0), |(d, a), j| (d + j.deferred, a + j.admitted))
}

/// Run `svc_storm`.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut rng = Rng::new(o.seed);
    let sets = input_sets(&mut rng);
    let mut out = Outcome::default();

    let mut all;
    if !o.trace {
        let mut m = measure(
            o,
            || start(&sets[0], None),
            |s, d| storm_phase(s, &sets, &mut rng, d, false),
        )?;
        m.report(&mut out.report);
        all = m.warm;
        all.merge(m.timed);
    } else {
        let service = start(&sets[0], None)?;
        all = storm_phase(&service, &sets, &mut rng, o.warmup, false);
        let base = storm_phase(&service, &sets, &mut rng, o.seconds / 4, false);
        drop(service);
        let rec = Arc::new(Recorder::default());
        let traced = start(&sets[0], Some(&rec))?;
        all.merge(storm_phase(&traced, &sets, &mut rng, o.warmup, true));
        rec.keep_spans();
        let probe = Probe::start(&rec, &traced.fabric);
        let (d0, a0) = deferred_admitted(&traced.svc);
        let stop = AtomicBool::new(false);
        let (mut tp, (queue, inflight)) = std::thread::scope(|sc| {
            let sampler = std::thread::Builder::new()
                .name("bench-sampler".into())
                .spawn_scoped(sc, || sample_depths(&traced.svc, &stop))
                .expect("spawn sampler thread");
            let tp = storm_phase(&traced, &sets, &mut rng, o.seconds * 3 / 4, true);
            stop.store(true, Ordering::Relaxed);
            (tp, sampler.join().expect("sampler thread panicked"))
        });
        probe.finish(&mut out.report, tp.delivered);
        let (d1, a1) = deferred_admitted(&traced.svc);

        let r = &mut out.report;
        set_tail(r, &mut tp.lat_us)?;
        r.set("bench.coll_per_s", base.per_s());
        r.set("bench.trace_overhead_frac", base.per_s() / tp.per_s() - 1.0);
        r.set("svc.submit_ns_p50", percentile(&mut tp.submit_ns, 0.5));
        r.set("svc.queue_depth_mean", queue);
        r.set("svc.inflight_mean", inflight);
        r.set(
            "svc.deferred_frac",
            (d1 - d0) as f64 / ((a1 - a0) as f64).max(1.0),
        );
        for name in [
            "rt.isend_s",
            "rt.wait_net_s",
            "rt.copy_s",
            "rt.copy_gb_s",
            "rt.reduce_s",
            "rt.flag_wait_s",
            "rt.node_barrier_s",
            "core.algo_self_s",
            "bench.span_cover_frac",
        ] {
            r.set(name, 0.0);
        }
        all.merge(base);
        all.merge(tp);
        out.rec = Some(rec);

        // The non-blocking engine's planning and stepping of this
        // workload's collective, and what recording and proving the
        // same shape's schedule would add to set-up.
        let spec = CollSpec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs: sets[0].inputs.clone(),
        };
        set_nb(r, &micro::nb_costs(&spec, o.micro_budget()));
        let params = AllreduceParams {
            count: ELEMS,
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
        };
        set_sched(r, Topology::new(NODES, PPN), &params)?;
    }
    out.attempted = all.attempted;
    out.failed = all.failed;
    Ok(out)
}
