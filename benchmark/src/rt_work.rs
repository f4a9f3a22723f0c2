//! Runtime workloads: the blocking PiP-MColl allreduce executed by rank
//! threads, closed loop, batches of iterations per `run_cluster_on`.
//!
//! One collective's latency is the time from the first rank entering
//! the allreduce to the last rank leaving it, taken from per-rank
//! timestamps around each call.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipmcoll_core::nb::CollSpec;
use pipmcoll_core::{AllreduceParams, LibraryProfile};
use pipmcoll_fabric::{Fabric, TcpFabric};
use pipmcoll_model::Topology;
use pipmcoll_rt::{run_cluster_on, RtComm};
use pipmcoll_sched::{Comm, Schedule};

use crate::metrics::Probe;
use crate::micro;
use crate::procfs::{self, SchedStat};
use crate::stats::Rng;
use crate::timed::{Op, Recorder, TimedComm, TimedFabric};
use crate::{measure, set_nb, set_sched, set_tail, tcp_config, Merge, Opts, Outcome};

/// Iterations per `run_cluster_on` batch, unless a batch that long
/// would take more than a tenth of the phase it belongs to.
const MAX_BATCH: usize = 1000;

/// Cluster shape and per-rank element count (doubles).
#[derive(Clone, Copy, Debug)]
pub struct RtShape {
    pub nodes: usize,
    pub ppn: usize,
    pub count: usize,
}

/// Per-rank inputs: integer-valued doubles below 2^20, so every
/// summation order gives the exact same bytes.
pub fn seeded_inputs(seed: u64, world: usize, count: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed);
    (0..world)
        .map(|_| {
            (0..count)
                .flat_map(|_| ((rng.next_u64() >> 44) as f64).to_le_bytes())
                .collect()
        })
        .collect()
}

/// Elementwise sum of every rank's doubles, computed independently of
/// the library's reduction kernel.
pub fn reference_sum(inputs: &[Vec<u8>]) -> Vec<u8> {
    let d = |b: &[u8], i: usize| f64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap());
    (0..inputs[0].len() / 8)
        .flat_map(|i| inputs.iter().map(|b| d(b, i)).sum::<f64>().to_le_bytes())
        .collect()
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    lat_us: Vec<f64>,
    failed: u64,
    wall: Duration,
    /// Σ over ranks and iterations of the rank's own allreduce span.
    rank_span_ns: f64,
    /// Σ over iterations of the collective latency, times world size.
    coll_span_ns: f64,
    failures: Vec<String>,
}

impl Merge for Phase {
    fn merge(&mut self, o: Phase) {
        self.lat_us.extend(o.lat_us);
        self.failed += o.failed;
        self.wall += o.wall;
        self.rank_span_ns += o.rank_span_ns;
        self.coll_span_ns += o.coll_span_ns;
        self.failures.extend(o.failures);
    }

    fn latencies(&mut self) -> &mut [f64] {
        &mut self.lat_us
    }
}

impl Phase {
    /// Collectives completed correctly per second of the phase.
    fn per_s(&self) -> f64 {
        (self.lat_us.len() as u64 - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

struct Bench<'a> {
    topo: Topology,
    p: AllreduceParams,
    inputs: &'a [Vec<u8>],
    want: &'a [u8],
    /// Latest estimate of one iteration's wall time.
    per_iter: Duration,
}

/// One rank's timestamps in a batch, plus its scheduler accounting at
/// the end of its first iteration.
#[derive(Default)]
struct RankLog {
    stamps: Vec<(Instant, Instant)>,
    sched0: SchedStat,
}

impl Bench<'_> {
    fn batch(
        &mut self,
        fabric: Arc<dyn Fabric>,
        rec: Option<&Recorder>,
        iters: usize,
        ph: &mut Phase,
    ) {
        let world = self.topo.world_size();
        let logs: Vec<Mutex<RankLog>> = (0..world).map(|_| Mutex::default()).collect();
        let p = self.p;
        let t0 = Instant::now();
        let res = run_cluster_on(
            fabric,
            self.topo,
            p.buf_sizes(),
            |r| self.inputs[r].clone(),
            iters,
            |c: &mut RtComm| {
                let rank = c.rank();
                let t0 = Instant::now();
                match rec {
                    Some(rec) => {
                        LibraryProfile::PipMColl.allreduce(&mut TimedComm::new(c, rec), &p);
                        rec.add(Op::Algo, 0, t0, Instant::now());
                    }
                    None => LibraryProfile::PipMColl.allreduce(c, &p),
                }
                let t1 = Instant::now();
                let mut log = logs[rank].lock().expect("rank log poisoned");
                log.stamps.push((t0, t1));
                if let Some(rec) = rec {
                    // The rank thread lives for this batch only, so it
                    // reports its own CPU and run-queue time.
                    if log.stamps.len() == 1 {
                        log.sched0 = procfs::thread_self();
                    }
                    if log.stamps.len() == iters {
                        let d = procfs::thread_self().since(log.sched0);
                        rec.add_rank_sched(d.cpu_ns, d.runq_ns);
                    }
                }
            },
        );
        let wall = t0.elapsed();
        self.per_iter = wall / iters as u32;
        ph.wall += wall;
        let logs: Vec<Vec<(Instant, Instant)>> = logs
            .into_iter()
            .map(|l| l.into_inner().expect("rank log poisoned").stamps)
            .collect();
        let clean = res.ok()
            && logs.iter().all(|l| l.len() == iters)
            && res.recv.iter().all(|b| b == self.want);
        if !clean {
            ph.failed += iters as u64;
            ph.lat_us.extend(std::iter::repeat_n(f64::INFINITY, iters));
            ph.failures
                .extend(res.failures.iter().map(|f| f.to_string()));
            if res.ok() {
                ph.failures
                    .push("allreduce result differs from the reference sum".into());
            }
            return;
        }
        for i in 0..iters {
            let start = logs.iter().map(|l| l[i].0).min().expect("world >= 1");
            let end = logs.iter().map(|l| l[i].1).max().expect("world >= 1");
            let lat = end - start;
            ph.lat_us.push(lat.as_secs_f64() * 1e6);
            ph.coll_span_ns += (lat.as_nanos() * world as u128) as f64;
            ph.rank_span_ns += logs
                .iter()
                .map(|l| (l[i].1 - l[i].0).as_nanos() as f64)
                .sum::<f64>();
        }
    }

    /// Run batches until `dur` has passed.
    fn phase(&mut self, fabric: &Arc<dyn Fabric>, rec: Option<&Recorder>, dur: Duration) -> Phase {
        let mut ph = Phase::default();
        let t0 = Instant::now();
        while t0.elapsed() < dur {
            let cap = (dur.as_secs_f64() / 10.0 / self.per_iter.as_secs_f64().max(1e-9)) as usize;
            let iters = cap.clamp(1, MAX_BATCH);
            self.batch(Arc::clone(fabric), rec, iters, &mut ph);
        }
        ph
    }
}

/// Set-up, as a user pays it: connect the transport, record the
/// schedule and prove it race-free, run and check the first collective.
fn set_up(
    topo: Topology,
    p: &AllreduceParams,
    inputs: &[Vec<u8>],
    want: &[u8],
) -> Result<(Arc<TcpFabric>, Schedule), String> {
    let fabric = Arc::new(
        TcpFabric::connect(topo, tcp_config()).map_err(|e| format!("loopback fabric: {e}"))?,
    );
    let (sched, _) = micro::record_and_check(topo, p)?;
    let res = run_cluster_on(
        Arc::clone(&fabric) as Arc<dyn Fabric>,
        topo,
        p.buf_sizes(),
        |r| inputs[r].clone(),
        1,
        |c| LibraryProfile::PipMColl.allreduce(c, p),
    );
    if !res.ok() || res.recv.iter().any(|b| b != want) {
        return Err(format!("first collective failed: {:?}", res.failures));
    }
    Ok((fabric, sched))
}

/// Run one runtime workload.
pub fn run(shape: RtShape, o: &Opts) -> Result<Outcome, String> {
    let topo = Topology::new(shape.nodes, shape.ppn);
    let p = AllreduceParams::sum_doubles(shape.count);
    let inputs = seeded_inputs(o.seed, topo.world_size(), shape.count);
    let want = reference_sum(&inputs);
    let mut out = Outcome::default();

    let (fabric, sched) = set_up(topo, &p, &inputs, &want)?;
    // The schedule the runtime executes must also compute the allreduce
    // on the sequential reference interpreter.
    pipmcoll_sched::verify::check_allreduce_sum(&sched, shape.count)?;
    let mut b = Bench {
        topo,
        p,
        inputs: &inputs,
        want: &want,
        per_iter: Duration::from_millis(1),
    };
    let mut all;
    if !o.trace {
        drop(fabric);
        let fresh = || set_up(topo, &p, &inputs, &want).map(|(f, _)| f as Arc<dyn Fabric>);
        let mut m = measure(o, fresh, |f, d| b.phase(f, None, d))?;
        m.report(&mut out.report);
        all = m.warm;
        all.merge(m.timed);
    } else {
        let plain: Arc<dyn Fabric> = Arc::clone(&fabric) as Arc<dyn Fabric>;
        all = b.phase(&plain, None, o.warmup);
        let base = b.phase(&plain, None, o.seconds / 4);
        let untraced_rate = base.per_s();
        all.merge(base);
        let rec = Arc::new(Recorder::default());
        let timed: Arc<dyn Fabric> =
            Arc::new(TimedFabric::new(Arc::clone(&fabric), Arc::clone(&rec)));
        rec.keep_spans();
        let probe = Probe::start(&rec, &fabric);
        let mut tp = b.phase(&timed, Some(&rec), o.seconds * 3 / 4);
        probe.finish(&mut out.report, tp.lat_us.len() as u64);
        let r = &mut out.report;
        let traced_rate = tp.per_s();
        set_tail(r, &mut tp.lat_us)?;
        r.set("bench.coll_per_s", untraced_rate);
        r.set(
            "bench.trace_overhead_frac",
            untraced_rate / traced_rate - 1.0,
        );
        r.set(
            "bench.span_cover_frac",
            tp.rank_span_ns / tp.coll_span_ns.max(1.0),
        );
        all.merge(tp);
        out.rec = Some(rec);

        set_sched(r, topo, &p)?;
        // What the service's non-blocking engine would pay for the
        // same collective.
        let spec = CollSpec::Allreduce {
            dt: p.dt,
            op: p.op,
            inputs: inputs.clone(),
        };
        set_nb(r, &micro::nb_costs(&spec, o.micro_budget()));
        for name in [
            "svc.submit_ns_p50",
            "svc.queue_depth_mean",
            "svc.inflight_mean",
            "svc.deferred_frac",
        ] {
            r.set(name, 0.0);
        }
    }
    out.attempted = all.lat_us.len() as u64;
    out.failed = all.failed;
    out.notes = all.failures;
    Ok(out)
}
