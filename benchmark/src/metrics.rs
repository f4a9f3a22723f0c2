//! The metrics the benchmark reports, and the probe that measures the
//! per-layer ones over a traced window.
//!
//! End-to-end metrics are what a user of the runtime or the service
//! sees; they come from the untraced run and are gated against
//! regressions. Per-layer metrics come from the traced run and say
//! which layer moved. A layer a workload never enters reads 0.

use std::collections::BTreeMap;
use std::time::Instant;

use pipmcoll_fabric::{Fabric, FabricStats, PoolStats, TcpFabric};

use crate::procfs::{self, SchedStat, Tasks};
use crate::timed::{Counts, Op, Recorder};

/// One declared metric: its name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// Reported by the untraced run of every workload.
pub const END_TO_END: &[Def] = &[lower("lat_p50_us", "us"), lower("setup_s", "s")];

/// Reported by the traced run of every workload.
pub const PER_LAYER: &[Def] = &[
    lower("fabric.send_calls", "count"),
    lower("fabric.send_ns_mean", "ns"),
    lower("fabric.recv_wait_s", "s"),
    lower("fabric.try_recv_calls", "count"),
    higher("fabric.try_recv_hit_frac", "frac"),
    lower("fabric.msgs_per_coll", "count"),
    lower("fabric.bytes_per_coll", "B"),
    lower("fabric.retransmits", "count"),
    lower("fabric.stalls", "count"),
    lower("fabric.ack_rtt_p50_us", "us"),
    higher("fabric.pool_hit_frac", "frac"),
    lower("fabric.worker_cpu_s", "s"),
    lower("fabric.worker_runq_s", "s"),
    lower("fabric.worker_ns_per_msg", "ns"),
    lower("fabric.wire_encode_ns_64B", "ns"),
    lower("fabric.wire_decode_ns_64B", "ns"),
    higher("fabric.crc_gb_s_256KiB", "GB/s"),
    lower("rt.isend_s", "s"),
    lower("rt.wait_net_s", "s"),
    lower("rt.copy_s", "s"),
    higher("rt.copy_gb_s", "GB/s"),
    lower("rt.reduce_s", "s"),
    lower("rt.flag_wait_s", "s"),
    lower("rt.node_barrier_s", "s"),
    lower("rt.rank_cpu_s", "s"),
    lower("rt.rank_runq_s", "s"),
    lower("core.algo_self_s", "s"),
    lower("core.nb_plan_us", "us"),
    lower("core.nb_step_ns_per_msg", "ns"),
    lower("core.nb_msgs_per_coll", "count"),
    lower("svc.submit_ns_p50", "ns"),
    lower("svc.engine_cpu_s", "s"),
    lower("svc.engine_cpu_frac", "frac"),
    lower("svc.engine_runq_s", "s"),
    lower("svc.engine_fabric_frac", "frac"),
    lower("svc.queue_depth_mean", "count"),
    lower("svc.inflight_mean", "count"),
    lower("svc.deferred_frac", "frac"),
    lower("sched.record_us", "us"),
    lower("sched.validate_us", "us"),
    lower("sched.hb_check_us", "us"),
    higher("model.reduce_gb_s", "GB/s"),
    lower("host.cpu_busy_frac", "frac"),
    lower("host.runq_wait_frac", "frac"),
    lower("host.steal_frac", "frac"),
    lower("host.rss_peak_mb", "MiB"),
    higher("bench.samples", "count"),
    higher("bench.coll_per_s", "1/s"),
    lower("bench.lat_p90_us", "us"),
    lower("bench.lat_p99_us", "us"),
    lower("bench.lat_p999_us", "us"),
    lower("bench.fail_frac", "frac"),
    lower("bench.trace_overhead_frac", "frac"),
    higher("bench.span_cover_frac", "frac"),
];

/// Metric values of one run, keyed by name.
#[derive(Default, Debug)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The values of `defs`, in declaration order; `Err` names the
    /// first declared metric the run did not produce.
    pub fn select(&self, defs: &'static [Def]) -> Result<Vec<(Def, f64)>, &'static str> {
        defs.iter()
            .map(|d| self.get(d.name).map(|v| (*d, v)).ok_or(d.name))
            .collect()
    }
}

fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are differences of, taken at the
/// start of a traced window.
pub struct Probe<'a> {
    rec: &'a Recorder,
    fabric: &'a TcpFabric,
    t0: Instant,
    cpu0: f64,
    host0: (u64, u64),
    tasks0: Tasks,
    counts0: Counts,
    stats0: FabricStats,
    pool0: PoolStats,
}

impl<'a> Probe<'a> {
    pub fn start(rec: &'a Recorder, fabric: &'a TcpFabric) -> Probe<'a> {
        Probe {
            rec,
            fabric,
            t0: Instant::now(),
            cpu0: procfs::process_cpu_s(),
            host0: procfs::host_ticks(),
            tasks0: procfs::tasks(),
            counts0: rec.counts(),
            stats0: fabric.stats(),
            pool0: fabric.pool_stats(),
        }
    }

    /// Fill the fabric, rt, core-algorithm, svc-engine and host
    /// metrics for the window that ends now, in which `colls`
    /// collectives completed.
    pub fn finish(self, r: &mut Report, colls: u64) {
        let wall = self.t0.elapsed().as_secs_f64();
        let cpu = procfs::process_cpu_s() - self.cpu0;
        let tasks1 = procfs::tasks();
        let c = self.rec.counts().since(&self.counts0);
        let stats = self.fabric.stats();
        let pool = self.fabric.pool_stats();
        let colls = colls.max(1) as f64;

        let named = |prefix: &'static str| {
            procfs::accrued(&self.tasks0, &tasks1, move |_, n| n.starts_with(prefix))
        };
        let workers = named("fab-pool-");
        let engine = named("svc-engine");
        // Rank threads live for one batch, inside the window, so the
        // two task scans never see them; they report their own
        // accounting through the recorder instead.
        let mut threads = procfs::accrued(&self.tasks0, &tasks1, |_, _| true);
        let ranks = SchedStat {
            cpu_ns: c.rank_cpu_ns,
            runq_ns: c.rank_runq_ns,
        };
        threads.add(ranks);
        let s = |ns: u64| ns as f64 / 1e9;
        let lane_msgs = stats.total_msgs() - self.stats0.total_msgs();

        r.set("fabric.send_calls", c.calls(Op::FabSend) as f64);
        r.set(
            "fabric.send_ns_mean",
            frac(c.secs(Op::FabSend) * 1e9, c.calls(Op::FabSend) as f64),
        );
        r.set("fabric.recv_wait_s", c.secs(Op::FabRecv));
        r.set("fabric.try_recv_calls", c.calls(Op::FabTryRecv) as f64);
        r.set(
            "fabric.try_recv_hit_frac",
            frac(c.try_hits as f64, c.calls(Op::FabTryRecv) as f64),
        );
        r.set("fabric.msgs_per_coll", c.calls(Op::FabSend) as f64 / colls);
        r.set("fabric.bytes_per_coll", c.bytes(Op::FabSend) as f64 / colls);
        r.set(
            "fabric.retransmits",
            (stats.retransmits - self.stats0.retransmits) as f64,
        );
        r.set(
            "fabric.stalls",
            (stats.total_stalls() - self.stats0.total_stalls()) as f64,
        );
        r.set(
            "fabric.ack_rtt_p50_us",
            stats.ack_rtt.p50_us.unwrap_or(0) as f64,
        );
        let (hits, misses) = (pool.hits - self.pool0.hits, pool.misses - self.pool0.misses);
        r.set(
            "fabric.pool_hit_frac",
            frac(hits as f64, (hits + misses) as f64),
        );
        r.set("fabric.worker_cpu_s", s(workers.cpu_ns));
        r.set("fabric.worker_runq_s", s(workers.runq_ns));
        r.set(
            "fabric.worker_ns_per_msg",
            frac(workers.cpu_ns as f64, lane_msgs as f64),
        );

        r.set("rt.isend_s", c.secs(Op::RtIsend));
        r.set("rt.wait_net_s", c.secs(Op::RtWait));
        r.set("rt.copy_s", c.secs(Op::RtCopy));
        r.set(
            "rt.copy_gb_s",
            frac(c.bytes(Op::RtCopy) as f64, c.secs(Op::RtCopy) * 1e9),
        );
        r.set("rt.reduce_s", c.secs(Op::RtReduce));
        r.set("rt.flag_wait_s", c.secs(Op::RtFlagWait));
        r.set("rt.node_barrier_s", c.secs(Op::RtBarrier));
        r.set("rt.rank_cpu_s", s(ranks.cpu_ns));
        r.set("rt.rank_runq_s", s(ranks.runq_ns));
        r.set(
            "core.algo_self_s",
            (c.secs(Op::Algo) - c.rt_secs()).max(0.0),
        );

        r.set("svc.engine_cpu_s", s(engine.cpu_ns));
        r.set("svc.engine_cpu_frac", s(engine.cpu_ns) / wall);
        r.set("svc.engine_runq_s", s(engine.runq_ns));
        r.set(
            "svc.engine_fabric_frac",
            frac(c.engine_fabric_ns as f64, engine.cpu_ns as f64),
        );

        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        r.set("host.cpu_busy_frac", cpu / (wall * nproc as f64));
        r.set("host.steal_frac", procfs::steal_frac_since(self.host0));
        r.set(
            "host.runq_wait_frac",
            frac(
                threads.runq_ns as f64,
                (threads.runq_ns + threads.cpu_ns) as f64,
            ),
        );
    }
}
