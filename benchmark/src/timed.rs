//! Timing wrappers around each layer's public calls, used only by the
//! traced run: [`TimedFabric`] around the transport, [`TimedComm`]
//! around a rank's communicator. Both forward every call unchanged and
//! add its duration to a shared [`Recorder`], which also keeps the
//! first spans of the traced window for a Chrome trace-event file.
//!
//! The program under test is not modified: every number here is taken
//! at the boundary where the benchmark calls into a layer.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pipmcoll_fabric::{
    ChanKey, Fabric, FabricDiag, FabricError, FabricHealth, FabricResult, FabricStats, WireChaos,
};
use pipmcoll_model::{Datatype, ReduceOp, Topology};
use pipmcoll_sched::{BufId, BufSizes, Comm, FlagId, Region, RemoteRegion, Req, Slot, Tag};

/// The layer call a span or counter belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    FabSend,
    FabRecv,
    FabTryRecv,
    RtIsend,
    RtIrecv,
    RtWait,
    RtCopy,
    RtReduce,
    RtFlagWait,
    RtSignal,
    RtBarrier,
    RtOther,
    /// One rank's whole collective call (the algorithm's span).
    Algo,
}

const OPS: usize = 13;

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::FabSend => "fabric.send",
            Op::FabRecv => "fabric.recv_within",
            Op::FabTryRecv => "fabric.try_recv",
            Op::RtIsend => "rt.isend",
            Op::RtIrecv => "rt.irecv",
            Op::RtWait => "rt.wait",
            Op::RtCopy => "rt.copy",
            Op::RtReduce => "rt.reduce",
            Op::RtFlagWait => "rt.wait_flag",
            Op::RtSignal => "rt.signal",
            Op::RtBarrier => "rt.node_barrier",
            Op::RtOther => "rt.other",
            Op::Algo => "core.allreduce",
        }
    }

    fn is_rt(self) -> bool {
        !matches!(self, Op::FabSend | Op::FabRecv | Op::FabTryRecv | Op::Algo)
    }
}

/// Totals per [`Op`] at one instant; subtract two to get a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub calls: [u64; OPS],
    pub ns: [u64; OPS],
    pub bytes: [u64; OPS],
    /// `try_recv` calls that returned a message.
    pub try_hits: u64,
    /// Fabric time spent on the service's engine thread.
    pub engine_fabric_ns: u64,
    /// Rank threads' on-CPU and run-queue time (rt workloads).
    pub rank_cpu_ns: u64,
    pub rank_runq_ns: u64,
}

impl Counts {
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }
    pub fn secs(&self, op: Op) -> f64 {
        self.ns[op as usize] as f64 / 1e9
    }
    pub fn bytes(&self, op: Op) -> u64 {
        self.bytes[op as usize]
    }
    /// Seconds in every rt-layer call.
    pub fn rt_secs(&self) -> f64 {
        (0..OPS)
            .filter(|&i| OP_LIST[i].is_rt())
            .map(|i| self.ns[i] as f64 / 1e9)
            .sum()
    }

    pub fn since(&self, e: &Counts) -> Counts {
        let sub = |a: [u64; OPS], b: [u64; OPS]| std::array::from_fn(|i| a[i] - b[i]);
        Counts {
            calls: sub(self.calls, e.calls),
            ns: sub(self.ns, e.ns),
            bytes: sub(self.bytes, e.bytes),
            try_hits: self.try_hits - e.try_hits,
            engine_fabric_ns: self.engine_fabric_ns - e.engine_fabric_ns,
            rank_cpu_ns: self.rank_cpu_ns - e.rank_cpu_ns,
            rank_runq_ns: self.rank_runq_ns - e.rank_runq_ns,
        }
    }
}

const OP_LIST: [Op; OPS] = [
    Op::FabSend,
    Op::FabRecv,
    Op::FabTryRecv,
    Op::RtIsend,
    Op::RtIrecv,
    Op::RtWait,
    Op::RtCopy,
    Op::RtReduce,
    Op::RtFlagWait,
    Op::RtSignal,
    Op::RtBarrier,
    Op::RtOther,
    Op::Algo,
];

struct Span {
    op: Op,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept per traced run; later calls are still counted, not kept.
const SPAN_CAP: usize = 60_000;

/// Shared sink for every wrapper of one traced run.
pub struct Recorder {
    epoch: Instant,
    calls: [AtomicU64; OPS],
    ns: [AtomicU64; OPS],
    bytes: [AtomicU64; OPS],
    try_hits: AtomicU64,
    engine_fabric_ns: AtomicU64,
    rank_cpu_ns: AtomicU64,
    rank_runq_ns: AtomicU64,
    keep_spans: AtomicBool,
    span_slots: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    thread_names: Mutex<Vec<(u32, String)>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small stable id of this thread in the trace (0 = not yet named).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Whether this thread is the service's engine (`None` = not yet
    /// looked up).
    static ON_ENGINE: Cell<Option<bool>> = const { Cell::new(None) };
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            bytes: std::array::from_fn(|_| AtomicU64::new(0)),
            try_hits: AtomicU64::new(0),
            engine_fabric_ns: AtomicU64::new(0),
            rank_cpu_ns: AtomicU64::new(0),
            rank_runq_ns: AtomicU64::new(0),
            keep_spans: AtomicBool::new(false),
            span_slots: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            thread_names: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Start keeping spans (the traced window has begun).
    pub fn keep_spans(&self) {
        self.keep_spans.store(true, Ordering::Relaxed);
    }

    /// Current totals.
    pub fn counts(&self) -> Counts {
        let load = |a: &[AtomicU64; OPS]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        Counts {
            calls: load(&self.calls),
            ns: load(&self.ns),
            bytes: load(&self.bytes),
            try_hits: self.try_hits.load(Ordering::Relaxed),
            engine_fabric_ns: self.engine_fabric_ns.load(Ordering::Relaxed),
            rank_cpu_ns: self.rank_cpu_ns.load(Ordering::Relaxed),
            rank_runq_ns: self.rank_runq_ns.load(Ordering::Relaxed),
        }
    }

    /// Spans kept so far.
    pub fn span_count(&self) -> usize {
        self.spans.lock().map_or(0, |s| s.len())
    }

    /// Add one rank thread's scheduler accounting.
    pub fn add_rank_sched(&self, cpu_ns: u64, runq_ns: u64) {
        self.rank_cpu_ns.fetch_add(cpu_ns, Ordering::Relaxed);
        self.rank_runq_ns.fetch_add(runq_ns, Ordering::Relaxed);
    }

    /// Account one call of `op` that moved `bytes` and ran from `t0`
    /// to `t1`, and keep its span. Returns its duration in ns.
    pub fn add(&self, op: Op, bytes: u64, t0: Instant, t1: Instant) -> u64 {
        self.add_with(op, bytes, t0, t1, true)
    }

    fn add_with(&self, op: Op, bytes: u64, t0: Instant, t1: Instant, span: bool) -> u64 {
        let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
        let i = op as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.ns[i].fetch_add(ns, Ordering::Relaxed);
        self.bytes[i].fetch_add(bytes, Ordering::Relaxed);
        if span
            && self.keep_spans.load(Ordering::Relaxed)
            && self.span_slots.fetch_add(1, Ordering::Relaxed) < SPAN_CAP
        {
            let span = Span {
                op,
                tid: self.tid(),
                start_ns: t0.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns: ns,
            };
            if let Ok(mut s) = self.spans.lock() {
                s.push(span);
            }
        }
        ns
    }

    fn time<R>(&self, op: Op, bytes: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(op, bytes, t0, Instant::now());
        r
    }

    fn tid(&self) -> u32 {
        TID.with(|t| {
            if t.get() == 0 {
                let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                t.set(id);
                let name = std::thread::current()
                    .name()
                    .map_or_else(|| format!("rank-thread-{id}"), str::to_string);
                if let Ok(mut n) = self.thread_names.lock() {
                    n.push((id, name));
                }
            }
            t.get()
        })
    }

    /// Write the kept spans as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto). Returns the number of spans.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .lock()
            .map_err(|_| io::Error::other("span log poisoned"))?;
        let names = self
            .thread_names
            .lock()
            .map_err(|_| io::Error::other("thread names poisoned"))?;
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        let mut first = true;
        for (tid, name) in names.iter() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                w,
                "{sep}{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for s in spans.iter() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            let name = s.op.name();
            let cat = name.split('.').next().unwrap_or(name);
            write!(
                w,
                "{sep}{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{:.3},\"dur\":{:.3}}}",
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()?;
        Ok(spans.len())
    }
}

fn on_engine_thread() -> bool {
    ON_ENGINE.with(|c| match c.get() {
        Some(on) => on,
        None => {
            let on = std::thread::current().name() == Some("svc-engine");
            c.set(Some(on));
            on
        }
    })
}

/// A [`Fabric`] decorator that times every call into the transport.
/// Every trait method is forwarded — including the ones with default
/// bodies, whose defaults would silently change behaviour (a defaulted
/// `try_recv` turns the service's polling into `recv_within(0)`).
pub struct TimedFabric<F> {
    inner: F,
    rec: Arc<Recorder>,
}

impl<F: Fabric> TimedFabric<F> {
    pub fn new(inner: F, rec: Arc<Recorder>) -> Self {
        TimedFabric { inner, rec }
    }

    /// Time `f`; `span` decides from its result whether the call is
    /// worth a span in the trace.
    fn timed<R>(&self, op: Op, bytes: u64, f: impl FnOnce() -> R, span: impl Fn(&R) -> bool) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = self.rec.add_with(op, bytes, t0, Instant::now(), span(&r));
        if on_engine_thread() {
            self.rec.engine_fabric_ns.fetch_add(ns, Ordering::Relaxed);
        }
        r
    }
}

impl<F: Fabric> Fabric for TimedFabric<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn lanes(&self) -> usize {
        self.inner.lanes()
    }
    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        let len = payload.len() as u64;
        self.timed(Op::FabSend, len, || self.inner.send(key, payload), |_| true)
    }
    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        self.timed(
            Op::FabRecv,
            0,
            || self.inner.recv_within(key, timeout),
            |_| true,
        )
    }
    fn recv(&self, key: ChanKey) -> FabricResult<Vec<u8>> {
        self.timed(Op::FabRecv, 0, || self.inner.recv(key), |_| true)
    }
    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        // The service polls far more often than messages arrive; only
        // polls that deliver are kept as spans.
        let hit = |r: &FabricResult<Option<Vec<u8>>>| matches!(r, Ok(Some(_)));
        let r = self.timed(Op::FabTryRecv, 0, || self.inner.try_recv(key), hit);
        if hit(&r) {
            self.rec.try_hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
    fn reset(&self) {
        self.inner.reset()
    }
    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }
    fn diag(&self) -> FabricDiag {
        self.inner.diag()
    }
    fn drain_errors(&self) -> Vec<FabricError> {
        self.inner.drain_errors()
    }
    fn kill_lane(&self, lane: usize) -> bool {
        self.inner.kill_lane(lane)
    }
    fn install_chaos(&self, chaos: Arc<WireChaos>) -> bool {
        self.inner.install_chaos(chaos)
    }
    fn health(&self) -> FabricHealth {
        self.inner.health()
    }
}

/// A [`Comm`] decorator (after the runtime's `FaultComm`) that times
/// every communication call a collective algorithm makes on one rank.
pub struct TimedComm<'a, C: Comm> {
    inner: &'a mut C,
    rec: &'a Recorder,
}

impl<'a, C: Comm> TimedComm<'a, C> {
    pub fn new(inner: &'a mut C, rec: &'a Recorder) -> Self {
        TimedComm { inner, rec }
    }
}

impl<C: Comm> Comm for TimedComm<'_, C> {
    fn topo(&self) -> Topology {
        self.inner.topo()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn buf_sizes(&self) -> BufSizes {
        self.inner.buf_sizes()
    }
    fn alloc_temp(&mut self, bytes: usize) -> BufId {
        let c = &mut *self.inner;
        self.rec.time(Op::RtOther, 0, || c.alloc_temp(bytes))
    }
    fn isend(&mut self, dst: usize, tag: Tag, src: Region) -> Req {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtIsend, src.len as u64, || c.isend(dst, tag, src))
    }
    fn irecv(&mut self, src: usize, tag: Tag, dst: Region) -> Req {
        let c = &mut *self.inner;
        self.rec.time(Op::RtIrecv, 0, || c.irecv(src, tag, dst))
    }
    fn isend_shared(&mut self, dst: usize, tag: Tag, src: RemoteRegion) -> Req {
        let c = &mut *self.inner;
        self.rec.time(Op::RtIsend, src.len as u64, || {
            c.isend_shared(dst, tag, src)
        })
    }
    fn irecv_shared(&mut self, src: usize, tag: Tag, dst: RemoteRegion) -> Req {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtIrecv, 0, || c.irecv_shared(src, tag, dst))
    }
    fn wait(&mut self, req: Req) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtWait, 0, || c.wait(req))
    }
    fn post_addr(&mut self, slot: Slot, region: Region) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtOther, 0, || c.post_addr(slot, region))
    }
    fn copy_in(&mut self, from: RemoteRegion, to: Region) {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtCopy, to.len as u64, || c.copy_in(from, to))
    }
    fn copy_out(&mut self, from: Region, to: RemoteRegion) {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtCopy, from.len as u64, || c.copy_out(from, to))
    }
    fn reduce_in(&mut self, from: RemoteRegion, to: Region, op: ReduceOp, dt: Datatype) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtReduce, to.len as u64, || {
            c.reduce_in(from, to, op, dt)
        })
    }
    fn local_copy(&mut self, from: Region, to: Region) {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtCopy, from.len as u64, || c.local_copy(from, to))
    }
    fn local_reduce(&mut self, from: Region, to: Region, op: ReduceOp, dt: Datatype) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtReduce, to.len as u64, || {
            c.local_reduce(from, to, op, dt)
        })
    }
    fn signal(&mut self, rank: usize, flag: FlagId) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtSignal, 0, || c.signal(rank, flag))
    }
    fn wait_flag(&mut self, flag: FlagId, count: u32) {
        let c = &mut *self.inner;
        self.rec
            .time(Op::RtFlagWait, 0, || c.wait_flag(flag, count))
    }
    fn node_barrier(&mut self) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtBarrier, 0, || c.node_barrier())
    }
    fn compute(&mut self, bytes: u64) {
        let c = &mut *self.inner;
        self.rec.time(Op::RtOther, 0, || c.compute(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipmcoll_fabric::{DeadPeer, FabricHealth, TcpConfig, TcpFabric};
    use pipmcoll_rt::run_cluster_on;

    /// A fabric whose every method answers distinctively and logs its
    /// own name, so a wrapper that falls back to a trait default shows.
    #[derive(Default)]
    struct Probe {
        log: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn note(&self, m: &'static str) {
            self.log.lock().unwrap().push(m);
        }
        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.log.lock().unwrap())
        }
    }

    impl Fabric for Probe {
        fn name(&self) -> &'static str {
            self.note("name");
            "probe"
        }
        fn lanes(&self) -> usize {
            self.note("lanes");
            7
        }
        fn send(&self, _: ChanKey, p: Vec<u8>) -> FabricResult<()> {
            self.note("send");
            assert_eq!(p, vec![1, 2, 3]);
            Ok(())
        }
        fn recv_within(&self, _: ChanKey, _: Duration) -> FabricResult<Vec<u8>> {
            self.note("recv_within");
            Ok(vec![4])
        }
        fn recv(&self, _: ChanKey) -> FabricResult<Vec<u8>> {
            self.note("recv");
            Ok(vec![5])
        }
        fn try_recv(&self, _: ChanKey) -> FabricResult<Option<Vec<u8>>> {
            self.note("try_recv");
            Ok(Some(vec![6]))
        }
        fn reset(&self) {
            self.note("reset");
        }
        fn stats(&self) -> FabricStats {
            self.note("stats");
            FabricStats {
                retransmits: 11,
                ..FabricStats::default()
            }
        }
        fn diag(&self) -> FabricDiag {
            self.note("diag");
            FabricDiag {
                dead_lanes: vec![3],
                ..FabricDiag::default()
            }
        }
        fn drain_errors(&self) -> Vec<FabricError> {
            self.note("drain_errors");
            vec![FabricError::LaneDead {
                lane: 2,
                detail: "probe".into(),
            }]
        }
        fn kill_lane(&self, lane: usize) -> bool {
            self.note("kill_lane");
            lane == 1
        }
        fn install_chaos(&self, _: Arc<WireChaos>) -> bool {
            self.note("install_chaos");
            true
        }
        fn health(&self) -> FabricHealth {
            self.note("health");
            FabricHealth {
                dead_peers: vec![DeadPeer {
                    peer: 9,
                    last_seq: 0,
                    attempts: 8,
                }],
                ..FabricHealth::default()
            }
        }
    }

    #[test]
    fn timed_fabric_forwards_every_method() {
        let probe = Arc::new(Probe::default());
        let rec = Arc::new(Recorder::default());
        let f = TimedFabric::new(Arc::clone(&probe), Arc::clone(&rec));
        let k = (0, 1, 2);
        assert_eq!(f.name(), "probe");
        assert_eq!(f.lanes(), 7);
        f.send(k, vec![1, 2, 3]).unwrap();
        assert_eq!(f.recv_within(k, Duration::ZERO).unwrap(), vec![4]);
        assert_eq!(f.recv(k).unwrap(), vec![5]);
        assert_eq!(f.try_recv(k).unwrap(), Some(vec![6]));
        f.reset();
        assert_eq!(f.stats().retransmits, 11);
        assert_eq!(f.diag().dead_lanes, vec![3]);
        assert_eq!(f.drain_errors().len(), 1);
        assert!(f.kill_lane(1));
        let chaos = Arc::new(WireChaos::new(&pipmcoll_fabric::ChaosConfig::default()));
        assert!(f.install_chaos(chaos));
        assert_eq!(f.health().dead_peers[0].peer, 9);
        assert_eq!(
            probe.take(),
            vec![
                "name",
                "lanes",
                "send",
                "recv_within",
                "recv",
                "try_recv",
                "reset",
                "stats",
                "diag",
                "drain_errors",
                "kill_lane",
                "install_chaos",
                "health"
            ],
            "a method fell back to a trait default instead of forwarding"
        );
        let c = rec.counts();
        assert_eq!(c.calls(Op::FabSend), 1);
        assert_eq!(c.bytes(Op::FabSend), 3);
        assert_eq!(c.calls(Op::FabRecv), 2);
        assert_eq!(c.calls(Op::FabTryRecv), 1);
        assert_eq!(c.try_hits, 1);
    }

    fn allreduce_outputs(nodes: usize, ppn: usize, count: usize, timed: bool) -> Vec<Vec<u8>> {
        let topo = Topology::new(nodes, ppn);
        let p = pipmcoll_core::AllreduceParams::sum_doubles(count);
        let fabric = Arc::new(
            TcpFabric::connect(
                topo,
                TcpConfig {
                    lanes: 2,
                    ..TcpConfig::default()
                },
            )
            .expect("loopback fabric"),
        );
        let rec = Recorder::default();
        let inputs = crate::rt_work::seeded_inputs(5, topo.world_size(), count);
        let res = run_cluster_on(
            fabric,
            topo,
            p.buf_sizes(),
            |r| inputs[r].clone(),
            3,
            |c| {
                if timed {
                    let mut t = TimedComm::new(c, &rec);
                    pipmcoll_core::LibraryProfile::PipMColl.allreduce(&mut t, &p);
                } else {
                    pipmcoll_core::LibraryProfile::PipMColl.allreduce(c, &p);
                }
            },
        );
        res.expect_clean();
        if timed {
            assert!(rec.counts().rt_secs() > 0.0, "no rt call was timed");
        }
        res.recv
    }

    #[test]
    fn timed_comm_is_byte_identical_to_bare_rtcomm() {
        for (nodes, ppn, count) in [(2, 1, 16), (2, 1, 32768), (1, 2, 32768)] {
            let bare = allreduce_outputs(nodes, ppn, count, false);
            let timed = allreduce_outputs(nodes, ppn, count, true);
            assert_eq!(bare, timed, "shape {nodes}x{ppn} count {count}");
            let want = crate::rt_work::reference_sum(&crate::rt_work::seeded_inputs(
                5,
                nodes * ppn,
                count,
            ));
            assert!(bare.iter().all(|r| *r == want));
        }
    }

    #[test]
    fn chrome_trace_is_written_for_kept_spans() {
        let rec = Recorder::default();
        rec.keep_spans();
        let t = Instant::now();
        rec.add(Op::RtCopy, 64, t, t + Duration::from_micros(3));
        let path = std::env::temp_dir().join(format!("pipmcoll-trace-{}.json", std::process::id()));
        assert_eq!(rec.write_chrome_trace(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.contains("\"name\":\"rt.copy\""), "{text}");
        assert!(text.contains("\"dur\":3.000"), "{text}");
    }
}
