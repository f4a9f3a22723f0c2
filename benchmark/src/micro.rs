//! Single-layer kernels timed in isolation, each on the shape its
//! workload exercises: frame encode/decode and CRC (fabric), the
//! reduction kernel (model), non-blocking planning and stepping (core),
//! and schedule record/validate/happens-before (sched).

use std::hint::black_box;
use std::time::{Duration, Instant};

use pipmcoll_core::nb::CollSpec;
use pipmcoll_core::{AllreduceParams, LibraryProfile};
use pipmcoll_fabric::wire::{crc32c, Frame, FrameDecoder, FrameKind};
use pipmcoll_model::{reduce_into, Datatype, ReduceOp, Topology};
use pipmcoll_sched::{hb, record_with_sizes, Schedule};

use crate::stats::percentile;

/// Median over five rounds of the mean cost of one `f()` call, in ns;
/// each round repeats `f` until `budget` has passed.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut n = 0u64;
            while n < 4 || t0.elapsed() < budget {
                f();
                n += 1;
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    percentile(&mut rounds, 0.5)
}

/// Encode one 64-byte eager frame (header, CRC-32C, payload copy).
pub fn wire_encode_ns_64b(budget: Duration) -> f64 {
    let mut frame = eager(0);
    let mut out = Vec::with_capacity(256);
    ns_per_call(budget, || {
        frame.seq = frame.seq.wrapping_add(1);
        frame.encode_into(&mut out);
        black_box(&out);
    })
}

/// Decode one 64-byte eager frame from a stream of 256 of them.
pub fn wire_decode_ns_64b(budget: Duration) -> f64 {
    let mut stream = Vec::new();
    for s in 0..256 {
        stream.extend_from_slice(&eager(s).encode());
    }
    ns_per_call(budget, || {
        let mut d = FrameDecoder::new();
        d.feed(&stream);
        let mut n = 0;
        while let Ok(Some(f)) = d.next_frame() {
            black_box(&f);
            n += 1;
        }
        assert_eq!(n, 256, "decoder lost frames");
    }) / 256.0
}

fn eager(seq: u64) -> Frame {
    Frame {
        kind: FrameKind::Eager,
        src: 0,
        dst: 1,
        tag: 7,
        seq,
        aux: 0,
        seg_idx: 0,
        seg_count: 0,
        payload: (0..64u8).collect(),
    }
}

/// CRC-32C throughput over a 256 KiB buffer, GB/s.
pub fn crc_gb_s_256kib(budget: Duration) -> f64 {
    let buf: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let ns = ns_per_call(budget, || {
        black_box(crc32c(black_box(&buf)));
    });
    buf.len() as f64 / ns
}

/// `reduce_into` (sum of doubles) throughput over 256 KiB, GB/s of input.
pub fn reduce_gb_s(budget: Duration) -> f64 {
    let src: Vec<u8> = (0..32768).flat_map(|i| (i as f64).to_le_bytes()).collect();
    let mut acc = vec![0u8; src.len()];
    let ns = ns_per_call(budget, || {
        reduce_into(ReduceOp::Sum, Datatype::Double, &mut acc, black_box(&src));
        black_box(&acc);
    });
    src.len() as f64 / ns
}

/// Costs of planning and stepping one non-blocking collective.
pub struct NbCosts {
    pub plan_us: f64,
    pub step_ns_per_msg: f64,
    pub msgs_per_coll: f64,
}

/// Plan `spec`, then drive it to completion through an in-process
/// loopback pump (every emitted message delivered at once, FIFO).
pub fn nb_costs(spec: &CollSpec, budget: Duration) -> NbCosts {
    let plan_us = ns_per_call(budget, || {
        black_box(spec.plan());
    }) / 1e3;
    let mut msgs = 0u64;
    let mut pumped = 0u64;
    let mut pump_ns = 0u128;
    let t_end = Instant::now() + budget * 5;
    while pumped < 4 || Instant::now() < t_end {
        let mut coll = spec.plan();
        let t0 = Instant::now();
        let mut queue: std::collections::VecDeque<_> = coll.start().into();
        let mut n = 0u64;
        while let Some(m) = queue.pop_front() {
            n += 1;
            queue.extend(coll.deliver(m.src, m.dst, m.phase, m.payload));
        }
        pump_ns += t0.elapsed().as_nanos();
        assert!(coll.done(), "loopback pump left the collective unfinished");
        black_box(coll.outputs());
        msgs = n;
        pumped += 1;
    }
    NbCosts {
        plan_us,
        step_ns_per_msg: pump_ns as f64 / (pumped * msgs.max(1)) as f64,
        msgs_per_coll: msgs as f64,
    }
}

/// Wall time of each step that admits a recorded schedule for execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedCosts {
    pub record: Duration,
    pub validate: Duration,
    pub hb_check: Duration,
}

/// Record the PiP-MColl allreduce on `topo`, validate it and prove it
/// race-free — the checks `run_cluster_verified` performs before it
/// executes anything.
pub fn record_and_check(
    topo: Topology,
    p: &AllreduceParams,
) -> Result<(Schedule, SchedCosts), String> {
    let t0 = Instant::now();
    let sched = record_with_sizes(topo, p.buf_sizes(), |c| {
        LibraryProfile::PipMColl.allreduce(c, p)
    });
    let t1 = Instant::now();
    sched
        .validate()
        .map_err(|e| format!("schedule validation: {e}"))?;
    let t2 = Instant::now();
    hb::check(&sched).map_err(|e| format!("happens-before: {e}"))?;
    let t3 = Instant::now();
    Ok((
        sched,
        SchedCosts {
            record: t1 - t0,
            validate: t2 - t1,
            hb_check: t3 - t2,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_positive_rates() {
        let b = Duration::from_millis(2);
        assert!(wire_encode_ns_64b(b) > 0.0);
        assert!(wire_decode_ns_64b(b) > 0.0);
        assert!(crc_gb_s_256kib(b) > 0.0);
        assert!(reduce_gb_s(b) > 0.0);
    }

    #[test]
    fn loopback_pump_counts_binomial_messages() {
        let inputs = vec![vec![0u8; 64]; 4];
        let spec = CollSpec::Allreduce {
            dt: Datatype::Int32,
            op: ReduceOp::Sum,
            inputs,
        };
        let c = nb_costs(&spec, Duration::from_millis(1));
        // Binomial reduce then broadcast over 4 ranks: 3 + 3 messages.
        assert_eq!(c.msgs_per_coll, 6.0);
        assert!(c.plan_us > 0.0 && c.step_ns_per_msg > 0.0);
    }
}
