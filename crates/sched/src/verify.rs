//! Prove, then execute: the one checked way to run a schedule, and the
//! collective-semantics checkers shared by unit, integration and
//! property tests.
//!
//! [`run`] proves a schedule safe once — structural validation, then the
//! sound happens-before race and deadlock analysis ([`crate::hb::check`])
//! — and then executes it once, in the dataflow interpreter's one order.
//! Each collective has a precise MPI specification; the `check_*`
//! helpers build deterministic per-rank input patterns, [`run`] the
//! schedule, and compare against the spec.

use pipmcoll_model::dtype::{bytes_to_doubles, doubles_to_bytes};
use pipmcoll_model::ReduceOp;

use crate::dataflow::{execute, DataflowResult};
use crate::schedule::Schedule;

/// Deterministic, rank- and position-dependent test pattern. Distinct ranks
/// produce distinct bytes at every offset, so misrouted chunks are caught.
pub fn pattern(rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (rank.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) & 0xff) as u8)
        .collect()
}

/// Deterministic doubles pattern for reduction tests; values are small
/// integers so floating-point sums are exact.
pub fn double_pattern(rank: usize, count: usize) -> Vec<f64> {
    (0..count).map(|i| (rank * 3 + i % 17) as f64).collect()
}

/// Run and check **scatter** semantics: the root's send buffer holds
/// `world * cb` bytes; afterwards every rank's recv buffer must hold its
/// `cb`-byte chunk.
pub fn check_scatter(sched: &Schedule, root: usize, cb: usize) -> Result<(), String> {
    let world = sched.topo().world_size();
    let root_payload = pattern(root, world * cb);
    let res = run(sched, |r| {
        if r == root {
            root_payload.clone()
        } else {
            Vec::new()
        }
    })?;
    for rank in 0..world {
        let expect = &root_payload[rank * cb..(rank + 1) * cb];
        if res.recv[rank] != expect {
            return Err(format!(
                "scatter: rank {rank} got wrong chunk (first bytes {:?} vs {:?})",
                &res.recv[rank][..cb.min(8)],
                &expect[..cb.min(8)]
            ));
        }
    }
    Ok(())
}

/// Run and check **allgather** semantics: every rank contributes `cb` bytes;
/// afterwards every rank's recv buffer is the rank-ordered concatenation.
pub fn check_allgather(sched: &Schedule, cb: usize) -> Result<(), String> {
    let world = sched.topo().world_size();
    let res = run(sched, |r| pattern(r, cb))?;
    let mut expect = Vec::with_capacity(world * cb);
    for r in 0..world {
        expect.extend_from_slice(&pattern(r, cb));
    }
    for rank in 0..world {
        if res.recv[rank] != expect {
            let bad = first_diff(&res.recv[rank], &expect);
            return Err(format!(
                "allgather: rank {rank} mismatch at byte {bad} (chunk {}, expected chunk of rank {})",
                bad / cb,
                bad / cb
            ));
        }
    }
    Ok(())
}

/// Run and check **allreduce(SUM, double)** semantics: every rank
/// contributes `count` doubles; afterwards every rank holds the elementwise
/// sum.
pub fn check_allreduce_sum(sched: &Schedule, count: usize) -> Result<(), String> {
    let world = sched.topo().world_size();
    let res = run(sched, |r| doubles_to_bytes(&double_pattern(r, count)))?;
    let mut expect = vec![0f64; count];
    for r in 0..world {
        for (e, v) in expect.iter_mut().zip(double_pattern(r, count)) {
            *e += v;
        }
    }
    for rank in 0..world {
        let got = bytes_to_doubles(&res.recv[rank]);
        if got != expect {
            let bad = got
                .iter()
                .zip(&expect)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(format!(
                "allreduce: rank {rank} element {bad}: got {} expected {}",
                got[bad], expect[bad]
            ));
        }
    }
    Ok(())
}

/// Reference elementwise reduction over all ranks' double patterns, for
/// checking non-SUM operators.
pub fn reference_reduce(op: ReduceOp, world: usize, count: usize) -> Vec<f64> {
    let mut acc = double_pattern(0, count);
    for r in 1..world {
        for (a, v) in acc.iter_mut().zip(double_pattern(r, count)) {
            *a = match op {
                ReduceOp::Sum => *a + v,
                ReduceOp::Max => a.max(v),
                ReduceOp::Min => a.min(v),
                ReduceOp::Prod => *a * v,
            };
        }
    }
    acc
}

/// Validate `sched`, prove it free of races and deadlocks under every
/// interleaving ([`crate::hb::check`]), then execute it once
/// ([`execute`]) with send buffers from `send_init`. A schedule that
/// fails either proof is refused before any buffer is filled; the error
/// names the failing stage (`validation`, `happens-before` or the
/// dataflow error).
pub fn run(
    sched: &Schedule,
    send_init: impl FnMut(usize) -> Vec<u8>,
) -> Result<DataflowResult, String> {
    sched.validate().map_err(|e| format!("validation: {e}"))?;
    crate::hb::check(sched).map_err(|e| format!("happens-before: {e}"))?;
    execute(sched, send_init).map_err(|e| e.to_string())
}

fn first_diff(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BufSizes, Comm};
    use crate::ids::{BufId, Region, RemoteRegion};
    use crate::trace::record;
    use pipmcoll_model::Topology;

    #[test]
    fn racy_schedule_refused_before_any_byte_moves() {
        // Rank 1 copies out into root's recv without any ordering vs
        // root's own local_copy into the same region: racy by design
        // (hb.rs's `unsignalled_shared_write_is_a_race` names the pair).
        let s = record(Topology::new(2, 2), BufSizes::new(4, 4), |c| {
            match c.local() {
                0 => {
                    c.post_addr(0, Region::new(BufId::Recv, 0, 4));
                    c.local_copy(
                        Region::new(BufId::Send, 0, 4),
                        Region::new(BufId::Recv, 0, 4),
                    );
                    c.node_barrier();
                }
                1 => {
                    c.copy_out(
                        Region::new(BufId::Send, 0, 4),
                        RemoteRegion::new(c.local_root(), 0, 0, 4),
                    );
                    c.node_barrier();
                }
                _ => unreachable!(),
            }
        });
        let mut filled = 0;
        let err = run(&s, |r| {
            filled += 1;
            vec![r as u8; 4]
        })
        .unwrap_err();
        assert!(err.starts_with("happens-before"), "{err}");
        assert_eq!(filled, 0, "a refused schedule fills no buffer");
    }

    #[test]
    fn patterns_distinguish_ranks() {
        assert_ne!(pattern(0, 16), pattern(1, 16));
        assert_ne!(pattern(1, 16), pattern(2, 16));
    }

    #[test]
    fn patterns_distinguish_offsets() {
        let p = pattern(3, 16);
        assert!(p.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn double_pattern_integral() {
        for v in double_pattern(5, 40) {
            assert_eq!(v, v.trunc());
        }
    }

    #[test]
    fn reference_reduce_sum_matches_manual() {
        let s = reference_reduce(ReduceOp::Sum, 3, 4);
        let manual: Vec<f64> = (0..4)
            .map(|i| (0..3).map(|r| (r * 3 + i % 17) as f64).sum())
            .collect();
        assert_eq!(s, manual);
    }

    #[test]
    fn reference_reduce_max() {
        let m = reference_reduce(ReduceOp::Max, 4, 2);
        assert_eq!(m, vec![9.0, 10.0]); // rank 3: 9, 10
    }
}
