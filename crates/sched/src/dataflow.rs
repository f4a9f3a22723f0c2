//! Dataflow interpreter: executes a recorded [`Schedule`] on real byte
//! buffers, enforcing the blocking semantics of every op.
//!
//! This is the *correctness* backend. It is used to prove that every
//! collective algorithm in `pipmcoll-core` produces MPI-correct results for
//! arbitrary `(N, P, M)` — and, by replaying the same schedule under
//! different rank-interleaving policies and comparing outputs, to detect
//! schedules whose result depends on scheduling (i.e. data races that the
//! algorithm's flags/barriers fail to order).
//!
//! It is a loop over the crate's one executor, [`Exec`]: every send is
//! delivered to its channel right after the step that issued it, so a
//! run is strictly sequential and deterministic for a given
//! [`SchedulingPolicy`].

use crate::exec::Exec;
use crate::ids::BufId;
use crate::schedule::Schedule;

/// Rank-interleaving policy for the interpreter's outer loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Sweep ranks 0..world in order, one op each.
    RoundRobin,
    /// Sweep ranks world..0 in order.
    ReverseRoundRobin,
    /// Pseudo-random rank order per sweep, seeded (deterministic; uses an
    /// internal LCG so the crate needs no RNG dependency).
    Random(u64),
    /// Run each rank as far as it can go before moving on (depth-first);
    /// maximises batching, the other extreme from RoundRobin.
    Greedy,
}

impl SchedulingPolicy {
    /// The standard set used for race checking.
    pub const RACE_CHECK_SET: [SchedulingPolicy; 4] = [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::ReverseRoundRobin,
        SchedulingPolicy::Random(0x9E3779B97F4A7C15),
        SchedulingPolicy::Greedy,
    ];
}

/// Execution failure: a deadlock (no rank can make progress) or an invalid
/// access discovered at run time.
#[derive(Clone, Debug)]
pub struct DataflowError {
    /// Description, including per-rank stuck positions on deadlock.
    pub message: String,
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataflow error: {}", self.message)
    }
}

impl std::error::Error for DataflowError {}

/// Final buffer contents after a successful execution.
#[derive(Clone, Debug)]
pub struct DataflowResult {
    /// Final receive-buffer contents, indexed by rank.
    pub recv: Vec<Vec<u8>>,
    /// Final send-buffer contents, indexed by rank (normally unchanged).
    pub send: Vec<Vec<u8>>,
    /// Total ops executed (equals the schedule's op count on success).
    pub ops_executed: usize,
}

/// One op of rank `r`, its send (if any) delivered at once.
fn step(exec: &mut Exec<&Schedule>, r: usize) -> Result<bool, DataflowError> {
    let progressed = exec.step(r)?;
    exec.loop_back();
    Ok(progressed)
}

/// Simple xorshift-style generator so `Random` policies need no crates.
fn next_lcg(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Execute `sched` with send buffers from `send_init` and zeroed receive
/// buffers.
pub fn execute(
    sched: &Schedule,
    mut send_init: impl FnMut(usize) -> Vec<u8>,
    policy: SchedulingPolicy,
) -> Result<DataflowResult, DataflowError> {
    let sizes: Vec<usize> = sched.programs().iter().map(|p| p.sizes.recv).collect();
    execute_with(sched, &mut send_init, &mut |r| vec![0u8; sizes[r]], policy)
}

/// Execute with explicit initial contents for both user buffers.
pub fn execute_with(
    sched: &Schedule,
    send_init: &mut dyn FnMut(usize) -> Vec<u8>,
    recv_init: &mut dyn FnMut(usize) -> Vec<u8>,
    policy: SchedulingPolicy,
) -> Result<DataflowResult, DataflowError> {
    let world = sched.topo().world_size();
    let mut exec = Exec::new(sched);
    for rank in 0..world {
        for (what, buf, init) in [
            ("send", BufId::Send, send_init(rank)),
            ("recv", BufId::Recv, recv_init(rank)),
        ] {
            let dst = exec.buffer_mut(rank, buf);
            if init.len() != dst.len() {
                return Err(DataflowError {
                    message: format!(
                        "rank {rank}: {what} init produced {} bytes, program declares {}",
                        init.len(),
                        dst.len()
                    ),
                });
            }
            dst.copy_from_slice(&init);
        }
    }
    let mut order: Vec<usize> = (0..world).collect();
    let mut rng_state: u64 = match policy {
        SchedulingPolicy::Random(seed) => seed | 1,
        _ => 1,
    };
    while !exec.done() {
        match policy {
            SchedulingPolicy::RoundRobin | SchedulingPolicy::Greedy => {}
            SchedulingPolicy::ReverseRoundRobin => order.reverse(),
            SchedulingPolicy::Random(_) => {
                // Fisher-Yates with the internal generator.
                for i in (1..world).rev() {
                    let j = (next_lcg(&mut rng_state) % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
        }
        let mut progressed = false;
        for &r in &order {
            match policy {
                SchedulingPolicy::Greedy => {
                    while step(&mut exec, r)? {
                        progressed = true;
                    }
                }
                _ => {
                    if step(&mut exec, r)? {
                        progressed = true;
                    }
                }
            }
        }
        if matches!(policy, SchedulingPolicy::ReverseRoundRobin) {
            order.reverse(); // restore ascending for the next flip
        }
        if !progressed {
            return Err(DataflowError {
                message: exec.deadlock_report(),
            });
        }
    }
    let buffers = |buf| (0..world).map(|r| exec.buffer(r, buf).to_vec()).collect();
    Ok(DataflowResult {
        recv: buffers(BufId::Recv),
        send: buffers(BufId::Send),
        ops_executed: exec.ops_executed(),
    })
}

/// Execute under every policy in [`SchedulingPolicy::RACE_CHECK_SET`] and
/// require identical results — a practical schedule-level race detector.
pub fn execute_race_checked(
    sched: &Schedule,
    send_init: impl Fn(usize) -> Vec<u8>,
) -> Result<DataflowResult, DataflowError> {
    let mut first: Option<DataflowResult> = None;
    for policy in SchedulingPolicy::RACE_CHECK_SET {
        let res = execute(sched, &send_init, policy)?;
        if let Some(f) = &first {
            if f.recv != res.recv {
                return Err(DataflowError {
                    message: format!(
                        "schedule is racy: results differ between policies (policy {policy:?})"
                    ),
                });
            }
        } else {
            first = Some(res);
        }
    }
    Ok(first.expect("RACE_CHECK_SET is non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BufSizes, Comm};
    use crate::ids::{BufId, Region, RemoteRegion};
    use crate::trace::record;
    use pipmcoll_model::{Datatype, ReduceOp, Topology};

    fn topo22() -> Topology {
        Topology::new(2, 2)
    }

    #[test]
    fn pingpong_moves_data() {
        let s = record(topo22(), BufSizes::new(4, 4), |c| {
            if c.rank() == 0 {
                c.send(2, 0, Region::new(BufId::Send, 0, 4));
            } else if c.rank() == 2 {
                c.recv(0, 0, Region::new(BufId::Recv, 0, 4));
            }
        });
        let res = execute(&s, |r| vec![r as u8; 4], SchedulingPolicy::RoundRobin).unwrap();
        assert_eq!(res.recv[2], vec![0u8; 4]);
        assert_eq!(res.send[0], vec![0u8; 4]);
        // Rank 2's recv got rank 0's send pattern (all zeros) — use a
        // distinguishable pattern instead:
        let res = execute(&s, |r| vec![r as u8 + 10; 4], SchedulingPolicy::Greedy).unwrap();
        assert_eq!(res.recv[2], vec![10u8; 4]);
    }

    #[test]
    fn shared_copy_through_board() {
        // Rank 1 posts its send buffer; rank 0 copies it in after a signal.
        let s = record(topo22(), BufSizes::new(4, 4), |c| match c.local() {
            1 => {
                c.post_addr(0, Region::new(BufId::Send, 0, 4));
                c.signal(c.local_root(), 0);
            }
            0 => {
                c.wait_flag(0, 1);
                c.copy_in(
                    RemoteRegion::new(c.rank() + 1, 0, 0, 4),
                    Region::new(BufId::Recv, 0, 4),
                );
            }
            _ => unreachable!(),
        });
        s.validate().unwrap();
        let res = execute_race_checked(&s, |r| vec![r as u8; 4]).unwrap();
        assert_eq!(res.recv[0], vec![1u8; 4]);
        assert_eq!(res.recv[2], vec![3u8; 4]);
    }

    #[test]
    fn reduce_in_accumulates() {
        let s = record(topo22(), BufSizes::new(8, 8), |c| match c.local() {
            1 => {
                c.post_addr(0, Region::new(BufId::Send, 0, 8));
                c.signal(c.local_root(), 0);
                c.node_barrier();
            }
            0 => {
                c.local_copy(
                    Region::new(BufId::Send, 0, 8),
                    Region::new(BufId::Recv, 0, 8),
                );
                c.wait_flag(0, 1);
                c.reduce_in(
                    RemoteRegion::new(c.rank() + 1, 0, 0, 8),
                    Region::new(BufId::Recv, 0, 8),
                    ReduceOp::Sum,
                    Datatype::Double,
                );
                c.node_barrier();
            }
            _ => unreachable!(),
        });
        s.validate().unwrap();
        let res = execute_race_checked(&s, |r| {
            pipmcoll_model::dtype::doubles_to_bytes(&[r as f64 + 1.0])
        })
        .unwrap();
        let v0 = pipmcoll_model::dtype::bytes_to_doubles(&res.recv[0]);
        assert_eq!(v0, vec![3.0]); // ranks 0+1 contribute 1.0+2.0
        let v2 = pipmcoll_model::dtype::bytes_to_doubles(&res.recv[2]);
        assert_eq!(v2, vec![7.0]); // ranks 2+3 contribute 3.0+4.0
    }

    #[test]
    fn deadlock_detected() {
        // Two ranks each wait for a flag nobody raises first... simplest:
        // rank 0 waits a flag that is signalled only after rank 1 passes a
        // barrier rank 0 never reaches -> circular.
        let s = record(topo22(), BufSizes::new(0, 0), |c| match c.local() {
            0 => {
                c.wait_flag(0, 1);
                c.node_barrier();
            }
            1 => {
                c.node_barrier();
                c.signal(c.local_root(), 0);
            }
            _ => unreachable!(),
        });
        let err = execute(&s, |_| vec![], SchedulingPolicy::RoundRobin).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
    }

    #[test]
    fn fifo_ordering_on_channel() {
        // Two messages on one channel must arrive in order.
        let s = record(topo22(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 7, Region::new(BufId::Send, 0, 4));
                c.send(2, 7, Region::new(BufId::Send, 4, 4));
            } else if c.rank() == 2 {
                let r1 = c.irecv(0, 7, Region::new(BufId::Recv, 0, 4));
                let r2 = c.irecv(0, 7, Region::new(BufId::Recv, 4, 4));
                c.wait(r2);
                c.wait(r1);
            }
        });
        s.validate().unwrap();
        let res = execute_race_checked(&s, |r| {
            if r == 0 {
                vec![1, 1, 1, 1, 2, 2, 2, 2]
            } else {
                vec![0u8; 8]
            }
        })
        .unwrap();
        assert_eq!(res.recv[2], vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn racy_schedule_flagged() {
        // Rank 1 posts + copies-out into root's recv without any ordering
        // vs root's own local_copy into the same region: racy by design.
        let s = record(topo22(), BufSizes::new(4, 4), |c| match c.local() {
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
        });
        let err = execute_race_checked(&s, |r| vec![r as u8; 4]).unwrap_err();
        assert!(err.message.contains("racy"), "{err}");
    }

    #[test]
    fn barrier_synchronises_all_node_ranks() {
        let t = Topology::new(1, 4);
        let s = record(t, BufSizes::new(4, 4), |c| {
            if c.local() != 0 {
                c.post_addr(0, Region::new(BufId::Send, 0, 4));
            }
            c.node_barrier();
            if c.local() == 0 {
                for l in 1..4 {
                    c.copy_in(
                        RemoteRegion::new(l, 0, 0, 4),
                        Region::new(BufId::Recv, 0, 4),
                    );
                }
            }
            c.node_barrier();
        });
        s.validate().unwrap();
        let res = execute_race_checked(&s, |r| vec![r as u8; 4]).unwrap();
        // Last copy wins deterministically (program order within rank 0).
        assert_eq!(res.recv[0], vec![3u8; 4]);
    }
}
