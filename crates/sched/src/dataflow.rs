//! Dataflow interpreter: executes a recorded [`Schedule`] on real byte
//! buffers, enforcing the blocking semantics of every op.
//!
//! It is a loop over the crate's one executor, [`Exec`]: ranks run in
//! ascending order, each until it blocks, and the sends a rank issued
//! are delivered to their channels before the next rank runs. A run is
//! strictly sequential and has one fixed order, so it shows what the
//! schedule computes in that order and nothing about any other. Whether
//! every order computes the same is [`crate::hb::check`]'s proof;
//! [`crate::verify::run`] asks for it before executing. [`execute`]
//! itself is the raw interpreter: it runs whatever it is given, and
//! reports a deadlock or a run-time fault as a [`DataflowError`].

use crate::exec::Exec;
use crate::ids::BufId;
use crate::schedule::Schedule;

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
}

/// Execute `sched` with send buffers from `send_init` and zeroed receive
/// buffers: sweep the ranks in ascending order, each until it blocks,
/// until all finish or a whole sweep makes no progress (a deadlock).
pub fn execute(
    sched: &Schedule,
    mut send_init: impl FnMut(usize) -> Vec<u8>,
) -> Result<DataflowResult, DataflowError> {
    let world = sched.topo().world_size();
    let mut exec = Exec::new(sched);
    for rank in 0..world {
        let init = send_init(rank);
        let dst = exec.buffer_mut(rank, BufId::Send);
        if init.len() != dst.len() {
            return Err(DataflowError {
                message: format!(
                    "rank {rank}: send init produced {} bytes, program declares {}",
                    init.len(),
                    dst.len()
                ),
            });
        }
        dst.copy_from_slice(&init);
    }
    while !exec.done() {
        let mut progressed = 0;
        for rank in 0..world {
            progressed += exec.run(rank)?;
            exec.loop_back();
        }
        if progressed == 0 {
            return Err(DataflowError {
                message: exec.deadlock_report(),
            });
        }
    }
    let buffers = |buf| (0..world).map(|r| exec.buffer(r, buf).to_vec()).collect();
    Ok(DataflowResult {
        recv: buffers(BufId::Recv),
        send: buffers(BufId::Send),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BufSizes, Comm};
    use crate::ids::{BufId, Region, RemoteRegion};
    use crate::trace::record;
    use crate::verify::run;
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
        let res = execute(&s, |r| vec![r as u8 + 10; 4]).unwrap();
        assert_eq!(res.recv[2], vec![10u8; 4]);
        assert_eq!(res.send[0], vec![10u8; 4], "a send leaves its buffer as is");
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
        let res = run(&s, |r| vec![r as u8; 4]).unwrap();
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
        let res = run(&s, |r| {
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
        let err = execute(&s, |_| vec![]).unwrap_err();
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
        let res = run(&s, |r| {
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
        let res = run(&s, |r| vec![r as u8; 4]).unwrap();
        // Last copy wins deterministically (program order within rank 0).
        assert_eq!(res.recv[0], vec![3u8; 4]);
    }
}
