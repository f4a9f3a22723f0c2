//! The recorded schedule and its static validator.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use pipmcoll_model::Topology;

use crate::comm::BufSizes;
use crate::exec::Wiring;
use crate::ids::{BufId, Region};
use crate::op::Op;

/// One rank's straight-line program plus its buffer requirements.
#[derive(Clone, Debug)]
pub struct RankProgram {
    /// User buffer sizes this rank declared.
    pub sizes: BufSizes,
    /// Sizes of scratch buffers, indexed by `BufId::Temp(i)`.
    pub temps: Vec<usize>,
    /// The ops, in program order.
    pub ops: Vec<Op>,
}

impl RankProgram {
    /// Capacity of a named buffer, if it exists.
    pub fn buf_capacity(&self, buf: BufId) -> Option<usize> {
        match buf {
            BufId::Send => Some(self.sizes.send),
            BufId::Recv => Some(self.sizes.recv),
            BufId::Temp(i) => self.temps.get(i as usize).copied(),
        }
    }

    /// Whether `region` fits in this rank's buffers.
    pub fn region_in_bounds(&self, region: &Region) -> bool {
        self.buf_capacity(region.buf)
            .is_some_and(|cap| region.end() <= cap)
    }

    /// Total payload bytes this rank sends over the network.
    pub fn net_bytes_sent(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::ISend { src, .. } => Some(src.len as u64),
                Op::ISendShared { src, .. } => Some(src.len as u64),
                _ => None,
            })
            .sum()
    }

    /// Number of network messages this rank sends.
    pub fn net_msgs_sent(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::ISend { .. } | Op::ISendShared { .. }))
            .count() as u64
    }
}

/// A complete multi-rank communication schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    topo: Topology,
    programs: Vec<RankProgram>,
    /// Built on first use; reset by `programs_mut`.
    wiring: OnceLock<Wiring>,
}

/// A static validation failure, with the offending rank and op index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// Rank whose program is at fault (or a representative rank).
    pub rank: usize,
    /// Op index within that rank's program, when applicable.
    pub op_index: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "rank {} op {}: {}", self.rank, i, self.message),
            None => write!(f, "rank {}: {}", self.rank, self.message),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Schedule {
    /// Bundle programs with their topology.
    ///
    /// # Panics
    /// Panics if the number of programs does not match the world size.
    pub fn new(topo: Topology, programs: Vec<RankProgram>) -> Self {
        assert_eq!(
            programs.len(),
            topo.world_size(),
            "one program per rank required"
        );
        Schedule {
            topo,
            programs,
            wiring: OnceLock::new(),
        }
    }

    /// The topology this schedule was recorded for.
    pub fn topo(&self) -> Topology {
        self.topo
    }

    /// All rank programs, indexed by global rank.
    pub fn programs(&self) -> &[RankProgram] {
        &self.programs
    }

    /// Mutable access to the rank programs, for tests that inject faults
    /// (dropped waits, mis-tagged receives) into otherwise-correct
    /// schedules. Replace ops in place rather than removing them:
    /// [`crate::ids::Req`] values index into the issuing rank's op list.
    pub fn programs_mut(&mut self) -> &mut [RankProgram] {
        self.wiring = OnceLock::new();
        &mut self.programs
    }

    /// The send→receive matching — every channel and each message op's
    /// position on it — and the buffer layout, computed once and shared
    /// by the executor, validation and the happens-before analysis.
    pub fn wiring(&self) -> &Wiring {
        self.wiring.get_or_init(|| Wiring::new(self))
    }

    /// Total network messages across all ranks.
    pub fn total_net_msgs(&self) -> u64 {
        self.programs.iter().map(|p| p.net_msgs_sent()).sum()
    }

    /// Total network payload bytes across all ranks.
    pub fn total_net_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.net_bytes_sent()).sum()
    }

    /// Total ops across all ranks (a size proxy for benchmarks).
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(|p| p.ops.len()).sum()
    }

    /// Static validation: bounds, send/recv matching, barrier counts,
    /// intranode-only shared access, flag satisfiability. Deadlock freedom
    /// and data races are checked dynamically by the dataflow interpreter.
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.check_bounds()?;
        self.check_sendrecv_matching()?;
        self.check_barrier_counts()?;
        self.check_intranode_shared_access()?;
        self.check_flag_satisfiability()?;
        Ok(())
    }

    fn err(rank: usize, op_index: Option<usize>, message: String) -> ValidationError {
        ValidationError {
            rank,
            op_index,
            message,
        }
    }

    fn check_bounds(&self) -> Result<(), ValidationError> {
        for (rank, prog) in self.programs.iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                let regions: Vec<Region> = match op {
                    Op::ISend { src, .. } => vec![*src],
                    Op::IRecv { dst, .. } => vec![*dst],
                    Op::PostAddr { region, .. } => vec![*region],
                    Op::CopyIn { to, .. } => vec![*to],
                    Op::CopyOut { from, .. } => vec![*from],
                    Op::ReduceIn { to, .. } => vec![*to],
                    Op::LocalCopy { from, to } => vec![*from, *to],
                    Op::LocalReduce { from, to, .. } => vec![*from, *to],
                    _ => vec![],
                };
                for r in regions {
                    if !prog.region_in_bounds(&r) {
                        return Err(Self::err(
                            rank,
                            Some(i),
                            format!("region {r} out of bounds"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_sendrecv_matching(&self) -> Result<(), ValidationError> {
        // On each directed (src, dst, tag) channel the sequences of send
        // sizes and recv sizes must be identical (MPI non-overtaking order).
        for ch in self.wiring().channels() {
            let sizes = |rank: usize, ops: &[usize]| -> Vec<u64> {
                ops.iter()
                    .map(|&i| self.programs[rank].ops[i].bytes())
                    .collect()
            };
            let (s, r) = (sizes(ch.src, &ch.sends), sizes(ch.dst, &ch.recvs));
            if s.is_empty() {
                return Err(Self::err(
                    ch.dst,
                    None,
                    format!(
                        "recv without sender on channel {}->{} tag {}",
                        ch.src, ch.dst, ch.tag
                    ),
                ));
            }
            if s != r {
                return Err(Self::err(
                    ch.src,
                    None,
                    format!(
                        "unmatched channel {}->{} tag {}: sends {s:?} vs recvs {r:?}",
                        ch.src, ch.dst, ch.tag
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_barrier_counts(&self) -> Result<(), ValidationError> {
        for node in 0..self.topo.nodes() {
            let counts: Vec<usize> = self
                .topo
                .ranks_on_node(node)
                .map(|r| {
                    self.programs[r]
                        .ops
                        .iter()
                        .filter(|o| matches!(o, Op::NodeBarrier))
                        .count()
                })
                .collect();
            if counts.windows(2).any(|w| w[0] != w[1]) {
                return Err(Self::err(
                    self.topo.local_root(node),
                    None,
                    format!("node {node} barrier count mismatch: {counts:?}"),
                ));
            }
        }
        Ok(())
    }

    fn check_intranode_shared_access(&self) -> Result<(), ValidationError> {
        for (rank, prog) in self.programs.iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                let peer = match op {
                    Op::CopyIn { from, .. } => Some(from.rank),
                    Op::CopyOut { to, .. } => Some(to.rank),
                    Op::ReduceIn { from, .. } => Some(from.rank),
                    Op::ISendShared { src, .. } => Some(src.rank),
                    Op::IRecvShared { dst, .. } => Some(dst.rank),
                    Op::Signal { rank: r, .. } => Some(*r),
                    _ => None,
                };
                if let Some(p) = peer {
                    if !self.topo.same_node(rank, p) {
                        return Err(Self::err(
                            rank,
                            Some(i),
                            format!("shared-address access to rank {p} crosses nodes"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_flag_satisfiability(&self) -> Result<(), ValidationError> {
        // Total signals delivered to (rank, flag) must cover the largest
        // count any WaitFlag on that rank demands.
        let mut delivered: HashMap<(usize, u16), u32> = HashMap::new();
        for prog in self.programs.iter() {
            for op in &prog.ops {
                if let Op::Signal { rank: r, flag } = op {
                    *delivered.entry((*r, *flag)).or_default() += 1;
                }
            }
        }
        for (rank, prog) in self.programs.iter().enumerate() {
            for (i, op) in prog.ops.iter().enumerate() {
                if let Op::WaitFlag { flag, count } = op {
                    let have = delivered.get(&(rank, *flag)).copied().unwrap_or(0);
                    if have < *count {
                        return Err(Self::err(
                            rank,
                            Some(i),
                            format!("wait_flag({flag}, {count}) but only {have} signals exist"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::ids::{BufId, Region};
    use crate::trace::record;

    fn topo() -> Topology {
        Topology::new(2, 2)
    }

    #[test]
    fn valid_pingpong_schedule() {
        let s = record(topo(), BufSizes::new(8, 8), |c| {
            // Rank 0 on node 0 sends to rank 2 on node 1.
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            } else if c.rank() == 2 {
                c.recv(0, 1, Region::new(BufId::Recv, 0, 8));
            }
        });
        s.validate().expect("valid schedule");
        assert_eq!(s.total_net_msgs(), 1);
        assert_eq!(s.total_net_bytes(), 8);
    }

    #[test]
    fn detects_unmatched_send() {
        let s = record(topo(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            }
        });
        let e = s.validate().unwrap_err();
        assert!(e.message.contains("unmatched"), "{e}");
    }

    #[test]
    fn detects_size_mismatch() {
        let s = record(topo(), BufSizes::new(8, 8), |c| {
            if c.rank() == 0 {
                c.send(2, 1, Region::new(BufId::Send, 0, 8));
            } else if c.rank() == 2 {
                c.recv(0, 1, Region::new(BufId::Recv, 0, 4));
            }
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn detects_barrier_mismatch() {
        let s = record(topo(), BufSizes::new(0, 0), |c| {
            if c.rank() == 0 {
                c.node_barrier();
            }
        });
        let e = s.validate().unwrap_err();
        assert!(e.message.contains("barrier"), "{e}");
    }

    #[test]
    fn detects_unsatisfiable_flag() {
        let s = record(topo(), BufSizes::new(0, 0), |c| {
            if c.rank() == 0 {
                c.wait_flag(0, 5);
            } else if c.rank() == 1 {
                c.signal(0, 0);
            }
        });
        let e = s.validate().unwrap_err();
        assert!(e.message.contains("signals"), "{e}");
    }

    #[test]
    fn recv_without_sender_detected() {
        let s = record(topo(), BufSizes::new(8, 8), |c| {
            if c.rank() == 2 {
                c.recv(0, 9, Region::new(BufId::Recv, 0, 8));
            }
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn net_byte_accounting() {
        let s = record(topo(), BufSizes::new(16, 16), |c| {
            if c.rank() == 1 {
                c.send(3, 0, Region::new(BufId::Send, 0, 16));
                c.send(2, 0, Region::new(BufId::Send, 0, 4));
            }
            if c.rank() == 3 {
                c.recv(1, 0, Region::new(BufId::Recv, 0, 16));
            }
            if c.rank() == 2 {
                c.recv(1, 0, Region::new(BufId::Recv, 0, 4));
            }
        });
        s.validate().unwrap();
        assert_eq!(s.total_net_bytes(), 20);
        assert_eq!(s.total_net_msgs(), 2);
        assert_eq!(s.programs()[1].net_msgs_sent(), 2);
    }
}
