//! Typed fabric failures and diagnostics.
//!
//! PR 2's transport treated every lane as infallible: a socket hiccup,
//! a slow peer or a hung rank panicked an arbitrary progress thread and
//! took the whole process down. This module is the vocabulary of the
//! robustness layer: every way the fabric can fail is a [`FabricError`]
//! variant carrying enough context to debug the failure — the stuck
//! channel, the lane, queue depths, hold-back state — and `send`/
//! `recv_within` return `Result` so the runtime can convert a transport
//! failure into a structured [`RtResult::failures`] report instead of an
//! abort.
//!
//! [`RtResult::failures`]: ../../pipmcoll_rt/cluster/struct.RtResult.html

use std::fmt;
use std::time::Duration;

use crate::ChanKey;

/// Result alias for fallible fabric operations.
pub type FabricResult<T> = Result<T, FabricError>;

/// Everything a receive timeout knows at the moment it gives up.
///
/// The point of the struct (rather than a bare message) is that the
/// backend can *enrich* it: the store fills in the channel-level view
/// (hold-back depth, next expected sequence), and the TCP backend adds
/// the lane the channel rides, the sender-side queue depth of that
/// lane, and which lanes are dead — so "no message arrived" comes
/// with the evidence needed to tell a missing sender from a stuck lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeoutDiag {
    /// Backend that timed out (`"inproc"`, `"tcp"`).
    pub backend: &'static str,
    /// The channel the receive was posted on.
    pub chan: ChanKey,
    /// How long the receive waited before giving up.
    pub waited: Duration,
    /// Lane the channel rides (socket backends only).
    pub lane: Option<usize>,
    /// Messages ready on this channel right now (zero at timeout by
    /// definition; non-zero only in diagnostics taken mid-run).
    pub ready: usize,
    /// Out-of-order frames held back on this channel waiting for a
    /// sequence gap to fill — non-zero means traffic *is* arriving but
    /// an earlier frame is missing (dropped or still in retransmit).
    pub held: usize,
    /// Next wire sequence number the channel expects.
    pub next_seq: u64,
    /// In-order messages ready on *other* channels of the same store —
    /// non-zero means the node is receiving fine and this channel
    /// specifically is starved.
    pub ready_elsewhere: usize,
    /// Frames still queued on the sender side of this channel's lane
    /// (socket backends; `None` when unknown). Non-zero means the
    /// sender enqueued traffic that never made it out.
    pub send_queue_depth: Option<usize>,
    /// Lanes currently dead (killed or unrecovered socket failure).
    pub dead_lanes: Vec<usize>,
    /// Ranks the backend suspects are dead (retransmit budget exhausted
    /// towards them, or their node's heartbeat went silent) — if the
    /// sender of this channel appears here, the timeout is almost
    /// certainly a peer death, not a schedule bug.
    pub suspected: Vec<usize>,
}

impl fmt::Display for TimeoutDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timeout after {:?}: no message on {} channel {} -> {} tag {}",
            self.waited, self.backend, self.chan.0, self.chan.1, self.chan.2
        )?;
        if let Some(lane) = self.lane {
            write!(f, " (lane {lane})")?;
        }
        write!(
            f,
            "; channel expects seq {}, holds {} out-of-order frame(s), {} ready elsewhere",
            self.next_seq, self.held, self.ready_elsewhere
        )?;
        if let Some(depth) = self.send_queue_depth {
            write!(f, "; {depth} frame(s) still queued sender-side")?;
        }
        if !self.dead_lanes.is_empty() {
            write!(f, "; dead lanes {:?}", self.dead_lanes)?;
        }
        if !self.suspected.is_empty() {
            write!(f, "; suspected dead rank(s) {:?}", self.suspected)?;
        }
        write!(f, " — schedule under-synchronized or sender missing?")
    }
}

/// A typed fabric failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// A blocking receive gave up waiting. Boxed: the diagnostic is an
    /// order of magnitude larger than the other variants, and timeouts
    /// are cold paths — keep `FabricResult<()>` small for the hot ones.
    Timeout(Box<TimeoutDiag>),
    /// A lane (or every lane) is dead and the operation could not be
    /// remapped onto a survivor.
    LaneDead {
        /// The lane the operation wanted.
        lane: usize,
        /// What happened.
        detail: String,
    },
    /// A peer is considered dead: a frame to it exhausted the whole
    /// retransmit budget without an ack. Unlike [`FabricError::PeerHung`]
    /// (which covers a peer that stopped *draining* but may still be
    /// alive), this is the fabric's strongest local death verdict and
    /// feeds the failed-set agreement protocol in the runtime.
    PeerDead {
        /// The rank presumed dead.
        peer: usize,
        /// The last sequence number we tried (and failed) to deliver.
        last_seq: u64,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// The peer stopped draining: a send queue stayed full for the whole
    /// timeout, or a frame exhausted its retransmit budget unacked.
    PeerHung {
        /// The channel whose traffic is stuck.
        chan: ChanKey,
        /// Delivery attempts made (0 when the send queue never drained).
        attempts: u32,
        /// What happened.
        detail: String,
    },
    /// A queue or table mutex was poisoned by a panicking thread; the
    /// structure's contents can no longer be trusted.
    QueuePoisoned {
        /// Which structure.
        what: &'static str,
    },
    /// A frame (or byte stream) the receiver could not make sense of: a
    /// garbled stream, an unknown or retired frame kind, or a peer
    /// speaking a different wire-format version.
    MalformedFrame {
        /// Lane the frame arrived on.
        lane: usize,
        /// What was wrong with it.
        detail: String,
        /// The wire-format version this build speaks, when the problem
        /// is a version mismatch (`None` otherwise).
        expected_version: Option<u8>,
        /// The version the peer's frame declared, when the problem is a
        /// version mismatch (`None` otherwise).
        got: Option<u8>,
    },
    /// A malformed `PIPMCOLL_*` environment variable, caught by
    /// [`crate::env::validate`] at fabric construction — the typo fails
    /// fast with a readable message instead of panicking later inside a
    /// worker thread.
    Config {
        /// The offending variable.
        var: &'static str,
        /// The raw value and what was expected instead.
        detail: String,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Timeout(d) => d.fmt(f),
            FabricError::LaneDead { lane, detail } => {
                write!(f, "lane {lane} dead: {detail}")
            }
            FabricError::PeerDead {
                peer,
                last_seq,
                attempts,
            } => write!(
                f,
                "peer rank {peer} presumed dead: seq {last_seq} unacked after {attempts} attempt(s)"
            ),
            FabricError::PeerHung {
                chan,
                attempts,
                detail,
            } => write!(
                f,
                "peer hung on channel {} -> {} tag {} after {attempts} attempt(s): {detail}",
                chan.0, chan.1, chan.2
            ),
            FabricError::QueuePoisoned { what } => {
                write!(f, "{what} poisoned by a panicking thread")
            }
            FabricError::MalformedFrame {
                lane,
                detail,
                expected_version,
                got,
            } => {
                write!(f, "malformed frame on lane {lane}: {detail}")?;
                if let (Some(exp), Some(got)) = (expected_version, got) {
                    write!(f, " (peer speaks wire version {got}, this build {exp})")?;
                }
                Ok(())
            }
            FabricError::Config { var, detail } => {
                write!(f, "bad configuration {var}: {detail}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// A receive currently blocked in a store, as seen by the watchdog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedRecv {
    /// The starved channel.
    pub chan: ChanKey,
    /// How long the receive has been blocked.
    pub waited: Duration,
    /// Out-of-order frames held on the channel.
    pub held: usize,
    /// Next wire sequence number the channel expects.
    pub next_seq: u64,
}

/// One send queue's depth, as seen by the watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueDiag {
    /// Sending node.
    pub from_node: usize,
    /// Receiving node.
    pub to_node: usize,
    /// Lane.
    pub lane: usize,
    /// Frames queued and not yet written to the wire.
    pub depth: usize,
}

/// A point-in-time health snapshot of a fabric, consumed by the
/// runtime's watchdog to turn "the collective hangs" into "channel
/// (src, dst, tag) has waited N seconds with these queue depths".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FabricDiag {
    /// Receives currently blocked, worst first.
    pub blocked: Vec<BlockedRecv>,
    /// Non-empty send queues.
    pub queues: Vec<QueueDiag>,
    /// Lanes currently dead.
    pub dead_lanes: Vec<usize>,
    /// Time since the last frame crossed the wire in either direction
    /// (`None` for backends with no wire, or before any traffic).
    pub last_wire_activity: Option<Duration>,
}

impl fmt::Display for FabricDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.blocked.is_empty() {
            write!(f, "no receive blocked")?;
        } else {
            write!(f, "{} blocked receive(s):", self.blocked.len())?;
            for b in &self.blocked {
                write!(
                    f,
                    " [channel {} -> {} tag {}: waited {:?}, {} held, expects seq {}]",
                    b.chan.0, b.chan.1, b.chan.2, b.waited, b.held, b.next_seq
                )?;
            }
        }
        if !self.queues.is_empty() {
            write!(f, "; non-empty send queues:")?;
            for q in &self.queues {
                write!(
                    f,
                    " [{}->{} lane {}: {} frame(s)]",
                    q.from_node, q.to_node, q.lane, q.depth
                )?;
            }
        }
        if !self.dead_lanes.is_empty() {
            write!(f, "; dead lanes {:?}", self.dead_lanes)?;
        }
        if let Some(age) = self.last_wire_activity {
            write!(f, "; last wire activity {age:?} ago")?;
        }
        Ok(())
    }
}

/// A peer the fabric locally considers dead, with the evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadPeer {
    /// The rank presumed dead.
    pub peer: usize,
    /// Last sequence number that went unacked towards it.
    pub last_seq: u64,
    /// Retransmit attempts made before the verdict.
    pub attempts: u32,
}

/// The fabric's liveness view, consumed by the runtime's failed-set
/// agreement: which peers this endpoint's *local* evidence says are
/// dead. Local suspicion is necessarily asymmetric (only the ranks
/// talking to a dead peer notice), which is exactly why the runtime
/// runs an agreement round over it instead of trusting it directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricHealth {
    /// Node pairs `(observer, silent)` whose heartbeat sideband has
    /// been quiet past the miss budget. Node-granular: the transport
    /// cannot tell *which* rank on a silent node died.
    pub suspected_nodes: Vec<(usize, usize)>,
    /// Ranks with a retransmit-exhaustion death verdict against them.
    pub dead_peers: Vec<DeadPeer>,
    /// Lanes currently dead.
    pub dead_lanes: Vec<usize>,
    /// Lanes demoted by the brownout detector: alive but degraded
    /// (retransmit rate or ack-RTT p99 over threshold), temporarily
    /// excluded from lane selection while recovery probes decide
    /// whether to restore them. Deliberately *not* part of
    /// [`FabricHealth::is_clean`]: a browned lane is a performance
    /// state, not a failure — escalating it to the failure detector is
    /// exactly the gray-failure over-reaction brownout exists to avoid.
    pub browned_lanes: Vec<usize>,
}

impl FabricHealth {
    /// True when nothing is suspected or dead (browned lanes do not
    /// count — see [`FabricHealth::browned_lanes`]).
    pub fn is_clean(&self) -> bool {
        self.suspected_nodes.is_empty() && self.dead_peers.is_empty() && self.dead_lanes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> TimeoutDiag {
        TimeoutDiag {
            backend: "tcp",
            chan: (1, 5, 3),
            waited: Duration::from_millis(250),
            lane: Some(1),
            ready: 0,
            held: 2,
            next_seq: 7,
            ready_elsewhere: 4,
            send_queue_depth: Some(9),
            dead_lanes: vec![0],
            suspected: vec![5],
        }
    }

    #[test]
    fn timeout_display_names_everything() {
        let msg = FabricError::Timeout(Box::new(diag())).to_string();
        for needle in [
            "tcp",
            "1 -> 5",
            "tag 3",
            "lane 1",
            "seq 7",
            "2 out-of-order",
            "4 ready",
            "9 frame(s)",
            "[0]",
            "suspected dead rank(s) [5]",
        ] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg}");
        }
    }

    #[test]
    fn fabric_diag_display_names_blocked_channels() {
        let d = FabricDiag {
            blocked: vec![BlockedRecv {
                chan: (2, 6, 9),
                waited: Duration::from_secs(1),
                held: 1,
                next_seq: 3,
            }],
            queues: vec![QueueDiag {
                from_node: 0,
                to_node: 1,
                lane: 2,
                depth: 5,
            }],
            dead_lanes: vec![3],
            last_wire_activity: Some(Duration::from_millis(40)),
        };
        let msg = d.to_string();
        for needle in ["2 -> 6 tag 9", "lane 2: 5 frame(s)", "[3]", "40ms"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg}");
        }
    }

    #[test]
    fn peer_hung_display() {
        let msg = FabricError::PeerHung {
            chan: (0, 4, 2),
            attempts: 8,
            detail: "retransmit budget exhausted".into(),
        }
        .to_string();
        assert!(msg.contains("0 -> 4 tag 2"), "{msg}");
        assert!(msg.contains("8 attempt"), "{msg}");
    }

    #[test]
    fn peer_dead_display_names_the_evidence() {
        let msg = FabricError::PeerDead {
            peer: 4,
            last_seq: 17,
            attempts: 8,
        }
        .to_string();
        for needle in ["rank 4", "seq 17", "8 attempt"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg}");
        }
    }

    #[test]
    fn malformed_frame_display_types_a_version_mismatch() {
        let msg = FabricError::MalformedFrame {
            lane: 2,
            detail: "unreadable frame from node 1".into(),
            expected_version: Some(1),
            got: Some(3),
        }
        .to_string();
        for needle in ["lane 2", "wire version 3", "this build 1"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg}");
        }
        let plain = FabricError::MalformedFrame {
            lane: 0,
            detail: "unknown frame kind byte 9".into(),
            expected_version: None,
            got: None,
        }
        .to_string();
        assert!(!plain.contains("version"), "{plain}");
    }

    #[test]
    fn browned_lanes_do_not_dirty_health() {
        let h = FabricHealth {
            browned_lanes: vec![1],
            ..FabricHealth::default()
        };
        assert!(h.is_clean(), "brownout is degradation, not failure");
    }

    #[test]
    fn health_is_clean_only_when_empty() {
        assert!(FabricHealth::default().is_clean());
        let h = FabricHealth {
            dead_peers: vec![DeadPeer {
                peer: 1,
                last_seq: 0,
                attempts: 8,
            }],
            ..FabricHealth::default()
        };
        assert!(!h.is_clean());
    }
}
