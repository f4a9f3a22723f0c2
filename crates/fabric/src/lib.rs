//! # pipmcoll-fabric — pluggable multi-lane internode transport
//!
//! The paper's central premise (Fig. 1) is that **one process cannot
//! saturate a modern NIC**: message rate and bandwidth keep climbing as
//! more concurrent sender/receiver objects drive the fabric, up to a
//! saturation point. The thread runtime (`pipmcoll-rt`) originally
//! delivered every "internode" message through a single in-memory channel
//! table, so that premise was never exercised against a transport with
//! real injection costs.
//!
//! This crate makes the internode transport a first-class, swappable
//! subsystem behind the [`Fabric`] trait:
//!
//! * [`InProcFabric`] — the original channel delivery, extracted from
//!   `rt::comm`, now one implementation among several. Zero syscalls,
//!   one logical lane; the default for unit tests and verified runs.
//! * [`TcpFabric`] — a real socket transport over `std::net` loopback:
//!   per node-pair connection pools with **k lanes** (a lane is the
//!   paper's "object"; each of a node's ranks sends its messages whole
//!   on lane `local rank % k`), a length-prefixed, checksummed wire
//!   protocol with `(src, dst, tag)` matching and per-channel FIFO,
//!   nonblocking sockets driven by the ranks that send and wait on
//!   them, one progress thread per fabric as the backstop that drives
//!   whatever no rank does and runs the timers, bounded per-lane send
//!   queues for backpressure, ack-based retransmit with sequence dedup,
//!   lane failover, and per-lane traffic counters.
//! * [`ChaosFabric`] — a deterministic, seeded fault injector wrapping
//!   any backend (`PIPMCOLL_CHAOS=drop:0.05,dup:0.02,delay:5ms`), used
//!   to prove the collectives stay byte-correct under frame loss,
//!   duplication, jitter and mid-run lane kills.
//!
//! Every backend presents the same contract, checked by the conformance
//! suite in `tests/conformance.rs`:
//!
//! 1. **Matching** — a message sent on `(src, dst, tag)` is only ever
//!    delivered to a receive on the same `(src, dst, tag)` channel.
//! 2. **Non-overtaking** — messages on one channel are delivered in send
//!    order (MPI's non-overtaking rule), even when the wire reorders,
//!    drops or duplicates frames, or moves them onto another lane.
//! 3. **Zero-length messages** are real messages: they match and are
//!    delivered like any other.
//!
//! Fabric operations are fallible: blocking waits give up after
//! [`sync_timeout`] and every failure is a typed [`FabricError`] carrying
//! the stuck channel, lane and queue state — the runtime converts these
//! into a structured failure report instead of aborting the process.

pub mod chaos;
pub mod env;
pub mod error;
pub mod inproc;
pub mod pool;
pub mod stats;
pub mod store;
pub mod tag;
pub mod tcp;
pub mod timeout;
pub mod wait;
pub mod wire;

use std::sync::Arc;
use std::time::Duration;

use pipmcoll_model::Topology;

pub use chaos::{ChaosConfig, ChaosFabric, ChaosRng, FrameFate, WireChaos};
pub use env::EnvError;
pub use error::{
    BlockedRecv, DeadPeer, FabricDiag, FabricError, FabricHealth, FabricResult, QueueDiag,
    TimeoutDiag,
};
pub use inproc::InProcFabric;
pub use pool::{FrameBuf, FramePool, PoolStats};
pub use stats::{FabricStats, LaneStats, LatencyHist, LatencySnapshot};
pub use tcp::{TcpConfig, TcpFabric};
pub use timeout::sync_timeout;
pub use wait::Waiters;
pub use wire::{WireError, WIRE_VERSION};

/// A point-to-point channel: `(src rank, dst rank, tag)`. Matching and
/// FIFO order are per channel, exactly MPI's non-overtaking rule.
pub type ChanKey = (usize, usize, u32);

/// An internode transport: delivers point-to-point messages between
/// ranks with MPI matching semantics.
///
/// `send` is *eager at the interface*: it completes once the payload is
/// accepted by the transport (it may block on backpressure, never on the
/// receiver). `recv` blocks until the next in-order message on the
/// channel arrives, giving up with a typed [`FabricError`] after
/// [`sync_timeout`]. Neither panics on transport failure.
pub trait Fabric: Send + Sync {
    /// Backend name for diagnostics and result files.
    fn name(&self) -> &'static str;

    /// Number of lanes (the paper's concurrent objects).
    fn lanes(&self) -> usize;

    /// Enqueue `payload` for delivery on `key`. May block when the
    /// responsible lane's send queue is full (backpressure), never on
    /// the receiver. Fails with [`FabricError::PeerHung`] if the queue
    /// never drains and [`FabricError::LaneDead`] if no lane survives.
    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()>;

    /// Blocking receive of the next in-order message on `key`, giving up
    /// with a [`FabricError::Timeout`] diagnostic after `timeout`.
    ///
    /// A channel has one receiver: no two threads may block on `key` at
    /// once, since a blocked receive registers itself as the one the
    /// channel's next delivery wakes.
    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>>;

    /// Blocking receive with the runtime-wide [`sync_timeout`].
    fn recv(&self, key: ChanKey) -> FabricResult<Vec<u8>> {
        self.recv_within(key, sync_timeout())
    }

    /// Non-blocking receive: the next in-order message on `key` if one
    /// is already deliverable, `Ok(None)` otherwise. Pollable at high
    /// frequency — backends with a receive store answer from it without
    /// building a timeout diagnostic; the default falls back to a
    /// zero-timeout [`Fabric::recv_within`] and swallows the timeout.
    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        match self.recv_within(key, Duration::ZERO) {
            Ok(m) => Ok(Some(m)),
            Err(FabricError::Timeout(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Drop messages delivered but never received (stale state between
    /// benchmark iterations). In-flight traffic at a reset boundary is a
    /// schedule bug, not something reset can repair.
    fn reset(&self);

    /// Per-lane traffic counters since construction.
    fn stats(&self) -> FabricStats;

    /// Point-in-time health snapshot (blocked receives, queue depths,
    /// dead lanes) for the runtime's watchdog. Backends without
    /// introspection return the empty default.
    fn diag(&self) -> FabricDiag {
        FabricDiag::default()
    }

    /// Drain failures recorded by progress threads since the last call
    /// (malformed frames, exhausted retransmits, dead lanes). Backends
    /// without progress threads have none.
    fn drain_errors(&self) -> Vec<FabricError> {
        Vec::new()
    }

    /// Kill lane `lane`: sever its connections and remap its channels
    /// onto surviving lanes. Returns `false` if the backend does not
    /// support lane failover, the lane does not exist, or it is the last
    /// survivor (a fabric must keep at least one lane).
    fn kill_lane(&self, _lane: usize) -> bool {
        false
    }

    /// Offer the backend a frame-level fault stream (chaos testing).
    /// Returns `true` if the backend will consult it; backends without a
    /// wire (or without recovery machinery) decline and frame-level
    /// faults are skipped.
    fn install_chaos(&self, _chaos: Arc<WireChaos>) -> bool {
        false
    }

    /// The backend's liveness view: peers it locally considers dead
    /// (retransmit exhaustion, silent heartbeats). Feeds the runtime's
    /// failed-set agreement. Backends without failure detection report
    /// the clean default.
    fn health(&self) -> FabricHealth {
        FabricHealth::default()
    }

    /// The node `rank` lives on, if the backend knows its topology. Two
    /// ranks on one node share an address space, so a caller that acts
    /// for both may hand a message over in place instead of sending it.
    /// Backends without a topology answer `None`.
    fn node_of(&self, _rank: usize) -> Option<usize> {
        None
    }

    /// Progress the transport from the calling thread, as a progress
    /// thread would: write what is queued and read what arrived.
    /// `stay` says the caller will call again soon. Until it calls
    /// with `stay` false, the sends and acks it queues wake no progress
    /// thread, because its next call writes them. A caller about to
    /// stop calling (to park, sleep or exit) makes one last call with
    /// `stay` false, which hands whatever it left queued back to the
    /// progress threads. Backends without a wire do nothing.
    fn drive(&self, _stay: bool) {}
}

/// Delegating impl so trait objects can be wrapped (e.g.
/// `ChaosFabric<Arc<dyn Fabric>>`).
impl<T: Fabric + ?Sized> Fabric for Arc<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn lanes(&self) -> usize {
        (**self).lanes()
    }
    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        (**self).send(key, payload)
    }
    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        (**self).recv_within(key, timeout)
    }
    fn recv(&self, key: ChanKey) -> FabricResult<Vec<u8>> {
        (**self).recv(key)
    }
    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        (**self).try_recv(key)
    }
    fn reset(&self) {
        (**self).reset()
    }
    fn stats(&self) -> FabricStats {
        (**self).stats()
    }
    fn diag(&self) -> FabricDiag {
        (**self).diag()
    }
    fn drain_errors(&self) -> Vec<FabricError> {
        (**self).drain_errors()
    }
    fn kill_lane(&self, lane: usize) -> bool {
        (**self).kill_lane(lane)
    }
    fn install_chaos(&self, chaos: Arc<WireChaos>) -> bool {
        (**self).install_chaos(chaos)
    }
    fn health(&self) -> FabricHealth {
        (**self).health()
    }
    fn node_of(&self, rank: usize) -> Option<usize> {
        (**self).node_of(rank)
    }
    fn drive(&self, stay: bool) {
        (**self).drive(stay)
    }
}

/// Build the fabric selected by the environment:
///
/// * `PIPMCOLL_FABRIC=inproc` (or unset) — [`InProcFabric`];
/// * `PIPMCOLL_FABRIC=tcp` — [`TcpFabric`] on loopback with
///   `PIPMCOLL_FABRIC_LANES` lanes (default 4);
/// * additionally, `PIPMCOLL_CHAOS=...` wraps the chosen backend in a
///   [`ChaosFabric`] seeded by `PIPMCOLL_CHAOS_SEED`, turning any run
///   into a deterministic fault-injection run.
///
/// # Panics
/// Panics with a clear message on an unknown backend name, a malformed
/// `PIPMCOLL_*` tuning variable, or a malformed chaos spec — a typo must
/// fail loudly, not silently fall back. Hosts that want the failure as a
/// value use [`try_from_env`].
pub fn from_env(topo: Topology) -> Arc<dyn Fabric> {
    match try_from_env(topo) {
        Ok(f) => f,
        Err(e) => panic!("{e}"),
    }
}

/// [`from_env`] with the failure as a typed [`FabricError`] instead of a
/// panic: every `PIPMCOLL_*` variable is validated up front
/// ([`env::validate`]), so a typo in any tuning knob surfaces here as
/// [`FabricError::Config`] naming the variable — not as a panic later in
/// a worker thread.
pub fn try_from_env(topo: Topology) -> FabricResult<Arc<dyn Fabric>> {
    env::validate()?;
    let backend = std::env::var("PIPMCOLL_FABRIC").unwrap_or_else(|_| "inproc".to_string());
    let base: Arc<dyn Fabric> = match backend.as_str() {
        "inproc" => Arc::new(InProcFabric::new()),
        "tcp" => {
            let lanes = env::read_usize("PIPMCOLL_FABRIC_LANES", "a positive lane count")?
                .unwrap_or(TcpConfig::default().lanes);
            let cfg = TcpConfig {
                lanes,
                ..TcpConfig::default()
            };
            let f = TcpFabric::connect(topo, cfg).map_err(|e| FabricError::Config {
                var: "PIPMCOLL_FABRIC",
                detail: format!("loopback TcpFabric setup failed: {e}"),
            })?;
            Arc::new(f)
        }
        other => {
            return Err(FabricError::Config {
                var: "PIPMCOLL_FABRIC",
                detail: format!("must be \"inproc\" or \"tcp\", got {other:?}"),
            })
        }
    };
    match ChaosConfig::from_env() {
        Some(cfg) => Ok(Arc::new(ChaosFabric::new(base, cfg))),
        None => Ok(base),
    }
}

/// Held by the stress tests that count wake-up latencies, so they do not
/// compete with each other for the CPUs: on a two-CPU host two
/// concurrent 20k-round ping-pongs delay each other's wake-ups by
/// milliseconds.
#[cfg(test)]
pub(crate) fn wake_stress() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_is_inproc() {
        // The test environment does not set PIPMCOLL_FABRIC.
        let f = from_env(Topology::new(1, 2));
        assert_eq!(f.name(), "inproc");
        assert_eq!(f.lanes(), 1);
    }
}
