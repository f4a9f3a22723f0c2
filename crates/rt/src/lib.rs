//! # pipmcoll-rt — thread-based Process-in-Process runtime
//!
//! The substitution for PiP itself (DESIGN.md §2): each MPI "process" is an
//! OS thread with its own rank-private buffers, all living in one address
//! space — which is precisely the memory model PiP gives real processes.
//! Data movement is genuine (`memcpy` between rank-private buffers),
//! synchronisation is genuine (userspace flags, condvars, barriers), so
//! wall-clock measurements of the intranode collective paths are real
//! measurements of the PiP code paths, not simulations.
//!
//! The runtime implements the same [`pipmcoll_sched::Comm`] trait as the
//! trace recorder, so every algorithm in `pipmcoll-core` runs here
//! unchanged. Internode point-to-point goes through the pluggable
//! [`pipmcoll_fabric::Fabric`] transport: in-process channels by default,
//! or real loopback TCP with k lanes (`PIPMCOLL_FABRIC=tcp`, or
//! explicitly via [`cluster::run_cluster_on`]) so the paper's multi-object
//! claim is exercised against a transport with genuine injection costs.
//! The runtime is used for *correctness cross-validation* at small scale
//! and for *intranode wall-clock benchmarking*, while the discrete-event
//! engine covers the 128-node scale.
//!
//! ## Safety
//!
//! Peer-buffer access uses raw pointers inside [`shared::SharedBuf`] —
//! exactly the PiP model. The safety argument is the PiP application's
//! argument: accesses are ordered by the algorithm's posts, flags and
//! barriers (all lock/condvar-based here, so the runtime primitives
//! establish real happens-before edges), and the *algorithm's* use of
//! those primitives is proven sufficient by the sound vector-clock
//! analysis in [`pipmcoll_sched::hb`]. [`cluster::run_cluster_verified`]
//! enforces this mechanically: it records the algorithm's schedule, runs
//! the analysis, and refuses to spawn threads for any schedule with an
//! unordered conflicting access or a waits-for cycle. The unverified
//! [`cluster::run_cluster`] skips the recording pass (benches, algorithms
//! proven elsewhere); its callers own the race-freedom obligation.
//!
//! ## Failure model
//!
//! Ranks are fail-stop (DESIGN.md §3c): the first transport error, sync
//! timeout or algorithm panic marks the rank failed, records a
//! [`RankFailure`] and free-wheels it through the iteration framing so
//! peers are released rather than deadlocked. Every blocking wait is
//! bounded by `sync_timeout()`, a watchdog thread catches stalls nothing
//! is blocked on, and `run_cluster*` returns normally with the faults
//! listed in [`RtResult::failures`] — gate on [`RtResult::expect_clean`].
//!
//! On top of fail-stop *reporting*, [`ft::run_cluster_ft`] adds
//! survive-and-complete *recovery* (DESIGN.md §3e): rank deaths —
//! injected deterministically via [`fault::FaultPlan`]
//! (`PIPMCOLL_FAULT`) or detected organically through receive timeouts
//! and the fabric's health view — are agreed on by the survivors
//! through a crash-tolerant gossip, and the collective is re-executed
//! on a densely re-ranked survivor topology with epoch-tagged messages
//! until it completes. Every attempt runs the same [`RtComm`]: a
//! retry's cluster state maps each dense rank to its original fabric
//! rank, so channels, suspicion and failure reports keep original ids.

pub mod barrier;
pub mod cluster;
pub mod comm;
pub mod fault;
pub mod ft;
pub mod shared;

pub use barrier::TimedBarrier;
pub use cluster::{
    run_cluster, run_cluster_on, run_cluster_timed, run_cluster_verified, run_cluster_verified_on,
    watchdog_report, Algo, RankFailure, RtResult,
};
pub use comm::RtComm;
pub use fault::{FaultComm, FaultPlan, KillSpec, OpClass, OpCounters, RankKilled};
pub use ft::{
    run_cluster_ft, AgreeCore, AgreeMsg, AgreeOutcome, AgreeStep, FtResult, RankSet, MAX_EPOCHS,
};
