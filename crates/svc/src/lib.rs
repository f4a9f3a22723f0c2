//! # pipmcoll-svc — a multi-tenant collective service
//!
//! The paper's premise is many concurrent objects driving one fabric;
//! the runtime crates prove it for *one* collective at a time. This
//! crate is the production shape of that premise: a long-lived engine
//! where many **jobs** (communicators) run many **non-blocking
//! collectives** concurrently over one shared [`Fabric`], with the
//! fabric's lanes saturated by interleaved phases rather than by one
//! parked thread per collective.
//!
//! * [`Svc::job`] carves a [`Job`] out of the service: a communicator
//!   handle with a disjoint tag sub-space (`fabric::tag::svc(comm,
//!   seq_slot, phase)`), its sequence slots recycled by a
//!   [`TagSpace`] allocator as collectives complete.
//! * [`Job::iallreduce`] / [`Job::iallgather`] / [`Job::iscatter`] /
//!   [`Job::ibcast`] return immediately with a [`Request`]; the
//!   engine's single scheduler thread drives every admitted
//!   collective — an [`NbColl`]: a cached, `hb`-checked recording of a
//!   `core::baseline` algorithm on a resumable executor — polling the
//!   fabric with the non-blocking [`Fabric::try_recv`] and interleaving
//!   phases of all in-flight collectives.
//! * Admission control shares the NIC fairly: a token-bucket byte
//!   budget across jobs ([`SvcConfig::nic_budget`],
//!   `PIPMCOLL_SVC_NIC_BUDGET`) plus per-job deficit round robin, so a
//!   storm of small allreduces can't starve a large allgather or vice
//!   versa. [`Svc::stats`] surfaces per-job admitted/deferred bytes,
//!   queue depth and a completion-latency histogram (reusing
//!   [`fabric::stats::LatencyHist`]).
//! * The service **survives rank death** ([`SvcConfig::ft`]): the
//!   engine polls [`Fabric::health`] every cycle, drives the runtime's
//!   failed-set agreement protocol ([`pipmcoll_rt::AgreeCore`], domain
//!   1 of the `0xFF` tag namespace) as a non-blocking state machine
//!   when evidence appears, and **re-plans** each affected in-flight
//!   collective on the densely re-ranked survivor group — fresh
//!   sequence slot (the old one quarantined), re-admitted through the
//!   token bucket under exponential backoff, bounded by a retry cap.
//!   Requests whose root died resolve [`SvcError::Unsatisfiable`];
//!   unaffected jobs never stop progressing. [`Request::cancel`] and
//!   per-request deadlines ([`SubmitOpts`]) resolve requests that
//!   should stop waiting.
//!
//! [`Fabric::health`]: pipmcoll_fabric::Fabric::health
//!
//! The design is deliberately MPI-Advance-shaped: an optimized-
//! collective library layer scheduling many operations above a fixed
//! transport, with communicator-scoped resources.
//!
//! [`Fabric`]: pipmcoll_fabric::Fabric
//! [`Fabric::try_recv`]: pipmcoll_fabric::Fabric::try_recv
//! [`NbColl`]: pipmcoll_core::nb::NbColl
//! [`TagSpace`]: tagspace::TagSpace
//! [`fabric::stats::LatencyHist`]: pipmcoll_fabric::LatencyHist

pub mod admission;
pub mod engine;
pub mod tagspace;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pipmcoll_core::nb::CollSpec;
use pipmcoll_fabric::{sync_timeout, Fabric, FabricError, LatencyHist, LatencySnapshot, Waiters};
use pipmcoll_model::{Datatype, ReduceOp};
use pipmcoll_rt::FaultPlan;

pub use pipmcoll_core::nb::{CollSpec as Spec, PlanError};
pub use tagspace::TagSpace;

/// Result alias for service operations.
pub type SvcResult<T> = Result<T, SvcError>;

/// Why a collective (or the service) failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvcError {
    /// The transport failed underneath the collective.
    Fabric(FabricError),
    /// The collective made no progress for the runtime-wide sync
    /// timeout: a peer frame never arrived and the fabric reported
    /// nothing wrong.
    Stalled {
        /// How long the collective sat without a delivery.
        waited: Duration,
        /// Channels still being polled when the engine gave up.
        outstanding: usize,
    },
    /// The service shut down before the collective completed.
    Shutdown,
    /// The service ran out of communicator ids
    /// ([`pipmcoll_fabric::tag::SVC_MAX_COMMS`]).
    CommExhausted,
    /// The request was cancelled ([`Request::cancel`], or its handle
    /// was dropped while the collective was still queued or in flight).
    Cancelled,
    /// The request's [`SubmitOpts::deadline`] passed before the
    /// collective completed.
    DeadlineExpired {
        /// Submission-to-expiry time.
        waited: Duration,
    },
    /// The collective can never complete on the survivor group: the
    /// committed failed set contains a rank the operation cannot do
    /// without (a broadcast or scatter root).
    Unsatisfiable {
        /// The dead rank the collective depends on.
        rank: usize,
    },
    /// The collective was re-planned onto shrunk survivor groups
    /// [`SubmitOpts::retry_max`] times and failed every attempt.
    RetriesExhausted {
        /// Re-plans performed before giving up.
        attempts: u32,
    },
    /// The failed-set agreement could only reach a minority of the
    /// member group — the service is (or may be) on the minority side
    /// of a network partition. Nothing was committed: rather than
    /// shrink onto a failed set that could diverge from the majority's,
    /// affected requests resolve with this error and admission freezes
    /// until a later agreement regains quorum.
    QuorumLost {
        /// Members still reachable, ascending rank order.
        survivors: Vec<usize>,
        /// Size of the full member group the agreement ran over.
        members: usize,
    },
    /// The spec describes no collective the service can run (ragged
    /// inputs, a partial element, a root or world that does not fit):
    /// refused at submission, before it reaches the engine.
    Invalid(PlanError),
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Fabric(e) => write!(f, "fabric failure: {e}"),
            SvcError::Stalled {
                waited,
                outstanding,
            } => write!(
                f,
                "collective stalled: no delivery for {waited:?} with {outstanding} channel(s) outstanding"
            ),
            SvcError::Shutdown => write!(f, "service shut down"),
            SvcError::CommExhausted => write!(f, "communicator ids exhausted"),
            SvcError::Cancelled => write!(f, "request cancelled"),
            SvcError::DeadlineExpired { waited } => {
                write!(f, "request deadline expired after {waited:?}")
            }
            SvcError::Unsatisfiable { rank } => {
                write!(f, "unsatisfiable: collective depends on failed rank {rank}")
            }
            SvcError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} re-plan(s)")
            }
            SvcError::QuorumLost { survivors, members } => write!(
                f,
                "quorum lost: only {survivors:?} of {members} members reachable — \
                 refusing to commit a minority failed set; admission frozen"
            ),
            SvcError::Invalid(e) => write!(f, "invalid collective: {e}"),
        }
    }
}

impl std::error::Error for SvcError {}

impl From<FabricError> for SvcError {
    fn from(e: FabricError) -> Self {
        SvcError::Fabric(e)
    }
}

/// Service tuning. `world` is the rank count every job's collectives
/// span, one fabric rank per member. The fabric decides where those
/// ranks live: the benchmark's `svc_storm` runs world 4 as 2 nodes ×
/// 2 ranks over TCP.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// World size.
    pub world: usize,
    /// NIC byte budget shared across jobs, bytes/second; `None` =
    /// unmetered. Default from `PIPMCOLL_SVC_NIC_BUDGET` (unset =
    /// unmetered).
    pub nic_budget: Option<u64>,
    /// Token-bucket burst, bytes.
    pub burst: u64,
    /// Deficit-round-robin quantum credited per scheduler pass, bytes.
    pub quantum: u64,
    /// Cap on concurrently in-flight collectives across all jobs;
    /// `Some(1)` is the serialized baseline the storm bench compares
    /// against. `None` = bounded only by tag slots and admission.
    pub max_inflight: Option<usize>,
    /// Sequence-slot field width per job (`2^seq_bits` concurrent
    /// collectives per job); defaults to the full wire field. Tests
    /// shrink it to force recycling.
    pub seq_bits: u32,
    /// Survive-and-complete fault tolerance: detect rank death, agree
    /// on the failed set, re-plan affected collectives on the survivor
    /// group. On by default when the world fits the agreement
    /// protocol's 64-rank bitmap.
    pub ft: bool,
    /// How long a collective may sit without a delivery before its
    /// member ranks are *suspected* (refutable by the agreement
    /// protocol — receipt is proof of life). Default `sync_timeout()/4`
    /// so detect + agree + retry fits inside [`Request::wait`]'s
    /// three-timeout backstop.
    pub suspect_after: Duration,
    /// Per-sweep window of the engine-driven failed-set agreement.
    /// Default `sync_timeout()/4`.
    pub agree_delta: Duration,
    /// Default cap on re-plans per request (`PIPMCOLL_SVC_RETRY_MAX`,
    /// default 3); [`SubmitOpts::retry_max`] overrides per request.
    pub retry_max: u32,
    /// Default per-request deadline (`PIPMCOLL_SVC_DEADLINE_MS`, unset
    /// = none); [`SubmitOpts::deadline`] overrides per request.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for the kill-grid tests
    /// (`PIPMCOLL_FAULT` `submit`/`poll` classes — the engine counts
    /// those ops itself). Tests set this field directly rather than
    /// mutating the process environment.
    pub fault: FaultPlan,
}

impl SvcConfig {
    /// Defaults for `world` ranks, reading `PIPMCOLL_SVC_NIC_BUDGET`,
    /// `PIPMCOLL_SVC_RETRY_MAX`, `PIPMCOLL_SVC_DEADLINE_MS` and
    /// `PIPMCOLL_FAULT`.
    pub fn new(world: usize) -> SvcConfig {
        let nic_budget =
            pipmcoll_fabric::env::read_u64("PIPMCOLL_SVC_NIC_BUDGET", "a bytes-per-second rate")
                .unwrap_or(None);
        let retry_max = pipmcoll_fabric::env::read_u64("PIPMCOLL_SVC_RETRY_MAX", "a retry count")
            .unwrap_or(None)
            .map_or(3, |v| v.min(u32::MAX as u64) as u32);
        let deadline =
            pipmcoll_fabric::env::read_u64("PIPMCOLL_SVC_DEADLINE_MS", "a millisecond count")
                .unwrap_or(None)
                .map(Duration::from_millis);
        SvcConfig {
            world,
            nic_budget,
            burst: 256 * 1024,
            quantum: 4 * 1024,
            max_inflight: None,
            seq_bits: pipmcoll_fabric::tag::SVC_SEQ_BITS,
            ft: world <= 64,
            suspect_after: sync_timeout() / 4,
            agree_delta: sync_timeout() / 4,
            retry_max,
            deadline,
            fault: FaultPlan::from_env(),
        }
    }
}

/// Per-request knobs, resolved against the [`SvcConfig`] defaults at
/// submission.
#[derive(Clone, Debug, Default)]
pub struct SubmitOpts {
    /// Fail the request with [`SvcError::DeadlineExpired`] if it has
    /// not completed this long after submission (`None` = the config
    /// default).
    pub deadline: Option<Duration>,
    /// Cap on failure-driven re-plans (`None` = the config default).
    pub retry_max: Option<u32>,
}

/// Per-job counters, shared between the engine and [`SvcStats`]
/// snapshots. All atomic: the engine writes from its thread, snapshots
/// read from anywhere.
#[derive(Default)]
pub(crate) struct JobCounters {
    /// Bytes of admitted collectives.
    pub admitted_bytes: AtomicU64,
    /// Bytes of collectives that sat deferred at least one pass.
    pub deferred_bytes: AtomicU64,
    /// Collectives admitted.
    pub admitted: AtomicU64,
    /// Collectives deferred at least one pass before admission.
    pub deferred: AtomicU64,
    /// Collectives completed successfully.
    pub completed: AtomicU64,
    /// Collectives failed.
    pub failed: AtomicU64,
    /// Collectives currently queued (submitted, not yet admitted).
    pub queued: AtomicUsize,
    /// Collectives re-planned onto a shrunk survivor group.
    pub retried: AtomicU64,
    /// Requests resolved by cancellation.
    pub cancelled: AtomicU64,
    /// Requests resolved by deadline expiry.
    pub deadline_expired: AtomicU64,
    /// Sequence-slot gauges, mirrored from the job's [`TagSpace`] after
    /// every slot mutation so snapshots can check the conservation
    /// invariant (`held + free + quarantined == 2^seq_bits`).
    pub slots_held: AtomicUsize,
    /// See [`JobCounters::slots_held`].
    pub slots_free: AtomicUsize,
    /// See [`JobCounters::slots_held`].
    pub slots_quarantined: AtomicUsize,
    /// Submission-to-completion latency.
    pub latency: LatencyHist,
}

/// One job's row in a [`SvcStats`] snapshot.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// Communicator id.
    pub comm: u32,
    /// Bytes of admitted collectives.
    pub admitted_bytes: u64,
    /// Bytes of collectives deferred at least one scheduler pass.
    pub deferred_bytes: u64,
    /// Collectives admitted / deferred / completed / failed.
    pub admitted: u64,
    /// Collectives that waited at least one pass before admission.
    pub deferred: u64,
    /// Collectives completed successfully.
    pub completed: u64,
    /// Collectives failed.
    pub failed: u64,
    /// Collectives currently queued behind admission.
    pub queue_depth: usize,
    /// Collectives re-planned onto a shrunk survivor group.
    pub retried: u64,
    /// Requests resolved by cancellation.
    pub cancelled: u64,
    /// Requests resolved by deadline expiry.
    pub deadline_expired: u64,
    /// Sequence slots backing in-flight collectives right now.
    pub slots_held: usize,
    /// Sequence slots free right now.
    pub slots_free: usize,
    /// Sequence slots permanently quarantined by failures.
    pub slots_quarantined: usize,
    /// Submission-to-completion latency percentiles.
    pub latency: LatencySnapshot,
}

/// A point-in-time view of the whole service.
#[derive(Clone, Debug, Default)]
pub struct SvcStats {
    /// Per-job rows, ascending communicator id.
    pub jobs: Vec<JobStats>,
    /// Collectives in flight right now.
    pub inflight: usize,
    /// Completed failure epochs (0 = no rank has ever been committed
    /// failed).
    pub epoch: u64,
    /// The committed failed set, ascending rank order.
    pub failed: Vec<usize>,
    /// Whether admission is frozen because the last failed-set
    /// agreement resolved [`SvcError::QuorumLost`] (the service can
    /// only reach a minority of its members). Clears automatically
    /// when a later agreement commits — i.e. quorum is regained.
    pub admission_frozen: bool,
    /// Messages between two ranks of one node that the engine handed
    /// to the destination in place, with no fabric call. 0 on fabrics
    /// that do not report where ranks live.
    pub in_place: u64,
}

/// What a request is waiting on.
enum ReqState {
    Pending,
    Ready(Option<SvcResult<Vec<Vec<u8>>>>),
}

/// Completion plumbing shared by a [`Request`] and the engine.
pub(crate) struct ReqShared {
    state: Mutex<ReqState>,
    /// Holders blocked in [`Request::wait`]; a completion nobody waits
    /// on (the common case for a polled or batched request) costs no
    /// wake-up syscall.
    waiters: Waiters,
    /// Set by [`Request::cancel`] (or the handle's drop); the engine
    /// resolves the request with [`SvcError::Cancelled`] on its next
    /// pass and quarantines its slot if it was in flight.
    cancelled: std::sync::atomic::AtomicBool,
}

impl ReqShared {
    fn new() -> Arc<ReqShared> {
        Arc::new(ReqShared {
            state: Mutex::new(ReqState::Pending),
            waiters: Waiters::new(),
            cancelled: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Engine side: publish the outcome and wake waiters.
    pub(crate) fn complete(&self, result: SvcResult<Vec<Vec<u8>>>) {
        let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *g = ReqState::Ready(Some(result));
        self.waiters.notify(&g);
    }

    /// Engine side: has the holder asked to cancel?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Whether a result has been published (used by the drop guard to
    /// avoid flagging finished requests).
    fn is_pending(&self) -> bool {
        matches!(
            &*self.state.lock().unwrap_or_else(|p| p.into_inner()),
            ReqState::Pending
        )
    }
}

/// A handle on one in-flight collective. Obtain the result exactly once
/// via [`Request::test`], [`Request::wait`] or [`Request::wait_all`];
/// the result is the per-rank output buffers in rank order.
pub struct Request {
    shared: Arc<ReqShared>,
}

impl Request {
    /// Non-blocking completion check: `None` while in flight, the
    /// result once done.
    ///
    /// # Panics
    /// Panics if the result was already taken by a previous `test` or
    /// `wait`.
    pub fn test(&self) -> Option<SvcResult<Vec<Vec<u8>>>> {
        let mut g = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        match &mut *g {
            ReqState::Pending => None,
            ReqState::Ready(slot) => Some(slot.take().expect("request result taken twice")),
        }
    }

    /// Block until the collective completes. Bounded at three sync
    /// timeouts as a backstop — the engine fails stalled collectives
    /// itself well before that.
    ///
    /// # Panics
    /// Panics if the result was already taken.
    pub fn wait(&self) -> SvcResult<Vec<Vec<u8>>> {
        let backstop = sync_timeout() * 3;
        let g = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        let (_g, result) = self
            .shared
            .waiters
            .wait_for(g, backstop, |st| match st {
                ReqState::Ready(slot) => Some(slot.take().expect("request result taken twice")),
                ReqState::Pending => None,
            })
            .unwrap_or_else(|p| p.into_inner());
        result.unwrap_or(Err(SvcError::Stalled {
            waited: backstop,
            outstanding: 0,
        }))
    }

    /// Wait on a batch, returning results in input order.
    pub fn wait_all(reqs: impl IntoIterator<Item = Request>) -> Vec<SvcResult<Vec<Vec<u8>>>> {
        reqs.into_iter().map(|r| r.wait()).collect()
    }

    /// Ask the engine to abandon this collective. Idempotent and
    /// non-blocking: the request resolves with [`SvcError::Cancelled`]
    /// on the engine's next pass — a queued collective simply leaves
    /// the FIFO; an in-flight one has its sequence slot quarantined
    /// (peer frames may already be in flight) and its unsent NIC bytes
    /// refunded to the admission budget. A collective that completes
    /// before the engine sees the flag keeps its result.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Release);
    }
}

impl Drop for Request {
    /// Dropping the only handle on an unfinished collective cancels it:
    /// nobody can ever take the result, so letting it run would leak
    /// its sequence slot's budget share and its place in the admission
    /// queue to a request no one is waiting on.
    fn drop(&mut self) {
        if self.shared.is_pending() {
            self.cancel();
        }
    }
}

/// What a job hands the engine per collective: the *data-level* spec,
/// not a planned schedule — the engine plans at admission against the
/// current survivor group (and re-plans after a failure epoch).
pub(crate) struct Submission {
    pub comm: u32,
    pub spec: CollSpec,
    pub opts: SubmitOpts,
    pub req: Arc<ReqShared>,
}

/// Engine-facing shared state (submissions in, stats out).
pub(crate) struct Shared {
    pub fabric: Arc<dyn Fabric>,
    pub cfg: SvcConfig,
    pub sig: pipmcoll_fabric::wait::WorkSignal,
    pub inbox: Mutex<Vec<Submission>>,
    pub stop: std::sync::atomic::AtomicBool,
    /// Per-job counters, created on [`Svc::job`].
    pub counters: Mutex<HashMap<u32, Arc<JobCounters>>>,
    /// Collectives in flight (engine-maintained, snapshot-read).
    pub inflight: AtomicUsize,
    /// Completed failure epochs (engine-maintained).
    pub epoch: AtomicU64,
    /// Committed failed set as a rank bitmap (engine-maintained).
    pub failed_bits: AtomicU64,
    /// Admission frozen by a quorum-lost agreement (engine-maintained).
    pub frozen: std::sync::atomic::AtomicBool,
    /// Messages the engine delivered in place (engine-maintained).
    pub in_place: AtomicU64,
}

/// The service: one engine thread driving every job's collectives over
/// one shared fabric. Dropping the service shuts the engine down and
/// fails unfinished requests with [`SvcError::Shutdown`].
pub struct Svc {
    shared: Arc<Shared>,
    next_comm: std::sync::atomic::AtomicU32,
    engine: Option<std::thread::JoinHandle<()>>,
}

impl Svc {
    /// Start a service over `fabric`. Validates the `PIPMCOLL_*`
    /// environment so a malformed variable fails here, typed, instead
    /// of inside the engine thread.
    pub fn new(fabric: Arc<dyn Fabric>, cfg: SvcConfig) -> SvcResult<Svc> {
        pipmcoll_fabric::env::validate().map_err(FabricError::from)?;
        assert!(cfg.world >= 1, "a service needs at least one rank");
        let shared = Arc::new(Shared {
            fabric,
            cfg,
            sig: pipmcoll_fabric::wait::WorkSignal::new(),
            inbox: Mutex::new(Vec::new()),
            stop: std::sync::atomic::AtomicBool::new(false),
            counters: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            failed_bits: AtomicU64::new(0),
            frozen: std::sync::atomic::AtomicBool::new(false),
            in_place: AtomicU64::new(0),
        });
        let eng = Arc::clone(&shared);
        let engine = std::thread::Builder::new()
            .name("svc-engine".into())
            .spawn(move || engine::run(eng))
            .expect("spawn svc engine");
        Ok(Svc {
            shared,
            next_comm: std::sync::atomic::AtomicU32::new(0),
            engine: Some(engine),
        })
    }

    /// Open a new job (communicator): a disjoint tag sub-space over the
    /// same world. Fails with [`SvcError::CommExhausted`] after
    /// [`pipmcoll_fabric::tag::SVC_MAX_COMMS`] jobs.
    pub fn job(&self) -> SvcResult<Job> {
        let comm = self.next_comm.fetch_add(1, Ordering::Relaxed);
        if comm >= pipmcoll_fabric::tag::SVC_MAX_COMMS {
            return Err(SvcError::CommExhausted);
        }
        let counters = Arc::new(JobCounters::default());
        self.shared
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(comm, Arc::clone(&counters));
        Ok(Job {
            comm,
            counters,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Point-in-time per-job statistics.
    pub fn stats(&self) -> SvcStats {
        let g = self
            .shared
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut jobs: Vec<JobStats> = g
            .iter()
            .map(|(&comm, c)| JobStats {
                comm,
                admitted_bytes: c.admitted_bytes.load(Ordering::Relaxed),
                deferred_bytes: c.deferred_bytes.load(Ordering::Relaxed),
                admitted: c.admitted.load(Ordering::Relaxed),
                deferred: c.deferred.load(Ordering::Relaxed),
                completed: c.completed.load(Ordering::Relaxed),
                failed: c.failed.load(Ordering::Relaxed),
                queue_depth: c.queued.load(Ordering::Relaxed),
                retried: c.retried.load(Ordering::Relaxed),
                cancelled: c.cancelled.load(Ordering::Relaxed),
                deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
                slots_held: c.slots_held.load(Ordering::Relaxed),
                slots_free: c.slots_free.load(Ordering::Relaxed),
                slots_quarantined: c.slots_quarantined.load(Ordering::Relaxed),
                latency: c.latency.snapshot(),
            })
            .collect();
        jobs.sort_by_key(|j| j.comm);
        SvcStats {
            jobs,
            inflight: self.shared.inflight.load(Ordering::Relaxed),
            epoch: self.shared.epoch.load(Ordering::Relaxed),
            failed: pipmcoll_rt::RankSet::from_bits(
                self.shared.failed_bits.load(Ordering::Relaxed),
            )
            .ranks(),
            admission_frozen: self.shared.frozen.load(Ordering::Relaxed),
            in_place: self.shared.in_place.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Svc {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.sig.notify();
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

/// A communicator handle: non-blocking collectives over the service's
/// world, tagged into this job's sub-space. Cheap to clone.
#[derive(Clone)]
pub struct Job {
    comm: u32,
    counters: Arc<JobCounters>,
    shared: Arc<Shared>,
}

impl Job {
    /// This job's communicator id.
    pub fn comm(&self) -> u32 {
        self.comm
    }

    /// Submit any collective spec with per-request options. The spec is
    /// planned by the engine at admission against the current survivor
    /// group, and re-planned if a failure epoch shrinks it mid-flight.
    /// A spec that fails [`CollSpec::check`], or spans another world
    /// than the service's, resolves at once with [`SvcError::Invalid`].
    pub fn submit_with(&self, spec: CollSpec, opts: SubmitOpts) -> Request {
        let req = ReqShared::new();
        let world = self.shared.cfg.world;
        let checked = if spec.world() != world {
            Err(PlanError::Malformed {
                reason: format!("a world of {} in a service of {world}", spec.world()),
            })
        } else {
            spec.check()
        };
        if let Err(e) = checked {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            req.complete(Err(SvcError::Invalid(e)));
            return Request { shared: req };
        }
        self.counters.queued.fetch_add(1, Ordering::Relaxed);
        self.shared
            .inbox
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Submission {
                comm: self.comm,
                spec,
                opts,
                req: Arc::clone(&req),
            });
        self.shared.sig.notify();
        Request { shared: req }
    }

    fn submit(&self, spec: CollSpec) -> Request {
        self.submit_with(spec, SubmitOpts::default())
    }

    /// Non-blocking allreduce: `inputs[r]` is rank `r`'s contribution;
    /// the result (per rank) is the elementwise reduction.
    pub fn iallreduce(&self, dt: Datatype, op: ReduceOp, inputs: Vec<Vec<u8>>) -> Request {
        self.submit(CollSpec::Allreduce { dt, op, inputs })
    }

    /// Non-blocking allgather: every rank ends with the concatenation
    /// of all inputs in rank order.
    pub fn iallgather(&self, inputs: Vec<Vec<u8>>) -> Request {
        self.submit(CollSpec::Allgather { inputs })
    }

    /// Non-blocking scatter: rank `r` ends with `chunks[r]`.
    pub fn iscatter(&self, root: usize, chunks: Vec<Vec<u8>>) -> Request {
        self.submit(CollSpec::Scatter { root, chunks })
    }

    /// Non-blocking broadcast of `data` from `root`.
    pub fn ibcast(&self, root: usize, data: Vec<u8>) -> Request {
        self.submit(CollSpec::Bcast {
            world: self.shared.cfg.world,
            root,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> (Request, Arc<ReqShared>) {
        let shared = ReqShared::new();
        (
            Request {
                shared: Arc::clone(&shared),
            },
            shared,
        )
    }

    /// Every shape the engine can plan keeps its phases inside the wire
    /// tag's phase field: each kind, on both sides of each switch-point,
    /// rooted kinds at both ends of the world, worlds 1..=66 and 128.
    #[test]
    fn recorded_shapes_fit_the_phase_field() {
        use pipmcoll_core::tuning::{MCOLL_ALLGATHER_SWITCH_BYTES, MCOLL_ALLREDUCE_SWITCH_COUNT};
        use pipmcoll_fabric::tag::SVC_MAX_PHASE;
        for world in (1..=66).chain([128]) {
            let all: Vec<usize> = (0..world).collect();
            let mut specs = Vec::new();
            for count in [2, MCOLL_ALLREDUCE_SWITCH_COUNT] {
                specs.push(CollSpec::Allreduce {
                    dt: Datatype::Int32,
                    op: ReduceOp::Sum,
                    inputs: vec![vec![0; 4 * count]; world],
                });
            }
            for cb in [4, MCOLL_ALLGATHER_SWITCH_BYTES] {
                specs.push(CollSpec::Allgather {
                    inputs: vec![vec![0; cb]; world],
                });
            }
            for root in [0, world - 1] {
                specs.push(CollSpec::Scatter {
                    root,
                    chunks: vec![vec![0; 4]; world],
                });
                specs.push(CollSpec::Bcast {
                    world,
                    root,
                    data: vec![0; 4],
                });
            }
            for spec in specs {
                let phases = spec.phases_on(&all).unwrap();
                assert!(
                    phases < SVC_MAX_PHASE,
                    "{:?} at world {world} uses {phases} phases",
                    spec.kind()
                );
            }
        }
    }

    #[test]
    fn lost_wakeup_request_completes_before_or_after_wait() {
        // Completed before `wait`: the result is there without parking.
        let (req, shared) = request();
        shared.complete(Ok(vec![vec![1]]));
        assert_eq!(req.wait().unwrap(), vec![vec![1]]);
        // Completed after `wait` has parked.
        let (req, shared) = request();
        let engine = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.complete(Ok(vec![vec![2]]));
        });
        assert_eq!(req.wait().unwrap(), vec![vec![2]]);
        engine.join().unwrap();
        // Racing: an engine thread completes while the holder may be
        // anywhere between taking the lock and parking. A completion
        // that skipped the notify would leave it parked for three sync
        // timeouts.
        let (to_engine, inbox) = std::sync::mpsc::channel::<Arc<ReqShared>>();
        let engine = std::thread::spawn(move || {
            for (i, shared) in inbox.iter().enumerate() {
                shared.complete(Ok(vec![(i as u32).to_le_bytes().to_vec()]));
            }
        });
        for i in 0..10_000u32 {
            let (req, shared) = request();
            to_engine.send(shared).unwrap();
            let t0 = std::time::Instant::now();
            assert_eq!(req.wait().unwrap(), vec![i.to_le_bytes().to_vec()]);
            assert!(
                t0.elapsed() < sync_timeout(),
                "request {i} waited out a sync timeout: a wake-up was lost"
            );
        }
        drop(to_engine);
        engine.join().unwrap();
    }
}
