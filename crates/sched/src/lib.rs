//! # pipmcoll-sched — communication-schedule IR and interpreters
//!
//! PiP-MColl's collective algorithms are *data-independent*: given the
//! topology, message size and algorithm, the sequence of operations each
//! rank performs is fixed. This crate exploits that to run the **same
//! algorithm source code** everywhere:
//!
//! * **Recording** ([`trace::record`]): each rank's program is executed once
//!   against a [`trace::TraceComm`], producing a straight-line per-rank op
//!   list — a [`schedule::Schedule`]. The discrete-event engine
//!   (`pipmcoll-engine`) replays that schedule over a machine cost model to
//!   obtain virtual runtimes (the paper's figures).
//! * **Direct execution**: the thread runtime (`pipmcoll-rt`) implements the
//!   same [`comm::Comm`] trait with real threads sharing an address space —
//!   the Process-in-Process substitution — for genuine wall-clock
//!   measurements of the intranode paths.
//! * **Resumable execution** ([`exec::Exec`]): the one interpreter of a
//!   recorded schedule on real bytes — a program counter per rank, sends
//!   to an outbox, arrivals handed back through `deliver`. It has three
//!   consumers: the [`dataflow`] loop, which runs the ranks in one fixed
//!   order, delivers every send at once, and provides ground truth for
//!   correctness (every collective in `pipmcoll-core` is validated
//!   against MPI semantics through it, by [`verify::run`]);
//!   `pipmcoll-core`'s non-blocking collectives (`core::nb`); and, through
//!   them, the multi-tenant service engine (`pipmcoll-svc`), which carries
//!   the payloads over a real fabric.
//!
//! Concurrency safety is established by the [`hb`] module's **sound**
//! happens-before analysis: every op gets a vector clock, ordering edges
//! come from send/recv matching, waits, address posts, flag counts and
//! node barriers, and any unordered conflicting access to overlapping
//! bytes of one buffer — under *any* interleaving, not just the one the
//! dataflow interpreter runs — is reported as a race. The same graph
//! yields deadlock detection with a named waits-for cycle. It is the one
//! race check: one proof, then one execution. [`verify::run`] proves
//! every schedule the tests execute, the thread runtime refuses to
//! execute schedules that fail the analysis, and the service runs only
//! schedules that passed it.

pub mod comm;
pub mod dataflow;
pub mod exec;
pub mod hb;
pub mod ids;
pub mod op;
pub mod schedule;
pub mod trace;
pub mod verify;

pub use comm::{BufSizes, Comm};
pub use exec::{Exec, MsgRef, Wiring};
pub use hb::{HbError, HbReport, Violation};
pub use ids::{BufId, FlagId, Region, RemoteRegion, Req, Slot, Tag};
pub use op::Op;
pub use schedule::{RankProgram, Schedule, ValidationError};
pub use trace::{record, record_with_sizes, TraceComm};
