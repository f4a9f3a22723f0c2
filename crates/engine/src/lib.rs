//! # pipmcoll-engine — deterministic discrete-event cluster simulator
//!
//! Replays a recorded [`pipmcoll_sched::Schedule`] over the cost models in
//! `pipmcoll-model` and reports virtual completion times. This is the
//! substitute for the paper's 128-node Omni-Path testbed (see DESIGN.md §2).
//!
//! ## Resource model
//!
//! Contention — the phenomenon the multi-object design exploits — is
//! modelled with FIFO resources, each an availability timestamp that
//! serialises users:
//!
//! * one **injection engine per rank** (a single process cannot exceed
//!   `proc_msg_rate` / `proc_bandwidth`),
//! * one **NIC TX** and one **NIC RX pipeline per node** (aggregate
//!   `nic_msg_rate` / `link_bandwidth` caps),
//! * one **memory bus per node** (aggregate `node_mem_bw`), with each copy
//!   additionally busying its core at `core_copy_bw`.
//!
//! Point-to-point sends are routed automatically: internode traffic goes
//! through injection → NIC TX → wire → NIC RX; intranode traffic goes
//! through the configured shared-memory [`pipmcoll_model::Mechanism`],
//! paying its documented copy/syscall/page-fault counts. Messages at or
//! above the eager threshold use a rendezvous handshake.
//!
//! The PiP-MColl-specific ops (`PostAddr`/`CopyIn`/`CopyOut`/`ReduceIn`)
//! model the shared-address-space fast path: a flag-latency start-up plus a
//! single copy, with *no* syscalls and *no* handshake.
//!
//! ## Determinism
//!
//! Ranks are advanced in virtual-time order from a binary heap keyed
//! `(clock, seq, rank)`, where `seq` counts pushes: ranks at equal clocks
//! run in the order they were pushed. All arithmetic is integer
//! picoseconds. Two runs of the same schedule produce bit-identical
//! reports.

pub mod config;
pub mod pt2pt;
pub mod report;
pub mod resources;
pub mod sim;

pub use config::EngineConfig;
pub use report::SimReport;
pub use sim::{simulate, SimError};
