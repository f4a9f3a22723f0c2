//! The wire-tag namespace registry: every subsystem that puts a 32-bit
//! tag on the wire carves its space here, in one file, so disjointness
//! is checkable at a glance (and by the unit tests below).
//!
//! Layout of the 32-bit tag space:
//!
//! ```text
//! 0x0000_0000 .. 0x0000_FFFF   plain collective tags (schedule Tag ids)
//! 0xC000_0000 .. 0xCFFF_FFFF   service collectives (pipmcoll-svc):
//!                              1100 | comm_id:10 | seq_slot:12 | phase:6
//! 0xFE00_0000 .. 0xFEFF_FFFF   retry epochs (rt::ft::ShrunkComm):
//!                              0xFE | epoch:8 | tag:16
//! 0xFF00_0000 .. 0xFFFF_FFFF   failed-set agreement sweeps:
//!                              0xFF | domain:8 | epoch:8 | sweep:8
//!                              (domain 0 = rt::ft, 1 = pipmcoll-svc)
//! ```
//!
//! The service layout gives each communicator 2^10 = 1024 ids, each
//! in-flight collective one of 2^12 = 4096 sequence slots (the
//! `TagSpace` allocator in `pipmcoll-svc` recycles slots as
//! collectives complete), and each collective 2^6 = 64 internal phases.
//! A phase is the rank of a message's schedule tag among the distinct
//! tags of the recorded schedule the service runs, not a round number:
//! the ring allgather tags every step alike and takes one phase at any
//! world, and no schedule the service plans uses more than 14 at world
//! 128 (`pipmcoll-svc` tests every plannable shape, worlds 1–66 and
//! 128).

/// Namespace prefix for failed-set agreement sweeps.
pub const AGREE_NS: u32 = 0xFF00_0000;
/// Namespace prefix for retry-epoch collectives.
pub const RETRY_NS: u32 = 0xFE00_0000;
/// Namespace prefix for service-layer collectives.
pub const SVC_NS: u32 = 0xC000_0000;

/// Bits of the service tag carrying the communicator id.
pub const SVC_COMM_BITS: u32 = 10;
/// Bits of the service tag carrying the collective sequence slot.
pub const SVC_SEQ_BITS: u32 = 12;
/// Bits of the service tag carrying the internal phase.
pub const SVC_PHASE_BITS: u32 = 6;

/// Exclusive upper bound on service communicator ids.
pub const SVC_MAX_COMMS: u32 = 1 << SVC_COMM_BITS;
/// Exclusive upper bound on service sequence slots.
pub const SVC_MAX_SEQ: u32 = 1 << SVC_SEQ_BITS;
/// Exclusive upper bound on service phases.
pub const SVC_MAX_PHASE: u32 = 1 << SVC_PHASE_BITS;

/// The rt-layer agreement-sweep tag for `(epoch, sweep)` (domain 0).
pub fn agree(epoch: u32, sweep: u32) -> u32 {
    debug_assert!(epoch < 1 << 8 && sweep < 1 << 8);
    AGREE_NS | (epoch << 8) | sweep
}

/// The service-layer agreement-sweep tag (domain 1 of the `0xFF`
/// namespace, so an engine-driven agreement can never collide with a
/// concurrent rt-layer one). The service's agreement counter is
/// unbounded, so `epoch` is taken modulo 256 — safe because at most one
/// service agreement is in flight per engine and its sweeps complete
/// before the counter can wrap back around.
pub fn svc_agree(epoch: u32, sweep: u32) -> u32 {
    debug_assert!(sweep < 1 << 8);
    AGREE_NS | (1 << 16) | ((epoch & 0xFF) << 8) | sweep
}

/// The retry-epoch tag wrapping a plain collective `tag` (≤ 16 bits).
pub fn retry(epoch: u32, tag: u32) -> u32 {
    debug_assert!(epoch < 1 << 8);
    RETRY_NS | (epoch << 16) | (tag & 0xFFFF)
}

/// The service tag for phase `phase` of the collective in sequence slot
/// `seq_slot` on communicator `comm`.
pub fn svc(comm: u32, seq_slot: u32, phase: u32) -> u32 {
    debug_assert!(comm < SVC_MAX_COMMS, "comm id {comm} out of range");
    debug_assert!(seq_slot < SVC_MAX_SEQ, "seq slot {seq_slot} out of range");
    debug_assert!(phase < SVC_MAX_PHASE, "phase {phase} out of range");
    SVC_NS | (comm << (SVC_SEQ_BITS + SVC_PHASE_BITS)) | (seq_slot << SVC_PHASE_BITS) | phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The namespace a tag falls in, for the disjointness proofs.
    fn ns(tag: u32) -> &'static str {
        if tag <= 0xFFFF {
            "plain"
        } else if tag & 0xF000_0000 == SVC_NS {
            "svc"
        } else if tag & 0xFF00_0000 == RETRY_NS {
            "retry"
        } else if tag & 0xFF00_0000 == AGREE_NS {
            "agree"
        } else {
            "unclaimed"
        }
    }

    #[test]
    fn svc_layout_fills_the_word() {
        assert_eq!(4 + SVC_COMM_BITS + SVC_SEQ_BITS + SVC_PHASE_BITS, 32);
    }

    #[test]
    fn svc_packing_round_trips() {
        let t = svc(SVC_MAX_COMMS - 1, SVC_MAX_SEQ - 1, SVC_MAX_PHASE - 1);
        assert_eq!(t, 0xCFFF_FFFF, "all-ones coordinates fill the suffix");
        assert_eq!(svc(0, 0, 0), SVC_NS);
        // Distinct coordinates give distinct tags.
        let a = svc(3, 100, 5);
        assert_ne!(a, svc(4, 100, 5));
        assert_ne!(a, svc(3, 101, 5));
        assert_ne!(a, svc(3, 100, 6));
    }

    #[test]
    fn namespaces_are_disjoint() {
        assert_eq!(ns(0), "plain");
        assert_eq!(ns(0xFFFF), "plain");
        assert_eq!(ns(svc(0, 0, 0)), "svc");
        assert_eq!(
            ns(svc(SVC_MAX_COMMS - 1, SVC_MAX_SEQ - 1, SVC_MAX_PHASE - 1)),
            "svc"
        );
        assert_eq!(ns(retry(0, 0)), "retry");
        assert_eq!(ns(retry(255, 0xFFFF)), "retry");
        assert_eq!(ns(agree(0, 0)), "agree");
        assert_eq!(ns(agree(255, 255)), "agree");
        assert_eq!(ns(svc_agree(0, 0)), "agree");
        assert_eq!(ns(svc_agree(4096, 255)), "agree");
    }

    #[test]
    fn svc_agreement_domain_is_disjoint_from_rt() {
        for epoch in [0u32, 1, 7, 255] {
            for sweep in [0u32, 1, 5, 255] {
                assert_ne!(
                    svc_agree(epoch, sweep),
                    agree(epoch, sweep),
                    "epoch {epoch} sweep {sweep}"
                );
                // Distinct (epoch mod 256, sweep) pairs give distinct tags.
                assert_eq!(svc_agree(epoch + 256, sweep), svc_agree(epoch, sweep));
            }
        }
    }

    #[test]
    fn legacy_constants_are_preserved() {
        // rt::ft's original bit layouts, now produced by the helpers.
        assert_eq!(agree(2, 3), 0xFF00_0000 | (2 << 8) | 3);
        assert_eq!(retry(1, 0x0042), 0xFE00_0000 | (1 << 16) | 0x0042);
    }
}
