//! The TCP backend's wire protocol: length-prefixed frames with an
//! eager/rendezvous split, framed for *dirty* transports — every frame
//! opens with a magic byte and a format version, and closes its header
//! with a CRC-32C checksum covering header and payload.
//!
//! Every frame starts with a fixed 47-byte little-endian header:
//!
//! ```text
//! offset  size  field
//!      0     1  magic       0xB7 (stream-desync sentinel)
//!      1     1  version     wire-format version (currently 1)
//!      2     1  kind        (1=EAGER, 2=RTS, 3=CTS, 4=DATA, 5=ACK, 6=HEARTBEAT)
//!      3     4  src rank
//!      7     4  dst rank
//!     11     4  tag
//!     15     8  seq         per-channel sequence (EAGER/RTS/DATA/ACK)
//!     23     8  aux         rendezvous transfer id (RTS/CTS/DATA)
//!     31     2  seg_idx     segment index within a striped message
//!     33     2  seg_count   total segments (0 or 1 = unsegmented)
//!     35     8  payload len
//!     43     4  CRC-32C     over bytes [0..43) ++ payload
//!     47     …  payload     (EAGER and DATA only)
//! ```
//!
//! The PR 9 header silently grew 37→41 bytes with nothing a peer could
//! use to notice: a mixed-build pair would misparse every frame as
//! garbage. The magic byte distinguishes "this is not our protocol at
//! all / the stream desynced" from "this *is* our protocol, but a
//! different format version" — the latter surfaces as a typed
//! [`WireError::Version`] carrying both version bytes, which the TCP
//! backend converts into `MalformedFrame { expected_version, got }`.
//!
//! **Integrity.** The trailing CRC-32C (Castagnoli polynomial; the x86
//! `crc32` instruction when the CPU has SSE4.2, a slicing-by-8 table
//! fallback otherwise — std-only either way, and large payloads use a
//! tri-stream digest, see `frame_crc`) covers the header prefix and
//! the payload. Receivers
//! verify it *before* trusting any field: a checksum mismatch makes the
//! whole frame untrustworthy, so the decoder consumes and discards it
//! exactly as if the wire had eaten it ([`FrameDecoder::take_corrupt`]
//! counts these). The PR 3/4 cumulative-ack + retransmit machinery then
//! recovers the clean copy with **zero new protocol states** — a
//! corrupted frame is just a lost frame with a forensic trail. A flip
//! that lands in the length field can desync the stream: the CRC over
//! the mis-extended frame fails (drop), and the next decode attempt
//! trips the magic check ([`WireError::BadMagic`]) — the byte stream
//! cannot be resynced, so the backend reconnects and retransmit
//! recovers, the same path a torn socket takes. Lengths above
//! [`MAX_PAYLOAD`] are rejected outright ([`WireError::Oversize`])
//! rather than stalling the decoder waiting for bytes that will never
//! come.
//!
//! Small messages travel as a single `EAGER` frame. Above the eager
//! threshold the sender stashes the payload and sends `RTS`; the receiver
//! answers `CTS` on the same lane's reverse direction; the sender then
//! ships the payload in a `DATA` frame. Because a later eager message can
//! physically arrive before an earlier rendezvous payload, every
//! payload-bearing frame carries its channel sequence number and the
//! receive side reassembles send order (see `store::MsgStore`).
//!
//! `ACK` closes the loss-recovery loop, and acks are **cumulative**: an
//! `ACK` frame's `seq` is the receiver's next-expected sequence for the
//! channel, acknowledging *everything below it* at once. The sender
//! keeps unacked frames in a per-channel pending queue, retransmitting
//! with exponential backoff until the watermark passes them or the
//! retransmit budget runs out. Receivers batch: instead of one control
//! reply per frame, they flush one `ACK` per dirty channel when the
//! inbound socket goes quiet (or every 32 frames under sustained load),
//! and an ack owed on a channel's reverse direction piggybacks in the
//! otherwise-unused `aux` field of the next outgoing `EAGER` frame
//! (`aux = watermark + 1`; 0 means none, since watermark 0 carries no
//! information). The sequence dedup in `store::MsgStore` makes
//! retransmits idempotent, and any later delivery on the channel
//! re-raises the watermark — so a lost ack costs one duplicate frame,
//! never a duplicate message, and never a stuck sender.
//!
//! A message at or above `tcp::TcpConfig::stripe_min` is split into up
//! to k segments, each an ordinary sequenced
//! frame on its own lane. `seg_idx`/`seg_count` tell the receive side
//! how to reassemble: segments of one message occupy *consecutive*
//! channel sequence numbers, so the existing hold-back/dedup machinery
//! orders and de-duplicates them for free, and `store::MsgStore` glues
//! `seg_count` consecutive deliveries back into one message before FIFO
//! release. `seg_count` 0 or 1 means the frame carries a whole message.

use std::fmt;
use std::io::{self, Read};

/// First byte of every frame. Chosen to be unlikely in ASCII traffic
/// and asymmetric under bit reversal, so a desynced stream trips the
/// check almost immediately.
pub const MAGIC: u8 = 0xB7;

/// The wire-format version this build speaks. Bump on any layout
/// change; a peer speaking another version is typed, not garbage.
pub const WIRE_VERSION: u8 = 1;

/// Size of the fixed frame header in bytes (magic + version + fields +
/// CRC-32C).
pub const HEADER_LEN: usize = 47;

/// Byte offset of the header's CRC-32C field; the checksum covers
/// `[0..CRC_OFFSET)` plus the payload.
const CRC_OFFSET: usize = HEADER_LEN - 4;

/// Largest payload a frame may declare (1 GiB). A corrupted length
/// field must not leave the decoder waiting forever for bytes that
/// will never arrive.
pub const MAX_PAYLOAD: u64 = 1 << 30;

// ---------------------------------------------------------------------
// CRC-32C (Castagnoli), slicing-by-8, std-only.
//
// A plain 256-entry table CRC is a serial chain: every byte's lookup
// waits on the previous one (~4-5 cycle table-load latency each), and
// on the eager hot path that tax is measurable — switching from
// byte-at-a-time to slicing-by-8 recovered most of a ~30% 64B
// message-rate hit on the fabric sweep. Slicing-by-8 folds 8 input
// bytes per step through 8 independent tables (const-built at compile
// time, 8 KiB total) whose lookups can issue in parallel; only the
// final XOR reduction is serial.
// ---------------------------------------------------------------------

/// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
const CRC32C_POLY: u32 = 0x82F6_3B78;

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC32C_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // Table k advances a byte's contribution k extra positions:
    // t[k][i] = one more table-0 step applied to t[k-1][i].
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Feed bytes through the CRC register (no init/finalize — composable
/// over disjoint slices, which is how the encoder checksums header and
/// payload without concatenating them). Dispatches to the x86 `crc32`
/// instruction when available — the SSE4.2 instruction implements
/// exactly this reflected Castagnoli update at ~1 byte/cycle×8, which
/// keeps the checksum off the bandwidth critical path for large
/// frames (the table fallback alone more than halved 128 KiB
/// throughput on the fabric sweep).
fn crc32c_feed(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the sse4.2 check above proves the `crc32`
        // instructions used inside are supported on this CPU.
        return unsafe { crc32c_feed_hw(crc, data) };
    }
    crc32c_feed_sw(crc, data)
}

/// Hardware CRC-32C: the SSE4.2 `crc32` instruction family, 8 bytes
/// per issue. Same register convention as the table path (no
/// init/finalize), proven equivalent by `hw_and_sw_crc_agree`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_feed_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut c = crc as u64;
    for ch in &mut chunks {
        let word = u64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
        c = _mm_crc32_u64(c, word);
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

/// Software fallback: slicing-by-8 over the const tables.
fn crc32c_feed_sw(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32C of one contiguous slice (init `!0`, final complement —
/// the standard Castagnoli convention: `crc32c(b"123456789") ==
/// 0xE3069283`).
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_feed(!0, data)
}

/// Payloads at or above this length use the tri-stream digest in
/// [`frame_crc`]; below it, the plain contiguous CRC (one cheap pass,
/// and the interleave setup would not pay for itself).
const CRC_TRI_MIN: usize = 4096;

/// The frame checksum. For small payloads: CRC-32C over the header
/// prefix then the payload as one logical byte string. For payloads ≥
/// [`CRC_TRI_MIN`]: the payload is split into three near-equal thirds
/// whose CRCs are computed as three *interleaved* dependency chains,
/// and the digest is the CRC of the header prefix, the payload length,
/// and the three third-CRCs.
///
/// The split exists because one CRC stream is latency-bound: both the
/// hardware `crc32` instruction (3-cycle latency, 1/cycle throughput)
/// and a table lookup chain serialize on the previous result, capping
/// a single stream near 2.7 bytes/cycle. Three independent chains in
/// one loop pipeline to ~8 bytes/cycle — on the fabric sweep this was
/// the difference between a ~23% and a single-digit 128 KiB bandwidth
/// tax. A standard-CRC-preserving version of this trick needs a GF(2)
/// `crc32_combine` per frame, which costs more than it saves at these
/// sizes; since this checksum only ever has to agree between our own
/// encoder and decoder, folding the three digests is enough. Error
/// detection is not weakened: each third is covered by a full CRC-32C
/// (any burst ≤ 32 bits within a third is caught), and a change in any
/// third-CRC changes the outer digest.
fn frame_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    if payload.len() < CRC_TRI_MIN {
        return !crc32c_feed(crc32c_feed(!0, header_prefix), payload);
    }
    let third = (payload.len() / 3) & !7;
    let (a, rest) = payload.split_at(third);
    let (b, c) = rest.split_at(third);
    let (ca, cb, cc) = crc32c_tri(a, b, c);
    let mut tail = [0u8; 20];
    tail[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    tail[8..12].copy_from_slice(&ca.to_le_bytes());
    tail[12..16].copy_from_slice(&cb.to_le_bytes());
    tail[16..].copy_from_slice(&cc.to_le_bytes());
    !crc32c_feed(crc32c_feed(!0, header_prefix), &tail)
}

/// CRC-32C of three slices, computed as three interleaved chains. `a`
/// and `b` have equal multiple-of-8 lengths; `c` may be longer (it
/// absorbs the split remainder — its overhang past `a.len()` is fed
/// single-stream).
fn crc32c_tri(a: &[u8], b: &[u8], c: &[u8]) -> (u32, u32, u32) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the sse4.2 check above proves the `crc32`
        // instructions used inside are supported on this CPU.
        return unsafe { crc32c_tri_hw(a, b, c) };
    }
    (crc32c(a), crc32c(b), crc32c(c))
}

/// Three pipelined `crc32` chains in one loop — the instruction has
/// single-cycle throughput, so independent chains hide each other's
/// latency. Equivalence with the contiguous implementation is proven
/// by `tri_stream_matches_plain_crcs`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_tri_hw(a: &[u8], b: &[u8], c: &[u8]) -> (u32, u32, u32) {
    use std::arch::x86_64::_mm_crc32_u64;
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % 8, 0);
    debug_assert!(c.len() >= a.len());
    let word =
        |s: &[u8], i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("8-byte window"));
    let (mut ca, mut cb, mut cc) = (!0u64, !0u64, !0u64);
    let mut i = 0;
    while i < a.len() {
        ca = _mm_crc32_u64(ca, word(a, i));
        cb = _mm_crc32_u64(cb, word(b, i));
        cc = _mm_crc32_u64(cc, word(c, i));
        i += 8;
    }
    // c's overhang: up to 7 bytes of split remainder plus its extra
    // length beyond the rounded third.
    let cc = crc32c_feed_hw(cc as u32, &c[a.len()..]);
    (!(ca as u32), !(cb as u32), !cc)
}

// ---------------------------------------------------------------------
// Typed decode failures.
// ---------------------------------------------------------------------

/// Why a byte stream could not be decoded into frames. All variants are
/// *stream* errors — the connection cannot be resynced and must
/// reconnect. (A checksum mismatch is deliberately **not** here: the
/// frame boundary is still trustworthy, so the decoder drops the frame
/// and keeps going; see [`FrameDecoder::take_corrupt`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The next byte is not [`MAGIC`]: not our protocol, or the stream
    /// desynced (e.g. after a corrupted length field).
    BadMagic {
        /// The byte found where the magic belonged.
        got: u8,
    },
    /// Right magic, wrong format version — a mixed-build peer.
    Version {
        /// The version this build speaks ([`WIRE_VERSION`]).
        expected: u8,
        /// The version the frame declared.
        got: u8,
    },
    /// A checksum-valid frame with an unknown kind discriminator —
    /// a same-version peer we fundamentally disagree with.
    BadKind {
        /// The unknown kind byte.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// The declared length.
        len: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(f, "bad magic byte {got:#04x} (expected {MAGIC:#04x})")
            }
            WireError::Version { expected, got } => {
                write!(
                    f,
                    "wire-format version {got} (this build speaks {expected})"
                )
            }
            WireError::BadKind { got } => write!(f, "unknown frame kind byte {got}"),
            WireError::Oversize { len } => {
                write!(f, "declared payload length {len} exceeds {MAX_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Frame discriminator (third header byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Payload inline; the whole message in one frame.
    Eager = 1,
    /// Rendezvous request-to-send: announces `seq` under transfer `aux`.
    Rts = 2,
    /// Rendezvous clear-to-send: receiver grants transfer `aux`.
    Cts = 3,
    /// Rendezvous payload for transfer `aux`.
    Data = 4,
    /// Cumulative acknowledgement: `seq` is the receiver's
    /// next-expected sequence on this channel; the sender drops every
    /// pending frame below it from its retransmit queue.
    Ack = 5,
    /// Liveness beacon for the node pair. Carries no channel state —
    /// src/dst are representative ranks of the two nodes, seq/aux are
    /// zero. Any frame arrival proves the peer alive; heartbeats exist
    /// only so a *quiet* pair still proves it (see `tcp` heartbeat
    /// sideband). Never acked, never retransmitted, never sequenced.
    Heartbeat = 6,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Eager),
            2 => Some(FrameKind::Rts),
            3 => Some(FrameKind::Cts),
            4 => Some(FrameKind::Data),
            5 => Some(FrameKind::Ack),
            6 => Some(FrameKind::Heartbeat),
            _ => None,
        }
    }
}

/// One wire frame (header fields plus owned payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame discriminator.
    pub kind: FrameKind,
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Message tag.
    pub tag: u32,
    /// Per-channel sequence number (EAGER/RTS/DATA), or the cumulative
    /// next-expected watermark (ACK).
    pub seq: u64,
    /// Rendezvous transfer id (RTS/CTS/DATA), or a piggybacked
    /// cumulative ack for the reverse channel (EAGER): `watermark + 1`,
    /// with 0 meaning no ack aboard.
    pub aux: u64,
    /// Segment index within a striped message (EAGER/DATA at or above
    /// the stripe threshold); 0 otherwise.
    pub seg_idx: u16,
    /// Total segments of the striped message this frame belongs to.
    /// 0 or 1 means the frame carries a whole, unsegmented message.
    pub seg_count: u16,
    /// Inline payload (EAGER/DATA; empty otherwise).
    pub payload: Vec<u8>,
}

/// What [`Frame::decode_prefix`] found at the front of the buffer.
enum Prefix {
    /// Not enough bytes for a verdict yet.
    Need,
    /// A complete frame whose checksum failed: its `usize` bytes must be
    /// consumed and its contents must not be trusted.
    Corrupt(usize),
    /// A complete, checksum-valid frame and its encoded length.
    Ok(Frame, usize),
}

impl Frame {
    /// Encode the frame as header + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Encode into `out`, replacing its contents. Reuses `out`'s
    /// existing capacity — this is how pooled frame buffers avoid a
    /// fresh allocation per message (see `pool::FramePool::encode`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_into_with(out, &self.payload);
    }

    /// [`Frame::encode_into`] with the payload supplied as a slice,
    /// ignoring `self.payload`. This is how the stripe send path encodes
    /// each segment straight from a sub-slice of the caller's message —
    /// one header per segment, zero intermediate payload copies. The
    /// single encode choke point: every frame that reaches a wire is
    /// checksummed here.
    pub fn encode_into_with(&self, out: &mut Vec<u8>, payload: &[u8]) {
        out.clear();
        out.reserve(HEADER_LEN + payload.len());
        out.push(MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.aux.to_le_bytes());
        out.extend_from_slice(&self.seg_idx.to_le_bytes());
        out.extend_from_slice(&self.seg_count.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = frame_crc(&out[..CRC_OFFSET], payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Read one frame from `r` (blocking). `Err` on EOF or any framing
    /// problem — including a checksum mismatch, which in this blocking
    /// one-shot API has no retransmit path behind it and is therefore
    /// an error rather than a silent drop.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut h = [0u8; HEADER_LEN];
        r.read_exact(&mut h)?;
        if h[0] != MAGIC {
            return Err(WireError::BadMagic { got: h[0] }.into());
        }
        if h[1] != WIRE_VERSION {
            return Err(WireError::Version {
                expected: WIRE_VERSION,
                got: h[1],
            }
            .into());
        }
        let len = u64::from_le_bytes(h[35..43].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize { len }.into());
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        let want = u32::from_le_bytes(h[43..47].try_into().unwrap());
        if frame_crc(&h[..CRC_OFFSET], &payload) != want {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        let kind =
            FrameKind::from_u8(h[2]).ok_or(io::Error::from(WireError::BadKind { got: h[2] }))?;
        Ok(Frame {
            kind,
            src: u32::from_le_bytes(h[3..7].try_into().unwrap()),
            dst: u32::from_le_bytes(h[7..11].try_into().unwrap()),
            tag: u32::from_le_bytes(h[11..15].try_into().unwrap()),
            seq: u64::from_le_bytes(h[15..23].try_into().unwrap()),
            aux: u64::from_le_bytes(h[23..31].try_into().unwrap()),
            seg_idx: u16::from_le_bytes(h[31..33].try_into().unwrap()),
            seg_count: u16::from_le_bytes(h[33..35].try_into().unwrap()),
            payload,
        })
    }

    /// The channel this frame belongs to.
    pub fn chan(&self) -> crate::ChanKey {
        (self.src as usize, self.dst as usize, self.tag)
    }

    /// Peek a payload frame's identity (channel + sequence) straight
    /// from its encoded header, without touching the payload. `None`
    /// for control kinds — the kinds the retransmit table never holds.
    pub fn peek_payload_id(bytes: &[u8]) -> Option<(crate::ChanKey, u64)> {
        if bytes.len() < HEADER_LEN || bytes[0] != MAGIC || bytes[1] != WIRE_VERSION {
            return None;
        }
        match FrameKind::from_u8(bytes[2]) {
            Some(FrameKind::Eager | FrameKind::Data) => {}
            _ => return None,
        }
        let src = u32::from_le_bytes(bytes[3..7].try_into().unwrap()) as usize;
        let dst = u32::from_le_bytes(bytes[7..11].try_into().unwrap()) as usize;
        let tag = u32::from_le_bytes(bytes[11..15].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[15..23].try_into().unwrap());
        Some(((src, dst, tag), seq))
    }

    /// Decode one frame from the front of `bytes`. Magic and version
    /// are checked first (they gate whether the length field means
    /// anything); the checksum is verified over the complete frame
    /// *before any field is trusted*, so a corrupted frame — wherever
    /// the flip landed — comes back as [`Prefix::Corrupt`], not as a
    /// frame with plausible-looking garbage in it.
    fn decode_prefix(bytes: &[u8]) -> Result<Prefix, WireError> {
        if bytes.len() < HEADER_LEN {
            return Ok(Prefix::Need);
        }
        if bytes[0] != MAGIC {
            return Err(WireError::BadMagic { got: bytes[0] });
        }
        if bytes[1] != WIRE_VERSION {
            return Err(WireError::Version {
                expected: WIRE_VERSION,
                got: bytes[1],
            });
        }
        let len = u64::from_le_bytes(bytes[35..43].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize { len });
        }
        let total = HEADER_LEN + len as usize;
        if bytes.len() < total {
            return Ok(Prefix::Need);
        }
        let want = u32::from_le_bytes(bytes[43..47].try_into().unwrap());
        if frame_crc(&bytes[..CRC_OFFSET], &bytes[HEADER_LEN..total]) != want {
            return Ok(Prefix::Corrupt(total));
        }
        let Some(kind) = FrameKind::from_u8(bytes[2]) else {
            return Err(WireError::BadKind { got: bytes[2] });
        };
        Ok(Prefix::Ok(
            Frame {
                kind,
                src: u32::from_le_bytes(bytes[3..7].try_into().unwrap()),
                dst: u32::from_le_bytes(bytes[7..11].try_into().unwrap()),
                tag: u32::from_le_bytes(bytes[11..15].try_into().unwrap()),
                seq: u64::from_le_bytes(bytes[15..23].try_into().unwrap()),
                aux: u64::from_le_bytes(bytes[23..31].try_into().unwrap()),
                seg_idx: u16::from_le_bytes(bytes[31..33].try_into().unwrap()),
                seg_count: u16::from_le_bytes(bytes[33..35].try_into().unwrap()),
                payload: bytes[HEADER_LEN..total].to_vec(),
            },
            total,
        ))
    }
}

/// Incremental frame decoder for nonblocking sockets: feed it whatever
/// byte chunks the kernel hands back, pull out as many complete frames
/// as have accumulated. A frame split across reads simply waits in the
/// buffer until its tail arrives — the nonblocking analogue of
/// [`Frame::read_from`]'s blocking `read_exact` pair.
///
/// Checksum-failed frames are consumed and *silently skipped* — the
/// wire ate them, as far as the protocol is concerned, and retransmit
/// recovers the clean copy. They are tallied; the backend drains the
/// tally into its `corrupt_frames` statistic via
/// [`FrameDecoder::take_corrupt`].
///
/// The internal buffer is reused across frames (consumed bytes are
/// compacted away lazily), so a steady stream of small frames settles
/// into zero decoder-side allocations apart from the per-frame payload
/// vector the receiver keeps anyway.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already decoded and awaiting compaction.
    pos: usize,
    /// Checksum-failed frames consumed since the last
    /// [`FrameDecoder::take_corrupt`].
    corrupt: u64,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append freshly read bytes to the undecoded tail.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: reclaiming the consumed prefix keeps
        // the buffer from creeping up under a long-lived connection.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete, checksum-valid frame, if one has fully
    /// arrived. Checksum-failed frames are consumed, counted, and
    /// skipped without surfacing here. `Ok(None)` means "need more
    /// bytes"; `Err` means the stream is garbled beyond recovery
    /// (reconnect, don't resync) — wrong magic, wrong format version,
    /// unknown kind, or an insane length.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            match Frame::decode_prefix(&self.buf[self.pos..])? {
                Prefix::Ok(frame, used) => {
                    self.pos += used;
                    return Ok(Some(frame));
                }
                Prefix::Corrupt(used) => {
                    self.pos += used;
                    self.corrupt += 1;
                }
                Prefix::Need => return Ok(None),
            }
        }
    }

    /// Drain the count of checksum-failed frames consumed since the
    /// last call.
    pub fn take_corrupt(&mut self) -> u64 {
        std::mem::take(&mut self.corrupt)
    }

    /// Bytes buffered but not yet decoded into a frame (a partial frame
    /// in flight).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_answer() {
        // The standard Castagnoli check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn tri_stream_matches_plain_crcs() {
        // The interleaved kernel must produce exactly the contiguous
        // CRC of each third — including c's overhang tail — across
        // lengths around the tri threshold and odd remainders.
        for len in [CRC_TRI_MIN, CRC_TRI_MIN + 1, 3 * 4096, 100_003] {
            let data: Vec<u8> = (0..len as u32).map(|i| (i * 131 + 3) as u8).collect();
            let third = (len / 3) & !7;
            let (a, rest) = data.split_at(third);
            let (b, c) = rest.split_at(third);
            assert_eq!(
                crc32c_tri(a, b, c),
                (crc32c(a), crc32c(b), crc32c(c)),
                "len {len}"
            );
        }
    }

    #[test]
    fn tri_digest_detects_corruption_in_every_third() {
        let header = [7u8; CRC_OFFSET];
        let payload: Vec<u8> = (0..3 * 4096u32).map(|i| (i * 13) as u8).collect();
        let clean = frame_crc(&header, &payload);
        for pos in [0, payload.len() / 2, payload.len() - 1] {
            let mut bad = payload.clone();
            bad[pos] ^= 0x40;
            assert_ne!(frame_crc(&header, &bad), clean, "flip at {pos} undetected");
        }
    }

    #[test]
    fn hw_and_sw_crc_agree() {
        // Every length 0..=64 plus a large buffer, so both the 8-byte
        // main loop and every remainder length are exercised against
        // the table implementation.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in (0..=64).chain([1000, 4096]) {
            let sw = !crc32c_feed_sw(!0, &data[..len]);
            let via_dispatch = crc32c(&data[..len]);
            assert_eq!(sw, via_dispatch, "mismatch at len {len}");
        }
    }

    #[test]
    fn crc_composes_over_split_slices() {
        let whole = crc32c(b"header+payload");
        let split = !crc32c_feed(crc32c_feed(!0, b"header+"), b"payload");
        assert_eq!(whole, split);
    }

    #[test]
    fn roundtrip_all_kinds() {
        for (kind, payload) in [
            (FrameKind::Eager, vec![1u8, 2, 3]),
            (FrameKind::Rts, vec![]),
            (FrameKind::Cts, vec![]),
            (FrameKind::Data, vec![0u8; 1000]),
            (FrameKind::Ack, vec![]),
            (FrameKind::Heartbeat, vec![]),
        ] {
            let f = Frame {
                kind,
                src: 3,
                dst: 11,
                tag: 42,
                seq: 9,
                aux: 77,
                seg_idx: 2,
                seg_count: 5,
                payload,
            };
            let bytes = f.encode();
            assert_eq!(bytes.len(), HEADER_LEN + f.payload.len());
            assert_eq!(bytes[0], MAGIC);
            assert_eq!(bytes[1], WIRE_VERSION);
            let mut cursor = &bytes[..];
            let back = Frame::read_from(&mut cursor).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn zero_length_payload_roundtrips() {
        let f = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 1,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        };
        let mut cursor = &f.encode()[..];
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), f);
    }

    #[test]
    fn encode_into_replaces_dirty_contents() {
        let f = Frame {
            kind: FrameKind::Eager,
            src: 1,
            dst: 2,
            tag: 3,
            seq: 4,
            aux: 5,
            seg_idx: 1,
            seg_count: 2,
            payload: vec![6, 7],
        };
        let mut buf = vec![0xFFu8; 500];
        f.encode_into(&mut buf);
        assert_eq!(buf, f.encode());
    }

    #[test]
    fn segment_fields_sit_at_their_documented_offsets() {
        let f = Frame {
            kind: FrameKind::Data,
            src: 1,
            dst: 2,
            tag: 3,
            seq: 10,
            aux: 4,
            seg_idx: 3,
            seg_count: 7,
            payload: vec![0xAA; 5],
        };
        let bytes = f.encode();
        assert_eq!(u16::from_le_bytes(bytes[31..33].try_into().unwrap()), 3);
        assert_eq!(u16::from_le_bytes(bytes[33..35].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(bytes[35..43].try_into().unwrap()), 5);
        let back = Frame::read_from(&mut &bytes[..]).unwrap();
        assert_eq!((back.seg_idx, back.seg_count), (3, 7));
    }

    #[test]
    fn checksum_sits_at_its_documented_offset_and_covers_the_payload() {
        let f = Frame {
            kind: FrameKind::Eager,
            src: 1,
            dst: 2,
            tag: 3,
            seq: 4,
            aux: 5,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![0x55; 16],
        };
        let bytes = f.encode();
        let stored = u32::from_le_bytes(bytes[43..47].try_into().unwrap());
        let mut covered = bytes[..CRC_OFFSET].to_vec();
        covered.extend_from_slice(&bytes[HEADER_LEN..]);
        assert_eq!(stored, crc32c(&covered));
    }

    #[test]
    fn encode_into_with_substitutes_the_payload() {
        let f = Frame {
            kind: FrameKind::Eager,
            src: 1,
            dst: 2,
            tag: 3,
            seq: 4,
            aux: 0,
            seg_idx: 1,
            seg_count: 4,
            payload: vec![],
        };
        let mut out = Vec::new();
        f.encode_into_with(&mut out, &[9, 8, 7]);
        let mut whole = f.clone();
        whole.payload = vec![9, 8, 7];
        assert_eq!(out, whole.encode(), "slice payload encodes identically");
    }

    #[test]
    fn decoder_reassembles_frames_split_across_reads() {
        let frames: Vec<Frame> = (0..5u8)
            .map(|i| Frame {
                kind: FrameKind::Eager,
                src: i as u32,
                dst: 1,
                tag: 2,
                seq: i as u64,
                aux: 0,
                seg_idx: 0,
                seg_count: 0,
                payload: vec![i; 10 + i as usize * 7],
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Feed in ragged chunks that never align with frame boundaries.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(13) {
            dec.feed(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending_bytes(), 0);
        assert_eq!(dec.take_corrupt(), 0);
    }

    #[test]
    fn decoder_surfaces_bad_magic_as_desync() {
        let mut bytes = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![1, 2],
        }
        .encode();
        bytes[0] = 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            WireError::BadMagic { got: 0xFF }
        );
    }

    #[test]
    fn decoder_types_a_version_mismatch() {
        let mut bytes = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        }
        .encode();
        bytes[1] = WIRE_VERSION + 1;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            WireError::Version {
                expected: WIRE_VERSION,
                got: WIRE_VERSION + 1
            }
        );
    }

    #[test]
    fn corrupt_payload_is_counted_and_skipped() {
        let good = Frame {
            kind: FrameKind::Eager,
            src: 1,
            dst: 2,
            tag: 3,
            seq: 7,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![0xAB; 32],
        };
        let mut corrupt = good.encode();
        // Flip one payload bit: the checksum must catch it.
        corrupt[HEADER_LEN + 5] ^= 0x10;
        let mut wire = corrupt;
        wire.extend_from_slice(&good.encode());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        // The corrupt frame is absorbed; the next good one comes out.
        let f = dec.next_frame().unwrap().expect("good frame follows");
        assert_eq!(f, good);
        assert_eq!(dec.take_corrupt(), 1);
        assert_eq!(dec.take_corrupt(), 0, "tally drains");
    }

    #[test]
    fn corrupt_crc_field_is_counted_and_skipped() {
        let good = Frame {
            kind: FrameKind::Heartbeat,
            src: 0,
            dst: 1,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        };
        let mut bytes = good.encode();
        bytes[CRC_OFFSET] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.take_corrupt(), 1);
    }

    #[test]
    fn bad_kind_byte_is_a_stream_error_only_when_checksummed() {
        // A frame re-checksummed around a bogus kind byte is a protocol
        // disagreement, not line noise.
        let mut bytes = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        }
        .encode();
        bytes[2] = 9;
        let crc = frame_crc(&bytes[..CRC_OFFSET], &[]);
        bytes[CRC_OFFSET..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame().unwrap_err(), WireError::BadKind { got: 9 });
        // The same flip *without* a fixed-up checksum is just corruption.
        let mut noisy = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        }
        .encode();
        noisy[2] = 9;
        let mut dec = FrameDecoder::new();
        dec.feed(&noisy);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.take_corrupt(), 1);
    }

    #[test]
    fn oversize_length_is_rejected_not_awaited() {
        let mut bytes = Frame {
            kind: FrameKind::Eager,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            seg_idx: 0,
            seg_count: 0,
            payload: vec![],
        }
        .encode();
        bytes[35..43].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            WireError::Oversize {
                len: MAX_PAYLOAD + 1
            }
        );
    }
}
