//! Deterministic fault injection: the [`ChaosFabric`] wrapper and the
//! frame-level [`WireChaos`] hook it installs into socket backends.
//!
//! The paper's premise is that k concurrent objects drive the fabric
//! *harder* — which on a real network means more frames in flight to
//! drop, reorder, duplicate and corrupt. The chaos layer proves the
//! collectives stay byte-correct under exactly that pressure,
//! deterministically: every fault decision comes from a seeded
//! xorshift64* stream ([`ChaosRng`]), so a failing run reproduces from
//! its seed.
//!
//! **Per-class streams.** Each fault class (drop, dup, corrupt, ack
//! drop, delay, kill…) draws from its *own* forked sub-stream
//! ([`ChaosRng::fork`]). With one shared stream, every configuration
//! replayed the same fate prefix — a short run with `drop:0.05` and a
//! short run with `drop:0.05,corrupt:0.02` consumed the stream
//! differently, and adding one fault class silently reshuffled all the
//! others. Forked streams make each class's decisions a pure function
//! of (seed, class, frame index): adding corruption cannot move where
//! the drops land.
//!
//! Faults come in three tiers:
//!
//! * **Frame-level** (drop, duplicate, corrupt) — these violate the
//!   reliable wire and are only recoverable by a backend with
//!   retransmit, sequence dedup and checksums. `ChaosFabric` offers the
//!   backend a shared [`WireChaos`] via [`Fabric::install_chaos`];
//!   `TcpFabric` accepts and consults it for every eager frame *below*
//!   sequence-number assignment, so a dropped frame looks exactly like
//!   first-transmission loss, a duplicate like a spurious retransmit,
//!   and a corrupted frame like line noise the CRC must catch.
//!   Corruption happens *post-encode*: the backend sends a bit-flipped
//!   copy of the real bytes while its retransmit table keeps the
//!   pristine original. Backends that decline (in-process delivery has
//!   no wire) simply never see these faults.
//! * **Topology-level** (directed link faults `link:A>B`, symmetric
//!   partitions `part:0|1,2`) — a [`WireChaos::cut`] link eats *every*
//!   frame crossing it, first transmissions and retransmits and
//!   heartbeats alike, which is what a real partition does. These are
//!   what the quorum rule in `rt::ft` is tested against. Groups are
//!   node indices (max 64 nodes).
//! * **Interface-level** (delay jitter, mid-run lane kills) — safe under
//!   any backend. Delays perturb thread interleavings and hold-back
//!   pressure; lane kills exercise [`Fabric::kill_lane`] degradation.
//!
//! Configuration rides the environment so any run can become a chaos
//! run without code changes:
//!
//! ```text
//! PIPMCOLL_CHAOS=drop:0.05,dup:0.02,corrupt:0.02,delay:5ms,lane_kill:1
//! PIPMCOLL_CHAOS=part:0|1,2        # node 0 cut off from nodes 1 and 2
//! PIPMCOLL_CHAOS=link:1>0          # node 1's frames to node 0 vanish
//! PIPMCOLL_CHAOS_SEED=42           # optional, default 1
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::{FabricDiag, FabricError, FabricResult};
use crate::stats::FabricStats;
use crate::{ChanKey, Fabric};

/// Minimal xorshift64* generator: deterministic for a given seed, no
/// external crates. This is the workspace's one PRNG — the integration
/// suite re-exports it as `TestRng`.
pub struct ChaosRng {
    state: u64,
    /// The construction seed, kept so [`ChaosRng::fork`] derives
    /// sub-streams from the *origin*, independent of how many values
    /// this stream has already produced.
    seed: u64,
}

impl ChaosRng {
    /// Seeded generator (seed 0 is mapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        let s = if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        };
        ChaosRng { state: s, seed: s }
    }

    /// Derive an independent sub-stream for `label`. Forking is a pure
    /// function of the construction seed and the label — *not* of how
    /// many values have been drawn — so per-fault-class streams stay
    /// aligned across configurations: the "drop" stream of seed 42 is
    /// the same stream whether or not "corrupt" was also configured.
    pub fn fork(&self, label: &str) -> ChaosRng {
        // FNV-1a over the label, mixed into the seed with an odd
        // rotation so `fork("ab")` and `fork("ba")` land far apart.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        ChaosRng::new(self.seed ^ h.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parsed chaos parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Probability an eager frame's first transmission is dropped.
    pub drop: f64,
    /// Probability an eager frame is sent twice.
    pub dup: f64,
    /// Probability an eager frame's bytes are bit-flipped post-encode
    /// (the receiver's CRC-32C must catch it; retransmit recovers).
    pub corrupt: f64,
    /// Probability a standalone cumulative-ack frame is dropped (the
    /// sender's retransmit and the receiver's dedup must absorb it).
    pub ack_drop: f64,
    /// Directed link fault: every frame from node `.0` to node `.1`
    /// vanishes (first transmissions, retransmits and heartbeats alike).
    pub link: Option<(usize, usize)>,
    /// Symmetric partition, as two disjoint node-group bitmasks; zero
    /// masks mean no partition. Frames between the groups vanish in
    /// both directions.
    pub part_a: u64,
    /// Second partition group (see [`ChaosConfig::part_a`]).
    pub part_b: u64,
    /// Upper bound of the uniform per-send delay (0 disables).
    pub delay: Duration,
    /// Number of lanes to kill mid-run.
    pub lane_kill: usize,
    /// Send index at which the first kill fires (subsequent kills fire
    /// at the same spacing); `None` draws it from the seed.
    pub kill_after: Option<u64>,
    /// RNG seed for every fault decision.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            ack_drop: 0.0,
            link: None,
            part_a: 0,
            part_b: 0,
            delay: Duration::ZERO,
            lane_kill: 0,
            kill_after: None,
            seed: 1,
        }
    }
}

impl ChaosConfig {
    /// Parse the `PIPMCOLL_CHAOS` grammar:
    /// `drop:<prob>,dup:<prob>,corrupt:<prob>,ack_drop:<prob>,`
    /// `delay:<ms>ms,lane_kill:<n>,link:<a>><b>,part:<ids>|<ids>`
    /// — every field optional, any order. Partition groups are
    /// comma-separated node ids (`part:0|1,2` puts node 0 alone against
    /// nodes 1 and 2), which is why tokenization re-joins a bare number
    /// onto the field before it.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        // Split on ',', then fold tokens lacking ':' back into their
        // predecessor — `part:0|1,2` is one field, not two.
        let mut fields: Vec<String> = Vec::new();
        for raw in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if raw.contains(':') {
                fields.push(raw.to_string());
            } else if let Some(last) = fields.last_mut() {
                last.push(',');
                last.push_str(raw);
            } else {
                return Err(format!("chaos field {raw:?} is not key:value"));
            }
        }
        for part in &fields {
            let (key, val) = part
                .split_once(':')
                .ok_or_else(|| format!("chaos field {part:?} is not key:value"))?;
            match key.trim() {
                "drop" => cfg.drop = parse_prob("drop", val)?,
                "dup" => cfg.dup = parse_prob("dup", val)?,
                "corrupt" => cfg.corrupt = parse_prob("corrupt", val)?,
                "ack_drop" => cfg.ack_drop = parse_prob("ack_drop", val)?,
                "link" => {
                    let (a, b) = val
                        .trim()
                        .split_once('>')
                        .ok_or_else(|| format!("chaos link {val:?} is not a>b"))?;
                    let a = parse_node("link", a)?;
                    let b = parse_node("link", b)?;
                    if a == b {
                        return Err(format!("chaos link {a}>{b} names one node twice"));
                    }
                    cfg.link = Some((a, b));
                }
                "part" => {
                    let (ga, gb) = val
                        .trim()
                        .split_once('|')
                        .ok_or_else(|| format!("chaos part {val:?} is not group|group"))?;
                    cfg.part_a = parse_group(ga)?;
                    cfg.part_b = parse_group(gb)?;
                    if cfg.part_a & cfg.part_b != 0 {
                        return Err(format!("chaos part {val:?} groups overlap"));
                    }
                }
                "delay" => {
                    let ms = val
                        .trim()
                        .strip_suffix("ms")
                        .unwrap_or(val.trim())
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("chaos delay {val:?} is not a millisecond count"))?;
                    cfg.delay = Duration::from_millis(ms);
                }
                "lane_kill" => {
                    cfg.lane_kill = val
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("chaos lane_kill {val:?} is not a count"))?;
                }
                other => return Err(format!("unknown chaos field {other:?}")),
            }
        }
        if cfg.drop + cfg.dup + cfg.corrupt >= 1.0 {
            return Err(format!(
                "chaos drop ({}) + dup ({}) + corrupt ({}) must leave room for delivery",
                cfg.drop, cfg.dup, cfg.corrupt
            ));
        }
        Ok(cfg)
    }

    /// The configuration selected by `PIPMCOLL_CHAOS` /
    /// `PIPMCOLL_CHAOS_SEED`, or `None` when chaos is off.
    ///
    /// # Panics
    /// Panics on a malformed spec or seed — a typo in a fault-injection
    /// campaign must fail loudly, not silently run without faults.
    pub fn from_env() -> Option<ChaosConfig> {
        let spec = std::env::var("PIPMCOLL_CHAOS").ok()?;
        let mut cfg = ChaosConfig::parse(&spec)
            .unwrap_or_else(|e| panic!("PIPMCOLL_CHAOS={spec:?} is malformed: {e}"));
        if let Some(seed) = crate::env::read_u64("PIPMCOLL_CHAOS_SEED", "a u64 seed")
            .unwrap_or_else(|e| panic!("{e}"))
        {
            cfg.seed = seed;
        }
        Some(cfg)
    }
}

fn parse_prob(name: &str, val: &str) -> Result<f64, String> {
    let p = val
        .trim()
        .parse::<f64>()
        .map_err(|_| format!("chaos {name} {val:?} is not a probability"))?;
    if !(0.0..1.0).contains(&p) {
        return Err(format!("chaos {name} {p} outside [0, 1)"));
    }
    Ok(p)
}

fn parse_node(name: &str, val: &str) -> Result<usize, String> {
    let n = val
        .trim()
        .parse::<usize>()
        .map_err(|_| format!("chaos {name} node {val:?} is not a node index"))?;
    if n >= 64 {
        return Err(format!("chaos {name} node {n} outside the 64-node limit"));
    }
    Ok(n)
}

fn parse_group(group: &str) -> Result<u64, String> {
    let mut mask = 0u64;
    for id in group.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        mask |= 1u64 << parse_node("part", id)?;
    }
    if mask == 0 {
        return Err(format!("chaos part group {group:?} is empty"));
    }
    Ok(mask)
}

/// What a backend should do with one outgoing frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Send it normally.
    Deliver,
    /// Pretend the wire ate it (the backend's retransmit must recover).
    Drop,
    /// Send it twice (the receiver's dedup must collapse it).
    Dup,
    /// Send a bit-flipped copy of the encoded bytes (the receiver's
    /// checksum must reject it; the backend keeps the pristine bytes
    /// for retransmit).
    Corrupt,
}

/// Runtime-mutable topology faults, one lock so a cut decision is one
/// acquisition. Initialized from the config; tests flip them mid-run to
/// model partitions that heal and links that brown out.
struct LinkFaults {
    link: Option<(usize, usize)>,
    part: Option<(u64, u64)>,
    /// A lane shedding frames: `(lane, drop probability)` — the
    /// ingredient of a gray failure, where a path is degraded but not
    /// dead.
    lane_drop: Option<(usize, f64)>,
}

/// The frame-level fault stream a chaotic wrapper shares with its
/// backend via [`Fabric::install_chaos`].
pub struct WireChaos {
    drop: f64,
    dup: f64,
    corrupt: f64,
    ack_drop: f64,
    // One forked stream per fault class (see the module doc): each
    // class's decisions depend only on (seed, class, frame index).
    drop_rng: Mutex<ChaosRng>,
    dup_rng: Mutex<ChaosRng>,
    corrupt_rng: Mutex<ChaosRng>,
    flip_rng: Mutex<ChaosRng>,
    ack_rng: Mutex<ChaosRng>,
    lane_rng: Mutex<ChaosRng>,
    faults: Mutex<LinkFaults>,
    dropped: AtomicU64,
    dupped: AtomicU64,
    corrupted: AtomicU64,
    acks_dropped: AtomicU64,
    cut_frames: AtomicU64,
    lane_dropped: AtomicU64,
}

impl WireChaos {
    /// A fault stream for `cfg`, seeded from `cfg.seed`.
    pub fn new(cfg: &ChaosConfig) -> Self {
        // Distinct base from the interface-level RNG so installing wire
        // chaos does not perturb delay/kill decisions.
        let base = ChaosRng::new(cfg.seed.wrapping_mul(0x9E37_79B9).max(1));
        WireChaos {
            drop: cfg.drop,
            dup: cfg.dup,
            corrupt: cfg.corrupt,
            ack_drop: cfg.ack_drop,
            drop_rng: Mutex::new(base.fork("drop")),
            dup_rng: Mutex::new(base.fork("dup")),
            corrupt_rng: Mutex::new(base.fork("corrupt")),
            flip_rng: Mutex::new(base.fork("flip")),
            ack_rng: Mutex::new(base.fork("ack_drop")),
            lane_rng: Mutex::new(base.fork("lane_drop")),
            faults: Mutex::new(LinkFaults {
                link: cfg.link,
                part: if cfg.part_a != 0 || cfg.part_b != 0 {
                    Some((cfg.part_a, cfg.part_b))
                } else {
                    None
                },
                lane_drop: None,
            }),
            dropped: AtomicU64::new(0),
            dupped: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            acks_dropped: AtomicU64::new(0),
            cut_frames: AtomicU64::new(0),
            lane_dropped: AtomicU64::new(0),
        }
    }

    /// Whether the directed edge `from → to` (node indices) is severed
    /// by a link fault or partition. Pure topology — no randomness, no
    /// counters — so backends can consult it on *every* path a byte
    /// takes out of a node: first transmissions, control frames,
    /// retransmits and heartbeats. A partition that spared retransmits
    /// would not be a partition.
    pub fn cut(&self, from: usize, to: usize) -> bool {
        if from == to {
            return false;
        }
        let Ok(f) = self.faults.lock() else {
            return false;
        };
        if f.link == Some((from, to)) {
            return true;
        }
        if let Some((a, b)) = f.part {
            let (fa, ta) = (a >> from & 1 != 0, a >> to & 1 != 0);
            let (fb, tb) = (b >> from & 1 != 0, b >> to & 1 != 0);
            if (fa && tb) || (fb && ta) {
                return true;
            }
        }
        false
    }

    /// Record one frame eaten by a [`WireChaos::cut`] edge.
    pub fn note_cut(&self) {
        self.cut_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Install, replace or clear (with `None`) the directed link fault
    /// at runtime.
    pub fn set_link(&self, link: Option<(usize, usize)>) {
        if let Ok(mut f) = self.faults.lock() {
            f.link = link;
        }
    }

    /// Install, replace or clear (with `None`) the partition at runtime.
    pub fn set_partition(&self, part: Option<(u64, u64)>) {
        if let Ok(mut f) = self.faults.lock() {
            f.part = part;
        }
    }

    /// Make `lane` shed frames with probability `p` — a gray failure:
    /// the lane is degraded, not dead, and the backend's brownout
    /// detector is expected to route around it.
    pub fn degrade_lane(&self, lane: usize, p: f64) {
        if let Ok(mut f) = self.faults.lock() {
            f.lane_drop = Some((lane, p.clamp(0.0, 1.0)));
        }
    }

    /// Clear any lane degradation (the gray failure lifts).
    pub fn heal_lanes(&self) {
        if let Ok(mut f) = self.faults.lock() {
            f.lane_drop = None;
        }
    }

    /// Roll the fate of one outgoing frame on the directed edge
    /// `from → to` (node indices) over `lane`. A cut edge always eats
    /// the frame; a degraded lane sheds it with the configured
    /// probability; otherwise the per-class streams decide. Every class
    /// draws every call — stream stability is what makes one class's
    /// decisions independent of the others' outcomes.
    pub fn fate_for(&self, from: usize, to: usize, lane: usize) -> FrameFate {
        if self.cut(from, to) {
            self.note_cut();
            return FrameFate::Drop;
        }
        if let Ok(f) = self.faults.lock() {
            if let Some((l, p)) = f.lane_drop {
                if l == lane {
                    drop(f);
                    let u = match self.lane_rng.lock() {
                        Ok(mut rng) => rng.unit(),
                        Err(_) => 1.0,
                    };
                    if u < p {
                        self.lane_dropped.fetch_add(1, Ordering::Relaxed);
                        return FrameFate::Drop;
                    }
                }
            }
        }
        self.fate()
    }

    /// Roll the fate of one outgoing frame from the per-class streams
    /// alone (no topology faults — see [`WireChaos::fate_for`]).
    pub fn fate(&self) -> FrameFate {
        // All classes draw unconditionally, then priority picks
        // drop > dup > corrupt: the observed dup rate is (1−p_drop)·p_dup
        // and the corrupt rate (1−p_drop)(1−p_dup)·p_corrupt.
        let d = match self.drop_rng.lock() {
            Ok(mut rng) => rng.unit(),
            // A poisoned RNG must not take down a progress thread — the
            // frame just gets delivered.
            Err(_) => return FrameFate::Deliver,
        };
        let p = match self.dup_rng.lock() {
            Ok(mut rng) => rng.unit(),
            Err(_) => return FrameFate::Deliver,
        };
        let c = match self.corrupt_rng.lock() {
            Ok(mut rng) => rng.unit(),
            Err(_) => return FrameFate::Deliver,
        };
        if d < self.drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            FrameFate::Drop
        } else if p < self.dup {
            self.dupped.fetch_add(1, Ordering::Relaxed);
            FrameFate::Dup
        } else if c < self.corrupt {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
            FrameFate::Corrupt
        } else {
            FrameFate::Deliver
        }
    }

    /// Flip 1–3 seeded bits in an encoded frame, given as its header and
    /// its payload, confined to the CRC field and payload
    /// (`wire::HEADER_LEN − 4` onward, counted over the two parts as one
    /// byte string). Flips there always present as a checksum mismatch —
    /// the silent-drop path the retransmit machinery absorbs — never as
    /// a garbled header, which would tear the whole connection down and
    /// test reconnect instead of integrity.
    pub fn corrupt_bytes(&self, header: &mut [u8], payload: &mut [u8]) {
        let lo = crate::wire::HEADER_LEN - 4;
        let len = header.len() + payload.len();
        if len <= lo {
            return;
        }
        let Ok(mut rng) = self.flip_rng.lock() else {
            return;
        };
        // An odd flip count can never cancel itself out, so a frame
        // rolled Corrupt is always genuinely damaged — the receiver-side
        // `corrupt_frames ≥ corrupted()` accounting depends on it.
        let flips = if rng.flip() { 1 } else { 3 };
        for _ in 0..flips {
            let at = rng.range(lo, len);
            let byte = match at.checked_sub(header.len()) {
                Some(i) => &mut payload[i],
                None => &mut header[at],
            };
            *byte ^= 1 << rng.range(0, 8);
        }
    }

    /// Roll whether one outgoing standalone ack frame on the edge
    /// `from → to` is eaten by the wire. `true` means drop it.
    pub fn ack_fate_for(&self, from: usize, to: usize) -> bool {
        if self.cut(from, to) {
            self.note_cut();
            return true;
        }
        self.ack_fate()
    }

    /// Roll whether one outgoing standalone ack frame is eaten by the
    /// wire, from the ack stream alone. `true` means drop it. Separate
    /// from [`WireChaos::fate`] so tests can target the lost-ack
    /// recovery path precisely: the data frame arrives, its ack dies,
    /// and the sender's retransmit must be collapsed by receiver dedup.
    pub fn ack_fate(&self) -> bool {
        if self.ack_drop == 0.0 {
            return false;
        }
        let u = match self.ack_rng.lock() {
            Ok(mut rng) => rng.unit(),
            Err(_) => return false,
        };
        if u < self.ack_drop {
            self.acks_dropped.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Frames dropped so far (probabilistic drops only; cut and
    /// lane-degrade losses have their own counters).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames duplicated so far.
    pub fn dupped(&self) -> u64 {
        self.dupped.load(Ordering::Relaxed)
    }

    /// Frames bit-flipped so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Standalone ack frames dropped so far.
    pub fn acks_dropped(&self) -> u64 {
        self.acks_dropped.load(Ordering::Relaxed)
    }

    /// Frames eaten by cut links/partitions so far.
    pub fn cut_frames(&self) -> u64 {
        self.cut_frames.load(Ordering::Relaxed)
    }

    /// Frames shed by a degraded lane so far.
    pub fn lane_dropped(&self) -> u64 {
        self.lane_dropped.load(Ordering::Relaxed)
    }
}

/// A [`Fabric`] wrapper injecting deterministic, seeded faults.
///
/// Works over any backend: frame-level faults (drop/dup/corrupt) and
/// topology faults (link/part) are delegated to the backend through
/// [`Fabric::install_chaos`] and silently skipped if it declines;
/// delays and lane kills are applied at this layer. Every other call,
/// from receives and health to [`Fabric::node_of`] and
/// [`Fabric::drive`], goes to the backend as it is, so a service run
/// over a chaos-wrapped wire takes the same paths as one over the bare
/// wire.
pub struct ChaosFabric<F: Fabric> {
    inner: F,
    cfg: ChaosConfig,
    wire: Arc<WireChaos>,
    /// Whether the backend consumes frame-level faults.
    wired: bool,
    /// Interface-level per-class streams (forked like the wire's, and
    /// for the same reason: a delay decision must not move a kill).
    delay_rng: Mutex<ChaosRng>,
    kill_rng: Mutex<ChaosRng>,
    sends: AtomicU64,
    /// Non-blocking receive polls; counted toward kill scheduling so a
    /// poll-driven consumer (the svc engine never calls `send` between
    /// arrivals it is waiting on) still reaches scheduled lane kills.
    polls: AtomicU64,
    /// Op index at which the next lane kill fires.
    next_kill: AtomicU64,
    kills_left: AtomicUsize,
    kill_spacing: u64,
}

impl<F: Fabric> ChaosFabric<F> {
    /// Wrap `inner` with the faults described by `cfg`.
    pub fn new(inner: F, cfg: ChaosConfig) -> Self {
        let wire = Arc::new(WireChaos::new(&cfg));
        let wired = inner.install_chaos(Arc::clone(&wire));
        let base = ChaosRng::new(cfg.seed);
        let mut kill_rng = base.fork("kill");
        let spacing = cfg
            .kill_after
            .unwrap_or_else(|| kill_rng.range(20, 80) as u64)
            .max(1);
        ChaosFabric {
            inner,
            cfg,
            wire,
            wired,
            delay_rng: Mutex::new(base.fork("delay")),
            kill_rng: Mutex::new(kill_rng),
            sends: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            next_kill: AtomicU64::new(spacing),
            kills_left: AtomicUsize::new(cfg.lane_kill),
            kill_spacing: spacing,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The shared frame-level fault stream (for test assertions and
    /// runtime fault mutation).
    pub fn wire(&self) -> &WireChaos {
        &self.wire
    }

    /// Whether the backend accepted frame-level fault injection.
    pub fn wired(&self) -> bool {
        self.wired
    }

    /// Fire any lane kill scheduled at or before send index `n`.
    fn maybe_kill(&self, n: u64) {
        if self.kills_left.load(Ordering::Relaxed) == 0
            || n < self.next_kill.load(Ordering::Relaxed)
        {
            return;
        }
        // One thread wins the right to perform this kill.
        if self
            .kills_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1))
            .is_err()
        {
            return;
        }
        self.next_kill
            .fetch_add(self.kill_spacing, Ordering::Relaxed);
        let lanes = self.inner.lanes();
        let start = match self.kill_rng.lock() {
            Ok(mut rng) => rng.range(0, lanes.max(1)),
            Err(_) => 0,
        };
        // The backend refuses to kill its last surviving lane; try each
        // candidate once.
        for i in 0..lanes {
            if self.inner.kill_lane((start + i) % lanes) {
                return;
            }
        }
    }
}

impl<F: Fabric> Fabric for ChaosFabric<F> {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn send(&self, key: ChanKey, payload: Vec<u8>) -> FabricResult<()> {
        let n = self.sends.fetch_add(1, Ordering::Relaxed);
        self.maybe_kill(n);
        if !self.cfg.delay.is_zero() {
            let jitter = match self.delay_rng.lock() {
                Ok(mut rng) => self.cfg.delay.mul_f64(rng.unit()),
                Err(_) => Duration::ZERO,
            };
            if !jitter.is_zero() {
                std::thread::sleep(jitter);
            }
        }
        self.inner.send(key, payload)
    }

    fn recv_within(&self, key: ChanKey, timeout: Duration) -> FabricResult<Vec<u8>> {
        self.inner.recv_within(key, timeout)
    }

    fn try_recv(&self, key: ChanKey) -> FabricResult<Option<Vec<u8>>> {
        // Polls advance the kill schedule alongside sends: a consumer
        // that only polls between arrivals must still hit scheduled
        // kills. No delay jitter here — it would serialize a poll loop.
        let n = self.sends.load(Ordering::Relaxed) + self.polls.fetch_add(1, Ordering::Relaxed);
        self.maybe_kill(n);
        self.inner.try_recv(key)
    }

    fn reset(&self) {
        self.inner.reset();
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn diag(&self) -> FabricDiag {
        self.inner.diag()
    }

    fn drain_errors(&self) -> Vec<FabricError> {
        self.inner.drain_errors()
    }

    fn kill_lane(&self, lane: usize) -> bool {
        self.inner.kill_lane(lane)
    }

    fn health(&self) -> crate::FabricHealth {
        self.inner.health()
    }

    fn node_of(&self, rank: usize) -> Option<usize> {
        self.inner.node_of(rank)
    }

    fn drive(&self, stay: bool) {
        self.inner.drive(stay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InProcFabric;

    #[test]
    fn parse_full_spec() {
        let cfg =
            ChaosConfig::parse("drop:0.05,dup:0.02,corrupt:0.02,delay:5ms,lane_kill:1").unwrap();
        assert_eq!(cfg.drop, 0.05);
        assert_eq!(cfg.dup, 0.02);
        assert_eq!(cfg.corrupt, 0.02);
        assert_eq!(cfg.delay, Duration::from_millis(5));
        assert_eq!(cfg.lane_kill, 1);
    }

    #[test]
    fn parse_partial_and_unsuffixed_delay() {
        let cfg = ChaosConfig::parse("delay:3").unwrap();
        assert_eq!(cfg.delay, Duration::from_millis(3));
        assert_eq!(cfg.drop, 0.0);
        assert_eq!(ChaosConfig::parse("").unwrap(), ChaosConfig::default());
    }

    #[test]
    fn parse_topology_faults() {
        let cfg = ChaosConfig::parse("link:1>0").unwrap();
        assert_eq!(cfg.link, Some((1, 0)));
        // The comma inside a partition group must survive tokenization.
        let cfg = ChaosConfig::parse("part:0|1,2,drop:0.1").unwrap();
        assert_eq!(cfg.part_a, 0b001);
        assert_eq!(cfg.part_b, 0b110);
        assert_eq!(cfg.drop, 0.1);
        let cfg = ChaosConfig::parse("part:0,3|1,2").unwrap();
        assert_eq!(cfg.part_a, 0b1001);
        assert_eq!(cfg.part_b, 0b0110);
    }

    #[test]
    fn parse_ack_drop() {
        let cfg = ChaosConfig::parse("ack_drop:0.25").unwrap();
        assert_eq!(cfg.ack_drop, 0.25);
        let wire = WireChaos::new(&cfg);
        let n = 10_000;
        let mut dropped = 0;
        for _ in 0..n {
            if wire.ack_fate() {
                dropped += 1;
            }
        }
        assert_eq!(wire.acks_dropped(), dropped);
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "ack drop rate {rate}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("drop:1.5").is_err());
        assert!(ChaosConfig::parse("drop=0.1").is_err());
        assert!(ChaosConfig::parse("frobnicate:1").is_err());
        assert!(ChaosConfig::parse("drop:0.6,dup:0.5").is_err());
        assert!(
            ChaosConfig::parse("drop:0.5,dup:0.3,corrupt:0.3").is_err(),
            "corrupt counts against the delivery budget"
        );
        assert!(ChaosConfig::parse("link:1>1").is_err());
        assert!(ChaosConfig::parse("link:1-0").is_err());
        assert!(ChaosConfig::parse("part:0|0,1").is_err(), "overlap");
        assert!(ChaosConfig::parse("part:0").is_err(), "one group");
        assert!(ChaosConfig::parse("part:|0").is_err(), "empty group");
        assert!(ChaosConfig::parse("part:0|99").is_err(), "node over 64");
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let u = ChaosRng::new(7).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn fork_is_independent_of_draw_position() {
        // Forking derives from the construction seed, so a stream that
        // has already produced values forks the same sub-stream as a
        // fresh twin — per-class streams cannot drift with call order.
        let mut a = ChaosRng::new(42);
        let b = ChaosRng::new(42);
        for _ in 0..17 {
            a.next_u64();
        }
        assert_eq!(a.fork("drop").next_u64(), b.fork("drop").next_u64());
        // Distinct labels give distinct streams.
        assert_ne!(b.fork("drop").next_u64(), b.fork("dup").next_u64());
        assert_ne!(b.fork("ab").next_u64(), b.fork("ba").next_u64());
    }

    #[test]
    fn adding_a_fault_class_does_not_move_the_others() {
        // The PR 3 gotcha: with one shared stream, configuring corrupt
        // reshuffled where drops landed. Forked per-class streams keep
        // the drop pattern identical across the two configs.
        let plain = WireChaos::new(&ChaosConfig {
            drop: 0.2,
            ..ChaosConfig::default()
        });
        let dirty = WireChaos::new(&ChaosConfig {
            drop: 0.2,
            dup: 0.1,
            corrupt: 0.1,
            ..ChaosConfig::default()
        });
        let fates_a: Vec<bool> = (0..500).map(|_| plain.fate() == FrameFate::Drop).collect();
        let fates_b: Vec<bool> = (0..500).map(|_| dirty.fate() == FrameFate::Drop).collect();
        assert_eq!(fates_a, fates_b);
    }

    #[test]
    fn fate_frequencies_match_config() {
        let wire = WireChaos::new(&ChaosConfig {
            drop: 0.3,
            dup: 0.2,
            corrupt: 0.2,
            ..ChaosConfig::default()
        });
        let n = 10_000;
        for _ in 0..n {
            wire.fate();
        }
        let drop_rate = wire.dropped() as f64 / n as f64;
        let dup_rate = wire.dupped() as f64 / n as f64;
        let corrupt_rate = wire.corrupted() as f64 / n as f64;
        // Per-class streams with drop > dup > corrupt priority: the
        // marginal rates compound.
        assert!((drop_rate - 0.3).abs() < 0.03, "drop rate {drop_rate}");
        assert!((dup_rate - 0.7 * 0.2).abs() < 0.03, "dup rate {dup_rate}");
        assert!(
            (corrupt_rate - 0.7 * 0.8 * 0.2).abs() < 0.03,
            "corrupt rate {corrupt_rate}"
        );
    }

    #[test]
    fn cut_follows_links_and_partitions() {
        let wire = WireChaos::new(&ChaosConfig::parse("link:1>0").unwrap());
        assert!(wire.cut(1, 0));
        assert!(!wire.cut(0, 1), "link faults are directed");
        assert!(!wire.cut(1, 2));
        wire.set_link(None);
        assert!(!wire.cut(1, 0), "healed");

        let wire = WireChaos::new(&ChaosConfig::parse("part:0|1,2").unwrap());
        assert!(wire.cut(0, 1) && wire.cut(1, 0), "partitions are symmetric");
        assert!(wire.cut(0, 2) && wire.cut(2, 0));
        assert!(!wire.cut(1, 2), "same side stays connected");
        assert!(!wire.cut(0, 0));
        assert!(!wire.cut(3, 0), "nodes outside both groups are unaffected");
        wire.set_partition(None);
        assert!(!wire.cut(0, 1), "healed");
    }

    #[test]
    fn cut_edges_eat_every_fate() {
        let wire = WireChaos::new(&ChaosConfig::parse("part:0|1").unwrap());
        for _ in 0..50 {
            assert_eq!(wire.fate_for(0, 1, 0), FrameFate::Drop);
            assert!(wire.ack_fate_for(1, 0));
        }
        assert_eq!(wire.cut_frames(), 100);
        assert_eq!(wire.dropped(), 0, "cuts are not probabilistic drops");
        assert_eq!(wire.fate_for(1, 2, 0), FrameFate::Deliver);
    }

    #[test]
    fn degraded_lane_sheds_frames_until_healed() {
        let wire = WireChaos::new(&ChaosConfig::default());
        wire.degrade_lane(1, 1.0);
        assert_eq!(wire.fate_for(0, 1, 1), FrameFate::Drop);
        assert_eq!(
            wire.fate_for(0, 1, 0),
            FrameFate::Deliver,
            "other lanes unaffected"
        );
        wire.heal_lanes();
        assert_eq!(wire.fate_for(0, 1, 1), FrameFate::Deliver);
        assert_eq!(wire.lane_dropped(), 1);
    }

    #[test]
    fn corrupt_bytes_spares_the_header_prefix() {
        let wire = WireChaos::new(&ChaosConfig {
            corrupt: 0.5,
            ..ChaosConfig::default()
        });
        let lo = crate::wire::HEADER_LEN - 4;
        for len in [crate::wire::HEADER_LEN, crate::wire::HEADER_LEN + 64] {
            // The frame whole in one part, and split as a pooled frame
            // is: the flips land in the same places either way.
            for split in [len, crate::wire::HEADER_LEN] {
                let clean = vec![0u8; len];
                for _ in 0..100 {
                    let mut buf = clean.clone();
                    let (header, payload) = buf.split_at_mut(split);
                    wire.corrupt_bytes(header, payload);
                    assert_eq!(&buf[..lo], &clean[..lo], "header prefix untouched");
                    assert_ne!(&buf[lo..], &clean[lo..], "something flipped");
                }
            }
        }
    }

    #[test]
    fn inproc_declines_wire_faults_but_still_delivers() {
        let f = ChaosFabric::new(
            InProcFabric::new(),
            ChaosConfig::parse("drop:0.5,dup:0.3,corrupt:0.1,delay:1ms").unwrap(),
        );
        assert!(!f.wired(), "inproc has no wire to corrupt");
        // Frame faults are skipped entirely: nothing may be lost.
        for i in 0..20u8 {
            f.send((0, 1, 0), vec![i]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(f.recv((0, 1, 0)).unwrap(), vec![i]);
        }
    }
}
