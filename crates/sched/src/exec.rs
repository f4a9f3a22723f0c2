//! The resumable executor: runs a recorded [`Schedule`] on real byte
//! buffers, one program counter per rank.
//!
//! [`Exec`] is the crate's one interpreter of schedules on real bytes.
//! It is sans-io: an `ISend` copies its region into an outbox
//! ([`Exec::drain_sent`]) and goes no further. The caller moves the
//! payload however it likes and hands it back with [`Exec::deliver`],
//! which matches it against the channel's posted receives in MPI
//! non-overtaking order. Two consumers drive it:
//!
//! * [`crate::dataflow`] runs the ranks in one fixed order, each until
//!   it blocks, and delivers its sends before the next rank runs
//!   (`Exec::loop_back`) — the sequential ground truth, executed once a
//!   schedule has passed [`crate::hb::check`] ([`crate::verify::run`]).
//! * The service's non-blocking collectives (`pipmcoll_core::nb`) run
//!   every rank until it blocks, carry each sent payload over a real
//!   fabric, and resume the destination when it arrives.
//!
//! All per-run state is indexed by ids the schedule's [`Wiring`]
//! assigns once per schedule: every rank's buffers live in one byte
//! arena at fixed offsets, and channels and message slots are `Vec`
//! entries. Stepping an op costs no map lookup, and no allocation or
//! copy beyond the bytes the op moves.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;

use pipmcoll_model::dtype::reduce_into;
use pipmcoll_model::{Datatype, ReduceOp, Topology};

use crate::dataflow::DataflowError;
use crate::ids::{BufId, Region, RemoteRegion, Tag};
use crate::op::Op;
use crate::schedule::Schedule;

/// One directed `(src, dst, tag)` channel of a schedule. Its k-th send
/// matches its k-th receive (MPI non-overtaking order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message tag.
    pub tag: Tag,
    /// Op indices of the sends in `src`'s program, in order.
    pub sends: Vec<usize>,
    /// Op indices of the receives in `dst`'s program, in order.
    pub recvs: Vec<usize>,
    /// First message slot of this channel in the executor's table.
    base: u32,
}

/// Where a message op sits: its channel and its position among the
/// channel's sends or receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRef {
    /// Channel id, an index into [`Wiring::channels`].
    pub chan: usize,
    /// Position among the channel's sends, or its receives.
    pub pos: usize,
    /// Whether the op receives.
    pub recv: bool,
}

/// The static facts every execution of a schedule shares: the
/// send→receive matching and where each rank's buffers sit in the
/// arena, with every op lowered against both. Built once per schedule
/// ([`Schedule::wiring`]); validation, the happens-before analysis and
/// the discrete-event simulator (`pipmcoll-engine`) match messages
/// through it too.
#[derive(Clone, Debug)]
pub struct Wiring {
    channels: Vec<Channel>,
    /// Per rank, per op: the op lowered against this wiring.
    steps: Vec<Vec<Lowered>>,
    /// Per rank, per op: where a message op sits on its channel.
    msgs: Vec<Vec<Option<MsgRef>>>,
    /// Total message slots: per channel, the larger of its send and
    /// receive counts.
    slots: usize,
    /// `(offset, len)` of every buffer in the arena, rank by rank, each
    /// rank's in [`buf_index`] order; rank `r`'s are
    /// `bufs[first_buf[r]..first_buf[r + 1]]`.
    bufs: Vec<(usize, usize)>,
    first_buf: Vec<usize>,
    /// Arena bytes.
    arena: usize,
}

impl Wiring {
    /// Number every distinct `(src, dst, tag)` channel in first-use
    /// order, lay every rank's buffers out back to back, and lower each
    /// op.
    pub(crate) fn new(sched: &Schedule) -> Wiring {
        let mut index: HashMap<(usize, usize, Tag), u32> = HashMap::new();
        let mut channels: Vec<Channel> = Vec::new();
        let mut steps = Vec::with_capacity(sched.programs().len());
        let mut msgs = Vec::with_capacity(sched.programs().len());
        let (mut bufs, mut first_buf, mut arena) = (Vec::new(), Vec::new(), 0);
        for (rank, prog) in sched.programs().iter().enumerate() {
            let first = bufs.len();
            first_buf.push(first);
            for len in [prog.sizes.send, prog.sizes.recv]
                .into_iter()
                .chain(prog.temps.iter().copied())
            {
                bufs.push((arena, len));
                arena += len;
            }
            let own = &bufs[first..];
            // The arena span of an in-bounds region of this rank.
            let span = |r: &Region| {
                let &(off, len) = own.get(buf_index(r.buf))?;
                (r.end() <= len).then_some(Span {
                    start: off + r.offset,
                    len: r.len,
                })
            };
            let mut msg = vec![None; prog.ops.len()];
            let mut lowered = Vec::with_capacity(prog.ops.len());
            for (i, op) in prog.ops.iter().enumerate() {
                let ends = match *op {
                    Op::ISend { dst, tag, .. } | Op::ISendShared { dst, tag, .. } => {
                        Some((rank, dst, tag, false))
                    }
                    Op::IRecv { src, tag, .. } | Op::IRecvShared { src, tag, .. } => {
                        Some((src, rank, tag, true))
                    }
                    _ => None,
                };
                let mut chan = 0;
                if let Some((src, dst, tag, recv)) = ends {
                    chan = *index.entry((src, dst, tag)).or_insert_with(|| {
                        channels.push(Channel {
                            src,
                            dst,
                            tag,
                            sends: Vec::new(),
                            recvs: Vec::new(),
                            base: 0,
                        });
                        channels.len() as u32 - 1
                    });
                    let ch = &mut channels[chan as usize];
                    let ops = if recv { &mut ch.recvs } else { &mut ch.sends };
                    msg[i] = Some(MsgRef {
                        chan: chan as usize,
                        pos: ops.len(),
                        recv,
                    });
                    ops.push(i);
                }
                let fits = |from: &Region, to: &Region| span(from).zip(span(to));
                lowered.push(
                    match *op {
                        Op::ISend { src, .. } => {
                            span(&src).map(|from| Lowered::Send { chan, from })
                        }
                        Op::IRecv { dst, .. } => {
                            span(&dst).map(|into| Lowered::Recv { chan, into })
                        }
                        Op::Wait { req } => Some(match msg.get(req.0).copied().flatten() {
                            Some(MsgRef { recv: false, .. }) => Lowered::Instant,
                            Some(MsgRef { chan, pos, .. }) => Lowered::WaitRecv {
                                chan: chan as u32,
                                pos: pos as u32,
                            },
                            None => Lowered::Local { chan },
                        }),
                        Op::LocalCopy { from, to } => {
                            fits(&from, &to).map(|(from, to)| Lowered::Copy { from, to })
                        }
                        Op::LocalReduce { from, to, op, dt } => {
                            fits(&from, &to).map(|(from, to)| Lowered::Reduce { from, to, op, dt })
                        }
                        Op::Compute { .. } => Some(Lowered::Instant),
                        _ => Some(Lowered::Local { chan }),
                    }
                    .unwrap_or(Lowered::OutOfBounds),
                );
            }
            steps.push(lowered);
            msgs.push(msg);
        }
        first_buf.push(bufs.len());
        let mut slots = 0;
        for ch in &mut channels {
            ch.base = slots as u32;
            slots += ch.sends.len().max(ch.recvs.len());
        }
        Wiring {
            channels,
            steps,
            msgs,
            slots,
            bufs,
            first_buf,
            arena,
        }
    }

    /// Every channel, indexed by channel id.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Where op `op` of `rank`'s program sits on its channel, if it is
    /// an `ISend`, `IRecv` or a shared form of either.
    pub fn message(&self, rank: usize, op: usize) -> Option<MsgRef> {
        self.msgs[rank][op]
    }

    /// Where `rank`'s buffer `buf` lives in the arena.
    fn buffer(&self, rank: usize, buf: BufId) -> Range<usize> {
        let (off, len) = self.bufs[self.first_buf[rank]..self.first_buf[rank + 1]][buf_index(buf)];
        off..off + len
    }

    /// Where `rank`'s `region` lives in the arena.
    ///
    /// # Panics
    /// Panics if the region is outside the rank's buffer.
    fn range(&self, rank: usize, region: &Region) -> Range<usize> {
        let buf = self.buffer(rank, region.buf);
        assert!(
            region.end() <= buf.len(),
            "rank {rank}: region {region} outside its {}-byte buffer",
            buf.len()
        );
        buf.start + region.offset..buf.start + region.end()
    }
}

/// Where a buffer sits among its rank's buffers.
#[inline]
fn buf_index(buf: BufId) -> usize {
    match buf {
        BufId::Send => 0,
        BufId::Recv => 1,
        BufId::Temp(i) => 2 + i as usize,
    }
}

/// A byte range of the arena.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// An op lowered against its schedule's [`Wiring`]: the common ops carry
/// their channel and arena spans, so stepping them needs no lookup.
#[derive(Clone, Copy, Debug)]
enum Lowered {
    /// `ISend` of an in-bounds region.
    Send { chan: u32, from: Span },
    /// `IRecv` into an in-bounds region.
    Recv { chan: u32, into: Span },
    /// `Wait` on the receive at position `pos` of `chan`.
    WaitRecv { chan: u32, pos: u32 },
    /// `LocalCopy` between in-bounds regions.
    Copy { from: Span, to: Span },
    /// `LocalReduce` between in-bounds regions.
    Reduce {
        from: Span,
        to: Span,
        op: ReduceOp,
        dt: Datatype,
    },
    /// `Wait` on a send (sends are buffered), or `Compute`.
    Instant,
    /// Access through the post board or node-local synchronisation,
    /// interpreted from the op itself; `chan` is a shared send's or
    /// receive's channel.
    Local { chan: u32 },
    /// An op whose region lies outside its buffer: a fault when reached.
    OutOfBounds,
}

/// A rank's progress and node-local synchronisation state.
#[derive(Clone, Default)]
struct RankState {
    pc: usize,
    flags: Vec<u32>,
    posted: Vec<Option<Region>>,
    barriers_entered: usize,
    in_barrier: bool,
}

/// Dynamic state of one channel: payloads handed to [`Exec::deliver`],
/// receives posted, and pairs matched so far.
#[derive(Clone, Copy, Default)]
struct ChanState {
    arrived: u32,
    posted: u32,
    matched: u32,
}

/// One message position on a channel: the delivered payload and the
/// posted receive's arena range, each held until both are there.
#[derive(Clone, Default)]
struct Slot {
    payload: Option<Vec<u8>>,
    post: Option<Range<usize>>,
}

/// A resumable execution of one schedule.
///
/// `S` is how the executor holds its schedule: `&Schedule` for a run
/// that ends before the schedule does ([`crate::dataflow`]),
/// `Arc<Schedule>` for one that outlives its creator's stack frame.
pub struct Exec<S: Borrow<Schedule>> {
    sched: S,
    st: State,
}

/// Everything an execution changes.
struct State {
    topo: Topology,
    /// Every rank's buffers, at the offsets [`Wiring`] assigns.
    mem: Vec<u8>,
    ranks: Vec<RankState>,
    chans: Vec<ChanState>,
    slots: Vec<Slot>,
    /// Sends issued and not yet drained: `(channel, payload)`.
    outbox: Vec<(usize, Vec<u8>)>,
}

impl<S: Borrow<Schedule>> Exec<S> {
    /// An execution with every buffer zeroed; fill the inputs through
    /// [`Exec::buffer_mut`] before the first step.
    pub fn new(sched: S) -> Self {
        let s: &Schedule = sched.borrow();
        let w = s.wiring();
        let st = State {
            topo: s.topo(),
            mem: vec![0; w.arena],
            ranks: vec![RankState::default(); s.programs().len()],
            chans: vec![ChanState::default(); w.channels.len()],
            slots: vec![Slot::default(); w.slots],
            outbox: Vec::new(),
        };
        Exec { sched, st }
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Schedule {
        self.sched.borrow()
    }

    /// The whole of `rank`'s buffer `buf`.
    pub fn buffer(&self, rank: usize, buf: BufId) -> &[u8] {
        &self.st.mem[self.schedule().wiring().buffer(rank, buf)]
    }

    /// The whole of `rank`'s buffer `buf`, writable.
    pub fn buffer_mut(&mut self, rank: usize, buf: BufId) -> &mut [u8] {
        &mut self.st.mem[self.sched.borrow().wiring().buffer(rank, buf)]
    }

    /// Whether `rank` has executed its whole program.
    pub(crate) fn rank_done(&self, rank: usize) -> bool {
        self.st.ranks[rank].pc >= self.schedule().wiring().steps[rank].len()
    }

    /// Whether every rank has.
    pub fn done(&self) -> bool {
        (0..self.st.ranks.len()).all(|r| self.rank_done(r))
    }

    /// Take the sends issued since the last drain, in issue order, as
    /// `(channel, payload)`; [`Wiring::channels`] names each channel's
    /// ends and tag.
    pub fn drain_sent(&mut self) -> std::vec::Drain<'_, (usize, Vec<u8>)> {
        self.st.outbox.drain(..)
    }

    /// Deliver every issued send to its own channel: the transport of a
    /// run whose ranks all live in this executor.
    pub(crate) fn loop_back(&mut self) {
        let mut sent = std::mem::take(&mut self.st.outbox);
        for (chan, payload) in sent.drain(..) {
            self.deliver(chan, payload);
        }
        self.st.outbox = sent;
    }

    /// Hand the next payload of `chan` to its receiver: it fills the
    /// receive posted at the same position on the channel, now or when
    /// that receive is posted. Payloads of one channel must arrive in
    /// the order they were sent.
    ///
    /// # Panics
    /// Panics if the channel already received every payload the
    /// schedule sends on it.
    pub fn deliver(&mut self, chan: usize, payload: Vec<u8>) {
        let ch = &self.sched.borrow().wiring().channels[chan];
        let State {
            mem, chans, slots, ..
        } = &mut self.st;
        let st = &mut chans[chan];
        assert!(
            (st.arrived as usize) < ch.sends.len(),
            "channel {}->{} tag {} received more than its {} send(s)",
            ch.src,
            ch.dst,
            ch.tag,
            ch.sends.len()
        );
        slots[(ch.base + st.arrived) as usize].payload = Some(payload);
        st.arrived += 1;
        settle(ch, st, slots, mem);
    }

    /// Run `rank` until it blocks or finishes; returns the ops executed.
    pub fn run(&mut self, rank: usize) -> Result<usize, DataflowError> {
        let s: &Schedule = self.sched.borrow();
        let w = s.wiring();
        let steps = &w.steps[rank];
        let mut n = 0;
        while let Some(&op) = steps.get(self.st.ranks[rank].pc) {
            if !self.st.apply(s, w, rank, op)? {
                break;
            }
            n += 1;
        }
        Ok(n)
    }

    /// Where every unfinished rank is stuck.
    pub(crate) fn deadlock_report(&self) -> String {
        let mut lines = vec!["deadlock; stuck ranks:".to_string()];
        for (rank, st) in self.st.ranks.iter().enumerate() {
            if !self.rank_done(rank) {
                let op = &self.schedule().programs()[rank].ops[st.pc];
                lines.push(format!(
                    "  rank {rank} blocked at op {} ({})",
                    st.pc,
                    op.mnemonic()
                ));
            }
        }
        lines.join("\n")
    }
}

impl State {
    /// Execute `rank`'s next op, lowered as `op`. Returns whether it
    /// executed; `false` means the rank is blocked.
    #[inline]
    fn apply(
        &mut self,
        s: &Schedule,
        w: &Wiring,
        rank: usize,
        op: Lowered,
    ) -> Result<bool, DataflowError> {
        let State {
            mem,
            chans,
            slots,
            outbox,
            ..
        } = self;
        match op {
            Lowered::Send { chan, from } => {
                outbox.push((chan as usize, mem[from.range()].to_vec()));
            }
            Lowered::Recv { chan, into } => {
                let c = chan as usize;
                post(&w.channels[c], &mut chans[c], slots, mem, into.range());
            }
            Lowered::WaitRecv { chan, pos } => {
                if chans[chan as usize].matched <= pos {
                    return Ok(false);
                }
            }
            Lowered::Copy { from, to } => mem.copy_within(from.range(), to.start),
            Lowered::Reduce { from, to, op, dt } => {
                transfer(mem, from.range(), to.range(), Some((op, dt)))
            }
            Lowered::Instant => {}
            Lowered::Local { chan } => {
                if !self.interpret(s, w, rank, chan as usize)? {
                    return Ok(false);
                }
            }
            Lowered::OutOfBounds => panic!(
                "rank {rank}: op {} ({}) reaches outside its buffers",
                self.ranks[rank].pc,
                s.programs()[rank].ops[self.ranks[rank].pc].mnemonic()
            ),
        }
        self.ranks[rank].pc += 1;
        Ok(true)
    }

    /// Execute `rank`'s next op from the op itself: the ops that resolve
    /// regions through the post board or synchronise a node. `chan` is a
    /// shared send's or receive's channel.
    fn interpret(
        &mut self,
        s: &Schedule,
        w: &Wiring,
        rank: usize,
        chan: usize,
    ) -> Result<bool, DataflowError> {
        let State {
            topo,
            mem,
            ranks,
            chans,
            slots,
            outbox,
            ..
        } = self;
        let resolve = |ranks: &[RankState], rr: &RemoteRegion| {
            resolve_remote(ranks, rr).map(|hit| hit.map(|(owner, reg)| w.range(owner, &reg)))
        };
        match s.programs()[rank].ops[ranks[rank].pc] {
            Op::ISendShared { src, .. } => {
                let Some(at) = resolve(ranks, &src)? else {
                    return Ok(false);
                };
                outbox.push((chan, mem[at].to_vec()));
            }
            Op::IRecvShared { dst, .. } => {
                let Some(at) = resolve(ranks, &dst)? else {
                    return Ok(false);
                };
                post(&w.channels[chan], &mut chans[chan], slots, mem, at);
            }
            Op::PostAddr { slot, region } => {
                let posted = &mut ranks[rank].posted;
                if posted.len() <= slot as usize {
                    posted.resize(slot as usize + 1, None);
                }
                posted[slot as usize] = Some(region);
            }
            Op::CopyIn { from, to } => {
                let Some(src) = resolve(ranks, &from)? else {
                    return Ok(false);
                };
                transfer(mem, src, w.range(rank, &to), None);
            }
            Op::CopyOut { from, to } => {
                let Some(dst) = resolve(ranks, &to)? else {
                    return Ok(false);
                };
                transfer(mem, w.range(rank, &from), dst, None);
            }
            Op::ReduceIn { from, to, op, dt } => {
                let Some(src) = resolve(ranks, &from)? else {
                    return Ok(false);
                };
                transfer(mem, src, w.range(rank, &to), Some((op, dt)));
            }
            Op::Signal { rank: peer, flag } => {
                let flags = &mut ranks[peer].flags;
                if flags.len() <= flag as usize {
                    flags.resize(flag as usize + 1, 0);
                }
                flags[flag as usize] += 1;
            }
            Op::WaitFlag { flag, count } => {
                let have = ranks[rank].flags.get(flag as usize).copied().unwrap_or(0);
                if have < count {
                    return Ok(false);
                }
            }
            Op::NodeBarrier => {
                let st = &mut ranks[rank];
                if !st.in_barrier {
                    st.barriers_entered += 1;
                    st.in_barrier = true;
                }
                let my_gen = st.barriers_entered;
                let all_arrived = topo
                    .ranks_on_node(topo.node_of(rank))
                    .all(|r| ranks[r].barriers_entered >= my_gen);
                if !all_arrived {
                    return Ok(false);
                }
                ranks[rank].in_barrier = false;
            }
            _ => unreachable!("trace recorder validates wait targets"),
        }
        Ok(true)
    }
}

/// Resolve a remote region against the current post board to its owner
/// and region. `None` (not an error) when the slot has not been posted
/// yet — the accessing op blocks.
fn resolve_remote(
    ranks: &[RankState],
    rr: &RemoteRegion,
) -> Result<Option<(usize, Region)>, DataflowError> {
    let Some(base) = ranks[rr.rank]
        .posted
        .get(rr.slot as usize)
        .copied()
        .flatten()
    else {
        return Ok(None);
    };
    if rr.offset + rr.len > base.len {
        return Err(DataflowError {
            message: format!(
                "remote access {rr} exceeds posted region {base} of rank {}",
                rr.rank
            ),
        });
    }
    Ok(Some((rr.rank, base.sub(rr.offset, rr.len))))
}

/// Post the next receive of channel `ch` into arena range `at`.
fn post(ch: &Channel, st: &mut ChanState, slots: &mut [Slot], mem: &mut [u8], at: Range<usize>) {
    slots[(ch.base + st.posted) as usize].post = Some(at);
    st.posted += 1;
    settle(ch, st, slots, mem);
}

/// Write every payload of `ch` whose receive is posted, in channel
/// order.
fn settle(ch: &Channel, st: &mut ChanState, slots: &mut [Slot], mem: &mut [u8]) {
    while st.matched < st.arrived && st.matched < st.posted {
        let slot = &mut slots[(ch.base + st.matched) as usize];
        st.matched += 1;
        let payload = slot.payload.take().expect("arrived payload");
        let at = slot.post.take().expect("posted receive");
        assert_eq!(
            payload.len(),
            at.len(),
            "validated schedules cannot mismatch here"
        );
        mem[at].copy_from_slice(&payload);
    }
}

/// Copy (or, with `reduce`, reduce) the arena bytes at `from` into `to`.
fn transfer(
    mem: &mut [u8],
    from: Range<usize>,
    to: Range<usize>,
    reduce: Option<(ReduceOp, Datatype)>,
) {
    let Some((op, dt)) = reduce else {
        mem.copy_within(from, to.start);
        return;
    };
    if from.end <= to.start {
        let (lo, hi) = mem.split_at_mut(to.start);
        reduce_into(op, dt, &mut hi[..to.len()], &lo[from]);
    } else if to.end <= from.start {
        let (lo, hi) = mem.split_at_mut(from.start);
        reduce_into(op, dt, &mut lo[to], &hi[..from.len()]);
    } else {
        let src = mem[from].to_vec();
        reduce_into(op, dt, &mut mem[to], &src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{BufSizes, Comm};
    use crate::trace::record;

    /// Rank 0 sends twice to rank 1 on one tag and once on another.
    fn two_channels() -> Schedule {
        record(Topology::new(2, 1), BufSizes::new(4, 12), |c| {
            if c.rank() == 0 {
                c.send(1, 5, Region::new(BufId::Send, 0, 4));
                c.send(1, 5, Region::new(BufId::Send, 0, 4));
                c.send(1, 9, Region::new(BufId::Send, 0, 4));
            } else {
                c.recv(0, 9, Region::new(BufId::Recv, 8, 4));
                c.recv(0, 5, Region::new(BufId::Recv, 0, 4));
                c.recv(0, 5, Region::new(BufId::Recv, 4, 4));
            }
        })
    }

    #[test]
    fn wiring_numbers_channels_and_lays_out_the_arena() {
        let s = two_channels();
        let w = s.wiring();
        let ends: Vec<_> = w
            .channels()
            .iter()
            .map(|c| (c.src, c.dst, c.tag, c.sends.clone(), c.recvs.clone()))
            .collect();
        assert_eq!(
            ends,
            [
                (0, 1, 5, vec![0, 2], vec![2, 4]),
                (0, 1, 9, vec![4], vec![0])
            ]
        );
        assert!(matches!(w.steps[0][1], Lowered::Instant), "a send's wait");
        assert!(matches!(
            w.steps[1][5],
            Lowered::WaitRecv { chan: 0, pos: 1 }
        ));
        let second_recv = MsgRef {
            chan: 0,
            pos: 1,
            recv: true,
        };
        assert_eq!(w.message(1, 4), Some(second_recv));
        assert_eq!(w.message(1, 5), None, "a wait is not a message op");
        assert_eq!(w.arena, 2 * (4 + 12));
    }

    #[test]
    fn resumes_a_blocked_rank_when_its_payload_arrives() {
        let s = two_channels();
        let mut ex = Exec::new(&s);
        ex.buffer_mut(0, BufId::Send).copy_from_slice(&[1; 4]);
        assert_eq!(ex.run(1).unwrap(), 1, "rank 1 posts, then blocks on tag 9");
        ex.run(0).unwrap();
        assert!(ex.rank_done(0));
        let sent: Vec<_> = ex.drain_sent().collect();
        assert_eq!(sent.len(), 3);
        assert!(sent.iter().all(|(_, p)| *p == [1; 4]));
        // Deliver out of channel order: tag 9 first, then tag 5's pair.
        let (last, early) = sent.split_last().unwrap();
        ex.deliver(last.0, vec![9; 4]);
        for (i, (chan, _)) in early.iter().enumerate() {
            ex.deliver(*chan, vec![i as u8; 4]);
        }
        ex.run(1).unwrap();
        assert!(ex.done());
        assert_eq!(
            ex.buffer(1, BufId::Recv),
            &[0, 0, 0, 0, 1, 1, 1, 1, 9, 9, 9, 9]
        );
    }

    #[test]
    #[should_panic(expected = "reaches outside its buffers")]
    fn regions_stay_inside_their_own_buffer() {
        // Rank 0's send buffer is followed in the arena by its receive
        // buffer; a region past its end must not reach it.
        let mut s = two_channels();
        s.programs_mut()[0].ops[0] = Op::ISend {
            dst: 1,
            tag: 5,
            src: Region::new(BufId::Send, 2, 4),
        };
        Exec::new(&s).run(0).unwrap();
    }
}
