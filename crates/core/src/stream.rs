//! AXI4-Stream-style channels: the standard interface between NetFPGA
//! building blocks.
//!
//! A [`Stream`] is a bounded FIFO of [`Word`]s shared between exactly one
//! producer ([`StreamTx`]) and one consumer ([`StreamRx`]). It models the
//! AXI4-Stream handshake: the producer may push when the FIFO has space
//! (`tready`), the consumer may pop when a word is present (`tvalid`).
//! Capacity back-pressure is how congestion propagates through a design,
//! exactly as it does through the real NetFPGA reference pipelines.
//!
//! Both directions of the handshake are activity events for the kernel's
//! cached bounds: a push wakes the consumer's [`WakeHandle`]
//! ([`StreamRx::set_wake`]), a pop wakes the producer's
//! ([`StreamTx::set_wake`]). A producer stalled on `tready` low therefore
//! reports quiescent and is re-queried exactly when space frees up.
//!
//! Each word carries up to [`MAX_BUS_BYTES`] bytes plus `sop`/`eop` packet
//! delimiters; the first word of every packet carries the NetFPGA `tuser`
//! sideband metadata ([`Meta`]): packet length, source port, destination
//! port one-hot, and an ingress timestamp.
//!
//! # Bursts, not beats
//!
//! On the bus a packet crosses an interface as one *burst* of beats, and
//! that is how the queue holds it: an entry is a [`Burst`] — `n ≥ 1`
//! consecutive beats of one packet as a single [`PktBuf`] view — not one
//! entry per word. What a design can observe is unchanged and counted in
//! **beats**: capacity, [`StreamTx::space`], [`StreamRx::occupancy`], the
//! cumulative counters, when `tready`/`tvalid` drop, and therefore every
//! simulated instant. The grouping only decides host work:
//!
//! * the one-beat operations ([`StreamTx::push`], [`StreamRx::pop`]) work
//!   on any queue — a word-per-cycle consumer behind a burst producer
//!   splits the head burst a beat at a time;
//! * the bulk operations ([`StreamTx::push_burst`], [`StreamRx::pop_burst`],
//!   and the hop-to-hop transfer of a [`CutThrough`] port) move whole
//!   bursts and split one only where a per-word loop would have stopped
//!   inside it: at a capacity limit or at the caller's `max`. No burst
//!   spans two packets, so stopping at `eop` never splits. A 48-beat frame
//!   crossing a hop is one entry move, one counter add, one wake and one
//!   join in the [`Reassembler`].
//!
//! Only these stream operations split a burst, into views of the same
//! buffer; nothing ever merges two, because a [`Reassembler`] joins
//! adjacent views for free.
//!
//! # Charged word pacing
//!
//! A word-level module moves one beat per cycle. It does not have to tick
//! once per beat to do so: when both ends of a channel are modules of one
//! clock domain, the whole exchange is arithmetic, and the channel is
//! *charged* with it instead.
//!
//! * The producer `commit`s the leading beats of its cursor as one entry,
//!   beat `i` pushed at `t0 + i·period` — as many as find a free slot each
//!   at its own instant. Space that exists now cannot vanish before the
//!   beats that use it (only the producer fills the channel), and every pop
//!   already scheduled extends the run by one; pops not yet registered
//!   never count. It may push again at `t0 + k·period`.
//! * The consumer `claim`s the head entry, beat `j` popped at
//!   `tc + j·period`. Both sides pace alike and the first beat is there,
//!   so no pop finds the channel empty. The beats stay with the channel —
//!   they occupy it until popped — and the consumer `collect`s them at the
//!   claim's `done_at`, the edge the last one is popped: whatever it does
//!   on `eop` happens on the edge it happens on per beat. A cut-through
//!   consumer `forward`s: claim here, commit there, one schedule.
//! * Two modules ticking at one instant see each other's beats of that
//!   instant or not depending on who ticks first. The kernel stamps every
//!   registered [`WakeHandle`] with its owner's place in the dispatch
//!   order, so the channel knows, and `ready_at` — when a stalled producer
//!   next finds a slot — answers for the producer's tick. (The plain
//!   [`StreamTx::space`] / [`StreamRx::occupancy`] count what is committed
//!   and not yet claimed.)
//! * A reset *settles* a charge first: as of the simulator's clock, beats
//!   not yet pushed go back to the producer's cursor, pushed and unpopped
//!   beats are queued, popped beats are handed to the consumer.
//!
//! A channel is charged only when that is provably the per-beat exchange:
//! both ends registered through a port rather than `set_wake`, both
//! stamped by one simulator on one clock domain, and no third handle on
//! the channel (an observer could look between two beats). Everywhere else
//! the same operations move **one beat** — the `can_push`/`push` and `pop`
//! of a per-beat module — so a design pays in speed, never in fidelity,
//! for a neighbour that is not paced.
//!
//! # Ports
//!
//! None of that protocol is public. A block reaches a stream through a
//! port, built from the stream end(s) *and* its owner's [`WakeHandle`],
//! which it registers — so a block cannot read a channel it did not
//! register on:
//!
//! * [`PacketRx`], a store-and-forward ingest: stream in, whole packets out;
//! * [`PacketTx`], a store-and-forward emit: staged packet in, beats out;
//! * [`CutThrough`]: beats from one of its inputs straight to its output,
//!   the owner's [`PassThrough`] policy choosing the input and watching
//!   them pass.
//!
//! A port owns the whole word-pacing algorithm — claim then collect at
//! `done_at`, commit then wait out the committed beats, settle on reset,
//! the `ready_at` arithmetic behind
//! [`Module::activity`](crate::sim::Module::activity) — and the collapsed
//! pacing a block's `with_burst(true)` selects. The raw operations of
//! [`StreamTx`]/[`StreamRx`] are left to test benches and to modules that
//! move one beat per tick on purpose.

use crate::pktbuf::PktBuf;
use crate::sim::{Activity, TickContext, WakeHandle};
use crate::time::Time;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Maximum bus width in bytes (512-bit, the widest bus in the SUME designs).
pub const MAX_BUS_BYTES: usize = 64;

/// One-hot set of board ports (up to 16), as carried in `tuser`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PortMask(pub u16);

impl PortMask {
    /// The empty mask.
    pub const EMPTY: PortMask = PortMask(0);

    /// A mask with a single port set.
    pub fn single(port: u8) -> PortMask {
        assert!(port < 16, "port index out of range");
        PortMask(1 << port)
    }

    /// A mask with every port in `0..n` set.
    pub fn first_n(n: u8) -> PortMask {
        assert!(n <= 16);
        if n == 16 {
            PortMask(u16::MAX)
        } else {
            PortMask((1u16 << n) - 1)
        }
    }

    /// Whether `port` is in the set.
    pub fn contains(self, port: u8) -> bool {
        port < 16 && self.0 & (1 << port) != 0
    }

    /// Add a port to the set.
    pub fn insert(&mut self, port: u8) {
        assert!(port < 16);
        self.0 |= 1 << port;
    }

    /// Remove a port from the set.
    pub fn remove(&mut self, port: u8) {
        if port < 16 {
            self.0 &= !(1 << port);
        }
    }

    /// True if no port is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of ports set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate over set port indices in ascending order.
    pub fn iter(self) -> PortIter {
        PortIter(self.0)
    }

    /// The lowest set port, if any.
    pub fn first(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as u8)
        }
    }
}

/// Iterator over the set ports of a [`PortMask`], ascending. Strips one set
/// bit per `next` (`trailing_zeros` + clear-lowest) instead of probing all
/// 16 positions — this sits on the per-packet fan-out path.
#[derive(Debug, Clone)]
pub struct PortIter(u16);

impl Iterator for PortIter {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.0 == 0 {
            return None;
        }
        let port = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(port)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PortIter {}

impl std::iter::FusedIterator for PortIter {}

/// The `tuser` sideband metadata attached to the first word of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Meta {
    /// Total packet length in bytes.
    pub len: u16,
    /// Ingress port index.
    pub src_port: u8,
    /// Destination ports, one-hot. Empty until a lookup stage fills it in.
    pub dst_ports: PortMask,
    /// Ingress timestamp (picoseconds), stamped by the receiving MAC or
    /// packet source. Used by OSNT for latency measurement.
    pub ingress_time: Time,
    /// Opaque per-project flags (e.g. "send to CPU exception path").
    pub flags: u16,
}

/// One bus beat: up to [`MAX_BUS_BYTES`] bytes of a packet.
///
/// A word is a cheap *view* into a refcounted [`PktBuf`]: cloning a word or
/// moving it between streams bumps a refcount instead of copying payload
/// bytes, so whole pipelines pass a frame around while its bytes sit in one
/// allocation — the BRAM-pointer discipline of the real datapaths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    buf: PktBuf,
    /// Start-of-packet marker.
    pub sop: bool,
    /// End-of-packet marker.
    pub eop: bool,
    /// Metadata; present only on the `sop` word.
    pub meta: Option<Meta>,
}

impl Word {
    /// Build a word from a byte slice (`data.len() <= MAX_BUS_BYTES`).
    /// Copies once into a fresh pooled buffer; prefer [`segment_buf`] with
    /// an existing [`PktBuf`] to stay zero-copy.
    pub fn new(data: &[u8], sop: bool, eop: bool, meta: Option<Meta>) -> Word {
        Word::from_view(PktBuf::copy_from(data), sop, eop, meta)
    }

    /// Build a word as a view of `buf` without copying.
    pub fn from_view(buf: PktBuf, sop: bool, eop: bool, meta: Option<Meta>) -> Word {
        assert!(buf.len() <= MAX_BUS_BYTES, "word wider than bus");
        assert!(!buf.is_empty(), "empty word");
        Word {
            buf,
            sop,
            eop,
            meta,
        }
    }

    /// The valid bytes of this beat.
    pub fn bytes(&self) -> &[u8] {
        self.buf.bytes()
    }

    /// The underlying buffer view carrying this beat's bytes.
    pub fn view(&self) -> &PktBuf {
        &self.buf
    }

    /// Number of valid bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Always false; a word carries at least one byte.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A burst: consecutive beats of *one* packet held as a single [`PktBuf`]
/// view — what a stream queues, and what the bulk operations move.
///
/// Every beat but the last carries exactly [`Burst::width`] bytes, so the
/// beat count, each beat's bytes and the `sop`/`eop`/`meta` of each beat
/// follow from the view alone: `sop` and `meta` belong to the first beat,
/// `eop` to the last. A [`Word`] is the one-beat case (`Burst::from`).
///
/// A burst is also the cursor a store-and-forward module keeps over the
/// packet it is emitting: [`segment_buf`] makes the whole packet one
/// burst, [`StreamTx::push_burst`] moves as many leading beats as fit and
/// leaves the rest in place, and iterating yields the beats as [`Word`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Burst {
    buf: PktBuf,
    /// Bytes per beat (`1..=MAX_BUS_BYTES`); only the last may be shorter.
    width: u8,
    /// Beats left; zero only once iteration has consumed the burst.
    beats: u32,
    /// The first beat starts the packet.
    pub sop: bool,
    /// The last beat ends the packet.
    pub eop: bool,
    /// Metadata carried by the first beat.
    pub meta: Option<Meta>,
}

impl Burst {
    /// Number of beats.
    pub fn beats(&self) -> usize {
        self.beats as usize
    }

    /// Bytes per beat; only the last beat may carry fewer.
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// The bytes of every beat, contiguous.
    pub fn bytes(&self) -> &[u8] {
        self.buf.bytes()
    }

    /// Total bytes across all beats.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True once iteration has consumed every beat.
    pub fn is_empty(&self) -> bool {
        self.beats == 0
    }

    /// Split off the first `n` beats (`0 < n < beats`): the front keeps
    /// `sop` and the metadata, `self` keeps `eop`. One refcount bump.
    #[inline]
    fn split_front(&mut self, n: usize) -> Burst {
        debug_assert!(0 < n && n < self.beats(), "split inside the burst");
        let front = Burst {
            buf: self.buf.split_to(n * self.width()),
            width: self.width,
            beats: n as u32,
            sop: self.sop,
            eop: false,
            meta: self.meta.take(),
        };
        self.beats -= n as u32;
        self.sop = false;
        front
    }

    /// Put back the beats that followed this burst in its packet (the
    /// inverse of [`Burst::split_front`]): adjacent views of one buffer.
    fn append(&mut self, rest: Burst) {
        self.buf = self
            .buf
            .try_join(&rest.buf)
            .expect("consecutive beats of one packet");
        self.beats += rest.beats;
        self.eop = rest.eop;
    }

    /// A one-beat burst as the word it is.
    #[inline]
    fn into_word(self) -> Word {
        debug_assert_eq!(self.beats, 1);
        Word {
            buf: self.buf,
            sop: self.sop,
            eop: self.eop,
            meta: self.meta,
        }
    }

    /// Take up to `max` leading beats out of `slot` (`max >= 1`, slot
    /// occupied): the whole burst when it is that short, emptying the slot.
    #[inline]
    fn take_front(slot: &mut Option<Burst>, max: usize) -> Burst {
        let burst = slot.as_mut().expect("occupied slot");
        if burst.beats() <= max {
            slot.take().expect("checked above")
        } else {
            burst.split_front(max)
        }
    }
}

impl From<Word> for Burst {
    #[inline]
    fn from(word: Word) -> Burst {
        Burst {
            width: word.len() as u8,
            beats: 1,
            buf: word.buf,
            sop: word.sop,
            eop: word.eop,
            meta: word.meta,
        }
    }
}

/// The beats of the burst, front to back, one [`Word`] each.
impl Iterator for Burst {
    type Item = Word;

    fn next(&mut self) -> Option<Word> {
        match self.beats {
            0 => None,
            1 => {
                self.beats = 0;
                Some(Word {
                    buf: self.buf.split_to(self.buf.len()),
                    sop: self.sop,
                    eop: self.eop,
                    meta: self.meta.take(),
                })
            }
            _ => Some(self.split_front(1).into_word()),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.beats(), Some(self.beats()))
    }
}

/// One side's schedule on a charged channel: `beats` one-beat operations
/// (pushes or pops), the first at `t0`, one per `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pace {
    t0: Time,
    period: Time,
    beats: usize,
}

impl Pace {
    /// The instant of operation `i`.
    fn at(&self, i: usize) -> Time {
        self.t0 + Time::from_ps(i as u64 * self.period.as_ps())
    }

    /// The schedule of `beats` operations, the first at this tick.
    fn starting(ctx: &TickContext, beats: usize) -> Pace {
        Pace {
            t0: ctx.now,
            period: ctx.period,
            beats,
        }
    }

    /// How many of the operations happen strictly before `t` — or at `t`
    /// too when `inclusive`, i.e. when the side that owns the schedule
    /// ticks first at a shared edge and the question comes from its peer.
    fn done(&self, t: Time, inclusive: bool) -> usize {
        // Operation `i` counts iff `t0 + i·period <= t - 1` (`<= t`).
        let Some(since) = (t.as_ps() + u64::from(inclusive)).checked_sub(self.t0.as_ps() + 1)
        else {
            return 0;
        };
        (self.beats as u64).min(since / self.period.as_ps() + 1) as usize
    }
}

#[derive(Debug, Default)]
struct Shared {
    /// Queued bursts, oldest first; no burst spans two packets. Under a
    /// charge the newest may hold beats that have not arrived yet.
    queue: VecDeque<Burst>,
    /// Occupancy in beats: what `capacity` bounds. Counts committed beats
    /// still queued; claimed beats not yet popped are `draining`'s.
    beats: usize,
    capacity: usize,
    width: usize,
    /// Cumulative counters for occupancy statistics, in beats.
    pushed_words: u64,
    popped_words: u64,
    pushed_packets: u64,
    /// Woken when words arrive: the consumer's activity-cache flag.
    rx_wake: Option<WakeHandle>,
    /// Woken when space frees up: the producer's activity-cache flag.
    tx_wake: Option<WakeHandle>,
    /// Which ends promised to use the paced operations only.
    tx_paced: bool,
    rx_paced: bool,
    /// A paced producer is waiting on this channel — a commit left beats
    /// behind, or it asked [`StreamTx::ready_at`] — so a pop is an event
    /// for it. (One whose every beat went, and that has not asked since,
    /// has nothing that depends on the channel; pops need not wake it.)
    tx_starved: Cell<bool>,
    /// Whether the consumer ticks before the producer at a shared edge;
    /// refreshed by every charged operation.
    rx_first: bool,
    /// When the beats of the newest commit are pushed, if it was charged.
    arriving: Option<Pace>,
    /// When the beats of the newest claim are popped, if it was charged.
    draining: Option<Pace>,
    /// The beats of the newest claim, until the consumer collects them. A
    /// cut-through consumer's are a second view of beats already queued
    /// downstream, kept only so a reset can put the unpopped ones back.
    claimed: Option<Burst>,
    /// Left by a reset's settle for each side to pick up: unarrived beats
    /// for the producer's cursor, popped beats for the consumer.
    returned: Option<Burst>,
    popped: Option<Burst>,
}

impl Shared {
    /// Whether this channel may be charged — both ends paced and stamped
    /// by one simulator on one clock domain — and if so whether the
    /// consumer ticks first at a shared edge.
    #[inline]
    fn rank_order(&self) -> Option<bool> {
        if !(self.tx_paced && self.rx_paced) {
            return None;
        }
        let tx = self.tx_wake.as_ref()?.stamp()?;
        let rx = self.rx_wake.as_ref()?.stamp()?;
        (Rc::ptr_eq(&tx.clock, &rx.clock) && tx.domain == rx.domain).then_some(rx.slot < tx.slot)
    }

    /// Claimed beats whose pop the producer, ticking at `now`, cannot see
    /// yet.
    fn unpopped(&self, now: Time) -> usize {
        self.draining
            .map_or(0, |d| d.beats - d.done(now, self.rx_first))
    }

    /// How many of `offered` beats, pushed one per period from `now` on,
    /// find a free slot each at its own instant: the space there is now
    /// cannot vanish before they use it, and the pops already scheduled —
    /// one per period too, the next of them visible by the producer's next
    /// tick — extend the run one for one. Pops not yet registered are never
    /// counted; the producer looks again when the run ends.
    fn room(&self, offered: usize, now: Time) -> usize {
        let unpopped = self.unpopped(now);
        match self.capacity - self.beats - unpopped {
            0 => 0,
            space => offered.min(space + unpopped),
        }
    }

    /// How many of `offered` beats a producer ticking at `now` may push as
    /// one entry — by [`Shared::room`] on a charged channel, one if there is
    /// a slot otherwise — recording their schedule and whether the producer
    /// is left waiting for space.
    fn admit(&mut self, offered: usize, ctx: &TickContext, charged: bool) -> usize {
        let n = if charged {
            self.room(offered, ctx.now)
        } else {
            usize::from(self.beats < self.capacity)
        };
        self.tx_starved.set(n < offered);
        self.arriving = (n > 1).then(|| Pace::starting(ctx, n));
        n
    }

    /// Bring a charged channel to the state the per-beat channel is in at
    /// `now`, every edge up to and including `now` done: beats not yet
    /// pushed leave (`returned`, for the producer's cursor), claimed beats
    /// not yet popped go back to the head of the queue, the popped ones
    /// wait in `popped` for the consumer. Idempotent, so either end's reset
    /// may run it first.
    fn settle(&mut self) {
        // Only a channel both of whose ends a simulator stamped is ever
        // charged; either stamp has that simulator's clock.
        let Some(now) = self
            .tx_wake
            .as_ref()
            .and_then(WakeHandle::stamp)
            .map(|stamp| stamp.clock.get())
        else {
            return;
        };
        if let Some(a) = self.arriving.take() {
            let unarrived = a.beats - a.done(now, true);
            // The newest commit sits at the back of the queue, less what
            // the newest claim took off its front.
            let queued = unarrived.min(a.beats.min(self.beats));
            let mut tail = None;
            if queued > 0 {
                let back = self.queue.back_mut().expect("beats are queued");
                tail = Some(if back.beats() == queued {
                    self.queue.pop_back().expect("checked above")
                } else {
                    let kept = back.split_front(back.beats() - queued);
                    std::mem::replace(back, kept)
                });
                self.beats -= queued;
            }
            if unarrived > queued {
                let held = self.claimed.as_mut().expect("claimed, not collected");
                let kept = held.split_front(held.beats() - (unarrived - queued));
                let mut rest = std::mem::replace(held, kept);
                if let Some(tail) = tail.take() {
                    rest.append(tail);
                }
                tail = Some(rest);
            }
            self.pushed_words -= unarrived as u64;
            self.returned = tail;
        }
        if let Some(d) = self.draining.take() {
            if let Some(mut held) = self.claimed.take() {
                let popped = d.done(now, true).min(held.beats());
                self.popped_words -= (d.beats - popped) as u64;
                if popped < held.beats() {
                    self.popped = Some(held.split_front(popped));
                    self.beats += held.beats();
                    self.queue.push_front(held);
                } else {
                    self.popped = Some(held);
                }
            }
        }
    }

    /// Words arrived — invalidate the consumer's cached activity bound.
    #[inline]
    fn wake_rx(&self) {
        if let Some(w) = &self.rx_wake {
            w.wake();
        }
    }

    /// Space freed — invalidate the producer's cached activity bound,
    /// unless it is a paced producer with nothing left to push.
    #[inline]
    fn wake_tx(&self) {
        if let Some(w) = &self.tx_wake {
            if !self.tx_paced || self.tx_starved.get() {
                w.wake();
            }
        }
    }

    /// Queue a burst the caller has checked there is room for.
    #[inline]
    fn put(&mut self, burst: Burst) {
        assert!(burst.width() <= self.width, "word wider than stream bus");
        self.beats += burst.beats();
        self.pushed_words += u64::from(burst.beats);
        if burst.sop {
            self.pushed_packets += 1;
        }
        self.queue.push_back(burst);
    }

    /// Dequeue up to `max` beats (`max >= 1`) of the head burst, splitting
    /// it when it is longer.
    #[inline]
    fn take(&mut self, max: usize) -> Option<Burst> {
        let head = self.queue.front_mut()?;
        let burst = if head.beats() <= max {
            self.queue.pop_front().expect("head exists")
        } else {
            head.split_front(max)
        };
        self.beats -= burst.beats();
        self.popped_words += u64::from(burst.beats);
        Some(burst)
    }
}

/// A stream channel; create with [`Stream::new`], then split into handles.
/// Depth and every observable figure count beats, whatever bursts the
/// queue holds them in (see the [module docs](self)).
#[derive(Debug)]
pub struct Stream;

impl Stream {
    /// Create a channel holding at most `capacity` words of `width` bytes.
    /// Returns the producer and consumer handles.
    #[allow(clippy::new_ret_no_self)] // factory for the handle pair, like mpsc::channel
    pub fn new(capacity: usize, width: usize) -> (StreamTx, StreamRx) {
        assert!(capacity >= 1, "capacity must be at least one word");
        assert!(
            (1..=MAX_BUS_BYTES).contains(&width),
            "bus width must be 1..={MAX_BUS_BYTES}"
        );
        let shared = Rc::new(RefCell::new(Shared {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            width,
            ..Shared::default()
        }));
        (
            StreamTx {
                shared: shared.clone(),
            },
            StreamRx { shared },
        )
    }
}

// The one-beat operations below run once per beat per hop and are called
// from other crates: without `#[inline]` each costs a call plus a copy of
// the entry per word↔burst conversion (≈10 % of a word-level pipeline).

/// Producer handle: the `tready`-checking side.
#[derive(Debug, Clone)]
pub struct StreamTx {
    shared: Rc<RefCell<Shared>>,
}

impl StreamTx {
    /// True if the channel can accept a word this cycle (`tready`).
    #[inline]
    pub fn can_push(&self) -> bool {
        let s = self.shared.borrow();
        s.beats < s.capacity
    }

    /// Free space in words.
    pub fn space(&self) -> usize {
        let s = self.shared.borrow();
        s.capacity - s.beats
    }

    /// Push a word. Panics if full (callers must check `can_push`; pushing
    /// into a full FIFO is a design bug, as it would be in hardware).
    #[inline]
    pub fn push(&self, word: Word) {
        let mut s = self.shared.borrow_mut();
        assert!(s.beats < s.capacity, "push into full stream");
        s.put(word.into());
        s.wake_rx();
    }

    /// The configured bus width in bytes.
    pub fn width(&self) -> usize {
        self.shared.borrow().width
    }

    /// Push up to `max` leading beats of the burst in `slot`, as many as
    /// fit, as one queue entry; the rest stays in `slot`, which empties
    /// when the last beat goes. Returns the number of beats pushed
    /// (possibly zero). With `max = 1` this is the word-per-cycle
    /// `can_push`/`push` pair; with `usize::MAX` a whole packet crosses in
    /// one move — the fast path for modules allowed to move whole packets
    /// per cycle.
    #[inline]
    pub fn push_burst(&self, slot: &mut Option<Burst>, max: usize) -> usize {
        if slot.is_none() {
            return 0; // the idle tick of every emitter: not even a borrow
        }
        let mut s = self.shared.borrow_mut();
        let n = max.min(s.capacity - s.beats);
        if n == 0 {
            return 0;
        }
        let burst = Burst::take_front(slot, n);
        let pushed = burst.beats();
        s.put(burst);
        s.wake_rx();
        pushed
    }

    /// Register the producer module's activity-invalidation flag: it is
    /// woken whenever a pop or transfer frees space in this channel. Every
    /// module whose classification reads [`StreamTx::can_push`] (a stage
    /// that reports quiescent while back-pressured) must register here.
    /// The producer may use any operation; the channel is never charged.
    pub fn set_wake(&self, wake: WakeHandle) {
        self.pace(wake, false);
    }

    /// [`StreamTx::set_wake`], with or without the promise that lets the
    /// channel be charged: a `paced` producer pushes through a port alone
    /// and reads back pressure through [`StreamTx::ready_at`].
    fn pace(&self, wake: WakeHandle, paced: bool) {
        let mut s = self.shared.borrow_mut();
        s.tx_wake = Some(wake);
        s.tx_paced = paced;
    }

    /// The word-per-cycle push of a module that ticks only when something
    /// changes: commit as many leading beats of the burst in `slot` as
    /// find a free slot each at its own instant — beat `i` is pushed at
    /// `ctx.now + i·ctx.period` — as one queue entry, leaving the rest in
    /// `slot`. Returns the instant the producer may push again (one period
    /// after the last committed beat), or `None` when not even the first
    /// beat fits now.
    ///
    /// On a channel that cannot be charged (see the [module docs](self))
    /// this commits one beat: the `can_push`/`push` pair of a per-beat
    /// module.
    #[inline]
    fn commit(&self, slot: &mut Option<Burst>, ctx: &TickContext) -> Option<Time> {
        let offered = slot.as_ref()?.beats();
        let unobserved = Rc::strong_count(&self.shared) == 2;
        let mut s = self.shared.borrow_mut();
        let order = s.rank_order().filter(|_| unobserved);
        s.rx_first = order.unwrap_or(false);
        let n = s.admit(offered, ctx, order.is_some());
        if n == 0 {
            return None;
        }
        s.put(Burst::take_front(slot, n));
        s.wake_rx();
        Some(Pace::starting(ctx, n).at(n))
    }

    /// When a producer with beats to push, stalled or not, next finds a
    /// free slot, as far as the channel knows: `Some(Time::ZERO)` when one
    /// is free already, the instant the scheduled pop that frees one
    /// becomes visible to the producer, or `None` when only a claim not yet
    /// made can free one (which wakes the producer). A pure function of
    /// what has been committed and claimed, so it can back
    /// [`crate::sim::Module::activity`].
    fn ready_at(&self) -> Option<Time> {
        let s = self.shared.borrow();
        s.tx_starved.set(true);
        let Some(d) = s.draining else {
            return (s.beats < s.capacity).then_some(Time::ZERO);
        };
        // Pops of the newest claim that must be over before a slot is free.
        let need = (s.beats + d.beats + 1).saturating_sub(s.capacity);
        match need {
            0 => Some(Time::ZERO),
            n if n > d.beats => None,
            n => Some(d.at(n - usize::from(s.rx_first))),
        }
    }

    /// The producer's half of a reset: settle the channel to its per-beat
    /// state as of the simulator's clock, and put the beats the producer
    /// had committed but not yet pushed back at the front of `slot`.
    fn settle(&self, slot: &mut Option<Burst>) {
        let mut s = self.shared.borrow_mut();
        s.settle();
        s.tx_starved.set(true); // whatever the cursor holds now, it waits on us
        if let Some(mut unsent) = s.returned.take() {
            if let Some(rest) = slot.take() {
                unsent.append(rest);
            }
            *slot = Some(unsent);
        }
    }
}

/// Consumer handle: the `tvalid`-checking side.
#[derive(Debug, Clone)]
pub struct StreamRx {
    shared: Rc<RefCell<Shared>>,
}

impl StreamRx {
    /// True if a word is available this cycle (`tvalid`).
    #[inline]
    pub fn can_pop(&self) -> bool {
        self.shared.borrow().beats > 0
    }

    /// Consume the head word.
    #[inline]
    pub fn pop(&self) -> Option<Word> {
        self.pop_burst(1).map(Burst::into_word)
    }

    /// Register the consumer module's activity-invalidation flag: it is
    /// woken whenever a push or transfer delivers words into this channel.
    /// The consumer may use any operation; the channel is never charged.
    pub fn set_wake(&self, wake: WakeHandle) {
        self.pace(wake, false);
    }

    /// [`StreamRx::set_wake`], with or without the promise that lets the
    /// channel be charged: a `paced` consumer pops through a port alone.
    fn pace(&self, wake: WakeHandle, paced: bool) {
        let mut s = self.shared.borrow_mut();
        s.rx_wake = Some(wake);
        s.rx_paced = paced;
    }

    /// The word-per-cycle pop of a module that ticks only when something
    /// changes: claim up to `max` beats of the head burst, popped one per
    /// cycle from `ctx.now` on — which they can be, because the producer
    /// pushes them at the same pace and the first is here. The beats stay
    /// with the channel (they still occupy it until popped) until the
    /// consumer [`StreamRx::collect`]s them at the returned `done_at`, the
    /// edge the last is popped; it must not claim again before then.
    ///
    /// On a channel that cannot be charged this claims one beat, done at
    /// `ctx.now`: the `pop` of a per-beat module.
    #[inline]
    fn claim(&self, max: usize, ctx: &TickContext) -> Option<Time> {
        if max == 0 {
            return None;
        }
        let unobserved = Rc::strong_count(&self.shared) == 2;
        let mut s = self.shared.borrow_mut();
        debug_assert!(s.claimed.is_none(), "claim before collect");
        let order = s.rank_order().filter(|_| unobserved);
        let burst = s.take(if order.is_some() { max } else { 1 })?;
        let pace = Pace::starting(ctx, burst.beats());
        s.rx_first = order.unwrap_or(false);
        s.draining = (pace.beats > 1).then_some(pace);
        s.claimed = Some(burst);
        s.wake_tx();
        Some(pace.at(pace.beats - 1))
    }

    /// The beats of the last claim, once the last of them is
    /// popped — or of the last [`StreamRx::forward`], whose beats went
    /// downstream already, so this only lets go of the channel's view of
    /// them (`None` when there was nothing to hold).
    #[inline]
    fn collect(&self) -> Option<Burst> {
        self.shared.borrow_mut().claimed.take()
    }

    /// Cut-through: claim the head burst of this stream and commit it to
    /// `tx` on the same schedule, as many beats as `tx` finds room for by
    /// the rule of a [`PacketTx`]'s commit — beat `i` is popped here and
    /// pushed there at `ctx.now + i·ctx.period` — showing them to
    /// `inspect` as they go. One beat when either channel cannot be
    /// charged. The forwarder must let the returned `done_at` pass, and
    /// [`StreamRx::collect`], before it forwards again.
    fn forward(
        &self,
        tx: &StreamTx,
        ctx: &TickContext,
        inspect: impl FnOnce(&Burst),
    ) -> Option<Time> {
        let unobserved = Rc::strong_count(&self.shared) == 2 && Rc::strong_count(&tx.shared) == 2;
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        debug_assert!(src.claimed.is_none(), "forward before collect");
        let head = src.queue.front()?.beats();
        let charged = match (src.rank_order(), dst.rank_order()) {
            (Some(src_first), Some(dst_first)) if unobserved => {
                src.rx_first = src_first;
                dst.rx_first = dst_first;
                true
            }
            _ => false,
        };
        let n = dst.admit(head, ctx, charged);
        if n == 0 {
            return None;
        }
        let burst = src.take(n)?;
        inspect(&burst);
        let pace = Pace::starting(ctx, n);
        // The beats go downstream now; a second view of them stays here
        // while any is still to be popped, for a reset to put back.
        src.draining = (n > 1).then_some(pace);
        src.claimed = (n > 1).then(|| burst.clone());
        src.wake_tx();
        dst.put(burst);
        dst.wake_rx();
        Some(pace.at(n - 1))
    }

    /// The consumer's half of a reset: settle the channel to its per-beat
    /// state as of the simulator's clock, and hand over those beats of the
    /// claim that had been popped by then (the rest are back at the head of
    /// the queue).
    fn settle(&self) -> Option<Burst> {
        let mut s = self.shared.borrow_mut();
        s.settle();
        s.popped.take()
    }

    /// Current occupancy in words.
    pub fn occupancy(&self) -> usize {
        self.shared.borrow().beats
    }

    /// The configured bus width in bytes.
    pub fn width(&self) -> usize {
        self.shared.borrow().width
    }

    /// Total words ever pushed (for utilization accounting).
    pub fn total_pushed(&self) -> u64 {
        self.shared.borrow().pushed_words
    }

    /// Total packets ever pushed.
    pub fn total_packets(&self) -> u64 {
        self.shared.borrow().pushed_packets
    }

    /// Pop up to `max` beats of the head burst — never past the end of a
    /// packet, since no burst spans two. `None` when the stream is empty
    /// or `max` is zero.
    #[inline]
    pub fn pop_burst(&self, max: usize) -> Option<Burst> {
        if max == 0 {
            return None;
        }
        let mut s = self.shared.borrow_mut();
        let burst = s.take(max)?;
        s.wake_tx();
        Some(burst)
    }

    /// The collapsed hop: up to `max` beats, whole bursts from the head of
    /// this stream to the tail of `tx`, bounded by both occupancy and
    /// downstream space and splitting only the burst the budget ends
    /// inside. `each` sees every burst moved — a burst cut short is seen
    /// as the part that moved, so every beat is seen once — and returns
    /// true to stop after it. One borrow pair, one counter update per burst
    /// and one wake per side for the whole run; returns the beats moved.
    fn transfer(&self, tx: &StreamTx, max: usize, mut each: impl FnMut(&Burst) -> bool) -> usize {
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        let budget = max.min(dst.capacity - dst.beats);
        let mut left = budget;
        while left > 0 {
            let Some(burst) = src.take(left) else { break };
            left -= burst.beats();
            let stop = each(&burst);
            dst.put(burst);
            if stop {
                break;
            }
        }
        if left < budget {
            src.wake_tx();
            dst.wake_rx();
        }
        budget - left
    }
}

/// Segment a packet into bus beats of `width` bytes, attaching `meta` to
/// the first. The inverse of [`Reassembler`]. Copies the packet once into
/// a fresh pooled buffer; prefer [`segment_buf`] when a [`PktBuf`] already
/// exists.
pub fn segment(packet: &[u8], width: usize, meta: Meta) -> Burst {
    segment_buf(&PktBuf::copy_from(packet), width, meta)
}

/// Segment an existing buffer into bus beats of `width` bytes without
/// copying: the whole packet becomes one [`Burst`] sharing `buf`'s backing
/// store (one refcount bump, whatever the length), every beat split off it
/// is an `(offset, len)` view of the same store, and [`Reassembler`]
/// rejoins such views back into the original buffer for free.
pub fn segment_buf(buf: &PktBuf, width: usize, meta: Meta) -> Burst {
    assert!(!buf.is_empty(), "empty packet");
    assert!((1..=MAX_BUS_BYTES).contains(&width));
    Burst {
        buf: buf.clone(),
        width: width as u8,
        beats: u32::try_from(buf.len().div_ceil(width)).expect("packet of under 2^32 beats"),
        sop: true,
        eop: true,
        meta: Some(meta),
    }
}

/// Reassembly accumulator: contiguous same-buffer views join for free; the
/// first discontinuity falls back to an owned copy.
#[derive(Debug, Default)]
enum Accum {
    #[default]
    Empty,
    /// All beats so far are adjacent views of one backing store.
    View(PktBuf),
    /// Mixed origins: bytes collected into an owned (pooled) vector.
    Owned(Vec<u8>),
}

/// Incrementally rebuild packets from a word stream.
///
/// When the incoming beats are views of a single buffer (the output of
/// [`segment_buf`], i.e. any frame that crossed the pipeline untouched),
/// reassembly is zero-copy: the completed packet *is* the original buffer,
/// refcount-bumped — one join per burst fed, so a frame that arrives as
/// one burst costs one step whatever its length. Only streams mixing
/// beats from different buffers pay a copy.
#[derive(Debug, Default)]
pub struct Reassembler {
    acc: Accum,
    meta: Option<Meta>,
    in_packet: bool,
    /// Resynchronising after a soft reset: discard words until the next
    /// `sop` instead of treating them as framing violations.
    hunting: bool,
    /// The open packet is the first since a resync, so the reset may have
    /// cut it upstream with its `sop` still queued: a `sop` ends it.
    tentative: bool,
}

impl Reassembler {
    /// A fresh reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Drop any partially received packet and hunt for the next `sop`:
    /// words arriving before it are discarded instead of panicking. This is
    /// the deframer half of a soft reset — when an upstream module was
    /// flushed mid-frame, the orphaned tail words still in flight must not
    /// wedge the pipeline. Returns whether a partial packet was discarded
    /// (so the caller can count the loss).
    ///
    /// The first packet begun after the resync is tentative: if the reset
    /// cut it upstream while its `sop` was still queued in front of this
    /// reassembler, its tail never arrives, and the next `sop` discards
    /// what was received and starts over. That is the same loss the reset
    /// already stands for, so it is not reported again; once a packet has
    /// completed, a `sop` inside a packet is a framing violation as ever.
    pub fn resync(&mut self) -> bool {
        let dropped = self.in_packet;
        self.acc = Accum::Empty;
        self.meta = None;
        self.in_packet = false;
        self.hunting = true;
        dropped
    }

    /// Feed one word; returns the completed packet on `eop`. See
    /// [`Reassembler::push_burst`], of which this is the one-beat case.
    #[inline]
    pub fn push(&mut self, word: Word) -> Option<(PktBuf, Meta)> {
        self.push_burst(word.into())
    }

    /// Feed the next beats of the packet; returns the completed packet
    /// when the burst carries `eop`.
    ///
    /// Panics on framing violations (beats outside a packet, or `sop`
    /// inside one) — those indicate a module bug, mirroring how malformed
    /// AXIS framing wedges real hardware. After [`Reassembler::resync`],
    /// bursts before the next `sop` are silently discarded instead, and a
    /// `sop` may cut the first packet short.
    pub fn push_burst(&mut self, burst: Burst) -> Option<(PktBuf, Meta)> {
        if burst.sop {
            assert!(!self.in_packet || self.tentative, "sop inside packet");
            self.tentative = std::mem::take(&mut self.hunting);
            self.in_packet = true;
            self.meta = burst.meta;
            self.acc = Accum::View(burst.buf);
        } else if self.hunting {
            return None;
        } else {
            assert!(self.in_packet, "data word outside packet");
            self.acc = match std::mem::take(&mut self.acc) {
                Accum::View(acc) => match acc.try_join(&burst.buf) {
                    Some(joined) => Accum::View(joined),
                    None => {
                        let mut v = Vec::with_capacity(acc.len() + burst.len());
                        v.extend_from_slice(acc.bytes());
                        v.extend_from_slice(burst.bytes());
                        Accum::Owned(v)
                    }
                },
                Accum::Owned(mut v) => {
                    v.extend_from_slice(burst.bytes());
                    Accum::Owned(v)
                }
                Accum::Empty => unreachable!("in_packet implies accumulator"),
            };
        }
        if burst.eop {
            self.in_packet = false;
            self.tentative = false;
            let meta = self.meta.take().unwrap_or_default();
            let buf = match std::mem::take(&mut self.acc) {
                Accum::View(acc) => acc,
                Accum::Owned(v) => PktBuf::from_vec(v),
                Accum::Empty => unreachable!("eop implies accumulator"),
            };
            return Some((buf, meta));
        }
        None
    }

    /// True while a packet is partially received.
    pub fn mid_packet(&self) -> bool {
        self.in_packet
    }
}

/// The ingest port of a store-and-forward block: a stream in, whole
/// packets out. Built from the stream's consumer end and the owner's
/// [`WakeHandle`], which it registers, so the owner is woken by every push
/// it could act on.
///
/// Word-paced (the default), the port claims the head burst — its beats
/// popped one per cycle from that edge on — and hands them to the
/// reassembler on the edge the last is popped: one claim and one collect
/// per edge at most, one beat per tick on a channel that cannot be charged.
/// Collapsed ([`PacketRx::set_burst`]), every queued burst is taken at once.
#[derive(Debug)]
pub struct PacketRx {
    rx: StreamRx,
    wake: WakeHandle,
    paced: bool,
    /// The edge that pops the last beat claimed, until then.
    claimed: Option<Time>,
    /// The edge of the last collect: nothing more is claimed within it.
    collected_at: Time,
    reasm: Reassembler,
}

impl PacketRx {
    /// A word-paced port on `rx`, waking `wake` when beats arrive.
    pub fn new(rx: StreamRx, wake: &WakeHandle) -> PacketRx {
        rx.pace(wake.clone(), true);
        PacketRx {
            rx,
            wake: wake.clone(),
            paced: true,
            claimed: None,
            collected_at: Time::ZERO,
            reasm: Reassembler::new(),
        }
    }

    /// Collapse the pacing (`true`: every queued burst per tick, no
    /// cycle-level timing) or restore one word per cycle — what the
    /// owner's `with_burst` forwards.
    pub fn set_burst(&mut self, enabled: bool) {
        self.paced = !enabled;
        self.rx.pace(self.wake.clone(), self.paced);
    }

    /// The next packet this tick completes, if any; call until `None`.
    /// While the owner is not `willing` nothing new is taken from the
    /// stream (beats already claimed still arrive).
    #[inline]
    pub fn poll(&mut self, willing: bool, ctx: &TickContext) -> Option<(PktBuf, Meta)> {
        if !self.paced {
            if !willing {
                return None;
            }
            while let Some(beats) = self.rx.pop_burst(usize::MAX) {
                if let Some(packet) = self.reasm.push_burst(beats) {
                    return Some(packet);
                }
            }
            return None;
        }
        if self.claimed.is_none() && willing && self.collected_at != ctx.now {
            self.claimed = self.rx.claim(usize::MAX, ctx);
        }
        if self.claimed.is_some_and(|done_at| done_at <= ctx.now) {
            self.claimed = None;
            self.collected_at = ctx.now;
            return self.reasm.push_burst(self.rx.collect()?);
        }
        None
    }

    /// True while a packet is partially received.
    pub fn mid_packet(&self) -> bool {
        self.reasm.mid_packet()
    }

    /// The ingest half of the owner's [`Module::activity`](crate::sim::Module::activity):
    /// claimed beats are acted on when the last of them is popped; with
    /// nothing claimed, a `willing` owner claims as soon as a beat is
    /// there, and is idle until upstream pushes otherwise.
    pub fn activity(&self, willing: bool) -> Activity {
        match self.claimed {
            Some(done_at) => Activity::Bounded(done_at),
            None => Activity::idle_if(!(willing && self.rx.can_pop())),
        }
    }

    /// Watchdog recovery: settle the claim — beats popped so far belong to
    /// the arrival, the rest are back in the stream — then discard the
    /// partial arrival (its tail was flushed upstream) and hunt for the
    /// next `sop`. Returns whether a partial packet was discarded, for the
    /// owner to count.
    pub fn soft_reset(&mut self) -> bool {
        self.claimed = None;
        if let Some(popped) = self.rx.settle() {
            self.reasm.push_burst(popped);
        }
        self.reasm.resync()
    }

    /// Full reset: [`PacketRx::soft_reset`], and framing starts afresh.
    pub fn reset(&mut self) {
        self.soft_reset();
        self.reasm = Reassembler::new();
        self.collected_at = Time::ZERO;
    }
}

/// The emit port of a store-and-forward block: a staged packet in, beats
/// out. Built from the stream's producer end and the owner's
/// [`WakeHandle`], which it registers, so the owner is woken by the pops a
/// stalled emission waits on.
///
/// Word-paced (the default), the port commits the staged packet's beats —
/// pushed one per cycle from that edge on, as many as the channel has room
/// for — and neither pushes nor accepts another packet before they are out.
/// Collapsed ([`PacketTx::set_burst`]), it pushes whatever fits at once.
#[derive(Debug)]
pub struct PacketTx {
    tx: StreamTx,
    wake: WakeHandle,
    paced: bool,
    /// The beats of the staged packet that are still to be committed.
    cursor: Option<Burst>,
    /// The edge after the last committed beat.
    free_at: Time,
}

impl PacketTx {
    /// A word-paced port on `tx`, waking `wake` when space frees up.
    pub fn new(tx: StreamTx, wake: &WakeHandle) -> PacketTx {
        tx.pace(wake.clone(), true);
        PacketTx {
            tx,
            wake: wake.clone(),
            paced: true,
            cursor: None,
            free_at: Time::ZERO,
        }
    }

    /// See [`PacketRx::set_burst`].
    pub fn set_burst(&mut self, enabled: bool) {
        self.paced = !enabled;
        self.tx.pace(self.wake.clone(), self.paced);
    }

    /// Stage `packet` for emission; only after [`PacketTx::emit`] returned
    /// true at this edge.
    #[inline]
    pub fn stage(&mut self, packet: PktBuf, meta: Meta) {
        debug_assert!(self.cursor.is_none(), "a packet is staged already");
        self.cursor = Some(segment_buf(&packet, self.tx.width(), meta));
    }

    /// Push what this edge allows of the staged packet. Returns whether
    /// the port takes the next packet at this edge — nothing staged, no
    /// committed beat still going out — so a tick is
    /// `while port.emit(ctx) { stage the next packet, or break }`.
    #[inline]
    pub fn emit(&mut self, ctx: &TickContext) -> bool {
        if ctx.now < self.free_at {
            return false;
        }
        if self.cursor.is_some() {
            if self.paced {
                if let Some(free_at) = self.tx.commit(&mut self.cursor, ctx) {
                    self.free_at = free_at;
                }
                return false;
            }
            self.tx.push_burst(&mut self.cursor, usize::MAX);
        }
        self.cursor.is_none()
    }

    /// The emit half of the owner's [`Module::activity`](crate::sim::Module::activity),
    /// given when the owner `next` has a packet to stage (`Time::ZERO`:
    /// already; `None`: not until woken). Stalled when staged beats face a
    /// full stream with no pop scheduled; otherwise nothing happens before
    /// the committed beats are out, nor before a scheduled pop frees a
    /// slot for the staged ones.
    pub fn activity(&self, next: Option<Time>) -> Activity {
        let slot = match &self.cursor {
            Some(_) => self.tx.ready_at(),
            None => next,
        };
        slot.map_or(Activity::Quiescent, |t| Activity::at(t.max(self.free_at)))
    }

    /// Watchdog recovery: settle the charge — beats committed but not yet
    /// pushed never leave — and discard a packet already cut short
    /// mid-emission (the block downstream resyncs); a staged packet whose
    /// `sop` has not gone survives.
    pub fn soft_reset(&mut self) {
        self.tx.settle(&mut self.cursor);
        self.free_at = Time::ZERO;
        if self.cursor.as_ref().is_some_and(|beats| !beats.sop) {
            self.cursor = None;
        }
    }

    /// Full reset: [`PacketTx::soft_reset`], and nothing stays staged.
    pub fn reset(&mut self) {
        self.soft_reset();
        self.cursor = None;
    }
}

/// What a cut-through block decides while its [`CutThrough`] port moves the
/// beats: which input to serve, and what to make of the beats passing.
/// Every method has a default, so a one-input block overrides only what it
/// watches.
pub trait PassThrough {
    /// The input to serve, asked between bursts (and by the port's
    /// `activity`): by default the first, when it holds a beat.
    fn source(&self, inputs: &[StreamRx]) -> Option<usize> {
        inputs[0].can_pop().then_some(0)
    }

    /// The beats of `burst` start to pass, on the edge the first of them
    /// does: every beat is shown once, a burst cut short by output room as
    /// the part that passes. Beats a soft reset puts back on their input
    /// are shown again when they pass again.
    fn inspect(&mut self, _burst: &Burst) {}

    /// The last beat of a burst from input `input` has passed, on its own
    /// edge; `eop` when that beat ended its packet.
    fn passed(&mut self, _input: usize, _eop: bool) {}
}

/// The port of a cut-through block: beats from one of its inputs straight
/// to its output, the owner's [`PassThrough`] policy choosing the input and
/// watching them pass. Built from the inputs' consumer ends, the output's
/// producer end and the owner's [`WakeHandle`], which it registers on all
/// of them, so the owner is woken by every push it could pass and every pop
/// a stalled pass waits on.
///
/// Word-paced (the default), the port claims the chosen input's head burst
/// and commits it to the output on one schedule — beat `i` popped and
/// pushed at `now + i·period`, as many as the output has room for — and
/// lets it go on the edge its last beat passes; one beat per tick where a
/// channel cannot be charged. Collapsed ([`CutThrough::set_burst`]), it
/// moves whole packets per tick until an input runs dry mid-packet or the
/// output fills.
#[derive(Debug)]
pub struct CutThrough {
    inputs: Vec<StreamRx>,
    output: StreamTx,
    wake: WakeHandle,
    paced: bool,
    /// The burst passing through, until its last beat passes: its input,
    /// that beat's edge, and whether it ends its packet.
    passing: Option<(usize, Time, bool)>,
}

impl CutThrough {
    /// A word-paced port from `inputs` to `output`, waking `wake` when beats
    /// arrive or output space frees up.
    pub fn new(inputs: Vec<StreamRx>, output: StreamTx, wake: &WakeHandle) -> CutThrough {
        assert!(
            !inputs.is_empty(),
            "a cut-through port needs at least one input"
        );
        let mut port = CutThrough {
            inputs,
            output,
            wake: wake.clone(),
            paced: true,
            passing: None,
        };
        port.set_burst(false);
        port
    }

    /// See [`PacketRx::set_burst`].
    pub fn set_burst(&mut self, enabled: bool) {
        self.paced = !enabled;
        for rx in &self.inputs {
            rx.pace(self.wake.clone(), self.paced);
        }
        self.output.pace(self.wake.clone(), self.paced);
    }

    /// Pass what this edge allows, as `policy` directs.
    #[inline]
    pub fn tick(&mut self, ctx: &TickContext, policy: &mut impl PassThrough) {
        if !self.paced {
            while let Some(i) = policy.source(&self.inputs) {
                let mut eop = false;
                let moved = self.inputs[i].transfer(&self.output, usize::MAX, |burst| {
                    policy.inspect(burst);
                    eop = burst.eop;
                    eop
                });
                if moved == 0 {
                    return;
                }
                policy.passed(i, eop);
                if !eop {
                    return;
                }
            }
            return;
        }
        if self.passing.is_none() {
            if let Some(i) = policy.source(&self.inputs) {
                let mut eop = false;
                let done_at = self.inputs[i].forward(&self.output, ctx, |burst| {
                    policy.inspect(burst);
                    eop = burst.eop;
                });
                self.passing = done_at.map(|done_at| (i, done_at, eop));
            }
        }
        if let Some((i, _, eop)) = self.passing.filter(|&(_, done_at, _)| done_at <= ctx.now) {
            self.passing = None;
            self.inputs[i].collect();
            policy.passed(i, eop);
        }
    }

    /// The port's half of the owner's [`Module::activity`](crate::sim::Module::activity):
    /// a burst passing through is let go when its last beat has passed;
    /// otherwise idle when `policy` has no input to serve, stalled when the
    /// output is full with no pop scheduled, and bounded by the scheduled
    /// pop that frees a slot.
    pub fn activity(&self, policy: &impl PassThrough) -> Activity {
        if let Some((_, done_at, _)) = self.passing {
            return Activity::Bounded(done_at);
        }
        policy
            .source(&self.inputs)
            .and_then(|_| self.output.ready_at())
            .map_or(Activity::Quiescent, Activity::at)
    }

    /// Watchdog recovery and reset: settle the charge — of a burst passing
    /// through, the beats not yet passed are back at the head of their
    /// input, and the output keeps only those that reached it.
    pub fn soft_reset(&mut self) {
        if let Some((i, ..)) = self.passing.take() {
            self.inputs[i].settle();
        }
        self.output.settle(&mut None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn portmask_ops() {
        let mut m = PortMask::single(3);
        assert!(m.contains(3));
        assert!(!m.contains(2));
        m.insert(0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(m.first(), Some(0));
        m.remove(0);
        assert_eq!(m.first(), Some(3));
        assert_eq!(PortMask::first_n(4), PortMask(0b1111));
        assert_eq!(PortMask::first_n(16).count(), 16);
        assert!(PortMask::EMPTY.is_empty());
    }

    #[test]
    fn stream_handshake() {
        let (tx, rx) = Stream::new(2, 32);
        assert!(tx.can_push());
        assert!(!rx.can_pop());
        tx.push(Word::new(&[1, 2, 3], true, false, Some(Meta::default())));
        tx.push(Word::new(&[4], false, true, None));
        assert!(!tx.can_push());
        assert_eq!(tx.space(), 0);
        assert_eq!(rx.occupancy(), 2);
        let w = rx.pop().unwrap();
        assert_eq!(w.bytes(), &[1, 2, 3]);
        assert!(w.sop && !w.eop);
        assert!(tx.can_push());
        assert_eq!(rx.pop().unwrap().bytes(), &[4]);
        assert!(rx.pop().is_none());
        assert_eq!(rx.total_pushed(), 2);
        assert_eq!(rx.total_packets(), 1);
    }

    /// The bytes of a burst, beat by beat.
    fn beat_bytes(burst: &Burst) -> Vec<Vec<u8>> {
        burst.clone().map(|w| w.bytes().to_vec()).collect()
    }

    /// The head word, without consuming it.
    fn peek(rx: &StreamRx) -> Option<Word> {
        rx.shared.borrow().queue.front().cloned()?.next()
    }

    /// The collapsed hop of a [`CutThrough`] port, as its three callers
    /// use it: a budget, one packet at most, and a look at each burst.
    fn transfer_up_to(rx: &StreamRx, tx: &StreamTx, max: usize) -> usize {
        rx.transfer(tx, max, |_| false)
    }

    fn transfer_packet(rx: &StreamRx, tx: &StreamTx) -> (usize, bool) {
        let mut completed = false;
        let moved = rx.transfer(tx, usize::MAX, |burst| {
            completed = burst.eop;
            completed
        });
        (moved, completed)
    }

    fn transfer_inspect(
        rx: &StreamRx,
        tx: &StreamTx,
        max: usize,
        mut inspect: impl FnMut(&Burst),
    ) -> usize {
        rx.transfer(tx, max, |burst| {
            inspect(burst);
            false
        })
    }

    #[test]
    fn burst_push_pop_respect_bounds() {
        let (tx, rx) = Stream::new(4, 8);
        let mut slot = Some(segment(&[0, 1, 2, 3, 4, 5], 1, Meta::default()));
        // Only 4 of 6 beats fit.
        assert_eq!(tx.push_burst(&mut slot, usize::MAX), 4);
        assert_eq!(slot.as_ref().map(Burst::beats), Some(2));
        assert_eq!(rx.occupancy(), 4);
        assert_eq!(rx.total_pushed(), 4);
        assert_eq!(rx.total_packets(), 1);
        assert_eq!(tx.push_burst(&mut slot, usize::MAX), 0);
        let head = rx.pop_burst(3).expect("four beats queued");
        assert_eq!(beat_bytes(&head), [[0], [1], [2]]);
        assert!(head.sop && !head.eop && head.meta.is_some());
        assert_eq!(rx.occupancy(), 1);
        assert!(rx.pop_burst(0).is_none(), "a zero budget pops nothing");
        // Freed space admits the stragglers, capped by `max`.
        assert_eq!(tx.push_burst(&mut slot, 1), 1);
        assert_eq!(tx.push_burst(&mut slot, usize::MAX), 1);
        assert!(slot.is_none(), "the last beat empties the slot");
        assert_eq!(tx.push_burst(&mut slot, usize::MAX), 0);
        // Three queue entries now hold beats 3, 4 and 5: a pop never joins.
        let rest: Vec<Burst> = std::iter::from_fn(|| rx.pop_burst(10)).collect();
        assert_eq!(
            rest.iter().map(beat_bytes).collect::<Vec<_>>(),
            [[[3]], [[4]], [[5]]]
        );
        assert!(rest.iter().all(|b| !b.sop && b.meta.is_none()));
        assert_eq!(
            rest.iter().map(|b| b.eop).collect::<Vec<_>>(),
            [false, false, true]
        );
        assert!(rx.pop_burst(10).is_none());
    }

    /// A word-level consumer behind a burst producer splits the queued
    /// burst a beat at a time; `peek` shows the beat `pop` will return.
    #[test]
    fn pop_and_peek_split_a_queued_burst_beat_by_beat() {
        let (tx, rx) = Stream::new(8, 4);
        let meta = Meta {
            len: 10,
            src_port: 3,
            ..Meta::default()
        };
        let packet: Vec<u8> = (0..10).collect();
        assert_eq!(tx.push_burst(&mut Some(segment(&packet, 4, meta)), 8), 3);
        assert_eq!((rx.occupancy(), tx.space()), (3, 5));
        let mut r = Reassembler::new();
        for (i, want) in packet.chunks(4).enumerate() {
            let peeked = peek(&rx).expect("beat queued");
            let word = rx.pop().expect("beat queued");
            assert_eq!(peeked, word);
            assert_eq!(word.bytes(), want);
            assert_eq!((word.sop, word.eop), (i == 0, i == 2));
            assert_eq!(word.meta, (i == 0).then_some(meta));
            assert_eq!(rx.occupancy(), 2 - i);
            if let Some((out, m)) = r.push(word) {
                assert_eq!((out, m), (PktBuf::from(packet.clone()), meta));
            }
        }
        assert!(peek(&rx).is_none() && rx.pop().is_none());
    }

    #[test]
    fn transfer_up_to_moves_words_and_counters() {
        let (tx_a, rx_a) = Stream::new(8, 8);
        let (tx_b, rx_b) = Stream::new(2, 8);
        for i in 0..5u8 {
            tx_a.push(Word::new(&[i], i == 0, i == 4, None));
        }
        // Destination space (2) binds first.
        assert_eq!(transfer_up_to(&rx_a, &tx_b, 4), 2);
        assert_eq!(rx_a.occupancy(), 3);
        assert_eq!(rx_b.occupancy(), 2);
        assert_eq!(rx_b.total_pushed(), 2);
        assert_eq!(rx_b.total_packets(), 1);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[0]);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[1]);
        // Then the cap, then the source occupancy.
        assert_eq!(transfer_up_to(&rx_a, &tx_b, 1), 1);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[2]);
        assert_eq!(transfer_up_to(&rx_a, &tx_b, 10), 2);
        assert_eq!(rx_a.occupancy(), 0);
    }

    /// Partial fit: a 48-beat frame crosses an 8-deep FIFO through
    /// `push_burst` and `transfer_packet` eight beats at a time — exactly
    /// the beats a per-word loop would move before `tready` drops — and
    /// rejoins into the original buffer downstream.
    #[test]
    fn long_frame_crosses_a_shallow_fifo_in_fifo_sized_pieces() {
        let frame = PktBuf::copy_from(&(0..1514).map(|i| i as u8).collect::<Vec<_>>());
        let meta = Meta {
            len: 1514,
            ..Meta::default()
        };
        let (tx_a, rx_a) = Stream::new(8, 32);
        let (tx_b, rx_b) = Stream::new(8, 32);
        let mut slot = Some(segment_buf(&frame, 32, meta));
        assert_eq!(slot.as_ref().map(Burst::beats), Some(48));
        let mut r = Reassembler::new();
        let mut done = None;
        for round in 0..6 {
            assert_eq!(tx_a.push_burst(&mut slot, usize::MAX), 8);
            assert_eq!(tx_a.push_burst(&mut slot, usize::MAX), 0, "A is full");
            assert_eq!(transfer_packet(&rx_a, &tx_b), (8, round == 5));
            assert_eq!((rx_a.occupancy(), rx_b.occupancy()), (0, 8));
            assert_eq!(transfer_packet(&rx_a, &tx_b), (0, false), "B is full");
            let piece = rx_b.pop_burst(usize::MAX).expect("eight beats");
            assert_eq!(piece.beats(), 8);
            assert_eq!((piece.sop, piece.eop), (round == 0, round == 5));
            done = r.push_burst(piece);
        }
        assert!(slot.is_none());
        assert_eq!((rx_b.total_pushed(), rx_b.total_packets()), (48, 1));
        let (out, m) = done.expect("completed on the sixth piece");
        assert_eq!(m, meta);
        assert!(out.same_backing(&frame) && out == frame);
    }

    /// `transfer_packet` stops after `eop` even with more queued, and
    /// `transfer_inspect` shows a burst cut short by `max` as the part
    /// that moved, so each beat is inspected once.
    #[test]
    fn transfers_stop_at_eop_and_inspect_each_beat_once() {
        let (tx_a, rx_a) = Stream::new(16, 1);
        let (tx_b, rx_b) = Stream::new(16, 1);
        for f in 0..2u8 {
            let bytes = [f * 4, f * 4 + 1, f * 4 + 2, f * 4 + 3];
            tx_a.push_burst(&mut Some(segment(&bytes, 1, Meta::default())), 4);
        }
        assert_eq!(transfer_packet(&rx_a, &tx_b), (4, true));
        assert_eq!((rx_a.occupancy(), rx_b.total_packets()), (4, 1));
        let mut seen = Vec::new();
        let mut inspect = |b: &Burst| seen.push((beat_bytes(b).concat(), b.sop, b.eop));
        assert_eq!(transfer_inspect(&rx_a, &tx_b, 3, &mut inspect), 3);
        assert_eq!(transfer_inspect(&rx_a, &tx_b, 3, &mut inspect), 1);
        assert_eq!(seen, [(vec![4, 5, 6], true, false), (vec![7], false, true)]);
        assert_eq!((rx_b.occupancy(), rx_b.total_packets()), (8, 2));
    }

    #[test]
    #[should_panic(expected = "push into full stream")]
    fn push_overflow_panics() {
        let (tx, _rx) = Stream::new(1, 8);
        tx.push(Word::new(&[0], true, true, None));
        tx.push(Word::new(&[0], true, true, None));
    }

    #[test]
    #[should_panic(expected = "word wider than stream bus")]
    fn wide_word_panics() {
        let (tx, _rx) = Stream::new(4, 4);
        tx.push(Word::new(&[0; 8], true, true, None));
    }

    #[test]
    fn segment_reassemble_exact_multiple() {
        let pkt: Vec<u8> = (0..64u8).collect();
        let meta = Meta {
            len: 64,
            src_port: 2,
            ..Default::default()
        };
        let words: Vec<Word> = segment(&pkt, 32, meta).collect();
        assert_eq!(words.len(), 2);
        assert!(words[0].sop && !words[0].eop);
        assert!(!words[1].sop && words[1].eop);
        assert_eq!(words[0].meta.unwrap().src_port, 2);
        let mut r = Reassembler::new();
        assert!(r.push(words[0].clone()).is_none());
        assert!(r.mid_packet());
        let (out, m) = r.push(words[1].clone()).unwrap();
        assert_eq!(out, pkt);
        assert_eq!(m.len, 64);
        assert!(!r.mid_packet());
    }

    #[test]
    fn segment_single_word_packet() {
        let mut words = segment(&[9; 10], 32, Meta::default());
        assert_eq!(words.beats(), 1);
        let word = words.next().expect("one beat");
        assert!(word.sop && word.eop);
        assert!(words.next().is_none());
    }

    /// `segment_buf` words are views of the source buffer, and reassembling
    /// them returns the original backing store: no byte is copied on the
    /// segment → stream → reassemble path.
    #[test]
    fn segment_buf_reassembles_zero_copy() {
        let buf = PktBuf::copy_from(&(0..200).map(|i| i as u8).collect::<Vec<_>>());
        let words = segment_buf(
            &buf,
            32,
            Meta {
                len: 200,
                ..Default::default()
            },
        );
        assert_eq!(buf.ref_count(), 2, "one burst, one reference");
        let words: Vec<Word> = words.collect();
        assert!(words.iter().all(|w| w.view().same_backing(&buf)));
        let mut r = Reassembler::new();
        let mut done = None;
        for w in words {
            done = done.or(r.push(w));
        }
        let (out, _) = done.expect("completed");
        assert_eq!(out, buf);
        assert!(
            out.same_backing(&buf),
            "reassembly rejoined the views for free"
        );
    }

    /// Words from different buffers still reassemble correctly (the copy
    /// fallback), e.g. after a stage stitched packets together.
    #[test]
    fn reassembler_copy_fallback_on_mixed_buffers() {
        let mut r = Reassembler::new();
        assert!(r
            .push(Word::new(&[1, 2], true, false, Some(Meta::default())))
            .is_none());
        let (out, _) = r.push(Word::new(&[3, 4], false, true, None)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "data word outside packet")]
    fn reassembler_rejects_orphan_word() {
        Reassembler::new().push(Word::new(&[1], false, true, None));
    }

    /// After `resync`, a partial packet is discarded and orphan tail words
    /// are hunted past instead of panicking; the next `sop` resumes normal
    /// reassembly.
    #[test]
    fn reassembler_resync_hunts_for_sop() {
        let mut r = Reassembler::new();
        assert!(r
            .push(Word::new(&[1, 2], true, false, Some(Meta::default())))
            .is_none());
        assert!(r.mid_packet());
        assert!(
            r.resync(),
            "mid-packet resync reports the discarded partial"
        );
        assert!(!r.mid_packet());
        // Orphan tail words (no sop) are discarded, not a panic.
        assert!(r.push(Word::new(&[3], false, false, None)).is_none());
        assert!(r.push(Word::new(&[4], false, true, None)).is_none());
        // The next sop resumes normal framing.
        assert!(r
            .push(Word::new(&[5, 6], true, false, Some(Meta::default())))
            .is_none());
        let (out, _) = r.push(Word::new(&[7], false, true, None)).unwrap();
        assert_eq!(out, vec![5, 6, 7]);
        // Idle resync discards nothing and still arms the hunt.
        assert!(!r.resync());
        assert!(r.push(Word::new(&[8], false, true, None)).is_none());
        let (out, _) = r
            .push(Word::new(&[9], true, true, Some(Meta::default())))
            .unwrap();
        assert_eq!(out, vec![9]);
    }

    /// Hunting with bursts: the multi-beat remainder of a truncated frame
    /// is discarded whole, the caller is told of one partial packet, and
    /// the next frame reassembles in one step.
    #[test]
    fn reassembler_resync_discards_a_multi_beat_remainder() {
        let mut torn = segment(&[1u8; 320], 32, Meta::default());
        let head = torn.split_front(4);
        let mut r = Reassembler::new();
        assert!(r.push_burst(head).is_none());
        assert!(r.mid_packet());
        assert!(r.resync(), "one partial packet to count as a drop");
        assert!(!r.resync(), "and only one");
        assert_eq!((torn.beats(), torn.sop, torn.eop), (6, false, true));
        assert!(r.push_burst(torn).is_none(), "the tail is hunted past");
        assert!(!r.mid_packet());
        let next = PktBuf::copy_from(&[2u8; 100]);
        let (out, _) = r
            .push_burst(segment_buf(&next, 32, Meta::default()))
            .expect("a whole frame completes in one step");
        assert!(out.same_backing(&next) && out == next);
    }

    /// A frame the reset cut upstream while its `sop` was still queued: the
    /// reassembler takes the `sop` after its resync, the tail never comes,
    /// and the next frame's `sop` restarts it instead of panicking.
    #[test]
    fn reassembler_restarts_the_first_frame_after_resync_on_a_second_sop() {
        let mut r = Reassembler::new();
        assert!(!r.resync());
        let mut cut = segment(&[1u8; 320], 32, Meta::default());
        assert!(r.push_burst(cut.split_front(3)).is_none());
        assert!(r.mid_packet(), "the cut frame looks like any other so far");
        let next = PktBuf::copy_from(&[2u8; 100]);
        let (out, _) = r
            .push_burst(segment_buf(&next, 32, Meta::default()))
            .expect("the next frame is delivered intact");
        assert!(out.same_backing(&next) && out == next);
    }

    /// The tolerance ends with the first frame: a second `sop` inside the
    /// restarted frame, or inside any later one, is a module bug.
    #[test]
    #[should_panic(expected = "sop inside packet")]
    fn reassembler_rejects_a_second_sop_in_steady_state() {
        let mut r = Reassembler::new();
        r.resync();
        let sop = || Word::new(&[1], true, false, Some(Meta::default()));
        r.push(sop());
        r.push(sop()); // restarts the tentative frame
        r.push(sop());
    }

    /// One beat as the per-beat reference model holds it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Beat {
        bytes: Vec<u8>,
        sop: bool,
        eop: bool,
        meta: Option<Meta>,
    }

    fn beats_of(burst: &Burst) -> Vec<Beat> {
        burst
            .clone()
            .map(|w| Beat {
                bytes: w.bytes().to_vec(),
                sop: w.sop,
                eop: w.eop,
                meta: w.meta,
            })
            .collect()
    }

    /// The reference model of one channel: a plain FIFO of beats plus the
    /// counters and wake flags a stream keeps.
    #[derive(Default)]
    struct ModelFifo {
        queue: VecDeque<Beat>,
        capacity: usize,
        pushed_words: u64,
        popped_words: u64,
        pushed_packets: u64,
        rx_woken: bool,
        tx_woken: bool,
    }

    impl ModelFifo {
        fn space(&self) -> usize {
            self.capacity - self.queue.len()
        }

        fn push(&mut self, beat: Beat) {
            assert!(self.space() > 0);
            self.pushed_words += 1;
            self.pushed_packets += u64::from(beat.sop);
            self.queue.push_back(beat);
            self.rx_woken = true;
        }

        fn pop(&mut self) -> Option<Beat> {
            let beat = self.queue.pop_front()?;
            self.popped_words += 1;
            self.tx_woken = true;
            Some(beat)
        }
    }

    /// A real channel with observable wake flags.
    struct Channel {
        tx: StreamTx,
        rx: StreamRx,
        rx_wake: WakeHandle,
        tx_wake: WakeHandle,
    }

    impl Channel {
        fn new(capacity: usize, width: usize) -> Channel {
            let (tx, rx) = Stream::new(capacity, width);
            let (rx_wake, tx_wake) = (WakeHandle::new(), WakeHandle::new());
            rx.set_wake(rx_wake.clone());
            tx.set_wake(tx_wake.clone());
            Channel {
                tx,
                rx,
                rx_wake,
                tx_wake,
            }
        }

        /// Everything observable about the channel matches the model;
        /// clears the wake flags on both for the next operation.
        fn check(&self, model: &mut ModelFifo, what: &str) {
            let s = self.rx.shared.borrow();
            assert_eq!(
                (
                    self.rx.occupancy(),
                    self.tx.space(),
                    self.rx.can_pop(),
                    self.tx.can_push()
                ),
                (
                    model.queue.len(),
                    model.space(),
                    !model.queue.is_empty(),
                    model.space() > 0
                ),
                "{what}: occupancy/space"
            );
            assert_eq!(
                (s.pushed_words, s.popped_words, s.pushed_packets),
                (model.pushed_words, model.popped_words, model.pushed_packets),
                "{what}: counters"
            );
            assert_eq!(
                (self.rx_wake.is_dirty(), self.tx_wake.is_dirty()),
                (model.rx_woken, model.tx_woken),
                "{what}: wakes"
            );
            assert!(s.queue.iter().all(|b| !b.is_empty()), "{what}: empty entry");
            self.rx_wake.clear();
            self.tx_wake.clear();
            model.rx_woken = false;
            model.tx_woken = false;
        }
    }

    proptest! {
        /// segment/reassemble round-trips any packet at any width.
        #[test]
        fn prop_segment_roundtrip(
            pkt in proptest::collection::vec(any::<u8>(), 1..4096),
            width in 1usize..=MAX_BUS_BYTES,
        ) {
            let meta = Meta { len: pkt.len() as u16, ..Default::default() };
            let words: Vec<Word> = segment(&pkt, width, meta).collect();
            prop_assert_eq!(words.len(), pkt.len().div_ceil(width));
            let mut r = Reassembler::new();
            let mut result = None;
            for (i, w) in words.iter().enumerate() {
                prop_assert_eq!(w.sop, i == 0);
                prop_assert_eq!(w.eop, i == words.len() - 1);
                if let Some(done) = r.push(w.clone()) {
                    prop_assert_eq!(i, words.len() - 1);
                    result = Some(done);
                }
            }
            let (out, _) = result.expect("packet completed");
            prop_assert_eq!(out, pkt);
        }

        /// FIFO order is preserved through a stream.
        #[test]
        fn prop_fifo_order(data in proptest::collection::vec(any::<u8>(), 1..64)) {
            let (tx, rx) = Stream::new(64, 1);
            for &b in &data {
                tx.push(Word::new(&[b], true, true, None));
            }
            let mut out = Vec::new();
            while let Some(w) = rx.pop() {
                out.push(w.bytes()[0]);
            }
            prop_assert_eq!(out, data);
        }
        /// Random interleavings of every stream operation over a two-hop
        /// chain A → B agree, after every step, with a per-beat `VecDeque`
        /// model: the beats popped (bytes, `sop`, `eop`, `meta`),
        /// occupancy, space, the cumulative counters and which wakes
        /// fired. How beats are grouped into queue entries never shows.
        #[test]
        fn prop_bursts_match_the_per_beat_model(
            cap_a in 1usize..=12,
            cap_b in 1usize..=12,
            ops in proptest::collection::vec((0u8..9, 0usize..=14, 1usize..=40), 1..200),
        ) {
            const WIDTH: usize = 4;
            let a = Channel::new(cap_a, WIDTH);
            let b = Channel::new(cap_b, WIDTH);
            let mut model_a = ModelFifo { capacity: cap_a, ..ModelFifo::default() };
            let mut model_b = ModelFifo { capacity: cap_b, ..ModelFifo::default() };
            a.check(&mut ModelFifo { capacity: cap_a, rx_woken: true, tx_woken: true, ..ModelFifo::default() }, "born dirty");
            b.check(&mut ModelFifo { capacity: cap_b, rx_woken: true, tx_woken: true, ..ModelFifo::default() }, "born dirty");
            // The producer's cursor, and the same beats for the model.
            let mut slot: Option<Burst> = None;
            let mut staged: VecDeque<Beat> = VecDeque::new();
            let mut popped = Vec::new();
            let mut model_popped = Vec::new();
            for (step, &(op, arg, len)) in ops.iter().enumerate() {
                if slot.is_none() {
                    let bytes: Vec<u8> = (0..len).map(|i| (step + i) as u8).collect();
                    let meta = Meta { len: len as u16, src_port: step as u8, ..Meta::default() };
                    let last = len.div_ceil(WIDTH) - 1;
                    staged = bytes
                        .chunks(WIDTH)
                        .enumerate()
                        .map(|(i, chunk)| Beat {
                            bytes: chunk.to_vec(),
                            sop: i == 0,
                            eop: i == last,
                            meta: (i == 0).then_some(meta),
                        })
                        .collect();
                    slot = Some(segment(&bytes, WIDTH, meta));
                }
                // A beat-granular move A → B of up to `max` beats, optionally
                // stopping after an `eop`; returns the beats moved.
                let mut model_transfer = |max: usize, stop_at_eop: bool| {
                    let mut moved = Vec::new();
                    while moved.len() < max && model_b.space() > 0 {
                        let Some(beat) = model_a.pop() else { break };
                        model_b.push(beat.clone());
                        let stop = stop_at_eop && beat.eop;
                        moved.push(beat);
                        if stop {
                            break;
                        }
                    }
                    moved
                };
                match op {
                    0 => {
                        if a.tx.can_push() {
                            a.tx.push(Burst::take_front(&mut slot, 1).into_word());
                            model_a.push(staged.pop_front().expect("staged"));
                        }
                    }
                    1 | 2 => {
                        let max = if op == 1 { arg } else { usize::MAX };
                        let n = a.tx.push_burst(&mut slot, max);
                        prop_assert_eq!(n, max.min(staged.len()).min(model_a.space()));
                        for beat in staged.drain(..n) {
                            model_a.push(beat);
                        }
                    }
                    3 => {
                        let peeked = peek(&b.rx);
                        let word = b.rx.pop();
                        prop_assert_eq!(&peeked, &word);
                        popped.extend(word.map(|w| beats_of(&w.into())).unwrap_or_default());
                        model_popped.extend(model_b.pop());
                    }
                    4 => {
                        // How many beats the head entry holds is the one
                        // thing the model cannot know; what they are, it can.
                        let burst = b.rx.pop_burst(arg);
                        let n = burst.as_ref().map_or(0, Burst::beats);
                        prop_assert!(n <= arg);
                        prop_assert_eq!(n == 0, arg == 0 || model_b.queue.is_empty());
                        popped.extend(burst.iter().flat_map(beats_of));
                        model_popped.extend((0..n).filter_map(|_| model_b.pop()));
                    }
                    5 => {
                        let moved = model_transfer(arg, false);
                        prop_assert_eq!(transfer_up_to(&a.rx, &b.tx, arg), moved.len());
                    }
                    6 => {
                        let moved = model_transfer(usize::MAX, true);
                        let completed = moved.last().is_some_and(|beat| beat.eop);
                        prop_assert_eq!(transfer_packet(&a.rx, &b.tx), (moved.len(), completed));
                    }
                    7 => {
                        let moved = model_transfer(arg, false);
                        let mut seen = Vec::new();
                        let n = transfer_inspect(&a.rx, &b.tx, arg, |burst| seen.extend(beats_of(burst)));
                        prop_assert_eq!(n, moved.len());
                        prop_assert_eq!(seen, moved);
                    }
                    _ => {
                        // A word-level forwarder between the two hops.
                        if b.tx.can_push() {
                            if let Some(word) = a.rx.pop() {
                                b.tx.push(word);
                                let beat = model_a.pop().expect("model agrees");
                                model_b.push(beat);
                            }
                        }
                    }
                }
                prop_assert_eq!(&popped, &model_popped, "step {}", step);
                a.check(&mut model_a, &format!("step {step} op {op} A"));
                b.check(&mut model_b, &format!("step {step} op {op} B"));
            }
            // Drain both hops: nothing was lost, reordered or relabelled.
            loop {
                while let Some(word) = b.rx.pop() {
                    popped.extend(beats_of(&word.into()));
                }
                if transfer_up_to(&a.rx, &b.tx, usize::MAX) == 0 {
                    break;
                }
            }
            model_popped.extend(model_b.queue.drain(..));
            model_popped.extend(model_a.queue.drain(..));
            prop_assert_eq!(popped, model_popped);
        }
    }

    // ---- beat-timed bursts: the executable specification ----

    const T: Time = Time::from_ps(5_000);

    fn edge(cycle: u64) -> Time {
        Time::from_ps((cycle + 1) * T.as_ps())
    }

    fn ctx(cycle: u64) -> TickContext {
        TickContext {
            now: edge(cycle),
            cycle,
            period: T,
        }
    }

    /// Free space in words as the producer sees it when it ticks at `now`,
    /// before its own push of that edge.
    fn space_at(tx: &StreamTx, now: Time) -> usize {
        let s = tx.shared.borrow();
        let unpushed = s.arriving.map_or(0, |a| a.beats - a.done(now, false));
        s.capacity - (s.beats + s.unpopped(now) - unpushed)
    }

    /// Committed beats whose push the consumer, ticking at `now`, cannot
    /// see yet.
    fn unarrived(s: &Shared, now: Time) -> usize {
        s.arriving.map_or(0, |a| a.beats - a.done(now, !s.rx_first))
    }

    /// Occupancy in words as the consumer sees it when it ticks at `now`,
    /// before its own pop of that edge.
    fn occupancy_at(rx: &StreamRx, now: Time) -> usize {
        let s = rx.shared.borrow();
        let unpopped = s.draining.map_or(0, |d| d.beats - d.done(now, false));
        s.beats + unpopped - unarrived(&s, now)
    }

    /// Total words pushed by the time the consumer ticks at `now`.
    fn total_pushed_at(rx: &StreamRx, now: Time) -> u64 {
        let s = rx.shared.borrow();
        s.pushed_words - unarrived(&s, now) as u64
    }

    /// Beats a claim made at `now` takes, from the edge its last is popped.
    fn claimed_beats(done_at: Time, now: Time) -> usize {
        ((done_at - now).as_ps() / T.as_ps()) as usize + 1
    }

    /// A wake handle stamped as slot `slot` of domain `domain` of the
    /// simulator whose clock is `clock`.
    fn stamped(clock: &Rc<Cell<Time>>, domain: usize, slot: usize) -> WakeHandle {
        let wake = WakeHandle::new();
        let woken = Rc::new(Cell::new(0));
        wake.set_stamp(crate::sim::Stamp::new(clock.clone(), domain, slot, woken));
        wake
    }

    /// A paced channel between two modules of one clock domain; the
    /// consumer ticks first at a shared edge when `rx_first`.
    fn paced_channel(capacity: usize, rx_first: bool) -> (Channel, Rc<Cell<Time>>) {
        let clock = Rc::new(Cell::new(Time::ZERO));
        let (tx, rx) = Stream::new(capacity, 4);
        let tx_wake = stamped(&clock, 0, if rx_first { 7 } else { 2 });
        let rx_wake = stamped(&clock, 0, 5);
        tx.pace(tx_wake.clone(), true);
        rx.pace(rx_wake.clone(), true);
        let channel = Channel {
            tx,
            rx,
            rx_wake,
            tx_wake,
        };
        (channel, clock)
    }

    /// What the workload of the specification fixes: packets (beats each)
    /// with the cycle before which the producer may not start each, and how
    /// many cycles the consumer idles before starting on each.
    struct Script {
        packets: Vec<(usize, u64)>,
        holds: Vec<u64>,
    }

    /// Everything the per-beat FIFO exposes, cycle by cycle.
    #[derive(Debug, Default, PartialEq)]
    struct Timeline {
        /// Cycle each beat was pushed / popped, in stream order.
        pushed: Vec<u64>,
        popped: Vec<u64>,
        /// Per cycle: free space as the producer's tick finds it, occupancy
        /// and words-pushed-so-far as the consumer's tick finds them.
        space: Vec<usize>,
        occupancy: Vec<usize>,
        total_pushed: Vec<u64>,
    }

    /// The reference: a `VecDeque` stepped one beat per side per cycle. The
    /// producer pushes the next beat of the packet it is on whenever there
    /// is space; the consumer pops whenever a beat is there, except that it
    /// starts a packet no earlier than its hold after finishing the last.
    fn per_beat_reference(
        script: &Script,
        capacity: usize,
        rx_first: bool,
        cycles: u64,
    ) -> Timeline {
        let mut out = Timeline::default();
        let mut fifo: VecDeque<(usize, usize)> = VecDeque::new();
        let (mut packet, mut beat) = (0, 0);
        let mut start_at = script.holds[0];
        for cycle in 0..cycles {
            let mut produce = |fifo: &mut VecDeque<(usize, usize)>, out: &mut Timeline| {
                out.space.push(capacity - fifo.len());
                let Some(&(beats, release)) = script.packets.get(packet) else {
                    return;
                };
                if cycle >= release && fifo.len() < capacity {
                    fifo.push_back((packet, beat));
                    out.pushed.push(cycle);
                    beat += 1;
                    if beat == beats {
                        (packet, beat) = (packet + 1, 0);
                    }
                }
            };
            let mut consume = |fifo: &mut VecDeque<(usize, usize)>, out: &mut Timeline| {
                out.occupancy.push(fifo.len());
                out.total_pushed.push(out.pushed.len() as u64);
                let Some(&(p, b)) = fifo.front() else { return };
                if b == 0 && cycle < start_at {
                    return;
                }
                fifo.pop_front();
                out.popped.push(cycle);
                if b + 1 == script.packets[p].0 {
                    start_at = cycle + 1 + script.holds.get(p + 1).copied().unwrap_or(0);
                }
            };
            if rx_first {
                consume(&mut fifo, &mut out);
                produce(&mut fifo, &mut out);
            } else {
                produce(&mut fifo, &mut out);
                consume(&mut fifo, &mut out);
            }
        }
        out
    }

    /// The same producer and consumer as modules of the event-driven
    /// kernel: each is re-classified when a wake fired and after it ticks,
    /// ticks only once its time bound has come (never while quiescent), and
    /// moves beats through `commit` / `claim` / `collect`.
    fn charged_run(script: &Script, capacity: usize, rx_first: bool, cycles: u64) -> Timeline {
        let (ch, _clock) = paced_channel(capacity, rx_first);
        let mut out = Timeline::default();
        // Producer state.
        let mut cursor: Option<Burst> = None;
        let mut free_at = Time::ZERO;
        let mut packet = 0;
        // Consumer state.
        let mut claimed: Option<Time> = None;
        let mut mid_packet = false;
        let mut start_at = edge(script.holds[0]).saturating_sub(T);
        let mut consumed = 0;
        // `None`: quiescent. `Some(t)`: inert before `t`.
        let mut tx_bound = Some(Time::ZERO);
        let mut rx_bound = Some(Time::ZERO);
        for cycle in 0..cycles {
            let c = ctx(cycle);
            let mut produce = |out: &mut Timeline| {
                out.space.push(space_at(&ch.tx, c.now));
                let classify_tx = |cursor: &Option<Burst>, free_at: Time, packet: usize| match (
                    cursor,
                    script.packets.get(packet),
                ) {
                    (Some(_), _) => ch.tx.ready_at().map(|t| t.max(free_at)),
                    (None, Some(&(_, release))) => Some(free_at.max(edge(release))),
                    (None, None) => None,
                };
                if ch.tx_wake.is_dirty() {
                    ch.tx_wake.clear();
                    tx_bound = classify_tx(&cursor, free_at, packet);
                }
                if tx_bound.is_some_and(|t| t <= c.now) {
                    if c.now >= free_at {
                        if cursor.is_none() {
                            if let Some(&(beats, release)) = script.packets.get(packet) {
                                if cycle >= release {
                                    let meta = Meta {
                                        src_port: packet as u8,
                                        ..Meta::default()
                                    };
                                    cursor = Some(segment(&vec![packet as u8; beats * 4], 4, meta));
                                    packet += 1;
                                }
                            }
                        }
                        let before = cursor.as_ref().map_or(0, Burst::beats);
                        if let Some(t) = ch.tx.commit(&mut cursor, &c) {
                            free_at = t;
                            let sent = before - cursor.as_ref().map_or(0, Burst::beats);
                            out.pushed.extend((0..sent as u64).map(|i| cycle + i));
                        }
                    }
                    ch.tx_wake.clear();
                    tx_bound = classify_tx(&cursor, free_at, packet);
                }
            };
            let mut consume = |out: &mut Timeline| {
                out.occupancy.push(occupancy_at(&ch.rx, c.now));
                out.total_pushed.push(total_pushed_at(&ch.rx, c.now));
                let classify_rx =
                    |claimed: Option<Time>, mid_packet: bool, start_at: Time| match claimed {
                        Some(t) => Some(t),
                        None if !ch.rx.can_pop() => None,
                        None if mid_packet => Some(Time::ZERO),
                        None => Some(start_at + Time::from_ps(1)),
                    };
                if ch.rx_wake.is_dirty() {
                    ch.rx_wake.clear();
                    rx_bound = classify_rx(claimed, mid_packet, start_at);
                }
                if rx_bound.is_some_and(|t| t <= c.now) {
                    if claimed.is_none() && (mid_packet || c.now > start_at) {
                        if let Some(done_at) = ch.rx.claim(usize::MAX, &c) {
                            let beats = claimed_beats(done_at, c.now) as u64;
                            out.popped.extend((0..beats).map(|i| cycle + i));
                            claimed = Some(done_at);
                        }
                    }
                    if claimed.is_some_and(|t| t <= c.now) {
                        claimed = None;
                        let burst = ch.rx.collect().expect("claimed beats");
                        assert_eq!(burst.sop, !mid_packet);
                        assert!(burst.bytes().iter().all(|&b| b == consumed as u8));
                        mid_packet = !burst.eop;
                        if burst.eop {
                            consumed += 1;
                            let hold = script.holds.get(consumed).copied().unwrap_or(0);
                            start_at = c.now + Time::from_ps(hold * T.as_ps());
                        }
                    }
                    ch.rx_wake.clear();
                    rx_bound = classify_rx(claimed, mid_packet, start_at);
                }
            };
            if rx_first {
                consume(&mut out);
                produce(&mut out);
            } else {
                produce(&mut out);
                consume(&mut out);
            }
        }
        assert!(cursor.is_none() && claimed.is_none(), "the run drained");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 600, ..ProptestConfig::default() })]

        /// The executable specification of a charged channel: a producer
        /// and a consumer that tick only on a wake or an expired bound and
        /// move whole bursts by `commit` / `claim` push and pop every beat
        /// on the cycle the per-beat FIFO does — and `space_at`,
        /// `occupancy_at` and `total_pushed_at` read, at every cycle and
        /// from either rank, what that FIFO holds. Covers partial commits
        /// (shallow FIFOs), a consumer that stalls at packet boundaries,
        /// both tick orders, and wakes and `ready_at` bounds doing all the
        /// scheduling.
        #[test]
        fn prop_charged_stream_matches_the_per_beat_fifo(
            capacity in 1usize..=10,
            rx_first in any::<bool>(),
            packets in proptest::collection::vec((1usize..=24, 0u64..12, 0u64..30), 1..14),
        ) {
            let mut release = 0;
            let script = Script {
                packets: packets.iter().map(|&(beats, gap, _)| { release += gap; (beats, release) }).collect(),
                holds: packets.iter().map(|&(_, _, hold)| hold.saturating_sub(18)).collect(),
            };
            let beats: u64 = script.packets.iter().map(|p| p.0 as u64).sum();
            let cycles = 2 * beats + release + 12 * packets.len() as u64 + 10;
            let reference = per_beat_reference(&script, capacity, rx_first, cycles);
            prop_assert_eq!(reference.popped.len() as u64, beats, "the reference drained");
            let charged = charged_run(&script, capacity, rx_first, cycles);
            prop_assert_eq!(&charged.pushed, &reference.pushed, "push cycles");
            prop_assert_eq!(&charged.popped, &reference.popped, "pop cycles");
            prop_assert_eq!(&charged.space, &reference.space, "space at the producer's rank");
            prop_assert_eq!(&charged.occupancy, &reference.occupancy, "occupancy at the consumer's rank");
            prop_assert_eq!(&charged.total_pushed, &reference.total_pushed, "words pushed");
        }
    }

    /// When the proof is missing the operations degrade to one beat: a peer
    /// that did not opt in, two clock domains, a third handle on the
    /// channel, a module no simulator registered.
    #[test]
    fn charge_degrades_to_one_beat_without_the_proof() {
        let clock = Rc::new(Cell::new(Time::ZERO));
        let burst = || Some(segment(&[7u8; 40], 4, Meta::default()));
        let one_beat = |tx: &StreamTx, rx: &StreamRx, why: &str| {
            let mut slot = burst();
            assert_eq!(tx.commit(&mut slot, &ctx(0)), Some(edge(1)), "{why}");
            assert_eq!(slot.as_ref().map(Burst::beats), Some(9), "{why}");
            tx.push_burst(&mut slot, 4);
            let done_at = rx.claim(usize::MAX, &ctx(3)).expect("beats queued");
            assert_eq!(done_at, edge(3), "{why}");
            assert_eq!(rx.collect().map(|b| b.beats()), Some(1), "{why}");
        };
        // The consumer registered a plain wake.
        let (tx, rx) = Stream::new(16, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.set_wake(stamped(&clock, 0, 2));
        one_beat(&tx, &rx, "consumer not paced");
        // The producer did.
        let (tx, rx) = Stream::new(16, 4);
        tx.set_wake(stamped(&clock, 0, 1));
        rx.pace(stamped(&clock, 0, 2), true);
        one_beat(&tx, &rx, "producer not paced");
        // Two clock domains; two simulators.
        let (tx, rx) = Stream::new(16, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.pace(stamped(&clock, 1, 2), true);
        one_beat(&tx, &rx, "two domains");
        let (tx, rx) = Stream::new(16, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.pace(stamped(&Rc::new(Cell::new(Time::ZERO)), 0, 2), true);
        one_beat(&tx, &rx, "two simulators");
        // A module never handed to a simulator.
        let (tx, rx) = Stream::new(16, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.pace(WakeHandle::new(), true);
        one_beat(&tx, &rx, "unregistered consumer");
        // Somebody else holds a handle and could look at any time.
        let (tx, rx) = Stream::new(16, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.pace(stamped(&clock, 0, 2), true);
        let observer = rx.clone();
        one_beat(&tx, &rx, "observed channel");
        drop(observer);
        // With it gone the same channel is charged: ten beats at once.
        let mut slot = burst();
        assert_eq!(tx.commit(&mut slot, &ctx(10)), Some(edge(20)));
        assert!(slot.is_none());
        // Zero space: nothing goes, and only a claim can change that.
        let (tx, rx) = Stream::new(4, 4);
        tx.pace(stamped(&clock, 0, 1), true);
        rx.pace(stamped(&clock, 0, 2), true);
        let mut slot = burst();
        assert_eq!(tx.commit(&mut slot, &ctx(0)), Some(edge(4)));
        assert_eq!(tx.commit(&mut slot, &ctx(4)), None);
        assert_eq!(
            (tx.ready_at(), slot.as_ref().map(Burst::beats)),
            (None, Some(6))
        );
        let done_at = rx.claim(usize::MAX, &ctx(6)).expect("four beats");
        assert_eq!(done_at, edge(9), "four beats");
        // The pop at cycle 6 is visible to the producer at cycle 7.
        assert_eq!(tx.ready_at(), Some(edge(7)));
        assert_eq!(
            tx.commit(&mut slot, &ctx(7)),
            Some(edge(11)),
            "rides the pops"
        );
    }

    /// A reset mid-charge settles the channel to the per-beat state of that
    /// instant: unarrived beats back on the cursor, arrived ones queued,
    /// popped ones with the consumer.
    #[test]
    fn settle_restores_the_per_beat_state() {
        let (ch, clock) = paced_channel(16, false);
        let packet: Vec<u8> = (0..40).collect();
        let mut slot = Some(segment(&packet, 4, Meta::default()));
        assert_eq!(ch.tx.commit(&mut slot, &ctx(0)), Some(edge(10)));
        let done_at = ch.rx.claim(usize::MAX, &ctx(2)).expect("ten beats");
        assert_eq!(done_at, edge(11), "ten beats");
        // Edge 5 is done: beats 0..=5 pushed, 0..=3 popped.
        clock.set(edge(5));
        let popped = ch.rx.settle().expect("four beats popped");
        assert_eq!(popped.bytes(), &packet[..16]);
        assert!(popped.sop && !popped.eop);
        ch.tx.settle(&mut slot);
        let unsent = slot.expect("four beats never left");
        assert_eq!(unsent.bytes(), &packet[24..]);
        assert!(!unsent.sop && unsent.eop);
        assert_eq!((ch.rx.occupancy(), ch.rx.total_pushed()), (2, 6));
        assert_eq!(ch.rx.pop().expect("beat 4").bytes(), &packet[16..20]);
        assert_eq!(ch.rx.pop().expect("beat 5").bytes(), &packet[20..24]);
        assert!(ch.rx.pop().is_none());
        assert!(ch.rx.settle().is_none(), "settling twice changes nothing");
    }

    // ---- packet ports ----

    /// Ports on a 64-byte bus with `n` 60-byte frames, one beat each,
    /// queued between them.
    fn one_beat_frames(n: usize) -> (PacketTx, PacketRx) {
        let clock = Rc::new(Cell::new(Time::ZERO));
        let (tx, rx) = Stream::new(n, 64);
        let mut tx = PacketTx::new(tx, &stamped(&clock, 0, 2));
        tx.set_burst(true);
        for i in 0..n {
            assert!(tx.emit(&ctx(0)));
            tx.stage(PktBuf::from_vec(vec![i as u8; 60]), Meta::default());
        }
        assert!(tx.emit(&ctx(0)), "every frame fits");
        tx.set_burst(false);
        (tx, PacketRx::new(rx, &stamped(&clock, 0, 5)))
    }

    /// Every packet of `rx` this edge completes, by its first byte.
    fn drain(rx: &mut PacketRx, cycle: u64) -> Vec<u8> {
        std::iter::from_fn(|| rx.poll(true, &ctx(cycle)))
            .map(|(packet, _)| packet[0])
            .collect()
    }

    /// One word per cycle is one packet per cycle when a packet is one
    /// word: a claim that is done at its own edge must not be followed by
    /// a second claim within it, however often the owner polls.
    #[test]
    fn paced_rx_collects_one_single_beat_packet_per_edge() {
        let (_tx, mut rx) = one_beat_frames(4);
        for cycle in 0..4 {
            assert_eq!(rx.activity(true), Activity::Active);
            assert_eq!(drain(&mut rx, cycle), [cycle as u8]);
        }
        assert_eq!(rx.activity(true), Activity::Quiescent);
        assert!(drain(&mut rx, 4).is_empty());
    }

    /// Collapsed pacing takes everything queued in one tick — unless the
    /// owner is unwilling, which takes nothing.
    #[test]
    fn collapsed_rx_yields_every_queued_packet_in_one_tick() {
        let (_tx, mut rx) = one_beat_frames(4);
        rx.set_burst(true);
        assert!(rx.poll(false, &ctx(0)).is_none());
        assert_eq!(rx.activity(false), Activity::Quiescent);
        assert_eq!(drain(&mut rx, 0), [0, 1, 2, 3]);
        assert_eq!(rx.activity(true), Activity::Quiescent);
    }

    /// What a [`PassThrough`] policy was shown: the bytes of every burst
    /// inspected, in order, and the `eop` of every burst that passed.
    #[derive(Default)]
    struct Watch {
        shown: Vec<Vec<u8>>,
        passed: Vec<bool>,
    }

    impl PassThrough for Watch {
        fn inspect(&mut self, burst: &Burst) {
            self.shown.push(burst.bytes().to_vec());
        }

        fn passed(&mut self, _input: usize, eop: bool) {
            self.passed.push(eop);
        }
    }

    /// A packet source, a cut-through port and a packet sink of one clock
    /// domain, ticking in that order: in both pacings every packet arrives,
    /// and every beat is shown to the policy exactly once, in stream order —
    /// the 40-beat packet, cut short by the 3-deep output, as the parts
    /// that pass.
    #[test]
    fn cut_through_shows_every_beat_once_in_both_pacings() {
        let packets: Vec<Vec<u8>> = [160usize, 3, 27]
            .iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|b| (i * 64 + b) as u8).collect())
            .collect();
        for burst in [false, true] {
            let clock = Rc::new(Cell::new(Time::ZERO));
            let (a_tx, a_rx) = Stream::new(16, 4);
            let (b_tx, b_rx) = Stream::new(3, 4);
            let mut source = PacketTx::new(a_tx, &stamped(&clock, 0, 1));
            let mut port = CutThrough::new(vec![a_rx], b_tx, &stamped(&clock, 0, 2));
            let mut sink = PacketRx::new(b_rx, &stamped(&clock, 0, 3));
            source.set_burst(burst);
            port.set_burst(burst);
            sink.set_burst(burst);
            let (mut queued, mut watch, mut delivered) = (packets.iter(), Watch::default(), vec![]);
            for cycle in 0..200 {
                let c = ctx(cycle);
                while source.emit(&c) {
                    let Some(packet) = queued.next() else { break };
                    source.stage(PktBuf::copy_from(packet), Meta::default());
                }
                port.tick(&c, &mut watch);
                delivered.extend(std::iter::from_fn(|| sink.poll(true, &c)).map(|p| p.0.to_vec()));
            }
            assert_eq!(delivered, packets, "burst={burst}");
            assert_eq!(watch.shown.concat(), packets.concat(), "burst={burst}");
            assert!(watch.shown.len() > 3, "burst={burst}: cut short");
            assert_eq!(watch.passed.iter().filter(|&&eop| eop).count(), 3);
        }
    }

    /// A soft reset while a burst passes puts exactly the beats not yet
    /// passed back at the head of the input; the output keeps exactly those
    /// that reached it.
    #[test]
    fn cut_through_soft_reset_puts_the_unpassed_beats_back() {
        let clock = Rc::new(Cell::new(Time::ZERO));
        let (a_tx, a_rx) = Stream::new(16, 4);
        let (b_tx, b_rx) = Stream::new(16, 4);
        a_tx.pace(stamped(&clock, 0, 1), true);
        b_rx.pace(stamped(&clock, 0, 3), true);
        let packet: Vec<u8> = (0..40).collect();
        a_tx.push_burst(&mut Some(segment(&packet, 4, Meta::default())), 10);
        let mut port = CutThrough::new(vec![a_rx], b_tx, &stamped(&clock, 0, 2));
        let mut watch = Watch::default();
        port.tick(&ctx(0), &mut watch);
        assert_eq!(
            port.activity(&watch),
            Activity::Bounded(edge(9)),
            "ten beats"
        );
        // Edge 3 is done: beats 0..=3 have passed.
        clock.set(edge(3));
        port.soft_reset();
        let bytes = |bursts: &mut dyn Iterator<Item = Burst>| -> Vec<u8> {
            bursts.flat_map(|b| b.bytes().to_vec()).collect()
        };
        let back = bytes(&mut a_tx.shared.borrow().queue.iter().cloned());
        assert_eq!(back, &packet[16..]);
        assert_eq!(
            bytes(&mut std::iter::from_fn(|| b_rx.pop_burst(16))),
            &packet[..16]
        );
        assert!(watch.passed.is_empty(), "the burst never finished passing");
        assert_eq!(port.activity(&watch), Activity::Active, "the rest is there");
    }
}
