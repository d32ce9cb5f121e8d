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
//! * the one-beat operations ([`StreamTx::push`], [`StreamRx::pop`],
//!   [`StreamRx::peek`]) work on any queue — a word-per-cycle consumer
//!   behind a burst producer splits the head burst a beat at a time;
//! * the bulk operations ([`StreamTx::push_burst`], [`StreamRx::pop_burst`],
//!   the `transfer_*` family) move whole bursts and split one only where a
//!   per-word loop would have stopped inside it: at a capacity limit or at
//!   the caller's `max`. No burst spans two packets, so stopping at `eop`
//!   never splits. A 48-beat frame crossing a hop is one entry move, one
//!   counter add, one wake and one join in the [`Reassembler`].
//!
//! Only these stream operations split a burst, into views of the same
//! buffer; nothing ever merges two, because a [`Reassembler`] joins
//! adjacent views for free.

use crate::pktbuf::PktBuf;
use crate::sim::WakeHandle;
use crate::time::Time;
use std::cell::RefCell;
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

    /// The first beat as a word, without consuming it.
    fn first_word(&self) -> Word {
        let last = self.beats == 1;
        Word {
            buf: if last {
                self.buf.clone()
            } else {
                self.buf.slice(0, self.width())
            },
            sop: self.sop,
            eop: self.eop && last,
            meta: self.meta,
        }
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

#[derive(Debug)]
struct Shared {
    /// Queued bursts, oldest first; no burst spans two packets.
    queue: VecDeque<Burst>,
    /// Occupancy in beats: what `capacity` bounds.
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
}

impl Shared {
    /// Words arrived — invalidate the consumer's cached activity bound.
    #[inline]
    fn wake_rx(&self) {
        if let Some(w) = &self.rx_wake {
            w.wake();
        }
    }

    /// Space freed — invalidate the producer's cached activity bound.
    #[inline]
    fn wake_tx(&self) {
        if let Some(w) = &self.tx_wake {
            w.wake();
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
            beats: 0,
            capacity,
            width,
            pushed_words: 0,
            popped_words: 0,
            pushed_packets: 0,
            rx_wake: None,
            tx_wake: None,
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

    /// The configured capacity in words.
    pub fn capacity(&self) -> usize {
        self.shared.borrow().capacity
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
    pub fn set_wake(&self, wake: WakeHandle) {
        self.shared.borrow_mut().tx_wake = Some(wake);
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

    /// Look at the head word without consuming it.
    pub fn peek(&self) -> Option<Word> {
        self.shared.borrow().queue.front().map(Burst::first_word)
    }

    /// Consume the head word.
    #[inline]
    pub fn pop(&self) -> Option<Word> {
        self.pop_burst(1).map(Burst::into_word)
    }

    /// Register the consumer module's activity-invalidation flag: it is
    /// woken whenever a push or transfer delivers words into this channel.
    pub fn set_wake(&self, wake: WakeHandle) {
        self.shared.borrow_mut().rx_wake = Some(wake);
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

    /// Move up to `max` beats from this stream directly into `tx`, bounded
    /// by both occupancy and downstream space. Returns the number moved.
    /// The degenerate self-transfer (both handles on the same channel) is a
    /// no-op, matching what a per-word pop/push loop would observe.
    pub fn transfer_up_to(&self, tx: &StreamTx, max: usize) -> usize {
        self.transfer(tx, max, |_| false)
    }

    /// Move the beats of at most one packet from this stream into `tx`:
    /// stops after the beat carrying `eop`, or earlier when data or space
    /// runs out. Returns `(beats_moved, packet_completed)` — the fast path
    /// for packet-granular forwarders (arbiters) that must observe packet
    /// boundaries. Self-transfer is a no-op.
    pub fn transfer_packet(&self, tx: &StreamTx) -> (usize, bool) {
        let mut completed = false;
        let moved = self.transfer(tx, usize::MAX, |burst| {
            completed = burst.eop;
            completed
        });
        (moved, completed)
    }

    /// Like [`StreamRx::transfer_up_to`], but calls `inspect` on every
    /// burst as it moves — the fast path for pass-through stages that only
    /// read packets in flight (statistics, taps). A burst cut short by
    /// `max` or by downstream space is inspected as the part that moved,
    /// so every beat is seen exactly once. Returns the number moved.
    pub fn transfer_inspect(
        &self,
        tx: &StreamTx,
        max: usize,
        mut inspect: impl FnMut(&Burst),
    ) -> usize {
        self.transfer(tx, max, |burst| {
            inspect(burst);
            false
        })
    }

    /// The one mover behind the `transfer_*` family: whole bursts from the
    /// head of this stream to the tail of `tx`, splitting only the burst
    /// the beat budget ends inside. `each` sees every burst moved and
    /// returns true to stop after it. One borrow pair, one counter update
    /// per burst and one wake per side for the whole run.
    fn transfer(&self, tx: &StreamTx, max: usize, mut each: impl FnMut(&Burst) -> bool) -> usize {
        if Rc::ptr_eq(&self.shared, &tx.shared) {
            return 0;
        }
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
    /// bursts before the next `sop` are silently discarded instead.
    pub fn push_burst(&mut self, burst: Burst) -> Option<(PktBuf, Meta)> {
        if self.hunting {
            if !burst.sop {
                return None;
            }
            self.hunting = false;
        }
        if burst.sop {
            assert!(!self.in_packet, "sop inside packet");
            self.in_packet = true;
            self.meta = burst.meta;
            self.acc = Accum::View(burst.buf);
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
            let peeked = rx.peek().expect("beat queued");
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
        assert!(rx.peek().is_none() && rx.pop().is_none());
    }

    #[test]
    fn transfer_up_to_moves_words_and_counters() {
        let (tx_a, rx_a) = Stream::new(8, 8);
        let (tx_b, rx_b) = Stream::new(2, 8);
        for i in 0..5u8 {
            tx_a.push(Word::new(&[i], i == 0, i == 4, None));
        }
        // Destination space (2) binds first.
        assert_eq!(rx_a.transfer_up_to(&tx_b, 4), 2);
        assert_eq!(rx_a.occupancy(), 3);
        assert_eq!(rx_b.occupancy(), 2);
        assert_eq!(rx_b.total_pushed(), 2);
        assert_eq!(rx_b.total_packets(), 1);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[0]);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[1]);
        // Then the cap, then the source occupancy.
        assert_eq!(rx_a.transfer_up_to(&tx_b, 1), 1);
        assert_eq!(rx_b.pop().unwrap().bytes(), &[2]);
        assert_eq!(rx_a.transfer_up_to(&tx_b, 10), 2);
        assert_eq!(rx_a.occupancy(), 0);
        // Self-transfer is a no-op, not a RefCell panic.
        assert_eq!(rx_b.transfer_up_to(&tx_b, 10), 0);
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
            assert_eq!(rx_a.transfer_packet(&tx_b), (8, round == 5));
            assert_eq!((rx_a.occupancy(), rx_b.occupancy()), (0, 8));
            assert_eq!(rx_a.transfer_packet(&tx_b), (0, false), "B is full");
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
        assert_eq!(rx_a.transfer_packet(&tx_b), (4, true));
        assert_eq!((rx_a.occupancy(), rx_b.total_packets()), (4, 1));
        let mut seen = Vec::new();
        let mut inspect = |b: &Burst| seen.push((beat_bytes(b).concat(), b.sop, b.eop));
        assert_eq!(rx_a.transfer_inspect(&tx_b, 3, &mut inspect), 3);
        assert_eq!(rx_a.transfer_inspect(&tx_b, 3, &mut inspect), 1);
        assert_eq!(seen, [(vec![4, 5, 6], true, false), (vec![7], false, true)]);
        assert_eq!((rx_b.occupancy(), rx_b.total_packets()), (8, 2));
        // Self-transfer is a no-op, not a RefCell panic.
        assert_eq!(rx_b.transfer_packet(&tx_b), (0, false));
        assert_eq!(rx_b.transfer_inspect(&tx_b, 10, |_| unreachable!()), 0);
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
                        let peeked = b.rx.peek();
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
                        prop_assert_eq!(a.rx.transfer_up_to(&b.tx, arg), moved.len());
                    }
                    6 => {
                        let moved = model_transfer(usize::MAX, true);
                        let completed = moved.last().is_some_and(|beat| beat.eop);
                        prop_assert_eq!(a.rx.transfer_packet(&b.tx), (moved.len(), completed));
                    }
                    7 => {
                        let moved = model_transfer(arg, false);
                        let mut seen = Vec::new();
                        let n = a.rx.transfer_inspect(&b.tx, arg, |burst| seen.extend(beats_of(burst)));
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
                if a.rx.transfer_up_to(&b.tx, usize::MAX) == 0 {
                    break;
                }
            }
            model_popped.extend(model_b.queue.drain(..));
            model_popped.extend(model_a.queue.drain(..));
            prop_assert_eq!(popped, model_popped);
        }
    }
}
