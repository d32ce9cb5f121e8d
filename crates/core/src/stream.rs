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

#[derive(Debug)]
struct Shared {
    queue: VecDeque<Word>,
    capacity: usize,
    width: usize,
    /// Cumulative counters for occupancy statistics.
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
}

/// A stream channel; create with [`Stream::new`], then split into handles.
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

/// Producer handle: the `tready`-checking side.
#[derive(Debug, Clone)]
pub struct StreamTx {
    shared: Rc<RefCell<Shared>>,
}

impl StreamTx {
    /// True if the channel can accept a word this cycle (`tready`).
    pub fn can_push(&self) -> bool {
        let s = self.shared.borrow();
        s.queue.len() < s.capacity
    }

    /// Free space in words.
    pub fn space(&self) -> usize {
        let s = self.shared.borrow();
        s.capacity - s.queue.len()
    }

    /// Push a word. Panics if full (callers must check `can_push`; pushing
    /// into a full FIFO is a design bug, as it would be in hardware).
    pub fn push(&self, word: Word) {
        let mut s = self.shared.borrow_mut();
        assert!(s.queue.len() < s.capacity, "push into full stream");
        assert!(word.len() <= s.width, "word wider than stream bus");
        s.pushed_words += 1;
        if word.sop {
            s.pushed_packets += 1;
        }
        s.queue.push_back(word);
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

    /// Push as many words as fit from the front of `words`, consuming them.
    /// Returns the number pushed (possibly zero). One borrow for the whole
    /// burst instead of a `can_push`/`push` pair per word — the fast path
    /// for modules allowed to move whole packets per cycle.
    pub fn push_burst(&self, words: &mut VecDeque<Word>) -> usize {
        let mut s = self.shared.borrow_mut();
        let n = words.len().min(s.capacity - s.queue.len());
        for _ in 0..n {
            let word = words.pop_front().expect("counted above");
            assert!(word.len() <= s.width, "word wider than stream bus");
            s.pushed_words += 1;
            if word.sop {
                s.pushed_packets += 1;
            }
            s.queue.push_back(word);
        }
        if n > 0 {
            s.wake_rx();
        }
        n
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
    pub fn can_pop(&self) -> bool {
        !self.shared.borrow().queue.is_empty()
    }

    /// Look at the head word without consuming it.
    pub fn peek(&self) -> Option<Word> {
        self.shared.borrow().queue.front().cloned()
    }

    /// Consume the head word.
    pub fn pop(&self) -> Option<Word> {
        let mut s = self.shared.borrow_mut();
        let w = s.queue.pop_front();
        if w.is_some() {
            s.popped_words += 1;
            s.wake_tx();
        }
        w
    }

    /// Register the consumer module's activity-invalidation flag: it is
    /// woken whenever a push or transfer delivers words into this channel.
    pub fn set_wake(&self, wake: WakeHandle) {
        self.shared.borrow_mut().rx_wake = Some(wake);
    }

    /// Current occupancy in words.
    pub fn occupancy(&self) -> usize {
        self.shared.borrow().queue.len()
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

    /// Pop up to `max` words into `out`, one borrow for the whole burst.
    /// Returns the number popped (possibly zero).
    pub fn pop_burst(&self, max: usize, out: &mut Vec<Word>) -> usize {
        let mut s = self.shared.borrow_mut();
        let n = max.min(s.queue.len());
        out.extend(s.queue.drain(..n));
        s.popped_words += n as u64;
        if n > 0 {
            s.wake_tx();
        }
        n
    }

    /// Move up to `max` words from this stream directly into `tx`, bounded
    /// by both occupancy and downstream space. Returns the number moved.
    /// The degenerate self-transfer (both handles on the same channel) is a
    /// no-op, matching what a per-word pop/push loop would observe.
    pub fn transfer_up_to(&self, tx: &StreamTx, max: usize) -> usize {
        if Rc::ptr_eq(&self.shared, &tx.shared) {
            return 0;
        }
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        let n = max.min(src.queue.len()).min(dst.capacity - dst.queue.len());
        for _ in 0..n {
            let word = src.queue.pop_front().expect("counted above");
            assert!(word.len() <= dst.width, "word wider than stream bus");
            src.popped_words += 1;
            dst.pushed_words += 1;
            if word.sop {
                dst.pushed_packets += 1;
            }
            dst.queue.push_back(word);
        }
        if n > 0 {
            src.wake_tx();
            dst.wake_rx();
        }
        n
    }

    /// Move the words of at most one packet from this stream into `tx`:
    /// stops after the word carrying `eop`, or earlier when data or space
    /// runs out. Returns `(words_moved, packet_completed)`. One borrow pair
    /// for the whole run instead of a `can_push`/`pop`/`push` triple per
    /// word — the fast path for packet-granular forwarders (arbiters) that
    /// must observe packet boundaries. Self-transfer is a no-op.
    pub fn transfer_packet(&self, tx: &StreamTx) -> (usize, bool) {
        if Rc::ptr_eq(&self.shared, &tx.shared) {
            return (0, false);
        }
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        let mut moved = 0;
        let mut completed = false;
        while !completed && !src.queue.is_empty() && dst.queue.len() < dst.capacity {
            let word = src.queue.pop_front().expect("checked non-empty");
            assert!(word.len() <= dst.width, "word wider than stream bus");
            src.popped_words += 1;
            dst.pushed_words += 1;
            if word.sop {
                dst.pushed_packets += 1;
            }
            completed = word.eop;
            dst.queue.push_back(word);
            moved += 1;
        }
        if moved > 0 {
            src.wake_tx();
            dst.wake_rx();
        }
        (moved, completed)
    }

    /// Like [`StreamRx::transfer_up_to`], but calls `inspect` on every word
    /// as it moves — the fast path for pass-through stages that only read
    /// words in flight (statistics, taps). Returns the number moved.
    pub fn transfer_inspect(
        &self,
        tx: &StreamTx,
        max: usize,
        mut inspect: impl FnMut(&Word),
    ) -> usize {
        if Rc::ptr_eq(&self.shared, &tx.shared) {
            return 0;
        }
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        let n = max.min(src.queue.len()).min(dst.capacity - dst.queue.len());
        if n == 0 {
            return 0;
        }
        // Inspect in place, then move the whole run at once: one batched
        // counter update instead of two read-modify-writes per word, and —
        // when the downstream queue is drained (the steady burst-mode
        // case) — an O(1) queue swap instead of a per-word pop/push.
        let mut packets = 0;
        for word in src.queue.iter().take(n) {
            // debug-only: pass-through taps sit between same-width hops,
            // and the width was already enforced where the word entered
            // the upstream queue — don't re-pay the check per word here.
            debug_assert!(word.len() <= dst.width, "word wider than stream bus");
            if word.sop {
                packets += 1;
            }
            inspect(word);
        }
        src.popped_words += n as u64;
        dst.pushed_words += n as u64;
        dst.pushed_packets += packets;
        if n == src.queue.len() && dst.queue.is_empty() {
            std::mem::swap(&mut src.queue, &mut dst.queue);
        } else {
            dst.queue.extend(src.queue.drain(..n));
        }
        src.wake_tx();
        dst.wake_rx();
        n
    }

    /// Like [`StreamRx::transfer_inspect`], but sparse: the closure
    /// returns how many *following* words it vouches for as mid-frame
    /// payload beats (computed, e.g., from the sop word's `meta.len`),
    /// and those words move without being visited at all — the way a
    /// hardware parser touches only header beats while the payload
    /// streams past. Returns `(words_moved, skip_remainder)`; a skip
    /// reaching past this batch comes back as the remainder and must be
    /// passed as `skip_in` on the next call so a frame can straddle
    /// transfer batches.
    ///
    /// Contract: vouched-for words must not carry `sop` — packet
    /// accounting trusts the skip (checked in debug builds).
    pub fn transfer_snoop(
        &self,
        tx: &StreamTx,
        max: usize,
        skip_in: usize,
        mut inspect: impl FnMut(&Word) -> usize,
    ) -> (usize, usize) {
        if Rc::ptr_eq(&self.shared, &tx.shared) {
            return (0, skip_in);
        }
        let mut src = self.shared.borrow_mut();
        let mut dst = tx.shared.borrow_mut();
        let n = max.min(src.queue.len()).min(dst.capacity - dst.queue.len());
        if n == 0 {
            return (0, skip_in);
        }
        let mut packets = 0;
        let mut i = 0;
        let mut skip = skip_in;
        while i < n {
            if skip > 0 {
                let run = skip.min(n - i);
                #[cfg(debug_assertions)]
                for j in i..i + run {
                    debug_assert!(!src.queue[j].sop, "skip vouched over a packet start");
                }
                i += run;
                skip -= run;
                continue;
            }
            let word = &src.queue[i];
            debug_assert!(word.len() <= dst.width, "word wider than stream bus");
            if word.sop {
                packets += 1;
            }
            skip = inspect(word);
            i += 1;
        }
        src.popped_words += n as u64;
        dst.pushed_words += n as u64;
        dst.pushed_packets += packets;
        if n == src.queue.len() && dst.queue.is_empty() {
            std::mem::swap(&mut src.queue, &mut dst.queue);
        } else {
            dst.queue.extend(src.queue.drain(..n));
        }
        src.wake_tx();
        dst.wake_rx();
        (n, skip)
    }
}

/// Segment a packet into bus words of `width` bytes, attaching `meta` to the
/// first word. The inverse of [`Reassembler`]. Copies the packet once into
/// a fresh pooled buffer; prefer [`segment_buf`] when a [`PktBuf`] already
/// exists.
pub fn segment(packet: &[u8], width: usize, meta: Meta) -> Vec<Word> {
    segment_buf(&PktBuf::copy_from(packet), width, meta)
}

/// Segment an existing buffer into bus words of `width` bytes without
/// copying: every word is an `(offset, len)` view sharing `buf`'s backing
/// store, and [`Reassembler`] rejoins such views back into the original
/// buffer for free.
pub fn segment_buf(buf: &PktBuf, width: usize, meta: Meta) -> Vec<Word> {
    assert!(!buf.is_empty(), "empty packet");
    assert!((1..=MAX_BUS_BYTES).contains(&width));
    let nwords = buf.len().div_ceil(width);
    (0..nwords)
        .map(|i| {
            let off = i * width;
            let len = width.min(buf.len() - off);
            Word::from_view(
                buf.slice(off, len),
                i == 0,
                i == nwords - 1,
                if i == 0 { Some(meta) } else { None },
            )
        })
        .collect()
}

/// Reassembly accumulator: contiguous same-buffer views join for free; the
/// first discontinuity falls back to an owned copy.
#[derive(Debug, Default)]
enum Accum {
    #[default]
    Empty,
    /// All words so far are adjacent views of one backing store.
    View(PktBuf),
    /// Mixed origins: bytes collected into an owned (pooled) vector.
    Owned(Vec<u8>),
}

/// Incrementally rebuild packets from a word stream.
///
/// When the incoming words are views of a single buffer (the output of
/// [`segment_buf`], i.e. any frame that crossed the pipeline untouched),
/// reassembly is zero-copy: the completed packet *is* the original buffer,
/// refcount-bumped. Only streams mixing words from different buffers pay a
/// copy.
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

    /// Feed one word; returns the completed packet on `eop`.
    ///
    /// Panics on framing violations (word outside a packet, or `sop` inside
    /// one) — those indicate a module bug, mirroring how malformed AXIS
    /// framing wedges real hardware. After [`Reassembler::resync`], words
    /// before the next `sop` are silently discarded instead.
    pub fn push(&mut self, word: Word) -> Option<(PktBuf, Meta)> {
        if self.hunting {
            if !word.sop {
                return None;
            }
            self.hunting = false;
        }
        if word.sop {
            assert!(!self.in_packet, "sop inside packet");
            self.in_packet = true;
            self.meta = word.meta;
            self.acc = Accum::View(word.buf.clone());
        } else {
            assert!(self.in_packet, "data word outside packet");
            self.acc = match std::mem::take(&mut self.acc) {
                Accum::View(acc) => match acc.try_join(&word.buf) {
                    Some(joined) => Accum::View(joined),
                    None => {
                        let mut v = Vec::with_capacity(acc.len() + word.len());
                        v.extend_from_slice(acc.bytes());
                        v.extend_from_slice(word.bytes());
                        Accum::Owned(v)
                    }
                },
                Accum::Owned(mut v) => {
                    v.extend_from_slice(word.bytes());
                    Accum::Owned(v)
                }
                Accum::Empty => unreachable!("in_packet implies accumulator"),
            };
        }
        if word.eop {
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

    #[test]
    fn burst_push_pop_respect_bounds() {
        let (tx, rx) = Stream::new(4, 8);
        let mut words: VecDeque<Word> = (0..6u8)
            .map(|i| Word::new(&[i], i == 0, i == 5, None))
            .collect();
        // Only 4 of 6 fit.
        assert_eq!(tx.push_burst(&mut words), 4);
        assert_eq!(words.len(), 2);
        assert_eq!(rx.occupancy(), 4);
        assert_eq!(rx.total_pushed(), 4);
        assert_eq!(rx.total_packets(), 1);
        assert_eq!(tx.push_burst(&mut words), 0);
        let mut out = Vec::new();
        assert_eq!(rx.pop_burst(3, &mut out), 3);
        assert_eq!(
            out.iter().map(|w| w.bytes()[0]).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(rx.occupancy(), 1);
        // Freed space admits the stragglers.
        assert_eq!(tx.push_burst(&mut words), 2);
        assert_eq!(rx.pop_burst(10, &mut out), 3);
        assert_eq!(out.len(), 6);
        assert_eq!(rx.pop_burst(10, &mut out), 0);
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

    #[test]
    fn transfer_snoop_skips_vouched_words_and_carries_remainder() {
        let (tx_a, rx_a) = Stream::new(16, 8);
        let (tx_b, rx_b) = Stream::new(16, 8);
        // Two 4-word frames back to back.
        for f in 0..2 {
            for i in 0..4u8 {
                tx_a.push(Word::new(&[f * 4 + i], i == 0, i == 3, None));
            }
        }
        // Inspect each sop, vouch for the 2 payload words, see the eop.
        let mut seen = Vec::new();
        let (moved, rem) = rx_a.transfer_snoop(&tx_b, usize::MAX, 0, |w| {
            seen.push(w.bytes()[0]);
            if w.sop {
                2
            } else {
                0
            }
        });
        assert_eq!((moved, rem), (8, 0));
        assert_eq!(seen, [0, 3, 4, 7], "payload words never visited");
        assert_eq!(rx_b.occupancy(), 8, "skipped words still move");
        assert_eq!(rx_b.total_packets(), 2);

        // A skip reaching past the batch comes back as the remainder and
        // resumes on the next call.
        for i in 0..4u8 {
            tx_a.push(Word::new(&[i], i == 0, i == 3, None));
        }
        seen.clear();
        let (moved, rem) = rx_a.transfer_snoop(&tx_b, 2, 0, |w| {
            if w.sop {
                seen.push(w.bytes()[0]);
                2
            } else {
                0
            }
        });
        assert_eq!((moved, rem), (2, 1));
        let (moved, rem) = rx_a.transfer_snoop(&tx_b, usize::MAX, rem, |w| {
            seen.push(w.bytes()[0]);
            0
        });
        assert_eq!((moved, rem), (2, 0));
        assert_eq!(
            seen,
            [0, 3],
            "resumed skip covers the straddling payload word"
        );
        // Self-transfer is a no-op that preserves the pending skip.
        assert_eq!(rx_b.transfer_snoop(&tx_b, 10, 5, |_| 0), (0, 5));
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
        let words = segment(&pkt, 32, meta);
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
        let words = segment(&[9; 10], 32, Meta::default());
        assert_eq!(words.len(), 1);
        assert!(words[0].sop && words[0].eop);
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

    proptest! {
        /// segment/reassemble round-trips any packet at any width.
        #[test]
        fn prop_segment_roundtrip(
            pkt in proptest::collection::vec(any::<u8>(), 1..4096),
            width in 1usize..=MAX_BUS_BYTES,
        ) {
            let meta = Meta { len: pkt.len() as u16, ..Default::default() };
            let words = segment(&pkt, width, meta);
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
    }
}
