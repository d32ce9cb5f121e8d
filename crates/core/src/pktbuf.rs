//! The zero-copy packet buffer plane: refcounted frame payloads with
//! copy-on-write mutation.
//!
//! Real NetFPGA datapaths store a packet once in BRAM and pass a *pointer*
//! through the pipeline; only the rare rewriting stage touches the bytes.
//! [`PktBuf`] reproduces that discipline in the simulator: a frame's bytes
//! live once behind an `Rc`, every stream hop / flood copy / mirror is a
//! refcount bump plus an `(offset, len)` view, and the few mutators
//! (fault-injector corruption, header-rewriting stages) go through
//! [`PktBuf::make_mut`] / [`PktBuf::edit`], which copy-on-write only when
//! the buffer is actually shared or partially viewed.
//!
//! # Buffer lifecycle
//!
//! A backing store is a plain `Vec<u8>`: allocated once ([`PktBuf::copy_from`],
//! or by the caller of [`PktBuf::from_vec`]), freed by its last reference,
//! or handed to host software whole by [`PktBuf::into_owned`]. A frame
//! costs one allocation and no copy from `send` to `recv`. `PktBuf` is
//! `Rc`-based (the simulator is single-threaded by design), so a buffer
//! crosses a thread boundary only as the `Vec` `into_owned` returns.
//!
//! # Telemetry
//!
//! Two thread-local counters — `allocs` (backing stores this module
//! allocated) and `cow_copies` (copy-on-write duplications) — are
//! snapshotted by [`pool_stats`] and surfaced by the project harness as
//! the `pool.allocs` / `pool.cow_copies` gauges in the `StatRegistry`.

use std::cell::Cell;
use std::rc::Rc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COW_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the buffer counters. See [`pool_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Backing stores allocated by [`PktBuf::copy_from`] or a
    /// copy-on-write.
    pub allocs: u64,
    /// Copy-on-write duplications ([`PktBuf::make_mut`] / [`PktBuf::edit`]
    /// on a shared or partially-viewed buffer).
    pub cow_copies: u64,
}

/// Snapshot this thread's buffer counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        allocs: ALLOCS.get(),
        cow_copies: COW_COPIES.get(),
    }
}

/// Zero this thread's buffer counters (test isolation).
pub fn reset_pool() {
    ALLOCS.set(0);
    COW_COPIES.set(0);
}

/// Run `f` with this thread's buffer counters starting from zero, as on a
/// thread of its own, then add back what they held before: work that
/// borrows the calling thread reads the same counters it would read on a
/// spawned one, and the caller still sees everything.
pub fn with_fresh_pool<R>(f: impl FnOnce() -> R) -> R {
    let outer = pool_stats();
    reset_pool();
    let result = f();
    ALLOCS.set(ALLOCS.get() + outer.allocs);
    COW_COPIES.set(COW_COPIES.get() + outer.cow_copies);
    result
}

/// Copy `data` into a fresh backing store, counted in `allocs`.
fn alloc_copy(data: &[u8]) -> Rc<Vec<u8>> {
    ALLOCS.set(ALLOCS.get() + 1);
    Rc::new(data.to_vec())
}

/// A refcounted, immutable-by-default packet buffer with a cheap
/// `(offset, len)` view. Cloning bumps a refcount; no payload bytes move.
/// See the [module docs](self) for the CoW and lifecycle rules.
#[derive(Clone)]
pub struct PktBuf {
    inner: Rc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl PktBuf {
    /// Wrap an owned vector without copying: its allocation is the
    /// backing store, and [`PktBuf::into_owned`] gives it back.
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        PktBuf {
            inner: Rc::new(data),
            off: 0,
            len,
        }
    }

    /// Copy `data` into a fresh buffer.
    pub fn copy_from(data: &[u8]) -> PktBuf {
        PktBuf {
            inner: alloc_copy(data),
            off: 0,
            len: data.len(),
        }
    }

    /// The visible bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.inner[self.off..self.off + self.len]
    }

    /// Visible length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `len` bytes starting at `off` (relative to this
    /// view). Shares the backing store: no bytes move.
    #[inline]
    pub fn slice(&self, off: usize, len: usize) -> PktBuf {
        assert!(off + len <= self.len, "slice out of range");
        PktBuf {
            inner: self.inner.clone(),
            off: self.off + off,
            len,
        }
    }

    /// Split the view in two at `at`: returns the first `at` bytes and
    /// leaves `self` covering the rest. Both share the backing store — one
    /// refcount bump, no bytes move.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> PktBuf {
        let front = self.slice(0, at);
        self.off += at;
        self.len -= at;
        front
    }

    /// Join two views that are adjacent in the *same* backing store into
    /// one contiguous view, without copying. Returns `None` when the views
    /// belong to different buffers or are not adjacent — the reassembly
    /// fast path falls back to copying then.
    #[inline]
    pub fn try_join(&self, next: &PktBuf) -> Option<PktBuf> {
        if Rc::ptr_eq(&self.inner, &next.inner) && self.off + self.len == next.off {
            Some(PktBuf {
                inner: self.inner.clone(),
                off: self.off,
                len: self.len + next.len,
            })
        } else {
            None
        }
    }

    /// True when both views share the same backing store (regardless of
    /// offsets) — i.e. a clone chain, not a copy.
    pub fn same_backing(&self, other: &PktBuf) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of live references to the backing store (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.inner)
    }

    /// Mutable access to the visible bytes, copy-on-write. Sole owners of
    /// a full-range view mutate in place; shared or partial views first
    /// copy their visible bytes into a fresh buffer (counted in
    /// `pool.cow_copies`), so sibling references never observe the write.
    pub fn make_mut(&mut self) -> &mut [u8] {
        self.ensure_unique()
    }

    /// Rewrite the packet through a closure that may also change its
    /// length (push/pop headers, grow payloads). Copy-on-write like
    /// [`PktBuf::make_mut`]; afterwards the view covers the whole rewritten
    /// buffer.
    pub fn edit(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let data = self.ensure_unique();
        f(data);
        self.len = data.len();
    }

    /// Make the backing store uniquely owned and exactly the visible range
    /// (off = 0, len = its length), copying if necessary, and borrow it.
    fn ensure_unique(&mut self) -> &mut Vec<u8> {
        let full_range = self.off == 0 && self.len == self.inner.len();
        if !full_range || Rc::strong_count(&self.inner) != 1 {
            COW_COPIES.set(COW_COPIES.get() + 1);
            self.inner = alloc_copy(self.bytes());
            self.off = 0;
            // len unchanged: the copy is exactly the visible bytes.
        }
        Rc::get_mut(&mut self.inner).expect("sole owner: checked or just copied")
    }

    /// Copy the visible bytes out of a buffer you do not own (a borrowed
    /// capture, a log). Code handing a frame to host software owns it and
    /// calls [`PktBuf::into_owned`], which moves where this copies.
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Hand the visible bytes over as a plain `Vec<u8>`: how a frame
    /// leaves the modelled device for host software, and how it crosses to
    /// another shard's thread (which rewraps it with [`PktBuf::from_vec`]).
    ///
    /// A uniquely-owned full-range view is *stolen*, not copied: the
    /// backing vector itself moves out. Shared or partial views copy their
    /// visible bytes and leave the backing store to their siblings — the
    /// same rule as [`PktBuf::make_mut`], not counted in `cow_copies`.
    pub fn into_owned(self) -> Vec<u8> {
        let (off, len) = (self.off, self.len);
        match Rc::try_unwrap(self.inner) {
            Ok(data) if off == 0 && len == data.len() => data,
            Ok(data) => data[off..off + len].to_vec(),
            Err(shared) => shared[off..off + len].to_vec(),
        }
    }
}

impl Default for PktBuf {
    fn default() -> PktBuf {
        PktBuf::from_vec(Vec::new())
    }
}

impl std::ops::Deref for PktBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl AsRef<[u8]> for PktBuf {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl std::fmt::Debug for PktBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PktBuf({} bytes", self.len)?;
        if self.off != 0 || self.len != self.inner.len() {
            write!(
                f,
                ", view {}..{} of {}",
                self.off,
                self.off + self.len,
                self.inner.len()
            )?;
        }
        write!(f, ")")
    }
}

impl PartialEq for PktBuf {
    fn eq(&self, other: &PktBuf) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for PktBuf {}

impl PartialEq<Vec<u8>> for PktBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.bytes() == other.as_slice()
    }
}

impl PartialEq<PktBuf> for Vec<u8> {
    fn eq(&self, other: &PktBuf) -> bool {
        self.as_slice() == other.bytes()
    }
}

impl PartialEq<[u8]> for PktBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PktBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes() == other
    }
}

impl From<Vec<u8>> for PktBuf {
    fn from(v: Vec<u8>) -> PktBuf {
        PktBuf::from_vec(v)
    }
}

impl From<&[u8]> for PktBuf {
    fn from(v: &[u8]) -> PktBuf {
        PktBuf::copy_from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_backing() {
        let a = PktBuf::copy_from(&[1, 2, 3, 4]);
        let b = a.clone();
        assert!(a.same_backing(&b));
        assert_eq!(a.ref_count(), 2);
        assert_eq!(a, b);
        assert_eq!(a.bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_views_without_copy() {
        let a = PktBuf::copy_from(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let s = a.slice(2, 4);
        assert_eq!(s.bytes(), &[2, 3, 4, 5]);
        assert!(s.same_backing(&a));
        let s2 = s.slice(1, 2);
        assert_eq!(s2.bytes(), &[3, 4]);
    }

    #[test]
    fn try_join_adjacent_views() {
        let a = PktBuf::copy_from(&(0..64u8).collect::<Vec<_>>());
        let lo = a.slice(0, 32);
        let hi = a.slice(32, 32);
        let joined = lo.try_join(&hi).expect("adjacent");
        assert_eq!(joined.bytes(), a.bytes());
        // Non-adjacent or cross-buffer joins fail.
        assert!(hi.try_join(&lo).is_none());
        let other = PktBuf::copy_from(&[9; 8]);
        assert!(lo.try_join(&other.slice(0, 8)).is_none());
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        reset_pool();
        let mut a = PktBuf::copy_from(&[1, 2, 3]);
        a.make_mut()[0] = 0xff;
        assert_eq!(a.bytes(), &[0xff, 2, 3]);
        assert_eq!(
            pool_stats().cow_copies,
            0,
            "unique full view mutates in place"
        );
    }

    #[test]
    fn make_mut_cow_isolates_siblings() {
        reset_pool();
        let mut a = PktBuf::copy_from(&[1, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 0xff;
        assert_eq!(a.bytes(), &[0xff, 2, 3]);
        assert_eq!(b.bytes(), &[1, 2, 3], "sibling untouched");
        assert!(!a.same_backing(&b));
        assert_eq!(pool_stats().cow_copies, 1);
    }

    #[test]
    fn make_mut_on_partial_view_copies() {
        reset_pool();
        let base = PktBuf::copy_from(&[0, 1, 2, 3]);
        let mut s = base.slice(1, 2);
        s.make_mut()[0] = 0xaa;
        assert_eq!(s.bytes(), &[0xaa, 2]);
        assert_eq!(base.bytes(), &[0, 1, 2, 3]);
        assert_eq!(pool_stats().cow_copies, 1);
    }

    #[test]
    fn edit_resizes_and_isolates() {
        let mut a = PktBuf::copy_from(&[1, 2]);
        let b = a.clone();
        a.edit(|v| v.push(3));
        assert_eq!(a.bytes(), &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert_eq!(b.bytes(), &[1, 2]);
    }

    #[test]
    fn a_backing_store_is_allocated_once_and_handed_back_whole() {
        reset_pool();
        let v = vec![7u8; 256];
        let p = v.as_ptr();
        let a = PktBuf::from_vec(v);
        let words = [a.slice(0, 128), a.slice(128, 128)];
        let joined = words[0].try_join(&words[1]).expect("adjacent");
        drop((a, words));
        let v = joined.into_owned();
        assert_eq!(v.as_ptr(), p, "the caller's allocation");
        assert_eq!(pool_stats(), PoolStats::default(), "nothing allocated here");
        let b = PktBuf::copy_from(&[8u8; 100]);
        assert_eq!(pool_stats().allocs, 1, "copy_from allocates once");
        let p = b.bytes().as_ptr();
        let v = b.into_owned();
        assert_eq!(v.as_ptr(), p);
    }

    #[test]
    fn equality_is_by_bytes() {
        let a = PktBuf::copy_from(&[1, 2, 3]);
        let b = PktBuf::copy_from(&[0, 1, 2, 3]).slice(1, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], a);
        assert_eq!(a, [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_out_of_range_panics() {
        PktBuf::copy_from(&[1, 2]).slice(1, 2);
    }

    #[test]
    fn into_owned_unique_full_view_steals_without_copy_or_recycle() {
        reset_pool();
        let a = PktBuf::copy_from(&[5u8; 256]);
        let (p, before) = (a.bytes().as_ptr(), pool_stats());
        let v = a.into_owned();
        assert_eq!(v, vec![5u8; 256]);
        assert_eq!(v.as_ptr(), p, "the backing store itself moved out");
        assert_eq!(pool_stats(), before, "a steal allocates nothing, no CoW");
    }

    #[test]
    fn into_owned_shared_view_copies_and_leaves_sibling_intact() {
        reset_pool();
        let a = PktBuf::copy_from(&[1, 2, 3, 4]);
        let b = a.clone();
        let v = a.into_owned();
        assert_eq!(v, vec![1, 2, 3, 4]);
        assert_ne!(v.as_ptr(), b.bytes().as_ptr(), "a copy, not the store");
        assert_eq!(b.bytes(), &[1, 2, 3, 4], "sibling untouched by detach");
        assert_eq!(b.ref_count(), 1, "detaching dropped one reference");
        assert_eq!(pool_stats().cow_copies, 0, "a detach is not a CoW");
    }

    #[test]
    fn into_owned_partial_view_copies_and_leaves_siblings_intact() {
        let a = PktBuf::copy_from(&(0..64u8).collect::<Vec<_>>());
        let (s, rest) = (a.slice(8, 16), a.slice(24, 40));
        drop(a);
        let v = s.into_owned();
        assert_eq!(v, (8..24u8).collect::<Vec<_>>());
        assert_eq!(rest.bytes(), (24..64u8).collect::<Vec<_>>());
        // A partial view copies even as the last reference: the vector it
        // hands over must be exactly the visible bytes.
        let tail = rest.bytes()[8..].as_ptr();
        let v = rest.slice(8, 32).into_owned();
        assert_eq!(v, (32..64u8).collect::<Vec<_>>());
        assert_ne!(v.as_ptr(), tail);
    }

    /// The cross-thread round trip the fabric plane performs: detach on
    /// the source thread, rewrap on the destination thread, then exercise
    /// CoW there. The allocation itself makes the hop, CoW semantics
    /// survive it, and each thread counts only its own traffic.
    #[test]
    fn into_owned_round_trip_crosses_threads_and_keeps_cow() {
        reset_pool();
        let v = PktBuf::copy_from(&[0xab; 128]).into_owned();
        let src = pool_stats();
        let p = v.as_ptr() as usize;
        let dst = std::thread::spawn(move || {
            let mut x = PktBuf::from_vec(v);
            assert_eq!(x.bytes().as_ptr() as usize, p, "rewrapped, not copied");
            let y = x.clone();
            x.make_mut()[0] = 0xcd;
            assert_eq!(x.bytes()[0], 0xcd);
            assert_eq!(y.bytes()[0], 0xab, "CoW isolates the sibling after the hop");
            pool_stats()
        })
        .join()
        .expect("destination thread");
        assert_eq!((dst.allocs, dst.cow_copies), (1, 1), "only the CoW copy");
        assert_eq!(pool_stats(), src, "the source never sees the destination");
    }

    /// The fabric's calling-thread shard: it counts from zero like a
    /// spawned shard, and its caller keeps its own count on top.
    #[test]
    fn fresh_pool_counts_from_zero_and_adds_back() {
        reset_pool();
        drop(PktBuf::copy_from(&[1]));
        let inside = with_fresh_pool(|| {
            drop(PktBuf::copy_from(&[2]));
            pool_stats()
        });
        assert_eq!(inside.allocs, 1, "only what ran inside");
        assert_eq!(pool_stats().allocs, 2, "the caller sees both");
    }
}
