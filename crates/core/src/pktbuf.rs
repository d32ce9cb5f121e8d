//! The zero-copy packet buffer plane: refcounted frame payloads with a
//! deterministic free-list pool and copy-on-write mutation.
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
//! # Pool lifecycle
//!
//! Backing `Vec<u8>` allocations are drawn from a thread-local free list
//! (the simulator is single-threaded, `Rc`-based by design) and returned to
//! it when the last reference drops. A recycled vector is always cleared
//! and fully rewritten before reuse, so buffer *contents* never depend on
//! pool state.
//!
//! # Telemetry
//!
//! The pool keeps three counters — `allocs` (fresh heap allocations),
//! `recycled` (buffers served from the free list) and `cow_copies`
//! (copy-on-write duplications) — snapshotted by [`pool_stats`] and
//! surfaced by the project harness as `pool.allocs` / `pool.recycled` /
//! `pool.cow_copies` gauges in the `StatRegistry`.

use std::cell::RefCell;
use std::rc::Rc;

/// Free-list entries kept before further returned buffers are simply freed.
const POOL_MAX_FREE: usize = 1024;
/// Returned buffers smaller than this are not worth keeping.
const POOL_MIN_CAPACITY: usize = 32;

#[derive(Debug, Default)]
struct Pool {
    free: Vec<Vec<u8>>,
    allocs: u64,
    recycled: u64,
    cow_copies: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Snapshot of the pool counters. See [`pool_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh heap allocations (the free list was empty).
    pub allocs: u64,
    /// Buffers served from the free list.
    pub recycled: u64,
    /// Copy-on-write duplications ([`PktBuf::make_mut`] / [`PktBuf::edit`]
    /// on a shared or partially-viewed buffer).
    pub cow_copies: u64,
    /// Buffers currently parked on the free list.
    pub free: u64,
}

/// Snapshot the thread-local pool counters.
pub fn pool_stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            allocs: p.allocs,
            recycled: p.recycled,
            cow_copies: p.cow_copies,
            free: p.free.len() as u64,
        }
    })
}

/// Reset pool counters and drop parked buffers (test isolation).
pub fn reset_pool() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.free.clear();
        p.allocs = 0;
        p.recycled = 0;
        p.cow_copies = 0;
    });
}

/// Draw an empty vector with at least `capacity` bytes of room, from the
/// free list when possible.
fn take_vec(capacity: usize) -> Vec<u8> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(mut v) = p.free.pop() {
            p.recycled += 1;
            v.clear();
            v.reserve(capacity);
            return v;
        }
        p.allocs += 1;
        Vec::with_capacity(capacity)
    })
}

/// Return a vector to the free list (or drop it).
fn give_vec(v: Vec<u8>) {
    if v.capacity() < POOL_MIN_CAPACITY {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.free.len() < POOL_MAX_FREE {
            p.free.push(v);
        }
    });
}

fn count_cow() {
    POOL.with(|p| p.borrow_mut().cow_copies += 1);
}

/// The refcounted backing store. Its `Drop` recycles the allocation.
#[derive(Debug)]
struct Inner {
    data: Vec<u8>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        give_vec(std::mem::take(&mut self.data));
    }
}

/// A refcounted, immutable-by-default packet buffer with a cheap
/// `(offset, len)` view. Cloning bumps a refcount; no payload bytes move.
/// See the [module docs](self) for the CoW and pool rules.
#[derive(Clone)]
pub struct PktBuf {
    inner: Rc<Inner>,
    off: usize,
    len: usize,
}

impl PktBuf {
    /// Wrap an owned vector without copying. The allocation joins the pool
    /// when the last reference drops.
    pub fn from_vec(data: Vec<u8>) -> PktBuf {
        let len = data.len();
        PktBuf {
            inner: Rc::new(Inner { data }),
            off: 0,
            len,
        }
    }

    /// Copy `data` into a pooled buffer.
    pub fn copy_from(data: &[u8]) -> PktBuf {
        let mut v = take_vec(data.len());
        v.extend_from_slice(data);
        PktBuf::from_vec(v)
    }

    /// The visible bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.inner.data[self.off..self.off + self.len]
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
    /// copy their visible bytes into a fresh pooled buffer (counted in
    /// `pool.cow_copies`), so sibling references never observe the write.
    pub fn make_mut(&mut self) -> &mut [u8] {
        self.ensure_unique();
        let inner = Rc::get_mut(&mut self.inner).expect("unique after ensure_unique");
        &mut inner.data[..]
    }

    /// Rewrite the packet through a closure that may also change its
    /// length (push/pop headers, grow payloads). Copy-on-write like
    /// [`PktBuf::make_mut`]; afterwards the view covers the whole rewritten
    /// buffer.
    pub fn edit(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        self.ensure_unique();
        let inner = Rc::get_mut(&mut self.inner).expect("unique after ensure_unique");
        f(&mut inner.data);
        self.len = inner.data.len();
    }

    /// Guarantee `self.inner` is uniquely owned and exactly the visible
    /// range (off = 0, len = data.len()), copying if necessary.
    fn ensure_unique(&mut self) {
        let full_range = self.off == 0 && self.len == self.inner.data.len();
        if full_range && Rc::strong_count(&self.inner) == 1 {
            return;
        }
        count_cow();
        let mut v = take_vec(self.len);
        v.extend_from_slice(self.bytes());
        self.inner = Rc::new(Inner { data: v });
        self.off = 0;
        // len unchanged: v.len() == self.len by construction.
    }

    /// Copy the visible bytes into a plain vector (host-boundary use).
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Detach the visible bytes into a plain `Vec<u8>` that owes nothing
    /// to this thread's pool — the cross-thread handoff primitive for the
    /// parallel fabric plane.
    ///
    /// `PktBuf` is `Rc`-based and its free list is thread-local, so a
    /// buffer must never cross a thread boundary directly. A frame leaving
    /// a shard calls `into_owned()`; the receiving shard rewraps the bytes
    /// with [`PktBuf::from_vec`] (or [`PktBuf::copy_from`]), after which
    /// the allocation lives and eventually recycles entirely in the
    /// *destination* thread's pool. Pool counters therefore stay coherent
    /// per thread: the source side sees at most one `give_vec` (when the
    /// view was shared or partial and the backing store is recycled here),
    /// the destination side accounts the buffer like any local allocation.
    ///
    /// A uniquely-owned full-range view is *stolen*, not copied: the
    /// backing vector moves out and the emptied shell (capacity 0) is
    /// below the pool's keep threshold, so nothing is double-accounted.
    /// Shared or partial views copy their visible bytes — copy-on-write
    /// semantics survive the detach exactly as they do for
    /// [`PktBuf::make_mut`].
    pub fn into_owned(self) -> Vec<u8> {
        let (off, len) = (self.off, self.len);
        let full = off == 0 && len == self.inner.data.len();
        match Rc::try_unwrap(self.inner) {
            // Sole owner of exactly the visible range: steal the backing
            // store. `Inner::drop` then returns an empty vector, which
            // `give_vec` rejects (capacity < POOL_MIN_CAPACITY), so the
            // stolen allocation is not double-counted by the pool.
            Ok(mut inner) if full => std::mem::take(&mut inner.data),
            // Sole owner of a partial view: copy the visible bytes; the
            // backing store recycles into this thread's pool on drop.
            Ok(inner) => inner.data[off..off + len].to_vec(),
            // Shared: copy; siblings keep the backing store untouched.
            Err(rc) => rc.data[off..off + len].to_vec(),
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
        if self.off != 0 || self.len != self.inner.data.len() {
            write!(
                f,
                ", view {}..{} of {}",
                self.off,
                self.off + self.len,
                self.inner.data.len()
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
    fn pool_recycles_dropped_buffers() {
        reset_pool();
        let a = PktBuf::copy_from(&[7u8; 256]);
        let allocs_before = pool_stats().allocs;
        drop(a);
        assert_eq!(pool_stats().free, 1);
        let b = PktBuf::copy_from(&[8u8; 100]);
        assert_eq!(pool_stats().recycled, 1);
        assert_eq!(pool_stats().allocs, allocs_before, "no fresh allocation");
        assert_eq!(
            b.bytes(),
            &[8u8; 100][..],
            "recycled buffer fully rewritten"
        );
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
        let before = pool_stats();
        let v = a.into_owned();
        assert_eq!(v, vec![5u8; 256]);
        let after = pool_stats();
        // The backing store left the pool's economy entirely: no fresh
        // allocation, no recycle, and — crucially — nothing parked on the
        // free list (the emptied shell is below the keep threshold).
        assert_eq!(after.allocs, before.allocs, "steal allocates nothing");
        assert_eq!(after.recycled, before.recycled);
        assert_eq!(after.cow_copies, before.cow_copies, "steal is not a CoW");
        assert_eq!(after.free, before.free, "stolen backing must not be pooled");
    }

    #[test]
    fn into_owned_shared_view_copies_and_leaves_sibling_intact() {
        reset_pool();
        let a = PktBuf::copy_from(&[1, 2, 3, 4]);
        let b = a.clone();
        let v = a.into_owned();
        assert_eq!(v, vec![1, 2, 3, 4]);
        assert_eq!(b.bytes(), &[1, 2, 3, 4], "sibling untouched by detach");
        assert_eq!(b.ref_count(), 1, "detaching dropped one reference");
        // The copy went through plain Vec (not the pool): allocs counted
        // only the original copy_from.
        assert_eq!(pool_stats().free, 0, "shared detach recycles nothing");
    }

    #[test]
    fn into_owned_partial_view_copies_and_recycles_backing() {
        reset_pool();
        let a = PktBuf::copy_from(&(0..64u8).collect::<Vec<_>>());
        let s = a.slice(8, 16);
        drop(a);
        let free_before = pool_stats().free;
        let v = s.into_owned();
        assert_eq!(v, (8..24u8).collect::<Vec<_>>());
        // The partial view was the last reference: its backing store came
        // home to this thread's free list, and the detached bytes are an
        // independent copy.
        assert_eq!(
            pool_stats().free,
            free_before + 1,
            "backing store recycled locally"
        );
    }

    /// The cross-thread round trip the fabric plane performs: detach on
    /// the source thread, rewrap on the destination thread, then exercise
    /// CoW there. Pool counters must stay per-thread coherent — the
    /// source pool sees none of the destination's activity and vice
    /// versa — and CoW semantics must survive the hop.
    #[test]
    fn into_owned_round_trip_keeps_pools_per_thread_coherent() {
        reset_pool();
        let a = PktBuf::copy_from(&[0xab; 128]);
        let src_after_detach = {
            let v = a.into_owned();
            let src = pool_stats();
            let handled = std::thread::spawn(move || {
                // Destination thread: fresh pool, reattach and exercise CoW.
                reset_pool();
                let mut x = PktBuf::from_vec(v);
                let y = x.clone();
                x.make_mut()[0] = 0xcd;
                assert_eq!(x.bytes()[0], 0xcd);
                assert_eq!(y.bytes()[0], 0xab, "CoW isolates the sibling after the hop");
                let dst = pool_stats();
                assert_eq!(
                    dst.cow_copies, 1,
                    "the CoW happened on the destination pool"
                );
                drop(x);
                drop(y);
                // Both backing stores recycle into the destination pool.
                assert_eq!(
                    pool_stats().free,
                    2,
                    "hopped buffers recycle where they land"
                );
                dst.allocs
            })
            .join()
            .expect("destination thread");
            assert_eq!(handled, 1, "destination allocated only the CoW copy");
            src
        };
        let src_final = pool_stats();
        assert_eq!(
            (
                src_final.allocs,
                src_final.recycled,
                src_final.cow_copies,
                src_final.free
            ),
            (
                src_after_detach.allocs,
                src_after_detach.recycled,
                src_after_detach.cow_copies,
                src_after_detach.free
            ),
            "source pool never observes the destination thread's traffic"
        );
    }
}
