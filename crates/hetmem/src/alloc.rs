//! Capacity-accounted node allocators and aligned buffers.
//!
//! [`NodeAllocator::alloc`] is the software twin of `numa_alloc_onnode`
//! (§IV-C of the paper): it hands out real, 64-byte-aligned heap memory
//! while debiting a per-node byte budget, and fails — like the real call
//! on a full MCDRAM — when the budget is exhausted. Freeing (dropping the
//! buffer) credits the budget back, mirroring `numa_free`. The host block
//! behind a small buffer may outlive it as its thread's spare (see
//! [`AlignedBuf`]); that holds host memory only, never node budget.

use crate::error::MemError;
use crate::node::NodeId;
use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache-line alignment used for all node allocations.
pub const BUF_ALIGN: usize = 64;

/// The alignment the system allocator gives every block anyway. A
/// request at this alignment is a plain `malloc`/`calloc`; a stricter
/// one goes through `posix_memalign`, which costs about twice as much
/// for small blocks.
const NATURAL_ALIGN: usize = 16;

/// Extra bytes that always fit a `BUF_ALIGN`-aligned start inside a
/// `NATURAL_ALIGN`-aligned block.
const ALIGN_PAD: usize = BUF_ALIGN - NATURAL_ALIGN;

/// The largest block (layout size) a thread keeps as its spare.
const SPARE_MAX: usize = 64 << 10;

/// A thread's spare: the last block it freed, if no larger than
/// `SPARE_MAX`, with its layout.
struct Spare(Cell<Option<(NonNull<u8>, Layout)>>);

impl Drop for Spare {
    fn drop(&mut self) {
        if let Some((raw, layout)) = self.0.take() {
            // SAFETY: a parked block is a live allocation of `layout`
            // that only this slot owns.
            unsafe { dealloc(raw.as_ptr(), layout) };
        }
    }
}

thread_local! {
    static SPARE: Spare = const { Spare(Cell::new(None)) };
}

/// Take this thread's spare block if it has exactly `layout`.
fn take_spare(layout: Layout) -> Option<NonNull<u8>> {
    SPARE
        .try_with(|spare| match spare.0.get() {
            Some((raw, parked)) if parked == layout => {
                spare.0.set(None);
                Some(raw)
            }
            _ => None,
        })
        .ok()
        .flatten()
}

/// Park `raw` as this thread's spare and free the block it displaces.
/// A block above `SPARE_MAX`, or one dropped while the thread's locals
/// are torn down, is freed at once.
///
/// # Safety
///
/// `raw` is a live allocation of `layout` that the caller owns and
/// never touches again.
unsafe fn park_or_free(raw: NonNull<u8>, layout: Layout) {
    let freed = if layout.size() <= SPARE_MAX {
        SPARE
            .try_with(|spare| spare.0.replace(Some((raw, layout))))
            .unwrap_or(Some((raw, layout)))
    } else {
        Some((raw, layout))
    };
    if let Some((raw, layout)) = freed {
        // SAFETY: `raw` came from the caller, or from the slot, which
        // owned it; either way it is a live allocation of `layout`.
        unsafe { dealloc(raw.as_ptr(), layout) };
    }
}

/// Book-keeping shared between an allocator and the buffers it produced,
/// so a buffer can credit the budget back when dropped even if it
/// outlives the `Memory` façade's borrow.
#[derive(Debug)]
struct Budget {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    failed: AtomicU64,
}

impl Budget {
    fn try_reserve(&self, bytes: u64) -> Result<(), u64> {
        // CAS loop so concurrent allocations can never overshoot the
        // budget (fetch_add + rollback would transiently overshoot and
        // spuriously fail concurrent allocators).
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            if cur + bytes > self.capacity {
                return Err(self.capacity - cur.min(self.capacity));
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(cur + bytes, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "budget release underflow");
    }
}

/// Allocator for one memory node.
#[derive(Debug)]
pub struct NodeAllocator {
    budget: Arc<Budget>,
}

impl NodeAllocator {
    /// A new allocator with `capacity` bytes of budget.
    pub fn new(capacity: u64) -> Self {
        Self {
            budget: Arc::new(Budget {
                capacity,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
                failed: AtomicU64::new(0),
            }),
        }
    }

    /// Allocate `size` zeroed bytes on `node`, debiting the budget.
    pub fn alloc(&self, size: usize, node: NodeId) -> Result<AlignedBuf, MemError> {
        self.alloc_filled(size, None, node)
    }

    /// [`NodeAllocator::alloc`], holding a copy of `src` (of `size`
    /// bytes) instead of zeroes if given.
    pub(crate) fn alloc_filled(
        &self,
        size: usize,
        src: Option<&[u8]>,
        node: NodeId,
    ) -> Result<AlignedBuf, MemError> {
        if let Err(available) = self.budget.try_reserve(size as u64) {
            self.budget.failed.fetch_add(1, Ordering::Relaxed);
            return Err(MemError::CapacityExceeded {
                node,
                requested: size as u64,
                available,
            });
        }
        self.budget.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(AlignedBuf::new(size, src, node, Arc::clone(&self.budget)))
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.budget.used.load(Ordering::Acquire)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_used(&self) -> u64 {
        self.budget.peak.load(Ordering::Relaxed)
    }

    /// Bytes still available under the budget.
    pub fn available(&self) -> u64 {
        self.budget.capacity.saturating_sub(self.used())
    }

    /// Capacity budget in bytes.
    pub fn capacity(&self) -> u64 {
        self.budget.capacity
    }

    /// Number of successful allocations.
    pub fn alloc_count(&self) -> u64 {
        self.budget.allocs.load(Ordering::Relaxed)
    }

    /// Number of allocations rejected for capacity.
    pub fn failed_alloc_count(&self) -> u64 {
        self.budget.failed.load(Ordering::Relaxed)
    }
}

/// A real, owned, 64-byte-aligned, initialised byte buffer tagged with
/// the memory node it is accounted against.
///
/// The buffer sits `offset` bytes into a block over-allocated by
/// `ALIGN_PAD` bytes at the allocator's natural alignment, so no
/// allocation pays for `posix_memalign`. Only `len` is debited from the
/// node budget. Dropping the buffer credits the node budget — the
/// `numa_free` step of the paper's migration routine.
///
/// A dropped block of at most `SPARE_MAX` bytes is parked as its thread's
/// one spare instead of freed, and the thread's next buffer of the same
/// layout reuses it, so a copying move (destination allocated before its
/// same-size source is freed) takes and parks a block without touching
/// the system allocator. Parking displaces and frees the previous spare;
/// thread exit frees the last one.
pub struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
    offset: usize,
    node: NodeId,
    budget: Arc<Budget>,
}

// SAFETY: the buffer owns its allocation exclusively, and its other
// fields are plain values or an `Arc` of atomics; aliasing discipline
// for shared access is enforced by the BlockRegistry layer above.
unsafe impl Send for AlignedBuf {}
// SAFETY: `&AlignedBuf` only reads the bytes (mutation needs `&mut`),
// and the budget is updated through atomics.
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// `len` zeroes, or a copy of `src`: written once, by the copy,
    /// with no zero-fill first.
    fn new(len: usize, src: Option<&[u8]>, node: NodeId, budget: Arc<Budget>) -> Self {
        let (ptr, offset) = if len == 0 {
            (NonNull::<u8>::dangling(), 0)
        } else {
            let layout = Self::layout(len);
            let spare = take_spare(layout);
            let raw = spare.unwrap_or_else(|| {
                // SAFETY: the layout's size is at least `ALIGN_PAD` > 0.
                let raw = unsafe {
                    if src.is_some() {
                        alloc(layout)
                    } else {
                        alloc_zeroed(layout)
                    }
                };
                NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
            });
            // `raw` is `NATURAL_ALIGN`-aligned, so the next `BUF_ALIGN`
            // boundary is at most `ALIGN_PAD` bytes on.
            let offset = raw.as_ptr().align_offset(BUF_ALIGN);
            assert!(offset <= ALIGN_PAD, "allocator broke its alignment");
            // SAFETY: `offset + len` is within the block of
            // `len + ALIGN_PAD` bytes that `raw` starts.
            let ptr = unsafe { raw.add(offset) };
            if spare.is_some() && src.is_none() {
                // SAFETY: `ptr` starts `len` bytes of the spare block
                // this buffer now owns; they still hold its last
                // owner's data.
                unsafe { std::ptr::write_bytes(ptr.as_ptr(), 0, len) };
            }
            (ptr, offset)
        };
        if let Some(src) = src {
            assert_eq!(src.len(), len, "source length differs");
            // SAFETY: `ptr` starts `len` bytes of a block only this
            // buffer owns (or dangles with `len == 0`), disjoint from
            // `src`; this initialises them before anything reads them.
            unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), ptr.as_ptr(), len) };
        }
        Self {
            ptr,
            len,
            offset,
            node,
            budget,
        }
    }

    /// The layout of the block behind a buffer of `len > 0` bytes.
    fn layout(len: usize) -> Layout {
        len.checked_add(ALIGN_PAD)
            .and_then(|size| Layout::from_size_align(size, NATURAL_ALIGN).ok())
            .expect("buffer length fits a layout")
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node this buffer is accounted against.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Shared view of the bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe our exclusive allocation (or a
        // dangling pointer with len 0, which is a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Exclusive view of the bytes.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, plus &mut self guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw base pointer (used by the registry's checked-access guards).
    pub(crate) fn base_ptr(&self) -> NonNull<u8> {
        self.ptr
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .field("node", &self.node)
            .finish()
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: `new` allocated the block `offset` bytes before
            // `ptr` with this same layout, and nothing else frees it.
            unsafe { park_or_free(self.ptr.sub(self.offset), Self::layout(self.len)) };
        }
        self.budget.release(self.len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::HBM;

    /// Sizes around the padding and alignment boundaries, and a large
    /// block that the allocator serves from `mmap`.
    const SIZES: [usize; 7] = [1, 15, 63, 64, 4095, 4099, 512 << 10];

    #[test]
    fn alloc_is_zeroed_aligned_and_accounted() {
        let a = NodeAllocator::new(1 << 20);
        for (n, size) in SIZES.into_iter().enumerate() {
            let buf = a.alloc(size, HBM).unwrap();
            assert_eq!(buf.len(), size);
            assert!(buf.as_slice().iter().all(|&b| b == 0), "{size}: not zeroed");
            assert_eq!(buf.as_slice().as_ptr() as usize % BUF_ALIGN, 0, "{size}");
            assert_eq!(a.used(), size as u64, "{size}: padding was debited");
            drop(buf);
            assert_eq!(a.used(), 0, "{size}: drop credited less");
            assert_eq!(a.alloc_count(), n as u64 + 1);
        }
        assert_eq!(a.peak_used(), 512 << 10);
    }

    #[test]
    fn filled_alloc_copies_its_source_and_is_accounted() {
        let a = NodeAllocator::new(1 << 20);
        for size in SIZES {
            let src: Vec<u8> = (0..size).map(|i| (i % 251) as u8 + 1).collect();
            let buf = a.alloc_filled(size, Some(&src), HBM).unwrap();
            assert_eq!(buf.as_slice(), &src[..], "{size}: copy differs");
            assert_eq!(buf.as_slice().as_ptr() as usize % BUF_ALIGN, 0, "{size}");
            assert_eq!(a.used(), size as u64, "{size}: padding was debited");
            drop(buf);
            assert_eq!(a.used(), 0, "{size}: drop credited less");
        }
        assert_eq!(a.alloc_count(), SIZES.len() as u64);
        assert!(a.alloc_filled(0, Some(&[]), HBM).unwrap().is_empty());
        let err = NodeAllocator::new(8).alloc_filled(4099, Some(&[1; 4099]), HBM);
        assert!(matches!(err, Err(MemError::CapacityExceeded { .. })));
    }

    #[test]
    fn zero_sized_alloc_is_fine() {
        let a = NodeAllocator::new(16);
        let buf = a.alloc(0, HBM).unwrap();
        assert!(buf.is_empty());
        assert_eq!(a.used(), 0);
    }

    #[test]
    fn exact_fit_succeeds_then_fails() {
        let a = NodeAllocator::new(100);
        let b = a.alloc(100, HBM).unwrap();
        assert_eq!(a.available(), 0);
        let err = a.alloc(1, HBM).unwrap_err();
        match err {
            MemError::CapacityExceeded { available, .. } => assert_eq!(available, 0),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(a.failed_alloc_count(), 1);
        drop(b);
        assert!(a.alloc(100, HBM).is_ok());
    }

    #[test]
    fn writes_persist() {
        let a = NodeAllocator::new(1 << 16);
        let mut buf = a.alloc(128, HBM).unwrap();
        for (i, b) in buf.as_mut_slice().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        assert_eq!(buf.as_slice()[7], 7);
        assert_eq!(buf.as_slice()[127], 127);
    }

    /// The layout this thread's spare slot holds, if any.
    fn parked() -> Option<Layout> {
        SPARE.with(|spare| spare.0.get().map(|(_, layout)| layout))
    }

    #[test]
    fn a_dropped_block_backs_the_next_same_size_alloc_on_its_thread() {
        let a = NodeAllocator::new(8192);
        let first = a.alloc(4096, HBM).unwrap();
        let base = first.as_slice().as_ptr();
        drop(first);
        assert_eq!(parked(), Some(AlignedBuf::layout(4096)));
        assert_eq!((a.used(), a.peak_used(), a.alloc_count()), (0, 4096, 1));

        let second = a.alloc(4096, HBM).unwrap();
        assert_eq!(second.as_slice().as_ptr(), base, "spare block not reused");
        assert_eq!(parked(), None, "a taken spare stays parked");
        assert_eq!((a.used(), a.peak_used(), a.alloc_count()), (4096, 4096, 2));

        // A copying move: the destination is allocated before its
        // source is freed, so the two blocks alternate through the slot.
        let third = a.alloc_filled(4096, Some(second.as_slice()), HBM).unwrap();
        assert_eq!((a.used(), a.peak_used(), a.alloc_count()), (8192, 8192, 3));
        drop(second);
        let fourth = a.alloc_filled(4096, Some(third.as_slice()), HBM).unwrap();
        assert_eq!(fourth.as_slice().as_ptr(), base);
        drop(third);
        drop(fourth);
        assert_eq!((a.used(), a.peak_used(), a.alloc_count()), (0, 8192, 4));
    }

    #[test]
    fn a_reused_block_comes_back_zeroed() {
        let a = NodeAllocator::new(1 << 16);
        let mut dirty = a.alloc(4096, HBM).unwrap();
        dirty.as_mut_slice().fill(0xA5);
        let base = dirty.as_slice().as_ptr();
        drop(dirty);
        let buf = a.alloc(4096, HBM).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), base, "spare block not reused");
        assert!(
            buf.as_slice().iter().all(|&b| b == 0),
            "old contents leaked"
        );
    }

    #[test]
    fn another_size_or_one_above_the_cap_is_never_served_from_the_slot() {
        let a = NodeAllocator::new(1 << 20);
        let small = a.alloc(4096, HBM).unwrap();
        let base = small.as_slice().as_ptr();
        drop(small);
        // Held to the end, so none displaces the 4096 spare.
        let mut others = Vec::new();
        for len in [4095, 4097, 8192] {
            let other = a.alloc(len, HBM).unwrap();
            assert_ne!(other.as_slice().as_ptr(), base, "{len}: served the spare");
            assert_eq!(parked(), Some(AlignedBuf::layout(4096)), "{len}: taken");
            others.push(other);
        }

        // A block above the cap is freed, not parked: the spare survives.
        let cap = SPARE_MAX - ALIGN_PAD;
        drop(a.alloc(cap + 1, HBM).unwrap());
        assert_eq!(parked(), Some(AlignedBuf::layout(4096)));
        let big = a.alloc(cap + 1, HBM).unwrap();
        assert_eq!(parked(), Some(AlignedBuf::layout(4096)));
        drop(big);

        // A block exactly at the cap is parked.
        drop(others);
        drop(a.alloc(cap, HBM).unwrap());
        assert_eq!(parked(), Some(AlignedBuf::layout(cap)));
    }

    #[test]
    fn concurrent_allocations_never_overshoot() {
        let a = std::sync::Arc::new(NodeAllocator::new(1000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = std::sync::Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                // Hold every successful allocation until the thread ends,
                // so concurrent budget pressure is real.
                let mut kept = Vec::new();
                for _ in 0..50 {
                    if let Ok(b) = a.alloc(10, HBM) {
                        assert!(a.used() <= 1000, "budget overshoot");
                        kept.push(b);
                    }
                }
                kept.len()
            }));
        }
        // Aggregate successes depend on interleaving, but the budget can
        // never be overshot and everything must be credited back.
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 100, "at least the budget's worth must succeed");
        assert_eq!(a.used(), 0); // all dropped at thread end
        assert!(a.peak_used() <= 1000);
    }
}
