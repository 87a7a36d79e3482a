//! The per-thread spare block of `AlignedBuf` leaks nothing.
//!
//! A counting global allocator tracks the live bytes of two host layouts:
//! the block behind a 4 KiB buffer, which fits the spare slot, and the
//! block behind a 128 KiB buffer, which is above the slot's cap. It runs
//! in its own test binary so that no other test's allocations share it.

use hetmem::{Memory, NodeAllocator, Topology, VirtualClock, DDR4, HBM};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

/// A 4 KiB buffer: its block fits the spare slot.
const SMALL: usize = 4 << 10;
/// A 128 KiB buffer: its block is above the spare slot's cap.
const BIG: usize = 128 << 10;
/// What `AlignedBuf` adds to a buffer's length to align its start.
const PAD: usize = 48;

static LIVE_SMALL: AtomicI64 = AtomicI64::new(0);
static LIVE_BIG: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn counter(layout: Layout) -> Option<&'static AtomicI64> {
    match layout.size() {
        n if n == SMALL + PAD => Some(&LIVE_SMALL),
        n if n == BIG + PAD => Some(&LIVE_BIG),
        _ => None,
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if let (false, Some(live)) = (ptr.is_null(), counter(layout)) {
            live.fetch_add(layout.size() as i64, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if let (false, Some(live)) = (ptr.is_null(), counter(layout)) {
            live.fetch_add(layout.size() as i64, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if let Some(live) = counter(layout) {
            live.fetch_sub(layout.size() as i64, Ordering::SeqCst);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn exiting_threads_free_their_parked_blocks() {
    const THREADS: usize = 3;
    let baseline = LIVE_SMALL.load(Ordering::SeqCst);
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mem =
                    Memory::with_clock(Topology::knl_flat_scaled(), Arc::new(VirtualClock::new()));
                let mut buf = mem.alloc_on_node(SMALL, DDR4).unwrap();
                buf.as_mut_slice().fill(t as u8 + 1);
                let id = mem.registry().register(buf, format!("block {t}"));
                let engine = mem.migration_engine();
                for _ in 0..100 {
                    engine.migrate(id, HBM, false, true).unwrap();
                    engine.migrate(id, DDR4, true, true).unwrap();
                }
                let guard = mem.registry().access(id, hetmem::AccessMode::ReadOnly);
                assert!(guard.bytes().iter().all(|&b| b == t as u8 + 1));
                drop(guard);
                drop(engine);
                drop(mem);
                // The registered block is dropped, but parked, not freed.
                barrier.wait();
                barrier.wait();
            })
        })
        .collect();
    barrier.wait();
    assert_eq!(
        LIVE_SMALL.load(Ordering::SeqCst) - baseline,
        (THREADS * (SMALL + PAD)) as i64,
        "each thread should hold exactly its one parked block"
    );
    barrier.wait();
    for worker in workers {
        worker.join().unwrap();
    }
    assert_eq!(
        LIVE_SMALL.load(Ordering::SeqCst),
        baseline,
        "thread exit left a parked block live"
    );
}

#[test]
fn a_buffer_above_the_cap_is_freed_at_its_drop() {
    let baseline = LIVE_BIG.load(Ordering::SeqCst);
    let a = NodeAllocator::new(1 << 20);
    let buf = a.alloc(BIG, HBM).unwrap();
    assert_eq!(
        LIVE_BIG.load(Ordering::SeqCst) - baseline,
        (BIG + PAD) as i64
    );
    drop(buf);
    assert_eq!(
        LIVE_BIG.load(Ordering::SeqCst),
        baseline,
        "not freed at drop"
    );
    assert_eq!(a.used(), 0);
}
