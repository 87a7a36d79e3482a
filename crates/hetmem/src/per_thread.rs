//! Per-thread slots for statistics that many threads bump.
//!
//! A counter that every worker bumps per message or per task puts one
//! cache line in every worker's path: each bump pulls the line over
//! from the core that bumped it last. [`PerThread`] gives each thread a
//! slot of its own, on lines of its own, and a reader sums the slots.
//! Each thread takes its slot once, round-robin from a process-wide
//! counter, so threads beyond [`SLOTS`] share slots; the slot's fields
//! stay atomics, and a shared slot costs only the old contention.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Slots per [`PerThread`]; a power of two, so a thread's index wraps
/// with a mask.
pub const SLOTS: usize = 16;

/// Next slot index to hand to a thread.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) & (SLOTS - 1);
}

/// This thread's slot index. A thread whose locals are already torn
/// down uses slot 0: the slots are atomics, so sharing one is safe.
fn slot_index() -> usize {
    SLOT.try_with(|slot| *slot).unwrap_or(0)
}

/// One slot on lines of its own. 128 bytes, not 64: x86's adjacent-line
/// prefetcher fetches lines in pairs, so neighbours on one 128-byte
/// pair still pull each other's line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot<T>(T);

/// [`SLOTS`] copies of `T`, one per thread slot. Writers use
/// [`PerThread::local`]; readers combine every slot, usually with
/// [`PerThread::sum`].
#[derive(Debug)]
pub struct PerThread<T> {
    slots: [Slot<T>; SLOTS],
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self {
            slots: std::array::from_fn(|_| Slot::default()),
        }
    }
}

impl<T> PerThread<T> {
    /// The calling thread's slot.
    pub fn local(&self) -> &T {
        &self.slots[slot_index() & (SLOTS - 1)].0
    }

    /// Every slot, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|slot| &slot.0)
    }

    /// The sum of `read` over every slot.
    pub fn sum(&self, read: impl Fn(&T) -> u64) -> u64 {
        self.iter().map(read).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    #[derive(Default)]
    struct Pair {
        ones: AtomicU64,
        bytes: AtomicU64,
    }

    #[test]
    fn a_thread_keeps_its_slot() {
        let counts = PerThread::<AtomicU64>::default();
        let first: *const AtomicU64 = counts.local();
        assert!(std::ptr::eq(first, counts.local()));
        counts.local().fetch_add(3, Ordering::Relaxed);
        assert_eq!(counts.sum(|c| c.load(Ordering::Relaxed)), 3);
        assert_eq!(std::mem::align_of::<Slot<u8>>(), 128);
    }

    #[test]
    fn more_threads_than_slots_sum_exactly() {
        const THREADS: u64 = 24;
        const BUMPS: u64 = 20_000;
        let counts = PerThread::<Pair>::default();
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (counts, start) = (&counts, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..BUMPS {
                        let slot = counts.local();
                        slot.ones.fetch_add(1, Ordering::Relaxed);
                        slot.bytes.fetch_add(t, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            counts.sum(|c| c.ones.load(Ordering::Relaxed)),
            THREADS * BUMPS
        );
        let bytes = BUMPS * THREADS * (THREADS - 1) / 2;
        assert_eq!(counts.sum(|c| c.bytes.load(Ordering::Relaxed)), bytes);
    }
}
