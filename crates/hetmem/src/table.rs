//! An append-only table with lock-free lookups.
//!
//! Runtime tables that only ever grow — registered blocks, registered
//! chare arrays — are read on every task, but written only at setup.
//! [`AppendTable`] stores entries in segments that double in size
//! (32, 64, 128, ... entries), each allocated on first use and never
//! moved or freed while the table lives. An entry is published through
//! its own `OnceLock` (a Release store that lookups read with Acquire),
//! so [`AppendTable::get`] takes no lock and clones nothing. Appends
//! are serialised by a mutex; they are rare.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Entries in the first segment; segment `k` holds `FIRST << k`.
const FIRST: usize = 32;
/// `log2(FIRST)`.
const FIRST_BITS: u32 = FIRST.trailing_zeros();
/// Enough segments for every `u32` id.
const SEGMENTS: usize = 28;

/// An append-only table: ids are dense from 0, entries never move, and
/// lookups are lock-free.
pub struct AppendTable<T> {
    segments: [OnceLock<Box<[OnceLock<T>]>>; SEGMENTS],
    /// Published entries; entries `0..len` are all set.
    len: AtomicUsize,
    /// Serialises appends.
    append: Mutex<()>,
}

impl<T> Default for AppendTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Segment and offset of entry `id`.
fn locate(id: usize) -> (usize, usize) {
    let v = id + FIRST;
    let seg = (v.ilog2() - FIRST_BITS) as usize;
    (seg, v - (FIRST << seg))
}

impl<T> AppendTable<T> {
    /// An empty table (allocates no segment yet).
    pub fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            append: Mutex::new(()),
        }
    }

    /// Append the entry `make(id)` and return its id. `make` runs while
    /// appends are serialised, so it must not append to this table.
    pub fn push_with(&self, make: impl FnOnce(usize) -> T) -> usize {
        let _append = self.append.lock();
        let id = self.len.load(Ordering::Relaxed);
        let (seg, offset) = locate(id);
        assert!(seg < SEGMENTS, "append table full at {id} entries");
        let segment =
            self.segments[seg].get_or_init(|| (0..FIRST << seg).map(|_| OnceLock::new()).collect());
        let fresh = segment[offset].set(make(id)).is_ok();
        assert!(fresh, "entry {id} published twice");
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Append `value` and return its id.
    pub fn push(&self, value: T) -> usize {
        self.push_with(|_| value)
    }

    /// The entry with id `id`, if it has been published.
    pub fn get(&self, id: usize) -> Option<&T> {
        let (seg, offset) = locate(id);
        self.segments.get(seg)?.get()?[offset].get()
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Published entries with their ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (0..self.len()).filter_map(move |id| self.get(id).map(|t| (id, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn ids_resolve_across_segment_boundaries() {
        for (id, seg, offset) in [
            (0, 0, 0),
            (31, 0, 31),
            (32, 1, 0),
            (95, 1, 63),
            (96, 2, 0),
            (223, 2, 127),
            (224, 3, 0),
        ] {
            assert_eq!(locate(id), (seg, offset), "id {id}");
        }
        let table = AppendTable::new();
        for i in 0..300u32 {
            assert_eq!(table.push(i * 7), i as usize);
        }
        assert_eq!(table.len(), 300);
        for id in [0usize, 31, 32, 95, 96, 223, 224, 299] {
            assert_eq!(table.get(id), Some(&(id as u32 * 7)), "id {id}");
        }
        assert_eq!(table.get(300), None);
        assert_eq!(table.get(1 << 40), None);
        let ids: Vec<usize> = table.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn push_with_passes_the_new_id() {
        let table = AppendTable::new();
        assert!(table.is_empty());
        assert_eq!(table.push_with(|id| id + 100), 0);
        assert_eq!(table.push_with(|id| id + 100), 1);
        assert_eq!(table.get(1), Some(&101));
    }

    #[test]
    fn lookups_stay_correct_while_one_thread_appends() {
        const N: usize = 5000;
        let table = Arc::new(AppendTable::new());
        let done = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (table, done) = (Arc::clone(&table), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let len = table.len();
                        // Every id below `len` is published with its value.
                        for id in [0, len / 2, len.saturating_sub(1)] {
                            if id < len {
                                assert_eq!(table.get(id), Some(&(id as u64 * 3)));
                                checked += 1;
                            }
                        }
                        assert!(table.get(N + FIRST).is_none());
                        if finished {
                            return checked;
                        }
                    }
                })
            })
            .collect();
        for i in 0..N {
            assert_eq!(table.push(i as u64 * 3), i);
        }
        done.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(table.len(), N);
    }
}
