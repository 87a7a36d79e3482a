//! Per-node buffer pools.
//!
//! §IV-C of the paper: *"The creating of space in destination memory
//! could be avoided if we maintain a memory pool in each memory type. We
//! plan to perform this optimization in the future to further reduce the
//! overhead of prefetch."* — this module implements that future work, and
//! the `ablation_mempool` benchmark measures what it buys.
//!
//! The pool is a size-keyed freelist: buffers returned via
//! [`MemoryPool::put`] keep their node budget reserved and are handed
//! back by [`MemoryPool::take`] for exact-size matches, skipping both the
//! allocation and the free of the paper's three-step move.

use crate::alloc::AlignedBuf;
use parking_lot::Mutex;
use std::collections::HashMap;

/// A freelist of retired buffers for one memory node.
#[derive(Debug, Default)]
pub struct MemoryPool {
    by_size: Mutex<HashMap<usize, Vec<AlignedBuf>>>,
}

impl MemoryPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an exact-size buffer if one is pooled.
    pub fn take(&self, size: usize) -> Option<AlignedBuf> {
        self.by_size.lock().get_mut(&size).and_then(Vec::pop)
    }

    /// Return a buffer to the pool (keeps its budget reserved).
    pub fn put(&self, buf: AlignedBuf) {
        let mut map = self.by_size.lock();
        map.entry(buf.len()).or_default().push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::NodeAllocator;
    use crate::node::HBM;

    #[test]
    fn take_from_empty_pool_misses() {
        let pool = MemoryPool::new();
        assert!(pool.take(64).is_none());
    }

    #[test]
    fn put_take_round_trip_exact_size() {
        let alloc = NodeAllocator::new(1 << 16);
        let pool = MemoryPool::new();
        pool.put(alloc.alloc(128, HBM).unwrap());
        // Budget stays reserved while pooled.
        assert_eq!(alloc.used(), 128);
        assert!(pool.take(64).is_none(), "size must match exactly");
        let buf = pool.take(128).unwrap();
        assert_eq!(buf.len(), 128);
        assert!(pool.take(128).is_none(), "the one pooled buffer was taken");
    }

    #[test]
    fn dropping_the_pool_releases_budget() {
        let alloc = NodeAllocator::new(1 << 16);
        let pool = MemoryPool::new();
        pool.put(alloc.alloc(256, HBM).unwrap());
        pool.put(alloc.alloc(256, HBM).unwrap());
        assert_eq!(alloc.used(), 512);
        drop(pool);
        assert_eq!(alloc.used(), 0);
    }
}
