//! Block migration: the paper's §IV-C data-movement methodology.
//!
//! > "We use two operations to allow data movement across HBM and DDR4:
//! > create space in destination memory and then move the data to the
//! > destination location. Here move itself is a two step process,
//! > consisting of copy to destination and then freeing the source."
//!
//! [`MigrationEngine::migrate`] implements exactly that: allocate on
//! `dst` → charged `memcpy` → free source, updating the registry's
//! residency state around it. The `memcpy` is a real byte copy, done as
//! the destination is allocated, *and* is charged against both nodes' bandwidth regulators (read from the
//! source, penalised write to the destination), which is what produces
//! the Figure 7 cost curves.

use crate::block::BlockId;
use crate::clock::TimeNs;
use crate::error::MemError;
use crate::faults::FaultAction;
use crate::node::NodeId;
use crate::Memory;
use std::sync::Arc;

/// Moves registered blocks between memory nodes.
pub struct MigrationEngine {
    mem: Arc<Memory>,
}

impl MigrationEngine {
    /// An engine over `mem`'s nodes and registry.
    pub fn new(mem: Arc<Memory>) -> Self {
        Self { mem }
    }

    /// Move block `id` to node `dst`.
    ///
    /// `require_unreferenced` should be true for evictions (the paper
    /// only evicts blocks whose reference count is zero) and false for
    /// fetches. `copy_contents` should be false only for `writeonly`
    /// dependences, whose old bytes the kernel never reads.
    ///
    /// Returns the duration of the move. Fails without changing
    /// residency if the destination has no capacity.
    pub fn migrate(
        &self,
        id: BlockId,
        dst: NodeId,
        require_unreferenced: bool,
        copy_contents: bool,
    ) -> Result<TimeNs, MemError> {
        self.migrate_span(id, dst, require_unreferenced, copy_contents)
            .map(|(start, end)| end - start)
    }

    /// [`MigrationEngine::migrate`], returning the clock readings at its
    /// start and end, so a caller can record the move as a span without
    /// reading the clock again.
    ///
    /// Each clock reading anchors what follows it. The read charge is
    /// issued at the start reading (or at an injected delay's wake time),
    /// so the real allocation and `memcpy` overlap the modeled copy; the
    /// write charge is issued when the read charge wakes, and the move
    /// ends at the last wake. An uncapped copying move thus reads the
    /// clock three times: the start and one sleep per charge. The
    /// copy-rate cap adds its own sleep.
    pub fn migrate_span(
        &self,
        id: BlockId,
        dst: NodeId,
        require_unreferenced: bool,
        copy_contents: bool,
    ) -> Result<(TimeNs, TimeNs), MemError> {
        let clock = self.mem.clock();
        let t0 = clock.now();

        // Fault injection happens before any registry state changes, so
        // a failed attempt leaves the block exactly where it was.
        let issued_at = match self.mem.faults().on_migration(id, dst) {
            FaultAction::Proceed => t0,
            FaultAction::Delay(ns) => clock.sleep_until(t0.saturating_add(ns)),
            FaultAction::Fail => {
                return Err(MemError::Transient {
                    op: "migrate",
                    block: Some(id.0 as u64),
                })
            }
        };

        let registry = self.mem.registry();
        let (src_buf, src_node) = registry.begin_move(id, dst, require_unreferenced)?;
        let size = src_buf.len();
        let copy = copy_contents && size > 0;

        // Step 1: create space in the destination memory, as a copy of
        // the source if the contents move.
        let src_bytes = copy.then(|| src_buf.as_slice());
        let dst_buf = match self.mem.alloc_filled(size, src_bytes, dst) {
            Ok(b) => b,
            Err(e) => {
                registry.abort_move(id, src_buf);
                return Err(e);
            }
        };

        // Step 2: charge the memcpy against both memory controllers and
        // against the copying *thread*'s own rate — a single core
        // cannot saturate the aggregate bandwidth (Perarnau et al.,
        // the paper's [11]), which is exactly why one IO thread is a
        // fetch bottleneck while many are not.
        let end = if copy {
            let read = self
                .mem
                .regulator(src_node)
                .charge_at(issued_at, size as u64);
            let write = self
                .mem
                .regulator(dst)
                .charge_write_at(read.completed_at, size as u64);
            match self.mem.topology().migrate_thread_bytes_per_sec() {
                Some(rate) => {
                    let thread_ns = (size as f64 * 1e9 / rate as f64).ceil() as u64;
                    clock.sleep_until(read.issued_at + thread_ns)
                }
                None => write.completed_at,
            }
        } else {
            clock.now()
        };

        // Step 3: free the source (numa_free).
        drop(src_buf);

        registry.complete_move(id, dst_buf);

        Ok((t0, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;
    use crate::node::NodeId;
    use crate::node::{DDR4, HBM};
    use crate::topology::{NodeSpec, Topology};
    use crate::{AccessMode, BlockEvent, VirtualClock};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_mem() -> Arc<Memory> {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000).with_write_penalty(1.06),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        Memory::with_clock(topo, Arc::new(VirtualClock::new()))
    }

    /// A registered DDR4 block of `len` patterned (non-zero) bytes.
    fn patterned_block(mem: &Arc<Memory>, len: usize) -> (BlockId, Vec<u8>) {
        let pattern: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        let mut buf = mem.alloc_on_node(len, DDR4).unwrap();
        buf.as_mut_slice().copy_from_slice(&pattern);
        (mem.registry().register(buf, "m"), pattern)
    }

    #[test]
    fn migrate_moves_bytes_and_accounting() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        // An odd size, so the copy-on-allocate destination has a tail
        // past the last whole word.
        let (id, pattern) = patterned_block(&mem, 1027);

        let dt = engine.migrate(id, HBM, true, true).unwrap();
        assert!(dt > 0);
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        assert_eq!(mem.stats().nodes[DDR4.index()].used_bytes, 0);
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 1027);
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert_eq!(
            g.bytes(),
            &pattern[..],
            "destination differs from its source"
        );
        drop(g);
        // And back: the eviction's destination is a copy too.
        engine.migrate(id, DDR4, true, true).unwrap();
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert_eq!(g.bytes(), &pattern[..]);
    }

    #[test]
    fn migrate_charges_both_nodes() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(4096, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        engine.migrate(id, HBM, true, true).unwrap();
        let stats = mem.stats();
        assert_eq!(stats.nodes[DDR4.index()].bytes_charged, 4096);
        assert_eq!(stats.nodes[HBM.index()].bytes_charged, 4096);
    }

    #[test]
    fn hbm_to_ddr_costs_more_than_ddr_to_hbm() {
        // Figure 7: "memcpy costs for HBM to DDR4 to be slightly higher"
        // — the slow node's rate dominates, and its write penalty makes
        // the write direction worse.
        let mem = small_mem();
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(32 * 1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let to_hbm = engine.migrate(id, HBM, true, true).unwrap();
        let to_ddr = engine.migrate(id, DDR4, true, true).unwrap();
        assert!(
            to_ddr > to_hbm,
            "to_ddr={to_ddr} should exceed to_hbm={to_hbm}"
        );
    }

    #[test]
    fn migrate_fails_cleanly_when_destination_full() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        // Fill HBM completely.
        let hog = mem.alloc_on_node(1 << 16, HBM).unwrap();
        let buf = mem.alloc_on_node(1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let err = engine.migrate(id, HBM, true, true).unwrap_err();
        assert!(matches!(err, MemError::CapacityExceeded { .. }));
        // Residency restored; block still usable.
        assert_eq!(mem.registry().node_of(id), Some(DDR4));
        assert_eq!(mem.stats().nodes[HBM.index()].failed_alloc_count, 1);
        drop(hog);
        assert!(engine.migrate(id, HBM, true, true).is_ok());
    }

    #[test]
    fn writeonly_fetch_skips_copy_charges() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        let (id, _) = patterned_block(&mem, 2048);
        engine.migrate(id, HBM, false, false).unwrap();
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        // No bytes were charged: the contents were not transferred.
        assert_eq!(mem.stats().nodes[DDR4.index()].bytes_charged, 0);
        assert_eq!(mem.stats().nodes[HBM.index()].bytes_charged, 0);
        // Nor copied: the destination is a fresh zeroed buffer.
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert!(
            g.bytes().iter().all(|&b| b == 0),
            "a WriteOnly fetch copied bytes"
        );
    }

    #[test]
    fn injected_migration_fault_leaves_block_usable() {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        let faults = Arc::new(
            crate::SeededFaults::new(11)
                .with_migration_fail_rate(1.0)
                .with_alloc_fault_node(None),
        );
        let mem =
            Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults.clone());
        let engine = mem.migration_engine();
        let mut buf = mem.alloc_on_node(1024, DDR4).unwrap();
        buf.as_mut_slice()[9] = 42;
        let id = mem.registry().register(buf, "m");

        let err = engine.migrate(id, HBM, true, true).unwrap_err();
        assert!(err.is_transient());
        // Residency untouched, contents intact, and the failure came
        // from the injector, not from a full or touched destination.
        assert_eq!(mem.registry().node_of(id), Some(DDR4));
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert_eq!(g.bytes()[9], 42);
        drop(g);
        let hbm = &mem.stats().nodes[HBM.index()];
        assert_eq!(hbm.failed_alloc_count, 0);
        assert_eq!(hbm.alloc_count, 0);
        assert_eq!(faults.stats().migration_failures, 1);
    }

    #[test]
    fn injected_latency_spike_slows_but_completes() {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        let faults = Arc::new(crate::SeededFaults::new(5).with_latency_spike(1.0, 1_000_000));
        let mem =
            Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults.clone());
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let dt = engine.migrate(id, HBM, true, true).unwrap();
        assert!(dt >= 1_000_000, "spike not charged: dt={dt}");
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        assert_eq!(faults.stats().delay_ns, 1_000_000);
    }

    /// Checks, under the slot lock, that the lock-free residency
    /// mirror already shows every residency change it is told about.
    /// Mismatches are counted rather than panicked on, so a failure
    /// cannot wedge the movers' barrier.
    struct MirrorCheck {
        mem: std::sync::Weak<Memory>,
        checked: AtomicU64,
        mismatched: AtomicU64,
    }

    impl crate::block::BlockObserver for MirrorCheck {
        fn on_event(&self, event: BlockEvent) {
            match event {
                BlockEvent::MoveBegin { block, .. } => self.expect(block, None),
                BlockEvent::MoveComplete { block, node }
                | BlockEvent::MoveAbort { block, node } => {
                    self.expect(block, Some(node));
                }
                _ => {}
            }
        }
    }

    impl MirrorCheck {
        fn expect(&self, block: BlockId, node: Option<NodeId>) {
            let mem = self.mem.upgrade().expect("memory outlives its moves");
            if mem.registry().node_of(block) != node {
                self.mismatched.fetch_add(1, Ordering::Relaxed);
            }
            self.checked.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn residency_mirror_agrees_with_info_through_a_move_storm() {
        const BLOCKS: usize = 8;
        const THREADS: usize = 4;
        const ROUNDS: usize = 40;
        // Room in HBM for half the blocks, so some fetches abort.
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1 << 55),
            NodeSpec::new("HBM", (BLOCKS as u64 / 2) * 256, 1 << 55),
        ]);
        let mem = Memory::with_clock(topo, Arc::new(crate::MonotonicClock::new()));
        let check = Arc::new(MirrorCheck {
            mem: Arc::downgrade(&mem),
            checked: AtomicU64::new(0),
            mismatched: AtomicU64::new(0),
        });
        mem.registry().set_observer(check.clone());
        let ids: Vec<BlockId> = (0..BLOCKS).map(|_| patterned_block(&mem, 256).0).collect();
        let engine = Arc::new(mem.migration_engine());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS + 1));
        let movers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, ids, barrier) =
                    (Arc::clone(&engine), ids.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let mut x = t as u64 * 0x9E37_79B9 + 1;
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for _ in 0..50 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let id = ids[x as usize % BLOCKS];
                            // Fetch or evict; racing moves of the same
                            // block fail with InvalidState, full HBM
                            // with CapacityExceeded. Both are expected.
                            let dst = if x.is_multiple_of(2) { HBM } else { DDR4 };
                            let _ = engine.migrate(id, dst, dst == DDR4, true);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for _ in 0..ROUNDS {
            // Mid-round, `MirrorCheck` compares at every residency
            // change; between rounds nothing moves and all must agree.
            barrier.wait();
            barrier.wait();
            assert_eq!(
                check.mismatched.load(Ordering::Relaxed),
                0,
                "mirror lagged a move"
            );
            for &id in &ids {
                let info = mem.registry().info(id);
                assert_eq!(mem.registry().node_of(id), info.residency.node(), "{id}");
                assert!(info.residency.node().is_some(), "{id} left mid-move");
            }
        }
        for m in movers {
            m.join().unwrap();
        }
        assert!(
            check.checked.load(Ordering::Relaxed) > 0,
            "no move was checked"
        );
    }
}
