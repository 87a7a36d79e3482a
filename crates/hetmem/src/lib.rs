//! `hetmem` — a software heterogeneous-memory substrate.
//!
//! This crate stands in for the Intel Knights Landing Flat-mode memory
//! system used by Chandrasekar, Ni and Kale, *"A Memory
//! Heterogeneity-Aware Runtime System for Bandwidth-Sensitive HPC
//! Applications"* (IPDPSW 2017): a small, fast MCDRAM ("HBM", numa node 1)
//! next to a large, slow DDR4 (numa node 0), with `libnuma`-style
//! allocation and `memcpy`-based migration between the two.
//!
//! Since no KNL (or dual-NUMA machine) is assumed, the two properties the
//! paper's runtime exploits are *enforced in software*:
//!
//! * **Capacity** — every node has a byte budget; allocation beyond
//!   it fails with [`MemError::CapacityExceeded`], exactly like a full
//!   16 GB MCDRAM.
//! * **Bandwidth** — every node has a [`BandwidthRegulator`]: a shared,
//!   pipelined reservation queue that all threads streaming bytes to or
//!   from the node must pass through. Concurrent tasks therefore contend
//!   for the node's aggregate bandwidth, reproducing both the ~4x
//!   HBM:DDR4 ratio and the saturation behaviour of the paper's Figure 1.
//!
//! On top of these sit:
//!
//! * [`NodeAllocator`] / [`Memory::alloc_on_node`] — the
//!   `numa_alloc_onnode` equivalent (§IV-C of the paper);
//! * [`BlockRegistry`] — runtime-tracked data blocks with residency
//!   state (`INHBM` / `INDDR` in the paper), reference counts and
//!   per-block locks, the substrate behind `CkIOHandle`;
//! * [`MigrationEngine`] — the paper's three-step move: allocate on the
//!   destination node, charged `memcpy`, free the source.
//!
//! All time handling goes through the [`Clock`] trait so that unit and
//! property tests can run against a deterministic [`VirtualClock`].

pub mod alloc;
pub mod bandwidth;
pub mod block;
pub mod checkpoint;
pub mod clock;
pub mod error;
pub mod faults;
pub mod migrate;
pub mod node;
pub mod per_thread;
pub mod stats;
pub mod table;
pub mod topology;

pub use alloc::{AlignedBuf, NodeAllocator};
pub use bandwidth::{BandwidthRegulator, ChargeOutcome};
pub use block::{
    AccessGuard, AccessMode, BlockEvent, BlockId, BlockInfo, BlockObserver, BlockRegistry, Pod,
};
pub use checkpoint::{
    read_checkpoint, restore_into, write_checkpoint, BlockRecord, CheckpointImage,
    CheckpointSummary, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use clock::{Clock, MonotonicClock, TimeNs, VirtualClock};
pub use error::MemError;
pub use faults::{FaultAction, FaultInjector, FaultStats, NoFaults, SeededFaults};
pub use migrate::MigrationEngine;
pub use node::{NodeId, DDR4, HBM};
pub use per_thread::PerThread;
pub use stats::{MemStats, NodeStats};
pub use table::AppendTable;
pub use topology::{NodeSpec, Topology};

use std::sync::Arc;

/// The assembled heterogeneous-memory subsystem: one allocator and one
/// bandwidth regulator per node, plus the shared block registry.
///
/// This is the façade the runtime crates use; it corresponds to "what the
/// OS + libnuma + the memory controllers give you" on the paper's KNL
/// testbed.
pub struct Memory {
    topology: Topology,
    nodes: Vec<NodePlane>,
    registry: BlockRegistry,
    clock: Arc<dyn Clock>,
    faults: Arc<dyn FaultInjector>,
}

/// Per-node backing resources.
struct NodePlane {
    allocator: NodeAllocator,
    regulator: BandwidthRegulator,
}

impl Memory {
    /// Build a memory subsystem from a topology description, using the
    /// real monotonic clock.
    pub fn new(topology: Topology) -> Arc<Self> {
        Self::with_clock(topology, Arc::new(MonotonicClock::new()))
    }

    /// Build with a fault injector for chaos testing (real clock).
    pub fn with_faults(topology: Topology, faults: Arc<dyn FaultInjector>) -> Arc<Self> {
        Self::with_clock_and_faults(topology, Arc::new(MonotonicClock::new()), faults)
    }

    /// Build with an explicit clock (tests use [`VirtualClock`]).
    pub fn with_clock(topology: Topology, clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::with_clock_and_faults(topology, clock, Arc::new(NoFaults))
    }

    /// Build with both an explicit clock and a fault injector.
    pub fn with_clock_and_faults(
        topology: Topology,
        clock: Arc<dyn Clock>,
        faults: Arc<dyn FaultInjector>,
    ) -> Arc<Self> {
        let nodes = topology
            .nodes()
            .iter()
            .map(|spec| NodePlane {
                allocator: NodeAllocator::new(spec.capacity_bytes),
                regulator: BandwidthRegulator::new(
                    spec.bandwidth_bytes_per_sec,
                    topology.slice_bytes(),
                    clock.clone(),
                )
                .with_write_penalty(spec.write_penalty)
                .with_overhead_ns(topology.per_charge_overhead_ns()),
            })
            .collect();
        Arc::new(Self {
            topology,
            nodes,
            registry: BlockRegistry::new(),
            clock,
            faults,
        })
    }

    /// The topology this subsystem was built from.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The clock driving bandwidth accounting.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The fault injector consulted on allocation and migration
    /// ([`NoFaults`] unless built via a `with_*faults` constructor).
    pub fn faults(&self) -> &Arc<dyn FaultInjector> {
        &self.faults
    }

    /// The shared block registry (the `CkIOHandle` metadata store).
    pub fn registry(&self) -> &BlockRegistry {
        &self.registry
    }

    /// The allocator for `node`.
    pub fn allocator(&self, node: NodeId) -> &NodeAllocator {
        &self.nodes[node.index()].allocator
    }

    /// The bandwidth regulator for `node`.
    pub fn regulator(&self, node: NodeId) -> &BandwidthRegulator {
        &self.nodes[node.index()].regulator
    }

    /// `numa_alloc_onnode` equivalent: allocate `size` bytes on `node`,
    /// failing if the node's capacity budget would be exceeded.
    pub fn alloc_on_node(&self, size: usize, node: NodeId) -> Result<AlignedBuf, MemError> {
        self.alloc_filled(size, None, node)
    }

    /// [`Memory::alloc_on_node`], holding a copy of `src` (of `size`
    /// bytes) instead of zeroes if given.
    pub(crate) fn alloc_filled(
        &self,
        size: usize,
        src: Option<&[u8]>,
        node: NodeId,
    ) -> Result<AlignedBuf, MemError> {
        match self.faults.on_alloc(node, size) {
            FaultAction::Proceed => {}
            FaultAction::Delay(ns) => {
                self.clock.sleep(ns);
            }
            FaultAction::Fail => {
                return Err(MemError::Transient {
                    op: "alloc",
                    block: None,
                })
            }
        }
        let allocator = &self.nodes[node.index()].allocator;
        allocator.alloc_filled(size, src, node)
    }

    /// Charge `bytes` of streaming traffic against `node`'s bandwidth,
    /// blocking until the node's reservation pipe has drained them.
    ///
    /// This is what makes a task whose data lives in DDR4 genuinely
    /// slower than one reading from HBM.
    pub fn charge(&self, node: NodeId, bytes: u64) -> ChargeOutcome {
        self.nodes[node.index()].regulator.charge(bytes)
    }

    /// A migration engine bound to this memory subsystem.
    pub fn migration_engine(self: &Arc<Self>) -> MigrationEngine {
        MigrationEngine::new(Arc::clone(self))
    }

    /// Snapshot of per-node occupancy and traffic statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, plane)| NodeStats {
                    node: NodeId::new(i as u8),
                    capacity_bytes: self.topology.nodes()[i].capacity_bytes,
                    used_bytes: plane.allocator.used(),
                    peak_used_bytes: plane.allocator.peak_used(),
                    alloc_count: plane.allocator.alloc_count(),
                    failed_alloc_count: plane.allocator.failed_alloc_count(),
                    bytes_charged: plane.regulator.bytes_charged(),
                    charge_wait_ns: plane.regulator.total_wait_ns(),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("topology", &self.topology)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_wires_nodes() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        assert_eq!(mem.topology().nodes().len(), 2);
        assert!(
            mem.topology().nodes()[HBM.index()].bandwidth_bytes_per_sec
                > mem.topology().nodes()[DDR4.index()].bandwidth_bytes_per_sec
        );
    }

    #[test]
    fn alloc_and_free_round_trip() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        let buf = mem.alloc_on_node(4096, HBM).unwrap();
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 4096);
        drop(buf);
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 0);
    }

    #[test]
    fn injected_alloc_fault_is_transient_and_charges_nothing() {
        let faults = Arc::new(SeededFaults::new(1).with_alloc_fail_rate(1.0));
        let mem = Memory::with_faults(Topology::knl_flat_scaled(), faults);
        let err = mem.alloc_on_node(4096, HBM).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 0);
        // DDR4 is outside the default fault node filter.
        assert!(mem.alloc_on_node(4096, DDR4).is_ok());
    }

    #[test]
    fn capacity_budget_is_enforced() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        let cap = mem.topology().nodes()[HBM.index()].capacity_bytes;
        let _big = mem.alloc_on_node(cap as usize, HBM).unwrap();
        let err = mem.alloc_on_node(1, HBM).unwrap_err();
        assert!(matches!(err, MemError::CapacityExceeded { .. }));
    }
}
