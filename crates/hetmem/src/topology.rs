//! Topology descriptions: how many memory nodes, with what capacity and
//! bandwidth.
//!
//! [`Topology::knl_flat_scaled`] is the paper's KNL testbed (Stampede
//! 2.0, Flat / All-to-All: 16 GB MCDRAM at ~420 GB/s aggregate
//! STREAM-triad bandwidth vs 96 GB DDR4 at ~90 GB/s, the "over 4X" of
//! §III-B / Figure 1) with its *ratios* kept and its sizes scaled down by
//! `1 paper-GB : 1 sim-MB` in capacity and about a hundredfold in
//! bandwidth, so that the threaded runtime regenerates every figure in
//! wall-clock seconds on a laptop.

use crate::node::NodeId;

/// Description of a single memory node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name ("DDR4", "MCDRAM"...).
    pub name: String,
    /// Capacity budget in bytes.
    pub capacity_bytes: u64,
    /// Aggregate streaming bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Multiplier applied to traffic *written* to this node, modelling
    /// the small write-side penalty that makes HBM→DDR4 migration
    /// slightly more expensive than DDR4→HBM in the paper's Figure 7.
    pub write_penalty: f64,
}

impl NodeSpec {
    /// Convenience constructor with no write penalty.
    pub fn new(name: &str, capacity_bytes: u64, bandwidth_bytes_per_sec: u64) -> Self {
        Self {
            name: name.to_string(),
            capacity_bytes,
            bandwidth_bytes_per_sec,
            write_penalty: 1.0,
        }
    }

    /// Set the write-side penalty multiplier.
    pub fn with_write_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 1.0, "write penalty must be >= 1.0");
        self.write_penalty = penalty;
        self
    }
}

/// A full memory topology: an ordered list of nodes (index = NUMA node
/// number) plus model-wide knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    /// Charges are split into slices of this many bytes so that many
    /// concurrent streams interleave through the reservation pipe,
    /// approximating the processor-sharing behaviour of a real memory
    /// controller. Smaller slices share more fairly but cost more
    /// bookkeeping.
    slice_bytes: u64,
    /// Fixed per-charge overhead in nanoseconds (models per-transfer
    /// setup cost; keeps tiny transfers from being free).
    per_charge_overhead_ns: u64,
    /// Copy rate achievable by a *single thread* doing `memcpy`
    /// (bytes/sec). On KNL a single slow core cannot saturate the
    /// aggregate memory bandwidth (Perarnau et al., cited as [11] in
    /// the paper) — this cap is what makes one IO thread a fetch
    /// bottleneck. `None` disables the cap.
    migrate_thread_bytes_per_sec: Option<u64>,
}

pub const MIB: u64 = 1024 * 1024;

impl Topology {
    /// Build a topology from explicit node specs.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "topology needs at least one node");
        Self {
            nodes,
            slice_bytes: MIB,
            per_charge_overhead_ns: 0,
            migrate_thread_bytes_per_sec: None,
        }
    }

    /// The paper's KNL testbed scaled down for the threaded runtime
    /// (16 GB MCDRAM at 420 GB/s, 96 GB DDR4 at 90 GB/s with Figure 7's
    /// 6% write penalty, and Perarnau et al.'s 12 GB/s single-core
    /// memcpy rate): `1 paper-GB = 1 sim-MB` of capacity and
    /// `1 paper-GB/s = 1 sim-MB/s` of bandwidth, so a Figure-8 style
    /// run (32-unit working set) completes in wall-clock seconds while
    /// keeping every paper ratio: 4.67:1 node bandwidth, 6:1 capacity,
    /// and a single-thread copy rate ~1/15 of aggregate DDR4 bandwidth.
    /// Because bandwidth costs are enforced by sleeping, the shapes are
    /// host-independent — even a single host core reproduces them.
    pub fn knl_flat_scaled() -> Self {
        let mut t = Self::new(vec![
            NodeSpec::new("DDR4", 96 * MIB, 90 * MIB).with_write_penalty(1.06),
            NodeSpec::new("MCDRAM", 16 * MIB, 420 * MIB),
        ]);
        t.slice_bytes = 64 * 1024;
        t.per_charge_overhead_ns = 2_000;
        t.migrate_thread_bytes_per_sec = Some(12 * MIB);
        t
    }

    /// A scaled topology with custom capacities (still MiB-scale
    /// bandwidth model); used by experiments that sweep capacity.
    pub fn knl_flat_scaled_with(hbm_capacity: u64, ddr_capacity: u64) -> Self {
        let mut t = Self::knl_flat_scaled();
        t.nodes[0].capacity_bytes = ddr_capacity;
        t.nodes[1].capacity_bytes = hbm_capacity;
        t
    }

    /// Node specs in NUMA-number order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Spec for one node.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Charge slicing granularity (bytes).
    pub fn slice_bytes(&self) -> u64 {
        self.slice_bytes
    }

    /// Fixed per-charge overhead (ns).
    pub fn per_charge_overhead_ns(&self) -> u64 {
        self.per_charge_overhead_ns
    }

    /// Single-thread memcpy rate cap for migrations (None = uncapped).
    pub fn migrate_thread_bytes_per_sec(&self) -> Option<u64> {
        self.migrate_thread_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{DDR4, HBM};

    #[test]
    fn scaled_topology_keeps_the_papers_ratios() {
        let t = Topology::knl_flat_scaled();
        let (hbm, ddr) = (t.node(HBM), t.node(DDR4));
        // "MCDRAM has over 4X higher bandwidth than DRAM": Figure 1's
        // 420 GB/s against 90 GB/s.
        assert_eq!(
            hbm.bandwidth_bytes_per_sec * 90,
            ddr.bandwidth_bytes_per_sec * 420
        );
        // "the capacity of DDR4 is 96 GB, 6 times that of HBM" (16 GB).
        assert_eq!(hbm.capacity_bytes * 96, ddr.capacity_bytes * 16);
        assert_eq!(ddr.capacity_bytes / hbm.capacity_bytes, 6);
    }

    #[test]
    #[should_panic(expected = "write penalty")]
    fn write_penalty_below_one_rejected() {
        let _ = NodeSpec::new("x", 1, 1).with_write_penalty(0.5);
    }
}
