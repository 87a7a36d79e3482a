//! Subsystem statistics snapshots.

use crate::node::NodeId;

/// Point-in-time statistics for one memory node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Which node.
    pub node: NodeId,
    /// Configured capacity budget (bytes).
    pub capacity_bytes: u64,
    /// Bytes currently allocated.
    pub used_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_used_bytes: u64,
    /// Successful allocations.
    pub alloc_count: u64,
    /// Allocations rejected for capacity.
    pub failed_alloc_count: u64,
    /// Total bytes streamed through the bandwidth regulator.
    pub bytes_charged: u64,
    /// Total time callers were blocked in bandwidth charges (ns).
    pub charge_wait_ns: u64,
}

/// Statistics for every node in the subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Per-node statistics, indexed by node number.
    pub nodes: Vec<NodeStats>,
}

impl MemStats {
    /// Render a compact human-readable table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("node        used/capacity        peak      charged     waited\n");
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<6} {:>10}/{:<10} {:>9} {:>12} {:>9.3}ms\n",
                n.node.to_string(),
                n.used_bytes,
                n.capacity_bytes,
                n.peak_used_bytes,
                n.bytes_charged,
                n.charge_wait_ns as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::HBM;

    fn sample() -> NodeStats {
        NodeStats {
            node: HBM,
            capacity_bytes: 100,
            used_bytes: 25,
            peak_used_bytes: 50,
            alloc_count: 3,
            failed_alloc_count: 1,
            bytes_charged: 1000,
            charge_wait_ns: 5_000_000,
        }
    }

    #[test]
    fn render_contains_fields() {
        let stats = MemStats {
            nodes: vec![sample()],
        };
        let s = stats.render();
        assert!(s.contains("node1"));
        assert!(s.contains("1000"));
    }
}
