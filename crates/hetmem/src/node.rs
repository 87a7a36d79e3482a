//! Memory node identities.
//!
//! On the paper's KNL in Flat mode, DDR4 is exposed to userspace as NUMA
//! node 0 and MCDRAM (HBM) as NUMA node 1 (§IV-C). We keep the same
//! numbering so the rest of the stack reads like the paper.

use serde::{Deserialize, Serialize};

/// Identifier of a memory node (a NUMA node in the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u8);

impl NodeId {
    /// Construct a node id.
    pub const fn new(raw: u8) -> Self {
        Self(raw)
    }

    /// The raw node number (matches the libnuma node number on KNL).
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The node number as an index into per-node tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// DDR4: the large, low-bandwidth memory — NUMA node 0 on KNL.
pub const DDR4: NodeId = NodeId::new(0);

/// MCDRAM / high-bandwidth memory — NUMA node 1 on KNL.
pub const HBM: NodeId = NodeId::new(1);

/// The *kind* of a memory node, for topologies with more than two tiers
/// (the paper's conclusion explicitly anticipates extending the mechanism
/// to other heterogeneous hierarchies, e.g. NVM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// High-bandwidth, low-capacity stacked DRAM (MCDRAM on KNL).
    HighBandwidth,
    /// Commodity DRAM: high capacity, lower bandwidth.
    Dram,
    /// Non-volatile memory: high capacity, low bandwidth *and* high
    /// latency (the related-work NVM setting, ref. \[9\] of the paper).
    Nvm,
}

impl MemKind {
    /// Short label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            MemKind::HighBandwidth => "HBM",
            MemKind::Dram => "DDR4",
            MemKind::Nvm => "NVM",
        }
    }
}

impl std::fmt::Display for MemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_numbering_matches_paper() {
        // §IV-C: "HBM is exposed to the userspace as Memory node 1 and
        // DDR4 is exposed as Memory node 0."
        assert_eq!(DDR4.raw(), 0);
        assert_eq!(HBM.raw(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(HBM.to_string(), "node1");
        assert_eq!(MemKind::HighBandwidth.to_string(), "HBM");
        assert_eq!(MemKind::Nvm.label(), "NVM");
    }

    #[test]
    fn index_round_trip() {
        for raw in 0..4u8 {
            assert_eq!(NodeId::new(raw).index(), raw as usize);
            assert_eq!(NodeId::new(raw).raw(), raw);
        }
    }
}
