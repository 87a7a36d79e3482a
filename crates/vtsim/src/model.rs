//! Simulation model types.

/// Where a simulated block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimNode {
    /// Slow, large memory (DDR4).
    Ddr,
    /// Fast, small memory (MCDRAM).
    Hbm,
}

/// One memory node's parameters.
#[derive(Debug, Clone)]
pub struct NodeModel {
    /// Capacity budget, bytes.
    pub capacity_bytes: u64,
    /// Streaming rate, bytes/sec.
    pub bandwidth_bytes_per_sec: u64,
    /// Write-side service multiplier.
    pub write_penalty: f64,
}

/// A tracked data block.
#[derive(Debug, Clone)]
pub struct SimBlock {
    /// Payload bytes.
    pub size: u64,
    /// Initial placement.
    pub home: SimNode,
}

/// Traffic one task generates against one dependence block.
#[derive(Debug, Clone, Copy)]
pub struct TaskCharge {
    /// Index into the workload's block table.
    pub block: usize,
    /// Bytes read from the block during compute.
    pub read_bytes: u64,
    /// Bytes written to the block during compute.
    pub write_bytes: u64,
    /// Whether a fetch must copy the old contents (false for
    /// write-only blocks).
    pub fetch_copies: bool,
}

/// One schedulable task (an intercepted `[prefetch]` entry method).
#[derive(Debug, Clone)]
pub struct SimTask {
    /// Home PE.
    pub pe: usize,
    /// Dependences and their traffic.
    pub charges: Vec<TaskCharge>,
    /// Fixed arithmetic time (ns) on top of memory traffic.
    pub flops_ns: u64,
    /// Indices of tasks that become runnable when this one finishes.
    pub successors: Vec<usize>,
    /// Number of predecessors that must finish first.
    pub pending: usize,
}

/// A complete task graph.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Block table.
    pub blocks: Vec<SimBlock>,
    /// Task table; tasks with `pending == 0` start at t = 0.
    pub tasks: Vec<SimTask>,
    /// Human-readable label.
    pub label: String,
}

impl Workload {
    /// Total bytes across all blocks.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.size).sum()
    }
}

/// Scheduling strategy — mirrors `hetrt_core::StrategyKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStrategy {
    /// No movement: tasks run wherever their blocks were placed.
    Baseline,
    /// Workers fetch/evict synchronously.
    SyncFetch,
    /// `threads` dedicated IO threads fetch; workers evict.
    IoThreads {
        /// IO thread count (1 = paper's single IO thread; = PEs for
        /// multiple IO threads).
        threads: usize,
    },
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// DDR4 model.
    pub ddr: NodeModel,
    /// HBM model.
    pub hbm: NodeModel,
    /// Worker PE count.
    pub pes: usize,
    /// Strategy under test.
    pub strategy: SimStrategy,
    /// Single-thread memcpy rate for fetch/evict copies (bytes/sec).
    /// One slow core cannot saturate aggregate bandwidth (the paper's
    /// ref. \[11\]); `None` disables the cap.
    pub copy_thread_rate: Option<u64>,
}

impl SimConfig {
    /// The paper's KNL testbed: 64 PEs, 16 GB MCDRAM @ 420 GB/s, 96 GB
    /// DDR4 @ 90 GB/s.
    pub fn knl_paper(strategy: SimStrategy) -> Self {
        const GIB: u64 = 1 << 30;
        #[allow(clippy::identity_op)]
        Self {
            ddr: NodeModel {
                capacity_bytes: 96 * GIB,
                bandwidth_bytes_per_sec: 90 * GIB,
                write_penalty: 1.06,
            },
            hbm: NodeModel {
                capacity_bytes: 16 * GIB,
                bandwidth_bytes_per_sec: 420 * GIB,
                write_penalty: 1.0,
            },
            pes: 64,
            strategy,
            copy_thread_rate: Some(12 * GIB),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_paper_parameters() {
        let c = SimConfig::knl_paper(SimStrategy::Baseline);
        assert_eq!(c.pes, 64);
        assert_eq!(c.hbm.capacity_bytes, 16 << 30);
        assert_eq!(c.ddr.capacity_bytes / c.hbm.capacity_bytes, 6);
        let ratio = c.hbm.bandwidth_bytes_per_sec as f64 / c.ddr.bandwidth_bytes_per_sec as f64;
        assert!(ratio > 4.0);
    }

    #[test]
    fn workload_total() {
        let w = Workload {
            blocks: vec![
                SimBlock {
                    size: 10,
                    home: SimNode::Ddr,
                },
                SimBlock {
                    size: 32,
                    home: SimNode::Hbm,
                },
            ],
            tasks: vec![],
            label: "t".into(),
        };
        assert_eq!(w.total_bytes(), 42);
    }
}
