//! Configuration of the memory-aware runtime.

/// Which of the paper's scheduling strategies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// No prefetch/evict hook at all. `[prefetch]` entries execute
    /// directly wherever their data was placed — the paper's *Naive*
    /// and *DDR4only* baselines (which baseline depends on the
    /// [`Placement`](crate::Placement) used at allocation time).
    Baseline,
    /// "Multiple queues, no IO thread": each worker fetches and evicts
    /// its own task's blocks synchronously in pre/post-processing.
    SyncFetch,
    /// "Multiple queues, N IO threads": dedicated IO threads fetch and
    /// workers evict, asynchronously. `threads == 1` is the paper's
    /// *Single IO thread* strategy; `threads == pes` is *Multiple IO
    /// threads*; anything between is the planned "IO thread per
    /// subgroup of wait queues".
    IoThreads {
        /// Number of IO threads.
        threads: usize,
    },
    /// HBM as a direct-mapped, demand-filled block cache over DDR4 —
    /// the KNL *cache mode* whose comparison the paper defers to future
    /// work (§VI). No prefetch: misses fill on the worker's critical
    /// path; conflicts against in-use sets bypass to DDR4.
    CacheMode {
        /// Number of direct-mapped sets.
        sets: usize,
    },
}

impl StrategyKind {
    /// The paper's *Single IO thread* configuration.
    pub fn single_io() -> Self {
        StrategyKind::IoThreads { threads: 1 }
    }

    /// The paper's *Multiple IO threads* configuration (one per PE).
    pub fn multi_io(pes: usize) -> Self {
        StrategyKind::IoThreads { threads: pes }
    }

    /// Human-readable label used in experiment reports.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Baseline => "baseline".into(),
            StrategyKind::SyncFetch => "no-io-thread(sync)".into(),
            StrategyKind::IoThreads { threads: 1 } => "single-io-thread".into(),
            StrategyKind::IoThreads { threads } => format!("io-threads({threads})"),
            StrategyKind::CacheMode { sets } => format!("cache-mode({sets})"),
        }
    }
}

/// When blocks move back to slow memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// The paper's policy: at task completion, evict each of the task's
    /// dependences whose reference count dropped to zero.
    #[default]
    OnComplete,
    /// Ablation: leave blocks in HBM at completion; evict
    /// least-recently-used zero-refcount blocks only when a fetch needs
    /// space. Favours workloads with heavy reuse (matmul).
    LruOnDemand,
}

/// Wait-queue layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WaitQueueTopology {
    /// One wait queue per PE — the paper's choice, explicitly motivated
    /// by load balance (§IV-B: "we avoid such load imbalance by having
    /// one queue per PE, so that the IO thread can serve same number of
    /// requests for each wait queue at a time").
    #[default]
    PerPe,
    /// Ablation A1: a single shared wait queue, exhibiting the
    /// imbalance the paper describes ("the IO thread prefetches data
    /// for n tasks on PE0 instead of fetching data for n tasks on n
    /// PEs").
    SharedSingle,
}

/// Full configuration of the memory-aware layer. The fast and slow
/// nodes are always [`hetmem::HBM`] and [`hetmem::DDR4`], and the
/// fault-tolerance tuning is fixed: `MAX_FETCH_RETRIES` and
/// `BACKOFF_BASE_NS` in the fetch engine, `WATCHDOG_STALL_MS` and
/// `IO_RESTART_BUDGET` in the IO-thread supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OocConfig {
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Wait-queue layout.
    pub wait_queues: WaitQueueTopology,
    /// Route admitted tasks to the least-loaded PE's run queue instead
    /// of the chare's home PE (the paper's planned "node-level run
    /// queue" — ablation A3).
    pub node_level_run_queue: bool,
    /// Periodic checkpoint policy for iterative drivers: checkpoint
    /// every N iterations. 0 disables periodic checkpoints (explicit
    /// [`crate::OocRuntime::checkpoint`] calls still work). The
    /// runtime itself has no iteration notion — drivers consult this
    /// via [`crate::OocRuntime::should_checkpoint`].
    pub checkpoint_every: u64,
}

impl Default for OocConfig {
    fn default() -> Self {
        Self {
            eviction: EvictionPolicy::OnComplete,
            wait_queues: WaitQueueTopology::PerPe,
            node_level_run_queue: false,
            checkpoint_every: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels() {
        assert_eq!(StrategyKind::Baseline.label(), "baseline");
        assert_eq!(StrategyKind::single_io().label(), "single-io-thread");
        assert_eq!(StrategyKind::multi_io(8).label(), "io-threads(8)");
        assert_eq!(StrategyKind::SyncFetch.label(), "no-io-thread(sync)");
        assert_eq!(
            StrategyKind::CacheMode { sets: 16 }.label(),
            "cache-mode(16)"
        );
    }

    #[test]
    fn defaults_match_paper() {
        let c = OocConfig::default();
        assert_eq!(c.eviction, EvictionPolicy::OnComplete);
        assert_eq!(c.wait_queues, WaitQueueTopology::PerPe);
        assert!(!c.node_level_run_queue);
        assert_eq!(c.checkpoint_every, 0, "periodic checkpoints are opt-in");
    }
}
