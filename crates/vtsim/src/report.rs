//! Simulation results.

use crate::model::SimStrategy;

/// Outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Strategy simulated.
    pub strategy: SimStrategy,
    /// Workload label.
    pub workload: String,
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
    /// Tasks completed.
    pub tasks: usize,
    /// Block fetches (DDR4 → HBM moves).
    pub fetches: u64,
    /// Bytes copied by fetches.
    pub fetch_bytes: u64,
    /// Block evictions (HBM → DDR4 moves).
    pub evictions: u64,
    /// Bytes copied by evictions.
    pub evict_bytes: u64,
    /// Total task wait between arrival and admission, ns.
    pub queue_wait_ns: u64,
    /// Per-PE busy time, ns.
    pub pe_busy_ns: Vec<u64>,
    /// Per-IO-thread busy time, ns.
    pub io_busy_ns: Vec<u64>,
    /// Total bytes through the DDR4 pipe.
    pub ddr_bytes: u64,
    /// Total bytes through the HBM pipe.
    pub hbm_bytes: u64,
}

impl SimReport {
    /// Virtual makespan in seconds.
    pub fn makespan_sec(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// Mean queue wait per task, ms.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.tasks as f64 / 1e6
        }
    }

    /// Speedup of this run relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.makespan_ns as f64 / self.makespan_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: u64) -> SimReport {
        SimReport {
            strategy: SimStrategy::Baseline,
            workload: "w".into(),
            makespan_ns: makespan,
            tasks: 10,
            fetches: 5,
            fetch_bytes: 5 << 20,
            evictions: 5,
            evict_bytes: 5 << 20,
            queue_wait_ns: 20_000_000,
            pe_busy_ns: vec![makespan / 2, makespan / 2],
            io_busy_ns: vec![],
            ddr_bytes: 1,
            hbm_bytes: 2,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(2_000_000_000);
        assert_eq!(r.makespan_sec(), 2.0);
        assert_eq!(r.mean_queue_wait_ms(), 2.0);
        let faster = report(1_000_000_000);
        assert_eq!(faster.speedup_over(&r), 2.0);
    }

    #[test]
    fn degenerate_cases() {
        let mut r = report(0);
        r.tasks = 0;
        assert_eq!(r.mean_queue_wait_ms(), 0.0);
    }
}
