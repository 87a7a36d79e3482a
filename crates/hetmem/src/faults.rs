//! Deterministic fault injection for chaos testing.
//!
//! Real heterogeneous-memory stacks fail in ways a clean simulation
//! never exercises: `numa_migrate_pages` returns `-EAGAIN` under
//! transient pressure, allocations fail spuriously while another
//! thread's free is in flight, and DMA engines hiccup into
//! millisecond-scale latency spikes. A [`FaultInjector`] lets tests and
//! the `chaos` benchmark inject exactly those failures at the two
//! choke points of this crate — [`crate::MigrationEngine::migrate`] and
//! [`crate::Memory::alloc_on_node`] — plus IO-thread crashes in the
//! runtime layer above, all from a seeded, reproducible schedule.
//!
//! The production default is [`NoFaults`], which compiles down to
//! nothing. [`SeededFaults`] draws every decision from a splitmix64
//! stream keyed by `(seed, site, sequence-number)`, so a given seed and
//! call order replays the same schedule.

use crate::block::BlockId;
use crate::clock::TimeNs;
use crate::node::{NodeId, HBM};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an injection site should do with the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: carry on normally.
    Proceed,
    /// Stall the operation for this many nanoseconds, then carry on
    /// (a transfer latency spike).
    Delay(TimeNs),
    /// Fail the operation with [`crate::MemError::Transient`].
    Fail,
}

/// Decision source consulted at each fault-injection site.
///
/// Implementations must be cheap and thread-safe: the hooks sit on the
/// migration and allocation hot paths.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    /// Consulted at the top of [`crate::MigrationEngine::migrate`],
    /// before any state changes.
    fn on_migration(&self, _block: BlockId, _dst: NodeId) -> FaultAction {
        FaultAction::Proceed
    }

    /// Consulted by [`crate::Memory::alloc_on_node`] before debiting
    /// the node budget.
    fn on_alloc(&self, _node: NodeId, _size: usize) -> FaultAction {
        FaultAction::Proceed
    }

    /// Polled by each IO-thread loop iteration; returning true makes
    /// that thread panic (to exercise supervision/restart). Consumed:
    /// a given request fires at most once.
    fn take_io_panic(&self, _thread: usize) -> bool {
        false
    }

    /// Snapshot of what has been injected so far.
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Counts of injected faults, for assertions and reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Migration attempts failed transiently.
    pub migration_failures: u64,
    /// Allocations failed transiently.
    pub alloc_failures: u64,
    /// Latency spikes injected.
    pub delays: u64,
    /// Total injected delay (ns).
    pub delay_ns: u64,
    /// IO-thread panics triggered.
    pub io_panics: u64,
}

/// The production injector: never faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// A seeded injector with independent per-site fault rates.
///
/// Decisions are drawn from splitmix64 keyed by `(seed, site,
/// sequence)`: two runs with the same seed and the same per-site call
/// order see the same schedule. Allocation faults are restricted to
/// [`HBM`] by default so that initial (DDR4) block placement in a
/// workload under test cannot fail before the runtime is even involved;
/// use [`SeededFaults::with_alloc_fault_node`] to widen that.
pub struct SeededFaults {
    seed: u64,
    migration_fail_rate: f64,
    alloc_fail_rate: f64,
    delay_rate: f64,
    delay_ns: TimeNs,
    alloc_fault_node: Option<NodeId>,
    /// One-shot IO-thread panic requests (thread indices).
    io_panics: Mutex<Vec<usize>>,
    migration_seq: AtomicU64,
    alloc_seq: AtomicU64,
    counters: Counters,
}

#[derive(Debug, Default)]
struct Counters {
    migration_failures: AtomicU64,
    alloc_failures: AtomicU64,
    delays: AtomicU64,
    delay_ns: AtomicU64,
    io_panics: AtomicU64,
}

impl SeededFaults {
    /// A faultless injector with the given seed; enable faults with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            migration_fail_rate: 0.0,
            alloc_fail_rate: 0.0,
            delay_rate: 0.0,
            delay_ns: 0,
            alloc_fault_node: Some(HBM),
            io_panics: Mutex::new(Vec::new()),
            migration_seq: AtomicU64::new(0),
            alloc_seq: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// Fraction of migrations that fail transiently (0.0..=1.0).
    pub fn with_migration_fail_rate(mut self, rate: f64) -> Self {
        self.migration_fail_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of allocations (on the fault node) that fail
    /// transiently.
    pub fn with_alloc_fail_rate(mut self, rate: f64) -> Self {
        self.alloc_fail_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fraction of migrations stalled by `spike_ns` before proceeding.
    pub fn with_latency_spike(mut self, rate: f64, spike_ns: TimeNs) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay_ns = spike_ns;
        self
    }

    /// Restrict (or with `None`, stop restricting) allocation faults to
    /// one node. Defaults to HBM.
    pub fn with_alloc_fault_node(mut self, node: Option<NodeId>) -> Self {
        self.alloc_fault_node = node;
        self
    }

    /// Request a one-shot panic in IO thread `thread` the next time it
    /// polls the injector.
    pub fn with_io_panic(self, thread: usize) -> Self {
        self.io_panics.lock().push(thread);
        self
    }

    /// Draw a uniform sample in [0, 1) for (`site`, next sequence id).
    fn draw(&self, site: u64, seq: &AtomicU64) -> f64 {
        let n = seq.fetch_add(1, Ordering::Relaxed);
        let mut z = self
            .seed
            .wrapping_add(site.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(n.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl fmt::Debug for SeededFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeededFaults")
            .field("seed", &self.seed)
            .field("migration_fail_rate", &self.migration_fail_rate)
            .field("alloc_fail_rate", &self.alloc_fail_rate)
            .field("delay_rate", &self.delay_rate)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FaultInjector for SeededFaults {
    fn on_migration(&self, _block: BlockId, _dst: NodeId) -> FaultAction {
        let x = self.draw(1, &self.migration_seq);
        if x < self.migration_fail_rate {
            self.counters
                .migration_failures
                .fetch_add(1, Ordering::Relaxed);
            return FaultAction::Fail;
        }
        // Reuse the same draw for the (independent-rate) spike band just
        // above the failure band, keeping one draw per call.
        if x < self.migration_fail_rate + self.delay_rate {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            self.counters
                .delay_ns
                .fetch_add(self.delay_ns, Ordering::Relaxed);
            return FaultAction::Delay(self.delay_ns);
        }
        FaultAction::Proceed
    }

    fn on_alloc(&self, node: NodeId, _size: usize) -> FaultAction {
        if let Some(only) = self.alloc_fault_node {
            if node != only {
                return FaultAction::Proceed;
            }
        }
        if self.draw(2, &self.alloc_seq) < self.alloc_fail_rate {
            self.counters.alloc_failures.fetch_add(1, Ordering::Relaxed);
            return FaultAction::Fail;
        }
        FaultAction::Proceed
    }

    fn take_io_panic(&self, thread: usize) -> bool {
        let mut pending = self.io_panics.lock();
        if let Some(pos) = pending.iter().position(|&t| t == thread) {
            pending.swap_remove(pos);
            self.counters.io_panics.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn stats(&self) -> FaultStats {
        FaultStats {
            migration_failures: self.counters.migration_failures.load(Ordering::Relaxed),
            alloc_failures: self.counters.alloc_failures.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
            delay_ns: self.counters.delay_ns.load(Ordering::Relaxed),
            io_panics: self.counters.io_panics.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DDR4;

    #[test]
    fn no_faults_always_proceeds() {
        let nf = NoFaults;
        assert_eq!(nf.on_migration(BlockId(0), HBM), FaultAction::Proceed);
        assert_eq!(nf.on_alloc(HBM, 64), FaultAction::Proceed);
        assert!(!nf.take_io_panic(0));
        assert_eq!(nf.stats(), FaultStats::default());
    }

    #[test]
    fn seeded_schedule_is_reproducible() {
        let schedule = |seed| {
            let inj = SeededFaults::new(seed).with_migration_fail_rate(0.3);
            (0..64)
                .map(|i| inj.on_migration(BlockId(i), HBM))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let inj = SeededFaults::new(7).with_migration_fail_rate(0.25);
        let fails = (0..4000)
            .filter(|_| inj.on_migration(BlockId(0), HBM) == FaultAction::Fail)
            .count();
        assert!((800..1200).contains(&fails), "fails={fails}");
        assert_eq!(inj.stats().migration_failures, fails as u64);
    }

    #[test]
    fn alloc_faults_respect_node_filter() {
        let inj = SeededFaults::new(1).with_alloc_fail_rate(1.0);
        assert_eq!(inj.on_alloc(DDR4, 64), FaultAction::Proceed);
        assert_eq!(inj.on_alloc(HBM, 64), FaultAction::Fail);
        let wide = SeededFaults::new(1)
            .with_alloc_fail_rate(1.0)
            .with_alloc_fault_node(None);
        assert_eq!(wide.on_alloc(DDR4, 64), FaultAction::Fail);
    }

    #[test]
    fn latency_spikes_accumulate() {
        let inj = SeededFaults::new(3).with_latency_spike(1.0, 500);
        assert_eq!(inj.on_migration(BlockId(0), HBM), FaultAction::Delay(500));
        assert_eq!(inj.on_migration(BlockId(0), HBM), FaultAction::Delay(500));
        let s = inj.stats();
        assert_eq!(s.delays, 2);
        assert_eq!(s.delay_ns, 1000);
    }

    #[test]
    fn io_panic_is_one_shot_per_request() {
        let inj = SeededFaults::new(0).with_io_panic(1).with_io_panic(1);
        assert!(!inj.take_io_panic(0));
        assert!(inj.take_io_panic(1));
        assert!(inj.take_io_panic(1));
        assert!(!inj.take_io_panic(1));
        assert_eq!(inj.stats().io_panics, 2);
    }
}
