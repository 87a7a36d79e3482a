//! Shared fetch/evict machinery used by every scheduling strategy.
//!
//! The [`FetchEngine`] is Algorithm 1 of the paper, factored out of the
//! strategies:
//!
//! ```text
//! while space remains in HBM:
//!     pop first task in wait queue
//!     bring in data for task
//!     if all data for task in HBM: add task to run queue
//!     else: bring in remaining data
//! data blocks not in use are evicted to DDR4
//! ```
//!
//! Reference-count discipline: dependences are `add_ref`ed **before**
//! fetching (so nothing evicts them between fetch and execution) and
//! released at completion; blocks whose count returns to zero are
//! evicted (paper policy) or left for LRU-on-demand eviction (ablation).
//!
//! Every method that can move a block or wait takes the caller's latest
//! clock reading as `now: &mut TimeNs` and leaves in it the last reading
//! it made: the end of its last move, block wait or backoff sleep. Each
//! move and each wait still reads its own start, so a `Fetch`, `Evict`
//! or `BlockWait` span times exactly that move or wait.

use crate::config::{EvictionPolicy, OocConfig};
use crate::stats::StatCells;
use converse::Dep;
use hetmem::{MemError, Memory, MigrationEngine, TimeNs, DDR4, HBM};
use projections::{SpanKind, Tracer};
use std::sync::Arc;

/// Why a fetch could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// HBM has no room even after permitted evictions; retry after a
    /// task completes and frees space.
    NoSpace,
    /// Transient migration faults persisted past `MAX_FETCH_RETRIES`
    /// retries; the caller should run the task degraded from DDR4
    /// rather than wedge the wait queue.
    Exhausted {
        /// The block whose fetch kept faulting.
        block: u64,
        /// Retries performed before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::NoSpace => write!(f, "no space in HBM (retry after eviction)"),
            FetchError::Exhausted { block, attempts } => write!(
                f,
                "fetch of block {block} still faulting after {attempts} retries"
            ),
        }
    }
}

impl std::error::Error for FetchError {}

/// How many times a fetch retries a transiently-failed migration (see
/// [`MemError::Transient`]) before the task gives up on HBM and runs
/// degraded from DDR4.
pub(crate) const MAX_FETCH_RETRIES: u32 = 4;

/// Base delay for exponential backoff between transient-fault retries:
/// retry *n* waits `BACKOFF_BASE_NS << n` (see [`backoff_delay_ns`]).
const BACKOFF_BASE_NS: u64 = 10_000; // 10 µs

/// Cap on a single backoff sleep, so a large base cannot stall an IO
/// thread for longer than the watchdog deadline.
pub const BACKOFF_CAP_NS: u64 = 10_000_000; // 10 ms

/// Delay before retry `attempt` (0-based) of a transiently-failed
/// fetch: `base << attempt`, saturating, capped at [`BACKOFF_CAP_NS`].
pub fn backoff_delay_ns(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(20))
        .min(BACKOFF_CAP_NS)
}

/// Fetch/evict executor bound to one memory subsystem.
pub struct FetchEngine {
    mem: Arc<Memory>,
    engine: MigrationEngine,
    config: OocConfig,
    stats: Arc<StatCells>,
}

impl FetchEngine {
    /// Build an engine for `mem` under `config`.
    pub fn new(mem: Arc<Memory>, config: OocConfig, stats: Arc<StatCells>) -> Self {
        Self {
            engine: MigrationEngine::new(Arc::clone(&mem)),
            mem,
            config,
            stats,
        }
    }

    /// The memory subsystem.
    pub fn memory(&self) -> &Arc<Memory> {
        &self.mem
    }

    /// Bytes of HBM still available under its budget.
    pub fn hbm_available(&self) -> u64 {
        self.mem.allocator(HBM).available()
    }

    /// Whether `deps` (totalling `needed` bytes) certainly cannot all be
    /// brought into HBM now: the bytes of those resident outside HBM
    /// exceed what HBM has free. Lock-free and pins nothing, so an
    /// admission can be refused before it takes a reference.
    ///
    /// It never refuses a task a full attempt would admit: a block in
    /// HBM or mid-move counts 0 bytes and a repeated block counts once.
    /// It answers `false` under on-demand LRU eviction, where a fetch
    /// can find space that `hbm_available` does not show.
    pub(crate) fn cannot_fit(&self, deps: &[Dep], needed: u64) -> bool {
        if self.config.eviction == EvictionPolicy::LruOnDemand {
            return false;
        }
        let available = self.hbm_available();
        if needed <= available {
            return false;
        }
        let registry = self.mem.registry();
        let mut missing = 0u64;
        for (i, d) in deps.iter().enumerate() {
            let outside = matches!(registry.node_of(d.block), Some(node) if node != HBM);
            if outside && !deps[..i].iter().any(|e| e.block == d.block) {
                missing += registry.size_of(d.block) as u64;
            }
        }
        missing > available
    }

    /// Reference every dependence of a task (call before fetching).
    pub fn add_refs(&self, deps: &[Dep]) {
        for d in deps {
            self.mem.registry().add_ref(d.block);
        }
    }

    /// Release references taken by [`FetchEngine::add_refs`].
    pub fn release_refs(&self, deps: &[Dep]) {
        for d in deps {
            self.mem.registry().release_ref(d.block);
        }
    }

    /// Roll back a refused admission: release the task's references
    /// and evict its unreferenced blocks, as after a completion.
    /// Returns whether the task held the last reference to a block that
    /// was not in DDR4 — HBM space it pinned during the attempt, which
    /// a concurrent admission may have been refused for.
    pub(crate) fn roll_back(
        &self,
        deps: &[Dep],
        tracer: &Tracer,
        tag: u32,
        now: &mut TimeNs,
    ) -> bool {
        let registry = self.mem.registry();
        let mut unpinned = false;
        for d in deps {
            if registry.release_ref(d.block) == 0 {
                unpinned |= registry.node_of(d.block) != Some(DDR4);
            }
        }
        self.evict_unreferenced(deps, tracer, tag, now);
        unpinned
    }

    /// Bring every dependence of a task into HBM. Returns `Ok(())` when
    /// all blocks are resident in HBM; `Err(NoSpace)` if capacity ran
    /// out part-way (already-fetched blocks stay resident — the paper's
    /// IO thread likewise "brings in remaining data" on a later pass).
    /// A task larger than HBM never gets here: the admission guard runs
    /// it degraded (see [`FetchEngine::hbm_task_capacity`]).
    ///
    /// Call with the task's refs held so fetched blocks cannot be
    /// evicted underneath us. Records one `Fetch` span per actual move
    /// on `tracer`, and advances `now` as the module doc describes.
    pub fn fetch_all(
        &self,
        deps: &[Dep],
        tracer: &Tracer,
        tag: u32,
        now: &mut TimeNs,
    ) -> Result<(), FetchError> {
        for d in deps {
            self.ensure_in_hbm(d, tracer, tag, now)?;
        }
        Ok(())
    }

    /// The most a single task may declare: HBM capacity. Anything
    /// larger can never be fully prefetched, so the admission guard
    /// runs it degraded from DDR4.
    pub fn hbm_task_capacity(&self) -> u64 {
        self.mem.allocator(HBM).capacity()
    }

    /// Bring one dependence into HBM (§IV-B: "for any dependence that
    /// is INDDR, brings it into HBM and changes its state to INHBM").
    fn ensure_in_hbm(
        &self,
        dep: &Dep,
        tracer: &Tracer,
        tag: u32,
        now: &mut TimeNs,
    ) -> Result<(), FetchError> {
        let registry = self.mem.registry();
        let mut transient_attempts: u32 = 0;
        loop {
            match registry.node_of(dep.block) {
                Some(HBM) => return Ok(()),
                None => {
                    // Another thread is moving it; wait for the verdict.
                    let t0 = self.mem.clock().now();
                    let node = registry.wait_resident(dep.block);
                    *now = self.mem.clock().now();
                    tracer.record(SpanKind::BlockWait, t0, *now, tag);
                    if node == HBM {
                        return Ok(());
                    }
                }
                Some(_) => {
                    let copy = dep.mode.reads_old_contents();
                    match self.engine.migrate_span(dep.block, HBM, false, copy) {
                        Ok((t0, t1)) => {
                            *now = t1;
                            tracer.record(SpanKind::Fetch, t0, t1, tag);
                            self.stats.bump_fetches(registry.size_of(dep.block) as u64);
                            return Ok(());
                        }
                        Err(MemError::CapacityExceeded { .. }) => {
                            if self.config.eviction == EvictionPolicy::LruOnDemand {
                                let size = registry.size_of(dep.block) as u64;
                                if self.make_space_lru(size, tracer, tag, now) {
                                    continue;
                                }
                            }
                            self.stats.bump_no_space();
                            return Err(FetchError::NoSpace);
                        }
                        Err(MemError::InvalidState { .. }) => {
                            // Raced with another fetcher/evicter; retry.
                            continue;
                        }
                        Err(MemError::SameNode(_)) => return Ok(()),
                        Err(MemError::Transient { .. }) => {
                            // Injected/transient fault: retry with
                            // exponential backoff, then hand the
                            // decision to the caller (degraded mode).
                            if transient_attempts >= MAX_FETCH_RETRIES {
                                return Err(FetchError::Exhausted {
                                    block: dep.block.0 as u64,
                                    attempts: transient_attempts,
                                });
                            }
                            let delay = backoff_delay_ns(BACKOFF_BASE_NS, transient_attempts);
                            transient_attempts += 1;
                            self.stats.bump_transient_retry();
                            if delay > 0 {
                                *now = self.mem.clock().sleep(delay);
                            }
                            continue;
                        }
                        Err(
                            e @ (MemError::CheckpointIo { .. }
                            | MemError::CheckpointCorrupted { .. }
                            | MemError::CheckpointVersionMismatch { .. }
                            | MemError::CheckpointFailed { .. }),
                        ) => {
                            // Checkpoint errors never come out of a
                            // migration; treat one as a fatal caller bug.
                            debug_assert!(false, "migration returned {e}");
                            return Err(FetchError::Exhausted {
                                block: dep.block.0 as u64,
                                attempts: transient_attempts,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Evict `deps` whose reference count is zero back to DDR4 — the
    /// paper's post-processing step. Records `Evict` spans on `tracer`
    /// and advances `now` as the module doc describes. Returns the
    /// number of blocks actually evicted.
    pub fn evict_unreferenced(
        &self,
        deps: &[Dep],
        tracer: &Tracer,
        tag: u32,
        now: &mut TimeNs,
    ) -> usize {
        if self.config.eviction == EvictionPolicy::LruOnDemand {
            // Lazy policy: leave blocks in HBM; space is reclaimed on
            // demand by make_space_lru.
            return 0;
        }
        let mut evicted = 0;
        for d in deps {
            if self.try_evict(d.block, tracer, tag, now) {
                evicted += 1;
            }
        }
        evicted
    }

    /// Evict a single block if it is in HBM with refcount zero (cache
    /// mode's conflict eviction calls this directly).
    pub(crate) fn try_evict(
        &self,
        block: hetmem::BlockId,
        tracer: &Tracer,
        tag: u32,
        now: &mut TimeNs,
    ) -> bool {
        let registry = self.mem.registry();
        if registry.node_of(block) != Some(HBM) || registry.refcount(block) > 0 {
            return false;
        }
        // Evicted contents must persist: always copy.
        match self.engine.migrate_span(block, DDR4, true, true) {
            Ok((t0, t1)) => {
                *now = t1;
                tracer.record(SpanKind::Evict, t0, t1, tag);
                self.stats.bump_evictions(registry.size_of(block) as u64);
                true
            }
            // Lost a race (re-referenced, being fetched, DDR full) or a
            // transient fault: skip. The block stays in HBM and is
            // retried by a later eviction or reclaimed on demand, so a
            // transient eviction fault is a deferred retry — count it.
            Err(e) => {
                if e.is_transient() {
                    self.stats.bump_transient_retry();
                }
                false
            }
        }
    }

    /// LRU-on-demand eviction: free at least `needed` bytes of HBM by
    /// evicting least-recently-touched zero-refcount blocks. Returns
    /// true if enough space was freed.
    fn make_space_lru(&self, needed: u64, tracer: &Tracer, tag: u32, now: &mut TimeNs) -> bool {
        let registry = self.mem.registry();
        for block in registry.resident_on(HBM) {
            if self.hbm_available() >= needed {
                return true;
            }
            if registry.refcount(block) == 0 {
                self.try_evict(block, tracer, tag, now);
            }
        }
        self.hbm_available() >= needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaitQueueTopology;
    use hetmem::{AccessMode, Topology, VirtualClock};
    use projections::{LaneId, TraceCollector};

    fn setup(hbm_cap: u64) -> (Arc<Memory>, FetchEngine, Arc<Tracer>) {
        setup_with(hbm_cap, OocConfig::default())
    }

    fn setup_with(hbm_cap: u64, config: OocConfig) -> (Arc<Memory>, FetchEngine, Arc<Tracer>) {
        let topo = Topology::knl_flat_scaled_with(hbm_cap, 1 << 20);
        let mem = Memory::with_clock(topo, Arc::new(VirtualClock::new()));
        let engine = FetchEngine::new(Arc::clone(&mem), config, Arc::new(StatCells::default()));
        let collector = TraceCollector::new();
        let tracer = collector.tracer(LaneId::io(0));
        (mem, engine, tracer)
    }

    fn block(mem: &Arc<Memory>, size: usize, label: &str) -> hetmem::BlockId {
        mem.registry()
            .register(mem.alloc_on_node(size, DDR4).unwrap(), label)
    }

    fn dep(b: hetmem::BlockId, mode: AccessMode) -> Dep {
        Dep { block: b, mode }
    }

    fn fetch(engine: &FetchEngine, deps: &[Dep], tracer: &Tracer) -> Result<(), FetchError> {
        engine.fetch_all(deps, tracer, 0, &mut 0)
    }

    #[test]
    fn fetch_all_moves_everything_to_hbm() {
        let (mem, engine, tracer) = setup(10_000);
        let a = block(&mem, 1000, "a");
        let b = block(&mem, 2000, "b");
        let deps = vec![dep(a, AccessMode::ReadWrite), dep(b, AccessMode::ReadOnly)];
        engine.add_refs(&deps);
        fetch(&engine, &deps, &tracer).unwrap();
        assert_eq!(mem.registry().node_of(a), Some(HBM));
        assert_eq!(mem.registry().node_of(b), Some(HBM));
        engine.release_refs(&deps);
    }

    #[test]
    fn fetch_reports_no_space() {
        let (mem, engine, tracer) = setup(1500);
        let a = block(&mem, 1000, "a");
        let c = block(&mem, 1000, "c");
        // Fill HBM with a referenced block.
        let d_a = vec![dep(a, AccessMode::ReadWrite)];
        engine.add_refs(&d_a);
        fetch(&engine, &d_a, &tracer).unwrap();
        // c cannot fit while a is resident.
        let d_c = vec![dep(c, AccessMode::ReadWrite)];
        engine.add_refs(&d_c);
        assert_eq!(fetch(&engine, &d_c, &tracer), Err(FetchError::NoSpace));
        engine.release_refs(&d_c);
        // After a's task completes and evicts, c fits.
        engine.release_refs(&d_a);
        assert_eq!(engine.evict_unreferenced(&d_a, &tracer, 0, &mut 0), 1);
        engine.add_refs(&d_c);
        fetch(&engine, &d_c, &tracer).unwrap();
        assert_eq!(mem.registry().node_of(c), Some(HBM));
    }

    #[test]
    fn cannot_fit_counts_only_bytes_a_fetch_must_allocate() {
        use AccessMode::{ReadOnly, ReadWrite};
        let (mem, engine, tracer) = setup(1500);
        let a = block(&mem, 1000, "a");
        let b = block(&mem, 1000, "b");
        let c = block(&mem, 400, "c");
        let d_a = vec![dep(a, ReadWrite)];
        engine.add_refs(&d_a);
        fetch(&engine, &d_a, &tracer).unwrap();
        // 500 B free: b does not fit, c does even when named twice.
        assert!(engine.cannot_fit(&[dep(b, ReadWrite)], 1000));
        assert!(!engine.cannot_fit(&[dep(c, ReadOnly), dep(c, ReadOnly)], 800));
        // a is already in HBM, so only c's bytes are needed.
        assert!(!engine.cannot_fit(&[dep(a, ReadOnly), dep(c, ReadOnly)], 1400));
        // A block mid-move counts 0 bytes.
        let (buf, _) = mem.registry().begin_move(b, HBM, false).unwrap();
        assert!(!engine.cannot_fit(&[dep(b, ReadWrite)], 1000));
        mem.registry().abort_move(b, buf);
        assert!(engine.cannot_fit(&[dep(b, ReadWrite)], 1000));
        engine.release_refs(&d_a);
    }

    #[test]
    fn cannot_fit_defers_where_a_fetch_finds_hidden_space() {
        use AccessMode::ReadWrite;
        // On-demand LRU eviction gives a fetch space that
        // `hbm_available` does not show.
        let config = OocConfig {
            eviction: EvictionPolicy::LruOnDemand,
            ..OocConfig::default()
        };
        let (mem, engine, tracer) = setup_with(1500, config);
        let a = block(&mem, 1000, "a");
        let b = block(&mem, 1000, "b");
        let d_a = vec![dep(a, ReadWrite)];
        engine.add_refs(&d_a);
        fetch(&engine, &d_a, &tracer).unwrap();
        engine.release_refs(&d_a);
        engine.evict_unreferenced(&d_a, &tracer, 0, &mut 0);
        assert_eq!(engine.hbm_available(), 500);
        let d_b = vec![dep(b, ReadWrite)];
        assert!(!engine.cannot_fit(&d_b, 1000));
        engine.add_refs(&d_b);
        fetch(&engine, &d_b, &tracer).unwrap();
    }

    #[test]
    fn eviction_skips_referenced_blocks() {
        let (mem, engine, tracer) = setup(10_000);
        let a = block(&mem, 100, "a");
        let deps = vec![dep(a, AccessMode::ReadOnly)];
        engine.add_refs(&deps);
        fetch(&engine, &deps, &tracer).unwrap();
        // Another task still references a.
        engine.add_refs(&deps);
        engine.release_refs(&deps);
        assert_eq!(engine.evict_unreferenced(&deps, &tracer, 0, &mut 0), 0);
        assert_eq!(mem.registry().node_of(a), Some(HBM));
        engine.release_refs(&deps);
        assert_eq!(engine.evict_unreferenced(&deps, &tracer, 0, &mut 0), 1);
        assert_eq!(mem.registry().node_of(a), Some(DDR4));
    }

    #[test]
    fn writeonly_deps_fetch_without_copy() {
        let (mem, engine, tracer) = setup(10_000);
        let a = block(&mem, 4096, "a");
        let deps = vec![dep(a, AccessMode::WriteOnly)];
        engine.add_refs(&deps);
        fetch(&engine, &deps, &tracer).unwrap();
        // No payload bytes charged on fetch for write-only blocks.
        assert_eq!(mem.stats().nodes[HBM.index()].bytes_charged, 0);
        // Eviction persists the written data: bytes are charged then.
        engine.release_refs(&deps);
        engine.evict_unreferenced(&deps, &tracer, 0, &mut 0);
        assert!(mem.stats().nodes[DDR4.index()].bytes_charged >= 4096);
    }

    #[test]
    fn backoff_sequence_doubles_and_caps() {
        let base = 1000;
        let seq: Vec<u64> = (0..4).map(|a| backoff_delay_ns(base, a)).collect();
        assert_eq!(seq, vec![1000, 2000, 4000, 8000]);
        assert_eq!(backoff_delay_ns(base, 63), BACKOFF_CAP_NS);
        assert_eq!(backoff_delay_ns(u64::MAX, 1), BACKOFF_CAP_NS);
        assert_eq!(backoff_delay_ns(0, 5), 0);
    }

    fn setup_with_faults(rate: f64) -> (Arc<Memory>, FetchEngine, Arc<Tracer>, Arc<StatCells>) {
        let topo = Topology::knl_flat_scaled_with(1 << 20, 1 << 22);
        let faults = Arc::new(hetmem::SeededFaults::new(99).with_migration_fail_rate(rate));
        let mem = Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults);
        let stats = Arc::new(StatCells::default());
        let engine = FetchEngine::new(Arc::clone(&mem), OocConfig::default(), Arc::clone(&stats));
        let collector = TraceCollector::new();
        let tracer = collector.tracer(LaneId::io(0));
        (mem, engine, tracer, stats)
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        let (mem, engine, tracer, stats) = setup_with_faults(0.5);
        let t0 = mem.clock().now();
        let mut landed = 0;
        for i in 0..20 {
            let b = block(&mem, 512, &format!("b{i}"));
            let deps = vec![dep(b, AccessMode::ReadOnly)];
            engine.add_refs(&deps);
            match fetch(&engine, &deps, &tracer) {
                Ok(()) => {
                    assert_eq!(mem.registry().node_of(b), Some(HBM));
                    landed += 1;
                }
                // Budget exhausted: block stays usable where it was.
                Err(FetchError::Exhausted { .. }) => {
                    assert_eq!(mem.registry().node_of(b), Some(DDR4));
                }
                Err(e) => panic!("unexpected fetch error: {e}"),
            }
            engine.release_refs(&deps);
        }
        assert!(landed > 0, "no fetch survived a 50% fault rate");
        let s = stats.snapshot();
        assert!(s.transient_retries > 0);
        // Backoff sleeps actually consumed (virtual) time.
        assert!(mem.clock().now() > t0);
    }

    #[test]
    fn retry_budget_exhaustion_reports_attempts() {
        let (mem, engine, tracer, stats) = setup_with_faults(1.0);
        let b = block(&mem, 512, "b");
        let deps = vec![dep(b, AccessMode::ReadOnly)];
        engine.add_refs(&deps);
        let err = fetch(&engine, &deps, &tracer).unwrap_err();
        assert_eq!(
            err,
            FetchError::Exhausted {
                block: b.0 as u64,
                attempts: MAX_FETCH_RETRIES
            }
        );
        assert_eq!(
            stats.snapshot().transient_retries,
            u64::from(MAX_FETCH_RETRIES)
        );
        assert_eq!(mem.registry().node_of(b), Some(DDR4));
        engine.release_refs(&deps);
    }

    #[test]
    fn lru_on_demand_makes_space() {
        let topo = Topology::knl_flat_scaled_with(2500, 1 << 20);
        let mem = Memory::with_clock(topo, Arc::new(VirtualClock::new()));
        let config = OocConfig {
            eviction: EvictionPolicy::LruOnDemand,
            wait_queues: WaitQueueTopology::PerPe,
            ..OocConfig::default()
        };
        let engine = FetchEngine::new(Arc::clone(&mem), config, Arc::new(StatCells::default()));
        let collector = TraceCollector::new();
        let tracer = collector.tracer(LaneId::io(0));

        let a = block(&mem, 1000, "a");
        let b = block(&mem, 1000, "b");
        let c = block(&mem, 1000, "c");
        for blk in [a, b] {
            let deps = vec![dep(blk, AccessMode::ReadOnly)];
            engine.add_refs(&deps);
            fetch(&engine, &deps, &tracer).unwrap();
            engine.release_refs(&deps);
            // OnComplete eviction is a no-op under LRU policy.
            assert_eq!(engine.evict_unreferenced(&deps, &tracer, 0, &mut 0), 0);
        }
        assert_eq!(mem.registry().node_of(a), Some(HBM));
        assert_eq!(mem.registry().node_of(b), Some(HBM));
        // Fetching c must push out the LRU block (a).
        let deps_c = vec![dep(c, AccessMode::ReadOnly)];
        engine.add_refs(&deps_c);
        fetch(&engine, &deps_c, &tracer).unwrap();
        assert_eq!(mem.registry().node_of(c), Some(HBM));
        assert_eq!(mem.registry().node_of(a), Some(DDR4), "LRU block evicted");
        assert_eq!(mem.registry().node_of(b), Some(HBM));
    }
}
