//! Cache-mode emulation: MCDRAM as a direct-mapped block cache.
//!
//! The paper runs KNL in *Flat* mode and manages placement in the
//! runtime; §VI defers "comparisons with cache mode in KNL" to future
//! work. This module supplies that comparison: HBM behaves as a
//! direct-mapped, demand-filled cache of DDR4-homed blocks,
//!
//! * a task's dependence **hits** if its block already occupies its set
//!   and is still in HBM (LRU-on-demand eviction can take a set's
//!   occupant; the set is then refilled);
//! * a **miss** fills the set on the worker's critical path (demand
//!   latency — there is no prefetch in cache mode), evicting the
//!   previous occupant;
//! * a **conflict** against an in-use occupant (or a capacity failure)
//!   **bypasses**: the dependence is simply accessed from DDR4 at DDR4
//!   bandwidth, the cache-mode analogue of a line that cannot be
//!   allocated.
//!
//! A completed task only drops its references: a filled block stays in
//! HBM until a conflicting fill displaces it.
//!
//! Tasks are always admitted immediately — cache mode never waits for
//! space — so its cost shows up as conflict-miss churn and slow
//! bypassed accesses, exactly the pathologies the paper's Flat-mode
//! runtime avoids ("caching could result in increased latency from
//! conflict misses or capacity misses", §I).

use super::Shared;
use crate::task::OocTask;
use hetmem::{BlockId, HBM};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Direct-mapped set table plus hit/miss counters.
pub struct CacheState {
    sets: Mutex<Vec<Option<BlockId>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    conflict_evictions: AtomicU64,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dependences found resident in their set.
    pub hits: u64,
    /// Dependences demand-filled into their set.
    pub misses: u64,
    /// Dependences served from DDR4 (set in use or no capacity).
    pub bypasses: u64,
    /// Resident blocks displaced by a conflicting fill.
    pub conflict_evictions: u64,
}

impl CacheState {
    pub(super) fn new(sets: usize) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        Self {
            sets: Mutex::new(vec![None; sets]),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            conflict_evictions: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            conflict_evictions: self.conflict_evictions.load(Ordering::Relaxed),
        }
    }

    fn set_of(&self, block: BlockId, nsets: usize) -> usize {
        block.0 as usize % nsets
    }
}

/// Pre-processing: demand-fill each dependence's set, bypassing on
/// conflict; always admit.
pub(super) fn intercept(shared: &Shared, cache: &CacheState, task: OocTask) {
    let tracer = shared.worker_tracer(task.pe);
    let tag = task.env.index as u32;
    let registry = shared.memory().registry();
    let nsets = cache.sets.lock().len();

    shared.engine.add_refs(&task.env.deps);
    for dep in &task.env.deps {
        let set = cache.set_of(dep.block, nsets);
        let occupant = {
            let mut sets = cache.sets.lock();
            let old = sets[set];
            if old == Some(dep.block) {
                // Hit only if the occupant is still in HBM: LRU-on-demand
                // may have evicted it, and then the set is refilled.
                if registry.node_of(dep.block) == Some(HBM) {
                    cache.hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                None
            } else {
                // Miss: displace the occupant if it is idle, else bypass.
                if let Some(old) = old {
                    if registry.refcount(old) > 0 {
                        // Set is pinned by a running task: bypass this dep.
                        cache.bypasses.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                sets[set] = Some(dep.block);
                old
            }
        };
        if let Some(old) = occupant {
            // Write the victim back to DDR4 (demand eviction).
            match evict_block(shared, old, tracer, tag) {
                Ok(()) => {
                    cache.conflict_evictions.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // Lost a race (victim re-referenced): restore it and
                    // bypass the new dependence.
                    cache.sets.lock()[set] = Some(old);
                    cache.bypasses.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
        // Fill on the critical path (cache mode has no prefetch).
        let size = registry.size_of(dep.block) as u64;
        let one = std::slice::from_ref(dep);
        match shared.engine.fetch_all(one, size, tracer, tag) {
            Ok(()) => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // No capacity (oddly-sized blocks): serve from DDR4.
                cache.sets.lock()[set] = None;
                cache.bypasses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // Cache mode always admits: un-staged deps run from DDR4.
    shared.admit(task, false);
}

/// Post-processing: cached blocks stay resident; only refs drop.
pub(super) fn after_complete(_shared: &Shared, _pe: usize, _cache: &CacheState) {}

fn evict_block(
    shared: &Shared,
    block: BlockId,
    tracer: &projections::Tracer,
    tag: u32,
) -> Result<(), crate::FetchError> {
    shared.engine.force_evict(block, tracer, tag)
}

#[cfg(test)]
mod tests {
    use crate::config::{OocConfig, StrategyKind};
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, RuntimeBuilder};
    use hetmem::{AccessMode, Memory, NodeId, Topology, DDR4, HBM};
    use std::sync::Arc;

    const EP: EntryId = EntryId(0);

    struct Toucher {
        data: IoHandle<f64>,
        latch: Arc<CompletionLatch>,
        /// The block's node at each execution, in order.
        seen: Vec<Option<NodeId>>,
    }
    impl Chare for Toucher {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            // In cache mode the block may legitimately be on either node
            // (bypass serves from DDR4).
            self.seen.push(self.data.node());
            self.data.write(|xs| xs[0] += 1.0);
            self.latch.count_down();
        }
        fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    struct CacheRun {
        stats: crate::OocStats,
        cache: super::CacheStats,
        /// Per block: its node at each execution.
        seen: Vec<Vec<Option<NodeId>>>,
        /// Per block: its node after the run.
        final_nodes: Vec<Option<NodeId>>,
    }

    /// Touch `n` blocks once per round, one round at a time: each
    /// round is sent only after the previous one has quiesced.
    fn run_cache(sets: usize, n: usize, rounds: usize) -> CacheRun {
        let block_elems = 256usize;
        let topo = Topology::knl_flat_scaled_with(1 << 20, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();
        let latch = Arc::new(CompletionLatch::new(n * rounds));
        let blocks: Vec<IoHandle<f64>> = (0..n)
            .map(|i| {
                IoHandle::new(
                    &mem,
                    block_elems,
                    Placement::DdrOnly,
                    HBM,
                    DDR4,
                    format!("c{i}"),
                )
                .unwrap()
            })
            .collect();
        let (l2, b2) = (Arc::clone(&latch), blocks.clone());
        let array = rt
            .array_builder::<Toucher>()
            .entry(EP, EntryOptions::prefetch())
            .build(n, move |i| Toucher {
                data: b2[i].clone(),
                latch: Arc::clone(&l2),
                seen: Vec::new(),
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::CacheMode { sets },
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for _ in 0..rounds {
            for i in 0..n {
                rt.send(array, i, EP, ());
            }
            assert!(rt.wait_quiescence_ms(10_000), "cache-mode round stalled");
        }
        assert!(latch.wait_timeout_ms(60_000), "cache-mode run stalled");
        let arr = rt.array::<Toucher>(array);
        for i in 0..n {
            assert_eq!(
                arr.with_chare(i, |c| c.data.read(|xs| xs[0])),
                rounds as f64,
                "block {i} lost updates"
            );
        }
        let run = CacheRun {
            stats: hook.stats(),
            cache: hook.cache_stats().expect("cache-mode stats"),
            seen: (0..n)
                .map(|i| arr.with_chare(i, |c| c.seen.clone()))
                .collect(),
            final_nodes: blocks.iter().map(IoHandle::node).collect(),
        };
        hook.shutdown();
        rt.shutdown();
        run
    }

    #[test]
    fn disjoint_sets_hit_after_first_round() {
        // 4 blocks over 8 sets: no conflicts; round 2+ are pure hits.
        let run = run_cache(8, 4, 3);
        assert_eq!(run.stats.completed, 12);
        assert_eq!(run.cache.misses, 4, "one fill per block");
        assert_eq!(run.cache.hits, 8, "subsequent rounds hit");
        assert_eq!(run.cache.conflict_evictions, 0);
        for (i, seen) in run.seen.iter().enumerate() {
            assert_eq!(seen.len(), 3);
            assert!(
                seen[1..].iter().all(|&node| node == Some(HBM)),
                "block {i} ran outside HBM after its fill: {seen:?}"
            );
        }
    }

    #[test]
    fn colliding_blocks_thrash_the_set() {
        // 4 blocks over 1 set: every access displaces the previous
        // block (or bypasses while it is pinned).
        let run = run_cache(1, 4, 2);
        assert_eq!(run.stats.completed, 8);
        assert!(
            run.cache.conflict_evictions + run.cache.bypasses >= 4,
            "a single set must thrash: {:?}",
            run.cache
        );
        assert!(run.cache.hits < 8);
    }

    #[test]
    fn cached_blocks_stay_resident_after_completion() {
        let run = run_cache(8, 2, 1);
        assert_eq!(run.cache.misses, 2);
        // No one evicts at completion in cache mode.
        assert_eq!(run.cache.conflict_evictions, 0);
        assert_eq!(run.stats.evictions, 0);
        assert_eq!(run.final_nodes, vec![Some(HBM); 2]);
    }
}
