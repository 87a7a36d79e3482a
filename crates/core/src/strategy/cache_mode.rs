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
//!   previous occupant if it is still in HBM;
//! * a **conflict** against an in-use occupant (or a capacity failure)
//!   **bypasses**: the dependence is simply accessed from DDR4 at DDR4
//!   bandwidth, the cache-mode analogue of a line that cannot be
//!   allocated.
//!
//! A completed task only drops its references: a filled block stays in
//! HBM until a conflicting fill displaces it.
//!
//! Cache mode keeps no counters of its own. A fill is a fetch and a
//! conflict write-back an eviction in [`crate::OocStats`]; a hit or a
//! bypass shows only in the node its block was on when the task ran.
//!
//! Tasks are always admitted immediately — cache mode never waits for
//! space — so its cost shows up as conflict-miss churn and slow
//! bypassed accesses, exactly the pathologies the paper's Flat-mode
//! runtime avoids ("caching could result in increased latency from
//! conflict misses or capacity misses", §I).

use super::Shared;
use crate::task::OocTask;
use hetmem::{BlockId, TimeNs, HBM};
use parking_lot::Mutex;

/// Direct-mapped set table: each set's occupant, if any.
pub(super) struct CacheState {
    sets: Mutex<Vec<Option<BlockId>>>,
}

impl CacheState {
    pub(super) fn new(sets: usize) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        Self {
            sets: Mutex::new(vec![None; sets]),
        }
    }

    fn set_of(&self, block: BlockId, nsets: usize) -> usize {
        block.0 as usize % nsets
    }
}

/// Pre-processing: demand-fill each dependence's set, bypassing on
/// conflict; always admit. `now` is the worker's latest clock reading,
/// advanced past every move.
pub(super) fn intercept(shared: &Shared, cache: &CacheState, task: OocTask, now: &mut TimeNs) {
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
                    continue;
                }
                None
            } else {
                // Miss: displace the occupant if it is idle, else bypass.
                if let Some(old) = old {
                    if registry.refcount(old) > 0 {
                        // Set is pinned by a running task: bypass this dep.
                        continue;
                    }
                }
                sets[set] = Some(dep.block);
                old
            }
        };
        // Write the victim back to DDR4 (demand eviction), unless
        // LRU-on-demand already did.
        if let Some(old) = occupant.filter(|&old| registry.node_of(old) == Some(HBM)) {
            if !shared.engine.try_evict(old, tracer, tag, now) {
                // Lost a race (victim re-referenced): restore it and
                // bypass the new dependence.
                cache.sets.lock()[set] = Some(old);
                continue;
            }
        }
        // Fill on the critical path (cache mode has no prefetch).
        let one = std::slice::from_ref(dep);
        if shared.engine.fetch_all(one, tracer, tag, now).is_err() {
            // No capacity (oddly-sized blocks): serve from DDR4.
            cache.sets.lock()[set] = None;
        }
    }
    // Cache mode always admits: un-staged deps run from DDR4.
    shared.admit(task, false, *now);
}

#[cfg(test)]
mod tests {
    use crate::config::{EvictionPolicy, OocConfig, StrategyKind};
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

    /// One run's records: fills are `stats.fetches` and conflict
    /// write-backs `stats.evictions`.
    struct CacheRun {
        stats: crate::OocStats,
        /// Per block: its node at each execution.
        seen: Vec<Vec<Option<NodeId>>>,
        /// Per block: its node after the run.
        final_nodes: Vec<Option<NodeId>>,
    }

    impl CacheRun {
        /// Executions that ran with their block on `node`: a bypass
        /// runs from DDR4, a fill or a hit from HBM.
        fn ran_from(&self, node: NodeId) -> u64 {
            let runs = self.seen.iter().flatten();
            runs.filter(|&&at| at == Some(node)).count() as u64
        }

        /// Dependences found resident in their set: the runs from HBM
        /// that no fill brought there.
        fn hits(&self) -> u64 {
            let from_hbm = self.ran_from(HBM);
            assert!(
                from_hbm >= self.stats.fetches,
                "a filled block ran from DDR4"
            );
            from_hbm - self.stats.fetches
        }
    }

    /// Touch `n` blocks once per round, one round at a time: each
    /// round is sent only after the previous one has quiesced.
    fn run_cache(sets: usize, n: usize, rounds: usize) -> CacheRun {
        let steps: Vec<Vec<usize>> = (0..rounds).map(|_| (0..n).collect()).collect();
        run_steps(sets, n, 1 << 20, OocConfig::default(), &steps)
    }

    /// Touch blocks `steps[0]`, then `steps[1]`, ..., sending each step
    /// only after the previous one has quiesced. Block `i` has id `i`,
    /// so it maps to set `i % sets`.
    fn run_steps(
        sets: usize,
        n: usize,
        hbm_bytes: u64,
        config: OocConfig,
        steps: &[Vec<usize>],
    ) -> CacheRun {
        let block_elems = 256usize;
        let topo = Topology::knl_flat_scaled_with(hbm_bytes, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();
        let touches = steps.iter().map(Vec::len).sum();
        let latch = Arc::new(CompletionLatch::new(touches));
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
            config,
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for step in steps {
            for &i in step {
                rt.send(array, i, EP, ());
            }
            assert!(rt.wait_quiescence_ms(10_000), "cache-mode step stalled");
        }
        assert!(latch.wait_timeout_ms(60_000), "cache-mode run stalled");
        let arr = rt.array::<Toucher>(array);
        for i in 0..n {
            let sent = steps.iter().flatten().filter(|&&j| j == i).count();
            assert_eq!(
                arr.with_chare(i, |c| c.data.read(|xs| xs[0])),
                sent as f64,
                "block {i} lost updates"
            );
        }
        let run = CacheRun {
            stats: hook.stats(),
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
        assert_eq!(run.stats.fetches, 4, "one fill per block");
        assert_eq!(run.hits(), 8, "subsequent rounds hit");
        assert_eq!(run.stats.evictions, 0);
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
        let (evictions, bypasses) = (run.stats.evictions, run.ran_from(DDR4));
        assert!(
            evictions + bypasses >= 4,
            "a single set must thrash: {evictions} conflict write-backs, {bypasses} bypasses"
        );
        assert!(run.hits() < 8);
    }

    #[test]
    fn cached_blocks_stay_resident_after_completion() {
        let run = run_cache(8, 2, 1);
        assert_eq!(run.stats.fetches, 2);
        // No one evicts at completion in cache mode.
        assert_eq!(run.stats.evictions, 0);
        assert_eq!(run.final_nodes, vec![Some(HBM); 2]);
    }

    #[test]
    fn a_fill_after_lru_evicted_the_occupant_is_cached() {
        // HBM holds one block; blocks 0 and 2 share set 0. Filling block
        // 1 makes LRU-on-demand evict block 0, which set 0 still names.
        // The next fill of set 0 must take the set, not bypass.
        let block_bytes = 256 * 8;
        let config = OocConfig {
            eviction: EvictionPolicy::LruOnDemand,
            ..OocConfig::default()
        };
        let steps = [vec![0], vec![1], vec![2]];
        let run = run_steps(2, 3, block_bytes, config, &steps);
        assert_eq!(run.stats.completed, 3);
        assert_eq!((run.stats.fetches, run.ran_from(DDR4)), (3, 0), "no bypass");
        // Block 2 displaces block 0 without a write-back: LRU made it.
        // The two evictions are LRU's, to make room for blocks 1 and 2.
        assert_eq!(run.stats.evictions, 2);
        assert_eq!(run.seen[2], vec![Some(HBM)]);
        assert_eq!(run.final_nodes, vec![Some(DDR4), Some(DDR4), Some(HBM)]);
    }
}
