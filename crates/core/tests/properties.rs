//! Property-based tests of the fetch/evict engine's invariants under
//! randomized task sets (Algorithm 1's state machine, DESIGN.md E8).

use converse::Dep;
use hetmem::{AccessMode, Memory, Topology, VirtualClock, DDR4, HBM};
use hetrt_core::{EvictionPolicy, FetchEngine, FetchError, OocConfig};
use projections::{LaneId, TraceCollector};
use proptest::prelude::*;
use std::sync::Arc;

fn engine_with(
    hbm_cap: u64,
    eviction: EvictionPolicy,
) -> (Arc<Memory>, FetchEngine, Arc<projections::Tracer>) {
    let mem = Memory::with_clock(
        Topology::knl_flat_scaled_with(hbm_cap, 1 << 24),
        Arc::new(VirtualClock::new()),
    );
    let config = OocConfig {
        eviction,
        ..OocConfig::default()
    };
    let stats = Arc::new(Default::default());
    let engine = FetchEngine::new(Arc::clone(&mem), config, stats);
    let tracer = TraceCollector::new().tracer(LaneId::io(0));
    (mem, engine, tracer)
}

/// A random "task": indices into a block table plus access modes.
fn task_strategy(nblocks: usize) -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0..nblocks, 0u8..3), 1..4)
}

fn mode(m: u8) -> AccessMode {
    match m {
        0 => AccessMode::ReadOnly,
        1 => AccessMode::ReadWrite,
        _ => AccessMode::WriteOnly,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequentially admitting and completing random tasks never
    /// exceeds HBM capacity, never loses a block, and (under the
    /// paper's eviction policy) leaves HBM empty at the end.
    #[test]
    fn random_task_sequences_respect_invariants(
        sizes in prop::collection::vec(64usize..2048, 2..6),
        tasks in prop::collection::vec(task_strategy(5), 1..25),
        lru in any::<bool>(),
    ) {
        let eviction = if lru { EvictionPolicy::LruOnDemand } else { EvictionPolicy::OnComplete };
        // Capacity: the largest possible task (3 largest blocks) fits.
        let cap: u64 = 3 * 2048 + 512;
        let (mem, engine, tracer) = engine_with(cap, eviction);
        let blocks: Vec<hetmem::BlockId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                mem.registry()
                    .register(mem.alloc_on_node(s, DDR4).unwrap(), format!("b{i}"))
            })
            .collect();

        for task in &tasks {
            // Dedup blocks within a task (a task lists each dep once).
            let mut deps: Vec<Dep> = Vec::new();
            for &(bi, m) in task {
                let b = blocks[bi % blocks.len()];
                if deps.iter().all(|d| d.block != b) {
                    deps.push(Dep { block: b, mode: mode(m) });
                }
            }
            engine.add_refs(&deps);
            match engine.fetch_all(&deps, &tracer, 0, &mut 0) {
                Ok(()) => {
                    // All deps resident in HBM while referenced.
                    for d in &deps {
                        prop_assert_eq!(mem.registry().node_of(d.block), Some(HBM));
                    }
                }
                Err(FetchError::NoSpace) => {
                    // Sequential execution with a fitting capacity must
                    // always find room once nothing else is referenced.
                    prop_assert!(false, "sequential fetch must never lack space");
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            // Capacity invariant.
            let hbm = &mem.stats().nodes[HBM.index()];
            prop_assert!(hbm.used_bytes <= hbm.capacity_bytes);
            // Complete the task.
            engine.release_refs(&deps);
            engine.evict_unreferenced(&deps, &tracer, 0, &mut 0);
        }
        // Every block still exists exactly once somewhere.
        let total: u64 = sizes.iter().map(|&s| s as u64).sum();
        let stats = mem.stats();
        prop_assert_eq!(
            stats.nodes[HBM.index()].used_bytes + stats.nodes[DDR4.index()].used_bytes,
            total
        );
        if eviction == EvictionPolicy::OnComplete {
            // Paper policy: nothing referenced ⇒ nothing left in HBM.
            prop_assert!(mem.registry().resident_on(HBM).is_empty());
        }
        prop_assert!(stats.nodes[HBM.index()].peak_used_bytes <= cap);
    }

    /// Under a seeded fault schedule the engine stays deterministic:
    /// replaying the same task sequence against the same seed yields
    /// identical per-task outcomes, final placements, fault/retry
    /// counters and virtual-clock time — and the chaos never violates
    /// the capacity or conservation invariants.
    #[test]
    fn chaos_schedules_are_deterministic(
        sizes in prop::collection::vec(64usize..2048, 2..6),
        tasks in prop::collection::vec(task_strategy(5), 1..20),
        seed in any::<u64>(),
    ) {
        let cap: u64 = 3 * 2048 + 512;
        let run = || {
            let faults = Arc::new(
                hetmem::SeededFaults::new(seed)
                    .with_migration_fail_rate(0.25)
                    .with_latency_spike(0.25, 5_000),
            );
            let mem = Memory::with_clock_and_faults(
                Topology::knl_flat_scaled_with(cap, 1 << 24),
                Arc::new(VirtualClock::new()),
                Arc::clone(&faults) as Arc<dyn hetmem::FaultInjector>,
            );
            let stats = Arc::new(Default::default());
            let engine =
                FetchEngine::new(Arc::clone(&mem), OocConfig::default(), Arc::clone(&stats));
            let tracer = TraceCollector::new().tracer(LaneId::io(0));
            let blocks: Vec<hetmem::BlockId> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    mem.registry()
                        .register(mem.alloc_on_node(s, DDR4).unwrap(), format!("b{i}"))
                })
                .collect();
            let total: u64 = sizes.iter().map(|&s| s as u64).sum();

            let mut outcomes: Vec<u8> = Vec::new();
            for task in &tasks {
                let mut deps: Vec<Dep> = Vec::new();
                for &(bi, m) in task {
                    let b = blocks[bi % blocks.len()];
                    if deps.iter().all(|d| d.block != b) {
                        deps.push(Dep { block: b, mode: mode(m) });
                    }
                }
                engine.add_refs(&deps);
                outcomes.push(match engine.fetch_all(&deps, &tracer, 0, &mut 0) {
                    Ok(()) => 0,
                    Err(FetchError::Exhausted { .. }) => 1,
                    Err(e) => panic!("unexpected error {e}"),
                });
                engine.release_refs(&deps);
                engine.evict_unreferenced(&deps, &tracer, 0, &mut 0);
                // Invariants hold under chaos too: capacity respected,
                // no block lost.
                let ms = mem.stats();
                prop_assert!(ms.nodes[HBM.index()].used_bytes <= ms.nodes[HBM.index()].capacity_bytes);
                prop_assert_eq!(
                    ms.nodes[HBM.index()].used_bytes + ms.nodes[DDR4.index()].used_bytes,
                    total
                );
            }
            let placements: Vec<_> = blocks.iter().map(|&b| mem.registry().node_of(b)).collect();
            let fault_stats = hetmem::FaultInjector::stats(&*faults);
            (outcomes, placements, fault_stats, stats.snapshot(), mem.clock().now())
        };
        prop_assert_eq!(run(), run());
    }

    /// fetch_all + evict keeps every block's refcount at zero between
    /// tasks, whatever the interleaving of shared dependences.
    #[test]
    fn refcounts_return_to_zero(tasks in prop::collection::vec(task_strategy(4), 1..15)) {
        let (mem, engine, tracer) = engine_with(1 << 20, EvictionPolicy::OnComplete);
        let blocks: Vec<hetmem::BlockId> = (0..4)
            .map(|i| {
                mem.registry()
                    .register(mem.alloc_on_node(256, DDR4).unwrap(), format!("b{i}"))
            })
            .collect();
        for task in &tasks {
            let mut deps: Vec<Dep> = Vec::new();
            for &(bi, m) in task {
                let b = blocks[bi % blocks.len()];
                if deps.iter().all(|d| d.block != b) {
                    deps.push(Dep { block: b, mode: mode(m) });
                }
            }
            engine.add_refs(&deps);
            engine.fetch_all(&deps, &tracer, 0, &mut 0).unwrap();
            engine.release_refs(&deps);
            engine.evict_unreferenced(&deps, &tracer, 0, &mut 0);
        }
        for &b in &blocks {
            prop_assert_eq!(mem.registry().refcount(b), 0);
        }
    }
}
