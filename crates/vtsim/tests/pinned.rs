//! Pinned results of the deterministic simulator, as a regression gate.
//!
//! Fig. 8's 2 GB point (1024 chares of 32 MiB, 3 iterations, 64 PEs on
//! the paper's KNL) under all four strategies. The simulator is
//! deterministic, so its virtual makespan and move counts are exact. A
//! change to the scheduling or pipe model must move these numbers
//! visibly, and say why, rather than drift unnoticed.

use vtsim::{stencil_workload, SimConfig, SimStrategy, Simulator, StencilSpec};

#[test]
fn fig8_2gb_makespans_and_move_counts_are_pinned() {
    // (strategy, makespan_ns, fetches, evictions)
    let pinned = [
        (SimStrategy::Baseline, 2_197_337_088, 0, 0),
        (SimStrategy::SyncFetch, 2_211_622_848, 3072, 3072),
        (
            SimStrategy::IoThreads { threads: 1 },
            8_002_754_001,
            3072,
            3072,
        ),
        (
            SimStrategy::IoThreads { threads: 64 },
            2_817_874_788,
            3072,
            3072,
        ),
    ];
    for (strategy, makespan_ns, fetches, evictions) in pinned {
        let wl = stencil_workload(&StencilSpec {
            chares: (16, 8, 8),
            block_bytes: 32 << 20,
            iterations: 3,
            pes: 64,
            hbm_fraction: 0.0,
            flops_ns: 0,
        });
        let r = Simulator::new(SimConfig::knl_paper(strategy), wl).run();
        assert_eq!(
            (r.makespan_ns, r.fetches, r.evictions),
            (makespan_ns, fetches, evictions),
            "{strategy:?}: (makespan_ns, fetches, evictions) moved"
        );
    }
}
