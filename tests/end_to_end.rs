//! End-to-end integration across every crate: applications produce
//! correct numerics under every strategy while respecting the memory
//! system's invariants.

use hetrt::core::{OocConfig, Placement, StrategyKind};
use hetrt::hetmem::{Topology, DDR4, HBM};
use hetrt::kernels::dgemm::dgemm_naive;
use hetrt::kernels::matmul::{run_matmul, MatmulConfig};
use hetrt::kernels::stencil::{run_stencil, StencilConfig};

fn matmul_cfg(strategy: StrategyKind, placement: Placement) -> MatmulConfig {
    MatmulConfig {
        grid: 4,
        block: 24,
        pes: 3,
        strategy,
        placement,
        ooc: OocConfig::default(),
        // A whole-chare task depends on 2·grid+1 = 9 blocks (~41 KiB);
        // give HBM room for ~1.5 tasks so movement is constant but
        // admission is always possible.
        topology: Topology::knl_flat_scaled_with(64 << 10, 96 << 20),
        compute_passes: 2,
        faults: None,
    }
}

fn matmul_reference_checksum(cfg: &MatmulConfig) -> f64 {
    let n = cfg.n();
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n * n];
    for r in 0..n {
        for c in 0..n {
            a[r * n + c] = ((r * 13 + c * 7) % 10) as f64 / 10.0;
            b[r * n + c] = ((r * 3 + c * 11) % 10) as f64 / 10.0;
        }
    }
    let mut c = vec![0.0; n * n];
    dgemm_naive(n, &a, &b, &mut c);
    c.iter().sum()
}

#[test]
fn matmul_all_strategies_match_reference_and_respect_capacity() {
    let want = matmul_reference_checksum(&matmul_cfg(StrategyKind::Baseline, Placement::DdrOnly));
    for (strategy, placement) in [
        (StrategyKind::Baseline, Placement::DdrOnly),
        (StrategyKind::Baseline, Placement::PreferHbm { reserve: 0 }),
        (StrategyKind::SyncFetch, Placement::DdrOnly),
        (StrategyKind::single_io(), Placement::DdrOnly),
        (StrategyKind::IoThreads { threads: 2 }, Placement::DdrOnly),
        (StrategyKind::multi_io(3), Placement::DdrOnly),
    ] {
        let cfg = matmul_cfg(strategy, placement);
        let r = run_matmul(&cfg);
        assert!(
            (r.checksum - want).abs() < 1e-6 * want.abs(),
            "{strategy:?}/{placement:?}: checksum {} != {want}",
            r.checksum
        );
        let hbm = &r.mem_stats.nodes[HBM.index()];
        assert!(
            hbm.peak_used_bytes <= hbm.capacity_bytes,
            "{strategy:?}: HBM peak {} exceeded capacity {}",
            hbm.peak_used_bytes,
            hbm.capacity_bytes
        );
        assert_eq!(
            r.stats.intercepted, r.stats.completed,
            "{strategy:?}: tasks left in flight"
        );
    }
}

#[test]
fn stencil_fetch_evict_bookkeeping_balances() {
    // Every fetched block must eventually be evicted (stencil blocks are
    // private readwrite: refcounts return to zero after each task).
    let cfg = StencilConfig {
        chares: (2, 2, 1),
        block: (16, 16, 16),
        iterations: 3,
        pes: 2,
        strategy: StrategyKind::multi_io(2),
        placement: Placement::DdrOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled_with(80 << 10, 96 << 20),
        compute_passes: 2,
        faults: None,
    };
    let r = run_stencil(&cfg);
    assert_eq!(r.stats.completed, 4 * 3);
    assert_eq!(
        r.stats.fetches, r.stats.evictions,
        "fetch/evict must balance for private readwrite blocks"
    );
    // Everything finished back on DDR4.
    assert_eq!(r.mem_stats.nodes[HBM.index()].used_bytes, 0);
    assert!(r.mem_stats.nodes[DDR4.index()].used_bytes > 0);
}

#[test]
fn managed_strategies_beat_ddr_only_on_bandwidth_bound_work() {
    // The headline claim of the paper at miniature scale: with the
    // working set overflowing HBM, runtime-managed movement beats
    // leaving overflow data on the slow node.
    let mk = |strategy, placement| StencilConfig {
        chares: (2, 2, 2),
        block: (32, 32, 32),
        iterations: 3,
        pes: 4,
        strategy,
        placement,
        ooc: OocConfig::default(),
        // HBM holds 3 of 8 blocks.
        topology: Topology::knl_flat_scaled_with(800 << 10, 96 << 20),
        compute_passes: 6,
        faults: None,
    };
    let ddr_only = run_stencil(&mk(StrategyKind::Baseline, Placement::DdrOnly));
    let managed = run_stencil(&mk(StrategyKind::multi_io(4), Placement::DdrOnly));
    assert!(
        (managed.checksum - ddr_only.checksum).abs() < 1e-9 * ddr_only.checksum.abs(),
        "numerics must agree"
    );
    let speedup = ddr_only.total_ns as f64 / managed.total_ns as f64;
    assert!(
        speedup > 1.2,
        "managed should beat DDR4-only: speedup {speedup:.2}"
    );
}

#[test]
fn stats_render_is_humane() {
    let cfg = matmul_cfg(StrategyKind::multi_io(3), Placement::DdrOnly);
    let r = run_matmul(&cfg);
    let line = r.stats.render();
    assert!(line.contains("fetch"));
    assert!(line.contains("evict"));
    assert!(r.summary.render().contains("PE0"));
}
