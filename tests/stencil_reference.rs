//! Cross-validation of the message-driven Stencil3D against a serial
//! reference implementation of the same decomposition.
//!
//! This test exists because of a real bug it caught during development:
//! a chare could receive all of its iteration-0 halos — and fire its
//! compute — *before* its own Start message was processed, making Start
//! extract post-update planes for its neighbours. The runtime now gates
//! the first compute on Start having run; this suite keeps the whole
//! pipeline honest against synchronous Jacobi semantics.

use hetrt::core::{OocConfig, Placement, StrategyKind};
use hetrt::hetmem::Topology;
use hetrt::kernels::stencil::{run_stencil, StencilConfig, StencilDriver};

/// Serial reference: same block decomposition, same 7-point Jacobi
/// update, Neumann (own-value) domain boundaries — executed
/// synchronously with no runtime at all.
fn reference_full(cfg: &StencilConfig) -> Vec<Vec<f64>> {
    let (cx, cy, cz) = cfg.chares;
    let (bx, by, bz) = cfg.block;
    let n = cx * cy * cz;
    let elems = bx * by * bz;
    let mut blocks: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..elems)
                .map(|j| ((i * 31 + j * 7) % 1000) as f64 / 1000.0)
                .collect()
        })
        .collect();
    let at = |b: &Vec<f64>, x: usize, y: usize, z: usize| b[(z * by + y) * bx + x];
    for _ in 0..cfg.iterations {
        let old = blocks.clone();
        for c in 0..n {
            let (gx, gy, gz) = (c % cx, (c / cx) % cy, c / (cx * cy));
            let idx = |x: usize, y: usize, z: usize| (z * cy + y) * cx + x;
            for z in 0..bz {
                for y in 0..by {
                    for x in 0..bx {
                        let me = at(&old[c], x, y, z);
                        let get = |dx: i64, dy: i64, dz: i64| -> f64 {
                            let (mut nx, mut ny, mut nz) =
                                (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            let (mut bgx, mut bgy, mut bgz) = (gx as i64, gy as i64, gz as i64);
                            if nx < 0 {
                                bgx -= 1;
                                nx = bx as i64 - 1;
                            }
                            if nx >= bx as i64 {
                                bgx += 1;
                                nx = 0;
                            }
                            if ny < 0 {
                                bgy -= 1;
                                ny = by as i64 - 1;
                            }
                            if ny >= by as i64 {
                                bgy += 1;
                                ny = 0;
                            }
                            if nz < 0 {
                                bgz -= 1;
                                nz = bz as i64 - 1;
                            }
                            if nz >= bz as i64 {
                                bgz += 1;
                                nz = 0;
                            }
                            if bgx < 0
                                || bgx >= cx as i64
                                || bgy < 0
                                || bgy >= cy as i64
                                || bgz < 0
                                || bgz >= cz as i64
                            {
                                return me;
                            }
                            at(
                                &old[idx(bgx as usize, bgy as usize, bgz as usize)],
                                nx as usize,
                                ny as usize,
                                nz as usize,
                            )
                        };
                        let v = (me
                            + get(-1, 0, 0)
                            + get(1, 0, 0)
                            + get(0, -1, 0)
                            + get(0, 1, 0)
                            + get(0, 0, -1)
                            + get(0, 0, 1))
                            / 7.0;
                        blocks[c][(z * by + y) * bx + x] = v;
                    }
                }
            }
        }
    }
    blocks
}

fn reference_checksum(cfg: &StencilConfig) -> f64 {
    reference_full(cfg).iter().flatten().sum()
}

fn base_cfg() -> StencilConfig {
    StencilConfig {
        chares: (2, 2, 2),
        block: (16, 16, 8),
        iterations: 3,
        pes: 4,
        strategy: StrategyKind::Baseline,
        placement: Placement::HbmOnly,
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled(),
        compute_passes: 1,
        faults: None,
    }
}

#[test]
fn baseline_matches_serial_reference_cell_for_cell() {
    let cfg = base_cfg();
    let driver = StencilDriver::new(cfg.clone());
    driver.run(None).unwrap();
    let got = driver.block_contents();
    driver.shutdown();
    let want = reference_full(&cfg);
    for (b, (g, w)) in got.iter().zip(&want).enumerate() {
        for (j, (gv, wv)) in g.iter().zip(w).enumerate() {
            assert!(
                (gv - wv).abs() < 1e-12,
                "block {b} cell {j}: got {gv} want {wv}"
            );
        }
    }
}

#[test]
fn repeated_runs_stay_on_reference() {
    // The init-ordering bug this guards against was timing-dependent
    // (~15% flake), so run several times.
    let cfg = base_cfg();
    let want = reference_checksum(&cfg);
    for run in 0..8 {
        let got = run_stencil(&cfg).checksum;
        assert!(
            (got - want).abs() < 1e-9 * want.abs(),
            "run {run}: got {got} want {want}"
        );
    }
}

#[test]
fn every_strategy_matches_reference() {
    let mut cfg = base_cfg();
    let want = reference_checksum(&cfg);
    for (strategy, placement) in [
        (StrategyKind::Baseline, Placement::PreferHbm { reserve: 0 }),
        (StrategyKind::Baseline, Placement::DdrOnly),
        (StrategyKind::SyncFetch, Placement::DdrOnly),
        (StrategyKind::single_io(), Placement::DdrOnly),
        (StrategyKind::multi_io(4), Placement::DdrOnly),
    ] {
        cfg.strategy = strategy;
        cfg.placement = placement;
        let got = run_stencil(&cfg).checksum;
        assert!(
            (got - want).abs() < 1e-9 * want.abs(),
            "{strategy:?}/{placement:?}: got {got} want {want}"
        );
    }
}

#[test]
fn asymmetric_blocks_and_grids_match_reference() {
    for (chares, block) in [
        ((3usize, 2usize, 1usize), (8usize, 4usize, 6usize)),
        ((1, 4, 2), (5, 7, 3)),
        ((4, 1, 1), (12, 3, 2)),
    ] {
        let cfg = StencilConfig {
            chares,
            block,
            iterations: 2,
            ..base_cfg()
        };
        let got = run_stencil(&cfg).checksum;
        let want = reference_checksum(&cfg);
        assert!(
            (got - want).abs() < 1e-9 * want.abs().max(1.0),
            "{chares:?}/{block:?}: got {got} want {want}"
        );
    }
}
