//! vtsim-paper: the virtual-time simulator on the paper's literal KNL
//! (64 PEs, 16 GB MCDRAM at 420 GB/s, 96 GB DDR4 at 90 GB/s) over the
//! Fig. 8 full sweep (three reduced-WSS points, 20 iterations) and the
//! Fig. 9 full sweep (grids 16–24). Virtual results are deterministic,
//! so they are per-layer values checked for exact repeats; the
//! end-to-end makespans are the host seconds each strategy's sweep
//! takes to simulate.

use crate::report::Report;
use crate::stats::{median, ratio};
use crate::threaded::{cycle, Strategy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vtsim::{
    matmul_workload, stencil_workload, MatmulSpec, SimConfig, SimReport, SimStrategy, Simulator,
    StencilSpec, Workload,
};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;
const PES: usize = 64;
/// HBM the naive placement fills, as in the full-scale figure drivers.
const NAIVE_HBM: u64 = 15 * GIB;
/// Fig. 8 points: chare grid and block bytes, 32 GB in total each.
const FIG8: [((usize, usize, usize), u64); 3] = [
    ((16, 8, 8), 32 * MIB),
    ((8, 8, 8), 64 * MIB),
    ((8, 8, 4), 128 * MIB),
];
const FIG8_ITERATIONS: usize = 20;
/// Streaming passes per stencil task (tiling).
const FIG8_PASSES: u64 = 4;
const FIG9_GRIDS: [usize; 4] = [16, 20, 22, 24];
const FIG9_BLOCK: u64 = 32 * MIB;
/// A 2048³ block dgemm on one KNL core, and its passes over operands.
const FIG9_FLOPS_NS: u64 = 610_000_000;
const FIG9_PASSES: u64 = 16;

fn sim_strategy(strategy: Strategy) -> SimStrategy {
    match strategy {
        Strategy::Naive => SimStrategy::Baseline,
        Strategy::Sync => SimStrategy::SyncFetch,
        Strategy::SingleIo => SimStrategy::IoThreads { threads: 1 },
        Strategy::MultiIo => SimStrategy::IoThreads { threads: PES },
    }
}

/// The sweep's task graphs for one strategy: naive starts with HBM
/// filled to 15 GB, the managed strategies start from DDR4.
fn sweep(strategy: Strategy) -> Vec<Workload> {
    let hbm_fraction = |total: u64| {
        if strategy == Strategy::Naive {
            NAIVE_HBM as f64 / total as f64
        } else {
            0.0
        }
    };
    let mut out = Vec::new();
    for (chares, block_bytes) in FIG8 {
        let total = (chares.0 * chares.1 * chares.2) as u64 * block_bytes;
        let mut wl = stencil_workload(&StencilSpec {
            chares,
            block_bytes,
            iterations: FIG8_ITERATIONS,
            pes: PES,
            hbm_fraction: hbm_fraction(total),
            flops_ns: 0,
        });
        for charge in wl.tasks.iter_mut().flat_map(|t| &mut t.charges) {
            charge.read_bytes *= FIG8_PASSES;
            charge.write_bytes *= FIG8_PASSES;
        }
        out.push(wl);
    }
    for grid in FIG9_GRIDS {
        let total = 3 * (grid * grid) as u64 * FIG9_BLOCK;
        out.push(matmul_workload(&MatmulSpec {
            grid,
            block_bytes: FIG9_BLOCK,
            pes: PES,
            hbm_fraction: hbm_fraction(total),
            flops_ns: FIG9_FLOPS_NS,
            passes: FIG9_PASSES,
        }));
    }
    out
}

/// One simulated sweep of one strategy.
struct SimSample {
    setup_ns: u64,
    host_ns: u64,
    reports: Vec<SimReport>,
}

fn total(s: &SimSample, f: impl Fn(&SimReport) -> f64) -> f64 {
    s.reports.iter().map(f).sum()
}

pub fn vtsim_paper(budget: Duration, report: &mut Report) {
    report.note(
        "vtsim-paper: Simulator on SimConfig::knl_paper, 64 PEs; Fig. 8 full sweep \
         (16x8x8/8x8x8/8x8x4 chares, 32 GB, 20 iterations, 4 passes) and Fig. 9 full sweep \
         (grids 16, 20, 22, 24 of 32 MiB blocks, 16 passes); makespan_*_s are host seconds \
         per sweep, virtual results are the vtsim.* per-layer metrics",
    );
    let mut attempted = 0;
    let mut failed = 0;
    let samples = cycle(budget, |strategy| {
        let t = Instant::now();
        let workloads = sweep(strategy);
        let setup_ns = t.elapsed().as_nanos() as u64;
        let expected: Vec<usize> = workloads.iter().map(|w| w.tasks.len()).collect();
        let want: u64 = expected.iter().map(|&n| n as u64).sum();
        attempted += want;
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            workloads
                .into_iter()
                .map(|w| Simulator::new(SimConfig::knl_paper(sim_strategy(strategy)), w).run())
                .collect::<Vec<_>>()
        }));
        let host_ns = t.elapsed().as_nanos() as u64;
        let Ok(reports) = run else {
            report.fail(format_args!("vtsim-paper {}: simulation panicked", strategy.name()));
            failed += want;
            return None;
        };
        let done: Vec<usize> = reports.iter().map(|r| r.tasks).collect();
        if done != expected {
            report.fail(format_args!(
                "vtsim-paper {}: completed {done:?} of {expected:?} tasks",
                strategy.name()
            ));
            failed += want.saturating_sub(done.iter().map(|&n| n as u64).sum());
        }
        Some(SimSample {
            setup_ns,
            host_ns,
            reports,
        })
    });
    report.tasks(attempted, failed);

    let of = |want: Strategy| {
        samples
            .iter()
            .filter(move |(s, _)| *s == want)
            .filter_map(|(_, x)| x.as_ref())
    };
    let mut setups = Vec::new();
    let mut first = Vec::new();
    for strategy in Strategy::ALL {
        let secs: Vec<f64> = of(strategy).map(|s| s.host_ns as f64 / 1e9).collect();
        setups.extend(of(strategy).map(|s| s.setup_ns as f64 / 1e9));
        report.set(&format!("makespan_{}_s", strategy.name()), median(&secs));
        let prints: Vec<String> = of(strategy).map(|s| format!("{:?}", s.reports)).collect();
        if prints.windows(2).any(|w| w[0] != w[1]) {
            report.fail(format_args!(
                "vtsim-paper {}: virtual results drifted between runs",
                strategy.name()
            ));
        }
        if let Some(s) = of(strategy).next() {
            let virt: Vec<String> = s
                .reports
                .iter()
                .map(|r| format!("{:.3}", r.makespan_sec()))
                .collect();
            report.note(format_args!(
                "{:<9} host s per sweep: {secs:?}; virtual makespans (s): {}; {} runs",
                strategy.name(),
                virt.join(" "),
                prints.len()
            ));
            first.push(s);
        }
    }
    report.set("setup_s", median(&setups));
    if let [naive, sync, single, multi] = first[..] {
        layer_metrics(&[naive, sync, single, multi], report);
    }
    let done: Vec<&SimSample> = samples.iter().filter_map(|(_, s)| s.as_ref()).collect();
    let tasks: f64 = done.iter().map(|s| total(s, |r| r.tasks as f64)).sum();
    let host_s: f64 = done.iter().map(|s| s.host_ns as f64 / 1e9).sum();
    report.set("vtsim.tasks_per_host_s", ratio(tasks, host_s));
}

/// Virtual per-strategy results over the whole sweep, from one run of
/// each strategy (naive, sync, single-io, multi-io).
fn layer_metrics(runs: &[&SimSample; 4], report: &mut Report) {
    let makespan = |s: &SimSample| total(s, |r| r.makespan_ns as f64);
    let naive = makespan(runs[0]);
    for (strategy, &s) in Strategy::ALL.into_iter().zip(runs) {
        let name = strategy.name();
        let busy = total(s, |r| r.pe_busy_ns.iter().sum::<u64>() as f64);
        let lane_ns = total(s, |r| r.pe_busy_ns.len() as f64 * r.makespan_ns as f64);
        report.set(&format!("vtsim.pe_util_{name}"), ratio(busy, lane_ns));
        if strategy == Strategy::Naive {
            continue;
        }
        report.set(&format!("vtsim.speedup_{name}"), ratio(naive, makespan(s)));
        report.set(&format!("vtsim.fetches_{name}"), total(s, |r| r.fetches as f64));
        let wait_ns = total(s, |r| r.queue_wait_ns as f64);
        let tasks = total(s, |r| r.tasks as f64);
        report.set(&format!("vtsim.queue_wait_ms_{name}"), ratio(wait_ns, tasks) / 1e6);
    }
}
