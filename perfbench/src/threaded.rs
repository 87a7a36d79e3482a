//! The threaded workloads' common machinery, and the two that go
//! through the `kernels` drivers: stencil-ooc and matmul-reuse
//! (task-storm lives in `storm.rs`). Every strategy run builds a fresh
//! runtime. Its makespan is the wall time from the first send to the
//! completion latch; everything else the run costs (runtime build, block
//! allocation and initialisation, array registration, quiescence, trace
//! collection, teardown) is its set-up time.

use crate::report::Report;
use crate::stats::{median, pipe_ns, ratio, SplitMix};
use hetmem::{MemStats, NodeId, Topology, DDR4, HBM};
use hetrt_core::{OocConfig, OocStats, Placement, StrategyKind};
use kernels::dgemm::dgemm_naive;
use kernels::matmul::{run_matmul_with_init, MatmulConfig};
use kernels::stencil::{run_stencil, StencilConfig};
use projections::{LaneKind, SpanKind, TraceSummary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const MIB: u64 = 1 << 20;

/// HBM the naive placement leaves free, as the Fig. 8/9 drivers do.
const NAIVE_RESERVE: u64 = MIB;

/// PEs of both kernel workloads, as in the Fig. 8/9 drivers.
const PES: usize = 8;

/// The paper's four strategies (Figs. 8 and 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    Naive,
    Sync,
    SingleIo,
    MultiIo,
}

impl Strategy {
    pub const ALL: [Strategy; 4] = [
        Strategy::Naive,
        Strategy::Sync,
        Strategy::SingleIo,
        Strategy::MultiIo,
    ];

    /// The suffix of this strategy's metric names.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::Sync => "sync",
            Strategy::SingleIo => "single_io",
            Strategy::MultiIo => "multi_io",
        }
    }

    /// Naive runs without a hook; the managed strategies are the paper's
    /// synchronous, single-IO-thread and IO-thread-per-PE schemes.
    pub fn kind(self, pes: usize) -> StrategyKind {
        match self {
            Strategy::Naive => StrategyKind::Baseline,
            Strategy::Sync => StrategyKind::SyncFetch,
            Strategy::SingleIo => StrategyKind::single_io(),
            Strategy::MultiIo => StrategyKind::multi_io(pes),
        }
    }

    /// Naive fills HBM first and overflows to DDR4; the managed
    /// strategies start from DDR4 and move blocks themselves.
    pub fn placement(self, reserve: u64) -> Placement {
        match self {
            Strategy::Naive => Placement::PreferHbm { reserve },
            _ => Placement::DdrOnly,
        }
    }

    fn io_threads(self, pes: usize) -> usize {
        match self {
            Strategy::SingleIo => 1,
            Strategy::MultiIo => pes,
            _ => 0,
        }
    }
}

/// Run the strategies round-robin, rotating the order every cycle so no
/// strategy always goes first, until the next run would overrun
/// `budget`. Every strategy runs at least once.
pub fn cycle<T>(budget: Duration, mut run: impl FnMut(Strategy) -> T) -> Vec<(Strategy, T)> {
    let start = Instant::now();
    let mut last = [Duration::ZERO; 4];
    let mut out = Vec::new();
    for k in 0.. {
        let i = (k % 4 + k / 4) % 4;
        if k >= 4 && start.elapsed() + last[i] > budget {
            break;
        }
        let t = Instant::now();
        out.push((Strategy::ALL[i], run(Strategy::ALL[i])));
        last[i] = t.elapsed();
    }
    out
}

/// What the benchmark measured around one strategy run.
pub struct Sample {
    pub makespan_ns: u64,
    pub setup_ns: u64,
    pub stats: OocStats,
    pub summary: TraceSummary,
    pub mem: MemStats,
}

/// The fixed shape of a threaded workload.
pub struct Geometry {
    pub pes: usize,
    /// Tasks one strategy run executes.
    pub tasks: u64,
    /// Dependences each task declares.
    pub deps_per_task: u64,
    pub topology: Topology,
    /// Whether the fetch and eviction counts must repeat exactly.
    pub exact_counts: bool,
}

/// Turn a workload's samples (`None` for a failed run) into task counts,
/// the end-to-end metrics, and the per-layer metrics of the first run
/// of each strategy.
pub fn summarize(geo: &Geometry, samples: &[(Strategy, Option<Sample>)], report: &mut Report) {
    let failed = samples
        .iter()
        .map(|(_, s)| {
            s.as_ref().map_or(geo.tasks, |s| {
                s.stats.degraded_tasks + s.stats.rejected_tasks
            })
        })
        .sum();
    report.tasks(samples.len() as u64 * geo.tasks, failed);
    let of = |want: Strategy| {
        samples
            .iter()
            .filter(move |(s, _)| *s == want)
            .filter_map(|(_, x)| x.as_ref())
    };
    let mut setups = Vec::new();
    for strategy in Strategy::ALL {
        let secs: Vec<f64> = of(strategy).map(|s| s.makespan_ns as f64 / 1e9).collect();
        setups.extend(of(strategy).map(|s| s.setup_ns as f64 / 1e9));
        report.note(format_args!(
            "{:<9} makespans (s): {}",
            strategy.name(),
            fmt_list(&secs)
        ));
        report.set(&format!("makespan_{}_s", strategy.name()), median(&secs));
        if geo.exact_counts {
            let counts: Vec<(u64, u64)> = of(strategy)
                .map(|s| (s.stats.fetches, s.stats.evictions))
                .collect();
            if counts.windows(2).any(|w| w[0] != w[1]) {
                report.fail(format_args!(
                    "{} fetch/eviction counts drifted between runs: {counts:?}",
                    strategy.name()
                ));
            } else if let Some((f, e)) = counts.first() {
                report.note(format_args!(
                    "{} fetches {f}, evictions {e}: the same in all {} runs",
                    strategy.name(),
                    counts.len()
                ));
            }
        }
    }
    report.note(format_args!("set-up (s): {}", fmt_list(&setups)));
    report.set("setup_s", median(&setups));
    if let [Some(naive), Some(sync), Some(single), Some(multi)] =
        Strategy::ALL.map(|s| of(s).next())
    {
        layer_metrics(geo, [naive, sync, single, multi], report);
    }
}

fn fmt_list(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    cells.join(" ")
}

/// Busy time of a run's IO-thread lanes: everything they recorded except
/// idling.
fn io_busy_ns(summary: &TraceSummary) -> f64 {
    summary
        .lanes
        .iter()
        .filter(|l| l.lane.kind == LaneKind::Io)
        .map(|l| (l.breakdown.total_ns() - l.breakdown.get(SpanKind::Idle)) as f64)
        .sum()
}

fn total(runs: &[&Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    runs.iter().map(|&s| f(s)).sum()
}

fn span_ns(kind: SpanKind) -> impl Fn(&Sample) -> f64 {
    move |s| s.summary.total.get(kind) as f64
}

/// Per-layer metrics from one run of each strategy (naive, sync,
/// single-io, multi-io). Core metrics cover the three managed runs.
fn layer_metrics(geo: &Geometry, runs: [&Sample; 4], report: &mut Report) {
    let [_, sync, single, multi] = runs;
    let managed = [sync, single, multi];

    let admitted = total(&managed, |s| s.stats.admitted as f64);
    let fetches = total(&managed, |s| s.stats.fetches as f64);
    let no_space = total(&managed, |s| s.stats.no_space_events as f64);
    let queue_wait_ns = total(&managed, |s| s.stats.queue_wait_ns as f64);
    report.set("core.queue_wait_ms_mean", ratio(queue_wait_ns, admitted) / 1e6);
    report.set("core.fetch_s", total(&managed, span_ns(SpanKind::Fetch)) / 1e9);
    report.set("core.evict_s", total(&managed, span_ns(SpanKind::Evict)) / 1e9);
    report.set(
        "core.block_wait_s",
        total(&managed, span_ns(SpanKind::BlockWait)) / 1e9,
    );
    let io_lane_ns: f64 = [(Strategy::SingleIo, single), (Strategy::MultiIo, multi)]
        .iter()
        .map(|(strategy, s)| strategy.io_threads(geo.pes) as f64 * s.makespan_ns as f64)
        .sum();
    let io_busy = total(&[single, multi], |s| io_busy_ns(&s.summary));
    report.set("core.io_busy_frac", ratio(io_busy, io_lane_ns));
    report.set("core.fetches", fetches);
    report.set("core.evictions", total(&managed, |s| s.stats.evictions as f64));
    report.set("core.no_space", no_space);
    report.set("core.admit_ratio", ratio(admitted, admitted + no_space));
    report.set(
        "core.reuse_ratio",
        1.0 - ratio(fetches, admitted * geo.deps_per_task as f64),
    );

    let recorded = total(&runs, |s| s.summary.total.total_ns() as f64);
    let compute = total(&runs, span_ns(SpanKind::Compute));
    report.set("kernels.compute_s", compute / 1e9);
    report.set("kernels.compute_frac", ratio(compute, recorded));
    let overhead = total(&runs, |s| s.summary.total.overhead_ns() as f64);
    report.set("projections.overhead_frac", ratio(overhead, recorded));

    let window = total(&runs, |s| s.makespan_ns as f64);
    let charged = |node: NodeId| -> u64 {
        runs.iter()
            .map(|s| s.mem.nodes[node.index()].bytes_charged)
            .sum()
    };
    let rate = |node: NodeId| geo.topology.node(node).bandwidth_bytes_per_sec;
    let (ddr, hbm) = (charged(DDR4), charged(HBM));
    report.set("hetmem.ddr_busy_frac", ratio(pipe_ns(ddr, rate(DDR4)), window));
    report.set("hetmem.hbm_busy_frac", ratio(pipe_ns(hbm, rate(HBM)), window));
    let peak = managed
        .iter()
        .map(|s| {
            let n = &s.mem.nodes[HBM.index()];
            ratio(n.peak_used_bytes as f64, n.capacity_bytes as f64)
        })
        .fold(0.0, f64::max);
    report.set("hetmem.hbm_peak_frac", peak);
    report.set("hetmem.ddr_bytes", ddr as f64);
    report.set("hetmem.hbm_bytes", hbm as f64);
}

/// Time one kernel-driver run, whose closure returns its checksum and
/// measurements, and check the checksum against the serial reference
/// bit for bit. A failed check or a panic fails the run.
fn kernel_sample(
    workload: &str,
    strategy: Strategy,
    reference: f64,
    report: &mut Report,
    run: impl FnOnce() -> (f64, Sample),
) -> Option<Sample> {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(run));
    let wall_ns = start.elapsed().as_nanos() as u64;
    match outcome {
        Ok((checksum, mut sample)) if checksum.to_bits() == reference.to_bits() => {
            sample.setup_ns = wall_ns.saturating_sub(sample.makespan_ns);
            Some(sample)
        }
        Ok((checksum, _)) => {
            report.fail(format_args!(
                "{workload} {}: checksum {checksum} differs from the serial reference {reference}",
                strategy.name()
            ));
            None
        }
        Err(_) => {
            report.fail(format_args!("{workload} {}: run panicked", strategy.name()));
            None
        }
    }
}

/// stencil-ooc: the Fig. 8 `--quick` geometry, 4×4×4 chares of 512 KiB
/// blocks (32 MiB) over 16 MiB of HBM, 8 PEs, 4 compute passes and 2
/// iterations. Blocks are private and used once, so every task fetches
/// and evicts.
fn stencil_config(strategy: Strategy) -> StencilConfig {
    StencilConfig {
        chares: (4, 4, 4),
        block: (64, 32, 32),
        iterations: 2,
        pes: PES,
        strategy: strategy.kind(PES),
        placement: strategy.placement(NAIVE_RESERVE),
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled(),
        compute_passes: 4,
        faults: None,
    }
}

/// Serial Jacobi over `run_stencil`'s decomposition and initial values,
/// summed the way its checksum is (per block, then over blocks). The
/// arithmetic order is the kernel's, so a correct run matches bit for
/// bit.
fn stencil_reference(cfg: &StencilConfig) -> f64 {
    let (cx, cy, cz) = cfg.chares;
    let (bx, by, bz) = cfg.block;
    let mut blocks: Vec<Vec<f64>> = (0..cfg.chare_count())
        .map(|i| {
            (0..bx * by * bz)
                .map(|j| ((i * 31 + j * 7) % 1000) as f64 / 1000.0)
                .collect()
        })
        .collect();
    let at = |b: &[f64], x: usize, y: usize, z: usize| b[(z * by + y) * bx + x];
    for _ in 0..cfg.iterations {
        let old = blocks.clone();
        for (c, block) in blocks.iter_mut().enumerate() {
            let (gx, gy, gz) = (c % cx, (c / cx) % cy, c / (cx * cy));
            let neighbour = |exists: bool, x: usize, y: usize, z: usize| {
                exists.then(|| old[(z * cy + y) * cx + x].as_slice())
            };
            let west = neighbour(gx > 0, gx.wrapping_sub(1), gy, gz);
            let east = neighbour(gx + 1 < cx, gx + 1, gy, gz);
            let south = neighbour(gy > 0, gx, gy.wrapping_sub(1), gz);
            let north = neighbour(gy + 1 < cy, gx, gy + 1, gz);
            let below = neighbour(gz > 0, gx, gy, gz.wrapping_sub(1));
            let above = neighbour(gz + 1 < cz, gx, gy, gz + 1);
            let me = old[c].as_slice();
            for z in 0..bz {
                for y in 0..by {
                    for x in 0..bx {
                        let v = at(me, x, y, z);
                        let xm = if x > 0 { at(me, x - 1, y, z) } else { west.map_or(v, |b| at(b, bx - 1, y, z)) };
                        let xp = if x + 1 < bx { at(me, x + 1, y, z) } else { east.map_or(v, |b| at(b, 0, y, z)) };
                        let ym = if y > 0 { at(me, x, y - 1, z) } else { south.map_or(v, |b| at(b, x, by - 1, z)) };
                        let yp = if y + 1 < by { at(me, x, y + 1, z) } else { north.map_or(v, |b| at(b, x, 0, z)) };
                        let zm = if z > 0 { at(me, x, y, z - 1) } else { below.map_or(v, |b| at(b, x, y, bz - 1)) };
                        let zp = if z + 1 < bz { at(me, x, y, z + 1) } else { above.map_or(v, |b| at(b, x, y, 0)) };
                        block[(z * by + y) * bx + x] = (v + xm + xp + ym + yp + zm + zp) / 7.0;
                    }
                }
            }
        }
    }
    blocks.iter().map(|b| b.iter().sum::<f64>()).sum()
}

pub fn stencil_ooc(budget: Duration, report: &mut Report) {
    let cfg = stencil_config(Strategy::Naive);
    report.note(format_args!(
        "stencil-ooc: run_stencil, {:?} chares x {:?} f64 blocks ({} MiB) on knl_flat_scaled \
         (16 MiB HBM), {PES} PEs, {} iterations, {} compute passes; run_stencil fixes its \
         initial values, so the seed does not change them",
        cfg.chares,
        cfg.block,
        cfg.total_bytes() >> 20,
        cfg.iterations,
        cfg.compute_passes
    ));
    let reference = stencil_reference(&cfg);
    let samples = cycle(budget, |strategy| {
        kernel_sample("stencil-ooc", strategy, reference, report, || {
            let r = run_stencil(&stencil_config(strategy));
            let sample = Sample {
                makespan_ns: r.total_ns,
                setup_ns: 0,
                stats: r.stats,
                summary: r.summary,
                mem: r.mem_stats,
            };
            (r.checksum, sample)
        })
    });
    let geo = Geometry {
        pes: PES,
        tasks: (cfg.chare_count() * cfg.iterations) as u64,
        deps_per_task: 1,
        topology: cfg.topology,
        exact_counts: false,
    };
    summarize(&geo, &samples, report);
}

/// matmul-reuse: grid 12 of 64×64 f64 blocks (13.5 MiB for A, B and C)
/// over 9 MiB of HBM, 8 PEs and 2 compute passes. A and B blocks are
/// shared read-only, so blocks are reused and tasks wait on blocks
/// mid-move; each task declares its A row, B column and C block (25
/// dependences).
fn matmul_config(strategy: Strategy) -> MatmulConfig {
    MatmulConfig {
        grid: 12,
        block: 64,
        pes: PES,
        strategy: strategy.kind(PES),
        placement: strategy.placement(NAIVE_RESERVE),
        ooc: OocConfig::default(),
        topology: Topology::knl_flat_scaled_with(9 * MIB, 96 * MIB),
        compute_passes: 2,
        faults: None,
    }
}

/// Seeded matrix entry: a multiple of 1/8 in [0, 2). Products and sums
/// of such values stay exact in f64 at this size, so a correct run
/// reproduces the serial product's checksum bit for bit, whatever order
/// its blocks were multiplied in.
fn matrix_entry(seed: u64, matrix: u64, row: usize, col: usize) -> f64 {
    let key = (matrix << 60) ^ ((row as u64) << 30) ^ col as u64;
    let mut rng = SplitMix(SplitMix(seed).next_u64() ^ key);
    (rng.next_u64() % 16) as f64 / 8.0
}

/// The serial reference: `dgemm_naive` over every block triple, summed
/// over C.
fn matmul_reference(cfg: &MatmulConfig, seed: u64) -> f64 {
    let (g, n) = (cfg.grid, cfg.block);
    let block = |matrix: u64, bi: usize, bj: usize| -> Vec<f64> {
        (0..n * n)
            .map(|e| matrix_entry(seed, matrix, bi * n + e / n, bj * n + e % n))
            .collect()
    };
    let a: Vec<Vec<f64>> = (0..g * g).map(|i| block(0, i / g, i % g)).collect();
    let b: Vec<Vec<f64>> = (0..g * g).map(|i| block(1, i / g, i % g)).collect();
    let mut sum = 0.0;
    for i in 0..g {
        for j in 0..g {
            let mut c = vec![0.0; n * n];
            for k in 0..g {
                dgemm_naive(n, &a[i * g + k], &b[k * g + j], &mut c);
            }
            sum += c.iter().sum::<f64>();
        }
    }
    sum
}

fn run_matmul_seeded(cfg: &MatmulConfig, seed: u64) -> (f64, Sample) {
    let r = run_matmul_with_init(
        cfg,
        |row, col| matrix_entry(seed, 0, row, col),
        |row, col| matrix_entry(seed, 1, row, col),
    );
    let sample = Sample {
        makespan_ns: r.total_ns,
        setup_ns: 0,
        stats: r.stats,
        summary: r.summary,
        mem: r.mem_stats,
    };
    (r.checksum, sample)
}

pub fn matmul_reuse(seed: u64, budget: Duration, report: &mut Report) {
    let cfg = matmul_config(Strategy::Naive);
    report.note(format_args!(
        "matmul-reuse: run_matmul_with_init, grid {} of {}x{} f64 blocks ({:.1} MiB) on \
         knl_flat_scaled with 9 MiB HBM, {PES} PEs, {} compute passes; A and B entries \
         drawn from the seed",
        cfg.grid,
        cfg.block,
        cfg.block,
        cfg.total_bytes() as f64 / MIB as f64,
        cfg.compute_passes
    ));
    let reference = matmul_reference(&cfg, seed);
    let samples = cycle(budget, |strategy| {
        kernel_sample("matmul-reuse", strategy, reference, report, || {
            run_matmul_seeded(&matmul_config(strategy), seed)
        })
    });
    let geo = Geometry {
        pes: PES,
        tasks: (cfg.grid * cfg.grid) as u64,
        deps_per_task: 2 * cfg.grid as u64 + 1,
        topology: cfg.topology,
        exact_counts: false,
    };
    summarize(&geo, &samples, report);
}
