//! Blocked matrix multiplication over a 2-D chare grid — §V-B.
//!
//! Matrices A, B and C (N×N, N = grid·block) are split into
//! `grid × grid` square blocks. Chare (i,j) owns `C[i][j]`; its single
//! `[prefetch]` entry method depends on its whole A block-row
//! (`readonly`), whole B block-column (`readonly`) and C (`readwrite`),
//! and computes `C[i][j] = Σ_k A[i][k]·B[k][j]` with one blocked dgemm
//! per k ("the IO threads process the chares in a FIFO manner").
//!
//! [`MatmulDriver`] runs the k-steps in chunks (see the `chunk` module):
//! each message carries a k-range, depends on only that slice of the
//! A row and B column, and accumulates it into C in ascending k, so any
//! chunking is bitwise equal to one chunk. [`run_matmul`] is one chunk,
//! the range `0..grid`.
//!
//! A-row and B-column blocks are *shared read-only* across chares — the
//! paper's node-level nodegroup cache — and each fetched block feeds
//! `grid` compute passes. That high compute-traffic-to-fetch ratio is
//! why even a single IO thread performs well here ("when a data block
//! is fetched into HBM, it is consequently reused before eviction to
//! DDR4"), in contrast to stencil's private, use-once blocks.

use crate::chunk::{build_runtime, chunk_end, run_chunk, run_to_end};
use crate::dgemm::{dgemm_block, dgemm_traffic_bytes};
use crate::traffic::charge_guard;
use converse::{ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, Mapping};
use hetmem::{AccessMode, BlockId, MemError, Memory, Topology, DDR4, HBM};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use projections::TraceSummary;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Entry: the whole-row × whole-column multiply (`entry [prefetch]`).
pub const EP_MULTIPLY: EntryId = EntryId(0);

/// Configuration of one matmul run.
#[derive(Clone)]
pub struct MatmulConfig {
    /// Chare grid edge (grid × grid chares, and blocks per matrix edge).
    pub grid: usize,
    /// Block edge in elements.
    pub block: usize,
    /// Worker PEs.
    pub pes: usize,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Initial placement of all matrix blocks.
    pub placement: Placement,
    /// Memory-aware layer configuration.
    pub ooc: OocConfig,
    /// Memory topology.
    pub topology: Topology,
    /// Streaming passes per block per k-step: a tiled dgemm re-reads
    /// its operands several times, which is what makes the kernel
    /// bandwidth-sensitive at scale (§V: "matrix multiplication ...
    /// with vectorization becomes bandwidth sensitive").
    pub compute_passes: usize,
    /// Optional fault injector for chaos/resilience experiments;
    /// `None` runs fault-free.
    pub faults: Option<Arc<dyn hetmem::FaultInjector>>,
}

impl MatmulConfig {
    /// A small smoke-test configuration.
    pub fn tiny() -> Self {
        Self {
            grid: 2,
            block: 16,
            pes: 2,
            strategy: StrategyKind::Baseline,
            placement: Placement::HbmOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        }
    }

    /// Matrix edge N.
    pub fn n(&self) -> usize {
        self.grid * self.block
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.block * self.block * 8
    }

    /// Total working set (3 matrices), bytes.
    pub fn total_bytes(&self) -> usize {
        3 * self.grid * self.grid * self.block_bytes()
    }
}

/// Results of one matmul run.
#[derive(Debug, Clone)]
pub struct MatmulReport {
    /// Wall (clock) time of the whole run, ns.
    pub total_ns: u64,
    /// Sum over all C entries.
    pub checksum: f64,
    /// Strategy statistics.
    pub stats: hetrt_core::OocStats,
    /// Trace summary.
    pub summary: TraceSummary,
    /// Memory subsystem statistics.
    pub mem_stats: hetmem::MemStats,
}

/// One chunk's work for a chare: accumulate the k-steps in `k`.
struct MatmulMsg {
    k: Range<usize>,
    latch: Arc<CompletionLatch>,
}

struct MatmulChare {
    block: usize,
    compute_passes: usize,
    a_row: Vec<IoHandle<f64>>, // A[i][0..grid]
    b_col: Vec<IoHandle<f64>>, // B[0..grid][j]
    c: IoHandle<f64>,          // C[i][j]
    mem: Arc<Memory>,
}

impl Chare for MatmulChare {
    type Msg = MatmulMsg;

    fn execute(&mut self, entry: EntryId, msg: MatmulMsg, _ctx: &mut ExecCtx<'_>) {
        debug_assert_eq!(entry, EP_MULTIPLY);
        let n = self.block;
        let passes = self.compute_passes as u64;
        let block_bytes = (n * n * 8) as u64;
        let mut gc = self.c.access(AccessMode::ReadWrite);
        for k in msg.k {
            let ga = self.a_row[k].access(AccessMode::ReadOnly);
            let gb = self.b_col[k].access(AccessMode::ReadOnly);
            // The bandwidth-sensitive traffic of one tiled block dgemm,
            // at each block's current node.
            let (_reads, writes) = dgemm_traffic_bytes(n);
            charge_guard(&self.mem, &ga, passes * block_bytes, 0);
            charge_guard(&self.mem, &gb, passes * block_bytes, 0);
            charge_guard(&self.mem, &gc, passes * block_bytes, passes * writes);
            dgemm_block(
                n,
                ga.as_slice::<f64>(),
                gb.as_slice::<f64>(),
                gc.as_mut_slice::<f64>(),
            );
        }
        drop(gc);
        msg.latch.count_down();
    }

    fn deps(&self, _entry: EntryId, msg: &MatmulMsg) -> Vec<Dep> {
        let a = self.a_row[msg.k.clone()].iter();
        let b = self.b_col[msg.k.clone()].iter();
        a.chain(b)
            .map(|h| h.dep(AccessMode::ReadOnly))
            .chain([self.c.dep(AccessMode::ReadWrite)])
            .collect()
    }
}

/// A matmul run driven in chunks of k-steps: after `grid` k-steps C
/// holds the full product. Checkpoints at chunk boundaries capture A, B
/// and the partially accumulated C.
pub struct MatmulDriver {
    cfg: MatmulConfig,
    ooc: OocRuntime,
    c: Vec<IoHandle<f64>>,
    array: ArrayId,
}

impl MatmulDriver {
    /// Start a fresh run with the default deterministic A and B; C
    /// starts at zero.
    pub fn new(cfg: MatmulConfig) -> Self {
        Self::with_init(cfg, default_a, default_b)
    }

    /// Start a fresh run with explicit initialisers for A and B.
    pub fn with_init(
        cfg: MatmulConfig,
        init_a: impl Fn(usize, usize) -> f64,
        init_b: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let ooc = runtime(&cfg);
        let a = make_blocks(ooc.memory(), &cfg, "A", init_a);
        let b = make_blocks(ooc.memory(), &cfg, "B", init_b);
        let c = make_blocks(ooc.memory(), &cfg, "C", |_, _| 0.0);
        Self::assemble(cfg, ooc, a, b, c)
    }

    /// Resume from a checkpoint of the same configuration. Block ids
    /// follow allocation order: A row-major, then B, then C.
    pub fn resume(cfg: MatmulConfig, checkpoint: &Path) -> Result<Self, MemError> {
        let ooc = runtime(&cfg);
        ooc.restore(checkpoint)?;
        let blocks = cfg.grid * cfg.grid;
        let elems = cfg.block * cfg.block;
        let attach = |matrix: usize| -> Result<Vec<IoHandle<f64>>, MemError> {
            (matrix * blocks..(matrix + 1) * blocks)
                .map(|id| IoHandle::attach(ooc.memory(), BlockId(id as u32), elems))
                .collect()
        };
        let (a, b, c) = (attach(0)?, attach(1)?, attach(2)?);
        Ok(Self::assemble(cfg, ooc, a, b, c))
    }

    fn assemble(
        cfg: MatmulConfig,
        ooc: OocRuntime,
        a: Vec<IoHandle<f64>>,
        b: Vec<IoHandle<f64>>,
        c: Vec<IoHandle<f64>>,
    ) -> Self {
        let g = cfg.grid;
        let (block, compute_passes) = (cfg.block, cfg.compute_passes);
        let (mem, c2) = (Arc::clone(ooc.memory()), c.clone());
        let array = ooc
            .runtime()
            .array_builder::<MatmulChare>()
            .entry(EP_MULTIPLY, EntryOptions::prefetch())
            .mapping(Mapping::RoundRobin)
            .build(g * g, move |idx| {
                let (i, j) = (idx / g, idx % g);
                MatmulChare {
                    block,
                    compute_passes,
                    a_row: a[i * g..(i + 1) * g].to_vec(),
                    b_col: (0..g).map(|k| b[k * g + j].clone()).collect(),
                    c: c2[idx].clone(),
                    mem: Arc::clone(&mem),
                }
            });
        Self { cfg, ooc, c, array }
    }

    /// The underlying runtime (stats, trace, checkpoint).
    pub fn ooc(&self) -> &OocRuntime {
        &self.ooc
    }

    /// k-steps completed so far.
    pub fn completed_iterations(&self) -> u64 {
        self.ooc.iteration()
    }

    /// Run k-steps up to `end` as one chunk; returns its makespan in ns.
    fn chunk(&self, end: u64) -> u64 {
        let rt = self.ooc.runtime();
        let k = self.ooc.iteration() as usize..end as usize;
        let chares = self.cfg.grid * self.cfg.grid;
        run_chunk(&self.ooc, chares, end, |latch| {
            for idx in 0..chares {
                let (k, latch) = (k.clone(), Arc::clone(latch));
                rt.send(self.array, idx, EP_MULTIPLY, MatmulMsg { k, latch });
            }
        })
    }

    /// Run the next chunk: up to the next multiple of
    /// [`OocConfig::checkpoint_every`], or to the end when that is 0.
    /// Returns the chunk's makespan in ns.
    pub fn step(&self) -> u64 {
        let total = self.cfg.grid as u64;
        self.chunk(chunk_end(&self.ooc, self.cfg.ooc.checkpoint_every, total))
    }

    /// Run all `grid` k-steps. With a `checkpoint` path, every chunk
    /// ends with a checkpoint there; without one the rest of the run is
    /// one chunk.
    pub fn run(&self, checkpoint: Option<&Path>) -> Result<(), MemError> {
        run_to_end(&self.ooc, self.cfg.grid as u64, checkpoint, |end| {
            self.chunk(end)
        })
    }

    /// Full C contents, block row-major (bitwise comparison).
    pub fn c_contents(&self) -> Vec<Vec<f64>> {
        self.c.iter().map(|h| h.read(<[f64]>::to_vec)).collect()
    }

    /// Sum over all C entries.
    pub fn checksum(&self) -> f64 {
        self.c
            .iter()
            .map(|h| h.read(|xs| xs.iter().sum::<f64>()))
            .sum()
    }

    /// Stop the runtime. Also runs on drop.
    pub fn shutdown(&self) {
        self.ooc.shutdown();
    }
}

fn runtime(cfg: &MatmulConfig) -> OocRuntime {
    build_runtime(
        &cfg.topology,
        cfg.faults.as_ref(),
        cfg.pes,
        cfg.strategy,
        cfg.ooc,
    )
}

fn default_a(r: usize, c: usize) -> f64 {
    ((r * 13 + c * 7) % 10) as f64 / 10.0
}

fn default_b(r: usize, c: usize) -> f64 {
    ((r * 3 + c * 11) % 10) as f64 / 10.0
}

/// Allocate and deterministically initialise a matrix of blocks, block
/// row-major.
fn make_blocks(
    mem: &Arc<Memory>,
    cfg: &MatmulConfig,
    name: &str,
    init: impl Fn(usize, usize) -> f64,
) -> Vec<IoHandle<f64>> {
    let g = cfg.grid;
    let bs = cfg.block;
    (0..g * g)
        .map(|idx| {
            let (bi, bj) = (idx / g, idx % g);
            let h: IoHandle<f64> = IoHandle::new(
                mem,
                bs * bs,
                cfg.placement,
                HBM,
                DDR4,
                format!("{name}[{bi}][{bj}]"),
            )
            .expect("matrix block allocation");
            h.write(|xs| {
                for r in 0..bs {
                    for c in 0..bs {
                        xs[r * bs + c] = init(bi * bs + r, bj * bs + c);
                    }
                }
            });
            h
        })
        .collect()
}

/// Run a matmul experiment end to end. Returns the report; panics if
/// the run does not complete.
pub fn run_matmul(cfg: &MatmulConfig) -> MatmulReport {
    run_matmul_with_init(cfg, default_a, default_b)
}

/// Run with explicit initialisers for A and B (tests use small exact
/// values), as one chunk.
pub fn run_matmul_with_init(
    cfg: &MatmulConfig,
    init_a: impl Fn(usize, usize) -> f64,
    init_b: impl Fn(usize, usize) -> f64,
) -> MatmulReport {
    let driver = MatmulDriver::with_init(cfg.clone(), init_a, init_b);
    let total_ns = driver.chunk(cfg.grid as u64);
    let checksum = driver.checksum();
    let ooc = driver.ooc();
    let stats = ooc.stats();
    let summary = ooc.finish_trace().summarize();
    let mem_stats = ooc.memory().stats();
    driver.shutdown();
    MatmulReport {
        total_ns,
        checksum,
        stats,
        summary,
        mem_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgemm::dgemm_naive;

    fn chunked_cfg(checkpoint_every: u64) -> MatmulConfig {
        MatmulConfig {
            grid: 3,
            block: 8,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ooc: OocConfig {
                checkpoint_every,
                ..OocConfig::default()
            },
            ..MatmulConfig::tiny()
        }
    }

    fn one_chunk_contents(cfg: MatmulConfig) -> Vec<Vec<f64>> {
        let driver = MatmulDriver::new(cfg);
        driver.run(None).unwrap();
        let contents = driver.c_contents();
        driver.shutdown();
        contents
    }

    #[test]
    fn chunked_run_is_bitwise_equal_to_one_chunk() {
        for (every, chunks) in [(1, 3), (0, 1)] {
            let cfg = chunked_cfg(every);
            let want = one_chunk_contents(cfg.clone());
            let driver = MatmulDriver::new(cfg.clone());
            let mut steps = 0;
            while driver.completed_iterations() < cfg.grid as u64 {
                driver.step();
                steps += 1;
            }
            assert_eq!(steps, chunks, "every {every}");
            assert_eq!(driver.c_contents(), want, "every {every}");
            assert_eq!(driver.checksum(), run_matmul(&cfg).checksum);
            driver.shutdown();
        }
    }

    #[test]
    fn matmul_restored_mid_run_finishes_bitwise_identical() {
        let dir = std::env::temp_dir().join("kernels-matmul-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("midrun-{}.ckpt", std::process::id()));
        let cfg = chunked_cfg(1);
        let want = one_chunk_contents(chunked_cfg(0));

        let crashed = MatmulDriver::new(cfg.clone());
        crashed.step();
        crashed.ooc().checkpoint(&path).unwrap();
        crashed.step(); // work past the checkpoint is lost with the "crash"
        crashed.shutdown();
        drop(crashed);

        let resumed = MatmulDriver::resume(cfg, &path).unwrap();
        assert_eq!(resumed.completed_iterations(), 1);
        resumed.run(None).unwrap();
        assert_eq!(resumed.c_contents(), want, "restart must be bitwise exact");
        resumed.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    /// Reference product checksum for the given initialisers.
    fn reference_checksum(cfg: &MatmulConfig) -> f64 {
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
    fn baseline_matches_reference_product() {
        let cfg = MatmulConfig::tiny();
        let r = run_matmul(&cfg);
        let want = reference_checksum(&cfg);
        assert!(
            (r.checksum - want).abs() < 1e-6 * want.abs().max(1.0),
            "checksum {} != reference {want}",
            r.checksum
        );
    }

    #[test]
    fn managed_strategies_match_reference() {
        let mut cfg = MatmulConfig::tiny();
        let want = reference_checksum(&cfg);
        for strategy in [
            StrategyKind::SyncFetch,
            StrategyKind::single_io(),
            StrategyKind::multi_io(2),
        ] {
            cfg.strategy = strategy;
            cfg.placement = Placement::DdrOnly;
            let r = run_matmul(&cfg);
            assert!(
                (r.checksum - want).abs() < 1e-6 * want.abs().max(1.0),
                "{strategy:?}: {} != {want}",
                r.checksum
            );
            assert_eq!(
                r.stats.completed,
                (cfg.grid * cfg.grid) as u64,
                "{strategy:?} completed count"
            );
        }
    }

    #[test]
    fn read_only_blocks_are_reused_across_chares() {
        // With single IO thread and shared A/B blocks, the number of
        // fetches must be well below tasks × deps: reuse keeps blocks
        // resident (the paper's §V-B observation).
        let cfg = MatmulConfig {
            grid: 3,
            block: 8,
            pes: 2,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        };
        let r = run_matmul(&cfg);
        let tasks = (cfg.grid * cfg.grid) as u64;
        assert_eq!(r.stats.completed, tasks);
        // Each task declares 2·grid+1 dependences; shared A/B blocks
        // must be fetched far fewer times than they are depended upon.
        let deps_total = tasks * (2 * cfg.grid as u64 + 1);
        assert!(
            r.stats.fetches < deps_total * 2 / 3,
            "fetches {} should be well below {deps_total}",
            r.stats.fetches,
        );
    }

    #[test]
    fn config_geometry() {
        let cfg = MatmulConfig {
            grid: 4,
            block: 32,
            ..MatmulConfig::tiny()
        };
        assert_eq!(cfg.n(), 128);
        assert_eq!(cfg.block_bytes(), 8192);
        assert_eq!(cfg.total_bytes(), 3 * 16 * 8192);
    }
}
