//! Stencil3D over a chare grid — the paper's §V-A workload.
//!
//! A `cx × cy × cz` grid of chares each owns a `bx × by × bz` block of
//! doubles. Every iteration (Algorithm 2 of the paper):
//!
//! 1. receive one halo plane from each face-neighbour,
//! 2. once all have arrived, run the `[prefetch]`-annotated
//!    `compute_kernel` — a 7-point Jacobi update over the block, with a
//!    `readwrite` dependence on the block (so the runtime stages it
//!    into HBM first),
//! 3. send the updated boundary planes to the neighbours for the next
//!    iteration.
//!
//! Each chare reads and writes only its own block ("the update of grid
//! elements by each chare is done independently, i.e. each chare reads
//! and writes to independent data blocks in each iteration"), which is
//! why the single-IO-thread strategy suffers here: no reuse, every task
//! needs its own fetch.
//!
//! [`StencilDriver`] runs the iterations in chunks (see [`crate::chunk`]):
//! a chunk's Start message names its end iteration, and at that
//! iteration each chare stops sending halos. The next Start re-extracts
//! the boundary planes from the quiescent block, which are the planes
//! the pipelined run would have sent, so any chunking is bitwise equal
//! to one chunk. [`run_stencil`] is one chunk.

use crate::chunk::{build_runtime, chunk_end, run_chunk, run_to_end};
use converse::{ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, Mapping};
use hetmem::{AccessMode, BlockId, MemError, Memory, Topology, DDR4, HBM};
use hetrt_core::{IoHandle, OocConfig, OocRuntime, Placement, StrategyKind};
use projections::TraceSummary;
use std::path::Path;
use std::sync::Arc;

/// Entry: halo plane delivery (plain entry method).
pub const EP_HALO: EntryId = EntryId(0);
/// Entry: the bandwidth-sensitive update (`entry [prefetch]`).
pub const EP_COMPUTE: EntryId = EntryId(1);
/// Entry: chunk kick-off (send the current halos).
pub const EP_START: EntryId = EntryId(2);

/// Messages between stencil chares.
pub enum StencilMsg {
    /// Start a chunk: iterate up to `end`, then count `latch` down.
    Start {
        /// Iteration at which the chunk ends.
        end: usize,
        /// Counted down once per chare at the chunk's end.
        latch: Arc<CompletionLatch>,
    },
    /// A neighbour's boundary plane for `iter`.
    Halo {
        /// Iteration the plane belongs to.
        iter: usize,
        /// Receiving face (0:-x 1:+x 2:-y 3:+y 4:-z 5:+z).
        face: usize,
        /// Plane values.
        data: Vec<f64>,
    },
    /// All halos for `iter` arrived: run the update.
    Compute {
        /// Iteration to compute.
        iter: usize,
    },
}

/// Configuration of one stencil run.
#[derive(Clone)]
pub struct StencilConfig {
    /// Chare grid dimensions.
    pub chares: (usize, usize, usize),
    /// Per-chare block dimensions (elements).
    pub block: (usize, usize, usize),
    /// Jacobi iterations.
    pub iterations: usize,
    /// Worker PEs.
    pub pes: usize,
    /// Scheduling strategy.
    pub strategy: StrategyKind,
    /// Initial placement of the blocks.
    pub placement: Placement,
    /// Memory-aware layer configuration.
    pub ooc: OocConfig,
    /// Memory topology.
    pub topology: Topology,
    /// Streaming passes over the block per compute task. The paper
    /// runs tiled computations that touch each fetched block several
    /// times ("to mimic tiling patterns that increase computation",
    /// §V-A) — this is what amortises one DDR4→HBM→DDR4 round trip
    /// against several block-passes at HBM speed.
    pub compute_passes: usize,
    /// Optional fault injector for chaos/resilience experiments;
    /// `None` runs fault-free.
    pub faults: Option<Arc<dyn hetmem::FaultInjector>>,
}

impl StencilConfig {
    /// A small smoke-test configuration.
    pub fn tiny() -> Self {
        Self {
            chares: (2, 2, 1),
            block: (8, 8, 8),
            iterations: 3,
            pes: 2,
            strategy: StrategyKind::Baseline,
            placement: Placement::HbmOnly,
            ooc: OocConfig::default(),
            topology: Topology::knl_flat_scaled(),
            compute_passes: 2,
            faults: None,
        }
    }

    /// Number of chares.
    pub fn chare_count(&self) -> usize {
        self.chares.0 * self.chares.1 * self.chares.2
    }

    /// Elements per block.
    fn elems(&self) -> usize {
        self.block.0 * self.block.1 * self.block.2
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.elems() * 8
    }

    /// Total working-set bytes (the paper's "total working set size").
    pub fn total_bytes(&self) -> usize {
        self.chare_count() * self.block_bytes()
    }
}

/// Results of one stencil run.
#[derive(Debug, Clone)]
pub struct StencilReport {
    /// Wall (clock) time of the whole run, ns.
    pub total_ns: u64,
    /// Mean time per iteration, ns.
    pub per_iteration_ns: f64,
    /// Sum over all grid values after the last iteration.
    pub checksum: f64,
    /// Strategy statistics.
    pub stats: hetrt_core::OocStats,
    /// Trace summary (compute vs overhead breakdown).
    pub summary: TraceSummary,
    /// ASCII rendering of the per-lane timeline (the Projections view).
    pub timeline: String,
    /// Memory subsystem statistics.
    pub mem_stats: hetmem::MemStats,
}

struct StencilChare {
    bdims: (usize, usize, usize),
    compute_passes: usize,
    block: IoHandle<f64>,
    mem: Arc<Memory>,
    array: Option<ArrayId>,
    /// The current chunk's latch and end iteration, set by Start.
    latch: Option<Arc<CompletionLatch>>,
    end: usize,
    iter: usize,
    /// Set once this chunk's Start has sent the chare's halo planes,
    /// cleared at the chunk's end. A compute must not fire before then:
    /// halos can arrive *before* our own Start message (the driver's
    /// send loop races with already-running workers), and computing
    /// early would make Start extract post-update planes for the
    /// neighbours.
    started: bool,
    /// Halo planes, double-buffered by iteration parity.
    halos: [Vec<Option<Vec<f64>>>; 2],
    received: [usize; 2],
    neighbors: Vec<(usize, usize)>, // (face, chare index)
    scratch: Vec<f64>,
}

/// Face order: 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z. `face ^ 1` is opposite.
fn neighbors_of(coord: (usize, usize, usize), dims: (usize, usize, usize)) -> Vec<(usize, usize)> {
    let (x, y, z) = coord;
    let (cx, cy, cz) = dims;
    let idx = |x: usize, y: usize, z: usize| (z * cy + y) * cx + x;
    let mut out = Vec::new();
    if x > 0 {
        out.push((0, idx(x - 1, y, z)));
    }
    if x + 1 < cx {
        out.push((1, idx(x + 1, y, z)));
    }
    if y > 0 {
        out.push((2, idx(x, y - 1, z)));
    }
    if y + 1 < cy {
        out.push((3, idx(x, y + 1, z)));
    }
    if z > 0 {
        out.push((4, idx(x, y, z - 1)));
    }
    if z + 1 < cz {
        out.push((5, idx(x, y, z + 1)));
    }
    out
}

fn plane_len(face: usize, (bx, by, bz): (usize, usize, usize)) -> usize {
    match face / 2 {
        0 => by * bz,
        1 => bx * bz,
        _ => bx * by,
    }
}

/// Extract the boundary plane of `block` facing `face`.
fn extract_plane(face: usize, dims: (usize, usize, usize), block: &[f64]) -> Vec<f64> {
    let (bx, by, bz) = dims;
    let at = |x: usize, y: usize, z: usize| block[(z * by + y) * bx + x];
    let mut out = Vec::with_capacity(plane_len(face, dims));
    match face {
        0 | 1 => {
            let x = if face == 0 { 0 } else { bx - 1 };
            for z in 0..bz {
                for y in 0..by {
                    out.push(at(x, y, z));
                }
            }
        }
        2 | 3 => {
            let y = if face == 2 { 0 } else { by - 1 };
            for z in 0..bz {
                for x in 0..bx {
                    out.push(at(x, y, z));
                }
            }
        }
        _ => {
            let z = if face == 4 { 0 } else { bz - 1 };
            for y in 0..by {
                for x in 0..bx {
                    out.push(at(x, y, z));
                }
            }
        }
    }
    out
}

/// 7-point Jacobi update of `block` given optional halo planes per
/// face; missing halos (domain boundary) reuse the cell's own value.
fn jacobi_update(
    dims: (usize, usize, usize),
    block: &mut [f64],
    scratch: &mut Vec<f64>,
    halos: &[Option<Vec<f64>>],
) {
    let (bx, by, bz) = dims;
    scratch.clear();
    scratch.extend_from_slice(block);
    let old = |x: usize, y: usize, z: usize| scratch[(z * by + y) * bx + x];
    let halo = |face: usize, a: usize, b: usize, da: usize| -> Option<f64> {
        halos[face].as_ref().map(|p| p[b * da + a])
    };
    for z in 0..bz {
        for y in 0..by {
            for x in 0..bx {
                let c = old(x, y, z);
                let xm = if x > 0 {
                    old(x - 1, y, z)
                } else {
                    halo(0, y, z, by).unwrap_or(c)
                };
                let xp = if x + 1 < bx {
                    old(x + 1, y, z)
                } else {
                    halo(1, y, z, by).unwrap_or(c)
                };
                let ym = if y > 0 {
                    old(x, y - 1, z)
                } else {
                    halo(2, x, z, bx).unwrap_or(c)
                };
                let yp = if y + 1 < by {
                    old(x, y + 1, z)
                } else {
                    halo(3, x, z, bx).unwrap_or(c)
                };
                let zm = if z > 0 {
                    old(x, y, z - 1)
                } else {
                    halo(4, x, y, bx).unwrap_or(c)
                };
                let zp = if z + 1 < bz {
                    old(x, y, z + 1)
                } else {
                    halo(5, x, y, bx).unwrap_or(c)
                };
                block[(z * by + y) * bx + x] = (c + xm + xp + ym + yp + zm + zp) / 7.0;
            }
        }
    }
}

impl StencilChare {
    fn send_halos(&self, iter: usize, ctx: &ExecCtx<'_>, block_vals: &[f64]) {
        let array = self.array.expect("array id set before start");
        for &(face, nbr) in &self.neighbors {
            let data = extract_plane(face, self.bdims, block_vals);
            ctx.send(
                array,
                nbr,
                EP_HALO,
                StencilMsg::Halo {
                    iter,
                    face: face ^ 1, // my +x plane is their -x halo
                    data,
                },
            );
        }
    }

    fn maybe_fire_compute(&mut self, ctx: &ExecCtx<'_>) {
        if !self.started {
            return;
        }
        let parity = self.iter % 2;
        if self.received[parity] == self.neighbors.len() {
            let array = self.array.expect("array id set");
            ctx.send(
                array,
                ctx.index(),
                EP_COMPUTE,
                StencilMsg::Compute { iter: self.iter },
            );
        }
    }
}

impl Chare for StencilChare {
    type Msg = StencilMsg;

    fn execute(&mut self, entry: EntryId, msg: StencilMsg, ctx: &mut ExecCtx<'_>) {
        match (entry, msg) {
            (EP_START, StencilMsg::Start { end, latch }) => {
                assert!(!self.started, "duplicate Start");
                assert!(self.iter < end, "empty chunk");
                (self.end, self.latch) = (end, Some(latch));
                self.block.read(|xs| self.send_halos(self.iter, ctx, xs));
                self.started = true;
                self.maybe_fire_compute(ctx);
            }
            (EP_HALO, StencilMsg::Halo { iter, face, data }) => {
                let parity = iter % 2;
                assert!(
                    iter == self.iter || iter == self.iter + 1,
                    "halo from iteration {iter} while at {}",
                    self.iter
                );
                assert!(
                    self.halos[parity][face].is_none(),
                    "duplicate halo for face {face} iter {iter} (at {})",
                    self.iter
                );
                self.halos[parity][face] = Some(data);
                self.received[parity] += 1;
                if iter == self.iter {
                    self.maybe_fire_compute(ctx);
                }
            }
            (EP_COMPUTE, StencilMsg::Compute { iter }) => {
                assert!(self.started, "compute before Start");
                assert_eq!(iter, self.iter, "compute fired out of order");
                let parity = iter % 2;
                for &(face, _) in &self.neighbors {
                    assert!(
                        self.halos[parity][face].is_some(),
                        "compute {iter} fired with face {face} halo missing"
                    );
                }
                // The bandwidth-sensitive part: one read + one write
                // pass over the block at its *current* node.
                let mut guard = self.block.access(AccessMode::ReadWrite);
                for _ in 0..self.compute_passes {
                    crate::traffic::charge_update_pass(&self.mem, &guard);
                }
                {
                    let halos = &self.halos[parity];
                    jacobi_update(
                        self.bdims,
                        guard.as_mut_slice::<f64>(),
                        &mut self.scratch,
                        halos,
                    );
                }
                // Consume this iteration's halos.
                for h in &mut self.halos[parity] {
                    *h = None;
                }
                self.received[parity] = 0;
                self.iter += 1;
                if self.iter == self.end {
                    drop(guard);
                    self.started = false;
                    self.latch.take().expect("latch set by Start").count_down();
                } else {
                    self.send_halos(self.iter, ctx, guard.as_slice::<f64>());
                    drop(guard);
                    self.maybe_fire_compute(ctx);
                }
            }
            (e, _) => panic!("unexpected entry {e:?} / message combination"),
        }
    }

    fn deps(&self, entry: EntryId, _msg: &StencilMsg) -> Vec<Dep> {
        debug_assert_eq!(entry, EP_COMPUTE);
        vec![self.block.dep(AccessMode::ReadWrite)]
    }
}

/// A stencil run driven in chunks, with checkpoint/resume at chunk
/// boundaries.
pub struct StencilDriver {
    cfg: StencilConfig,
    ooc: OocRuntime,
    blocks: Vec<IoHandle<f64>>,
    array: ArrayId,
}

impl StencilDriver {
    /// Start a fresh run: allocate and deterministically initialise
    /// every block.
    pub fn new(cfg: StencilConfig) -> Self {
        let ooc = runtime(&cfg);
        let blocks = (0..cfg.chare_count())
            .map(|i| {
                let h = IoHandle::new(
                    ooc.memory(),
                    cfg.elems(),
                    cfg.placement,
                    HBM,
                    DDR4,
                    format!("stencil{i}"),
                )
                .expect("stencil block allocation");
                h.write(|xs| {
                    for (j, v) in xs.iter_mut().enumerate() {
                        *v = ((i * 31 + j * 7) % 1000) as f64 / 1000.0;
                    }
                });
                h
            })
            .collect();
        Self::assemble(cfg, ooc, blocks)
    }

    /// Resume from a checkpoint written by a run of the same
    /// configuration: blocks are restored (ids `0..chare_count` in
    /// allocation order) and the run picks up at the checkpoint's
    /// iteration.
    pub fn resume(cfg: StencilConfig, checkpoint: &Path) -> Result<Self, MemError> {
        let ooc = runtime(&cfg);
        ooc.restore(checkpoint)?;
        let blocks = (0..cfg.chare_count())
            .map(|i| IoHandle::attach(ooc.memory(), BlockId(i as u32), cfg.elems()))
            .collect::<Result<_, _>>()?;
        Ok(Self::assemble(cfg, ooc, blocks))
    }

    fn assemble(cfg: StencilConfig, ooc: OocRuntime, blocks: Vec<IoHandle<f64>>) -> Self {
        let (cx, cy, _) = cfg.chares;
        let (mem, blocks2, cfg2) = (Arc::clone(ooc.memory()), blocks.clone(), cfg.clone());
        let iter = ooc.iteration() as usize;
        let rt = ooc.runtime();
        let array = rt
            .array_builder::<StencilChare>()
            .entry(EP_HALO, EntryOptions::default())
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .entry(EP_START, EntryOptions::default())
            .mapping(Mapping::Block)
            .build(cfg.chare_count(), move |i| {
                let coord = (i % cx, (i / cx) % cy, i / (cx * cy));
                StencilChare {
                    bdims: cfg2.block,
                    compute_passes: cfg2.compute_passes,
                    block: blocks2[i].clone(),
                    mem: Arc::clone(&mem),
                    array: None,
                    latch: None,
                    end: iter,
                    iter,
                    started: false,
                    halos: [vec![None; 6], vec![None; 6]],
                    received: [0, 0],
                    neighbors: neighbors_of(coord, cfg2.chares),
                    scratch: Vec::with_capacity(cfg2.elems()),
                }
            });
        let arr = rt.array::<StencilChare>(array);
        for i in 0..cfg.chare_count() {
            arr.with_chare(i, |c| c.array = Some(array));
        }
        Self {
            cfg,
            ooc,
            blocks,
            array,
        }
    }

    /// The underlying runtime (stats, trace, checkpoint).
    pub fn ooc(&self) -> &OocRuntime {
        &self.ooc
    }

    /// Iterations completed so far.
    pub fn completed_iterations(&self) -> u64 {
        self.ooc.iteration()
    }

    /// Run iterations up to `end` as one pipelined chunk; returns its
    /// makespan in ns.
    fn chunk(&self, end: u64) -> u64 {
        let rt = self.ooc.runtime();
        run_chunk(&self.ooc, self.cfg.chare_count(), end, |latch| {
            for i in 0..self.cfg.chare_count() {
                let latch = Arc::clone(latch);
                let end = end as usize;
                rt.send(self.array, i, EP_START, StencilMsg::Start { end, latch });
            }
        })
    }

    /// Run the next chunk: up to the next multiple of
    /// [`OocConfig::checkpoint_every`], or to the end when that is 0.
    /// Returns the chunk's makespan in ns.
    pub fn step(&self) -> u64 {
        let total = self.cfg.iterations as u64;
        self.chunk(chunk_end(&self.ooc, self.cfg.ooc.checkpoint_every, total))
    }

    /// Run to `cfg.iterations`. With a `checkpoint` path, every chunk
    /// ends with a checkpoint there; without one the rest of the run is
    /// one chunk.
    pub fn run(&self, checkpoint: Option<&Path>) -> Result<(), MemError> {
        run_to_end(&self.ooc, self.cfg.iterations as u64, checkpoint, |end| {
            self.chunk(end)
        })
    }

    /// Full per-block contents (bitwise comparison across runs).
    pub fn block_contents(&self) -> Vec<Vec<f64>> {
        self.blocks
            .iter()
            .map(|b| b.read(<[f64]>::to_vec))
            .collect()
    }

    /// Sum over all grid values, per block and then over blocks.
    pub fn checksum(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.read(|xs| xs.iter().sum::<f64>()))
            .sum()
    }

    /// Stop the runtime. Also runs on drop.
    pub fn shutdown(&self) {
        self.ooc.shutdown();
    }
}

fn runtime(cfg: &StencilConfig) -> OocRuntime {
    build_runtime(
        &cfg.topology,
        cfg.faults.as_ref(),
        cfg.pes,
        cfg.strategy,
        cfg.ooc,
    )
}

/// Run a stencil experiment end to end, as one chunk.
pub fn run_stencil(cfg: &StencilConfig) -> StencilReport {
    let driver = StencilDriver::new(cfg.clone());
    let total_ns = driver.chunk(cfg.iterations as u64);
    let checksum = driver.checksum();
    let ooc = driver.ooc();
    let stats = ooc.stats();
    let trace = ooc.finish_trace();
    let mem_stats = ooc.memory().stats();
    driver.shutdown();
    StencilReport {
        total_ns,
        per_iteration_ns: total_ns as f64 / cfg.iterations as f64,
        checksum,
        stats,
        summary: trace.summarize(),
        timeline: projections::render::render_ascii(&trace, 96),
        mem_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ckpt(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kernels-stencil-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    fn chunked_cfg(iterations: usize, checkpoint_every: u64) -> StencilConfig {
        StencilConfig {
            iterations,
            strategy: StrategyKind::single_io(),
            placement: Placement::DdrOnly,
            ooc: OocConfig {
                checkpoint_every,
                ..OocConfig::default()
            },
            ..StencilConfig::tiny()
        }
    }

    fn one_chunk_contents(cfg: StencilConfig) -> Vec<Vec<f64>> {
        let driver = StencilDriver::new(cfg);
        driver.run(None).unwrap();
        let contents = driver.block_contents();
        driver.shutdown();
        contents
    }

    #[test]
    fn chunked_run_is_bitwise_equal_to_one_chunk() {
        // (iterations, checkpoint_every, chunks): 5 iterations every 2
        // ends with a partial chunk.
        for (iterations, every, chunks) in [(6, 2, 3), (6, 0, 1), (5, 2, 3)] {
            let cfg = chunked_cfg(iterations, every);
            let want = one_chunk_contents(cfg.clone());
            let driver = StencilDriver::new(cfg.clone());
            let mut steps = 0;
            while driver.completed_iterations() < iterations as u64 {
                driver.step();
                steps += 1;
            }
            assert_eq!(steps, chunks, "{iterations} iterations every {every}");
            assert_eq!(driver.block_contents(), want, "every {every}");
            assert_eq!(driver.checksum(), run_stencil(&cfg).checksum);
            driver.shutdown();
        }
    }

    #[test]
    fn checkpointed_run_ends_each_full_chunk_with_a_checkpoint() {
        let path = ckpt("partial");
        let cfg = chunked_cfg(5, 2);
        let driver = StencilDriver::new(cfg.clone());
        driver.run(Some(&path)).unwrap();
        assert_eq!(driver.completed_iterations(), 5);
        assert_eq!(driver.ooc().stats().checkpoints, 2, "at 2 and 4, not 5");
        assert_eq!(driver.block_contents(), one_chunk_contents(cfg));
        driver.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stencil_restored_mid_run_finishes_bitwise_identical() {
        let path = ckpt("midrun");
        let cfg = chunked_cfg(6, 2);
        let want = one_chunk_contents(chunked_cfg(6, 0));

        // "Crashing" run: checkpoint after the first chunk, then lose
        // the second chunk's work with the crash.
        let crashed = StencilDriver::new(cfg.clone());
        crashed.step();
        crashed.ooc().checkpoint(&path).unwrap();
        crashed.step();
        crashed.shutdown();
        drop(crashed);

        // Resume from the checkpoint and run to completion.
        let resumed = StencilDriver::resume(cfg, &path).unwrap();
        assert_eq!(resumed.completed_iterations(), 2);
        resumed.run(Some(&path)).unwrap();
        assert_eq!(resumed.completed_iterations(), 6);
        assert_eq!(
            resumed.block_contents(),
            want,
            "restart must be bitwise exact"
        );
        assert!(resumed.ooc().stats().restores >= 1);
        resumed.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn neighbors_enumeration() {
        // 2x2x1 grid: every chare has exactly 2 neighbours.
        for i in 0..4 {
            let coord = (i % 2, (i / 2) % 2, 0);
            assert_eq!(neighbors_of(coord, (2, 2, 1)).len(), 2);
        }
        // Interior chare of a 3x3x3 grid has all 6.
        assert_eq!(neighbors_of((1, 1, 1), (3, 3, 3)).len(), 6);
        // Single chare has none.
        assert!(neighbors_of((0, 0, 0), (1, 1, 1)).is_empty());
    }

    #[test]
    fn plane_extraction_shapes() {
        let dims = (2, 3, 4);
        let block: Vec<f64> = (0..24).map(|x| x as f64).collect();
        assert_eq!(extract_plane(0, dims, &block).len(), 12); // by*bz
        assert_eq!(extract_plane(3, dims, &block).len(), 8); // bx*bz
        assert_eq!(extract_plane(5, dims, &block).len(), 6); // bx*by
                                                             // -x plane holds x=0 values: indices where x==0.
        let p = extract_plane(0, dims, &block);
        assert_eq!(p[0], 0.0); // (0,0,0)
        assert_eq!(p[1], 2.0); // (0,1,0)
    }

    #[test]
    fn jacobi_preserves_uniform_field() {
        let dims = (4, 4, 4);
        let mut block = vec![2.5; 64];
        let mut scratch = Vec::new();
        let halos: Vec<Option<Vec<f64>>> = vec![None; 6];
        jacobi_update(dims, &mut block, &mut scratch, &halos);
        assert!(block.iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    #[test]
    fn jacobi_averages_with_halos() {
        // 1x1x1 block with value 0 and six halos of value 7 → (0+6*7)/7 = 6.
        let dims = (1, 1, 1);
        let mut block = vec![0.0];
        let mut scratch = Vec::new();
        let halos: Vec<Option<Vec<f64>>> = (0..6).map(|_| Some(vec![7.0])).collect();
        jacobi_update(dims, &mut block, &mut scratch, &halos);
        assert!((block[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_run_completes_and_is_deterministic() {
        let cfg = StencilConfig::tiny();
        let r1 = run_stencil(&cfg);
        let r2 = run_stencil(&cfg);
        assert_eq!(r1.checksum, r2.checksum);
        assert!(r1.total_ns > 0);
    }

    #[test]
    fn managed_strategies_match_baseline_numerics() {
        let mut cfg = StencilConfig::tiny();
        let base = run_stencil(&cfg);
        for strategy in [
            StrategyKind::SyncFetch,
            StrategyKind::single_io(),
            StrategyKind::multi_io(2),
        ] {
            cfg.strategy = strategy;
            cfg.placement = Placement::DdrOnly;
            let r = run_stencil(&cfg);
            assert!(
                (r.checksum - base.checksum).abs() < 1e-9,
                "{strategy:?} checksum {} != baseline {}",
                r.checksum,
                base.checksum
            );
            assert_eq!(
                r.stats.completed,
                (cfg.chare_count() * cfg.iterations) as u64
            );
        }
    }

    #[test]
    fn conservation_under_neumann_boundaries() {
        // With self-valued boundaries the update is an average, so the
        // global max cannot grow and the min cannot shrink.
        let cfg = StencilConfig {
            iterations: 5,
            ..StencilConfig::tiny()
        };
        let r = run_stencil(&cfg);
        let elems = cfg.total_bytes() as f64 / 8.0;
        assert!(r.checksum >= 0.0);
        assert!(r.checksum <= elems); // initial values are < 1.0
    }
}
