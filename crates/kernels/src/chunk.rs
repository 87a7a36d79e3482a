//! The chunk loop shared by the stencil and matmul drivers.
//!
//! A driver runs its iterations in chunks. Inside a chunk the kernel is
//! pipelined by messages exactly as the paper's programs are; at the
//! chunk's end every chare stops and the runtime drains to quiescence.
//! That boundary is a consistent cut, so it is where a checkpoint is
//! taken ([`hetrt_core::OocConfig::checkpoint_every`] iterations per
//! chunk). Without checkpointing the whole run is one chunk.

use converse::CompletionLatch;
use hetmem::{FaultInjector, MemError, Memory, Topology};
use hetrt_core::{OocConfig, OocRuntime, StrategyKind};
use std::path::Path;
use std::sync::Arc;

/// How long one chunk may take before the driver gives up, ms.
const CHUNK_TIMEOUT_MS: u64 = 600_000;

/// Build the memory subsystem and runtime a kernel configuration names.
pub(crate) fn build_runtime(
    topology: &Topology,
    faults: Option<&Arc<dyn FaultInjector>>,
    pes: usize,
    strategy: StrategyKind,
    ooc: OocConfig,
) -> OocRuntime {
    let mem = match faults {
        Some(f) => Memory::with_faults(topology.clone(), Arc::clone(f)),
        None => Memory::new(topology.clone()),
    };
    OocRuntime::new(mem, pes, strategy, ooc)
}

/// The end of the chunk starting at the current iteration: the next
/// multiple of `every`, capped at `total` (`total` when `every` is 0).
pub(crate) fn chunk_end(ooc: &OocRuntime, every: u64, total: u64) -> u64 {
    match ooc.iteration().checked_div(every) {
        Some(chunks) => (chunks + 1).saturating_mul(every).min(total),
        None => total,
    }
}

/// Run one chunk ending at iteration `end`: `launch` sends one message
/// per chare, each of which counts the latch down once when the chare
/// reaches `end`. Returns the chunk's makespan (first send to last
/// completion, ns), then drains the runtime and records `end` as the
/// completed iteration.
pub(crate) fn run_chunk(
    ooc: &OocRuntime,
    chares: usize,
    end: u64,
    launch: impl FnOnce(&Arc<CompletionLatch>),
) -> u64 {
    assert!(ooc.iteration() < end, "empty chunk");
    let latch = Arc::new(CompletionLatch::new(chares));
    let clock = ooc.memory().clock();
    let t0 = clock.now();
    launch(&latch);
    assert!(
        latch.wait_timeout_ms(CHUNK_TIMEOUT_MS),
        "chunk ending at iteration {end} did not complete"
    );
    let makespan_ns = clock.now().saturating_sub(t0);
    assert!(ooc.wait_quiescence_ms(60_000), "runtime not quiescent");
    ooc.set_iteration(end);
    makespan_ns
}

/// Run chunks until `total` iterations are done. With a `checkpoint`
/// path each chunk is `checkpoint_every` iterations long and ends with
/// a checkpoint; without one the rest of the run is a single chunk.
pub(crate) fn run_to_end(
    ooc: &OocRuntime,
    total: u64,
    checkpoint: Option<&Path>,
    chunk: impl Fn(u64) -> u64,
) -> Result<(), MemError> {
    let every = checkpoint.map_or(0, |_| ooc.config().checkpoint_every);
    while ooc.iteration() < total {
        chunk(chunk_end(ooc, every, total));
        if let Some(path) = checkpoint {
            if ooc.should_checkpoint(ooc.iteration()) {
                ooc.checkpoint(path)?;
            }
        }
    }
    Ok(())
}
