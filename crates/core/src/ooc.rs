//! The assembled memory-heterogeneity-aware runtime.
//!
//! [`OocRuntime`] wires the three layers together exactly as §IV
//! describes: a converse [`Runtime`] whose scheduler intercepts
//! `[prefetch]` messages, a [`Memory`] subsystem with HBM and DDR4
//! planes, and one of the scheduling strategies installed as the hook.

use crate::config::{OocConfig, StrategyKind};
use crate::stats::OocStats;
use crate::strategy::OocHook;
use converse::{Runtime, RuntimeBuilder};
use hetcheck::Checker;
use hetmem::{CheckpointSummary, MemError, Memory};
use projections::{LaneId, SpanKind, Trace};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How long [`OocRuntime::checkpoint`] waits for quiescence before
/// giving up with [`MemError::CheckpointFailed`].
const CHECKPOINT_QUIESCE_MS: u64 = 10_000;

/// Runtime-level state carried in the checkpoint's application
/// metadata slot, alongside the block image hetmem owns.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct AppState {
    iteration: u64,
    stats: OocStats,
}

/// A converse runtime + memory subsystem + scheduling strategy.
pub struct OocRuntime {
    rt: Arc<Runtime>,
    mem: Arc<Memory>,
    hook: Option<Arc<OocHook>>,
    checker: Option<Arc<Checker>>,
    config: OocConfig,
    /// Driver-maintained iteration counter, persisted in checkpoints so
    /// a restored run knows where to continue.
    iteration: AtomicU64,
}

/// Pick the checker for a runtime that was not handed one explicitly:
/// the process-global registry first (how `schedule_lint` reaches
/// runtimes built deep inside kernel drivers), then the `sanitizer`
/// feature's panicking default.
fn default_checker() -> Option<Arc<Checker>> {
    if let Some(checker) = hetcheck::global::current() {
        return Some(checker);
    }
    #[cfg(feature = "sanitizer")]
    {
        Some(Arc::new(Checker::new(hetcheck::ViolationAction::Panic)))
    }
    #[cfg(not(feature = "sanitizer"))]
    {
        None
    }
}

impl OocRuntime {
    /// Build a runtime with `pes` workers over `mem`, running
    /// `strategy` under `config`. The runtime shares the memory
    /// subsystem's clock so traces and bandwidth charges agree.
    ///
    /// A hetcheck checker is attached automatically when one is
    /// installed in [`hetcheck::global`] or when the `sanitizer` cargo
    /// feature is on; use [`OocRuntime::try_new_with_checker`] to pass
    /// one explicitly.
    ///
    /// Panics if the OS refuses to spawn an IO thread; use
    /// [`OocRuntime::try_new_with_checker`] to handle that case
    /// gracefully.
    pub fn new(mem: Arc<Memory>, pes: usize, strategy: StrategyKind, config: OocConfig) -> Self {
        Self::try_new_with_checker(mem, pes, strategy, config, default_checker())
            .expect("spawn IO threads")
    }

    /// Fallible [`OocRuntime::new`] with an explicit hetcheck checker
    /// (or explicitly none — `None` here disables the global/feature
    /// defaults too). A refused IO-thread spawn comes back as an error
    /// with the partially built runtime already shut down. The checker
    /// is installed as the block registry's observer, so it sees block
    /// traffic even under [`StrategyKind::Baseline`], where no
    /// scheduler hook exists.
    pub fn try_new_with_checker(
        mem: Arc<Memory>,
        pes: usize,
        strategy: StrategyKind,
        config: OocConfig,
        checker: Option<Arc<Checker>>,
    ) -> std::io::Result<Self> {
        if let Some(checker) = &checker {
            checker.install(mem.registry());
        }
        let rt = RuntimeBuilder::new(pes)
            .clock(Arc::clone(mem.clock()))
            .build();
        let hook = match strategy {
            StrategyKind::Baseline => None,
            _ => {
                let hook = match OocHook::with_checker(
                    Arc::clone(&rt),
                    Arc::clone(&mem),
                    strategy,
                    config,
                    checker.clone(),
                ) {
                    Ok(hook) => hook,
                    Err(e) => {
                        rt.shutdown();
                        return Err(e);
                    }
                };
                rt.set_hook(hook.clone());
                Some(hook)
            }
        };
        Ok(Self {
            rt,
            mem,
            hook,
            checker,
            config,
            iteration: AtomicU64::new(0),
        })
    }

    /// The underlying converse runtime (register arrays, send messages).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// The memory subsystem.
    pub fn memory(&self) -> &Arc<Memory> {
        &self.mem
    }

    /// The active configuration.
    pub fn config(&self) -> &OocConfig {
        &self.config
    }

    /// Strategy statistics (zeroes under [`StrategyKind::Baseline`],
    /// except `violations`, which any attached checker still reports).
    pub fn stats(&self) -> OocStats {
        let mut stats = self.hook.as_ref().map(|h| h.stats()).unwrap_or_default();
        if let Some(checker) = &self.checker {
            stats.violations = checker.violation_count();
        }
        stats
    }

    /// Wait for quiescence (every sent message executed and post-processed).
    pub fn wait_quiescence_ms(&self, timeout_ms: u64) -> bool {
        self.rt.wait_quiescence_ms(timeout_ms)
    }

    /// The driver's iteration counter (persisted across
    /// checkpoint/restore).
    pub fn iteration(&self) -> u64 {
        self.iteration.load(Ordering::SeqCst)
    }

    /// Record the driver's progress: call after finishing iteration
    /// `it`, so a restore from a checkpoint taken now continues after it.
    pub fn set_iteration(&self, it: u64) {
        self.iteration.store(it, Ordering::SeqCst);
    }

    /// True when the periodic-checkpoint policy
    /// ([`OocConfig::checkpoint_every`]) says iteration `it` should end
    /// with a checkpoint. Always false when the policy is disabled.
    pub fn should_checkpoint(&self, it: u64) -> bool {
        let every = self.config.checkpoint_every;
        every != 0 && it != 0 && it.is_multiple_of(every)
    }

    /// Quiescence-coordinated checkpoint (the tentpole of the recovery
    /// story). Waits for quiescence, then snapshots every registered
    /// block plus the runtime's counters into `path` (atomically: temp
    /// file + rename). Quiescence is the only guard: call this only
    /// while no thread outside the runtime sends, as the drivers do
    /// between chunks. Then no worker or IO thread has anything to run
    /// until the caller sends again, and the runtime continues exactly
    /// where it left off. A runtime that does not quiesce within
    /// `CHECKPOINT_QUIESCE_MS` gets [`MemError::CheckpointFailed`] and
    /// nothing is written. The snapshot reads each block under a
    /// `ReadOnly` guard, so a writer that races it panics at the
    /// registry's access check instead of tearing the block.
    pub fn checkpoint(&self, path: &Path) -> Result<CheckpointSummary, MemError> {
        if !self.rt.wait_quiescence_ms(CHECKPOINT_QUIESCE_MS) {
            return Err(MemError::CheckpointFailed {
                detail: format!(
                    "runtime did not reach quiescence within {CHECKPOINT_QUIESCE_MS} ms; \
                     refusing to snapshot in-flight state"
                ),
            });
        }
        let t0 = self.rt.clock().now();
        let app = AppState {
            iteration: self.iteration(),
            stats: self.stats(),
        };
        let app_json = serde_json::to_string(&app).map_err(|e| MemError::CheckpointFailed {
            detail: format!("could not encode runtime state: {e}"),
        })?;
        let summary = hetmem::write_checkpoint(&self.mem, path, &app_json)?;
        if let Some(hook) = &self.hook {
            hook.note_checkpoint(summary.payload_bytes);
        }
        let t1 = self.rt.clock().now();
        self.rt
            .collector()
            .tracer(LaneId::worker(0))
            .record(SpanKind::Checkpoint, t0, t1, 0);
        Ok(summary)
    }

    /// Rebuild state from a checkpoint written by
    /// [`OocRuntime::checkpoint`]. Must run on a freshly built runtime
    /// whose block registry is still empty: blocks are re-registered
    /// under their saved ids with their saved bytes and refcounts,
    /// residency is replayed (HBM blocks that no longer fit spill to
    /// DDR4), the statistics counters and iteration counter are
    /// adopted, and the attached checker (if any) records a restart
    /// boundary so cross-restart traces lint clean.
    ///
    /// Returns the iteration the checkpoint was taken at — the driver
    /// continues from the next one. Corrupt or version-mismatched files
    /// come back as structured [`MemError`]s and leave the runtime
    /// usable (still empty, ready for a fresh run or another restore).
    pub fn restore(&self, path: &Path) -> Result<u64, MemError> {
        let image = hetmem::read_checkpoint(path)?;
        let app: AppState = if image.app.is_empty() {
            AppState::default()
        } else {
            serde_json::from_str(&image.app).map_err(|e| MemError::CheckpointCorrupted {
                detail: format!("runtime state metadata does not parse: {e}"),
            })?
        };
        let t0 = self.rt.clock().now();
        if let Some(checker) = &self.checker {
            checker.record_restart();
        }
        hetmem::restore_into(&self.mem, &image)?;
        if let Some(hook) = &self.hook {
            hook.adopt_stats(&app.stats);
            hook.note_restore();
        }
        self.iteration.store(app.iteration, Ordering::SeqCst);
        let t1 = self.rt.clock().now();
        self.rt
            .collector()
            .tracer(LaneId::worker(0))
            .record(SpanKind::Restore, t0, t1, 0);
        Ok(app.iteration)
    }

    /// Collect the run's trace (drains recorded spans).
    pub fn finish_trace(&self) -> Trace {
        self.rt.collector().finish()
    }

    /// Stop IO threads and PE workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if let Some(hook) = &self.hook {
            hook.shutdown();
        }
        self.rt.shutdown();
    }
}

impl Drop for OocRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::Topology;

    #[test]
    fn baseline_has_no_hook() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        let ooc = OocRuntime::new(mem, 1, StrategyKind::Baseline, OocConfig::default());
        assert_eq!(ooc.stats(), OocStats::default());
        assert!(ooc.hook.is_none());
        assert!(ooc.wait_quiescence_ms(200));
        ooc.shutdown();
    }

    #[test]
    fn managed_runtime_exposes_hook_state() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        let ooc = OocRuntime::new(mem, 2, StrategyKind::multi_io(2), OocConfig::default());
        assert_eq!(ooc.stats().intercepted, 0);
        assert!(ooc.hook.is_some());
        ooc.shutdown();
    }

    #[test]
    fn double_shutdown_is_safe() {
        let mem = Memory::new(Topology::knl_flat_scaled());
        let ooc = OocRuntime::new(mem, 1, StrategyKind::SyncFetch, OocConfig::default());
        ooc.shutdown();
        ooc.shutdown();
    }

    #[test]
    fn shutdown_and_drop_free_the_runtime_and_memory() {
        use crate::{IoHandle, Placement};
        use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx};
        use hetmem::{AccessMode, DDR4, HBM};

        struct Touch {
            data: IoHandle<f64>,
            latch: Arc<CompletionLatch>,
        }
        impl Chare for Touch {
            type Msg = ();
            fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
                self.data.write(|xs| xs[0] += 1.0);
                self.latch.count_down();
            }
            fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
                vec![self.data.dep(AccessMode::ReadWrite)]
            }
        }

        for strategy in [StrategyKind::SyncFetch, StrategyKind::multi_io(2)] {
            let mem = Memory::new(Topology::knl_flat_scaled_with(8 << 10, 1 << 24));
            let ooc = OocRuntime::new(Arc::clone(&mem), 2, strategy, OocConfig::default());
            let latch = Arc::new(CompletionLatch::new(16));
            let blocks: Vec<IoHandle<f64>> = (0..4)
                .map(|i| {
                    IoHandle::new(&mem, 512, Placement::DdrOnly, HBM, DDR4, format!("t{i}"))
                        .unwrap()
                })
                .collect();
            let l2 = Arc::clone(&latch);
            let array = ooc
                .runtime()
                .array_builder::<Touch>()
                .entry(EntryId(0), EntryOptions::prefetch())
                .build(4, move |i| Touch {
                    data: blocks[i].clone(),
                    latch: Arc::clone(&l2),
                });
            for i in 0..16 {
                ooc.runtime().send(array, i % 4, EntryId(0), ());
            }
            assert!(latch.wait_timeout_ms(30_000), "{strategy:?}");
            assert!(ooc.wait_quiescence_ms(10_000), "{strategy:?}");
            let (rt, mem_weak) = (Arc::downgrade(ooc.runtime()), Arc::downgrade(&mem));
            drop(mem);
            ooc.shutdown();
            drop(ooc);
            // The hook holds the runtime and the runtime held the hook;
            // shutdown broke that cycle, so nothing keeps either alive.
            assert!(rt.upgrade().is_none(), "{strategy:?}: runtime leaked");
            assert!(mem_weak.upgrade().is_none(), "{strategy:?}: memory leaked");
        }
    }
}
