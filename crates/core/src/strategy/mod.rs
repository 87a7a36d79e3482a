//! The §IV-B scheduling strategies, installed as converse scheduler
//! hooks.
//!
//! All three managed strategies share the same skeleton:
//!
//! 1. **Interception (pre-processing).** The Converse scheduler hands an
//!    unadmitted `[prefetch]` message to [`OocHook::on_intercept`]. The
//!    message plus its declared dependences become an [`OocTask`].
//! 2. **Fetch & admission.** Someone — the worker itself
//!    ([`StrategyKind::SyncFetch`]) or an IO thread
//!    ([`StrategyKind::IoThreads`]) — references the task's blocks,
//!    brings them into HBM under the capacity budget, marks the
//!    envelope admitted and re-injects it onto a run queue. The
//!    dependences ride in the envelope.
//! 3. **Completion (post-processing).** After execution the scheduler
//!    calls [`OocHook::on_complete`] with the dependences the envelope
//!    carried: the task's references are dropped
//!    and zero-refcount blocks are evicted to DDR4 on the worker thread
//!    (the paper's "it evicts its own data"), then whoever might now be
//!    able to make progress is woken.

mod cache_mode;
mod io_threads;
mod sync_fetch;

pub use cache_mode::{CacheState, CacheStats};
pub use io_threads::IoThreadPool;

use crate::config::{OocConfig, OversizePolicy, StrategyKind};
use crate::engine::{FetchEngine, FetchError};
use crate::stats::StatCells;
use crate::task::OocTask;
use crate::waitqueue::WaitQueues;
use converse::{EntryId, Envelope, ExecutedTask, Runtime, SchedulerHook};
use hetcheck::Checker;
use hetmem::Memory;
use projections::{LaneId, SpanKind, TraceCollector, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A task refused by the admission guard under
/// [`OversizePolicy::Reject`]: its declared dependence bytes exceed
/// what HBM can ever hold, so it would otherwise wait in the queue
/// forever. The structured record is the error surface — retrievable
/// via `OocRuntime::rejected_tasks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedTask {
    /// PE the message was intercepted on.
    pub pe: usize,
    /// Index of the target chare.
    pub chare: usize,
    /// Entry method the message targeted.
    pub entry: EntryId,
    /// Total declared dependence bytes.
    pub needed: u64,
    /// HBM capacity — the most a task may declare.
    pub capacity: u64,
}

/// A task [`Shared::try_admit`] found no space for, handed back.
pub(crate) struct Refused {
    pub task: OocTask,
    /// The rollback unpinned HBM space (see [`FetchEngine::roll_back`])
    /// and bumped [`Shared::released`] for it.
    pub unpinned: bool,
}

/// State shared by every strategy flavour.
pub(crate) struct Shared {
    pub rt: Arc<Runtime>,
    pub engine: FetchEngine,
    /// Last hetcheck token handed out; tokens are minted only while a
    /// checker is attached.
    next_token: AtomicU64,
    pub waitq: Arc<WaitQueues>,
    pub stats: Arc<StatCells>,
    pub collector: Arc<TraceCollector>,
    /// Worker-lane tracers, one per PE, taken from the collector once.
    worker_tracers: Vec<Arc<Tracer>>,
    pub node_level_run_queue: bool,
    /// Attached hetcheck checker: receives task admission/completion
    /// events and brackets entry-method execution with a sanitizer
    /// scope. Block-level events reach it separately, as the block
    /// registry's observer.
    pub checker: Option<Arc<Checker>>,
    /// Orders SyncFetch's "failed admit → park in wait queue" decision
    /// against a completion's wait-queue scan (see `sync_fetch`). Held
    /// only around the park and as a barrier; never across a fetch.
    pub admission: parking_lot::Mutex<()>,
    /// Counts events that can make a refused task fit: completions
    /// (after their eviction) and refused admissions whose rollback
    /// unpinned HBM space. SyncFetch retries or rescans when it moves.
    /// Bumped with Release after the space is freed and read with
    /// Acquire, so an attempt that reads a bump sees the freed space.
    pub released: AtomicU64,
    /// Structured records of tasks refused by the admission guard
    /// (see [`RejectedTask`]).
    pub rejected: parking_lot::Mutex<Vec<RejectedTask>>,
}

impl Shared {
    /// Worker-lane tracer for `pe`.
    pub fn worker_tracer(&self, pe: usize) -> &Tracer {
        &self.worker_tracers[pe]
    }

    /// Wrap an intercepted envelope as an [`OocTask`]: put its declared
    /// dependences in the envelope and sum their bytes.
    pub fn make_task(&self, pe: usize, mut env: Envelope) -> OocTask {
        env.deps = self.rt.deps_for(&env);
        let registry = self.memory().registry();
        let bytes = env
            .deps
            .iter()
            .map(|d| registry.size_of(d.block) as u64)
            .sum();
        self.stats.bump_intercepted();
        OocTask {
            pe,
            env,
            enqueued_at: self.rt.clock().now(),
            bytes,
        }
    }

    /// Reference, fetch and (on success) admit a task. On `NoSpace` the
    /// attempt is rolled back — references released, the task's own
    /// already-fetched blocks evicted back, so a stalled fetch cannot
    /// strand HBM capacity — and the task is returned to the caller. A
    /// fetch whose transient-fault retry budget is exhausted degrades
    /// instead of failing: the task runs from DDR4 rather than wedging
    /// its queue.
    pub fn try_admit(&self, task: OocTask, tracer: &Tracer) -> Result<(), Refused> {
        let tag = task.env.index as u32;
        let t0 = self.rt.clock().now();
        self.engine.add_refs(&task.env.deps);
        match self
            .engine
            .fetch_all(&task.env.deps, task.bytes, tracer, tag)
        {
            Ok(()) => {
                self.admit(task, false);
                Ok(())
            }
            Err(FetchError::NoSpace) => {
                let unpinned = self.engine.roll_back(&task.env.deps, tracer, tag);
                if unpinned {
                    self.released.fetch_add(1, Ordering::AcqRel);
                }
                Err(Refused { task, unpinned })
            }
            Err(FetchError::Exhausted { .. }) => {
                // Refs stay held; any deps that did land in HBM are
                // used from there, the rest are read at DDR4 speed.
                self.degrade(task, tracer, t0);
                Ok(())
            }
            Err(FetchError::TaskTooLarge { .. }) => {
                // Normally unreachable: the admission guard in
                // `on_intercept` catches oversize tasks before they
                // enter a queue. Kept as defence in depth — a task
                // that slips through runs degraded from DDR4 instead
                // of panicking or waiting forever.
                self.degrade(task, tracer, t0);
                Ok(())
            }
        }
    }

    /// Refuse an oversize task under [`OversizePolicy::Reject`]: drop
    /// its message, count it, and keep a structured record. No
    /// references were taken, so nothing needs releasing; the rejected
    /// counter keeps `pending()` balanced so quiescence does not wait
    /// on the task.
    pub(crate) fn reject(&self, task: OocTask, needed: u64, capacity: u64) {
        self.rejected.lock().push(RejectedTask {
            pe: task.pe,
            chare: task.env.index,
            entry: task.env.entry,
            needed,
            capacity,
        });
        self.stats.bump_rejected();
        // The dropped envelope was counted at send time; balance the
        // quiescence accounting or the runtime never looks idle.
        self.rt.note_dropped();
    }

    /// Admit a task in degraded mode without attempting a fetch at all
    /// (refs taken here) — the stall watchdog's drain path.
    pub(crate) fn admit_degraded(&self, task: OocTask, tracer: &Tracer) {
        let t0 = self.rt.clock().now();
        self.engine.add_refs(&task.env.deps);
        self.degrade(task, tracer, t0);
    }

    /// Record and count a degraded admission (refs already held).
    fn degrade(&self, task: OocTask, tracer: &Tracer, t0: hetmem::TimeNs) {
        let tag = task.env.index as u32;
        let now = self.rt.clock().now();
        tracer.record(SpanKind::Degraded, t0, now, tag);
        self.stats.bump_degraded();
        self.admit(task, true);
    }

    /// Mark and inject an admitted task: its deps are in HBM (or, for a
    /// `degraded` task or the cache-mode path, deliberately left
    /// where they are) and its refs are held.
    pub fn admit(&self, task: OocTask, degraded: bool) {
        let OocTask {
            mut env,
            pe,
            enqueued_at,
            ..
        } = task;
        if let Some(checker) = &self.checker {
            env.token = self.next_token.fetch_add(1, Ordering::Relaxed) + 1;
            let blocks = env.deps.iter().map(|d| d.block).collect();
            checker.task_admitted(env.token, blocks, degraded);
        }
        env.admitted = true;
        let now = self.rt.clock().now();
        self.stats.bump_queue_wait(now.saturating_sub(enqueued_at));
        self.stats.bump_admitted();
        let target = if self.node_level_run_queue {
            self.rt.least_loaded_pe()
        } else {
            pe
        };
        self.rt.inject(target, env);
    }

    /// Post-processing shared by all strategies: release the finished
    /// task's references and, if `evict`, evict its now-unreferenced
    /// blocks on the calling (worker) thread. Cache mode passes `false`:
    /// a cached block stays in its set until a conflicting fill
    /// displaces it.
    pub fn finish_task(&self, done: &ExecutedTask, evict: bool) {
        if let Some(checker) = &self.checker {
            checker.exit_task(done.token);
            checker.task_completed(done.token);
        }
        let tracer = self.worker_tracer(done.pe);
        self.engine.release_refs(&done.deps);
        if evict {
            self.engine
                .evict_unreferenced(&done.deps, tracer, done.index as u32);
        }
        self.released.fetch_add(1, Ordering::AcqRel);
        // Count the task completed only after its eviction finished, so
        // quiescence covers the whole post-processing step.
        self.stats.bump_completed();
    }

    /// The memory subsystem.
    pub fn memory(&self) -> &Arc<Memory> {
        self.engine.memory()
    }
}

/// Strategy-specific behaviour behind the shared skeleton.
enum Flavour {
    /// Workers fetch/evict synchronously ("Multiple queues, no IO
    /// thread").
    Sync,
    /// Dedicated IO threads fetch ("single IO thread" / "multiple IO
    /// threads" / subgroups).
    Io(IoThreadPool),
    /// HBM as a direct-mapped, demand-filled cache (the paper's
    /// deferred cache-mode comparison).
    Cache(CacheState),
}

/// The installable scheduler hook implementing the paper's strategies.
pub struct OocHook {
    shared: Arc<Shared>,
    flavour: Flavour,
}

impl OocHook {
    /// Build the hook (and spawn IO threads if the strategy uses them).
    /// A refused thread spawn is propagated as an error instead of
    /// aborting the process.
    ///
    /// Panics on [`StrategyKind::Baseline`]: the baseline is "no hook
    /// installed" — construct nothing instead.
    pub fn new(
        rt: Arc<Runtime>,
        mem: Arc<Memory>,
        kind: StrategyKind,
        config: OocConfig,
    ) -> std::io::Result<Arc<Self>> {
        Self::with_checker(rt, mem, kind, config, None)
    }

    /// [`OocHook::new`] with a hetcheck checker attached: the checker
    /// receives task admission/completion events and its sanitizer
    /// scope brackets every admitted entry method. The caller is
    /// responsible for installing the checker as the block registry's
    /// observer (see `Checker::install`) — typically `OocRuntime` does
    /// both.
    pub fn with_checker(
        rt: Arc<Runtime>,
        mem: Arc<Memory>,
        kind: StrategyKind,
        config: OocConfig,
        checker: Option<Arc<Checker>>,
    ) -> std::io::Result<Arc<Self>> {
        let stats = Arc::new(StatCells::default());
        let io_threads = match kind {
            StrategyKind::Baseline => {
                panic!("Baseline runs without a hook; do not construct OocHook for it")
            }
            StrategyKind::SyncFetch | StrategyKind::CacheMode { .. } => 0,
            StrategyKind::IoThreads { threads } => {
                assert!(threads > 0, "need at least one IO thread");
                threads
            }
        };
        let waitq = Arc::new(WaitQueues::new(
            config.wait_queues,
            rt.pes(),
            io_threads.max(1),
        ));
        let collector = Arc::clone(rt.collector());
        let worker_tracers = (0..rt.pes())
            .map(|pe| collector.tracer(LaneId::worker(pe as u32)))
            .collect();
        let shared = Arc::new(Shared {
            engine: FetchEngine::new(mem, config, Arc::clone(&stats)),
            next_token: AtomicU64::new(0),
            waitq,
            stats,
            collector,
            worker_tracers,
            node_level_run_queue: config.node_level_run_queue,
            admission: parking_lot::Mutex::new(()),
            released: AtomicU64::new(0),
            rejected: parking_lot::Mutex::new(Vec::new()),
            checker,
            rt,
        });
        let flavour = match kind {
            StrategyKind::SyncFetch => Flavour::Sync,
            StrategyKind::IoThreads { threads } => {
                Flavour::Io(IoThreadPool::spawn(Arc::clone(&shared), threads)?)
            }
            StrategyKind::CacheMode { sets } => Flavour::Cache(CacheState::new(sets)),
            StrategyKind::Baseline => unreachable!(),
        };
        Ok(Arc::new(Self { shared, flavour }))
    }

    /// Runtime statistics.
    pub fn stats(&self) -> crate::OocStats {
        let mut stats = self.shared.stats.snapshot();
        if let Some(checker) = &self.shared.checker {
            stats.violations = checker.violation_count();
        }
        stats
    }

    /// The attached hetcheck checker, if any.
    pub fn checker(&self) -> Option<&Arc<Checker>> {
        self.shared.checker.as_ref()
    }

    /// Current wait-queue lengths (load-imbalance diagnostics).
    pub fn wait_queue_lengths(&self) -> Vec<usize> {
        self.shared.waitq.lengths()
    }

    /// Cache hit/miss statistics (cache-mode strategy only).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.flavour {
            Flavour::Cache(state) => Some(state.stats()),
            _ => None,
        }
    }

    /// Structured records of tasks refused by the admission guard
    /// (empty unless [`OversizePolicy::Reject`] is configured and an
    /// oversize task arrived).
    pub fn rejected_tasks(&self) -> Vec<RejectedTask> {
        self.shared.rejected.lock().clone()
    }

    /// Overwrite the hook's counters with a checkpointed snapshot
    /// (restore path — see `StatCells::adopt`).
    pub(crate) fn adopt_stats(&self, s: &crate::OocStats) {
        self.shared.stats.adopt(s);
    }

    /// Count a written checkpoint of `payload_bytes` block bytes.
    pub(crate) fn note_checkpoint(&self, payload_bytes: u64) {
        self.shared.stats.bump_checkpoint(payload_bytes);
    }

    /// Count a completed restore.
    pub(crate) fn note_restore(&self) {
        self.shared.stats.bump_restore();
    }

    /// Stop IO threads and join them. Idempotent. Panicked IO threads
    /// are reported rather than silently discarded.
    pub fn shutdown(&self) {
        self.shared.waitq.shutdown();
        if let Flavour::Io(pool) = &self.flavour {
            let panicked = pool.join();
            if panicked > 0 {
                eprintln!(
                    "OocHook: {panicked} IO-thread panic(s) were caught and supervised this run"
                );
            }
        }
    }
}

impl SchedulerHook for OocHook {
    fn on_intercept(&self, pe: usize, env: Envelope) {
        let task = self.shared.make_task(pe, env);
        // Admission guard: a task whose declared working set exceeds
        // HBM capacity can never be fully prefetched — queued, it
        // would wait forever (no eviction can make enough room).
        // Detect it here, before it enters any queue, uniformly for
        // every flavour.
        let needed = task.bytes;
        let capacity = self.shared.engine.hbm_task_capacity();
        if needed > capacity {
            match self.shared.engine.config().oversize_policy {
                OversizePolicy::Degrade => {
                    let tracer = self.shared.worker_tracer(pe);
                    self.shared.admit_degraded(task, tracer);
                }
                OversizePolicy::Reject => self.shared.reject(task, needed, capacity),
            }
            return;
        }
        match &self.flavour {
            Flavour::Sync => sync_fetch::intercept(&self.shared, task),
            Flavour::Io(pool) => pool.intercept(task),
            Flavour::Cache(state) => cache_mode::intercept(&self.shared, state, task),
        }
    }

    fn on_execute_begin(&self, _pe: usize, env: &Envelope) {
        if let Some(checker) = &self.shared.checker {
            checker.enter_task(env.token, env.deps.clone());
        }
    }

    fn on_complete(&self, done: ExecutedTask) {
        let evict = !matches!(self.flavour, Flavour::Cache(_));
        self.shared.finish_task(&done, evict);
        match &self.flavour {
            Flavour::Sync => sync_fetch::after_complete(&self.shared, done.pe),
            Flavour::Io(pool) => pool.after_complete(done.pe),
            Flavour::Cache(state) => cache_mode::after_complete(&self.shared, done.pe, state),
        }
    }

    fn pending(&self) -> usize {
        self.shared.stats.in_flight() as usize
    }
}

impl Drop for OocHook {
    fn drop(&mut self) {
        self.shutdown();
    }
}
