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
//!
//! Each step carries the thread's latest clock reading as `now` (see
//! `converse::hook` and [`crate::engine`]): a task reads the clock only
//! to time a block move, a block wait or a sleep, and every admission
//! timestamp reuses the reading that came before it.

mod cache_mode;
mod io_threads;
mod sync_fetch;

use cache_mode::CacheState;

use crate::config::{OocConfig, StrategyKind};
use crate::engine::{FetchEngine, FetchError};
use crate::stats::StatCells;
use crate::task::OocTask;
use crate::waitqueue::WaitQueues;
use converse::{Envelope, ExecutedTask, Runtime, SchedulerHook};
use hetcheck::Checker;
use hetmem::{Memory, TimeNs};
use io_threads::IoThreadPool;
use projections::{LaneId, SpanKind, TraceCollector, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    pub waitq: WaitQueues,
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
    /// Counts events that can make a refused task fit: completions
    /// (after their eviction) and refused admissions whose rollback
    /// unpinned HBM space. SyncFetch and the IO threads rescan when it
    /// moved during a refused attempt. Bumped after the space is freed;
    /// `SeqCst`, as half of the IO threads' Dekker pair.
    pub released: AtomicU64,
}

impl Shared {
    /// Worker-lane tracer for `pe`.
    pub fn worker_tracer(&self, pe: usize) -> &Tracer {
        &self.worker_tracers[pe]
    }

    /// Wrap an envelope intercepted at the reading `now` as an
    /// [`OocTask`]: put its declared dependences in the envelope and sum
    /// their bytes.
    pub fn make_task(&self, pe: usize, mut env: Envelope, now: TimeNs) -> OocTask {
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
            enqueued_at: now,
            bytes,
        }
    }

    /// Reference, fetch and (on success) admit a task. A task whose
    /// deps outside HBM already exceed HBM's free bytes is refused
    /// before anything is referenced (see [`FetchEngine::cannot_fit`]).
    /// On `NoSpace` the attempt is rolled back — references released,
    /// the task's own already-fetched blocks evicted back, so a stalled
    /// fetch cannot strand HBM capacity — and the task is returned to
    /// the caller. A fetch whose transient-fault retry budget is
    /// exhausted degrades instead of failing: the task runs from DDR4
    /// rather than wedging its queue. `now` is the caller's latest
    /// reading and is advanced past every move (see [`crate::engine`]).
    pub fn try_admit(
        &self,
        task: OocTask,
        tracer: &Tracer,
        now: &mut TimeNs,
    ) -> Result<(), Refused> {
        if self.engine.cannot_fit(&task.env.deps, task.bytes) {
            self.stats.bump_no_space();
            return Err(Refused {
                task,
                unpinned: false,
            });
        }
        let tag = task.env.index as u32;
        let t0 = *now;
        self.engine.add_refs(&task.env.deps);
        match self.engine.fetch_all(&task.env.deps, tracer, tag, now) {
            Ok(()) => {
                self.admit(task, false, *now);
                Ok(())
            }
            Err(FetchError::NoSpace) => {
                let unpinned = self.engine.roll_back(&task.env.deps, tracer, tag, now);
                if unpinned {
                    self.released.fetch_add(1, Ordering::SeqCst);
                }
                Err(Refused { task, unpinned })
            }
            Err(FetchError::Exhausted { .. }) => {
                // Refs stay held; any deps that did land in HBM are
                // used from there, the rest are read at DDR4 speed.
                self.degrade(task, tracer, t0, now);
                Ok(())
            }
        }
    }

    /// Admit a task in degraded mode without attempting a fetch at all
    /// (refs taken here): the path of an oversize task and of the stall
    /// watchdog's drain.
    pub(crate) fn admit_degraded(&self, task: OocTask, tracer: &Tracer, now: &mut TimeNs) {
        let t0 = *now;
        self.engine.add_refs(&task.env.deps);
        self.degrade(task, tracer, t0, now);
    }

    /// Record and count a degraded admission that began at `t0` (refs
    /// already held). Degrading is rare, so it reads the clock for its
    /// span's end and leaves that reading in `now`.
    fn degrade(&self, task: OocTask, tracer: &Tracer, t0: TimeNs, now: &mut TimeNs) {
        let tag = task.env.index as u32;
        *now = self.rt.clock().now();
        tracer.record(SpanKind::Degraded, t0, *now, tag);
        self.stats.bump_degraded();
        self.admit(task, true, *now);
    }

    /// Mark and inject an admitted task, admitted at the reading `now`:
    /// its deps are in HBM (or, for a `degraded` task or the cache-mode
    /// path, deliberately left where they are) and its refs are held.
    pub fn admit(&self, task: OocTask, degraded: bool, now: TimeNs) {
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
    /// blocks on the calling (worker) thread, advancing `now`. Cache mode
    /// passes `false`: a cached block stays in its set until a
    /// conflicting fill displaces it.
    pub fn finish_task(&self, done: &ExecutedTask, evict: bool, now: &mut TimeNs) {
        if let Some(checker) = &self.checker {
            checker.exit_task(done.token);
            checker.task_completed(done.token);
        }
        let tracer = self.worker_tracer(done.pe);
        self.engine.release_refs(&done.deps);
        if evict {
            self.engine
                .evict_unreferenced(&done.deps, tracer, done.index as u32, now);
        }
        self.released.fetch_add(1, Ordering::SeqCst);
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
    /// scope brackets every admitted entry method. The caller
    /// ([`crate::OocRuntime::try_new_with_checker`]) installs the
    /// checker as the block registry's observer.
    pub(crate) fn with_checker(
        rt: Arc<Runtime>,
        mem: Arc<Memory>,
        kind: StrategyKind,
        config: OocConfig,
        checker: Option<Arc<Checker>>,
    ) -> std::io::Result<Arc<Self>> {
        let stats = Arc::new(StatCells::default());
        let waitq = WaitQueues::new(config.wait_queues, rt.pes());
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
            released: AtomicU64::new(0),
            checker,
            rt,
        });
        let flavour = match kind {
            StrategyKind::SyncFetch => Flavour::Sync,
            StrategyKind::IoThreads { threads } => {
                assert!(threads > 0, "need at least one IO thread");
                Flavour::Io(IoThreadPool::spawn(Arc::clone(&shared), threads)?)
            }
            StrategyKind::CacheMode { sets } => Flavour::Cache(CacheState::new(sets)),
            StrategyKind::Baseline => {
                panic!("Baseline runs without a hook; do not construct OocHook for it")
            }
        };
        Ok(Arc::new(Self { shared, flavour }))
    }

    /// Runtime statistics. `violations` stays 0 here:
    /// [`crate::OocRuntime::stats`] fills it from the attached checker.
    pub fn stats(&self) -> crate::OocStats {
        self.shared.stats.snapshot()
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
        if let Flavour::Io(pool) = &self.flavour {
            let panicked = pool.shutdown();
            if panicked > 0 {
                eprintln!(
                    "OocHook: {panicked} IO-thread panic(s) were caught and supervised this run"
                );
            }
        }
    }
}

/// The hook's answer to the scheduler: its last reading `end`, or `None`
/// if it is still the scheduler's `start`. A clock that did not tick
/// between the two also answers `None`, which costs the scheduler one
/// more reading of the same time.
fn own_reading(start: TimeNs, end: TimeNs) -> Option<TimeNs> {
    (end != start).then_some(end)
}

impl SchedulerHook for OocHook {
    fn on_intercept(&self, pe: usize, env: Envelope, start: TimeNs) -> Option<TimeNs> {
        let mut now = start;
        let task = self.shared.make_task(pe, env, now);
        // Admission guard: a task whose declared working set exceeds
        // HBM capacity can never be fully prefetched — queued, it
        // would wait forever (no eviction can make enough room). It
        // runs degraded from DDR4 instead, uniformly for every flavour.
        if task.bytes > self.shared.engine.hbm_task_capacity() {
            let tracer = self.shared.worker_tracer(pe);
            self.shared.admit_degraded(task, tracer, &mut now);
        } else {
            match &self.flavour {
                Flavour::Sync => sync_fetch::intercept(&self.shared, task, &mut now),
                Flavour::Io(pool) => pool.intercept(task),
                Flavour::Cache(state) => cache_mode::intercept(&self.shared, state, task, &mut now),
            }
        }
        own_reading(start, now)
    }

    fn on_execute_begin(&self, _pe: usize, env: &Envelope) {
        if let Some(checker) = &self.shared.checker {
            checker.enter_task(env.token, env.deps.clone());
        }
    }

    fn on_complete(&self, done: ExecutedTask, start: TimeNs) -> Option<TimeNs> {
        let mut now = start;
        let evict = !matches!(self.flavour, Flavour::Cache(_));
        self.shared.finish_task(&done, evict, &mut now);
        match &self.flavour {
            Flavour::Sync => sync_fetch::after_complete(&self.shared, done.pe, &mut now),
            Flavour::Io(pool) => pool.after_complete(),
            // Cached blocks stay resident; only the refs dropped.
            Flavour::Cache(_) => {}
        }
        own_reading(start, now)
    }
}

impl Drop for OocHook {
    fn drop(&mut self) {
        self.shutdown();
    }
}
