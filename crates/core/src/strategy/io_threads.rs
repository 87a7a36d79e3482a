//! Dedicated IO threads — the paper's "Multiple queues, single IO
//! thread" (one thread), "Multiple queues, multiple IO threads" (one
//! per PE) and the planned "IO thread per subgroup of wait queues"
//! (anything in between).
//!
//! §IV-B: *"The IO thread then wakes up, locks each wait queue (one per
//! PE) one by one and pops the first candidate task in the queue. It
//! then goes through the task's data dependences and for any dependence
//! that is INDDR, brings it into HBM ... and adds the task to the run
//! queue of the corresponding PE ... If there are no more tasks in the
//! wait queue or if allocating a data block would exceed the remaining
//! HBM capacity, then the IO thread goes to sleep/conditional wait."*
//!
//! Like the paper's final implementation, IO threads are *extra*
//! threads alongside the workers ("scheduled on the hyperthread cores
//! corresponding to the worker threads"): fetches overlap with
//! computation instead of stalling it.
//!
//! # Polling before sleeping
//!
//! Each task crosses threads twice here: a worker parks it in a wait
//! queue and signals its IO thread, and the IO thread hands it back
//! through a PE's run queue. An IO thread that runs out of work
//! therefore re-reads its signal generation a few times, yielding its
//! core between reads, before it sleeps on the condvar (see
//! `WaitQueues::wait_signal_timeout`); workers do the same on their run
//! queues. A hand-off that lands during those polls is taken without a
//! futex wake. The timed rescan (`IDLE_RESCAN_MS`) still backs up a
//! lost signal.
//!
//! # Supervision
//!
//! IO threads are the runtime's single point of failure: a panicked or
//! wedged IO thread strands every task in its wait queues forever. The
//! pool therefore runs a supervisor thread that
//!
//! * catches IO-thread panics (`catch_unwind`) and respawns the thread
//!   within a bounded restart budget ([`IO_RESTART_BUDGET`]);
//! * watches per-thread heartbeats and the admitted/completed counters,
//!   and — when queued tasks make no progress past the
//!   [`WATCHDOG_STALL_MS`] deadline — drains the wait queues in
//!   degraded mode (tasks run from DDR4) instead of letting the run
//!   wedge.

use super::Shared;
use crate::task::OocTask;
use projections::{LaneId, SpanKind};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Liveness backstop: an IO thread re-scans its queues at least this
/// often even if a wake-up signal is lost to a race.
const IDLE_RESCAN_MS: u64 = 5;

/// How often the supervisor samples worker health and queue progress.
const SUPERVISE_TICK_MS: u64 = 5;

/// Wait-queue stall deadline: if queued tasks make no progress for this
/// long, the watchdog drains them in degraded mode.
const WATCHDOG_STALL_MS: u64 = 1_000;

/// How many times a crashed IO thread may be respawned before its
/// queues fall back to the watchdog's degraded drain.
const IO_RESTART_BUDGET: u32 = 2;

/// One supervised IO thread.
struct Worker {
    handle: JoinHandle<()>,
    group: usize,
    /// Set by the worker's panic wrapper; distinguishes a crash from a
    /// normal (shutdown or no-queues) return.
    crashed: Arc<AtomicBool>,
}

/// A pool of IO threads, each serving a contiguous subgroup of wait
/// queues round-robin, plus a supervisor thread that respawns crashed
/// workers and breaks wait-queue stalls.
pub struct IoThreadPool {
    shared: Arc<Shared>,
    workers: Arc<parking_lot::Mutex<Vec<Worker>>>,
    supervisor: parking_lot::Mutex<Option<JoinHandle<()>>>,
    joined: AtomicBool,
    groups: usize,
}

impl IoThreadPool {
    /// Spawn `threads` IO threads over the shared state's wait queues,
    /// plus their supervisor. Fails (without leaking already-spawned
    /// threads past shutdown) if the OS refuses a thread.
    pub(super) fn spawn(shared: Arc<Shared>, threads: usize) -> io::Result<Self> {
        let heartbeats: Arc<Vec<AtomicU64>> =
            Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
        let workers = Arc::new(parking_lot::Mutex::new(Vec::with_capacity(threads)));
        {
            let mut slots = workers.lock();
            for g in 0..threads {
                match spawn_worker(&shared, &heartbeats, g, threads) {
                    Ok(w) => slots.push(w),
                    Err(e) => {
                        // Unwind cleanly: stop what we started.
                        shared.waitq.shutdown();
                        for w in slots.drain(..) {
                            let _ = w.handle.join();
                        }
                        return Err(e);
                    }
                }
            }
        }
        let sup_shared = Arc::clone(&shared);
        let sup_workers = Arc::clone(&workers);
        let sup_beats = Arc::clone(&heartbeats);
        let supervisor = match std::thread::Builder::new()
            .name("io-supervisor".into())
            .spawn(move || supervise(sup_shared, sup_workers, sup_beats, threads))
        {
            Ok(h) => h,
            Err(e) => {
                shared.waitq.shutdown();
                for w in workers.lock().drain(..) {
                    let _ = w.handle.join();
                }
                return Err(e);
            }
        };
        Ok(Self {
            shared,
            workers,
            supervisor: parking_lot::Mutex::new(Some(supervisor)),
            joined: AtomicBool::new(false),
            groups: threads,
        })
    }

    /// Queue a freshly intercepted task and wake its IO thread.
    pub(super) fn intercept(&self, task: OocTask) {
        let q = self.shared.waitq.queue_for_pe(task.pe);
        let group = self.group_of_queue(q);
        self.shared.waitq.push(task);
        self.shared.waitq.signal(group);
    }

    /// A task completed on `pe` (its eviction already ran): wake the IO
    /// thread responsible for that PE — space may have been freed.
    pub(super) fn after_complete(&self, pe: usize) {
        let q = self.shared.waitq.queue_for_pe(pe);
        self.shared.waitq.signal(self.group_of_queue(q));
    }

    /// Which IO thread serves wait queue `q`.
    fn group_of_queue(&self, q: usize) -> usize {
        let nqueues = self.shared.waitq.queue_count();
        let per = nqueues.div_ceil(self.groups);
        (q / per).min(self.groups - 1)
    }

    /// Join the supervisor and all IO threads (after
    /// `WaitQueues::shutdown`). Returns how many workers terminated by
    /// panic over the pool's lifetime — callers should surface a
    /// nonzero count instead of discarding it. Idempotent: repeat calls
    /// return 0 so the count is reported once.
    pub fn join(&self) -> usize {
        if self.joined.swap(true, Ordering::AcqRel) {
            return 0;
        }
        if let Some(sup) = self.supervisor.lock().take() {
            let _ = sup.join();
        }
        let mut slots = self.workers.lock();
        for w in slots.drain(..) {
            if w.handle.join().is_err() && !w.crashed.load(Ordering::Acquire) {
                // A panic that escaped the catch_unwind wrapper (e.g.
                // in thread-local teardown): count it rather than
                // silently dropping the error like the old code did.
                self.shared.stats.bump_io_panic();
            }
        }
        self.shared.stats.snapshot().io_panics as usize
    }
}

/// Spawn one IO thread whose panics are caught, counted and flagged so
/// the supervisor can respawn it.
fn spawn_worker(
    shared: &Arc<Shared>,
    heartbeats: &Arc<Vec<AtomicU64>>,
    group: usize,
    groups: usize,
) -> io::Result<Worker> {
    let crashed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&crashed);
    let shared2 = Arc::clone(shared);
    let heartbeats = Arc::clone(heartbeats);
    let handle = std::thread::Builder::new()
        .name(format!("io{group}"))
        .spawn(move || {
            let run =
                AssertUnwindSafe(|| io_loop(Arc::clone(&shared2), &heartbeats, group, groups));
            if catch_unwind(run).is_err() {
                shared2.stats.bump_io_panic();
                flag.store(true, Ordering::Release);
            }
        })?;
    Ok(Worker {
        handle,
        group,
        crashed,
    })
}

/// The supervisor body: respawn crashed workers within budget, and
/// break wait-queue stalls by draining tasks in degraded mode.
fn supervise(
    shared: Arc<Shared>,
    workers: Arc<parking_lot::Mutex<Vec<Worker>>>,
    heartbeats: Arc<Vec<AtomicU64>>,
    groups: usize,
) {
    // The watchdog's degraded admissions trace on their own IO lane,
    // one past the worker groups.
    let tracer = shared.collector.tracer(LaneId::io(groups as u32));
    let mut restarts = vec![0u32; groups];
    let mut last_counts = (u64::MAX, u64::MAX);
    let mut last_beats: Vec<u64> = heartbeats
        .iter()
        .map(|h| h.load(Ordering::Relaxed))
        .collect();
    let mut last_progress = Instant::now();
    loop {
        if shared.waitq.is_shutdown() {
            return;
        }
        std::thread::sleep(Duration::from_millis(SUPERVISE_TICK_MS));
        if shared.waitq.is_shutdown() {
            return;
        }

        // Respawn crashed workers within the per-group restart budget.
        {
            let mut slots = workers.lock();
            for i in 0..slots.len() {
                if !slots[i].handle.is_finished() || !slots[i].crashed.load(Ordering::Acquire) {
                    continue;
                }
                let dead = slots.swap_remove(i);
                let g = dead.group;
                let _ = dead.handle.join();
                if restarts[g] < IO_RESTART_BUDGET {
                    restarts[g] += 1;
                    shared.stats.bump_io_restart();
                    match spawn_worker(&shared, &heartbeats, g, groups) {
                        Ok(w) => slots.push(w),
                        Err(e) => eprintln!("io-supervisor: respawn of io{g} failed: {e}"),
                    }
                } else {
                    eprintln!(
                        "io-supervisor: io{g} exceeded its restart budget \
                         ({IO_RESTART_BUDGET}); its queues fall back to the degraded drain"
                    );
                }
                // Indices shifted under us; re-examine next tick.
                break;
            }
        }

        // Stall watchdog: queued tasks with no admissions/completions
        // for the deadline means the pipeline is wedged (dead thread
        // past its budget, lost wakeup, or HBM starvation).
        // A checkpoint pause intentionally halts admissions; don't read
        // that as a stall and drain the queues in degraded mode.
        if shared.rt.is_paused() {
            last_progress = Instant::now();
            continue;
        }
        let snap = shared.stats.snapshot();
        let queued: usize = shared.waitq.lengths().iter().sum();
        let counts = (snap.admitted, snap.completed);
        if queued == 0 || counts != last_counts {
            last_counts = counts;
            last_progress = Instant::now();
            continue;
        }
        if last_progress.elapsed() < Duration::from_millis(WATCHDOG_STALL_MS) {
            continue;
        }
        let beats: Vec<u64> = heartbeats
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect();
        let alive = beats != last_beats;
        last_beats = beats;
        let mut drained = 0usize;
        for q in 0..shared.waitq.queue_count() {
            while let Some(task) = shared.waitq.pop(q) {
                shared.admit_degraded(task, &tracer);
                drained += 1;
            }
        }
        if drained > 0 {
            eprintln!(
                "io-supervisor: {queued} queued task(s) made no progress for \
                 {WATCHDOG_STALL_MS} ms (IO threads {}); drained {drained} task(s) in degraded mode",
                if alive {
                    "alive but starved"
                } else {
                    "not heartbeating"
                },
            );
        }
        last_progress = Instant::now();
    }
}

/// The IO thread body: Algorithm 1 of the paper.
fn io_loop(shared: Arc<Shared>, heartbeats: &[AtomicU64], group: usize, groups: usize) {
    let tracer = shared.collector.tracer(LaneId::io(group as u32));
    let clock = Arc::clone(shared.rt.clock());
    let nqueues = shared.waitq.queue_count();
    let per = nqueues.div_ceil(groups);
    let my_queues: Vec<usize> = (group * per..((group + 1) * per).min(nqueues)).collect();
    if my_queues.is_empty() {
        return;
    }
    // Rotating cursor so all wait queues are served equally (§IV-B's
    // load-balance argument for one queue per PE).
    let mut cursor = 0usize;
    loop {
        if shared.waitq.is_shutdown() {
            return;
        }
        heartbeats[group].fetch_add(1, Ordering::Relaxed);
        // Checkpoint pause: a paused runtime is quiescent, and the
        // snapshot must not race with block migrations, so IO threads
        // idle (still heartbeating) until resume.
        if shared.rt.is_paused() {
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        }
        if shared.memory().faults().take_io_panic(group) {
            panic!("injected IO-thread fault (io{group})");
        }
        // Snapshot the generation before scanning: anything signalled
        // during the scan will be seen by the next wait.
        let seen = shared.waitq.signal_generation(group);
        let mut made_progress = false;
        let mut blocked = false;
        for i in 0..my_queues.len() {
            let q = my_queues[(cursor + i) % my_queues.len()];
            let Some(task) = shared.waitq.pop(q) else {
                continue;
            };
            match shared.try_admit(task, &tracer) {
                Ok(()) => {
                    made_progress = true;
                }
                Err(refused) => {
                    // HBM is full: put the task back at the head and go
                    // to sleep until a completion evicts something.
                    shared.waitq.push_front(refused.task);
                    blocked = true;
                    break;
                }
            }
        }
        cursor = (cursor + 1) % my_queues.len();
        if made_progress && !blocked {
            continue;
        }
        // Empty queues or no space: conditional wait, with a timed
        // rescan as a liveness backstop.
        let t0 = clock.now();
        shared
            .waitq
            .wait_signal_timeout(group, seen, IDLE_RESCAN_MS);
        let t1 = clock.now();
        if t1 > t0 {
            tracer.record(SpanKind::Idle, t0, t1, group as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::IO_RESTART_BUDGET;
    use crate::config::{OocConfig, StrategyKind, WaitQueueTopology};
    use crate::engine::MAX_FETCH_RETRIES;
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, RuntimeBuilder};
    use hetmem::{AccessMode, Memory, Topology, DDR4, HBM};
    use std::sync::Arc;

    const EP_COMPUTE: EntryId = EntryId(0);

    struct Summer {
        data: IoHandle<f64>,
        latch: Arc<CompletionLatch>,
        sum: f64,
        require_hbm: bool,
    }

    impl Chare for Summer {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            if self.require_hbm {
                assert_eq!(self.data.node(), Some(HBM), "block must be staged");
            }
            self.sum = self.data.read(|xs| xs.iter().sum());
            self.latch.count_down();
        }
        fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    fn run_with(kind: StrategyKind, config: OocConfig, pes: usize, n: usize) -> crate::OocStats {
        run_with_mem(kind, config, pes, n, None, true)
    }

    fn run_with_mem(
        kind: StrategyKind,
        config: OocConfig,
        pes: usize,
        n: usize,
        mem: Option<Arc<Memory>>,
        require_hbm: bool,
    ) -> crate::OocStats {
        let block_elems = 512usize;
        let block_bytes = (block_elems * 8) as u64;
        // HBM fits 2 blocks: forces continuous fetch/evict turnover.
        let mem = mem.unwrap_or_else(|| {
            Memory::new(Topology::knl_flat_scaled_with(
                2 * block_bytes + 64,
                1 << 24,
            ))
        });
        let rt = RuntimeBuilder::new(pes)
            .clock(Arc::clone(mem.clock()))
            .build();

        let latch = Arc::new(CompletionLatch::new(n));
        let mut handles = Vec::new();
        for i in 0..n {
            let h: IoHandle<f64> = IoHandle::new(
                &mem,
                block_elems,
                Placement::DdrOnly,
                HBM,
                DDR4,
                format!("b{i}"),
            )
            .unwrap();
            h.write(|xs| xs.iter_mut().for_each(|x| *x = 2.0));
            handles.push(h);
        }
        let (l2, hs) = (Arc::clone(&latch), handles.clone());
        let array = rt
            .array_builder::<Summer>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(n, move |i| Summer {
                data: hs[i].clone(),
                latch: Arc::clone(&l2),
                sum: 0.0,
                require_hbm,
            });

        let hook = OocHook::new(Arc::clone(&rt), Arc::clone(&mem), kind, config).unwrap();
        rt.set_hook(hook.clone());
        for i in 0..n {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(60_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));

        let arr = rt.array::<Summer>(array);
        for i in 0..n {
            assert_eq!(arr.with_chare(i, |c| c.sum), 2.0 * block_elems as f64);
        }
        let stats = hook.stats();
        if stats.degraded_tasks == 0 {
            for h in &handles {
                assert_eq!(h.node(), Some(DDR4), "block not evicted after run");
            }
        }
        hook.shutdown();
        rt.shutdown();
        stats
    }

    #[test]
    fn single_io_thread_completes_everything() {
        let stats = run_with(StrategyKind::single_io(), OocConfig::default(), 2, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.fetches, 8);
        assert_eq!(stats.evictions, 8);
        // Fault-free run: the resilience counters must stay zero.
        assert_eq!(stats.transient_retries, 0);
        assert_eq!(stats.degraded_tasks, 0);
        assert_eq!(stats.io_restarts, 0);
        assert_eq!(stats.io_panics, 0);
    }

    #[test]
    fn multiple_io_threads_complete_everything() {
        let stats = run_with(StrategyKind::multi_io(2), OocConfig::default(), 2, 8);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn subgroup_io_threads_complete_everything() {
        // 4 PEs served by 2 IO threads — the paper's planned subgroup
        // configuration.
        let stats = run_with(
            StrategyKind::IoThreads { threads: 2 },
            OocConfig::default(),
            4,
            12,
        );
        assert_eq!(stats.completed, 12);
    }

    #[test]
    fn shared_wait_queue_ablation_still_completes() {
        let config = OocConfig {
            wait_queues: WaitQueueTopology::SharedSingle,
            ..OocConfig::default()
        };
        let stats = run_with(StrategyKind::single_io(), config, 2, 8);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn node_level_run_queue_ablation_still_completes() {
        let config = OocConfig {
            node_level_run_queue: true,
            ..OocConfig::default()
        };
        let stats = run_with(StrategyKind::multi_io(2), config, 2, 8);
        assert_eq!(stats.completed, 8);
    }

    #[test]
    fn memory_pool_ablation_still_completes() {
        let config = OocConfig {
            use_memory_pool: true,
            ..OocConfig::default()
        };
        let stats = run_with(StrategyKind::multi_io(2), config, 2, 6);
        assert_eq!(stats.completed, 6);
    }

    #[test]
    fn killed_io_thread_is_respawned_and_run_completes() {
        let block_bytes = 512 * 8;
        let topo = Topology::knl_flat_scaled_with(2 * block_bytes + 64, 1 << 24);
        let faults = Arc::new(hetmem::SeededFaults::new(0).with_io_panic(0));
        let mem = Memory::with_faults(topo, faults);
        let stats = run_with_mem(
            StrategyKind::single_io(),
            OocConfig::default(),
            2,
            8,
            Some(mem),
            true,
        );
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.io_panics, 1, "injected panic must be caught");
        assert_eq!(stats.io_restarts, 1, "crashed IO thread must respawn");
    }

    #[test]
    fn transient_faults_degrade_instead_of_wedging() {
        let block_bytes = 512 * 8;
        let topo = Topology::knl_flat_scaled_with(2 * block_bytes + 64, 1 << 24);
        // Every migration fails: every task must fall back to DDR4.
        let faults = Arc::new(hetmem::SeededFaults::new(1).with_migration_fail_rate(1.0));
        let mem = Memory::with_faults(topo, faults);
        let stats = run_with_mem(
            StrategyKind::single_io(),
            OocConfig::default(),
            2,
            6,
            Some(mem),
            false,
        );
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.degraded_tasks, 6);
        assert!(
            stats.transient_retries >= 6 * u64::from(MAX_FETCH_RETRIES),
            "a full retry budget per task minimum"
        );
        assert_eq!(stats.fetches, 0);
    }

    /// Parks on `gate` the first time any `Parker` executes, so the
    /// test can pause the runtime while that task still holds HBM.
    struct Parker {
        data: IoHandle<f64>,
        gate: Arc<std::sync::Barrier>,
        parked: Arc<std::sync::atomic::AtomicBool>,
        latch: Arc<CompletionLatch>,
    }

    impl Chare for Parker {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            if !self.parked.swap(true, std::sync::atomic::Ordering::SeqCst) {
                self.gate.wait(); // running
                self.gate.wait(); // released
            }
            self.data.write(|xs| xs[0] += 1.0);
            self.latch.count_down();
        }
        fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    #[test]
    fn paused_io_thread_starts_no_fetch_until_resume() {
        const TASKS: usize = 4;
        let block_elems = 512usize;
        // HBM for one block: every other task waits on the running one.
        let mem = Memory::new(Topology::knl_flat_scaled_with(
            (block_elems * 8) as u64 + 64,
            1 << 24,
        ));
        let rt = RuntimeBuilder::new(1)
            .clock(Arc::clone(mem.clock()))
            .build();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let latch = Arc::new(CompletionLatch::new(TASKS));
        let handles: Vec<IoHandle<f64>> = (0..TASKS)
            .map(|i| {
                IoHandle::new(
                    &mem,
                    block_elems,
                    Placement::DdrOnly,
                    HBM,
                    DDR4,
                    format!("p{i}"),
                )
                .unwrap()
            })
            .collect();
        let (g2, l2, hs) = (Arc::clone(&gate), Arc::clone(&latch), handles.clone());
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let array = rt
            .array_builder::<Parker>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(TASKS, move |i| Parker {
                data: hs[i].clone(),
                gate: Arc::clone(&g2),
                parked: Arc::clone(&parked),
                latch: Arc::clone(&l2),
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::single_io(),
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for i in 0..TASKS {
            rt.send(array, i, EP_COMPUTE, ());
        }

        gate.wait(); // the first task runs, its block pinned in HBM
        assert_eq!(hook.stats().fetches, 1);
        rt.pause();
        // Longer than the IO thread's idle rescan, so it has seen the
        // pause before the running task frees HBM.
        std::thread::sleep(std::time::Duration::from_millis(20));
        gate.wait();
        // The running task completes and evicts; its freed space must
        // not start a fetch while the runtime is paused.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let stats = hook.stats();
        assert_eq!(stats.evictions, 1, "the running task did not finish");
        assert_eq!(stats.fetches, 1, "a paused IO thread fetched");

        rt.resume();
        assert!(latch.wait_timeout_ms(30_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));
        let stats = hook.stats();
        assert_eq!(stats.completed, TASKS as u64);
        assert_eq!(stats.fetches, TASKS as u64);
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn watchdog_drains_stalled_queues_in_degraded_mode() {
        // An IO thread that crashes with an exhausted restart budget
        // leaves its queues orphaned; only the watchdog can finish the
        // run.
        let block_bytes = 512 * 8;
        let topo = Topology::knl_flat_scaled_with(2 * block_bytes + 64, 1 << 24);
        let faults =
            (0..=IO_RESTART_BUDGET).fold(hetmem::SeededFaults::new(2), |f, _| f.with_io_panic(0));
        let mem = Memory::with_faults(topo, Arc::new(faults));
        let stats = run_with_mem(
            StrategyKind::single_io(),
            OocConfig::default(),
            2,
            6,
            Some(mem),
            false,
        );
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.io_panics, u64::from(IO_RESTART_BUDGET) + 1);
        assert_eq!(
            stats.io_restarts,
            u64::from(IO_RESTART_BUDGET),
            "budget caps respawns"
        );
        assert!(
            stats.degraded_tasks > 0,
            "watchdog must degrade-drain the orphaned queues"
        );
    }
}
