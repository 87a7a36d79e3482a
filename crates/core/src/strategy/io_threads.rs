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
//! # Sleeping and waking
//!
//! Each IO thread has a private [`Doorbell`]; a ring bumps its
//! generation, then unparks the thread. Queuing a task rings the IO
//! thread serving that queue. A release of HBM space (see
//! `Shared::released`) rings every IO thread whose `needs_space` flag
//! is set: as in vtsim, an eviction may unblock any IO thread. An IO
//! thread waits, with no deadline, only after a scan that found every
//! queue empty, or that had a head refused and, with the flag then set,
//! re-read `released` unmoved but for its own rollback. No ring is
//! lost: for queued work by [`converse::park`]'s argument (the thread
//! registers before its first scan, and a producer rings after its push
//! under the queue's mutex); for freed space by a `SeqCst` Dekker pair,
//! where a releaser bumps `released`, then reads the flags, and a
//! refused thread sets its flag, then re-reads `released`, so either
//! the re-read sees the bump or the releaser sees the flag and rings.
//!
//! # Supervision
//!
//! IO threads are the runtime's single point of failure: a panicked or
//! wedged IO thread strands every task in its wait queues forever. So
//! an IO thread catches its own panics and restarts its loop in place,
//! so the thread its doorbell unparks never changes, at most
//! [`IO_RESTART_BUDGET`] times. A supervisor thread runs a stall
//! watchdog: when queued tasks make no progress past
//! [`WATCHDOG_STALL_MS`], it drains the wait queues in degraded mode
//! (tasks run from DDR4) instead of letting the run wedge.

use super::Shared;
use crate::task::OocTask;
use crate::waitqueue::WaitQueues;
use converse::park::spin_then_park;
use projections::{LaneId, SpanKind, Tracer};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How often the supervisor samples queue progress.
const SUPERVISE_TICK_MS: u64 = 5;

/// Wait-queue stall deadline: if queued tasks make no progress for this
/// long, the watchdog drains them in degraded mode.
const WATCHDOG_STALL_MS: u64 = 1_000;

/// How many times a crashed IO thread may restart its loop before its
/// queues fall back to the watchdog's degraded drain.
const IO_RESTART_BUDGET: u32 = 2;

/// One IO thread's private wake-up: a generation every ring bumps, the
/// thread a ring unparks, and whether a release should ring it.
#[derive(Default)]
struct Doorbell {
    generation: AtomicU64,
    /// Set while the thread waits for HBM space, so releases ring it.
    needs_space: AtomicBool,
    /// The IO thread, registered before its first scan.
    thread: OnceLock<Thread>,
}

impl Doorbell {
    /// Bump the generation, then unpark the registered thread, if any
    /// (a thread reads the generation only after registering).
    fn ring(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    /// Spin, then park the registered thread until the generation moves
    /// past `seen` or `stop` answers true.
    fn wait(&self, seen: u64, stop: impl Fn() -> bool) {
        spin_then_park(|| (self.generation.load(Ordering::SeqCst) != seen || stop()).then_some(()));
    }
}

/// HBM space was released and `Shared::released` bumped for it: ring
/// every IO thread waiting for space.
fn ring_space_waiters(bells: &[Doorbell]) {
    for bell in bells {
        if bell.needs_space.load(Ordering::SeqCst) {
            bell.ring();
        }
    }
}

/// The IO thread, of `threads`, that serves wait queue `q` of
/// `nqueues`: each serves a contiguous run of `ceil(nqueues / threads)`
/// queues, so with more threads than queues the last threads serve
/// none.
fn io_thread_of(q: usize, nqueues: usize, threads: usize) -> usize {
    q / nqueues.div_ceil(threads)
}

/// A pool of IO threads, each serving a contiguous subgroup of wait
/// queues round-robin, plus a supervisor thread that breaks wait-queue
/// stalls.
pub(super) struct IoThreadPool {
    shared: Arc<Shared>,
    bells: Arc<[Doorbell]>,
    /// The IO threads and the supervisor; taken by the first shutdown.
    threads: parking_lot::Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl IoThreadPool {
    /// Spawn `threads` IO threads over the shared state's wait queues,
    /// plus their supervisor. Fails (without leaking already-spawned
    /// threads past shutdown) if the OS refuses a thread.
    pub(super) fn spawn(shared: Arc<Shared>, threads: usize) -> io::Result<Self> {
        let pool = Self {
            bells: (0..threads).map(|_| Doorbell::default()).collect(),
            threads: parking_lot::Mutex::new(Some(Vec::with_capacity(threads + 1))),
            shared,
        };
        if let Err(e) = pool.start(threads) {
            // Unwind cleanly: stop what we started.
            pool.shutdown();
            return Err(e);
        }
        Ok(pool)
    }

    fn start(&self, threads: usize) -> io::Result<()> {
        let mut handles = self.threads.lock();
        let handles = handles.as_mut().expect("a new pool");
        for g in 0..threads {
            handles.push(spawn_io_thread(&self.shared, &self.bells, g)?);
        }
        let shared = Arc::clone(&self.shared);
        handles.push(
            std::thread::Builder::new()
                .name("io-supervisor".into())
                .spawn(move || supervise(&shared, threads))?,
        );
        Ok(())
    }

    /// Queue a freshly intercepted task and wake its IO thread.
    pub(super) fn intercept(&self, task: OocTask) {
        let waitq = &self.shared.waitq;
        let q = waitq.queue_for_pe(task.pe);
        waitq.push(task);
        self.bells[io_thread_of(q, waitq.queue_count(), self.bells.len())].ring();
    }

    /// A task completed, its eviction ran and bumped `Shared::released`:
    /// wake every IO thread waiting for space (a completion queues none).
    pub(super) fn after_complete(&self) {
        ring_space_waiters(&self.bells);
    }

    /// Shut the wait queues down, wake every IO thread and join them
    /// and the supervisor. Returns how many IO-thread panics the pool
    /// saw over its lifetime — callers should surface a nonzero count
    /// instead of discarding it. A panic that escaped a thread's own
    /// catch (e.g. in thread-local teardown) is counted too.
    /// Idempotent: repeat calls return 0 so the count is reported once.
    pub(super) fn shutdown(&self) -> usize {
        let Some(handles) = self.threads.lock().take() else {
            return 0;
        };
        stop(&self.shared.waitq, &self.bells);
        for h in handles {
            if h.join().is_err() {
                self.shared.stats.bump_io_panic();
            }
        }
        self.shared.stats.snapshot().io_panics as usize
    }
}

/// Shut the wait queues down and ring every doorbell, so each IO
/// thread sees the shutdown at its next check.
fn stop(waitq: &WaitQueues, bells: &[Doorbell]) {
    waitq.shutdown();
    for bell in bells {
        bell.ring();
    }
}

/// Spawn IO thread `group`. A panic in its loop is caught and counted,
/// and the loop restarts in the same thread up to [`IO_RESTART_BUDGET`]
/// times; past that the thread exits and the watchdog drains its
/// queues.
fn spawn_io_thread(
    shared: &Arc<Shared>,
    bells: &Arc<[Doorbell]>,
    group: usize,
) -> io::Result<JoinHandle<()>> {
    let (shared, bells) = (Arc::clone(shared), Arc::clone(bells));
    std::thread::Builder::new()
        .name(format!("io{group}"))
        .spawn(move || {
            // Register before the first scan: see the module doc.
            bells[group].thread.get_or_init(std::thread::current);
            let nqueues = shared.waitq.queue_count();
            let my_queues: Vec<usize> = (0..nqueues)
                .filter(|&q| io_thread_of(q, nqueues, bells.len()) == group)
                .collect();
            if my_queues.is_empty() {
                return;
            }
            let tracer = shared.collector.tracer(LaneId::io(group as u32));
            for restart in 0..=IO_RESTART_BUDGET {
                if restart > 0 {
                    shared.stats.bump_io_restart();
                }
                let run = AssertUnwindSafe(|| io_loop(&shared, &bells, group, &my_queues, &tracer));
                if catch_unwind(run).is_ok() {
                    return;
                }
                shared.stats.bump_io_panic();
            }
            eprintln!(
                "io{group}: exceeded its restart budget ({IO_RESTART_BUDGET}); \
                 its queues fall back to the degraded drain"
            );
        })
}

/// The supervisor body: the stall watchdog. Queued tasks with no
/// admissions or completions for [`WATCHDOG_STALL_MS`] mean the
/// pipeline is wedged (an IO thread past its budget, a lost wake-up,
/// or HBM starvation); the watchdog then drains the wait queues in
/// degraded mode.
fn supervise(shared: &Shared, groups: usize) {
    // The watchdog's degraded admissions trace on their own IO lane,
    // one past the IO threads.
    let tracer = shared.collector.tracer(LaneId::io(groups as u32));
    let mut last_counts = (u64::MAX, u64::MAX);
    let mut last_progress = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(SUPERVISE_TICK_MS));
        if shared.waitq.is_shutdown() {
            return;
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
        let mut drained = 0usize;
        // Off the hot path: one reading starts the drain.
        let mut now = shared.rt.clock().now();
        for q in 0..shared.waitq.queue_count() {
            while let Some(task) = shared.waitq.pop(q) {
                shared.admit_degraded(task, &tracer, &mut now);
                drained += 1;
            }
        }
        if drained > 0 {
            eprintln!(
                "io-supervisor: {queued} queued task(s) made no progress for \
                 {WATCHDOG_STALL_MS} ms; drained {drained} task(s) in degraded mode"
            );
        }
        last_progress = Instant::now();
    }
}

/// The IO thread body: Algorithm 1 of the paper. Returns at shutdown.
///
/// Like a worker, the thread carries its latest clock reading: a scan
/// starts at the reading that ended the last wait, each admission
/// advances it past its moves, and an `Idle` wait starts at it and ends
/// with a fresh reading.
fn io_loop(shared: &Shared, bells: &[Doorbell], group: usize, queues: &[usize], tracer: &Tracer) {
    let bell = &bells[group];
    let clock = shared.rt.clock();
    // Rotating cursor so all wait queues are served equally (§IV-B's
    // load-balance argument for one queue per PE).
    let mut cursor = 0usize;
    let mut now = clock.now();
    'scan: loop {
        if shared.waitq.is_shutdown() {
            return;
        }
        if shared.memory().faults().take_io_panic(group) {
            panic!("injected IO-thread fault (io{group})");
        }
        // Snapshot before scanning: a ring during the scan ends the wait
        // below at once, and a release during it forces a rescan.
        let seen = bell.generation.load(Ordering::SeqCst);
        let released = shared.released.load(Ordering::SeqCst);
        let mut made_progress = false;
        let mut blocked = false;
        cursor = (cursor + 1) % queues.len();
        for i in 0..queues.len() {
            let q = queues[(cursor + i) % queues.len()];
            let Some(task) = shared.waitq.pop(q) else {
                continue;
            };
            match shared.try_admit(task, tracer, &mut now) {
                Ok(()) => made_progress = true,
                Err(refused) => {
                    // HBM is full: put the task back at the head, ask the
                    // next release for a ring, and rescan at once if one
                    // came during the scan (the module doc's Dekker pair).
                    shared.waitq.push_front(refused.task);
                    if refused.unpinned {
                        ring_space_waiters(bells);
                    }
                    bell.needs_space.store(true, Ordering::SeqCst);
                    let own = u64::from(refused.unpinned);
                    if shared.released.load(Ordering::SeqCst) != released + own {
                        bell.needs_space.store(false, Ordering::SeqCst);
                        continue 'scan;
                    }
                    blocked = true;
                    break;
                }
            }
        }
        if made_progress && !blocked {
            continue;
        }
        bell.wait(seen, || shared.waitq.is_shutdown());
        bell.needs_space.store(false, Ordering::SeqCst);
        let wake = clock.now();
        if wake > now {
            tracer.record(SpanKind::Idle, now, wake, group as u32);
        }
        now = wake;
    }
}

#[cfg(test)]
mod tests {
    use super::{stop, Doorbell, IO_RESTART_BUDGET};
    use crate::config::{OocConfig, StrategyKind, WaitQueueTopology};
    use crate::engine::MAX_FETCH_RETRIES;
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use crate::task::OocTask;
    use crate::waitqueue::WaitQueues;
    use converse::{
        ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, Envelope, ExecCtx,
        RuntimeBuilder,
    };
    use hetmem::{AccessMode, Memory, Topology, DDR4, HBM};
    use std::sync::atomic::Ordering;
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
    /// test can act while that task still holds HBM.
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

    #[test]
    fn a_completion_wakes_the_io_thread_of_another_pe() {
        // Multi-io on 2 PEs with HBM for one block: one PE's task holds
        // HBM behind the gate while the other PE's IO thread is refused
        // and waits. Only the completion's release can wake that thread
        // in time: had the release rung only its own PE's IO thread, the
        // refused task would sit until the watchdog drained it degraded.
        let block_elems = 512usize;
        let mem = Memory::new(Topology::knl_flat_scaled_with(
            (block_elems * 8) as u64 + 64,
            1 << 24,
        ));
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let latch = Arc::new(CompletionLatch::new(2));
        let handles: Vec<IoHandle<f64>> = (0..2)
            .map(|i| {
                IoHandle::new(
                    &mem,
                    block_elems,
                    Placement::DdrOnly,
                    HBM,
                    DDR4,
                    format!("w{i}"),
                )
                .unwrap()
            })
            .collect();
        let (g2, l2, hs) = (Arc::clone(&gate), Arc::clone(&latch), handles.clone());
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // One chare per PE.
        let array = rt
            .array_builder::<Parker>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(2, move |i| Parker {
                data: hs[i].clone(),
                gate: Arc::clone(&g2),
                parked: Arc::clone(&parked),
                latch: Arc::clone(&l2),
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::multi_io(2),
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for i in 0..2 {
            rt.send(array, i, EP_COMPUTE, ());
        }

        gate.wait(); // one task runs, its block pinned in HBM
        let t0 = std::time::Instant::now();
        while hook.stats().no_space_events == 0 {
            assert!(
                t0.elapsed().as_secs() < 30,
                "the other task was never refused"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        gate.wait();
        assert!(latch.wait_timeout_ms(30_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));
        let stats = hook.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.fetches, 2);
        assert_eq!(
            stats.degraded_tasks, 0,
            "the refused task waited for the watchdog"
        );
        hook.shutdown();
        rt.shutdown();
    }

    /// Reads two blocks that other PEs' tasks also read.
    struct Pair {
        data: [IoHandle<f64>; 2],
        latch: Arc<CompletionLatch>,
        sum: f64,
    }

    impl Chare for Pair {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            self.sum = self.data.iter().map(|h| h.read(|xs| xs[0])).sum();
            self.latch.count_down();
        }
        fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
            self.data
                .iter()
                .map(|h| h.dep(AccessMode::ReadOnly))
                .collect()
        }
    }

    #[test]
    fn rollback_releases_keep_every_io_thread_live() {
        // Four IO threads race for HBM that fits two blocks, and every
        // task needs two blocks shared with other PEs' tasks. Attempts
        // pin one block, find no room for the other and roll back, and
        // each such rollback is a release that must ring the threads
        // waiting for space: a lost ring would leave a refused task for
        // the watchdog's degraded drain.
        const TASKS: usize = 300;
        const BLOCKS: usize = 6;
        let block_elems = 512usize;
        let mem = Memory::new(Topology::knl_flat_scaled_with(
            2 * (block_elems * 8) as u64 + 64,
            1 << 24,
        ));
        let rt = RuntimeBuilder::new(4)
            .clock(Arc::clone(mem.clock()))
            .build();
        let blocks: Vec<IoHandle<f64>> = (0..BLOCKS)
            .map(|b| {
                let h = IoHandle::new(
                    &mem,
                    block_elems,
                    Placement::DdrOnly,
                    HBM,
                    DDR4,
                    format!("s{b}"),
                )
                .unwrap();
                h.write(|xs| xs.fill(b as f64));
                h
            })
            .collect();
        // Task i reads block i % BLOCKS and a different block that
        // rotates with i / BLOCKS.
        let pair = |i: usize| {
            let a = i % BLOCKS;
            (a, (a + 1 + (i / BLOCKS) % (BLOCKS - 1)) % BLOCKS)
        };
        let latch = Arc::new(CompletionLatch::new(TASKS));
        let (l2, bs) = (Arc::clone(&latch), blocks.clone());
        let array = rt
            .array_builder::<Pair>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(TASKS, move |i| {
                let (a, b) = pair(i);
                Pair {
                    data: [bs[a].clone(), bs[b].clone()],
                    latch: Arc::clone(&l2),
                    sum: 0.0,
                }
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::multi_io(4),
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for i in 0..TASKS {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(60_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));

        let arr = rt.array::<Pair>(array);
        for i in 0..TASKS {
            let (a, b) = pair(i);
            assert_eq!(arr.with_chare(i, |c| c.sum), (a + b) as f64);
        }
        let stats = hook.stats();
        assert_eq!(stats.completed, TASKS as u64);
        assert_eq!(
            stats.degraded_tasks, 0,
            "a refused task waited for the watchdog"
        );
        assert!(stats.no_space_events > 0, "HBM never ran out");
        for h in &blocks {
            assert_eq!(h.node(), Some(DDR4), "block not evicted after run");
        }
        hook.shutdown();
        rt.shutdown();
    }

    fn bells(n: usize) -> Arc<[Doorbell]> {
        (0..n).map(|_| Doorbell::default()).collect()
    }

    /// Spawns a registered thread waiting on `bell` with `stop`; once it
    /// has waited long enough to park, calls `wake`. Returns the
    /// generation the waiter saw on return.
    fn wait_then(
        bell: &Arc<[Doorbell]>,
        stop: impl Fn() -> bool + Send + 'static,
        wake: impl FnOnce(),
    ) -> u64 {
        let (tx, rx) = std::sync::mpsc::channel();
        let bell2 = Arc::clone(bell);
        std::thread::spawn(move || {
            bell2[0].thread.get_or_init(std::thread::current);
            let seen = bell2[0].generation.load(Ordering::SeqCst);
            bell2[0].wait(seen, stop);
            tx.send(bell2[0].generation.load(Ordering::SeqCst)).unwrap();
        });
        // Long enough for the waiter to finish its spin and park.
        std::thread::sleep(std::time::Duration::from_millis(10));
        wake();
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("a parked IO thread was never woken")
    }

    #[test]
    fn a_ring_wakes_a_parked_io_thread() {
        let bell = bells(1);
        assert_eq!(wait_then(&bell, || false, || bell[0].ring()), 1);
    }

    #[test]
    fn shutdown_unblocks_a_parked_io_thread() {
        let (wq, bell) = (
            Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1)),
            bells(1),
        );
        let wq2 = Arc::clone(&wq);
        wait_then(&bell, move || wq2.is_shutdown(), || stop(&wq, &bell));
        assert!(wq.is_shutdown());
    }

    #[test]
    fn a_ring_with_nobody_parked_still_moves_the_generation() {
        let bell = bells(1);
        bell[0].ring();
        bell[0].ring();
        assert_eq!(bell[0].generation.load(Ordering::SeqCst), 2);
        // A waiter arriving after the rings returns at its first check.
        bell[0].wait(0, || false);
    }

    #[test]
    fn no_wakeup_is_lost_across_many_handoffs() {
        // Two relays ping-pong a task between their wait queues: each
        // hand-off pushes the task and rings a relay that has usually
        // just parked, so a ring that skipped a needed unpark would
        // stall the exchange for good.
        const N: usize = 100_000;
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 2));
        let bell = bells(2);
        let relay = |from: usize, to: usize| {
            let (wq, bell) = (Arc::clone(&wq), Arc::clone(&bell));
            move || {
                bell[from].thread.get_or_init(std::thread::current);
                let mut moved = 0;
                while moved < N {
                    let seen = bell[from].generation.load(Ordering::SeqCst);
                    if let Some(mut t) = wq.pop(from) {
                        t.pe = to;
                        wq.push(t);
                        bell[to].ring();
                        moved += 1;
                        continue;
                    }
                    bell[from].wait(seen, || false);
                }
            }
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let a = std::thread::spawn(relay(0, 1));
        let b = std::thread::spawn(relay(1, 0));
        wq.push(OocTask {
            env: Envelope::new(ArrayId(0), 7, EntryId(0), Box::new(())),
            pe: 0,
            enqueued_at: 0,
            bytes: 0,
        });
        bell[0].ring();
        std::thread::spawn(move || {
            a.join().unwrap();
            b.join().unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("hand-offs wedged: a wake-up was lost");
        assert_eq!(
            wq.pop(0).expect("the task ends where it began").env.index,
            7
        );
    }
}
