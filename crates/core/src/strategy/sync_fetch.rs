//! "Multiple queues, no IO thread" — synchronous parallel fetch/evict.
//!
//! §IV-B: *"When a task arrives on a PE, if there is sufficient
//! allocation space in HBM, it fetches its own data in the preprocessing
//! step. If it is able to bring in all its dependences to HBM, then it
//! schedules itself by adding itself to the corresponding PE's run
//! queue. If there is no space in HBM, it adds itself to the PE's wait
//! queue. When a task finishes executing, it calls its postprocessing
//! step, where it evicts its own data dependences ... After evicting its
//! own data, it checks in the wait queue on its PE, to see if there are
//! any tasks waiting to be scheduled on the PE."*
//!
//! Both the fetch and the evict run *on the worker thread*, so their
//! full cost lands in the task's critical path — the ~20 ms
//! pre-processing stalls visible in the paper's Figure 6a. The upside
//! over a single IO thread is parallelism: every worker fetches its own
//! data concurrently, and no lock is held across a fetch.
//!
//! # Admission protocol
//!
//! There is no backstop IO thread here, so a task parked in a wait
//! queue is only ever admitted by some later completion's scan. Two
//! pieces of shared state keep that from stranding a task:
//!
//! * `Shared::released` counts the events that can make a refused task
//!   fit: every completion (bumped after its eviction) and every
//!   refused admission whose rollback unpinned HBM space.
//! * The wait queue's own lock. A freshly refused task re-reads
//!   `released` and parks under its queue's lock, in one critical
//!   section (`WaitQueues::push_unless`); a completion's scan pops that
//!   queue under the same lock, after its bump. No fetch runs under it,
//!   and no lock is shared by all PEs.
//!
//! An attempt "misses" a release if the release happens after the
//! attempt read `released` but the attempt fails anyway. Both parking
//! paths re-read `released` after failing and retry on any release
//! other than their own rollback, so a refused task is parked only if
//! nothing was released during its attempt, or if a scan that pops its
//! queue after the park will see it. See [`intercept`] and
//! [`after_complete`] for the two halves of the argument.
//!
//! `Shared::try_admit` may refuse a task before its attempt takes any
//! reference, when the deps it would have to fetch already exceed the
//! free HBM bytes. Such a refusal pins and unpins nothing, so it is an
//! attempt that failed without a rollback (`unpinned` is false), and
//! the argument holds unchanged. Every release counted in the
//! `released` value the attempt read freed its space before its bump,
//! so the check's later read of the free bytes already includes it.

use super::{Refused, Shared};
use crate::task::OocTask;
use hetmem::TimeNs;
use std::sync::atomic::Ordering;

/// Pre-processing on the worker thread: fetch the task's data right
/// here and admit it, or park it in its PE's wait queue.
///
/// A refused task is parked only if `released` has not moved (beyond
/// this attempt's own rollback) since the attempt began; otherwise the
/// attempt is retried with the freed space. The check and the park are
/// one critical section on the task's wait queue. A completion `C`
/// bumps `released` before its scan pops that queue, so for every `C`
/// racing this park, either `C`'s pop takes the lock after the park
/// and finds the task, or it took the lock before, and the park's
/// check, which takes the lock after it, sees `C`'s bump and retries.
///
/// `now` is the worker's latest clock reading, advanced past every move.
pub(super) fn intercept(shared: &Shared, mut task: OocTask, now: &mut TimeNs) {
    let tracer = shared.worker_tracer(task.pe);
    loop {
        let seen = shared.released.load(Ordering::Acquire);
        // Synchronous fetch: runs right here, on the PE's thread.
        let Err(refused) = shared.try_admit(task, tracer, now) else {
            return;
        };
        match park(shared, refused, seen) {
            Some(back) => task = back,
            None => return,
        }
    }
}

/// Park a task refused by an attempt that began when `released` read
/// `seen`, or hand it back for a retry if space was released since
/// (other than by the attempt's own rollback): the scan that goes with
/// that release may already have missed it.
fn park(shared: &Shared, refused: Refused, seen: u64) -> Option<OocTask> {
    let own = u64::from(refused.unpinned);
    let moved = || shared.released.load(Ordering::Acquire) != seen + own;
    shared.waitq.push_unless(refused.task, moved)
}

/// Post-processing on the worker thread: after this task's eviction
/// (done in `Shared::finish_task`, which also bumped `released`), admit
/// whatever now fits.
///
/// The paper checks only the finishing task's own PE's wait queue. That
/// is almost always sufficient (every PE continuously completes tasks),
/// but it can strand the very last waiting tasks of a run if their home
/// PE never completes another task. We therefore scan all wait queues,
/// *starting with* the finishing PE, and stop at the first queue head
/// that does not fit — preserving the paper's behaviour in the common
/// case while guaranteeing liveness.
///
/// The caller bumped `released` before this scan, so a concurrent
/// [`intercept`] whose park takes a queue's lock after this scan popped
/// it sees the bump and retries, and one that parked before is popped.
/// Scans run concurrently with each other and with intercepts,
/// fetching outside any lock, so a scan can find a queue empty or
/// showing a later head while another scan holds its head out for an
/// attempt. Such a holder re-parks a head that did not fit at the front
/// and re-reads `released`: the queue lock orders the other scan's pop
/// (which came after its bump) before the re-park, so the holder sees
/// that release and rescans with its space. Likewise two attempts
/// refused only because each pinned space the other needed both
/// release it on rollback, and the one whose check comes second in the
/// counter's order sees the other's bump and rescans. A scan that sees
/// no foreign release since it began returns: any later release brings
/// its own scan.
///
/// `now` is the worker's latest clock reading, advanced past every move.
pub(super) fn after_complete(shared: &Shared, pe: usize, now: &mut TimeNs) {
    let nqueues = shared.waitq.queue_count();
    let first = shared.waitq.queue_for_pe(pe);
    let tracer = shared.worker_tracer(pe);
    'scan: loop {
        let seen = shared.released.load(Ordering::Acquire);
        for offset in 0..nqueues {
            let q = (first + offset) % nqueues;
            // Drain this queue until a head does not fit.
            while let Some(task) = shared.waitq.pop(q) {
                if let Err(refused) = shared.try_admit(task, tracer, now) {
                    shared.waitq.push_front(refused.task);
                    let own = u64::from(refused.unpinned);
                    if shared.released.load(Ordering::Acquire) != seen + own {
                        continue 'scan;
                    }
                    return; // no space; later releases will retry
                }
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::{after_complete, park};
    use crate::config::{OocConfig, StrategyKind};
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use crate::task::OocTask;
    use converse::{
        ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, Envelope, ExecCtx,
        ExecutedTask, Mapping, RuntimeBuilder,
    };
    use hetmem::{AccessMode, Memory, TimeNs, Topology, DDR4, HBM};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    const EP_COMPUTE: EntryId = EntryId(0);

    /// A chare that sums its block when executed — and asserts that the
    /// runtime really did stage the block into HBM first.
    struct Summer {
        data: IoHandle<f64>,
        latch: Arc<CompletionLatch>,
        sum: f64,
    }

    impl Chare for Summer {
        type Msg = ();
        fn execute(&mut self, _entry: EntryId, _msg: (), _ctx: &mut ExecCtx<'_>) {
            assert_eq!(
                self.data.node(),
                Some(HBM),
                "prefetch must have staged the block into HBM"
            );
            self.sum = self.data.read(|xs| xs.iter().sum());
            self.latch.count_down();
        }
        fn deps(&self, _entry: EntryId, _msg: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    #[test]
    fn sync_strategy_stages_blocks_and_evicts_after() {
        // HBM fits only 2 of the 6 blocks at a time.
        let block_elems = 1024usize;
        let block_bytes = (block_elems * 8) as u64;
        let topo = Topology::knl_flat_scaled_with(2 * block_bytes + 64, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();

        let n = 6;
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
            h.write(|xs| xs.iter_mut().for_each(|x| *x = 1.0));
            handles.push(h);
        }
        let l2 = Arc::clone(&latch);
        let hs = handles.clone();
        let array = rt
            .array_builder::<Summer>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(n, move |i| Summer {
                data: hs[i].clone(),
                latch: Arc::clone(&l2),
                sum: 0.0,
            });

        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());

        for i in 0..n {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(30_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));

        // Every task computed the right sum.
        let arr = rt.array::<Summer>(array);
        for i in 0..n {
            assert_eq!(arr.with_chare(i, |c| c.sum), block_elems as f64);
        }
        // All blocks evicted back to DDR4 (refcounts hit zero).
        for h in &handles {
            assert_eq!(h.node(), Some(DDR4), "{h:?} not evicted");
        }
        let stats = hook.stats();
        assert_eq!(stats.intercepted, n as u64);
        assert_eq!(stats.completed, n as u64);
        assert_eq!(stats.fetches, n as u64);
        assert_eq!(stats.evictions, n as u64);
        // HBM capacity was respected throughout.
        let hbm_stats = &mem.stats().nodes[HBM.index()];
        assert!(hbm_stats.peak_used_bytes <= 2 * block_bytes + 64);
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn shared_read_only_blocks_are_fetched_once() {
        let block_elems = 512usize;
        let topo = Topology::knl_flat_scaled_with(1 << 20, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();

        let shared: IoHandle<f64> =
            IoHandle::new(&mem, block_elems, Placement::DdrOnly, HBM, DDR4, "shared").unwrap();
        shared.write(|xs| xs.iter_mut().for_each(|x| *x = 0.5));

        struct Reader {
            data: IoHandle<f64>,
            latch: Arc<CompletionLatch>,
        }
        impl Chare for Reader {
            type Msg = ();
            fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
                assert_eq!(self.data.node(), Some(HBM));
                let _sum: f64 = self.data.read(|xs| xs.iter().sum());
                self.latch.count_down();
            }
            fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
                vec![self.data.dep(AccessMode::ReadOnly)]
            }
        }

        let n = 8;
        let latch = Arc::new(CompletionLatch::new(n));
        let (l2, s2) = (Arc::clone(&latch), shared.clone());
        let array = rt
            .array_builder::<Reader>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(n, move |_| Reader {
                data: s2.clone(),
                latch: Arc::clone(&l2),
            });

        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        let _ = ArrayId(0); // silence unused import in some cfgs

        for i in 0..n {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(30_000));
        assert!(rt.wait_quiescence_ms(10_000));
        let stats = hook.stats();
        // The block is fetched far fewer times than it is used: tasks
        // overlapping in flight share the single resident copy (the
        // paper's matmul nodegroup reuse).
        assert!(stats.fetches < n as u64, "fetches={}", stats.fetches);
        assert_eq!(stats.completed, n as u64);
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn a_refusal_by_the_space_check_pins_nothing() {
        // HBM holds one block, and b0 occupies it under a held ref.
        let block_elems = 512usize;
        let block_bytes = (block_elems * 8) as u64;
        let topo = Topology::knl_flat_scaled_with(block_bytes, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(1)
            .clock(Arc::clone(mem.clock()))
            .build();
        let blocks: Vec<IoHandle<f64>> = (0..2)
            .map(|i| {
                IoHandle::new(
                    &mem,
                    block_elems,
                    Placement::DdrOnly,
                    HBM,
                    DDR4,
                    format!("b{i}"),
                )
                .unwrap()
            })
            .collect();
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
        )
        .unwrap();
        let shared = &hook.shared;
        let tracer = shared.worker_tracer(0);
        let held = [blocks[0].dep(AccessMode::ReadWrite)];
        shared.engine.add_refs(&held);
        shared.engine.fetch_all(&held, tracer, 0, &mut 0).unwrap();

        let mut env = Envelope::new(ArrayId(0), 1, EP_COMPUTE, Box::new(()));
        env.deps = vec![blocks[1].dep(AccessMode::ReadWrite)];
        let task = OocTask {
            env,
            pe: 0,
            enqueued_at: 0,
            bytes: block_bytes,
        };
        let refused = match shared.try_admit(task, tracer, &mut 0) {
            Ok(()) => panic!("b1 cannot fit beside the held b0"),
            Err(refused) => refused,
        };
        assert!(!refused.unpinned);
        let registry = mem.registry();
        let state = |h: &IoHandle<f64>| (registry.refcount(h.block()), h.node());
        assert_eq!(state(&blocks[0]), (1, Some(HBM)));
        assert_eq!(state(&blocks[1]), (0, Some(DDR4)));
        // The refusal never began a move, so no HBM allocation failed.
        assert_eq!(mem.stats().nodes[HBM.index()].failed_alloc_count, 0);
        let stats = hook.stats();
        assert_eq!((stats.no_space_events, stats.fetches), (1, 1));
        shared.engine.release(&held, false, tracer, 0, &mut 0);
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn a_task_already_in_hbm_is_admitted_with_no_hbm_free() {
        // The task's one block fills HBM, so 0 bytes are free, yet it
        // needs nothing fetched. Refusing it would park it with no
        // completion left to rescan the queue.
        let block_elems = 512usize;
        let block_bytes = (block_elems * 8) as u64;
        let topo = Topology::knl_flat_scaled_with(block_bytes, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(1)
            .clock(Arc::clone(mem.clock()))
            .build();
        let data: IoHandle<f64> =
            IoHandle::new(&mem, block_elems, Placement::HbmOnly, HBM, DDR4, "b").unwrap();
        assert_eq!(mem.allocator(HBM).available(), 0);
        let latch = Arc::new(CompletionLatch::new(1));
        let (l2, d2) = (Arc::clone(&latch), data.clone());
        let array = rt
            .array_builder::<Summer>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(1, move |_| Summer {
                data: d2.clone(),
                latch: Arc::clone(&l2),
                sum: 0.0,
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        rt.send(array, 0, EP_COMPUTE, ());
        assert!(latch.wait_timeout_ms(30_000), "the task was refused");
        assert!(rt.wait_quiescence_ms(10_000));
        let stats = hook.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!((stats.no_space_events, stats.fetches), (0, 0));
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn one_block_of_hbm_never_strands_a_parked_task() {
        // HBM holds one block, so every admission but one is refused
        // and four workers on this host's cores race to park, scan and
        // re-park. A lost release would leave a task in a wait queue
        // with nothing left to complete and rescan.
        const PES: usize = 4;
        const CHARES: usize = 64;
        const SENDS: usize = 4;
        let block_elems = 512usize;
        let block_bytes = (block_elems * 8) as u64;
        for run in 0..20 {
            let topo = Topology::knl_flat_scaled_with(block_bytes, 1 << 24);
            let mem = Memory::new(topo);
            let rt = RuntimeBuilder::new(PES)
                .clock(Arc::clone(mem.clock()))
                .build();
            let latch = Arc::new(CompletionLatch::new(CHARES * SENDS));
            let handles: Vec<IoHandle<f64>> = (0..CHARES)
                .map(|i| {
                    IoHandle::new(
                        &mem,
                        block_elems,
                        Placement::DdrOnly,
                        HBM,
                        DDR4,
                        format!("b{i}"),
                    )
                    .unwrap()
                })
                .collect();
            let (l2, hs) = (Arc::clone(&latch), handles.clone());
            let array = rt
                .array_builder::<Summer>()
                .entry(EP_COMPUTE, EntryOptions::prefetch())
                .build(CHARES, move |i| Summer {
                    data: hs[i].clone(),
                    latch: Arc::clone(&l2),
                    sum: 0.0,
                });
            let hook = OocHook::new(
                Arc::clone(&rt),
                Arc::clone(&mem),
                StrategyKind::SyncFetch,
                OocConfig::default(),
            )
            .unwrap();
            rt.set_hook(hook.clone());
            for _ in 0..SENDS {
                for i in 0..CHARES {
                    rt.send(array, i, EP_COMPUTE, ());
                }
            }
            assert!(latch.wait_timeout_ms(60_000), "run {run}: tasks stranded");
            assert!(rt.wait_quiescence_ms(10_000), "run {run}: not quiescent");
            let stats = hook.stats();
            assert_eq!(stats.completed, (CHARES * SENDS) as u64, "run {run}");
            assert_eq!(stats.intercepted, stats.completed, "run {run}");
            assert!(hook.shared.waitq.lengths().iter().all(|&n| n == 0));
            assert!(mem.stats().nodes[HBM.index()].peak_used_bytes <= block_bytes);
            hook.shutdown();
            rt.shutdown();
        }
    }

    #[test]
    fn a_park_racing_the_last_scan_is_never_stranded() {
        // HBM holds one block. A task holding b0 is "running" while b1's
        // task is refused, and the runner's completion is the last scan.
        // Both orders of that scan and the refused task's park are
        // forced here, by running the two halves by hand.
        let block_elems = 512usize;
        let block_bytes = (block_elems * 8) as u64;
        let mem = Memory::new(Topology::knl_flat_scaled_with(block_bytes, 1 << 24));
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();
        let blocks: Vec<IoHandle<f64>> = (0..2)
            .map(|i| {
                let placement = Placement::DdrOnly;
                IoHandle::new(&mem, block_elems, placement, HBM, DDR4, format!("b{i}")).unwrap()
            })
            .collect();
        let latch = Arc::new(CompletionLatch::new(1));
        let (l2, hs) = (Arc::clone(&latch), blocks.clone());
        let array = rt
            .array_builder::<Summer>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .mapping(Mapping::RoundRobin)
            .build(2, move |i| Summer {
                data: hs[i].clone(),
                latch: Arc::clone(&l2),
                sum: 0.0,
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        let shared = &hook.shared;
        let running = [blocks[0].dep(AccessMode::ReadWrite)];
        // Admit the b0 task, then refuse the b1 task beside it.
        let refused_beside_runner = |now: &mut TimeNs| {
            shared.engine.add_refs(&running);
            let tracer = shared.worker_tracer(0);
            shared.engine.fetch_all(&running, tracer, 0, now).unwrap();
            let seen = shared.released.load(Ordering::Acquire);
            let mut env = Envelope::new(array, 1, EP_COMPUTE, Box::new(()));
            env.deps = vec![blocks[1].dep(AccessMode::ReadWrite)];
            let task = OocTask {
                env,
                pe: 1,
                enqueued_at: 0,
                bytes: block_bytes,
            };
            match shared.try_admit(task, shared.worker_tracer(1), now) {
                Ok(()) => panic!("b1 cannot fit beside the running b0"),
                Err(refused) => (refused, seen),
            }
        };
        // The b0 task's post-processing: evict, count the release, scan.
        let complete_runner = |now: &mut TimeNs| {
            let done = ExecutedTask {
                index: 0,
                token: 0,
                pe: 0,
                deps: running.to_vec(),
            };
            shared.finish_task(&done, true, now);
            after_complete(shared, 0, now);
        };
        let mut now = 0;

        // The scan pops b1's empty queue before the park: the park's
        // check must see the scan's release and hand the task back.
        let (refused, seen) = refused_beside_runner(&mut now);
        complete_runner(&mut now);
        let retry = park(shared, refused, seen);
        assert!(retry.is_some(), "parked after the last scan: stranded");
        drop(retry);

        // The park comes first: nothing was released, so it parks, and
        // the scan pops and admits it, and it runs.
        let (refused, seen) = refused_beside_runner(&mut now);
        assert!(
            park(shared, refused, seen).is_none(),
            "retried with no release"
        );
        assert_eq!(hook.shared.waitq.lengths(), vec![0, 1]);
        complete_runner(&mut now);
        assert!(latch.wait_timeout_ms(30_000), "the parked task never ran");
        rt.shutdown();
        let stats = hook.stats();
        assert_eq!((stats.admitted, stats.completed), (1, 3));
        assert!(hook.shared.waitq.lengths().iter().all(|&n| n == 0));
        hook.shutdown();
    }
}
