//! Clock-read budgets of the hot paths.
//!
//! Every read of the wall clock costs tens of nanoseconds, and the
//! fetch/evict path of a managed task used to read it dozens of times.
//! A counting clock makes the number of reads visible; it depends only
//! on the code path taken, not on timing, so these budgets are exact,
//! repeatable gates.

use converse::{
    ArrayId, Chare, Dep, EntryId, EntryOptions, Envelope, ExecCtx, ExecutedTask, Runtime,
    RuntimeBuilder, SchedulerHook,
};
use hetmem::{AccessMode, Clock, Memory, NodeSpec, TimeNs, Topology, VirtualClock, DDR4, HBM};
use hetrt_core::{IoHandle, OocConfig, OocHook, Placement, StrategyKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A virtual clock that counts its reads. `sleep_until` counts as one
/// read: a wall clock must read itself at least once to see that the
/// deadline has passed, and that reading is the wake time it returns.
#[derive(Default)]
struct CountingClock {
    inner: VirtualClock,
    reads: AtomicU64,
}

impl CountingClock {
    fn reads(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }
}

impl Clock for CountingClock {
    fn now(&self) -> TimeNs {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.now()
    }

    fn sleep_until(&self, deadline: TimeNs) -> TimeNs {
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.inner.sleep_until(deadline)
    }
}

/// Clock reads made by `f`.
fn reads_of(clock: &CountingClock, f: impl FnOnce()) -> u64 {
    let before = clock.reads();
    f();
    clock.reads() - before
}

/// A registered 4 KiB DDR4 block on `topology`, timed by `clock`.
fn one_block(topology: Topology, clock: &Arc<CountingClock>) -> (Arc<Memory>, hetmem::BlockId) {
    let mem = Memory::with_clock(topology, clock.clone());
    let buf = mem.alloc_on_node(4096, DDR4).unwrap();
    let id = mem.registry().register(buf, "b");
    (mem, id)
}

#[test]
fn a_migration_and_a_charge_stay_within_their_clock_budgets() {
    let clock = Arc::new(CountingClock::default());
    // No copy-rate cap: the migration's reads are its own and its two
    // charges'.
    let topology = Topology::new(vec![
        NodeSpec::new("DDR4", 1 << 20, 1 << 30),
        NodeSpec::new("HBM", 1 << 20, 1 << 32),
    ]);
    assert_eq!(topology.migrate_thread_bytes_per_sec(), None);
    let (mem, id) = one_block(topology, &clock);
    let engine = mem.migration_engine();

    // One slice: the charge's `issued_at` and the `sleep_until`.
    let reads = reads_of(&clock, || {
        mem.charge(DDR4, 4096);
    });
    assert!(
        reads <= 2,
        "a one-slice charge read the clock {reads} times"
    );
    // The move's start anchors the read charge, whose wake anchors the
    // write charge, whose wake ends the move.
    for (dst, evict) in [(HBM, false), (DDR4, true)] {
        let reads = reads_of(&clock, || {
            engine.migrate(id, dst, evict, true).unwrap();
        });
        assert!(
            reads <= 3,
            "copying move to {dst} read the clock {reads} times"
        );
    }
    // A WriteOnly fetch charges nothing: only its start and end.
    let reads = reads_of(&clock, || {
        engine.migrate(id, HBM, false, false).unwrap();
    });
    assert!(reads <= 2, "WriteOnly fetch read the clock {reads} times");
}

#[test]
fn a_capped_migration_adds_one_clock_read() {
    let clock = Arc::new(CountingClock::default());
    let topology = Topology::knl_flat_scaled();
    assert!(topology.migrate_thread_bytes_per_sec().is_some());
    assert!(
        topology.slice_bytes() >= 4096,
        "a 4 KiB charge is one slice"
    );
    let (mem, id) = one_block(topology, &clock);
    let engine = mem.migration_engine();
    // The uncapped move's three reads, plus the copy-rate cap's sleep.
    for (dst, evict) in [(HBM, false), (DDR4, true)] {
        let reads = reads_of(&clock, || {
            engine.migrate(id, dst, evict, true).unwrap();
        });
        assert!(
            reads <= 4,
            "capped move to {dst} read the clock {reads} times"
        );
    }
}

const EP_PLAIN: EntryId = EntryId(0);
const EP_PREFETCH: EntryId = EntryId(1);

/// Reads allowed beyond a per-envelope or per-task budget: a busy
/// worker's only other read is its wake from the pause gate.
const WAKE_READS: u64 = 4;

struct Noop;

impl Chare for Noop {
    type Msg = ();
    fn execute(&mut self, _entry: EntryId, _msg: (), _ctx: &mut ExecCtx<'_>) {}
}

/// Admits every intercepted envelope at once, without reading the
/// clock, so the reads counted are the scheduler's own.
struct Admit {
    rt: Arc<Runtime>,
}

impl SchedulerHook for Admit {
    fn on_intercept(&self, pe: usize, mut env: Envelope, _now: TimeNs) -> Option<TimeNs> {
        env.admitted = true;
        self.rt.inject(pe, env);
        None
    }
    fn on_complete(&self, _done: ExecutedTask, _now: TimeNs) -> Option<TimeNs> {
        None
    }
}

/// Clock reads the single PE makes to process the messages `send`
/// queues while the pause gate is closed, so the worker stays busy
/// from its wake at the gate to the last one. Quiescence counts a
/// message only after the worker's last read for it, so everything is
/// counted once it returns.
fn busy_worker_reads(rt: &Runtime, clock: &CountingClock, send: impl FnOnce()) -> u64 {
    reads_of(clock, || {
        rt.pause();
        send();
        rt.resume();
        assert!(rt.wait_quiescence_ms(10_000), "runtime never went quiet");
    })
}

#[test]
fn every_hand_off_on_a_busy_worker_costs_one_clock_read() {
    const N: u64 = 200;
    let clock = Arc::new(CountingClock::default());
    let rt = RuntimeBuilder::new(1).clock(clock.clone()).build();
    let hook = Arc::new(Admit {
        rt: Arc::clone(&rt),
    });
    rt.set_hook(hook.clone());
    let array = rt
        .array_builder::<Noop>()
        .entry(EP_PLAIN, EntryOptions::default())
        .entry(EP_PREFETCH, EntryOptions::prefetch())
        .build(1, |_| Noop);
    let send = |entry| {
        let rt = &rt;
        move || {
            for _ in 0..N {
                rt.send(array, 0, entry, ());
            }
        }
    };

    // A plain envelope reads only the end of its execution.
    let plain = busy_worker_reads(&rt, &clock, send(EP_PLAIN));
    assert!(
        plain <= N + WAKE_READS,
        "{plain} reads for {N} plain envelopes"
    );
    // A [prefetch] message is handed off three times: intercepted, then
    // executed as an admitted envelope and post-processed. `Admit` reads
    // no clock, so the scheduler reads once after each.
    let prefetch = busy_worker_reads(&rt, &clock, send(EP_PREFETCH));
    assert!(
        prefetch <= 3 * N + WAKE_READS,
        "{prefetch} reads for {N} prefetch messages"
    );
    rt.shutdown();
}

/// A no-op `[prefetch]` chare that re-sends itself until it has run
/// `runs` times: a closed loop of managed tasks.
struct Tick {
    block: IoHandle<f64>,
    array: Option<ArrayId>,
    runs: u32,
}

impl Chare for Tick {
    type Msg = ();
    fn execute(&mut self, _entry: EntryId, _msg: (), ctx: &mut ExecCtx<'_>) {
        self.runs -= 1;
        if self.runs > 0 {
            let array = self.array.expect("array id is set before the first send");
            ctx.send(array, ctx.index(), EP_PREFETCH, ());
        }
    }
    fn deps(&self, _entry: EntryId, _msg: &()) -> Vec<Dep> {
        vec![self.block.dep(AccessMode::ReadWrite)]
    }
}

#[test]
fn a_managed_task_stays_within_its_clock_budget() {
    const CHARES: usize = 16;
    const RUNS: u32 = 50;
    const BLOCK_ELEMS: usize = 512;
    const TASKS: u64 = CHARES as u64 * RUNS as u64;
    // Free bandwidth, no copy-rate cap, and HBM for half the blocks, so
    // admissions are refused and parked tasks admitted by later scans.
    let free = 1 << 55;
    let block_bytes = (BLOCK_ELEMS * 8) as u64;
    let topology = Topology::new(vec![
        NodeSpec::new("DDR4", 1 << 24, free),
        NodeSpec::new("HBM", CHARES as u64 / 2 * block_bytes, free),
    ]);
    let clock = Arc::new(CountingClock::default());
    let mem = Memory::with_clock(topology, clock.clone());
    let rt = RuntimeBuilder::new(1).clock(clock.clone()).build();
    let blocks: Vec<IoHandle<f64>> = (0..CHARES)
        .map(|i| {
            IoHandle::new(
                &mem,
                BLOCK_ELEMS,
                Placement::DdrOnly,
                HBM,
                DDR4,
                format!("b{i}"),
            )
            .unwrap()
        })
        .collect();
    let array = rt
        .array_builder::<Tick>()
        .entry(EP_PREFETCH, EntryOptions::prefetch())
        .build(CHARES, |i| Tick {
            block: blocks[i].clone(),
            array: None,
            runs: RUNS,
        });
    let ticks = rt.array::<Tick>(array);
    for i in 0..CHARES {
        ticks.with_chare(i, |t| t.array = Some(array));
    }
    let hook = OocHook::new(
        Arc::clone(&rt),
        Arc::clone(&mem),
        StrategyKind::SyncFetch,
        OocConfig::default(),
    )
    .unwrap();
    rt.set_hook(hook.clone());

    let reads = busy_worker_reads(&rt, &clock, || {
        for i in 0..CHARES {
            rt.send(array, i, EP_PREFETCH, ());
        }
    });
    let stats = hook.stats();
    assert_eq!(stats.completed, TASKS);
    assert_eq!((stats.fetches, stats.evictions), (TASKS, TASKS));
    assert!(stats.no_space_events > 0, "HBM never filled");
    // A move reads its start and one wake per charge (3), for the fetch
    // and the eviction; the execution's end is 1 more, and an intercept
    // refused without a move costs the scheduler 1.
    assert!(
        reads <= 8 * TASKS + WAKE_READS,
        "{reads} reads for {TASKS} managed tasks ({:.2} per task)",
        reads as f64 / TASKS as f64
    );
    drop(ticks);
    hook.shutdown();
    rt.shutdown();
}
