//! Clock-read budgets of the hot paths.
//!
//! Every read of the wall clock costs tens of nanoseconds, and the
//! fetch/evict path of a managed task used to read it dozens of times.
//! A counting clock makes the number of reads visible; it depends only
//! on the code path taken, not on timing, so these budgets are exact,
//! repeatable gates.

use converse::{
    ArrayId, Chare, EntryId, EntryOptions, Envelope, ExecCtx, ExecutedTask, Runtime,
    RuntimeBuilder, SchedulerHook,
};
use hetmem::{Clock, Memory, NodeSpec, TimeNs, Topology, VirtualClock, DDR4, HBM};
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

struct Noop;

impl Chare for Noop {
    type Msg = ();
    fn execute(&mut self, _entry: EntryId, _msg: (), _ctx: &mut ExecCtx<'_>) {}
}

/// Admits every intercepted envelope at once, without reading the
/// clock, so the reads counted are the scheduler's own.
struct Admit {
    rt: Arc<Runtime>,
    outstanding: AtomicU64,
}

impl SchedulerHook for Admit {
    fn on_intercept(&self, pe: usize, mut env: Envelope) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        env.admitted = true;
        self.rt.inject(pe, env);
    }
    fn on_complete(&self, _done: ExecutedTask) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
    fn pending(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst) as usize
    }
}

/// Clock reads the single PE makes to process `n` sends of `entry`.
/// Quiescence counts a message only after the worker's last read for
/// it, so everything is counted once it returns.
fn worker_reads(
    rt: &Runtime,
    clock: &CountingClock,
    array: ArrayId,
    entry: EntryId,
    n: u64,
) -> u64 {
    reads_of(clock, || {
        for _ in 0..n {
            rt.send(array, 0, entry, ());
        }
        assert!(rt.wait_quiescence_ms(10_000), "runtime never went quiet");
    })
}

#[test]
fn an_executed_envelope_costs_at_most_three_clock_reads() {
    const N: u64 = 200;
    let clock = Arc::new(CountingClock::default());
    let rt = RuntimeBuilder::new(1).clock(clock.clone()).build();
    let hook = Arc::new(Admit {
        rt: Arc::clone(&rt),
        outstanding: AtomicU64::new(0),
    });
    rt.set_hook(hook.clone());
    let array = rt
        .array_builder::<Noop>()
        .entry(EP_PLAIN, EntryOptions::default())
        .entry(EP_PREFETCH, EntryOptions::prefetch())
        .build(1, |_| Noop);
    // Let the worker make its start-up read before counting.
    worker_reads(&rt, &clock, array, EP_PLAIN, 1);

    let plain = worker_reads(&rt, &clock, array, EP_PLAIN, N);
    assert!(plain <= 3 * N, "{plain} reads for {N} plain envelopes");
    // A [prefetch] message is processed twice: intercepted (at most two
    // reads: the end of the idle wait and of the interception), then
    // executed as an admitted envelope (at most three).
    let prefetch = worker_reads(&rt, &clock, array, EP_PREFETCH, N);
    assert!(
        prefetch <= (2 + 3) * N,
        "{prefetch} reads for {N} prefetch messages"
    );
    rt.shutdown();
}
