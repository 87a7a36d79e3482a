//! The runtime: PEs, scheduler loops, message sends and interception.
//!
//! Each PE is a worker thread running the Converse scheduler loop:
//! block on the PE's FIFO run queue, deliver the next message to its
//! chare, repeat. Delivery of an unadmitted `[prefetch]` message is
//! diverted to the installed [`SchedulerHook`] (§IV-B); everything else
//! executes directly. Admitted messages trigger the hook's
//! post-processing after execution.
//!
//! Nothing on the per-envelope path takes a shared lock: the array
//! table is append-only with lock-free lookups, and each worker caches
//! the hook and re-reads it only when the hook epoch moves.

use crate::array::{ArrayBuilder, ArrayDispatch, ChareArray, Mapping};
use crate::envelope::{ArrayId, ChareIndex, Dep, EntryId, EntryOptions, Envelope};
use crate::hook::{ExecutedTask, SchedulerHook};
use crate::queue::{Pop, RunQueue};
use hetmem::{AppendTable, Clock, MonotonicClock, PerThread, TimeNs};
use parking_lot::Mutex;
use projections::{LaneId, SpanKind, TraceCollector, Tracer};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A message-driven object. The paper's chare: state plus entry methods,
/// executed one message at a time on the chare's home PE.
pub trait Chare: Send + 'static {
    /// Message payload type shared by this chare's entry methods.
    type Msg: Send + 'static;

    /// Deliver one message to one entry method.
    fn execute(&mut self, entry: EntryId, msg: Self::Msg, ctx: &mut ExecCtx<'_>);

    /// Declared data dependences for a `[prefetch]` entry method with
    /// this message — the paper's `[readwrite: A, writeonly: B]`
    /// annotation (§IV-A). Non-prefetch entries never consult this.
    fn deps(&self, entry: EntryId, msg: &Self::Msg) -> Vec<Dep> {
        let _ = (entry, msg);
        Vec::new()
    }
}

/// Execution context handed to a chare while it processes a message.
pub struct ExecCtx<'rt> {
    rt: &'rt Arc<Runtime>,
    pe: usize,
    index: ChareIndex,
}

impl<'rt> ExecCtx<'rt> {
    pub(crate) fn new(rt: &'rt Arc<Runtime>, pe: usize, index: ChareIndex) -> Self {
        Self { rt, pe, index }
    }

    /// The PE this message is executing on.
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// The index of the chare processing the message.
    pub fn index(&self) -> ChareIndex {
        self.index
    }

    /// The runtime (for sends, clock, latches...).
    pub fn runtime(&self) -> &Arc<Runtime> {
        self.rt
    }

    /// Send a message to a chare.
    pub fn send<M: Send + 'static>(
        &self,
        array: ArrayId,
        index: ChareIndex,
        entry: EntryId,
        msg: M,
    ) {
        self.rt.send(array, index, entry, msg);
    }
}

/// Builds a [`Runtime`].
pub struct RuntimeBuilder {
    pes: usize,
    clock: Option<Arc<dyn Clock>>,
    collector: Option<Arc<TraceCollector>>,
}

impl RuntimeBuilder {
    /// A runtime with `pes` worker threads.
    pub fn new(pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        Self {
            pes,
            clock: None,
            collector: None,
        }
    }

    /// Use an explicit clock (defaults to the wall clock). Share the
    /// `hetmem::Memory` clock so traces and bandwidth charges agree.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Use an explicit trace collector (defaults to a fresh enabled one).
    pub fn collector(mut self, collector: Arc<TraceCollector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Spawn the PE worker threads and return the runtime.
    pub fn build(self) -> Arc<Runtime> {
        let clock = self
            .clock
            .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let collector = self
            .collector
            .unwrap_or_else(|| Arc::new(TraceCollector::new()));
        let queues: Vec<Arc<RunQueue>> = (0..self.pes).map(|_| Arc::new(RunQueue::new())).collect();
        let rt = Arc::new(Runtime {
            pes: self.pes,
            queues,
            clock,
            collector,
            arrays: AppendTable::new(),
            hook: Mutex::new(None),
            hook_epoch: AtomicU64::new(0),
            counts: PerThread::default(),
            threads: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
        });
        let mut threads = rt.threads.lock();
        for pe in 0..rt.pes {
            let rt2 = Arc::clone(&rt);
            let tracer = rt.collector.tracer(LaneId::worker(pe as u32));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("pe{pe}"))
                    .spawn(move || worker_loop(rt2, pe, tracer))
                    .expect("spawn PE worker"),
            );
        }
        drop(threads);
        rt
    }
}

/// One registered chare array: the scheduler's type-erased view and
/// the typed object behind it (the same allocation).
struct ArrayEntry {
    dispatch: Arc<dyn ArrayDispatch>,
    object: Arc<dyn Any + Send + Sync>,
}

/// One thread's share of the message counters. Every worker bumps them
/// per envelope, so each thread bumps a slot on lines of its own (see
/// [`PerThread`]), away from the other workers' slots and from the
/// fields workers only read (the hook epoch, the queue table).
#[derive(Default)]
struct Counts {
    sent: AtomicU64,
    processed: AtomicU64,
}

/// The message-driven runtime.
pub struct Runtime {
    pes: usize,
    queues: Vec<Arc<RunQueue>>,
    clock: Arc<dyn Clock>,
    collector: Arc<TraceCollector>,
    arrays: AppendTable<ArrayEntry>,
    /// The installed hook. Workers read it through a [`HookCache`], so
    /// this lock is taken only when `hook_epoch` moves.
    hook: Mutex<Option<Arc<dyn SchedulerHook>>>,
    /// Bumped (Release) after every change of `hook` (install,
    /// shutdown); a worker that reads a new epoch (Acquire) re-reads
    /// the slot.
    hook_epoch: AtomicU64,
    counts: PerThread<Counts>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    shutting_down: AtomicBool,
}

/// A worker's copy of the installed hook, refreshed when the runtime's
/// hook epoch moves. The copy dies with the worker thread, so joining
/// the workers and clearing the slot breaks the runtime↔hook cycle.
struct HookCache {
    epoch: u64,
    hook: Option<Arc<dyn SchedulerHook>>,
}

impl HookCache {
    fn new() -> Self {
        Self {
            epoch: 0,
            hook: None,
        }
    }

    fn get(&mut self, rt: &Runtime) -> Option<&Arc<dyn SchedulerHook>> {
        let epoch = rt.hook_epoch.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.hook = rt.installed_hook();
            self.epoch = epoch;
        }
        self.hook.as_ref()
    }
}

impl Runtime {
    /// Number of PEs (worker threads).
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// The runtime's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The trace collector.
    pub fn collector(&self) -> &Arc<TraceCollector> {
        &self.collector
    }

    /// Install the memory-aware scheduler hook, once. Must happen
    /// before any `[prefetch]` message is sent. Panics if a hook is
    /// already installed.
    pub fn set_hook(&self, hook: Arc<dyn SchedulerHook>) {
        let mut slot = self.hook.lock();
        assert!(slot.is_none(), "a scheduler hook is already installed");
        *slot = Some(hook);
        drop(slot);
        self.hook_epoch.fetch_add(1, Ordering::Release);
    }

    /// The installed hook, cloned out of its slot (off the hot path).
    fn installed_hook(&self) -> Option<Arc<dyn SchedulerHook>> {
        self.hook.lock().clone()
    }

    /// Register a chare array (usually via [`ArrayBuilder`]).
    /// `entries[i]` holds the options of `EntryId(i)`; entries past its
    /// end get the default options.
    pub fn register_array<C: Chare>(
        self: &Arc<Self>,
        entries: Vec<EntryOptions>,
        mapping: Mapping,
        count: usize,
        factory: impl FnMut(usize) -> C,
    ) -> ArrayId {
        let id = self.arrays.push_with(|id| {
            let array = Arc::new(ChareArray::<C>::new(
                ArrayId(id as u32),
                count,
                mapping,
                self.pes,
                entries,
                factory,
            ));
            ArrayEntry {
                dispatch: Arc::clone(&array) as Arc<dyn ArrayDispatch>,
                object: array,
            }
        });
        ArrayId(id as u32)
    }

    /// Fluent array registration.
    pub fn array_builder<C: Chare>(self: &Arc<Self>) -> ArrayBuilder<'_, C> {
        ArrayBuilder::new(self)
    }

    /// Typed view of a registered array (setup / result inspection).
    pub fn array<C: Chare>(&self, id: ArrayId) -> Arc<ChareArray<C>> {
        Arc::clone(&self.entry(id).object)
            .downcast::<ChareArray<C>>()
            .expect("array type mismatch")
    }

    fn entry(&self, id: ArrayId) -> &ArrayEntry {
        self.arrays
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unregistered array {id:?}"))
    }

    fn dispatch(&self, id: ArrayId) -> &dyn ArrayDispatch {
        &*self.entry(id).dispatch
    }

    /// Send a message to a chare's entry method. The envelope lands on
    /// the target chare's home-PE run queue.
    pub fn send<M: Send + 'static>(
        &self,
        array: ArrayId,
        index: ChareIndex,
        entry: EntryId,
        msg: M,
    ) {
        let env = Envelope::new(array, index, entry, Box::new(msg));
        let pe = self.dispatch(array).home_pe(index);
        self.counts.local().sent.fetch_add(1, Ordering::Relaxed);
        self.queues[pe].push(env);
    }

    /// Re-inject an (admitted) envelope onto a PE's run queue. This is
    /// how the hook schedules a task whose data is now in HBM.
    pub fn inject(&self, pe: usize, env: Envelope) {
        self.queues[pe].push(env);
    }

    /// The PE with the shortest run queue (the paper's planned
    /// "node-level run queue" routes admitted tasks here).
    pub fn least_loaded_pe(&self) -> usize {
        (0..self.pes)
            .min_by_key(|&pe| self.queues[pe].len())
            .unwrap_or(0)
    }

    /// Home PE of a chare.
    pub fn home_pe(&self, array: ArrayId, index: ChareIndex) -> usize {
        self.dispatch(array).home_pe(index)
    }

    /// Entry options for an entry method.
    pub fn entry_options(&self, array: ArrayId, entry: EntryId) -> EntryOptions {
        self.dispatch(array).entry_options(entry)
    }

    /// Declared dependences of an envelope's target entry method.
    pub fn deps_for(&self, env: &Envelope) -> Vec<Dep> {
        self.dispatch(env.array).deps_of(env)
    }

    /// Messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.counts.sum(|c| c.sent.load(Ordering::Acquire))
    }

    /// Messages fully processed so far: executed and, for admitted
    /// `[prefetch]` messages, post-processed by the hook.
    pub fn processed_count(&self) -> u64 {
        self.counts.sum(|c| c.processed.load(Ordering::Acquire))
    }

    /// Poll until the system is quiescent: all run queues empty, every
    /// sent message processed. Returns false on timeout.
    ///
    /// Each poll is one pass, with no settle sleep. It reads the run
    /// queues, every `processed` slot, then every `sent` slot;
    /// `processed` counts a message only after its hook post-processing
    /// returned. A message's `sent` bump happens before its `processed`
    /// bump (the run queue's lock orders them), which happens before
    /// the read of its `processed` slot (Release bump, Acquire read),
    /// which comes before every `sent` read. So each
    /// message counted in the processed sum is counted in the later
    /// sent sum, whichever slots the two bumps landed in: the sent sum
    /// counts a superset of the messages, and the two sums are equal
    /// only if every message whose send the reads saw was fully
    /// processed. A send that completed before the poll began is seen.
    /// Without senders outside the runtime, only an executing message
    /// can send another, so nothing is left to run; with them, a send
    /// the reads did not see came after the poll's start. A task a hook
    /// holds is a message too: it was counted when sent, and neither
    /// interception nor re-injection counts it processed, so the sums
    /// differ until its post-processing returns.
    ///
    /// Polling backs off exponentially — 20 µs doubling to a 2 ms cap —
    /// so a quiescence reached quickly is detected quickly, while a
    /// long wait (or a timeout on a wedged system) does not spin a
    /// core at a fixed fine interval.
    pub fn wait_quiescence_ms(&self, timeout_ms: u64) -> bool {
        const BACKOFF_START: std::time::Duration = std::time::Duration::from_micros(20);
        const BACKOFF_CAP: std::time::Duration = std::time::Duration::from_millis(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        let mut backoff = BACKOFF_START;
        loop {
            if self.quiet(|| {}) {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            // Never sleep past the deadline.
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }

    /// One poll of [`Runtime::wait_quiescence_ms`]: the run queues and
    /// the `processed` sum, then `between`, then the `sent` sum.
    /// `between` stands for whatever the other threads do between the
    /// two sums; only a test passes anything but a no-op.
    fn quiet(&self, between: impl FnOnce()) -> bool {
        if !self.queues.iter().all(|q| q.is_empty()) {
            return false;
        }
        let processed = self.processed_count();
        between();
        processed == self.sent_count()
    }

    /// Stop the PE threads (drains queued work first) and join them.
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for q in &self.queues {
            q.shutdown();
        }
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
        drop(threads);
        // Break the runtime↔hook reference cycle so both can drop: the
        // workers' cached copies died with them, this is the last one.
        *self.hook.lock() = None;
        self.hook_epoch.fetch_add(1, Ordering::Release);
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Threads hold Arc<Runtime>, so by the time Drop runs they have
        // already exited (shutdown() drops their Arcs). Nothing to do,
        // but keep the hook from leaking cycles.
        *self.hook.get_mut() = None;
    }
}

/// The scheduler loop. Each clock reading serves everything up to the
/// next one: an envelope starts at the reading that ended the one
/// before, so a busy worker reads no clock between envelopes. Only a
/// real wait on an empty queue ends with a reading, and only a real
/// wait is recorded as `Idle`. An executed
/// envelope reads the clock once when it returns, and once more after
/// the hook's post-processing if the hook read none.
fn worker_loop(rt: Arc<Runtime>, pe: usize, tracer: Arc<Tracer>) {
    let queue = &rt.queues[pe];
    let mut hooks = HookCache::new();
    let mut now = rt.clock.now();
    loop {
        let (pop, waited) = match queue.try_pop() {
            Some(pop) => (pop, false),
            None => (queue.pop(), true),
        };
        let Pop::Work(env) = pop else {
            return;
        };
        if waited {
            let wake = rt.clock.now();
            if wake > now {
                tracer.record(SpanKind::Idle, now, wake, pe as u32);
            }
            now = wake;
        }
        now = process(&rt, pe, env, now, &tracer, &mut hooks);
    }
}

/// Deliver one envelope that starts at the reading `start`; returns the
/// reading that ended its processing.
fn process(
    rt: &Arc<Runtime>,
    pe: usize,
    mut env: Envelope,
    start: TimeNs,
    tracer: &Tracer,
    hooks: &mut HookCache,
) -> TimeNs {
    let dispatch = rt.dispatch(env.array);
    let opts = dispatch.entry_options(env.entry);

    // §IV-B interception: unadmitted [prefetch] messages go to the hook.
    if opts.prefetch && !env.admitted {
        if let Some(hook) = hooks.get(rt) {
            let end = hook.on_intercept(pe, env, start);
            return end.unwrap_or_else(|| rt.clock.now());
        }
        // No hook installed: fall through and execute directly (the
        // baseline configurations run this way).
    }

    let kind = if opts.prefetch {
        SpanKind::Compute
    } else {
        SpanKind::Entry
    };
    // Admitted tasks execute between the hook's `on_execute_begin` and
    // `on_complete`, so task-scoped analyses (hetcheck) can attribute
    // block accesses to the running task's token on this worker thread.
    let hook = if env.admitted { hooks.get(rt) } else { None };
    if let Some(hook) = hook {
        hook.on_execute_begin(pe, &env);
    }
    let done = ExecutedTask {
        index: env.index,
        token: env.token,
        pe,
        deps: std::mem::take(&mut env.deps),
    };
    dispatch.execute(env, rt, pe);
    let mut end = rt.clock.now();
    tracer.record(kind, start, end, done.index as u32);
    if let Some(hook) = hook {
        end = hook
            .on_complete(done, end)
            .unwrap_or_else(|| rt.clock.now());
    }
    // Counted only after post-processing: quiescence relies on it.
    rt.counts.local().processed.fetch_add(1, Ordering::Release);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::CompletionLatch;

    const EP_PING: EntryId = EntryId(0);
    const EP_BOUNCE: EntryId = EntryId(1);

    struct Counter {
        hits: u64,
        latch: Arc<CompletionLatch>,
        peers: usize,
        array: Option<ArrayId>,
    }

    impl Chare for Counter {
        type Msg = u64;
        fn execute(&mut self, entry: EntryId, msg: u64, ctx: &mut ExecCtx<'_>) {
            self.hits += msg;
            match entry {
                EP_PING => self.latch.count_down(),
                EP_BOUNCE => {
                    // Forward to the next chare once, then finish.
                    let next = (ctx.index() + 1) % self.peers;
                    if msg > 0 {
                        ctx.send(self.array.unwrap(), next, EP_BOUNCE, msg - 1);
                    }
                    self.latch.count_down();
                }
                other => panic!("unknown entry {other:?}"),
            }
        }
    }

    fn runtime(pes: usize) -> Arc<Runtime> {
        RuntimeBuilder::new(pes).build()
    }

    #[test]
    fn messages_reach_every_chare() {
        let rt = runtime(2);
        let n = 8;
        let latch = Arc::new(CompletionLatch::new(n));
        let l2 = Arc::clone(&latch);
        let array = rt
            .array_builder::<Counter>()
            .entry(EP_PING, EntryOptions::default())
            .build(n, move |_| Counter {
                hits: 0,
                latch: Arc::clone(&l2),
                peers: n,
                array: None,
            });
        for i in 0..n {
            rt.send(array, i, EP_PING, 10u64);
        }
        assert!(latch.wait_timeout_ms(5000), "latch never fired");
        let arr = rt.array::<Counter>(array);
        for i in 0..n {
            assert_eq!(arr.with_chare(i, |c| c.hits), 10);
        }
        rt.shutdown();
    }

    #[test]
    fn chares_can_send_from_entry_methods() {
        let rt = runtime(2);
        let hops = 5u64;
        // 1 initial + `hops` forwarded messages in total execute.
        let latch = Arc::new(CompletionLatch::new(hops as usize + 1));
        let l2 = Arc::clone(&latch);
        let array = rt
            .array_builder::<Counter>()
            .entry(EP_BOUNCE, EntryOptions::default())
            .mapping(Mapping::RoundRobin)
            .build(3, move |_| Counter {
                hits: 0,
                latch: Arc::clone(&l2),
                peers: 3,
                array: None,
            });
        let arr = rt.array::<Counter>(array);
        for i in 0..3 {
            arr.with_chare(i, |c| c.array = Some(array));
        }
        rt.send(array, 0, EP_BOUNCE, hops);
        assert!(latch.wait_timeout_ms(5000));
        assert!(rt.wait_quiescence_ms(2000));
        assert_eq!(rt.sent_count(), hops + 1);
        assert_eq!(rt.processed_count(), hops + 1);
        rt.shutdown();
    }

    #[test]
    fn a_send_and_process_between_the_sums_is_not_quiet() {
        let rt = runtime(1);
        // An older message is sent and still running: not processed.
        let counts = rt.counts.local();
        counts.sent.fetch_add(1, Ordering::Release);
        // A newer one is sent and processed between the two sums. Read
        // in the other order, the sums would both be 1 and the poll
        // would report a quiet system while the older message runs.
        let quiet = rt.quiet(|| {
            counts.sent.fetch_add(1, Ordering::Release);
            counts.processed.fetch_add(1, Ordering::Release);
        });
        assert!(!quiet);
        counts.processed.fetch_add(1, Ordering::Release);
        assert!(rt.wait_quiescence_ms(500));
        rt.shutdown();
    }

    #[test]
    fn quiescence_on_idle_runtime() {
        let rt = runtime(1);
        assert!(rt.wait_quiescence_ms(500));
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let rt = runtime(2);
        rt.shutdown();
        rt.shutdown();
    }

    #[test]
    fn tracer_records_work_spans() {
        let rt = runtime(1);
        let latch = Arc::new(CompletionLatch::new(1));
        let l2 = Arc::clone(&latch);
        let array = rt
            .array_builder::<Counter>()
            .entry(EP_PING, EntryOptions::default())
            .build(1, move |_| Counter {
                hits: 0,
                latch: Arc::clone(&l2),
                peers: 1,
                array: None,
            });
        rt.send(array, 0, EP_PING, 1u64);
        latch.wait();
        rt.shutdown();
        let trace = rt.collector().finish();
        let summary = trace.summarize();
        assert!(summary.total.get(SpanKind::Entry) > 0 || summary.total.total_ns() == 0);
    }

    struct NeedsHook;
    impl Chare for NeedsHook {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {}
    }

    #[test]
    fn prefetch_without_hook_executes_directly() {
        let rt = runtime(1);
        let array = rt
            .array_builder::<NeedsHook>()
            .entry(EP_PING, EntryOptions::prefetch())
            .build(1, |_| NeedsHook);
        rt.send(array, 0, EP_PING, ());
        assert!(rt.wait_quiescence_ms(2000));
        rt.shutdown();
    }

    #[test]
    fn hook_intercepts_prefetch_and_completion_fires() {
        use parking_lot::Mutex as PMutex;

        struct AdmitHook {
            rt: Arc<Runtime>,
            intercepted: PMutex<Vec<ChareIndex>>,
            completed: PMutex<Vec<u64>>,
        }
        impl SchedulerHook for AdmitHook {
            fn on_intercept(&self, pe: usize, mut env: Envelope, _now: TimeNs) -> Option<TimeNs> {
                self.intercepted.lock().push(env.index);
                env.admitted = true;
                env.token = 77;
                self.rt.inject(pe, env);
                None
            }
            fn on_complete(&self, done: ExecutedTask, _now: TimeNs) -> Option<TimeNs> {
                self.completed.lock().push(done.token);
                None
            }
        }

        let rt = runtime(1);
        let array = rt
            .array_builder::<NeedsHook>()
            .entry(EP_PING, EntryOptions::prefetch())
            .build(2, |_| NeedsHook);
        let hook = Arc::new(AdmitHook {
            rt: Arc::clone(&rt),
            intercepted: PMutex::new(vec![]),
            completed: PMutex::new(vec![]),
        });
        rt.set_hook(hook.clone());
        rt.send(array, 0, EP_PING, ());
        rt.send(array, 1, EP_PING, ());
        assert!(rt.wait_quiescence_ms(2000));
        assert_eq!(*hook.intercepted.lock(), vec![0, 1]);
        assert_eq!(*hook.completed.lock(), vec![77, 77]);
        rt.shutdown();
    }

    /// A hook that never admits: it drops every message it intercepts,
    /// so a message it swallowed is sent and never processed.
    struct WedgedHook;
    impl SchedulerHook for WedgedHook {
        fn on_intercept(&self, _pe: usize, _env: Envelope, _now: TimeNs) -> Option<TimeNs> {
            None
        }
        fn on_complete(&self, _done: ExecutedTask, _now: TimeNs) -> Option<TimeNs> {
            None
        }
    }

    #[test]
    fn quiescence_times_out_on_a_message_the_hook_swallowed() {
        let rt = runtime(1);
        rt.set_hook(Arc::new(WedgedHook));
        let array = rt
            .array_builder::<NeedsHook>()
            .entry(EP_PING, EntryOptions::prefetch())
            .build(1, |_| NeedsHook);
        rt.send(array, 0, EP_PING, ());
        let t0 = std::time::Instant::now();
        assert!(!rt.wait_quiescence_ms(150));
        let elapsed = t0.elapsed();
        // Honoured the deadline: no early bail, no unbounded hang, and
        // the capped exponential backoff never oversleeps it by much.
        assert!(
            elapsed >= std::time::Duration::from_millis(150),
            "{elapsed:?}"
        );
        assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
        rt.shutdown();
    }

    #[test]
    fn quiescence_times_out_while_work_is_running() {
        struct Sleeper {
            latch: Arc<CompletionLatch>,
        }
        impl Chare for Sleeper {
            type Msg = ();
            fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
                std::thread::sleep(std::time::Duration::from_millis(300));
                self.latch.count_down();
            }
        }
        let rt = runtime(1);
        let latch = Arc::new(CompletionLatch::new(1));
        let l2 = Arc::clone(&latch);
        let array = rt
            .array_builder::<Sleeper>()
            .entry(EP_PING, EntryOptions::default())
            .build(1, move |_| Sleeper {
                latch: Arc::clone(&l2),
            });
        rt.send(array, 0, EP_PING, ());
        // The entry method is still sleeping: the short wait times out.
        assert!(!rt.wait_quiescence_ms(50));
        assert!(latch.wait_timeout_ms(5000));
        assert!(rt.wait_quiescence_ms(2000));
        rt.shutdown();
    }

    /// xorshift64: the storm test's cheap, seedable randomness.
    fn next_rand(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Burn a random few hundred nanoseconds, sometimes yielding, to
    /// widen the windows between a message's hand-offs.
    fn jitter(rng: &mut u64) {
        let r = next_rand(rng);
        if r.is_multiple_of(8) {
            std::thread::yield_now();
        }
        for _ in 0..r % 256 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn quiescence_never_reports_outstanding_work() {
        use std::sync::mpsc::{channel, Sender};

        const EP_PLAIN: EntryId = EntryId(0);
        const EP_PREFETCH: EntryId = EntryId(1);
        const CHARES: usize = 16;

        /// Work the test knows about: a message counts from before its
        /// send until its execution (plain) or its hook post-processing
        /// (prefetch) has finished.
        struct Storm {
            outstanding: Arc<AtomicU64>,
            array: Option<ArrayId>,
        }

        /// (ttl, rng state)
        type Msg = (u32, u64);

        fn send_children(s: &Storm, ttl: u32, rng: &mut u64, ctx: &ExecCtx<'_>) {
            if ttl == 0 {
                return;
            }
            let array = s.array.expect("array id is set before the first send");
            let children = 1 + next_rand(rng) % 2;
            s.outstanding.fetch_add(children, Ordering::SeqCst);
            for _ in 0..children {
                let r = next_rand(rng);
                let entry = if r.is_multiple_of(2) {
                    EP_PLAIN
                } else {
                    EP_PREFETCH
                };
                ctx.send(array, (r >> 8) as usize % CHARES, entry, (ttl - 1, r));
            }
        }

        impl Chare for Storm {
            type Msg = Msg;
            fn execute(&mut self, entry: EntryId, (ttl, mut rng): Msg, ctx: &mut ExecCtx<'_>) {
                jitter(&mut rng);
                send_children(self, ttl, &mut rng, ctx);
                if entry == EP_PLAIN {
                    self.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        /// Admits from a helper thread after a random delay (an IO
        /// thread's role) and delays in both callbacks.
        struct DelayedAdmit {
            to_admit: parking_lot::Mutex<Sender<(usize, Envelope)>>,
            outstanding: Arc<AtomicU64>,
        }
        impl SchedulerHook for DelayedAdmit {
            fn on_intercept(&self, pe: usize, env: Envelope, _now: TimeNs) -> Option<TimeNs> {
                // The message has left its run queue and is in no other
                // queue yet: the window a single-pass check must cover.
                jitter(&mut (env.index as u64 * 0x9E37_79B9 + 1));
                self.to_admit.lock().send((pe, env)).unwrap();
                None
            }
            fn on_complete(&self, done: ExecutedTask, _now: TimeNs) -> Option<TimeNs> {
                jitter(&mut (done.index as u64 * 0x85EB_CA6B + 1));
                self.outstanding.fetch_sub(1, Ordering::SeqCst);
                None
            }
        }

        let rt = runtime(2);
        let outstanding = Arc::new(AtomicU64::new(0));
        let (tx, rx) = channel::<(usize, Envelope)>();
        let hook = Arc::new(DelayedAdmit {
            to_admit: parking_lot::Mutex::new(tx),
            outstanding: Arc::clone(&outstanding),
        });
        rt.set_hook(hook.clone());
        let admitter = {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut rng = 0x2545_F491_4F6C_DD1D;
                for (pe, mut env) in rx {
                    jitter(&mut rng);
                    env.admitted = true;
                    rt.inject(pe, env);
                }
            })
        };
        let out = Arc::clone(&outstanding);
        let array = rt
            .array_builder::<Storm>()
            .entry(EP_PLAIN, EntryOptions::default())
            .entry(EP_PREFETCH, EntryOptions::prefetch())
            .build(CHARES, move |_| Storm {
                outstanding: Arc::clone(&out),
                array: None,
            });
        let storm = rt.array::<Storm>(array);
        for i in 0..CHARES {
            storm.with_chare(i, |c| c.array = Some(array));
        }

        let mut rng = 0x9E37_79B9_7F4A_7C15;
        for _round in 0..400 {
            let burst = 1 + next_rand(&mut rng) % 6;
            outstanding.fetch_add(burst, Ordering::SeqCst);
            for _ in 0..burst {
                let r = next_rand(&mut rng);
                let entry = if r.is_multiple_of(2) {
                    EP_PLAIN
                } else {
                    EP_PREFETCH
                };
                rt.send(
                    array,
                    r as usize % CHARES,
                    entry,
                    (1 + (r >> 32) as u32 % 4, r),
                );
            }
            // Poll with short timeouts, so many single-pass checks land
            // while the cascade is still running.
            loop {
                let quiet = rt.wait_quiescence_ms(1);
                let left = outstanding.load(Ordering::SeqCst);
                if quiet {
                    assert_eq!(left, 0, "quiescent with {left} message(s) outstanding");
                    break;
                }
            }
        }
        drop(storm);
        rt.shutdown();
        drop(hook);
        admitter.join().unwrap();
    }

    #[test]
    fn quiescence_holds_with_more_outside_senders_than_slots() {
        const SENDERS: usize = hetmem::per_thread::SLOTS + 8;
        const BURSTS: u64 = 60;
        const CHARES: usize = 16;

        /// Counts its executions, after a random delay.
        struct Sink {
            executed: Arc<AtomicU64>,
        }
        impl Chare for Sink {
            type Msg = u64;
            fn execute(&mut self, _entry: EntryId, mut rng: u64, _ctx: &mut ExecCtx<'_>) {
                jitter(&mut rng);
                self.executed.fetch_add(1, Ordering::SeqCst);
            }
        }

        let rt = runtime(2);
        let executed = Arc::new(AtomicU64::new(0));
        let ex = Arc::clone(&executed);
        let array = rt
            .array_builder::<Sink>()
            .entry(EP_PING, EntryOptions::default())
            .build(CHARES, move |_| Sink {
                executed: Arc::clone(&ex),
            });
        // Sends that have returned, and senders that have finished.
        let (sends_done, senders_done) = (AtomicU64::new(0), AtomicU64::new(0));
        let mut quiet_polls = 0u64;
        std::thread::scope(|s| {
            for t in 0..SENDERS as u64 {
                let (rt, sends_done, senders_done) = (&rt, &sends_done, &senders_done);
                s.spawn(move || {
                    let mut rng = 0x2545_F491_4F6C_DD1D ^ (t + 1);
                    for _ in 0..BURSTS {
                        for _ in 0..1 + next_rand(&mut rng) % 4 {
                            let r = next_rand(&mut rng);
                            rt.send(array, r as usize % CHARES, EP_PING, r);
                            sends_done.fetch_add(1, Ordering::SeqCst);
                        }
                        let pause = 200 + next_rand(&mut rng) % 1000;
                        std::thread::sleep(std::time::Duration::from_micros(pause));
                    }
                    senders_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Poll while the senders run, more of them than there are
            // counter slots, so slots are shared and bumped mid-read.
            while senders_done.load(Ordering::SeqCst) < SENDERS as u64 {
                let sent_before = sends_done.load(Ordering::SeqCst);
                if rt.wait_quiescence_ms(1) {
                    quiet_polls += 1;
                    // Every send that returned before the poll began
                    // was fully processed by the time it reported quiet.
                    let (done, processed) = (executed.load(Ordering::SeqCst), rt.processed_count());
                    assert!(done >= sent_before, "quiet with {done}/{sent_before} run");
                    assert!(processed >= sent_before, "quiet with {processed} processed");
                }
            }
        });
        assert!(quiet_polls > 0, "no poll found the runtime quiet");
        assert!(rt.wait_quiescence_ms(10_000));
        let total = sends_done.load(Ordering::SeqCst);
        assert_eq!(rt.sent_count(), total);
        assert_eq!(rt.processed_count(), total);
        assert_eq!(executed.load(Ordering::SeqCst), total);
        assert!(rt.queues.iter().all(|q| q.is_empty()));
        rt.shutdown();
    }

    const EP_HOLD: EntryId = EntryId(2);

    /// Holds its worker in [`EP_HOLD`] until the test has passed the
    /// barrier twice: once to see it running, once to release it.
    struct Holder {
        gate: Arc<std::sync::Barrier>,
    }

    impl Chare for Holder {
        type Msg = ();
        fn execute(&mut self, entry: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            if entry == EP_HOLD {
                self.gate.wait();
                self.gate.wait();
            }
        }
    }

    /// A 1-PE runtime with one `Holder` and the barrier it holds on.
    fn holding_runtime() -> (Arc<Runtime>, ArrayId, Arc<std::sync::Barrier>) {
        let rt = runtime(1);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g2 = Arc::clone(&gate);
        let array = rt
            .array_builder::<Holder>()
            .entry(EP_PING, EntryOptions::default())
            .entry(EP_HOLD, EntryOptions::default())
            .build(1, move |_| Holder {
                gate: Arc::clone(&g2),
            });
        (rt, array, gate)
    }

    /// The worker lane's spans from the hold's on, once the runtime is
    /// quiet: the hold's `Entry` span comes first.
    fn spans_from_hold(rt: &Runtime) -> Vec<projections::Span> {
        assert!(rt.wait_quiescence_ms(5000));
        rt.shutdown();
        let trace = rt.collector().finish();
        let lane = &trace.lanes[0];
        assert_eq!(lane.lane, LaneId::worker(0));
        let first = lane
            .spans
            .iter()
            .position(|s| s.kind == SpanKind::Entry)
            .expect("the hold ran");
        lane.spans[first..].to_vec()
    }

    #[test]
    fn back_to_back_envelopes_record_no_idle_span() {
        const N: usize = 32;
        let (rt, array, gate) = holding_runtime();
        rt.send(array, 0, EP_HOLD, ());
        gate.wait();
        // Queued before the hold returns: the worker never waits.
        for _ in 0..N {
            rt.send(array, 0, EP_PING, ());
        }
        gate.wait();
        let spans = spans_from_hold(&rt);
        assert_eq!(spans.len(), N + 1, "{spans:?}");
        for pair in spans.windows(2) {
            assert_eq!(pair[1].kind, SpanKind::Entry, "{spans:?}");
            assert_eq!(
                pair[1].start_ns, pair[0].end_ns,
                "each envelope starts at the reading that ended the one before"
            );
        }
    }

    #[test]
    fn a_worker_that_waited_records_one_idle_span_ending_at_its_wake() {
        let (rt, array, gate) = holding_runtime();
        rt.send(array, 0, EP_HOLD, ());
        gate.wait();
        gate.wait();
        // Quiescence is reached once the hold is counted; the worker's
        // next step is its look at the empty queue, long before 20 ms.
        assert!(rt.wait_quiescence_ms(5000));
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.send(array, 0, EP_PING, ());
        // The hold, one `Idle` span, then the ping, with the idle span
        // running from the hold's end to the ping's start: the wake
        // reading.
        let spans = spans_from_hold(&rt);
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [SpanKind::Entry, SpanKind::Idle, SpanKind::Entry],
            "{spans:?}"
        );
        let (hold, idle, ping) = (spans[0], spans[1], spans[2]);
        assert_eq!(idle.start_ns, hold.end_ns);
        assert_eq!(idle.end_ns, ping.start_ns);
    }
}
