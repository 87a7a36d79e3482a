//! hetcheck: dynamic and offline analysis for the heterogeneous-memory
//! runtime.
//!
//! Two passes over one instrumentation spine:
//!
//! 1. **Dependence-conformance sanitizer** ([`sanitizer`], live) —
//!    checks every block access made inside an admitted task against
//!    the task's declared `Dep` list: undeclared accesses, writes
//!    through `ReadOnly` deps, and reads of `WriteOnly` deps become
//!    [`Violation`]s.
//! 2. **Schedule linter** ([`lint`](mod@lint), offline) — replays a
//!    recorded [`Trace`] and checks global invariants: no fetch of a
//!    resident block, refcounts never negative, eviction only at
//!    refcount zero, HBM occupancy within capacity, every admitted task
//!    completed.
//!
//! Block-level races need no pass of their own: the
//! [`hetmem::BlockRegistry`] itself panics on conflicting guards, makes
//! an access wait out a move and makes a move wait until every guard
//! has dropped, in every build.
//!
//! The [`Checker`] is the spine: it implements
//! [`hetmem::BlockObserver`] and receives each of the registry's
//! [`hetmem::BlockEvent`]s. `Access` events feed the live pass; when
//! recording, every other block event is stored unchanged as
//! [`ScheduleEvent::Block`], beside the scheduler hook's `Admit` and
//! `Complete` and the restore's `Restart`, for the offline one. Install
//! it with [`Checker::install`]; `hetrt-core` does this automatically
//! when a checker is attached to an `OocRuntime` (always, under the
//! `sanitizer` cargo feature).

#![warn(missing_docs)]

pub mod global;
pub mod lint;
pub mod sanitizer;
pub mod schedule;
mod violation;

pub use lint::{lint, LintFinding, LintReport};
pub use schedule::{ScheduleEvent, TimedEvent, Trace, TraceMeta};
pub use violation::{Violation, ViolationAction};

use converse::Dep;
use hetmem::{BlockEvent, BlockId, BlockObserver, BlockRegistry, Clock};
use parking_lot::Mutex;
use std::sync::Arc;

/// An in-memory schedule recording: the trace header, the clock that
/// stamps events, and the append-only event log.
struct Recording {
    meta: TraceMeta,
    clock: Arc<dyn Clock>,
    events: Mutex<Vec<TimedEvent>>,
}

/// The live checker: sanitizer plus an optional schedule recorder,
/// attached to a [`BlockRegistry`] as its observer.
pub struct Checker {
    action: ViolationAction,
    violations: Mutex<Vec<Violation>>,
    recording: Option<Recording>,
}

impl Checker {
    /// A checker with no schedule recording.
    pub fn new(action: ViolationAction) -> Self {
        Checker {
            action,
            violations: Mutex::new(Vec::new()),
            recording: None,
        }
    }

    /// A checker that also records the schedule (for the offline
    /// linter), stamping events with `clock`.
    pub fn with_schedule_log(
        action: ViolationAction,
        meta: TraceMeta,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Checker {
            recording: Some(Recording {
                meta,
                clock,
                events: Mutex::new(Vec::new()),
            }),
            ..Checker::new(action)
        }
    }

    /// Attach this checker to `registry` as its block observer. Blocks
    /// registered *before* attachment are snapshotted into the schedule
    /// log so the offline linter sees them.
    pub fn install(self: &Arc<Self>, registry: &BlockRegistry) {
        if self.recording.is_some() {
            let mut i = 0u32;
            while registry.contains(BlockId(i)) {
                let info = registry.info(BlockId(i));
                // Mid-move at attachment is possible only if an IO thread
                // is already running; record the destination-agnostic
                // current node when settled, else skip (the completion
                // event will place it).
                if let Some(node) = info.node {
                    self.record(ScheduleEvent::Block(BlockEvent::Register {
                        block: info.id,
                        bytes: info.size,
                        node,
                    }));
                }
                i += 1;
            }
        }
        registry.set_observer(Arc::clone(self) as Arc<dyn BlockObserver>);
    }

    /// Enter the scope of admitted task `token` on the current thread
    /// (the scheduler hook calls this right before the entry method).
    pub fn enter_task(&self, token: u64, deps: Vec<Dep>) {
        sanitizer::enter(token, deps);
    }

    /// Leave the scope of task `token` on the current thread.
    pub fn exit_task(&self, token: u64) {
        sanitizer::exit(token);
    }

    /// Record an admission (for the schedule log).
    pub fn task_admitted(&self, token: u64, blocks: Vec<BlockId>, degraded: bool) {
        self.record(ScheduleEvent::Admit {
            token,
            blocks,
            degraded,
        });
    }

    /// Record a completion (for the schedule log).
    pub fn task_completed(&self, token: u64) {
        self.record(ScheduleEvent::Complete { token });
    }

    /// Record a restart boundary (for the schedule log): a fresh
    /// runtime is about to restore a checkpoint image, so block ids
    /// and admission tokens restart from scratch. Call *before* the
    /// restore re-registers its blocks, so the linter resets its
    /// replay state ahead of the new `Register` events.
    pub fn record_restart(&self) {
        self.record(ScheduleEvent::Restart);
    }

    /// Violations recorded so far (empty under
    /// [`ViolationAction::Panic`] unless the panic was caught).
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().clone()
    }

    /// Number of violations recorded so far.
    pub fn violation_count(&self) -> u64 {
        self.violations.lock().len() as u64
    }

    /// Snapshot the recorded schedule, if recording was enabled.
    pub fn trace(&self) -> Option<Trace> {
        self.recording.as_ref().map(|r| Trace {
            meta: r.meta.clone(),
            events: r.events.lock().clone(),
        })
    }

    /// Append `event` to the schedule log, if recording.
    fn record(&self, event: ScheduleEvent) {
        if let Some(rec) = &self.recording {
            let at_ns = rec.clock.now();
            rec.events.lock().push(TimedEvent { at_ns, event });
        }
    }

    fn report(&self, violation: Violation) {
        self.violations.lock().push(violation.clone());
        if self.action == ViolationAction::Panic {
            panic!("hetcheck violation: {violation}");
        }
    }
}

impl std::fmt::Debug for Checker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checker")
            .field("action", &self.action)
            .field("violations", &self.violation_count())
            .field("recording", &self.recording.is_some())
            .finish()
    }
}

impl BlockObserver for Checker {
    fn on_event(&self, event: BlockEvent) {
        match event {
            BlockEvent::Access { block, mode } => {
                if let Some(v) = sanitizer::check_access(block, mode) {
                    self.report(v);
                }
            }
            _ => self.record(ScheduleEvent::Block(event)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::{AccessMode, NodeAllocator, DDR4, HBM};

    fn registry_with_block(bytes: usize) -> (Arc<BlockRegistry>, BlockId, NodeAllocator) {
        let alloc = NodeAllocator::new(1 << 24);
        let reg = Arc::new(BlockRegistry::new());
        let buf = alloc.alloc(bytes, DDR4).expect("alloc");
        let id = reg.register(buf, "t");
        (reg, id, alloc)
    }

    #[test]
    fn count_action_records_and_keeps_running() {
        let (reg, id, _alloc) = registry_with_block(64);
        let checker = Arc::new(Checker::new(ViolationAction::Count));
        checker.install(&reg);

        checker.enter_task(7, vec![]); // empty dep list: everything is undeclared
        let g = reg.access(id, AccessMode::ReadOnly);
        drop(g);
        checker.exit_task(7);

        assert_eq!(checker.violation_count(), 1);
        let v = checker.violations();
        assert!(matches!(v[0], Violation::UndeclaredAccess { token: 7, .. }));
    }

    #[test]
    fn panic_action_panics_with_rendered_violation() {
        let (reg, id, _alloc) = registry_with_block(64);
        let checker = Arc::new(Checker::new(ViolationAction::Panic));
        checker.install(&reg);

        checker.enter_task(3, vec![dep(id, AccessMode::ReadOnly)]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = reg.access(id, AccessMode::ReadWrite);
        }))
        .expect_err("mode escalation must panic");
        checker.exit_task(3);

        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("hetcheck violation"), "{msg}");
        assert!(msg.contains("task 3"), "{msg}");
        // The guard was dropped during unwind: the registry is usable.
        let _g = reg.access(id, AccessMode::ReadOnly);
    }

    #[test]
    fn conformant_run_is_silent() {
        let (reg, id, _alloc) = registry_with_block(64);
        let checker = Arc::new(Checker::new(ViolationAction::Panic));
        checker.install(&reg);

        checker.enter_task(1, vec![dep(id, AccessMode::ReadWrite)]);
        {
            let _g = reg.access(id, AccessMode::ReadOnly);
        }
        {
            let _g = reg.access(id, AccessMode::ReadWrite);
        }
        checker.exit_task(1);
        // Out-of-scope accesses (setup/teardown) are always allowed.
        let _g = reg.access(id, AccessMode::ReadWrite);
        assert_eq!(checker.violation_count(), 0);
    }

    #[test]
    fn recording_produces_a_lintable_trace() {
        let clock: Arc<dyn Clock> = Arc::new(hetmem::MonotonicClock::new());
        let alloc = NodeAllocator::new(1 << 24);
        let reg = Arc::new(BlockRegistry::new());
        // One block registered before install: must still appear.
        let pre = reg.register(alloc.alloc(32, DDR4).expect("alloc"), "pre");
        let checker = Arc::new(Checker::with_schedule_log(
            ViolationAction::Count,
            TraceMeta {
                hbm_capacity: 1 << 20,
            },
            clock,
        ));
        checker.install(&reg);
        let post = reg.register(alloc.alloc(64, DDR4).expect("alloc"), "post");

        // Pin, fetch, admit, complete, unpin, evict — the full protocol.
        reg.add_ref(post);
        let (src, _from) = reg.begin_move(post, HBM, false).expect("begin fetch");
        let mut dst = alloc.alloc(64, HBM).expect("alloc hbm");
        dst.as_mut_slice().copy_from_slice(src.as_slice());
        drop(src);
        reg.complete_move(post, dst);
        checker.task_admitted(1, vec![post], false);
        checker.task_completed(1);
        reg.release_ref(post);
        let (src, _from) = reg.begin_move(post, DDR4, true).expect("begin evict");
        let mut back = alloc.alloc(64, DDR4).expect("alloc ddr");
        back.as_mut_slice().copy_from_slice(src.as_slice());
        drop(src);
        reg.complete_move(post, back);

        let trace = checker.trace().expect("recording enabled");
        assert!(trace.events.iter().any(|e| matches!(
            e.event,
            ScheduleEvent::Block(BlockEvent::Register { block, .. }) if block == pre
        )));
        assert!(
            trace.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "events are recorded in clock order"
        );
        let report = lint(&trace);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.tasks, 1);
        assert_eq!(checker.violation_count(), 0);

        let back = Trace::from_jsonl(&trace.to_jsonl()).expect("round trip");
        assert!(lint(&back).is_clean());
    }

    fn dep(block: BlockId, mode: AccessMode) -> Dep {
        Dep { block, mode }
    }
}
