//! The scheduler interception point.
//!
//! §IV-B: *"Before a chare's entry method is about to be executed by
//! delivery of its input message, we intercept the call and check
//! whether the entry method needs prefetching of data. If so, instead of
//! delivering the message we queue the message and the corresponding
//! object in a queue."*
//!
//! `hetrt-core` installs a [`SchedulerHook`] on the runtime. For every
//! unadmitted `[prefetch]` envelope, the PE scheduler calls
//! [`SchedulerHook::on_intercept`], transferring ownership of the
//! message (the hook's pre-processing step). The hook re-injects the
//! envelope — marked admitted, carrying its dependences — once its data
//! dependences are in HBM. After an admitted envelope executes, the
//! scheduler calls [`SchedulerHook::on_complete`] (the post-processing
//! step, where eviction happens).

use crate::envelope::{ChareIndex, Dep, Envelope};

/// Identity of an executed, previously intercepted task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedTask {
    /// Index of the chare that ran.
    pub index: ChareIndex,
    /// Token stamped by the hook at admission.
    pub token: u64,
    /// PE the task ran on.
    pub pe: usize,
    /// The dependences the envelope carried (see [`Envelope::deps`]).
    pub deps: Vec<Dep>,
}

/// Interception callbacks for `[prefetch]` entry methods.
pub trait SchedulerHook: Send + Sync {
    /// Take ownership of an unadmitted `[prefetch]` message before
    /// execution (pre-processing). The hook must eventually re-inject
    /// it via `Runtime::inject` with `admitted = true`.
    fn on_intercept(&self, pe: usize, env: Envelope);

    /// An admitted message is about to execute on `pe`: called on the
    /// worker thread right before the entry method runs — the hook for
    /// task-scoped analysis (hetcheck's sanitizer enters its task scope
    /// here). Default: no-op.
    fn on_execute_begin(&self, _pe: usize, _env: &Envelope) {}

    /// An admitted message finished executing (post-processing). Called
    /// on the same worker thread as [`SchedulerHook::on_execute_begin`],
    /// right after the entry method returns.
    fn on_complete(&self, done: ExecutedTask);

    /// Number of intercepted-but-not-yet-completed tasks; the runtime's
    /// quiescence detection treats these as outstanding work.
    fn pending(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{ArrayId, EntryId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A hook that admits immediately (used by runtime tests too).
    pub struct PassThrough {
        pub intercepted: Mutex<Vec<usize>>,
        pub completed: Mutex<Vec<u64>>,
    }

    impl SchedulerHook for PassThrough {
        fn on_intercept(&self, _pe: usize, env: Envelope) {
            self.intercepted.lock().push(env.index);
        }
        fn on_complete(&self, done: ExecutedTask) {
            self.completed.lock().push(done.token);
        }
        fn pending(&self) -> usize {
            0
        }
    }

    #[test]
    fn hook_trait_is_object_safe() {
        let hook: Arc<dyn SchedulerHook> = Arc::new(PassThrough {
            intercepted: Mutex::new(vec![]),
            completed: Mutex::new(vec![]),
        });
        hook.on_intercept(0, Envelope::new(ArrayId(0), 3, EntryId(1), Box::new(())));
        hook.on_complete(ExecutedTask {
            index: 3,
            token: 11,
            pe: 0,
            deps: Vec::new(),
        });
        assert_eq!(hook.pending(), 0);
    }
}
