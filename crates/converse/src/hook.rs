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
//!
//! # Clock readings
//!
//! A clock reading costs tens of nanoseconds, so the scheduler and the
//! hook share theirs. Both callbacks get the scheduler's latest reading
//! as `now`, which the hook can use as the time the callback started.
//! Each returns the hook's own last reading, which the scheduler takes
//! as the callback's end and the next envelope's start, or `None` if the
//! hook read no clock, and the scheduler then reads it once.

use crate::envelope::{ChareIndex, Dep, Envelope};
use hetmem::TimeNs;

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
    /// it via `Runtime::inject` with `admitted = true`. `now` is the
    /// scheduler's latest clock reading; returns the hook's last one, or
    /// `None` if it read none (see the module doc).
    fn on_intercept(&self, pe: usize, env: Envelope, now: TimeNs) -> Option<TimeNs>;

    /// An admitted message is about to execute on `pe`: called on the
    /// worker thread right before the entry method runs — the hook for
    /// task-scoped analysis (hetcheck's sanitizer enters its task scope
    /// here). Default: no-op.
    fn on_execute_begin(&self, _pe: usize, _env: &Envelope) {}

    /// An admitted message finished executing (post-processing). Called
    /// on the same worker thread as [`SchedulerHook::on_execute_begin`],
    /// right after the entry method returns, with the reading that ended
    /// it as `now`. Returns the hook's last reading, or `None` if it
    /// read none (see the module doc).
    fn on_complete(&self, done: ExecutedTask, now: TimeNs) -> Option<TimeNs>;
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
        fn on_intercept(&self, _pe: usize, env: Envelope, _now: TimeNs) -> Option<TimeNs> {
            self.intercepted.lock().push(env.index);
            None
        }
        fn on_complete(&self, done: ExecutedTask, _now: TimeNs) -> Option<TimeNs> {
            self.completed.lock().push(done.token);
            None
        }
    }

    #[test]
    fn hook_trait_is_object_safe() {
        let hook: Arc<dyn SchedulerHook> = Arc::new(PassThrough {
            intercepted: Mutex::new(vec![]),
            completed: Mutex::new(vec![]),
        });
        let env = Envelope::new(ArrayId(0), 3, EntryId(1), Box::new(()));
        assert_eq!(hook.on_intercept(0, env, 5), None);
        let done = ExecutedTask {
            index: 3,
            token: 11,
            pe: 0,
            deps: Vec::new(),
        };
        assert_eq!(hook.on_complete(done, 6), None);
    }
}
