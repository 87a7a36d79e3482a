//! OOC tasks: intercepted entry-method invocations bundled with their
//! data dependences.
//!
//! §IV-B: *"the object along with its input dependences, i.e the input
//! data that were annotated as specified in IV-A and input message are
//! encapsulated as an OOCTask."*
//!
//! The [`TaskRegistry`] maps the token stamped into an admitted
//! envelope back to the task's dependence list, so the post-processing
//! step (eviction) knows what the finished task was holding.

use converse::{Dep, Envelope};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An intercepted `[prefetch]` invocation waiting for its data.
pub struct OocTask {
    /// The original message (re-injected on admission).
    pub env: Envelope,
    /// Declared dependences of the entry method for this message.
    pub deps: Vec<Dep>,
    /// Home PE of the target chare.
    pub pe: usize,
    /// Clock time at interception (measures wait-queue delay).
    pub enqueued_at: u64,
}

impl std::fmt::Debug for OocTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocTask")
            .field("env", &self.env)
            .field("deps", &self.deps.len())
            .field("pe", &self.pe)
            .finish()
    }
}

/// Records of admitted tasks, keyed by envelope token.
#[derive(Default)]
pub struct TaskRegistry {
    next_token: AtomicU64,
    records: Mutex<HashMap<u64, Vec<Dep>>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a task's dependences and return the token to stamp into
    /// its envelope. Tokens start at 1 (0 means "never admitted") and
    /// wrap around 0 rather than overflowing; a wrapped token that is
    /// somehow still in flight after 2^64 admissions is a hard error.
    pub fn admit(&self, deps: Vec<Dep>) -> u64 {
        let mut token = self
            .next_token
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        if token == 0 {
            // Wrapped: skip the "never admitted" sentinel.
            token = self
                .next_token
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_add(1);
        }
        let prev = self.records.lock().insert(token, deps);
        assert!(
            prev.is_none(),
            "token {token} wrapped around while still in flight"
        );
        token
    }

    /// Remove and return the dependences for a completed task.
    pub fn complete(&self, token: u64) -> Option<Vec<Dep>> {
        self.records.lock().remove(&token)
    }

    /// The dependences of an in-flight task, if `token` is current.
    pub fn deps_of(&self, token: u64) -> Option<Vec<Dep>> {
        self.records.lock().get(&token).cloned()
    }

    /// Number of admitted-but-not-completed tasks.
    pub fn in_flight(&self) -> usize {
        self.records.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::{AccessMode, BlockId};

    fn dep(b: u32) -> Dep {
        Dep {
            block: BlockId(b),
            mode: AccessMode::ReadWrite,
        }
    }

    #[test]
    fn admit_complete_round_trip() {
        let reg = TaskRegistry::new();
        let t1 = reg.admit(vec![dep(1), dep(2)]);
        let t2 = reg.admit(vec![dep(3)]);
        assert_ne!(t1, 0, "tokens must be nonzero");
        assert_ne!(t1, t2);
        assert_eq!(reg.in_flight(), 2);
        let deps = reg.complete(t1).unwrap();
        assert_eq!(deps.len(), 2);
        assert_eq!(reg.in_flight(), 1);
        assert!(reg.complete(t1).is_none(), "double completion is caught");
    }

    #[test]
    fn stale_token_complete_is_inert() {
        let reg = TaskRegistry::new();
        let t1 = reg.admit(vec![dep(1)]);
        assert!(reg.complete(t1).is_some());
        // A worker replaying the same completion (e.g. after a
        // supervised IO-thread restart) must find nothing and must not
        // disturb other in-flight tasks.
        let t2 = reg.admit(vec![dep(2)]);
        assert!(reg.complete(t1).is_none());
        assert!(reg.complete(0).is_none(), "the never-admitted sentinel");
        assert_eq!(reg.in_flight(), 1);
        assert!(reg.deps_of(t2).is_some());
    }

    #[test]
    fn token_wraparound_skips_the_sentinel() {
        let reg = TaskRegistry::new();
        reg.next_token.store(u64::MAX - 1, Ordering::Relaxed);
        let a = reg.admit(vec![dep(1)]); // u64::MAX
        let b = reg.admit(vec![dep(2)]); // wraps: 0 is skipped
        let c = reg.admit(vec![dep(3)]);
        assert_eq!(a, u64::MAX);
        assert_ne!(b, 0, "token 0 means 'never admitted' and must be skipped");
        assert_eq!(b, 1);
        assert_eq!(c, 2);
        assert_eq!(reg.in_flight(), 3);
        assert_eq!(reg.complete(a).unwrap().len(), 1);
        assert_eq!(reg.complete(b).unwrap().len(), 1);
        assert_eq!(reg.complete(c).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "wrapped around while still in flight")]
    fn token_collision_after_wraparound_is_fatal() {
        let reg = TaskRegistry::new();
        let t = reg.admit(vec![dep(1)]);
        assert_eq!(t, 1);
        // Simulate 2^64 admissions with token 1 still outstanding.
        reg.next_token.store(u64::MAX, Ordering::Relaxed);
        reg.admit(vec![dep(2)]); // would mint token 1 again
    }

    #[test]
    fn in_flight_is_consistent_under_concurrent_admit_complete() {
        use std::sync::Arc;
        let reg = Arc::new(TaskRegistry::new());
        let threads = 4u32;
        let per_thread = 250u32;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..per_thread {
                        let tok = reg.admit(vec![dep(t * per_thread + i)]);
                        held.push(tok);
                        // Complete every other task immediately; the
                        // rest stay in flight until the end.
                        if i % 2 == 0 {
                            let deps = reg.complete(tok).expect("own fresh token");
                            assert_eq!(deps.len(), 1);
                            held.pop();
                        }
                    }
                    held
                })
            })
            .collect();
        let mut outstanding = Vec::new();
        for h in handles {
            outstanding.extend(h.join().unwrap());
        }
        // All tokens unique across threads.
        let unique: std::collections::HashSet<u64> = outstanding.iter().copied().collect();
        assert_eq!(unique.len(), outstanding.len());
        assert_eq!(reg.in_flight(), outstanding.len());
        for tok in outstanding {
            assert!(reg.complete(tok).is_some());
        }
        assert_eq!(reg.in_flight(), 0);
    }
}
