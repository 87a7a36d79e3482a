//! Per-PE FIFO run queues with blocking and non-blocking pops.
//!
//! "Tasks are picked up in FIFO order from the run queue and scheduled"
//! (§IV-B). Each PE owns one [`RunQueue`], and the PE's worker is its
//! only consumer. A worker that finds its queue empty waits with
//! [`crate::park::spin_then_park`]: it polls a few times, yielding its
//! core between polls, then parks on its own thread; the worker loop
//! records the whole wait as idle. The worker looks first with
//! [`RunQueue::try_pop`], which never waits, and blocks only when that
//! finds nothing, so only a real wait costs it a clock reading. A push
//! unparks the worker after
//! unlocking, which costs one atomic swap and no futex call unless the
//! worker is really parked.

use crate::envelope::Envelope;
use crate::park::spin_then_park;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::thread::Thread;

/// Result of a blocking pop.
pub enum Pop {
    /// A message to deliver.
    Work(Envelope),
    /// The runtime is shutting down.
    Shutdown,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Envelope>,
    shutdown: bool,
}

impl State {
    /// The next envelope, or shutdown once the queue is drained.
    fn take(&mut self) -> Option<Pop> {
        match self.queue.pop_front() {
            Some(env) => Some(Pop::Work(env)),
            None if self.shutdown => Some(Pop::Shutdown),
            None => None,
        }
    }
}

/// A FIFO queue of envelopes with one consumer, which parks on its own
/// thread while the queue is empty.
///
/// No wake-up is lost: the consumer registers its thread in `consumer`
/// before its first look at the queue, and the queue mutex orders every
/// push before or after each look. A push ordered after the look that
/// preceded a park therefore finds the consumer registered, and its
/// unpark either wakes the park or makes it return at once (see
/// [`crate::park`]).
#[derive(Default)]
pub struct RunQueue {
    state: Mutex<State>,
    /// The thread that pops, set by its first [`RunQueue::pop`] or
    /// [`RunQueue::try_pop`].
    consumer: OnceLock<Thread>,
}

impl RunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue at the back and wake the consumer.
    pub fn push(&self, env: Envelope) {
        self.state.lock().queue.push_back(env);
        self.wake();
    }

    /// Blocking pop: waits until work arrives or shutdown is signalled.
    /// Drains remaining work before reporting shutdown.
    ///
    /// A queue has one consumer: every pop must come from the thread
    /// that made the first one (checked in debug builds).
    pub fn pop(&self) -> Pop {
        self.register_consumer();
        spin_then_park(|| self.state.lock().take())
    }

    /// Non-blocking pop: what [`RunQueue::pop`] would return at once,
    /// or `None` if it would wait. The same one-consumer rule holds.
    pub fn try_pop(&self) -> Option<Pop> {
        // Registered before the look, as in `pop`: a push that finds the
        // queue empty after this look must find the consumer to wake.
        self.register_consumer();
        self.state.lock().take()
    }

    /// Register the calling thread as the consumer on its first pop.
    fn register_consumer(&self) {
        let consumer = self.consumer.get_or_init(std::thread::current);
        debug_assert_eq!(
            consumer.id(),
            std::thread::current().id(),
            "a RunQueue has one consumer"
        );
    }

    /// Signal shutdown and wake the consumer.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.wake();
    }

    /// Unpark the consumer, if it has popped yet (called unlocked).
    pub(crate) fn wake(&self) {
        if let Some(consumer) = self.consumer.get() {
            consumer.unpark();
        }
    }

    /// Number of queued envelopes.
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// True if no envelopes are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{ArrayId, EntryId};
    use std::sync::Arc;
    use std::time::Duration;

    fn env(tag: usize) -> Envelope {
        Envelope::new(ArrayId(0), tag, EntryId(0), Box::new(()))
    }

    #[test]
    fn fifo_order() {
        let q = RunQueue::new();
        q.push(env(1));
        q.push(env(2));
        q.push(env(3));
        let order: Vec<usize> = (0..3)
            .map(|_| match q.pop() {
                Pop::Work(e) => e.index,
                Pop::Shutdown => panic!("unexpected shutdown"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn shutdown_drains_then_reports() {
        let q = RunQueue::new();
        q.push(env(5));
        q.shutdown();
        assert!(matches!(q.pop(), Pop::Work(_)));
        assert!(matches!(q.pop(), Pop::Shutdown));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(RunQueue::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || {
            let got = match q2.pop() {
                Pop::Work(e) => e.index,
                Pop::Shutdown => usize::MAX,
            };
            tx.send(got).unwrap();
        });
        // Long enough for the popper to finish its spin and park.
        std::thread::sleep(Duration::from_millis(10));
        q.push(env(7));
        let got = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a parked popper was never woken");
        assert_eq!(got, 7);
    }

    #[test]
    fn try_pop_takes_work_without_waiting() {
        let q = RunQueue::new();
        assert!(q.try_pop().is_none());
        q.push(env(4));
        assert!(matches!(q.try_pop(), Some(Pop::Work(e)) if e.index == 4));
        assert!(q.try_pop().is_none());
        q.shutdown();
        assert!(matches!(q.try_pop(), Some(Pop::Shutdown)));
    }

    #[test]
    fn len_tracks_contents() {
        let q = RunQueue::new();
        assert!(q.is_empty());
        q.push(env(0));
        assert_eq!(q.len(), 1);
        assert!(matches!(q.pop(), Pop::Work(_)));
        assert!(q.is_empty());
    }

    #[test]
    fn no_wakeup_is_lost_across_many_handoffs() {
        // Ping-pong between two queues: each hand-off lands on a popper
        // that has usually just parked, so a push that skipped a needed
        // notify would wedge the exchange.
        const N: usize = 100_000;
        let (ping, pong) = (Arc::new(RunQueue::new()), Arc::new(RunQueue::new()));
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                while let Pop::Work(e) = ping.pop() {
                    pong.push(e);
                }
            })
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            for i in 0..N {
                ping.push(env(i));
                match pong.pop() {
                    Pop::Work(e) => assert_eq!(e.index, i),
                    Pop::Shutdown => panic!("unexpected shutdown"),
                }
            }
            ping.shutdown();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("hand-offs wedged: a wake-up was lost");
        driver.join().unwrap();
        echo.join().unwrap();
    }
}
