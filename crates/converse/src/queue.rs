//! Per-PE FIFO run queues with blocking pop.
//!
//! "Tasks are picked up in FIFO order from the run queue and scheduled"
//! (§IV-B). Each PE owns one [`RunQueue`]; a worker that finds its
//! queue empty polls it a few times, yielding its core between polls,
//! then parks on the queue's condvar; the worker loop records the whole
//! wait as idle. A push notifies only when a parked worker has no
//! wake-up on its way, so a push that lands while the worker is still
//! polling costs no futex wake.

use crate::envelope::Envelope;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// How many times [`RunQueue::pop`] polls an empty queue, yielding
/// between polls, before it parks. A hand-off from another thread
/// usually lands within a few yields; the gain measured flat from 16 to
/// 256 polls.
const SPIN_POLLS: usize = 64;

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
    /// Poppers parked on the condvar.
    sleepers: usize,
    /// Notifies sent to parked poppers that have not yet woken (at most
    /// `sleepers`), so each parked popper is woken once.
    wakes: usize,
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

/// A FIFO queue of envelopes with condvar parking.
#[derive(Default)]
pub struct RunQueue {
    state: Mutex<State>,
    cv: Condvar,
}

impl RunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue at the back, waking a parked popper with no wake pending.
    pub fn push(&self, env: Envelope) {
        let mut s = self.state.lock();
        s.queue.push_back(env);
        let wake = s.sleepers > s.wakes;
        s.wakes += usize::from(wake);
        drop(s);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Blocking pop: waits until work arrives or shutdown is signalled.
    /// Drains remaining work before reporting shutdown.
    ///
    /// An empty queue is polled `SPIN_POLLS` (64) times, with the lock
    /// released and the core yielded between polls, before the popper
    /// parks. Yielding rather than busy-spinning leaves the core to the
    /// thread that is about to push.
    pub fn pop(&self) -> Pop {
        self.pop_polling(std::thread::yield_now)
    }

    /// [`RunQueue::pop`], calling `between_polls` (unlocked) after each
    /// empty poll before parking.
    fn pop_polling(&self, mut between_polls: impl FnMut()) -> Pop {
        for _ in 0..SPIN_POLLS {
            if let Some(pop) = self.state.lock().take() {
                return pop;
            }
            between_polls();
        }
        let mut s = self.state.lock();
        loop {
            if let Some(pop) = s.take() {
                return pop;
            }
            s.sleepers += 1;
            self.cv.wait(&mut s);
            s.sleepers -= 1;
            // Any wake-up (notify, shutdown or spurious) settles one
            // pending wake, keeping `wakes <= sleepers`.
            s.wakes = s.wakes.saturating_sub(1);
        }
    }

    /// Signal shutdown; wakes all waiters.
    pub fn shutdown(&self) {
        let mut s = self.state.lock();
        s.shutdown = true;
        drop(s);
        self.cv.notify_all();
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
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || match q2.pop() {
            Pop::Work(e) => e.index,
            Pop::Shutdown => usize::MAX,
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(env(7));
        assert_eq!(h.join().unwrap(), 7);
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
    fn a_burst_of_pushes_wakes_every_sleeper() {
        // Several poppers park on one queue; a burst of pushes must wake
        // each of them, although every push after the first lands while
        // earlier wake-ups are still pending.
        const POPPERS: usize = 3;
        for _ in 0..200 {
            let q = Arc::new(RunQueue::new());
            let (tx, rx) = std::sync::mpsc::channel();
            let poppers: Vec<_> = (0..POPPERS)
                .map(|_| {
                    let (q, tx) = (Arc::clone(&q), tx.clone());
                    std::thread::spawn(move || {
                        if let Pop::Work(e) = q.pop() {
                            tx.send(e.index).unwrap();
                        }
                    })
                })
                .collect();
            while q.state.lock().sleepers < POPPERS {
                std::thread::yield_now();
            }
            for i in 0..POPPERS {
                q.push(env(i));
            }
            let mut got: Vec<usize> = (0..POPPERS)
                .map(|_| {
                    rx.recv_timeout(std::time::Duration::from_secs(30))
                        .expect("a parked popper was never woken")
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, (0..POPPERS).collect::<Vec<_>>());
            for p in poppers {
                p.join().unwrap();
            }
            let s = q.state.lock();
            assert_eq!((s.sleepers, s.wakes), (0, 0));
        }
    }

    /// Starts `pop_polling` on a thread and returns once the popper has
    /// found the queue empty: it waits inside its first between-poll
    /// call until the returned sender sends. The thread returns the pop
    /// and how many times it found the queue empty.
    fn popper_paused_after_first_poll(
        q: &Arc<RunQueue>,
    ) -> (
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<(Pop, usize)>,
    ) {
        let (polled_tx, polled_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let q = Arc::clone(q);
        let popper = std::thread::spawn(move || {
            let mut polls = 0;
            let pop = q.pop_polling(|| {
                polls += 1;
                if polls == 1 {
                    polled_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                }
            });
            (pop, polls)
        });
        polled_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the popper never polled its empty queue");
        (resume_tx, popper)
    }

    #[test]
    fn a_push_during_the_spin_is_taken_without_a_notify() {
        let q = Arc::new(RunQueue::new());
        let (resume, popper) = popper_paused_after_first_poll(&q);
        q.push(env(9));
        {
            // The popper is between polls: not parked, so no notify.
            let s = q.state.lock();
            assert_eq!((s.sleepers, s.wakes), (0, 0), "the push notified");
        }
        resume.send(()).unwrap();
        let (pop, polls) = popper.join().unwrap();
        assert!(matches!(pop, Pop::Work(e) if e.index == 9));
        assert_eq!(polls, 1, "the push is taken at the next poll");
        let s = q.state.lock();
        assert_eq!((s.sleepers, s.wakes), (0, 0));
    }

    #[test]
    fn a_spinning_popper_sees_shutdown_at_its_next_poll() {
        let q = Arc::new(RunQueue::new());
        let (resume, popper) = popper_paused_after_first_poll(&q);
        q.shutdown();
        resume.send(()).unwrap();
        let (pop, polls) = popper.join().unwrap();
        assert!(matches!(pop, Pop::Shutdown));
        assert_eq!(polls, 1, "shutdown is seen at the next poll");
        assert_eq!(q.state.lock().sleepers, 0);
    }

    #[test]
    fn an_idle_popper_parks_after_its_spin() {
        let q = Arc::new(RunQueue::new());
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut polls = 0;
                let pop = q.pop_polling(|| polls += 1);
                (pop, polls)
            })
        };
        while q.state.lock().sleepers == 0 {
            std::thread::yield_now();
        }
        q.push(env(4));
        let (pop, polls) = popper.join().unwrap();
        assert!(matches!(pop, Pop::Work(e) if e.index == 4));
        assert_eq!(polls, SPIN_POLLS, "the spin is bounded");
        let s = q.state.lock();
        assert_eq!((s.sleepers, s.wakes), (0, 0));
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
