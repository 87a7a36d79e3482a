//! Per-PE FIFO run queues with blocking pop.
//!
//! "Tasks are picked up in FIFO order from the run queue and scheduled"
//! (§IV-B). Each PE owns one [`RunQueue`]; worker loops park on the
//! queue's condvar when it is empty and record the park time as idle.
//! A push notifies only when a parked worker has no wake-up on its way.

use crate::envelope::Envelope;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

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
    pub fn pop(&self) -> Pop {
        let mut s = self.state.lock();
        loop {
            if let Some(env) = s.queue.pop_front() {
                return Pop::Work(env);
            }
            if s.shutdown {
                return Pop::Shutdown;
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
