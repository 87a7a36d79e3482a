//! Wait queues: tasks whose data is not yet in HBM.
//!
//! "We use two queues types: wait queues and run queues. ... The wait
//! queue contains tasks that need data to be prefetched and the run
//! queue contains tasks that are ready to be scheduled by the Converse
//! scheduler." (§IV-B). The run queues live in `converse`; this module
//! is the wait side, in both the paper's per-PE layout and the
//! single-shared-queue layout it argues against (kept as ablation A1).

use crate::config::WaitQueueTopology;
use crate::task::OocTask;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// How many times [`WaitQueues::wait_signal_timeout`] re-reads the
/// signal generation, yielding between reads, before it parks. As for
/// converse's run queues, the gain measured flat from 16 to 256 polls.
const SPIN_POLLS: usize = 64;

/// A signal group's state: the generation counter bumped by every
/// signal, how many IO threads are parked waiting for it to move, and
/// how many of those have a wake-up on its way (at most `sleepers`).
#[derive(Default)]
struct Signal {
    generation: u64,
    sleepers: usize,
    wakes: usize,
}

/// A set of FIFO wait queues plus the condition variable IO threads
/// sleep on.
pub struct WaitQueues {
    topology: WaitQueueTopology,
    queues: Vec<Mutex<VecDeque<OocTask>>>,
    /// One condvar per IO-thread signal group; signalled on enqueue and
    /// on eviction (both can unblock an IO thread). A signal always
    /// bumps the generation but wakes each parked thread once.
    signals: Vec<(Mutex<Signal>, Condvar)>,
    shutdown: std::sync::atomic::AtomicBool,
}

impl WaitQueues {
    /// Build queues for `pes` PEs and `signal_groups` IO threads.
    pub fn new(topology: WaitQueueTopology, pes: usize, signal_groups: usize) -> Self {
        let nqueues = match topology {
            WaitQueueTopology::PerPe => pes,
            WaitQueueTopology::SharedSingle => 1,
        };
        Self {
            topology,
            queues: (0..nqueues).map(|_| Mutex::new(VecDeque::new())).collect(),
            signals: (0..signal_groups.max(1))
                .map(|_| (Mutex::new(Signal::default()), Condvar::new()))
                .collect(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Number of wait queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The queue index a task for `pe` belongs to.
    pub fn queue_for_pe(&self, pe: usize) -> usize {
        match self.topology {
            WaitQueueTopology::PerPe => pe,
            WaitQueueTopology::SharedSingle => 0,
        }
    }

    /// Enqueue a task at the back of its PE's wait queue.
    pub fn push(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_back(task);
    }

    /// Put a task back at the front (its fetch found no space; it keeps
    /// its FIFO position).
    pub fn push_front(&self, task: OocTask) {
        let q = self.queue_for_pe(task.pe);
        self.queues[q].lock().push_front(task);
    }

    /// Pop the head of queue `q`.
    pub fn pop(&self, q: usize) -> Option<OocTask> {
        self.queues[q].lock().pop_front()
    }

    /// Tasks currently waiting across all queues.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.lock().len()).sum()
    }

    /// True if no tasks are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-queue lengths (load-imbalance diagnostics for ablation A1).
    pub fn lengths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.lock().len()).collect()
    }

    /// Wake the IO thread responsible for signal group `group`.
    pub fn signal(&self, group: usize) {
        let (lock, cv) = &self.signals[group % self.signals.len()];
        let mut sig = lock.lock();
        sig.generation += 1;
        let wake = sig.sleepers > sig.wakes;
        if wake {
            // notify_all reaches every parked thread.
            sig.wakes = sig.sleepers;
        }
        drop(sig);
        if wake {
            cv.notify_all();
        }
    }

    /// Wake every IO thread.
    pub fn signal_all(&self) {
        for g in 0..self.signals.len() {
            self.signal(g);
        }
    }

    /// Sleep until the group's signal generation moves past `seen`,
    /// shutdown, or `timeout_ms` elapses. Returns the generation. The
    /// timeout is a liveness backstop: IO threads re-examine their
    /// queues periodically whatever the signals say.
    ///
    /// The generation is polled `SPIN_POLLS` (64) times, with the lock
    /// released and the core yielded between polls, before the thread
    /// parks: a signal that lands during the polls finds no sleeper and
    /// sends no notify.
    pub fn wait_signal_timeout(&self, group: usize, seen: u64, timeout_ms: u64) -> u64 {
        self.wait_signal_polling(group, seen, timeout_ms, std::thread::yield_now)
    }

    /// [`WaitQueues::wait_signal_timeout`], calling `between_polls`
    /// (unlocked) after each poll that finds nothing new before parking.
    fn wait_signal_polling(
        &self,
        group: usize,
        seen: u64,
        timeout_ms: u64,
        mut between_polls: impl FnMut(),
    ) -> u64 {
        let (lock, cv) = &self.signals[group % self.signals.len()];
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        let idle = |sig: &Signal| sig.generation == seen && !self.is_shutdown();
        for _ in 0..SPIN_POLLS {
            let sig = lock.lock();
            if !idle(&sig) {
                return sig.generation;
            }
            drop(sig);
            between_polls();
        }
        let mut sig = lock.lock();
        while idle(&sig) {
            sig.sleepers += 1;
            let timed_out = cv.wait_until(&mut sig, deadline).timed_out();
            sig.sleepers -= 1;
            // Any return from the wait settles one pending wake.
            sig.wakes = sig.wakes.saturating_sub(1);
            if timed_out {
                break;
            }
        }
        sig.generation
    }

    /// Current signal generation for `group`.
    pub fn signal_generation(&self, group: usize) -> u64 {
        self.signals[group % self.signals.len()].0.lock().generation
    }

    /// Tell IO threads to exit.
    pub fn shutdown(&self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::SeqCst);
        self.signal_all();
    }

    /// True once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse::{ArrayId, EntryId, Envelope};
    use std::sync::Arc;

    fn task(pe: usize, tag: usize) -> OocTask {
        OocTask {
            env: Envelope::new(ArrayId(0), tag, EntryId(0), Box::new(())),
            pe,
            enqueued_at: 0,
            bytes: 0,
        }
    }

    #[test]
    fn per_pe_topology_separates_queues() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 4, 4);
        assert_eq!(wq.queue_count(), 4);
        wq.push(task(0, 1));
        wq.push(task(2, 2));
        assert_eq!(wq.lengths(), vec![1, 0, 1, 0]);
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
        assert!(wq.pop(0).is_none());
        assert_eq!(wq.pop(2).unwrap().env.index, 2);
    }

    #[test]
    fn shared_topology_uses_one_queue() {
        let wq = WaitQueues::new(WaitQueueTopology::SharedSingle, 4, 1);
        assert_eq!(wq.queue_count(), 1);
        for pe in 0..4 {
            wq.push(task(pe, pe));
        }
        assert_eq!(wq.len(), 4);
        assert_eq!(wq.queue_for_pe(3), 0);
        // FIFO across all PEs.
        let order: Vec<usize> = (0..4).map(|_| wq.pop(0).unwrap().pe).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn push_front_preserves_head_position() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 1, 1);
        wq.push(task(0, 1));
        wq.push(task(0, 2));
        let head = wq.pop(0).unwrap();
        wq.push_front(head);
        assert_eq!(wq.pop(0).unwrap().env.index, 1);
    }

    /// Far longer than any test waits: a waiter that returns wakes on
    /// a signal or shutdown, not on the timeout.
    const LONG_MS: u64 = 60_000;

    #[test]
    fn signals_wake_waiters() {
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 2, 2));
        let seen = wq.signal_generation(1);
        let wq2 = Arc::clone(&wq);
        let h = std::thread::spawn(move || wq2.wait_signal_timeout(1, seen, LONG_MS));
        std::thread::sleep(std::time::Duration::from_millis(10));
        wq.signal(1);
        assert_eq!(h.join().unwrap(), seen + 1);
    }

    #[test]
    fn shutdown_unblocks_waiters() {
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
        let seen = wq.signal_generation(0);
        let wq2 = Arc::clone(&wq);
        let h = std::thread::spawn(move || {
            wq2.wait_signal_timeout(0, seen, LONG_MS);
            wq2.is_shutdown()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        wq.shutdown();
        assert!(h.join().unwrap());
    }

    #[test]
    fn signals_bump_the_generation_without_sleepers() {
        let wq = WaitQueues::new(WaitQueueTopology::PerPe, 1, 1);
        let seen = wq.signal_generation(0);
        wq.signal(0);
        wq.signal(0);
        assert_eq!(wq.signal_generation(0), seen + 2);
        // A waiter arriving after the signals returns at once.
        assert_eq!(wq.wait_signal_timeout(0, seen, LONG_MS), seen + 2);
    }

    #[test]
    fn a_burst_of_signals_wakes_every_sleeper() {
        // Several threads park on one signal group; a burst of signals
        // lands while the first wake-up is still pending, and every
        // sleeper must still return with the moved generation.
        const SLEEPERS: usize = 3;
        for _ in 0..200 {
            let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
            let seen = wq.signal_generation(0);
            let (tx, rx) = std::sync::mpsc::channel();
            let sleepers: Vec<_> = (0..SLEEPERS)
                .map(|_| {
                    let (wq, tx) = (Arc::clone(&wq), tx.clone());
                    std::thread::spawn(move || {
                        tx.send(wq.wait_signal_timeout(0, seen, LONG_MS)).unwrap();
                    })
                })
                .collect();
            while wq.signals[0].0.lock().sleepers < SLEEPERS {
                std::thread::yield_now();
            }
            for _ in 0..SLEEPERS {
                wq.signal(0);
            }
            for _ in 0..SLEEPERS {
                let generation = rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("a parked thread was never woken");
                assert!(generation > seen);
            }
            for t in sleepers {
                t.join().unwrap();
            }
            let sig = wq.signals[0].0.lock();
            assert_eq!((sig.sleepers, sig.wakes), (0, 0));
        }
    }

    /// Starts `wait_signal_polling` on group 0 in a thread and returns
    /// once the waiter has found the generation at `seen`: it waits
    /// inside its first between-poll call until the returned sender
    /// sends. The thread returns the generation and how many polls
    /// found nothing.
    fn waiter_paused_after_first_poll(
        wq: &Arc<WaitQueues>,
        seen: u64,
    ) -> (
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<(u64, usize)>,
    ) {
        let (polled_tx, polled_rx) = std::sync::mpsc::channel();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        let wq = Arc::clone(wq);
        let waiter = std::thread::spawn(move || {
            let mut polls = 0;
            let generation = wq.wait_signal_polling(0, seen, LONG_MS, || {
                polls += 1;
                if polls == 1 {
                    polled_tx.send(()).unwrap();
                    resume_rx.recv().unwrap();
                }
            });
            (generation, polls)
        });
        polled_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the waiter never polled the generation");
        (resume_tx, waiter)
    }

    #[test]
    fn a_signal_during_the_spin_is_seen_without_a_notify() {
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
        let seen = wq.signal_generation(0);
        let (resume, waiter) = waiter_paused_after_first_poll(&wq, seen);
        wq.signal(0);
        {
            // The waiter is between polls: not parked, so no notify.
            let sig = wq.signals[0].0.lock();
            assert_eq!((sig.sleepers, sig.wakes), (0, 0), "the signal notified");
        }
        resume.send(()).unwrap();
        let (generation, polls) = waiter.join().unwrap();
        assert_eq!(generation, seen + 1);
        assert_eq!(polls, 1, "the signal is seen at the next poll");
    }

    #[test]
    fn a_spinning_waiter_sees_shutdown_at_its_next_poll() {
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
        let seen = wq.signal_generation(0);
        let (resume, waiter) = waiter_paused_after_first_poll(&wq, seen);
        // Set the flag alone: the generation stays put, so only the
        // shutdown check can end the wait.
        wq.shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        resume.send(()).unwrap();
        let (generation, polls) = waiter.join().unwrap();
        assert_eq!(generation, seen);
        assert_eq!(polls, 1, "shutdown is seen at the next poll");
        assert_eq!(wq.signals[0].0.lock().sleepers, 0);
    }

    #[test]
    fn an_idle_waiter_parks_after_its_spin() {
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 1, 1));
        let seen = wq.signal_generation(0);
        let waiter = {
            let wq = Arc::clone(&wq);
            std::thread::spawn(move || {
                let mut polls = 0;
                let generation = wq.wait_signal_polling(0, seen, LONG_MS, || polls += 1);
                (generation, polls)
            })
        };
        while wq.signals[0].0.lock().sleepers == 0 {
            std::thread::yield_now();
        }
        wq.signal(0);
        let (generation, polls) = waiter.join().unwrap();
        assert_eq!(generation, seen + 1);
        assert_eq!(polls, SPIN_POLLS, "the spin is bounded");
        let sig = wq.signals[0].0.lock();
        assert_eq!((sig.sleepers, sig.wakes), (0, 0));
    }

    #[test]
    fn no_wakeup_is_lost_across_many_handoffs() {
        // Two groups ping-pong tasks: each hand-off pushes a task and
        // signals a group whose thread has usually just parked, so a
        // signal that skipped a needed notify would stall the exchange
        // until the timeout.
        const N: usize = 100_000;
        let wq = Arc::new(WaitQueues::new(WaitQueueTopology::PerPe, 2, 2));
        let relay = |from: usize, to: usize, wq: Arc<WaitQueues>| {
            move || {
                let mut moved = 0;
                while moved < N {
                    let seen = wq.signal_generation(from);
                    if let Some(mut t) = wq.pop(from) {
                        t.pe = to;
                        wq.push(t);
                        wq.signal(to);
                        moved += 1;
                        continue;
                    }
                    wq.wait_signal_timeout(from, seen, LONG_MS);
                }
            }
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let a = std::thread::spawn(relay(0, 1, Arc::clone(&wq)));
        let b = std::thread::spawn(relay(1, 0, Arc::clone(&wq)));
        wq.push(task(0, 7));
        wq.signal(0);
        std::thread::spawn(move || {
            a.join().unwrap();
            b.join().unwrap();
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("hand-offs wedged: a wake-up was lost");
        assert_eq!(
            wq.pop(0).expect("the task ends where it began").env.index,
            7
        );
    }
}
