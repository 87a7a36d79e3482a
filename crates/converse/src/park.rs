//! Spin, then park: how an idle consumer waits for its producer.
//!
//! Every queue in the runtime has exactly one consumer: a PE's worker
//! pops its run queue (and waits at the pause gate), and one IO thread
//! serves each group of wait queues. So a consumer with nothing to do
//! sleeps on the park token of its own [`std::thread::Thread`], and a
//! producer that gives it work calls [`std::thread::Thread::unpark`] on
//! it. On a consumer that is not parked, `unpark` is one atomic swap:
//! no futex call, no lock.
//!
//! # Why no wake-up is lost
//!
//! The protocol needs two things from its user:
//!
//! * the consumer registers its `Thread` (where producers can read it)
//!   before its first check of `ready`, and
//! * a producer publishes its work (a push under the queue lock, or a
//!   generation bump) *before* it reads the registered `Thread` and
//!   unparks it.
//!
//! Then a producer's work either lands before one of the consumer's
//! checks, and that check sees it, or it lands after the last check,
//! and the unpark that follows it sets the token. A token set between
//! the last check and `park` is kept until that `park`, which then
//! returns at once. A spurious return from `park`, or a token left over
//! from work the consumer already took while spinning, costs one more
//! check of `ready`. Other code that parks the same thread (a blocking
//! channel receive, say) may consume a token, but only outside this
//! loop, and the loop checks `ready` before it parks.
//!
//! A wait has no deadline: any other event that must end it (a
//! shutdown, freed space) is folded into `ready` and unparks likewise.

/// How many times [`spin_then_park`] checks `ready`, yielding its core
/// between checks, before it parks. A hand-off from another thread
/// usually lands within a few yields; the gain measured flat from 16 to
/// 256 polls.
pub const SPIN_POLLS: usize = 64;

/// Wait on the calling thread until `ready` answers `Some`, and return
/// its answer.
///
/// `ready` is checked `SPIN_POLLS` (64) times with
/// [`std::thread::yield_now`] between checks, then the thread parks and
/// checks again after every return. Yielding rather than busy-spinning
/// leaves the core to the thread that is about to hand over work; a
/// hand-off that lands during the spin costs its producer no futex
/// wake. See the module doc for what the caller must guarantee.
pub fn spin_then_park<T>(ready: impl FnMut() -> Option<T>) -> T {
    spin_then_park_polling(ready, std::thread::yield_now)
}

/// [`spin_then_park`], calling `between_polls` after each of the
/// `SPIN_POLLS` checks that finds nothing, instead of yielding.
fn spin_then_park_polling<T>(
    mut ready: impl FnMut() -> Option<T>,
    mut between_polls: impl FnMut(),
) -> T {
    for _ in 0..SPIN_POLLS {
        if let Some(v) = ready() {
            return v;
        }
        between_polls();
    }
    loop {
        if let Some(v) = ready() {
            return v;
        }
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::sync::{Arc, OnceLock};
    use std::thread::Thread;
    use std::time::Duration;

    /// A one-consumer flag: the test's stand-in for a queue.
    #[derive(Default)]
    struct Flag {
        set: AtomicBool,
        shutdown: AtomicBool,
        consumer: OnceLock<Thread>,
    }

    impl Flag {
        fn produce(&self) {
            self.set.store(true, Ordering::SeqCst);
            if let Some(t) = self.consumer.get() {
                t.unpark();
            }
        }

        /// `Some(true)` for work, `Some(false)` for shutdown.
        fn check(&self) -> Option<bool> {
            if self.set.load(Ordering::SeqCst) {
                Some(true)
            } else if self.shutdown.load(Ordering::SeqCst) {
                Some(false)
            } else {
                None
            }
        }
    }

    /// Starts a consumer of `flag` that waits inside its first
    /// between-poll call until the returned sender sends; returns once
    /// the consumer got there. The thread returns what it took and how
    /// many polls found nothing.
    fn consumer_paused_after_first_poll(
        flag: &Arc<Flag>,
    ) -> (mpsc::Sender<()>, std::thread::JoinHandle<(bool, usize)>) {
        let (polled_tx, polled_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let flag = Arc::clone(flag);
        let consumer = std::thread::spawn(move || {
            flag.consumer.set(std::thread::current()).unwrap();
            let mut polls = 0;
            let took = spin_then_park_polling(
                || flag.check(),
                || {
                    polls += 1;
                    if polls == 1 {
                        polled_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }
                },
            );
            (took, polls)
        });
        polled_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the consumer never polled");
        (resume_tx, consumer)
    }

    #[test]
    fn work_that_arrives_during_the_spin_is_taken_at_the_next_poll() {
        let flag = Arc::new(Flag::default());
        let (resume, consumer) = consumer_paused_after_first_poll(&flag);
        flag.produce();
        resume.send(()).unwrap();
        let (took, polls) = consumer.join().unwrap();
        assert!(took);
        assert_eq!(polls, 1, "the work is taken at the next poll");
    }

    #[test]
    fn a_spinning_consumer_sees_shutdown_at_its_next_poll() {
        let flag = Arc::new(Flag::default());
        let (resume, consumer) = consumer_paused_after_first_poll(&flag);
        // No unpark: only the next check can end the wait.
        flag.shutdown.store(true, Ordering::SeqCst);
        resume.send(()).unwrap();
        let (took, polls) = consumer.join().unwrap();
        assert!(!took);
        assert_eq!(polls, 1, "shutdown is seen at the next poll");
    }

    #[test]
    fn an_idle_consumer_parks_after_exactly_spin_polls_polls() {
        let flag = Arc::new(Flag::default());
        let (checks_tx, checks_rx) = mpsc::channel();
        let consumer = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                flag.consumer.set(std::thread::current()).unwrap();
                let (polls, mut checks) = (Cell::new(0), 0);
                let took = spin_then_park_polling(
                    || {
                        checks += 1;
                        // The check before the first park.
                        if checks == SPIN_POLLS + 1 {
                            checks_tx.send(polls.get()).unwrap();
                        }
                        flag.check()
                    },
                    || polls.set(polls.get() + 1),
                );
                (took, polls.get())
            })
        };
        let polls_before_park = checks_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the consumer never reached its park");
        assert_eq!(polls_before_park, SPIN_POLLS, "the spin is bounded");
        flag.produce();
        let (took, polls) = consumer.join().unwrap();
        assert!(took);
        assert_eq!(polls, SPIN_POLLS, "a parked consumer does not spin again");
    }

    #[test]
    fn an_unpark_between_the_last_poll_and_park_is_not_lost() {
        // The producer publishes and unparks after the consumer's last
        // check found nothing but before it parks: the token it leaves
        // must make the park return. The two threads hand off through
        // spinning flags, not a channel: a blocking receive parks too
        // and would eat the token.
        let flag = Arc::new(Flag::default());
        let last_check = Arc::new(AtomicBool::new(false));
        let produced = Arc::new(AtomicBool::new(false));
        let spin_until = |b: &AtomicBool| {
            while !b.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        let producer = {
            let (flag, last_check, produced) = (
                Arc::clone(&flag),
                Arc::clone(&last_check),
                Arc::clone(&produced),
            );
            std::thread::spawn(move || {
                spin_until(&last_check);
                flag.produce();
                produced.store(true, Ordering::SeqCst);
            })
        };
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                flag.consumer.set(std::thread::current()).unwrap();
                let mut checks = 0;
                let took = spin_then_park_polling(
                    || {
                        checks += 1;
                        let found = flag.check();
                        if checks == SPIN_POLLS + 1 {
                            assert!(found.is_none());
                            last_check.store(true, Ordering::SeqCst);
                            spin_until(&produced);
                        }
                        found
                    },
                    || {},
                );
                done_tx.send((took, checks)).unwrap();
            })
        };
        let (took, checks) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the unpark before park was lost");
        assert!(took);
        assert_eq!(checks, SPIN_POLLS + 2, "one park, then the work");
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}
