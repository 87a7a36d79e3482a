//! Time sources for bandwidth accounting.
//!
//! All sleeping/waiting in the bandwidth model goes through [`Clock`] so
//! the same code can run against wall-clock time (benchmarks, examples)
//! or a deterministic virtual clock (unit and property tests).

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Nanoseconds since an arbitrary epoch (process start for the monotonic
/// clock, zero for virtual clocks).
pub type TimeNs = u64;

/// A monotonic time source that can also block a thread until a deadline.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds.
    fn now(&self) -> TimeNs;

    /// Block the calling thread until `deadline` (no-op if already past)
    /// and return the time it woke at, which is never before `deadline`.
    /// A caller that goes on to time more work can start from the
    /// returned value instead of reading the clock again.
    fn sleep_until(&self, deadline: TimeNs) -> TimeNs;

    /// Convenience: block for `dur` nanoseconds from now, returning the
    /// wake time.
    fn sleep(&self, dur: TimeNs) -> TimeNs {
        let now = self.now();
        self.sleep_until(now.saturating_add(dur))
    }
}

/// Wall-clock implementation backed by [`Instant`].
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> TimeNs {
        self.origin.elapsed().as_nanos() as TimeNs
    }

    /// Sleep to `WAKE_MARGIN_NS` before `deadline`, then poll the
    /// clock, yielding between reads, until it is reached. The poll
    /// yields rather than spins: runtime threads can outnumber cores,
    /// and a waiter must not hold one from a thread with work.
    fn sleep_until(&self, deadline: TimeNs) -> TimeNs {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            let remaining = deadline - now;
            if remaining > WAKE_MARGIN_NS {
                std::thread::sleep(Duration::from_nanos(remaining - WAKE_MARGIN_NS));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// How long before its deadline [`MonotonicClock::sleep_until`] stops
/// sleeping and starts polling: more than an OS sleep's usual overshoot
/// (about 60 µs on Linux), so the last stretch is timed by the clock
/// rather than by the timer's slack.
const WAKE_MARGIN_NS: TimeNs = 150_000;

/// Deterministic clock for tests.
///
/// `sleep_until` *advances the clock itself* when the sleeper holds the
/// earliest deadline, which lets single-threaded tests run "timed" code
/// instantly while preserving ordering. Other threads still computing
/// do not hold time back, so it orders only the sleepers.
pub struct VirtualClock {
    now: AtomicU64,
    sleepers: Mutex<Vec<TimeNs>>,
    cv: Condvar,
}

impl VirtualClock {
    /// A virtual clock starting at t=0 that auto-advances on sleep.
    pub fn new() -> Self {
        Self {
            now: AtomicU64::new(0),
            sleepers: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> TimeNs {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_until(&self, deadline: TimeNs) -> TimeNs {
        let mut sleepers = self.sleepers.lock();
        sleepers.push(deadline);
        loop {
            let now = self.now();
            if now >= deadline {
                let pos = sleepers.iter().position(|&d| d == deadline).unwrap();
                sleepers.swap_remove(pos);
                self.cv.notify_all();
                return now;
            }
            // Only the thread holding the earliest pending deadline may
            // pull time forward; everyone else waits to be woken.
            let min = sleepers.iter().copied().min().unwrap();
            if min == deadline {
                self.now.fetch_max(deadline, Ordering::SeqCst);
                continue;
            }
            self.cv.wait(&mut sleepers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn monotonic_clock_advances() {
        let c = MonotonicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn monotonic_sleep_until_reaches_deadline() {
        let c = MonotonicClock::new();
        let deadline = c.now() + 2_000_000; // 2 ms
        let woke = c.sleep_until(deadline);
        assert!(woke >= deadline, "woke at {woke}, before {deadline}");
        assert!(c.now() >= woke);
    }

    #[test]
    fn monotonic_sleep_until_a_past_deadline_returns_at_once() {
        let c = MonotonicClock::new();
        std::thread::sleep(Duration::from_millis(1));
        let before = c.now();
        let started = Instant::now();
        let woke = c.sleep_until(before / 2);
        // No sleep was taken: well under the 1 ms already behind us.
        assert!(started.elapsed() < Duration::from_millis(50));
        assert!(woke >= before, "woke at {woke}, before reading {before}");
    }

    #[test]
    fn virtual_clock_auto_advances_single_thread() {
        let c = VirtualClock::new();
        assert_eq!(c.sleep_until(1_000_000_000), 1_000_000_000);
        assert_eq!(c.now(), 1_000_000_000);
        // Sleeping into the past is a no-op that wakes at the present.
        assert_eq!(c.sleep_until(5), 1_000_000_000);
        assert_eq!(c.now(), 1_000_000_000);
        assert_eq!(c.sleep(250), 1_000_000_250);
    }

    #[test]
    fn virtual_clock_orders_two_sleepers() {
        let c = Arc::new(VirtualClock::new());
        // A pending deadline of 50 that no thread owns holds time back
        // until both sleepers have registered.
        c.sleepers.lock().push(50);
        let handles: Vec<_> = [300u64, 100]
            .into_iter()
            .map(|deadline| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.sleep_until(deadline))
            })
            .collect();
        while c.sleepers.lock().len() < 3 {
            std::thread::yield_now();
        }
        {
            let mut sleepers = c.sleepers.lock();
            sleepers.retain(|&d| d != 50);
            c.cv.notify_all();
        }
        let woke: Vec<TimeNs> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The 100 ns sleeper moved time first and woke at its own
        // deadline, before the 300 ns sleeper pulled time on to 300.
        assert_eq!(woke, vec![300, 100]);
        assert_eq!(c.now(), 300);
    }
}
