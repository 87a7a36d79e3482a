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

    fn sleep_until(&self, deadline: TimeNs) -> TimeNs {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            let remaining = deadline - now;
            // std::thread::sleep may undershoot on some platforms; loop.
            std::thread::sleep(Duration::from_nanos(remaining));
        }
    }
}

/// Deterministic clock for tests.
///
/// `sleep_until` *advances the clock itself* when the sleeper holds the
/// earliest deadline, which lets single-threaded tests run "timed" code
/// instantly while preserving ordering; multi-threaded tests can also
/// drive it manually with [`VirtualClock::advance_to`].
pub struct VirtualClock {
    now: AtomicU64,
    sleepers: Mutex<Vec<TimeNs>>,
    cv: Condvar,
    /// When true (the default), a sleeping thread may advance time to its
    /// own deadline once it holds the minimum pending deadline.
    auto_advance: bool,
}

impl VirtualClock {
    /// A virtual clock starting at t=0 that auto-advances on sleep.
    pub fn new() -> Self {
        Self {
            now: AtomicU64::new(0),
            sleepers: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            auto_advance: true,
        }
    }

    /// A virtual clock that only moves via [`VirtualClock::advance_to`].
    pub fn manual() -> Self {
        Self {
            auto_advance: false,
            ..Self::new()
        }
    }

    /// Move time forward to `t` (monotonic: earlier values are ignored)
    /// and wake any sleeper whose deadline has passed.
    pub fn advance_to(&self, t: TimeNs) {
        self.now.fetch_max(t, Ordering::SeqCst);
        let _guard = self.sleepers.lock();
        self.cv.notify_all();
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
            if self.auto_advance {
                // Only the thread holding the earliest pending deadline
                // may pull time forward; everyone else waits to be woken.
                let min = sleepers.iter().copied().min().unwrap();
                if min == deadline {
                    self.now.fetch_max(deadline, Ordering::SeqCst);
                    continue;
                }
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
    fn virtual_clock_manual_advance_wakes_sleepers() {
        let c = Arc::new(VirtualClock::manual());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            c2.sleep_until(500);
            c2.now()
        });
        // Give the sleeper a moment to register, then advance.
        while c.sleepers.lock().is_empty() {
            std::thread::yield_now();
        }
        c.advance_to(600);
        assert_eq!(h.join().unwrap(), 600);
    }

    #[test]
    fn virtual_clock_orders_two_sleepers() {
        let c = Arc::new(VirtualClock::manual());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (tag, deadline) in [(1u8, 300u64), (2, 100)] {
            let c = Arc::clone(&c);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                c.sleep_until(deadline);
                order.lock().push(tag);
            }));
        }
        // Wait until both sleepers have registered, then step time.
        while c.sleepers.lock().len() < 2 {
            std::thread::yield_now();
        }
        c.advance_to(100);
        while order.lock().is_empty() {
            std::thread::yield_now();
        }
        c.advance_to(300);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock();
        // The 100ns sleeper must finish before the 300ns sleeper.
        assert_eq!(*order, vec![2, 1]);
    }
}
