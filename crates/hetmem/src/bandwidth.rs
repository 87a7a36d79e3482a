//! Bandwidth regulation: the software stand-in for a memory controller
//! with a fixed aggregate bandwidth.
//!
//! Every memory node owns one [`BandwidthRegulator`]. Any thread that
//! streams bytes to or from the node — a compute kernel reading its data
//! blocks, or a migration `memcpy` — must *charge* those bytes here. The
//! regulator maintains a single reservation pipe (a "virtual conveyor
//! belt"): each charge reserves the next free interval of the pipe at the
//! node's byte rate and sleeps until its reservation completes.
//!
//! Two consequences make this a faithful model of the paper's setting:
//!
//! * **Aggregate throughput is capped at the node rate**, no matter how
//!   many threads stream concurrently — exactly the saturation the
//!   paper's Figure 1 shows for STREAM on MCDRAM vs DDR4.
//! * **Concurrent streams share the pipe fairly** because charges are
//!   split into slices (default 1 MiB / 256 KiB) that interleave in FIFO
//!   arrival order, approximating the processor-sharing behaviour of a
//!   real memory controller under many-core load.
//!
//! Writes can carry a penalty multiplier (see
//! [`crate::topology::NodeSpec::write_penalty`]) to reproduce the
//! slightly higher HBM→DDR4 migration cost of the paper's Figure 7.

use crate::clock::{Clock, TimeNs};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of one charge: when it was issued and when the pipe drained it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargeOutcome {
    /// Bytes charged (pre-penalty).
    pub bytes: u64,
    /// Clock time at which the charge was issued.
    pub issued_at: TimeNs,
    /// Clock time at which the last slice drained.
    pub completed_at: TimeNs,
}

impl ChargeOutcome {
    /// Wall (or virtual) duration the caller was blocked.
    pub fn duration_ns(&self) -> TimeNs {
        self.completed_at.saturating_sub(self.issued_at)
    }

    /// Effective bandwidth seen by this charge, bytes/sec.
    pub fn effective_bandwidth(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            f64::INFINITY
        } else {
            self.bytes as f64 * 1e9 / d as f64
        }
    }
}

/// Shared token/reservation pipe for one memory node.
pub struct BandwidthRegulator {
    /// Node streaming rate in bytes per second.
    rate_bytes_per_sec: u64,
    /// Charges are cut into slices of this size for fair interleaving.
    slice_bytes: u64,
    /// Multiplier on service time for write traffic.
    write_penalty: f64,
    /// Fixed extra service time added once per charge.
    overhead_ns: u64,
    clock: Arc<dyn Clock>,
    /// Next free time of the reservation pipe.
    cursor: Mutex<TimeNs>,
    bytes_charged: AtomicU64,
    total_wait_ns: AtomicU64,
}

impl BandwidthRegulator {
    /// A regulator draining `rate_bytes_per_sec`, slicing charges at
    /// `slice_bytes`, timed by `clock`.
    pub fn new(rate_bytes_per_sec: u64, slice_bytes: u64, clock: Arc<dyn Clock>) -> Self {
        assert!(rate_bytes_per_sec > 0, "bandwidth must be positive");
        assert!(slice_bytes > 0, "slice size must be positive");
        Self {
            rate_bytes_per_sec,
            slice_bytes,
            write_penalty: 1.0,
            overhead_ns: 0,
            clock,
            cursor: Mutex::new(0),
            bytes_charged: AtomicU64::new(0),
            total_wait_ns: AtomicU64::new(0),
        }
    }

    /// Set the write-side service-time multiplier.
    pub fn with_write_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 1.0);
        self.write_penalty = penalty;
        self
    }

    /// Set the fixed per-charge overhead.
    pub fn with_overhead_ns(mut self, ns: u64) -> Self {
        self.overhead_ns = ns;
        self
    }

    /// The configured node rate, bytes/sec.
    pub fn rate_bytes_per_sec(&self) -> u64 {
        self.rate_bytes_per_sec
    }

    /// Charge `bytes` of *read* traffic; blocks until drained.
    pub fn charge(&self, bytes: u64) -> ChargeOutcome {
        self.charge_scaled(bytes, 1.0)
    }

    /// Charge `bytes` of *write* traffic (applies the write penalty).
    pub fn charge_write(&self, bytes: u64) -> ChargeOutcome {
        self.charge_scaled(bytes, self.write_penalty)
    }

    /// Service time for `bytes` at the node rate, scaled.
    fn service_ns(&self, bytes: u64, scale: f64) -> TimeNs {
        (bytes as f64 * scale * 1e9 / self.rate_bytes_per_sec as f64).ceil() as TimeNs
    }

    /// Reserve and sleep out each slice, reading the clock twice per
    /// slice: to anchor it under the cursor lock (the first anchor is the
    /// charge's `issued_at`) and in `sleep_until`.
    fn charge_scaled(&self, bytes: u64, scale: f64) -> ChargeOutcome {
        let mut issued_at = None;
        let mut remaining = bytes;
        let mut completed_at = 0;
        while remaining > 0 || issued_at.is_none() {
            let slice = remaining.min(self.slice_bytes);
            let mut dur = self.service_ns(slice, scale);
            let end = {
                let mut cursor = self.cursor.lock();
                let now = self.clock.now();
                if issued_at.is_none() {
                    issued_at = Some(now);
                    dur += self.overhead_ns;
                }
                let end = (*cursor).max(now) + dur;
                *cursor = end;
                end
            };
            self.clock.sleep_until(end);
            completed_at = end;
            remaining -= slice;
        }
        let issued_at = issued_at.expect("the loop runs at least once");
        self.bytes_charged.fetch_add(bytes, Ordering::Relaxed);
        self.total_wait_ns
            .fetch_add(completed_at.saturating_sub(issued_at), Ordering::Relaxed);
        ChargeOutcome {
            bytes,
            issued_at,
            completed_at,
        }
    }

    /// Total bytes charged so far.
    pub fn bytes_charged(&self) -> u64 {
        self.bytes_charged.load(Ordering::Relaxed)
    }

    /// Total time callers spent blocked in charges (ns).
    pub fn total_wait_ns(&self) -> u64 {
        self.total_wait_ns.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BandwidthRegulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthRegulator")
            .field("rate_bytes_per_sec", &self.rate_bytes_per_sec)
            .field("slice_bytes", &self.slice_bytes)
            .field("write_penalty", &self.write_penalty)
            .field("bytes_charged", &self.bytes_charged())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn reg(rate: u64, slice: u64) -> (Arc<VirtualClock>, BandwidthRegulator) {
        let clock = Arc::new(VirtualClock::new());
        let r = BandwidthRegulator::new(rate, slice, clock.clone());
        (clock, r)
    }

    #[test]
    fn single_charge_takes_bytes_over_rate() {
        // 1 GB/s => 1 byte/ns. 4096 bytes => 4096 ns.
        let (clock, r) = reg(1_000_000_000, 1 << 20);
        let out = r.charge(4096);
        assert_eq!(out.duration_ns(), 4096);
        assert_eq!(clock.now(), 4096);
        assert!((out.effective_bandwidth() - 1e9).abs() < 1e6);
    }

    #[test]
    fn write_penalty_scales_service_time() {
        let clock = Arc::new(VirtualClock::new());
        let r = BandwidthRegulator::new(1_000_000_000, 1 << 20, clock).with_write_penalty(1.5);
        let read = r.charge(1000).duration_ns();
        let write = r.charge_write(1000).duration_ns();
        assert_eq!(read, 1000);
        assert_eq!(write, 1500);
    }

    #[test]
    fn back_to_back_charges_queue_fifo() {
        let (clock, r) = reg(1_000_000_000, 1 << 20);
        let a = r.charge(1000);
        let b = r.charge(500);
        assert_eq!(a.completed_at, 1000);
        assert_eq!(b.completed_at, 1500);
        assert_eq!(clock.now(), 1500);
    }

    #[test]
    fn slicing_splits_large_charges() {
        let (_clock, r) = reg(1_000_000_000, 100);
        let out = r.charge(1000); // 10 slices
        assert_eq!(out.duration_ns(), 1000);
    }

    #[test]
    fn zero_byte_charge_costs_only_overhead() {
        let clock = Arc::new(VirtualClock::new());
        let r = BandwidthRegulator::new(1_000_000_000, 1 << 20, clock).with_overhead_ns(250);
        let out = r.charge(0);
        assert_eq!(out.duration_ns(), 250);
    }

    #[test]
    fn aggregate_throughput_is_capped_across_threads() {
        // 8 threads × 1 MB each through a 1 GB/s pipe must take ≥ 8 ms of
        // virtual time: the pipe enforces the aggregate cap.
        let clock = Arc::new(VirtualClock::new());
        let r = Arc::new(BandwidthRegulator::new(
            1_000_000_000,
            64 * 1024,
            clock.clone(),
        ));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || r.charge(1_000_000)));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(clock.now() >= 8_000_000, "clock={}", clock.now());
        assert_eq!(r.bytes_charged(), 8_000_000);
    }

    #[test]
    fn ratio_between_two_regulators_matches_rates() {
        // Same bytes through a 4x faster pipe should take 1/4 the time —
        // this is the paper's Figure 2 in miniature.
        let clock = Arc::new(VirtualClock::new());
        let slow = BandwidthRegulator::new(1_000_000_000, 1 << 20, clock.clone());
        let fast = BandwidthRegulator::new(4_000_000_000, 1 << 20, clock.clone());
        let t_slow = slow.charge(1_000_000).duration_ns();
        let t_fast = fast.charge(1_000_000).duration_ns();
        let ratio = t_slow as f64 / t_fast as f64;
        assert!((ratio - 4.0).abs() < 0.05, "ratio={ratio}");
    }
}
