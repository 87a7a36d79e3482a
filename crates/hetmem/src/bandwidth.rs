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
//!   split into slices (1 MiB by default in [`Topology::new`], 64 KiB in
//!   [`Topology::knl_flat_scaled`]) that interleave in FIFO arrival
//!   order, approximating the processor-sharing behaviour of a real
//!   memory controller under many-core load.
//!
//! The pipe holds no lock: its cursor is an atomic that a CAS loop
//! advances around `PipeModel::reserve`, the pure arithmetic of one
//! reservation.
//!
//! Writes can carry a penalty multiplier (see
//! [`crate::topology::NodeSpec::write_penalty`]) to reproduce the
//! slightly higher HBM→DDR4 migration cost of the paper's Figure 7.
//!
//! [`Topology::new`]: crate::Topology::new
//! [`Topology::knl_flat_scaled`]: crate::Topology::knl_flat_scaled

use crate::clock::{Clock, TimeNs};
use crate::per_thread::PerThread;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of one charge: when it was issued and when its caller woke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargeOutcome {
    /// Bytes charged (pre-penalty).
    pub bytes: u64,
    /// Clock time at which the charge was issued.
    pub issued_at: TimeNs,
    /// Clock time at which the caller woke, once the last slice had
    /// drained (never before the drain).
    pub completed_at: TimeNs,
}

impl ChargeOutcome {
    /// Wall (or virtual) duration the caller was blocked.
    pub fn duration_ns(&self) -> TimeNs {
        self.completed_at.saturating_sub(self.issued_at)
    }
}

/// The cost model of one reservation pipe: a byte rate and a fixed
/// overhead per charge. Pure arithmetic, with no clock and no state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PipeModel {
    /// Streaming rate in bytes per second.
    rate_bytes_per_sec: u64,
    /// Fixed extra service time of a charge's first slice.
    overhead_ns: u64,
}

impl PipeModel {
    /// Service time of `bytes` at the rate, scaled by `scale`.
    fn service_ns(&self, bytes: u64, scale: f64) -> TimeNs {
        (bytes as f64 * scale * 1e9 / self.rate_bytes_per_sec as f64).ceil() as TimeNs
    }

    /// The `(start, end)` of `bytes` issued at `now` on a FIFO pipe next
    /// free at `cursor`: it starts once the pipe is free and the bytes
    /// are issued, and holds the pipe for their scaled service time plus
    /// the overhead. `end` is the pipe's next cursor.
    fn reserve(&self, cursor: TimeNs, now: TimeNs, bytes: u64, scale: f64) -> (TimeNs, TimeNs) {
        let start = cursor.max(now);
        let end = start + self.overhead_ns + self.service_ns(bytes, scale);
        (start, end)
    }
}

/// Shared reservation pipe for one memory node.
pub struct BandwidthRegulator {
    model: PipeModel,
    /// Charges are cut into slices of this size for fair interleaving.
    slice_bytes: u64,
    /// Multiplier on service time for write traffic.
    write_penalty: f64,
    clock: Arc<dyn Clock>,
    /// Next free time of the reservation pipe. It publishes no other
    /// data, so `Relaxed` suffices: the CAS alone keeps reservations
    /// disjoint.
    cursor: AtomicU64,
    tally: PerThread<ChargeTally>,
}

/// One thread's share of a regulator's charge totals.
#[derive(Debug, Default)]
struct ChargeTally {
    bytes: AtomicU64,
    wait_ns: AtomicU64,
}

impl BandwidthRegulator {
    /// A regulator draining `rate_bytes_per_sec`, slicing charges at
    /// `slice_bytes`, timed by `clock`.
    pub fn new(rate_bytes_per_sec: u64, slice_bytes: u64, clock: Arc<dyn Clock>) -> Self {
        assert!(rate_bytes_per_sec > 0, "bandwidth must be positive");
        assert!(slice_bytes > 0, "slice size must be positive");
        Self {
            model: PipeModel {
                rate_bytes_per_sec,
                overhead_ns: 0,
            },
            slice_bytes,
            write_penalty: 1.0,
            clock,
            cursor: AtomicU64::new(0),
            tally: PerThread::default(),
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
        self.model.overhead_ns = ns;
        self
    }

    /// Charge `bytes` of *read* traffic; blocks until drained.
    pub fn charge(&self, bytes: u64) -> ChargeOutcome {
        self.charge_at(self.clock.now(), bytes)
    }

    /// Charge `bytes` of *write* traffic (applies the write penalty).
    pub fn charge_write(&self, bytes: u64) -> ChargeOutcome {
        self.charge_write_at(self.clock.now(), bytes)
    }

    /// [`BandwidthRegulator::charge`], issued at `issued_at`: a clock
    /// reading the caller already holds, which spares a read.
    pub fn charge_at(&self, issued_at: TimeNs, bytes: u64) -> ChargeOutcome {
        self.charge_scaled(issued_at, bytes, 1.0)
    }

    /// [`BandwidthRegulator::charge_write`], issued at `issued_at`.
    pub fn charge_write_at(&self, issued_at: TimeNs, bytes: u64) -> ChargeOutcome {
        self.charge_scaled(issued_at, bytes, self.write_penalty)
    }

    /// Reserve and sleep out each slice. The first slice is anchored at
    /// `issued_at` and carries the overhead; each later one is anchored
    /// at its predecessor's reserved end, so on an idle pipe a charge's
    /// slices lie end to end whatever the sleeps overshoot; the wake
    /// time feeds only the outcome and the tally. The `sleep_until`s
    /// are the only clock reads, one per slice.
    fn charge_scaled(&self, issued_at: TimeNs, bytes: u64, scale: f64) -> ChargeOutcome {
        let mut model = self.model;
        let mut anchor = issued_at;
        let mut now;
        let mut remaining = bytes;
        loop {
            let slice = remaining.min(self.slice_bytes);
            anchor = self.reserve(&model, anchor, slice, scale);
            now = self.clock.sleep_until(anchor);
            remaining -= slice;
            if remaining == 0 {
                break;
            }
            model.overhead_ns = 0;
        }
        let tally = self.tally.local();
        tally.bytes.fetch_add(bytes, Ordering::Relaxed);
        tally
            .wait_ns
            .fetch_add(now.saturating_sub(issued_at), Ordering::Relaxed);
        ChargeOutcome {
            bytes,
            issued_at,
            completed_at: now,
        }
    }

    /// Advance the cursor past one slice issued at `now`, returning the
    /// slice's end. Concurrent callers retry the CAS, so no two
    /// reservations overlap and none is lost.
    fn reserve(&self, model: &PipeModel, now: TimeNs, bytes: u64, scale: f64) -> TimeNs {
        let mut cursor = self.cursor.load(Ordering::Relaxed);
        loop {
            let (_, end) = model.reserve(cursor, now, bytes, scale);
            match self.cursor.compare_exchange_weak(
                cursor,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return end,
                Err(actual) => cursor = actual,
            }
        }
    }

    /// Total bytes charged so far.
    pub fn bytes_charged(&self) -> u64 {
        self.tally.sum(|t| t.bytes.load(Ordering::Relaxed))
    }

    /// Total time callers spent blocked in charges (ns).
    pub fn total_wait_ns(&self) -> u64 {
        self.tally.sum(|t| t.wait_ns.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for BandwidthRegulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BandwidthRegulator")
            .field("rate_bytes_per_sec", &self.model.rate_bytes_per_sec)
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
        assert_eq!(out.completed_at, 4096);
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

    /// A virtual clock whose sleepers all wake 7 ns after their
    /// deadline, as a real sleep overshoots.
    struct LateClock(VirtualClock);

    impl Clock for LateClock {
        fn now(&self) -> TimeNs {
            self.0.now()
        }

        fn sleep_until(&self, deadline: TimeNs) -> TimeNs {
            self.0.sleep_until(deadline + 7)
        }
    }

    #[test]
    fn late_wakes_leave_an_idle_pipe_contiguous() {
        let clock = Arc::new(LateClock(VirtualClock::new()));
        let r = BandwidthRegulator::new(1_000_000_000, 100, clock);
        // 10 slices of 100 ns: they lie end to end, and only the
        // caller's wake is late.
        let out = r.charge(1000);
        assert_eq!(r.cursor.load(Ordering::Relaxed), 1000);
        assert_eq!(out.completed_at, 1007);
        assert_eq!(r.total_wait_ns(), 1007);
    }

    const GBPS: PipeModel = PipeModel {
        rate_bytes_per_sec: 1_000_000_000,
        overhead_ns: 0,
    };

    #[test]
    fn an_idle_pipe_reserves_from_now() {
        assert_eq!(GBPS.reserve(100, 400, 50, 1.0), (400, 450));
        assert_eq!(GBPS.reserve(0, 0, 1000, 1.5), (0, 1500));
    }

    #[test]
    fn a_busy_pipe_queues_at_its_cursor() {
        assert_eq!(GBPS.reserve(900, 400, 50, 1.0), (900, 950));
        // A reservation issued exactly when the pipe frees up is not
        // delayed.
        assert_eq!(GBPS.reserve(400, 400, 50, 1.0), (400, 450));
    }

    #[test]
    fn zero_bytes_reserve_only_the_overhead() {
        let model = PipeModel {
            overhead_ns: 250,
            ..GBPS
        };
        assert_eq!(model.reserve(0, 10, 0, 1.0), (10, 260));
        assert_eq!(GBPS.reserve(0, 10, 0, 1.0), (10, 10));
        assert_eq!(model.reserve(0, 10, 100, 1.0), (10, 360));
    }

    #[test]
    fn successive_reservations_are_fifo_and_contiguous() {
        let mut cursor = 0;
        let mut last_end = 0;
        for (now, bytes) in [(5, 100), (6, 40), (7, 0), (8, 300)] {
            let (start, end) = GBPS.reserve(cursor, now, bytes, 1.0);
            assert_eq!(start, last_end.max(now), "slice at {now} not contiguous");
            assert_eq!(end - start, bytes);
            (cursor, last_end) = (end, end);
        }
        assert_eq!(cursor, 5 + 440);
    }

    #[test]
    fn concurrent_charges_lose_no_reservation() {
        // Every charge is issued at the same anchor, so each one queues
        // behind all the others: the pipe's final end is exactly the sum
        // of their service times, and a lost cursor update shortens it.
        const THREADS: u64 = 8;
        const CHARGES: u64 = 2000;
        let (clock, r) = reg(1_000_000_000, 1 << 20);
        let r = r.with_overhead_ns(3);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let last_wake = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=THREADS)
                .map(|t| {
                    let (r, barrier) = (&r, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (0..CHARGES)
                            .map(|_| r.charge_at(0, 64 * t).completed_at)
                            .max()
                            .expect("at least one charge")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("charging thread panicked"))
                .max()
                .expect("at least one thread")
        });
        let service: u64 = (1..=THREADS).map(|t| CHARGES * (64 * t + 3)).sum();
        assert_eq!(r.cursor.load(Ordering::Relaxed), service);
        // Nothing sleeps past the last reservation's end.
        assert_eq!(last_wake, service);
        assert_eq!(clock.now(), service);
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
