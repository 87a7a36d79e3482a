//! The virtual-time bandwidth pipe.

/// Virtual nanoseconds.
pub type VTime = u64;

/// A FIFO reservation pipe with a fixed byte rate: the virtual-time
/// twin of `hetmem::BandwidthRegulator`.
#[derive(Debug, Clone)]
pub struct ReservationPipe {
    rate_bytes_per_sec: u64,
    write_penalty: f64,
    cursor: VTime,
    bytes: u64,
}

impl ReservationPipe {
    /// A pipe draining `rate_bytes_per_sec`.
    pub fn new(rate_bytes_per_sec: u64) -> Self {
        assert!(rate_bytes_per_sec > 0);
        Self {
            rate_bytes_per_sec,
            write_penalty: 1.0,
            cursor: 0,
            bytes: 0,
        }
    }

    /// Apply a write-side penalty multiplier.
    pub fn with_write_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 1.0);
        self.write_penalty = penalty;
        self
    }

    fn service_ns(&self, bytes: u64, scale: f64) -> VTime {
        (bytes as f64 * scale * 1e9 / self.rate_bytes_per_sec as f64).ceil() as VTime
    }

    /// Reserve a read of `bytes` issued at `t`; returns completion time.
    pub fn reserve_read(&mut self, t: VTime, bytes: u64) -> VTime {
        self.reserve(t, bytes, 1.0)
    }

    /// Reserve a write of `bytes` issued at `t` (penalised).
    pub fn reserve_write(&mut self, t: VTime, bytes: u64) -> VTime {
        self.reserve(t, bytes, self.write_penalty)
    }

    fn reserve(&mut self, t: VTime, bytes: u64, scale: f64) -> VTime {
        if bytes == 0 {
            return t;
        }
        let start = self.cursor.max(t);
        let dur = self.service_ns(bytes, scale);
        self.cursor = start + dur;
        self.bytes += bytes;
        self.cursor
    }

    /// Total bytes reserved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reservations_queue() {
        let mut p = ReservationPipe::new(1_000_000_000); // 1 B/ns
        assert_eq!(p.reserve_read(0, 1000), 1000);
        assert_eq!(p.reserve_read(0, 500), 1500); // queued behind
        assert_eq!(p.reserve_read(2000, 100), 2100); // idle gap
        assert_eq!(p.bytes(), 1600);
    }

    #[test]
    fn write_penalty_applies() {
        let mut p = ReservationPipe::new(1_000_000_000).with_write_penalty(1.5);
        assert_eq!(p.reserve_write(0, 1000), 1500);
        assert_eq!(p.reserve_read(0, 1000), 2500);
    }

    #[test]
    fn zero_bytes_is_free() {
        let mut p = ReservationPipe::new(1_000_000_000);
        assert_eq!(p.reserve_read(42, 0), 42);
        // Nothing was queued: the next read starts at once.
        assert_eq!(p.reserve_read(0, 10), 10);
        assert_eq!(p.bytes(), 10);
    }

    #[test]
    fn rate_determines_duration() {
        let mut fast = ReservationPipe::new(4_000_000_000);
        let mut slow = ReservationPipe::new(1_000_000_000);
        let tf = fast.reserve_read(0, 1 << 20);
        let ts = slow.reserve_read(0, 1 << 20);
        let ratio = ts as f64 / tf as f64;
        assert!((ratio - 4.0).abs() < 0.01);
    }
}
