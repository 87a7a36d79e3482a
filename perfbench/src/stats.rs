//! The benchmark's own arithmetic, kept in one place so it is unit
//! tested: order statistics, the regulator's inflation ratio, pipe busy
//! time, the failure share and the seeded input generator.

/// Median of `xs`, the mean of the middle pair for an even count; 0 when
/// empty (a strategy with no sample, which already failed the run).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of all samples at or below it; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Modelled duration of one `Memory::charge` of `bytes`, reserved the
/// way `hetmem::BandwidthRegulator` reserves it: each slice of at most
/// `slice` bytes costs `ceil(bytes · 1e9 / rate)` ns, and the charge
/// pays `overhead_ns` once.
pub fn modelled_charge_ns(bytes: u64, rate: u64, slice: u64, overhead_ns: u64) -> u64 {
    let slice_ns = |b: u64| (b as f64 * 1e9 / rate as f64).ceil() as u64;
    overhead_ns + (bytes / slice) * slice_ns(slice) + slice_ns(bytes % slice)
}

/// Regulator inflation: wall time actually spent over modelled time
/// (1.0 is a regulator whose charges take exactly what they model).
pub fn inflation(actual_ns: u64, modelled_ns: u64) -> f64 {
    ratio(actual_ns as f64, modelled_ns as f64)
}

/// Time a node's pipe spends streaming `bytes` at `rate` bytes/s, ns.
pub fn pipe_ns(bytes: u64, rate: u64) -> f64 {
    ratio(bytes as f64 * 1e9, rate as f64)
}

/// Share of attempted tasks that failed.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    ratio(failed as f64, attempted as f64)
}

/// SplitMix64, the generator behind every seeded benchmark input.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn modelled_charge_follows_the_regulator_slicing() {
        // 1 byte per ns: 250 B in slices of 100 is 100 + 100 + 50 ns,
        // plus the per-charge overhead once.
        assert_eq!(modelled_charge_ns(250, 1_000_000_000, 100, 7), 257);
        assert_eq!(modelled_charge_ns(200, 1_000_000_000, 100, 0), 200);
        assert_eq!(modelled_charge_ns(0, 1_000_000_000, 100, 7), 7);
        // A partial slice rounds up to the next nanosecond.
        assert_eq!(modelled_charge_ns(1, 3_000_000_000, 100, 0), 1);
    }

    #[test]
    fn inflation_is_actual_over_modelled() {
        assert!((inflation(230, 100) - 2.3).abs() < 1e-12);
        assert_eq!(inflation(100, 100), 1.0);
        assert_eq!(inflation(5, 0), 0.0);
    }

    #[test]
    fn pipe_time_and_busy_fraction() {
        // 90 MiB at 90 MiB/s keeps the pipe busy for one second; over a
        // four-second makespan that is a quarter.
        let busy = pipe_ns(90 << 20, 90 << 20);
        assert_eq!(busy, 1e9);
        assert_eq!(ratio(busy, 4e9), 0.25);
        assert_eq!(pipe_ns(1, 0), 0.0);
    }

    #[test]
    fn failure_share_counts_against_attempted() {
        assert_eq!(failure_share(0, 10), 0.0);
        assert_eq!(failure_share(5, 10), 0.5);
        assert_eq!(failure_share(0, 0), 0.0);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = SplitMix(7).permutation(64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_eq!(a, SplitMix(7).permutation(64));
        assert_ne!(a, SplitMix(8).permutation(64));
    }
}
