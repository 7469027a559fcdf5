//! Exact order statistics and the virtual-time digest.
//!
//! Every virtual-time percentile the benchmark reports is an order
//! statistic of its own per-call stamps, never a histogram estimate: the
//! telemetry plane's log2 buckets can be off by up to 2x, which would hide
//! any gain smaller than that.

/// A quantile as the exact fraction `num / den` (e.g. p999 = 999/1000), so
/// rank arithmetic stays in integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quantile {
    pub num: u64,
    pub den: u64,
}

pub const P50: Quantile = Quantile { num: 1, den: 2 };
pub const P99: Quantile = Quantile { num: 99, den: 100 };
pub const P999: Quantile = Quantile {
    num: 999,
    den: 1000,
};

/// How many samples must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q` of all samples at or below it. `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it, so a percentile is never reported
/// from too few samples.
pub fn quantile<T: Copy>(sorted: &[T], q: Quantile) -> Option<T> {
    let n = sorted.len() as u64;
    assert!(q.num < q.den && q.den > 0, "quantile must lie in (0, 1)");
    // rank = ceil(n * q), 1-based.
    let rank = (n * q.num).div_ceil(q.den);
    if rank == 0 || n - rank < MIN_BEYOND as u64 {
        return None;
    }
    Some(sorted[(rank - 1) as usize])
}

/// Median of host-time readings (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// FNV-1a over a stream of `u64`s: the digest of every span's virtual
/// start and end, in the order the spans closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantile_of(samples: &mut [u64], q: Quantile) -> Option<u64> {
        samples.sort_unstable();
        quantile(samples, q)
    }

    #[test]
    fn nearest_rank_on_known_samples() {
        // 1..=1000: p50 is the 500th value, p99 the 990th.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, P50), Some(500));
        assert_eq!(quantile(&v, P99), Some(990));
        // p999 of 1000 samples has one sample beyond it: not reportable.
        assert_eq!(quantile(&v, P999), None);
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(quantile(&v, P999), Some(9990));
        let short: Vec<u64> = (1..=9_999).collect();
        assert_eq!(quantile(&short, P999), None);
    }

    #[test]
    fn exact_where_a_log2_histogram_is_not() {
        // Values straddling one power-of-two bucket: a log2 histogram
        // answers the bucket edge for both, the order statistic does not.
        let mut v: Vec<u64> = (0..100).map(|i| 300_000 + i * 1_000).collect();
        v.reverse();
        assert_eq!(quantile_of(&mut v, P50), Some(349_000));
        assert_eq!(quantile_of(&mut v, P99), None);
        let mut big: Vec<u64> = (0..2_000).map(|i| 300_000 + i * 100).collect();
        assert_eq!(quantile_of(&mut big, P99), Some(300_000 + 1_979 * 100));
    }

    #[test]
    fn ties_and_unsorted_input() {
        let mut v = vec![7u64; 30];
        v.extend([1, 2, 3]);
        assert_eq!(quantile_of(&mut v, P50), Some(7));
        let mut w = vec![5u64, 1, 4, 2, 3];
        w.extend(std::iter::repeat_n(9, 20));
        // 25 samples: rank ceil(12.5) = 13 -> 9 (five smaller values first).
        assert_eq!(quantile_of(&mut w, P50), Some(9));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.push(1);
        c.push(2);
        assert_eq!(a, c);
    }
}
