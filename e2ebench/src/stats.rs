//! Order statistics over latency samples.

/// 1-based nearest rank of percentile `p` in `n` samples, `ceil(p·n)`,
/// with the rounding error of `p·n` (90.00000000000001 for 0.9 · 100)
/// taken out.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p < 1) of `samples`; reorders the slice.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    *samples.select_nth_unstable(rank(samples.len(), p) - 1).1
}

/// Median of a few floating-point measurements (mean of the middle two for
/// an even count); 0 for an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest of the reported percentiles (p50, p90, p99, p99.9) that still
/// has at least ten samples beyond it in a set of `n`; `None` if even the
/// median has fewer than ten.
pub fn highest_tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

/// A fixed-capacity sample store for a stream of unknown length: once full,
/// it keeps every other stored sample and doubles its stride, so it always
/// holds an evenly spaced subsample of the whole stream and never allocates
/// after construction.
pub struct Decimator<T> {
    samples: Vec<T>,
    stride: u64,
    seen: u64,
}

impl<T> Decimator<T> {
    /// A store for up to `capacity` samples (at least 2).
    pub fn with_capacity(capacity: usize) -> Self {
        Decimator {
            samples: Vec::with_capacity(capacity.max(2)),
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one sample of the stream.
    pub fn push(&mut self, sample: T) {
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !keep {
            return;
        }
        if self.samples.len() == self.samples.capacity() {
            let mut i = 0;
            self.samples.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
            if !(self.seen - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.samples.push(sample);
    }

    /// The kept samples.
    pub fn into_samples(self) -> Vec<T> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.9), 90);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail_percentile(19), None);
        assert_eq!(highest_tail_percentile(20), Some(0.5));
        assert_eq!(highest_tail_percentile(99), Some(0.5));
        assert_eq!(highest_tail_percentile(100), Some(0.9));
        assert_eq!(highest_tail_percentile(999), Some(0.9));
        assert_eq!(highest_tail_percentile(1000), Some(0.99));
        assert_eq!(highest_tail_percentile(10_000), Some(0.999));
        for n in [20usize, 100, 150, 1000, 5000, 10_000, 123_456] {
            let p = highest_tail_percentile(n).unwrap();
            let mut v: Vec<u64> = (0..n as u64).collect();
            let cut = percentile(&mut v, p);
            let beyond = (0..n as u64).filter(|&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn decimator_keeps_an_even_subsample() {
        let mut d = Decimator::with_capacity(64);
        for x in 0..10_000u64 {
            d.push(x);
        }
        let kept = d.into_samples();
        assert!(kept.len() <= 64 && kept.len() >= 32, "{}", kept.len());
        let stride = kept[1] - kept[0];
        assert!(kept.windows(2).all(|w| w[1] - w[0] == stride));
        assert_eq!(kept[0], 0);
        let mut v = kept.clone();
        let median = percentile(&mut v, 0.5);
        assert!((4000..6000).contains(&median), "{median}");
    }
}
