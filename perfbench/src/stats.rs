//! The benchmark's own arithmetic: medians, nearest-rank percentiles with
//! their sample counts, and a fixed-size latency histogram.

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A percentile together with the samples it was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: u64,
    /// Samples strictly above the percentile's rank: a p99 over 500
    /// samples has 5 beyond it, too few to trust.
    pub beyond: u64,
}

/// 1-based nearest rank of percentile `q` (0 < q ≤ 100) among `n` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank percentile `q` of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as u64;
    let r = rank(q, n);
    Some(Percentile {
        value: s[(r - 1) as usize],
        count: n,
        beyond: n - r,
    })
}

/// Sub-buckets per power of two. Values below `SUB` are kept exactly.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// One exact range plus one `SUB`-wide range per octave from 2^6 to 2^63.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Log-linear histogram over `u64` samples (nanoseconds here) with a fixed
/// footprint of `BUCKETS` counters, so a million samples cost no more
/// memory than ten.
///
/// Percentile error: a bucket spans at most 1/64 of its lower bound and a
/// percentile reads the bucket's midpoint, so a reported percentile is
/// within 1/128 (0.79%) of the exact nearest-rank sample; values below 64
/// are exact.
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Relative error bound of [`LogHistogram::percentile`].
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        // `v >> shift` lies in [SUB, 2·SUB): the octave's sub-bucket.
        (SUB * (u64::from(shift) + 1) + ((v >> shift) - SUB)) as usize
    }

    /// Midpoint of bucket `i`.
    fn value_of(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let low = (SUB + i % SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `q`, within [`Self::MAX_RELATIVE_ERROR`]
    /// of the exact sample; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<Percentile> {
        if self.total == 0 {
            return None;
        }
        let r = rank(q, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return Some(Percentile {
                    value: Self::value_of(i),
                    count: self.total,
                    beyond: self.total - r,
                });
            }
        }
        unreachable!("the counts sum to total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_reports_rank_and_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!((p99.value, p99.count, p99.beyond), (990.0, 1000, 10));
        let max = percentile(&samples, 100.0).unwrap();
        assert_eq!((max.value, max.beyond), (1000.0, 0));
        // Nearest rank never indexes below the first sample.
        assert_eq!(percentile(&[7.0], 1.0).unwrap().value, 7.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn histogram_is_exact_below_the_sub_bucket_count() {
        let mut h = LogHistogram::default();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            let q = (v + 1) as f64 * 100.0 / SUB as f64;
            assert_eq!(h.percentile(q).unwrap().value, v as f64);
        }
    }

    #[test]
    fn histogram_percentiles_stay_within_the_stated_error() {
        // Spread samples over eight decades, as latencies in ns are.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut exact = Vec::new();
        let mut h = LogHistogram::default();
        for _ in 0..100_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (state >> 33) % (1 << ((state >> 8) % 28));
            exact.push(v as f64);
            h.record(v);
        }
        for q in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let want = percentile(&exact, q).unwrap();
            let got = h.percentile(q).unwrap();
            assert_eq!((got.count, got.beyond), (want.count, want.beyond));
            let err = (got.value - want.value).abs() / want.value;
            assert!(
                err <= LogHistogram::MAX_RELATIVE_ERROR,
                "p{q}: got {} want {} (error {err})",
                got.value,
                want.value
            );
        }
    }

    #[test]
    fn histogram_covers_the_whole_u64_range_and_merges() {
        let mut a = LogHistogram::default();
        a.record(u64::MAX);
        let mut b = LogHistogram::default();
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(50.0).unwrap().value, 1.0);
        let top = a.percentile(100.0).unwrap().value;
        assert!((top - u64::MAX as f64).abs() / (u64::MAX as f64) <= 1.0 / 128.0);
    }
}
