//! Power-of-two latency histograms and the one Prometheus writer for
//! them.
//!
//! Bucket `i` covers latencies in `(2^(i-1), 2^i]` microseconds (bucket
//! 0 is `[0, 1]`), with the last bucket open-ended. A [`Series`] pairs a
//! histogram with its running sum; every latency series behind
//! `/metrics` — one per served endpoint and one per pipeline stage, all
//! kept by [`crate::stats::StatsRecorder`] — is a `Series` written by
//! [`Series::write`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; the last one is the overflow (`+Inf`) bucket.
pub const BUCKETS: usize = 31;

/// The bucket index for a latency of `us` microseconds.
pub fn bucket_index(us: u64) -> usize {
    (64 - us.saturating_sub(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` in microseconds, or `None`
/// for the open-ended last bucket (rendered as `+Inf`).
pub fn upper_bound(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// A lock-free histogram over power-of-two microsecond buckets.
#[derive(Default)]
pub struct PowHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl PowHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        PowHistogram::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The per-bucket (non-cumulative) counts.
    pub fn counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }
}

/// One latency series: how many observations, their microsecond sum, and
/// their histogram. The count is the histogram's total, so a render
/// reads count, buckets and `+Inf` from one snapshot and they agree even
/// while other threads record.
#[derive(Default)]
pub struct Series {
    sum_us: AtomicU64,
    hist: PowHistogram,
}

impl Series {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.hist.record(us);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.hist.total()
    }

    /// Appends the series as Prometheus text under `label` (for example
    /// `endpoint="map"`): the line `count_name{label} N`, then, when N is
    /// not zero, `name_sum{label}` and the cumulative `name_bucket` lines.
    /// Empty buckets are elided and the open-ended bucket is written once,
    /// as `le="+Inf"` with the value N.
    pub fn write(&self, out: &mut String, count_name: &str, name: &str, label: &str) {
        let counts = self.hist.counts();
        let count: u64 = counts.iter().sum();
        out.push_str(&format!("{count_name}{{{label}}} {count}\n"));
        if count == 0 {
            return;
        }
        out.push_str(&format!(
            "{name}_sum{{{label}}} {}\n",
            self.sum_us.load(Ordering::Relaxed)
        ));
        let mut cumulative = 0;
        for (i, n) in counts.iter().enumerate() {
            cumulative += n;
            match upper_bound(i) {
                Some(le) if *n > 0 => out.push_str(&format!(
                    "{name}_bucket{{{label},le=\"{le}\"}} {cumulative}\n"
                )),
                // Empty, or the open-ended bucket: `+Inf` below covers it.
                _ => {}
            }
        }
        out.push_str(&format!("{name}_bucket{{{label},le=\"+Inf\"}} {count}\n"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_bucket_upper_bound_admits_exactly_its_boundary() {
        for i in 0..BUCKETS - 1 {
            let bound = upper_bound(i).unwrap();
            assert_eq!(bucket_index(bound), i, "bound {bound} must land in bucket {i}");
            assert_eq!(bucket_index(bound + 1), i + 1);
        }
        assert_eq!(upper_bound(BUCKETS - 1), None);
    }

    #[test]
    fn record_accumulates() {
        let h = PowHistogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let counts = h.counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[bucket_index(100)], 1);
        assert_eq!(h.total(), 3);
    }
}
