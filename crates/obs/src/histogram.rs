//! The log₂ duration histogram: the registry's third series type, next
//! to [`Counter`](crate::metrics::Counter) and
//! [`Gauge`](crate::metrics::Gauge), and exported as
//! [`crate::metrics::Histogram`].

use crate::metrics::{format_f64, sample_line};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bucket `i` holds samples in `[2^i, 2^(i+1))` nanoseconds,
/// so 48 buckets span 1 ns to ~78 hours — everything above clamps into the
/// last bucket.
const BUCKETS: usize = 48;

/// A log2-bucketed histogram of durations, safe for concurrent recording.
///
/// A fixed array of power-of-two buckets updated with relaxed atomics:
/// recording a sample is one `leading_zeros` and one `fetch_add`, cheap
/// enough to sit on every request's reply path without contending the
/// compute workers. Quantiles are read by walking the bucket counts —
/// approximate (a quantile resolves to its bucket's upper bound, at worst
/// 2x the true value) but monotone and allocation-free, so `/v1/stats` can
/// show that a quiet tenant's p99 stayed flat without perturbing the
/// workload being measured. Get one from
/// [`MetricsRegistry::histogram`](crate::metrics::MetricsRegistry::histogram),
/// which renders it on every scrape.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(ns: u64) -> usize {
        // floor(log2(ns)) with 0 mapped to bucket 0.
        (63 - (ns | 1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one sample. Relaxed ordering: counters are statistics, not
    /// synchronisation, and readers tolerate a momentarily torn view.
    pub fn record(&self, sample: Duration) {
        let ns = sample.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the samples recorded so far.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    /// Mean sample, `None` while empty.
    pub fn mean(&self) -> Option<Duration> {
        let count = self.count();
        (count > 0).then(|| Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / count))
    }

    /// The quantile `q` in `[0, 1]`, resolved to the upper bound of the
    /// bucket holding the rank-`ceil(q * count)` sample; `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Duration::from_nanos(Self::bucket_upper(i)));
            }
        }
        // A racing `record` bumped `count` before its bucket: fall back to
        // the highest non-empty bucket.
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, b)| b.load(Ordering::Relaxed) > 0)
            .map(|(i, _)| Duration::from_nanos(Self::bucket_upper(i)))
    }

    /// Inclusive upper bound of bucket `i` in nanoseconds. The last bucket
    /// absorbs every overflowing sample, so its honest bound is `u64::MAX`
    /// rather than `2^48 - 1`.
    fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Appends the Prometheus view of this histogram: the log₂ bucket
    /// upper bounds become `le` bounds (in seconds), counts become
    /// cumulative, and trailing empty buckets are trimmed. The
    /// all-overflowing last bucket has no honest finite bound, so its mass
    /// shows only through `+Inf`.
    pub(crate) fn render(&self, out: &mut String, name: &str, label_block: &str) {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let highest = counts[..BUCKETS - 1]
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, count) in counts[..highest].iter().enumerate() {
            cumulative += count;
            let le = format_f64(2f64.powi(i as i32 + 1) / 1e9);
            let value = cumulative.to_string();
            sample_line(out, name, "_bucket", label_block, &[("le", &le)], &value);
        }
        let sum = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        // A torn relaxed read can leave `count` behind the buckets: the
        // larger of the two keeps `+Inf` and `_count` consistent.
        let total = self.count().max(cumulative).to_string();
        sample_line(out, name, "_bucket", label_block, &[("le", "+Inf")], &total);
        sample_line(out, name, "_sum", label_block, &[], &format_f64(sum));
        sample_line(out, name, "_count", label_block, &[], &total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_answers_every_quantile_with_its_bucket() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100)); // 100_000 ns → bucket 16
        let expected = Duration::from_nanos((1 << 17) - 1);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(expected), "q={q}");
        }
        assert_eq!(h.mean(), Some(Duration::from_micros(100)));
    }

    #[test]
    fn top_overflow_bucket_clamps_and_still_answers() {
        let h = Histogram::new();
        // Everything past 2^47 ns (~39 h) clamps into the last bucket,
        // including the absurd maximum.
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::from_secs(1_000_000_000));
        assert_eq!(h.count(), 2);
        let p99 = h.quantile(0.99).expect("non-empty");
        // The last bucket's reported upper bound saturates at u64::MAX ns
        // rather than overflowing the shift.
        assert_eq!(p99, Duration::from_nanos(u64::MAX));
        assert!(h.mean().is_some());
    }

    /// The sample lines a registry holding one histogram `h` renders.
    fn rendered(registry: &MetricsRegistry) -> Vec<String> {
        let text = registry.render();
        assert_eq!(crate::promlint::lint(&text), Vec::<String>::new());
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn snapshot_is_cumulative_and_trimmed() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "H.", &[]);
        assert_eq!(
            rendered(&registry),
            ["h_bucket{le=\"+Inf\"} 0", "h_sum 0", "h_count 0"],
            "empty → no finite buckets"
        );
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(3)); // bucket 1

        // Buckets are cumulative, bounds in seconds, trailing zeros trimmed.
        assert_eq!(
            rendered(&registry),
            [
                "h_bucket{le=\"0.000000002\"} 1",
                "h_bucket{le=\"0.000000004\"} 3",
                "h_bucket{le=\"+Inf\"} 3",
                "h_sum 0.000000007",
                "h_count 3",
            ]
        );
    }

    #[test]
    fn overflow_bucket_mass_folds_into_inf_only() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h", "H.", &[]);
        h.record(Duration::from_nanos(u64::MAX)); // last bucket

        // No finite bound can honestly cover the clamp bucket: it renders
        // only through +Inf (i.e. `count`).
        assert_eq!(
            rendered(&registry),
            [
                "h_bucket{le=\"+Inf\"} 1",
                "h_sum 18446744073.709553",
                "h_count 1"
            ]
        );
    }

    #[test]
    fn buckets_are_log2_and_clamped() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_their_samples_from_above_within_2x() {
        let h = Histogram::new();
        for ms in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5).unwrap();
        // The 5th/10 sample is 8 ms: the p50 bucket upper bound must cover
        // it without overshooting 2x.
        assert!(p50 >= Duration::from_millis(8), "{p50:?}");
        assert!(p50 <= Duration::from_millis(16), "{p50:?}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= Duration::from_millis(89), "{p99:?}");
        assert!(p99 <= Duration::from_millis(178), "{p99:?}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1).unwrap() <= p50);
        assert!(p50 <= p99);
        assert!(p99 <= h.quantile(1.0).unwrap());
    }

    #[test]
    fn mean_tracks_the_sum() {
        let h = Histogram::new();
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(30));
        assert_eq!(h.mean(), Some(Duration::from_millis(20)));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_micros(t * 1000 + i));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert!(h.quantile(0.999).is_some());
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use proptest::prelude::*;

    proptest! {
        /// For any sample set and any ordered pair of quantile points,
        /// quantiles are monotone in q and every answered quantile lies in
        /// [max/2, 2*max] bucket bounds of the true samples.
        #[test]
        fn quantiles_are_monotone_and_bounded(
            samples in proptest::collection::vec(1u64..=1_000_000_000_000, 1..200),
            qa_millis in 0u32..=1000,
            qb_millis in 0u32..=1000,
        ) {
            // The vendored proptest shim has no f64 range strategy; derive
            // the quantile points from integer thousandths.
            let qa = qa_millis as f64 / 1000.0;
            let qb = qb_millis as f64 / 1000.0;
            let h = Histogram::new();
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
            }
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let at_lo = h.quantile(lo).expect("non-empty");
            let at_hi = h.quantile(hi).expect("non-empty");
            prop_assert!(at_lo <= at_hi, "q={lo} gave {at_lo:?} > q={hi} {at_hi:?}");
            // Any quantile is bounded by the extremes' bucket bounds: at
            // least the smallest sample's bucket lower bound, at most twice
            // the largest sample (its bucket upper bound).
            let min = *samples.iter().min().unwrap();
            let max = *samples.iter().max().unwrap();
            prop_assert!(at_lo >= Duration::from_nanos(min / 2));
            prop_assert!(at_hi <= Duration::from_nanos(max.saturating_mul(2)));
        }

        /// The rendered histogram is internally consistent for any input:
        /// `le` bounds strictly increase, cumulative counts never decrease,
        /// and `+Inf` equals `_count` equals the number of samples.
        #[test]
        fn snapshots_are_monotone(
            samples in proptest::collection::vec(1u64..=1_000_000_000_000, 0..200),
        ) {
            let registry = MetricsRegistry::new();
            let h = registry.histogram("h", "H.", &[]);
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
            }
            let text = registry.render();
            prop_assert_eq!(crate::promlint::lint(&text), Vec::<String>::new());
            let count = format!("h_count {}\n", samples.len());
            prop_assert!(text.contains(&count), "{text}");
        }
    }
}
