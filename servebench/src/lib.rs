//! End-to-end loopback benchmark of the RePaGer server.
//!
//! One process boots the real `rpg-server` over the default-scale corpus,
//! drives one workload over loopback HTTP from at most two client threads
//! and two connections, checks every answer against an in-process oracle,
//! and prints each metric by name with its unit. `--trace 1` selects the
//! separate traced run, which replays each request through each layer's
//! public functions and reports the per-layer table. `BENCHMARK.json` at
//! the repository root records the workloads, their rate ladders and
//! latency limits, and which layer metric should move which end-to-end
//! metric.

pub mod drive;
pub mod json;
pub mod oracle;
pub mod plan;
pub mod run;
pub mod trace;

/// Quantile of `values` (`q` in `[0, 1]`), interpolating linearly between
/// the closest ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (below, above) = (position.floor() as usize, position.ceil() as usize);
    let fraction = position - below as f64;
    if fraction == 0.0 {
        sorted[below]
    } else {
        sorted[below] + (sorted[above] - sorted[below]) * fraction
    }
}

/// A quantile robust to bursts of host noise: `values`, in time order, are
/// cut into consecutive windows of [`WINDOW`] samples, and the median of
/// the windows' quantiles is returned. A virtual CPU stalled for a few
/// milliseconds spoils the windows it overlaps, not the estimate. With
/// fewer than two windows' worth it is the plain [`quantile`].
pub fn windowed_quantile(values: &[f64], q: f64) -> f64 {
    if values.len() < 2 * WINDOW {
        return quantile(values, q);
    }
    let per_window: Vec<f64> = values
        .chunks(values.len() / (values.len() / WINDOW))
        .map(|w| quantile(w, q))
        .collect();
    quantile(&per_window, 0.5)
}

/// Samples per window of [`windowed_quantile`].
pub const WINDOW: usize = 100;

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_quantile_shrugs_off_a_burst() {
        // 3000 samples of 1.0 with a burst of 100 slow ones in the middle:
        // the plain p99 lands in the burst, the windowed one does not.
        let mut values = vec![1.0; 3000];
        values[1500..1600].fill(50.0);
        assert_eq!(quantile(&values, 0.99), 50.0);
        assert_eq!(windowed_quantile(&values, 0.99), 1.0);
        // Too few samples for two windows: the plain quantile.
        let few: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(windowed_quantile(&few, 0.95), quantile(&few, 0.95));
    }
}
