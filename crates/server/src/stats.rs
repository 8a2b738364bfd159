//! Pipeline timings as lock-free series of the server's one
//! [`MetricsRegistry`]: `GET /metrics` renders them, and `/v1/stats`'s
//! `pipeline` block reads its run count, sums and means back from them.

use crate::histogram::Histogram;
use rpg_obs::metrics::{Counter, MetricsRegistry};
use rpg_repager::stages::{StageCounters, StageTimings, STAGES};
use std::sync::Arc;
use std::time::Duration;

/// Handles to the series every fresh (non-cached) pipeline run records
/// into, registered once at spawn.
pub(crate) struct PipelineMetrics {
    /// One histogram per stage, in [`STAGES`] order.
    stages: [Arc<Histogram>; 5],
    /// The run's total; its count is the number of runs.
    total: Arc<Histogram>,
    /// One counter per [`StageCounters::fields`] name, in that order.
    work: [Counter; 6],
}

impl PipelineMetrics {
    /// Registers the series in `registry`, labelled from [`STAGES`] and
    /// [`StageCounters::fields`].
    pub(crate) fn registered(registry: &MetricsRegistry) -> PipelineMetrics {
        let histogram = |name, help, labels: &[(&str, &str)]| {
            let histogram = Arc::new(Histogram::new());
            registry.register_histogram(name, help, labels, histogram.clone());
            histogram
        };
        PipelineMetrics {
            stages: STAGES.map(|stage| {
                histogram(
                    "rpg_stage_seconds",
                    "Wall-clock time of each pipeline stage, over fresh runs.",
                    &[("stage", stage.name)],
                )
            }),
            total: histogram(
                "rpg_pipeline_seconds",
                "Wall-clock time of fresh pipeline runs.",
                &[],
            ),
            work: StageCounters::default().fields().map(|(name, _)| {
                registry.counter(
                    "rpg_pipeline_work_total",
                    "Pipeline work counters, summed over fresh runs.",
                    &[("counter", name)],
                )
            }),
        }
    }

    /// Records one fresh run.
    pub(crate) fn record(&self, timings: &StageTimings) {
        for (histogram, (_, took)) in self.stages.iter().zip(timings.stages()) {
            histogram.record(took);
        }
        for (counter, (_, value)) in self.work.iter().zip(timings.counters.fields()) {
            counter.add(value);
        }
        self.total.record(timings.total);
    }

    /// Fresh runs recorded so far.
    pub(crate) fn runs(&self) -> u64 {
        self.total.count()
    }

    /// The field-wise sums of every recorded run's timings.
    pub(crate) fn sums(&self) -> StageTimings {
        let mut sums = StageTimings {
            total: self.total.sum(),
            ..StageTimings::default()
        };
        for (sum, histogram) in sums.stages_mut().into_iter().zip(&self.stages) {
            *sum = histogram.sum();
        }
        for (sum, counter) in sums.counters.fields_mut().into_iter().zip(&self.work) {
            *sum = counter.get();
        }
        sums
    }
}

/// The field-wise integer means of `sums` over `runs` (all zero when no
/// run was recorded).
pub(crate) fn mean(sums: &StageTimings, runs: u64) -> StageTimings {
    if runs == 0 {
        return StageTimings::default();
    }
    let per_run = |sum: Duration| Duration::from_nanos((sum.as_nanos() / u128::from(runs)) as u64);
    let mut mean = *sums;
    for stage in mean.stages_mut() {
        *stage = per_run(*stage);
    }
    mean.total = per_run(mean.total);
    for counter in mean.counters.fields_mut() {
        *counter /= runs;
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timings(ms: u64) -> StageTimings {
        StageTimings {
            seed: Duration::from_millis(ms),
            subgraph: Duration::from_millis(2 * ms),
            realloc: Duration::from_millis(3 * ms),
            steiner: Duration::from_millis(4 * ms),
            render: Duration::from_millis(5 * ms),
            total: Duration::from_millis(16 * ms),
            counters: StageCounters {
                steiner_runs: ms,
                steiner_paths_expanded: 2 * ms,
                steiner_paths_skipped: 3 * ms,
                steiner_pruned_leaves: 4 * ms,
                scratch_allocations: 5 * ms,
                realloc_retries: ms,
            },
        }
    }

    /// A fresh registry's series with one run recorded per entry of `ms`.
    fn recorded(ms: &[u64]) -> PipelineMetrics {
        let metrics = PipelineMetrics::registered(&MetricsRegistry::new());
        for &ms in ms {
            metrics.record(&timings(ms));
        }
        metrics
    }

    #[test]
    fn counters_aggregate_and_average() {
        let metrics = recorded(&[2, 4]);
        let sums = metrics.sums();
        assert_eq!(sums.counters.steiner_runs, 6);
        assert_eq!(sums.counters.scratch_allocations, 30);
        let means = mean(&sums, metrics.runs());
        assert_eq!(means.counters.steiner_runs, 3);
        assert_eq!(means.counters.steiner_paths_expanded, 6);
    }

    #[test]
    fn record_accumulates_field_wise() {
        let metrics = recorded(&[]);
        assert_eq!(metrics.runs(), 0);
        metrics.record(&timings(1));
        metrics.record(&timings(3));
        assert_eq!(metrics.runs(), 2);
        let sums = metrics.sums();
        assert_eq!(sums.seed, Duration::from_millis(4));
        assert_eq!(sums.steiner, Duration::from_millis(16));
        assert_eq!(sums.total, Duration::from_millis(64));
    }

    #[test]
    fn means_divide_by_request_count() {
        let metrics = recorded(&[2, 4]);
        let means = mean(&metrics.sums(), metrics.runs());
        assert_eq!(means.total, Duration::from_millis(48));
        let stages = means.stages();
        assert_eq!(stages[0], ("seed", Duration::from_millis(3)));
        assert_eq!(stages[4], ("render", Duration::from_millis(15)));
        // Integer division of the nanosecond sums, as `Duration / u32`.
        let odd = StageTimings {
            total: Duration::from_nanos(7),
            ..StageTimings::default()
        };
        assert_eq!(mean(&odd, 2).total, Duration::from_nanos(7) / 2);
    }

    #[test]
    fn empty_aggregate_reports_zero_means() {
        let metrics = recorded(&[]);
        let means = mean(&metrics.sums(), metrics.runs());
        assert_eq!(means, StageTimings::default());
        assert_eq!(mean(&timings(1), 0), StageTimings::default());
    }

    #[test]
    fn series_render_per_stage_and_per_counter() {
        let registry = MetricsRegistry::new();
        PipelineMetrics::registered(&registry).record(&timings(1));
        let text = registry.render();
        for stage in STAGES {
            let series = format!("rpg_stage_seconds_count{{stage=\"{}\"}} 1\n", stage.name);
            assert!(text.contains(&series), "{series}");
        }
        assert!(text.contains("rpg_pipeline_seconds_count 1\n"));
        assert!(text.contains("rpg_pipeline_work_total{counter=\"scratch_allocations\"} 5\n"));
        assert!(rpg_obs::promlint::lint(&text).is_empty());
    }
}
