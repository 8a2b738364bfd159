//! Every series the server exports, registered in its one
//! [`MetricsRegistry`]: [`Counters`] holds the server-wide series,
//! [`TenantMetrics`] one tenant's, and [`PipelineMetrics`] the timings of
//! fresh pipeline runs. `GET /metrics` renders them all, and `/v1/stats`
//! reads the same handles back.

use rpg_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use rpg_repager::stages::{StageCounters, StageTimings, STAGES};
use std::sync::Arc;
use std::time::Duration;

/// The server-wide counters, every one a handle into the shared
/// [`MetricsRegistry`]: the request path bumps the same atomics that
/// `GET /metrics` and `/v1/stats` render, so the two views can never
/// disagree. The gauges and cache counters are *sampled* at scrape time
/// from their authoritative sources (the open-connection count, the fair
/// queue, the result cache) rather than double-bookkept on the hot path.
pub(crate) struct Counters {
    pub(crate) accepted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) throttled: Counter,
    pub(crate) ok: Counter,
    pub(crate) client_errors: Counter,
    pub(crate) server_errors: Counter,
    pub(crate) open_connections: Gauge,
    pub(crate) queue_depth: Gauge,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_entries: Gauge,
    pub(crate) pipeline: PipelineMetrics,
}

impl Counters {
    pub(crate) fn registered(registry: &MetricsRegistry) -> Counters {
        let class = |class| {
            registry.counter(
                "rpg_responses_total",
                "HTTP responses completed, by status class.",
                &[("class", class)],
            )
        };
        Counters {
            accepted: registry.counter(
                "rpg_connections_accepted_total",
                "Connections accepted off the listener.",
                &[],
            ),
            rejected: registry.counter(
                "rpg_requests_rejected_total",
                "Requests rejected with 503: connection overflow or a full global queue.",
                &[],
            ),
            throttled: registry.counter(
                "rpg_requests_throttled_total",
                "Requests rejected with 429 because their tenant's sub-queue was full.",
                &[],
            ),
            ok: class("2xx"),
            client_errors: class("4xx"),
            server_errors: class("5xx"),
            open_connections: registry.gauge(
                "rpg_connections_open",
                "Connections currently open across all event loops.",
                &[],
            ),
            queue_depth: registry.gauge(
                "rpg_queue_depth",
                "Pipeline requests currently queued for compute, across all tenants.",
                &[],
            ),
            cache_hits: registry.counter(
                "rpg_cache_hits_total",
                "Requests answered from the result cache.",
                &[],
            ),
            cache_misses: registry.counter(
                "rpg_cache_misses_total",
                "Requests that ran the pipeline because no cached result matched.",
                &[],
            ),
            cache_entries: registry.gauge(
                "rpg_cache_entries",
                "Results currently held by the shared LRU cache.",
                &[],
            ),
            pipeline: PipelineMetrics::registered(registry),
        }
    }
}

/// Per-tenant overload counters: the latency histogram plus how often the
/// tenant's work was shed by a deadline (blown before compute, or
/// mid-compute between pipeline stages) or cancelled mid-flight (client
/// gone).
///
/// Every field is a handle into the server's shared
/// [`MetricsRegistry`], registered with a `tenant` label — `/v1/stats`
/// and `/metrics` read the very same atomics the request path bumps.
pub(crate) struct TenantMetrics {
    /// Admission-to-reply latency of completed requests.
    pub(crate) latency: Arc<Histogram>,
    /// Requests dropped by a deadline check — before compute or between
    /// pipeline stages (every mid-compute shed also counts here, so this
    /// stays the tenant's total).
    pub(crate) shed: Counter,
    /// The subset of `shed` whose deadline blew *mid-compute*: the
    /// pipeline had already started and dropped its remaining stages at an
    /// inter-stage check.
    pub(crate) shed_mid_compute: Counter,
    /// Requests whose compute was cancelled by client abandonment.
    pub(crate) cancelled: Counter,
}

impl TenantMetrics {
    /// This tenant's metric handles inside `registry`, labelled
    /// `tenant=<name>`. Called once per tenant, on its first request.
    pub(crate) fn registered(registry: &MetricsRegistry, tenant: &str) -> TenantMetrics {
        let labels = &[("tenant", tenant)];
        TenantMetrics {
            latency: registry.histogram(
                "rpg_request_latency_seconds",
                "Admission-to-reply latency of completed requests.",
                labels,
            ),
            shed: registry.counter(
                "rpg_requests_shed_total",
                "Requests dropped by a deadline check, queued or mid-compute.",
                labels,
            ),
            shed_mid_compute: registry.counter(
                "rpg_requests_shed_mid_compute_total",
                "Deadline sheds that happened between pipeline stages.",
                labels,
            ),
            cancelled: registry.counter(
                "rpg_requests_cancelled_total",
                "Requests whose compute was cancelled by client abandonment.",
                labels,
            ),
        }
    }
}

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
        PipelineMetrics {
            stages: STAGES.map(|stage| {
                registry.histogram(
                    "rpg_stage_seconds",
                    "Wall-clock time of each pipeline stage, over fresh runs.",
                    &[("stage", stage.name)],
                )
            }),
            total: registry.histogram(
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
