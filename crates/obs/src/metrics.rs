//! The unified metrics registry: named counter / gauge / histogram
//! families with label sets, rendered as Prometheus text exposition
//! format 0.0.4.
//!
//! Hot-path ergonomics drive the design: callers register once and keep
//! cheap `Arc`-backed handles ([`Counter`], [`Gauge`], [`Histogram`])
//! whose updates are single atomic ops — the registry mutex is taken only
//! at registration and render time, and a scrape reads the very atomics
//! the request path bumps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::histogram::Histogram;

/// A monotonically-increasing counter handle. Clones share the same
/// underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value. For scrape-time sampling of counters whose
    /// authoritative source lives elsewhere (e.g. cache hit totals inside
    /// the registry's `CorpusRegistry`); the sampled source must itself be
    /// monotone or Prometheus rate() math breaks.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down). Clones share the
/// same underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    /// A fresh series of this kind.
    fn series(self) -> Series {
        match self {
            Kind::Counter => Series::Counter(Counter::default()),
            Kind::Gauge => Series::Gauge(Gauge::default()),
            Kind::Histogram => Series::Histogram(Arc::default()),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

struct Family {
    kind: Kind,
    help: String,
    /// Keyed by the rendered label block (`{a="x",b="y"}` or empty) so
    /// series render in a stable order.
    series: BTreeMap<String, Series>,
}

/// The process-wide registry of metric families. One instance is shared
/// by everything that records or renders metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter for `name` + `labels`, registering the family
    /// (with `help`) and the series on first use. Panics if `name` is
    /// already registered as a different kind, or if the name/labels are
    /// not valid Prometheus identifiers — both are programmer errors
    /// caught at startup, not data-dependent conditions.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, Kind::Counter) {
            Series::Counter(counter) => counter,
            _ => unreachable!("family kind checked at registration"),
        }
    }

    /// Returns the gauge for `name` + `labels`, registering on first use.
    /// Same panics as [`counter`](Self::counter).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, Kind::Gauge) {
            Series::Gauge(gauge) => gauge,
            _ => unreachable!("family kind checked at registration"),
        }
    }

    /// Returns the histogram for `name` + `labels`, registering on first
    /// use. Same panics as [`counter`](Self::counter).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.series(name, help, labels, Kind::Histogram) {
            Series::Histogram(histogram) => histogram,
            _ => unreachable!("family kind checked at registration"),
        }
    }

    /// A handle to the series for `name` + `labels`, registered as a fresh
    /// `kind` series on first use.
    fn series(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: Kind) -> Series {
        let key = label_key(labels);
        let mut families = self.lock();
        let family = Self::family_entry(&mut families, name, help, kind);
        family
            .series
            .entry(key)
            .or_insert_with(|| kind.series())
            .clone()
    }

    fn family_entry<'a>(
        families: &'a mut BTreeMap<String, Family>,
        name: &str,
        help: &str,
        kind: Kind,
    ) -> &'a mut Family {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Family>> {
        match self.families.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Renders every family as Prometheus text exposition format 0.0.4:
    /// `# HELP` / `# TYPE` headers, one sample line per series, histograms
    /// expanded into cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`. Families and series render in name order.
    pub fn render(&self) -> String {
        let families = self.lock();
        let mut out = String::with_capacity(4096);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            escape_help_into(&mut out, &family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (label_block, series) in family.series.iter() {
                let value = match series {
                    Series::Counter(counter) => counter.get().to_string(),
                    Series::Gauge(gauge) => gauge.get().to_string(),
                    Series::Histogram(histogram) => {
                        histogram.render(&mut out, name, label_block);
                        continue;
                    }
                };
                sample_line(&mut out, name, "", label_block, &[], &value);
            }
        }
        out
    }
}

/// Formats an f64 the way Prometheus parsers expect: plain decimal,
/// never Rust's `inf`/`NaN` spellings.
pub(crate) fn format_f64(value: f64) -> String {
    if value.is_infinite() {
        return if value > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if value.is_nan() {
        return "NaN".to_string();
    }
    format!("{value}")
}

/// One `name[suffix]{labels} value` line. `label_block` is the
/// pre-rendered registration labels (may be empty); `extra` labels (the
/// histogram `le`) are appended inside the same braces.
pub(crate) fn sample_line(
    out: &mut String,
    name: &str,
    suffix: &str,
    label_block: &str,
    extra: &[(&str, &str)],
    value: &str,
) {
    out.push_str(name);
    out.push_str(suffix);
    if !label_block.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(label_block);
        for (i, (key, val)) in extra.iter().enumerate() {
            if !label_block.is_empty() || i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push_str("=\"");
            escape_label_into(out, val);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Renders a sorted, escaped label block body (no braces). Panics on
/// invalid label names — a programmer error at registration time.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::new();
    for (i, (key, value)) in sorted.iter().enumerate() {
        assert!(valid_label_name(key), "invalid label name {key:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        escape_label_into(&mut out, value);
        out.push('"');
    }
    out
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Prometheus label names: `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn valid_label_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Label-value escaping: backslash, double-quote, and newline.
fn escape_label_into(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// HELP-text escaping: backslash and newline (quotes are legal there).
fn escape_help_into(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_render_with_labels() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("rpg_requests_total", "Requests.", &[("tenant", "alpha")]);
        c.add(3);
        let g = registry.gauge("rpg_connections_open", "Open connections.", &[]);
        g.set(7);
        // Same (name, labels) returns the same underlying atomic.
        registry
            .counter("rpg_requests_total", "Requests.", &[("tenant", "alpha")])
            .inc();
        assert_eq!(c.get(), 4);

        let text = registry.render();
        assert!(text.contains("# HELP rpg_requests_total Requests.\n"));
        assert!(text.contains("# TYPE rpg_requests_total counter\n"));
        assert!(text.contains("rpg_requests_total{tenant=\"alpha\"} 4\n"));
        assert!(text.contains("# TYPE rpg_connections_open gauge\n"));
        assert!(text.contains("rpg_connections_open 7\n"));
    }

    #[test]
    fn histograms_render_cumulative_buckets_sum_count() {
        let registry = MetricsRegistry::new();
        let labels = &[("tenant", "alpha")];
        let h = registry.histogram("rpg_latency_seconds", "Latency.", labels);
        for ms in [1, 1, 3, 3, 3] {
            h.record(Duration::from_millis(ms));
        }
        // Same (name, labels) returns the same histogram.
        let again = registry.histogram("rpg_latency_seconds", "Latency.", labels);
        assert!(Arc::ptr_eq(&h, &again));
        let text = registry.render();
        assert!(text.contains("# TYPE rpg_latency_seconds histogram\n"));
        let bucket = |le: &str, count: u64| {
            format!("rpg_latency_seconds_bucket{{tenant=\"alpha\",le=\"{le}\"}} {count}\n")
        };
        assert!(text.contains(&bucket("0.001048576", 2)));
        assert!(text.contains(&bucket("0.002097152", 2)));
        assert!(text.contains(&bucket("0.004194304", 5)));
        assert!(text.contains(&bucket("+Inf", 5)));
        assert!(text.contains("rpg_latency_seconds_sum{tenant=\"alpha\"} 0.011\n"));
        assert!(text.contains("rpg_latency_seconds_count{tenant=\"alpha\"} 5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter("rpg_odd_total", "Odd.", &[("tenant", "a\"b\\c\nd")])
            .inc();
        let text = registry.render();
        assert!(text.contains("rpg_odd_total{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn label_order_is_canonical() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("rpg_pair_total", "Pair.", &[("b", "2"), ("a", "1")]);
        let b = registry.counter("rpg_pair_total", "Pair.", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "label order must not split the series");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("rpg_thing", "Thing.", &[]);
        registry.gauge("rpg_thing", "Thing.", &[]);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("rpg_requests_total"));
        assert!(valid_metric_name("a:b_c1"));
        assert!(!valid_metric_name("1abc"));
        assert!(!valid_metric_name("a-b"));
        assert!(!valid_metric_name(""));
        assert!(valid_label_name("tenant"));
        assert!(!valid_label_name("le-gal"));
        assert!(!valid_label_name("9lives"));
    }

    /// The whole exposition of a fresh registry, byte for byte: each `le`
    /// is 2^(i+1) ns in seconds, counts are cumulative, trailing empty
    /// buckets are trimmed, the overflow bucket shows only through `+Inf`,
    /// and `_sum` is the nanosecond sum over 1e9.
    #[test]
    fn exposition_bytes_are_pinned() {
        let registry = MetricsRegistry::new();
        registry
            .counter("rpg_a_total", "A.", &[("tenant", "t")])
            .add(3);
        registry.gauge("rpg_b", "B.", &[]).set(-2);
        let c = registry.histogram("rpg_c_seconds", "C.", &[("tenant", "t")]);
        registry.histogram("rpg_d_seconds", "D.", &[]);
        for ns in [0, 1, 3, 3, 1_500, 2_000_000, 123_456_789] {
            c.record(Duration::from_nanos(ns));
        }
        c.record(Duration::from_secs(200_000));
        assert_eq!(registry.render(), EXPOSITION);
    }

    const EXPOSITION: &str = "\
# HELP rpg_a_total A.
# TYPE rpg_a_total counter
rpg_a_total{tenant=\"t\"} 3
# HELP rpg_b B.
# TYPE rpg_b gauge
rpg_b -2
# HELP rpg_c_seconds C.
# TYPE rpg_c_seconds histogram
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000002\"} 2
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000004\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000008\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000016\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000032\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000064\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000128\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000256\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000000512\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000001024\"} 4
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000002048\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000004096\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000008192\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000016384\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000032768\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000065536\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000131072\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000262144\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.000524288\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.001048576\"} 5
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.002097152\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.004194304\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.008388608\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.016777216\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.033554432\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.067108864\"} 6
rpg_c_seconds_bucket{tenant=\"t\",le=\"0.134217728\"} 7
rpg_c_seconds_bucket{tenant=\"t\",le=\"+Inf\"} 8
rpg_c_seconds_sum{tenant=\"t\"} 200000.125458296
rpg_c_seconds_count{tenant=\"t\"} 8
# HELP rpg_d_seconds D.
# TYPE rpg_d_seconds histogram
rpg_d_seconds_bucket{le=\"+Inf\"} 0
rpg_d_seconds_sum 0
rpg_d_seconds_count 0
";
}
