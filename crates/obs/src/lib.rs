//! Std-only observability layer shared by the pipeline, the service
//! registry, and the HTTP server.
//!
//! Three pillars, deliberately dependency-free so every crate in the
//! workspace (down to `rpg-repager`, which knows nothing about HTTP) can
//! link against it:
//!
//! * [`trace`] — 128-bit trace IDs (wire form: 32 lowercase hex chars in
//!   the `x-rpg-trace-id` header), a [`trace::SpanRecorder`] that captures
//!   the timed span tree of one request (queue wait, the five pipeline
//!   stages, compute, response write), and a bounded [`trace::TraceLog`]
//!   ring of slow-request exemplars behind one short-held mutex.
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of named counter /
//!   gauge / histogram families with label sets, rendered as Prometheus
//!   text exposition format 0.0.4. Callers hold cheap `Arc`-backed handles
//!   ([`metrics::Counter`], [`metrics::Gauge`], and the log₂ duration
//!   [`metrics::Histogram`]) and bump atomics on the hot path; the
//!   registry mutex is only taken at registration and render time.
//! * [`log`] — a leveled, rate-limited JSON-lines logger with an atomic
//!   level (safe to swap from a SIGHUP reload path) and a thread-local
//!   trace-ID context so request-scoped events correlate with traces.
//!
//! [`promlint`] is the in-repo exposition-format checker CI uses instead
//! of an external `promtool`.

mod histogram;
pub mod log;
pub mod metrics;
pub mod promlint;
pub mod trace;

/// Appends `text` to `out` with JSON string escaping (quotes, backslash,
/// control characters) for the logger's JSON lines; does not write the
/// surrounding quotes.
pub fn json_escape_into(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
