//! Loopback coverage of the observability layer: the `x-rpg-trace-id`
//! contract (echo on every response class, minting, 400 on malformed IDs),
//! the slow-request exemplar ring behind `GET /v1/debug/requests` with its
//! full span tree, and the `/metrics` Prometheus exposition — linted by the
//! in-repo checker and cross-checked against `/v1/stats`, which reads the
//! same registry atomics.

mod common;

use common::{
    demo_queries, demo_registry, demo_registry_without_cache, generate_body, get_with_key,
    post_json_with_key, request_with_key, spawn, spawn_manifest_server, spawn_with, tenant_query,
    ADMIN_KEY, ALPHA_KEY,
};
use rpg_server::client::{self, ClientResponse};
use serde_json::Value;

/// A caller-supplied trace ID (32 lowercase hex chars, not all zero).
const TRACE_ID: &str = "4bf92f3577b34da6a3ce929d0e0e4736";

fn parse_json(response: &ClientResponse) -> Value {
    serde_json::from_str(&response.body)
        .unwrap_or_else(|e| panic!("body is JSON ({e:?}): {}", response.body))
}

/// Extracts the value of one exposition sample line, e.g.
/// `sample_value(text, "rpg_responses_total{class=\"2xx\"}")`.
fn sample_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.trim().parse().ok()
    })
}

#[test]
fn responses_echo_the_supplied_trace_id() {
    let server = spawn(demo_registry(), 2, 16);
    let (query, year) = demo_queries(1).remove(0);
    let response = client::request_with(
        server.addr(),
        "POST",
        "/v1/generate",
        Some(&generate_body(&query, year, 10)),
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-rpg-trace-id"), Some(TRACE_ID));
}

#[test]
fn responses_without_the_header_get_a_minted_trace_id() {
    let server = spawn(demo_registry(), 2, 16);
    let response = client::get(server.addr(), "/v1/healthz").unwrap();
    assert_eq!(response.status, 200);
    let id = response
        .header("x-rpg-trace-id")
        .expect("every response carries a trace ID");
    assert_eq!(id.len(), 32, "minted ID is 32 hex chars: {id:?}");
    assert!(id
        .chars()
        .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    assert!(id.chars().any(|c| c != '0'), "minted ID is never all-zero");
}

#[test]
fn error_responses_echo_the_trace_id_too() {
    let server = spawn(demo_registry(), 2, 16);
    // 404: unknown route.
    let response = client::request_with(
        server.addr(),
        "GET",
        "/v1/no-such-endpoint",
        None,
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(response.status, 404);
    assert_eq!(response.header("x-rpg-trace-id"), Some(TRACE_ID));
    // 400: unparseable body.
    let response = client::request_with(
        server.addr(),
        "POST",
        "/v1/generate",
        Some("{not json"),
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.header("x-rpg-trace-id"), Some(TRACE_ID));
}

#[test]
fn malformed_trace_ids_get_a_400_naming_the_header() {
    let server = spawn(demo_registry(), 2, 16);
    let long = "a".repeat(33);
    let zero = "0".repeat(32);
    for bad in ["zz", "1234", long.as_str(), zero.as_str()] {
        let response = client::request_with(
            server.addr(),
            "GET",
            "/v1/healthz",
            None,
            &[("x-rpg-trace-id", bad)],
        )
        .unwrap();
        assert_eq!(response.status, 400, "trace id {bad:?}");
        assert!(
            response.body.contains("x-rpg-trace-id"),
            "400 body names the offending header: {}",
            response.body
        );
        // The reject itself still carries a (minted) trace ID so the
        // failure is correlatable.
        let minted = response.header("x-rpg-trace-id").expect("minted trace ID");
        assert_eq!(minted.len(), 32);
        assert_ne!(minted, bad);
    }
}

#[test]
fn rejector_503s_echo_the_supplied_trace_id() {
    // One allowed connection; the second one lands on the rejector thread,
    // which sniffs the request head for the trace header before answering.
    let server = spawn_with(demo_registry(), |config| {
        config.max_connections = 1;
        // The occupant must stay open after its exchange regardless of the
        // ambient suite-wide connection mode.
        config.keep_alive = true;
    });
    let mut occupant = client::Conn::connect(server.addr()).unwrap();
    assert_eq!(occupant.get("/v1/healthz").unwrap().status, 200);
    let rejected = client::request_with(
        server.addr(),
        "GET",
        "/v1/healthz",
        None,
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.header("x-rpg-trace-id"), Some(TRACE_ID));
    drop(occupant);
}

#[test]
fn metrics_exposition_is_lint_clean_and_agrees_with_stats() {
    let server = spawn(demo_registry(), 2, 16);
    let (query, year) = demo_queries(1).remove(0);
    for _ in 0..3 {
        let response = client::post_json(
            server.addr(),
            "/v1/generate",
            &generate_body(&query, year, 10),
        )
        .unwrap();
        assert_eq!(response.status, 200);
    }
    assert_eq!(client::get(server.addr(), "/v1/nope").unwrap().status, 404);

    let stats = parse_json(&client::get(server.addr(), "/v1/stats").unwrap());
    let scrape = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    assert!(
        scrape
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")),
        "exposition content type: {:?}",
        scrape.header("content-type")
    );
    let problems = rpg_obs::promlint::lint(&scrape.body);
    assert!(problems.is_empty(), "exposition lint: {problems:?}");

    // `/metrics` and `/v1/stats` read the very same registry atomics; the
    // only drift between the two reads is the `/v1/stats` exchange itself
    // (one more 2xx by scrape time).
    let responses = stats.get("responses").expect("responses section");
    let stats_ok = responses.get("ok").and_then(Value::as_f64).unwrap();
    let stats_4xx = responses
        .get("client_error")
        .and_then(Value::as_f64)
        .unwrap();
    let metric_2xx = sample_value(&scrape.body, "rpg_responses_total{class=\"2xx\"}")
        .expect("2xx series rendered");
    let metric_4xx = sample_value(&scrape.body, "rpg_responses_total{class=\"4xx\"}")
        .expect("4xx series rendered");
    assert_eq!(metric_2xx, stats_ok + 1.0);
    assert_eq!(metric_4xx, stats_4xx);
    // The per-tenant latency histogram covers the generate requests.
    let latency_count = sample_value(
        &scrape.body,
        "rpg_request_latency_seconds_count{tenant=\"default\"}",
    )
    .expect("latency histogram rendered");
    assert_eq!(latency_count, 3.0);

    // The three identical generates made one pipeline run (the other two
    // were cache hits), and `/v1/stats`'s pipeline block reads the same
    // series `/metrics` renders.
    let pipeline = stats.get("pipeline").expect("pipeline section");
    let sum = pipeline.get("sum").expect("pipeline sums");
    assert_eq!(pipeline.get("requests").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        sample_value(&scrape.body, "rpg_pipeline_seconds_count"),
        Some(1.0)
    );
    assert_eq!(server.stats().pipeline_runs, 1);
    for stage in ["seed", "subgraph", "realloc", "steiner", "render"] {
        let series = format!("rpg_stage_seconds_sum{{stage=\"{stage}\"}}");
        let metric_us = sample_value(&scrape.body, &series)
            .unwrap_or_else(|| panic!("{series} rendered"))
            * 1e6;
        let stats_us = sum
            .get(&format!("{stage}_us"))
            .and_then(Value::as_f64)
            .unwrap();
        assert!(
            (metric_us - stats_us).abs() <= 1.0,
            "{stage}: /metrics {metric_us} µs, /v1/stats {stats_us} µs"
        );
    }
    let steiner_runs = sum
        .get("counters")
        .and_then(|c| c.get("steiner_runs"))
        .and_then(Value::as_f64);
    assert_eq!(
        sample_value(
            &scrape.body,
            "rpg_pipeline_work_total{counter=\"steiner_runs\"}"
        ),
        steiner_runs
    );
}

#[test]
fn debug_requests_resolve_a_trace_with_its_full_span_tree() {
    // Default config: slow threshold 0 ms retains an exemplar for every
    // request. Cache is disabled so the pipeline (and its stage spans)
    // actually runs.
    let server = spawn(demo_registry_without_cache(), 2, 16);
    let (query, year) = demo_queries(1).remove(0);
    let response = client::request_with(
        server.addr(),
        "POST",
        "/v1/generate",
        Some(&generate_body(&query, year, 10)),
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(response.status, 200);

    let debug = client::get(server.addr(), "/v1/debug/requests").unwrap();
    assert_eq!(debug.status, 200);
    let body = parse_json(&debug);
    let requests = body
        .get("requests")
        .and_then(Value::as_array)
        .expect("requests array");
    let record = requests
        .iter()
        .find(|r| r.get("trace_id").and_then(Value::as_str) == Some(TRACE_ID))
        .unwrap_or_else(|| panic!("trace {TRACE_ID} resolvable in {}", debug.body));
    assert_eq!(record.get("status").and_then(Value::as_f64), Some(200.0));
    assert_eq!(
        record.get("tenant").and_then(Value::as_str),
        Some("default")
    );
    assert!(record.get("latency_ms").and_then(Value::as_f64).unwrap() >= 0.0);

    let spans = record
        .get("spans")
        .and_then(Value::as_array)
        .expect("span tree");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    for expected in [
        "queue_wait",
        "compute",
        "stage:seed",
        "stage:subgraph",
        "stage:realloc",
        "stage:steiner",
        "stage:render",
        "response_write",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected:?} missing from {names:?}"
        );
    }
    // The stage spans are parented under `compute`.
    let compute_index = spans
        .iter()
        .position(|s| s.get("name").and_then(Value::as_str) == Some("compute"))
        .unwrap();
    let seed = spans
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("stage:seed"))
        .unwrap();
    assert_eq!(
        seed.get("parent").and_then(Value::as_f64),
        Some(compute_index as f64)
    );
}

#[test]
fn debug_requests_are_admin_gated_but_metrics_are_not() {
    let server = spawn_manifest_server(|_| {});
    // /metrics stays an open scrape target even with auth on.
    assert_eq!(client::get(server.addr(), "/metrics").unwrap().status, 200);
    // The exemplar ring (queries, latencies per tenant) is admin-only.
    let anonymous = client::get(server.addr(), "/v1/debug/requests").unwrap();
    assert_eq!(anonymous.status, 401);
    let tenant = get_with_key(server.addr(), "/v1/debug/requests", ALPHA_KEY).unwrap();
    assert_eq!(tenant.status, 403);
    let admin = get_with_key(server.addr(), "/v1/debug/requests", ADMIN_KEY).unwrap();
    assert_eq!(admin.status, 200);
    assert!(parse_json(&admin)
        .get("requests")
        .and_then(Value::as_array)
        .is_some());
}

#[test]
fn tenant_trace_threshold_is_patchable_at_runtime() {
    let server = spawn_manifest_server(|_| {});
    // A high threshold suppresses exemplars for alpha...
    let response = request_with_key(
        server.addr(),
        "PATCH",
        "/v1/admin/tenants/alpha",
        Some(r#"{"trace_slow_ms": 60000}"#),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        parse_json(&response)
            .get("trace_slow_ms")
            .and_then(Value::as_f64),
        Some(60000.0)
    );

    let (query, year) = tenant_query(&server, "alpha");
    let generate = post_json_with_key(
        server.addr(),
        "/v1/generate",
        &generate_body(&query, year, 10),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(generate.status, 200);
    let trace_id = generate.header("x-rpg-trace-id").unwrap().to_string();
    let debug = get_with_key(server.addr(), "/v1/debug/requests", ADMIN_KEY).unwrap();
    assert!(
        !debug.body.contains(&trace_id),
        "sub-threshold request retained an exemplar: {}",
        debug.body
    );

    // ...and patching it back to 0 retains every request again.
    let response = request_with_key(
        server.addr(),
        "PATCH",
        "/v1/admin/tenants/alpha",
        Some(r#"{"trace_slow_ms": 0}"#),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let generate = post_json_with_key(
        server.addr(),
        "/v1/generate",
        &generate_body(&query, year, 10),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(generate.status, 200);
    let trace_id = generate.header("x-rpg-trace-id").unwrap().to_string();
    let debug = get_with_key(server.addr(), "/v1/debug/requests", ADMIN_KEY).unwrap();
    assert!(
        debug.body.contains(&trace_id),
        "zero-threshold request missing from the ring: {}",
        debug.body
    );
}

/// The `default` tenant's latency-sample count in a `/v1/stats` body (0
/// before the tenant's first answered request creates its row).
fn stats_latency_count(stats: &Value) -> f64 {
    stats
        .get("tenants")
        .and_then(|t| t.get("default"))
        .and_then(|row| row.get("latency"))
        .and_then(|latency| latency.get("count"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `rpg_responses_total` summed over its status classes.
fn responses_total(exposition: &str) -> f64 {
    ["2xx", "4xx", "5xx"]
        .iter()
        .filter_map(|class| {
            sample_value(
                exposition,
                &format!("rpg_responses_total{{class=\"{class}\"}}"),
            )
        })
        .sum()
}

#[test]
fn inline_cache_hits_are_counted_sampled_and_traced() {
    // Exemplars are off server-wide and on for the tenant: a hit shows up
    // in the ring only if its trace record carries its tenant.
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 2;
        config.trace_slow_ms = 60_000;
        config.tenant_trace_slow = vec![("default".to_string(), 0)];
    });
    let addr = server.addr();
    let (query, year) = demo_queries(1).remove(0);
    let body = generate_body(&query, year, 10);
    let scrape = || {
        let stats = parse_json(&client::get(addr, "/v1/stats").unwrap());
        let metrics = client::get(addr, "/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        (stats, metrics.body)
    };
    let stat = |stats: &Value, section: &str, field: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Value::as_f64)
            .unwrap()
    };
    let histogram_count = |exposition: &str| {
        sample_value(
            exposition,
            "rpg_request_latency_seconds_count{tenant=\"default\"}",
        )
        .unwrap_or(0.0)
    };

    let (stats0, metrics0) = scrape();
    const HITS: usize = 4;
    for round in 0..=HITS {
        let response = client::post_json(addr, "/v1/generate", &body).unwrap();
        assert_eq!(response.status, 200);
        let cached = parse_json(&response).get("cached").and_then(Value::as_bool);
        assert_eq!(cached, Some(round > 0), "round {round}");
    }
    let (stats1, metrics1) = scrape();
    let problems = rpg_obs::promlint::lint(&metrics1);
    assert!(problems.is_empty(), "exposition lint: {problems:?}");

    let hits = HITS as f64;
    assert_eq!(
        stat(&stats1, "cache", "hits") - stat(&stats0, "cache", "hits"),
        hits
    );
    assert_eq!(
        stat(&stats1, "cache", "misses") - stat(&stats0, "cache", "misses"),
        1.0
    );
    // One latency sample per answered generate, the miss and every hit.
    assert_eq!(
        stats_latency_count(&stats1) - stats_latency_count(&stats0),
        hits + 1.0
    );
    assert_eq!(
        histogram_count(&metrics1) - histogram_count(&metrics0),
        hits + 1.0
    );
    // Every exchange in between counts once, in both views: the generates
    // plus the two scrapes that sit between each view's reads.
    assert_eq!(
        stat(&stats1, "responses", "handled") - stat(&stats0, "responses", "handled"),
        hits + 3.0
    );
    assert_eq!(
        responses_total(&metrics1) - responses_total(&metrics0),
        hits + 3.0
    );

    // A traced hit lands in the exemplar ring under its tenant, with the
    // probe's `cache_hit` span and no queue or compute spans.
    let response = client::request_with(
        addr,
        "POST",
        "/v1/generate",
        Some(&body),
        &[("x-rpg-trace-id", TRACE_ID)],
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        parse_json(&response).get("cached").and_then(Value::as_bool),
        Some(true)
    );
    let debug = client::get(addr, "/v1/debug/requests").unwrap();
    let ring = parse_json(&debug);
    let record = ring
        .get("requests")
        .and_then(Value::as_array)
        .and_then(|requests| {
            requests
                .iter()
                .find(|r| r.get("trace_id").and_then(Value::as_str) == Some(TRACE_ID))
        })
        .unwrap_or_else(|| panic!("traced hit missing from {}", debug.body));
    assert_eq!(
        record.get("tenant").and_then(Value::as_str),
        Some("default")
    );
    let names: Vec<&str> = record
        .get("spans")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(|span| span.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"cache_hit"), "spans: {names:?}");
    assert!(names.contains(&"response_write"), "spans: {names:?}");
    assert!(
        !names.contains(&"queue_wait") && !names.contains(&"compute"),
        "a hit never reaches the compute pool: {names:?}"
    );
}
