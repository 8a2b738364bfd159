//! Loopback integration tests for the `rpg-server` HTTP front end: byte
//! identity with in-process generation under concurrent clients (one-shot
//! and keep-alive), pipelining from the retained connection buffer,
//! admission control under overflow (global `503` and per-tenant `429`),
//! HTTP/1.1 conformance rejections, malformed-input resilience, batch
//! routing, the corpus refresh endpoint, and multi-tenant refresh semantics
//! over the wire.
//!
//! Server spawning, readiness, and shutdown ride the shared harness in
//! `tests/common`; the ambient keep-alive mode comes from
//! `RPG_TEST_KEEP_ALIVE` (CI runs both), and tests that assert
//! keep-alive-specific behaviour pin the mode explicitly.

mod common;

use common::{demo_queries, demo_registry, generate_body, spawn, spawn_with};
use rpg_corpus::{generate, CorpusConfig};
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, PipelineScratch};
use rpg_repro::demo_corpus;
use rpg_server::{api, client, GenerateRequest};
use rpg_service::CorpusRegistry;
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

/// Extracts the `result` subtree of a 200 response and re-renders it with
/// the same encoder the expectation uses.
fn result_bytes(body: &str) -> String {
    let value: Value = serde_json::from_str(body).expect("response body parses");
    serde_json::to_string(value.get("result").expect("response has a result"))
        .expect("result re-serialises")
}

/// The canonical JSON a direct in-process run of this query produces.
fn expected_result(direct: &CorpusArtifacts, query: &str, year: u16, top_k: usize) -> String {
    let output = direct
        .generate(
            &PathRequest {
                max_year: Some(year),
                ..PathRequest::new(query, top_k)
            },
            &mut PipelineScratch::new(),
        )
        .unwrap();
    serde_json::to_string(&api::output_result_value(&output)).unwrap()
}

#[test]
fn concurrent_clients_get_byte_identical_json_to_in_process_generation() {
    let registry = demo_registry();
    // The direct run shares the server's artifacts, so any divergence
    // below is the HTTP layer's fault, not a different corpus build.
    let direct = registry.artifacts("default").unwrap();
    let server = spawn(registry, 4, 32);

    let queries = demo_queries(4);
    let expected: Vec<String> = queries
        .iter()
        .map(|(query, year)| expected_result(&direct, query, *year, 25))
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..3 {
            let queries = &queries;
            let expected = &expected;
            let addr = server.addr();
            scope.spawn(move || {
                for i in 0..queries.len() {
                    // Stagger the per-thread order so clients collide on
                    // different requests.
                    let pick = (i + worker) % queries.len();
                    let (query, year) = &queries[pick];
                    let response =
                        client::post_json(addr, "/v1/generate", &generate_body(query, *year, 25))
                            .unwrap();
                    assert_eq!(response.status, 200, "query {query:?}: {}", response.body);
                    assert_eq!(
                        result_bytes(&response.body),
                        expected[pick],
                        "client {worker} diverged from in-process output on {query:?}"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.ok, 12, "3 clients x 4 queries, all served");
    assert_eq!(stats.rejected, 0);
    assert!(stats.pipeline_runs >= 4, "fresh runs must be recorded");
}

/// The raw `result` text of a `/v1/generate` body, cut out without
/// re-encoding (the body's fields are `corpus`, `cached`, `result` and
/// `timings`, in that order).
fn raw_result(body: &str) -> &str {
    const KEY: &str = r#""result":"#;
    let start = body.find(KEY).expect("body has a result") + KEY.len();
    let end = body.rfind(r#","timings":"#).expect("body has timings");
    &body[start..end]
}

#[test]
fn cache_hits_answer_the_encoded_entry_byte_for_byte() {
    let registry = demo_registry();
    let server = spawn(registry.clone(), 2, 16);
    for (query, year) in demo_queries(3) {
        let body = generate_body(&query, year, 20);
        let first = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
        let second = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
        assert_eq!((first.status, second.status), (200, 200), "{query:?}");
        let cached = |text: &str| {
            serde_json::from_str::<Value>(text)
                .unwrap()
                .get("cached")
                .and_then(Value::as_bool)
        };
        assert_eq!(cached(&first.body), Some(false), "{query:?}");
        assert_eq!(cached(&second.body), Some(true), "{query:?}");
        // The in-process answer on the same shared registry hits the very
        // entry the server answered from; its canonical encoding is the
        // hit's whole body, timings included.
        let dto: GenerateRequest = serde_json::from_str(&body).unwrap();
        let resolved = api::ResolvedRequest::resolve(&dto).unwrap();
        let served = registry
            .generate("default", &resolved.as_path_request())
            .unwrap();
        assert!(served.cached);
        let expected = serde_json::to_string(&api::generate_response_value(
            "default",
            &served.output,
            true,
        ))
        .unwrap();
        assert_eq!(second.body, expected, "hit on {query:?}");
        assert_eq!(
            raw_result(&second.body),
            raw_result(&first.body),
            "the hit's result differs from the miss's on {query:?}"
        );
    }
}

#[test]
fn queue_overflow_gets_503_with_retry_after_and_the_server_recovers() {
    // One worker, a global request queue of one: with a stampede of
    // concurrent uncached requests (cache capacity 0 keeps every request
    // on the slow path), at most two can be in the system, so the rest
    // must be turned away.
    let server = spawn(common::demo_registry_without_cache(), 1, 1);
    let (query, year) = demo_queries(1).remove(0);
    let body = generate_body(&query, year, 25);

    let clients = 8;
    let barrier = Arc::new(std::sync::Barrier::new(clients));
    let mut outcomes = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = barrier.clone();
                let addr = server.addr();
                let body = &body;
                scope.spawn(move || {
                    barrier.wait();
                    client::post_json(addr, "/v1/generate", body).unwrap()
                })
            })
            .collect();
        for handle in handles {
            outcomes.push(handle.join().unwrap());
        }
    });

    let ok = outcomes.iter().filter(|r| r.status == 200).count();
    let rejected = outcomes.iter().filter(|r| r.status == 503).count();
    assert_eq!(
        ok + rejected,
        clients,
        "unexpected statuses: {:?}",
        outcomes.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(ok >= 1, "at least the first request must be served");
    assert!(
        rejected >= 1,
        "an 8-deep stampede into a 1+1 system must overflow"
    );
    for response in outcomes.iter().filter(|r| r.status == 503) {
        assert_eq!(response.header("retry-after"), Some("1"));
        assert!(response.body.contains("capacity"));
    }

    // Admission control never buffered beyond the bound, nothing died, and
    // the server keeps serving.
    assert!(server.request_depth() <= 1);
    let after = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
    assert_eq!(after.status, 200);
    let stats = server.stats();
    assert_eq!(stats.rejected as usize, rejected);
}

#[test]
fn malformed_bodies_are_400_and_the_same_workers_keep_serving() {
    let registry = demo_registry();
    let direct = registry.artifacts("default").unwrap();
    // A single worker: if any malformed request killed it, the follow-up
    // real request could never be answered.
    let server = spawn(registry, 1, 8);
    for bad in [
        "",
        "{",
        "null",
        r#"{"query": 42}"#,
        r#"{"requests": "not an array"}"#,
    ] {
        let response = client::post_json(server.addr(), "/v1/generate", bad).unwrap();
        assert_eq!(response.status, 400, "body {bad:?}");
    }

    let (query, year) = demo_queries(1).remove(0);
    let response = client::post_json(
        server.addr(),
        "/v1/generate",
        &generate_body(&query, year, 20),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        result_bytes(&response.body),
        expected_result(&direct, &query, year, 20)
    );
    let stats = server.stats();
    assert_eq!(stats.client_errors, 5);
    assert_eq!(stats.ok, 1);
}

#[test]
fn batch_preserves_order_and_isolates_per_item_failures() {
    let registry = demo_registry();
    let direct = registry.artifacts("default").unwrap();
    let server = spawn(registry, 2, 16);
    let queries = demo_queries(2);

    let body = format!(
        r#"{{"requests": [
            {{"query": {q0:?}, "max_year": {y0}, "top_k": 15}},
            {{"query": "anything", "corpus": "ghost"}},
            {{"query": {q1:?}, "max_year": {y1}, "top_k": 15}}
        ]}}"#,
        q0 = queries[0].0,
        y0 = queries[0].1,
        q1 = queries[1].0,
        y1 = queries[1].1,
    );
    let response = client::post_json(server.addr(), "/v1/batch", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let value: Value = serde_json::from_str(&response.body).unwrap();
    let results = value
        .get("results")
        .and_then(Value::as_array)
        .expect("batch returns a results array");
    assert_eq!(results.len(), 3);

    for (slot, (query, year)) in [(0usize, &queries[0]), (2, &queries[1])] {
        let got = serde_json::to_string(results[slot].get("result").expect("result")).unwrap();
        assert_eq!(
            got,
            expected_result(&direct, query, *year, 15),
            "batch slot {slot}"
        );
    }
    let failure = &results[1];
    assert!(failure.get("error").is_some());
    assert_eq!(failure.get("status").and_then(Value::as_f64), Some(404.0));
}

#[test]
fn a_mixed_batch_body_is_canonical_json_with_exact_items() {
    let registry = demo_registry();
    let direct = registry.artifacts("default").unwrap();
    let server = spawn(registry, 2, 16);
    let queries = demo_queries(2);

    let body = format!(
        r#"{{"requests": [
            {{"query": {q0:?}, "max_year": {y0}, "top_k": 15}},
            {{"query": "anything", "corpus": "ghost"}},
            {{"query": "anything", "variant": "steiner"}},
            {{"query": {q1:?}, "max_year": {y1}, "top_k": 15}}
        ]}}"#,
        q0 = queries[0].0,
        y0 = queries[0].1,
        q1 = queries[1].0,
        y1 = queries[1].1,
    );
    let response = client::post_json(server.addr(), "/v1/batch", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let value: Value = serde_json::from_str(&response.body).unwrap();
    // Re-encoding the parsed body changes nothing: the assembled body is
    // compact JSON in the canonical field order.
    assert_eq!(serde_json::to_string(&value).unwrap(), response.body);
    let results = value.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 4);

    assert!(
        response
            .body
            .contains(r#"{"error":"unknown corpus \"ghost\"","status":404}"#),
        "{}",
        response.body
    );
    assert!(
        response.body.contains(concat!(
            r#"{"error":"unknown variant \"steiner\"; expected one of "#,
            r#"NEWST, NEWST-W, NEWST-I, NEWST-U, NEWST-C, NEWST-N, NEWST-E","status":400}"#
        )),
        "{}",
        response.body
    );
    for (slot, (query, year)) in [(0usize, &queries[0]), (3, &queries[1])] {
        let expected = expected_result(&direct, query, *year, 15);
        let got = serde_json::to_string(results[slot].get("result").unwrap()).unwrap();
        assert_eq!(got, expected, "batch slot {slot}");
        assert!(response.body.contains(&format!(r#""result":{expected}"#)));
    }

    let empty = client::post_json(server.addr(), "/v1/batch", r#"{"requests": []}"#).unwrap();
    assert_eq!(empty.status, 200);
    assert_eq!(empty.body, r#"{"results":[]}"#);
}

#[test]
fn stats_endpoint_tracks_cache_queue_connections_and_stage_timings() {
    let registry = demo_registry();
    let server = spawn(registry, 2, 16);
    let (query, year) = demo_queries(1).remove(0);
    let body = generate_body(&query, year, 20);

    let first = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
    let second = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
    assert_eq!((first.status, second.status), (200, 200));
    let first: Value = serde_json::from_str(&first.body).unwrap();
    let second: Value = serde_json::from_str(&second.body).unwrap();
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));

    let stats = client::get(server.addr(), "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let stats: Value = serde_json::from_str(&stats.body).unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Value::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Value::as_f64), Some(1.0));
    assert_eq!(cache.get("entries").and_then(Value::as_f64), Some(1.0));
    let pipeline = stats.get("pipeline").expect("pipeline section");
    assert_eq!(pipeline.get("requests").and_then(Value::as_f64), Some(1.0));
    let mean = pipeline.get("mean").expect("mean timings");
    assert!(mean.get("total_us").and_then(Value::as_f64).unwrap() > 0.0);
    for stage in [
        "seed_us",
        "subgraph_us",
        "realloc_us",
        "steiner_us",
        "render_us",
    ] {
        assert!(
            mean.get(stage).and_then(Value::as_f64).unwrap() > 0.0,
            "stage {stage} unrecorded"
        );
    }
    // The steiner/realloc work counters of the fresh run are aggregated and
    // exposed alongside the timings (sum and mean carry the same fields).
    for section in ["sum", "mean"] {
        let counters = pipeline
            .get(section)
            .and_then(|t| t.get("counters"))
            .unwrap_or_else(|| panic!("pipeline.{section}.counters missing"));
        for field in [
            "steiner_runs",
            "steiner_paths_expanded",
            "steiner_paths_skipped",
            "steiner_pruned_leaves",
            "scratch_allocations",
            "realloc_retries",
        ] {
            assert!(
                counters.get(field).and_then(Value::as_f64).is_some(),
                "pipeline.{section}.counters.{field} missing"
            );
        }
    }
    let sum_counters = pipeline.get("sum").unwrap().get("counters").unwrap();
    assert!(
        sum_counters
            .get("steiner_runs")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0,
        "the fresh run must have recorded at least one KMB solve"
    );
    let queue = stats.get("queue").expect("queue section");
    assert_eq!(queue.get("depth").and_then(Value::as_f64), Some(0.0));
    assert_eq!(queue.get("capacity").and_then(Value::as_f64), Some(16.0));
    // The event-driven connection layer reports its gauges on the wire.
    let connections = stats.get("connections").expect("connections section");
    for gauge in ["accepted", "open", "drivers", "max", "rejected_503"] {
        assert!(
            connections.get(gauge).and_then(Value::as_f64).is_some(),
            "connections.{gauge} missing"
        );
    }
    assert!(
        connections.get("drivers").and_then(Value::as_f64).unwrap() >= 1.0,
        "at least one event loop must be reported"
    );
}

#[test]
fn tenants_are_isolated_and_refresh_evicts_only_one() {
    let registry = demo_registry();
    registry
        .register(
            "aux",
            generate(&CorpusConfig {
                seed: 0xAB,
                ..CorpusConfig::small()
            }),
        )
        .unwrap();
    let server = spawn(registry.clone(), 2, 16);
    let (query, year) = demo_queries(1).remove(0);

    let on = |corpus: &str| {
        format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": 20, "corpus": {corpus:?}}}"#)
    };
    let via_default = client::post_json(server.addr(), "/v1/generate", &on("default")).unwrap();
    let via_aux = client::post_json(server.addr(), "/v1/generate", &on("aux")).unwrap();
    assert_eq!((via_default.status, via_aux.status), (200, 200));
    assert_ne!(
        result_bytes(&via_default.body),
        result_bytes(&via_aux.body),
        "different corpora must answer differently"
    );

    // Refresh `aux` through the shared registry handle while the server is
    // live: only aux's cache entries fall out.
    assert_eq!(registry.cached_entries_for("default"), 1);
    assert_eq!(registry.cached_entries_for("aux"), 1);
    registry
        .refresh(
            "aux",
            generate(&CorpusConfig {
                seed: 0xAC,
                ..CorpusConfig::small()
            }),
        )
        .unwrap();
    assert_eq!(registry.cached_entries_for("default"), 1);
    assert_eq!(registry.cached_entries_for("aux"), 0);

    let default_again = client::post_json(server.addr(), "/v1/generate", &on("default")).unwrap();
    let aux_again = client::post_json(server.addr(), "/v1/generate", &on("aux")).unwrap();
    let default_again: Value = serde_json::from_str(&default_again.body).unwrap();
    let aux_again: Value = serde_json::from_str(&aux_again.body).unwrap();
    assert_eq!(
        default_again.get("cached").and_then(Value::as_bool),
        Some(true),
        "the untouched tenant keeps its cache"
    );
    assert_eq!(
        aux_again.get("cached").and_then(Value::as_bool),
        Some(false),
        "the refreshed tenant must recompute"
    );
}

#[test]
fn refresh_endpoint_evicts_exactly_that_tenants_cached_results() {
    let registry = demo_registry();
    registry.register_artifacts("aux", registry.artifacts("default").unwrap());
    let server = spawn(registry.clone(), 2, 16);
    let (query, year) = demo_queries(1).remove(0);
    let on = |corpus: &str| {
        format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": 20, "corpus": {corpus:?}}}"#)
    };

    // Prime both tenants' cache entries over the wire.
    for corpus in ["default", "aux"] {
        let response = client::post_json(server.addr(), "/v1/generate", &on(corpus)).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    assert_eq!(registry.cached_entries_for("default"), 1);
    assert_eq!(registry.cached_entries_for("aux"), 1);

    // Refresh one tenant over HTTP: exactly its entries fall out.
    let refreshed = client::post_json(server.addr(), "/v1/corpora/aux/refresh", "").unwrap();
    assert_eq!(refreshed.status, 200, "{}", refreshed.body);
    let value: Value = serde_json::from_str(&refreshed.body).unwrap();
    assert_eq!(value.get("corpus").and_then(Value::as_str), Some("aux"));
    assert_eq!(value.get("epoch").and_then(Value::as_f64), Some(1.0));
    assert_eq!(registry.cached_entries_for("default"), 1);
    assert_eq!(registry.cached_entries_for("aux"), 0);

    // The wire-visible consequence: the untouched tenant still answers
    // from cache, the refreshed one recomputes.
    let default_again = client::post_json(server.addr(), "/v1/generate", &on("default")).unwrap();
    let aux_again = client::post_json(server.addr(), "/v1/generate", &on("aux")).unwrap();
    let default_again: Value = serde_json::from_str(&default_again.body).unwrap();
    let aux_again: Value = serde_json::from_str(&aux_again.body).unwrap();
    assert_eq!(
        default_again.get("cached").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        aux_again.get("cached").and_then(Value::as_bool),
        Some(false)
    );

    // Unknown tenants are a 404; the refresh route is POST-only.
    let ghost = client::post_json(server.addr(), "/v1/corpora/ghost/refresh", "").unwrap();
    assert_eq!(ghost.status, 404);
    assert!(ghost.body.contains("ghost"));
    let wrong_method = client::get(server.addr(), "/v1/corpora/aux/refresh").unwrap();
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let registry = demo_registry();
    let direct = registry.artifacts("default").unwrap();
    let server = spawn_with(registry, |config| {
        config.workers = 2;
        config.queue_capacity = 16;
        config.keep_alive = true;
    });

    let queries = demo_queries(3);
    let mut conn = client::Conn::connect(server.addr()).expect("persistent connection opens");
    // Four exchanges (three distinct queries plus a repeat) ride one TCP
    // connection, each byte-identical to the in-process pipeline.
    for (query, year) in queries.iter().chain(queries.first()) {
        let response = conn
            .post_json("/v1/generate", &generate_body(query, *year, 25))
            .expect("keep-alive exchange succeeds");
        assert_eq!(response.status, 200, "query {query:?}: {}", response.body);
        assert_eq!(
            response.header("connection"),
            Some("keep-alive"),
            "the server must promise to keep serving this connection"
        );
        assert_eq!(
            result_bytes(&response.body),
            expected_result(&direct, query, *year, 25),
            "keep-alive exchange diverged on {query:?}"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.ok, 4);
    assert_eq!(
        stats.accepted, 1,
        "four exchanges must share one accepted connection"
    );
}

#[test]
fn pipelined_second_request_is_served_from_the_retained_buffer() {
    use std::io::Write;
    let registry = demo_registry();
    let direct = registry.artifacts("default").unwrap();
    let server = spawn_with(registry, |config| {
        config.workers = 2;
        config.queue_capacity = 16;
        config.keep_alive = true;
    });
    let queries = demo_queries(2);

    // Both requests go out in a single write before any response is read:
    // the bytes of the second arrive while the server parses the first, so
    // serving it correctly requires the retained per-connection buffer.
    let wire: String = queries
        .iter()
        .map(|(query, year)| {
            let body = generate_body(query, *year, 20);
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire.as_bytes()).unwrap();
    stream.flush().unwrap();

    let mut buf = Vec::new();
    for (query, year) in &queries {
        let response = client::read_response(&mut stream, &mut buf).unwrap();
        assert_eq!(response.status, 200, "query {query:?}: {}", response.body);
        assert_eq!(
            result_bytes(&response.body),
            expected_result(&direct, query, *year, 20),
            "pipelined response diverged on {query:?}"
        );
    }
    assert_eq!(server.stats().accepted, 1);
}

#[test]
fn idle_keep_alive_connections_are_closed_by_the_server() {
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 1;
        config.keep_alive = true;
        config.idle_timeout = Duration::from_millis(150);
    });

    let mut conn = client::Conn::connect(server.addr()).unwrap();
    let first = conn.get("/v1/healthz").unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));

    // Stay silent past the idle timeout: the server hangs up, so the next
    // exchange on this connection cannot complete.
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        conn.get("/v1/healthz").is_err(),
        "an idle-closed connection must not serve another exchange"
    );
}

#[test]
fn connection_request_budget_is_honoured() {
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 1;
        config.keep_alive = true;
        config.max_requests_per_connection = 2;
    });

    let mut conn = client::Conn::connect(server.addr()).unwrap();
    let first = conn.get("/v1/healthz").unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = conn.get("/v1/healthz").unwrap();
    assert!(
        second.closes_connection(),
        "the budget-exhausting exchange must announce the close"
    );
    assert!(
        conn.get("/v1/healthz").is_err(),
        "the connection is gone after its request budget"
    );
    // A fresh connection serves again: the budget is per-connection state.
    assert_eq!(
        client::get(server.addr(), "/v1/healthz").unwrap().status,
        200
    );
}

#[test]
fn transfer_encoding_and_duplicate_content_length_are_rejected() {
    use std::io::Write;
    let server = spawn(demo_registry(), 1, 8);

    // A chunked body must be refused outright (501), not silently read as
    // an empty body — under keep-alive the unread chunk bytes would parse
    // as a smuggled second request.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            b"POST /v1/generate HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n\
              2\r\n{}\r\n0\r\n\r\n",
        )
        .unwrap();
    let response = client::read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(response.status, 501, "{}", response.body);
    assert!(response.closes_connection(), "framing is lost: must close");
    assert!(response.body.contains("transfer-encoding"));

    // Conflicting Content-Length headers are the classic desync payload.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            b"POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\ncontent-length: 40\r\n\r\n{}",
        )
        .unwrap();
    let response = client::read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.closes_connection());

    // The server survives both rejections.
    assert_eq!(
        client::get(server.addr(), "/v1/healthz").unwrap().status,
        200
    );
}

#[test]
fn noisy_tenant_is_throttled_while_quiet_tenant_completes_everything() {
    // Two tenants over the same artifacts; no result cache, so every
    // request costs a full pipeline run on the single compute worker. The
    // per-tenant bound is tiny: the noisy stampede overflows its own
    // sub-queue (429) while the quiet tenant — one request in flight at a
    // time — must never be rejected. Two event loops carry all the
    // connections; the loops never block on compute, so a small fixed
    // driver pool is enough for any client count.
    let registry = Arc::new(CorpusRegistry::with_cache_capacity(0));
    registry.register("noisy", demo_corpus()).unwrap();
    registry.register_artifacts("quiet", registry.artifacts("noisy").unwrap());
    let server = spawn_with(registry, |config| {
        config.workers = 1;
        config.drivers = 2;
        config.queue_capacity = 16;
        config.tenant_queue_capacity = 2;
        config.keep_alive = true;
    });

    let (query, year) = demo_queries(1).remove(0);
    let body_for = |corpus: &str| {
        format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": 20, "corpus": {corpus:?}}}"#)
    };
    let noisy_body = body_for("noisy");
    let quiet_body = body_for("quiet");

    let noisy_clients = 6;
    let requests_each = 6;
    let barrier = Arc::new(std::sync::Barrier::new(noisy_clients + 1));
    let (noisy_outcomes, quiet_outcomes) = std::thread::scope(|scope| {
        let noisy_handles: Vec<_> = (0..noisy_clients)
            .map(|_| {
                let barrier = barrier.clone();
                let addr = server.addr();
                let body = &noisy_body;
                scope.spawn(move || {
                    let mut conn = client::Conn::connect(addr).unwrap();
                    barrier.wait();
                    (0..requests_each)
                        .map(|_| {
                            let response = conn.post_json("/v1/generate", body).unwrap();
                            if response.status == 429 {
                                assert_eq!(response.header("retry-after"), Some("1"));
                                assert!(response.body.contains("noisy"));
                            }
                            response.status
                        })
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        let quiet_handle = {
            let barrier = barrier.clone();
            let addr = server.addr();
            let body = &quiet_body;
            scope.spawn(move || {
                let mut conn = client::Conn::connect(addr).unwrap();
                barrier.wait();
                (0..5)
                    .map(|_| conn.post_json("/v1/generate", body).unwrap().status)
                    .collect::<Vec<u16>>()
            })
        };
        let noisy: Vec<u16> = noisy_handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (noisy, quiet_handle.join().unwrap())
    });

    assert_eq!(
        quiet_outcomes,
        vec![200; 5],
        "the quiet tenant must complete every request"
    );
    assert!(
        noisy_outcomes.iter().all(|&s| s == 200 || s == 429),
        "unexpected noisy statuses: {noisy_outcomes:?}"
    );
    let throttled = noisy_outcomes.iter().filter(|&&s| s == 429).count();
    assert!(
        throttled >= 1,
        "a {noisy_clients}-client stampede into a bound of 2 must overflow: {noisy_outcomes:?}"
    );
    assert!(
        noisy_outcomes.iter().filter(|&&s| s == 200).count() >= 1,
        "throttling must shed load, not blackhole the tenant"
    );

    let stats = server.stats();
    assert_eq!(stats.throttled as usize, throttled);
    assert_eq!(stats.rejected, 0, "nothing hit the global 503 path");

    // The wire-visible stats expose the per-tenant queues and the 429
    // counter.
    let stats_response = client::get(server.addr(), "/v1/stats").unwrap();
    let value: Value = serde_json::from_str(&stats_response.body).unwrap();
    let queue = value.get("queue").expect("queue section");
    assert_eq!(
        queue.get("throttled_429").and_then(Value::as_f64),
        Some(throttled as f64)
    );
    let tenants = queue.get("tenants").expect("per-tenant section");
    for tenant in ["noisy", "quiet"] {
        let entry = tenants
            .get(tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} missing"));
        assert_eq!(entry.get("depth").and_then(Value::as_f64), Some(0.0));
        assert_eq!(entry.get("capacity").and_then(Value::as_f64), Some(2.0));
        assert_eq!(entry.get("weight").and_then(Value::as_f64), Some(1.0));
    }
}

#[test]
fn slow_clients_cannot_pin_the_server() {
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 1;
        config.queue_capacity = 4;
        config.read_timeout = Duration::from_millis(300);
    });

    // A client that connects and never finishes its request used to tie up
    // a driver thread; under the event loop it ties up nothing — a healthy
    // request gets through immediately, and the stalled connection is
    // closed once its per-request read deadline fires.
    use std::io::Write;
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    stalled
        .write_all(b"POST /v1/generate HTTP/1.1\r\n")
        .unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let health = client::get(server.addr(), "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);

    // The deadline fires with a 408 so the slow client learns why.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let timeout = client::read_response(&mut stalled, &mut Vec::new()).unwrap();
    assert_eq!(timeout.status, 408);
    assert!(timeout.closes_connection());
    drop(stalled);
}

#[test]
fn write_then_half_close_still_gets_served() {
    // A legal client pattern: write the complete request (or several,
    // pipelined), shutdown the write side, then read. Data and FIN can
    // land in the same readiness batch, and the buffered requests must be
    // served before end-of-stream is interpreted as truncation. Serving
    // the *second* pipelined request requires keep-alive, so the mode is
    // pinned.
    use std::io::Write;
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 1;
        config.queue_capacity = 8;
        config.keep_alive = true;
    });
    for attempt in 0..20 {
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let one = "GET /v1/healthz HTTP/1.1\r\nhost: t\r\n\r\n";
        stream.write_all([one, one].concat().as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        for exchange in 0..2 {
            let response = client::read_response(&mut stream, &mut buf)
                .unwrap_or_else(|e| panic!("attempt {attempt} exchange {exchange}: {e}"));
            assert_eq!(
                response.status, 200,
                "attempt {attempt} exchange {exchange}: {}",
                response.body
            );
        }
    }
    // A genuinely truncated request still earns its 400.
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /v1/generate HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let truncated = client::read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(truncated.status, 400);
    assert!(truncated.closes_connection());
}

#[test]
fn zero_and_garbage_deadline_headers_are_rejected_up_front() {
    // A zero `x-rpg-deadline-ms` budget is already expired on arrival —
    // every request carrying it would queue, occupy a compute slot, and
    // then be shed with a 503. Garbage used to be silently ignored, which
    // hid client-side bugs. Both are a 400 at parse time now.
    let server = spawn(demo_registry(), 2, 8);
    let (query, year) = demo_queries(1).remove(0);
    let body = generate_body(&query, year, 10);
    let reject_bad_budgets = || {
        for bad in ["0", "soon", "-5", "1.5", ""] {
            let response = client::request_with(
                server.addr(),
                "POST",
                "/v1/generate",
                Some(&body),
                &[("x-rpg-deadline-ms", bad)],
            )
            .unwrap();
            assert_eq!(response.status, 400, "header {bad:?}: {}", response.body);
            assert!(
                response.body.contains("x-rpg-deadline-ms"),
                "the error must name the offending header: {}",
                response.body
            );
        }
    };
    reject_bad_budgets();

    // Batch admission parses the header once per request, before any item
    // is billed, so the whole batch is refused — not a per-item error.
    let batch = format!(r#"{{"requests": [{{"query": {query:?}}}]}}"#);
    let response = client::request_with(
        server.addr(),
        "POST",
        "/v1/batch",
        Some(&batch),
        &[("x-rpg-deadline-ms", "0")],
    )
    .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);

    // A generous valid budget still serves normally.
    let response = client::request_with(
        server.addr(),
        "POST",
        "/v1/generate",
        Some(&body),
        &[("x-rpg-deadline-ms", "30000")],
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // The key is cached now. A hit is answered on the loop, but only after
    // the same header check: a bad budget stays a 400, never a cached 200.
    reject_bad_budgets();
}

#[test]
fn a_panic_past_the_reply_keeps_the_worker_and_releases_the_charge() {
    // The fault this guards against: a panic *after* `run_job`'s inner
    // pipeline guard (reply already sent) used to unwind out of the worker
    // loop, killing the thread and leaking the tenant's in-flight charge.
    // With one worker and an in-flight cap of 1, either leak would wedge
    // the server; the outer RAII guard must absorb both.
    let server = spawn_with(demo_registry(), |config| {
        config.workers = 1;
        config.queue_capacity = 4;
        config.tenant_inflight = vec![("default".to_string(), 1)];
    });
    let (query, year) = demo_queries(1).remove(0);
    let body = generate_body(&query, year, 10);

    rpg_server::test_hooks::PANIC_AFTER_REPLY.store(true, std::sync::atomic::Ordering::SeqCst);
    let first = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    // The charge drains back to zero (the reply lands before the unwind
    // does, hence the poll)...
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats: Value =
            serde_json::from_str(&client::get(server.addr(), "/v1/stats").unwrap().body).unwrap();
        let in_flight = stats
            .get("tenants")
            .and_then(|t| t.get("default"))
            .and_then(|row| row.get("in_flight"))
            .and_then(Value::as_f64);
        if in_flight == Some(0.0) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "in-flight charge never released: {in_flight:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // ...and the sole worker is still alive to serve the next request
    // through the cap the leak would have pinned shut.
    let second = client::post_json(server.addr(), "/v1/generate", &body).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
}

#[test]
fn a_reply_hold_plugs_only_its_own_server() {
    // The loopback suites plug a worker with `Server::hold_replies` while
    // other tests run in parallel against their own servers: a hold taken
    // on one server must leave every other server's workers free.
    let held = spawn_with(common::demo_registry_without_cache(), |config| {
        config.workers = 1;
    });
    let free = spawn_with(common::demo_registry_without_cache(), |config| {
        config.workers = 1;
    });
    let queries = demo_queries(2);
    let hold = held.hold_replies();
    let addr = held.addr();
    let plug_body = generate_body(&queries[0].0, queries[0].1, 10);
    let plug = std::thread::spawn(move || client::post_json(addr, "/v1/generate", &plug_body));
    common::wait_worker_busy(&held, "default");

    let body = generate_body(&queries[1].0, queries[1].1, 10);
    let response = client::post_json(free.addr(), "/v1/generate", &body).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(held.stats().handled, 0, "the plug's reply is still held");

    drop(hold);
    let plugged = plug.join().unwrap().unwrap();
    assert_eq!(plugged.status, 200, "{}", plugged.body);
}
