//! `rpg-server` — a dependency-free HTTP/1.1 front end over the
//! `rpg-service` serving layer.
//!
//! The paper's end state is an *interactive* reference-paper-generation
//! service; this crate is the network edge of the reproduction, built on
//! nothing but `std::net` and the vendored `serde_json`:
//!
//! * **event-driven connections** — a fixed pool of event-loop threads
//!   multiplexes every socket through a pluggable `Poller` readiness
//!   backend (edge-triggered `epoll(7)` by default on Linux, portable
//!   `poll(2)` everywhere, both wrapped std-only in `sys` and selected by
//!   [`ServerConfig::io_backend`]), so an open connection costs
//!   slot-table state, not a thread; each connection is a state machine
//!   over the incremental [`http::RequestBuffer`] push parser whose
//!   kernel-side interest is updated only on state transitions, with
//!   responses streamed through a bounded-chunk
//!   [`http::ResponseEmitter`], idle and per-request read deadlines
//!   enforced by the wait timeout, and compute replies delivered back to
//!   the owning loop through a self-pipe wake fd;
//! * **persistent connections** — each socket serves a keep-alive
//!   exchange sequence over a persistent parse buffer: pipelined bytes
//!   carry over between requests, with an idle timeout and a
//!   per-connection request budget;
//! * **per-tenant fair admission** — parsed requests are classified by
//!   their `corpus` tenant and offered to a weighted deficit-round-robin
//!   [`queue::FairQueue`] in front of the compute pool: a tenant that
//!   fills its own sub-queue gets `429 Too Many Requests` while everyone
//!   else keeps flowing, connection overflow at the acceptor and a full
//!   global queue stay an immediate `503` with `Retry-After` ([`Server`]);
//! * **multi-tenant routing** — requests carry an optional `corpus` field
//!   that routes to a named [`rpg_service::CorpusRegistry`] tenant; with
//!   authentication on, the `Authorization: Bearer` key decides the tenant
//!   instead ([`auth`]), admission is billed to it, and cross-tenant calls
//!   are `403`;
//! * **wire-operable control plane** — `GET /v1/corpora` (tenant listing:
//!   admin keys see every tenant, a tenant key sees only its own row),
//!   `PUT /v1/corpora/:name` (build a corpus from a shipped spec and
//!   atomically swap it in), `DELETE /v1/corpora/:name`,
//!   `PATCH /v1/admin/tenants/:name` (retune a live tenant's DRR weight,
//!   queue bound, in-flight cap, deadline budget and trace threshold),
//!   and `POST /v1/admin/reload` (diff-apply the manifest file) — every
//!   mutating endpoint admin-key-gated when auth is on,
//!   with corpus builds on the compute pool so event loops never block;
//! * **JSON endpoints** — `POST /v1/generate`, `POST /v1/batch` (items
//!   admitted and billed per tenant, overflow becomes per-item `429`s),
//!   `POST /v1/corpora/:name/refresh` (start a new cache epoch for one
//!   tenant, evicting exactly its cached results; no rebuild, answered on
//!   the event loop), `GET /v1/healthz`, and `GET /v1/stats`
//!   (cache hit/miss counters, per-stage timing aggregates, queue depth,
//!   connection gauges);
//! * **deterministic result encoding** — one writer in [`api`] emits every
//!   response body as JSON text straight from a pipeline result; misses,
//!   cache hits and `/v1/batch` items all carry its bytes, and a batch is
//!   joined from its items' bytes. [`api::output_result_value`] and its
//!   siblings are `Value` views of those bytes, kept for the benchmark and
//!   the tests, so the HTTP surface is provably byte-identical to
//!   in-process generation.
//!
//! ```no_run
//! use rpg_server::{Server, ServerConfig};
//! use rpg_service::CorpusRegistry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(CorpusRegistry::new());
//! registry
//!     .register("default", rpg_corpus::generate(&rpg_corpus::CorpusConfig::small()))
//!     .unwrap();
//! let server = Server::spawn(registry, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the `sys` module tree, the FFI shim over
// poll(2)/epoll(7)/pipe(2) that the event-driven connection layer rides on
// (the workspace has no libc crate); everywhere else it stays an error.
#![deny(unsafe_code)]

pub mod api;
pub mod auth;
pub mod client;
pub mod http;
pub mod queue;
mod serve;
mod stats;
mod sys;

pub use api::{BatchRequest, GenerateRequest};
pub use auth::{AuthTable, Principal};
#[doc(hidden)]
pub use serve::{test_hooks, ReplyHold};
pub use serve::{Server, ServerConfig, StatsSnapshot};
pub use sys::{install_sighup, sighup_pending, IoBackend, IoBackendChoice};

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_service::CorpusRegistry;
    use serde::value::Value;
    use std::sync::Arc;

    /// A server over an empty registry: every route is reachable without
    /// paying for a corpus build, so these tests pin the protocol layer.
    fn empty_server() -> Server {
        Server::spawn(
            Arc::new(CorpusRegistry::new()),
            ServerConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServerConfig::default()
            },
        )
        .expect("server binds on an ephemeral port")
    }

    #[test]
    fn healthz_reports_status_and_shape() {
        let server = empty_server();
        let response = client::get(server.addr(), "/v1/healthz").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), Some("application/json"));
        let value: Value = serde_json::from_str(&response.body).unwrap();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            value.get("corpora").and_then(Value::as_array),
            Some(&[][..])
        );
        assert!(value.get("queue").is_some());
    }

    #[test]
    fn stats_expose_queue_cache_and_pipeline_sections() {
        let server = empty_server();
        let response = client::get(server.addr(), "/v1/stats").unwrap();
        assert_eq!(response.status, 200);
        let value: Value = serde_json::from_str(&response.body).unwrap();
        for section in ["queue", "connections", "responses", "cache", "pipeline"] {
            assert!(value.get(section).is_some(), "missing section {section}");
        }
        let queue = value.get("queue").unwrap();
        assert_eq!(queue.get("capacity").and_then(Value::as_f64), Some(8.0));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let server = empty_server();
        let missing = client::get(server.addr(), "/v2/nope").unwrap();
        assert_eq!(missing.status, 404);
        let wrong = client::get(server.addr(), "/v1/generate").unwrap();
        assert_eq!(wrong.status, 405);
        assert_eq!(wrong.header("allow"), Some("POST"));
        let wrong = client::post_json(server.addr(), "/v1/stats", "{}").unwrap();
        assert_eq!(wrong.status, 405);
        assert_eq!(wrong.header("allow"), Some("GET"));
    }

    #[test]
    fn malformed_bodies_get_400_and_workers_survive() {
        let server = empty_server();
        for bad in ["", "not json", "[1, 2", r#"{"top_k": 5}"#, "{\"query\": 3}"] {
            let response = client::post_json(server.addr(), "/v1/generate", bad).unwrap();
            assert_eq!(response.status, 400, "body {bad:?}");
            let value: Value = serde_json::from_str(&response.body).unwrap();
            assert!(value.get("error").is_some());
        }
        // The pool is still alive and serving.
        assert_eq!(
            client::get(server.addr(), "/v1/healthz").unwrap().status,
            200
        );
        let stats = server.stats();
        assert_eq!(stats.client_errors, 5);
        assert_eq!(stats.handled, 6);
    }

    #[test]
    fn unknown_corpus_is_404() {
        let server = empty_server();
        let response = client::post_json(
            server.addr(),
            "/v1/generate",
            r#"{"query": "anything", "corpus": "ghost"}"#,
        )
        .unwrap();
        assert_eq!(response.status, 404);
        assert!(response.body.contains("ghost"));
    }

    #[test]
    fn unknown_variant_is_400() {
        let server = empty_server();
        let response = client::post_json(
            server.addr(),
            "/v1/generate",
            r#"{"query": "anything", "variant": "bogus"}"#,
        )
        .unwrap();
        assert_eq!(response.status, 400);
        assert!(response.body.contains("bogus"));
    }

    #[test]
    fn oversized_bodies_are_rejected_not_buffered() {
        // A 1 KiB body limit and a ~4 KiB body: small enough to sit in the
        // socket buffer (so the client's write cannot fail before it reads
        // the response), large enough to trip the limit.
        let server = Server::spawn(
            Arc::new(CorpusRegistry::new()),
            ServerConfig {
                workers: 1,
                limits: http::Limits {
                    max_body_bytes: 1024,
                    ..http::Limits::default()
                },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let big = format!(r#"{{"query": "{}"}}"#, "x".repeat(4 * 1024));
        let response = client::post_json(server.addr(), "/v1/generate", &big).unwrap();
        assert_eq!(response.status, 413);
    }

    #[test]
    fn shutdown_joins_cleanly_and_is_idempotent() {
        let mut server = empty_server();
        let addr = server.addr();
        assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
        server.shutdown();
        server.shutdown();
        // The listener is gone: new connections fail (or are dropped
        // without a response).
        let after = client::get(addr, "/v1/healthz");
        assert!(after.is_err() || after.is_ok_and(|r| r.status != 200));
    }
}
