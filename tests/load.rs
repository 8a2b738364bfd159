//! Open-loop adversarial load harness: the isolation proof for the
//! overload work.
//!
//! Closed-loop clients (send, wait, send) slow themselves down exactly when
//! the server struggles, flattering every latency number. The quiet tenant
//! here is **open-loop**: its requests fire on a fixed schedule regardless
//! of whether earlier ones came back, the way real independent users
//! arrive. Around it, adversaries do their worst — a heavy-tailed stampede
//! from a noisy tenant, slowloris connections trickling bytes, a
//! cache-busting sweep, an abandonment storm of mid-compute hangups — and
//! the assertion is always the same shape: the quiet tenant completes
//! everything within a bounded p99 while the adversary is throttled,
//! timed out, shed, or cancelled, and `/v1/stats` tells that story per
//! tenant.
//!
//! Every scenario honours `RPG_LOAD_SCALE` (default 1): CI's `load-smoke`
//! job runs at scale 1 in both keep-alive modes; a soak run sets it
//! higher.

mod common;

use common::{demo_registry_without_cache, spawn_with, wait_until, wait_worker_busy};
use rpg_repro::demo_corpus;
use rpg_server::client;
use rpg_service::CorpusRegistry;
use serde_json::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multiplier for client counts and request volumes (`RPG_LOAD_SCALE`).
fn scale() -> usize {
    std::env::var("RPG_LOAD_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &usize| s >= 1)
        .unwrap_or(1)
}

/// A registry where `noisy` and `quiet` share one corpus's artifacts (so
/// results are comparable) and nothing is cached (so every request costs a
/// real pipeline run).
fn two_tenant_registry() -> Arc<CorpusRegistry> {
    let registry = Arc::new(CorpusRegistry::with_cache_capacity(0));
    registry.register("noisy", demo_corpus()).unwrap();
    registry.register_artifacts("quiet", registry.artifacts("noisy").unwrap());
    registry
}

/// A generate body for one tenant; `salt` varies `top_k` so a result cache
/// (when present) can never answer two stampede requests with one compute.
fn body_for(query: &str, year: u16, tenant: &str, salt: usize) -> String {
    let top_k = 5 + (salt % 17);
    format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": {top_k}, "corpus": {tenant:?}}}"#)
}

/// Client-side quantile over measured latencies (exact, not bucketed).
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fetches the `/v1/stats` row of one tenant from the `tenants` section.
fn tenant_row(addr: std::net::SocketAddr, tenant: &str) -> Value {
    let body = client::get(addr, "/v1/stats").unwrap().body;
    let value: Value = serde_json::from_str(&body).expect("stats are JSON");
    value
        .get("tenants")
        .and_then(|t| t.get(tenant))
        .cloned()
        .unwrap_or_else(|| panic!("tenant {tenant} missing from stats: {body}"))
}

/// A tiny deterministic LCG: the adversaries want skewed, repeatable
/// arrival gaps, not cryptographic randomness.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The open-loop quiet tenant: `count` requests launched on a fixed
/// `gap` schedule, each on its own thread and connection, no matter how
/// the earlier ones are faring. Returns each request's (status, latency).
fn open_loop_quiet(
    addr: std::net::SocketAddr,
    queries: &[(String, u16)],
    tenant: &str,
    count: usize,
    gap: Duration,
) -> Vec<(u16, Duration)> {
    let mut handles = Vec::with_capacity(count);
    for i in 0..count {
        let (query, year) = queries[i % queries.len()].clone();
        let tenant = tenant.to_string();
        let handle = std::thread::spawn(move || {
            let body = body_for(&query, year, &tenant, 0);
            let started = Instant::now();
            let response = client::post_json(addr, "/v1/generate", &body);
            let elapsed = started.elapsed();
            (response.map(|r| r.status).unwrap_or(0), elapsed)
        });
        handles.push(handle);
        std::thread::sleep(gap);
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn heavy_tailed_stampede_cannot_move_the_quiet_tenants_tail() {
    // Two compute workers, the noisy tenant capped to one of them and to a
    // two-deep queue: however hard it stampedes, one worker plus one queue
    // slot is all it can occupy, and the quiet tenant's open-loop schedule
    // must sail through on the other.
    let scale = scale();
    let server = spawn_with(two_tenant_registry(), |config| {
        config.workers = 2;
        config.drivers = 2;
        config.queue_capacity = 64;
        config.tenant_queue_capacity = 2;
        config.tenant_inflight = vec![("noisy".to_string(), 1)];
    });
    let addr = server.addr();
    let queries = common::demo_queries(4);

    // The stampede: bursty threads with heavy-tailed gaps (mostly
    // back-to-back, occasionally pausing — the pattern that defeats naive
    // rate limiting).
    let noisy_threads = 4;
    let per_thread = 6 * scale;
    let noisy_handles: Vec<_> = (0..noisy_threads)
        .map(|t| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9e3779b97f4a7c15 ^ t as u64);
                let mut statuses = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let (query, year) = &queries[(t + i) % queries.len()];
                    let body = body_for(query, *year, "noisy", t * per_thread + i);
                    let status = client::post_json(addr, "/v1/generate", &body)
                        .map(|r| r.status)
                        .unwrap_or(0);
                    statuses.push(status);
                    // Pareto-ish gap: 1 ms mode, rare ~128 ms spikes.
                    let gap = 1u64 << (rng.next() % 8).saturating_sub(4);
                    std::thread::sleep(Duration::from_millis(gap));
                }
                statuses
            })
        })
        .collect();

    // The quiet tenant's open-loop schedule runs against the stampede.
    let quiet = open_loop_quiet(
        addr,
        &queries,
        "quiet",
        8 * scale,
        Duration::from_millis(120),
    );

    let noisy: Vec<u16> = noisy_handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    // Quiet: everything completes, and the tail stays bounded — the
    // stampede may cost it one noisy compute of queueing, never a pile-up.
    let mut latencies: Vec<Duration> = quiet.iter().map(|&(_, d)| d).collect();
    latencies.sort_unstable();
    assert!(
        quiet.iter().all(|&(status, _)| status == 200),
        "quiet statuses: {:?}",
        quiet.iter().map(|&(s, _)| s).collect::<Vec<_>>()
    );
    let p99 = quantile(&latencies, 0.99);
    assert!(
        p99 < Duration::from_secs(3),
        "quiet p99 {p99:?} blew up under the stampede"
    );

    // Noisy: throttled (its own 429s), never crashing the server, and at
    // least some of its work served — shed load, not a blackhole.
    assert!(
        noisy.iter().all(|&s| s == 200 || s == 429 || s == 503),
        "noisy statuses: {noisy:?}"
    );
    let throttled = noisy.iter().filter(|&&s| s == 429).count();
    assert!(throttled >= 1, "a capped stampede must overflow: {noisy:?}");
    assert!(noisy.contains(&200), "noisy is throttled, not starved");

    // The server tells the same story per tenant.
    let quiet_row = tenant_row(addr, "quiet");
    let latency = quiet_row.get("latency").expect("latency object");
    assert_eq!(
        latency.get("count").and_then(Value::as_f64),
        Some(quiet.len() as f64),
        "every quiet request recorded a latency sample"
    );
    let p50 = latency.get("p50").and_then(Value::as_f64).expect("p50");
    let p99 = latency.get("p99").and_then(Value::as_f64).expect("p99");
    let p999 = latency.get("p999").and_then(Value::as_f64).expect("p999");
    assert!(
        p50 <= p99 && p99 <= p999,
        "quantiles are monotone: {latency:?}"
    );
    assert_eq!(
        quiet_row.get("cancelled").and_then(Value::as_f64),
        Some(0.0)
    );
    let stats_body = client::get(addr, "/v1/stats").unwrap().body;
    let stats: Value = serde_json::from_str(&stats_body).unwrap();
    let noisy_queue = stats
        .get("queue")
        .and_then(|q| q.get("tenants"))
        .and_then(|t| t.get("noisy"))
        .expect("noisy queue row");
    assert_eq!(
        noisy_queue.get("inflight").and_then(Value::as_f64),
        Some(1.0),
        "the cap that made this hold is visible in the stats"
    );
}

#[test]
fn slowloris_siege_never_starves_compute() {
    // Dozens of connections that send a few header bytes and stall. Under
    // the event loop they cost poll-set entries, not threads — so the
    // quiet tenant's requests must be served at full speed throughout, and
    // the stalled connections die by read-deadline, not by operator.
    let scale = scale();
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
        config.drivers = 2;
        config.read_timeout = Duration::from_millis(500);
    });
    let addr = server.addr();
    let queries = common::demo_queries(3);

    let mut stalled: Vec<TcpStream> = (0..16 * scale)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).unwrap();
            // A plausible prefix — enough to start the read deadline.
            stream
                .write_all(format!("POST /v1/generate HTTP/1.1\r\nx-siege: {i}\r\n").as_bytes())
                .unwrap();
            stream
        })
        .collect();

    let quiet = open_loop_quiet(
        addr,
        &queries,
        "default",
        6 * scale,
        Duration::from_millis(100),
    );
    assert!(
        quiet.iter().all(|&(status, _)| status == 200),
        "quiet statuses under siege: {:?}",
        quiet.iter().map(|&(s, _)| s).collect::<Vec<_>>()
    );
    let mut latencies: Vec<Duration> = quiet.iter().map(|&(_, d)| d).collect();
    latencies.sort_unstable();
    let p99 = quantile(&latencies, 0.99);
    assert!(
        p99 < Duration::from_secs(3),
        "quiet p99 {p99:?} under siege"
    );

    // The sieged sockets are reaped by the read deadline — the server ends
    // the siege with no connections left open.
    stalled.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "sieged connections never reaped: {} open",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
}

#[test]
fn abandonment_storm_is_cancelled_not_computed() {
    // Clients that enqueue work and vanish with an RST before the reply.
    // Every abandoned job must be skipped by the compute pool (cancelled
    // counter, no pipeline run) while a well-behaved tenant keeps being
    // served. The `expect: 100-continue` interim reply left unread turns
    // each close into the RST the half-close probe classifies as Reset.
    let scale = scale();
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
        config.queue_capacity = 64;
        config.tenant_queue_capacity = 32;
    });
    let addr = server.addr();
    let queries = common::demo_queries(3);

    // Plug the single worker, held until the test lets go, so the storm's
    // jobs are all still queued when their connections die.
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let body = format!(r#"{{"query": {plug_query:?}, "top_k": 40, "corpus": "default"}}"#);
        assert_eq!(
            client::post_json(addr, "/v1/generate", &body)
                .unwrap()
                .status,
            200
        );
    });
    wait_worker_busy(&server, "default");

    let storm = 8 * scale;
    let mut streams = Vec::with_capacity(storm);
    for i in 0..storm {
        let (query, year) = &queries[i % queries.len()];
        let body = body_for(query, *year, "default", i);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /v1/generate HTTP/1.1\r\nhost: t\r\nexpect: 100-continue\r\n\
                     content-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        streams.push(stream);
    }
    // Wait until the storm is queued behind the plug, then vanish: the
    // unread `100 Continue` in every receive buffer turns each close into
    // an RST.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.request_depth() < storm {
        assert!(
            Instant::now() < deadline,
            "storm never queued: {} of {storm}",
            server.request_depth()
        );
        std::thread::yield_now();
    }
    // The loop queues a request a moment before it writes the interim
    // response; wait until every `100 Continue` is in its receive buffer,
    // or a close below could be a graceful FIN instead of a reset.
    for stream in &streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .peek(&mut [0u8; 1])
            .expect("the interim 100 Continue arrives");
    }
    drop(streams);
    // The loop flags each queued job as its reset arrives; the plug ends
    // only once every one is flagged.
    wait_until("the resets never cancelled the storm", || {
        server.cancelled_depth() == storm
    });
    drop(hold);

    plug.join().unwrap();
    // The storm drains without computing: pipeline ran only for the plug.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.request_depth() > 0 || server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "storm never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(
        stats.pipeline_runs, 1,
        "only the plug computed; the storm was cancelled"
    );
    let row = tenant_row(addr, "default");
    assert_eq!(
        row.get("cancelled").and_then(Value::as_f64),
        Some(storm as f64),
        "every abandoned job is counted: {row:?}"
    );
    // The well-behaved tenant is still served at full speed.
    let (query, year) = &queries[1];
    let response =
        client::post_json(addr, "/v1/generate", &body_for(query, *year, "default", 0)).unwrap();
    assert_eq!(response.status, 200);
}

#[test]
fn deadline_shedding_keeps_a_backlog_from_going_stale() {
    // A tenant with a short deadline budget dumps a backlog onto a single
    // worker that a plug holds past the budget: the backlog is provably
    // stale by the time the worker reaches it and must be shed with 503s
    // instead of burning compute on replies nobody is waiting for — and
    // the shed count matches what the clients saw.
    let scale = scale();
    let backlog = 96 * scale;
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
        config.queue_capacity = backlog + 16;
        config.tenant_queue_capacity = backlog + 16;
        config.default_deadline_ms = Some(50);
    });
    let addr = server.addr();
    let queries = common::demo_queries(3);

    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let body = format!(r#"{{"query": {plug_query:?}, "top_k": 40, "corpus": "default"}}"#);
        // The plug is popped at once and computes inside its own 50 ms
        // budget; the hold then keeps only its finished reply.
        assert_eq!(
            client::post_json(addr, "/v1/generate", &body)
                .unwrap()
                .status,
            200
        );
    });
    wait_worker_busy(&server, "default");

    let handles: Vec<_> = (0..backlog)
        .map(|i| {
            let (query, year) = queries[1 + i % 2].clone();
            std::thread::spawn(move || {
                let body = body_for(&query, year, "default", i);
                client::post_json(addr, "/v1/generate", &body)
                    .map(|r| r.status)
                    .unwrap_or(0)
            })
        })
        .collect();
    wait_until("the backlog never queued", || {
        server.request_depth() == backlog
    });
    // Every queued request's budget runs out behind the plug.
    std::thread::sleep(Duration::from_millis(60));
    drop(hold);
    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    plug.join().unwrap();

    let shed_client = statuses.iter().filter(|&&s| s == 503).count();
    assert!(
        shed_client >= 1,
        "a 50 ms budget behind a {backlog}-deep single-worker backlog must shed: {statuses:?}"
    );
    assert!(
        statuses.iter().all(|&s| s == 200 || s == 503),
        "unexpected statuses: {statuses:?}"
    );
    // The worker bumps the shed counter after queueing each 503 reply, so
    // give the last increments a moment to land before pinning the count.
    let deadline = Instant::now() + Duration::from_secs(5);
    let row = loop {
        let row = tenant_row(addr, "default");
        if row.get("shed").and_then(Value::as_f64) == Some(shed_client as f64)
            || Instant::now() >= deadline
        {
            break row;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        row.get("shed").and_then(Value::as_f64),
        Some(shed_client as f64),
        "server-side shed count matches the clients' 503s: {row:?}"
    );
}
