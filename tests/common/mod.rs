//! The shared server harness for the loopback integration suites: spawn an
//! [`rpg_server::Server`] on an ephemeral port, wait until it provably
//! answers end-to-end, and guard shutdown on drop — so no test re-rolls the
//! registry/config/ready-wait boilerplate, and every test's counters start
//! from a clean baseline.
//!
//! The keep-alive connection mode is taken from the `RPG_TEST_KEEP_ALIVE`
//! environment variable (`off` disables it; anything else, including
//! absence, enables it), which is how CI runs the whole suite in a
//! keep-alive on/off matrix. Tests that assert keep-alive (or close-mode)
//! semantics specifically must pin `config.keep_alive` themselves instead
//! of inheriting the ambient mode.
//!
//! Likewise the readiness backend is taken from `RPG_IO_BACKEND`
//! (`auto`, `poll`, or `epoll`, exactly the `--io-backend` CLI values;
//! absence means `auto`), which is how CI runs the suite once per
//! backend. A value that does not parse fails loudly rather than falling
//! back — a typo'd matrix entry must not silently retest the default.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use rpg_repro::demo_corpus;
use rpg_server::client::{self, ClientResponse};
use rpg_server::{IoBackendChoice, Server, ServerConfig, StatsSnapshot};
use rpg_service::{CorpusRegistry, Manifest, StoredKey};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether this run serves keep-alive connections (see the module docs).
pub fn keep_alive_mode() -> bool {
    !std::env::var("RPG_TEST_KEEP_ALIVE").is_ok_and(|v| v.eq_ignore_ascii_case("off"))
}

/// The readiness backend this run drives the event loops with (see the
/// module docs). Panics on an unparseable `RPG_IO_BACKEND`.
pub fn io_backend_mode() -> IoBackendChoice {
    match std::env::var("RPG_IO_BACKEND") {
        Ok(value) => IoBackendChoice::parse(&value)
            .unwrap_or_else(|e| panic!("RPG_IO_BACKEND={value:?}: {e}")),
        Err(_) => IoBackendChoice::Auto,
    }
}

/// The suite-wide base configuration: an ephemeral port, the ambient
/// keep-alive mode, and the ambient readiness backend. Everything else
/// stays at the server's defaults.
pub fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        keep_alive: keep_alive_mode(),
        io_backend: io_backend_mode(),
        ..ServerConfig::default()
    }
}

/// A registry serving the demo corpus as the `default` tenant.
pub fn demo_registry() -> Arc<CorpusRegistry> {
    let registry = Arc::new(CorpusRegistry::new());
    registry.register("default", demo_corpus()).unwrap();
    registry
}

/// Like [`demo_registry`] with result caching disabled, so every request
/// pays a full pipeline run (what the overload tests need).
pub fn demo_registry_without_cache() -> Arc<CorpusRegistry> {
    let registry = Arc::new(CorpusRegistry::with_cache_capacity(0));
    registry.register("default", demo_corpus()).unwrap();
    registry
}

/// The first `count` benchmark queries of the demo corpus, with their
/// publication years.
pub fn demo_queries(count: usize) -> Vec<(String, u16)> {
    demo_corpus()
        .survey_bank()
        .iter()
        .take(count)
        .map(|s| (s.query.clone(), s.year))
        .collect()
}

/// The JSON body of a `/v1/generate` request.
pub fn generate_body(query: &str, year: u16, top_k: usize) -> String {
    format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": {top_k}}}"#)
}

/// A running server plus the counter baseline its readiness probe left
/// behind. Dropping it shuts the server down and joins every thread — the
/// guard half of the harness.
pub struct TestServer {
    server: Server,
    baseline: StatsSnapshot,
}

impl TestServer {
    /// Counters since the server became ready, with the readiness probe's
    /// own exchange subtracted out — tests assert absolute counts as if
    /// the probe never happened.
    pub fn stats(&self) -> StatsSnapshot {
        let raw = self.server.stats();
        StatsSnapshot {
            accepted: raw.accepted.saturating_sub(self.baseline.accepted),
            open_connections: raw.open_connections,
            rejected: raw.rejected.saturating_sub(self.baseline.rejected),
            throttled: raw.throttled.saturating_sub(self.baseline.throttled),
            handled: raw.handled.saturating_sub(self.baseline.handled),
            ok: raw.ok.saturating_sub(self.baseline.ok),
            client_errors: raw
                .client_errors
                .saturating_sub(self.baseline.client_errors),
            server_errors: raw
                .server_errors
                .saturating_sub(self.baseline.server_errors),
            pipeline_runs: raw.pipeline_runs,
        }
    }
}

impl std::ops::Deref for TestServer {
    type Target = Server;
    fn deref(&self) -> &Server {
        &self.server
    }
}

impl std::ops::DerefMut for TestServer {
    fn deref_mut(&mut self) -> &mut Server {
        &mut self.server
    }
}

/// Spawns a server over `registry` with [`base_config`] tweaked by
/// `configure`, and blocks until it provably serves: a `/v1/healthz` probe
/// must answer 200 end-to-end and the probe connection must be fully
/// closed again (so open-connection gauges start at zero).
pub fn spawn_with(
    registry: Arc<CorpusRegistry>,
    configure: impl FnOnce(&mut ServerConfig),
) -> TestServer {
    let mut config = base_config();
    configure(&mut config);
    let server = Server::spawn(registry, config).expect("server binds an ephemeral port");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(server.addr(), "/v1/healthz") {
            Ok(response) if response.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(response) => panic!(
                "server never became ready: last healthz {}",
                response.status
            ),
            Err(e) => panic!("server never became ready: {e}"),
        }
    }
    // The probe was a `Connection: close` exchange; wait for the server to
    // finish tearing its connection down so tests observing the open gauge
    // (or thread/connection counts) see a quiescent server.
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "readiness probe connection never closed"
        );
        std::thread::yield_now();
    }
    let baseline = server.stats();
    TestServer { server, baseline }
}

/// The common spawn shape: `workers` compute threads and a global request
/// queue bound, everything else default.
pub fn spawn(registry: Arc<CorpusRegistry>, workers: usize, queue: usize) -> TestServer {
    spawn_with(registry, |config| {
        config.workers = workers;
        config.queue_capacity = queue;
    })
}

/// Waits until `ready` holds, failing the test with `what` after 10 s.
pub fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}

/// Waits until the single compute worker provably holds a just-sent plug
/// request: its lane exists (admitted), the queue is empty (popped), and
/// nothing has completed yet. Tests take [`Server::hold_replies`] before
/// sending the plug, so the plug stays on the worker, reply unsent, until
/// the test drops the hold.
pub fn wait_worker_busy(server: &TestServer, tenant: &str) {
    wait_until("worker never picked up the plug request", || {
        let lane_exists = server
            .tenant_depths()
            .iter()
            .any(|(name, _)| name == tenant);
        lane_exists && server.request_depth() == 0 && server.stats().handled == 0
    });
}

/// The admin bearer key of [`demo_manifest`].
pub const ADMIN_KEY: &str = "root-key";
/// Tenant `alpha`'s bearer key in [`demo_manifest`].
pub const ALPHA_KEY: &str = "alpha-key";
/// Tenant `beta`'s bearer key in [`demo_manifest`].
pub const BETA_KEY: &str = "beta-key";

/// The stored form of a fixture key, as `rpg hash-key` prints it, under a
/// fixed salt so every fixture names the same hash.
pub fn hashed_key(key: &str) -> String {
    StoredKey::with_salt(key, b"fixture").encode()
}

/// The control-plane test fixture: two small-corpus tenants with distinct
/// keys (weights 1 and 2) plus an admin key, each named by its hash.
pub fn demo_manifest_json() -> String {
    let [admin, alpha, beta] = [ADMIN_KEY, ALPHA_KEY, BETA_KEY].map(hashed_key);
    format!(
        r#"{{
        "admin_key_hashes": [{admin:?}],
        "tenants": {{
            "alpha": {{
                "corpus": {{"seed": 161, "scale": "small"}},
                "weight": 1,
                "key_hashes": [{alpha:?}]
            }},
            "beta": {{
                "corpus": {{"seed": 178, "scale": "small"}},
                "weight": 2,
                "key_hashes": [{beta:?}]
            }}
        }}
    }}"#
    )
}

/// The parsed [`demo_manifest_json`].
pub fn demo_manifest() -> Manifest {
    Manifest::from_json(&demo_manifest_json()).expect("fixture manifest is valid")
}

/// Spawns an authenticated (`--auth on` equivalent) server over the
/// [`demo_manifest`] tenants, with `configure` applied on top.
pub fn spawn_manifest_server(configure: impl FnOnce(&mut ServerConfig)) -> TestServer {
    let manifest = demo_manifest();
    let registry = Arc::new(CorpusRegistry::new());
    registry
        .apply_manifest(&manifest)
        .expect("fixture tenants build");
    // `configure` runs first so `with_manifest` derives per-tenant
    // in-flight caps from the worker count the test actually asked for.
    spawn_with(registry, |config| {
        config.auth_enabled = true;
        configure(config);
        *config = config.clone().with_manifest(&manifest);
    })
}

/// One request with a bearer key on a fresh connection.
pub fn request_with_key(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    key: Option<&str>,
) -> std::io::Result<ClientResponse> {
    match key {
        Some(key) => {
            let (name, value) = client::bearer(key);
            client::request_with(addr, method, path, body, &[(&name, &value)])
        }
        None => client::request_with(addr, method, path, body, &[]),
    }
}

/// `GET` with a bearer key.
pub fn get_with_key(addr: SocketAddr, path: &str, key: &str) -> std::io::Result<ClientResponse> {
    request_with_key(addr, "GET", path, None, Some(key))
}

/// `POST` JSON with a bearer key.
pub fn post_json_with_key(
    addr: SocketAddr,
    path: &str,
    body: &str,
    key: &str,
) -> std::io::Result<ClientResponse> {
    request_with_key(addr, "POST", path, Some(body), Some(key))
}

/// The first benchmark query of the corpus a fixture tenant serves,
/// straight from the live registry.
pub fn tenant_query(server: &Server, tenant: &str) -> (String, u16) {
    let artifacts = server
        .registry()
        .artifacts(tenant)
        .unwrap_or_else(|| panic!("tenant {tenant} is registered"));
    let survey = artifacts
        .corpus()
        .survey_bank()
        .iter()
        .next()
        .expect("fixture corpus has surveys");
    (survey.query.clone(), survey.year)
}
