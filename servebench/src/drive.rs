//! Loopback HTTP load generation: the keep-alive client, the open-loop ladder over
//! at most two client threads and two connections, and the server scrapes.

use rpg_server::client::{self, ClientResponse, Conn};
use serde::value::Value;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::plan::{Plan, Rung};

/// Client connections the load generator uses (the host has two cores).
pub const CONNECTIONS: usize = 2;

/// One keep-alive client connection that reopens itself after the server
/// announces `Connection: close` (the per-connection exchange budget) or
/// after a transport error.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    closed_by_server: bool,
    /// Connections reopened after a `Connection: close`.
    pub reconnects: u64,
}

impl Client {
    /// A client for `addr`; it connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            closed_by_server: false,
            reconnects: 0,
        }
    }

    /// One exchange on the persistent connection.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => {
                if self.closed_by_server {
                    self.reconnects += 1;
                    self.closed_by_server = false;
                }
                self.conn.insert(Conn::connect(self.addr)?)
            }
        };
        let result = conn.request(method, path, body);
        match &result {
            Ok(response) if response.closes_connection() => {
                self.conn = None;
                self.closed_by_server = true;
            }
            Ok(_) => {}
            Err(_) => self.conn = None,
        }
        result
    }

    /// Drops the connection (so an idle gap cannot outlive the server's
    /// idle timeout).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }
}

/// The outcome of one scheduled or sequential request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into [`Plan::requests`].
    pub request: usize,
    /// From the scheduled send time to the last response byte.
    pub latency: Duration,
    /// How late the generator sent versus its schedule.
    pub lateness: Duration,
    /// When the request was sent.
    pub sent: Instant,
    /// Whether a response arrived (of any status).
    pub responded: bool,
    /// F1 of the verified answer; `None` if the request failed.
    pub f1: Option<f64>,
}

/// What one rung of the ladder produced.
pub struct RungOutcome {
    /// Offered rate.
    pub rate: f64,
    /// One sample per request sent, in send order.
    pub samples: Vec<Sample>,
    /// Scheduled requests never sent because the generator fell behind.
    pub dropped: usize,
    /// From the rung's start to its last send.
    pub span: Duration,
    /// Failure messages (first few).
    pub errors: Vec<String>,
}

/// Checks one response; returns the answer's F1 or why it failed.
pub type Verify<'a> = dyn Fn(usize, &ClientResponse) -> Result<f64, String> + Sync + 'a;

/// Drives one rung open loop: each client thread takes the next arrival,
/// waits for its scheduled time and sends it, so a slow exchange delays the
/// arrivals behind it and that wait lands in their latency. Arrivals still
/// unsent `grace` after the rung's end are dropped.
pub fn open_loop(
    clients: &mut [Client],
    plan: &Plan,
    rung: &Rung,
    verify: &Verify<'_>,
    grace: Duration,
) -> RungOutcome {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let cutoff = start + rung.duration + grace;
    let shared = Mutex::new((Vec::with_capacity(rung.arrivals.len()), 0usize, Vec::new()));
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, shared) = (&next, &shared);
            scope.spawn(move || {
                let mut samples = Vec::new();
                let mut dropped = 0;
                let mut errors = Vec::new();
                while let Some(arrival) = rung.arrivals.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let due = start + arrival.at;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    if sent > cutoff {
                        dropped += 1;
                        continue;
                    }
                    let request = &plan.requests[arrival.request];
                    let response = client.exchange("POST", "/v1/generate", Some(&request.body));
                    let responded = response.is_ok();
                    let verdict = response
                        .map_err(|e| format!("request {}: {e}", arrival.request))
                        .and_then(|response| verify(arrival.request, &response));
                    let done = Instant::now();
                    if let Err(e) = &verdict {
                        errors.push(e.clone());
                    }
                    samples.push(Sample {
                        request: arrival.request,
                        latency: done - due,
                        lateness: sent - due,
                        sent,
                        responded,
                        f1: verdict.ok(),
                    });
                }
                let mut shared = shared.lock().expect("rung results lock");
                shared.0.extend(samples);
                shared.1 += dropped;
                shared.2.extend(errors);
            });
        }
    });
    let (mut samples, dropped, mut errors) = shared.into_inner().expect("rung results lock");
    samples.sort_by_key(|s: &Sample| s.sent);
    errors.truncate(5);
    let last = samples.iter().map(|s| s.sent).max().unwrap_or(start);
    RungOutcome {
        rate: rung.rate,
        span: last.saturating_duration_since(start),
        samples,
        dropped,
        errors,
    }
}

/// Checks a generate response's status, then its answer.
pub fn verify_generate(
    response: &ClientResponse,
    check: impl FnOnce(&str) -> Result<f64, String>,
) -> Result<f64, String> {
    if !(200..300).contains(&response.status) {
        return Err(format!(
            "status {}: {}",
            response.status,
            crate::oracle::clip(&response.body)
        ));
    }
    check(&response.body)
}

/// The server's own counters, scraped from `GET /metrics` and
/// `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    /// `/v1/stats` `responses.handled`.
    pub handled: u64,
    /// `/metrics` `rpg_responses_total`, summed over classes.
    pub responses_total: u64,
    /// `/v1/stats` `cache.hits`.
    pub cache_hits: u64,
    /// `/v1/stats` `cache.misses`.
    pub cache_misses: u64,
    /// `/metrics` `rpg_request_latency_seconds_sum` of the default tenant.
    pub latency_sum_s: f64,
    /// `/metrics` `rpg_request_latency_seconds_count` of the default tenant.
    pub latency_count: u64,
}

/// Responses each [`scrape`] pair adds to the server's counters between two
/// scrapes: a scrape's response is counted after its body renders, so the
/// earlier pair's `/v1/stats` and the later pair's `/metrics` fall between
/// the two `/v1/stats` (and the two `/metrics`) readings.
pub const SCRAPE_RESPONSES: u64 = 2;

/// Scrapes `/metrics`, then `/v1/stats`, on one-shot connections.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let metrics = client::get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    let stats = client::get(addr, "/v1/stats").map_err(|e| format!("GET /v1/stats: {e}"))?;
    if metrics.status != 200 || stats.status != 200 {
        return Err(format!(
            "scrape statuses {} / {}",
            metrics.status, stats.status
        ));
    }
    let mut scrape = Scrape::default();
    for line in metrics.body.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = match value.parse() {
            Ok(value) => value,
            Err(_) => continue,
        };
        if series.starts_with("rpg_responses_total{") {
            scrape.responses_total += value as u64;
        } else if series == "rpg_request_latency_seconds_sum{tenant=\"default\"}" {
            scrape.latency_sum_s = value;
        } else if series == "rpg_request_latency_seconds_count{tenant=\"default\"}" {
            scrape.latency_count = value as u64;
        }
    }
    let stats: Value = serde_json::from_str(&stats.body).map_err(|e| format!("/v1/stats: {e}"))?;
    let number = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("/v1/stats lacks {section}.{key}"))
    };
    scrape.handled = number("responses", "handled")?;
    scrape.cache_hits = number("cache", "hits")?;
    scrape.cache_misses = number("cache", "misses")?;
    Ok(scrape)
}

/// Blocks until `/v1/healthz` answers 200.
pub fn await_healthy(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client::get(addr, "/v1/healthz") {
            Ok(response) if response.status == 200 => return,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("server never became healthy: {other:?}"),
        }
    }
}
