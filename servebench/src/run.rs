//! One benchmark invocation: set-up, oracle, the timed (or traced) phase,
//! the server cross-check, and the report.

use crate::drive::{self, Client, RungOutcome, Sample, Scrape, CONNECTIONS, SCRAPE_RESPONSES};
use crate::oracle::Oracle;
use crate::plan::{Plan, Rng, Rung, Workload, CORPUS};
use crate::trace::{Replayer, Tracer, STAGES};
use crate::{mean, quantile, windowed_quantile};
use rpg_corpus::{Corpus, Survey};
use rpg_repager::{CorpusArtifacts, StageCounters};
use rpg_server::api::MAX_BATCH;
use rpg_server::client::ClientResponse;
use rpg_server::{Server, ServerConfig};
use rpg_service::CorpusRegistry;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// In-process refreshes after a traced open-loop workload
/// (`service.refresh_p50_ms`).
const REFRESHES: usize = 9;
/// A scheduled request not sent this long after its rung ended means the
/// generator fell behind (a host stall alone can last tens of ms).
const KEPT_UP_GRACE: Duration = Duration::from_secs(1);
/// Cold requests the oracle checks: one in this many.
const COLD_SAMPLE_EVERY: usize = 10;
/// Replayed requests whose stage counters and sub-graph sizes the traced
/// run reports, so those figures are exact for a seed.
const COUNTER_WINDOW: usize = 64;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed of the request list and the arrival schedule.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {value:?}; expected one of {}",
                            names.join(", ")
                        )
                    })?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// The server configuration of a workload: the host defaults, except that
/// `survey_batch`'s tenant and the global queue admit a whole batch (the
/// default bounds of 8 and 64 would answer most items with 429 or 503).
pub fn server_config(workload: Workload) -> ServerConfig {
    let mut config = ServerConfig::default();
    if workload == Workload::Batch {
        config.tenant_bounds = vec![(CORPUS.to_string(), MAX_BATCH)];
        config.queue_capacity = MAX_BATCH;
    }
    config
}

/// One line per knob of the resolved server configuration.
fn describe(config: &ServerConfig, server: &Server, cache: usize) -> String {
    format!(
        "server: workers={} event_loops={} io_backend={} keep_alive={} \
         max_requests_per_connection={} queue_capacity={} tenant_queue_capacity={} \
         tenant_bounds={:?} result_cache={} available_parallelism={}",
        config.workers,
        server.driver_threads(),
        server.io_backend().as_str(),
        config.keep_alive,
        config.max_requests_per_connection,
        config.queue_capacity,
        config.tenant_queue_capacity,
        config.tenant_bounds,
        cache,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

struct SetupTimes {
    total: Duration,
    generate: Duration,
    build: Duration,
}

/// Generates the corpus, builds its artifacts and boots the server until
/// `/v1/healthz` answers, [`SETUPS`] times; keeps the last server.
fn setup(workload: Workload, process_start: Instant) -> (Arc<Corpus>, Server, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut last: Option<(Arc<Corpus>, Server)> = None;
    for round in 0..SETUPS {
        drop(last.take());
        let started = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let t = Instant::now();
        let corpus = Arc::new(rpg_corpus::generate(&rpg_bench::bench_corpus_config()));
        let generate = t.elapsed();
        let t = Instant::now();
        let artifacts = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
        let build = t.elapsed();
        let registry = Arc::new(CorpusRegistry::new());
        registry.register_artifacts(CORPUS, artifacts);
        let server = Server::spawn(registry, server_config(workload)).expect("server binds");
        drive::await_healthy(server.addr());
        times.push(SetupTimes {
            total: started.elapsed(),
            generate,
            build,
        });
        last = Some((corpus, server));
    }
    let (corpus, server) = last.expect("at least one set-up");
    (corpus, server, times)
}

/// Exchange counters of the run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    /// Exchanges that got a response, of any status.
    responded: u64,
    /// Generate answers (requests or batch items) that verified.
    answers_ok: u64,
    errors: Vec<String>,
}

impl Ops {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Books an open-loop rung's samples.
    fn book(&mut self, outcome: &RungOutcome) {
        self.attempted += outcome.samples.len() as u64;
        self.responded += outcome.samples.iter().filter(|s| s.responded).count() as u64;
        self.answers_ok += outcome.samples.iter().filter(|s| s.f1.is_some()).count() as u64;
        let failed = outcome.samples.iter().filter(|s| s.f1.is_none()).count() as u64;
        self.failed += failed;
        for error in &outcome.errors {
            if self.errors.len() < 8 {
                self.errors.push(error.clone());
            }
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Everything the run measured, ready to print.
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    ops: Ops,
}

impl Report {
    /// Whether every answer verified and the server agreed with the client.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// Prints the human-readable report, then the one-line JSON result.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "ops_total {} ops_failed {}",
            self.ops.attempted, self.ops.failed
        );
        for error in &self.ops.errors {
            println!("failure: {error}");
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("{name:<36} {value:>16.6} {unit}");
            let value = if value.is_finite() { *value } else { 1.0e12 };
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        println!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{json}}}}}"#,
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed
        );
    }
}

/// The state one run shares across its phases.
struct Bench<'a> {
    args: &'a Args,
    plan: Plan,
    oracle: Oracle,
    server: Server,
    addr: SocketAddr,
    clients: Vec<Client>,
    ops: Ops,
    lines: Vec<String>,
    /// F1 of the first verified answer to each request.
    f1: BTreeMap<usize, f64>,
}

/// Runs one invocation end to end.
pub fn run(args: &Args, process_start: Instant) -> Report {
    let workload = args.workload;
    let (corpus, server, setups) = setup(workload, process_start);
    let surveys: Vec<&Survey> = corpus.survey_bank().iter().collect();
    let plan = Plan::new(workload, args.seed, args.seconds as f64, &surveys);
    let addr = server.addr();
    let mut lines = vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("corpus: {} papers, {} surveys", corpus.len(), surveys.len()),
        describe(
            &server_config(workload),
            &server,
            server.registry().cache_stats().capacity,
        ),
        format!(
            "plan digest {:016x}: {} requests, {} scheduled arrivals, {} planned rounds",
            plan.digest(),
            plan.requests.len(),
            plan.arrivals().count(),
            plan.rounds.len()
        ),
    ];
    for rung in &plan.rungs {
        lines.push(format!(
            "rung {:>6.0} req/s for {:.2} s: {} arrivals",
            rung.rate,
            rung.duration.as_secs_f64(),
            rung.arrivals.len()
        ));
    }

    let oracle_started = Instant::now();
    let mut oracle = Oracle::new(corpus.clone());
    oracle.compute(&plan, &oracle_sample(&plan, args.seed));
    let oracle_s = oracle_started.elapsed().as_secs_f64();

    let mut bench = Bench {
        args,
        plan,
        oracle,
        server,
        addr,
        clients: (0..CONNECTIONS).map(|_| Client::new(addr)).collect(),
        ops: Ops::default(),
        lines,
        f1: BTreeMap::new(),
    };
    if workload == Workload::Hot {
        bench.warm_hot_keys();
    }
    let mut metrics: Vec<Metric> = Vec::new();
    let setup_total: Vec<f64> = setups.iter().map(|t| t.total.as_secs_f64()).collect();
    if args.trace {
        bench.traced(&mut metrics);
        let ms = |f: fn(&SetupTimes) -> Duration| {
            let values: Vec<f64> = setups.iter().map(|t| f(t).as_secs_f64() * 1e3).collect();
            quantile(&values, 0.5)
        };
        metrics.push(("corpus.generate_ms", ms(|t| t.generate), "ms"));
        metrics.push(("service.artifacts_build_ms", ms(|t| t.build), "ms"));
        metrics.push(("bench.oracle_s", oracle_s, "s"));
    } else {
        metrics.push(("setup_s", quantile(&setup_total, 0.5), "s"));
        bench.untraced(&mut metrics);
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        bench
            .lines
            .push(format!("oracle {oracle_s:.3} s (excluded from setup_s)"));
    }
    let Bench {
        mut server,
        ops,
        lines,
        ..
    } = bench;
    server.shutdown();
    Report {
        lines,
        metrics,
        ops,
    }
}

/// The requests the oracle checks: every hot key, every batch item, and a
/// seeded one-in-[`COLD_SAMPLE_EVERY`] sample of the cold requests.
fn oracle_sample(plan: &Plan, seed: u64) -> Vec<usize> {
    match plan.workload {
        Workload::Hot | Workload::Batch => (0..plan.requests.len()).collect(),
        Workload::Cold => {
            let mut rng = Rng::new(seed ^ 0x0DAC_1E5A_3E1E_C7ED);
            (0..plan.requests.len())
                .filter(|_| rng.below(COLD_SAMPLE_EVERY) == 0)
                .collect()
        }
    }
}

/// On-CPU time of the server's own threads (event loops, compute workers,
/// acceptor, rejector): the sum of their `se.sum_exec_runtime` in
/// `/proc/self/task/*/sched`. The client threads, the oracle and the host's
/// steal time are not in it.
fn server_cpu() -> Duration {
    let mut total_ms = 0.0;
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let Ok(sched) = std::fs::read_to_string(task.path().join("sched")) else {
            continue;
        };
        let name = sched.split(" (").next().unwrap_or_default();
        let server = ["rpg-loop-", "rpg-worker-", "rpg-accept", "rpg-reject"]
            .iter()
            .any(|prefix| name.starts_with(prefix));
        if !server {
            continue;
        }
        total_ms += sched
            .lines()
            .find_map(|line| line.strip_prefix("se.sum_exec_runtime"))
            .and_then(|rest| {
                rest.trim_start_matches([' ', ':'])
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0);
    }
    Duration::from_secs_f64(total_ms / 1e3)
}

/// `VmHWM` of this process (the one hosting the server), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Bench<'_> {
    /// Runs an open-loop rung and books it.
    fn rung(&mut self, rung: &Rung, grace: Duration) -> RungOutcome {
        let outcome = {
            let (oracle, plan) = (&self.oracle, &self.plan);
            let verify = |request: usize, response: &ClientResponse| {
                drive::verify_generate(response, |body| oracle.check(plan, request, body))
            };
            drive::open_loop(&mut self.clients, plan, rung, &verify, grace)
        };
        self.ops.book(&outcome);
        outcome
    }

    /// Books the F1 of each verified answer of a rung.
    fn score(&mut self, outcome: &RungOutcome) {
        for sample in &outcome.samples {
            if let Some(f1) = sample.f1 {
                self.f1.entry(sample.request).or_insert(f1);
            }
        }
    }

    /// Sends every hot key once (cache misses that fill the cache), each
    /// verified against the oracle, before timing starts.
    fn warm_hot_keys(&mut self) {
        let warm = Rung {
            rate: 0.0,
            duration: Duration::ZERO,
            arrivals: (0..self.plan.requests.len())
                .map(|request| crate::plan::Arrival {
                    at: Duration::ZERO,
                    request,
                })
                .collect(),
        };
        let outcome = self.rung(&warm, Duration::from_secs(120));
        self.score(&outcome);
    }

    fn scrape(&mut self) -> Option<(Scrape, rpg_service::CacheStats)> {
        let cache = self.server.registry().cache_stats();
        match drive::scrape(self.addr) {
            Ok(scrape) => Some((scrape, cache)),
            Err(e) => {
                self.ops.fail(format!("scrape: {e}"));
                None
            }
        }
    }

    /// The server cross-check over a window: its response counts must
    /// equal the exchanges the client completed, and its cache deltas must
    /// agree with the in-process `cache_stats` ratio and with what the
    /// workload implies (every hot request hits; nothing else does).
    /// Returns `service.cache_hit_ratio`.
    fn cross_check(
        &mut self,
        before: Option<(Scrape, rpg_service::CacheStats)>,
        after: Option<(Scrape, rpg_service::CacheStats)>,
        responded: u64,
        answers_ok: u64,
    ) -> (f64, Scrape) {
        let (Some((s0, c0)), Some((s1, c1))) = (before, after) else {
            return (0.0, Scrape::default());
        };
        let expected = responded + SCRAPE_RESPONSES;
        let handled = s1.handled - s0.handled;
        let total = s1.responses_total - s0.responses_total;
        if handled != expected || total != expected {
            self.ops.fail(format!(
                "server counted {handled} (/v1/stats) and {total} (/metrics) responses, client completed {responded} (+{SCRAPE_RESPONSES} scrapes)"
            ));
        }
        let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
        let ratio = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let wire = (
            s1.cache_hits - s0.cache_hits,
            s1.cache_misses - s0.cache_misses,
        );
        if wire != (hits, misses) {
            self.ops.fail(format!(
                "/v1/stats cache deltas {wire:?} contradict cache_stats ({hits}, {misses})"
            ));
        }
        let implied = match self.args.workload {
            Workload::Hot => (answers_ok, 0),
            Workload::Cold | Workload::Batch => (0, answers_ok),
        };
        if (hits, misses) != implied {
            self.ops.fail(format!(
                "cache hits/misses ({hits}, {misses}) for {answers_ok} verified answers; {} implies {implied:?}",
                self.args.workload.name()
            ));
        }
        let delta = Scrape {
            latency_sum_s: s1.latency_sum_s - s0.latency_sum_s,
            latency_count: s1.latency_count - s0.latency_count,
            ..Scrape::default()
        };
        (ratio, delta)
    }

    /// One `survey_batch` round on the first connection: a refresh, then
    /// the batch of every survey in the round's order. With `trace`, each
    /// exchange gets a span under the given root.
    fn batch_round(&mut self, round: usize, mut trace: Option<TraceRoot<'_>>) -> BatchRound {
        let order = self.plan.rounds[round % self.plan.rounds.len()].clone();
        let body = format!(
            r#"{{"requests":[{}]}}"#,
            order
                .iter()
                .map(|&i| self.plan.requests[i].body.as_str())
                .collect::<Vec<_>>()
                .join(",")
        );
        let span = open_in(&mut trace, "server.refresh_exchange");
        let refresh = self.refresh_exchange();
        close_in(&mut trace, span);
        let span = open_in(&mut trace, "server.exchange");
        let t = Instant::now();
        let answered = self.clients[0].exchange("POST", "/v1/batch", Some(&body));
        let batch = t.elapsed();
        close_in(&mut trace, span);
        self.ops.attempted += 1;
        let mut items_ok = 0;
        let mut answers = Vec::new();
        match answered {
            Ok(response) => {
                self.ops.responded += 1;
                let items = (response.status == 200)
                    .then(|| crate::json::field(&response.body, "results"))
                    .flatten()
                    .and_then(crate::json::elements);
                match items {
                    Some(items) if items.len() == order.len() => {
                        for (&request, item) in order.iter().zip(items) {
                            match self.oracle.check(&self.plan, request, item) {
                                Ok(f1) => {
                                    items_ok += 1;
                                    self.f1.entry(request).or_insert(f1);
                                    answers.push((request, item.to_string()));
                                }
                                Err(e) => self.ops.fail(e),
                            }
                        }
                    }
                    _ => self.ops.fail(format!(
                        "batch status {}: {}",
                        response.status,
                        crate::oracle::clip(&response.body)
                    )),
                }
            }
            Err(e) => self.ops.fail(format!("batch: {e}")),
        }
        self.ops.answers_ok += items_ok as u64;
        BatchRound {
            refresh,
            batch,
            items_ok,
            answers,
        }
    }

    /// One `POST /v1/corpora/default/refresh` exchange on the first
    /// connection, booked; returns how long it took.
    fn refresh_exchange(&mut self) -> Duration {
        let t = Instant::now();
        let response = self.clients[0].exchange("POST", "/v1/corpora/default/refresh", None);
        let took = t.elapsed();
        self.ops.attempted += 1;
        match response {
            Ok(response) => {
                self.ops.responded += 1;
                if response.status != 200 {
                    self.ops.fail(format!("refresh status {}", response.status));
                }
            }
            Err(e) => self.ops.fail(format!("refresh: {e}")),
        }
        took
    }

    fn window_start(&mut self) -> (Option<(Scrape, rpg_service::CacheStats)>, u64, u64) {
        for client in &mut self.clients {
            client.disconnect();
        }
        (self.scrape(), self.ops.responded, self.ops.answers_ok)
    }

    /// The end-to-end run: tracing off.
    fn untraced(&mut self, metrics: &mut Vec<Metric>) {
        let workload = self.args.workload;
        let limit = workload.limit();
        let (before, responded, answers) = self.window_start();
        let (max_rate, paths_per_s, cpu_us);
        if workload == Workload::Batch {
            let started = Instant::now();
            let mut rounds = Vec::new();
            while rounds.is_empty() || started.elapsed().as_secs() < self.args.seconds {
                let cpu = server_cpu();
                let round = self.batch_round(rounds.len(), None);
                rounds.push((round, server_cpu() - cpu));
            }
            let wall = started.elapsed().as_secs_f64();
            let batch: Vec<f64> = rounds.iter().map(|(r, _)| ms(r.batch)).collect();
            let refresh: Vec<f64> = rounds.iter().map(|(r, _)| ms(r.refresh)).collect();
            let p50 = quantile(&batch, 0.5);
            self.latency_line("batch exchange", &batch);
            self.lines.push(format!(
                "refresh_ms (not gated) {:.3} ms, median of {} refresh exchanges",
                quantile(&refresh, 0.5),
                refresh.len()
            ));
            // Medians over the rounds, so one round caught by a host stall
            // does not move the run's figure.
            let per_round = |f: &dyn Fn(&BatchRound, Duration) -> f64| {
                let values: Vec<f64> = rounds.iter().map(|(r, cpu)| f(r, *cpu)).collect();
                quantile(&values, 0.5)
            };
            max_rate = per_round(&|r, _| r.items_ok as f64 / r.batch.as_secs_f64());
            paths_per_s =
                per_round(&|r, _| r.items_ok as f64 / (r.refresh + r.batch).as_secs_f64());
            cpu_us = per_round(&|r, cpu| us(cpu) / r.items_ok.max(1) as f64);
            self.lines.push(format!(
                "{} rounds in {wall:.2} s; batch p50 {p50:.1} ms (limit p50 <= {} ms: {})",
                rounds.len(),
                limit.ms,
                if p50 <= limit.ms { "met" } else { "missed" }
            ));
        } else {
            let rungs = self.plan.rungs.clone();
            let outcomes: Vec<(RungOutcome, Duration)> = rungs
                .iter()
                .map(|rung| {
                    let cpu = server_cpu();
                    let outcome = self.rung(rung, KEPT_UP_GRACE);
                    (outcome, server_cpu() - cpu)
                })
                .collect();
            let (mut max, mut met_ok, mut met_span, mut met_cpu) = (0.0, 0, 0.0, Duration::ZERO);
            for (outcome, cpu) in &outcomes {
                let latencies = latencies_ms(&outcome.samples);
                let ok = outcome.samples.iter().filter(|s| s.f1.is_some()).count();
                let at_limit = windowed_quantile(&latencies, limit.quantile);
                let kept_up = outcome.dropped == 0;
                let met = !latencies.is_empty()
                    && ok == latencies.len()
                    && kept_up
                    && at_limit <= limit.ms;
                let achieved = ok as f64 / outcome.span.as_secs_f64().max(1e-9);
                if met {
                    max = achieved;
                    met_ok += ok;
                    met_span += outcome.span.as_secs_f64();
                    met_cpu += *cpu;
                }
                let lateness: Vec<f64> = outcome.samples.iter().map(|s| ms(s.lateness)).collect();
                self.lines.push(format!(
                    "rung {:>6.0} req/s: sent {} ok {} dropped {} achieved {achieved:.1} req/s \
                     p50 {:.3} ms p{:.0} {at_limit:.3} ms lateness p50 {:.3} p99 {:.3} ms -> {}",
                    outcome.rate,
                    latencies.len(),
                    ok,
                    outcome.dropped,
                    windowed_quantile(&latencies, 0.5),
                    limit.quantile * 100.0,
                    quantile(&lateness, 0.5),
                    quantile(&lateness, 0.99),
                    if met { "met" } else { "missed" }
                ));
            }
            let nominal = &outcomes[0].0;
            if workload == Workload::Cold {
                self.score(nominal);
            }
            let latencies = latencies_ms(&nominal.samples);
            let floor = if workload == Workload::Hot { 1000 } else { 200 };
            self.lines.push(format!(
                "nominal rung {:.0} req/s collected {} requests (needs >= {floor}: {})",
                nominal.rate,
                latencies.len(),
                if latencies.len() >= floor {
                    "ok"
                } else {
                    "SHORT"
                }
            ));
            cpu_us = us(met_cpu) / met_ok.max(1) as f64;
            self.latency_line("nominal rung", &latencies);
            max_rate = max;
            paths_per_s = if met_span > 0.0 {
                met_ok as f64 / met_span
            } else {
                0.0
            };
        }
        let after = self.scrape();
        let responded = self.ops.responded - responded;
        let answers = self.ops.answers_ok - answers;
        let (ratio, _) = self.cross_check(before, after, responded, answers);
        self.lines.push(format!(
            "service.cache_hit_ratio over the timed phase: {ratio}"
        ));
        metrics.extend([
            ("cpu_us_per_req", cpu_us, "us"),
            ("max_rate_rps", max_rate, "req/s"),
            ("paths_per_s", paths_per_s, "paths/s"),
            ("mean_f1", self.mean_f1(), "ratio"),
        ]);
    }

    /// Prints the latency quantiles. They are reported, not gated: on a
    /// shared virtual host, run-to-run swings in wake-up delay and CPU speed
    /// move them by more than any bound this benchmark could hold.
    fn latency_line(&mut self, what: &str, latencies_ms: &[f64]) {
        self.lines.push(format!(
            "latency (not gated), {what}, {} samples: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
            latencies_ms.len(),
            windowed_quantile(latencies_ms, 0.5),
            windowed_quantile(latencies_ms, 0.95),
            windowed_quantile(latencies_ms, 0.99)
        ));
    }

    /// Mean F1@k over the distinct requests scored: the hot keys, the cold
    /// nominal rung, every batch item.
    fn mean_f1(&self) -> f64 {
        mean(&self.f1.values().copied().collect::<Vec<_>>())
    }

    /// The traced run. Open-loop workloads first run their nominal rung
    /// untraced for a quarter of the time (the generator's lateness). Then
    /// the same requests go one at a time: untraced until half the time
    /// (the untraced exchange p50, for the tracing overhead), then traced,
    /// each exchange followed by its in-process replay. `survey_batch` runs
    /// one untraced round, then traced rounds.
    fn traced(&mut self, metrics: &mut Vec<Metric>) {
        let workload = self.args.workload;
        let seconds = self.args.seconds as f64;
        let started = Instant::now();
        let traced_from = started + Duration::from_secs_f64(seconds / 2.0);
        let deadline = started + Duration::from_secs_f64(seconds);
        let workers = server_config(workload).workers.max(1) as f64;
        let mut tracer = Tracer::new();
        let mut replayer = Replayer::new(&self.oracle);
        let mut layer = LayerSums::default();
        let mut untraced = Vec::new();
        let mut lateness_p99_ms = None;
        let mut nominal_ms = Vec::new();
        let mut skip = Vec::new();
        if workload != Workload::Batch {
            let nominal = &self.plan.rungs[0];
            let phase = Duration::from_secs_f64(seconds / 4.0);
            let rung = Rung {
                rate: nominal.rate,
                duration: phase,
                arrivals: nominal
                    .arrivals
                    .iter()
                    .copied()
                    .filter(|a| a.at < phase)
                    .collect(),
            };
            let outcome = self.rung(&rung, KEPT_UP_GRACE);
            let lateness: Vec<f64> = outcome.samples.iter().map(|s| ms(s.lateness)).collect();
            lateness_p99_ms = Some(quantile(&lateness, 0.99));
            nominal_ms = latencies_ms(&outcome.samples);
            skip = rung.arrivals.iter().map(|a| a.request).collect();
        }

        let (before, responded, answers) = self.window_start();
        let mut id = 0u64;
        if workload == Workload::Batch {
            untraced.push(us(self.batch_round(0, None).batch));
            let mut round = 1;
            let mut previous_end: Option<Instant> = None;
            while round == 1 || Instant::now() < deadline {
                // The closed loop's lateness: from one round's end to the
                // next round's first send.
                if let Some(end) = previous_end {
                    layer.lateness.push(ms(end.elapsed()));
                }
                // The replay outlasts the server's idle timeout.
                self.clients[0].disconnect();
                let root = tracer.open(id, None, "round");
                let outcome = self.batch_round(round, Some((&mut tracer, id, root)));
                layer.exchange.push(us(outcome.batch));
                tracer
                    .time(id, Some(root), "service.refresh", || {
                        self.oracle.registry.refresh_in_place(CORPUS)
                    })
                    .map_or_else(|e| self.ops.fail(format!("replay refresh: {e}")), |_| ());
                let mut replayed_total = Duration::ZERO;
                for (request, answer) in &outcome.answers {
                    id += 1;
                    let replay = tracer.open(id, Some(root), "replay");
                    let replayed = replayer.replay(
                        &mut tracer,
                        id,
                        replay,
                        &self.plan.requests[*request],
                        &self.oracle,
                        false,
                    );
                    tracer.close(replay);
                    let span = &tracer.spans()[replay];
                    replayed_total += span.end - span.start;
                    layer.record(replayed, answer, &mut self.ops, round == 1);
                }
                layer
                    .residual
                    .push(us(outcome.batch) - us(replayed_total) / workers);
                layer
                    .fanout
                    .push(replayed_total.as_secs_f64() / (workers * outcome.batch.as_secs_f64()));
                tracer.close(root);
                previous_end = Some(Instant::now());
                id += 1;
                round += 1;
            }
        } else {
            let sequence: Vec<usize> = self
                .plan
                .arrivals()
                .map(|a| a.request)
                .filter(|r| workload == Workload::Hot || !skip.contains(r))
                .collect();
            // Traced requests come from the front of the sequence and
            // untraced ones from the back, so which requests are traced (and
            // so the exact counters) does not depend on timing. Hot keys may
            // wrap around; a cold request is never sent twice.
            let len = sequence.len();
            let (mut front, mut back) = (0, 0);
            loop {
                let now = Instant::now();
                if now >= deadline || (workload == Workload::Cold && front + back >= len) {
                    break;
                }
                let traced = now >= traced_from;
                let request = if traced {
                    front += 1;
                    sequence[(front - 1) % len]
                } else {
                    back += 1;
                    sequence[len - 1 - (back - 1) % len]
                };
                let root = traced.then(|| {
                    id += 1;
                    tracer.open(id, None, "request")
                });
                let exchange = root.map(|root| tracer.open(id, Some(root), "server.exchange"));
                let t = Instant::now();
                let body = &self.plan.requests[request].body;
                let response = self.clients[0].exchange("POST", "/v1/generate", Some(body));
                let exchange_d = t.elapsed();
                self.ops.attempted += 1;
                let answer = match response {
                    Ok(response) => {
                        self.ops.responded += 1;
                        let (oracle, plan) = (&self.oracle, &self.plan);
                        match drive::verify_generate(&response, |body| {
                            oracle.check(plan, request, body)
                        }) {
                            Ok(_) => {
                                self.ops.answers_ok += 1;
                                Some(response.body)
                            }
                            Err(e) => {
                                self.ops.fail(e);
                                None
                            }
                        }
                    }
                    Err(e) => {
                        self.ops.fail(format!("request {request}: {e}"));
                        None
                    }
                };
                let (Some(root), Some(exchange)) = (root, exchange) else {
                    untraced.push(us(exchange_d));
                    continue;
                };
                tracer.close(exchange);
                let replay = tracer.open(id, Some(root), "replay");
                let replayed = replayer.replay(
                    &mut tracer,
                    id,
                    replay,
                    &self.plan.requests[request],
                    &self.oracle,
                    workload == Workload::Hot,
                );
                tracer.close(replay);
                tracer.close(root);
                let spans = tracer.spans();
                let exchange_d = spans[exchange].end - spans[exchange].start;
                let replay_d = spans[replay].end - spans[replay].start;
                layer.exchange.push(us(exchange_d));
                layer.residual.push(us(exchange_d) - us(replay_d));
                layer
                    .fanout
                    .push(replay_d.as_secs_f64() / (workers * exchange_d.as_secs_f64()));
                if let Some(answer) = answer {
                    let windowed = (id as usize) <= COUNTER_WINDOW;
                    layer.record(replayed, &answer, &mut self.ops, windowed);
                }
            }
            for _ in 0..REFRESHES {
                tracer
                    .time(id, None, "service.refresh", || {
                        self.oracle.registry.refresh_in_place(CORPUS)
                    })
                    .map_or_else(|e| self.ops.fail(format!("replay refresh: {e}")), |_| ());
            }
        }
        let after = self.scrape();
        let responded = self.ops.responded - responded;
        let answers = self.ops.answers_ok - answers;
        let (ratio, delta) = self.cross_check(before, after, responded, answers);
        let reconnects: u64 = self.clients.iter().map(|c| c.reconnects).sum();
        let lateness_p99_ms = lateness_p99_ms.unwrap_or_else(|| quantile(&layer.lateness, 0.99));
        if workload == Workload::Batch {
            nominal_ms = layer.exchange.iter().map(|us| us / 1e3).collect();
        }
        metrics.extend([
            ("client.p50_ms", windowed_quantile(&nominal_ms, 0.5), "ms"),
            ("client.p95_ms", windowed_quantile(&nominal_ms, 0.95), "ms"),
            ("client.p99_ms", windowed_quantile(&nominal_ms, 0.99), "ms"),
        ]);
        self.layer_report(
            &tracer,
            &layer,
            metrics,
            TracedExtras {
                ratio,
                delta,
                reconnects,
                lateness_p99_ms,
                untraced_p50_us: quantile(&untraced, 0.5),
            },
        );
    }

    fn layer_report(
        &mut self,
        tracer: &Tracer,
        layer: &LayerSums,
        metrics: &mut Vec<Metric>,
        extras: TracedExtras,
    ) {
        let by_name = tracer.self_times_by_name();
        let p = |name: &str, q: f64, scale: fn(Duration) -> f64| {
            by_name.get(name).map_or(0.0, |v| {
                quantile(&v.iter().map(|&d| scale(d)).collect::<Vec<_>>(), q)
            })
        };
        let exchange_p50 = quantile(&layer.exchange, 0.5);
        let residual_p50 = quantile(&layer.residual, 0.5);
        // The table: the server's residual plus each replay layer's median
        // self time, against the median traced exchange.
        let mut rows: Vec<(String, f64, f64, usize)> = vec![(
            "server (exchange - replay)".to_string(),
            residual_p50,
            mean(&layer.residual),
            layer.residual.len(),
        )];
        let replay_layers = [
            "replay",
            "api.decode",
            "service.lookup",
            STAGES[0],
            STAGES[1],
            STAGES[2],
            STAGES[3],
            STAGES[4],
            "api.encode",
        ];
        let per_exchange = layer.exchange.len().max(1) as f64;
        let batch = self.args.workload == Workload::Batch;
        let workers = server_config(self.args.workload).workers.max(1) as f64;
        for name in replay_layers {
            let Some(values) = by_name.get(name) else {
                continue;
            };
            let values: Vec<f64> = values.iter().map(|&d| us(d)).collect();
            // A batch exchange carries every item; its items run on all
            // workers, so a layer's share of one exchange is its total
            // self time over the items, divided by the workers.
            let (p50, avg) = if batch {
                let share = values.iter().sum::<f64>() / per_exchange / workers;
                (share, share)
            } else {
                (quantile(&values, 0.5), mean(&values))
            };
            rows.push((name.to_string(), p50, avg, values.len()));
        }
        let sum_p50: f64 = rows.iter().map(|r| r.1).sum();
        let sum_mean: f64 = rows.iter().map(|r| r.2).sum();
        let mut table = vec![
            format!(
                "{:<28} {:>14} {:>14} {:>8}",
                "layer (self time)", "p50 us", "mean us", "spans"
            ),
            "-".repeat(68),
        ];
        for (name, p50, avg, count) in &rows {
            table.push(format!("{name:<28} {p50:>14.1} {avg:>14.1} {count:>8}"));
        }
        table.push("-".repeat(68));
        table.push(format!(
            "{:<28} {sum_p50:>14.1} {sum_mean:>14.1}",
            "sum of layers"
        ));
        table.push(format!(
            "{:<28} {exchange_p50:>14.1} {:>14.1} {:>8}",
            "traced exchange",
            mean(&layer.exchange),
            layer.exchange.len()
        ));
        let sum_ratio = if exchange_p50 > 0.0 {
            sum_p50 / exchange_p50
        } else {
            0.0
        };
        table.push(format!("sum / exchange (p50): {sum_ratio:.4}"));
        self.write_trace_files(tracer, &table);
        self.lines.extend(table);

        let counters = layer.counters;
        let admit_mean_us = if extras.delta.latency_count == 0 {
            0.0
        } else {
            extras.delta.latency_sum_s / extras.delta.latency_count as f64 * 1e6
        };
        metrics.extend([
            ("server.exchange_p50_us", exchange_p50, "us"),
            ("server.residual_p50_us", residual_p50, "us"),
            ("server.admit_to_reply_mean_us", admit_mean_us, "us"),
            ("server.reconnects", extras.reconnects as f64, "count"),
            ("api.decode_p50_us", p("api.decode", 0.5, us), "us"),
            ("api.encode_p50_us", p("api.encode", 0.5, us), "us"),
            ("api.response_bytes_mean", mean(&layer.bytes), "bytes"),
            ("service.lookup_p50_us", p("service.lookup", 0.5, us), "us"),
            ("service.cache_hit_ratio", extras.ratio, "ratio"),
            (
                "service.refresh_p50_ms",
                p("service.refresh", 0.5, ms),
                "ms",
            ),
            ("service.fanout_efficiency", mean(&layer.fanout), "ratio"),
        ]);
        const STAGE_METRICS: [[&str; 2]; 5] = [
            ["repager.seed_p50_ms", "repager.seed_p99_ms"],
            ["repager.subgraph_p50_ms", "repager.subgraph_p99_ms"],
            ["repager.realloc_p50_ms", "repager.realloc_p99_ms"],
            ["repager.steiner_p50_ms", "repager.steiner_p99_ms"],
            ["repager.render_p50_ms", "repager.render_p99_ms"],
        ];
        for (stage, [p50, p99]) in STAGES.iter().zip(STAGE_METRICS) {
            metrics.push((p50, p(stage, 0.5, ms), "ms"));
            metrics.push((p99, p(stage, 0.99, ms), "ms"));
        }
        metrics.extend([
            ("repager.subgraph_nodes_mean", mean(&layer.nodes), "count"),
            ("repager.subgraph_edges_mean", mean(&layer.edges), "count"),
            (
                "repager.steiner_runs",
                counters.steiner_runs as f64,
                "count",
            ),
            (
                "repager.steiner_paths_expanded",
                counters.steiner_paths_expanded as f64,
                "count",
            ),
            (
                "repager.steiner_paths_skipped",
                counters.steiner_paths_skipped as f64,
                "count",
            ),
            (
                "repager.scratch_allocations",
                counters.scratch_allocations as f64,
                "count",
            ),
            (
                "repager.realloc_retries",
                counters.realloc_retries as f64,
                "count",
            ),
            ("client.lateness_p99_ms", extras.lateness_p99_ms, "ms"),
            (
                "trace.overhead_p50_us",
                exchange_p50 - extras.untraced_p50_us,
                "us",
            ),
            ("trace.layer_sum_ratio", sum_ratio, "ratio"),
            ("trace.spans", tracer.spans().len() as f64, "count"),
        ]);
    }

    /// Writes the spans (JSON lines) and the layer table when the run ends.
    fn write_trace_files(&mut self, tracer: &Tracer, table: &[String]) {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-seed{}", self.args.workload.name(), self.args.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| {
                let mut out = std::io::BufWriter::new(std::fs::File::create(
                    dir.join(format!("{stem}.spans.jsonl")),
                )?);
                tracer.write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            })
            .and_then(|_| std::fs::write(dir.join(format!("{stem}.layers.txt")), table.join("\n")));
        match written {
            Ok(()) => self.lines.push(format!(
                "spans and layer table written to {}",
                dir.join(&stem).display()
            )),
            Err(e) => self.lines.push(format!("could not write trace files: {e}")),
        }
    }
}

struct BatchRound {
    refresh: Duration,
    batch: Duration,
    items_ok: usize,
    /// Verified item texts, for the replay comparison.
    answers: Vec<(usize, String)>,
}

struct TracedExtras {
    ratio: f64,
    delta: Scrape,
    reconnects: u64,
    lateness_p99_ms: f64,
    untraced_p50_us: f64,
}

/// Per-request figures the traced run collects beside its spans.
#[derive(Default)]
struct LayerSums {
    exchange: Vec<f64>,
    residual: Vec<f64>,
    fanout: Vec<f64>,
    bytes: Vec<f64>,
    nodes: Vec<f64>,
    edges: Vec<f64>,
    lateness: Vec<f64>,
    counters: StageCounters,
}

impl LayerSums {
    /// Books one replay, checking its result against the server's answer.
    fn record(
        &mut self,
        replayed: Result<crate::trace::Replayed, String>,
        answer: &str,
        ops: &mut Ops,
        windowed: bool,
    ) {
        let replayed = match replayed {
            Ok(replayed) => replayed,
            Err(e) => return ops.fail(e),
        };
        let result = serde_json::to_string(&rpg_server::api::output_result_value(&replayed.output))
            .expect("result serialises");
        if crate::json::field(answer, "result") != Some(result.as_str()) {
            return ops.fail("replayed result differs from the server's".to_string());
        }
        self.bytes.push(replayed.response_bytes as f64);
        if windowed && !replayed.cached {
            let output = &replayed.output;
            self.counters.add(&output.timings.counters);
            self.nodes.push(output.subgraph_nodes as f64);
            self.edges.push(output.subgraph_edges as f64);
        }
    }
}

/// Latencies in ms, a failed request counting as infinitely slow.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.f1.is_some() {
                ms(s.latency)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Where a traced batch round records its exchange spans: the tracer, the
/// round's id and its root span.
type TraceRoot<'t> = (&'t mut Tracer, u64, usize);

fn open_in(trace: &mut Option<TraceRoot<'_>>, name: &'static str) -> Option<usize> {
    trace
        .as_mut()
        .map(|(tracer, id, root)| tracer.open(*id, Some(*root), name))
}

fn close_in(trace: &mut Option<TraceRoot<'_>>, span: Option<usize>) {
    if let (Some((tracer, _, _)), Some(span)) = (trace.as_mut(), span) {
        tracer.close(span);
    }
}
