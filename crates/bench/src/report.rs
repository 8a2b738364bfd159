//! The machine-readable perf trajectory: fixed-iteration micro-benchmarks
//! emitted as `BENCH_*.json`.
//!
//! `cargo bench` (Criterion) is great for interactive exploration but its
//! output is neither deterministic in shape nor easy to diff across PRs.
//! This module is the complement: a fixed-iteration runner over the same
//! kernel instances as `benches/micro_graph_algorithms.rs` plus single
//! uncached and cached requests, reporting medians in a stable JSON
//! schema (`rpg-bench-report/v1`) that is committed per PR as the repo's
//! performance trajectory and regression-gated in CI (`rpg bench --check`).
//!
//! Two benches exist specifically to pin the PR 6 kernel rewrite:
//! `steiner_tree_kmb` runs the allocation-lean KMB kernel with a reused
//! [`SteinerScratch`], and `steiner_tree_kmb_reference` runs the verbatim
//! pre-rewrite implementation
//! ([`rpg_graph::steiner::reference::steiner_tree_reference`]) on the same
//! instance — so every report carries its own before/after pair and the
//! `--check` gate can assert the rewrite stays ahead *on the same host*,
//! independent of how fast the machine running CI happens to be.
//!
//! The PR 8 I/O-layer rewrite gets the same treatment: the
//! `serve_healthz_idle256_{poll,epoll}` pair measures one loopback HTTP
//! exchange while 256 idle keep-alive connections sit registered on the
//! event loops, once per readiness backend — the committed report shows
//! what moving the interest set into the kernel buys on the same host.
//!
//! PR 9's corpus snapshots pin their win the same way: the
//! `snapshot_artifacts_build` / `snapshot_artifacts_load` pair times a
//! tenant's full spec build (generation + artifacts) against decoding a
//! versioned snapshot of the same artifacts, and the report carries the
//! ratio as `snapshot_load_vs_build`.
//!
//! PR 10's observability layer pins its overhead with the
//! `serve_cache_hit_{untraced,traced}` pair: the same cache-hit
//! `POST /v1/generate` exchange with and without a caller-supplied
//! `x-rpg-trace-id` header, so the per-request tracing cost stays visible
//! in every committed report.

use crate::micro_corpus;
use rpg_corpus::Corpus;
use rpg_engines::Query;
use rpg_graph::dijkstra::{self, DijkstraScratch};
use rpg_graph::steiner::reference::steiner_tree_reference;
use rpg_graph::steiner::{steiner_tree_with, SteinerScratch};
use rpg_graph::{mst, NodeId, WeightedGraph};
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::seeds::{reallocate_with, TerminalSelection};
use rpg_repager::subgraph::SubGraph;
use rpg_repager::system::PathRequest;
use rpg_repager::weights::NodeWeights;
use rpg_repager::{PipelineScratch, RepagerConfig};
use rpg_server::{client, IoBackendChoice, Server, ServerConfig};
use rpg_service::{snapshot, CorpusRegistry, CorpusSpec};
use serde::value::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "rpg-bench-report/v1";

/// Iteration counts for one run of the reporter.
#[derive(Debug, Clone, Copy)]
pub struct Iterations {
    /// Measured iterations of each graph kernel bench.
    pub kernel: usize,
    /// Measured iterations of each end-to-end service bench.
    pub service: usize,
    /// Warm-up iterations discarded before measuring (also what makes the
    /// "allocation-free steady state" the thing being measured).
    pub warmup: usize,
}

impl Iterations {
    /// The full-fidelity profile used to produce committed `BENCH_*.json`
    /// artifacts.
    pub fn full() -> Self {
        Iterations {
            kernel: 80,
            service: 40,
            warmup: 5,
        }
    }

    /// The reduced profile for the CI `bench-smoke` job: enough samples for
    /// a stable median, small enough to stay in the seconds range.
    pub fn smoke() -> Self {
        Iterations {
            kernel: 25,
            service: 10,
            warmup: 2,
        }
    }
}

/// One measured bench: name, per-iteration medians and derived throughput.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable bench name (the key used by `--check`).
    pub name: String,
    /// Measured iterations (after warm-up).
    pub iters: usize,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u64,
    /// Minimum observed nanoseconds per iteration.
    pub min_ns: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: u64,
    /// Iterations per second at the median (`1e9 / median_ns`).
    pub throughput_per_sec: f64,
}

/// A full report: host + instance metadata and every bench result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Free-form label for the trajectory point (e.g. `PR6`).
    pub label: String,
    /// Logical CPU count of the host that produced the numbers.
    pub host_cores: usize,
    /// Kernel instance metadata: sub-graph nodes/edges and terminal count.
    pub instance: (usize, usize, usize),
    /// The measured benches, in execution order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// The result with the given name, if measured.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// The reference-vs-rewrite speedup of the KMB kernel
    /// (`reference_median / rewrite_median`), when both benches ran.
    pub fn kmb_speedup(&self) -> Option<f64> {
        let new = self.result("steiner_tree_kmb")?.median_ns as f64;
        let old = self.result("steiner_tree_kmb_reference")?.median_ns as f64;
        (new > 0.0).then(|| old / new)
    }

    /// The spec-build-versus-snapshot-load speedup
    /// (`build_median / load_median`), when both benches ran — the
    /// startup/reload win the snapshot subsystem buys on this host.
    pub fn snapshot_load_speedup(&self) -> Option<f64> {
        let load = self.result("snapshot_artifacts_load")?.median_ns as f64;
        let build = self.result("snapshot_artifacts_build")?.median_ns as f64;
        (load > 0.0).then(|| build / load)
    }

    /// Renders the report as the `rpg-bench-report/v1` JSON value.
    pub fn to_value(&self) -> Value {
        let (nodes, edges, terminals) = self.instance;
        let mut fields = vec![
            ("schema".to_string(), Value::String(SCHEMA.to_string())),
            ("label".to_string(), Value::String(self.label.clone())),
            (
                "host".to_string(),
                Value::Object(vec![(
                    "cores".to_string(),
                    Value::Number(self.host_cores as f64),
                )]),
            ),
            (
                "instance".to_string(),
                Value::Object(vec![
                    ("nodes".to_string(), Value::Number(nodes as f64)),
                    ("edges".to_string(), Value::Number(edges as f64)),
                    ("terminals".to_string(), Value::Number(terminals as f64)),
                ]),
            ),
            (
                "results".to_string(),
                Value::Array(
                    self.results
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("name".to_string(), Value::String(r.name.clone())),
                                ("iters".to_string(), Value::Number(r.iters as f64)),
                                ("median_ns".to_string(), Value::Number(r.median_ns as f64)),
                                ("min_ns".to_string(), Value::Number(r.min_ns as f64)),
                                ("mean_ns".to_string(), Value::Number(r.mean_ns as f64)),
                                (
                                    "throughput_per_sec".to_string(),
                                    Value::Number(r.throughput_per_sec),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(speedup) = self.kmb_speedup() {
            fields.push((
                "kmb_speedup_vs_reference".to_string(),
                Value::Number(speedup),
            ));
        }
        if let Some(speedup) = self.snapshot_load_speedup() {
            fields.push(("snapshot_load_vs_build".to_string(), Value::Number(speedup)));
        }
        Value::Object(fields)
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report serialises")
    }
}

/// Times `f` for `iters` measured iterations (after `warmup` discarded
/// ones) and folds the per-iteration samples into a [`BenchResult`].
///
/// `f` returns a value that is accumulated into a sink, so the optimiser
/// cannot elide the work.
pub fn run_bench<T: std::ops::Add<Output = T> + Default>(
    name: &str,
    iters: usize,
    warmup: usize,
    mut f: impl FnMut() -> T,
) -> BenchResult {
    let mut sink = T::default();
    for _ in 0..warmup {
        sink = sink + f();
    }
    let mut samples_ns: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let started = Instant::now();
        sink = sink + f();
        samples_ns.push(started.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(&sink);
    samples_ns.sort_unstable();
    let median_ns = samples_ns[samples_ns.len() / 2].max(1);
    let min_ns = *samples_ns.first().unwrap_or(&0);
    let mean_ns = samples_ns.iter().sum::<u64>() / samples_ns.len().max(1) as u64;
    BenchResult {
        name: name.to_string(),
        iters,
        median_ns,
        min_ns,
        mean_ns,
        throughput_per_sec: 1e9 / median_ns as f64,
    }
}

/// The kernel instance every graph bench runs on: the realistic sub-graph
/// and terminal set of the micro corpus's first survey (the same instance
/// as `benches/micro_graph_algorithms.rs`).
pub struct KernelInstance {
    /// The weighted sub-citation graph.
    pub graph: WeightedGraph,
    /// The compulsory terminals, as local node ids.
    pub terminals: Vec<NodeId>,
    /// Node/edge/terminal counts for the report header.
    pub shape: (usize, usize, usize),
}

/// Builds the canonical kernel instance from a corpus.
pub fn kernel_instance(corpus: &Corpus) -> KernelInstance {
    let config = RepagerConfig::default();
    let pagerank = rpg_graph::pagerank::pagerank_default(corpus.graph()).expect("pagerank");
    let node_weights = NodeWeights::build(corpus, &pagerank);
    let scholar = rpg_engines::ScholarEngine::from_index(rpg_engines::EngineIndex::build(corpus));
    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let seeds = scholar.seed_papers(&Query {
        text: &survey.query,
        top_k: 30,
        max_year: Some(survey.year),
        exclude: &[],
    });
    let subgraph = SubGraph::build(
        corpus,
        &node_weights,
        &seeds,
        &config,
        Some(survey.year),
        &[],
    )
    .expect("sub-graph builds");
    let allocation = reallocate_with(
        corpus,
        &subgraph,
        &seeds,
        &config,
        &mut PipelineScratch::new(),
    );
    let paper_terminals = allocation.terminals(TerminalSelection::Reallocated, &config);
    let mut terminals = Vec::new();
    subgraph.to_local_into(&paper_terminals, &mut terminals);
    let shape = (
        subgraph.node_count(),
        subgraph.edge_count(),
        terminals.len(),
    );
    KernelInstance {
        graph: subgraph.weighted,
        terminals,
        shape,
    }
}

/// Runs the full reporter: graph kernels plus end-to-end service benches
/// over the micro corpus, in one process, at the given iteration profile.
pub fn run_report(label: &str, iters: Iterations) -> BenchReport {
    let corpus = micro_corpus();
    let instance = kernel_instance(&corpus);
    let graph = &instance.graph;
    let terminals = &instance.terminals;

    let mut results = Vec::new();

    // The rewritten allocation-lean kernel with a warm, reused scratch —
    // the configuration the serving layer actually runs.
    let mut scratch = SteinerScratch::new();
    results.push(run_bench(
        "steiner_tree_kmb",
        iters.kernel,
        iters.warmup,
        || {
            steiner_tree_with(graph, terminals, &mut scratch)
                .expect("steiner solves")
                .node_count()
        },
    ));

    // The verbatim pre-rewrite implementation on the same instance: fresh
    // Dijkstra workspace, full K² witness-path materialisation, iterative
    // HashMap pruning.  This is the "before" of the trajectory point.
    results.push(run_bench(
        "steiner_tree_kmb_reference",
        iters.kernel,
        iters.warmup,
        || {
            steiner_tree_reference(graph, terminals)
                .expect("reference solves")
                .node_count()
        },
    ));

    let mut dijkstra_scratch = DijkstraScratch::new();
    if let Some(&source) = terminals.first() {
        results.push(run_bench(
            "dijkstra_single_source",
            iters.kernel,
            iters.warmup,
            || {
                dijkstra::single_source_into(graph, source, &mut dijkstra_scratch)
                    .expect("dijkstra runs");
                graph.node_count()
            },
        ));
        results.push(run_bench(
            "dijkstra_to_targets",
            iters.kernel,
            iters.warmup,
            || {
                dijkstra::single_source_to_targets_into(
                    graph,
                    source,
                    terminals,
                    &mut dijkstra_scratch,
                )
                .expect("targeted dijkstra runs");
                terminals.len()
            },
        ));
    }

    results.push(run_bench(
        "minimum_spanning_forest",
        iters.kernel,
        iters.warmup,
        || mst::minimum_spanning_forest(graph).edges.len(),
    ));

    // End-to-end requests on the same corpus: the uncached cost (on one
    // reused workspace, as a serving worker holds) is what the kernel
    // rewrite moves; the registry's cache hit pins the fast path.
    let artifacts = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let exclude = [survey.paper];
    let request = PathRequest {
        max_year: Some(survey.year),
        exclude: &exclude,
        ..PathRequest::new(&survey.query, 30)
    };
    let mut scratch = PipelineScratch::new();
    results.push(run_bench(
        "service_generate_uncached",
        iters.service,
        iters.warmup,
        || {
            artifacts
                .generate(&request, &mut scratch)
                .expect("request serves")
                .reading_list
                .len()
        },
    ));
    let registry = CorpusRegistry::new();
    registry.register_artifacts("default", artifacts);
    registry
        .generate("default", &request)
        .expect("cache populates");
    results.push(run_bench(
        "service_generate_cache_hit",
        iters.service,
        iters.warmup,
        || {
            registry
                .generate("default", &request)
                .expect("cache hit serves")
                .output
                .reading_list
                .len()
        },
    ));

    // The PR 9 cold-start pair: building a tenant's artifacts from its
    // generation spec versus decoding a versioned snapshot of the same
    // artifacts.  Their ratio is emitted as `snapshot_load_vs_build` — the
    // startup/reload win snapshots buy a manifest-booted server.
    let spec = CorpusSpec::small(97);
    results.push(run_bench(
        "snapshot_artifacts_build",
        iters.service,
        iters.warmup,
        || {
            let corpus = spec.build_corpus().expect("spec builds");
            CorpusArtifacts::build(corpus)
                .expect("artifacts build")
                .corpus()
                .len()
        },
    ));
    let artifacts =
        CorpusArtifacts::build(spec.build_corpus().expect("spec builds")).expect("artifacts build");
    let fingerprint = rpg_service::spec_fingerprint(&spec);
    let bytes = snapshot::encode(&artifacts, fingerprint).expect("artifacts encode");
    results.push(run_bench(
        "snapshot_artifacts_load",
        iters.service,
        iters.warmup,
        || {
            snapshot::decode(&bytes, fingerprint)
                .expect("snapshot decodes")
                .corpus()
                .len()
        },
    ));

    run_idle_exchange_benches(iters, &mut results);
    run_traced_exchange_benches(&corpus, iters, &mut results);

    BenchReport {
        label: label.to_string(),
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        instance: instance.shape,
        results,
    }
}

/// Idle keep-alive connections held open while the per-backend exchange
/// benches run — enough registered descriptors that a readiness backend
/// paying O(registered) per wait (`poll`) shows it in the median, while an
/// O(ready) backend (`epoll`) stays flat.
const IDLE_CONNS: usize = 256;

/// The readiness backends this host offers, in report order.
pub fn available_backends() -> Vec<IoBackendChoice> {
    let mut backends = vec![IoBackendChoice::Poll];
    if cfg!(target_os = "linux") {
        backends.push(IoBackendChoice::Epoll);
    }
    backends
}

/// The `serve_healthz_idle256_{poll,epoll}` benches: spawn a real loopback
/// server per backend, park [`IDLE_CONNS`] keep-alive connections on its
/// event loops, and measure one `/v1/healthz` round-trip on a separate
/// probe connection. The pair in one report is the I/O-layer analogue of
/// the KMB rewrite pair — the same exchange, before/after backend, same
/// host — so a committed report carries its own evidence of what moving
/// the interest set into the kernel buys under idle-connection load.
fn run_idle_exchange_benches(iters: Iterations, results: &mut Vec<BenchResult>) {
    for backend in available_backends() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            drivers: 2,
            keep_alive: true,
            max_connections: IDLE_CONNS + 64,
            idle_timeout: Duration::from_secs(600),
            io_backend: backend,
            ..ServerConfig::default()
        };
        // An empty registry: `/v1/healthz` is answered inline on the event
        // loops, so the bench isolates the readiness layer from pipeline
        // cost.
        let server =
            Server::spawn(Arc::new(CorpusRegistry::new()), config).expect("bench server binds");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::get(server.addr(), "/v1/healthz") {
                Ok(response) if response.status == 200 => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => panic!("bench server never became ready: {other:?}"),
            }
        }

        // One exchange per idle connection proves each is accepted and
        // registered with the poller (not parked in the listen backlog)
        // before the measurement starts.
        let mut idle: Vec<client::Conn> = (0..IDLE_CONNS)
            .map(|i| {
                client::Conn::connect(server.addr())
                    .unwrap_or_else(|e| panic!("idle connection {i} failed to open: {e}"))
            })
            .collect();
        for (i, conn) in idle.iter_mut().enumerate() {
            let response = conn
                .get("/v1/healthz")
                .unwrap_or_else(|e| panic!("idle connection {i} failed its exchange: {e}"));
            assert_eq!(response.status, 200, "idle connection {i}");
        }

        let mut probe = client::Conn::connect(server.addr()).expect("probe connection opens");
        results.push(run_bench(
            &format!(
                "serve_healthz_idle{IDLE_CONNS}_{}",
                backend.resolve().as_str()
            ),
            iters.service,
            iters.warmup,
            || {
                let response = probe.get("/v1/healthz").expect("probe exchange");
                assert_eq!(response.status, 200);
                response.body.len()
            },
        ));
        drop(idle);
    }
}

/// The `serve_cache_hit_{untraced,traced}` pair: one loopback server with a
/// pre-warmed result cache, the same `POST /v1/generate` exchange measured
/// with and without a caller-supplied `x-rpg-trace-id` header. The delta is
/// the per-request cost of the observability layer (trace-ID parse, span
/// recorder, exemplar retention, echo header) on the fastest end-to-end
/// path the server has — committed per PR so that cost stays visible.
fn run_traced_exchange_benches(corpus: &Corpus, iters: Iterations, results: &mut Vec<BenchResult>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        drivers: 1,
        keep_alive: true,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let registry = Arc::new(CorpusRegistry::new());
    registry
        .register("default", corpus.clone())
        .expect("bench corpus registers");
    let server = Server::spawn(registry, config).expect("bench server binds");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(server.addr(), "/v1/healthz") {
            Ok(response) if response.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            other => panic!("bench server never became ready: {other:?}"),
        }
    }

    let survey = corpus.survey_bank().iter().next().expect("survey bank");
    let body = format!(
        r#"{{"query": {:?}, "max_year": {}, "top_k": 30}}"#,
        survey.query, survey.year
    );
    let mut conn = client::Conn::connect(server.addr()).expect("bench connection opens");
    let warm = conn
        .post_json("/v1/generate", &body)
        .expect("cache warms end-to-end");
    assert_eq!(warm.status, 200, "cache warm-up exchange");

    results.push(run_bench(
        "serve_cache_hit_untraced",
        iters.service,
        iters.warmup,
        || {
            let response = conn.post_json("/v1/generate", &body).expect("exchange");
            assert_eq!(response.status, 200);
            response.body.len()
        },
    ));
    let trace_id = "00f0e1d2c3b4a596870123456789abcd";
    results.push(run_bench(
        "serve_cache_hit_traced",
        iters.service,
        iters.warmup,
        || {
            let response = conn
                .request_with(
                    "POST",
                    "/v1/generate",
                    Some(&body),
                    &[("x-rpg-trace-id", trace_id)],
                )
                .expect("traced exchange");
            assert_eq!(response.status, 200);
            assert_eq!(response.header("x-rpg-trace-id"), Some(trace_id));
            response.body.len()
        },
    ));
}

/// Parses a committed `rpg-bench-report/v1` JSON into `(name, median_ns)`
/// pairs.
pub fn parse_baseline(json: &str) -> Result<Vec<(String, u64)>, String> {
    let value: Value =
        serde_json::from_str(json).map_err(|e| format!("baseline is not valid JSON: {e:?}"))?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("baseline is not a {SCHEMA} report"));
    }
    let results = value
        .get("results")
        .and_then(Value::as_array)
        .ok_or("baseline has no results array")?;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or("result without a name")?;
        let median = r
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or("result without median_ns")?;
        out.push((name.to_string(), median as u64));
    }
    Ok(out)
}

/// The CI regression gate.
///
/// Two checks, both against numbers measured *in this run* or in the
/// committed baseline:
///
/// 1. **same-host invariant** — the rewritten KMB kernel must not be slower
///    than the pre-rewrite reference measured in the same process.  This is
///    completely host-independent and is the teeth of the ≥ speedup claim.
/// 2. **trajectory gate** — the KMB median must not exceed
///    `max_regression ×` the committed baseline's median.  Absolute
///    nanoseconds differ between hosts, which is exactly why the threshold
///    is a generous factor (2× by default) rather than a tight bound.
pub fn check_regression(
    report: &BenchReport,
    baseline: &[(String, u64)],
    max_regression: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();

    if let Some(speedup) = report.kmb_speedup() {
        if speedup < 1.0 {
            failures.push(format!(
                "steiner_tree_kmb is slower than the in-process reference \
                 (speedup {speedup:.2}x < 1.0x)"
            ));
        }
    }

    for gated in ["steiner_tree_kmb"] {
        let Some(current) = report.result(gated) else {
            continue;
        };
        let Some((_, baseline_ns)) = baseline.iter().find(|(n, _)| n == gated) else {
            failures.push(format!("baseline has no bench named {gated}"));
            continue;
        };
        let limit = *baseline_ns as f64 * max_regression;
        if current.median_ns as f64 > limit {
            failures.push(format!(
                "{gated} regressed: median {} ns > {:.0} ns \
                 ({}x over the {} ns baseline)",
                current.median_ns, limit, max_regression, baseline_ns
            ));
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> BenchReport {
        BenchReport {
            label: "test".to_string(),
            host_cores: 4,
            instance: (100, 200, 8),
            results: vec![
                BenchResult {
                    name: "steiner_tree_kmb".to_string(),
                    iters: 10,
                    median_ns: 1_000,
                    min_ns: 900,
                    mean_ns: 1_050,
                    throughput_per_sec: 1e6,
                },
                BenchResult {
                    name: "steiner_tree_kmb_reference".to_string(),
                    iters: 10,
                    median_ns: 4_000,
                    min_ns: 3_800,
                    mean_ns: 4_100,
                    throughput_per_sec: 2.5e5,
                },
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = fake_report();
        let json = report.to_json();
        let baseline = parse_baseline(&json).unwrap();
        assert_eq!(
            baseline,
            vec![
                ("steiner_tree_kmb".to_string(), 1_000),
                ("steiner_tree_kmb_reference".to_string(), 4_000),
            ]
        );
    }

    #[test]
    fn speedup_is_reference_over_rewrite() {
        let report = fake_report();
        assert!((report.kmb_speedup().unwrap() - 4.0).abs() < 1e-9);
        let value = report.to_value();
        assert!(
            value
                .get("kmb_speedup_vs_reference")
                .and_then(Value::as_f64)
                .unwrap()
                > 3.9
        );
    }

    #[test]
    fn check_passes_within_threshold_and_fails_beyond() {
        let report = fake_report();
        let baseline = vec![("steiner_tree_kmb".to_string(), 900u64)];
        // 1000 <= 900 * 2.0 → ok.
        check_regression(&report, &baseline, 2.0).unwrap();
        // 1000 > 900 * 1.05 → regression.
        let err = check_regression(&report, &baseline, 1.05).unwrap_err();
        assert!(err.contains("steiner_tree_kmb regressed"), "{err}");
    }

    #[test]
    fn check_fails_when_rewrite_is_slower_than_reference() {
        let mut report = fake_report();
        report.results[0].median_ns = 8_000; // slower than the 4 000 ns reference
        let baseline = vec![("steiner_tree_kmb".to_string(), 100_000u64)];
        let err = check_regression(&report, &baseline, 2.0).unwrap_err();
        assert!(
            err.contains("slower than the in-process reference"),
            "{err}"
        );
    }

    #[test]
    fn missing_baseline_bench_is_an_error() {
        let report = fake_report();
        let err = check_regression(&report, &[], 2.0).unwrap_err();
        assert!(err.contains("no bench named steiner_tree_kmb"), "{err}");
    }

    #[test]
    fn baseline_parser_rejects_other_schemas() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"schema": "something-else"}"#).is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn run_bench_produces_consistent_stats() {
        let result = run_bench("noop", 9, 1, || 1u64);
        assert_eq!(result.name, "noop");
        assert_eq!(result.iters, 9);
        assert!(result.median_ns >= 1);
        assert!(result.min_ns <= result.median_ns);
        assert!(result.throughput_per_sec > 0.0);
    }

    #[test]
    fn smoke_report_runs_end_to_end() {
        // A tiny-iteration full pass: every bench runs, the KMB pair is
        // present, and the speedup is computable.  This is the unit-level
        // guarantee behind the CI bench-smoke job.
        let iters = Iterations {
            kernel: 3,
            service: 2,
            warmup: 1,
        };
        let report = run_report("unit", iters);
        let mut expected = vec![
            "steiner_tree_kmb".to_string(),
            "steiner_tree_kmb_reference".to_string(),
            "dijkstra_single_source".to_string(),
            "dijkstra_to_targets".to_string(),
            "minimum_spanning_forest".to_string(),
            "service_generate_uncached".to_string(),
            "service_generate_cache_hit".to_string(),
            "snapshot_artifacts_build".to_string(),
            "snapshot_artifacts_load".to_string(),
        ];
        for backend in available_backends() {
            expected.push(format!(
                "serve_healthz_idle{IDLE_CONNS}_{}",
                backend.resolve().as_str()
            ));
        }
        for name in &expected {
            assert!(report.result(name).is_some(), "bench {name} missing");
        }
        assert!(report.kmb_speedup().is_some());
        assert!(
            report.snapshot_load_speedup().is_some(),
            "the snapshot cold-start pair must both run"
        );
        let parsed = parse_baseline(&report.to_json()).unwrap();
        assert_eq!(parsed.len(), report.results.len());
    }
}
