//! `rpg` — a command-line front end for the RePaGer reading-path generator.
//!
//! This is the offline counterpart of the web interface described in
//! Section V of the paper: it accepts a free-text query, generates the
//! reading path over a synthetic corpus, and prints the navigation-bar view
//! plus (optionally) the Graphviz DOT rendering.
//!
//! ```text
//! cargo run --release --bin rpg -- --query "graph neural networks" --top-k 25
//! cargo run --release --bin rpg -- --list-queries
//! cargo run --release --bin rpg -- --query "pretrained language models" --dot path.dot
//! cargo run --release --bin rpg -- serve --addr 127.0.0.1:7878 --workers 4
//! ```
//!
//! The `serve` subcommand exposes the same pipeline over HTTP
//! (`rpg-server`): a fixed worker pool with a bounded admission queue over
//! a multi-tenant corpus registry.

use rpg_corpus::{generate, Corpus, CorpusConfig};
use rpg_repager::render::{output_to_text, path_to_dot};
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, PipelineScratch, RepagerConfig, Variant};
use rpg_server::{IoBackendChoice, Server, ServerConfig};
use rpg_service::{CorpusRegistry, Manifest};
use std::sync::Arc;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct CliOptions {
    query: Option<String>,
    top_k: usize,
    seeds: usize,
    variant: Variant,
    corpus_scale: CorpusScale,
    dot_path: Option<String>,
    list_queries: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CorpusScale {
    Small,
    Default,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            query: None,
            top_k: 30,
            seeds: RepagerConfig::default().seed_count,
            variant: Variant::Newst,
            corpus_scale: CorpusScale::Small,
            dot_path: None,
            list_queries: false,
        }
    }
}

fn parse_variant(name: &str) -> Result<Variant, String> {
    Variant::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        format!(
            "unknown variant '{name}'; expected one of {}",
            known.join(", ")
        )
    })
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--query" | "-q" => options.query = Some(value_of("--query")?),
            "--top-k" | "-k" => {
                options.top_k = value_of("--top-k")?
                    .parse()
                    .map_err(|_| "--top-k expects a positive integer".to_string())?;
            }
            "--seeds" => {
                options.seeds = value_of("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds expects a positive integer".to_string())?;
            }
            "--variant" => options.variant = parse_variant(&value_of("--variant")?)?,
            "--dot" => options.dot_path = Some(value_of("--dot")?),
            "--full-corpus" => options.corpus_scale = CorpusScale::Default,
            "--list-queries" => options.list_queries = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
        }
    }
    if options.top_k == 0 {
        return Err("--top-k must be at least 1".to_string());
    }
    if options.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    Ok(options)
}

fn usage() -> String {
    [
        "rpg — Reading Path Generation over a synthetic scholarly corpus",
        "",
        "USAGE:",
        "  rpg --query <TEXT> [--top-k N] [--seeds N] [--variant NEWST|NEWST-W|NEWST-U|NEWST-I|NEWST-C|NEWST-N|NEWST-E]",
        "      [--dot FILE] [--full-corpus]",
        "  rpg --list-queries            list the benchmark survey queries",
        "  rpg serve [--addr HOST:PORT] [--workers N] [--drivers N] [--queue N] [--cache N]",
        "            [--max-connections N] [--keep-alive on|off] [--max-requests-per-conn N]",
        "            [--idle-timeout-ms N] [--tenant-queue N] [--tenant-weight NAME=W]...",
        "            [--default-deadline-ms N] [--io-backend auto|poll|epoll]",
        "            [--manifest FILE] [--auth on|off] [--log-level LEVEL] [--full-corpus]",
        "  rpg bench [--json FILE] [--label TEXT] [--smoke] [--load] [--check BASELINE]",
        "            [--max-regression X]",
        "  rpg snapshot build --manifest FILE --out DIR",
        "                                write <DIR>/<tenant>.rpgsnap for every manifest tenant;",
        "                                point each spec's \"snapshot\" field at its file for",
        "                                O(read) startup and reload",
        "  rpg snapshot inspect FILE     print a snapshot's version, fingerprint, section",
        "                                sizes and checksums",
        "  rpg hash-key <KEY> [--salt HEX]   print the salted-SHA-256 form of a bearer key",
        "                                    for a manifest's key_hashes/admin_key_hashes",
        "",
        "OPTIONS:",
        "  -q, --query <TEXT>   the research topic to generate a reading path for",
        "  -k, --top-k <N>      length of the flattened reading list (default 30)",
        "      --seeds <N>      number of initial seed papers (default 30)",
        "      --variant <V>    model variant (default NEWST)",
        "      --dot <FILE>     also write the path as Graphviz DOT",
        "      --full-corpus    use the ~5k-paper corpus instead of the ~1.2k-paper one",
        "      --list-queries   print the SurveyBank queries of the corpus and exit",
        "",
        "SERVE OPTIONS:",
        "      --addr <A>       bind address (default 127.0.0.1:7878; port 0 = ephemeral)",
        "      --workers <N>    compute worker threads (default: one per CPU, capped at 16)",
        "      --drivers <N>    event-loop threads multiplexing all connections (default: auto, small)",
        "      --queue <N>      request queue bound; excess requests get 503 (default 64)",
        "      --max-connections <N>         open-connection bound; excess connections get 503 (default 1024)",
        "      --cache <N>      shared result-cache capacity (default 256; 0 disables)",
        "      --keep-alive <on|off>         serve many requests per connection (default on)",
        "      --max-requests-per-conn <N>   exchanges served per connection (default 100)",
        "      --idle-timeout-ms <N>         close idle keep-alive connections after N ms (default 5000)",
        "      --tenant-queue <N>            per-tenant queue bound; overflow gets 429 (default 8)",
        "      --tenant-weight <NAME=W>      DRR weight for a tenant, repeatable (default 1)",
        "      --manifest <FILE>             JSON tenant manifest (name -> corpus spec, weight,",
        "                                    queue bound, cache share, key hashes); replaces the",
        "                                    implicit single 'default' tenant. SIGHUP or",
        "                                    POST /v1/admin/reload re-applies it live.",
        "      --auth <on|off>               require bearer keys from the manifest (default off);",
        "                                    admission is billed to the authenticated tenant and",
        "                                    admin endpoints require an admin key",
        "      --default-deadline-ms <N>     shed queued requests older than N ms with a 503",
        "                                    (per-tenant deadline_ms in the manifest overrides;",
        "                                    the x-rpg-deadline-ms request header tightens it)",
        "      --io-backend <auto|poll|epoll> readiness backend of the event loops (default",
        "                                    auto: edge-triggered epoll on Linux, portable",
        "                                    poll(2) elsewhere); shown in /v1/stats",
        "      --log-level <LEVEL>           minimum level of the JSON line logs on stderr:",
        "                                    error|warn|info|debug|trace (default info). The",
        "                                    manifest's log_level applies when the flag is",
        "                                    omitted, and reloads re-apply the manifest's level",
        "",
        "BENCH OPTIONS:",
        "      --json <FILE>    write the machine-readable report (rpg-bench-report/v1)",
        "                       to FILE instead of stdout",
        "      --label <TEXT>   free-form label stored in the report (default 'local')",
        "      --smoke          reduced iteration counts for CI smoke runs",
        "      --load           also run the overload-isolation load group: quiet-tenant",
        "                       latency on an idle in-process server vs under a noisy",
        "                       stampede (load_quiet_generate[_stampede] in the report)",
        "      --check <FILE>   compare against a committed baseline report and exit",
        "                       nonzero if the KMB kernel regressed",
        "      --max-regression <X>          allowed slowdown factor vs the baseline",
        "                                    median before --check fails (default 2.0)",
    ]
    .join("\n")
}

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServeOptions {
    addr: String,
    workers: usize,
    drivers: usize,
    max_connections: usize,
    queue: usize,
    cache: usize,
    keep_alive: bool,
    max_requests_per_conn: usize,
    idle_timeout_ms: u64,
    tenant_queue: usize,
    tenant_weights: Vec<(String, u64)>,
    default_deadline_ms: Option<u64>,
    io_backend: IoBackendChoice,
    manifest: Option<String>,
    auth: bool,
    corpus_scale: CorpusScale,
    log_level: Option<rpg_obs::log::Level>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let defaults = ServerConfig::default();
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            workers: rpg_service::default_threads(),
            drivers: defaults.drivers,
            max_connections: defaults.max_connections,
            queue: 64,
            cache: rpg_service::DEFAULT_CACHE_CAPACITY,
            keep_alive: defaults.keep_alive,
            max_requests_per_conn: defaults.max_requests_per_connection,
            idle_timeout_ms: defaults.idle_timeout.as_millis() as u64,
            tenant_queue: defaults.tenant_queue_capacity,
            tenant_weights: Vec::new(),
            default_deadline_ms: None,
            io_backend: defaults.io_backend,
            manifest: None,
            auth: false,
            corpus_scale: CorpusScale::Small,
            log_level: None,
        }
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => options.addr = value_of("--addr")?,
            "--workers" => {
                options.workers = value_of("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer".to_string())?;
            }
            "--drivers" => {
                // 0 is not accepted on the flag: the auto default is opted
                // into by omitting it, not by passing zero.
                options.drivers = value_of("--drivers")?
                    .parse()
                    .ok()
                    .filter(|&d: &usize| d >= 1)
                    .ok_or_else(|| "--drivers expects a positive integer".to_string())?;
            }
            "--max-connections" => {
                options.max_connections = value_of("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections expects a positive integer".to_string())?;
            }
            "--queue" => {
                options.queue = value_of("--queue")?
                    .parse()
                    .map_err(|_| "--queue expects a positive integer".to_string())?;
            }
            "--cache" => {
                options.cache = value_of("--cache")?
                    .parse()
                    .map_err(|_| "--cache expects a non-negative integer".to_string())?;
            }
            "--keep-alive" => {
                options.keep_alive = match value_of("--keep-alive")?.as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => return Err(format!("--keep-alive expects on|off, got '{other}'")),
                };
            }
            "--max-requests-per-conn" => {
                options.max_requests_per_conn =
                    value_of("--max-requests-per-conn")?.parse().map_err(|_| {
                        "--max-requests-per-conn expects a positive integer".to_string()
                    })?;
            }
            "--idle-timeout-ms" => {
                options.idle_timeout_ms = value_of("--idle-timeout-ms")?
                    .parse()
                    .map_err(|_| "--idle-timeout-ms expects a positive integer".to_string())?;
            }
            "--tenant-queue" => {
                options.tenant_queue = value_of("--tenant-queue")?
                    .parse()
                    .map_err(|_| "--tenant-queue expects a positive integer".to_string())?;
            }
            "--tenant-weight" => {
                let spec = value_of("--tenant-weight")?;
                let (name, weight) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--tenant-weight expects NAME=W, got '{spec}'"))?;
                let weight: u64 =
                    weight.parse().ok().filter(|&w| w >= 1).ok_or_else(|| {
                        format!("--tenant-weight weight must be >= 1 in '{spec}'")
                    })?;
                options.tenant_weights.push((name.to_string(), weight));
            }
            "--default-deadline-ms" => {
                options.default_deadline_ms = Some(
                    value_of("--default-deadline-ms")?
                        .parse()
                        .ok()
                        .filter(|&ms: &u64| ms >= 1)
                        .ok_or_else(|| {
                            "--default-deadline-ms expects a positive integer".to_string()
                        })?,
                );
            }
            "--io-backend" => {
                options.io_backend = IoBackendChoice::parse(&value_of("--io-backend")?)
                    .map_err(|e| format!("--io-backend: {e}"))?;
            }
            "--manifest" => options.manifest = Some(value_of("--manifest")?),
            "--log-level" => {
                let spec = value_of("--log-level")?;
                options.log_level = Some(rpg_obs::log::Level::parse(&spec).ok_or_else(|| {
                    format!("--log-level expects error|warn|info|debug|trace, got '{spec}'")
                })?);
            }
            "--auth" => {
                options.auth = match value_of("--auth")?.as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => return Err(format!("--auth expects on|off, got '{other}'")),
                };
            }
            "--full-corpus" => options.corpus_scale = CorpusScale::Default,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
        }
    }
    if options.auth && options.manifest.is_none() {
        return Err(
            "--auth on requires --manifest (bearer keys come from the manifest)".to_string(),
        );
    }
    if options.manifest.is_some() && !options.tenant_weights.is_empty() {
        return Err(
            "--tenant-weight conflicts with --manifest: per-tenant weights come from the \
             manifest's `weight` fields (reload to retune, or PATCH /v1/admin/tenants/:name)"
                .to_string(),
        );
    }
    if options.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if options.max_connections == 0 {
        return Err("--max-connections must be at least 1".to_string());
    }
    if options.queue == 0 {
        return Err("--queue must be at least 1".to_string());
    }
    if options.max_requests_per_conn == 0 {
        return Err("--max-requests-per-conn must be at least 1".to_string());
    }
    if options.idle_timeout_ms == 0 {
        return Err("--idle-timeout-ms must be at least 1".to_string());
    }
    if options.tenant_queue == 0 {
        return Err("--tenant-queue must be at least 1".to_string());
    }
    Ok(options)
}

/// Reads and validates the manifest file named by `--manifest`.
fn load_manifest(path: &str) -> Result<Manifest, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    Manifest::from_json(&text).map_err(|e| format!("invalid manifest {path}: {e}"))
}

/// Builds the registry — the manifest's tenants when one is given, or the
/// implicit single `default` tenant at the requested scale — and binds the
/// server. Split from [`run_serve`] so tests can spawn on an ephemeral
/// port without blocking.
fn start_server(options: &ServeOptions) -> Result<Server, String> {
    let registry = Arc::new(CorpusRegistry::with_cache_capacity(options.cache));
    let mut config = ServerConfig {
        addr: options.addr.clone(),
        workers: options.workers,
        drivers: options.drivers,
        max_connections: options.max_connections,
        queue_capacity: options.queue,
        keep_alive: options.keep_alive,
        max_requests_per_connection: options.max_requests_per_conn,
        idle_timeout: std::time::Duration::from_millis(options.idle_timeout_ms),
        tenant_queue_capacity: options.tenant_queue,
        tenant_weights: options.tenant_weights.clone(),
        default_deadline_ms: options.default_deadline_ms,
        io_backend: options.io_backend,
        auth_enabled: options.auth,
        manifest_path: options.manifest.clone(),
        ..ServerConfig::default()
    };
    match &options.manifest {
        Some(path) => {
            let manifest = load_manifest(path)?;
            registry
                .apply_manifest(&manifest)
                .map_err(|e| format!("cannot build manifest tenants: {e}"))?;
            if options.log_level.is_none() {
                // The manifest's level applies unless --log-level overrides
                // it; reloads re-apply the manifest's level either way.
                if let Some(level) = manifest
                    .log_level
                    .as_deref()
                    .and_then(rpg_obs::log::Level::parse)
                {
                    rpg_obs::log::set_level(level);
                }
            }
            config = config.with_manifest(&manifest);
        }
        None => {
            registry
                .register("default", build_corpus(options.corpus_scale))
                .map_err(|e| format!("cannot build corpus artifacts: {e}"))?;
        }
    }
    if let Some(level) = options.log_level {
        rpg_obs::log::set_level(level);
    }
    Server::spawn(registry, config).map_err(|e| format!("cannot bind {}: {e}", options.addr))
}

fn run_serve(options: &ServeOptions) -> Result<(), String> {
    let server = start_server(options)?;
    println!(
        "rpg-server listening on http://{} ({} workers, {} event loops on {}, {} max connections, queue bound {}, tenant bound {}, cache {}, keep-alive {}, auth {})",
        server.addr(),
        options.workers,
        server.driver_threads(),
        server.io_backend(),
        options.max_connections,
        options.queue,
        options.tenant_queue,
        options.cache,
        if options.keep_alive { "on" } else { "off" },
        if options.auth { "on" } else { "off" },
    );
    println!(
        "endpoints: POST /v1/generate · POST /v1/batch · GET /v1/healthz · GET /v1/stats · GET /v1/corpora · PUT|DELETE /v1/corpora/:name · PATCH /v1/admin/tenants/:name · POST /v1/admin/reload"
    );
    match &options.manifest {
        Some(path) => {
            println!("tenants: {}", server.registry().tenants().join(", "));
            println!("press Ctrl-C to stop; SIGHUP (or POST /v1/admin/reload) re-applies {path}");
            rpg_server::install_sighup().map_err(|e| format!("cannot install SIGHUP: {e}"))?;
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                if rpg_server::sighup_pending() {
                    match load_manifest(path).and_then(|m| server.apply_manifest(&m)) {
                        Ok(diff) => println!(
                            "manifest re-applied: {} created, {} replaced, {} removed, {} unchanged",
                            diff.created.len(),
                            diff.replaced.len(),
                            diff.removed.len(),
                            diff.unchanged.len(),
                        ),
                        Err(e) => eprintln!("manifest reload failed (still serving): {e}"),
                    }
                }
            }
        }
        None => {
            println!("press Ctrl-C to stop");
            loop {
                std::thread::park();
            }
        }
    }
}

/// Options of the `bench` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct BenchOptions {
    json: Option<String>,
    label: String,
    smoke: bool,
    load: bool,
    check: Option<String>,
    max_regression: f64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            json: None,
            label: "local".to_string(),
            smoke: false,
            load: false,
            check: None,
            max_regression: 2.0,
        }
    }
}

fn parse_bench_args(args: &[String]) -> Result<BenchOptions, String> {
    let mut options = BenchOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--json" => options.json = Some(value_of("--json")?),
            "--label" => options.label = value_of("--label")?,
            "--smoke" => options.smoke = true,
            "--load" => options.load = true,
            "--check" => options.check = Some(value_of("--check")?),
            "--max-regression" => {
                options.max_regression = value_of("--max-regression")?
                    .parse()
                    .ok()
                    .filter(|&x: &f64| x.is_finite() && x >= 1.0)
                    .ok_or_else(|| "--max-regression expects a number >= 1.0".to_string())?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
        }
    }
    Ok(options)
}

fn run_bench(options: &BenchOptions) -> Result<(), String> {
    let iters = if options.smoke {
        rpg_bench::report::Iterations::smoke()
    } else {
        rpg_bench::report::Iterations::full()
    };
    eprintln!(
        "running bench report ({} mode) ...",
        if options.smoke { "smoke" } else { "full" }
    );
    let mut report = rpg_bench::report::run_report(&options.label, iters);
    if options.load {
        eprintln!("running load group (quiet tenant vs stampede) ...");
        report
            .results
            .extend(rpg_bench::load::run_load_benches(iters));
    }
    let json = report.to_json();

    match &options.json {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("report written to {path}");
        }
        None => println!("{json}"),
    }
    for result in &report.results {
        eprintln!(
            "  {:<32} median {:>12} ns  ({:.1}/s)",
            result.name, result.median_ns, result.throughput_per_sec
        );
    }
    if let Some(speedup) = report.kmb_speedup() {
        eprintln!("  kmb speedup vs reference: {speedup:.2}x");
    }

    if let Some(baseline_path) = &options.check {
        let baseline_json = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
        let baseline = rpg_bench::report::parse_baseline(&baseline_json)?;
        rpg_bench::report::check_regression(&report, &baseline, options.max_regression)
            .map_err(|e| format!("bench regression check failed: {e}"))?;
        eprintln!(
            "regression check passed against {baseline_path} (max {}x)",
            options.max_regression
        );
    }
    Ok(())
}

/// The parsed `snapshot` subcommand.
#[derive(Debug, Clone, PartialEq)]
enum SnapshotCommand {
    /// `snapshot build --manifest FILE --out DIR`: build every manifest
    /// tenant from its spec and write `<DIR>/<tenant>.rpgsnap`.
    Build { manifest: String, out: String },
    /// `snapshot inspect FILE`: print a snapshot's container metadata.
    Inspect { file: String },
}

fn parse_snapshot_args(args: &[String]) -> Result<SnapshotCommand, String> {
    match args.first().map(String::as_str) {
        Some("build") => {
            let mut manifest: Option<String> = None;
            let mut out: Option<String> = None;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                let mut value_of = |flag: &str| -> Result<String, String> {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} requires a value"))
                };
                match arg.as_str() {
                    "--manifest" => manifest = Some(value_of("--manifest")?),
                    "--out" => out = Some(value_of("--out")?),
                    "--help" | "-h" => return Err(usage()),
                    other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
                }
            }
            Ok(SnapshotCommand::Build {
                manifest: manifest.ok_or_else(|| {
                    format!("snapshot build requires --manifest FILE\n{}", usage())
                })?,
                out: out
                    .ok_or_else(|| format!("snapshot build requires --out DIR\n{}", usage()))?,
            })
        }
        Some("inspect") => {
            let mut file: Option<String> = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--help" | "-h" => return Err(usage()),
                    other if file.is_none() => file = Some(other.to_string()),
                    other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
                }
            }
            Ok(SnapshotCommand::Inspect {
                file: file
                    .ok_or_else(|| format!("snapshot inspect requires a FILE\n{}", usage()))?,
            })
        }
        _ => Err(format!(
            "snapshot requires a subcommand: build or inspect\n{}",
            usage()
        )),
    }
}

fn run_snapshot(command: &SnapshotCommand) -> Result<String, String> {
    use rpg_service::snapshot;
    match command {
        SnapshotCommand::Build { manifest, out } => {
            let manifest = load_manifest(manifest)?;
            manifest.validate().map_err(|e| e.to_string())?;
            let out_dir = std::path::Path::new(out);
            std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out}: {e}"))?;
            let mut text = String::new();
            for (name, config) in manifest.tenants_sorted() {
                let spec = config.corpus_spec().map_err(|e| e.to_string())?;
                // Always build from the generator spec — a snapshot must
                // capture what the spec produces, never what another
                // (possibly stale) snapshot holds.
                let corpus = spec
                    .build_corpus()
                    .map_err(|e| format!("tenant {name:?}: {e}"))?;
                let artifacts = rpg_repager::artifacts::CorpusArtifacts::build(corpus)
                    .map_err(|e| format!("tenant {name:?}: artifact build failed: {e}"))?;
                let fingerprint = snapshot::spec_fingerprint(spec);
                let bytes = snapshot::encode(&artifacts, fingerprint)
                    .map_err(|e| format!("tenant {name:?}: {e}"))?;
                let path = out_dir.join(format!("{name}.rpgsnap"));
                std::fs::write(&path, &bytes)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                text.push_str(&format!(
                    "{name}: {} bytes -> {} (fingerprint {fingerprint:#018x})\n",
                    bytes.len(),
                    path.display()
                ));
            }
            Ok(text)
        }
        SnapshotCommand::Inspect { file } => {
            let bytes = std::fs::read(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let info = snapshot::inspect(&bytes).map_err(|e| e.to_string())?;
            let mut text = format!(
                "{file}: format v{}, fingerprint {:#018x}, {} bytes, {} sections\n",
                info.format_version,
                info.fingerprint,
                info.total_len,
                info.sections.len()
            );
            for section in &info.sections {
                text.push_str(&format!(
                    "  {:<8} offset {:>10}  {:>10} bytes  crc {:08x}  {}\n",
                    section.kind.name(),
                    section.offset,
                    section.len,
                    section.crc,
                    if section.crc_ok { "ok" } else { "CORRUPT" }
                ));
            }
            Ok(text)
        }
    }
}

/// Options of the `hash-key` subcommand, parsed and executed in one go:
/// prints the `"<salt-hex>:<digest-hex>"` form a manifest's
/// `key_hashes`/`admin_key_hashes` fields store.
fn run_hash_key(args: &[String]) -> Result<String, String> {
    let mut key: Option<String> = None;
    let mut salt_hex: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--salt" => {
                salt_hex = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| "--salt requires a value".to_string())?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other if key.is_none() => key = Some(other.to_string()),
            other => return Err(format!("unrecognised argument '{other}'\n{}", usage())),
        }
    }
    let key = key.ok_or_else(|| format!("hash-key requires the key to hash\n{}", usage()))?;
    if key.is_empty() {
        return Err("the key must be non-empty".to_string());
    }
    let salt = match salt_hex {
        Some(hex) => rpg_service::digest::hex_decode(&hex)
            .filter(|salt| !salt.is_empty())
            .ok_or_else(|| "--salt expects non-empty hex bytes".to_string())?,
        None => fresh_salt(),
    };
    Ok(rpg_service::StoredKey::with_salt(&key, &salt).encode())
}

/// A 16-byte salt unique per invocation. Salts need uniqueness, not
/// unpredictability (the digest already keys on the secret), so hashing the
/// clock and pid is enough without pulling in an OS RNG.
fn fresh_salt() -> Vec<u8> {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    let seed = format!("rpg-salt:{}:{}", now.as_nanos(), std::process::id());
    rpg_service::digest::sha256(seed.as_bytes())[..16].to_vec()
}

fn build_corpus(scale: CorpusScale) -> Corpus {
    match scale {
        CorpusScale::Small => generate(&CorpusConfig {
            seed: 0xDE40,
            ..CorpusConfig::small()
        }),
        CorpusScale::Default => generate(&CorpusConfig::default()),
    }
}

fn run(options: &CliOptions) -> Result<String, String> {
    let corpus = build_corpus(options.corpus_scale);
    if options.list_queries {
        let mut out = String::new();
        out.push_str(&format!(
            "{} benchmark queries (from {} surveys):\n",
            corpus.survey_bank().len(),
            corpus.survey_papers().len()
        ));
        for survey in corpus.survey_bank().iter() {
            out.push_str(&format!("  {}\n", survey.query));
        }
        return Ok(out);
    }

    let Some(query) = &options.query else {
        return Err(usage());
    };
    let artifacts = CorpusArtifacts::build(corpus).map_err(|e| e.to_string())?;
    let config = RepagerConfig::default().with_seed_count(options.seeds);
    let request = PathRequest {
        query,
        top_k: options.top_k,
        max_year: None,
        exclude: &[],
        config,
        variant: options.variant,
    };
    let output = artifacts
        .generate(&request, &mut PipelineScratch::new())
        .map_err(|e| e.to_string())?;
    if output.reading_list.is_empty() {
        return Ok(format!("no papers found for query \"{query}\"\n"));
    }

    let mut text = String::new();
    text.push_str(&format!(
        "query: {query}  (variant {}, {} seeds)\n",
        options.variant, options.seeds
    ));
    text.push_str(&output_to_text(artifacts.corpus(), &output));

    if let Some(dot_path) = &options.dot_path {
        let engine_top = artifacts.scholar().seed_papers(&rpg_engines::Query {
            text: query,
            top_k: options.seeds,
            max_year: None,
            exclude: &[],
        });
        let dot = path_to_dot(artifacts.corpus(), &output.path, &engine_top);
        std::fs::write(dot_path, dot).map_err(|e| format!("cannot write {dot_path}: {e}"))?;
        text.push_str(&format!("\nDOT written to {dot_path}\n"));
    }
    Ok(text)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(message) = parse_serve_args(&args[1..]).and_then(|o| run_serve(&o)) {
            eprintln!("{message}");
            std::process::exit(2);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("bench") {
        if let Err(message) = parse_bench_args(&args[1..]).and_then(|o| run_bench(&o)) {
            eprintln!("{message}");
            std::process::exit(2);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("snapshot") {
        match parse_snapshot_args(&args[1..]).and_then(|c| run_snapshot(&c)) {
            Ok(text) => print!("{text}"),
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("hash-key") {
        match run_hash_key(&args[1..]) {
            Ok(encoded) => println!("{encoded}"),
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
        return;
    }
    match parse_args(&args).and_then(|options| run(&options)) {
        Ok(text) => print!("{text}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_applied() {
        let options = parse_args(&args(&["--query", "graph databases"])).unwrap();
        assert_eq!(options.query.as_deref(), Some("graph databases"));
        assert_eq!(options.top_k, 30);
        assert_eq!(options.variant, Variant::Newst);
        assert_eq!(options.corpus_scale, CorpusScale::Small);
    }

    #[test]
    fn all_flags_parse() {
        let options = parse_args(&args(&[
            "-q",
            "hate speech detection",
            "-k",
            "15",
            "--seeds",
            "20",
            "--variant",
            "newst-u",
            "--dot",
            "/tmp/x.dot",
            "--full-corpus",
        ]))
        .unwrap();
        assert_eq!(options.top_k, 15);
        assert_eq!(options.seeds, 20);
        assert_eq!(options.variant, Variant::Union);
        assert_eq!(options.dot_path.as_deref(), Some("/tmp/x.dot"));
        assert_eq!(options.corpus_scale, CorpusScale::Default);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(parse_args(&args(&["--top-k", "zero"])).is_err());
        assert!(parse_args(&args(&["--top-k", "0", "--query", "x"])).is_err());
        assert!(parse_args(&args(&["--variant", "bogus"])).is_err());
        assert!(parse_args(&args(&["--unknown"])).is_err());
        assert!(parse_args(&args(&["--query"])).is_err());
    }

    #[test]
    fn variant_names_are_case_insensitive() {
        assert_eq!(parse_variant("newst-c").unwrap(), Variant::CandidatesOnly);
        assert_eq!(parse_variant("NEWST-E").unwrap(), Variant::NoEdgeWeights);
        assert!(parse_variant("steiner").is_err());
    }

    #[test]
    fn list_queries_runs_without_a_query() {
        let options = parse_args(&args(&["--list-queries"])).unwrap();
        let output = run(&options).unwrap();
        assert!(output.contains("benchmark queries"));
    }

    #[test]
    fn serve_args_have_sane_defaults() {
        let options = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(options.addr, "127.0.0.1:7878");
        assert_eq!(options.drivers, 0, "0 = auto-size the event-loop pool");
        assert!(options.max_connections >= 1);
        assert_eq!(options.queue, 64);
        assert_eq!(options.cache, rpg_service::DEFAULT_CACHE_CAPACITY);
        assert!(options.workers >= 1);
        assert!(options.keep_alive, "keep-alive defaults on");
        assert!(options.max_requests_per_conn >= 1);
        assert!(options.idle_timeout_ms >= 1);
        assert!(options.tenant_queue >= 1);
        assert!(options.tenant_weights.is_empty());
        assert_eq!(options.corpus_scale, CorpusScale::Small);
        assert_eq!(options.log_level, None, "inherit the logger's default");
    }

    #[test]
    fn serve_args_parse_and_validate() {
        let options = parse_serve_args(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "3",
            "--drivers",
            "2",
            "--max-connections",
            "2048",
            "--queue",
            "5",
            "--cache",
            "0",
            "--keep-alive",
            "off",
            "--max-requests-per-conn",
            "7",
            "--idle-timeout-ms",
            "1500",
            "--tenant-queue",
            "4",
            "--tenant-weight",
            "gold=4",
            "--tenant-weight",
            "silver=2",
            "--log-level",
            "debug",
            "--full-corpus",
        ]))
        .unwrap();
        assert_eq!(options.addr, "0.0.0.0:9000");
        assert_eq!(options.workers, 3);
        assert_eq!(options.drivers, 2);
        assert_eq!(options.max_connections, 2048);
        assert_eq!(options.queue, 5);
        assert_eq!(options.cache, 0);
        assert!(!options.keep_alive);
        assert_eq!(options.max_requests_per_conn, 7);
        assert_eq!(options.idle_timeout_ms, 1500);
        assert_eq!(options.tenant_queue, 4);
        assert_eq!(
            options.tenant_weights,
            vec![("gold".to_string(), 4), ("silver".to_string(), 2)]
        );
        assert_eq!(options.corpus_scale, CorpusScale::Default);
        assert_eq!(options.log_level, Some(rpg_obs::log::Level::Debug));
        assert!(parse_serve_args(&args(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--log-level", "loud"])).is_err());
        assert!(parse_serve_args(&args(&["--log-level"])).is_err());
        assert!(parse_serve_args(&args(&["--drivers", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--max-connections", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--queue", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--queue"])).is_err());
        assert!(parse_serve_args(&args(&["--keep-alive", "maybe"])).is_err());
        assert!(parse_serve_args(&args(&["--max-requests-per-conn", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--idle-timeout-ms", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--tenant-queue", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--tenant-weight", "gold"])).is_err());
        assert!(parse_serve_args(&args(&["--tenant-weight", "gold=0"])).is_err());
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn bench_args_have_sane_defaults() {
        let options = parse_bench_args(&args(&[])).unwrap();
        assert_eq!(options.json, None);
        assert_eq!(options.label, "local");
        assert!(!options.smoke);
        assert!(!options.load, "the load group is opt-in");
        assert_eq!(options.check, None);
        assert_eq!(options.max_regression, 2.0);
    }

    #[test]
    fn bench_args_parse_and_validate() {
        let options = parse_bench_args(&args(&[
            "--json",
            "BENCH_PR6.json",
            "--label",
            "PR6",
            "--smoke",
            "--load",
            "--check",
            "BENCH_PR6.json",
            "--max-regression",
            "3.5",
        ]))
        .unwrap();
        assert_eq!(options.json.as_deref(), Some("BENCH_PR6.json"));
        assert_eq!(options.label, "PR6");
        assert!(options.smoke);
        assert!(options.load);
        assert_eq!(options.check.as_deref(), Some("BENCH_PR6.json"));
        assert_eq!(options.max_regression, 3.5);
        assert!(parse_bench_args(&args(&["--json"])).is_err());
        assert!(parse_bench_args(&args(&["--max-regression", "0.5"])).is_err());
        assert!(parse_bench_args(&args(&["--max-regression", "nan"])).is_err());
        assert!(parse_bench_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn bench_check_fails_on_a_missing_baseline_file() {
        let options = BenchOptions {
            check: Some("/nonexistent/baseline.json".to_string()),
            ..BenchOptions::default()
        };
        // The baseline read happens after the run; validate the error path
        // cheaply by parsing a bogus baseline directly instead.
        assert!(options.check.is_some());
        assert!(rpg_bench::report::parse_baseline("not json").is_err());
        assert!(rpg_bench::report::parse_baseline("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn default_deadline_flag_parses_and_validates() {
        let options = parse_serve_args(&args(&["--default-deadline-ms", "250"])).unwrap();
        assert_eq!(options.default_deadline_ms, Some(250));
        let unset = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(unset.default_deadline_ms, None, "no deadline by default");
        assert!(parse_serve_args(&args(&["--default-deadline-ms", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--default-deadline-ms", "soon"])).is_err());
        assert!(parse_serve_args(&args(&["--default-deadline-ms"])).is_err());
    }

    #[test]
    fn io_backend_flag_parses_and_validates() {
        let auto = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(auto.io_backend, IoBackendChoice::Auto, "auto by default");
        let poll = parse_serve_args(&args(&["--io-backend", "poll"])).unwrap();
        assert_eq!(poll.io_backend, IoBackendChoice::Poll);
        let epoll = parse_serve_args(&args(&["--io-backend", "epoll"])).unwrap();
        assert_eq!(epoll.io_backend, IoBackendChoice::Epoll);
        assert!(parse_serve_args(&args(&["--io-backend", "kqueue"])).is_err());
        assert!(parse_serve_args(&args(&["--io-backend"])).is_err());
    }

    #[test]
    fn serve_reports_the_resolved_io_backend() {
        let options = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            io_backend: IoBackendChoice::Poll,
            ..ServeOptions::default()
        };
        let server = start_server(&options).unwrap();
        assert_eq!(server.io_backend().as_str(), "poll");
        drop(server);
        // Auto resolves to the platform backend (epoll on Linux).
        let auto = start_server(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            ..ServeOptions::default()
        })
        .unwrap();
        let expected = if cfg!(target_os = "linux") {
            "epoll"
        } else {
            "poll"
        };
        assert_eq!(auto.io_backend().as_str(), expected);
    }

    #[test]
    fn hash_key_emits_loadable_stored_keys() {
        let encoded = run_hash_key(&args(&["s3cret"])).unwrap();
        let stored = rpg_service::StoredKey::parse(&encoded).unwrap();
        assert!(stored.matches("s3cret"));
        assert!(!stored.matches("other"));
        // A pinned salt reproduces the exact encoding (for tests/docs).
        let pinned = run_hash_key(&args(&["s3cret", "--salt", "0a0b0c0d"])).unwrap();
        assert_eq!(
            pinned,
            rpg_service::StoredKey::with_salt("s3cret", &[0x0a, 0x0b, 0x0c, 0x0d]).encode()
        );
        assert_ne!(pinned, encoded, "fresh salt differs from the pinned one");
        assert!(run_hash_key(&args(&[])).is_err(), "key is required");
        assert!(run_hash_key(&args(&["k", "--salt", "zz"])).is_err());
        assert!(run_hash_key(&args(&["k", "--salt", ""])).is_err());
        assert!(run_hash_key(&args(&["k", "extra"])).is_err());
    }

    #[test]
    fn serve_manifest_and_auth_flags_parse_and_validate() {
        let options =
            parse_serve_args(&args(&["--manifest", "/tmp/m.json", "--auth", "on"])).unwrap();
        assert_eq!(options.manifest.as_deref(), Some("/tmp/m.json"));
        assert!(options.auth);
        let plain = parse_serve_args(&args(&["--manifest", "/tmp/m.json"])).unwrap();
        assert!(!plain.auth, "auth defaults off");
        assert!(
            parse_serve_args(&args(&["--auth", "on"])).is_err(),
            "--auth on without --manifest has no key source"
        );
        assert!(parse_serve_args(&args(&["--auth", "maybe", "--manifest", "x"])).is_err());
        assert!(parse_serve_args(&args(&["--manifest"])).is_err());
        assert!(
            parse_serve_args(&args(&["--manifest", "x", "--tenant-weight", "a=2"])).is_err(),
            "weights come from the manifest when one is given — no silent flag discard"
        );
    }

    #[test]
    fn serve_starts_from_a_manifest_and_enforces_auth() {
        let path =
            std::env::temp_dir().join(format!("rpg-cli-manifest-{}.json", std::process::id()));
        let [admin, alpha] = ["root-key", "alpha-key"]
            .map(|key| rpg_service::StoredKey::with_salt(key, b"cli").encode());
        std::fs::write(
            &path,
            format!(
                r#"{{
                "admin_key_hashes": [{admin:?}],
                "tenants": {{
                    "alpha": {{
                        "corpus": {{"seed": 21, "papers_per_topic": 20}},
                        "key_hashes": [{alpha:?}]
                    }}
                }}
            }}"#
            ),
        )
        .unwrap();
        let options = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            manifest: Some(path.to_string_lossy().into_owned()),
            auth: true,
            ..ServeOptions::default()
        };
        let server = start_server(&options).unwrap();
        let health = rpg_server::client::get(server.addr(), "/v1/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"alpha\""));
        assert!(
            !health.body.contains("\"default\""),
            "manifest replaces the implicit tenant"
        );
        // The control plane is key-gated.
        let listing = rpg_server::client::get(server.addr(), "/v1/corpora").unwrap();
        assert_eq!(listing.status, 401);
        let bearer = rpg_server::client::bearer("alpha-key");
        let listing = rpg_server::client::request_with(
            server.addr(),
            "GET",
            "/v1/corpora",
            None,
            &[(&bearer.0, &bearer.1)],
        )
        .unwrap();
        assert_eq!(listing.status, 200);
        assert!(listing.body.contains("\"alpha\""));
        // A manifest that still names a plaintext key does not boot.
        std::fs::write(&path, r#"{"admin_keys": ["root-key"]}"#).unwrap();
        let refused = start_server(&options)
            .err()
            .expect("plaintext keys refused");
        assert!(
            refused.contains("\"admin_key_hashes\"") && refused.contains("rpg hash-key"),
            "{refused}"
        );
        // Nor does one naming a malformed key hash.
        std::fs::write(&path, r#"{"admin_key_hashes": ["0a:a0"]}"#).unwrap();
        let refused = start_server(&options)
            .err()
            .expect("malformed key hash refused");
        assert!(
            refused.contains("\"0a:a0\"") && refused.contains("rpg hash-key"),
            "{refused}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_args_parse_and_reject_garbage() {
        assert_eq!(
            parse_snapshot_args(&args(&["build", "--manifest", "m.json", "--out", "snaps"]))
                .unwrap(),
            SnapshotCommand::Build {
                manifest: "m.json".to_string(),
                out: "snaps".to_string(),
            }
        );
        assert_eq!(
            parse_snapshot_args(&args(&["inspect", "a.rpgsnap"])).unwrap(),
            SnapshotCommand::Inspect {
                file: "a.rpgsnap".to_string(),
            }
        );
        assert!(parse_snapshot_args(&args(&["build", "--manifest", "m.json"])).is_err());
        assert!(parse_snapshot_args(&args(&["build", "--out", "snaps"])).is_err());
        assert!(parse_snapshot_args(&args(&["inspect"])).is_err());
        assert!(parse_snapshot_args(&args(&["inspect", "a", "b"])).is_err());
        assert!(parse_snapshot_args(&args(&["export"])).is_err());
        assert!(parse_snapshot_args(&args(&[])).is_err());
    }

    #[test]
    fn snapshot_build_and_inspect_round_trip() {
        let base = std::env::temp_dir().join(format!("rpg-cli-snap-{}", std::process::id()));
        let manifest_path = base.join("manifest.json");
        let out_dir = base.join("snaps");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::write(
            &manifest_path,
            r#"{"tenants": {"alpha": {"corpus": {"seed": 21, "papers_per_topic": 20}}}}"#,
        )
        .unwrap();
        let built = run_snapshot(&SnapshotCommand::Build {
            manifest: manifest_path.to_string_lossy().into_owned(),
            out: out_dir.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(built.contains("alpha:"), "unexpected output: {built}");
        let snap_path = out_dir.join("alpha.rpgsnap");
        let inspected = run_snapshot(&SnapshotCommand::Inspect {
            file: snap_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(inspected.contains("format v1"), "{inspected}");
        for section in ["papers", "refs", "graph", "pagerank", "index", "meta"] {
            assert!(
                inspected.contains(section),
                "missing {section}: {inspected}"
            );
        }
        assert!(!inspected.contains("CORRUPT"), "{inspected}");
        // A manifest pointing at the snapshot boots a server from it.
        let spec = rpg_service::CorpusSpec {
            seed: 21,
            papers_per_topic: Some(20),
            ..rpg_service::CorpusSpec::small(21)
        };
        let loaded = rpg_service::snapshot::try_load(
            &snap_path.to_string_lossy(),
            rpg_service::spec_fingerprint(&spec),
        )
        .unwrap();
        assert!(!loaded.corpus().is_empty());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn serve_starts_and_answers_healthz() {
        let options = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeOptions::default()
        };
        let server = start_server(&options).unwrap();
        let health = rpg_server::client::get(server.addr(), "/v1/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"default\""));
    }

    #[test]
    fn generation_runs_for_a_known_topic() {
        let options = parse_args(&args(&[
            "--query",
            "graph neural networks",
            "--top-k",
            "10",
        ]))
        .unwrap();
        let output = run(&options).unwrap();
        assert!(
            output.contains("reading path"),
            "unexpected output: {output}"
        );
    }
}
