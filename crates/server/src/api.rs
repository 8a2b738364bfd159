//! The JSON API surface: request DTOs and the canonical response encoding.
//!
//! One writer encodes every response body: it appends JSON text straight
//! from a [`RepagerOutput`] to a `String`, with no intermediate tree. The
//! server sends its bytes on every path: a miss, a cache entry's hit body,
//! and each `/v1/batch` item ([`generate_response_body`],
//! [`item_error_body`], [`batch_body`]), and error bodies go through it
//! too ([`error_body`]).
//!
//! [`output_result_value`], [`generate_response_value`] and
//! [`timings_value`] are [`Value`] views of the writer's bytes, kept for
//! the benchmark's oracle and replay and for the tests. Each parses the
//! writer's text, so `serde_json::to_string` of a view gives back exactly
//! the bytes the server sends. The integration suite renders the view of a
//! direct `CorpusArtifacts::generate` output and asserts byte-identical JSON
//! against the server's `result` field, so the HTTP layer provably adds
//! nothing and loses nothing.
//!
//! Determinism matters here: everything emitted is either an ordered
//! `Vec`-backed structure or explicitly sorted (the co-occurrence map is a
//! `HashMap` upstream and is emitted sorted by paper id). Numbers and
//! strings go through the vendored `serde_json`'s number rule and string
//! escaping, so the text is what `to_string` of a `Value` tree of the same
//! data renders.

use rpg_corpus::PaperId;
use rpg_repager::stages::StageTimings;
use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::{RepagerConfig, Variant};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Default reading-list length when a request omits `top_k`.
pub const DEFAULT_TOP_K: usize = 30;

/// Hard cap on `/v1/batch` fan-out, so one request body cannot queue
/// unbounded work behind one worker.
pub const MAX_BATCH: usize = 256;

/// Body of `POST /v1/generate` (and each element of `POST /v1/batch`).
///
/// Only `query` is required; everything else falls back to the service
/// defaults. `corpus` routes to a registry tenant and defaults to the
/// server's configured default corpus.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GenerateRequest {
    /// The research topic (key phrases joined by spaces).
    pub query: String,
    /// Reading-list length (default 30).
    pub top_k: Option<usize>,
    /// Only papers published in or before this year.
    pub max_year: Option<u16>,
    /// The corpus tenant to query (default corpus when omitted).
    pub corpus: Option<String>,
    /// Model variant by paper-table name (`"NEWST"`, `"NEWST-C"`, ...).
    pub variant: Option<String>,
    /// Number of initial seed papers.
    pub seed_count: Option<usize>,
    /// Paper ids excluded from every stage.
    pub exclude: Option<Vec<u32>>,
}

impl GenerateRequest {
    /// The tenant this request is admitted (and billed) under: its own
    /// `corpus` field, or the server's default corpus.
    pub fn tenant<'a>(&'a self, default: &'a str) -> &'a str {
        self.corpus.as_deref().unwrap_or(default)
    }
}

/// Body of `POST /v1/batch`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The requests to serve; results come back in the same order.
    pub requests: Vec<GenerateRequest>,
}

impl BatchRequest {
    /// The tenant a whole batch is admitted under: the corpus *all* items
    /// agree on, or the default corpus for an empty or mixed-corpus batch.
    /// Mixed batches must not be billable to whichever tenant happens to be
    /// named first — that would let one client drain another tenant's
    /// queue budget. (Tenant identity is the self-declared `corpus` field,
    /// so attribution is advisory until requests carry authenticated
    /// principals; the fallback at least keeps it deterministic.)
    pub fn tenant<'a>(&'a self, default: &'a str) -> &'a str {
        let mut tenants = self.requests.iter().map(|r| r.tenant(default));
        match tenants.next() {
            Some(first) if tenants.all(|t| t == first) => first,
            _ => default,
        }
    }
}

/// Body of `PATCH /v1/admin/tenants/:name`: the runtime-retunable knobs of
/// one tenant's fair-queue lane. Omitted fields are left unchanged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantPatch {
    /// New deficit-round-robin weight (≥ 1).
    pub weight: Option<u64>,
    /// New per-tenant admission-queue bound (≥ 1).
    pub queue: Option<usize>,
    /// New in-flight compute cap (≥ 1).
    pub inflight: Option<usize>,
    /// New deadline budget in milliseconds (≥ 1).
    pub deadline_ms: Option<u64>,
    /// New slow-request exemplar threshold in milliseconds (0 retains an
    /// exemplar for every request).
    pub trace_slow_ms: Option<u64>,
}

/// A request-level problem discovered while interpreting a DTO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status to answer with.
    pub status: u16,
    /// Human-readable explanation, returned as `{"error": ...}`.
    pub message: String,
}

impl ApiError {
    /// A 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    /// The `{"error": ...}` body for this error.
    pub fn body(&self) -> String {
        error_body(&self.message)
    }
}

/// The owned pieces of a validated request that a [`PathRequest`] borrows.
#[derive(Debug, Clone)]
pub struct ResolvedRequest {
    /// The query text.
    pub query: String,
    /// Flattened reading-list length.
    pub top_k: usize,
    /// Year cut-off.
    pub max_year: Option<u16>,
    /// Excluded papers.
    pub exclude: Vec<PaperId>,
    /// Model parameters.
    pub config: RepagerConfig,
    /// Model variant.
    pub variant: Variant,
}

impl ResolvedRequest {
    /// Validates a DTO into owned request parts.
    pub fn resolve(dto: &GenerateRequest) -> Result<Self, ApiError> {
        let variant = match dto.variant.as_deref() {
            None => Variant::Newst,
            Some(name) => Variant::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
                ApiError::bad_request(format!(
                    "unknown variant {name:?}; expected one of {}",
                    known.join(", ")
                ))
            })?,
        };
        let mut config = RepagerConfig::default();
        if let Some(seed_count) = dto.seed_count {
            config = config.with_seed_count(seed_count);
        }
        Ok(ResolvedRequest {
            query: dto.query.clone(),
            top_k: dto.top_k.unwrap_or(DEFAULT_TOP_K),
            max_year: dto.max_year,
            exclude: dto
                .exclude
                .iter()
                .flatten()
                .map(|&id| PaperId(id))
                .collect(),
            config,
            variant,
        })
    }

    /// The borrowing pipeline request over this resolved data.
    pub fn as_path_request(&self) -> PathRequest<'_> {
        PathRequest {
            query: &self.query,
            top_k: self.top_k,
            max_year: self.max_year,
            exclude: &self.exclude,
            config: self.config,
            variant: self.variant,
        }
    }
}

/// The full `POST /v1/generate` response body: the corpus name, whether
/// the cache answered, the result object and the timings object.
pub fn generate_response_body(corpus: &str, output: &RepagerOutput, cached: bool) -> String {
    let (path, seeds) = (&output.path, &output.seeds);
    let ids = output.reading_list.len()
        + path.order.len()
        + seeds.initial.len()
        + seeds.reallocated.len()
        + 4 * (path.edges.len() + seeds.cooccurrence.len());
    // Room for ids of up to six digits, so a typical body never regrows.
    let mut out = String::with_capacity(512 + corpus.len() + 7 * ids);
    write_response(&mut out, corpus, output, cached);
    out
}

/// The `{"error": message}` body of every error response.
pub fn error_body(message: &str) -> String {
    let mut out = open_error(message);
    out.push('}');
    out
}

/// A failed `/v1/batch` item, `{"error": message, "status": status}`: items
/// that fail (validation, unknown corpus, per-tenant throttling) carry it
/// in their result slot while the surrounding batch still answers `200`.
pub fn item_error_body(status: u16, message: &str) -> String {
    let mut out = open_error(message);
    out.push_str(r#","status":"#);
    write_int(&mut out, status.into());
    out.push('}');
    out
}

/// The `/v1/batch` body: the items' bodies, in request order, joined into
/// `{"results":[...]}` in one allocation sized from their lengths.
pub fn batch_body(items: &[Vec<u8>]) -> Vec<u8> {
    let (open, close) = (br#"{"results":["#, b"]}");
    let commas = items.len().saturating_sub(1);
    let len = open.len() + items.iter().map(Vec::len).sum::<usize>() + commas + close.len();
    let mut body = Vec::with_capacity(len);
    body.extend_from_slice(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(item);
    }
    body.extend_from_slice(close);
    body
}

/// The canonical, deterministic result object, as a [`Value`] view of the
/// writer's bytes.
///
/// Excludes wall-clock timings (they never repeat) so that two runs of the
/// same request encode to byte-identical JSON.
pub fn output_result_value(output: &RepagerOutput) -> Value {
    view(|out| write_result(out, output))
}

/// Per-stage wall-clock times in integer microseconds, plus the run's work
/// counters (Steiner solves, lazy-path bookkeeping, scratch allocations,
/// realloc retries) under a nested `counters` object, as a [`Value`] view
/// of the writer's bytes.
pub fn timings_value(timings: &StageTimings) -> Value {
    view(|out| write_timings(out, timings))
}

/// The full `POST /v1/generate` response body, as a [`Value`] view of
/// [`generate_response_body`].
pub fn generate_response_value(corpus: &str, output: &RepagerOutput, cached: bool) -> Value {
    view(|out| write_response(out, corpus, output, cached))
}

/// Parses what `write` appends into its [`Value`] view.
fn view(write: impl FnOnce(&mut String)) -> Value {
    let mut out = String::new();
    write(&mut out);
    serde_json::from_str(&out).expect("the writer emits valid JSON")
}

fn write_response(out: &mut String, corpus: &str, output: &RepagerOutput, cached: bool) {
    out.push_str(r#"{"corpus":"#);
    serde_json::write_string(out, corpus);
    out.push_str(if cached {
        r#","cached":true,"result":"#
    } else {
        r#","cached":false,"result":"#
    });
    write_result(out, output);
    out.push_str(r#","timings":"#);
    write_timings(out, &output.timings);
    out.push('}');
}

/// Appends the result object of `output`.
fn write_result(out: &mut String, output: &RepagerOutput) {
    out.push_str(r#"{"reading_list":"#);
    write_ids(out, &output.reading_list);
    out.push_str(r#","path":{"order":"#);
    write_ids(out, &output.path.order);
    out.push_str(r#","edges":"#);
    write_array(out, &output.path.edges, |out, edge| {
        out.push_str(r#"{"from":"#);
        write_int(out, edge.from.0.into());
        out.push_str(r#","to":"#);
        write_int(out, edge.to.0.into());
        out.push('}');
    });
    out.push_str(r#","cost":"#);
    serde_json::write_number(out, output.path.cost);
    out.push_str(r#"},"seeds":{"initial":"#);
    write_ids(out, &output.seeds.initial);
    out.push_str(r#","reallocated":"#);
    write_ids(out, &output.seeds.reallocated);
    out.push_str(r#","cooccurrence":"#);
    let mut cooccurrence: Vec<_> = output.seeds.cooccurrence.iter().collect();
    cooccurrence.sort_unstable();
    write_array(out, &cooccurrence, |out, &(paper, &count)| {
        out.push_str(r#"{"paper":"#);
        write_int(out, paper.0.into());
        out.push_str(r#","count":"#);
        write_int(out, count as u64);
        out.push('}');
    });
    out.push_str(r#"},"subgraph_nodes":"#);
    write_int(out, output.subgraph_nodes as u64);
    out.push_str(r#","subgraph_edges":"#);
    write_int(out, output.subgraph_edges as u64);
    out.push('}');
}

/// Appends the timings object. Stage and counter names are plain
/// identifiers, so they need no escaping.
fn write_timings(out: &mut String, timings: &StageTimings) {
    out.push('{');
    for (name, duration) in timings.stages() {
        out.push('"');
        out.push_str(name);
        out.push_str(r#"_us":"#);
        write_int(out, duration.as_micros() as u64);
        out.push(',');
    }
    out.push_str(r#""total_us":"#);
    write_int(out, timings.total.as_micros() as u64);
    out.push_str(r#","counters":{"#);
    for (i, (name, value)) in timings.counters.fields().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str(r#"":"#);
        write_int(out, value);
    }
    out.push_str("}}");
}

/// `{"error":` and the escaped message, left open for more fields.
fn open_error(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 32);
    out.push_str(r#"{"error":"#);
    serde_json::write_string(&mut out, message);
    out
}

fn write_ids(out: &mut String, ids: &[PaperId]) {
    write_array(out, ids, |out, id| write_int(out, id.0.into()));
}

/// Appends `items` as a JSON array, each written by `write`.
fn write_array<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Appends an integer by the number rule the [`Value`] views use: plain
/// digits below 9e15, which covers every id, count and microsecond total.
fn write_int(out: &mut String, n: u64) {
    serde_json::write_number(out, n as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_request_parses_with_defaults() {
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "graph neural networks"}"#).unwrap();
        assert_eq!(dto.query, "graph neural networks");
        assert_eq!(dto.top_k, None);
        let resolved = ResolvedRequest::resolve(&dto).unwrap();
        assert_eq!(resolved.top_k, DEFAULT_TOP_K);
        assert_eq!(resolved.variant, Variant::Newst);
        assert!(resolved.exclude.is_empty());
        let request = resolved.as_path_request();
        assert_eq!(request.query, "graph neural networks");
    }

    #[test]
    fn generate_request_parses_every_field() {
        let dto: GenerateRequest = serde_json::from_str(
            r#"{"query": "q", "top_k": 7, "max_year": 2015, "corpus": "aux",
                "variant": "newst-c", "seed_count": 12, "exclude": [3, 9]}"#,
        )
        .unwrap();
        let resolved = ResolvedRequest::resolve(&dto).unwrap();
        assert_eq!(resolved.top_k, 7);
        assert_eq!(resolved.max_year, Some(2015));
        assert_eq!(resolved.variant, Variant::CandidatesOnly);
        assert_eq!(resolved.config.seed_count, 12);
        assert_eq!(resolved.exclude, vec![PaperId(3), PaperId(9)]);
        assert_eq!(dto.corpus.as_deref(), Some("aux"));
    }

    #[test]
    fn unknown_variant_is_a_400() {
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "q", "variant": "steiner"}"#).unwrap();
        let err = ResolvedRequest::resolve(&dto).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("steiner"));
        assert!(err.body().starts_with(r#"{"error":"#));
    }

    #[test]
    fn missing_query_fails_to_parse() {
        assert!(serde_json::from_str::<GenerateRequest>(r#"{"top_k": 5}"#).is_err());
        assert!(serde_json::from_str::<GenerateRequest>("[]").is_err());
        assert!(serde_json::from_str::<GenerateRequest>("not json").is_err());
    }

    #[test]
    fn admission_tenant_falls_back_to_the_default() {
        let dto: GenerateRequest = serde_json::from_str(r#"{"query": "q"}"#).unwrap();
        assert_eq!(dto.tenant("default"), "default");
        let dto: GenerateRequest =
            serde_json::from_str(r#"{"query": "q", "corpus": "aux"}"#).unwrap();
        assert_eq!(dto.tenant("default"), "aux");

        let batch: BatchRequest = serde_json::from_str(r#"{"requests": []}"#).unwrap();
        assert_eq!(batch.tenant("default"), "default");
        let batch: BatchRequest = serde_json::from_str(
            r#"{"requests": [{"query": "a", "corpus": "aux"}, {"query": "b", "corpus": "aux"}]}"#,
        )
        .unwrap();
        assert_eq!(batch.tenant("default"), "aux");
        // A mixed-corpus batch is billed to the default tenant, never to
        // whichever tenant is named first.
        let mixed: BatchRequest = serde_json::from_str(
            r#"{"requests": [{"query": "a", "corpus": "aux"}, {"query": "b"}]}"#,
        )
        .unwrap();
        assert_eq!(mixed.tenant("default"), "default");
    }

    #[test]
    fn batch_request_parses() {
        let batch: BatchRequest =
            serde_json::from_str(r#"{"requests": [{"query": "a"}, {"query": "b", "top_k": 3}]}"#)
                .unwrap();
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(batch.requests[1].top_k, Some(3));
    }

    #[test]
    fn error_body_is_json() {
        assert_eq!(
            error_body("queue full"),
            r#"{"error":"queue full"}"#.to_string()
        );
    }

    #[test]
    fn timings_render_in_microseconds() {
        let timings = StageTimings {
            seed: std::time::Duration::from_micros(10),
            total: std::time::Duration::from_micros(99),
            ..Default::default()
        };
        let value = timings_value(&timings);
        assert_eq!(value.get("seed_us").and_then(Value::as_f64), Some(10.0));
        assert_eq!(value.get("total_us").and_then(Value::as_f64), Some(99.0));
        assert_eq!(value.get("render_us").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn timings_carry_work_counters() {
        let timings = StageTimings {
            counters: rpg_repager::StageCounters {
                steiner_runs: 2,
                steiner_paths_skipped: 7,
                ..Default::default()
            },
            ..Default::default()
        };
        let value = timings_value(&timings);
        let counters = value.get("counters").expect("counters object present");
        assert_eq!(
            counters.get("steiner_runs").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            counters
                .get("steiner_paths_skipped")
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            counters.get("scratch_allocations").and_then(Value::as_f64),
            Some(0.0)
        );
    }
}

#[cfg(test)]
mod pins {
    //! Exact response text, pinned as literals.

    use super::*;
    use rpg_repager::newst::NewstForest;
    use rpg_repager::path::{ReadingEdge, ReadingPath};
    use rpg_repager::seeds::SeedAllocation;
    use rpg_repager::StageCounters;
    use std::time::Duration;

    fn edge(from: u32, to: u32) -> ReadingEdge {
        ReadingEdge {
            from: PaperId(from),
            to: PaperId(to),
        }
    }

    fn ids(raw: &[u32]) -> Vec<PaperId> {
        raw.iter().map(|&id| PaperId(id)).collect()
    }

    /// A fully literal pipeline output: fixed timings and counters, a
    /// co-occurrence map filled in scrambled order, and a fractional cost.
    fn literal_output() -> RepagerOutput {
        RepagerOutput {
            reading_list: ids(&[7, 42, 3, 1005, 0]),
            path: ReadingPath {
                order: ids(&[3, 7, 42]),
                edges: vec![edge(3, 7), edge(7, 42)],
                cost: 2.5,
            },
            forest: NewstForest::default(),
            seeds: SeedAllocation {
                initial: ids(&[7, 42, 9]),
                reallocated: ids(&[42, 7]),
                cooccurrence: [(1005, 2), (7, 5), (42, 3), (0, 4), (9, 1)]
                    .into_iter()
                    .map(|(id, count)| (PaperId(id), count))
                    .collect(),
            },
            subgraph_nodes: 118,
            subgraph_edges: 305,
            timings: StageTimings {
                seed: Duration::from_micros(4210),
                subgraph: Duration::from_micros(950),
                realloc: Duration::from_micros(31),
                steiner: Duration::from_micros(612),
                render: Duration::from_nanos(480_999),
                total: Duration::from_micros(6001),
                counters: StageCounters {
                    steiner_runs: 2,
                    steiner_paths_expanded: 9,
                    steiner_paths_skipped: 17,
                    steiner_pruned_leaves: 1,
                    scratch_allocations: 0,
                    realloc_retries: 3,
                },
            },
        }
    }

    fn with_cost(cost: f64) -> RepagerOutput {
        let mut output = literal_output();
        output.path.cost = cost;
        output
    }

    fn json(value: &Value) -> String {
        serde_json::to_string(value).unwrap()
    }

    /// The corpus name of the pinned responses: a quote, a backslash, a
    /// control character and non-ASCII text.
    const TENANT: &str = "te\"n\\ant\u{1}é";

    /// The result object of [`literal_output`] with its cost written as
    /// `$cost`.
    macro_rules! result_text {
        ($cost:literal) => {
            concat!(
                r#"{"reading_list":[7,42,3,1005,0],"#,
                r#""path":{"order":[3,7,42],"edges":[{"from":3,"to":7},{"from":7,"to":42}],"#,
                r#""cost":"#,
                $cost,
                r#"},"seeds":{"initial":[7,42,9],"reallocated":[42,7],"cooccurrence":["#,
                r#"{"paper":0,"count":4},{"paper":7,"count":5},{"paper":9,"count":1},"#,
                r#"{"paper":42,"count":3},{"paper":1005,"count":2}]},"#,
                r#""subgraph_nodes":118,"subgraph_edges":305}"#,
            )
        };
    }

    /// The timings object of [`literal_output`] (the render stage's 480.999
    /// µs truncates to 480).
    macro_rules! timings_text {
        () => {
            concat!(
                r#"{"seed_us":4210,"subgraph_us":950,"realloc_us":31,"steiner_us":612,"#,
                r#""render_us":480,"total_us":6001,"counters":{"steiner_runs":2,"#,
                r#""steiner_paths_expanded":9,"steiner_paths_skipped":17,"#,
                r#""steiner_pruned_leaves":1,"scratch_allocations":0,"realloc_retries":3}}"#,
            )
        };
    }

    /// The full `/v1/generate` body of [`literal_output`] under [`TENANT`].
    macro_rules! response_text {
        ($cached:literal) => {
            concat!(
                r#"{"corpus":"te\"n\\ant\u0001é","cached":"#,
                $cached,
                r#","result":"#,
                result_text!("2.5"),
                r#","timings":"#,
                timings_text!(),
                "}",
            )
        };
    }

    fn written_result(output: &RepagerOutput) -> String {
        let mut out = String::new();
        write_result(&mut out, output);
        out
    }

    fn written_timings(timings: &StageTimings) -> String {
        let mut out = String::new();
        write_timings(&mut out, timings);
        out
    }

    /// Asserts the writer's bytes of a result and its view's re-encoding
    /// are both `text`.
    fn assert_result(output: &RepagerOutput, text: &str) {
        assert_eq!(written_result(output), text);
        assert_eq!(json(&output_result_value(output)), text);
    }

    #[test]
    fn responses_encode_to_the_pinned_text() {
        let output = literal_output();
        for (cached, text) in [
            (true, response_text!("true")),
            (false, response_text!("false")),
        ] {
            assert_eq!(generate_response_body(TENANT, &output, cached), text);
            assert_eq!(
                json(&generate_response_value(TENANT, &output, cached)),
                text
            );
        }
        assert_result(&output, result_text!("2.5"));
        assert_eq!(written_timings(&output.timings), timings_text!());
        assert_eq!(json(&timings_value(&output.timings)), timings_text!());
        assert_eq!(
            item_error_body(404, "unknown corpus \"ghost\""),
            r#"{"error":"unknown corpus \"ghost\"","status":404}"#
        );
    }

    #[test]
    fn integral_and_non_finite_costs_and_empty_lists_encode_to_the_pinned_text() {
        for (cost, text) in [
            (3.0, result_text!("3")),
            (f64::INFINITY, result_text!("null")),
            (f64::NEG_INFINITY, result_text!("null")),
            (f64::NAN, result_text!("null")),
        ] {
            assert_result(&with_cost(cost), text);
        }
        let empty = RepagerOutput {
            reading_list: Vec::new(),
            path: ReadingPath::default(),
            forest: NewstForest::default(),
            seeds: SeedAllocation {
                initial: Vec::new(),
                reallocated: Vec::new(),
                cooccurrence: Default::default(),
            },
            subgraph_nodes: 0,
            subgraph_edges: 0,
            timings: StageTimings::default(),
        };
        assert_result(
            &empty,
            concat!(
                r#"{"reading_list":[],"path":{"order":[],"edges":[],"cost":0},"#,
                r#""seeds":{"initial":[],"reallocated":[],"cooccurrence":[]},"#,
                r#""subgraph_nodes":0,"subgraph_edges":0}"#,
            ),
        );
    }

    #[test]
    fn batch_bodies_join_their_items_in_order() {
        assert_eq!(batch_body(&[]), br#"{"results":[]}"#);
        let items = [
            item_error_body(404, "a").into_bytes(),
            error_body("b").into_bytes(),
        ];
        let body = batch_body(&items);
        assert_eq!(
            body,
            br#"{"results":[{"error":"a","status":404},{"error":"b"}]}"#
        );
        assert_eq!(body.capacity(), body.len(), "the body is sized up front");
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rpg_repager::newst::NewstForest;
    use rpg_repager::path::{ReadingEdge, ReadingPath};
    use rpg_repager::seeds::SeedAllocation;
    use rpg_repager::StageCounters;
    use std::time::Duration;

    /// Corpus names over escapes, control characters and non-ASCII text.
    const NAME: &str = "[\u{0}-\u{1f}\"\\\\/a-z0-9 é中✓𝕏\u{7f}\u{2028}]{0,24}";

    /// Costs: non-integral, negative, integral, past 9e15, and non-finite.
    fn cost() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => -1.0e3..1.0e3,
            1 => (0u32..10_000).prop_map(f64::from),
            1 => 9.0e15..1.0e22,
            1 => -1.0e22..-9.0e15,
            1 => (0u32..3).prop_map(|i| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i as usize]),
        ]
    }

    fn ids() -> impl Strategy<Value = Vec<PaperId>> {
        prop::collection::vec((0u32..=u32::MAX).prop_map(PaperId), 0..40)
    }

    /// Every field of an output the encoding reads, drawn at random.
    fn output() -> impl Strategy<Value = RepagerOutput> {
        (
            (ids(), ids(), ids(), ids()),
            (
                prop::collection::vec((0u32..6000, 0u32..6000), 0..30),
                cost(),
            ),
            prop::collection::vec((0u32..6000, 0usize..=usize::MAX), 0..30),
            (
                prop::collection::vec(0u64..=u64::MAX, 6..7),
                prop::collection::vec(0u64..10_000_000_000, 6..7),
                (0usize..100_000, 0usize..=usize::MAX),
            ),
        )
            .prop_map(
                |(
                    (reading_list, order, initial, reallocated),
                    (edges, cost),
                    cooccurrence,
                    (counters, micros, (subgraph_nodes, subgraph_edges)),
                )| {
                    let us = |i: usize| Duration::from_micros(micros[i]);
                    RepagerOutput {
                        reading_list,
                        path: ReadingPath {
                            order,
                            edges: edges
                                .into_iter()
                                .map(|(from, to)| ReadingEdge {
                                    from: PaperId(from),
                                    to: PaperId(to),
                                })
                                .collect(),
                            cost,
                        },
                        forest: NewstForest::default(),
                        seeds: SeedAllocation {
                            initial,
                            reallocated,
                            cooccurrence: cooccurrence
                                .into_iter()
                                .map(|(paper, count)| (PaperId(paper), count))
                                .collect(),
                        },
                        subgraph_nodes,
                        subgraph_edges,
                        timings: StageTimings {
                            seed: us(0),
                            subgraph: us(1),
                            realloc: us(2),
                            steiner: us(3),
                            render: us(4),
                            total: us(5),
                            counters: StageCounters {
                                steiner_runs: counters[0],
                                steiner_paths_expanded: counters[1],
                                steiner_paths_skipped: counters[2],
                                steiner_pruned_leaves: counters[3],
                                scratch_allocations: counters[4],
                                realloc_retries: counters[5],
                            },
                        },
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every `Value` view re-encodes to exactly the writer's bytes.
        #[test]
        fn views_re_encode_to_the_writers_bytes(
            output in output(),
            corpus in NAME,
            cached in 0u8..2,
            status in 100u16..600,
            message in NAME,
        ) {
            let cached = cached == 1;
            let body = generate_response_body(&corpus, &output, cached);
            let view = generate_response_value(&corpus, &output, cached);
            prop_assert_eq!(serde_json::to_string(&view).unwrap(), body);

            let mut result = String::new();
            write_result(&mut result, &output);
            prop_assert_eq!(serde_json::to_string(&output_result_value(&output)).unwrap(), result);

            let mut timings = String::new();
            write_timings(&mut timings, &output.timings);
            prop_assert_eq!(serde_json::to_string(&timings_value(&output.timings)).unwrap(), timings);

            let error: Value = serde_json::from_str(&item_error_body(status, &message)).unwrap();
            prop_assert_eq!(error.get("error").and_then(Value::as_str), Some(message.as_str()));
            prop_assert_eq!(error.get("status").and_then(Value::as_f64), Some(f64::from(status)));
            prop_assert_eq!(serde_json::to_string(&error).unwrap(), item_error_body(status, &message));
        }
    }
}
