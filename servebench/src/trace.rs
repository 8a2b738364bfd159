//! The traced run's instruments: an in-memory span recorder, the in-process
//! replay of a request through each layer's public functions, and the
//! per-layer self-time table.

use crate::oracle::Oracle;
use crate::plan::{Request, CORPUS};
use rpg_repager::stages::{
    ReallocStage, RenderStage, SeedStage, Stage, StageContext, SteinerStage, SubgraphStage,
};
use rpg_repager::{CorpusArtifacts, PipelineScratch, RepagerOutput};
use rpg_server::api::{generate_response_value, ResolvedRequest};
use rpg_server::GenerateRequest;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request (or batch round) the span belongs to.
    pub request: u64,
    /// The span's name: `<layer>.<operation>`.
    pub name: &'static str,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch (`start` until closed).
    pub end: Duration,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now; returns its index.
    pub fn open(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            request,
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(request, parent, name);
        let out = f();
        self.close(span);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part of it its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<Duration>> {
        let mut by_name: BTreeMap<&'static str, Vec<Duration>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(span.name).or_default().push(own);
        }
        by_name
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{index},"request":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                span.request,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        Ok(())
    }
}

/// The stage span names, in pipeline order.
pub const STAGES: [&str; 5] = [
    "repager.seed",
    "repager.subgraph",
    "repager.realloc",
    "repager.steiner",
    "repager.render",
];

/// What one replay produced.
pub struct Replayed {
    /// The replayed output, compared against the server's answer.
    pub output: Arc<RepagerOutput>,
    /// Whether it came from the cache lookup rather than the stages.
    pub cached: bool,
    /// Bytes of the encoded `/v1/generate` response.
    pub response_bytes: usize,
}

/// Replays requests in-process, layer by layer.
pub struct Replayer {
    artifacts: Arc<CorpusArtifacts>,
    scratch: PipelineScratch,
}

impl Replayer {
    /// A replayer over the oracle's artifacts with a fresh, reused scratch.
    pub fn new(oracle: &Oracle) -> Replayer {
        Replayer {
            artifacts: oracle
                .registry
                .artifacts(CORPUS)
                .expect("oracle registers the default corpus"),
            scratch: PipelineScratch::new(),
        }
    }

    /// Replays one request under `parent`: decode, then either the service
    /// lookup (`lookup`, a warm key) or the five stages, then encode.
    pub fn replay(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        parent: usize,
        request: &Request,
        oracle: &Oracle,
        lookup: bool,
    ) -> Result<Replayed, String> {
        let parent = Some(parent);
        let resolved = tracer.time(id, parent, "api.decode", || {
            let dto: GenerateRequest =
                serde_json::from_str(&request.body).map_err(|e| format!("replay decode: {e}"))?;
            ResolvedRequest::resolve(&dto).map_err(|e| e.message)
        })?;
        let path_request = resolved.as_path_request();
        let (output, cached) = if lookup {
            let served = tracer.time(id, parent, "service.lookup", || {
                oracle.registry.generate(CORPUS, &path_request)
            });
            let served = served.map_err(|e| format!("replay lookup: {e}"))?;
            if !served.cached {
                return Err("replay lookup missed a warm key".to_string());
            }
            (served.output, true)
        } else {
            (Arc::new(self.stages(tracer, id, parent, &resolved)?), false)
        };
        let response_bytes = tracer.time(id, parent, "api.encode", || {
            serde_json::to_string(&generate_response_value(CORPUS, &output, cached))
                .expect("response serialises")
                .len()
        });
        Ok(Replayed {
            output,
            cached,
            response_bytes,
        })
    }

    /// Runs each `Stage::run` through a `StageContext` with the reused
    /// scratch, one span per stage.
    fn stages(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        parent: Option<usize>,
        resolved: &ResolvedRequest,
    ) -> Result<RepagerOutput, String> {
        let request = resolved.as_path_request();
        request
            .config
            .validate()
            .map_err(|e| format!("replay config: {e}"))?;
        let artifacts = &self.artifacts;
        let mut cx = StageContext {
            corpus: artifacts.corpus(),
            scholar: artifacts.scholar(),
            node_weights: artifacts.node_weights(),
            request: &request,
            config: request.variant.apply(request.config),
            scratch: &mut self.scratch,
        };
        let before = cx.scratch.counters();
        let stage_error = |e| format!("replay stage: {e}");
        let seeds = tracer
            .time(id, parent, STAGES[0], || SeedStage.run(&mut cx, ()))
            .map_err(stage_error)?;
        if seeds.is_empty() {
            return Err("replay found no seeds".to_string());
        }
        let subgraph = tracer
            .time(id, parent, STAGES[1], || SubgraphStage.run(&mut cx, seeds))
            .map_err(stage_error)?;
        let realloc = tracer
            .time(id, parent, STAGES[2], || {
                ReallocStage.run(&mut cx, subgraph)
            })
            .map_err(stage_error)?;
        let steiner = tracer
            .time(id, parent, STAGES[3], || SteinerStage.run(&mut cx, realloc))
            .map_err(stage_error)?;
        let mut output = tracer
            .time(id, parent, STAGES[4], || RenderStage.run(&mut cx, steiner))
            .map_err(stage_error)?;
        output.timings.counters = cx.scratch.counters().since(&before);
        Ok(output)
    }
}
