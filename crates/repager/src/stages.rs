//! The RePaGer query path as an explicit five-stage pipeline.
//!
//! One [`Stage`] per step of Fig. 6 — [`SeedStage`] → [`SubgraphStage`] →
//! [`ReallocStage`] → [`SteinerStage`] → [`RenderStage`] — driven by
//! [`run_pipeline`], which times every stage into a [`StageTimings`] so
//! per-request hot spots are observable, and threads a shared
//! [`PipelineScratch`] through the realloc and Steiner stages so the
//! co-occurrence counting and the KMB heuristic's K single-source runs reuse
//! one per-worker workspace.
//!
//! The stages borrow the corpus artifacts through a [`StageContext`], which
//! [`CorpusArtifacts::generate`](crate::artifacts::CorpusArtifacts::generate)
//! builds once per request.

use crate::config::RepagerConfig;
use crate::newst::{self, NewstForest};
use crate::path::{self, ReadingPath};
use crate::scratch::PipelineScratch;
use crate::seeds::{reallocate_with, SeedAllocation};
use crate::subgraph::SubGraph;
use crate::system::{PathRequest, RepagerError, RepagerOutput};
use crate::weights::NodeWeights;
use rpg_corpus::{Corpus, PaperId};
use rpg_engines::{Query, ScholarEngine};
use rpg_graph::GraphError;
use std::time::{Duration, Instant};

/// How one pipeline stage is named: a row of [`STAGES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageName {
    /// The name in timings, diagnostics and metric labels.
    pub name: &'static str,
    /// The name of the stage's trace span, `stage:<name>`.
    pub span: &'static str,
}

impl StageName {
    const fn new(name: &'static str, span: &'static str) -> StageName {
        StageName { name, span }
    }
}

/// The five stages in pipeline order, and the one place their names are
/// written: [`Stage::name`], [`StageTimings::stages`], the stage spans and
/// the server's per-stage metric labels all read this table.
pub const STAGES: [StageName; 5] = [
    StageName::new("seed", "stage:seed"),
    StageName::new("subgraph", "stage:subgraph"),
    StageName::new("realloc", "stage:realloc"),
    StageName::new("steiner", "stage:steiner"),
    StageName::new("render", "stage:render"),
];

/// Work counters of one pipeline run, recorded alongside the stage
/// durations.
///
/// They come from the before/after difference of the worker's
/// [`PipelineScratch::counters`] snapshot, so they attribute exactly the
/// work (and the buffer growth) this request caused.  `scratch_allocations`
/// counts only the growth of the scratch's own buffers: it reads 0 on a
/// warmed-up worker while the request still makes heap allocations
/// elsewhere, which `tests/allocations.rs` bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// KMB solves run by the Steiner stage (one per terminal component).
    pub steiner_runs: u64,
    /// Closure witness paths actually expanded (K−1 per solve).
    pub steiner_paths_expanded: u64,
    /// Closure terminal pairs whose witness paths were never materialised.
    pub steiner_paths_skipped: u64,
    /// Non-terminal leaves pruned from the Steiner trees.
    pub steiner_pruned_leaves: u64,
    /// Scratch-buffer growth (heap allocation) events across all stages.
    pub scratch_allocations: u64,
    /// Seed-reallocation threshold relaxations / seed fallbacks taken.
    pub realloc_retries: u64,
}

impl StageCounters {
    /// Field-wise difference (`self - earlier`) between two cumulative
    /// snapshots.
    pub fn since(&self, earlier: &StageCounters) -> StageCounters {
        let mut delta = *self;
        for (field, (_, before)) in delta.fields_mut().into_iter().zip(earlier.fields()) {
            *field -= before;
        }
        delta
    }

    /// Field-wise sum, for service-level aggregation.
    pub fn add(&mut self, other: &StageCounters) {
        for (field, (_, value)) in self.fields_mut().into_iter().zip(other.fields()) {
            *field += value;
        }
    }

    /// The counters, labelled, in a stable reporting order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("steiner_runs", self.steiner_runs),
            ("steiner_paths_expanded", self.steiner_paths_expanded),
            ("steiner_paths_skipped", self.steiner_paths_skipped),
            ("steiner_pruned_leaves", self.steiner_pruned_leaves),
            ("scratch_allocations", self.scratch_allocations),
            ("realloc_retries", self.realloc_retries),
        ]
    }

    /// The counters in [`fields`](Self::fields) order, to write field-wise.
    pub fn fields_mut(&mut self) -> [&mut u64; 6] {
        [
            &mut self.steiner_runs,
            &mut self.steiner_paths_expanded,
            &mut self.steiner_paths_skipped,
            &mut self.steiner_pruned_leaves,
            &mut self.scratch_allocations,
            &mut self.realloc_retries,
        ]
    }
}

/// Wall-clock time of each pipeline stage of one request, plus the total.
///
/// The stage durations sum to slightly less than `total` (the difference is
/// pipeline bookkeeping: validation, timing itself, and the early-exit
/// branch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Step 1 — initial seed retrieval from the engine.
    pub seed: Duration,
    /// Steps 2+3 — weighted sub-citation graph construction.
    pub subgraph: Duration,
    /// Step 4 — seed reallocation by co-occurrence.
    pub realloc: Duration,
    /// Step 5 — the NEWST Steiner optimisation.
    pub steiner: Duration,
    /// Path assembly and reading-list ranking.
    pub render: Duration,
    /// End-to-end wall-clock time of the request.
    pub total: Duration,
    /// Work counters of the run (Steiner solves, lazy-path bookkeeping,
    /// scratch allocations, realloc retries).
    pub counters: StageCounters,
}

impl StageTimings {
    /// The five per-stage durations, labelled, in pipeline order.
    pub fn stages(&self) -> [(&'static str, Duration); 5] {
        let durations = [
            self.seed,
            self.subgraph,
            self.realloc,
            self.steiner,
            self.render,
        ];
        std::array::from_fn(|i| (STAGES[i].name, durations[i]))
    }

    /// The five per-stage durations in pipeline order, to write
    /// stage-wise.
    pub fn stages_mut(&mut self) -> [&mut Duration; 5] {
        [
            &mut self.seed,
            &mut self.subgraph,
            &mut self.realloc,
            &mut self.steiner,
            &mut self.render,
        ]
    }

    /// Sum of the five stage durations (≤ [`StageTimings::total`]).
    pub fn stage_sum(&self) -> Duration {
        self.seed + self.subgraph + self.realloc + self.steiner + self.render
    }
}

/// Everything a stage may read (and, for the scratch, mutate) while running
/// one request: the shared corpus artifacts, the request, and the
/// variant-applied configuration.
pub struct StageContext<'a> {
    /// The corpus being queried.
    pub corpus: &'a Corpus,
    /// The seed search engine.
    pub scholar: &'a ScholarEngine,
    /// PageRank + venue node weights (Eq. 3).
    pub node_weights: &'a NodeWeights,
    /// The request being served.
    pub request: &'a PathRequest<'a>,
    /// The request's configuration with the variant's ablations applied.
    pub config: RepagerConfig,
    /// Reusable per-worker workspace for the realloc and Steiner stages.
    pub scratch: &'a mut PipelineScratch,
}

/// One step of the pipeline: consumes the previous stage's output, produces
/// its own.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;
    /// The stage's row of [`STAGES`].
    const NAME: StageName;

    /// The stage name as reported in timings and diagnostics.
    fn name(&self) -> &'static str {
        Self::NAME.name
    }

    /// Runs the stage.
    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: Self::Input,
    ) -> Result<Self::Output, GraphError>;
}

/// Step 1: initial seed papers from the engine.
pub struct SeedStage;

impl Stage for SeedStage {
    type Input = ();
    type Output = Vec<PaperId>;
    const NAME: StageName = STAGES[0];

    fn run(&self, cx: &mut StageContext<'_>, _input: ()) -> Result<Vec<PaperId>, GraphError> {
        Ok(cx.scholar.seed_papers(&Query {
            text: cx.request.query,
            top_k: cx.config.seed_count,
            max_year: cx.request.max_year,
            exclude: cx.request.exclude,
        }))
    }
}

/// Output of [`SubgraphStage`].
pub struct SubgraphStageOutput {
    /// The initial seeds (passed through for reallocation).
    pub seeds: Vec<PaperId>,
    /// The weighted sub-citation graph around them.
    pub subgraph: SubGraph,
}

/// Steps 2+3: the weighted sub-citation graph around the seeds.
pub struct SubgraphStage;

impl Stage for SubgraphStage {
    type Input = Vec<PaperId>;
    type Output = SubgraphStageOutput;
    const NAME: StageName = STAGES[1];

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        seeds: Vec<PaperId>,
    ) -> Result<SubgraphStageOutput, GraphError> {
        let subgraph = SubGraph::build(
            cx.corpus,
            cx.node_weights,
            &seeds,
            &cx.config,
            cx.request.max_year,
            cx.request.exclude,
        )?;
        Ok(SubgraphStageOutput { seeds, subgraph })
    }
}

/// Output of [`ReallocStage`].
pub struct ReallocStageOutput {
    /// The sub-citation graph (passed through).
    pub subgraph: SubGraph,
    /// Initial seeds, reallocated seeds and co-occurrence counts.
    pub allocation: SeedAllocation,
    /// The compulsory terminals under the variant's selection policy.
    pub terminals: Vec<PaperId>,
}

/// Step 4: seed reallocation by co-occurrence.
pub struct ReallocStage;

impl Stage for ReallocStage {
    type Input = SubgraphStageOutput;
    type Output = ReallocStageOutput;
    const NAME: StageName = STAGES[2];

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: SubgraphStageOutput,
    ) -> Result<ReallocStageOutput, GraphError> {
        let SubgraphStageOutput { seeds, subgraph } = input;
        let allocation = reallocate_with(cx.corpus, &subgraph, &seeds, &cx.config, cx.scratch);
        let terminals = allocation.terminals(cx.request.variant.terminal_selection(), &cx.config);
        Ok(ReallocStageOutput {
            subgraph,
            allocation,
            terminals,
        })
    }
}

/// Output of [`SteinerStage`].
pub struct SteinerStageOutput {
    /// The sub-citation graph (passed through).
    pub subgraph: SubGraph,
    /// The seed allocation (passed through).
    pub allocation: SeedAllocation,
    /// The terminal set (passed through for NEWST-C ranking).
    pub terminals: Vec<PaperId>,
    /// The Steiner forest (empty for the NEWST-C variant).
    pub forest: NewstForest,
}

/// Step 5: the NEWST Steiner optimisation (skipped by NEWST-C).
pub struct SteinerStage;

impl Stage for SteinerStage {
    type Input = ReallocStageOutput;
    type Output = SteinerStageOutput;
    const NAME: StageName = STAGES[3];

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: ReallocStageOutput,
    ) -> Result<SteinerStageOutput, GraphError> {
        let ReallocStageOutput {
            subgraph,
            allocation,
            terminals,
        } = input;
        let forest = if cx.request.variant.runs_steiner() {
            newst::solve_with(&subgraph, &terminals, cx.scratch)?
        } else {
            NewstForest::default()
        };
        Ok(SteinerStageOutput {
            subgraph,
            allocation,
            terminals,
            forest,
        })
    }
}

/// Final stage: assembles the structured reading path and the flattened
/// ranked reading list.
pub struct RenderStage;

impl Stage for RenderStage {
    type Input = SteinerStageOutput;
    type Output = RepagerOutput;
    const NAME: StageName = STAGES[4];

    fn run(
        &self,
        cx: &mut StageContext<'_>,
        input: SteinerStageOutput,
    ) -> Result<RepagerOutput, GraphError> {
        let SteinerStageOutput {
            subgraph,
            allocation,
            terminals,
            forest,
        } = input;
        let reading_path = if cx.request.variant.runs_steiner() {
            path::assemble(cx.corpus, &forest)
        } else {
            ReadingPath::default()
        };
        let reading_list = ranked_reading_list(cx, &subgraph, &allocation, &terminals, &forest);
        Ok(RepagerOutput {
            reading_list,
            path: reading_path,
            forest,
            seeds: allocation,
            subgraph_nodes: subgraph.node_count(),
            subgraph_edges: subgraph.edge_count(),
            timings: StageTimings::default(),
        })
    }
}

/// Builds the flattened top-K reading list.
///
/// Papers selected by the model (tree papers, or the terminals for NEWST-C)
/// come first, ranked by co-occurrence count and then by node weight
/// (cheaper = more important).  If the model selected fewer than `top_k`
/// papers, the list is padded with the remaining sub-graph candidates under
/// the same ranking, so that precision/F1 can be evaluated at any K as in
/// Fig. 8.
fn ranked_reading_list(
    cx: &StageContext<'_>,
    subgraph: &SubGraph,
    allocation: &SeedAllocation,
    terminals: &[PaperId],
    forest: &NewstForest,
) -> Vec<PaperId> {
    let core: Vec<PaperId> = if cx.request.variant.runs_steiner() {
        forest.papers()
    } else {
        terminals.to_vec()
    };

    let rank_key = |p: PaperId| {
        let cooccurrence = allocation.cooccurrence.get(&p).copied().unwrap_or(0);
        let weight = cx.node_weights.node_weight(p, &cx.config);
        (std::cmp::Reverse(cooccurrence), ordered_float(weight), p)
    };

    let mut list = core;
    list.sort_by_key(|&p| rank_key(p));

    // NEWST-C returns the reallocated papers themselves ("due to the
    // inability of path generation"): it is not padded up to K, which is
    // why it trades recall (F1) for precision in Table III.  The Steiner
    // variants pad with the remaining sub-graph candidates so the list
    // can be evaluated at any K.
    if cx.request.variant.runs_steiner() && list.len() < cx.request.top_k {
        let in_list: std::collections::HashSet<PaperId> = list.iter().copied().collect();
        let mut extension: Vec<PaperId> = subgraph
            .papers()
            .iter()
            .copied()
            .filter(|p| !in_list.contains(p))
            .collect();
        extension.sort_by_key(|&p| rank_key(p));
        list.extend(extension);
    }
    list.truncate(cx.request.top_k);
    list
}

/// Total order wrapper for finite f64 sort keys.
fn ordered_float(x: f64) -> u64 {
    // Finite non-negative weights only; map to sortable bits.
    debug_assert!(x.is_finite() && x >= 0.0);
    x.to_bits()
}

/// Runs one stage, filling its timing slot and — when the scratch has a
/// span recorder armed — recording the stage's span under the caller's
/// compute span. Spans are recorded even when the stage errors, so a
/// failed request's trace still shows where the time went.
fn timed_stage<S: Stage>(
    cx: &mut StageContext<'_>,
    slot: &mut Duration,
    stage: S,
    input: S::Input,
) -> Result<S::Output, GraphError> {
    let started = Instant::now();
    let out = stage.run(cx, input);
    *slot = started.elapsed();
    cx.scratch.record_span(S::NAME.span, started);
    out
}

/// Returns [`RepagerError::DeadlineExceeded`] once the scratch's armed
/// cooperative deadline has passed — called between stages so a request
/// whose budget blew mid-compute sheds its remaining stages instead of
/// finishing work nobody will wait for. Stage boundaries are the natural
/// granularity: the stages themselves stay oblivious, and the heavy steps
/// (sub-graph build, Steiner solve) are each bracketed by a check.
fn deadline_gate(cx: &StageContext<'_>) -> Result<(), RepagerError> {
    if cx.scratch.deadline_expired() {
        return Err(RepagerError::DeadlineExceeded);
    }
    Ok(())
}

/// Drives the five stages for one request, recording per-stage timings.
///
/// Validation of the request's configuration is the caller's responsibility
/// ([`CorpusArtifacts::generate`](crate::artifacts::CorpusArtifacts::generate)
/// validates before building the [`StageContext`], so the context carries an
/// applied, valid configuration).
pub fn run_pipeline(cx: &mut StageContext<'_>) -> Result<RepagerOutput, RepagerError> {
    let started = Instant::now();
    let mut timings = StageTimings::default();
    let counters_before = cx.scratch.counters();

    let seeds = timed_stage(cx, &mut timings.seed, SeedStage, ())?;
    if seeds.is_empty() {
        // No seeds: every downstream stage would be a no-op, so short-circuit
        // with an empty output (stage timings for the skipped stages stay 0).
        timings.total = started.elapsed();
        return Ok(RepagerOutput {
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
            timings,
        });
    }

    deadline_gate(cx)?;
    let subgraph = timed_stage(cx, &mut timings.subgraph, SubgraphStage, seeds)?;
    deadline_gate(cx)?;
    let realloc = timed_stage(cx, &mut timings.realloc, ReallocStage, subgraph)?;
    deadline_gate(cx)?;
    let steiner = timed_stage(cx, &mut timings.steiner, SteinerStage, realloc)?;
    deadline_gate(cx)?;
    let mut output = timed_stage(cx, &mut timings.render, RenderStage, steiner)?;

    timings.counters = cx.scratch.counters().since(&counters_before);
    timings.total = started.elapsed();
    output.timings = timings;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_follow_pipeline_order() {
        assert_eq!(SeedStage.name(), "seed");
        assert_eq!(SubgraphStage.name(), "subgraph");
        assert_eq!(ReallocStage.name(), "realloc");
        assert_eq!(SteinerStage.name(), "steiner");
        assert_eq!(RenderStage.name(), "render");
        let timings = StageTimings::default();
        let labels: Vec<&str> = timings.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(labels, ["seed", "subgraph", "realloc", "steiner", "render"]);
        for row in STAGES {
            assert_eq!(row.span, format!("stage:{}", row.name));
        }
    }

    #[test]
    fn stage_sum_adds_all_five_stages() {
        let timings = StageTimings {
            seed: Duration::from_millis(1),
            subgraph: Duration::from_millis(2),
            realloc: Duration::from_millis(3),
            steiner: Duration::from_millis(4),
            render: Duration::from_millis(5),
            total: Duration::from_millis(16),
            counters: StageCounters::default(),
        };
        assert_eq!(timings.stage_sum(), Duration::from_millis(15));
        assert!(timings.stage_sum() <= timings.total);
    }

    #[test]
    fn counter_snapshots_diff_and_sum_field_wise() {
        let a = StageCounters {
            steiner_runs: 3,
            steiner_paths_expanded: 6,
            steiner_paths_skipped: 9,
            steiner_pruned_leaves: 12,
            scratch_allocations: 15,
            realloc_retries: 1,
        };
        let b = StageCounters {
            steiner_runs: 5,
            steiner_paths_expanded: 10,
            steiner_paths_skipped: 15,
            steiner_pruned_leaves: 20,
            scratch_allocations: 15,
            realloc_retries: 2,
        };
        let delta = b.since(&a);
        assert_eq!(delta.steiner_runs, 2);
        assert_eq!(delta.scratch_allocations, 0);
        assert_eq!(delta.realloc_retries, 1);
        let mut sum = a;
        sum.add(&delta);
        assert_eq!(sum, b);
        let labels: Vec<&str> = b.fields().iter().map(|(n, _)| *n).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.contains(&"steiner_runs"));
        assert!(labels.contains(&"scratch_allocations"));
    }
}
