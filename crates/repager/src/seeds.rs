//! Initial seed papers and seed reallocation (Steps 1 and 4).
//!
//! The engine's top-K results are directly relevant to the query but miss
//! the query's prerequisite chain (Observation I).  Papers that are *cited by
//! many of the initial seeds*, however, are very likely prerequisites — every
//! paper introduces its prerequisites in its related-work section
//! (Observation II / Understanding II).  Seed reallocation therefore replaces
//! the initial seeds with high co-occurrence papers, which become the
//! compulsory terminals of the Steiner optimisation.

use crate::config::RepagerConfig;
use crate::scratch::PipelineScratch;
use crate::subgraph::SubGraph;
use rpg_corpus::{Corpus, PaperId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How the terminal set for NEWST is chosen from initial and reallocated
/// seeds; this is the knob the Table III (left) ablation turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminalSelection {
    /// Reallocated (high co-occurrence) papers only — the full NEWST model.
    Reallocated,
    /// The initial engine seeds only — NEWST-W.
    InitialSeeds,
    /// The union of initial seeds and reallocated papers — NEWST-U.
    Union,
    /// The intersection of initial seeds and reallocated papers — NEWST-I.
    Intersection,
}

/// The outcome of seed reallocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedAllocation {
    /// The initial seed papers returned by the engine (Step 1).
    pub initial: Vec<PaperId>,
    /// Papers selected by co-occurrence (Step 4), sorted by decreasing
    /// co-occurrence count.
    pub reallocated: Vec<PaperId>,
    /// Co-occurrence count of every candidate that reached the threshold.
    pub cooccurrence: HashMap<PaperId, usize>,
}

impl SeedAllocation {
    /// The terminal set under a given selection policy.  The result is
    /// deduplicated and capped at `config.max_terminals` (keeping the
    /// highest-co-occurrence / earliest-ranked papers).
    pub fn terminals(&self, selection: TerminalSelection, config: &RepagerConfig) -> Vec<PaperId> {
        let mut terminals: Vec<PaperId> = match selection {
            TerminalSelection::Reallocated => self.reallocated.clone(),
            TerminalSelection::InitialSeeds => self.initial.clone(),
            TerminalSelection::Union => {
                let mut union = self.reallocated.clone();
                union.extend(self.initial.iter().copied());
                union
            }
            TerminalSelection::Intersection => self
                .reallocated
                .iter()
                .copied()
                .filter(|p| self.initial.contains(p))
                .collect(),
        };
        let mut seen = std::collections::HashSet::new();
        terminals.retain(|p| seen.insert(*p));
        terminals.truncate(config.max_terminals);
        terminals
    }
}

/// Computes the co-occurrence count of every paper in the sub-graph: the
/// number of *initial seeds* whose reference list contains it.
///
/// Counts go into the scratch's generation-stamped dense counters (indexed
/// by sub-graph local node id) instead of growing a `HashMap` entry by
/// entry; only the final result — which the caller keeps in the
/// [`SeedAllocation`] — is materialised as a map, sized exactly.
pub fn cooccurrence_counts_with(
    corpus: &Corpus,
    subgraph: &SubGraph,
    initial_seeds: &[PaperId],
    scratch: &mut PipelineScratch,
) -> HashMap<PaperId, usize> {
    scratch.begin_cooc(subgraph.node_count());
    let gen = scratch.cooc_gen;
    for &seed in initial_seeds {
        for reference in corpus.references_of(seed) {
            if let Some(local) = subgraph.local_of(reference.cited) {
                let i = local.index();
                if scratch.cooc_stamp[i] != gen {
                    scratch.cooc_stamp[i] = gen;
                    scratch.cooc_count[i] = 0;
                    scratch.touched.push(local);
                }
                scratch.cooc_count[i] += 1;
            }
        }
    }
    let mut counts: HashMap<PaperId, usize> = HashMap::with_capacity(scratch.touched.len());
    for &local in &scratch.touched {
        counts.insert(
            subgraph.paper_of(local),
            scratch.cooc_count[local.index()] as usize,
        );
    }
    counts
}

/// Runs seed reallocation: selects the papers cited by at least
/// `config.cooccurrence_threshold` initial seeds, ordered by descending
/// co-occurrence (ties broken by ascending paper id).
///
/// If fewer than two papers reach the threshold, the threshold is relaxed to
/// 1 so the Steiner stage always has a non-trivial terminal set to work with
/// (a behaviour needed for sparse queries; the initial seeds themselves are
/// the final fallback).
///
/// Co-occurrence counting reuses the scratch's dense stamped counters (see
/// [`cooccurrence_counts_with`]), and every threshold relaxation or seed
/// fallback taken is recorded in the scratch's retry counter (surfaced as
/// `realloc_retries` in [`crate::stages::StageCounters`]).
pub fn reallocate_with(
    corpus: &Corpus,
    subgraph: &SubGraph,
    initial_seeds: &[PaperId],
    config: &RepagerConfig,
    scratch: &mut PipelineScratch,
) -> SeedAllocation {
    let counts = cooccurrence_counts_with(corpus, subgraph, initial_seeds, scratch);

    let select = |threshold: usize| -> Vec<PaperId> {
        let mut selected: Vec<(PaperId, usize)> = counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(&p, &c)| (p, c))
            .collect();
        selected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        selected.into_iter().map(|(p, _)| p).collect()
    };

    let mut reallocated = select(config.cooccurrence_threshold);
    if reallocated.len() < 2 && config.cooccurrence_threshold > 1 {
        scratch.realloc_retries += 1;
        reallocated = select(1);
    }
    if reallocated.is_empty() {
        // Degenerate sub-graph (e.g. seeds with no references inside it):
        // fall back to the initial seeds that made it into the sub-graph.
        scratch.realloc_retries += 1;
        reallocated = initial_seeds
            .iter()
            .copied()
            .filter(|&p| subgraph.local_of(p).is_some())
            .collect();
    }
    reallocated.truncate(config.max_terminals);

    SeedAllocation {
        initial: initial_seeds.to_vec(),
        reallocated,
        cooccurrence: counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::NodeWeights;
    use rpg_corpus::{generate, Corpus, CorpusConfig};
    use rpg_engines::{EngineIndex, Query, ScholarEngine};
    use rpg_graph::pagerank::pagerank_default;

    fn setup() -> (Corpus, NodeWeights, ScholarEngine) {
        let corpus = generate(&CorpusConfig {
            seed: 71,
            ..CorpusConfig::small()
        });
        let pr = pagerank_default(corpus.graph()).unwrap();
        let nw = NodeWeights::build(&corpus, &pr);
        let scholar = ScholarEngine::from_index(EngineIndex::build(&corpus));
        (corpus, nw, scholar)
    }

    fn allocation(
        corpus: &Corpus,
        nw: &NodeWeights,
        scholar: &ScholarEngine,
    ) -> (SeedAllocation, SubGraph) {
        let config = RepagerConfig::default();
        let survey = corpus.survey_bank().iter().next().unwrap();
        let seeds = scholar.seed_papers(&Query {
            text: &survey.query,
            top_k: config.seed_count,
            max_year: Some(survey.year),
            exclude: &[survey.paper],
        });
        let sg = SubGraph::build(
            corpus,
            nw,
            &seeds,
            &config,
            Some(survey.year),
            &[survey.paper],
        )
        .unwrap();
        let alloc = reallocate_with(corpus, &sg, &seeds, &config, &mut PipelineScratch::new());
        (alloc, sg)
    }

    #[test]
    fn reallocated_seeds_meet_the_cooccurrence_threshold() {
        let (corpus, nw, scholar) = setup();
        let (alloc, _sg) = allocation(&corpus, &nw, &scholar);
        assert!(!alloc.reallocated.is_empty());
        // Unless the relaxed fallback fired, every reallocated paper must be
        // cited by at least two initial seeds.
        let threshold_met = alloc
            .reallocated
            .iter()
            .filter(|p| alloc.cooccurrence.get(p).copied().unwrap_or(0) >= 2)
            .count();
        assert!(
            threshold_met * 2 >= alloc.reallocated.len(),
            "most reallocated seeds should be co-cited at least twice"
        );
    }

    #[test]
    fn reallocated_seeds_are_sorted_by_cooccurrence() {
        let (corpus, nw, scholar) = setup();
        let (alloc, _sg) = allocation(&corpus, &nw, &scholar);
        let counts: Vec<usize> = alloc
            .reallocated
            .iter()
            .map(|p| alloc.cooccurrence.get(p).copied().unwrap_or(0))
            .collect();
        for pair in counts.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn cooccurrence_counts_match_manual_recount() {
        let (corpus, nw, scholar) = setup();
        let (alloc, sg) = allocation(&corpus, &nw, &scholar);
        for (&paper, &count) in alloc.cooccurrence.iter().take(20) {
            let manual = alloc
                .initial
                .iter()
                .filter(|&&s| corpus.references_of(s).iter().any(|r| r.cited == paper))
                .count();
            assert_eq!(manual, count);
            assert!(sg.local_of(paper).is_some());
        }
    }

    #[test]
    fn terminal_selection_policies_relate_as_sets() {
        let (corpus, nw, scholar) = setup();
        let (alloc, _sg) = allocation(&corpus, &nw, &scholar);
        let config = RepagerConfig {
            max_terminals: 10_000,
            ..Default::default()
        };
        let realloc = alloc.terminals(TerminalSelection::Reallocated, &config);
        let initial = alloc.terminals(TerminalSelection::InitialSeeds, &config);
        let union = alloc.terminals(TerminalSelection::Union, &config);
        let intersection = alloc.terminals(TerminalSelection::Intersection, &config);
        for p in &intersection {
            assert!(realloc.contains(p) && initial.contains(p));
        }
        for p in realloc.iter().chain(initial.iter()) {
            assert!(union.contains(p));
        }
        assert!(union.len() <= realloc.len() + initial.len());
        assert!(intersection.len() <= realloc.len().min(initial.len()));
    }

    #[test]
    fn max_terminals_caps_the_terminal_set() {
        let (corpus, nw, scholar) = setup();
        let (alloc, _sg) = allocation(&corpus, &nw, &scholar);
        let config = RepagerConfig {
            max_terminals: 5,
            ..Default::default()
        };
        assert!(alloc.terminals(TerminalSelection::Union, &config).len() <= 5);
    }

    #[test]
    fn prerequisite_topic_papers_appear_among_reallocated_seeds() {
        // The whole point of reallocation: papers outside the query's own
        // topic (prerequisites) should be selectable as terminals.
        let (corpus, nw, scholar) = setup();
        let config = RepagerConfig::default();
        let mut scratch = PipelineScratch::new();
        let mut found_cross_topic = false;
        for survey in corpus.survey_bank().iter().take(10) {
            let seeds = scholar.seed_papers(&Query {
                text: &survey.query,
                top_k: config.seed_count,
                max_year: Some(survey.year),
                exclude: &[survey.paper],
            });
            if seeds.is_empty() {
                continue;
            }
            let sg = SubGraph::build(
                &corpus,
                &nw,
                &seeds,
                &config,
                Some(survey.year),
                &[survey.paper],
            )
            .unwrap();
            let alloc = reallocate_with(&corpus, &sg, &seeds, &config, &mut scratch);
            let survey_topic = corpus.paper(survey.paper).unwrap().topic;
            if alloc.reallocated.iter().any(|&p| {
                corpus
                    .paper(p)
                    .map(|x| x.topic != survey_topic)
                    .unwrap_or(false)
            }) {
                found_cross_topic = true;
                break;
            }
        }
        assert!(
            found_cross_topic,
            "reallocation never surfaced a prerequisite-topic paper"
        );
    }

    #[test]
    fn empty_initial_seeds_yield_empty_allocation() {
        let (corpus, nw, _scholar) = setup();
        let config = RepagerConfig::default();
        let sg = SubGraph::build(&corpus, &nw, &[], &config, None, &[]).unwrap();
        let alloc = reallocate_with(&corpus, &sg, &[], &config, &mut PipelineScratch::new());
        assert!(alloc.initial.is_empty());
        assert!(alloc.reallocated.is_empty());
        assert!(alloc
            .terminals(TerminalSelection::Union, &config)
            .is_empty());
    }
}
