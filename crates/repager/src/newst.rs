//! The NEWST model: node-edge weighted Steiner trees over the sub-citation
//! graph (Step 5, Section IV-B).
//!
//! NEWST connects the compulsory terminals (reallocated seed papers) with a
//! tree of minimum total cost, where edges are cheap when the two papers
//! discuss each other extensively (Eq. 2) and vertices are cheap when the
//! paper is important (Eq. 3).  The optimisation itself is the KMB heuristic
//! of `rpg_graph::steiner`; this module adapts it to the paper domain:
//! terminals are given as corpus paper ids, and terminals that fall into
//! different connected components of the sub-graph are handled by building
//! one tree per component (the final reading path is then a forest, which the
//! paper permits: "for the case of multiple citation paths … we will assign
//! all paths").

use crate::scratch::PipelineScratch;
use crate::subgraph::SubGraph;
use rpg_corpus::PaperId;
use rpg_graph::components::weighted_components;
use rpg_graph::steiner::steiner_tree_with;
use rpg_graph::GraphError;
use serde::{Deserialize, Serialize};

/// A Steiner tree expressed in corpus paper ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperTree {
    /// All papers of the tree (terminals plus Steiner papers).
    pub papers: Vec<PaperId>,
    /// Undirected tree edges between papers.
    pub edges: Vec<(PaperId, PaperId)>,
    /// NEWST objective value of the tree (Eq. 1).
    pub cost: f64,
}

impl PaperTree {
    /// Number of papers in the tree.
    pub fn len(&self) -> usize {
        self.papers.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }

    /// Whether the tree contains a paper.
    pub fn contains(&self, paper: PaperId) -> bool {
        self.papers.contains(&paper)
    }
}

/// The result of running NEWST: one tree per connected component that
/// contains at least one terminal.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NewstForest {
    /// The component trees, largest first.
    pub trees: Vec<PaperTree>,
    /// Terminals that could not be used because they are not in the
    /// sub-graph at all.
    pub dropped_terminals: Vec<PaperId>,
}

impl NewstForest {
    /// All papers across all trees, deduplicated, in tree order.
    pub fn papers(&self) -> Vec<PaperId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for tree in &self.trees {
            for &p in &tree.papers {
                if seen.insert(p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// All edges across all trees.
    pub fn edges(&self) -> Vec<(PaperId, PaperId)> {
        self.trees
            .iter()
            .flat_map(|t| t.edges.iter().copied())
            .collect()
    }

    /// Total cost over all trees.
    pub fn total_cost(&self) -> f64 {
        self.trees.iter().map(|t| t.cost).sum()
    }

    /// Total number of papers across all trees.
    pub fn len(&self) -> usize {
        self.trees.iter().map(PaperTree::len).sum()
    }

    /// Whether the forest has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// Runs NEWST over the sub-graph for the given terminal papers.
///
/// Terminals missing from the sub-graph are reported in
/// [`NewstForest::dropped_terminals`]; terminals in different components each
/// get their own tree.  An empty usable-terminal set yields an empty forest.
/// The per-component KMB runs (and the caller's repeated requests) reuse the
/// scratch's one Steiner workspace: the Dijkstra buffers, the closure path
/// store and the pruning pass's stamped vectors.
pub fn solve_with(
    subgraph: &SubGraph,
    terminals: &[PaperId],
    scratch: &mut PipelineScratch,
) -> Result<NewstForest, GraphError> {
    let mut dropped = Vec::new();
    let mut local_terminals = std::mem::take(&mut scratch.local_terminals);
    local_terminals.clear();
    for &t in terminals {
        match subgraph.local_of(t) {
            Some(local) => local_terminals.push(local),
            None => dropped.push(t),
        }
    }
    if local_terminals.is_empty() {
        scratch.local_terminals = local_terminals;
        return Ok(NewstForest {
            trees: Vec::new(),
            dropped_terminals: dropped,
        });
    }

    // Group terminals by connected component of the weighted sub-graph.
    let components = weighted_components(&subgraph.weighted);
    let mut per_component: std::collections::HashMap<u32, Vec<rpg_graph::NodeId>> =
        std::collections::HashMap::new();
    for &local in &local_terminals {
        per_component
            .entry(components.label(local))
            .or_default()
            .push(local);
    }
    scratch.local_terminals = local_terminals;

    let mut trees = Vec::with_capacity(per_component.len());
    let mut groups: Vec<_> = per_component.into_iter().collect();
    // Deterministic order: largest terminal group first, then by label.
    groups.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    for (_, group) in groups {
        let tree = steiner_tree_with(&subgraph.weighted, &group, scratch.steiner_mut())?;
        trees.push(PaperTree {
            papers: subgraph.to_papers(&tree.nodes),
            edges: tree
                .edges
                .iter()
                .map(|&(a, b)| (subgraph.paper_of(a), subgraph.paper_of(b)))
                .collect(),
            cost: tree.total_cost,
        });
    }

    Ok(NewstForest {
        trees,
        dropped_terminals: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepagerConfig;
    use crate::seeds::{reallocate_with, TerminalSelection};
    use crate::weights::NodeWeights;
    use rpg_corpus::{generate, Corpus, CorpusConfig};
    use rpg_engines::{EngineIndex, Query, ScholarEngine};
    use rpg_graph::pagerank::pagerank_default;

    struct Fixture {
        corpus: Corpus,
        node_weights: NodeWeights,
        scholar: ScholarEngine,
    }

    fn fixture() -> Fixture {
        let corpus = generate(&CorpusConfig {
            seed: 81,
            ..CorpusConfig::small()
        });
        let pr = pagerank_default(corpus.graph()).unwrap();
        let node_weights = NodeWeights::build(&corpus, &pr);
        let scholar = ScholarEngine::from_index(EngineIndex::build(&corpus));
        Fixture {
            corpus,
            node_weights,
            scholar,
        }
    }

    fn forest_for_first_survey(f: &Fixture) -> (NewstForest, Vec<PaperId>, SubGraph) {
        let config = RepagerConfig::default();
        let survey = f.corpus.survey_bank().iter().next().unwrap();
        let seeds = f.scholar.seed_papers(&Query {
            text: &survey.query,
            top_k: config.seed_count,
            max_year: Some(survey.year),
            exclude: &[survey.paper],
        });
        let sg = SubGraph::build(
            &f.corpus,
            &f.node_weights,
            &seeds,
            &config,
            Some(survey.year),
            &[survey.paper],
        )
        .unwrap();
        let mut scratch = PipelineScratch::new();
        let alloc = reallocate_with(&f.corpus, &sg, &seeds, &config, &mut scratch);
        let terminals = alloc.terminals(TerminalSelection::Reallocated, &config);
        let forest = solve_with(&sg, &terminals, &mut scratch).unwrap();
        (forest, terminals, sg)
    }

    use crate::subgraph::SubGraph;

    #[test]
    fn forest_covers_all_usable_terminals() {
        let f = fixture();
        let (forest, terminals, sg) = forest_for_first_survey(&f);
        assert!(!forest.is_empty());
        let covered: std::collections::HashSet<PaperId> = forest.papers().into_iter().collect();
        for t in &terminals {
            if sg.local_of(*t).is_some() {
                assert!(covered.contains(t), "terminal {t} not covered");
            }
        }
        assert!(forest
            .dropped_terminals
            .iter()
            .all(|t| sg.local_of(*t).is_none()));
    }

    #[test]
    fn trees_are_structurally_valid() {
        let f = fixture();
        let (forest, _terminals, sg) = forest_for_first_survey(&f);
        for tree in &forest.trees {
            // |E| = |V| - 1 per tree.
            assert_eq!(tree.edges.len() + 1, tree.papers.len());
            // Every edge connects papers of the sub-graph that are adjacent in
            // the weighted graph.
            for &(a, b) in &tree.edges {
                let la = sg.local_of(a).unwrap();
                let lb = sg.local_of(b).unwrap();
                assert!(sg.weighted.edge_cost(la, lb).is_some());
            }
            assert!(tree.cost.is_finite() && tree.cost >= 0.0);
        }
        assert!(forest.total_cost() >= 0.0);
        assert_eq!(
            forest.len(),
            forest.trees.iter().map(|t| t.papers.len()).sum::<usize>()
        );
    }

    #[test]
    fn forest_includes_steiner_papers_beyond_terminals() {
        let f = fixture();
        let (forest, terminals, _sg) = forest_for_first_survey(&f);
        let terminal_set: std::collections::HashSet<_> = terminals.iter().copied().collect();
        let steiner_papers = forest
            .papers()
            .into_iter()
            .filter(|p| !terminal_set.contains(p))
            .count();
        // Connecting co-cited papers almost always requires intermediate
        // papers; allow zero but record the typical case.
        assert!(steiner_papers < forest.len());
    }

    #[test]
    fn unknown_terminals_are_dropped_not_fatal() {
        let f = fixture();
        let (_, _, sg) = forest_for_first_survey(&f);
        let forest = solve_with(&sg, &[PaperId(u32::MAX)], &mut PipelineScratch::new()).unwrap();
        assert!(forest.is_empty());
        assert_eq!(forest.dropped_terminals, vec![PaperId(u32::MAX)]);
    }

    #[test]
    fn empty_terminal_set_yields_empty_forest() {
        let f = fixture();
        let (_, _, sg) = forest_for_first_survey(&f);
        let forest = solve_with(&sg, &[], &mut PipelineScratch::new()).unwrap();
        assert!(forest.is_empty());
        assert_eq!(forest.papers().len(), 0);
        assert_eq!(forest.total_cost(), 0.0);
    }

    #[test]
    fn single_terminal_produces_single_node_tree() {
        let f = fixture();
        let (_, terminals, sg) = forest_for_first_survey(&f);
        let forest = solve_with(&sg, &terminals[..1], &mut PipelineScratch::new()).unwrap();
        assert_eq!(forest.trees.len(), 1);
        assert_eq!(forest.trees[0].papers, vec![terminals[0]]);
        assert!(forest.trees[0].edges.is_empty());
    }
}
