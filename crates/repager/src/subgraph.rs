//! Sub-citation graph construction (Step 3 of the RePaGer pipeline).
//!
//! The whole citation graph is far too large to run a Steiner optimisation
//! over, and — per Observation II — almost everything relevant to a query
//! lives within two citation hops of the engine's top-K results.  This module
//! therefore builds the *sub-citation graph*: the weighted, undirected graph
//! induced by the 1st/2nd-order reference neighbourhood of the seed papers,
//! with Eq. (2) edge costs and Eq. (3) node weights.

use crate::config::RepagerConfig;
use crate::weights::{edge_cost, NodeWeights};
use rpg_corpus::{Corpus, PaperId};
use rpg_graph::traversal::{expand, Direction};
use rpg_graph::{GraphError, NodeId, WeightedGraph};
use std::collections::HashMap;

/// The weighted sub-citation graph around a set of seed papers, with the
/// mapping between corpus paper ids and the dense local node ids used by the
/// graph algorithms.
#[derive(Debug)]
pub struct SubGraph {
    /// The weighted undirected graph the Steiner machinery runs on.
    pub weighted: WeightedGraph,
    /// `papers[local]` is the corpus paper of local node `local`.
    papers: Vec<PaperId>,
    /// Reverse mapping from corpus paper to local node.
    local_of: HashMap<PaperId, NodeId>,
    /// Hop distance of each local node from the seed set (0 for seeds).
    hops: Vec<u8>,
}

impl SubGraph {
    /// Builds the sub-graph induced by the `expansion_hops`-order reference
    /// neighbourhood of `seeds`, restricted to papers published no later than
    /// `max_year` (when given) and excluding `exclude` (typically the survey
    /// the query came from).
    pub fn build(
        corpus: &Corpus,
        node_weights: &NodeWeights,
        seeds: &[PaperId],
        config: &RepagerConfig,
        max_year: Option<u16>,
        exclude: &[PaperId],
    ) -> Result<Self, GraphError> {
        let seed_nodes: Vec<NodeId> = seeds.iter().map(|p| p.node()).collect();
        let expansion = expand(
            corpus.graph(),
            &seed_nodes,
            config.expansion_hops,
            Direction::References,
        )?;

        let admitted = |paper: PaperId| -> bool {
            if exclude.contains(&paper) {
                return false;
            }
            match max_year {
                Some(cutoff) => corpus.year(paper) <= cutoff,
                None => true,
            }
        };

        let mut papers: Vec<PaperId> = Vec::with_capacity(expansion.len());
        let mut hops: Vec<u8> = Vec::with_capacity(expansion.len());
        for (node, hop) in expansion.nodes.iter().zip(&expansion.distances) {
            let paper = PaperId::from_node(*node);
            if admitted(paper) {
                papers.push(paper);
                hops.push(*hop);
            }
        }

        let local_of: HashMap<PaperId, NodeId> = papers
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, NodeId::from_index(i)))
            .collect();

        let weights: Vec<f64> = papers
            .iter()
            .map(|&p| node_weights.node_weight(p, config))
            .collect();
        let mut weighted = WeightedGraph::new(weights)?;

        // Every citation edge between two admitted papers becomes an
        // undirected weighted edge.
        for (i, &paper) in papers.iter().enumerate() {
            let local_a = NodeId::from_index(i);
            for reference in corpus.references_of(paper) {
                if let Some(&local_b) = local_of.get(&reference.cited) {
                    weighted.add_edge(
                        local_a,
                        local_b,
                        edge_cost(reference.occurrences, config),
                    )?;
                }
            }
        }

        Ok(SubGraph {
            weighted,
            papers,
            local_of,
            hops,
        })
    }

    /// Number of papers (nodes) in the sub-graph.
    pub fn node_count(&self) -> usize {
        self.papers.len()
    }

    /// Number of undirected edges in the sub-graph.
    pub fn edge_count(&self) -> usize {
        self.weighted.edge_count()
    }

    /// The corpus paper of a local node.
    pub fn paper_of(&self, local: NodeId) -> PaperId {
        self.papers[local.index()]
    }

    /// The local node of a corpus paper, if the paper is in the sub-graph.
    pub fn local_of(&self, paper: PaperId) -> Option<NodeId> {
        self.local_of.get(&paper).copied()
    }

    /// All papers in the sub-graph, in local-node order.
    pub fn papers(&self) -> &[PaperId] {
        &self.papers
    }

    /// The hop distance of a paper from the seed set, if present.
    pub fn hop_of(&self, paper: PaperId) -> Option<u8> {
        self.local_of(paper).map(|l| self.hops[l.index()])
    }

    /// Papers at exactly the given hop distance.
    pub fn papers_at_hop(&self, hop: u8) -> Vec<PaperId> {
        self.papers
            .iter()
            .zip(&self.hops)
            .filter_map(|(&p, &h)| (h == hop).then_some(p))
            .collect()
    }

    /// Translates a set of corpus papers into local nodes, silently dropping
    /// papers that are not part of the sub-graph.
    pub fn to_local(&self, papers: &[PaperId]) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(papers.len());
        self.to_local_into(papers, &mut out);
        out
    }

    /// [`SubGraph::to_local`] appending into a caller-provided buffer, so
    /// per-request translation on the hot path can reuse a scratch-owned
    /// vector instead of allocating (the buffer is cleared first).
    pub fn to_local_into(&self, papers: &[PaperId], out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(papers.iter().filter_map(|&p| self.local_of(p)));
    }

    /// Translates local nodes back into corpus papers.
    pub fn to_papers(&self, locals: &[NodeId]) -> Vec<PaperId> {
        locals.iter().map(|&l| self.paper_of(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, Corpus, CorpusConfig};
    use rpg_graph::pagerank::pagerank_default;

    fn setup() -> (Corpus, NodeWeights) {
        let corpus = generate(&CorpusConfig {
            seed: 61,
            ..CorpusConfig::small()
        });
        let pr = pagerank_default(corpus.graph()).unwrap();
        let nw = NodeWeights::build(&corpus, &pr);
        (corpus, nw)
    }

    fn any_seeds(corpus: &Corpus, count: usize) -> Vec<PaperId> {
        // Use the most-cited research papers of one topic as stand-in seeds.
        let topic = corpus.survey_bank().iter().next().unwrap();
        let topic_id = corpus.paper(topic.paper).unwrap().topic;
        let mut candidates: Vec<PaperId> = corpus
            .research_papers()
            .iter()
            .filter(|p| p.topic == topic_id)
            .map(|p| p.id)
            .collect();
        candidates.sort_by_key(|&p| std::cmp::Reverse(corpus.citation_count(p)));
        candidates.truncate(count);
        candidates
    }

    #[test]
    fn subgraph_contains_all_seeds_at_hop_zero() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        for &s in &seeds {
            assert_eq!(sg.hop_of(s), Some(0));
        }
        assert_eq!(sg.papers_at_hop(0).len(), seeds.len());
    }

    #[test]
    fn expansion_adds_neighbours() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        assert!(sg.node_count() > seeds.len());
        assert!(sg.edge_count() > 0);
        assert!(!sg.papers_at_hop(1).is_empty());
    }

    #[test]
    fn deeper_expansion_is_larger() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let one_hop = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig {
                expansion_hops: 1,
                ..Default::default()
            },
            None,
            &[],
        )
        .unwrap();
        let two_hops = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig {
                expansion_hops: 2,
                ..Default::default()
            },
            None,
            &[],
        )
        .unwrap();
        assert!(two_hops.node_count() >= one_hop.node_count());
    }

    #[test]
    fn year_cutoff_and_exclusions_apply() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let excluded = seeds[0];
        let sg = SubGraph::build(
            &corpus,
            &nw,
            &seeds,
            &RepagerConfig::default(),
            Some(2015),
            &[excluded],
        )
        .unwrap();
        assert!(sg.local_of(excluded).is_none());
        for &p in sg.papers() {
            assert!(corpus.year(p) <= 2015);
        }
    }

    #[test]
    fn mapping_round_trips() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 8);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        for &p in sg.papers().iter().take(50) {
            let local = sg.local_of(p).unwrap();
            assert_eq!(sg.paper_of(local), p);
        }
        let locals = sg.to_local(&seeds);
        assert_eq!(sg.to_papers(&locals), seeds);
    }

    #[test]
    fn edge_costs_reflect_occurrences() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 10);
        let config = RepagerConfig::default();
        let sg = SubGraph::build(&corpus, &nw, &seeds, &config, None, &[]).unwrap();
        // Every edge's cost must equal Eq. (2) applied to the corpus
        // connection strength of its endpoints.
        let mut checked = 0;
        for (a, b, cost) in sg.weighted.edges().take(200) {
            let pa = sg.paper_of(a);
            let pb = sg.paper_of(b);
            let expected = edge_cost(corpus.connection_strength(pa, pb), &config);
            assert!((cost - expected).abs() < 1e-12);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn unknown_paper_maps_to_none() {
        let (corpus, nw) = setup();
        let seeds = any_seeds(&corpus, 5);
        let sg =
            SubGraph::build(&corpus, &nw, &seeds, &RepagerConfig::default(), None, &[]).unwrap();
        assert!(sg.local_of(PaperId(u32::MAX)).is_none());
        assert!(sg.hop_of(PaperId(u32::MAX)).is_none());
    }
}
