//! Breadth-first traversal and k-hop neighbourhood expansion.
//!
//! The RePaGer pipeline expands the initial seed papers to their 1st- and
//! 2nd-order neighbours (Step 3 of the system, motivated by Observation II:
//! most missing survey references are reachable within two citation hops of
//! the engine's top-K results).  The functions here implement that expansion
//! over the directed citation graph, in three directions:
//!
//! * [`Direction::References`] — follow outgoing edges only (papers cited by
//!   the frontier); this is the direction the paper uses, because
//!   prerequisites are *cited by* topically relevant papers.
//! * [`Direction::CitedBy`] — follow incoming edges only.
//! * [`Direction::Both`] — treat the graph as undirected.

use crate::{CitationGraph, GraphError, NodeId};
use std::collections::VecDeque;

/// Which citation direction a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow `paper -> cited paper` edges (a paper's reference list).
    References,
    /// Follow `paper <- citing paper` edges (who cites this paper).
    CitedBy,
    /// Follow edges in both directions (undirected view).
    Both,
}

/// Result of a k-hop expansion: every reached node together with its hop
/// distance from the closest seed (seeds themselves have distance 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expansion {
    /// Reached nodes in breadth-first order (seeds first).
    pub nodes: Vec<NodeId>,
    /// `distance[i]` is the hop distance of `nodes[i]` from the seed set.
    pub distances: Vec<u8>,
}

impl Expansion {
    /// Nodes at exactly `hop` hops from the seed set.
    pub fn at_hop(&self, hop: u8) -> Vec<NodeId> {
        self.nodes
            .iter()
            .zip(&self.distances)
            .filter_map(|(&n, &d)| (d == hop).then_some(n))
            .collect()
    }

    /// Nodes within `max_hop` hops (inclusive) of the seed set.
    pub fn within(&self, max_hop: u8) -> Vec<NodeId> {
        self.nodes
            .iter()
            .zip(&self.distances)
            .filter_map(|(&n, &d)| (d <= max_hop).then_some(n))
            .collect()
    }

    /// Number of reached nodes (including seeds).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the expansion reached no nodes (only possible with no seeds).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

fn push_neighbors(
    graph: &CitationGraph,
    node: NodeId,
    direction: Direction,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    match direction {
        Direction::References => out.extend_from_slice(graph.references(node)),
        Direction::CitedBy => out.extend_from_slice(graph.cited_by(node)),
        Direction::Both => {
            out.extend_from_slice(graph.references(node));
            out.extend_from_slice(graph.cited_by(node));
        }
    }
}

/// Expands `seeds` up to `max_hops` hops in the given `direction`.
///
/// Nodes are visited at their minimal hop distance; duplicates in `seeds` are
/// collapsed.  Returns an error if any seed is out of bounds.
pub fn expand(
    graph: &CitationGraph,
    seeds: &[NodeId],
    max_hops: u8,
    direction: Direction,
) -> Result<Expansion, GraphError> {
    for &s in seeds {
        graph.check_node(s)?;
    }
    let mut visited = vec![false; graph.node_count()];
    let mut nodes = Vec::with_capacity(seeds.len());
    let mut distances = Vec::with_capacity(seeds.len());
    let mut queue: VecDeque<(NodeId, u8)> = VecDeque::new();

    for &s in seeds {
        if !visited[s.index()] {
            visited[s.index()] = true;
            nodes.push(s);
            distances.push(0);
            queue.push_back((s, 0));
        }
    }

    let mut scratch = Vec::new();
    while let Some((u, d)) = queue.pop_front() {
        if d == max_hops {
            continue;
        }
        push_neighbors(graph, u, direction, &mut scratch);
        for &v in &scratch {
            if !visited[v.index()] {
                visited[v.index()] = true;
                nodes.push(v);
                distances.push(d + 1);
                queue.push_back((v, d + 1));
            }
        }
    }

    Ok(Expansion { nodes, distances })
}

/// Breadth-first shortest hop distances from `source` to every reachable node
/// in the given direction.  Unreachable nodes get `None`.
pub fn bfs_distances(
    graph: &CitationGraph,
    source: NodeId,
    direction: Direction,
) -> Result<Vec<Option<u32>>, GraphError> {
    graph.check_node(source)?;
    let mut dist: Vec<Option<u32>> = vec![None; graph.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    let mut scratch = Vec::new();
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has a distance");
        push_neighbors(graph, u, direction, &mut scratch);
        for &v in &scratch {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Chain 0 -> 1 -> 2 -> 3, plus 4 -> 2, 5 isolated.
    fn fixture() -> CitationGraph {
        let mut b = GraphBuilder::new(6);
        b.add_citation(NodeId(0), NodeId(1)).unwrap();
        b.add_citation(NodeId(1), NodeId(2)).unwrap();
        b.add_citation(NodeId(2), NodeId(3)).unwrap();
        b.add_citation(NodeId(4), NodeId(2)).unwrap();
        b.build()
    }

    #[test]
    fn zero_hop_expansion_returns_only_seeds() {
        let g = fixture();
        let e = expand(&g, &[NodeId(0), NodeId(4)], 0, Direction::References).unwrap();
        assert_eq!(e.nodes, vec![NodeId(0), NodeId(4)]);
        assert_eq!(e.distances, vec![0, 0]);
    }

    #[test]
    fn duplicate_seeds_are_collapsed() {
        let g = fixture();
        let e = expand(&g, &[NodeId(0), NodeId(0)], 1, Direction::References).unwrap();
        assert_eq!(e.at_hop(0), vec![NodeId(0)]);
    }

    #[test]
    fn first_and_second_order_neighbors() {
        let g = fixture();
        let e = expand(&g, &[NodeId(0)], 2, Direction::References).unwrap();
        assert_eq!(e.at_hop(1), vec![NodeId(1)]);
        assert_eq!(e.at_hop(2), vec![NodeId(2)]);
        assert_eq!(e.within(2).len(), 3);
    }

    #[test]
    fn cited_by_direction_walks_backwards() {
        let g = fixture();
        let e = expand(&g, &[NodeId(2)], 1, Direction::CitedBy).unwrap();
        let mut hop1 = e.at_hop(1);
        hop1.sort();
        assert_eq!(hop1, vec![NodeId(1), NodeId(4)]);
    }

    #[test]
    fn both_direction_reaches_everything_connected() {
        let g = fixture();
        let e = expand(&g, &[NodeId(3)], 4, Direction::Both).unwrap();
        assert_eq!(e.len(), 5); // everything except the isolated node 5
        assert!(!e.nodes.contains(&NodeId(5)));
    }

    #[test]
    fn bfs_distances_match_chain_structure() {
        let g = fixture();
        let d = bfs_distances(&g, NodeId(0), Direction::References).unwrap();
        assert_eq!(d[0], Some(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
        assert_eq!(d[5], None);
    }

    #[test]
    fn reachability_is_bounded_by_hops() {
        let g = fixture();
        let e = expand(&g, &[NodeId(0)], 2, Direction::References).unwrap();
        assert!(e.nodes.contains(&NodeId(2)));
        assert!(!e.nodes.contains(&NodeId(3)));
    }

    #[test]
    fn out_of_bounds_seed_is_rejected() {
        let g = fixture();
        assert!(expand(&g, &[NodeId(99)], 1, Direction::Both).is_err());
        assert!(bfs_distances(&g, NodeId(99), Direction::Both).is_err());
    }

    #[test]
    fn empty_seed_set_yields_empty_expansion() {
        let g = fixture();
        let e = expand(&g, &[], 2, Direction::Both).unwrap();
        assert!(e.is_empty());
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn arbitrary_graph(n: u32, edges: Vec<(u32, u32)>) -> CitationGraph {
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in edges {
            let (u, v) = (u % n, v % n);
            if u != v {
                b.add_citation(NodeId(u), NodeId(v)).unwrap();
            }
        }
        b.build()
    }

    proptest! {
        /// Expansion distances never exceed the requested hop bound and the
        /// hop-h frontier is exactly the set difference of within(h) and
        /// within(h-1).
        #[test]
        fn expansion_respects_hop_bound(
            edges in prop::collection::vec((0u32..40, 0u32..40), 0..200),
            seed in 0u32..40,
            max_hops in 0u8..4,
        ) {
            let g = arbitrary_graph(40, edges);
            let e = expand(&g, &[NodeId(seed)], max_hops, Direction::Both).unwrap();
            prop_assert!(e.distances.iter().all(|&d| d <= max_hops));
            for h in 1..=max_hops {
                let within_h = e.within(h).len();
                let within_prev = e.within(h - 1).len();
                prop_assert_eq!(within_h - within_prev, e.at_hop(h).len());
            }
        }

        /// Undirected BFS distance is symmetric: d(u, v) == d(v, u).
        #[test]
        fn undirected_bfs_is_symmetric(
            edges in prop::collection::vec((0u32..25, 0u32..25), 0..120),
            a in 0u32..25,
            b in 0u32..25,
        ) {
            let g = arbitrary_graph(25, edges);
            let da = bfs_distances(&g, NodeId(a), Direction::Both).unwrap();
            let db = bfs_distances(&g, NodeId(b), Direction::Both).unwrap();
            prop_assert_eq!(da[b as usize], db[a as usize]);
        }
    }
}
