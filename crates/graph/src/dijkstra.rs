//! Shortest paths over node- and edge-weighted graphs.
//!
//! The KMB heuristic for NEWST (Algorithm 1 of the paper) needs the "metric
//! closure" of the weighted citation graph: for every pair of compulsory
//! terminals, the cheapest path where the cost of a path includes both its
//! edge costs and the node weights of the papers it passes through.  The
//! paper defines a shortest path from `Pi` to `Pj` as one "whose distance,
//! including node costs and edge weights, is minimal".
//!
//! The convention used here (and documented on [`path_cost`]) is:
//!
//! * every edge on the path contributes its edge cost, and
//! * every *interior* vertex contributes its node weight — the two endpoints
//!   do not, so that the distance is symmetric and terminal weights are not
//!   double-counted when paths are concatenated into a tree.  Terminal and
//!   branch vertex weights are accounted for once, at tree-costing time, by
//!   [`crate::WeightedGraph::subgraph_cost`].

use crate::{GraphError, NodeId, WeightedGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A shortest path between two nodes, including both endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPath {
    /// The node sequence from source to target (inclusive).
    pub nodes: Vec<NodeId>,
    /// The path cost under the node+edge convention described at the module
    /// level.
    pub cost: f64,
}

impl ShortestPath {
    /// The edges of the path as consecutive pairs.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.nodes.windows(2).map(|w| (w[0], w[1])).collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap acts as a min-heap; costs are finite and
        // non-NaN by construction of WeightedGraph.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A reusable Dijkstra workspace: the binary heap plus the per-node
/// distance/predecessor/settled state.
///
/// The KMB Steiner heuristic runs one single-source search per terminal over
/// the same graph; allocating these vectors once per *graph* instead of once
/// per *source* removes the dominant allocation cost of that loop. Staleness
/// is tracked with per-slot generation stamps, so starting a new run is O(1)
/// — no `fill` over the whole vector between sources.
///
/// A scratch is not tied to one graph: it grows to the largest node count it
/// has seen and can be reused across graphs of different sizes.
#[derive(Debug, Default, Clone)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
    settled: Vec<bool>,
    stamp: Vec<u32>,
    /// Marks the targets of the current [`single_source_to_targets_into`]
    /// run (`target_stamp[i] == generation`), so the search can stop as soon
    /// as every target is settled.
    target_stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
    grow_events: u64,
}

impl DijkstraScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for graphs of up to `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut scratch = Self::default();
        scratch.grow(nodes);
        scratch
    }

    fn grow(&mut self, n: usize) {
        if self.dist.len() < n {
            self.grow_events += 1;
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, None);
            self.settled.resize(n, false);
            self.stamp.resize(n, 0);
            self.target_stamp.resize(n, 0);
        }
    }

    /// Number of times the per-node buffers had to grow (i.e. allocate) since
    /// the scratch was created.  A steady-state serving loop should see this
    /// stay flat across requests — every run after warm-up reuses the
    /// existing buffers.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Starts a new run over a graph with `n` nodes: grows the buffers if
    /// needed and invalidates all previous state.
    fn begin_run(&mut self, n: usize) {
        self.grow(n);
        self.heap.clear();
        if self.generation == u32::MAX {
            // Stamp wrap-around: reset everything once every 2^32 runs.
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    #[inline]
    fn is_current(&self, index: usize) -> bool {
        self.stamp[index] == self.generation
    }

    #[inline]
    fn set_dist(&mut self, index: usize, cost: f64, prev: Option<NodeId>) {
        if !self.is_current(index) {
            self.stamp[index] = self.generation;
            self.settled[index] = false;
        }
        self.dist[index] = cost;
        self.prev[index] = prev;
    }

    /// The cost of the last run's source-to-`node` path
    /// (`f64::INFINITY` if unreached).
    #[inline]
    pub fn dist(&self, node: NodeId) -> f64 {
        let i = node.index();
        if i < self.dist.len() && self.is_current(i) {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    /// The predecessor of `node` on its cheapest path from the last run's
    /// source.
    #[inline]
    pub fn predecessor(&self, node: NodeId) -> Option<NodeId> {
        let i = node.index();
        if i < self.prev.len() && self.is_current(i) {
            self.prev[i]
        } else {
            None
        }
    }

    /// Reconstructs the node sequence from the last run's source to `target`
    /// (inclusive), or `None` if `target` was unreached.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if self.dist(target).is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut current = target;
        while let Some(p) = self.predecessor(current) {
            nodes.push(p);
            current = p;
        }
        nodes.reverse();
        Some(nodes)
    }
}

/// Runs a single-source search from `source`, leaving distances and
/// predecessor links in `scratch` (read back via [`DijkstraScratch::dist`],
/// [`DijkstraScratch::predecessor`] and [`DijkstraScratch::path_to`]).
pub fn single_source_into(
    graph: &WeightedGraph,
    source: NodeId,
    scratch: &mut DijkstraScratch,
) -> Result<(), GraphError> {
    graph.check_node(source)?;
    scratch.begin_run(graph.node_count());
    scratch.set_dist(source.index(), 0.0, None);
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
        let node_index = node.index();
        if scratch.settled[node_index] {
            continue;
        }
        scratch.settled[node_index] = true;
        // Entering a neighbour from `node`: pay the edge, plus `node`'s
        // weight if `node` is an interior vertex (i.e. not the source).
        let interior_weight = if node == source {
            0.0
        } else {
            graph.node_weight(node)
        };
        for &(next, edge_cost) in graph.neighbors(node) {
            let next_index = next.index();
            if scratch.is_current(next_index) && scratch.settled[next_index] {
                continue;
            }
            let candidate = cost + edge_cost + interior_weight;
            if candidate < scratch.dist(next) {
                scratch.set_dist(next_index, candidate, Some(node));
                scratch.heap.push(HeapEntry {
                    cost: candidate,
                    node: next,
                });
            }
        }
    }
    Ok(())
}

/// Like [`single_source_into`], but stops as soon as every node of `targets`
/// has been settled instead of exhausting the whole graph.
///
/// Settled distances are final under Dijkstra's invariant, so
/// [`DijkstraScratch::dist`], [`DijkstraScratch::predecessor`] and
/// [`DijkstraScratch::path_to`] report exactly the same values for every
/// target (and for every node on a shortest path to a target) as a full
/// [`single_source_into`] run would.  Distances of nodes that were not yet
/// settled when the search stopped are left unspecified and must not be read.
///
/// This is the workhorse of the KMB metric-closure step: the K terminals of
/// a Steiner instance are typically clustered in a small region of the
/// sub-graph, so stopping at the last settled terminal skips most of the
/// graph.  If some target is unreachable the search degenerates to a full
/// run and simply returns — callers detect disconnection from the distance
/// array (`dist(target).is_infinite()`) without materializing any path.
pub fn single_source_to_targets_into(
    graph: &WeightedGraph,
    source: NodeId,
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> Result<(), GraphError> {
    graph.check_node(source)?;
    for &t in targets {
        graph.check_node(t)?;
    }
    scratch.begin_run(graph.node_count());
    let mut remaining = 0usize;
    for &t in targets {
        let i = t.index();
        if scratch.target_stamp[i] != scratch.generation {
            scratch.target_stamp[i] = scratch.generation;
            remaining += 1;
        }
    }
    scratch.set_dist(source.index(), 0.0, None);
    if remaining == 0 {
        // No targets: nothing to settle beyond the source itself.
        return Ok(());
    }
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost, node }) = scratch.heap.pop() {
        let node_index = node.index();
        if scratch.settled[node_index] {
            continue;
        }
        scratch.settled[node_index] = true;
        if scratch.target_stamp[node_index] == scratch.generation {
            // Unmark so duplicate heap entries cannot double-count.
            scratch.target_stamp[node_index] = scratch.generation - 1;
            remaining -= 1;
            if remaining == 0 {
                return Ok(());
            }
        }
        let interior_weight = if node == source {
            0.0
        } else {
            graph.node_weight(node)
        };
        for &(next, edge_cost) in graph.neighbors(node) {
            let next_index = next.index();
            if scratch.is_current(next_index) && scratch.settled[next_index] {
                continue;
            }
            let candidate = cost + edge_cost + interior_weight;
            if candidate < scratch.dist(next) {
                scratch.set_dist(next_index, candidate, Some(node));
                scratch.heap.push(HeapEntry {
                    cost: candidate,
                    node: next,
                });
            }
        }
    }
    Ok(())
}

/// Computes, for every node, the cheapest cost of reaching it from `source`
/// under the node+edge cost convention, together with predecessor links.
///
/// Returns `(costs, predecessors)`, where unreachable nodes have
/// `f64::INFINITY` cost and `None` predecessor. Thin wrapper over
/// [`single_source_into`] with a fresh scratch.
pub fn single_source(
    graph: &WeightedGraph,
    source: NodeId,
) -> Result<(Vec<f64>, Vec<Option<NodeId>>), GraphError> {
    let mut scratch = DijkstraScratch::with_capacity(graph.node_count());
    single_source_into(graph, source, &mut scratch)?;
    let n = graph.node_count();
    let dist = (0..n)
        .map(|i| scratch.dist(NodeId::from_index(i)))
        .collect();
    let prev = (0..n)
        .map(|i| scratch.predecessor(NodeId::from_index(i)))
        .collect();
    Ok((dist, prev))
}

/// The cost of a concrete path (given as a node sequence) under the same
/// convention as [`single_source`]: all edge costs plus interior node
/// weights.  Returns an error if any consecutive pair is not an edge.
pub fn path_cost(graph: &WeightedGraph, nodes: &[NodeId]) -> Result<f64, GraphError> {
    let mut cost = 0.0;
    for w in nodes.windows(2) {
        match graph.edge_cost(w[0], w[1]) {
            Some(c) => cost += c,
            None => {
                return Err(GraphError::InvalidWeight {
                    what: format!("missing edge between {} and {}", w[0], w[1]),
                })
            }
        }
    }
    if nodes.len() > 2 {
        for &v in &nodes[1..nodes.len() - 1] {
            cost += graph.node_weight(v);
        }
    }
    Ok(cost)
}

/// Computes the cheapest path from `source` to `target`.
///
/// Returns `Ok(None)` if `target` is unreachable.
pub fn shortest_path(
    graph: &WeightedGraph,
    source: NodeId,
    target: NodeId,
) -> Result<Option<ShortestPath>, GraphError> {
    let mut scratch = DijkstraScratch::with_capacity(graph.node_count());
    Ok(shortest_paths_into(graph, source, &[target], &mut scratch)?
        .pop()
        .flatten())
}

/// Computes cheapest paths from `source` to each of `targets` with a single
/// Dijkstra run.  Unreachable targets map to `None`.
pub fn shortest_paths_to(
    graph: &WeightedGraph,
    source: NodeId,
    targets: &[NodeId],
) -> Result<Vec<Option<ShortestPath>>, GraphError> {
    let mut scratch = DijkstraScratch::with_capacity(graph.node_count());
    shortest_paths_into(graph, source, targets, &mut scratch)
}

/// Like [`shortest_paths_to`], but reusing a caller-provided scratch so
/// repeated runs over the same graph (one per KMB terminal) skip the per-run
/// allocations.
pub fn shortest_paths_into(
    graph: &WeightedGraph,
    source: NodeId,
    targets: &[NodeId],
    scratch: &mut DijkstraScratch,
) -> Result<Vec<Option<ShortestPath>>, GraphError> {
    for &t in targets {
        graph.check_node(t)?;
    }
    single_source_into(graph, source, scratch)?;
    let mut out = Vec::with_capacity(targets.len());
    for &target in targets {
        out.push(scratch.path_to(target).map(|nodes| ShortestPath {
            nodes,
            cost: scratch.dist(target),
        }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0 - 1 - 2 - 3 with unit edge costs and node weights
    /// [0, 10, 1, 0], plus a direct expensive edge 0 - 3.
    fn fixture() -> WeightedGraph {
        let mut g = WeightedGraph::new(vec![0.0, 10.0, 1.0, 0.0]).unwrap();
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 5.0).unwrap();
        g
    }

    #[test]
    fn node_weights_divert_the_path() {
        let g = fixture();
        // Via the chain: edges 3, interior weights 10 + 1 = 11 -> 14.
        // Direct edge: 5.  The direct edge must win.
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap().unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(3)]);
        assert!((p.cost - 5.0).abs() < 1e-12);
    }

    #[test]
    fn interior_weights_are_charged() {
        let g = fixture();
        // Via 1: edges 1 + 1 plus interior weight 10 = 12.
        // Via 3: edges 5 + 1 plus interior weight 0 = 6.  The detour around
        // the heavy interior node must win even though it has more edge cost.
        let p = shortest_path(&g, NodeId(0), NodeId(2)).unwrap().unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(3), NodeId(2)]);
        assert!((p.cost - 6.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_weights_are_not_charged() {
        let g = fixture();
        let p = shortest_path(&g, NodeId(1), NodeId(2)).unwrap().unwrap();
        assert!((p.cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_cost_matches_dijkstra() {
        let g = fixture();
        let p = shortest_path(&g, NodeId(0), NodeId(2)).unwrap().unwrap();
        let recomputed = path_cost(&g, &p.nodes).unwrap();
        assert!((recomputed - p.cost).abs() < 1e-12);
    }

    #[test]
    fn path_cost_rejects_non_edges() {
        let g = fixture();
        assert!(path_cost(&g, &[NodeId(0), NodeId(2)]).is_err());
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut g = WeightedGraph::with_zero_weights(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(shortest_path(&g, NodeId(0), NodeId(2)).unwrap().is_none());
    }

    #[test]
    fn trivial_path_to_self_has_zero_cost() {
        let g = fixture();
        let p = shortest_path(&g, NodeId(2), NodeId(2)).unwrap().unwrap();
        assert_eq!(p.nodes, vec![NodeId(2)]);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn batched_targets_match_individual_queries() {
        let g = fixture();
        let batch = shortest_paths_to(&g, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        for (i, target) in [NodeId(1), NodeId(2), NodeId(3)].iter().enumerate() {
            let single = shortest_path(&g, NodeId(0), *target).unwrap().unwrap();
            let batched = batch[i].as_ref().unwrap();
            assert_eq!(single.nodes, batched.nodes);
            assert!((single.cost - batched.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn out_of_bounds_nodes_are_rejected() {
        let g = fixture();
        assert!(shortest_path(&g, NodeId(0), NodeId(9)).is_err());
        assert!(single_source(&g, NodeId(9)).is_err());
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let g = fixture();
        let mut scratch = DijkstraScratch::new();
        let targets = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        // Run from every source through the same scratch; each run must match
        // an independent fresh-allocation run exactly.
        for source in targets {
            let reused = shortest_paths_into(&g, source, &targets, &mut scratch).unwrap();
            let fresh = shortest_paths_to(&g, source, &targets).unwrap();
            assert_eq!(reused, fresh, "scratch reuse changed results from {source}");
        }
    }

    #[test]
    fn scratch_survives_graphs_of_different_sizes() {
        let big = fixture();
        let mut small = WeightedGraph::with_zero_weights(2);
        small.add_edge(NodeId(0), NodeId(1), 3.0).unwrap();
        let mut scratch = DijkstraScratch::new();
        single_source_into(&big, NodeId(0), &mut scratch).unwrap();
        single_source_into(&small, NodeId(1), &mut scratch).unwrap();
        assert_eq!(scratch.dist(NodeId(0)), 3.0);
        // Stale state from the larger graph's run must not leak through.
        assert!(scratch.dist(NodeId(3)).is_infinite());
        single_source_into(&big, NodeId(2), &mut scratch).unwrap();
        assert_eq!(scratch.dist(NodeId(2)), 0.0);
        assert!(scratch.path_to(NodeId(0)).is_some());
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn random_graph(n: usize, edges: &[(u32, u32, u16)], weights: &[u16]) -> WeightedGraph {
        let node_weights: Vec<f64> = (0..n)
            .map(|i| f64::from(weights[i % weights.len().max(1)]))
            .collect();
        let mut g = WeightedGraph::new(node_weights).unwrap();
        for &(a, b, c) in edges {
            let (a, b) = ((a as usize % n) as u32, (b as usize % n) as u32);
            if a != b {
                g.add_edge(NodeId(a), NodeId(b), f64::from(c) + 1.0)
                    .unwrap();
            }
        }
        g
    }

    proptest! {
        /// The symmetric-distance property: d(a, b) == d(b, a) under the
        /// interior-node-weight convention.
        #[test]
        fn distances_are_symmetric(
            edges in prop::collection::vec((0u32..15, 0u32..15, 0u16..50), 1..80),
            weights in prop::collection::vec(0u16..20, 1..16),
            a in 0u32..15,
            b in 0u32..15,
        ) {
            let g = random_graph(15, &edges, &weights);
            let ab = shortest_path(&g, NodeId(a), NodeId(b)).unwrap().map(|p| p.cost);
            let ba = shortest_path(&g, NodeId(b), NodeId(a)).unwrap().map(|p| p.cost);
            match (ab, ba) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                (None, None) => {}
                _ => prop_assert!(false, "reachability must be symmetric"),
            }
        }

        /// Triangle inequality on the metric closure: d(a, c) <= d(a, b) + d(b, c) + w(b).
        /// (Concatenating the two paths makes b an interior vertex, hence the w(b) term.)
        #[test]
        fn relaxed_triangle_inequality(
            edges in prop::collection::vec((0u32..12, 0u32..12, 0u16..30), 1..60),
            weights in prop::collection::vec(0u16..10, 1..13),
            a in 0u32..12,
            b in 0u32..12,
            c in 0u32..12,
        ) {
            let g = random_graph(12, &edges, &weights);
            let dab = shortest_path(&g, NodeId(a), NodeId(b)).unwrap().map(|p| p.cost);
            let dbc = shortest_path(&g, NodeId(b), NodeId(c)).unwrap().map(|p| p.cost);
            let dac = shortest_path(&g, NodeId(a), NodeId(c)).unwrap().map(|p| p.cost);
            if let (Some(x), Some(y), Some(z)) = (dab, dbc, dac) {
                prop_assert!(z <= x + y + g.node_weight(NodeId(b)) + 1e-9);
            }
        }

        /// The reported cost always equals the recomputed cost of the
        /// returned node sequence.
        #[test]
        fn reported_cost_matches_path(
            edges in prop::collection::vec((0u32..12, 0u32..12, 0u16..30), 1..60),
            weights in prop::collection::vec(0u16..10, 1..13),
            a in 0u32..12,
            b in 0u32..12,
        ) {
            let g = random_graph(12, &edges, &weights);
            if let Some(p) = shortest_path(&g, NodeId(a), NodeId(b)).unwrap() {
                let recomputed = path_cost(&g, &p.nodes).unwrap();
                prop_assert!((recomputed - p.cost).abs() < 1e-9);
            }
        }
    }
}
