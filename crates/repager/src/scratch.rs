//! The per-worker reusable workspace of the whole query pipeline.
//!
//! PR 1 gave the Steiner stage a shared Dijkstra workspace; this module
//! widens that idea to every allocating stage of the pipeline.  A
//! [`PipelineScratch`] bundles the KMB kernel's [`SteinerScratch`] with the
//! dense generation-stamped counters of seed reallocation, so a serving thread
//! that keeps one scratch for its lifetime runs the steiner and realloc
//! stages without rebuilding hash tables or reallocating buffers per
//! request.
//!
//! The scratch also owns the pipeline's work counters: cumulative totals
//! that [`run_pipeline`](crate::stages::run_pipeline) snapshots before and
//! after each request to fill
//! [`StageTimings::counters`](crate::stages::StageTimings), making the
//! allocation discipline observable end to end (per response and, summed,
//! in `/v1/stats`).

use crate::stages::StageCounters;
use rpg_graph::steiner::SteinerScratch;
use rpg_graph::NodeId;
use rpg_obs::trace::StageTrace;
use std::time::Instant;

/// Reusable buffers + cumulative work counters for one serving worker.
///
/// Not tied to a corpus or sub-graph: buffers grow to the largest instance
/// seen and are reused across requests of any size, exactly like the graph
/// layer's scratches.
#[derive(Debug, Default, Clone)]
pub struct PipelineScratch {
    pub(crate) steiner: SteinerScratch,
    /// Terminal translation buffer of the NEWST adapter.
    pub(crate) local_terminals: Vec<NodeId>,
    /// Dense co-occurrence counts over sub-graph local node ids (valid
    /// where `cooc_stamp` matches `cooc_gen`).
    pub(crate) cooc_count: Vec<u32>,
    pub(crate) cooc_stamp: Vec<u32>,
    pub(crate) cooc_gen: u32,
    /// Local nodes touched by the current co-occurrence pass.
    pub(crate) touched: Vec<NodeId>,
    pub(crate) realloc_retries: u64,
    pub(crate) grow_events: u64,
    /// Cooperative wall-clock budget for the *current* request: the
    /// pipeline checks it between stages and sheds mid-compute once it
    /// passes. Carried here rather than on the request so every
    /// [`PathRequest`](crate::system::PathRequest) construction site stays
    /// untouched; callers set it per request via
    /// [`PipelineScratch::set_deadline`].
    deadline: Option<Instant>,
    /// Span-recording handle for the *current* request, armed per request
    /// exactly like the deadline (and for the same reason: request
    /// construction sites stay untouched). When armed, the pipeline
    /// records one span per stage under the caller's compute span.
    trace: Option<StageTrace>,
}

impl PipelineScratch {
    /// An empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The KMB kernel's workspace, for callers that run the Steiner solver
    /// directly (e.g. the bench harness).
    pub fn steiner_mut(&mut self) -> &mut SteinerScratch {
        &mut self.steiner
    }

    /// Arms (or, with `None`, clears) the cooperative deadline the next
    /// pipeline run checks between stages. The deadline does not reset
    /// itself: a caller serving many requests through one scratch sets it
    /// per request.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Whether the armed deadline (if any) has passed.
    pub(crate) fn deadline_expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Arms (or, with `None`, clears) the span-recording handle the next
    /// pipeline run records its per-stage spans into. Like the deadline,
    /// it does not reset itself between requests.
    pub fn set_trace(&mut self, trace: Option<StageTrace>) {
        self.trace = trace;
    }

    /// Records a closed span (started at `started`, ending now) into the
    /// armed trace, if any. No-op when tracing is not armed.
    pub(crate) fn record_span(&self, name: &'static str, started: Instant) {
        if let Some(trace) = &self.trace {
            trace.record(name, started);
        }
    }

    /// Cumulative pipeline work counters (never reset); diff two snapshots
    /// with [`StageCounters::since`] to attribute work to one request.
    pub fn counters(&self) -> StageCounters {
        let s = self.steiner.counters();
        StageCounters {
            steiner_runs: s.runs,
            steiner_paths_expanded: s.paths_expanded,
            steiner_paths_skipped: s.paths_skipped,
            steiner_pruned_leaves: s.pruned_leaves,
            scratch_allocations: s.allocations + self.grow_events,
            realloc_retries: self.realloc_retries,
        }
    }

    /// Prepares the co-occurrence counters for a sub-graph of `n` local
    /// nodes: O(1) generation bump, O(n) buffer growth only on the first
    /// request that needs the larger size.
    pub(crate) fn begin_cooc(&mut self, n: usize) {
        if self.cooc_count.len() < n {
            if self.cooc_count.capacity() < n {
                self.grow_events += 1;
            }
            self.cooc_count.resize(n, 0);
            self.cooc_stamp.resize(n, 0);
        }
        if self.cooc_gen == u32::MAX {
            self.cooc_stamp.fill(0);
            self.cooc_gen = 0;
        }
        self.cooc_gen += 1;
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let scratch = PipelineScratch::new();
        assert_eq!(scratch.counters(), StageCounters::default());
    }

    #[test]
    fn begin_cooc_survives_generation_wraparound() {
        let mut scratch = PipelineScratch::new();
        scratch.begin_cooc(4);
        scratch.cooc_gen = u32::MAX;
        scratch.cooc_stamp.fill(u32::MAX);
        scratch.begin_cooc(4);
        assert_eq!(scratch.cooc_gen, 1);
        assert!(scratch.cooc_stamp.iter().all(|&s| s == 0));
    }

    #[test]
    fn growth_is_counted_once_per_enlargement() {
        let mut scratch = PipelineScratch::new();
        scratch.begin_cooc(8);
        let after_first = scratch.counters().scratch_allocations;
        assert!(after_first > 0);
        scratch.begin_cooc(8);
        scratch.begin_cooc(4);
        assert_eq!(scratch.counters().scratch_allocations, after_first);
        scratch.begin_cooc(64);
        assert!(scratch.counters().scratch_allocations > after_first);
    }
}
