//! Shared setup for the benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper: it
//! builds (or reuses) a benchmark-scale synthetic corpus, runs the matching
//! experiment from `rpg-eval::experiments` once and prints the paper-style
//! output, and then uses Criterion to measure the computational kernel behind
//! that experiment (a single query, a single method evaluation, a single
//! statistic pass) so `cargo bench` also tracks performance over time.

pub mod load;
pub mod report;

use rpg_corpus::{generate, Corpus, CorpusConfig};
use std::sync::Arc;

/// The corpus configuration used by all benches: the default generator scale
/// (5,106 papers, 83,126 citation edges, 94 surveys), which is large enough for
/// the trends of the paper's figures to be visible while keeping a full
/// `cargo bench` run in the minutes range.
pub fn bench_corpus_config() -> CorpusConfig {
    CorpusConfig {
        seed: 0x0BE9_C0DE,
        ..CorpusConfig::default()
    }
}

/// Generates the benchmark corpus, shareable across the harness without
/// copying.
pub fn bench_corpus() -> Arc<Corpus> {
    Arc::new(generate(&bench_corpus_config()))
}

/// A smaller corpus for the micro-benchmarks of the graph algorithms.
pub fn micro_corpus() -> Arc<Corpus> {
    Arc::new(generate(&CorpusConfig {
        seed: 0x0BE9_C0DF,
        ..CorpusConfig::small()
    }))
}

/// Number of evaluation surveys used by the table/figure benches.  The full
/// bank is used for the statistics benches; the query-level benches cap the
/// set so a full `cargo bench` stays tractable.
pub const BENCH_SURVEY_LIMIT: usize = 24;

/// Number of worker threads for the evaluation loops.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_corpus_config_is_default_scale() {
        let config = bench_corpus_config();
        assert_eq!(
            config.papers_per_topic,
            CorpusConfig::default().papers_per_topic
        );
    }

    #[test]
    fn micro_corpus_is_generated_quickly_and_nonempty() {
        let corpus = micro_corpus();
        assert!(corpus.len() > 500);
        assert!(!corpus.survey_bank().is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(bench_threads() >= 1);
    }
}
