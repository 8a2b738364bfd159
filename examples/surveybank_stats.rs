//! SurveyBank construction and statistics (Fig. 3, Fig. 4, Table I, Fig. 5).
//!
//! Builds the default-scale benchmark corpus, re-runs the dataset-construction
//! pipeline to show the per-stage attrition of Fig. 3, prints the Fig. 4
//! distributions and the Table I topic distribution, and writes the Fig. 5
//! citation-graph sample as Graphviz DOT to `target/citation_sample.dot`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example surveybank_stats
//! ```

use rpg_bench::bench_corpus;
use rpg_corpus::pipeline::{self, PipelineConfig};
use rpg_eval::experiments::fig4_statistics;
use rpg_repager::render::graph_sample_dot;

fn main() {
    let corpus = bench_corpus();

    // Fig. 3: the dataset-construction pipeline with its per-stage attrition.
    let output = pipeline::run(&corpus, &PipelineConfig::default());
    let report = output.report;
    println!("=== Fig. 3 — dataset construction pipeline ===");
    println!(
        "collected records (both sources): {}",
        report.collected_records
    );
    println!(
        "distinct collected surveys:       {}",
        report.collected_surveys
    );
    println!(
        "after title deduplication:        {}",
        report.after_deduplication
    );
    println!(
        "after page/parse filtering:       {}",
        report.after_filtering
    );
    println!("final SurveyBank size:            {}", report.processed);
    println!();

    // Fig. 4 + Table I.
    let stats = fig4_statistics::run(&corpus);
    println!("{}", fig4_statistics::format(&stats));

    // Fig. 5: a 1,000-paper connected sample of the citation graph.
    let dot = graph_sample_dot(&corpus, 1_000, 42);
    let out_path = std::path::Path::new("target").join("citation_sample.dot");
    if let Err(err) =
        std::fs::create_dir_all("target").and_then(|_| std::fs::write(&out_path, &dot))
    {
        eprintln!("could not write {}: {err}", out_path.display());
    } else {
        println!(
            "Fig. 5 citation-graph sample written to {}",
            out_path.display()
        );
    }
}
