//! The observation study behind the paper's motivation (Fig. 1 / Fig. 2).
//!
//! For each high-scoring survey, compare the simulated Google Scholar top-30
//! and top-50 results — and their 1st/2nd-order citation neighbourhoods —
//! against the survey's reference list at the three occurrence levels.  The
//! output reproduces the two panels of Fig. 2: the direct results overlap the
//! reference list poorly (Observation I), the 2nd-order neighbourhood
//! overlaps it well (Observation II).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example observation_study
//! ```

use rpg_bench::bench_corpus;
use rpg_eval::experiments::{fig2_overlap, ExperimentContext};

fn main() {
    let corpus = bench_corpus();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let ctx = ExperimentContext::new(&corpus, 20, 24, threads);
    println!(
        "evaluating {} surveys out of {} in the benchmark\n",
        ctx.set.len(),
        corpus.survey_bank().len()
    );

    let report = fig2_overlap::run(&ctx, &[30, 50], 24);
    println!("{}", fig2_overlap::format(&report));

    // Also show the Fig. 1-style single-survey view for the first survey.
    let survey = &ctx.set.surveys[0];
    let exclude = [survey.paper];
    let seeds = ctx.system.scholar().seed_papers(&rpg_engines::Query {
        text: &survey.query,
        top_k: 5,
        max_year: Some(survey.year),
        exclude: &exclude,
    });
    println!("example query: \"{}\"", survey.query);
    println!("top-5 engine results vs. the survey's reference list:");
    let truth = survey.label(rpg_corpus::LabelLevel::AtLeastOne);
    for (rank, paper) in seeds.iter().enumerate() {
        let title = corpus
            .paper(*paper)
            .map(|p| p.title.clone())
            .unwrap_or_default();
        let marker = if truth.contains(paper) {
            "IN REFERENCES"
        } else {
            "not referenced"
        };
        println!("  {}. [{marker}] {title}", rank + 1);
    }
}
