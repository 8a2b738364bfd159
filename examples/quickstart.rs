//! Quickstart: generate a corpus, ask RePaGer for a reading path, print it.
//!
//! This is the Fig. 9 experience end-to-end: the query is a research topic
//! with a deep prerequisite chain ("pretrained language models" in the
//! synthetic topic catalogue), and the output is a reading path whose early
//! entries are prerequisite papers that a plain keyword search would not
//! return.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rpg_repager::render::{output_to_text, path_to_dot};
use rpg_repager::system::PathRequest;
use rpg_repager::PipelineScratch;
use rpg_repro::demo_artifacts;

fn main() {
    // 1+2. A synthetic scholarly corpus standing in for S2ORC (see
    //    DESIGN.md), with its global PageRank and seed search engine built
    //    once into shared artifacts.
    let system = demo_artifacts();
    let corpus = system.corpus();
    println!(
        "corpus: {} papers, {} citation edges, {} surveys in the benchmark",
        corpus.len(),
        corpus.graph().edge_count(),
        corpus.survey_bank().len()
    );

    // 3. Ask for a reading path.  The query is the topic of the paper's own
    //    case study; any free-text query works.
    let query = "pretrained language models";
    let request = PathRequest::new(query, 30);
    let output = system
        .generate(&request, &mut PipelineScratch::new())
        .expect("path generation succeeds");

    println!("\nquery: {query}");
    println!("{}", output_to_text(corpus, &output));

    // 4. The same path as Graphviz DOT (render with `dot -Tpng`).
    let engine_top = system.scholar().seed_papers(&rpg_engines::Query {
        text: query,
        top_k: 30,
        max_year: None,
        exclude: &[],
    });
    let dot = path_to_dot(corpus, &output.path, &engine_top);
    println!("--- reading path as DOT (grey = engine result, green = discovered prerequisite) ---");
    println!("{dot}");
}
