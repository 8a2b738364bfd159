//! The paper's future-work extension: blending semantic similarity into the
//! NEWST edge costs.
//!
//! Section IV-B suggests that the cost functions could "further utilize the
//! semantic information of the main text".  This example compares plain
//! NEWST against the semantically blended variant on a handful of benchmark
//! surveys and reports the F1/precision of both, plus how much the generated
//! paths differ.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example semantic_extension
//! ```

use rpg_corpus::LabelLevel;
use rpg_eval::metrics::{f1_score, precision};
use rpg_repager::semantic::{generate_with_semantics, SemanticSimilarity};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};
use rpg_repro::demo_artifacts;

fn main() {
    let system = demo_artifacts();
    let corpus = system.corpus();
    let semantic = SemanticSimilarity::build(corpus);
    let mut scratch = PipelineScratch::new();
    let blend = 2.0;

    println!("query-by-query comparison (K = 30, blend = {blend}):\n");
    println!(
        "{:<44} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "query", "F1", "F1+sem", "P", "P+sem", "overlap"
    );

    let mut plain_f1 = Vec::new();
    let mut semantic_f1 = Vec::new();
    for survey in corpus.survey_bank().iter().take(10) {
        let exclude = [survey.paper];
        let request = PathRequest {
            query: &survey.query,
            top_k: 30,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        };
        let plain = system
            .generate(&request, &mut scratch)
            .expect("plain NEWST runs");
        let blended = generate_with_semantics(&system, &request, &semantic, blend)
            .expect("semantic NEWST runs");
        if plain.reading_list.is_empty() || blended.reading_list.is_empty() {
            continue;
        }
        let truth = survey.label(LabelLevel::AtLeastOne);
        let f1_a = f1_score(&plain.reading_list, &truth);
        let f1_b = f1_score(&blended.reading_list, &truth);
        let p_a = precision(&plain.reading_list, &truth);
        let p_b = precision(&blended.reading_list, &truth);
        let shared = blended
            .reading_list
            .iter()
            .filter(|p| plain.reading_list.contains(p))
            .count();
        let overlap = shared as f64 / plain.reading_list.len().max(1) as f64;
        plain_f1.push(f1_a);
        semantic_f1.push(f1_b);
        let query: String = survey.query.chars().take(42).collect();
        println!("{query:<44} {f1_a:>8.4} {f1_b:>8.4} {p_a:>8.4} {p_b:>8.4} {overlap:>8.2}%");
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nmean F1: plain NEWST {:.4} vs semantically blended {:.4} over {} queries",
        mean(&plain_f1),
        mean(&semantic_f1),
        plain_f1.len()
    );
    println!("(the blend changes which connector papers the Steiner tree picks; on the synthetic");
    println!(" corpus the effect is small because titles/abstracts already align with topics)");
}
