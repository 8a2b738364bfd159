//! Integration tests for the features that go beyond the paper's evaluation:
//! the semantic-augmented NEWST extension, the rank-aware metrics, and the
//! JSON report export.

use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{table3_ablation, ExperimentContext};
use rpg_eval::metrics::{average_precision, f1_score, ndcg};
use rpg_eval::report::to_json;
use rpg_repager::semantic::{generate_with_semantics, SemanticSimilarity};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};
use rpg_repro::{demo_artifacts, demo_corpus};

#[test]
fn semantic_extension_is_competitive_with_plain_newst() {
    let system = demo_artifacts();
    let corpus = system.corpus();
    let semantic = SemanticSimilarity::build(corpus);
    let mut scratch = PipelineScratch::new();

    let mut plain = Vec::new();
    let mut blended = Vec::new();
    for survey in corpus.survey_bank().iter().take(6) {
        let exclude = [survey.paper];
        let request = PathRequest {
            query: &survey.query,
            top_k: 30,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        };
        let a = system.generate(&request, &mut scratch).unwrap();
        let b = generate_with_semantics(&system, &request, &semantic, 2.0).unwrap();
        if a.reading_list.is_empty() || b.reading_list.is_empty() {
            continue;
        }
        let truth = survey.label(LabelLevel::AtLeastOne);
        plain.push(f1_score(&a.reading_list, &truth));
        blended.push(f1_score(&b.reading_list, &truth));
        assert!(b.path.is_consistent());
    }
    assert!(!plain.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // The extension must not collapse the model: it should stay within a
    // reasonable band of plain NEWST (on the synthetic corpus it is usually a
    // small improvement).
    assert!(
        mean(&blended) >= mean(&plain) * 0.7,
        "semantic blending collapsed F1: {:.3} vs {:.3}",
        mean(&blended),
        mean(&plain)
    );
}

#[test]
fn rank_aware_metrics_agree_with_overlap_metrics_on_extremes() {
    let corpus = demo_corpus();
    let survey = corpus.survey_bank().iter().next().unwrap();
    let truth = survey.label(LabelLevel::AtLeastOne);
    // A list that is exactly the ground truth maximises every metric.
    assert!((average_precision(&truth, &truth) - 1.0).abs() < 1e-9);
    assert!((ndcg(&truth, &truth) - 1.0).abs() < 1e-9);
    // A disjoint list zeroes every metric.
    let disjoint: Vec<_> = corpus
        .papers()
        .iter()
        .map(|p| p.id)
        .filter(|p| !truth.contains(p))
        .take(truth.len())
        .collect();
    assert_eq!(average_precision(&disjoint, &truth), 0.0);
    assert_eq!(ndcg(&disjoint, &truth), 0.0);
    assert_eq!(f1_score(&disjoint, &truth), 0.0);
}

#[test]
fn experiment_reports_serialize_to_json() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 15, 4, 2);
    let report = table3_ablation::run(&ctx, 20, LabelLevel::AtLeastOne);
    let json = to_json(&report).unwrap();
    assert!(json.contains("NEWST"));
    assert!(json.contains("precision"));
    // The JSON is valid and round-trips.
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(value.get("rows").is_some());
}
