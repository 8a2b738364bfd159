//! Integration tests for the features that go beyond the paper's evaluation:
//! the rank-aware metrics and the JSON report export.

use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{table3_ablation, ExperimentContext};
use rpg_eval::metrics::{average_precision, f1_score, ndcg};
use rpg_eval::report::to_json;
use rpg_repro::demo_corpus;

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
