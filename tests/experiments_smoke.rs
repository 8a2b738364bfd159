//! Integration smoke tests of the experiment runners: every table/figure
//! module runs on the demonstration corpus and reproduces the paper's
//! qualitative shape.
//!
//! [`TABLE3`] and [`FIG8`] also pin the exact numbers of Table III and
//! Fig. 8 on that corpus, each F1 and precision in its `{:?}` round-trip
//! form. A change that moves a score fails here even when no pinned reading
//! path in `golden_paths.rs` moves (a baseline engine's ranking, the
//! metrics, the evaluation set). Changing a pin is a claim that the paper's
//! numbers changed on purpose; it needs a `CHANGES.md` note saying why.

use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{
    fig2_overlap, fig4_statistics, fig8_main, fig9_case_study, table2_seed_count, table3_ablation,
    table4_runtime, table5_human, ExperimentContext,
};
use rpg_repro::demo_corpus;
use std::fmt::Debug;

/// Table III on the demonstration corpus (K = 30, at-least-one labels, the
/// context of [`seed_count_sweep_and_ablation_run_to_completion`]):
/// `(variant, F1, precision)`.
const TABLE3: &[(&str, &str, &str)] = &[
    ("NEWST", "0.44306442975436", "0.39999999999999997"),
    ("NEWST-W", "0.5432259364177895", "0.48888888888888893"),
    ("NEWST-I", "0.44306442975436", "0.39999999999999997"),
    ("NEWST-U", "0.48228011602886983", "0.43333333333333335"),
    ("NEWST-C", "0.4756933148833111", "0.48156862745098045"),
    ("NEWST-N", "0.4375917511724377", "0.39444444444444443"),
    ("NEWST-E", "0.44306442975436", "0.39999999999999997"),
];

/// Fig. 8 on the demonstration corpus (the context of
/// [`main_comparison_produces_the_papers_ordering`]):
/// `(label level, method, K, F1@K, P@K)`.
#[rustfmt::skip]
const FIG8: &[(&str, &str, usize, &str, &str)] = &[
    ("#occurrences >= 1", "NEWST", 20, "0.4774104042987237", "0.5125000000000001"),
    ("#occurrences >= 1", "NEWST", 30, "0.4683360581648266", "0.4166666666666667"),
    ("#occurrences >= 1", "NEWST", 40, "0.43120082373458235", "0.34375"),
    ("#occurrences >= 1", "Google Scholar (simulated)", 20, "0.5010685684530222", "0.5654605263157895"),
    ("#occurrences >= 1", "Google Scholar (simulated)", 30, "0.48091989919115685", "0.48004385964912283"),
    ("#occurrences >= 1", "Google Scholar (simulated)", 40, "0.4569968798286388", "0.4312544452347084"),
    ("#occurrences >= 1", "Microsoft Academic (simulated)", 20, "0.5061706092693488", "0.5717105263157894"),
    ("#occurrences >= 1", "Microsoft Academic (simulated)", 30, "0.4800865658578235", "0.48004385964912283"),
    ("#occurrences >= 1", "Microsoft Academic (simulated)", 40, "0.4565878101699198", "0.43125444523470835"),
    ("#occurrences >= 1", "AMiner (simulated)", 20, "0.49622882486327863", "0.5592105263157895"),
    ("#occurrences >= 1", "AMiner (simulated)", 30, "0.48091989919115685", "0.48004385964912283"),
    ("#occurrences >= 1", "AMiner (simulated)", 40, "0.45296462176412267", "0.42812944523470836"),
    ("#occurrences >= 1", "PageRank", 20, "0.20695764025609661", "0.23124999999999996"),
    ("#occurrences >= 1", "PageRank", 30, "0.2005806127836667", "0.18333333333333332"),
    ("#occurrences >= 1", "PageRank", 40, "0.1995727239020286", "0.1625"),
    ("#occurrences >= 1", "SciBERT (semantic matcher)", 20, "0.4251666362183135", "0.45625000000000004"),
    ("#occurrences >= 1", "SciBERT (semantic matcher)", 30, "0.41880995546659605", "0.37083333333333335"),
    ("#occurrences >= 1", "SciBERT (semantic matcher)", 40, "0.39116754649240976", "0.309375"),
    ("#occurrences >= 2", "NEWST", 20, "0.4367420893974789", "0.38125"),
    ("#occurrences >= 2", "NEWST", 30, "0.39915629631890803", "0.3"),
    ("#occurrences >= 2", "NEWST", 40, "0.3568335386550887", "0.246875"),
    ("#occurrences >= 2", "Google Scholar (simulated)", 20, "0.3169959741823027", "0.29073886639676105"),
    ("#occurrences >= 2", "Google Scholar (simulated)", 30, "0.30148735934436044", "0.25323886639676113"),
    ("#occurrences >= 2", "Google Scholar (simulated)", 40, "0.28775016207219534", "0.23288413666703145"),
    ("#occurrences >= 2", "Microsoft Academic (simulated)", 20, "0.3166098737962023", "0.2907388663967611"),
    ("#occurrences >= 2", "Microsoft Academic (simulated)", 30, "0.3008337645731186", "0.25323886639676113"),
    ("#occurrences >= 2", "Microsoft Academic (simulated)", 40, "0.29213612698447605", "0.23600913666703144"),
    ("#occurrences >= 2", "AMiner (simulated)", 20, "0.3181864503727789", "0.2907388663967611"),
    ("#occurrences >= 2", "AMiner (simulated)", 30, "0.30148735934436044", "0.25323886639676113"),
    ("#occurrences >= 2", "AMiner (simulated)", 40, "0.28775016207219534", "0.23288413666703145"),
    ("#occurrences >= 2", "PageRank", 20, "0.229944601227056", "0.20625000000000002"),
    ("#occurrences >= 2", "PageRank", 30, "0.2117816011545597", "0.1625"),
    ("#occurrences >= 2", "PageRank", 40, "0.2050861889975223", "0.14375000000000002"),
    ("#occurrences >= 2", "SciBERT (semantic matcher)", 20, "0.27262203475814806", "0.2375"),
    ("#occurrences >= 2", "SciBERT (semantic matcher)", 30, "0.26055002696460006", "0.19583333333333333"),
    ("#occurrences >= 2", "SciBERT (semantic matcher)", 40, "0.23633621398987084", "0.1625"),
    ("#occurrences >= 3", "NEWST", 20, "0.2387534735379563", "0.15625"),
    ("#occurrences >= 3", "NEWST", 30, "0.19913617943803702", "0.12083333333333332"),
    ("#occurrences >= 3", "NEWST", 40, "0.17701773726618447", "0.10312500000000001"),
    ("#occurrences >= 3", "Google Scholar (simulated)", 20, "0.25181232307246504", "0.16700404858299597"),
    ("#occurrences >= 3", "Google Scholar (simulated)", 30, "0.21345861826511983", "0.13367071524966262"),
    ("#occurrences >= 3", "Google Scholar (simulated)", 40, "0.1929748818933724", "0.11776418371813108"),
    ("#occurrences >= 3", "Microsoft Academic (simulated)", 20, "0.24288375164389364", "0.16075404858299597"),
    ("#occurrences >= 3", "Microsoft Academic (simulated)", 30, "0.21986887467537625", "0.13783738191632927"),
    ("#occurrences >= 3", "Microsoft Academic (simulated)", 40, "0.1929748818933724", "0.11776418371813108"),
    ("#occurrences >= 3", "AMiner (simulated)", 20, "0.251504441299066", "0.16700404858299592"),
    ("#occurrences >= 3", "AMiner (simulated)", 30, "0.21345861826511983", "0.13367071524966262"),
    ("#occurrences >= 3", "AMiner (simulated)", 40, "0.1929748818933724", "0.11776418371813108"),
    ("#occurrences >= 3", "PageRank", 20, "0.09328991410887964", "0.06250000000000001"),
    ("#occurrences >= 3", "PageRank", 30, "0.08087569035711452", "0.049999999999999996"),
    ("#occurrences >= 3", "PageRank", 40, "0.07455074256316492", "0.043750000000000004"),
    ("#occurrences >= 3", "SciBERT (semantic matcher)", 20, "0.21020951749400024", "0.1375"),
    ("#occurrences >= 3", "SciBERT (semantic matcher)", 30, "0.1713567950797053", "0.10416666666666666"),
    ("#occurrences >= 3", "SciBERT (semantic matcher)", 40, "0.1566845809470033", "0.09062500000000001"),
];

/// Fails unless `table` equals `pins` row for row, comparing their `{:?}`
/// forms; on a mismatch prints the table that would match, as source.
fn assert_pinned<T: Debug, P: Debug>(name: &str, table: &[T], pins: &[P]) {
    let table: Vec<String> = table.iter().map(|row| format!("{row:?}")).collect();
    let pins: Vec<String> = pins.iter().map(|row| format!("{row:?}")).collect();
    if table == pins {
        return;
    }
    let moved = table.iter().filter(|row| !pins.contains(row)).count();
    println!("const {name}: &[{}] = &[", std::any::type_name::<P>());
    for row in &table {
        println!("    {row},");
    }
    println!("];");
    panic!(
        "{moved} of {} {name} rows differ from their pins; the matching table is printed above",
        table.len()
    );
}

#[test]
fn observation_study_shows_the_expansion_effect() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 10, 8, 2);
    let report = fig2_overlap::run(&ctx, &[30], 8);
    let panel = &report.panels[0];
    // Observation II: 2nd-order neighbourhoods cover clearly more of the
    // reference list than the direct engine results.
    assert!(panel.ratios[2][0] > panel.ratios[0][0]);
    // Observation I: the direct results do not cover the full reference list.
    assert!(panel.ratios[0][0] < 0.9);
}

#[test]
fn statistics_report_matches_the_survey_bank() {
    let corpus = demo_corpus();
    let report = fig4_statistics::run(&corpus);
    assert_eq!(
        report.citation_distribution.total(),
        corpus.survey_bank().len()
    );
    assert!(report.summary.avg_survey_references > 5.0);
    assert!(!fig4_statistics::format(&report).is_empty());
}

#[test]
fn main_comparison_produces_the_papers_ordering() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 15, 8, 2);
    let report = fig8_main::run(&ctx, &[20, 30, 40]);
    assert_eq!(report.levels.len(), 3);

    let mean_f1 = |method: &str| {
        let curve = report.curve(LabelLevel::AtLeastOne, method).unwrap();
        curve.points.iter().map(|p| p.f1).sum::<f64>() / curve.points.len() as f64
    };
    let newst = mean_f1("NEWST");
    let pagerank = mean_f1("PageRank");
    assert!(newst > 0.0);
    // The paper's most robust ordering: NEWST clearly above the PageRank
    // re-ranking baseline.
    assert!(
        newst > pagerank,
        "NEWST {newst:.3} vs PageRank {pagerank:.3}"
    );

    let mut table = Vec::new();
    for (level, curves) in &report.levels {
        for curve in curves {
            for point in &curve.points {
                table.push((
                    level.as_str(),
                    curve.method.as_str(),
                    point.k,
                    format!("{:?}", point.f1),
                    format!("{:?}", point.precision),
                ));
            }
        }
    }
    assert_pinned("FIG8", &table, FIG8);
}

#[test]
fn seed_count_sweep_and_ablation_run_to_completion() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 15, 6, 2);

    let table2 = table2_seed_count::run(&ctx, &[10, 30], 30, LabelLevel::AtLeastOne);
    assert_eq!(table2.rows.len(), 2);
    assert!(table2
        .rows
        .iter()
        .all(|r| r.f1 >= 0.0 && r.precision <= 1.0));

    let table3 = table3_ablation::run(&ctx, 30, LabelLevel::AtLeastOne);
    assert_eq!(table3.rows.len(), 7);
    let newst = table3.row(rpg_repager::Variant::Newst).unwrap();
    assert!(newst.f1 > 0.0);

    let table: Vec<(&str, String, String)> = table3
        .rows
        .iter()
        .map(|row| {
            (
                row.variant.as_str(),
                format!("{:?}", row.f1),
                format!("{:?}", row.precision),
            )
        })
        .collect();
    assert_pinned("TABLE3", &table, TABLE3);
}

#[test]
fn runtime_study_reports_interactive_latencies() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 15, 5, 2);
    let report = table4_runtime::run(&ctx, 5);
    let avg = report.average.expect("measured at least one query");
    assert!(
        avg.millis < 10_000.0,
        "query latency {:.0}ms is not interactive",
        avg.millis
    );
    assert!(avg.nodes > 0);
}

#[test]
fn human_proxy_prefers_newst_for_prerequisites() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
    let report = table5_human::run(&ctx, 4, 30);
    assert_eq!(report.rows.len(), 6);
    let prereq_b: f64 = report
        .rows
        .iter()
        .filter(|r| r.criterion == "Prerequisite")
        .map(|r| r.shares.prefer_b)
        .sum();
    let prereq_a: f64 = report
        .rows
        .iter()
        .filter(|r| r.criterion == "Prerequisite")
        .map(|r| r.shares.prefer_a)
        .sum();
    assert!(prereq_b >= prereq_a);
}

#[test]
fn case_study_discovers_prerequisite_papers() {
    let corpus = demo_corpus();
    let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
    let report = fig9_case_study::run(&ctx, None);
    assert!(!report.path_papers.is_empty());
    assert!(!report.discovered_papers.is_empty());
    assert!(report.rendered_dot.contains("digraph"));
}
