//! Regenerates Table III (seed-reallocation and weight ablations) and
//! benchmarks the full model against its cheapest ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_corpus, bench_threads, BENCH_SURVEY_LIMIT};
use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{table3_ablation, ExperimentContext};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};

fn table3(c: &mut Criterion) {
    let corpus = bench_corpus();
    let ctx = ExperimentContext::new(&corpus, 20, BENCH_SURVEY_LIMIT, bench_threads());

    let report = table3_ablation::run(&ctx, 30, LabelLevel::AtLeastOne);
    println!("\n{}", table3_ablation::format(&report));

    let survey = &ctx.set.surveys[0];
    let exclude = [survey.paper];
    let mut group = c.benchmark_group("table3_ablation");
    group.sample_size(10);
    let mut scratch = PipelineScratch::new();
    for variant in [
        Variant::Newst,
        Variant::CandidatesOnly,
        Variant::NoEdgeWeights,
    ] {
        group.bench_function(format!("query_{}", variant.name()), |b| {
            b.iter(|| {
                let request = PathRequest {
                    query: &survey.query,
                    top_k: 30,
                    max_year: Some(survey.year),
                    exclude: &exclude,
                    config: RepagerConfig::default(),
                    variant,
                };
                ctx.system
                    .generate(&request, &mut scratch)
                    .unwrap()
                    .reading_list
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, table3);
criterion_main!(benches);
