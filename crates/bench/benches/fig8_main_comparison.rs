//! Regenerates Fig. 8 (F1@K / P@K of NEWST vs. the five baselines) and
//! benchmarks a single end-to-end NEWST query.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_corpus, bench_threads, BENCH_SURVEY_LIMIT};
use rpg_eval::experiments::{fig8_main, ExperimentContext};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};

fn fig8(c: &mut Criterion) {
    let corpus = bench_corpus();
    let ctx = ExperimentContext::new(&corpus, 20, BENCH_SURVEY_LIMIT, bench_threads());

    let report = fig8_main::run(&ctx, &[20, 25, 30, 35, 40, 45, 50]);
    println!("\n{}", fig8_main::format(&report));

    let survey = &ctx.set.surveys[0];
    let exclude = [survey.paper];
    let mut group = c.benchmark_group("fig8_main_comparison");
    group.sample_size(10);
    let mut scratch = PipelineScratch::new();
    group.bench_function("newst_single_query_top30", |b| {
        b.iter(|| {
            let request = PathRequest {
                query: &survey.query,
                top_k: 30,
                max_year: Some(survey.year),
                exclude: &exclude,
                config: RepagerConfig::default(),
                variant: Variant::Newst,
            };
            ctx.system
                .generate(&request, &mut scratch)
                .unwrap()
                .reading_list
                .len()
        })
    });
    group.bench_function("scholar_single_query_top30", |b| {
        b.iter(|| {
            ctx.system
                .scholar()
                .seed_papers(&rpg_engines::Query {
                    text: &survey.query,
                    top_k: 30,
                    max_year: Some(survey.year),
                    exclude: &exclude,
                })
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
