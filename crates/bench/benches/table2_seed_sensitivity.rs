//! Regenerates Table II (sensitivity to the number of initial seed papers)
//! and benchmarks NEWST queries at two seed counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_corpus, bench_threads, BENCH_SURVEY_LIMIT};
use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{table2_seed_count, ExperimentContext};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};

fn table2(c: &mut Criterion) {
    let corpus = bench_corpus();
    let ctx = ExperimentContext::new(&corpus, 20, BENCH_SURVEY_LIMIT, bench_threads());

    let report = table2_seed_count::run(
        &ctx,
        &[10, 15, 20, 25, 30, 40, 50],
        30,
        LabelLevel::AtLeastOne,
    );
    println!("\n{}", table2_seed_count::format(&report));

    let survey = &ctx.set.surveys[0];
    let exclude = [survey.paper];
    let mut group = c.benchmark_group("table2_seed_sensitivity");
    group.sample_size(10);
    let mut scratch = PipelineScratch::new();
    for seeds in [10usize, 50] {
        group.bench_function(format!("newst_query_{seeds}_seeds"), |b| {
            b.iter(|| {
                let request = PathRequest {
                    query: &survey.query,
                    top_k: 30,
                    max_year: Some(survey.year),
                    exclude: &exclude,
                    config: RepagerConfig::default().with_seed_count(seeds),
                    variant: Variant::Newst,
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

criterion_group!(benches, table2);
criterion_main!(benches);
