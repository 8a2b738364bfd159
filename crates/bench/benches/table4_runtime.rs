//! Regenerates Table IV (running time vs. sub-graph size) and benchmarks the
//! end-to-end pipeline plus its Steiner stage in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use rpg_bench::{bench_corpus, bench_threads, BENCH_SURVEY_LIMIT};
use rpg_eval::experiments::{table4_runtime, ExperimentContext};
use rpg_repager::system::PathRequest;
use rpg_repager::{PipelineScratch, RepagerConfig, Variant};

fn table4(c: &mut Criterion) {
    let corpus = bench_corpus();
    let ctx = ExperimentContext::new(&corpus, 20, BENCH_SURVEY_LIMIT, bench_threads());

    let report = table4_runtime::run(&ctx, BENCH_SURVEY_LIMIT);
    println!("\n{}", table4_runtime::format(&report));

    // Benchmark the end-to-end generation for the smallest and largest
    // representative cases, mirroring the per-case rows of Table IV.
    let mut group = c.benchmark_group("table4_runtime");
    group.sample_size(10);
    let cases: Vec<(String, String, u16, rpg_corpus::PaperId)> = ctx
        .set
        .surveys
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, s)| (format!("case_{}", i + 1), s.query.clone(), s.year, s.paper))
        .collect();
    let mut scratch = PipelineScratch::new();
    for (name, query, year, paper) in &cases {
        let exclude = [*paper];
        group.bench_function(format!("end_to_end_{name}"), |b| {
            b.iter(|| {
                let request = PathRequest {
                    query,
                    top_k: 30,
                    max_year: Some(*year),
                    exclude: &exclude,
                    config: RepagerConfig::default(),
                    variant: Variant::Newst,
                };
                ctx.system
                    .generate(&request, &mut scratch)
                    .unwrap()
                    .subgraph_nodes
            })
        });
    }
    group.finish();
}

criterion_group!(benches, table4);
criterion_main!(benches);
