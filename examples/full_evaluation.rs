//! Runs every experiment of the evaluation section in one go and prints the
//! paper-style tables and series, on the default-scale benchmark corpus
//! (`rpg_bench::bench_corpus()`, the corpus the serving benchmark serves).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example full_evaluation
//! ```

use rpg_bench::bench_corpus;
use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{
    fig2_overlap, fig4_statistics, fig8_main, fig9_case_study, table2_seed_count, table3_ablation,
    table4_runtime, table5_human, ExperimentContext,
};

fn main() {
    let started = std::time::Instant::now();
    let corpus = bench_corpus();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let ctx = ExperimentContext::new(&corpus, 20, 24, threads);
    println!(
        "corpus: {} papers, {} citation edges, {} surveys ({} evaluated), {} threads\n",
        corpus.len(),
        corpus.graph().edge_count(),
        corpus.survey_bank().len(),
        ctx.set.len(),
        threads
    );

    println!(
        "{}",
        fig2_overlap::format(&fig2_overlap::run(&ctx, &[30, 50], 24))
    );
    println!(
        "{}",
        fig4_statistics::format(&fig4_statistics::run(&corpus))
    );
    println!(
        "{}",
        fig8_main::format(&fig8_main::run(&ctx, &[20, 25, 30, 35, 40, 45, 50]))
    );
    println!(
        "{}",
        table2_seed_count::format(&table2_seed_count::run(
            &ctx,
            &[10, 15, 20, 25, 30, 40, 50],
            30,
            LabelLevel::AtLeastOne
        ))
    );
    println!(
        "{}",
        table3_ablation::format(&table3_ablation::run(&ctx, 30, LabelLevel::AtLeastOne))
    );
    println!("{}", table4_runtime::format(&table4_runtime::run(&ctx, 24)));
    println!("{}", table5_human::format(&table5_human::run(&ctx, 20, 30)));
    println!(
        "{}",
        fig9_case_study::format(&fig9_case_study::run(&ctx, None))
    );

    println!("total evaluation time: {:?}", started.elapsed());
}
