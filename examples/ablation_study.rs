//! The ablation and sensitivity studies (Table II and Table III) plus the
//! runtime study (Table IV) on the default-scale benchmark corpus
//! (`rpg_bench::bench_corpus()`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ablation_study
//! ```

use rpg_bench::bench_corpus;
use rpg_corpus::LabelLevel;
use rpg_eval::experiments::{
    table2_seed_count, table3_ablation, table4_runtime, ExperimentContext,
};

fn main() {
    let corpus = bench_corpus();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let ctx = ExperimentContext::new(&corpus, 20, 20, threads);
    println!("evaluating {} surveys\n", ctx.set.len());

    // Table II — seed-count sensitivity.
    let table2 = table2_seed_count::run(
        &ctx,
        &[10, 15, 20, 25, 30, 40, 50],
        30,
        LabelLevel::AtLeastOne,
    );
    println!("{}", table2_seed_count::format(&table2));

    // Table III — variant ablation.
    let table3 = table3_ablation::run(&ctx, 30, LabelLevel::AtLeastOne);
    println!("{}", table3_ablation::format(&table3));

    // Table IV — running time.
    let table4 = table4_runtime::run(&ctx, 20);
    println!("{}", table4_runtime::format(&table4));
}
