//! The workload seed fixes the request list and the arrival schedule.

use rpg_servebench::plan::{Plan, Workload};
use rpg_servebench::run::Args;
use std::collections::HashSet;

#[test]
fn same_seed_gives_the_same_plan_and_another_seed_does_not() {
    let corpus = rpg_corpus::generate(&rpg_bench::bench_corpus_config());
    let surveys: Vec<_> = corpus.survey_bank().iter().collect();
    for workload in Workload::ALL {
        let plan = Plan::new(workload, 7, 30.0, &surveys);
        let again = Plan::new(workload, 7, 30.0, &surveys);
        let other = Plan::new(workload, 8, 30.0, &surveys);
        assert_eq!(plan, again, "{}", workload.name());
        assert_eq!(plan.digest(), again.digest(), "{}", workload.name());
        assert_ne!(plan.digest(), other.digest(), "{}", workload.name());
    }
    // Cold requests never repeat a fingerprint within a run.
    let cold = Plan::new(Workload::Cold, 7, 30.0, &surveys);
    let bodies: HashSet<&str> = cold.requests.iter().map(|r| r.body.as_str()).collect();
    assert_eq!(bodies.len(), cold.requests.len());
    assert_eq!(cold.arrivals().count(), cold.requests.len());
}

#[test]
fn command_line_is_validated() {
    let parse = |line: &str| Args::parse(line.split_whitespace().map(str::to_string));
    let args = parse("--workload cold_generate --seed 3 --seconds 12 --trace 1").unwrap();
    assert_eq!(args.workload, Workload::Cold);
    assert_eq!((args.seed, args.seconds, args.trace), (3, 12, true));
    assert!(parse("--workload nope --seed 1").is_err());
    assert!(parse("--workload hot_generate").is_err());
    assert!(parse("--workload hot_generate --seed 1 --trace 2").is_err());
}
