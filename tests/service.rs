//! Integration tests for the two ways to run a request over the demo
//! corpus: the uncached `CorpusArtifacts::generate` and the cached
//! `CorpusRegistry`. Concurrency, caching and stage timings.

mod common;

use common::{demo_queries, demo_registry};
use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::PipelineScratch;
use rpg_repro::demo_artifacts;
use std::time::Duration;

#[test]
fn shared_service_across_threads_matches_serial_runs() {
    let registry = demo_registry();
    let artifacts = registry.artifacts("default").unwrap();
    let surveys = demo_queries(5);
    let mut scratch = PipelineScratch::new();
    let serial: Vec<RepagerOutput> = surveys
        .iter()
        .map(|(query, year)| {
            artifacts
                .generate(
                    &PathRequest {
                        max_year: Some(*year),
                        ..PathRequest::new(query, 25)
                    },
                    &mut scratch,
                )
                .unwrap()
        })
        .collect();

    // N threads hammer the same registry; every output must carry exactly
    // the result of the serial reference run.
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let registry = &registry;
            let surveys = &surveys;
            let serial = &serial;
            scope.spawn(move || {
                // Stagger the per-thread order so threads collide on
                // different requests.
                for i in 0..surveys.len() {
                    let pick = (i + worker) % surveys.len();
                    let (query, year) = &surveys[pick];
                    let served = registry
                        .generate(
                            "default",
                            &PathRequest {
                                max_year: Some(*year),
                                ..PathRequest::new(query, 25)
                            },
                        )
                        .unwrap();
                    assert!(
                        served.output.same_result(&serial[pick]),
                        "thread {worker} diverged on query {query:?}"
                    );
                }
            });
        }
    });
}

#[test]
fn repeated_identical_request_hits_the_cache_with_identical_list() {
    let registry = demo_registry();
    let (query, year) = demo_queries(1).remove(0);
    let request = PathRequest {
        max_year: Some(year),
        ..PathRequest::new(&query, 30)
    };
    let first = registry.generate("default", &request).unwrap();
    let before = registry.cache_stats();
    let second = registry.generate("default", &request).unwrap();
    let after = registry.cache_stats();
    assert_eq!(
        after.hits,
        before.hits + 1,
        "second request must be a cache hit"
    );
    assert!(!first.cached && second.cached);
    assert_eq!(first.output.reading_list, second.output.reading_list);
    assert!(first.output.same_result(&second.output));
}

#[test]
fn outputs_expose_all_five_stage_timings() {
    let (query, year) = demo_queries(1).remove(0);
    let output = demo_artifacts()
        .generate(
            &PathRequest {
                max_year: Some(year),
                ..PathRequest::new(&query, 30)
            },
            &mut PipelineScratch::new(),
        )
        .unwrap();
    let timings = output.timings;
    let stages = timings.stages();
    assert_eq!(stages.len(), 5);
    for (name, duration) in stages {
        assert!(
            duration > Duration::ZERO,
            "stage {name} has no recorded time"
        );
    }
    assert!(timings.stage_sum() <= timings.total);
    // Stage timings sum to ≈ the total: only bounded pipeline bookkeeping
    // falls outside the five stages. An absolute gap keeps this stable on
    // loaded CI runners, where a scheduler stall between stages would break
    // a strict ratio.
    let gap = timings.total - timings.stage_sum();
    assert!(
        gap < Duration::from_millis(250),
        "non-stage overhead {gap:?} is too large for {:?} total",
        timings.total
    );
}
