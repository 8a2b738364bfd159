//! Heap-allocation ceilings for the layers of one request, on the
//! demonstration corpus.
//!
//! Timings move from run to run on a shared host; allocation counts do not.
//! This binary installs a counting global allocator over [`System`]: every
//! `alloc`, `alloc_zeroed` and `realloc` call bumps a counter of the calling
//! thread, so tests running in parallel do not mix. Each test runs the 48
//! demo surveys in evaluation form (`max_year` = the survey's year, the
//! survey itself excluded, 30 seeds and `top_k` 30), once to warm every
//! buffer and cache and once counted, and asserts a ceiling on the median
//! (the upper middle of the 48 sorted counts) and on the mean.
//!
//! The layers counted:
//! - the seed stage, as `ScholarEngine::seed_papers`, in evaluation form and
//!   with the cut-off two years earlier;
//! - a whole `CorpusArtifacts::generate` on one warm `PipelineScratch`;
//! - a `CorpusRegistry::probe` hit;
//! - the response writer, `api::generate_response_body`.
//!
//! Ceilings only go down. A change that lowers a count lowers its ceiling
//! with it and says so in `CHANGES.md`; a change that raises one fails here.

use rpg_corpus::PaperId;
use rpg_engines::Query;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::system::{PathRequest, RepagerOutput};
use rpg_repager::PipelineScratch;
use rpg_repro::demo_artifacts;
use rpg_server::api;
use rpg_service::CorpusRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Seeds and reading-list length of the evaluation form.
const TOP_K: usize = 30;

/// `(layer, median ceiling, mean ceiling)`, in allocation calls per request.
const CEILINGS: &[(&str, u64, u64)] = &[
    ("seed", 534, 984),
    ("seed at year - 2", 409, 828),
    ("generate", 1_156, 1_598),
    ("registry hit", 3, 3),
    ("response writer", 2, 2),
];

thread_local! {
    /// Allocation calls this thread has made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting allocation calls per thread.
struct Counting;

fn count_call() {
    // A thread being torn down may still free or allocate; its count is of
    // no interest by then.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocation calls `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// The demo artifacts, built once for the whole binary.
fn artifacts() -> &'static Arc<CorpusArtifacts> {
    static ARTIFACTS: OnceLock<Arc<CorpusArtifacts>> = OnceLock::new();
    ARTIFACTS.get_or_init(demo_artifacts)
}

/// One demo survey, asked in evaluation form.
struct Survey {
    query: &'static str,
    exclude: [PaperId; 1],
    year: u16,
}

impl Survey {
    fn request(&self) -> PathRequest<'_> {
        PathRequest {
            max_year: Some(self.year),
            exclude: &self.exclude,
            ..PathRequest::new(self.query, TOP_K)
        }
    }
}

/// The 48 demo surveys, in survey-bank order.
fn surveys() -> Vec<Survey> {
    artifacts()
        .corpus()
        .survey_bank()
        .iter()
        .map(|survey| Survey {
            query: &survey.query,
            exclude: [survey.paper],
            year: survey.year,
        })
        .collect()
}

/// Runs `run` over every survey once to warm up, then again, returning the
/// second pass's results.
fn warm_then_counted<T>(mut run: impl FnMut(&Survey) -> T) -> Vec<T> {
    let surveys = surveys();
    surveys.iter().for_each(|survey| drop(run(survey)));
    surveys.iter().map(run).collect()
}

/// Asserts `layer`'s ceilings over one count per survey.
fn assert_within_ceilings(layer: &str, mut counts: Vec<u64>) {
    let &(_, median_ceiling, mean_ceiling) = CEILINGS
        .iter()
        .find(|(name, ..)| *name == layer)
        .unwrap_or_else(|| panic!("no ceiling for {layer}"));
    assert_eq!(counts.len(), 48, "{layer}: one count per demo survey");
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    println!("{layer}: median {median}, mean {mean:.1} allocation calls");
    assert!(
        median <= median_ceiling && mean <= mean_ceiling as f64,
        "{layer}: median {median} and mean {mean:.1} allocation calls per request; \
         the ceilings are {median_ceiling} and {mean_ceiling}"
    );
}

/// The seed stage's counts with the cut-off `back` years before each
/// survey's year.
fn seed_counts(back: u16) -> Vec<u64> {
    let scholar = artifacts().scholar();
    warm_then_counted(|survey| {
        let query = Query {
            text: survey.query,
            top_k: TOP_K,
            max_year: Some(survey.year.saturating_sub(back)),
            exclude: &survey.exclude,
        };
        counted(|| scholar.seed_papers(&query)).0
    })
}

/// Each survey's count and output from `generate` on one warm scratch.
fn generate_all() -> Vec<(u64, RepagerOutput)> {
    let mut scratch = PipelineScratch::new();
    warm_then_counted(|survey| {
        let (calls, output) = counted(|| artifacts().generate(&survey.request(), &mut scratch));
        (calls, output.expect("demo survey generates"))
    })
}

#[test]
fn seed_stage_stays_within_its_ceilings() {
    assert_within_ceilings("seed", seed_counts(0));
    assert_within_ceilings("seed at year - 2", seed_counts(2));
}

#[test]
fn generate_stays_within_its_ceilings() {
    let counts = generate_all().into_iter().map(|(calls, _)| calls).collect();
    assert_within_ceilings("generate", counts);
}

#[test]
fn registry_hit_stays_within_its_ceilings() {
    let registry = CorpusRegistry::new();
    registry.register_artifacts("demo", artifacts().clone());
    let counts = warm_then_counted(|survey| {
        let request = survey.request();
        registry
            .generate("demo", &request)
            .expect("demo survey generates");
        let (calls, hit) = counted(|| registry.probe("demo", &request, None));
        assert!(
            hit.is_some(),
            "{}: a probe after the run hits",
            survey.query
        );
        calls
    });
    assert_within_ceilings("registry hit", counts);
}

#[test]
fn response_writer_stays_within_its_ceilings() {
    let outputs = generate_all();
    let counts = outputs
        .iter()
        .map(|(_, output)| counted(|| api::generate_response_body("demo", output, false)).0)
        .collect();
    assert_within_ceilings("response writer", counts);
}
