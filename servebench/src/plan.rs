//! Seeded workload plans: which requests each workload sends, and when.
//!
//! A plan is a pure function of the workload, the seed, the run length and
//! the corpus's survey bank, so the same seed always yields the same
//! request list and arrival schedule ([`Plan::digest`] proves it). The
//! server only ever sees the generated requests.

use rpg_corpus::Survey;
use serde::value::Value;
use std::time::Duration;

/// The tenant every workload targets (the server's default corpus).
pub const CORPUS: &str = "default";

/// Distinct keys of `hot_generate`, all warmed into the cache.
pub const HOT_KEYS: usize = 64;
/// Zipf exponent of the hot key popularity.
const HOT_ZIPF_S: f64 = 1.0;
/// `top_k` of every evaluation-form request (the paper's F1@30).
const EVAL_TOP_K: usize = 30;
// Cold-workload parameter sets around the defaults (30, 30, survey year);
// each survey's 5 × 5 × 3 combinations are drawn without replacement.
const COLD_TOP_K: [usize; 5] = [26, 28, 30, 32, 34];
const COLD_SEED_COUNT: [usize; 5] = [26, 28, 30, 32, 34];
const COLD_YEARS_BACK: [u16; 3] = [0, 1, 2];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over ~64 warmed keys: every request is a cache hit.
    Hot,
    /// Open loop over never-repeated fingerprints: every request misses.
    Cold,
    /// Closed loop of refresh + one 94-survey `/v1/batch` per round.
    Batch,
}

/// One step of an open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungSpec {
    /// Offered requests per second.
    pub rate: f64,
    /// Share of the run's seconds this rung lasts.
    pub share: f64,
}

/// A workload's latency limit: `quantile` of the nominal-rung latencies
/// (or, for the closed loop, of the batch exchanges) must stay within `ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyLimit {
    /// The quantile the limit applies to.
    pub quantile: f64,
    /// The bound, in milliseconds.
    pub ms: f64,
}

// Rungs sit far apart: this workload's capacity on a shared 2-vCPU host
// moves between roughly 1,500 and 4,000 req/s with the host's load, and
// the ladder must not flip between runs.
const HOT_LADDER: [RungSpec; 3] = [
    RungSpec {
        rate: 250.0,
        share: 0.5,
    },
    RungSpec {
        rate: 500.0,
        share: 0.25,
    },
    RungSpec {
        rate: 8000.0,
        share: 0.25,
    },
];
// The nominal rung is one pass over the survey bank in a 30 s run: each
// survey once, so its latency mix is the same for every seed.
const COLD_LADDER: [RungSpec; 3] = [
    RungSpec {
        rate: 5.0,
        share: 0.627,
    },
    RungSpec {
        rate: 10.0,
        share: 0.24,
    },
    RungSpec {
        rate: 40.0,
        share: 0.133,
    },
];

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Hot, Workload::Cold, Workload::Batch];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot_generate",
            Workload::Cold => "cold_generate",
            Workload::Batch => "survey_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The open-loop rate ladder (empty for the closed loop). The first
    /// rung is the nominal one: the most samples, at a rate the server
    /// sustains even when the host is busy.
    pub fn ladder(self) -> &'static [RungSpec] {
        match self {
            Workload::Hot => &HOT_LADDER,
            Workload::Cold => &COLD_LADDER,
            Workload::Batch => &[],
        }
    }

    /// The latency limit `max_rate_rps` is judged against.
    pub fn limit(self) -> LatencyLimit {
        match self {
            Workload::Hot => LatencyLimit {
                quantile: 0.99,
                ms: 50.0,
            },
            Workload::Cold => LatencyLimit {
                quantile: 0.95,
                ms: 2000.0,
            },
            Workload::Batch => LatencyLimit {
                quantile: 0.5,
                ms: 10_000.0,
            },
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by its
/// seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated request: the survey it is about and its wire body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into the survey bank.
    pub survey: usize,
    /// The `POST /v1/generate` body (also one `/v1/batch` item).
    pub body: String,
}

/// One scheduled send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the rung's start.
    pub at: Duration,
    /// Index into [`Plan::requests`].
    pub request: usize,
}

/// One rung of an open-loop ladder, with its arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// How long the rung schedules arrivals.
    pub duration: Duration,
    /// Arrivals in send order.
    pub arrivals: Vec<Arrival>,
}

/// Everything a run sends, fixed by the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Hot: the distinct keys. Cold: one fresh request per arrival.
    /// Batch: one evaluation-form request per survey.
    pub requests: Vec<Request>,
    /// The open-loop ladder (empty for the closed loop).
    pub rungs: Vec<Rung>,
    /// Batch: the item order of each round (request indices).
    pub rounds: Vec<Vec<usize>>,
}

/// The `/v1/generate` body for a survey with the given parameters.
fn body(survey: &Survey, top_k: usize, max_year: u16, seed_count: Option<usize>) -> String {
    let mut fields = vec![
        ("query".to_string(), Value::String(survey.query.clone())),
        ("top_k".to_string(), Value::Number(top_k as f64)),
        ("max_year".to_string(), Value::Number(f64::from(max_year))),
        (
            "exclude".to_string(),
            Value::Array(vec![Value::Number(f64::from(survey.paper.0))]),
        ),
    ];
    if let Some(seed_count) = seed_count {
        fields.push(("seed_count".to_string(), Value::Number(seed_count as f64)));
    }
    serde_json::to_string(&Value::Object(fields)).expect("request body serialises")
}

/// The paper's evaluation form: the survey's query, restricted to papers up
/// to its year, excluding the survey itself, top 30.
fn eval_request(surveys: &[&Survey], index: usize) -> Request {
    let survey = surveys[index];
    Request {
        survey: index,
        body: body(survey, EVAL_TOP_K, survey.year, None),
    }
}

/// Rounds of `survey_batch` planned ahead; a run stops long before.
const BATCH_ROUNDS: usize = 64;

impl Plan {
    /// Generates the plan for `workload` from `seed` over a run of
    /// `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, surveys: &[&Survey]) -> Plan {
        assert!(surveys.len() >= HOT_KEYS, "survey bank too small");
        let mut rng = Rng::new(seed ^ 0x5EED_0FBE_4C4A_11A5);
        let mut plan = Plan {
            workload,
            requests: Vec::new(),
            rungs: Vec::new(),
            rounds: Vec::new(),
        };
        match workload {
            Workload::Hot => {
                plan.requests = (0..HOT_KEYS).map(|i| eval_request(surveys, i)).collect();
                let cdf = zipf_cdf(HOT_KEYS, HOT_ZIPF_S);
                plan.rungs = ladder(workload, seconds, &mut rng, |rng, _| {
                    let u = rng.unit();
                    cdf.partition_point(|&c| c <= u).min(HOT_KEYS - 1)
                });
            }
            Workload::Cold => {
                let mut cold = ColdDraw::new(surveys, &mut rng);
                let mut requests = Vec::new();
                plan.rungs = ladder(workload, seconds, &mut rng, |rng, _| {
                    requests.push(cold.next(surveys, rng));
                    requests.len() - 1
                });
                plan.requests = requests;
            }
            Workload::Batch => {
                plan.requests = (0..surveys.len())
                    .map(|i| eval_request(surveys, i))
                    .collect();
                plan.rounds = (0..BATCH_ROUNDS)
                    .map(|_| {
                        let mut order: Vec<usize> = (0..surveys.len()).collect();
                        rng.shuffle(&mut order);
                        order
                    })
                    .collect();
            }
        }
        plan
    }

    /// Every arrival of every rung, in schedule order.
    pub fn arrivals(&self) -> impl Iterator<Item = &Arrival> {
        self.rungs.iter().flat_map(|rung| rung.arrivals.iter())
    }

    /// FNV-1a digest of the request list and the arrival schedule.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        hash.write(self.workload.name().as_bytes());
        for request in &self.requests {
            hash.write(&(request.survey as u64).to_le_bytes());
            hash.write(request.body.as_bytes());
        }
        for rung in &self.rungs {
            hash.write(&rung.rate.to_bits().to_le_bytes());
            hash.write(&(rung.duration.as_nanos() as u64).to_le_bytes());
            for arrival in &rung.arrivals {
                hash.write(&(arrival.at.as_nanos() as u64).to_le_bytes());
                hash.write(&(arrival.request as u64).to_le_bytes());
            }
        }
        for round in &self.rounds {
            for &item in round {
                hash.write(&(item as u64).to_le_bytes());
            }
        }
        hash.0
    }
}

/// Builds the rungs of `workload`'s ladder over `seconds`: each rung holds
/// exactly `rate × duration` arrivals at seeded uniform times (a Poisson
/// process conditioned on its count, so the offered rate is exact), and
/// `pick` chooses each arrival's request.
fn ladder(
    workload: Workload,
    seconds: f64,
    rng: &mut Rng,
    mut pick: impl FnMut(&mut Rng, usize) -> usize,
) -> Vec<Rung> {
    workload
        .ladder()
        .iter()
        .map(|spec| {
            let duration = Duration::from_secs_f64(seconds * spec.share);
            let count = ((spec.rate * duration.as_secs_f64()).round() as usize).max(1);
            let mut offsets: Vec<f64> = (0..count)
                .map(|_| rng.unit() * duration.as_secs_f64())
                .collect();
            offsets.sort_by(f64::total_cmp);
            let arrivals = offsets
                .into_iter()
                .enumerate()
                .map(|(i, at)| Arrival {
                    at: Duration::from_secs_f64(at),
                    request: pick(rng, i),
                })
                .collect();
            Rung {
                rate: spec.rate,
                duration,
                arrivals,
            }
        })
        .collect()
}

/// Cumulative Zipf(s) probabilities over ranks `1..=n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The cold draw: surveys in seeded passes (every survey equally often, so
/// the per-request cost mix is the same for every seed), each survey's
/// parameter combinations drawn without replacement, so no fingerprint
/// repeats within a run.
struct ColdDraw {
    combos: Vec<Vec<(usize, usize, u16)>>,
    pass: Vec<usize>,
    cursor: usize,
}

impl ColdDraw {
    fn new(surveys: &[&Survey], rng: &mut Rng) -> ColdDraw {
        let combos = (0..surveys.len())
            .map(|_| {
                let mut all: Vec<(usize, usize, u16)> = COLD_TOP_K
                    .iter()
                    .flat_map(|&k| {
                        COLD_SEED_COUNT
                            .iter()
                            .flat_map(move |&s| COLD_YEARS_BACK.iter().map(move |&y| (k, s, y)))
                    })
                    .collect();
                rng.shuffle(&mut all);
                all
            })
            .collect();
        ColdDraw {
            combos,
            pass: Vec::new(),
            cursor: 0,
        }
    }

    fn next(&mut self, surveys: &[&Survey], rng: &mut Rng) -> Request {
        if self.cursor == self.pass.len() {
            self.pass = (0..surveys.len()).collect();
            rng.shuffle(&mut self.pass);
            self.cursor = 0;
        }
        let index = self.pass[self.cursor];
        self.cursor += 1;
        let (top_k, seed_count, back) = self.combos[index]
            .pop()
            .expect("cold plan exhausted a survey's parameter combinations");
        let survey = surveys[index];
        Request {
            survey: index,
            body: body(
                survey,
                top_k,
                survey.year.saturating_sub(back),
                Some(seed_count),
            ),
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}
