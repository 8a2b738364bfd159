//! Synthetic corpus generation.
//!
//! This is the stand-in for S2ORC plus the crawled survey collection (see
//! DESIGN.md): a deterministic generator that produces a computer-science
//! corpus whose *structure* matches what the paper's method relies on —
//! power-law citation counts, temporally consistent citation edges, topical
//! clustering, prerequisite chains, and surveys whose reference lists mix
//! directly-on-topic papers with prerequisite papers from other topics.
//!
//! The entry point is [`generate`]; its behaviour is controlled by
//! [`CorpusConfig`].  Generation is fully deterministic given the seed.

use crate::citation::{Candidate, CitationSampler, PoolWeights, Reference};
use crate::paper::{Paper, PaperId, PaperKind};
use crate::pipeline::{self, PipelineConfig};
use crate::store::{text_index, Corpus};
use crate::topic::{TopicCatalog, TopicId};
use crate::venue::{VenueId, VenueTable, VenueTier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic corpus generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// RNG seed; the whole corpus is a pure function of the configuration.
    pub seed: u64,
    /// Base number of research papers per topic (scaled by each topic's
    /// weight).
    pub papers_per_topic: usize,
    /// Number of surveys generated per eligible topic.
    pub surveys_per_topic: usize,
    /// Minimum number of research papers a topic needs before surveys of it
    /// are generated.
    pub min_topic_papers_for_survey: usize,
    /// First publication year of the corpus.
    pub year_start: u16,
    /// Last publication year of the corpus (the paper's reference year is
    /// 2020).
    pub year_end: u16,
    /// Minimum reference-list length of a research paper.
    pub min_references: usize,
    /// Maximum reference-list length of a research paper.
    pub max_references: usize,
    /// Minimum reference-list length of a survey.
    pub min_survey_references: usize,
    /// Maximum reference-list length of a survey.
    pub max_survey_references: usize,
    /// Fraction of surveys given a pipeline-visible defect (unparseable PDF,
    /// out-of-range page count, duplicated title), mirroring the attrition
    /// from 41k collected surveys to 9.3k kept ones.
    pub survey_defect_rate: f64,
    /// Probability that a later same-topic research paper cites a survey.
    pub survey_citation_rate: f64,
    /// Relative sizes of the same-topic / prerequisite / background citation
    /// pools.
    pub pool_weights: PoolWeights,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x5EED_CAFE,
            papers_per_topic: 120,
            surveys_per_topic: 2,
            min_topic_papers_for_survey: 20,
            year_start: 1990,
            year_end: 2020,
            min_references: 8,
            max_references: 25,
            min_survey_references: 30,
            max_survey_references: 70,
            survey_defect_rate: 0.12,
            survey_citation_rate: 0.12,
            pool_weights: PoolWeights::default(),
        }
    }
}

impl CorpusConfig {
    /// A small configuration for unit/integration tests: a few hundred papers
    /// that generate in milliseconds while preserving all structural
    /// properties.
    pub fn small() -> Self {
        CorpusConfig {
            papers_per_topic: 28,
            surveys_per_topic: 1,
            min_topic_papers_for_survey: 10,
            min_references: 5,
            max_references: 12,
            min_survey_references: 15,
            max_survey_references: 30,
            ..Default::default()
        }
    }

    /// A medium configuration for benchmarks (a few thousand papers).
    pub fn medium() -> Self {
        CorpusConfig {
            papers_per_topic: 70,
            ..Default::default()
        }
    }
}

/// Generic academic filler vocabulary mixed into titles and abstracts.
const FILLER_TERMS: &[&str] = &[
    "analysis",
    "framework",
    "evaluation",
    "empirical",
    "scalable",
    "robust",
    "efficient",
    "model",
    "system",
    "approach",
    "benchmark",
    "large",
    "scale",
    "improved",
    "unified",
    "adaptive",
    "hierarchical",
    "structured",
    "automatic",
    "joint",
];

const TITLE_PATTERNS: usize = 6;
const SURVEY_TITLE_PATTERNS: usize = 5;

#[derive(Debug, Clone)]
struct PaperPlan {
    topic: TopicId,
    year: u16,
    kind: PaperKind,
}

fn topic_depths(topics: &TopicCatalog) -> Vec<usize> {
    let mut depth = vec![0usize; topics.len()];
    for t in topics.iter() {
        let d = t
            .prerequisites
            .iter()
            .map(|p| depth[p.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[t.id.index()] = d;
    }
    depth
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn sample_terms<'a>(rng: &mut StdRng, terms: &'a [String], count: usize) -> Vec<&'a str> {
    let mut pool: Vec<&str> = terms.iter().map(String::as_str).collect();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count.min(pool.len()) {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

fn research_title(rng: &mut StdRng, topic_terms: &[String]) -> String {
    let t = sample_terms(rng, topic_terms, 4);
    let filler = *pick(rng, FILLER_TERMS);
    let get = |i: usize| t.get(i).copied().unwrap_or(filler);
    match rng.gen_range(0..TITLE_PATTERNS) {
        0 => format!("{} {} for {} {}", get(0), get(1), get(2), get(3)),
        1 => format!("Learning {} {} with {} models", get(0), get(1), get(2)),
        2 => format!("An {filler} {} approach to {} {}", get(0), get(1), get(2)),
        3 => format!("{} {}: a {filler} {} study", get(0), get(1), get(2)),
        4 => format!("Towards {filler} {} {} via {}", get(0), get(1), get(2)),
        _ => format!("{} aware {} {} {}", get(0), get(1), get(2), filler),
    }
}

fn survey_title(rng: &mut StdRng, topic_name: &str) -> String {
    match rng.gen_range(0..SURVEY_TITLE_PATTERNS) {
        0 => format!("A survey on {topic_name}"),
        1 => format!("{topic_name}: a survey"),
        2 => format!("A comprehensive survey of {topic_name}"),
        3 => format!("{topic_name}: a review of recent progress"),
        _ => format!("A survey of {topic_name} techniques and applications"),
    }
}

/// Writes `words` space-separated words into `buf` (cleared first) and
/// returns them as an exactly sized `String`.
fn abstract_text(
    rng: &mut StdRng,
    buf: &mut String,
    topic_terms: &[String],
    prerequisite_terms: &[&str],
    words: usize,
) -> String {
    buf.clear();
    for i in 0..words {
        let roll: f64 = rng.gen();
        let word = if roll < 0.55 && !topic_terms.is_empty() {
            pick(rng, topic_terms).as_str()
        } else if roll < 0.75 && !prerequisite_terms.is_empty() {
            pick(rng, prerequisite_terms)
        } else {
            pick(rng, FILLER_TERMS)
        };
        if i > 0 {
            buf.push(' ');
        }
        buf.push_str(word);
    }
    buf.as_str().to_owned()
}

/// The venue tiers in the order [`sample_venue`] draws them.
const VENUE_TIERS: [VenueTier; 4] = [
    VenueTier::A,
    VenueTier::B,
    VenueTier::C,
    VenueTier::Unranked,
];

/// `tier_pools` holds each of [`VENUE_TIERS`]' venues, in the same order.
fn sample_venue(rng: &mut StdRng, tier_pools: &[Vec<VenueId>; 4]) -> VenueId {
    let roll: f64 = rng.gen();
    let tier = if roll < 0.20 {
        0
    } else if roll < 0.55 {
        1
    } else if roll < 0.85 {
        2
    } else {
        3
    };
    let pool = &tier_pools[tier];
    if pool.is_empty() {
        VenueId(0)
    } else {
        *pick(rng, pool)
    }
}

/// Generates a corpus according to `config`, including running the dataset
/// construction pipeline so that the returned corpus already carries its
/// SurveyBank benchmark.
pub fn generate(config: &CorpusConfig) -> Corpus {
    let topics = TopicCatalog::synthetic_default();
    let venues = VenueTable::synthetic_default();
    generate_with(config, topics, venues)
}

/// Generates a corpus with a caller-provided topic catalogue and venue table.
///
/// The corpus is a pure function of the configuration through the order
/// of its RNG draws: one seeded stream, drawn paper by paper in plan
/// order, then reference list by reference list in id order. That order
/// is the contract. `tests/golden_paths.rs` pins every snapshot section
/// of the demonstration and default-scale corpora, so a rewrite that
/// skips, adds or reorders a single draw fails there.
///
/// The corpus's text index is built on a scoped thread (`rpg-index`) while
/// the calling thread wires the citations. If the thread cannot be
/// spawned, the index is built after the wiring instead.
pub fn generate_with(config: &CorpusConfig, topics: TopicCatalog, venues: VenueTable) -> Corpus {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let depths = topic_depths(&topics);

    // ------------------------------------------------------------------
    // Plan papers: how many per topic, which years, which are surveys.
    // ------------------------------------------------------------------
    let mut plans: Vec<PaperPlan> = Vec::new();
    let mut topic_paper_counts = vec![0usize; topics.len()];
    for topic in topics.iter() {
        let count = ((config.papers_per_topic as f64) * topic.weight)
            .round()
            .max(3.0) as usize;
        topic_paper_counts[topic.id.index()] = count;
        let start_year = config.year_start + (depths[topic.id.index()] as u16 * 3).min(15);
        let span = config.year_end.saturating_sub(start_year).max(1);
        for _ in 0..count {
            let u: f64 = rng.gen();
            // Skew publication years toward the recent end (Fig. 4b).
            let year = start_year + (f64::from(span) * u.powf(0.55)) as u16;
            plans.push(PaperPlan {
                topic: topic.id,
                year,
                kind: PaperKind::Research,
            });
        }
        if count >= config.min_topic_papers_for_survey {
            for _ in 0..config.surveys_per_topic {
                let earliest = (start_year + 5).min(config.year_end);
                let latest_span = config.year_end.saturating_sub(earliest).max(1);
                let year = config.year_end - rng.gen_range(0..latest_span.min(7));
                let year = year.max(earliest);
                plans.push(PaperPlan {
                    topic: topic.id,
                    year,
                    kind: PaperKind::Survey,
                });
            }
        }
    }
    // Chronological order; ties broken by topic then kind for determinism.
    plans.sort_by_key(|p| (p.year, p.topic, p.kind == PaperKind::Survey));

    // ------------------------------------------------------------------
    // Materialise papers (titles, abstracts, venues, defects).
    // ------------------------------------------------------------------
    // Each topic's direct-prerequisite vocabulary, borrowed once.
    let prereq_terms: Vec<Vec<&str>> = topics
        .iter()
        .map(|topic| {
            topic
                .prerequisites
                .iter()
                .filter_map(|&p| topics.get(p))
                .flat_map(|t| t.terms.iter().map(String::as_str))
                .collect()
        })
        .collect();
    let venue_pools = VENUE_TIERS.map(|tier| venues.by_tier(tier));
    let mut abstract_buf = String::new();
    let mut papers: Vec<Paper> = Vec::with_capacity(plans.len());
    let mut survey_titles_by_topic: std::collections::HashMap<TopicId, Vec<String>> =
        std::collections::HashMap::new();
    for (i, plan) in plans.iter().enumerate() {
        let topic = topics.get(plan.topic).expect("planned topic exists");
        let (title, pages, parse_ok) = match plan.kind {
            PaperKind::Research => (
                research_title(&mut rng, &topic.terms),
                rng.gen_range(6..=14),
                true,
            ),
            PaperKind::Survey => {
                let mut title = survey_title(&mut rng, &topic.name);
                let mut pages = rng.gen_range(12..=40);
                let mut parse_ok = true;
                if rng.gen::<f64>() < config.survey_defect_rate {
                    match rng.gen_range(0..4) {
                        0 => pages = rng.gen_range(101..=300), // thesis-length: filtered out
                        1 => pages = 1,                        // extended abstract: filtered out
                        2 => parse_ok = false,                 // GROBID/PyPDF2 failure
                        _ => {
                            // Duplicate of an earlier survey title on the same
                            // topic (falls back to an over-long document when
                            // it is the topic's first survey).
                            if let Some(prev) = survey_titles_by_topic
                                .get(&plan.topic)
                                .and_then(|v| v.first())
                            {
                                title = prev.clone();
                            } else {
                                pages = rng.gen_range(101..=200);
                            }
                        }
                    }
                }
                survey_titles_by_topic
                    .entry(plan.topic)
                    .or_default()
                    .push(title.clone());
                (title, pages, parse_ok)
            }
        };
        let abstract_words = match plan.kind {
            PaperKind::Research => rng.gen_range(25..45),
            PaperKind::Survey => rng.gen_range(40..70),
        };
        papers.push(Paper {
            id: PaperId::from_index(i),
            title,
            abstract_text: abstract_text(
                &mut rng,
                &mut abstract_buf,
                &topic.terms,
                &prereq_terms[plan.topic.index()],
                abstract_words,
            ),
            year: plan.year,
            venue: sample_venue(&mut rng, &venue_pools),
            topic: plan.topic,
            kind: plan.kind,
            pages,
            parse_ok,
        });
    }

    // ------------------------------------------------------------------
    // Wire citations while another thread indexes the papers' text.
    // ------------------------------------------------------------------
    // The indexer reads only the finished papers and draws nothing, so
    // the RNG order and the index bytes are the same on one thread or two.
    let (references, index) = std::thread::scope(|scope| {
        let indexer = std::thread::Builder::new()
            .name("rpg-index".to_string())
            .spawn_scoped(scope, || text_index(&papers));
        let references = wire_citations(&mut rng, config, &topics, &papers);
        let index = match indexer {
            Ok(thread) => thread
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => text_index(&papers),
        };
        (references, index)
    });

    let mut corpus = Corpus::assemble_indexed(papers, references, index, topics, venues);
    let bank = pipeline::run(
        &corpus,
        &PipelineConfig {
            seed: config.seed ^ 0x9E37_79B9,
            ..Default::default()
        },
    )
    .bank;
    corpus.set_survey_bank(bank);
    corpus
}

/// Samples every paper's reference list, in chronological (= id) order:
/// each paper draws from the papers published before it, weighted by the
/// citations those have gathered so far.
fn wire_citations(
    rng: &mut StdRng,
    config: &CorpusConfig,
    topics: &TopicCatalog,
    papers: &[Paper],
) -> Vec<Vec<Reference>> {
    let mut references: Vec<Vec<Reference>> = vec![Vec::new(); papers.len()];
    let mut in_degree = vec![0u32; papers.len()];
    // Per-topic lists of already-published research papers (ids ascending).
    let mut topic_published: Vec<Vec<usize>> = vec![Vec::new(); topics.len()];
    // Per-topic list of already-published surveys (for survey citations).
    let mut topic_surveys: Vec<Vec<usize>> = vec![Vec::new(); topics.len()];
    let closures: Vec<Vec<TopicId>> = topics
        .iter()
        .map(|topic| topics.prerequisite_closure(topic.id))
        .collect();
    // The three candidate pools, refilled for every paper.
    let mut same_topic: Vec<Candidate> = Vec::new();
    let mut prerequisite: Vec<Candidate> = Vec::new();
    let mut background: Vec<Candidate> = Vec::new();

    for i in 0..papers.len() {
        let paper_topic = papers[i].topic;
        let is_survey = papers[i].kind == PaperKind::Survey;

        // Candidate pools.
        same_topic.clear();
        same_topic.extend(
            topic_published[paper_topic.index()]
                .iter()
                .map(|&j| Candidate {
                    paper: PaperId::from_index(j),
                    weight: 1.0 + f64::from(in_degree[j]),
                }),
        );

        prerequisite.clear();
        for (hop, &pt) in closures[paper_topic.index()].iter().enumerate() {
            let published = &topic_published[pt.index()];
            if published.is_empty() {
                continue;
            }
            // Foundational papers of a prerequisite topic = its earliest
            // third; they receive a strong boost so they accumulate the
            // citations a real foundational paper would.
            let foundation_cutoff = published.len().div_ceil(3);
            // Direct prerequisites matter more than transitive ones.
            let hop_decay = 1.0 / (1.0 + hop as f64 * 0.35);
            for (rank, &j) in published.iter().enumerate() {
                let foundational_boost = if rank < foundation_cutoff {
                    if is_survey {
                        4.0
                    } else {
                        3.0
                    }
                } else {
                    1.0
                };
                prerequisite.push(Candidate {
                    paper: PaperId::from_index(j),
                    weight: (1.0 + f64::from(in_degree[j])) * foundational_boost * hop_decay,
                });
            }
        }

        // A bounded random slice of everything already published serves as
        // the background pool.
        background.clear();
        if i > 0 {
            for _ in 0..60.min(i) {
                let j = rng.gen_range(0..i);
                background.push(Candidate {
                    paper: PaperId::from_index(j),
                    weight: 1.0,
                });
            }
        }

        let budget = if is_survey {
            rng.gen_range(config.min_survey_references..=config.max_survey_references)
        } else {
            rng.gen_range(config.min_references..=config.max_references)
        };

        let mut sampler = CitationSampler::new(rng);
        let pool_weights = if is_survey {
            // Surveys lean a bit harder on their own topic but still pull in
            // prerequisite work (the behaviour Observation I is about).
            PoolWeights {
                same_topic: 0.66,
                prerequisite: 0.28,
                background: 0.06,
            }
        } else {
            config.pool_weights
        };
        let cited = sampler.sample_references(
            budget,
            pool_weights,
            &same_topic,
            &prerequisite,
            &background,
        );

        // Importance of each cited paper for occurrence counts: normalised
        // current citation count (well-cited papers are discussed at length).
        let max_in_degree = cited
            .iter()
            .map(|p| in_degree[p.index()])
            .max()
            .unwrap_or(0)
            .max(1);
        for cited_paper in cited {
            let occurrences = if is_survey {
                let importance =
                    f64::from(in_degree[cited_paper.index()]) / f64::from(max_in_degree);
                sampler.survey_occurrences(importance)
            } else {
                sampler.regular_occurrences()
            };
            references[i].push(Reference {
                cited: cited_paper,
                occurrences,
            });
            in_degree[cited_paper.index()] += 1;
        }

        // Later same-topic research papers occasionally cite earlier surveys.
        if !is_survey && !topic_surveys[paper_topic.index()].is_empty() {
            for &survey_idx in &topic_surveys[paper_topic.index()] {
                if rng.gen::<f64>() < config.survey_citation_rate {
                    let already = references[i].iter().any(|r| r.cited.index() == survey_idx);
                    if !already {
                        references[i].push(Reference {
                            cited: PaperId::from_index(survey_idx),
                            occurrences: 1,
                        });
                        in_degree[survey_idx] += 1;
                    }
                }
            }
        }

        // Register the paper as published.
        match papers[i].kind {
            PaperKind::Research => topic_published[paper_topic.index()].push(i),
            PaperKind::Survey => topic_surveys[paper_topic.index()].push(i),
        }
    }

    references
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_graph::topo;

    fn small_corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 11,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&CorpusConfig {
            seed: 42,
            ..CorpusConfig::small()
        });
        let b = generate(&CorpusConfig {
            seed: 42,
            ..CorpusConfig::small()
        });
        assert_eq!(a.len(), b.len());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(
            a.paper(PaperId(10)).unwrap().title,
            b.paper(PaperId(10)).unwrap().title
        );
        assert_eq!(a.survey_bank().len(), b.survey_bank().len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CorpusConfig {
            seed: 1,
            ..CorpusConfig::small()
        });
        let b = generate(&CorpusConfig {
            seed: 2,
            ..CorpusConfig::small()
        });
        // Same planning, different sampling: titles should differ somewhere.
        let differing = a
            .papers()
            .iter()
            .zip(b.papers().iter())
            .filter(|(x, y)| x.title != y.title)
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn corpus_has_expected_scale() {
        let c = small_corpus();
        assert!(c.len() > 800, "corpus too small: {}", c.len());
        assert!(
            c.graph().edge_count() > 4_000,
            "too few edges: {}",
            c.graph().edge_count()
        );
        assert!(
            c.survey_bank().len() >= 20,
            "too few surveys: {}",
            c.survey_bank().len()
        );
    }

    #[test]
    fn citations_are_temporally_consistent() {
        let c = small_corpus();
        for (citing, cited) in c.graph().edges() {
            let cy = c.year(PaperId::from_node(citing));
            let ry = c.year(PaperId::from_node(cited));
            assert!(ry <= cy, "paper from {cy} cites paper from {ry}");
        }
    }

    #[test]
    fn citation_graph_is_a_dag() {
        let c = small_corpus();
        assert!(topo::is_dag(c.graph()));
    }

    #[test]
    fn citation_counts_are_skewed() {
        let c = small_corpus();
        let mut counts: Vec<usize> = c.papers().iter().map(|p| c.citation_count(p.id)).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let top_decile: usize = counts.iter().take(counts.len() / 10).sum();
        // Preferential attachment: the top 10% of papers should hold a clearly
        // disproportionate share of the citations.
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "top decile holds only {top_decile}/{total} citations"
        );
    }

    #[test]
    fn surveys_reference_prerequisite_topics() {
        let c = small_corpus();
        let mut with_cross_topic = 0;
        for survey in c.survey_bank().iter() {
            let survey_topic = c.paper(survey.paper).unwrap().topic;
            let cross = survey
                .references
                .iter()
                .filter(|r| {
                    c.paper(r.paper)
                        .map(|p| p.topic != survey_topic)
                        .unwrap_or(false)
                })
                .count();
            if cross > 0 {
                with_cross_topic += 1;
            }
        }
        assert!(
            with_cross_topic * 2 > c.survey_bank().len(),
            "most surveys should cite prerequisite-topic papers ({with_cross_topic}/{})",
            c.survey_bank().len()
        );
    }

    #[test]
    fn survey_occurrence_counts_cover_all_levels() {
        let c = small_corpus();
        let mut saw_high = false;
        for survey in c.survey_bank().iter() {
            assert!(survey.references.iter().all(|r| r.occurrences >= 1));
            if survey.references.iter().any(|r| r.occurrences >= 3) {
                saw_high = true;
            }
        }
        assert!(
            saw_high,
            "no survey has references cited three or more times"
        );
    }

    #[test]
    fn some_surveys_get_cited() {
        let c = generate(&CorpusConfig {
            seed: 3,
            survey_citation_rate: 0.4,
            ..CorpusConfig::small()
        });
        let cited_surveys = c
            .survey_bank()
            .iter()
            .filter(|s| s.citation_count > 0)
            .count();
        assert!(cited_surveys > 0, "no surveys received citations");
    }

    #[test]
    fn research_titles_use_topic_vocabulary() {
        let c = small_corpus();
        let sample = c.research_papers()[0];
        let topic = c.topics().get(sample.topic).unwrap();
        let title_lower = sample.title.to_lowercase();
        let hits = topic
            .terms
            .iter()
            .filter(|t| title_lower.contains(t.as_str()))
            .count();
        assert!(
            hits >= 1,
            "title '{}' shares no vocabulary with its topic",
            sample.title
        );
    }

    #[test]
    fn survey_papers_exist_and_mostly_pass_filters() {
        let c = small_corpus();
        let all_surveys = c.survey_papers().len();
        let kept = c.survey_bank().len();
        assert!(kept <= all_surveys);
        assert!(
            kept * 3 >= all_surveys,
            "pipeline dropped too many surveys: {kept}/{all_surveys}"
        );
    }

    #[test]
    fn years_are_within_configured_range() {
        let c = small_corpus();
        for p in c.papers() {
            assert!(
                (1990..=2020).contains(&p.year),
                "year {} out of range",
                p.year
            );
        }
    }
}
