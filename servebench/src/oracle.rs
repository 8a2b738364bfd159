//! The output oracle: an in-process registry over the server's corpus that
//! computes the expected `result` of a sample of requests before timing,
//! plus the paper's F1@k quality number.

use crate::json;
use crate::plan::{Plan, Request, CORPUS};
use rpg_corpus::{Corpus, LabelLevel, PaperId};
use rpg_server::api::{output_result_value, ResolvedRequest};
use rpg_server::GenerateRequest;
use rpg_service::CorpusRegistry;
use std::collections::HashMap;
use std::sync::Arc;

/// Expected `result` texts keyed by request index, and the label sets F1
/// needs.
pub struct Oracle {
    /// The in-process registry; also the replay target of the traced run.
    pub registry: CorpusRegistry,
    expected: HashMap<usize, String>,
    labels: Vec<Vec<PaperId>>,
}

/// Decodes a wire body the way the server does.
fn resolve(request: &Request) -> ResolvedRequest {
    let dto: GenerateRequest =
        serde_json::from_str(&request.body).expect("generated request bodies parse");
    ResolvedRequest::resolve(&dto).expect("generated requests are valid")
}

impl Oracle {
    /// Builds the oracle's own artifacts over the server's corpus.
    pub fn new(corpus: Arc<Corpus>) -> Oracle {
        let labels = corpus
            .survey_bank()
            .iter()
            .map(|s| s.label(LabelLevel::AtLeastOne))
            .collect();
        let registry = CorpusRegistry::new();
        registry
            .register(CORPUS, corpus)
            .expect("oracle artifacts build");
        Oracle {
            registry,
            expected: HashMap::new(),
            labels,
        }
    }

    /// Computes the expected result of each of `indices` on two threads.
    pub fn compute(&mut self, plan: &Plan, indices: &[usize]) {
        let registry = &self.registry;
        let results: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = indices
                .chunks(indices.len().div_ceil(2).max(1))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&i| (i, expected(registry, &plan.requests[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread finishes"))
                .collect()
        });
        self.expected.extend(results);
    }

    /// The expected `result` text of a request, if sampled.
    pub fn expected(&self, request: usize) -> Option<&str> {
        self.expected.get(&request).map(String::as_str)
    }

    /// Checks one generate answer (a response body or a batch item): the
    /// `result` must be present, equal the oracle byte for byte when the
    /// request is sampled, and its reading list is scored as F1 against the
    /// survey's `AtLeastOne` references.
    pub fn check(&self, plan: &Plan, request: usize, answer: &str) -> Result<f64, String> {
        let result = json::field(answer, "result")
            .ok_or_else(|| format!("request {request}: no result in {}", clip(answer)))?;
        if let Some(expected) = self.expected(request) {
            if expected != result {
                return Err(format!("request {request}: result differs from the oracle"));
            }
        }
        let list = json::field(result, "reading_list")
            .and_then(json::elements)
            .ok_or_else(|| format!("request {request}: no reading_list"))?;
        let list: Vec<PaperId> = list
            .iter()
            .map(|id| id.parse::<u32>().map(PaperId))
            .collect::<Result<_, _>>()
            .map_err(|_| format!("request {request}: reading_list is not paper ids"))?;
        Ok(rpg_eval::f1_score(
            &list,
            &self.labels[plan.requests[request].survey],
        ))
    }
}

/// `serde_json::to_string(&output_result_value(..))` of one request.
fn expected(registry: &CorpusRegistry, request: &Request) -> String {
    let resolved = resolve(request);
    let served = registry
        .generate(CORPUS, &resolved.as_path_request())
        .expect("oracle request runs");
    serde_json::to_string(&output_result_value(&served.output)).expect("result serialises")
}

/// The first bytes of a body, for error messages.
pub fn clip(text: &str) -> &str {
    let end = text
        .char_indices()
        .nth(160)
        .map_or(text.len(), |(index, _)| index);
    &text[..end]
}
