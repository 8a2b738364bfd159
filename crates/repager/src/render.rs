//! Rendering of reading paths and citation-graph samples.
//!
//! Section V of the paper describes a web interface with an input panel, a
//! navigation bar (the flattened list), the generated reading-path panel, a
//! paper-details view, and node/edge weight legends.  Offline, the same
//! information is rendered as plain text (for terminals and examples) and as
//! Graphviz DOT (for the Fig. 9 style reading-path figure and the Fig. 5
//! citation-graph sample).

use crate::path::ReadingPath;
use crate::system::RepagerOutput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpg_corpus::{Corpus, PaperId};
use std::fmt::Write as _;

fn title_of(corpus: &Corpus, paper: PaperId) -> String {
    corpus
        .paper(paper)
        .map(|p| p.title.clone())
        .unwrap_or_else(|| format!("<unknown paper {paper}>"))
}

/// Renders the flattened navigation-bar view: one line per paper in reading
/// order with its year and title (the paper's navigation bar shows title,
/// authors and year; the synthetic corpus has no authors).
pub fn path_to_text(corpus: &Corpus, path: &ReadingPath) -> String {
    let mut out = String::new();
    if path.is_empty() {
        out.push_str("(empty reading path)\n");
        return out;
    }
    for (i, &paper) in path.order.iter().enumerate() {
        let year = corpus.year(paper);
        let prereqs = path.prerequisites_of(paper);
        let _ = writeln!(out, "{:>3}. [{}] {}", i + 1, year, title_of(corpus, paper));
        if !prereqs.is_empty() {
            let numbers: Vec<String> = prereqs
                .iter()
                .filter_map(|p| path.position(*p).map(|pos| (pos + 1).to_string()))
                .collect();
            let _ = writeln!(out, "       read after: {}", numbers.join(", "));
        }
    }
    out
}

/// Renders the full RePaGer output, including seed and sub-graph diagnostics
/// (the textual equivalent of panels (b)–(e) of the UI).
pub fn output_to_text(corpus: &Corpus, output: &RepagerOutput) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sub-citation graph: {} papers, {} edges",
        output.subgraph_nodes, output.subgraph_edges
    );
    let _ = writeln!(
        out,
        "seeds: {} initial, {} reallocated; steiner forest: {} papers in {} tree(s), cost {:.3}",
        output.seeds.initial.len(),
        output.seeds.reallocated.len(),
        output.forest.len(),
        output.forest.trees.len(),
        output.forest.total_cost(),
    );
    let _ = writeln!(out, "generated in {:?}", output.timings.total);
    let stage_line: Vec<String> = output
        .timings
        .stages()
        .iter()
        .map(|(name, d)| format!("{name} {:.2}ms", d.as_secs_f64() * 1e3))
        .collect();
    let _ = writeln!(out, "stage times: {}", stage_line.join(", "));
    let _ = writeln!(out, "\nreading path:");
    out.push_str(&path_to_text(corpus, &output.path));
    out
}

/// Escapes a string for inclusion in a DOT label.
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a reading path as Graphviz DOT.  Node colour encodes whether the
/// paper was part of the engine's top results (grey) or was surfaced through
/// the citation graph (green), mirroring Fig. 9's colour scheme.
pub fn path_to_dot(corpus: &Corpus, path: &ReadingPath, engine_results: &[PaperId]) -> String {
    let mut out =
        String::from("digraph reading_path {\n  rankdir=LR;\n  node [shape=box, style=filled];\n");
    for &paper in &path.order {
        let colour = if engine_results.contains(&paper) {
            "lightgrey"
        } else {
            "palegreen"
        };
        let label = format!(
            "{}\\n({})",
            dot_escape(&title_of(corpus, paper)),
            corpus.year(paper)
        );
        let _ = writeln!(
            out,
            "  p{} [label=\"{}\", fillcolor={}];",
            paper.0, label, colour
        );
    }
    for edge in &path.edges {
        let _ = writeln!(out, "  p{} -> p{};", edge.from.0, edge.to.0);
    }
    out.push_str("}\n");
    out
}

/// Renders a random connected sample of the corpus citation graph as DOT
/// (the Fig. 5 visualisation).  Nodes are coloured by topic domain.
pub fn graph_sample_dot(corpus: &Corpus, sample_size: usize, seed: u64) -> String {
    const COLOURS: &[&str] = &[
        "tomato",
        "gold",
        "palegreen",
        "skyblue",
        "plum",
        "orange",
        "turquoise",
        "salmon",
        "khaki",
        "lightpink",
        "lightgrey",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    if corpus.is_empty() || sample_size == 0 {
        return String::from("digraph citation_sample {\n}\n");
    }

    // Breadth-first sample from a random start so the sample is connected.
    let start = PaperId::from_index(rng.gen_range(0..corpus.len()));
    let mut selected = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(p) = queue.pop_front() {
        if selected.len() >= sample_size {
            break;
        }
        if !seen.insert(p) {
            continue;
        }
        selected.push(p);
        for neighbour in corpus.graph().neighbors_undirected(p.node()) {
            queue.push_back(PaperId::from_node(neighbour));
        }
        // Occasionally jump to a random paper so sparse regions are covered
        // when the start component is small.
        if queue.is_empty() && selected.len() < sample_size {
            queue.push_back(PaperId::from_index(rng.gen_range(0..corpus.len())));
        }
    }

    let in_sample: std::collections::HashSet<PaperId> = selected.iter().copied().collect();
    let mut out = String::from("digraph citation_sample {\n  node [shape=point];\n");
    for &p in &selected {
        let domain_index = corpus
            .paper(p)
            .and_then(|paper| corpus.topics().get(paper.topic))
            .map(|t| t.domain as usize % COLOURS.len())
            .unwrap_or(COLOURS.len() - 1);
        let _ = writeln!(out, "  p{} [color={}];", p.0, COLOURS[domain_index]);
    }
    for &p in &selected {
        for &cited in corpus.graph().references(p.node()) {
            let cited = PaperId::from_node(cited);
            if in_sample.contains(&cited) {
                let _ = writeln!(out, "  p{} -> p{};", p.0, cited.0);
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::CorpusArtifacts;
    use crate::scratch::PipelineScratch;
    use crate::system::PathRequest;
    use rpg_corpus::{generate, Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 111,
            ..CorpusConfig::small()
        })
    }

    fn output(c: &Corpus) -> RepagerOutput {
        let system = CorpusArtifacts::build(c.clone()).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        system
            .generate(
                &PathRequest::new(&survey.query, 25),
                &mut PipelineScratch::new(),
            )
            .unwrap()
    }

    #[test]
    fn text_rendering_lists_every_path_paper() {
        let c = corpus();
        let out = output(&c);
        let text = path_to_text(&c, &out.path);
        for &p in &out.path.order {
            let title = c.paper(p).unwrap().title.clone();
            assert!(text.contains(&title), "missing title for {p}");
        }
    }

    #[test]
    fn empty_path_renders_placeholder() {
        let c = corpus();
        let text = path_to_text(&c, &ReadingPath::default());
        assert!(text.contains("empty reading path"));
    }

    #[test]
    fn dot_rendering_contains_nodes_and_edges() {
        let c = corpus();
        let out = output(&c);
        let dot = path_to_dot(&c, &out.path, &out.seeds.initial);
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        for &p in &out.path.order {
            assert!(dot.contains(&format!("p{}", p.0)));
        }
        for e in &out.path.edges {
            assert!(dot.contains(&format!("p{} -> p{};", e.from.0, e.to.0)));
        }
    }

    #[test]
    fn dot_colours_distinguish_engine_results_from_graph_discoveries() {
        let c = corpus();
        let out = output(&c);
        let dot = path_to_dot(&c, &out.path, &out.seeds.initial);
        // At least one of the two colours must appear; when the path includes
        // papers outside the initial seeds (the interesting case), both do.
        assert!(dot.contains("lightgrey") || dot.contains("palegreen"));
    }

    #[test]
    fn output_rendering_includes_diagnostics() {
        let c = corpus();
        let out = output(&c);
        let text = output_to_text(&c, &out);
        assert!(text.contains("sub-citation graph"));
        assert!(text.contains("reallocated"));
        assert!(text.contains("reading path"));
    }

    #[test]
    fn graph_sample_has_requested_size_and_valid_dot() {
        let c = corpus();
        let dot = graph_sample_dot(&c, 100, 7);
        assert!(dot.starts_with("digraph"));
        let node_lines = dot.lines().filter(|l| l.contains("[color=")).count();
        assert!(node_lines > 50, "sample too small: {node_lines}");
        assert!(node_lines <= 100);
    }

    #[test]
    fn graph_sample_handles_degenerate_requests() {
        let c = corpus();
        let empty = graph_sample_dot(&c, 0, 1);
        assert!(empty.starts_with("digraph"));
        assert!(!empty.contains("->"));
    }

    #[test]
    fn dot_escape_handles_quotes() {
        assert_eq!(dot_escape("a \"quoted\" title"), "a \\\"quoted\\\" title");
    }
}
