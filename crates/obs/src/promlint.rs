//! A small in-repo checker for Prometheus text exposition format 0.0.4 —
//! the CI substitute for an external `promtool check metrics`.
//!
//! Checks, per [`lint`]:
//! * every sample belongs to a family that declared `# HELP` and `# TYPE`
//!   before its first sample, with a known type;
//! * metric and label names are valid identifiers, label values parse
//!   with correct escaping, sample lines have a numeric value;
//! * `# TYPE` appears at most once per family;
//! * histogram families expose, per label set: strictly-increasing `le`
//!   bounds with non-decreasing cumulative counts, a `+Inf` bucket, and
//!   `_sum`/`_count` samples with `_count` equal to the `+Inf` bucket.

use std::collections::BTreeMap;

use crate::metrics::{valid_label_name, valid_metric_name};

#[derive(Default)]
struct FamilyState {
    has_help: bool,
    has_type: bool,
    kind: Option<String>,
    samples_seen: bool,
}

#[derive(Debug)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Lints `text` as Prometheus exposition format. Returns the list of
/// violations; an empty list means the document is clean.
pub fn lint(text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut families: BTreeMap<String, FamilyState> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (number, line) in text.lines().enumerate() {
        let lineno = number + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, _help)) = rest.split_once(' ') else {
                violations.push(format!("line {lineno}: HELP without help text"));
                continue;
            };
            let family = families.entry(name.to_string()).or_default();
            if family.samples_seen {
                violations.push(format!("line {lineno}: HELP for {name} after its samples"));
            }
            family.has_help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, kind)) = rest.split_once(' ') else {
                violations.push(format!("line {lineno}: TYPE without a type"));
                continue;
            };
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                violations.push(format!("line {lineno}: unknown type {kind:?} for {name}"));
            }
            let family = families.entry(name.to_string()).or_default();
            if family.has_type {
                violations.push(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            if family.samples_seen {
                violations.push(format!("line {lineno}: TYPE for {name} after its samples"));
            }
            family.has_type = true;
            family.kind = Some(kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            // Other comments are legal and ignored.
            continue;
        }
        match parse_sample(line) {
            Ok(sample) => {
                if !valid_metric_name(&sample.name) {
                    violations.push(format!(
                        "line {lineno}: invalid metric name {:?}",
                        sample.name
                    ));
                }
                for (label, _) in &sample.labels {
                    if !valid_label_name(label) {
                        violations.push(format!("line {lineno}: invalid label name {label:?}"));
                    }
                }
                let family = family_of(&sample.name, &families);
                match families.get_mut(&family) {
                    Some(state) => {
                        state.samples_seen = true;
                        if !state.has_help {
                            violations
                                .push(format!("line {lineno}: sample for {family} without # HELP"));
                        }
                        if !state.has_type {
                            violations
                                .push(format!("line {lineno}: sample for {family} without # TYPE"));
                        }
                    }
                    None => violations.push(format!(
                        "line {lineno}: sample for {family} without HELP/TYPE declarations"
                    )),
                }
                samples.push(sample);
            }
            Err(problem) => violations.push(format!("line {lineno}: {problem}")),
        }
    }

    check_histograms(&families, &samples, &mut violations);
    violations
}

/// Maps a sample name to its family: `_bucket`/`_sum`/`_count` suffixes
/// fold into a declared histogram family, everything else is itself.
fn family_of(sample_name: &str, families: &BTreeMap<String, FamilyState>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if families
                .get(base)
                .is_some_and(|f| f.kind.as_deref() == Some("histogram"))
            {
                return base.to_string();
            }
        }
    }
    sample_name.to_string()
}

fn check_histograms(
    families: &BTreeMap<String, FamilyState>,
    samples: &[Sample],
    violations: &mut Vec<String>,
) {
    for (name, state) in families {
        if state.kind.as_deref() != Some("histogram") {
            continue;
        }
        // Group this family's samples by their non-`le` label set:
        // `(buckets, sum, count)` per group.
        type HistogramGroup = (Vec<(f64, f64)>, Option<f64>, Option<f64>);
        let mut groups: BTreeMap<String, HistogramGroup> = BTreeMap::new();
        for sample in samples {
            let (suffix, base) = if let Some(b) = sample.name.strip_suffix("_bucket") {
                ("_bucket", b)
            } else if let Some(b) = sample.name.strip_suffix("_sum") {
                ("_sum", b)
            } else if let Some(b) = sample.name.strip_suffix("_count") {
                ("_count", b)
            } else {
                continue;
            };
            if base != name {
                continue;
            }
            let mut le: Option<f64> = None;
            let mut rest: Vec<String> = Vec::new();
            for (label, value) in &sample.labels {
                if suffix == "_bucket" && label == "le" {
                    le = Some(parse_le(value));
                } else {
                    rest.push(format!("{label}={value}"));
                }
            }
            rest.sort();
            let group = groups.entry(rest.join(",")).or_default();
            match suffix {
                "_bucket" => match le {
                    Some(bound) => group.0.push((bound, sample.value)),
                    None => violations.push(format!("{name}_bucket sample without an le label")),
                },
                "_sum" => group.1 = Some(sample.value),
                _ => group.2 = Some(sample.value),
            }
        }
        if groups.is_empty() {
            continue;
        }
        for (labels, (buckets, sum, count)) in groups {
            let context = if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{labels}}}")
            };
            for pair in buckets.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    violations.push(format!(
                        "{context}: le bounds not strictly increasing ({} then {})",
                        format_bound(pair[0].0),
                        format_bound(pair[1].0)
                    ));
                }
                if pair[1].1 < pair[0].1 {
                    violations.push(format!(
                        "{context}: bucket counts decrease at le={}",
                        format_bound(pair[1].0)
                    ));
                }
            }
            let inf = buckets
                .iter()
                .find(|(bound, _)| bound.is_infinite() && *bound > 0.0);
            match (inf, count) {
                (None, _) => violations.push(format!("{context}: no +Inf bucket")),
                (Some(_), None) => violations.push(format!("{context}: no _count sample")),
                (Some((_, inf_count)), Some(total)) if *inf_count != total => violations.push(
                    format!("{context}: +Inf bucket {inf_count} != _count {total}"),
                ),
                _ => {}
            }
            if sum.is_none() {
                violations.push(format!("{context}: no _sum sample"));
            }
        }
    }
}

fn parse_le(value: &str) -> f64 {
    match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other.parse().unwrap_or(f64::NAN),
    }
}

fn format_bound(bound: f64) -> String {
    if bound.is_infinite() {
        if bound > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{bound}")
    }
}

/// Parses one `name[{labels}] value` sample line.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b' ' {
        i += 1;
    }
    if i == 0 {
        return Err("sample line without a metric name".to_string());
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            while i < bytes.len() && bytes[i] == b' ' {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'}' {
                i += 1;
                break;
            }
            let label_start = i;
            while i < bytes.len() && bytes[i] != b'=' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err("unterminated label block".to_string());
            }
            let label = line[label_start..i].trim().to_string();
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err(format!("label {label} value is not quoted"));
            }
            i += 1; // opening quote
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(format!("unterminated value for label {label}"));
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            other => {
                                return Err(format!(
                                    "bad escape {:?} in label {label}",
                                    other.map(|b| *b as char)
                                ))
                            }
                        }
                        i += 1;
                    }
                    _ => {
                        // Consume one UTF-8 scalar, not one byte.
                        let ch = line[i..].chars().next().expect("in-bounds char");
                        value.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            labels.push((label, value));
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
                continue;
            }
        }
    }
    let rest = line[i..].trim();
    let mut parts = rest.split_whitespace();
    let value_text = parts.next().ok_or("sample line without a value")?;
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse()
            .map_err(|_| format!("non-numeric sample value {other:?}"))?,
    };
    // An optional timestamp may follow; anything further is junk.
    if let Some(ts) = parts.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("trailing junk {ts:?} after sample value"));
        }
    }
    if parts.next().is_some() {
        return Err("too many fields on sample line".to_string());
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_document_passes() {
        let text = "\
# HELP rpg_requests_total Requests.
# TYPE rpg_requests_total counter
rpg_requests_total{tenant=\"alpha\"} 4
# HELP rpg_latency_seconds Latency.
# TYPE rpg_latency_seconds histogram
rpg_latency_seconds_bucket{tenant=\"a\",le=\"0.001\"} 2
rpg_latency_seconds_bucket{tenant=\"a\",le=\"0.01\"} 5
rpg_latency_seconds_bucket{tenant=\"a\",le=\"+Inf\"} 6
rpg_latency_seconds_sum{tenant=\"a\"} 0.025
rpg_latency_seconds_count{tenant=\"a\"} 6
";
        assert_eq!(lint(text), Vec::<String>::new());
    }

    #[test]
    fn missing_help_and_type_are_flagged() {
        let violations = lint("rpg_orphan_total 1\n");
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("without HELP/TYPE"));

        let violations = lint("# TYPE rpg_half counter\nrpg_half 1\n");
        assert!(violations.iter().any(|v| v.contains("without # HELP")));
    }

    #[test]
    fn bad_escapes_and_values_are_flagged() {
        let text = "# HELP m M.\n# TYPE m counter\nm{a=\"x\\q\"} 1\n";
        assert!(lint(text).iter().any(|v| v.contains("bad escape")));
        let text = "# HELP m M.\n# TYPE m counter\nm nope\n";
        assert!(lint(text).iter().any(|v| v.contains("non-numeric")));
    }

    #[test]
    fn histogram_ordering_violations_are_flagged() {
        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"0.01\"} 2
h_bucket{le=\"0.001\"} 5
h_bucket{le=\"+Inf\"} 6
h_sum 0.1
h_count 6
";
        assert!(lint(text)
            .iter()
            .any(|v| v.contains("not strictly increasing")));

        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"0.001\"} 5
h_bucket{le=\"0.01\"} 2
h_bucket{le=\"+Inf\"} 6
h_sum 0.1
h_count 6
";
        assert!(lint(text).iter().any(|v| v.contains("counts decrease")));
    }

    #[test]
    fn histogram_missing_inf_or_count_mismatch_is_flagged() {
        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"0.001\"} 5
h_sum 0.1
h_count 5
";
        assert!(lint(text).iter().any(|v| v.contains("no +Inf bucket")));

        let text = "\
# HELP h H.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 0.1
h_count 6
";
        assert!(lint(text).iter().any(|v| v.contains("!= _count")));
    }

    #[test]
    fn registry_render_passes_lint() {
        use crate::metrics::MetricsRegistry;
        use std::time::Duration;

        let registry = MetricsRegistry::new();
        registry
            .counter("rpg_a_total", "A.", &[("tenant", "x\"y\\z")])
            .inc();
        registry.gauge("rpg_b", "B.", &[]).set(-3);
        let h = registry.histogram("rpg_c_seconds", "C.", &[("tenant", "t")]);
        for us in [1, 50, 50, 200] {
            h.record(Duration::from_micros(us));
        }
        let text = registry.render();
        assert_eq!(lint(&text), Vec::<String>::new(), "exposition:\n{text}");
    }
}
