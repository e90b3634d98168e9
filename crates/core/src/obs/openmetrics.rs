//! OpenMetrics text exposition of a `RunReport`, plus a line-format
//! validator used by CI and the unit tests.
//!
//! The exposition maps the report's sections onto five metric families,
//! using labels rather than per-name families so the output stays a
//! fixed, scrape-friendly schema regardless of which counters a run
//! happened to touch:
//!
//! | section  | family                         | type      | labels           |
//! |----------|--------------------------------|-----------|------------------|
//! | spans    | `dlp_span_nanos` / `dlp_span_runs` | counter | `span`        |
//! | counters | `dlp_counter`                  | counter   | `name`           |
//! | gauges   | `dlp_gauge`                    | gauge     | `name`           |
//! | series   | `dlp_series_points`            | gauge     | `name`           |
//! | hists    | `dlp_hist`                     | histogram | `name`, `le`     |
//!
//! Histogram buckets are emitted **cumulative** with a terminal
//! `le="+Inf"` bucket equal to `dlp_hist_count`, counter samples carry
//! the mandatory `_total` suffix, and the exposition ends with `# EOF` —
//! the three OpenMetrics rules naive exporters most often break, and the
//! ones [`validate`] checks hardest.

use super::RunReport;

/// A malformed OpenMetrics exposition, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmError {
    /// 1-based line number of the offending line (0 for document-level
    /// problems such as a missing `# EOF`).
    pub line: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl std::fmt::Display for OmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid OpenMetrics at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for OmError {}

/// Escapes a label value per the OpenMetrics text format.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` sample value (OpenMetrics spells non-finite values
/// `NaN` / `+Inf` / `-Inf`).
fn sample_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Splits a metric name shaped `base{k=v,...}` into its base name and
/// label pairs, so recorders can emit labeled metrics (e.g.
/// `serve.request_seconds{endpoint=dl,cache=hit}`) through the
/// plain-string `Recorder` API. Returns `None` — the whole name is
/// treated as one opaque `name` label — unless the shape is exact: a
/// single trailing `{...}` group on a non-empty base, every key a
/// valid, non-reserved (`name`/`le`/`span`), non-duplicate label name,
/// and every value non-empty and free of characters that would collide
/// with the rendered label syntax.
fn split_labeled_name(name: &str) -> Option<(&str, Vec<(&str, &str)>)> {
    let open = name.find('{')?;
    if !name.ends_with('}') || open == 0 {
        return None;
    }
    let base = &name[..open];
    let body = &name[open + 1..name.len() - 1];
    if body.is_empty() || body.contains(['{', '}']) {
        return None;
    }
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for part in body.split(',') {
        let (k, v) = part.split_once('=')?;
        if !is_valid_label_name(k) || matches!(k, "name" | "le" | "span") {
            return None;
        }
        if v.is_empty() || v.contains(['"', '\\', '\n', '=', ',']) {
            return None;
        }
        if pairs.iter().any(|&(pk, _)| pk == k) {
            return None;
        }
        pairs.push((k, v));
    }
    Some((base, pairs))
}

/// The rendered label body for a (possibly `{k=v}`-labeled) metric
/// name: `name="base"` plus one label per embedded pair.
fn name_labels(name: &str) -> String {
    match split_labeled_name(name) {
        Some((base, pairs)) => {
            let mut out = format!("name=\"{}\"", escape_label(base));
            for (k, v) in pairs {
                out.push_str(&format!(",{k}=\"{}\"", escape_label(v)));
            }
            out
        }
        None => format!("name=\"{}\"", escape_label(name)),
    }
}

/// Renders `report` as OpenMetrics text (see the module docs for the
/// family schema).
pub(crate) fn render(report: &RunReport) -> String {
    let mut out = String::new();
    if !report.spans.is_empty() {
        out.push_str("# TYPE dlp_span_nanos counter\n");
        out.push_str("# HELP dlp_span_nanos Accumulated wall-clock nanoseconds per span.\n");
        for s in &report.spans {
            out.push_str(&format!(
                "dlp_span_nanos_total{{span=\"{}\"}} {}\n",
                escape_label(&s.name),
                s.nanos
            ));
        }
        out.push_str("# TYPE dlp_span_runs counter\n");
        for s in &report.spans {
            out.push_str(&format!(
                "dlp_span_runs_total{{span=\"{}\"}} {}\n",
                escape_label(&s.name),
                s.count
            ));
        }
    }
    if !report.counters.is_empty() {
        out.push_str("# TYPE dlp_counter counter\n");
        for (n, v) in &report.counters {
            out.push_str(&format!("dlp_counter_total{{{}}} {v}\n", name_labels(n)));
        }
    }
    if !report.gauges.is_empty() {
        out.push_str("# TYPE dlp_gauge gauge\n");
        for (n, v) in &report.gauges {
            out.push_str(&format!(
                "dlp_gauge{{{}}} {}\n",
                name_labels(n),
                sample_value(*v)
            ));
        }
    }
    if !report.series.is_empty() {
        out.push_str("# TYPE dlp_series_points gauge\n");
        for (n, vs) in &report.series {
            out.push_str(&format!(
                "dlp_series_points{{{}}} {}\n",
                name_labels(n),
                vs.len()
            ));
        }
    }
    if !report.hists.is_empty() {
        out.push_str("# TYPE dlp_hist histogram\n");
        for h in &report.hists {
            let labels = name_labels(&h.name);
            let mut cum = 0u64;
            for &(bound, count) in &h.buckets {
                cum += count;
                out.push_str(&format!(
                    "dlp_hist_bucket{{{labels},le=\"{}\"}} {cum}\n",
                    sample_value(bound)
                ));
            }
            out.push_str(&format!(
                "dlp_hist_bucket{{{labels},le=\"+Inf\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("dlp_hist_count{{{labels}}} {}\n", h.count));
            out.push_str(&format!(
                "dlp_hist_sum{{{labels}}} {}\n",
                sample_value(h.sum)
            ));
        }
    }
    out.push_str("# EOF\n");
    out
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_sample_value(token: &str) -> Option<f64> {
    match token {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        t => t.parse::<f64>().ok(),
    }
}

/// One parsed sample line: name, sorted labels, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `name{label="v",...} value [timestamp]`.
fn parse_sample(line: &str, line_no: usize) -> Result<Sample, OmError> {
    let err = |message| OmError {
        line: line_no,
        message,
    };
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| err("sample line has no value"))?;
    let name = &line[..name_end];
    if !is_valid_metric_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let mut rest = &line[name_end..];
    if let Some(body) = rest.strip_prefix('{') {
        // Quote-aware scan for the closing brace.
        let mut end = None;
        let mut in_quotes = false;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
            } else if in_quotes && c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_quotes = !in_quotes;
            } else if !in_quotes && c == '}' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| err("unterminated label set"))?;
        let label_body = &body[..end];
        rest = &body[end + 1..];
        if !label_body.is_empty() {
            for pair in split_label_pairs(label_body, line_no)? {
                let (lname, lvalue) = pair;
                if !is_valid_label_name(&lname) {
                    return Err(err("invalid label name"));
                }
                if labels.iter().any(|(n, _)| *n == lname) {
                    return Err(err("duplicate label name"));
                }
                labels.push((lname, lvalue));
            }
        }
    }
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| err("expected a space before the sample value"))?;
    let mut tokens = rest.split(' ');
    let value = tokens
        .next()
        .and_then(parse_sample_value)
        .ok_or_else(|| err("malformed sample value"))?;
    if let Some(ts) = tokens.next() {
        if ts.parse::<f64>().is_err() {
            return Err(err("malformed timestamp"));
        }
    }
    if tokens.next().is_some() {
        return Err(err("trailing tokens after the sample"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Splits `a="x",b="y"` into pairs, unescaping the values.
fn split_label_pairs(body: &str, line_no: usize) -> Result<Vec<(String, String)>, OmError> {
    let err = |message| OmError {
        line: line_no,
        message,
    };
    let mut pairs = Vec::new();
    let mut rest = body;
    loop {
        let eq = rest.find('=').ok_or_else(|| err("label without '='"))?;
        let name = rest[..eq].to_string();
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| err("label value must be quoted"))?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let mut close = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err(err("invalid escape in label value")),
                },
                '"' => {
                    close = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let close = close.ok_or_else(|| err("unterminated label value"))?;
        pairs.push((name, value));
        let tail = &after[close + 1..];
        if tail.is_empty() {
            return Ok(pairs);
        }
        rest = tail
            .strip_prefix(',')
            .ok_or_else(|| err("expected ',' between labels"))?;
    }
}

/// Serialises a label set minus `le`, as a histogram grouping key.
fn group_key(labels: &[(String, String)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .filter(|(n, _)| n != "le")
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    parts.sort();
    parts.join(",")
}

#[derive(Default)]
struct HistGroup {
    /// `(le, cumulative_count)` in emission order.
    buckets: Vec<(f64, f64)>,
    count: Option<f64>,
    last_line: usize,
}

/// Validates an OpenMetrics text exposition line by line.
///
/// Checks the rules that matter for scrapeability: metric/label name
/// grammar, quoted-and-escaped label values, a `# TYPE` before any
/// sample of a family, counter samples suffixed `_total` with finite
/// non-negative values, histogram `_bucket` series cumulative in `le`
/// with a `+Inf` bucket equal to `_count`, and a terminal `# EOF` with
/// nothing after it.
///
/// # Errors
///
/// [`OmError`] naming the first offending line.
pub fn validate(text: &str) -> Result<(), OmError> {
    use std::collections::BTreeMap;

    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut hist_groups: BTreeMap<(String, String), HistGroup> = BTreeMap::new();
    let mut saw_eof = false;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let err = |message| OmError {
            line: line_no,
            message,
        };
        if saw_eof {
            return Err(err("content after '# EOF'"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut tokens = comment.splitn(3, ' ');
            match tokens.next() {
                Some("TYPE") => {
                    let name = tokens.next().ok_or_else(|| err("TYPE without a name"))?;
                    let kind = tokens.next().ok_or_else(|| err("TYPE without a type"))?;
                    if !is_valid_metric_name(name) {
                        return Err(err("invalid metric name in TYPE"));
                    }
                    if !matches!(
                        kind,
                        "counter"
                            | "gauge"
                            | "histogram"
                            | "summary"
                            | "info"
                            | "stateset"
                            | "unknown"
                            | "gaugehistogram"
                    ) {
                        return Err(err("unknown metric type"));
                    }
                    if families
                        .insert(name.to_string(), kind.to_string())
                        .is_some()
                    {
                        return Err(err("family declared twice"));
                    }
                }
                Some("HELP") | Some("UNIT") => {
                    let name = tokens
                        .next()
                        .ok_or_else(|| err("directive without a name"))?;
                    if !is_valid_metric_name(name) {
                        return Err(err("invalid metric name in directive"));
                    }
                }
                _ => return Err(err("unknown comment directive")),
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            return Err(err("malformed line"));
        }
        let sample = parse_sample(line, line_no)?;
        // Resolve the sample back to a declared family.
        let (family, kind) = if let Some(base) = sample.name.strip_suffix("_total") {
            match families.get(base).map(String::as_str) {
                Some("counter") => (base.to_string(), "counter".to_string()),
                _ => return Err(err("'_total' sample without a counter TYPE")),
            }
        } else if let Some(kind) = families.get(&sample.name) {
            match kind.as_str() {
                "counter" => return Err(err("counter sample must end in '_total'")),
                "histogram" => {
                    return Err(err(
                        "histogram sample must end in '_bucket'/'_count'/'_sum'",
                    ))
                }
                _ => (sample.name.clone(), kind.clone()),
            }
        } else if let Some(base) = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_count"))
            .or_else(|| sample.name.strip_suffix("_sum"))
        {
            match families.get(base).map(String::as_str) {
                Some("histogram") => (base.to_string(), "histogram".to_string()),
                _ => return Err(err("histogram-suffixed sample without a histogram TYPE")),
            }
        } else {
            return Err(err("sample without a matching '# TYPE'"));
        };
        match kind.as_str() {
            "counter" if !sample.value.is_finite() || sample.value < 0.0 => {
                return Err(err("counter value must be finite and non-negative"));
            }
            "histogram" => {
                let group = hist_groups
                    .entry((family.clone(), group_key(&sample.labels)))
                    .or_default();
                group.last_line = line_no;
                if sample.name.ends_with("_bucket") {
                    let le = sample
                        .labels
                        .iter()
                        .find(|(n, _)| n == "le")
                        .and_then(|(_, v)| parse_sample_value(v))
                        .ok_or_else(|| err("histogram bucket without an 'le' label"))?;
                    if let Some(&(prev_le, prev_cum)) = group.buckets.last() {
                        if le <= prev_le {
                            return Err(err("bucket 'le' bounds must increase"));
                        }
                        if sample.value < prev_cum {
                            return Err(err("bucket counts must be cumulative"));
                        }
                    }
                    group.buckets.push((le, sample.value));
                } else if sample.name.ends_with("_count") {
                    group.count = Some(sample.value);
                }
            }
            "gauge" if sample.name != family => {
                return Err(err("gauge sample name must equal its family name"));
            }
            _ => {}
        }
    }
    if !saw_eof {
        return Err(OmError {
            line: 0,
            message: "missing terminal '# EOF'",
        });
    }
    for ((_, _), group) in hist_groups {
        let inf = group
            .buckets
            .last()
            .filter(|&&(le, _)| le == f64::INFINITY)
            .map(|&(_, c)| c)
            .ok_or(OmError {
                line: group.last_line,
                message: "histogram without a '+Inf' bucket",
            })?;
        let count = group.count.ok_or(OmError {
            line: group.last_line,
            message: "histogram without a '_count' sample",
        })?;
        if inf != count {
            return Err(OmError {
                line: group.last_line,
                message: "'+Inf' bucket must equal '_count'",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::Recorder;
    use super::*;

    fn demo_report() -> RunReport {
        let obs = Recorder::enabled();
        {
            let _span = obs.span("extract");
            obs.add("extract.faults", 1182);
            obs.gauge("extract.weight.total", 0.2876);
            obs.gauge("bad \"label\"\\path", f64::NAN);
            obs.push("sim.gate.live_per_block", 864.0);
            obs.push("sim.gate.live_per_block", 131.0);
            for v in [1.0, 2.0, 3.0, 900.0] {
                obs.observe("sim.gate.detects_per_block", v);
            }
        }
        obs.report("demo")
    }

    #[test]
    fn rendered_report_is_valid_openmetrics() {
        let text = demo_report().to_openmetrics();
        validate(&text).expect("exposition must validate");
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("dlp_counter_total{name=\"extract.faults\"} 1182"));
        assert!(text.contains("dlp_gauge{name=\"extract.weight.total\"} 0.2876"));
        assert!(text.contains("dlp_gauge{name=\"bad \\\"label\\\"\\\\path\"} NaN"));
        assert!(text.contains("dlp_series_points{name=\"sim.gate.live_per_block\"} 2"));
        assert!(text.contains("dlp_hist_count{name=\"sim.gate.detects_per_block\"} 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
        assert!(text.contains("dlp_span_nanos_total{span=\"extract\"}"));
    }

    #[test]
    fn empty_report_renders_just_eof() {
        let text = Recorder::enabled().report("empty").to_openmetrics();
        assert_eq!(text, "# EOF\n");
        validate(&text).expect("bare EOF is a valid exposition");
    }

    #[test]
    fn embedded_labels_become_real_labels() {
        let obs = Recorder::enabled();
        obs.add("serve.requests{endpoint=dl,cache=hit}", 3);
        obs.observe("serve.request_seconds{endpoint=dl,cache=miss}", 0.25);
        obs.observe("serve.request_seconds{endpoint=dl,cache=hit}", 0.01);
        obs.gauge("load{zone=a}", 1.5);
        let text = obs.report("labeled").to_openmetrics();
        validate(&text).expect("labeled exposition validates");
        assert!(text.contains(
            "dlp_counter_total{name=\"serve.requests\",endpoint=\"dl\",cache=\"hit\"} 3"
        ));
        assert!(text.contains(
            "dlp_hist_count{name=\"serve.request_seconds\",endpoint=\"dl\",cache=\"miss\"} 1"
        ));
        assert!(text
            .contains("dlp_hist_bucket{name=\"serve.request_seconds\",endpoint=\"dl\",cache=\"hit\",le=\"+Inf\"} 1"));
        assert!(text.contains("dlp_gauge{name=\"load\",zone=\"a\"} 1.5"));
    }

    #[test]
    fn malformed_embedded_labels_stay_opaque() {
        // Names that merely resemble the labeled shape must round-trip
        // as one escaped `name` value, not as broken label syntax.
        let cases = [
            "plain{",        // unterminated
            "{endpoint=dl}", // empty base
            "x{}",           // empty body
            "x{endpoint}",   // no value
            "x{le=1}",       // reserved key
            "x{name=y}",     // reserved key
            "x{a=1,a=2}",    // duplicate key
            "x{9bad=1}",     // invalid key
            "x{a=}",         // empty value
            "x{a=b\"c}",     // quote in value
            "x{a=b}{c=d}",   // second group
        ];
        let obs = Recorder::enabled();
        for (i, name) in cases.iter().enumerate() {
            obs.add(name, i as u64 + 1);
            obs.observe(&format!("h.{name}"), 1.0);
        }
        let text = obs.report("opaque").to_openmetrics();
        validate(&text).expect("opaque fallback still validates");
        for name in cases {
            assert!(
                text.contains(&format!("name=\"{}\"", escape_label(name))),
                "{name} should render as an opaque name label"
            );
        }
    }

    #[test]
    fn hist_buckets_are_cumulative_in_the_exposition() {
        let obs = Recorder::enabled();
        for v in [1.0, 1.1, 2.0, 600.0] {
            obs.observe("h", v);
        }
        let text = obs.report("r").to_openmetrics();
        // Per-bucket counts are 2/1/1 but the exposition is cumulative.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("dlp_hist_bucket"))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            })
            .collect();
        assert_eq!(*cums.last().expect("has buckets"), 4, "+Inf == count");
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "{cums:?}");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (bad, why) in [
            ("dlp_gauge{name=\"x\"} 1\n# EOF\n", "sample before TYPE"),
            ("# TYPE dlp_gauge gauge\ndlp_gauge{name=\"x\"} 1\n", "missing EOF"),
            ("# EOF\nextra\n", "content after EOF"),
            (
                "# TYPE c counter\nc{name=\"x\"} 1\n# EOF\n",
                "counter sample without _total",
            ),
            (
                "# TYPE c counter\nc_total{name=\"x\"} -1\n# EOF\n",
                "negative counter",
            ),
            (
                "# TYPE c counter\nc_total{name=\"x} 1\n# EOF\n",
                "unterminated label value",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_count 2\n# EOF\n",
                "non-cumulative buckets",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n# EOF\n",
                "no +Inf bucket",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 2\n# EOF\n",
                "+Inf != count",
            ),
            ("# TYPE g gauge\n9bad 1\n# EOF\n", "invalid metric name"),
            ("# TYPE g gauge\ng{l=\"\\q\"} 1\n# EOF\n", "invalid escape"),
            ("# TYPE g gauge gauge extra\n# EOF\n", "TYPE with junk"),
            ("hello world\n# EOF\n", "free text"),
        ] {
            assert!(validate(bad).is_err(), "{why}: {bad:?} must not validate");
        }
    }

    #[test]
    fn validator_accepts_well_formed_hand_written_exposition() {
        let text = "\
# TYPE acme_requests counter
# HELP acme_requests Requests handled.
acme_requests_total{path=\"/a b\",code=\"200\"} 7 1700000000
# TYPE acme_temp gauge
acme_temp 21.5
# TYPE acme_lat histogram
acme_lat_bucket{le=\"0.1\"} 2
acme_lat_bucket{le=\"+Inf\"} 5
acme_lat_count 5
acme_lat_sum 0.93
# EOF
";
        validate(text).expect("hand-written exposition validates");
    }

    #[test]
    fn om_error_displays_its_line() {
        let err = validate("garbage\n# EOF\n").expect_err("invalid");
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
