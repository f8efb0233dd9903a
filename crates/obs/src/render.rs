//! Prometheus text exposition (format version 0.0.4).

use std::fmt::Write;

use crate::registry::{LabelSet, MetricsRegistry, Series};

/// Escape a HELP string: backslash and newline.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value: backslash, double quote, and newline.
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render a label set as `{k="v",…}`, with `extra` appended last (used
/// for the histogram `le` label). Empty sets render as an empty string.
fn render_labels(set: &LabelSet, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = set
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

pub(crate) fn render(registry: &MetricsRegistry) -> String {
    let families = registry.families.read().expect("metrics lock");
    let mut out = String::new();
    for (name, family) in families.iter() {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
        for (labels, series) in &family.series {
            match series {
                Series::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                }
                Series::Histogram(h) => {
                    let snap = h.snapshot();
                    let cumulative = snap.cumulative();
                    for (bound, cum) in snap.bounds.iter().zip(&cumulative) {
                        let le = format!("{bound}");
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            render_labels(labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        render_labels(labels, Some(("le", "+Inf"))),
                        snap.count
                    );
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        render_labels(labels, None),
                        snap.sum
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        render_labels(labels, None),
                        snap.count
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn counter_exposition_is_exact() {
        let reg = MetricsRegistry::new();
        reg.counter("schemr_search_requests_total", "Total searches served.")
            .add(7);
        assert_eq!(
            reg.render_prometheus(),
            "# HELP schemr_search_requests_total Total searches served.\n\
             # TYPE schemr_search_requests_total counter\n\
             schemr_search_requests_total 7\n"
        );
    }

    #[test]
    fn labeled_counter_exposition_is_exact() {
        let reg = MetricsRegistry::new();
        reg.counter_with(
            "schemr_http_requests_total",
            "HTTP requests by route and status.",
            &[("route", "/search"), ("status", "200")],
        )
        .add(3);
        assert_eq!(
            reg.render_prometheus(),
            "# HELP schemr_http_requests_total HTTP requests by route and status.\n\
             # TYPE schemr_http_requests_total counter\n\
             schemr_http_requests_total{route=\"/search\",status=\"200\"} 3\n"
        );
    }

    #[test]
    fn histogram_exposition_is_exact() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with(
            "schemr_phase_seconds",
            "Per-phase wall time.",
            &[("phase", "matching")],
            &[0.01, 0.1],
        );
        h.observe(0.005);
        h.observe(0.05);
        h.observe(2.0);
        assert_eq!(
            reg.render_prometheus(),
            "# HELP schemr_phase_seconds Per-phase wall time.\n\
             # TYPE schemr_phase_seconds histogram\n\
             schemr_phase_seconds_bucket{phase=\"matching\",le=\"0.01\"} 1\n\
             schemr_phase_seconds_bucket{phase=\"matching\",le=\"0.1\"} 2\n\
             schemr_phase_seconds_bucket{phase=\"matching\",le=\"+Inf\"} 3\n\
             schemr_phase_seconds_sum{phase=\"matching\"} 2.055\n\
             schemr_phase_seconds_count{phase=\"matching\"} 3\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("m", "h", &[("q", "say \"hi\"\\\n")]).inc();
        let text = reg.render_prometheus();
        assert!(
            text.contains("m{q=\"say \\\"hi\\\"\\\\\\n\"} 1"),
            "escaping wrong: {text}"
        );
    }

    #[test]
    fn help_newlines_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "line one\nline two").inc();
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP m line one\\nline two\n"), "{text}");
    }

    #[test]
    fn families_render_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "b").inc();
        reg.counter("a_total", "a").inc();
        let text = reg.render_prometheus();
        assert!(text.find("a_total").unwrap() < text.find("b_total").unwrap());
    }
}
