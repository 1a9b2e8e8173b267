//! Prometheus-style text exposition of the metric registry.
//!
//! The gateway's `GetMetrics` response carries, alongside the
//! structured snapshot, a plain-text rendering that any scrape-style
//! collector can ingest. The format is a deterministic subset of the
//! Prometheus text format:
//!
//! ```text
//! exposition   = block*
//! block        = "# TYPE " name " " kind "\n" sample+
//! kind         = "counter" | "gauge" | "summary"
//! sample       = name [labels] " " value "\n"
//! name         = "mpros_" component "_" metric [ "_total" ]   ; counters get _total
//! labels       = "{quantile=\"0.5|0.95|0.99\"}"               ; summaries only
//! ```
//!
//! Histograms render as summaries: the three quantiles (omitted when
//! the histogram is empty), then `_count` and `_sum` rows. Within each
//! kind, series keep the registry's `(component, name)` sort order, so
//! the output for a given snapshot is unique — [`validate`] enforces
//! exactly that (no duplicate series, no unsorted series, every line
//! well-formed), and `tests/gateway_serving.rs` runs it on the text
//! a live gateway serves.
//!
//! Determinism: values are rendered with Rust's `f64` `Display`, which
//! is exact shortest-roundtrip formatting — two runs producing the same
//! snapshot produce the same bytes.

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use mpros_core::{Error, Result};
use std::fmt::Write as _;

/// Map a `(component, name)` pair onto a Prometheus-legal series name:
/// `mpros_<component>_<name>` with every non-alphanumeric character
/// folded to `_`.
pub fn series_name(component: &str, name: &str) -> String {
    let mut out = String::with_capacity(6 + component.len() + 1 + name.len());
    out.push_str("mpros_");
    for ch in component
        .chars()
        .chain(std::iter::once('_'))
        .chain(name.chars())
    {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render counters, gauges and histograms as the text exposition.
/// Within each kind, series are emitted in the order of their
/// *rendered* name (suffixes included) — the registry's raw
/// `(component, name)` order does not survive the `_`-folding and the
/// counters' `_total` suffix, and [`validate`] checks the rendered
/// names.
pub fn render(
    counters: &[CounterSnapshot],
    gauges: &[GaugeSnapshot],
    histograms: &[HistogramSnapshot],
) -> String {
    let mut counters: Vec<(String, &CounterSnapshot)> = counters
        .iter()
        .map(|c| (format!("{}_total", series_name(&c.component, &c.name)), c))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let mut gauges: Vec<(String, &GaugeSnapshot)> = gauges
        .iter()
        .map(|g| (series_name(&g.component, &g.name), g))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<(String, &HistogramSnapshot)> = histograms
        .iter()
        .map(|h| (series_name(&h.component, &h.name), h))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::new();
    for (name, c) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for (name, g) in &gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", g.value);
    }
    for (name, h) in &histograms {
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            if let Some(v) = v {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
        }
        let _ = writeln!(out, "{name}_count {}", h.count);
        let _ = writeln!(
            out,
            "{name}_sum {}",
            h.mean.map_or(0.0, |m| m * h.count as f64)
        );
    }
    out
}

/// Aggregate statistics from a validated exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpositionStats {
    /// `# TYPE ... counter` blocks.
    pub counters: usize,
    /// `# TYPE ... gauge` blocks.
    pub gauges: usize,
    /// `# TYPE ... summary` blocks.
    pub summaries: usize,
    /// Total sample lines across all blocks.
    pub samples: usize,
}

fn invalid(line_no: usize, line: &str, why: &str) -> Error {
    Error::invalid(format!("exposition line {}: {why}: {line:?}", line_no + 1))
}

/// Parse and check a text exposition produced by [`render`]: every
/// line must be a well-formed `# TYPE` header or sample, every sample
/// must belong to the preceding header's series, series names must not
/// repeat, and within each kind they must appear in sorted order.
pub fn validate(text: &str) -> Result<ExpositionStats> {
    let mut stats = ExpositionStats::default();
    let mut seen: Vec<String> = Vec::new();
    let mut last_by_kind: [Option<String>; 3] = [None, None, None];
    let mut current: Option<(String, usize, usize)> = None;
    for (line_no, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, _, samples)) = current.take() {
                if samples == 0 {
                    return Err(Error::invalid(format!(
                        "exposition: series {name} declared without samples"
                    )));
                }
            }
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| invalid(line_no, line, "malformed TYPE header"))?;
            let kind_ix = match kind {
                "counter" => 0,
                "gauge" => 1,
                "summary" => 2,
                _ => return Err(invalid(line_no, line, "unknown metric kind")),
            };
            match kind_ix {
                0 => stats.counters += 1,
                1 => stats.gauges += 1,
                _ => stats.summaries += 1,
            }
            if seen.iter().any(|s| s == name) {
                return Err(invalid(line_no, line, "duplicate series"));
            }
            if let Some(prev) = &last_by_kind[kind_ix] {
                if prev.as_str() >= name {
                    return Err(invalid(line_no, line, "unsorted series"));
                }
            }
            last_by_kind[kind_ix] = Some(name.to_owned());
            seen.push(name.to_owned());
            current = Some((name.to_owned(), kind_ix, 0));
        } else if line.is_empty() {
            return Err(invalid(line_no, line, "blank line"));
        } else {
            let (name_and_labels, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| invalid(line_no, line, "malformed sample"))?;
            value
                .parse::<f64>()
                .map_err(|_| invalid(line_no, line, "unparseable value"))?;
            let base = name_and_labels
                .split_once('{')
                .map_or(name_and_labels, |(b, _)| b);
            let (series, kind_ix, samples) = current
                .as_mut()
                .ok_or_else(|| invalid(line_no, line, "sample before any TYPE header"))?;
            // Counters and gauges carry exactly one sample; a second
            // line for the same series is a duplicate, not a rollup.
            if *kind_ix < 2 && *samples > 0 {
                return Err(invalid(line_no, line, "duplicate sample"));
            }
            let belongs = match *kind_ix {
                0 | 1 => base == series,
                _ => {
                    base == series
                        || base == format!("{series}_count")
                        || base == format!("{series}_sum")
                }
            };
            if !belongs {
                return Err(invalid(line_no, line, "sample outside its TYPE block"));
            }
            *samples += 1;
            stats.samples += 1;
        }
    }
    if let Some((name, _, samples)) = current {
        if samples == 0 {
            return Err(Error::invalid(format!(
                "exposition: series {name} declared without samples"
            )));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(component: &str, name: &str, value: u64) -> CounterSnapshot {
        CounterSnapshot {
            component: component.to_owned(),
            name: name.to_owned(),
            value,
        }
    }

    fn gauge(component: &str, name: &str, value: f64) -> GaugeSnapshot {
        GaugeSnapshot {
            component: component.to_owned(),
            name: name.to_owned(),
            value,
        }
    }

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let h = HistogramSnapshot {
            component: "net".into(),
            name: "transit_s".into(),
            count: 4,
            min: Some(0.5),
            max: Some(2.0),
            mean: Some(1.0),
            p50: Some(1.0),
            p95: Some(2.0),
            p99: Some(2.0),
        };
        let text = render(
            &[counter("net", "frames.sent", 12)],
            &[gauge("pdme", "queue.depth", 3.0)],
            &[h],
        );
        assert!(text.contains("# TYPE mpros_net_frames_sent_total counter\n"));
        assert!(text.contains("mpros_net_frames_sent_total 12\n"));
        assert!(text.contains("# TYPE mpros_pdme_queue_depth gauge\n"));
        assert!(text.contains("mpros_pdme_queue_depth 3\n"));
        assert!(text.contains("# TYPE mpros_net_transit_s summary\n"));
        assert!(text.contains("mpros_net_transit_s{quantile=\"0.5\"} 1\n"));
        assert!(text.contains("mpros_net_transit_s_count 4\n"));
        assert!(text.contains("mpros_net_transit_s_sum 4\n"));
        let stats = validate(&text).unwrap();
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.gauges, 1);
        assert_eq!(stats.summaries, 1);
        assert_eq!(stats.samples, 7);
    }

    #[test]
    fn empty_exposition_is_valid() {
        let text = render(&[], &[], &[]);
        assert!(text.is_empty());
        assert_eq!(validate(&text).unwrap(), ExpositionStats::default());
    }

    #[test]
    fn validate_rejects_duplicate_series() {
        let text = "# TYPE mpros_a_b_total counter\nmpros_a_b_total 1\n\
                    # TYPE mpros_a_b_total counter\nmpros_a_b_total 2\n";
        assert!(validate(text).is_err());
    }

    #[test]
    fn validate_rejects_unsorted_series() {
        let text = "# TYPE mpros_b_x_total counter\nmpros_b_x_total 1\n\
                    # TYPE mpros_a_x_total counter\nmpros_a_x_total 2\n";
        assert!(validate(text).is_err());
    }

    #[test]
    fn validate_rejects_stray_and_malformed_lines() {
        assert!(validate("mpros_orphan 1\n").is_err());
        assert!(validate("# TYPE mpros_a gauge\nmpros_a notanumber\n").is_err());
        assert!(validate("# TYPE mpros_a gauge\nmpros_other 1\n").is_err());
        assert!(validate("# TYPE mpros_a widget\nmpros_a 1\n").is_err());
        assert!(validate("# TYPE mpros_a gauge\n").is_err());
    }
}
