//! The perf-regression gate: diff a freshly produced
//! `BENCH_throughput.json` against the committed `BENCH_baseline.json`
//! and fail CI when the ship got slower.
//!
//! Every gated metric is wall-clock: it describes the host as much as
//! the code. CI boxes are noisy and heterogeneous, so a rate fails only
//! when it falls below `(1 - tol)` of baseline and a time only when it
//! rises above `baseline / (1 - tol)`, with `tol` = [`WALL_TOL`] (a 2×
//! slowdown is a regression anywhere). The deterministic simulation
//! outputs (counters, WAL volume, sim-time quantiles) are pinned exactly
//! by `tests/fingerprints.rs` instead.
//!
//! Usage: `perf_gate`, from the directory holding both documents.

use serde_json::Value;

/// How one metric is judged against its baseline value.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Wall-clock rate: current must be at least `(1 - tol) × baseline`.
    Rate,
    /// A wall-clock rate that also measures OS scheduler fairness, so
    /// it gets double the headroom of [`Check::Rate`].
    ContendedRate,
    /// Wall-clock latency (lower is better): current must stay at or
    /// below `baseline / (1 - tol)` — the mirror of [`Check::Rate`].
    Time,
}

use Check::{ContendedRate, Rate, Time};

/// The committed baseline document.
const BASELINE: &str = "BENCH_baseline.json";
/// The document `exp_throughput` and `exp_serving` write.
const CURRENT: &str = "BENCH_throughput.json";
/// Wall-clock tolerance.
const WALL_TOL: f64 = 0.5;

/// Every gated metric, by dotted path.
const CHECKS: &[(&str, Check)] = &[
    // Wall-clock rates: host-dependent, loose floor. The WAL append
    // rate rides here — recovery latencies are recorded in the document
    // but not gated (they measure a 20-sample spot check, too noisy to
    // floor meaningfully).
    ("single_core_samples_per_s", Rate),
    ("aggregate_samples_per_s_8_workers", Rate),
    ("pdme_reports_per_s_100_dcs", Rate),
    ("scaling.sequential_steps_per_s", Rate),
    ("scaling.parallel_steps_per_s", Rate),
    ("store.appends_per_s", Rate),
    ("dsp.windows_per_s", Rate),
    ("dsp.spectra_per_s", Rate),
    ("dsp.alloc_spectra_per_s", Rate),
    ("dsp.ifft_per_s", Rate),
    ("dsp.synthesize_per_s", Rate),
    // Serving layer (the `serving{}` block `exp_serving` merges in):
    // query throughput and the under-load publish rate are wall-clock
    // rates; service-time quantiles are lower-is-better wall times.
    // The under-load publish rate additionally measures OS scheduler
    // fairness (N spinning clients vs one stepper), which is far
    // noisier than code speed on small hosts.
    ("serving.qps", Rate),
    ("serving.publish_rate_per_s", ContendedRate),
    ("serving.unserved_publish_rate_per_s", Rate),
    ("serving.p50_s", Time),
    ("serving.p95_s", Time),
    // Observability mix (the `obs{}` block `exp_serving` merges in):
    // GetMetrics service time is a lower-is-better wall time and the
    // journal tail poll rate a wall rate.
    ("obs.metrics_p50_s", Time),
    ("obs.metrics_p95_s", Time),
    ("obs.journal_tail_qps", Rate),
    // Fleet plane (the `fleet{}` block `exp_serving` merges in): the
    // routed-query rate is a wall rate and the rollup service-time
    // quantiles are lower-is-better wall times.
    ("fleet.fleet_qps", Rate),
    ("fleet.rollup_p50_s", Time),
    ("fleet.rollup_p95_s", Time),
    // Per-survey DSP extraction latency: lower-is-better wall time,
    // same loose host tolerance as the rates.
    ("dsp.survey_extract_p50_s", Time),
    ("dsp.survey_extract_p95_s", Time),
];

struct Gate {
    violations: Vec<String>,
    checked: usize,
}

impl Gate {
    /// Judge `current` against `baseline` on every [`CHECKS`] entry.
    fn run(base: &Value, cur: &Value) -> Self {
        let mut gate = Gate {
            violations: Vec::new(),
            checked: 0,
        };
        for &(path, check) in CHECKS {
            let pair = at(base, path)
                .and_then(Value::as_f64)
                .zip(at(cur, path).and_then(Value::as_f64));
            let Some((b, c)) = pair else {
                gate.violations
                    .push(format!("{path}: missing from document"));
                continue;
            };
            match check {
                Rate => gate.wall_rate(path, b, c, WALL_TOL),
                ContendedRate => gate.wall_rate(path, b, c, 1.0 - (1.0 - WALL_TOL) * 0.5),
                Time => gate.wall_time(path, b, c, WALL_TOL),
            }
        }
        gate
    }

    fn wall_rate(&mut self, name: &str, base: f64, cur: f64, tol: f64) {
        self.checked += 1;
        let floor = base * (1.0 - tol);
        if cur < floor {
            self.violations.push(format!(
                "{name}: {cur:.2} fell below {floor:.2} \
                 (baseline {base:.2}, tolerance {:.0}%)",
                tol * 100.0
            ));
        }
    }

    fn wall_time(&mut self, name: &str, base: f64, cur: f64, tol: f64) {
        self.checked += 1;
        let ceiling = base / (1.0 - tol).max(1e-9);
        if cur > ceiling {
            self.violations.push(format!(
                "{name}: {cur:.6} rose above {ceiling:.6} \
                 (baseline {base:.6}, tolerance {:.0}%)",
                tol * 100.0
            ));
        }
    }
}

/// The value at a dotted path (`"scaling.parallel_steps_per_s"`).
fn at<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("perf_gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let base = load(BASELINE);
    let cur = load(CURRENT);

    // Schema must line up: a version bump means the baseline needs
    // re-blessing, not silent field-by-field skipping.
    let version = |doc: &Value| {
        at(doc, "schema_version")
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (bv, cv) = (version(&base), version(&cur));
    if bv != cv {
        eprintln!(
            "perf_gate: schema mismatch — baseline v{bv}, current v{cv}; \
             regenerate {BASELINE} from the current binary"
        );
        std::process::exit(1);
    }

    let gate = Gate::run(&base, &cur);

    if gate.violations.is_empty() {
        println!(
            "perf gate PASS: {} metrics within budget (wall tolerance {:.0}%) \
             against {BASELINE}",
            gate.checked,
            WALL_TOL * 100.0
        );
    } else {
        eprintln!("perf gate FAIL against {BASELINE}:");
        for v in &gate.violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A document holding every [`CHECKS`] metric at 100 except where
    /// `value` overrides it (`None` leaves the metric out).
    fn doc(value: &[(&str, Option<&str>)]) -> Value {
        let mut sections: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for &(path, _) in CHECKS {
            let v = match value.iter().find(|(p, _)| *p == path) {
                Some((_, None)) => continue,
                Some((_, Some(v))) => v,
                None => "100",
            };
            let (section, key) = path.split_once('.').unwrap_or(("", path));
            sections
                .entry(section)
                .or_default()
                .push(format!("\"{key}\": {v}"));
        }
        let mut fields = sections.remove("").unwrap_or_default();
        for (section, entries) in sections {
            fields.push(format!("\"{section}\": {{{}}}", entries.join(", ")));
        }
        serde_json::from_str(&format!("{{{}}}", fields.join(", "))).expect("valid JSON")
    }

    fn violations(cur: &Value) -> Vec<String> {
        Gate::run(&doc(&[]), cur).violations
    }

    #[test]
    fn committed_baseline_passes_against_itself_on_24_metrics() {
        let baseline: Value =
            serde_json::from_str(include_str!("../../../../BENCH_baseline.json")).unwrap();
        let gate = Gate::run(&baseline, &baseline);
        assert_eq!(gate.violations, Vec::<String>::new());
        assert_eq!(gate.checked, 24);
    }

    #[test]
    fn identical_documents_pass() {
        let gate = Gate::run(&doc(&[]), &doc(&[]));
        assert!(gate.violations.is_empty());
        assert_eq!(gate.checked, CHECKS.len());
    }

    #[test]
    fn rate_below_its_floor_fires() {
        let cur = doc(&[("scaling.sequential_steps_per_s", Some("49"))]);
        assert_eq!(
            violations(&cur),
            ["scaling.sequential_steps_per_s: 49.00 fell below 50.00 \
              (baseline 100.00, tolerance 50%)"]
        );
        // At the floor is still a pass.
        let cur = doc(&[("scaling.sequential_steps_per_s", Some("50"))]);
        assert!(violations(&cur).is_empty());
    }

    #[test]
    fn contended_rate_gets_double_headroom() {
        let cur = doc(&[("serving.publish_rate_per_s", Some("26"))]);
        assert!(violations(&cur).is_empty());
        let cur = doc(&[("serving.publish_rate_per_s", Some("24"))]);
        assert_eq!(
            violations(&cur),
            ["serving.publish_rate_per_s: 24.00 fell below 25.00 \
              (baseline 100.00, tolerance 75%)"]
        );
    }

    #[test]
    fn time_above_its_ceiling_fires() {
        let cur = doc(&[("fleet.rollup_p95_s", Some("201"))]);
        assert_eq!(
            violations(&cur),
            ["fleet.rollup_p95_s: 201.000000 rose above 200.000000 \
              (baseline 100.000000, tolerance 50%)"]
        );
    }

    #[test]
    fn missing_key_fires() {
        let cur = doc(&[("obs.journal_tail_qps", None)]);
        assert_eq!(
            violations(&cur),
            ["obs.journal_tail_qps: missing from document"]
        );
        let gate = Gate::run(&doc(&[]), &cur);
        assert_eq!(gate.checked, CHECKS.len() - 1);
    }
}
