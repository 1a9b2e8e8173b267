//! The perf-regression gate: diff a freshly produced
//! `BENCH_throughput.json` against the committed `BENCH_baseline.json`
//! and fail CI when the ship got slower or — worse — when the
//! *deterministic* simulation outputs drifted.
//!
//! Two classes of metric, two very different tolerances:
//!
//! * **Wall-clock rates** (samples/s, steps/s, reports/s) describe the
//!   host as much as the code. CI boxes are noisy and heterogeneous, so
//!   these only fail when a rate falls below `(1 - tol)` of baseline,
//!   with `tol` from `PERF_GATE_WALL_TOL` (default 0.5 — a 2× slowdown
//!   is a regression anywhere).
//! * **Simulated-time metrics** (latency quantiles, network delivery
//!   counters) are products of the deterministic engine: identical
//!   seeds must reproduce them to the bit. Any drift means the
//!   simulation's observable behaviour changed without the baseline
//!   being re-blessed, and the gate fails loudly.
//!
//! Usage: `perf_gate [--baseline PATH] [--current PATH]`.

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
    /// Deterministic integer: must match exactly.
    Exact,
}

use Check::{ContendedRate, Exact, Rate, Time};

/// Every gated metric outside `sim_latencies`, by dotted path.
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
    // Serving invariants: the scenario is seeded and the stepping count
    // fixed, so the version/publish accounting (and a clean wire) must
    // reproduce exactly. Request totals are time-bounded and ride the
    // qps rate instead.
    ("serving.clients", Exact),
    ("serving.steps", Exact),
    ("serving.final_version", Exact),
    ("serving.snapshot_publishes", Exact),
    ("serving.bad_frames", Exact),
    // Observability mix (the `obs{}` block `exp_serving` merges in):
    // GetMetrics service time is a lower-is-better wall time and the
    // journal tail poll rate a wall rate; the final exposition length
    // and the sealed-incident count are products of the seeded
    // scenario's filtered serving surface, so they must reproduce
    // exactly.
    ("obs.metrics_p50_s", Time),
    ("obs.metrics_p95_s", Time),
    ("obs.journal_tail_qps", Rate),
    ("obs.exposition_len_final", Exact),
    ("obs.incidents_sealed", Exact),
    // Fleet plane (the `fleet{}` block `exp_serving` merges in): the
    // routed-query rate is a wall rate and the rollup service-time
    // quantiles are lower-is-better wall times; everything else — the
    // request/publish/census accounting of the fixed, seeded scenario —
    // must reproduce exactly.
    ("fleet.fleet_qps", Rate),
    ("fleet.rollup_p50_s", Time),
    ("fleet.rollup_p95_s", Time),
    ("fleet.ships", Exact),
    ("fleet.rounds", Exact),
    ("fleet.fleet_clients", Exact),
    ("fleet.requests_total", Exact),
    ("fleet.routed_ship_requests", Exact),
    ("fleet.fleet_publishes", Exact),
    ("fleet.final_fleet_version", Exact),
    ("fleet.bad_frames", Exact),
    ("fleet.ships_available", Exact),
    ("fleet.rollup_machines", Exact),
    ("fleet.rollup_prognostics", Exact),
    // Per-survey DSP extraction latency: lower-is-better wall time,
    // same loose host tolerance as the rates.
    ("dsp.survey_extract_p50_s", Time),
    ("dsp.survey_extract_p95_s", Time),
    // DSP context counters: both the fixed microbench workload and the
    // seeded fleet run drive the context deterministically, so plan and
    // scratch accounting must reproduce exactly.
    ("dsp.plans_cached", Exact),
    ("dsp.scratch_reuses", Exact),
    ("dsp.bytes_avoided", Exact),
    ("scaling.dsp_plans_cached", Exact),
    ("scaling.dsp_scratch_reuses", Exact),
    ("scaling.dsp_bytes_avoided", Exact),
    // Network counters: products of the seeded simulation, exact.
    ("scaling.net_sent", Exact),
    ("scaling.net_delivered", Exact),
    ("scaling.net_dropped", Exact),
    ("scaling.net_retries", Exact),
    ("scaling.net_expired", Exact),
    // WAL volume: the seeded fleet run journals a deterministic frame
    // sequence, so append and byte counts (and the replay-tail length
    // after the final periodic snapshot) must reproduce exactly.
    ("store.wal_appends", Exact),
    ("store.wal_bytes", Exact),
    ("store.recovery_tail_frames", Exact),
];

struct Gate {
    violations: Vec<String>,
    checked: usize,
}

impl Gate {
    /// Judge `current` against `baseline`: every [`CHECKS`] entry, then
    /// the simulated-time latency quantiles.
    fn run(base: &Value, cur: &Value, wall_tol: f64) -> Self {
        let mut gate = Gate {
            violations: Vec::new(),
            checked: 0,
        };
        for &(path, check) in CHECKS {
            gate.check(path, check, at(base, path), at(cur, path), wall_tol);
        }
        gate.sim_latencies(base, cur);
        gate
    }

    fn check(
        &mut self,
        name: &str,
        check: Check,
        base: Option<&Value>,
        cur: Option<&Value>,
        wall_tol: f64,
    ) {
        let pair = |as_num: fn(&Value) -> Option<f64>| as_num(base?).zip(as_num(cur?));
        let judged = match check {
            Rate => pair(Value::as_f64).map(|(b, c)| self.wall_rate(name, b, c, wall_tol)),
            ContendedRate => {
                let tol = 1.0 - (1.0 - wall_tol) * 0.5;
                pair(Value::as_f64).map(|(b, c)| self.wall_rate(name, b, c, tol))
            }
            Time => pair(Value::as_f64).map(|(b, c)| self.wall_time(name, b, c, wall_tol)),
            Exact => base
                .and_then(Value::as_u64)
                .zip(cur.and_then(Value::as_u64))
                .map(|(b, c)| self.exact_u64(name, b, c)),
        };
        if judged.is_none() {
            self.violations
                .push(format!("{name}: missing from document"));
        }
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

    /// Deterministic float: must match to within rounding noise.
    fn exact_f64(&mut self, name: &str, base: f64, cur: f64) {
        self.checked += 1;
        let scale = base.abs().max(cur.abs()).max(1e-12);
        if (base - cur).abs() / scale > 1e-9 {
            self.violations.push(format!(
                "{name}: deterministic value drifted — baseline {base} vs current {cur}"
            ));
        }
    }

    fn exact_u64(&mut self, name: &str, base: u64, cur: u64) {
        self.checked += 1;
        if base != cur {
            self.violations.push(format!(
                "{name}: deterministic count drifted — baseline {base} vs current {cur}"
            ));
        }
    }

    /// Simulated-time latency quantiles: exact, entry by entry. Every
    /// baseline entry must exist in the current doc and vice versa.
    fn sim_latencies(&mut self, base: &Value, cur: &Value) {
        let (base_names, cur_names) = (latency_names(base), latency_names(cur));
        if base_names != cur_names {
            self.violations.push(format!(
                "sim_latencies: entry set changed — baseline {base_names:?} vs current {cur_names:?}"
            ));
        }
        for name in &base_names {
            let (Some(b), Some(c)) = (latency_entry(base, name), latency_entry(cur, name)) else {
                continue; // already reported by the name-set check
            };
            if let (Some(bc), Some(cc)) = (
                b.get("count").and_then(Value::as_u64),
                c.get("count").and_then(Value::as_u64),
            ) {
                self.exact_u64(&format!("{name}.count"), bc, cc);
            }
            for q in ["p50_s", "p95_s", "p99_s"] {
                if let (Some(bq), Some(cq)) = (
                    b.get(q).and_then(Value::as_f64),
                    c.get(q).and_then(Value::as_f64),
                ) {
                    self.exact_f64(&format!("{name}.{q}"), bq, cq);
                }
            }
        }
    }
}

/// The value at a dotted path (`"scaling.net_sent"`).
fn at<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

/// The `name` of every `sim_latencies` entry, in document order.
fn latency_names(doc: &Value) -> Vec<String> {
    doc.get("sim_latencies")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|e| e.get("name").and_then(Value::as_str))
                .map(str::to_owned)
                .collect()
        })
        .unwrap_or_default()
}

/// The `sim_latencies` array keyed by the `name` field.
fn latency_entry<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("sim_latencies")?
        .as_array()?
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
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

fn arg_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = arg_value(&args, "--baseline", "BENCH_baseline.json");
    let current_path = arg_value(&args, "--current", "BENCH_throughput.json");
    let wall_tol = std::env::var("PERF_GATE_WALL_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.5)
        .clamp(0.0, 0.99);

    let base = load(&baseline_path);
    let cur = load(&current_path);

    // Schema must line up: a version bump means the baseline needs
    // re-blessing, not silent field-by-field skipping.
    let (bv, cv) = (
        at(&base, "schema_version")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        at(&cur, "schema_version")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    );
    if bv != cv {
        eprintln!(
            "perf_gate: schema mismatch — baseline v{bv}, current v{cv}; \
             regenerate {baseline_path} from the current binary"
        );
        std::process::exit(1);
    }
    // The scaling comparison is only apples-to-apples under one profile.
    let profile_of = |doc: &Value| -> Option<String> {
        at(doc, "scaling.fault_profile")?
            .as_str()
            .map(str::to_owned)
    };
    let (bp, cp) = (profile_of(&base), profile_of(&cur));
    if bp != cp {
        eprintln!("perf_gate: fault-profile mismatch — baseline {bp:?}, current {cp:?}");
        std::process::exit(1);
    }

    let gate = Gate::run(&base, &cur, wall_tol);

    if gate.violations.is_empty() {
        println!(
            "perf gate PASS: {} metrics within budget (wall tolerance {:.0}%) \
             against {baseline_path}",
            gate.checked,
            wall_tol * 100.0
        );
    } else {
        eprintln!("perf gate FAIL against {baseline_path}:");
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
    /// `value` overrides it (`Some(None)` leaves the metric out), and one
    /// `sim_latencies` entry per `(name, p50_s)`.
    fn doc(value: &[(&str, Option<&str>)], latencies: &[(&str, f64)]) -> Value {
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
        let entries: Vec<String> = latencies
            .iter()
            .map(|(name, p50)| {
                format!(
                    "{{\"name\": \"{name}\", \"count\": 10, \"p50_s\": {p50}, \
                     \"p95_s\": 0.9, \"p99_s\": 0.99}}"
                )
            })
            .collect();
        fields.push(format!("\"sim_latencies\": [{}]", entries.join(", ")));
        serde_json::from_str(&format!("{{{}}}", fields.join(", "))).expect("valid JSON")
    }

    const LATENCIES: &[(&str, f64)] = &[("net.bus_transit_s", 0.5), ("pdme.report_latency_s", 0.7)];

    fn violations(cur: &Value) -> Vec<String> {
        Gate::run(&doc(&[], LATENCIES), cur, 0.5).violations
    }

    #[test]
    fn committed_baseline_passes_against_itself_on_68_metrics() {
        let baseline: Value =
            serde_json::from_str(include_str!("../../../../BENCH_baseline.json")).unwrap();
        let gate = Gate::run(&baseline, &baseline, 0.5);
        assert_eq!(gate.violations, Vec::<String>::new());
        assert_eq!(gate.checked, 68);
    }

    #[test]
    fn identical_documents_pass() {
        let gate = Gate::run(&doc(&[], LATENCIES), &doc(&[], LATENCIES), 0.5);
        assert!(gate.violations.is_empty());
        assert_eq!(gate.checked, CHECKS.len() + 4 * LATENCIES.len());
    }

    #[test]
    fn rate_below_its_floor_fires() {
        let cur = doc(&[("scaling.sequential_steps_per_s", Some("49"))], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["scaling.sequential_steps_per_s: 49.00 fell below 50.00 \
              (baseline 100.00, tolerance 50%)"]
        );
        // At the floor is still a pass.
        let cur = doc(&[("scaling.sequential_steps_per_s", Some("50"))], LATENCIES);
        assert!(violations(&cur).is_empty());
    }

    #[test]
    fn contended_rate_gets_double_headroom() {
        let cur = doc(&[("serving.publish_rate_per_s", Some("26"))], LATENCIES);
        assert!(violations(&cur).is_empty());
        let cur = doc(&[("serving.publish_rate_per_s", Some("24"))], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["serving.publish_rate_per_s: 24.00 fell below 25.00 \
              (baseline 100.00, tolerance 75%)"]
        );
    }

    #[test]
    fn time_above_its_ceiling_fires() {
        let cur = doc(&[("fleet.rollup_p95_s", Some("201"))], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["fleet.rollup_p95_s: 201.000000 rose above 200.000000 \
              (baseline 100.000000, tolerance 50%)"]
        );
    }

    #[test]
    fn exact_u64_drift_fires() {
        let cur = doc(&[("store.wal_bytes", Some("101"))], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["store.wal_bytes: deterministic count drifted — baseline 100 vs current 101"]
        );
        // An exact metric that is no longer an integer is missing.
        let cur = doc(&[("scaling.net_sent", Some("100.5"))], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["scaling.net_sent: missing from document"]
        );
    }

    #[test]
    fn f64_quantile_drift_fires() {
        let cur = doc(
            &[],
            &[("net.bus_transit_s", 0.5), ("pdme.report_latency_s", 0.71)],
        );
        assert_eq!(
            violations(&cur),
            [
                "pdme.report_latency_s.p50_s: deterministic value drifted — \
              baseline 0.7 vs current 0.71"
            ]
        );
    }

    #[test]
    fn missing_key_fires() {
        let cur = doc(&[("obs.journal_tail_qps", None)], LATENCIES);
        assert_eq!(
            violations(&cur),
            ["obs.journal_tail_qps: missing from document"]
        );
        let gate = Gate::run(&doc(&[], LATENCIES), &cur, 0.5);
        assert_eq!(gate.checked, CHECKS.len() - 1 + 4 * LATENCIES.len());
    }

    #[test]
    fn changed_sim_latencies_name_set_fires() {
        let cur = doc(&[], &LATENCIES[..1]);
        assert_eq!(
            violations(&cur),
            ["sim_latencies: entry set changed — baseline \
              [\"net.bus_transit_s\", \"pdme.report_latency_s\"] vs current \
              [\"net.bus_transit_s\"]"]
        );
    }
}
