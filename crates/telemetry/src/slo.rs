//! Declarative service-level objectives over telemetry snapshots.
//!
//! The paper's pitch for MPROS is operational: condition reports must
//! reach the PDME *in time to matter*. [`SloPolicy`] states that
//! contract as data — a small rule grammar over the metric registry —
//! and [`SloWatchdog`] evaluates it each supervise pass, journaling
//! edge-triggered `slo_violation` / `slo_recovered` events and keeping
//! a machine-readable [`SloVerdict`] for CI gates.
//!
//! Rules reference only **simulated-time** metrics (latency histograms
//! in sim seconds, staleness gauges, loss counters), so a verdict is
//! deterministic for a seeded scenario regardless of worker count or
//! host speed.

use crate::metrics::Registry;
use crate::Telemetry;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One declarative objective over the metric registry.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// The histogram `(component, name)` must have p95 ≤ `max`.
    /// Passes vacuously while the histogram is empty.
    HistogramP95Max {
        /// Owning component.
        component: String,
        /// Histogram name.
        name: String,
        /// Inclusive p95 budget.
        max: f64,
    },
    /// The gauge `(component, name)` must be ≤ `max`. Passes while the
    /// gauge is unregistered.
    GaugeMax {
        /// Owning component.
        component: String,
        /// Gauge name.
        name: String,
        /// Inclusive budget.
        max: f64,
    },
    /// The counter `(component, name)` must still be zero.
    CounterZero {
        /// Owning component.
        component: String,
        /// Counter name.
        name: String,
    },
    /// The ratio of two counters must be ≤ `max` (0 when the
    /// denominator is 0).
    CounterRatioMax {
        /// Numerator `(component, name)`.
        num: (String, String),
        /// Denominator `(component, name)`.
        den: (String, String),
        /// Inclusive ratio budget.
        max: f64,
    },
}

impl SloRule {
    /// Stable label naming the objective in verdicts and journal events.
    pub fn label(&self) -> String {
        match self {
            SloRule::HistogramP95Max {
                component, name, ..
            } => format!("p95({component}.{name})"),
            SloRule::GaugeMax {
                component, name, ..
            } => format!("max({component}.{name})"),
            SloRule::CounterZero { component, name } => format!("zero({component}.{name})"),
            SloRule::CounterRatioMax { num, den, .. } => {
                format!("ratio({}.{}/{}.{})", num.0, num.1, den.0, den.1)
            }
        }
    }

    /// The observed value and the inclusive limit it must not exceed,
    /// read from the series of `registry` the rule names, each through a
    /// lookup that never registers it: an unregistered series reads 0 and
    /// stays unregistered.
    fn measure(&self, registry: &Registry) -> (f64, f64) {
        let counter = |c: &str, n: &str| registry.find_counter(c, n).map_or(0, |c| c.get());
        match self {
            SloRule::HistogramP95Max {
                component,
                name,
                max,
            } => {
                let p95 = registry
                    .find_histogram(component, name)
                    .and_then(|h| h.p95());
                (p95.unwrap_or(0.0), *max)
            }
            SloRule::GaugeMax {
                component,
                name,
                max,
            } => {
                let gauge = registry.find_gauge(component, name);
                (gauge.map_or(0.0, |g| g.get()), *max)
            }
            SloRule::CounterZero { component, name } => (counter(component, name) as f64, 0.0),
            SloRule::CounterRatioMax { num, den, max } => {
                let d = counter(&den.0, &den.1);
                let n = counter(&num.0, &num.1);
                let ratio = if d == 0 { 0.0 } else { n as f64 / d as f64 };
                (ratio, *max)
            }
        }
    }
}

/// One rule's outcome within a verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloCheck {
    /// The rule's [`SloRule::label`], rendered once per watchdog and
    /// shared by every copy of its verdicts (serialized as the bare
    /// string).
    pub rule: Arc<String>,
    /// Whether the objective held.
    pub pass: bool,
    /// Observed value.
    pub value: f64,
    /// Inclusive budget the value was compared against.
    pub limit: f64,
}

/// Machine-readable outcome of one watchdog pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloVerdict {
    /// Simulated seconds the policy was evaluated at.
    pub at_secs: f64,
    /// Whether every rule held.
    pub pass: bool,
    /// Per-rule outcomes, in policy order.
    pub checks: Vec<SloCheck>,
}

impl SloVerdict {
    /// A passing verdict of an empty policy.
    pub fn empty(at_secs: f64) -> SloVerdict {
        SloVerdict {
            at_secs,
            pass: true,
            checks: Vec::new(),
        }
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// The failing rule labels.
    pub fn failing(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.rule.as_str())
            .collect()
    }
}

/// An ordered set of objectives. The default policy is empty (every
/// scenario passes vacuously); opt in with [`SloPolicy::standard`] or
/// by pushing rules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloPolicy {
    /// The rules, evaluated in order.
    pub rules: Vec<SloRule>,
}

impl SloPolicy {
    /// No objectives.
    pub fn none() -> SloPolicy {
        SloPolicy::default()
    }

    /// Whether any objective is configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The shipboard contract from the ISSUE: p95 end-to-end report
    /// latency, maximum DC staleness, zero expired (undeliverable)
    /// reports, and a bounded fusion-conflict rate.
    pub fn standard(
        latency_p95_max_s: f64,
        staleness_max_s: f64,
        conflict_rate_max: f64,
    ) -> SloPolicy {
        SloPolicy {
            rules: vec![
                SloRule::HistogramP95Max {
                    component: "pdme".into(),
                    name: "report_latency_s".into(),
                    max: latency_p95_max_s,
                },
                SloRule::GaugeMax {
                    component: "pdme".into(),
                    name: "dc_staleness_max".into(),
                    max: staleness_max_s,
                },
                SloRule::CounterZero {
                    component: "net".into(),
                    name: "expired".into(),
                },
                SloRule::CounterRatioMax {
                    num: ("fusion".into(), "conflicts".into()),
                    den: ("fusion".into(), "reports_ingested".into()),
                    max: conflict_rate_max,
                },
            ],
        }
    }

    /// Append a rule (builder-style).
    pub fn with_rule(mut self, rule: SloRule) -> SloPolicy {
        self.rules.push(rule);
        self
    }
}

/// Evaluates an [`SloPolicy`] against live telemetry, journaling
/// violation/recovery *edges* (not every failing pass) under the `slo`
/// component.
///
/// The watchdog keeps one verdict and updates it in place on every pass:
/// each rule's label is rendered once, when the watchdog is built, and a
/// passing step allocates nothing.
#[derive(Debug, Clone)]
pub struct SloWatchdog {
    policy: SloPolicy,
    /// The latest verdict, one check per rule in policy order. Before the
    /// first pass every check reads as passing, so a first failure is a
    /// violation edge and a first pass is not a recovery.
    last: SloVerdict,
    /// Whether any pass has run.
    evaluated: bool,
}

impl SloWatchdog {
    /// A watchdog for one policy.
    pub fn new(policy: SloPolicy) -> SloWatchdog {
        let checks = policy
            .rules
            .iter()
            .map(|rule| SloCheck {
                rule: Arc::new(rule.label()),
                pass: true,
                value: 0.0,
                limit: 0.0,
            })
            .collect();
        SloWatchdog {
            policy,
            last: SloVerdict {
                at_secs: 0.0,
                pass: true,
                checks,
            },
            evaluated: false,
        }
    }

    /// The policy under evaluation.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// The most recent verdict, if any pass has run.
    pub fn last_verdict(&self) -> Option<&SloVerdict> {
        self.evaluated.then_some(&self.last)
    }

    /// Evaluate every rule against the series of `telemetry` it names,
    /// journal edges, and return the verdict, which stays readable
    /// through [`SloWatchdog::last_verdict`] until the next pass.
    pub fn evaluate(&mut self, telemetry: &Telemetry) -> &SloVerdict {
        let registry = telemetry.registry();
        for (rule, check) in self.policy.rules.iter().zip(&mut self.last.checks) {
            let (value, limit) = rule.measure(registry);
            let pass = value <= limit;
            let edge = match (check.pass, pass) {
                (true, false) => Some("slo_violation"),
                (false, true) => Some("slo_recovered"),
                _ => None,
            };
            check.pass = pass;
            check.value = value;
            check.limit = limit;
            if let Some(kind) = edge {
                telemetry.event(
                    "slo",
                    kind,
                    format!("{} value={value:.6} limit={limit:.6}", check.rule),
                );
            }
        }
        self.last.at_secs = telemetry.sim_now().as_secs();
        self.last.pass = self.last.checks.iter().all(|c| c.pass);
        self.evaluated = true;
        &self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::SimTime;

    #[test]
    fn empty_policy_always_passes() {
        let t = Telemetry::new();
        let mut w = SloWatchdog::new(SloPolicy::none());
        let v = w.evaluate(&t);
        assert!(v.pass);
        assert!(v.checks.is_empty());
        assert!(t.events().is_empty());
    }

    #[test]
    fn an_absent_series_reads_zero_and_stays_absent() {
        let t = Telemetry::new();
        let mut w = SloWatchdog::new(SloPolicy::standard(120.0, 90.0, 0.5));
        let v = w.evaluate(&t);
        assert!(v.pass);
        assert!(v.checks.iter().all(|c| c.value == 0.0), "{v:?}");
        let snap = t.snapshot();
        assert_eq!(snap.gauge("pdme", "dc_staleness_max"), None);
        assert!(snap.histogram("pdme", "report_latency_s").is_none());
        assert!(
            snap.counters
                .iter()
                .all(|c| c.component != "net" && c.component != "fusion"),
            "the watchdog registered a counter"
        );
    }

    #[test]
    fn counter_zero_trips_and_recovers_on_edges_only() {
        let t = Telemetry::new();
        t.set_sim_now(SimTime::from_secs(10.0));
        let mut w = SloWatchdog::new(SloPolicy::none().with_rule(SloRule::CounterZero {
            component: "net".into(),
            name: "expired".into(),
        }));
        assert!(w.evaluate(&t).pass);
        t.counter("net", "expired").add(2);
        assert!(!w.evaluate(&t).pass);
        assert!(!w.evaluate(&t).pass);
        let violations = t
            .events()
            .iter()
            .filter(|e| e.kind == "slo_violation")
            .count();
        assert_eq!(violations, 1, "edge-triggered, not per-pass");
        assert_eq!(
            w.last_verdict().unwrap().failing(),
            vec!["zero(net.expired)"]
        );
    }

    #[test]
    fn histogram_rule_vacuous_when_empty_then_enforced() {
        let t = Telemetry::new();
        let mut w = SloWatchdog::new(SloPolicy::none().with_rule(SloRule::HistogramP95Max {
            component: "pdme".into(),
            name: "report_latency_s".into(),
            max: 0.1,
        }));
        assert!(w.evaluate(&t).pass, "empty histogram passes vacuously");
        for _ in 0..100 {
            t.histogram("pdme", "report_latency_s").record(0.5);
        }
        let v = w.evaluate(&t);
        assert!(!v.pass);
        assert!(v.checks[0].value > 0.1);
    }

    #[test]
    fn ratio_rule_handles_zero_denominator() {
        let t = Telemetry::new();
        let rule = SloRule::CounterRatioMax {
            num: ("fusion".into(), "conflicts".into()),
            den: ("fusion".into(), "reports_ingested".into()),
            max: 0.25,
        };
        let mut w = SloWatchdog::new(SloPolicy::none().with_rule(rule));
        assert!(w.evaluate(&t).pass, "0/0 treated as 0");
        t.counter("fusion", "reports_ingested").add(4);
        t.counter("fusion", "conflicts").add(2);
        assert!(!w.evaluate(&t).pass, "2/4 exceeds 0.25");
        let recovered = {
            t.counter("fusion", "reports_ingested").add(96);
            w.evaluate(&t)
        };
        assert!(recovered.pass, "2/100 within budget");
        assert_eq!(
            t.events()
                .iter()
                .filter(|e| e.kind == "slo_recovered")
                .count(),
            1
        );
    }

    #[test]
    fn standard_policy_names_the_four_contract_rules() {
        let p = SloPolicy::standard(120.0, 90.0, 0.5);
        let labels: Vec<String> = p.rules.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "p95(pdme.report_latency_s)",
                "max(pdme.dc_staleness_max)",
                "zero(net.expired)",
                "ratio(fusion.conflicts/fusion.reports_ingested)",
            ]
        );
    }

    #[test]
    fn verdict_serializes_to_json() {
        let t = Telemetry::new();
        let mut w = SloWatchdog::new(SloPolicy::standard(1.0, 1.0, 1.0));
        let v = w.evaluate(&t);
        let json = v.to_json().unwrap();
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("zero(net.expired)"));
    }
}
