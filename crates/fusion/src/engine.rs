//! The knowledge-fusion engine the PDME invokes.
//!
//! §5.1 fixes the control flow: new reports posted in the OOSM generate
//! "new data" messages; the fusion components read the report, perform
//! diagnostic and prognostic fusion, and post conclusions back. This
//! module is the computational core of that loop: [`FusionEngine::ingest`]
//! consumes one §7.2 report and updates (a) the Dempster–Shafer frame of
//! the report's `(machine, logical group)` and (b) the conservative fused
//! prognostic curve of its `(machine, condition)`. The engine renders the
//! "prioritized list for the use of maintenance personnel" (§3.1) on
//! demand.

use crate::diagnostic::{DiagnosticFusion, FusedDiagnosis};
use crate::prognostic::fuse_into;
use mpros_core::{
    ConditionReport, Durable, Error, FailureGroup, MachineCondition, MachineId, PrognosticVector,
    Result, Severity, SimDuration,
};
use mpros_telemetry::{Counter, Instrumented, Stage, Telemetry, WallTimer};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One row of the prioritized maintenance list.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceItem {
    /// The machine needing attention.
    pub machine: MachineId,
    /// The suspected condition.
    pub condition: MachineCondition,
    /// Fused Dempster–Shafer belief in the condition.
    pub belief: f64,
    /// Worst severity reported so far for the condition.
    pub severity: Severity,
    /// Fused (conservative-envelope) prognostic curve.
    pub prognostic: PrognosticVector,
    /// Estimated time to even-odds failure (50 % point of the fused
    /// curve), if the curve reaches it.
    pub median_time_to_failure: Option<SimDuration>,
    /// Ranking key (higher = more urgent).
    pub priority: f64,
}

/// The combined diagnostic + prognostic fusion engine.
#[derive(Debug)]
pub struct FusionEngine {
    diagnostic: DiagnosticFusion,
    prognostics: HashMap<(MachineId, MachineCondition), PrognosticVector>,
    worst_severity: HashMap<(MachineId, MachineCondition), Severity>,
    /// Conflict already journaled per frame, to detect renormalizations.
    seen_conflict: HashMap<(MachineId, FailureGroup), f64>,
    telemetry: Telemetry,
    metrics: FusionCounters,
}

/// The engine's instruments, named once.
#[derive(Debug)]
struct FusionCounters {
    ingested: Arc<Counter>,
    conflicts: Arc<Counter>,
}

impl FusionCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        FusionCounters {
            ingested: telemetry.counter("fusion", "reports_ingested"),
            conflicts: telemetry.counter("fusion", "conflicts"),
        }
    }
}

impl Default for FusionEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl FusionEngine {
    /// A fresh engine with no evidence, observing a private telemetry
    /// domain until [`FusionEngine::set_telemetry`] joins the scenario's.
    pub fn new() -> Self {
        let telemetry = Telemetry::new();
        FusionEngine {
            diagnostic: DiagnosticFusion::new(),
            prognostics: HashMap::new(),
            worst_severity: HashMap::new(),
            seen_conflict: HashMap::new(),
            metrics: FusionCounters::wire(&telemetry),
            telemetry,
        }
    }

    /// Ingest one condition report: diagnostic fusion always runs;
    /// prognostic fusion runs when the report carries a prognostic
    /// vector (§5.6: "Prognostic knowledge fusion generates a new
    /// prognostic vector for each suspect component whenever a new
    /// prognostic report arrives").
    pub fn ingest(&mut self, report: &ConditionReport) -> Result<FusedDiagnosis> {
        let timer = WallTimer::start();
        let diagnosis = self.diagnostic.ingest(report)?;
        // Dempster's rule renormalized conflict away iff the frame's
        // accumulated conflict grew — a data-quality event worth
        // journaling (§5.3's contradictory-knowledge-sources case).
        let frame = (report.machine, report.condition.group());
        let seen = self.seen_conflict.entry(frame).or_insert(0.0);
        let k = diagnosis.accumulated_conflict - *seen;
        if k > 1e-12 {
            *seen = diagnosis.accumulated_conflict;
            self.metrics.conflicts.inc();
            self.telemetry.event(
                "fusion",
                "conflict_renorm",
                format!(
                    "machine {} group {}: conflict k={k:.4} normalized out",
                    report.machine.raw(),
                    diagnosis.group
                ),
            );
        }
        let key = (report.machine, report.condition);
        if report.has_prognostic() {
            let fused = match self.prognostics.get(&key) {
                Some(current) => fuse_into(current, &report.prognostic)?,
                None => report.prognostic.clone(),
            };
            self.prognostics.insert(key, fused);
        }
        let worst = self.worst_severity.entry(key).or_insert(Severity::NONE);
        *worst = worst.max(report.severity);
        self.metrics.ingested.inc();
        self.telemetry
            .record_span_wall(Stage::Fusion, timer.elapsed());
        Ok(diagnosis)
    }

    /// The diagnostic-fusion state.
    pub fn diagnostic(&self) -> &DiagnosticFusion {
        &self.diagnostic
    }

    /// The fused prognostic curve for a `(machine, condition)`, if any
    /// prognostic report has arrived.
    pub fn prognostic(
        &self,
        machine: MachineId,
        condition: MachineCondition,
    ) -> Option<&PrognosticVector> {
        self.prognostics.get(&(machine, condition))
    }

    /// Number of reports ingested (read from the telemetry registry).
    pub fn reports_ingested(&self) -> usize {
        self.metrics.ingested.get() as usize
    }

    /// Render the prioritized maintenance list: every condition with
    /// positive fused belief, most urgent first.
    ///
    /// Priority heuristic: fused belief weighted by severity
    /// (`0.3 + 0.7·severity`, so a believed-but-mild condition still
    /// surfaces) and boosted when the fused prognosis crosses even odds
    /// soon.
    pub fn maintenance_list(&self) -> Vec<MaintenanceItem> {
        self.prioritize(self.diagnostic.all())
    }

    /// [`Self::maintenance_list`] restricted to the given `(machine,
    /// group)` frames. The rows keep their relative order in the full
    /// list: both sorts are stable and start from frames in `(machine,
    /// group)` order.
    pub fn maintenance_list_for(
        &self,
        frames: &BTreeSet<(MachineId, FailureGroup)>,
    ) -> Vec<MaintenanceItem> {
        self.prioritize(
            frames
                .iter()
                .filter_map(|&(machine, group)| self.diagnostic.diagnosis(machine, group))
                .collect(),
        )
    }

    /// Maintenance rows for `diagnoses` (in `(machine, group)` order),
    /// most urgent first.
    fn prioritize(&self, diagnoses: Vec<FusedDiagnosis>) -> Vec<MaintenanceItem> {
        let mut items = Vec::new();
        for d in diagnoses {
            for &(condition, belief) in &d.beliefs {
                if belief <= 0.0 {
                    continue;
                }
                let key = (d.machine, condition);
                let severity = self
                    .worst_severity
                    .get(&key)
                    .copied()
                    .unwrap_or(Severity::NONE);
                let prognostic = self
                    .prognostics
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(PrognosticVector::empty);
                let median = prognostic.horizon_for_probability(0.5);
                let urgency = match median {
                    Some(ttf) => 1.0 / (1.0 + ttf.as_months().max(0.0)),
                    None => 0.0,
                };
                let priority = belief * (0.3 + 0.7 * severity.value()) * (1.0 + urgency);
                items.push(MaintenanceItem {
                    machine: d.machine,
                    condition,
                    belief,
                    severity,
                    prognostic,
                    median_time_to_failure: median,
                    priority,
                });
            }
        }
        items.sort_by(|a, b| {
            b.priority
                .partial_cmp(&a.priority)
                .expect("priorities are finite")
        });
        items
    }
}

/// Wire form: the diagnostic state followed by the three per-key maps,
/// each in the one keyed-map encoding (ascending keys, enforced on
/// decode). The decoded engine observes a fresh private telemetry
/// domain until re-bound.
impl Durable for FusionEngine {
    fn encode(&self, out: &mut Vec<u8>) {
        self.diagnostic.encode(out);
        self.prognostics.encode(out);
        self.worst_severity.encode(out);
        self.seen_conflict.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let diagnostic = DiagnosticFusion::decode(input)?;
        let prognostics = HashMap::decode(input)?;
        let worst_severity = HashMap::decode(input)?;
        let seen_conflict: HashMap<(MachineId, FailureGroup), f64> = HashMap::decode(input)?;
        for (key, k) in &seen_conflict {
            if !k.is_finite() || *k < 0.0 {
                return Err(Error::invalid(format!(
                    "durable fusion: bad journaled conflict {k} for machine {}",
                    key.0.raw()
                )));
            }
        }
        Ok(FusionEngine {
            diagnostic,
            prognostics,
            worst_severity,
            seen_conflict,
            ..FusionEngine::new()
        })
    }
}

impl Instrumented for FusionEngine {
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = FusionCounters::wire(telemetry);
        self.telemetry = telemetry.clone();
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::Belief;

    fn report(
        machine: u64,
        condition: MachineCondition,
        belief: f64,
        severity: f64,
    ) -> ConditionReport {
        ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
            .severity(severity)
            .build()
    }

    fn prognostic_report(
        machine: u64,
        condition: MachineCondition,
        belief: f64,
        pairs: &[(f64, f64)],
    ) -> ConditionReport {
        ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
            .prognostic(PrognosticVector::from_months(pairs).unwrap())
            .build()
    }

    #[test]
    fn ingest_updates_both_levels() {
        let mut e = FusionEngine::new();
        e.ingest(&prognostic_report(
            1,
            MachineCondition::MotorBearingDefect,
            0.7,
            &[(2.0, 0.5)],
        ))
        .unwrap();
        assert_eq!(e.reports_ingested(), 1);
        assert!(e
            .prognostic(MachineId::new(1), MachineCondition::MotorBearingDefect)
            .is_some());
        let b = e
            .diagnostic()
            .belief(MachineId::new(1), MachineCondition::MotorBearingDefect);
        assert!((b - 0.7).abs() < 1e-9);
    }

    #[test]
    fn prognostics_fuse_conservatively_across_reports() {
        let mut e = FusionEngine::new();
        e.ingest(&prognostic_report(
            1,
            MachineCondition::GearToothWear,
            0.5,
            &[(3.0, 0.01), (4.0, 0.5), (5.0, 0.99)],
        ))
        .unwrap();
        e.ingest(&prognostic_report(
            1,
            MachineCondition::GearToothWear,
            0.5,
            &[(4.5, 0.95)],
        ))
        .unwrap();
        let fused = e
            .prognostic(MachineId::new(1), MachineCondition::GearToothWear)
            .unwrap();
        let p = fused.probability_at(SimDuration::from_months(4.5)).value();
        assert!((p - 0.95).abs() < 1e-9, "strong report dominates: {p}");
    }

    #[test]
    fn diagnostic_only_report_leaves_prognostic_empty() {
        let mut e = FusionEngine::new();
        e.ingest(&report(1, MachineCondition::CompressorSurge, 0.6, 0.4))
            .unwrap();
        assert!(e
            .prognostic(MachineId::new(1), MachineCondition::CompressorSurge)
            .is_none());
        let list = e.maintenance_list();
        assert_eq!(list.len(), 1);
        assert!(list[0].median_time_to_failure.is_none());
    }

    #[test]
    fn maintenance_list_is_prioritized() {
        let mut e = FusionEngine::new();
        // Strong, severe, urgent bearing problem.
        e.ingest(&prognostic_report(
            1,
            MachineCondition::MotorBearingDefect,
            0.9,
            &[(0.5, 0.6)],
        ))
        .unwrap();
        e.ingest(&report(1, MachineCondition::MotorBearingDefect, 0.8, 0.9))
            .unwrap();
        // Weak, mild hunch about another machine.
        e.ingest(&report(2, MachineCondition::CondenserFouling, 0.2, 0.1))
            .unwrap();
        let list = e.maintenance_list();
        assert!(list.len() >= 2);
        assert_eq!(list[0].machine, MachineId::new(1));
        assert_eq!(list[0].condition, MachineCondition::MotorBearingDefect);
        assert!(list[0].priority > list.last().unwrap().priority);
        // Priorities are sorted descending throughout.
        for w in list.windows(2) {
            assert!(w[0].priority >= w[1].priority);
        }
    }

    #[test]
    fn conflict_renormalization_is_journaled() {
        let mut e = FusionEngine::new();
        // Reinforcing evidence: no conflict, no event.
        e.ingest(&report(1, MachineCondition::MotorImbalance, 0.5, 0.2))
            .unwrap();
        assert!(e.telemetry().events().is_empty());
        // Contradictory evidence within the group: conflict renormalized,
        // event journaled, counter advanced.
        e.ingest(&report(1, MachineCondition::MotorMisalignment, 0.6, 0.2))
            .unwrap();
        let events = e.telemetry().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "conflict_renorm");
        assert!(events[0].detail.contains("machine 1"));
        assert_eq!(e.reports_ingested(), 2);
        assert_eq!(e.telemetry().counter("fusion", "reports_ingested").get(), 2);
        assert_eq!(e.telemetry().counter("fusion", "conflicts").get(), 1);
    }

    #[test]
    fn severity_tracks_the_worst_report() {
        let mut e = FusionEngine::new();
        e.ingest(&report(1, MachineCondition::MotorImbalance, 0.4, 0.8))
            .unwrap();
        e.ingest(&report(1, MachineCondition::MotorImbalance, 0.4, 0.3))
            .unwrap();
        let list = e.maintenance_list();
        let item = list
            .iter()
            .find(|i| i.condition == MachineCondition::MotorImbalance)
            .unwrap();
        assert_eq!(item.severity.value(), 0.8, "keeps the worst severity");
    }

    #[test]
    fn within_group_companions_appear_with_zero_extra_reports() {
        // A report about imbalance also defines (zero) belief rows for
        // its group companions; the list shows only positive beliefs.
        let mut e = FusionEngine::new();
        e.ingest(&report(1, MachineCondition::MotorImbalance, 0.6, 0.5))
            .unwrap();
        let list = e.maintenance_list();
        assert_eq!(list.len(), 1, "only the believed condition is listed");
    }

    #[test]
    fn durable_roundtrip_preserves_maintenance_list() {
        let mut e = FusionEngine::new();
        e.ingest(&prognostic_report(
            1,
            MachineCondition::MotorBearingDefect,
            0.9,
            &[(0.5, 0.6)],
        ))
        .unwrap();
        e.ingest(&report(1, MachineCondition::MotorBearingDefect, 0.8, 0.9))
            .unwrap();
        e.ingest(&report(1, MachineCondition::MotorImbalance, 0.5, 0.2))
            .unwrap();
        e.ingest(&report(1, MachineCondition::MotorMisalignment, 0.6, 0.2))
            .unwrap();
        e.ingest(&report(2, MachineCondition::CondenserFouling, 0.2, 0.1))
            .unwrap();
        let bytes = e.to_durable_bytes();
        let back = FusionEngine::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back.to_durable_bytes(), bytes, "canonical encoding");
        let a = e.maintenance_list();
        let b = back.maintenance_list();
        assert_eq!(a, b, "prioritized list survives the roundtrip exactly");
        // Counters restart at zero on the decoded engine's private domain;
        // joining a shared registry adds nothing to it.
        let shared = Telemetry::new();
        shared.counter("fusion", "reports_ingested").add(5);
        let mut back = back;
        back.set_telemetry(&shared);
        assert_eq!(shared.counter("fusion", "reports_ingested").get(), 5);
    }

    #[test]
    fn urgency_boosts_priority() {
        let mut e = FusionEngine::new();
        // Same belief/severity; one fails much sooner.
        e.ingest(&prognostic_report(
            1,
            MachineCondition::MotorBearingDefect,
            0.6,
            &[(0.25, 0.9)],
        ))
        .unwrap();
        e.ingest(&prognostic_report(
            2,
            MachineCondition::CompressorBearingDefect,
            0.6,
            &[(12.0, 0.9)],
        ))
        .unwrap();
        let list = e.maintenance_list();
        assert_eq!(list[0].machine, MachineId::new(1), "sooner failure first");
        let m1 = list[0].median_time_to_failure.unwrap();
        let m2 = list[1].median_time_to_failure.unwrap();
        assert!(m1 < m2);
    }
}
