//! PDME-resident spatial reasoning (§5.7, §10.1 future work).
//!
//! §5.7 motivates PDME-resident algorithms that "use only the OOSM";
//! §10.1's spatial direction: "a device is vibrating because a
//! component next to it is broken and vibrating wildly", via the
//! model's proximity relation, and flow reasoning ("one component
//! passing fouled fluids on to other components downstream").
//!
//! [`SpatialCorrelator`] is exactly that: a [`ResidentAlgorithm`]
//! reading only the ship model. When a *weak* vibration report arrives
//! for machine B and a machine proximate to B already carries a strong
//! fused belief in a same-group vibration fault, the correlator emits
//! an advisory report reinforcing the proximate source — "the vibration
//! you see on B is most plausibly transmitted from A" — rather than
//! letting B's frame accumulate belief in a phantom fault.
//! [`FlowCorrelator`] does the analogous thing along `flows-to` edges
//! for process faults (fouling propagating downstream).

use crate::executive::{fused_belief_key, ResidentAlgorithm};
use mpros_core::{
    Belief, ConditionReport, KnowledgeSourceId, MachineCondition, MachineId, ObjectId, ReportId,
};
use mpros_oosm::{Oosm, Relation};

/// Knowledge-source id the spatial correlator signs its advisories with.
pub const KS_SPATIAL: KnowledgeSourceId = KnowledgeSourceId(990_001);
/// Knowledge-source id of the flow correlator.
pub const KS_FLOW: KnowledgeSourceId = KnowledgeSourceId(990_002);

/// Read a machine's strongest surfaced fused belief within the group of
/// `like`, if any.
fn strongest_in_group(
    oosm: &Oosm,
    obj: ObjectId,
    like: MachineCondition,
) -> Option<(MachineCondition, f64)> {
    let mut best: Option<(MachineCondition, f64)> = None;
    for c in like.group().members() {
        if let Some(b) = oosm
            .property(obj, fused_belief_key(c))
            .and_then(|v| v.as_float())
        {
            if best.map(|(_, bb)| b > bb).unwrap_or(true) {
                best = Some((c, b));
            }
        }
    }
    best
}

fn machine_id_of(oosm: &Oosm, obj: ObjectId) -> Option<MachineId> {
    oosm.property(obj, "machine_id")
        .and_then(|v| v.as_int())
        .map(|i| MachineId::new(i as u64))
}

/// Proximity-based vibration correlator.
#[derive(Debug, Default)]
pub struct SpatialCorrelator {
    /// Reports weaker than this are candidates for "transmitted
    /// vibration" explanations.
    pub weak_threshold: f64,
    /// A proximate source must carry at least this fused belief.
    pub source_threshold: f64,
    next_id: u64,
}

impl SpatialCorrelator {
    /// Default thresholds: weak < 0.5, source ≥ 0.6.
    pub fn new() -> Self {
        SpatialCorrelator {
            weak_threshold: 0.5,
            source_threshold: 0.6,
            next_id: 0,
        }
    }
}

impl ResidentAlgorithm for SpatialCorrelator {
    fn name(&self) -> &str {
        "spatial-correlator"
    }

    fn on_report(&mut self, report: &ConditionReport, model: &Oosm) -> Vec<ConditionReport> {
        if !report.condition.is_vibration_fault() || report.belief.value() >= self.weak_threshold {
            return Vec::new();
        }
        let Some(subject) = model.machine_object(report.machine) else {
            return Vec::new();
        };
        // Proximity is symmetric in meaning; stored edges may point
        // either way.
        let mut neighbours = model.related(subject, Relation::ProximateTo);
        neighbours.extend(model.related_to(subject, Relation::ProximateTo));
        let mut out = Vec::new();
        for n in neighbours {
            let Some((source_cond, source_belief)) = strongest_in_group(model, n, report.condition)
            else {
                continue;
            };
            if source_belief < self.source_threshold {
                continue;
            }
            let Some(source_machine) = machine_id_of(model, n) else {
                continue;
            };
            self.next_id += 1;
            out.push(
                ConditionReport::builder(source_machine, source_cond, Belief::new(0.15))
                    .id(ReportId::new(980_000_000 + self.next_id))
                    .knowledge_source(KS_SPATIAL)
                    .timestamp(report.timestamp)
                    .explanation(format!(
                        "spatial correlation: weak {} signature on {} is consistent with \
                     transmitted vibration from {} on the proximate {}",
                        report.condition, report.machine, source_cond, source_machine
                    ))
                    .build(),
            );
        }
        out
    }
}

/// Flow-based process correlator: a process fault on an upstream
/// machine earns downstream machines an inspection advisory.
#[derive(Debug, Default)]
pub struct FlowCorrelator {
    /// Upstream fault reports at or above this belief propagate
    /// advisories.
    pub trigger_threshold: f64,
    next_id: u64,
}

impl FlowCorrelator {
    /// Default trigger at belief ≥ 0.7.
    pub fn new() -> Self {
        FlowCorrelator {
            trigger_threshold: 0.7,
            next_id: 0,
        }
    }
}

impl ResidentAlgorithm for FlowCorrelator {
    fn name(&self) -> &str {
        "flow-correlator"
    }

    fn on_report(&mut self, report: &ConditionReport, model: &Oosm) -> Vec<ConditionReport> {
        // Only strongly believed process faults propagate along flow.
        if report.condition.is_vibration_fault() || report.belief.value() < self.trigger_threshold {
            return Vec::new();
        }
        let Some(subject) = model.machine_object(report.machine) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for downstream in model.related(subject, Relation::FlowsTo) {
            let Some(machine) = machine_id_of(model, downstream) else {
                continue;
            };
            self.next_id += 1;
            out.push(
                ConditionReport::builder(machine, report.condition, Belief::new(0.2))
                    .id(ReportId::new(985_000_000 + self.next_id))
                    .knowledge_source(KS_FLOW)
                    .timestamp(report.timestamp)
                    .explanation(format!(
                        "flow correlation: {} on upstream {} may propagate here \
                         (fouled fluid passed downstream)",
                        report.condition, report.machine
                    ))
                    .build(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executive::PdmeExecutive;
    use mpros_core::SimTime;
    use mpros_network::NetMessage;

    fn report(id: u64, machine: u64, condition: MachineCondition, belief: f64) -> NetMessage {
        NetMessage::Report(
            ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
                .id(ReportId::new(id))
                .timestamp(SimTime::from_secs(id as f64))
                .build(),
        )
    }

    /// Motor (M-1) proximate to pump (M-2); motor has a strong fused
    /// bearing-defect belief.
    fn rigged() -> PdmeExecutive {
        let mut p = PdmeExecutive::new();
        p.register_machine(MachineId::new(1), "motor");
        p.register_machine(MachineId::new(2), "pump");
        let m1 = p.oosm().machine_object(MachineId::new(1)).unwrap();
        let m2 = p.oosm().machine_object(MachineId::new(2)).unwrap();
        p.oosm_mut().relate(m1, Relation::ProximateTo, m2).unwrap();
        p.add_resident_algorithm(Box::new(SpatialCorrelator::new()));
        // Build the strong belief on the motor first.
        for id in 1..=3 {
            p.ingest(
                &[report(id, 1, MachineCondition::MotorBearingDefect, 0.7)],
                SimTime::ZERO,
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn weak_neighbour_report_triggers_advisory() {
        let mut p = rigged();
        // A weak bearing hint on the pump (same Bearings group).
        p.ingest(
            &[report(
                10,
                2,
                MachineCondition::CompressorBearingDefect,
                0.3,
            )],
            SimTime::ZERO,
        )
        .unwrap();
        let motor_reports = p.reports_for_machine(MachineId::new(1));
        let advisory = motor_reports
            .iter()
            .find(|r| r.knowledge_source == KS_SPATIAL)
            .expect("advisory emitted");
        assert!(advisory.explanation.contains("transmitted vibration"));
        assert_eq!(advisory.condition, MachineCondition::MotorBearingDefect);
    }

    #[test]
    fn strong_reports_are_not_second_guessed() {
        let mut p = rigged();
        p.ingest(
            &[report(
                10,
                2,
                MachineCondition::CompressorBearingDefect,
                0.8,
            )],
            SimTime::ZERO,
        )
        .unwrap();
        assert!(!p
            .reports_for_machine(MachineId::new(1))
            .iter()
            .any(|r| r.knowledge_source == KS_SPATIAL));
    }

    #[test]
    fn process_faults_do_not_trigger_the_spatial_correlator() {
        let mut p = rigged();
        p.ingest(
            &[report(10, 2, MachineCondition::RefrigerantLeak, 0.2)],
            SimTime::ZERO,
        )
        .unwrap();
        assert!(!p
            .reports_for_machine(MachineId::new(1))
            .iter()
            .any(|r| r.knowledge_source == KS_SPATIAL));
    }

    #[test]
    fn flow_correlator_propagates_downstream() {
        let mut p = PdmeExecutive::new();
        p.register_machine(MachineId::new(1), "condenser");
        p.register_machine(MachineId::new(2), "evaporator");
        let m1 = p.oosm().machine_object(MachineId::new(1)).unwrap();
        let m2 = p.oosm().machine_object(MachineId::new(2)).unwrap();
        p.oosm_mut().relate(m1, Relation::FlowsTo, m2).unwrap();
        p.add_resident_algorithm(Box::new(FlowCorrelator::new()));
        p.ingest(
            &[report(1, 1, MachineCondition::CondenserFouling, 0.85)],
            SimTime::ZERO,
        )
        .unwrap();
        let downstream = p.reports_for_machine(MachineId::new(2));
        let advisory = downstream
            .iter()
            .find(|r| r.knowledge_source == KS_FLOW)
            .expect("flow advisory");
        assert!(advisory.explanation.contains("upstream"));
        // Weak upstream report: nothing propagates.
        let mut p2 = PdmeExecutive::new();
        p2.register_machine(MachineId::new(1), "condenser");
        p2.register_machine(MachineId::new(2), "evaporator");
        let a = p2.oosm().machine_object(MachineId::new(1)).unwrap();
        let b = p2.oosm().machine_object(MachineId::new(2)).unwrap();
        p2.oosm_mut().relate(a, Relation::FlowsTo, b).unwrap();
        p2.add_resident_algorithm(Box::new(FlowCorrelator::new()));
        p2.ingest(
            &[report(1, 1, MachineCondition::CondenserFouling, 0.3)],
            SimTime::ZERO,
        )
        .unwrap();
        assert!(p2.reports_for_machine(MachineId::new(2)).is_empty());
    }

    #[test]
    fn advisories_do_not_cascade() {
        // The advisory itself (dc = PDME_RESIDENT_DC) must not re-enter
        // the resident pass and multiply.
        let mut p = rigged();
        p.ingest(
            &[report(
                10,
                2,
                MachineCondition::CompressorBearingDefect,
                0.3,
            )],
            SimTime::ZERO,
        )
        .unwrap();
        let n = p
            .reports_for_machine(MachineId::new(1))
            .iter()
            .filter(|r| r.knowledge_source == KS_SPATIAL)
            .count();
        assert_eq!(n, 1, "exactly one advisory per triggering report");
    }
}
