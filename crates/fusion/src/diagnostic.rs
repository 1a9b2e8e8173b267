//! Diagnostic knowledge fusion (§5.3).
//!
//! "Diagnostic knowledge fusion generates a new fused belief whenever a
//! diagnostic report arrives for a suspect component. This updates the
//! belief for that suspect component and for every other failure in the
//! logical group for that component. It also updates the belief of
//! 'unknown' failure for that logical group" (§5.6).
//!
//! One Dempster–Shafer frame is maintained per `(machine, logical
//! group)`. The frame's hypotheses are the group's member conditions;
//! groups are fused independently, which is the paper's answer to the
//! mutual-exclusivity problem ("there can, in fact, be several failures
//! at one time, and two or more of them might be independent of one
//! another").

use crate::mass::{MassFunction, Subset};
use mpros_core::{
    ConditionReport, Durable, Error, FailureGroup, MachineCondition, MachineId, Result,
};
use std::collections::HashMap;

/// Incoming certainties are capped just below 1 so that two dead-certain
/// but contradictory knowledge sources degrade gracefully instead of
/// producing undefined (totally conflicting) evidence.
const BELIEF_CAP: f64 = 0.999;

/// The fused view of one `(machine, group)` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedDiagnosis {
    /// The machine this diagnosis concerns.
    pub machine: MachineId,
    /// The logical failure group.
    pub group: FailureGroup,
    /// Singleton belief per member condition (catalog order).
    pub beliefs: Vec<(MachineCondition, f64)>,
    /// Mass on "unknown possibilities" (Θ of this group's frame).
    pub unknown: f64,
    /// Total Dempster conflict normalized out so far — a data-quality
    /// signal for the maintenance display.
    pub accumulated_conflict: f64,
}

impl FusedDiagnosis {
    /// Member conditions ranked by descending fused belief.
    pub fn ranked(&self) -> Vec<(MachineCondition, f64)> {
        let mut v = self.beliefs.clone();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("beliefs are finite"));
        v
    }

    /// The most-believed condition, if any belief is positive.
    pub fn top(&self) -> Option<(MachineCondition, f64)> {
        self.ranked().into_iter().find(|(_, b)| *b > 0.0)
    }
}

#[derive(Debug, Clone)]
struct FrameState {
    mass: MassFunction,
    conflict: f64,
}

/// The diagnostic fusion engine: running Dempster–Shafer state per
/// `(machine, logical group)`.
#[derive(Debug, Default)]
pub struct DiagnosticFusion {
    frames: HashMap<(MachineId, FailureGroup), FrameState>,
}

impl DiagnosticFusion {
    /// An engine with no evidence yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `condition` within its group's frame.
    fn frame_index(condition: MachineCondition) -> usize {
        condition
            .group()
            .members()
            .iter()
            .position(|c| *c == condition)
            .expect("condition is a member of its own group")
    }

    /// Ingest a §7.2 condition report: fold its (condition, belief) pair
    /// into the machine's group frame and return the updated fused view.
    pub fn ingest(&mut self, report: &ConditionReport) -> Result<FusedDiagnosis> {
        self.ingest_support(
            report.machine,
            report.condition.group(),
            Subset::singleton(Self::frame_index(report.condition)),
            report.belief.value(),
        )
    }

    /// Ingest evidence for an arbitrary subset of a group's frame — the
    /// general §5.3 case ("a belief of 75% that B or C will occur").
    ///
    /// Every frame carries one extra implicit hypothesis beyond the
    /// group's members — "some other (or no) failure" — so that evidence
    /// can never exhaust the frame: without it, a single-member group
    /// would make any report about its member logically certain
    /// (support for the only hypothesis is support for Θ, whose belief
    /// is trivially 1). Reports may only assert member hypotheses; the
    /// *other* hypothesis only ever receives mass through Θ, which is
    /// exactly the paper's "belief assigned to unknown possibilities".
    pub fn ingest_support(
        &mut self,
        machine: MachineId,
        group: FailureGroup,
        focus: Subset,
        belief: f64,
    ) -> Result<FusedDiagnosis> {
        let members = group.members();
        let n = members.len() + 1; // +1: the implicit "other" hypothesis
        if !focus.is_subset_of(Subset::full(members.len())) || focus.is_empty() {
            return Err(Error::invalid(format!(
                "focus {focus} is not a nonempty subset of the {group} frame ({} members)",
                members.len()
            )));
        }
        let evidence = MassFunction::simple_support(n, focus, belief.clamp(0.0, BELIEF_CAP))?;
        let entry = self
            .frames
            .entry((machine, group))
            .or_insert_with(|| FrameState {
                mass: MassFunction::vacuous(n).expect("group frames are small"),
                conflict: 0.0,
            });
        let (fused, k) = entry.mass.combine(&evidence)?;
        entry.mass = fused;
        entry.conflict += k;
        Ok(Self::view(machine, group, &members, entry))
    }

    fn view(
        machine: MachineId,
        group: FailureGroup,
        members: &[MachineCondition],
        state: &FrameState,
    ) -> FusedDiagnosis {
        let beliefs = members
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, state.mass.belief(Subset::singleton(i))))
            .collect();
        FusedDiagnosis {
            machine,
            group,
            beliefs,
            unknown: state.mass.unknown(),
            accumulated_conflict: state.conflict,
        }
    }

    /// The fused view of a `(machine, group)` frame, if any evidence has
    /// arrived.
    pub fn diagnosis(&self, machine: MachineId, group: FailureGroup) -> Option<FusedDiagnosis> {
        self.frames
            .get(&(machine, group))
            .map(|st| Self::view(machine, group, &group.members(), st))
    }

    /// Fused singleton belief for one condition (0 with no evidence).
    pub fn belief(&self, machine: MachineId, condition: MachineCondition) -> f64 {
        self.frames
            .get(&(machine, condition.group()))
            .map(|st| {
                st.mass
                    .belief(Subset::singleton(Self::frame_index(condition)))
            })
            .unwrap_or(0.0)
    }

    /// All fused diagnoses, for the PDME browser.
    pub fn all(&self) -> Vec<FusedDiagnosis> {
        let mut out: Vec<FusedDiagnosis> = self
            .frames
            .iter()
            .map(|(&(m, g), st)| Self::view(m, g, &g.members(), st))
            .collect();
        out.sort_by_key(|d| (d.machine, d.group));
        out
    }

    /// Drop the evidence for one frame (maintenance performed, start
    /// fresh).
    pub fn reset(&mut self, machine: MachineId, group: FailureGroup) {
        self.frames.remove(&(machine, group));
    }
}

impl Durable for FrameState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mass.encode(out);
        self.conflict.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let mass = MassFunction::decode(input)?;
        let conflict = f64::decode(input)?;
        if !conflict.is_finite() || conflict < 0.0 {
            return Err(Error::invalid(format!(
                "durable frame: bad accumulated conflict {conflict}"
            )));
        }
        Ok(FrameState { mass, conflict })
    }
}

/// Wire form: the frames in the one keyed-map encoding (ascending
/// `(machine, group)` keys, enforced on decode); decoding then checks
/// each frame's hypothesis count against its group.
impl Durable for DiagnosticFusion {
    fn encode(&self, out: &mut Vec<u8>) {
        self.frames.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        let frames: HashMap<(MachineId, FailureGroup), FrameState> = HashMap::decode(input)?;
        for ((_, group), state) in &frames {
            let expected = group.members().len() + 1;
            if state.mass.frame_size() != expected {
                return Err(Error::invalid(format!(
                    "durable diagnosis: {group} frame has {} hypotheses, expected {expected}",
                    state.mass.frame_size()
                )));
            }
        }
        Ok(DiagnosticFusion { frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::Belief;

    fn report(machine: u64, condition: MachineCondition, belief: f64) -> ConditionReport {
        ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief)).build()
    }

    #[test]
    fn single_report_sets_belief_and_unknown() {
        let mut f = DiagnosticFusion::new();
        let d = f
            .ingest(&report(1, MachineCondition::MotorImbalance, 0.4))
            .unwrap();
        assert_eq!(d.group, FailureGroup::RotorDynamics);
        assert!((f.belief(MachineId::new(1), MachineCondition::MotorImbalance) - 0.4).abs() < 1e-9);
        assert!((d.unknown - 0.6).abs() < 1e-9);
        assert_eq!(d.accumulated_conflict, 0.0);
    }

    #[test]
    fn reinforcing_reports_raise_belief() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.5))
            .unwrap();
        let d = f
            .ingest(&report(1, MachineCondition::MotorImbalance, 0.5))
            .unwrap();
        let b = f.belief(MachineId::new(1), MachineCondition::MotorImbalance);
        assert!((b - 0.75).abs() < 1e-9, "0.5 ⊕ 0.5 = 0.75, got {b}");
        assert!(d.unknown < 0.3);
    }

    #[test]
    fn conflicting_reports_share_mass_within_group() {
        // Imbalance and misalignment are in the same group: "failures
        // within a group might be mistaken for one another, so they ...
        // should share probabilities".
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.8))
            .unwrap();
        let d = f
            .ingest(&report(1, MachineCondition::MotorMisalignment, 0.6))
            .unwrap();
        let bi = f.belief(MachineId::new(1), MachineCondition::MotorImbalance);
        let bm = f.belief(MachineId::new(1), MachineCondition::MotorMisalignment);
        assert!(bi < 0.8, "imbalance belief discounted by conflict: {bi}");
        assert!(bm < 0.6);
        assert!(bi > bm, "stronger evidence keeps the edge");
        assert!(d.accumulated_conflict > 0.4, "conflict recorded");
        let total: f64 = d.beliefs.iter().map(|(_, b)| b).sum::<f64>() + d.unknown;
        assert!(total <= 1.0 + 1e-9);
    }

    #[test]
    fn groups_are_independent() {
        // A bearing fault and a process fault coexist without stealing
        // each other's mass (§5.3's multiple-concurrent-failures point).
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorBearingDefect, 0.9))
            .unwrap();
        f.ingest(&report(1, MachineCondition::RefrigerantLeak, 0.85))
            .unwrap();
        let bb = f.belief(MachineId::new(1), MachineCondition::MotorBearingDefect);
        let bl = f.belief(MachineId::new(1), MachineCondition::RefrigerantLeak);
        assert!((bb - 0.9).abs() < 1e-9, "bearing belief untouched: {bb}");
        assert!((bl - 0.85).abs() < 1e-9, "leak belief untouched: {bl}");
    }

    #[test]
    fn machines_are_independent() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.7))
            .unwrap();
        assert_eq!(
            f.belief(MachineId::new(2), MachineCondition::MotorImbalance),
            0.0
        );
    }

    #[test]
    fn disjunctive_evidence_supported() {
        // The paper's exact example: 40% on A, 75% on {B,C}, in one
        // 3-hypothesis frame (the Process group has 3 members).
        let mut f = DiagnosticFusion::new();
        let m = MachineId::new(9);
        let g = FailureGroup::Process;
        f.ingest_support(m, g, Subset::singleton(0), 0.40).unwrap();
        let d = f.ingest_support(m, g, Subset::of(&[1, 2]), 0.75).unwrap();
        assert!((d.beliefs[0].1 - 1.0 / 7.0).abs() < 1e-9);
        assert!((d.unknown - 1.5 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn dead_certain_contradictions_degrade_gracefully() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 1.0))
            .unwrap();
        // Would be total conflict at belief exactly 1; the cap keeps the
        // calculus defined.
        let d = f
            .ingest(&report(1, MachineCondition::MotorMisalignment, 1.0))
            .unwrap();
        let total: f64 = d.beliefs.iter().map(|(_, b)| b).sum::<f64>() + d.unknown;
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_support_rejected() {
        let mut f = DiagnosticFusion::new();
        // RotorDynamics has 2 members; index 5 is out of frame.
        assert!(f
            .ingest_support(
                MachineId::new(1),
                FailureGroup::RotorDynamics,
                Subset::of(&[5]),
                0.5
            )
            .is_err());
        assert!(f
            .ingest_support(
                MachineId::new(1),
                FailureGroup::RotorDynamics,
                Subset::EMPTY,
                0.5
            )
            .is_err());
    }

    #[test]
    fn single_member_groups_cannot_saturate() {
        // Lubrication has one member; without the implicit "other"
        // hypothesis any report would be trivially certain.
        let mut f = DiagnosticFusion::new();
        let d = f
            .ingest(&report(1, MachineCondition::LubeOilDegradation, 0.6))
            .unwrap();
        let b = f.belief(MachineId::new(1), MachineCondition::LubeOilDegradation);
        assert!((b - 0.6).abs() < 1e-9, "belief saturated: {b}");
        assert!((d.unknown - 0.4).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_frame() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.7))
            .unwrap();
        f.reset(MachineId::new(1), FailureGroup::RotorDynamics);
        assert_eq!(
            f.belief(MachineId::new(1), MachineCondition::MotorImbalance),
            0.0
        );
        assert!(f
            .diagnosis(MachineId::new(1), FailureGroup::RotorDynamics)
            .is_none());
    }

    #[test]
    fn all_lists_every_frame_sorted() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(2, MachineCondition::RefrigerantLeak, 0.5))
            .unwrap();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.5))
            .unwrap();
        f.ingest(&report(1, MachineCondition::LubeOilDegradation, 0.5))
            .unwrap();
        let all = f.all();
        assert_eq!(all.len(), 3);
        assert!(all[0].machine <= all[1].machine && all[1].machine <= all[2].machine);
    }

    #[test]
    fn durable_roundtrip_preserves_every_frame() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(2, MachineCondition::RefrigerantLeak, 0.5))
            .unwrap();
        f.ingest(&report(1, MachineCondition::MotorImbalance, 0.8))
            .unwrap();
        f.ingest(&report(1, MachineCondition::MotorMisalignment, 0.6))
            .unwrap();
        let bytes = f.to_durable_bytes();
        let back = DiagnosticFusion::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back.to_durable_bytes(), bytes, "canonical encoding");
        for d in f.all() {
            let restored = back.diagnosis(d.machine, d.group).unwrap();
            assert_eq!(restored, d, "fused view survives the roundtrip exactly");
        }
        assert_eq!(back.all().len(), f.all().len());
    }

    #[test]
    fn ranked_and_top() {
        let mut f = DiagnosticFusion::new();
        f.ingest(&report(1, MachineCondition::CompressorSurge, 0.3))
            .unwrap();
        let d = f
            .ingest(&report(1, MachineCondition::RefrigerantLeak, 0.7))
            .unwrap();
        let ranked = d.ranked();
        assert_eq!(ranked[0].0, MachineCondition::RefrigerantLeak);
        assert_eq!(d.top().unwrap().0, MachineCondition::RefrigerantLeak);
    }
}
