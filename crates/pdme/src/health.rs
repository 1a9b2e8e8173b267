//! Multi-level health rollup (§10.1 future work).
//!
//! "First, multi-level data is represented \[in\] the object-oriented ship
//! model. We are not currently exploiting this fully. For example, we
//! could reason about the health of a system based on the health of a
//! constituent part. Currently, only the parts are tracked."
//!
//! A machine's health is derived from the fused beliefs the executive
//! surfaces onto its OOSM object (`fused_belief:<condition>`); the
//! health of any composite object (system, deck, ship) is the worst
//! health of its `part-of` constituents, computed recursively over the
//! ship model — so a failing chiller motor drags down its A/C plant and
//! the ship readiness figure, exactly the rollup the paper sketches.

use crate::executive::{fused_belief_key, PdmeExecutive};
use mpros_core::{MachineCondition, ObjectId};
use mpros_oosm::{ObjectKind, Relation};
use std::fmt::Write as _;

/// Health of one object in `[0, 1]` (1 = perfect).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The object.
    pub object: ObjectId,
    /// Object name.
    pub name: String,
    /// Object kind.
    pub kind: ObjectKind,
    /// Health score.
    pub health: f64,
    /// For machines: the condition driving the score, if any.
    pub driver: Option<MachineCondition>,
    /// Constituent reports (part-of children).
    pub parts: Vec<HealthReport>,
}

/// A machine's own health: `1 − max fused belief` over all conditions
/// surfaced on its object. No evidence ⇒ perfect health.
fn machine_health(pdme: &PdmeExecutive, object: ObjectId) -> (f64, Option<MachineCondition>) {
    let mut worst = 0.0f64;
    let mut driver = None;
    for condition in MachineCondition::ALL {
        if let Some(v) = pdme.oosm().property(object, fused_belief_key(condition)) {
            if let Some(b) = v.as_float() {
                if b > worst {
                    worst = b;
                    driver = Some(condition);
                }
            }
        }
    }
    (1.0 - worst.clamp(0.0, 1.0), driver)
}

/// Recursive health of any object: machines score themselves; composite
/// objects take the minimum over their `part-of` constituents (an
/// assembly is only as healthy as its sickest part); leaves with no
/// parts and no evidence are perfectly healthy.
pub fn health_of(pdme: &PdmeExecutive, object: ObjectId) -> HealthReport {
    let oosm = pdme.oosm();
    let name = oosm.name(object).unwrap_or_else(|_| object.to_string());
    let kind = oosm.kind(object).unwrap_or(ObjectKind::Part);
    let parts: Vec<HealthReport> = oosm
        .related_to(object, Relation::PartOf)
        .into_iter()
        .filter(|&p| oosm.kind(p) != Ok(ObjectKind::Report))
        .map(|p| health_of(pdme, p))
        .collect();
    let (own, driver) = if kind == ObjectKind::Machine {
        machine_health(pdme, object)
    } else {
        (1.0, None)
    };
    let parts_min = parts.iter().map(|p| p.health).fold(1.0f64, f64::min);
    HealthReport {
        object,
        name,
        kind,
        health: own.min(parts_min),
        driver,
        parts,
    }
}

/// Render a health tree as indented text (readiness display).
pub fn render(report: &HealthReport) -> String {
    let mut out = String::new();
    fn walk(r: &HealthReport, depth: usize, out: &mut String) {
        let driver = r.driver.map(|c| format!(" ← {c}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "{}{} [{}] health {:.0}%{}",
            "  ".repeat(depth),
            r.name,
            r.kind,
            r.health * 100.0,
            driver
        );
        for p in &r.parts {
            walk(p, depth + 1, out);
        }
    }
    walk(report, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{Belief, ConditionReport, MachineId, ReportId, SimTime};
    use mpros_network::NetMessage;

    /// Ship → A/C plant → two machines; machine 1 develops a fault.
    fn rigged() -> (PdmeExecutive, ObjectId, ObjectId) {
        let mut p = PdmeExecutive::new();
        let m1 = {
            p.register_machine(MachineId::new(1), "chiller motor");
            p.oosm().machine_object(MachineId::new(1)).unwrap()
        };
        let m2 = {
            p.register_machine(MachineId::new(2), "chilled water pump");
            p.oosm().machine_object(MachineId::new(2)).unwrap()
        };
        let (ship, plant) = {
            let oosm = p.oosm_mut();
            let ship = oosm.create_object(ObjectKind::Ship, "USNS Mercy");
            let plant = oosm.create_object(ObjectKind::System, "A/C Plant 1");
            oosm.relate(plant, Relation::PartOf, ship).unwrap();
            oosm.relate(m1, Relation::PartOf, plant).unwrap();
            oosm.relate(m2, Relation::PartOf, plant).unwrap();
            (ship, plant)
        };
        let r = ConditionReport::builder(
            MachineId::new(1),
            MachineCondition::MotorBearingDefect,
            Belief::new(0.8),
        )
        .id(ReportId::new(1))
        .severity(0.7)
        .build();
        p.ingest(&[NetMessage::Report(r)], SimTime::ZERO).unwrap();
        (p, ship, plant)
    }

    #[test]
    fn machine_health_tracks_fused_belief() {
        let (p, _, _) = rigged();
        let m1 = p.oosm().machine_object(MachineId::new(1)).unwrap();
        let h = health_of(&p, m1);
        assert!((h.health - 0.2).abs() < 1e-6, "health {}", h.health);
        assert_eq!(h.driver, Some(MachineCondition::MotorBearingDefect));
    }

    #[test]
    fn health_rolls_up_part_of_chain() {
        let (p, ship, plant) = rigged();
        let plant_h = health_of(&p, plant);
        let ship_h = health_of(&p, ship);
        assert!(
            (plant_h.health - 0.2).abs() < 1e-6,
            "plant {}",
            plant_h.health
        );
        assert!((ship_h.health - 0.2).abs() < 1e-6, "ship {}", ship_h.health);
        // The healthy pump reports perfect health inside the tree.
        let pump = plant_h
            .parts
            .iter()
            .find(|r| r.name.contains("pump"))
            .unwrap();
        assert_eq!(pump.health, 1.0);
        assert_eq!(pump.driver, None);
    }

    #[test]
    fn healthy_model_is_perfect_everywhere() {
        let mut p = PdmeExecutive::new();
        p.register_machine(MachineId::new(1), "motor");
        let ship = p.oosm_mut().create_object(ObjectKind::Ship, "ship");
        let m = p.oosm().machine_object(MachineId::new(1)).unwrap();
        p.oosm_mut().relate(m, Relation::PartOf, ship).unwrap();
        let h = health_of(&p, ship);
        assert_eq!(h.health, 1.0);
    }

    #[test]
    fn render_is_indented_and_annotated() {
        let (p, ship, _) = rigged();
        let text = render(&health_of(&p, ship));
        assert!(text.contains("USNS Mercy [ship] health 20%"));
        assert!(text.contains("  A/C Plant 1 [system] health 20%"));
        assert!(text.contains("motor bearing defect") || text.contains("bearing defect"));
        // Indentation depth reflects the tree.
        assert!(text.lines().any(|l| l.starts_with("    chiller motor")));
    }
}
