//! The ICAS open interface (§1).
//!
//! "We are currently designing and refining a\[n\] MPROS system
//! architecture with open interfaces to provide machinery condition and
//! raw sensor data to other shipboard systems such as ICAS (Integrated
//! Condition Assessment System)", aligned with "industry standards such
//! as Machinery Management Open Systems Alliance (MIMOSA)" (§3.3).
//!
//! [`export_snapshot`] renders the PDME's current view — machines,
//! fused conditions, health, maintenance priorities, DC liveness — as a
//! versioned, self-describing JSON document another shipboard system
//! can consume without linking against MPROS.

use crate::executive::{PdmeExecutive, Revision};
use crate::health;
use mpros_core::{MachineId, Result, SimDuration, SimTime};
use mpros_fusion::MaintenanceItem;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Interchange schema version. v2 added the per-machine `status` field
/// (`ok` / `degraded`) surfaced by the fleet supervisor.
pub const ICAS_SCHEMA_VERSION: u32 = 2;

/// One fused condition entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct IcasCondition {
    /// Condition catalog index.
    pub condition_id: usize,
    /// Human-readable condition description.
    pub description: String,
    /// Logical group label.
    pub group: String,
    /// Fused belief.
    pub belief: f64,
    /// Worst reported severity.
    pub severity: f64,
    /// Median time-to-failure estimate, seconds (absent when the fused
    /// curve never reaches 50 %).
    pub median_ttf_secs: Option<f64>,
}

/// One machine entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct IcasMachine {
    /// MPROS machine id.
    pub machine_id: u64,
    /// Ship-model name.
    pub name: String,
    /// Rolled-up health (1 = perfect).
    pub health: f64,
    /// Supervision status: `ok`, or `degraded` while the machine's DC
    /// is silent (or restarted and not yet re-reporting).
    pub status: String,
    /// Stored report count.
    pub report_count: usize,
    /// Fused conditions, most urgent first.
    pub conditions: Vec<IcasCondition>,
}

/// One data-concentrator liveness entry.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct IcasDc {
    /// DC id.
    pub dc_id: u64,
    /// Alive within the liveness timeout at snapshot time.
    pub alive: bool,
}

/// The full interchange document.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct IcasSnapshot {
    /// Schema version (see [`ICAS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Snapshot time, seconds of simulated time.
    pub at_secs: f64,
    /// Monitored machines, ascending by machine id. Entries are shared:
    /// a publisher reuses an unchanged machine's entry from its previous
    /// snapshot.
    pub machines: Vec<Arc<IcasMachine>>,
    /// Data-concentrator liveness, ascending by DC id.
    pub data_concentrators: Vec<IcasDc>,
}

/// Export the PDME's current state for ICAS consumption: every entry
/// built fresh from one maintenance list.
pub fn export_snapshot(
    pdme: &PdmeExecutive,
    now: SimTime,
    dc_timeout: SimDuration,
) -> IcasSnapshot {
    let list = pdme.maintenance_list();
    let machines = export_machines(pdme, &list, |_, _| None)
        .into_iter()
        .map(|(entry, _)| entry)
        .collect();
    IcasSnapshot {
        schema_version: ICAS_SCHEMA_VERSION,
        at_secs: now.as_secs(),
        machines,
        data_concentrators: export_dcs(pdme, now, dc_timeout),
    }
}

/// The ICAS entries of every registered machine, ascending by machine
/// id, each with the [`Revision`] of the machine state it shows.
///
/// `reuse(machine, revision)` is asked first: an entry it returns is
/// shared as it is (a publisher returns the entry it built at the same
/// machine revision). `None` builds the entry fresh from `list`, the
/// engine's current [`PdmeExecutive::maintenance_list`], which is
/// grouped by machine once.
pub fn export_machines(
    pdme: &PdmeExecutive,
    list: &[MaintenanceItem],
    mut reuse: impl FnMut(MachineId, Revision) -> Option<Arc<IcasMachine>>,
) -> Vec<(Arc<IcasMachine>, Revision)> {
    let mut rows: HashMap<MachineId, Vec<&MaintenanceItem>> = HashMap::new();
    for item in list {
        rows.entry(item.machine).or_default().push(item);
    }
    let mut machines = pdme.machines();
    machines.sort_unstable();
    machines
        .into_iter()
        .filter_map(|machine| {
            let revision = pdme.machine_revision(machine);
            if let Some(entry) = reuse(machine, revision) {
                return Some((entry, revision));
            }
            let rows = rows.get(&machine).map_or(&[][..], Vec::as_slice);
            let entry = machine_entry(pdme, machine, rows)?;
            Some((Arc::new(entry), revision))
        })
        .collect()
}

/// One machine's entry from its maintenance rows (most urgent first);
/// `None` when the machine has no object in the ship model.
fn machine_entry(
    pdme: &PdmeExecutive,
    machine: MachineId,
    rows: &[&MaintenanceItem],
) -> Option<IcasMachine> {
    let oosm = pdme.oosm();
    let obj = oosm.machine_object(machine)?;
    let status = oosm
        .property(obj, "status")
        .and_then(|v| v.as_text().map(str::to_string))
        .unwrap_or_else(|| "ok".to_string());
    let conditions = rows
        .iter()
        .map(|i| IcasCondition {
            condition_id: i.condition.index(),
            description: i.condition.to_string(),
            group: i.condition.group().to_string(),
            belief: i.belief,
            severity: i.severity.value(),
            median_ttf_secs: i.median_time_to_failure.map(|d| d.as_secs()),
        })
        .collect();
    Some(IcasMachine {
        machine_id: machine.raw(),
        name: oosm.name(obj).unwrap_or_default(),
        health: health::health_of(pdme, obj).health,
        status,
        report_count: oosm.report_count_for(machine),
        conditions,
    })
}

/// DC liveness entries, ascending by DC id.
pub fn export_dcs(pdme: &PdmeExecutive, now: SimTime, dc_timeout: SimDuration) -> Vec<IcasDc> {
    pdme.dc_health(now, dc_timeout)
        .into_iter()
        .map(|(dc, alive)| IcasDc {
            dc_id: dc.raw(),
            alive,
        })
        .collect()
}

impl IcasSnapshot {
    /// Serialize to the interchange JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| mpros_core::Error::Encoding(format!("ICAS export: {e}")))
    }

    /// Parse an interchange document.
    pub fn from_json(json: &str) -> Result<IcasSnapshot> {
        serde_json::from_str(json)
            .map_err(|e| mpros_core::Error::Encoding(format!("ICAS import: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{
        Belief, ConditionReport, DcId, MachineCondition, MachineId, PrognosticVector, ReportId,
    };
    use mpros_network::NetMessage;

    fn populated() -> PdmeExecutive {
        let mut p = PdmeExecutive::new();
        p.register_machine(MachineId::new(1), "chiller 1");
        p.register_machine(MachineId::new(2), "chiller 2");
        let r = ConditionReport::builder(
            MachineId::new(1),
            MachineCondition::MotorBearingDefect,
            Belief::new(0.8),
        )
        .id(ReportId::new(1))
        .dc(DcId::new(1))
        .severity(0.6)
        .prognostic(PrognosticVector::from_months(&[(1.0, 0.6)]).unwrap())
        .build();
        p.ingest(&[NetMessage::Report(r)], SimTime::from_secs(10.0))
            .unwrap();
        p
    }

    #[test]
    fn snapshot_carries_the_fused_state() {
        let p = populated();
        let snap = export_snapshot(&p, SimTime::from_secs(20.0), SimDuration::from_secs(60.0));
        assert_eq!(snap.schema_version, ICAS_SCHEMA_VERSION);
        assert_eq!(snap.machines.len(), 2);
        let m1 = &snap.machines[0];
        assert_eq!(m1.machine_id, 1);
        assert_eq!(m1.report_count, 1);
        assert_eq!(m1.conditions.len(), 1);
        let c = &m1.conditions[0];
        assert!(c.belief > 0.7);
        assert!(c.median_ttf_secs.is_some());
        assert_eq!(c.group, "bearings");
        assert!((m1.health - 0.2).abs() < 1e-6);
        // The healthy machine exports clean.
        let m2 = &snap.machines[1];
        assert_eq!(m2.health, 1.0);
        assert!(m2.conditions.is_empty());
        // No supervision marks: every machine reads `ok`.
        assert!(snap.machines.iter().all(|m| m.status == "ok"));
        // DC liveness from the report's heartbeat side effect.
        assert_eq!(
            snap.data_concentrators,
            vec![IcasDc {
                dc_id: 1,
                alive: true
            }]
        );
    }

    #[test]
    fn degraded_machines_surface_in_the_export() {
        let mut p = populated();
        p.assign_dc(DcId::new(1), vec![MachineId::new(1)], Vec::new());
        p.supervise(SimTime::from_secs(200.0), SimDuration::from_secs(60.0))
            .unwrap();
        let snap = export_snapshot(&p, SimTime::from_secs(200.0), SimDuration::from_secs(60.0));
        assert_eq!(snap.machines[0].status, "degraded");
        assert_eq!(
            snap.machines[1].status, "ok",
            "unassigned machine untouched"
        );
        assert!(!snap.data_concentrators[0].alive);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let p = populated();
        let snap = export_snapshot(&p, SimTime::from_secs(20.0), SimDuration::from_secs(60.0));
        let json = snap.to_json().unwrap();
        let back = IcasSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        // Self-describing essentials are in the document.
        assert!(json.contains("schema_version"));
        assert!(json.contains("motor rolling-element bearing defect"));
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(IcasSnapshot::from_json("{").is_err());
        assert!(IcasSnapshot::from_json("{\"schema_version\": 1}").is_err());
    }
}
