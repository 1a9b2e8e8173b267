//! Snapshot golden bytes: the durable encoding of an OOSM built by a
//! fixed sequence of writes, of a PDME after a short seeded ship run,
//! and of a PDME driven by direct calls until every keyed map it
//! snapshots holds entries, are checked against a committed length and
//! 64-bit FNV-1a digest. The determinism fingerprints pin the WAL only as a byte
//! count; this test pins the content a snapshot carries, so a change
//! to how the OOSM holds its tables cannot silently move the bytes it
//! writes.
//!
//! The table is the snapshot contract: never edit it to make a change
//! pass. A deliberate format change needs a migration and a new table.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{
    Belief, ConditionReport, DcId, Durable, MachineCondition, MachineId, PrognosticVector,
    ReportId, SimDuration, SimTime,
};
use mpros::network::{BatchEntry, NetMessage};
use mpros::oosm::{ObjectKind, Oosm, Relation, Value};
use mpros::pdme::{MaintenanceRecord, Outcome, PdmeExecutive};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::{SpanId, TraceContext, TraceId};

/// `(length, FNV-1a 64)` of `Oosm::to_durable_bytes` after [`oosm_ops`].
const OOSM_GOLDEN: (usize, u64) = (2773, 0x238b_9808_6deb_0923);

/// `(length, FNV-1a 64)` of `PdmeExecutive::snapshot_bytes` after
/// [`ship_run`].
const PDME_GOLDEN: (usize, u64) = (3735, 0x40a3_ad9b_96a4_1b75);

/// `(length, FNV-1a 64)` of `PdmeExecutive::snapshot_bytes` after
/// [`pdme_calls`].
const PDME_MAPS_GOLDEN: (usize, u64) = (7674, 0xe9ea_c1e6_cf6e_17f0);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report(id: u64, machine: u64, condition: MachineCondition, belief: f64) -> ConditionReport {
    ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
        .id(ReportId::new(id))
        .dc(DcId::new(machine))
        .severity(0.25 * id as f64)
        .timestamp(SimTime::from_secs(30.0 * id as f64))
        .explanation("vibration at 1x running speed")
        .prognostic(PrognosticVector::from_months(&[(1.0, 0.2), (3.0, 0.6)]).expect("sorted"))
        .build()
}

/// A model that fills all four mapping tables: every `Value` variant as
/// a property cell, an overwritten property, registered machines,
/// posted reports (one for an unregistered machine), relationships of
/// four kinds, and deletions of a report and of a related machine, so
/// every table holds a tombstone.
fn oosm_ops() -> Oosm {
    let mut o = Oosm::new();
    let ship = o.create_object(ObjectKind::Ship, "USNS Mercy");
    let plant = o.create_object(ObjectKind::System, "AC Plant 1");
    o.relate(plant, Relation::PartOf, ship).unwrap();
    let motor = o.register_machine(MachineId::new(1), "A/C Compressor Motor 1");
    let compressor = o.register_machine(MachineId::new(2), "A/C Compressor 1");
    let sensor = o.create_object(ObjectKind::Sensor, "accel-1");
    for machine in [motor, compressor] {
        o.relate(machine, Relation::PartOf, plant).unwrap();
    }
    o.relate(sensor, Relation::PartOf, motor).unwrap();
    o.relate(motor, Relation::ProximateTo, compressor).unwrap();
    o.relate(motor, Relation::FlowsTo, compressor).unwrap();
    o.relate(sensor, Relation::KindOf, sensor).unwrap();
    o.set_property(motor, "rated_kw", Value::Float(450.0))
        .unwrap();
    o.set_property(motor, "poles", Value::Int(-2)).unwrap();
    o.set_property(motor, "manufacturer", Value::Text("GE \"Δ\"\\\n".into()))
        .unwrap();
    o.set_property(motor, "critical", Value::Bool(true))
        .unwrap();
    o.set_property(motor, "notes", Value::Null).unwrap();
    o.set_property(compressor, "status", Value::Text("ok".into()))
        .unwrap();
    // Overwritten in place: the row keeps its position and row id.
    o.set_property(motor, "rated_kw", Value::Float(455.5))
        .unwrap();
    let conditions = [
        MachineCondition::MotorImbalance,
        MachineCondition::CompressorSurge,
        MachineCondition::MotorBearingDefect,
    ];
    let mut posted = Vec::new();
    for (id, machine) in [(1, 1), (2, 2), (3, 1), (4, 9)] {
        let r = report(id, machine, conditions[id as usize % 3], 0.2 * id as f64);
        posted.push(o.post_report(&r).unwrap());
    }
    o.set_property(posted[0], "reviewed", Value::Bool(false))
        .unwrap();
    o.delete_object(posted[2]).unwrap();
    o.delete_object(compressor).unwrap();
    o
}

/// A 3-DC ship with two seeded faults, run for 8 minutes of
/// simulated time: enough for DC surveys to reach the PDME and fuse.
fn ship_run() -> ShipboardSim {
    let config = ShipboardSimConfig::new()
        .with_dc_count(3)
        .with_seed(11)
        .with_survey_period(SimDuration::from_secs(30.0));
    let mut sim = ShipboardSim::new(config).expect("sim builds");
    for (dc, condition) in [
        (1, MachineCondition::RefrigerantLeak),
        (2, MachineCondition::CondenserFouling),
    ] {
        sim.seed_fault(
            dc,
            FaultSeed {
                condition,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(5.0),
                profile: FaultProfile::Step(0.9),
            },
        );
    }
    let fused = sim
        .run_for(SimDuration::from_minutes(8.0), SimDuration::from_secs(1.0))
        .expect("run");
    assert!(fused > 0, "the run fused no report: vacuous golden");
    sim
}

/// A PDME driven by direct calls so that every keyed map in its
/// snapshot is non-empty: fusion frames with journaled conflict
/// (contradictory reports), fused prognostics and worst severities,
/// supervisor assignments, DC states and a degraded set (DC 2 goes
/// silent past the timeout), the historian's archive and in-service
/// clocks, and the liveness map and replay guards of two batching DCs.
fn pdme_calls() -> PdmeExecutive {
    let mut p = PdmeExecutive::new();
    for m in 1..=4 {
        p.register_machine(MachineId::new(m), &format!("machine {m}"));
    }
    for dc in 1..=2u64 {
        let machines = vec![MachineId::new(2 * dc - 1), MachineId::new(2 * dc)];
        p.assign_dc(DcId::new(dc), machines, vec![(0, vec![dc as u8, 7])]);
    }
    // Machine 1 alternates between two rotor-dynamics conditions, so its
    // frame renormalizes conflict; every other report carries a curve.
    let plan = [
        [
            MachineCondition::MotorImbalance,
            MachineCondition::RefrigerantLeak,
        ],
        [
            MachineCondition::MotorMisalignment,
            MachineCondition::CompressorBearingDefect,
        ],
        [
            MachineCondition::MotorImbalance,
            MachineCondition::CondenserFouling,
        ],
    ];
    let mut id = 0;
    for (round, conditions) in plan.iter().enumerate() {
        let now = SimTime::from_secs(10.0 * round as f64);
        let mut msgs = Vec::new();
        for dc in 1..=2u64 {
            // DC 2 falls silent after the second round.
            if dc == 2 && round == 2 {
                continue;
            }
            let entries = (0..2u64)
                .map(|slot| {
                    id += 1;
                    let machine = 2 * dc - 1 + slot;
                    let condition = conditions[slot as usize];
                    let mut report = report(id, machine, condition, 0.9);
                    report.dc = DcId::new(dc);
                    report.timestamp = now;
                    if id % 2 == 0 {
                        report.prognostic = PrognosticVector::empty();
                    }
                    BatchEntry {
                        seq: id,
                        trace: TraceContext {
                            trace: TraceId(id),
                            parent: SpanId(100 + id),
                        },
                        report,
                    }
                })
                .collect();
            msgs.push(NetMessage::ReportBatch {
                dc: DcId::new(dc),
                epoch: round as u64 / 2,
                entries,
            });
        }
        p.ingest(&msgs, now).expect("ingest");
    }
    p.ingest(
        &[NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 90.0,
        }],
        SimTime::from_secs(90.0),
    )
    .expect("heartbeat");
    p.supervise(SimTime::from_secs(100.0), SimDuration::from_secs(45.0))
        .expect("supervise");
    for (i, (machine, outcome)) in [(1, Outcome::Confirmed), (3, Outcome::Reversed)]
        .into_iter()
        .enumerate()
    {
        p.record_maintenance(MaintenanceRecord {
            at: SimTime::from_secs(200.0 + i as f64),
            machine: MachineId::new(machine),
            condition: MachineCondition::MotorImbalance,
            outcome,
            service_life: Some(SimDuration::from_hours(500.0 + 100.0 * i as f64)),
        })
        .expect("maintenance");
    }
    for (machine, condition) in [
        (4, MachineCondition::RefrigerantLeak),
        (1, MachineCondition::MotorImbalance),
    ] {
        p.component_installed(
            MachineId::new(machine),
            condition,
            SimTime::from_secs(250.0),
        )
        .expect("install");
    }
    p
}

#[test]
fn oosm_snapshot_bytes_are_golden() {
    let bytes = oosm_ops().to_durable_bytes();
    let got = (bytes.len(), fnv1a64(&bytes));
    assert_eq!(
        got, OOSM_GOLDEN,
        "OOSM snapshot bytes moved: got ({}, 0x{:016x})",
        got.0, got.1
    );
}

#[test]
fn pdme_snapshot_bytes_after_a_ship_run_are_golden() {
    let sim = ship_run();
    let bytes = sim.pdme().snapshot_bytes();
    let got = (bytes.len(), fnv1a64(&bytes));
    assert_eq!(
        got, PDME_GOLDEN,
        "PDME snapshot bytes moved: got ({}, 0x{:016x})",
        got.0, got.1
    );
}

#[test]
fn pdme_snapshot_bytes_with_every_map_filled_are_golden() {
    let p = pdme_calls();
    // Not vacuous: the maps the ship run leaves empty are filled here.
    assert_eq!(
        p.degraded_machines(),
        vec![MachineId::new(3), MachineId::new(4)]
    );
    let frame = p
        .fusion()
        .diagnostic()
        .diagnosis(MachineId::new(1), MachineCondition::MotorImbalance.group())
        .expect("frame fused");
    assert!(frame.accumulated_conflict > 0.0, "no conflict journaled");
    assert!(p
        .fusion()
        .prognostic(MachineId::new(1), MachineCondition::MotorImbalance)
        .is_some());
    assert_eq!(p.historian().len(), 2);
    let bytes = p.snapshot_bytes();
    let got = (bytes.len(), fnv1a64(&bytes));
    assert_eq!(
        got, PDME_MAPS_GOLDEN,
        "PDME snapshot bytes moved: got ({}, 0x{:016x})",
        got.0, got.1
    );
}
