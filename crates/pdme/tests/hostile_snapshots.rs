//! A hostile or corrupt PDME snapshot decodes to `Err` or to an engine
//! that answers queries and takes further ingest, never to a panic. The
//! cases cover every section `snapshot_bytes` writes: the OOSM, fusion
//! frames, supervisor, historian, liveness map, replay guards and the
//! pending-traces section.

use mpros_core::{
    Belief, ConditionReport, DcId, Durable, MachineCondition, MachineId, ReportId, SimDuration,
    SimTime,
};
use mpros_network::{BatchEntry, NetMessage};
use mpros_pdme::icas::export_snapshot;
use mpros_pdme::{MaintenanceRecord, Outcome, PdmeExecutive};
use mpros_telemetry::{SpanId, TraceContext, TraceId};
use proptest::prelude::*;

fn report(id: u64, machine: u64, condition: MachineCondition) -> ConditionReport {
    ConditionReport::builder(MachineId::new(machine), condition, Belief::new(0.7))
        .id(ReportId::new(id))
        .dc(DcId::new(machine))
        .severity(0.5)
        .timestamp(SimTime::from_secs(id as f64))
        .explanation("imbalance")
        .build()
}

/// A small real engine with every snapshot section populated: two
/// machines, DC assignments, traced batches, a degraded machine, and a
/// maintenance archive with enough service lives to fit a life model.
fn populated() -> PdmeExecutive {
    let mut p = PdmeExecutive::new();
    for m in 1..=2 {
        p.register_machine(MachineId::new(m), &format!("machine {m}"));
        p.assign_dc(DcId::new(m), vec![MachineId::new(m)], vec![(0, vec![1, 2])]);
    }
    for k in 0..3u64 {
        let msgs: Vec<NetMessage> = (1..=2)
            .map(|m| NetMessage::ReportBatch {
                dc: DcId::new(m),
                epoch: 0,
                entries: vec![BatchEntry {
                    seq: k + 1,
                    trace: TraceContext {
                        trace: TraceId(10 * k + m),
                        parent: SpanId(100 + 10 * k + m),
                    },
                    report: report(10 * k + m, m, MachineCondition::ALL[(k + m) as usize]),
                }],
            })
            .collect();
        p.ingest(&msgs, SimTime::from_secs(k as f64)).unwrap();
    }
    p.supervise(SimTime::from_secs(100.0), SimDuration::from_secs(30.0))
        .unwrap();
    for (i, hours) in [400.0, 650.0, 900.0].into_iter().enumerate() {
        p.record_maintenance(MaintenanceRecord {
            at: SimTime::from_secs(200.0 + i as f64),
            machine: MachineId::new(1),
            condition: MachineCondition::MotorImbalance,
            outcome: Outcome::Confirmed,
            service_life: Some(SimDuration::from_hours(hours)),
        })
        .unwrap();
    }
    p.component_installed(
        MachineId::new(2),
        MachineCondition::MotorImbalance,
        SimTime::from_secs(50.0),
    )
    .unwrap();
    p
}

/// Exercise the read paths and one further ingest of a decoded engine.
fn drive(mut p: PdmeExecutive) {
    let now = SimTime::from_secs(300.0);
    let _ = p.snapshot_bytes();
    let _ = p.maintenance_list();
    let _ = p.degraded_machines();
    let _ = export_snapshot(&p, now, SimDuration::from_secs(60.0)).to_json();
    for machine in p.machines() {
        let _ = p.reports_for_machine(machine);
    }
    let _ = p.ingest(
        &[NetMessage::Report(report(
            999,
            1,
            MachineCondition::MotorImbalance,
        ))],
        now,
    );
    let _ = p.supervise(now, SimDuration::from_secs(30.0));
}

/// Where the sections after the OOSM start in a snapshot of `p`.
fn oosm_len(p: &PdmeExecutive) -> usize {
    p.oosm().to_durable_bytes().len()
}

#[test]
fn a_real_snapshot_restores_and_takes_ingest() {
    let p = populated();
    let bytes = p.snapshot_bytes();
    let restored = PdmeExecutive::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(restored.snapshot_bytes(), bytes);
    drive(restored);
}

#[test]
fn every_truncation_is_an_error() {
    let bytes = populated().snapshot_bytes();
    for len in 0..bytes.len() {
        assert!(
            PdmeExecutive::from_snapshot_bytes(&bytes[..len]).is_err(),
            "a snapshot cut to {len} of {} bytes decoded",
            bytes.len()
        );
    }
}

/// A snapshot written before the ingest pass fused its own reports may
/// carry pending trace entries: (report id, trace id, ingest span id),
/// ascending by id. It restores, and the entries are dropped.
#[test]
fn an_older_snapshot_with_pending_traces_restores() {
    let p = populated();
    let bytes = p.snapshot_bytes();
    let (head, empty) = bytes.split_at(bytes.len() - 8);
    assert_eq!(empty, 0u64.to_le_bytes(), "the section is written empty");
    let with_entries = |ids: [u64; 2]| {
        let mut old = head.to_vec();
        2usize.encode(&mut old);
        for id in ids {
            (id, (id + 1, id + 2)).encode(&mut old);
        }
        old
    };
    let restored = PdmeExecutive::from_snapshot_bytes(&with_entries([7, 9])).unwrap();
    assert_eq!(restored.snapshot_bytes(), bytes);
    drive(restored);
    assert!(PdmeExecutive::from_snapshot_bytes(&with_entries([9, 7])).is_err());
    assert!(PdmeExecutive::from_snapshot_bytes(&with_entries([7, 7])).is_err());
    let mut cut = with_entries([7, 9]);
    cut.pop();
    assert!(PdmeExecutive::from_snapshot_bytes(&cut).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        if let Ok(p) = PdmeExecutive::from_snapshot_bytes(&bytes) {
            drive(p);
        }
    }

    /// Arbitrary bytes after a valid OOSM reach the fusion, supervisor,
    /// historian and DC-map decoders.
    #[test]
    fn arbitrary_bytes_after_the_ship_model_never_panic(
        tail in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let p = populated();
        let mut bytes = p.snapshot_bytes();
        bytes.truncate(oosm_len(&p));
        bytes.extend(tail);
        if let Ok(p) = PdmeExecutive::from_snapshot_bytes(&bytes) {
            drive(p);
        }
    }

    #[test]
    fn single_byte_mutations_never_panic(position in 0.0..1.0f64, flip in 1u8..=255) {
        let mut bytes = populated().snapshot_bytes();
        let at = ((bytes.len() as f64) * position) as usize;
        bytes[at] ^= flip;
        if let Ok(p) = PdmeExecutive::from_snapshot_bytes(&bytes) {
            drive(p);
        }
    }

    /// The same, aimed at the sections after the OOSM, which are a few
    /// percent of the snapshot.
    #[test]
    fn single_byte_mutations_after_the_ship_model_never_panic(
        position in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let p = populated();
        let mut bytes = p.snapshot_bytes();
        let start = oosm_len(&p);
        let at = start + (((bytes.len() - start) as f64) * position) as usize;
        bytes[at] ^= flip;
        if let Ok(p) = PdmeExecutive::from_snapshot_bytes(&bytes) {
            drive(p);
        }
    }
}
