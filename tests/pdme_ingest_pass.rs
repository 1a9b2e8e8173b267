//! The PDME's ingest pass (§5.1): it fuses exactly the reports it posts,
//! an OOSM subscriber (§4.5) sees every posted report without changing
//! what the engine computes, and a frame fused from a long run of
//! reports restores from a snapshot byte for byte.

use mpros::core::{
    Belief, ConditionReport, DcId, MachineCondition, MachineId, ReportId, SimDuration, SimTime,
};
use mpros::network::{BatchEntry, NetMessage};
use mpros::oosm::OosmEvent;
use mpros::pdme::icas::export_snapshot;
use mpros::pdme::PdmeExecutive;
use mpros::telemetry::{SpanId, TraceContext, TraceId};

const MACHINES: u64 = 4;

fn report(id: u64, machine: u64, condition: MachineCondition, belief: f64) -> ConditionReport {
    ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
        .id(ReportId::new(id))
        .dc(DcId::new(machine))
        .severity(0.4)
        .timestamp(SimTime::from_secs(id as f64))
        .build()
}

fn pdme() -> PdmeExecutive {
    let mut p = PdmeExecutive::new();
    for m in 1..=MACHINES {
        p.register_machine(MachineId::new(m), &format!("machine {m}"));
    }
    p
}

fn icas_json(p: &PdmeExecutive, now: SimTime) -> String {
    export_snapshot(p, now, SimDuration::from_secs(60.0))
        .to_json()
        .unwrap()
}

/// Pass `k`: one single-report frame and one traced batch frame per
/// machine.
fn pass(k: u64) -> Vec<NetMessage> {
    let conditions = [
        MachineCondition::MotorImbalance,
        MachineCondition::MotorBearingDefect,
        MachineCondition::CondenserFouling,
    ];
    let mut msgs = Vec::new();
    for m in 1..=MACHINES {
        let id = |j: u64| 1_000 * m + 10 * k + j;
        let condition = conditions[((k + m) % 3) as usize];
        msgs.push(NetMessage::Report(report(id(0), m, condition, 0.5)));
        msgs.push(NetMessage::ReportBatch {
            dc: DcId::new(m),
            epoch: 0,
            entries: (1..=2)
                .map(|j| BatchEntry {
                    seq: 2 * k + j,
                    trace: TraceContext {
                        trace: TraceId(id(j)),
                        parent: SpanId(id(j) + 1),
                    },
                    report: report(id(j), m, condition, 0.7),
                })
                .collect(),
        });
    }
    msgs
}

fn ingested_ids(msgs: &[NetMessage]) -> Vec<ReportId> {
    msgs.iter()
        .flat_map(|msg| match msg {
            NetMessage::Report(r) => vec![r.id],
            NetMessage::ReportBatch { entries, .. } => {
                entries.iter().map(|e| e.report.id).collect()
            }
            _ => Vec::new(),
        })
        .collect()
}

#[test]
fn a_subscriber_sees_every_ingested_report_and_changes_nothing() {
    let mut plain = pdme();
    let mut observed = pdme();
    let subscription = observed.oosm_mut().subscribe();
    let mut expected = Vec::new();
    let mut seen = Vec::new();
    for k in 0..5 {
        let msgs = pass(k);
        let now = SimTime::from_secs(10.0 * k as f64);
        let a = plain.ingest(&msgs, now).unwrap();
        let b = observed.ingest(&msgs, now).unwrap();
        assert_eq!(a, b, "pass {k}: ingest summaries");
        expected.extend(ingested_ids(&msgs));
        seen.extend(subscription.drain().into_iter().filter_map(|e| match e {
            OosmEvent::ReportPosted { report, .. } => Some(report.id),
            _ => None,
        }));
    }
    assert_eq!(
        seen, expected,
        "one ReportPosted per ingested report, in order"
    );
    assert_eq!(plain.snapshot_bytes(), observed.snapshot_bytes());
    let now = SimTime::from_secs(50.0);
    assert_eq!(icas_json(&plain, now), icas_json(&observed, now));
}

#[test]
fn a_report_posted_through_the_side_door_is_stored_but_not_fused() {
    let mut p = pdme();
    p.oosm_mut()
        .post_report(&report(1, 1, MachineCondition::MotorImbalance, 0.9))
        .unwrap();
    let summary = p.ingest(&pass(0), SimTime::ZERO).unwrap();
    assert_eq!(summary.fused, summary.posted, "only this pass's reports");
    assert_eq!(p.fusion().reports_ingested(), summary.posted);
    assert_eq!(p.oosm().report_count(), summary.posted + 1);
}

/// One source re-reporting one condition 1,000 times drives the frame's
/// unknown mass to exactly zero (after 814 combines at belief 0.6). The
/// snapshot the engine writes must still restore, to the same bytes and
/// the same ICAS export.
#[test]
fn a_frame_fused_from_1000_reports_restores_byte_identically() {
    let mut p = pdme();
    for k in 0..10 {
        let msgs: Vec<NetMessage> = (0..100)
            .map(|j| {
                let id = 100 * k + j;
                NetMessage::Report(report(id, 1, MachineCondition::MotorImbalance, 0.6))
            })
            .collect();
        p.ingest(&msgs, SimTime::from_secs(k as f64)).unwrap();
    }
    assert_eq!(p.fusion().reports_ingested(), 1_000);
    let bytes = p.snapshot_bytes();
    let restored = PdmeExecutive::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(restored.snapshot_bytes(), bytes);
    let now = SimTime::from_secs(10.0);
    assert_eq!(icas_json(&restored, now), icas_json(&p, now));
}
