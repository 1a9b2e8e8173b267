//! §7: the failure-prediction reporting protocol end to end — every
//! field of a report must survive DC → frame codec → network → PDME →
//! OOSM persistence → fusion, bit for bit.

use mpros::core::{
    Belief, ConditionReport, DcId, KnowledgeSourceId, MachineCondition, MachineId,
    PrognosticVector, ReportId, SimTime,
};
use mpros::network::{decode_message, encode_message, BatchEntry, NetMessage, MAX_BATCH};
use mpros::oosm::Oosm;
use mpros::pdme::PdmeExecutive;
use mpros::telemetry::{SpanId, TraceContext, TraceId};
use proptest::prelude::*;

fn arb_report() -> impl Strategy<Value = ConditionReport> {
    (
        0u64..1000,
        0u64..50,
        0usize..12,
        0.0..=1.0f64,
        0.0..=1.0f64,
        proptest::collection::vec((0.5..24.0f64, 0.01..=1.0f64), 0..5),
        ".{0,40}",
        ".{0,40}",
    )
        .prop_map(
            |(id, machine, cond_idx, belief, severity, prog_raw, expl, rec)| {
                let mut sorted = prog_raw;
                sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                sorted.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-3);
                let mut acc: f64 = 0.0;
                let pairs: Vec<(f64, f64)> = sorted
                    .into_iter()
                    .map(|(m, p)| {
                        acc = acc.max(p);
                        (m, acc)
                    })
                    .collect();
                ConditionReport::builder(
                    MachineId::new(machine),
                    MachineCondition::from_index(cond_idx).unwrap(),
                    Belief::new(belief),
                )
                .id(ReportId::new(id))
                .dc(DcId::new(1))
                .knowledge_source(KnowledgeSourceId::new(11))
                .severity(severity)
                .timestamp(SimTime::from_secs(id as f64))
                .explanation(expl)
                .recommendation(rec)
                .prognostic(PrognosticVector::from_months(&pairs).unwrap())
                .build()
            },
        )
}

/// A well-formed batch frame: 0..6 entries with strictly increasing
/// sequence numbers (gaps allowed, as after dropped frames), under an
/// arbitrary restart epoch.
fn arb_batch() -> impl Strategy<Value = NetMessage> {
    (
        0u64..100,
        0u64..4,
        proptest::collection::vec((1u64..50, 0u64..=u64::MAX, arb_report()), 0..6),
    )
        .prop_map(|(start, epoch, items)| {
            let mut seq = start;
            let entries = items
                .into_iter()
                .map(|(gap, trace_raw, report)| {
                    seq += gap;
                    BatchEntry {
                        seq,
                        trace: TraceContext::for_enqueued(TraceId(trace_raw)),
                        report,
                    }
                })
                .collect();
            NetMessage::ReportBatch {
                dc: DcId::new(2),
                epoch,
                entries,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_report_survives_the_wire(report in arb_report()) {
        let frame = encode_message(&NetMessage::Report(report.clone())).unwrap();
        let back = decode_message(&frame).unwrap();
        prop_assert_eq!(back, NetMessage::Report(report));
    }

    #[test]
    fn any_report_survives_oosm_persistence(report in arb_report()) {
        let mut oosm = Oosm::new();
        let obj = oosm.post_report(&report).unwrap();
        let back = oosm.report_payload(obj).unwrap();
        prop_assert_eq!(back, report);
    }

    #[test]
    fn any_report_flows_into_fusion(report in arb_report()) {
        let mut pdme = PdmeExecutive::new();
        pdme.register_machine(report.machine, "machine under test");
        let summary = pdme.ingest(&[NetMessage::Report(report.clone())], SimTime::ZERO).unwrap();
        prop_assert_eq!(summary.fused, 1);
        let fused = pdme
            .fusion()
            .diagnostic()
            .belief(report.machine, report.condition);
        // Fused singleton belief equals the (capped) report belief for a
        // first report.
        prop_assert!((fused - report.belief.value().min(0.999)).abs() < 1e-9);
    }

    #[test]
    fn any_batch_survives_the_wire(batch in arb_batch()) {
        // Includes the empty batch ("nothing this step").
        let frame = encode_message(&batch).unwrap();
        let back = decode_message(&frame).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn duplicate_or_reordered_batch_seqs_are_rejected(batch in arb_batch()) {
        let NetMessage::ReportBatch { dc, epoch, entries } = batch else { unreachable!() };
        if !entries.is_empty() {
            // Duplicate the last entry's sequence number.
            let mut dup = entries.clone();
            dup.push(dup.last().unwrap().clone());
            prop_assert!(
                encode_message(&NetMessage::ReportBatch { dc, epoch, entries: dup }).is_err()
            );
        }
        // Reverse a multi-entry batch: strictly decreasing, rejected.
        if entries.len() >= 2 {
            let mut rev = entries;
            rev.reverse();
            prop_assert!(
                encode_message(&NetMessage::ReportBatch { dc, epoch, entries: rev }).is_err()
            );
        }
    }

    #[test]
    fn any_trace_context_survives_the_wire(
        seq in 1u64..1000,
        trace_raw in 0u64..=u64::MAX,
        parent_raw in 0u64..=u64::MAX,
        report in arb_report(),
    ) {
        // Arbitrary (not just derivable) trace/parent ids roundtrip:
        // the codec carries the context opaquely.
        let batch = NetMessage::ReportBatch {
            dc: DcId::new(3),
            epoch: 1,
            entries: vec![BatchEntry {
                seq,
                trace: TraceContext { trace: TraceId(trace_raw), parent: SpanId(parent_raw) },
                report,
            }],
        };
        let back = decode_message(&encode_message(&batch).unwrap()).unwrap();
        prop_assert_eq!(back, batch);
    }

    #[test]
    fn truncated_frames_are_rejected(batch in arb_batch(), cut_fraction in 0.0..1.0f64) {
        let frame = encode_message(&batch).unwrap();
        // Any strict prefix must fail to decode — whether the cut lands
        // in the header, the length field, or mid-payload.
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_message(&frame[..cut]).is_err());
    }

    #[test]
    fn any_batch_flows_into_fusion(batch in arb_batch()) {
        let NetMessage::ReportBatch { ref entries, .. } = batch else { unreachable!() };
        let mut pdme = PdmeExecutive::new();
        for e in entries {
            pdme.register_machine(e.report.machine, "machine under test");
        }
        let summary = pdme
            .ingest(std::slice::from_ref(&batch), SimTime::from_secs(5000.0))
            .unwrap();
        prop_assert_eq!(summary.fused, entries.len());
        prop_assert_eq!(pdme.reports_received(), entries.len());
        // The ack watermark covers the whole batch, even an empty one.
        if let NetMessage::ReportBatch { dc, epoch, ref entries } = batch {
            if let Some(last) = entries.last() {
                prop_assert_eq!(summary.acks.len(), 1);
                let ack = summary.acks[0];
                prop_assert_eq!((ack.dc, ack.epoch, ack.last_seq), (dc, epoch, last.seq));
            } else {
                prop_assert!(summary.acks.is_empty());
            }
        }
    }
}

#[test]
fn max_size_batch_roundtrips_and_oversize_is_rejected() {
    let entry = |seq: u64| BatchEntry {
        seq,
        trace: TraceContext::for_enqueued(TraceId(seq ^ 0xABCD)),
        report: ConditionReport::builder(
            MachineId::new(1),
            MachineCondition::from_index(0).unwrap(),
            Belief::new(0.5),
        )
        .id(ReportId::new(seq))
        .dc(DcId::new(1))
        .timestamp(SimTime::ZERO)
        .build(),
    };
    let full = NetMessage::ReportBatch {
        dc: DcId::new(1),
        epoch: 0,
        entries: (1..=MAX_BATCH as u64).map(entry).collect(),
    };
    let back = decode_message(&encode_message(&full).unwrap()).unwrap();
    assert_eq!(back, full);
    let over = NetMessage::ReportBatch {
        dc: DcId::new(1),
        epoch: 0,
        entries: (1..=MAX_BATCH as u64 + 1).map(entry).collect(),
    };
    assert!(encode_message(&over).is_err());
}

/// Any ship message, every variant, with arbitrary float bit patterns
/// in the heartbeat clock (subnormals, -0.0, NaN and ±inf included).
fn arb_message() -> impl Strategy<Value = NetMessage> {
    prop_oneof![
        arb_report().prop_map(NetMessage::Report),
        arb_batch(),
        (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(dc, machine)| NetMessage::RunTest {
            dc: DcId::new(dc),
            machine: MachineId::new(machine),
        }),
        (
            0u64..64,
            0u32..=u32::MAX,
            proptest::collection::vec(0u8..=u8::MAX, 0..32)
        )
            .prop_map(|(dc, slot, image)| NetMessage::DownloadSbfr {
                dc: DcId::new(dc),
                slot,
                image,
            }),
        (0u64..64, 0u64..=u64::MAX).prop_map(|(dc, bits)| NetMessage::Heartbeat {
            dc: DcId::new(dc),
            at_secs: f64::from_bits(bits),
        }),
        (0u64..64, 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(dc, epoch, last_seq)| {
            NetMessage::Ack {
                dc: DcId::new(dc),
                epoch,
                last_seq,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wire is canonical: a frame that decodes re-encodes to the
    /// same bytes, so a decoded message can stand for its frame. Only a
    /// non-finite heartbeat clock fails to decode (JSON writes it as
    /// `null`).
    #[test]
    fn decoded_frames_reencode_to_the_same_bytes(msg in arb_message()) {
        let frame = encode_message(&msg).unwrap();
        match decode_message(&frame) {
            Ok(back) => prop_assert_eq!(encode_message(&back).unwrap(), frame),
            Err(_) => prop_assert!(
                matches!(msg, NetMessage::Heartbeat { at_secs, .. } if !at_secs.is_finite())
            ),
        }
    }
}
