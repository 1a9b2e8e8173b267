//! Wire golden bytes: one instance of every variant of all five tag
//! families (ship network messages, gateway requests/responses, fleet
//! requests/responses) is encoded and its type tag and a 64-bit FNV-1a
//! digest of the **full** frame (header and payload) are checked against
//! a committed table. The roundtrip and mode-invariance tests would pass
//! a uniform encoding change; this one pins the bytes themselves.
//!
//! The table is the wire contract: never edit it to make a change pass.
//! A deliberate wire change bumps `WIRE_VERSION` and adds a new table.

use mpros::core::{
    Belief, ConditionReport, DcId, KnowledgeSourceId, MachineCondition, MachineId,
    PrognosticVector, ReportId, SimTime,
};
use mpros::fleet::{
    encode_fleet_request, encode_fleet_response, FleetRequest, FleetResponse, FleetRollup,
    FleetSloVerdict, ShipDelta, ShipInfo,
};
use mpros::gateway::{
    encode_request, encode_response, DeltaKind, GatewayRequest, GatewayResponse, StatusDelta,
};
use mpros::network::{encode_message, NetMessage};
use mpros::pdme::icas::{IcasMachine, IcasSnapshot, ICAS_SCHEMA_VERSION};
use mpros::telemetry::{Incident, IncidentTrigger, INCIDENT_SCHEMA_VERSION};

/// `(family::variant, type tag, FNV-1a 64 of the full frame)`.
const GOLDEN: [(&str, u8, u64); 40] = [
    ("ship::Report", 1, 0xd5118068e0cc7343),
    ("ship::RunTest", 2, 0xb18e029a1a633169),
    ("ship::DownloadSbfr", 3, 0xf6fdce2b61e7316f),
    ("ship::Heartbeat", 4, 0xf8447d2aa1024b31),
    ("ship::ReportBatch", 5, 0x0ef50635c61608bd),
    ("ship::Ack", 6, 0x9ab76ac3ff69af6a),
    ("gateway-req::GetMachineStatus", 32, 0xc68e75fd9132e0a1),
    ("gateway-req::GetIcas", 33, 0x3302955b04f93798),
    ("gateway-req::GetPrognosticVector", 34, 0xf0de326450d47238),
    ("gateway-req::GetSloVerdict", 35, 0xb0a469915a39efe3),
    ("gateway-req::GetCounters", 36, 0xee02d5c4009d3d4a),
    ("gateway-req::Subscribe", 37, 0xb3a1a60c79d9f159),
    ("gateway-req::GetMetrics", 38, 0x5961628452d54aaf),
    ("gateway-req::StreamJournal", 39, 0x19d17673e591ee8e),
    ("gateway-req::ListIncidents", 40, 0xa26a0aaaf4343af2),
    ("gateway-req::GetIncident", 41, 0x5ee5a2c14bd6579b),
    ("gateway-req::GetTrace", 42, 0xea785ea53da9b68b),
    ("gateway-resp::MachineStatus", 64, 0xa3a3eaa3f9dbbe0d),
    ("gateway-resp::Icas", 65, 0x2cc6a2beded58f80),
    ("gateway-resp::PrognosticVector", 66, 0x142c19c979d05a0d),
    ("gateway-resp::SloVerdict", 67, 0xc0d9857fe25db570),
    ("gateway-resp::Counters", 68, 0xe210c67506bce82d),
    ("gateway-resp::Deltas", 69, 0x3b20548b8640a77f),
    ("gateway-resp::NotFound", 70, 0x73ee3ce9234ead2a),
    ("gateway-resp::Metrics", 71, 0x8232f04d846f6a6c),
    ("gateway-resp::Journal", 72, 0x81b0604ec1f71a5a),
    ("gateway-resp::Incidents", 73, 0x16742d0a486bec28),
    ("gateway-resp::Incident", 74, 0xcebad69e2aa3d5b5),
    ("gateway-resp::Trace", 75, 0xc5e8acb3d839335e),
    ("fleet-req::ListShips", 96, 0x513d7babc103015e),
    ("fleet-req::GetFleetRollup", 97, 0xb0458dd4a5dbd59b),
    ("fleet-req::GetShipIcas", 98, 0xd1e1958cb574e5a2),
    ("fleet-req::Subscribe", 99, 0x1c31603f0bd01573),
    ("fleet-req::ForShip", 100, 0x1bb5fab8a6d7818c),
    ("fleet-resp::Ships", 112, 0x90c529999e3b8470),
    ("fleet-resp::FleetRollup", 113, 0x9f295de28e606369),
    ("fleet-resp::ShipIcas", 114, 0x1b4ba92424aa9132),
    ("fleet-resp::FleetDeltas", 115, 0xf2f044ce7d34bc23),
    ("fleet-resp::ShipUnavailable", 116, 0x5905afe5f73a1ad1),
    ("fleet-resp::ShipReply", 117, 0x9de9e9df43043e25),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sample_report() -> ConditionReport {
    ConditionReport::builder(
        MachineId::new(1),
        MachineCondition::MotorBearingDefect,
        Belief::new(0.7),
    )
    .id(ReportId::new(1))
    .dc(DcId::new(1))
    .knowledge_source(KnowledgeSourceId::new(11))
    .severity(0.5)
    .timestamp(SimTime::from_secs(1.0))
    .prognostic(PrognosticVector::from_months(&[(6.0, 0.8)]).expect("valid curve"))
    .build()
}

fn sample_incident() -> Incident {
    Incident {
        schema_version: INCIDENT_SCHEMA_VERSION,
        id: 7,
        trigger: IncidentTrigger::PdmeCrashRestore,
        step: 3,
        at_secs: 1.5,
        pre_steps: 2,
        post_steps: 1,
        records: Vec::new(),
    }
}

fn empty_icas() -> IcasSnapshot {
    IcasSnapshot {
        schema_version: ICAS_SCHEMA_VERSION,
        at_secs: 0.0,
        machines: Vec::new(),
        data_concentrators: Vec::new(),
    }
}

fn empty_rollup() -> FleetRollup {
    FleetRollup {
        ship_count: 1,
        available_ships: vec![0],
        unavailable_ships: Vec::new(),
        machines: Vec::new(),
        prognostics: Vec::new(),
        slo: FleetSloVerdict {
            pass: true,
            failing_ships: Vec::new(),
            unavailable_ships: Vec::new(),
        },
        counters: Vec::new(),
    }
}

/// The variant name of a `Debug` rendering (`Foo { .. }` / `Foo(..)`).
fn variant(debug: String) -> String {
    debug
        .split(['(', ' ', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// One encoded frame per variant, in `GOLDEN` order.
fn all_frames() -> Vec<(String, Vec<u8>)> {
    let delta = StatusDelta {
        snapshot_version: 1,
        at_secs: 0.5,
        machine_id: 1,
        kind: DeltaKind::Degraded,
    };
    let ship = [
        NetMessage::Report(sample_report()),
        NetMessage::RunTest {
            dc: DcId::new(1),
            machine: MachineId::new(1),
        },
        NetMessage::DownloadSbfr {
            dc: DcId::new(1),
            slot: 0,
            image: vec![1, 2, 3],
        },
        NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 1.0,
        },
        NetMessage::ReportBatch {
            dc: DcId::new(1),
            epoch: 0,
            entries: Vec::new(),
        },
        NetMessage::Ack {
            dc: DcId::new(1),
            epoch: 0,
            last_seq: 9,
        },
    ];
    let gateway_reqs = [
        GatewayRequest::GetMachineStatus { machine: 1 },
        GatewayRequest::GetIcas,
        GatewayRequest::GetPrognosticVector {
            machine: 1,
            condition_id: 0,
        },
        GatewayRequest::GetSloVerdict,
        GatewayRequest::GetCounters,
        GatewayRequest::Subscribe { session: 1 },
        GatewayRequest::GetMetrics,
        GatewayRequest::StreamJournal { cursor: 0, max: 8 },
        GatewayRequest::ListIncidents,
        GatewayRequest::GetIncident { id: 1 },
        GatewayRequest::GetTrace { trace: 1 },
    ];
    let gateway_resps = [
        GatewayResponse::MachineStatus {
            snapshot_version: 1,
            machine: IcasMachine {
                machine_id: 1,
                name: "m".into(),
                health: 1.0,
                status: "ok".into(),
                report_count: 0,
                conditions: Vec::new(),
            },
        },
        GatewayResponse::Icas {
            snapshot_version: 1,
            icas: empty_icas(),
        },
        GatewayResponse::PrognosticVector {
            snapshot_version: 1,
            machine: 1,
            condition_id: 0,
            vector: PrognosticVector::from_months(&[(6.0, 0.8)]).expect("valid curve"),
        },
        GatewayResponse::SloVerdict {
            snapshot_version: 1,
            verdict: None,
        },
        GatewayResponse::Counters {
            snapshot_version: 1,
            counters: Vec::new(),
        },
        GatewayResponse::Deltas {
            snapshot_version: 1,
            session: 1,
            dropped: 0,
            deltas: vec![delta.clone()],
        },
        GatewayResponse::NotFound {
            snapshot_version: 1,
            detail: "x".into(),
        },
        GatewayResponse::Metrics {
            snapshot_version: 1,
            at_secs: 0.0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            exposition: String::new(),
        },
        GatewayResponse::Journal {
            snapshot_version: 1,
            next_cursor: 0,
            dropped: 0,
            events: Vec::new(),
        },
        GatewayResponse::Incidents {
            snapshot_version: 1,
            incidents: vec![sample_incident().summary()],
        },
        GatewayResponse::Incident {
            snapshot_version: 1,
            incident: sample_incident(),
        },
        GatewayResponse::Trace {
            snapshot_version: 1,
            trace: 1,
            hops: Vec::new(),
        },
    ];
    let fleet_reqs = [
        FleetRequest::ListShips,
        FleetRequest::GetFleetRollup,
        FleetRequest::GetShipIcas { ship: 0 },
        FleetRequest::Subscribe { session: 1 },
        FleetRequest::ForShip {
            ship: 0,
            request: GatewayRequest::GetIcas,
        },
    ];
    let fleet_resps = [
        FleetResponse::Ships {
            fleet_version: 1,
            ships: vec![ShipInfo {
                ship_id: 0,
                available: true,
                snapshot_version: 1,
                at_secs: 0.0,
                machines: 0,
                slo_pass: None,
            }],
        },
        FleetResponse::FleetRollup {
            fleet_version: 1,
            at_secs: 0.0,
            rollup: empty_rollup(),
        },
        FleetResponse::ShipIcas {
            fleet_version: 1,
            ship: 0,
            snapshot_version: 1,
            icas: empty_icas(),
        },
        FleetResponse::FleetDeltas {
            fleet_version: 1,
            session: 1,
            dropped: 0,
            deltas: vec![ShipDelta {
                ship_id: 0,
                fleet_version: 1,
                delta,
            }],
        },
        FleetResponse::ShipUnavailable {
            fleet_version: 1,
            ship: 0,
            detail: "shard_unavailable".into(),
        },
        FleetResponse::ShipReply {
            fleet_version: 1,
            ship: 0,
            response: GatewayResponse::SloVerdict {
                snapshot_version: 1,
                verdict: None,
            },
        },
    ];

    let mut frames = Vec::new();
    let mut push = |family: &str, debug: String, frame: &[u8]| {
        frames.push((format!("{family}::{}", variant(debug)), frame.to_vec()));
    };
    for m in &ship {
        push(
            "ship",
            format!("{m:?}"),
            &encode_message(m).expect("encodes"),
        );
    }
    for r in &gateway_reqs {
        push(
            "gateway-req",
            format!("{r:?}"),
            &encode_request(r).expect("encodes"),
        );
    }
    for r in &gateway_resps {
        push(
            "gateway-resp",
            format!("{r:?}"),
            &encode_response(r).expect("encodes"),
        );
    }
    for r in &fleet_reqs {
        push(
            "fleet-req",
            format!("{r:?}"),
            &encode_fleet_request(r).expect("encodes"),
        );
    }
    for r in &fleet_resps {
        push(
            "fleet-resp",
            format!("{r:?}"),
            &encode_fleet_response(r).expect("encodes"),
        );
    }
    frames
}

#[test]
fn every_variant_encodes_to_its_golden_frame() {
    let frames = all_frames();
    assert_eq!(frames.len(), GOLDEN.len(), "one frame per golden row");
    let mut mismatches = Vec::new();
    for ((name, frame), &(want_name, want_tag, want_digest)) in frames.iter().zip(GOLDEN.iter()) {
        let (tag, digest) = (frame[3], fnv1a64(frame));
        if name != want_name || tag != want_tag || digest != want_digest {
            mismatches.push(format!(
                "{name}: tag {tag} digest 0x{digest:016x}, \
                 want {want_name} tag {want_tag} digest 0x{want_digest:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "wire bytes moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_frame_carries_the_v6_header() {
    for (name, frame) in all_frames() {
        assert_eq!(&frame[..2], b"MP", "{name}: magic");
        assert_eq!(frame[2], 6, "{name}: wire version");
        let len = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
        assert_eq!(frame.len(), 8 + len, "{name}: payload length");
    }
}
