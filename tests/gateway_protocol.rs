//! Gateway and fleet wire protocol: every request and response variant
//! of both tag families must survive the frame codec bit for bit, and
//! malformed input — truncated frames, corrupted headers, frames from a
//! sibling family's tag range, frames stamped with a stale wire version —
//! must be rejected, never half-parsed. Arbitrary bytes and single-byte
//! mutations of valid frames, fed to the one generic decoder as every
//! family, must never panic. Mirrors `tests/protocol_roundtrip.rs` for
//! the serving plane.

use mpros::core::{DcId, PrognosticVector};
use mpros::fleet::{
    decode_fleet_request, decode_fleet_response, encode_fleet_request, encode_fleet_response,
    FleetMachine, FleetPrognostic, FleetRequest, FleetResponse, FleetRollup, FleetSloVerdict,
    ShipDelta, ShipInfo,
};
use mpros::gateway::{
    decode_request, decode_response, encode_request, encode_response, DeltaKind, GatewayRequest,
    GatewayResponse, StatusDelta,
};
use mpros::network::{decode, decode_message, encode_message, Family, NetMessage, Tag, Wire};
use mpros::pdme::icas::{IcasCondition, IcasDc, IcasMachine, IcasSnapshot, ICAS_SCHEMA_VERSION};
use mpros::telemetry::{
    CounterDelta, CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, HopRecord,
    Incident, IncidentTrigger, SloCheck, SloVerdict, StepRecord, INCIDENT_SCHEMA_VERSION,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_request() -> impl Strategy<Value = GatewayRequest> {
    prop_oneof![
        (0u64..100).prop_map(|machine| GatewayRequest::GetMachineStatus { machine }),
        Just(GatewayRequest::GetIcas),
        (0u64..100, 0usize..12).prop_map(|(machine, condition_id)| {
            GatewayRequest::GetPrognosticVector {
                machine,
                condition_id,
            }
        }),
        Just(GatewayRequest::GetSloVerdict),
        Just(GatewayRequest::GetCounters),
        (0u64..=u64::MAX).prop_map(|session| GatewayRequest::Subscribe { session }),
        Just(GatewayRequest::GetMetrics),
        (0u64..=u64::MAX, 0u32..10_000)
            .prop_map(|(cursor, max)| GatewayRequest::StreamJournal { cursor, max }),
        Just(GatewayRequest::ListIncidents),
        (0u64..=u64::MAX).prop_map(|id| GatewayRequest::GetIncident { id }),
        (0u64..=u64::MAX).prop_map(|trace| GatewayRequest::GetTrace { trace }),
    ]
}

fn arb_prognostic() -> impl Strategy<Value = PrognosticVector> {
    proptest::collection::vec((0.5..24.0f64, 0.01..=1.0f64), 0..5).prop_map(|raw| {
        let mut sorted = raw;
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
        PrognosticVector::from_months(&pairs).unwrap()
    })
}

fn arb_machine() -> impl Strategy<Value = IcasMachine> {
    (
        0u64..50,
        ".{0,20}",
        0.0..=1.0f64,
        prop_oneof![Just("ok"), Just("degraded")],
        0usize..1000,
        proptest::collection::vec(
            (
                0usize..12,
                ".{0,20}",
                ".{0,10}",
                0.0..=1.0f64,
                0.0..=1.0f64,
                proptest::option::of(1.0..1e6f64),
            ),
            0..3,
        ),
    )
        .prop_map(
            |(machine_id, name, health, status, report_count, conds)| IcasMachine {
                machine_id,
                name,
                health,
                status: status.to_string(),
                report_count,
                conditions: conds
                    .into_iter()
                    .map(
                        |(condition_id, description, group, belief, severity, median_ttf_secs)| {
                            IcasCondition {
                                condition_id,
                                description,
                                group,
                                belief,
                                severity,
                                median_ttf_secs,
                            }
                        },
                    )
                    .collect(),
            },
        )
}

fn arb_delta() -> impl Strategy<Value = StatusDelta> {
    (
        0u64..10_000,
        0.0..1e6f64,
        0u64..50,
        prop_oneof![Just(DeltaKind::Degraded), Just(DeltaKind::Recovered)],
    )
        .prop_map(
            |(snapshot_version, at_secs, machine_id, kind)| StatusDelta {
                snapshot_version,
                at_secs,
                machine_id,
                kind,
            },
        )
}

fn arb_counter() -> impl Strategy<Value = CounterSnapshot> {
    (".{0,10}", ".{0,10}", 0u64..=u64::MAX).prop_map(|(component, name, value)| CounterSnapshot {
        component,
        name,
        value,
    })
}

fn arb_gauge() -> impl Strategy<Value = GaugeSnapshot> {
    (".{0,10}", ".{0,10}", -1e6..1e6f64).prop_map(|(component, name, value)| GaugeSnapshot {
        component,
        name,
        value,
    })
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        ".{0,10}",
        ".{0,10}",
        0u64..100_000,
        proptest::option::of(0.0..1e3f64),
        proptest::option::of(0.0..1e3f64),
        proptest::option::of(0.0..1e3f64),
    )
        .prop_map(
            |(component, name, count, min, max, p50)| HistogramSnapshot {
                component,
                name,
                count,
                min,
                max,
                mean: p50,
                p50,
                p95: max,
                p99: max,
            },
        )
}

fn arb_event() -> impl Strategy<Value = EventSnapshot> {
    (0u64..100_000, 0.0..1e6f64, ".{0,10}", ".{0,10}", ".{0,30}").prop_map(
        |(seq, at_secs, component, kind, detail)| EventSnapshot {
            seq,
            at_secs,
            component,
            kind,
            detail,
        },
    )
}

fn arb_hop() -> impl Strategy<Value = HopRecord> {
    (
        1u64..=u64::MAX,
        1u64..=u64::MAX,
        proptest::option::of(1u64..=u64::MAX),
        prop_oneof![Just("dc_emit"), Just("send"), Just("deliver")],
        0u32..5,
        prop_oneof![Just("dc1"), Just("net"), Just("pdme")],
        (0.0..1e6f64, 0.0..100.0f64),
        ".{0,20}",
    )
        .prop_map(
            |(trace, span, parent, kind, attempt, track, (start, len), detail)| HopRecord {
                trace,
                span,
                parent,
                kind: kind.to_string(),
                attempt,
                track: track.to_string(),
                sim_start: start,
                sim_end: start + len,
                detail,
            },
        )
}

fn arb_trigger() -> impl Strategy<Value = IncidentTrigger> {
    prop_oneof![
        Just(IncidentTrigger::SloViolation),
        (1u64..100).prop_map(|dc| IncidentTrigger::DcCrashed { dc }),
        Just(IncidentTrigger::PdmeCrashRestore),
        ".{0,12}".prop_map(|label| IncidentTrigger::Manual { label }),
    ]
}

fn arb_step_record() -> impl Strategy<Value = StepRecord> {
    (
        0u64..100_000,
        0.0..1e6f64,
        proptest::collection::vec(arb_event(), 0..3),
        proptest::collection::vec(arb_hop(), 0..3),
        proptest::collection::vec(
            (".{0,10}", ".{0,10}", 0u64..1000, 0u64..100_000).prop_map(
                |(component, name, delta, total)| CounterDelta {
                    component,
                    name,
                    delta,
                    total,
                },
            ),
            0..3,
        ),
        proptest::collection::vec(
            (".{0,10}", ".{0,10}", -1e3..1e3f64).prop_map(|(component, name, value)| {
                GaugeSnapshot {
                    component,
                    name,
                    value,
                }
            }),
            0..3,
        ),
    )
        .prop_map(
            |(step, at_secs, events, hops, counter_deltas, gauges)| StepRecord {
                step,
                at_secs,
                events,
                hops,
                counter_deltas,
                gauges,
                slo: None,
            },
        )
}

fn arb_incident() -> impl Strategy<Value = Incident> {
    (
        0u64..=u64::MAX,
        arb_trigger(),
        0u64..100_000,
        0.0..1e6f64,
        0usize..8,
        0usize..4,
        proptest::collection::vec(arb_step_record(), 0..4),
    )
        .prop_map(
            |(id, trigger, step, at_secs, pre_steps, post_steps, records)| Incident {
                schema_version: INCIDENT_SCHEMA_VERSION,
                id,
                trigger,
                step,
                at_secs,
                pre_steps,
                post_steps,
                records,
            },
        )
}

fn arb_response() -> impl Strategy<Value = GatewayResponse> {
    let version = 0u64..10_000;
    prop_oneof![
        (version.clone(), arb_machine()).prop_map(|(snapshot_version, machine)| {
            GatewayResponse::MachineStatus {
                snapshot_version,
                machine,
            }
        }),
        (
            version.clone(),
            0.0..1e6f64,
            proptest::collection::vec(arb_machine(), 0..4),
            proptest::collection::vec((1u64..9, prop_oneof![Just(true), Just(false)]), 0..4),
        )
            .prop_map(|(snapshot_version, at_secs, machines, dcs)| {
                GatewayResponse::Icas {
                    snapshot_version,
                    icas: IcasSnapshot {
                        schema_version: ICAS_SCHEMA_VERSION,
                        at_secs,
                        machines: machines.into_iter().map(Arc::new).collect(),
                        data_concentrators: dcs
                            .into_iter()
                            .map(|(dc_id, alive)| IcasDc { dc_id, alive })
                            .collect(),
                    },
                }
            }),
        (version.clone(), 0u64..50, 0usize..12, arb_prognostic()).prop_map(
            |(snapshot_version, machine, condition_id, vector)| {
                GatewayResponse::PrognosticVector {
                    snapshot_version,
                    machine,
                    condition_id,
                    vector,
                }
            }
        ),
        (
            version.clone(),
            proptest::option::of((
                0.0..1e6f64,
                proptest::collection::vec(
                    (
                        ".{0,20}",
                        prop_oneof![Just(true), Just(false)],
                        0.0..1e6f64,
                        0.0..1e6f64,
                    ),
                    0..4
                ),
            )),
        )
            .prop_map(|(snapshot_version, verdict)| {
                GatewayResponse::SloVerdict {
                    snapshot_version,
                    verdict: verdict.map(|(at_secs, checks)| {
                        let checks: Vec<SloCheck> = checks
                            .into_iter()
                            .map(|(rule, pass, value, limit)| SloCheck {
                                rule: rule.into(),
                                pass,
                                value,
                                limit,
                            })
                            .collect();
                        SloVerdict {
                            at_secs,
                            pass: checks.iter().all(|c| c.pass),
                            checks,
                        }
                    }),
                }
            }),
        (
            version.clone(),
            proptest::collection::vec((".{0,10}", ".{0,10}", 0u64..=u64::MAX), 0..4),
        )
            .prop_map(|(snapshot_version, counters)| {
                GatewayResponse::Counters {
                    snapshot_version,
                    counters: counters
                        .into_iter()
                        .map(|(component, name, value)| CounterSnapshot {
                            component,
                            name,
                            value,
                        })
                        .collect(),
                }
            }),
        (
            version.clone(),
            0u64..=u64::MAX,
            0u64..1000,
            proptest::collection::vec(arb_delta(), 0..5),
        )
            .prop_map(|(snapshot_version, session, dropped, deltas)| {
                GatewayResponse::Deltas {
                    snapshot_version,
                    session,
                    dropped,
                    deltas,
                }
            }),
        (version.clone(), ".{0,40}").prop_map(|(snapshot_version, detail)| {
            GatewayResponse::NotFound {
                snapshot_version,
                detail,
            }
        }),
        (
            version.clone(),
            0.0..1e6f64,
            proptest::collection::vec(arb_counter(), 0..3),
            proptest::collection::vec(arb_gauge(), 0..3),
            proptest::collection::vec(arb_histogram(), 0..3),
            ".{0,60}",
        )
            .prop_map(
                |(snapshot_version, at_secs, counters, gauges, histograms, exposition)| {
                    GatewayResponse::Metrics {
                        snapshot_version,
                        at_secs,
                        counters,
                        gauges,
                        histograms,
                        exposition,
                    }
                },
            ),
        (
            version.clone(),
            0u64..=u64::MAX,
            0u64..1000,
            proptest::collection::vec(arb_event(), 0..4),
        )
            .prop_map(|(snapshot_version, next_cursor, dropped, events)| {
                GatewayResponse::Journal {
                    snapshot_version,
                    next_cursor,
                    dropped,
                    events,
                }
            }),
        (
            version.clone(),
            proptest::collection::vec(
                (arb_incident()).prop_map(|incident| incident.summary()),
                0..4,
            ),
        )
            .prop_map(|(snapshot_version, incidents)| {
                GatewayResponse::Incidents {
                    snapshot_version,
                    incidents,
                }
            }),
        (version.clone(), arb_incident()).prop_map(|(snapshot_version, incident)| {
            GatewayResponse::Incident {
                snapshot_version,
                incident,
            }
        }),
        (
            version,
            1u64..=u64::MAX,
            proptest::collection::vec(arb_hop(), 0..4),
        )
            .prop_map(|(snapshot_version, trace, hops)| GatewayResponse::Trace {
                snapshot_version,
                trace,
                hops,
            }),
    ]
}

fn arb_fleet_request() -> impl Strategy<Value = FleetRequest> {
    prop_oneof![
        Just(FleetRequest::ListShips),
        Just(FleetRequest::GetFleetRollup),
        (0u64..16).prop_map(|ship| FleetRequest::GetShipIcas { ship }),
        (0u64..=u64::MAX).prop_map(|session| FleetRequest::Subscribe { session }),
        (0u64..16, arb_request())
            .prop_map(|(ship, request)| FleetRequest::ForShip { ship, request }),
    ]
}

fn arb_ship_info() -> impl Strategy<Value = ShipInfo> {
    (
        0u64..16,
        prop_oneof![Just(true), Just(false)],
        0u64..10_000,
        0.0..1e6f64,
        0usize..32,
        proptest::option::of(prop_oneof![Just(true), Just(false)]),
    )
        .prop_map(
            |(ship_id, available, snapshot_version, at_secs, machines, slo_pass)| ShipInfo {
                ship_id,
                available,
                snapshot_version,
                at_secs,
                machines,
                slo_pass,
            },
        )
}

fn arb_ship_delta() -> impl Strategy<Value = ShipDelta> {
    (0u64..16, 0u64..10_000, arb_delta()).prop_map(|(ship_id, fleet_version, delta)| ShipDelta {
        ship_id,
        fleet_version,
        delta,
    })
}

fn arb_fleet_rollup() -> impl Strategy<Value = FleetRollup> {
    (
        1usize..16,
        proptest::collection::vec(0u64..16, 0..4),
        proptest::collection::vec(0u64..16, 0..4),
        proptest::collection::vec(
            (
                0u64..50,
                ".{0,20}",
                proptest::collection::vec(0u64..16, 0..4),
                prop_oneof![Just("ok"), Just("degraded")],
                0.0..=1.0f64,
            ),
            0..4,
        ),
        proptest::collection::vec(
            (
                0u64..50,
                0usize..12,
                proptest::collection::vec(0u64..16, 0..4),
                arb_prognostic(),
            ),
            0..3,
        ),
        proptest::collection::vec(arb_counter(), 0..4),
    )
        .prop_map(
            |(ship_count, available_ships, unavailable_ships, machines, prognostics, counters)| {
                FleetRollup {
                    ship_count,
                    available_ships,
                    unavailable_ships: unavailable_ships.clone(),
                    machines: machines
                        .into_iter()
                        .map(|(machine_id, name, ships, status, health)| FleetMachine {
                            machine_id,
                            name,
                            ships: ships.clone(),
                            status: status.to_string(),
                            health,
                            degraded_ships: if status == "degraded" {
                                ships
                            } else {
                                Vec::new()
                            },
                        })
                        .collect(),
                    prognostics: prognostics
                        .into_iter()
                        .map(
                            |(machine_id, condition_id, ships, vector)| FleetPrognostic {
                                machine_id,
                                condition_id,
                                ships,
                                vector,
                            },
                        )
                        .collect(),
                    slo: FleetSloVerdict {
                        pass: true,
                        failing_ships: Vec::new(),
                        unavailable_ships,
                    },
                    counters,
                }
            },
        )
}

fn arb_fleet_response() -> impl Strategy<Value = FleetResponse> {
    let version = 0u64..10_000;
    prop_oneof![
        (
            version.clone(),
            proptest::collection::vec(arb_ship_info(), 0..5)
        )
            .prop_map(|(fleet_version, ships)| FleetResponse::Ships {
                fleet_version,
                ships,
            }),
        (version.clone(), 0.0..1e6f64, arb_fleet_rollup()).prop_map(
            |(fleet_version, at_secs, rollup)| FleetResponse::FleetRollup {
                fleet_version,
                at_secs,
                rollup,
            }
        ),
        (
            version.clone(),
            0u64..16,
            0u64..10_000,
            0.0..1e6f64,
            proptest::collection::vec(arb_machine(), 0..3),
        )
            .prop_map(
                |(fleet_version, ship, snapshot_version, at_secs, machines)| {
                    FleetResponse::ShipIcas {
                        fleet_version,
                        ship,
                        snapshot_version,
                        icas: IcasSnapshot {
                            schema_version: ICAS_SCHEMA_VERSION,
                            at_secs,
                            machines: machines.into_iter().map(Arc::new).collect(),
                            data_concentrators: Vec::new(),
                        },
                    }
                }
            ),
        (
            version.clone(),
            0u64..=u64::MAX,
            0u64..1000,
            proptest::collection::vec(arb_ship_delta(), 0..5),
        )
            .prop_map(|(fleet_version, session, dropped, deltas)| {
                FleetResponse::FleetDeltas {
                    fleet_version,
                    session,
                    dropped,
                    deltas,
                }
            }),
        (
            version.clone(),
            0u64..16,
            prop_oneof![Just("shard_unavailable"), Just("unknown_ship")],
        )
            .prop_map(
                |(fleet_version, ship, detail)| FleetResponse::ShipUnavailable {
                    fleet_version,
                    ship,
                    detail: detail.to_string(),
                }
            ),
        (version, 0u64..16, arb_response()).prop_map(|(fleet_version, ship, response)| {
            FleetResponse::ShipReply {
                fleet_version,
                ship,
                response,
            }
        }),
    ]
}

/// One valid frame of each of the five families.
fn arb_frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (
        (0u64..64, 0u64..=u64::MAX),
        arb_request(),
        arb_response(),
        arb_fleet_request(),
        arb_fleet_response(),
    )
        .prop_map(|((dc, last_seq), req, resp, freq, fresp)| {
            let ack = NetMessage::Ack {
                dc: DcId::new(dc),
                epoch: 1,
                last_seq,
            };
            vec![
                encode_message(&ack).unwrap(),
                encode_request(&req).unwrap(),
                encode_response(&resp).unwrap(),
                encode_fleet_request(&freq).unwrap(),
                encode_fleet_response(&fresp).unwrap(),
            ]
        })
}

/// Decode `frame` through the generic decoder as `M`; on success, check
/// the body carries the frame's own tag from `M`'s family.
fn decodes_as<M: Wire>(frame: &[u8]) -> bool {
    match decode::<M>(frame) {
        Ok(msg) => {
            assert_eq!(msg.type_tag(), frame[3], "body tag differs from header");
            assert_eq!(msg.tag().family(), M::FAMILY);
            true
        }
        Err(_) => false,
    }
}

/// The families whose decoder accepts `frame`.
fn accepting_families(frame: &[u8]) -> Vec<Family> {
    [
        (Family::Ship, decodes_as::<NetMessage>(frame)),
        (Family::GatewayRequest, decodes_as::<GatewayRequest>(frame)),
        (
            Family::GatewayResponse,
            decodes_as::<GatewayResponse>(frame),
        ),
        (Family::FleetRequest, decodes_as::<FleetRequest>(frame)),
        (Family::FleetResponse, decodes_as::<FleetResponse>(frame)),
    ]
    .into_iter()
    .filter_map(|(family, ok)| ok.then_some(family))
    .collect()
}

/// `frame` with its payload's first `from` replaced by `to`, the
/// header's payload length patched to match.
fn rewrite_payload(frame: &[u8], from: &str, to: &str) -> Vec<u8> {
    let (header, payload) = frame.split_at(8);
    let text = std::str::from_utf8(payload).unwrap();
    assert!(text.contains(from), "{text}");
    let payload = text.replacen(from, to, 1).into_bytes();
    let mut out = header.to_vec();
    out[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend(payload);
    out
}

#[test]
fn a_frame_with_a_non_json_number_is_refused() {
    let resp = GatewayResponse::NotFound {
        snapshot_version: 87,
        detail: "machine 3".into(),
    };
    let frame = encode_response(&resp).unwrap();
    let same = rewrite_payload(&frame, "\"snapshot_version\":87", "\"snapshot_version\":87");
    assert_eq!(decode_response(&same).unwrap(), resp);
    // A leading zero is not JSON (RFC 8259 §6), and accepting it would
    // decode bytes the encoder never writes.
    for bad in ["087", "0087", "-087", "87.", "87.e0", "87e"] {
        let frame = rewrite_payload(
            &frame,
            "\"snapshot_version\":87",
            &format!("\"snapshot_version\":{bad}"),
        );
        assert!(decode_response(&frame).is_err(), "{bad}");
        assert_eq!(accepting_families(&frame), Vec::<Family>::new(), "{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_bytes_are_rejected_by_every_family(
        junk in proptest::collection::vec(0u8..=255, 0..96),
        family_index in 0usize..5,
        tag_index in 0usize..16,
    ) {
        // Raw junk fails the header checks...
        prop_assert!(accepting_families(&junk).is_empty());
        // ...and junk behind a well-formed header naming a real tag of
        // any family fails the payload checks, never panicking.
        let tags = Family::ALL[family_index].tags();
        let tag = tags[tag_index % tags.len()];
        let mut frame = b"MP".to_vec();
        frame.extend_from_slice(&[mpros::network::WIRE_VERSION, tag as u8]);
        frame.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        frame.extend_from_slice(&junk);
        prop_assert!(accepting_families(&frame).is_empty());
    }

    #[test]
    fn single_byte_mutations_never_panic_or_cross_families(
        frames in arb_frames(),
        position in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        for (family, frame) in Family::ALL.into_iter().zip(frames) {
            prop_assert_eq!(accepting_families(&frame), vec![family]);
            let mut mutated = frame.clone();
            let at = ((mutated.len() as f64) * position) as usize;
            mutated[at] ^= flip;
            // A mutation inside a payload value may still be a valid
            // message; it must then be one of the family its (possibly
            // mutated) tag byte names, and no other.
            let accepted = accepting_families(&mutated);
            prop_assert!(accepted.len() <= 1);
            if let Some(&accepted) = accepted.first() {
                prop_assert_eq!(Tag::peek(&mutated).map(Tag::family), Some(accepted));
            }
        }
    }

    #[test]
    fn any_request_survives_the_wire(req in arb_request()) {
        let frame = encode_request(&req).unwrap();
        prop_assert_eq!(decode_request(&frame).unwrap(), req);
    }

    #[test]
    fn any_response_survives_the_wire(resp in arb_response()) {
        let frame = encode_response(&resp).unwrap();
        prop_assert_eq!(decode_response(&frame).unwrap(), resp);
    }

    #[test]
    fn truncated_request_frames_are_rejected(req in arb_request(), cut_fraction in 0.0..1.0f64) {
        let frame = encode_request(&req).unwrap();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_request(&frame[..cut]).is_err());
    }

    #[test]
    fn truncated_response_frames_are_rejected(resp in arb_response(), cut_fraction in 0.0..1.0f64) {
        let frame = encode_response(&resp).unwrap();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_response(&frame[..cut]).is_err());
    }

    #[test]
    fn corrupted_headers_are_rejected(
        req in arb_request(),
        byte in 0usize..8,
        flip in 1u8..=255,
    ) {
        // Any change to any header byte — magic, version, type tag, or
        // the length field — must fail the decode. A flipped tag that
        // still lands in a valid range is caught by the tag-vs-body
        // cross-check; a flipped length by the exact-length check.
        let frame = encode_request(&req).unwrap();
        let mut bytes = frame.to_vec();
        bytes[byte] ^= flip;
        prop_assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn wire_v4_frames_are_rejected_by_version_byte(req in arb_request(), resp in arb_response()) {
        // The observability tags (GetMetrics and friends) only exist in
        // wire v5; a peer still speaking v4 must be refused outright on
        // the version byte (index 2, after the 2-byte magic), never
        // best-effort parsed.
        let mut bytes = encode_request(&req).unwrap().to_vec();
        bytes[2] = 4;
        prop_assert!(decode_request(&bytes).is_err());
        let mut bytes = encode_response(&resp).unwrap().to_vec();
        bytes[2] = 4;
        prop_assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn ship_network_stack_rejects_gateway_frames(req in arb_request(), resp in arb_response()) {
        // A gateway frame misrouted into the DC/PDME transport decoder
        // must be refused on the tag range, not mis-parsed as a report.
        prop_assert!(decode_message(&encode_request(&req).unwrap()).is_err());
        prop_assert!(decode_message(&encode_response(&resp).unwrap()).is_err());
    }

    #[test]
    fn any_fleet_request_survives_the_wire(req in arb_fleet_request()) {
        let frame = encode_fleet_request(&req).unwrap();
        prop_assert_eq!(decode_fleet_request(&frame).unwrap(), req);
    }

    #[test]
    fn any_fleet_response_survives_the_wire(resp in arb_fleet_response()) {
        let frame = encode_fleet_response(&resp).unwrap();
        prop_assert_eq!(decode_fleet_response(&frame).unwrap(), resp);
    }

    #[test]
    fn truncated_fleet_request_frames_are_rejected(
        req in arb_fleet_request(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let frame = encode_fleet_request(&req).unwrap();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_fleet_request(&frame[..cut]).is_err());
    }

    #[test]
    fn truncated_fleet_response_frames_are_rejected(
        resp in arb_fleet_response(),
        cut_fraction in 0.0..1.0f64,
    ) {
        let frame = encode_fleet_response(&resp).unwrap();
        let cut = ((frame.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_fleet_response(&frame[..cut]).is_err());
    }

    #[test]
    fn corrupted_fleet_headers_are_rejected(
        req in arb_fleet_request(),
        resp in arb_fleet_response(),
        byte in 0usize..8,
        flip in 1u8..=255,
    ) {
        // Same discipline as the single-ship family: any change to any
        // header byte — magic, version, type tag, or the length field —
        // must fail the decode.
        let mut bytes = encode_fleet_request(&req).unwrap().to_vec();
        bytes[byte] ^= flip;
        prop_assert!(decode_fleet_request(&bytes).is_err());
        let mut bytes = encode_fleet_response(&resp).unwrap().to_vec();
        bytes[byte] ^= flip;
        prop_assert!(decode_fleet_response(&bytes).is_err());
    }

    #[test]
    fn wire_v5_frames_are_rejected_by_version_byte(
        req in arb_fleet_request(),
        resp in arb_fleet_response(),
    ) {
        // The fleet tags (ListShips and friends) only exist in wire v6;
        // a peer still speaking v5 must be refused outright on the
        // version byte (index 2, after the 2-byte magic), never
        // best-effort parsed — and the single-ship decoders moved to v6
        // with the same cut.
        let mut bytes = encode_fleet_request(&req).unwrap().to_vec();
        bytes[2] = 5;
        prop_assert!(decode_fleet_request(&bytes).is_err());
        let mut bytes = encode_fleet_response(&resp).unwrap().to_vec();
        bytes[2] = 5;
        prop_assert!(decode_fleet_response(&bytes).is_err());
        let mut bytes = encode_request(&GatewayRequest::GetIcas).unwrap().to_vec();
        bytes[2] = 5;
        prop_assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn tag_families_reject_each_other(
        req in arb_request(),
        resp in arb_response(),
        freq in arb_fleet_request(),
        fresp in arb_fleet_response(),
    ) {
        // Four tag families share one frame header; each family's
        // decoder must refuse the other three ranges so a misrouted
        // frame fails loudly instead of half-parsing.
        for frame in [encode_fleet_request(&freq).unwrap(), encode_fleet_response(&fresp).unwrap()] {
            prop_assert!(decode_request(&frame).is_err());
            prop_assert!(decode_response(&frame).is_err());
            prop_assert!(decode_message(&frame).is_err());
        }
        for frame in [encode_request(&req).unwrap(), encode_response(&resp).unwrap()] {
            prop_assert!(decode_fleet_request(&frame).is_err());
            prop_assert!(decode_fleet_response(&frame).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gateway and fleet frames are canonical: a frame that decodes
    /// re-encodes to the same bytes.
    #[test]
    fn decoded_frames_reencode_to_the_same_bytes(
        req in arb_request(),
        resp in arb_response(),
        freq in arb_fleet_request(),
        fresp in arb_fleet_response(),
    ) {
        let f = encode_request(&req).unwrap();
        prop_assert_eq!(encode_request(&decode_request(&f).unwrap()).unwrap(), f);
        let f = encode_response(&resp).unwrap();
        prop_assert_eq!(encode_response(&decode_response(&f).unwrap()).unwrap(), f);
        let f = encode_fleet_request(&freq).unwrap();
        prop_assert_eq!(encode_fleet_request(&decode_fleet_request(&f).unwrap()).unwrap(), f);
        let f = encode_fleet_response(&fresp).unwrap();
        prop_assert_eq!(encode_fleet_response(&decode_fleet_response(&f).unwrap()).unwrap(), f);
    }
}
