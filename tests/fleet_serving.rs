//! Fleet-plane contracts, end to end through `Fleet`:
//!
//! * **Determinism** — for the same seeded fleet scenario, every fleet
//!   response (the raw wire bytes, version stamps, rollup, prognostic
//!   fusion and subscription history included) is identical whether
//!   each ship stepped sequentially or across 2/4/8 workers, *and*
//!   whether the shards stepped in ship order or concurrently on one
//!   scoped thread each, in whatever order the host runs them. This
//!   lifts the
//!   `tests/gateway_serving.rs` contract one level: a fleet response is
//!   a pure function of (fleet version, request).
//! * **Fleet-size independence** — ship 0 serves the same bytes whether
//!   it sails alone or in a four-ship fleet, because ship seeds derive
//!   from the fleet seed and the ship id alone.
//! * **Crash isolation** — crashing one shard mid-run leaves every
//!   other shard's served bytes unchanged, the rollup reports the shard
//!   unavailable, and ship-scoped requests against it answer
//!   `shard_unavailable` until the shard is restored. A single-ship
//!   client on the compatibility path gets that answer in its own
//!   (gateway) family, so it can still decode it.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, MachineCondition, SimDuration, SimTime};
use mpros::fleet::{
    decode_fleet_response, encode_fleet_request, Fleet, FleetConfig, FleetRequest, FleetResponse,
};
use mpros::gateway::{decode_response, encode_request, GatewayRequest, GatewayResponse};
use mpros::sim::{ExecMode, ShipboardSimConfig};
use mpros::telemetry::SloPolicy;

const SHIPS: usize = 3;
const ROUNDS: usize = 120;
const POLL_EVERY: usize = 30;
const DT_SECS: f64 = 1.0;
/// Frames before the final request script: the registering subscribe
/// plus the mid-run polls.
const PRELUDE: usize = 1 + ROUNDS / POLL_EVERY;

/// The reference fleet scenario: three ships, four DCs each, a bearing
/// defect on every ship's first plant (so prognostics exist to fuse),
/// and staggered DC crash windows on ships 0 and 1 (so supervision
/// edges flow into the fleet subscription stream).
fn build_fleet(exec: ExecMode, parallel_ships: bool) -> Fleet {
    let mut fleet = Fleet::new(
        FleetConfig::new()
            .with_ship_count(SHIPS)
            .with_seed(11)
            .with_ship(
                ShipboardSimConfig::new()
                    .with_dc_count(4)
                    .with_survey_period(SimDuration::from_secs(30.0))
                    .with_dc_timeout(SimDuration::from_secs(15.0))
                    .with_slo(SloPolicy::standard(30.0, 120.0, 0.9))
                    .with_exec(exec),
            )
            .with_ship_fault_plan(
                0,
                FaultPlan::none().with_dc_crash(
                    DcId::new(2),
                    SimTime::from_secs(40.0),
                    SimTime::from_secs(80.0),
                ),
            )
            .with_ship_fault_plan(
                1,
                FaultPlan::none().with_dc_crash(
                    DcId::new(3),
                    SimTime::from_secs(60.0),
                    SimTime::from_secs(100.0),
                ),
            )
            .with_parallel_ships(parallel_ships),
    )
    .expect("fleet builds");
    for ship in 0..SHIPS {
        fleet.ship_mut(ship).seed_fault(
            0,
            FaultSeed {
                condition: MachineCondition::MotorBearingDefect,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(8.0),
                profile: FaultProfile::EarlyOnset,
            },
        );
    }
    fleet
}

fn call(fleet: &Fleet, req: &FleetRequest) -> Vec<u8> {
    fleet
        .gateway()
        .handle_frame(&encode_fleet_request(req).expect("request encodes"))
        .expect("request serves")
}

/// Run the reference scenario stepping shards in ship order each round
/// (or one scoped thread per shard when `parallel_ships`), polling the
/// fleet subscription on a fixed cadence, then answer a fixed request
/// script from the final fleet snapshot. Returns every raw response
/// frame, mid-run polls included.
fn fleet_fingerprint(exec: ExecMode, parallel_ships: bool) -> Vec<Vec<u8>> {
    let mut fleet = build_fleet(exec, parallel_ships);
    let mut frames = Vec::new();
    // Register the subscriber before any edges, so every schedule
    // queues the same delta history.
    frames.push(call(&fleet, &FleetRequest::Subscribe { session: 42 }));

    let dt = SimDuration::from_secs(DT_SECS);
    for round in 1..=ROUNDS {
        fleet.step(dt).expect("fleet step");
        if round % POLL_EVERY == 0 {
            frames.push(call(&fleet, &FleetRequest::Subscribe { session: 42 }));
        }
    }

    let mut script = vec![
        FleetRequest::ListShips,
        FleetRequest::GetFleetRollup,
        FleetRequest::GetShipIcas { ship: 9 }, // unknown-ship leg
        FleetRequest::Subscribe { session: 42 },
    ];
    for ship in 0..SHIPS as u64 {
        script.push(FleetRequest::GetShipIcas { ship });
        script.push(FleetRequest::ForShip {
            ship,
            request: GatewayRequest::GetIcas,
        });
        script.push(FleetRequest::ForShip {
            ship,
            request: GatewayRequest::GetSloVerdict,
        });
        script.push(FleetRequest::ForShip {
            ship,
            request: GatewayRequest::GetCounters,
        });
        script.push(FleetRequest::ForShip {
            ship,
            request: GatewayRequest::GetPrognosticVector {
                machine: 1,
                condition_id: MachineCondition::MotorBearingDefect.index(),
            },
        });
    }
    frames.extend(script.iter().map(|req| call(&fleet, req)));
    frames
}

fn decoded(frame: &[u8]) -> FleetResponse {
    decode_fleet_response(frame).expect("response decodes")
}

#[test]
fn fleet_responses_are_byte_identical_across_exec_modes_and_interleavings() {
    let reference = fleet_fingerprint(ExecMode::Sequential, false);

    // Guard against vacuity before comparing bytes: the subscription
    // stream must carry real per-ship edges...
    let history: usize = reference
        .iter()
        .map(|f| match decoded(f) {
            FleetResponse::FleetDeltas {
                deltas, dropped, ..
            } => {
                assert_eq!(dropped, 0, "the per-cadence poller must never drop");
                deltas.len()
            }
            _ => 0,
        })
        .sum();
    assert!(
        history >= 2,
        "expected supervision edges from two crash windows, saw {history}"
    );
    // ...the rollup must fuse real prognostics over every ship and
    // carry a real machine census...
    match decoded(&reference[PRELUDE + 1]) {
        FleetResponse::FleetRollup {
            fleet_version,
            rollup,
            ..
        } => {
            assert_eq!(fleet_version, ROUNDS as u64 + 1);
            assert_eq!(rollup.ship_count, SHIPS);
            assert_eq!(rollup.available_ships.len(), SHIPS);
            assert_eq!(rollup.machines.len(), 4, "four machine classes");
            assert!(!rollup.prognostics.is_empty(), "no fleet prognostics fused");
            assert!(
                rollup.prognostics.iter().any(|p| p.ships.len() == SHIPS),
                "no curve fused across every ship"
            );
        }
        other => panic!("wrong response {other:?}"),
    }
    // ...the unknown-ship leg must answer as such, and every ship's
    // ICAS must carry its machines.
    match decoded(&reference[PRELUDE + 2]) {
        FleetResponse::ShipUnavailable { detail, .. } => assert_eq!(detail, "unknown_ship"),
        other => panic!("wrong response {other:?}"),
    }
    match decoded(&reference[PRELUDE + 4]) {
        FleetResponse::ShipIcas { icas, .. } => assert_eq!(icas.machines.len(), 4),
        other => panic!("wrong response {other:?}"),
    }

    // In-ship parallel stepping, and one scoped thread per shard (the
    // shards then run in whatever order the host schedules them).
    for workers in [2, 4, 8] {
        let parallel = fleet_fingerprint(ExecMode::Parallel { workers }, false);
        assert_eq!(
            reference, parallel,
            "fleet bytes diverged at {workers} in-ship workers"
        );
    }
    for exec in [ExecMode::Sequential, ExecMode::Parallel { workers: 4 }] {
        let threaded = fleet_fingerprint(exec, true);
        assert_eq!(
            reference, threaded,
            "fleet bytes diverged with one thread per shard under {exec:?}"
        );
    }
}

#[test]
fn ship_zero_bytes_are_independent_of_fleet_size() {
    // Ship seeds derive from (fleet seed, ship id) alone, so ship 0
    // must serve identical bytes alone and in company. Drive the
    // comparison over the v5 compatibility path: raw single-ship frames
    // route to shard 0 of either fleet.
    let mut solo = build_fleet(ExecMode::Sequential, false);
    // build_fleet configures three ships; rebuild the same scenario at
    // one ship (the ship-1 fault plan simply has no shard to bind to).
    let mut solo_cfg = FleetConfig::new()
        .with_ship_count(1)
        .with_seed(11)
        .with_ship(
            ShipboardSimConfig::new()
                .with_dc_count(4)
                .with_survey_period(SimDuration::from_secs(30.0))
                .with_dc_timeout(SimDuration::from_secs(15.0))
                .with_slo(SloPolicy::standard(30.0, 120.0, 0.9)),
        );
    solo_cfg = solo_cfg.with_ship_fault_plan(
        0,
        FaultPlan::none().with_dc_crash(
            DcId::new(2),
            SimTime::from_secs(40.0),
            SimTime::from_secs(80.0),
        ),
    );
    let mut alone = Fleet::new(solo_cfg).expect("solo fleet builds");
    alone.ship_mut(0).seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(8.0),
            profile: FaultProfile::EarlyOnset,
        },
    );

    let dt = SimDuration::from_secs(DT_SECS);
    for _ in 0..60 {
        solo.step(dt).expect("company fleet steps");
        alone.step(dt).expect("solo fleet steps");
    }

    for req in [
        GatewayRequest::GetIcas,
        GatewayRequest::GetCounters,
        GatewayRequest::GetSloVerdict,
        GatewayRequest::GetMachineStatus { machine: 1 },
    ] {
        let frame = encode_request(&req).expect("request encodes");
        let in_company = solo.gateway().handle_frame(&frame).expect("company serves");
        let while_alone = alone.gateway().handle_frame(&frame).expect("solo serves");
        assert_eq!(
            in_company, while_alone,
            "ship 0 bytes depend on fleet size for {req:?}"
        );
    }
}

#[test]
fn crashing_one_shard_leaves_the_others_bytes_unchanged() {
    let dt = SimDuration::from_secs(DT_SECS);
    let half = ROUNDS / 2;

    // Control: the same fleet with no crash.
    let mut control = build_fleet(ExecMode::Sequential, false);
    for _ in 0..ROUNDS {
        control.step(dt).expect("control steps");
    }

    // Subject: ship 1's shard crashes halfway through.
    let mut fleet = build_fleet(ExecMode::Sequential, false);
    for _ in 0..half {
        fleet.step(dt).expect("subject steps");
    }
    fleet.crash_shard(1);
    let pinned_before_crash = match decoded(&call(&fleet, &FleetRequest::ListShips)) {
        FleetResponse::Ships { ships, .. } => ships[1].snapshot_version,
        other => panic!("wrong response {other:?}"),
    };
    for _ in half..ROUNDS {
        fleet.step(dt).expect("subject steps around the crash");
    }

    // The rollup reports the shard unavailable; fleet versions agree
    // with the control (a crash never perturbs the publish cadence).
    match decoded(&call(&fleet, &FleetRequest::GetFleetRollup)) {
        FleetResponse::FleetRollup {
            fleet_version,
            rollup,
            ..
        } => {
            assert_eq!(fleet_version, control.version());
            assert_eq!(rollup.unavailable_ships, vec![1]);
            assert_eq!(rollup.available_ships, vec![0, 2]);
            assert_eq!(rollup.slo.unavailable_ships, vec![1]);
        }
        other => panic!("wrong response {other:?}"),
    }
    // Ship-scoped requests against the crashed shard degrade loudly...
    match decoded(&call(&fleet, &FleetRequest::GetShipIcas { ship: 1 })) {
        FleetResponse::ShipUnavailable { detail, .. } => assert_eq!(detail, "shard_unavailable"),
        other => panic!("wrong response {other:?}"),
    }
    // ...while the surviving shards serve byte-for-byte what the
    // crash-free control serves.
    for ship in [0u64, 2] {
        for req in [
            GatewayRequest::GetIcas,
            GatewayRequest::GetCounters,
            GatewayRequest::GetPrognosticVector {
                machine: 1,
                condition_id: MachineCondition::MotorBearingDefect.index(),
            },
        ] {
            let probe = FleetRequest::ForShip { ship, request: req };
            assert_eq!(
                call(&fleet, &probe),
                call(&control, &probe),
                "ship {ship} bytes perturbed by ship 1's crash"
            );
        }
    }

    // Restoring the shard brings it back: it resumes stepping from its
    // crash-restored state and the rollup counts it again.
    fleet.restore_shard(1).expect("shard restores");
    fleet.step(dt).expect("post-restore step");
    match decoded(&call(&fleet, &FleetRequest::ListShips)) {
        FleetResponse::Ships { ships, .. } => {
            assert!(ships[1].available);
            assert!(
                ships[1].snapshot_version > pinned_before_crash,
                "restored shard did not step"
            );
        }
        other => panic!("wrong response {other:?}"),
    }
    match decoded(&call(&fleet, &FleetRequest::GetFleetRollup)) {
        FleetResponse::FleetRollup { rollup, .. } => {
            assert_eq!(rollup.available_ships, vec![0, 1, 2]);
            assert!(rollup.unavailable_ships.is_empty());
        }
        other => panic!("wrong response {other:?}"),
    }
}

#[test]
fn crashed_shard_zero_answers_single_ship_clients_in_their_own_family() {
    let dt = SimDuration::from_secs(DT_SECS);
    let mut fleet = build_fleet(ExecMode::Sequential, false);
    for _ in 0..3 {
        fleet.step(dt).expect("fleet steps");
    }
    fleet.crash_shard(0);
    fleet.step(dt).expect("fleet steps around the crash");
    let pinned = fleet.gateway().snapshot().ships[0].snapshot.version;

    // A single-ship client pointed at the router decodes the refusal
    // with the plain gateway decoder.
    let frame = encode_request(&GatewayRequest::GetIcas).expect("request encodes");
    let reply = fleet
        .gateway()
        .handle_frame(&frame)
        .expect("router answers");
    match decode_response(&reply).expect("compat reply is a gateway response") {
        GatewayResponse::NotFound {
            snapshot_version,
            detail,
        } => {
            assert_eq!(detail, "shard_unavailable");
            assert_eq!(snapshot_version, pinned);
        }
        other => panic!("wrong response {other:?}"),
    }

    // Once restored, the same frame is served by shard 0 again.
    fleet.restore_shard(0).expect("shard restores");
    fleet.step(dt).expect("post-restore step");
    let reply = fleet
        .gateway()
        .handle_frame(&frame)
        .expect("router answers");
    assert!(matches!(
        decode_response(&reply).expect("gateway response"),
        GatewayResponse::Icas { .. }
    ));
}
