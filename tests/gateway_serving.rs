//! Serving-plane contracts, end to end through `ShipboardSim`:
//!
//! * **Determinism** — for the same seeded scenario, every gateway
//!   response (the raw wire bytes, version stamps and all) is identical
//!   whether the sim that published the snapshots stepped sequentially
//!   or across 2/4/8 pool workers. This extends the
//!   `tests/parallel_determinism.rs` contract through the serving
//!   layer: a response is a pure function of (snapshot version,
//!   request).
//! * **Backpressure** — a subscriber that never polls loses its
//!   *oldest* deltas first; a prompt subscriber on the same gateway
//!   sees the complete edge history. Dropped counts reconcile exactly.
//! * **Concurrency** — many clients can hammer the gateway while the
//!   sim thread keeps stepping; every call succeeds and each client
//!   observes monotonically nondecreasing snapshot versions.
//! * **Exposition grammar** — the served Prometheus text validates,
//!   and corrupted variants of that same text are refused.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, MachineCondition, SimDuration, SimTime};
use mpros::gateway::{
    decode_response, encode_request, GatewayClient, GatewayRequest, GatewayResponse,
};
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::{exposition, SloPolicy};

/// Run the reference scenario under `exec` and answer a fixed request
/// script from the final published snapshot, returning the raw
/// response frames.
fn serve_fingerprint(exec: ExecMode) -> Vec<Vec<u8>> {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(4)
            .with_seed(11)
            .with_survey_period(SimDuration::from_secs(30.0))
            .with_dc_timeout(SimDuration::from_secs(15.0))
            // A crash window on DC 2 produces degraded/recovered edges
            // for the Subscribe leg of the script.
            .with_fault_plan(FaultPlan::none().with_dc_crash(
                DcId::new(2),
                SimTime::from_secs(40.0),
                SimTime::from_secs(80.0),
            ))
            .with_slo(SloPolicy::standard(30.0, 120.0, 0.9))
            .with_exec(exec),
    )
    .expect("sim builds");
    let gateway = sim.attach_gateway();
    // Register the subscriber before any edges, so every mode queues
    // the same delta history.
    let _ = gateway.serve(&GatewayRequest::Subscribe { session: 42 });
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(8.0),
            profile: FaultProfile::EarlyOnset,
        },
    );
    sim.run_for(SimDuration::from_minutes(3.0), SimDuration::from_secs(0.5))
        .expect("scenario runs");

    let mut script = vec![
        GatewayRequest::GetIcas,
        GatewayRequest::GetSloVerdict,
        GatewayRequest::GetCounters,
        GatewayRequest::Subscribe { session: 42 },
        GatewayRequest::GetMachineStatus { machine: 99 }, // NotFound leg
    ];
    for machine in 1..=4u64 {
        script.push(GatewayRequest::GetMachineStatus { machine });
        script.push(GatewayRequest::GetPrognosticVector {
            machine,
            condition_id: MachineCondition::MotorBearingDefect.index(),
        });
    }
    // The wire-v5 observability legs. The incident and trace ids are
    // read from the run, but both are deterministic derivations, so the
    // script stays identical across modes.
    let incident = sim
        .flight_recorder()
        .incidents()
        .first()
        .map(|s| s.id)
        .expect("the crash window sealed an incident");
    let trace = sim
        .trace_hops()
        .first()
        .map(|h| h.trace.raw())
        .expect("the run recorded traces");
    script.push(GatewayRequest::GetMetrics);
    script.push(GatewayRequest::StreamJournal { cursor: 0, max: 32 });
    script.push(GatewayRequest::ListIncidents);
    script.push(GatewayRequest::GetIncident { id: incident });
    script.push(GatewayRequest::GetTrace { trace });
    script.push(GatewayRequest::GetIncident { id: 0 }); // NotFound leg
    script
        .iter()
        .map(|req| {
            gateway
                .handle_frame(&encode_request(req).expect("request encodes"))
                .expect("request serves")
        })
        .collect()
}

/// The served exposition obeys its own grammar, and the validator is
/// not vacuously agreeable: three corruptions of the real text (a
/// duplicated sample, a header moved after its sample, two counter
/// blocks swapped) are each refused.
fn assert_exposition_lints(text: &str) {
    let stats = exposition::validate(text).expect("served exposition validates");
    assert!(
        stats.counters > 0 && stats.samples > 0,
        "vacuous exposition: {} counters, {} samples",
        stats.counters,
        stats.samples
    );
    let lines: Vec<&str> = text.lines().collect();
    let refused = |lines: &[&str]| exposition::validate(&lines.join("\n")).is_err();

    let sample = lines
        .iter()
        .position(|l| !l.starts_with('#'))
        .expect("a sample line");
    let mut duplicated = lines.clone();
    duplicated.insert(sample, lines[sample]);
    assert!(refused(&duplicated), "a duplicated sample was accepted");

    let counters: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("# TYPE") && lines[i].ends_with("counter"))
        .collect();
    assert!(counters.len() >= 2, "too few counter blocks to reorder");
    let (a, b) = (counters[0], counters[1]);
    let mut late_header = lines.clone();
    late_header.swap(a, a + 1);
    assert!(
        refused(&late_header),
        "a sample before its header was accepted"
    );
    let mut unsorted = lines.clone();
    unsorted.swap(a, b);
    unsorted.swap(a + 1, b + 1);
    assert!(
        refused(&unsorted),
        "two swapped counter blocks were accepted"
    );
}

#[test]
fn gateway_responses_are_byte_identical_across_exec_modes() {
    let reference = serve_fingerprint(ExecMode::Sequential);
    // Guard against vacuity: the ICAS answer must carry real machines,
    // and the Subscribe answer real edges, before comparing bytes.
    let icas = decode_response(&reference[0]).unwrap();
    match icas {
        GatewayResponse::Icas {
            snapshot_version,
            icas,
        } => {
            assert!(snapshot_version > 0, "nothing was published");
            assert_eq!(icas.machines.len(), 4);
        }
        other => panic!("wrong response {other:?}"),
    }
    match decode_response(&reference[3]).unwrap() {
        GatewayResponse::Deltas { deltas, .. } => {
            assert!(
                !deltas.is_empty(),
                "the crash window produced no supervision edges"
            );
        }
        other => panic!("wrong response {other:?}"),
    }
    // And the observability legs: real exposition text, a sealed
    // incident, a non-empty hop chain.
    match decode_response(&reference[13]).unwrap() {
        GatewayResponse::Metrics { exposition, .. } => assert_exposition_lints(&exposition),
        other => panic!("wrong response {other:?}"),
    }
    match decode_response(&reference[15]).unwrap() {
        GatewayResponse::Incidents { incidents, .. } => {
            assert!(!incidents.is_empty(), "no incidents listed");
        }
        other => panic!("wrong response {other:?}"),
    }
    match decode_response(&reference[17]).unwrap() {
        GatewayResponse::Trace { hops, .. } => {
            assert!(!hops.is_empty(), "no hops served");
        }
        other => panic!("wrong response {other:?}"),
    }
    match decode_response(&reference[18]).unwrap() {
        GatewayResponse::NotFound { .. } => {}
        other => panic!("wrong response {other:?}"),
    }
    for workers in [2, 4, 8] {
        let parallel = serve_fingerprint(ExecMode::Parallel { workers });
        assert_eq!(
            reference, parallel,
            "serving bytes diverged at {workers} workers"
        );
    }
}

#[test]
fn slow_subscriber_loses_oldest_deltas_through_the_sim() {
    // Ten crash windows on every DC: each window degrades all four
    // machines and, once the restarted DCs report again, recovers them
    // — 80 edges against a 64-delta session queue.
    const DCS: usize = 4;
    let mut plan = FaultPlan::none();
    for window in 0..10 {
        let start = 30.0 + 40.0 * window as f64;
        for dc in 1..=DCS as u64 {
            plan = plan.with_dc_crash(
                DcId::new(dc),
                SimTime::from_secs(start),
                SimTime::from_secs(start + 20.0),
            );
        }
    }
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(DCS)
            .with_seed(11)
            .with_survey_period(SimDuration::from_secs(30.0))
            .with_dc_timeout(SimDuration::from_secs(10.0))
            .with_heartbeat_period(SimDuration::from_secs(5.0))
            .with_fault_plan(plan),
    )
    .expect("sim builds");
    let gateway = sim.attach_gateway();
    // A reporting fault on every plant keeps each machine re-reporting
    // after its DC restarts, so recovered edges follow the degraded
    // ones.
    for plant in 0..DCS {
        sim.seed_fault(
            plant,
            FaultSeed {
                condition: MachineCondition::MotorBearingDefect,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(8.0),
                profile: FaultProfile::EarlyOnset,
            },
        );
    }
    let slow = GatewayClient::connect(gateway.clone(), 1);
    let prompt = GatewayClient::connect(gateway.clone(), 2);
    // Both register before the first edge; only `prompt` ever polls.
    assert_eq!(slow.poll_deltas().unwrap().deltas.len(), 0);
    assert_eq!(prompt.poll_deltas().unwrap().deltas.len(), 0);

    let dt = SimDuration::from_secs(1.0);
    let mut prompt_history = Vec::new();
    for _ in 0..440 {
        sim.step(dt).expect("step");
        let batch = prompt.poll_deltas().expect("prompt poll");
        assert_eq!(batch.dropped, 0, "a per-step poller must never drop");
        prompt_history.extend(batch.deltas);
    }
    assert!(
        prompt_history.len() > 64,
        "expected more edges than a session queue holds, saw {}",
        prompt_history.len()
    );

    // The slow session's 64-delta queue kept only the newest deltas.
    let starved = slow.poll_deltas().expect("slow poll");
    assert_eq!(starved.deltas.len(), 64, "the queue holds 64 deltas");
    assert!(starved.dropped >= 1, "older deltas must have been evicted");
    assert_eq!(
        starved.dropped as usize + starved.deltas.len(),
        prompt_history.len(),
        "evicted + surviving must reconcile with the full edge history"
    );
    assert_eq!(
        starved.deltas[..],
        prompt_history[prompt_history.len() - 64..],
        "oldest-drop means the newest edges survive"
    );
    assert_eq!(
        sim.telemetry().snapshot().counter("gateway", "drops"),
        starved.dropped,
        "the drop counter tracks the slow session's evictions"
    );
}

#[test]
fn many_clients_query_a_live_stepping_sim() {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(2)
            .with_seed(7)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    let gateway = sim.attach_gateway();
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(5.0),
            profile: FaultProfile::EarlyOnset,
        },
    );

    const CLIENTS: usize = 8;
    const CALLS: usize = 200;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let gw = gateway.clone();
                scope.spawn(move || {
                    let client = GatewayClient::connect(gw, i as u64);
                    let mut last_version = 0u64;
                    for call in 0..CALLS {
                        // Mix reads and subscription polls.
                        let version = if call % 5 == 0 {
                            client.poll_deltas().expect("poll").snapshot_version
                        } else {
                            match client.call(&GatewayRequest::GetIcas).expect("icas") {
                                GatewayResponse::Icas {
                                    snapshot_version, ..
                                } => snapshot_version,
                                other => panic!("wrong response {other:?}"),
                            }
                        };
                        assert!(
                            version >= last_version,
                            "snapshot version went backwards: {version} < {last_version}"
                        );
                        last_version = version;
                    }
                    last_version
                })
            })
            .collect();
        // The sim thread keeps stepping while the clients hammer away;
        // publishes and serves only ever exchange an `Arc` pointer.
        sim.run_for(SimDuration::from_secs(60.0), SimDuration::from_secs(0.5))
            .expect("sim steps under serving load");
        for handle in handles {
            assert!(handle.join().expect("client thread") <= sim.steps());
        }
    });
    let snap = sim.telemetry().snapshot();
    assert_eq!(
        snap.counter("gateway", "requests"),
        (CLIENTS * CALLS) as u64,
        "every client call is counted"
    );
    assert_eq!(snap.counter("gateway", "bad_frames"), 0);
    assert_eq!(gateway.version(), sim.steps());
}
