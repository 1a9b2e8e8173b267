//! End-to-end causal tracing through the assembled ship.
//!
//! Every condition report minted by a DC owns a deterministic trace;
//! these tests reconstruct single-report journeys hop by hop — emission,
//! enqueue, (re)transmission, delivery, PDME ingest, fusion, ship-model
//! update — and pin the failure paths: retries stay on the original
//! trace across a partition, a crash loses pending frames on `CrashLost`
//! hops and restarts onto a *fresh* trace stream, and the SLO watchdog
//! converts a forced PDME stall into a machine-readable failure that a
//! calm sea never produces.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, FaultTarget, MachineCondition, SimDuration, SimTime};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::export::{chrome_trace, jsonl};
use mpros::telemetry::trace::e2e_latencies;
use mpros::telemetry::{HopKind, SloPolicy, TraceHop};

fn bearing_fault() -> FaultSeed {
    FaultSeed {
        condition: MachineCondition::MotorBearingDefect,
        onset: SimTime::ZERO,
        time_to_failure: SimDuration::from_minutes(8.0),
        profile: FaultProfile::EarlyOnset,
    }
}

fn run_sim(fault_plan: FaultPlan, slo: SloPolicy, minutes: f64) -> ShipboardSim {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(2)
            .with_seed(17)
            .with_fault_plan(fault_plan)
            .with_slo(slo)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    sim.seed_fault(0, bearing_fault());
    sim.run_for(
        SimDuration::from_minutes(minutes),
        SimDuration::from_secs(0.5),
    )
    .expect("scenario runs");
    sim
}

/// Group one trace's hops (already canonically ordered).
fn hops_of(hops: &[TraceHop], trace: mpros::telemetry::TraceId) -> Vec<&TraceHop> {
    hops.iter().filter(|h| h.trace == trace).collect()
}

#[test]
fn single_report_journey_reconstructs_end_to_end() {
    let sim = run_sim(FaultPlan::none(), SloPolicy::none(), 3.0);
    let hops = sim.trace_hops();
    assert!(!hops.is_empty(), "calm sea still emits reports");

    // Pick a trace that completed the whole journey.
    let done = hops
        .iter()
        .find(|h| h.kind == HopKind::OosmUpdate)
        .expect("at least one report fused into the ship model");
    let chain = hops_of(&hops, done.trace);
    let kinds: Vec<HopKind> = chain.iter().map(|h| h.kind).collect();
    assert_eq!(
        kinds,
        vec![
            HopKind::DcEmit,
            HopKind::Enqueue,
            HopKind::Send,
            HopKind::Deliver,
            HopKind::Ingest,
            HopKind::Fuse,
            HopKind::OosmUpdate,
        ],
        "full journey in causal order"
    );
    // The parent chain links every hop to its predecessor's span. The
    // Send hop parents under Enqueue (not Deliver under Send directly —
    // it does, but via the attempt-stamped span).
    assert_eq!(chain[0].parent, None, "DcEmit is the root");
    assert_eq!(chain[1].parent, Some(chain[0].span));
    assert_eq!(chain[2].parent, Some(chain[1].span));
    assert_eq!(chain[3].parent, Some(chain[2].span));
    assert_eq!(
        chain[4].parent,
        Some(chain[1].span),
        "ingest closes the wire ctx"
    );
    assert_eq!(chain[5].parent, Some(chain[4].span));
    assert_eq!(chain[6].parent, Some(chain[5].span));
    // Tracks: DC root on its own track, transport on net, closeout on pdme.
    assert_eq!(chain[0].track, "dc1");
    assert!(chain[1..4].iter().all(|h| h.track == "net"));
    assert!(chain[4..].iter().all(|h| h.track == "pdme"));
    // Sim time never runs backwards along the chain.
    for w in chain.windows(2) {
        assert!(w[1].sim_start >= w[0].sim_start - 1e-12);
    }

    // Trace-derived e2e latencies exist and are plausible (sub-step
    // delivery on the default 5 ms network).
    let lat = e2e_latencies(&hops);
    assert!(!lat.is_empty());
    assert!(lat.iter().all(|&l| (0.0..60.0).contains(&l)), "{lat:?}");
}

#[test]
fn partition_retries_ride_the_same_trace() {
    // DC 1 is partitioned for 40 s: its frames ride the outbox on
    // backoff and cross after the heal — same trace, rising attempts.
    let plan = FaultPlan::none().with_partition(
        FaultTarget::Dc(DcId::new(1)),
        SimTime::from_secs(30.0),
        SimTime::from_secs(70.0),
    );
    let sim = run_sim(plan, SloPolicy::none(), 3.0);
    let hops = sim.trace_hops();

    // Find a trace that needed more than one transmission and was
    // eventually delivered.
    let retried = hops
        .iter()
        .find(|h| h.kind == HopKind::Deliver && h.attempt > 1)
        .expect("the 40 s partition forces retries");
    let chain = hops_of(&hops, retried.trace);
    let sends: Vec<&&TraceHop> = chain.iter().filter(|h| h.kind == HopKind::Send).collect();
    assert!(sends.len() > 1, "retransmissions visible on the trace");
    for (i, s) in sends.iter().enumerate() {
        assert_eq!(s.attempt, i as u32 + 1, "attempts count up");
        // Every retry hangs off the same enqueue span: a retransmission
        // is a new span on the *original* trace, never a fresh trace.
        assert_eq!(s.parent, sends[0].parent);
    }
    assert_eq!(
        chain.iter().filter(|h| h.kind == HopKind::Enqueue).count(),
        1,
        "one enqueue, many sends"
    );
    // Nothing was given up: the retry budget outlasts the partition.
    assert!(chain.iter().all(|h| h.kind != HopKind::Expire));
    assert_eq!(sim.network().stats().expired, 0);
}

#[test]
fn crash_loses_frames_on_trace_and_restarts_a_fresh_stream() {
    let plan = FaultPlan::none().with_dc_crash(
        DcId::new(1),
        SimTime::from_secs(40.0),
        SimTime::from_secs(80.0),
    );
    let seed_before = {
        let sim =
            ShipboardSim::new(ShipboardSimConfig::new().with_dc_count(2).with_seed(17)).unwrap();
        sim.dc_trace_seed(0)
    };
    let sim = run_sim(plan, SloPolicy::none(), 4.0);
    let hops = sim.trace_hops();

    // Unacked frames died with the node, visible as CrashLost hops.
    let lost: Vec<&TraceHop> = hops
        .iter()
        .filter(|h| h.kind == HopKind::CrashLost)
        .collect();
    for h in &lost {
        assert_eq!(h.detail, "dc crash");
    }
    // The restarted DC derives traces from a new epoch-folded seed: the
    // sim exposes it, and it differs from the epoch-0 stream even
    // though the rebuilt IdAllocator reuses the same raw report ids.
    assert_eq!(sim.dc_epoch(0), 1, "one crash window completed");
    assert_ne!(sim.dc_trace_seed(0), seed_before);
    // Reports emitted after the restart completed the journey.
    let post_restart_fused = hops.iter().any(|h| {
        h.kind == HopKind::OosmUpdate && h.sim_start > 80.0 && {
            // Same trace has a DcEmit root after the crash window.
            hops.iter()
                .any(|r| r.trace == h.trace && r.kind == HopKind::DcEmit && r.sim_start >= 80.0)
        }
    });
    assert!(
        post_restart_fused,
        "fresh-epoch traces close out end to end"
    );
}

#[test]
fn slo_watchdog_passes_calm_sea_and_fails_a_forced_stall() {
    let policy = SloPolicy::standard(5.0, 60.0, 0.9);

    // Calm sea: every rule holds on the default network.
    let calm = run_sim(FaultPlan::none(), policy.clone(), 3.0);
    let verdict = calm.slo_verdict().expect("watchdog ran");
    assert!(verdict.pass, "calm sea violates no SLO: {verdict:?}");

    // A 60 s PDME stall parks frames in the network; on resume their
    // ingest latency blows the 5 s p95 budget and the watchdog fails.
    let plan =
        FaultPlan::none().with_pdme_stall(SimTime::from_secs(30.0), SimTime::from_secs(90.0));
    let stalled = run_sim(plan, policy, 3.0);
    let verdict = stalled.slo_verdict().expect("watchdog ran");
    assert!(!verdict.pass, "stall must breach the latency SLO");
    let failing = verdict.failing();
    assert!(
        failing.iter().any(|r| r.contains("p95")),
        "the p95 latency rule is the one that broke: {failing:?}"
    );
    // The breach and the (absent) recovery are journaled under "slo".
    assert!(stalled
        .telemetry()
        .events()
        .iter()
        .any(|e| e.component == "slo" && e.kind == "slo_violation"));
}

#[test]
fn completed_journey_is_retrievable_over_the_gateway_wire() {
    use mpros::gateway::GatewayClient;

    let mut sim = run_sim(FaultPlan::none(), SloPolicy::none(), 3.0);
    let hops = sim.trace_hops();
    let done = hops
        .iter()
        .find(|h| h.kind == HopKind::OosmUpdate)
        .expect("at least one report fused into the ship model");
    let trace = done.trace;
    let expected = hops_of(&hops, trace);

    // A remote console asks for the same journey by trace id: the served
    // hops must match the in-process chain field for field (minus the
    // diagnostic wall-clock, which never crosses the wire).
    let gateway = sim.attach_gateway();
    let client = GatewayClient::connect(gateway, 7);
    let served = client.trace(trace.raw()).expect("known trace serves");

    assert_eq!(served.len(), expected.len(), "hop count over the wire");
    let kinds: Vec<&str> = served.iter().map(|h| h.kind.as_str()).collect();
    assert_eq!(
        kinds,
        vec![
            "dc_emit",
            "enqueue",
            "send",
            "deliver",
            "ingest",
            "fuse",
            "oosm_update",
        ],
        "served chain is the full causal journey"
    );
    for (wire, local) in served.iter().zip(expected.iter()) {
        assert_eq!(wire.trace, local.trace.raw());
        assert_eq!(wire.span, local.span.raw());
        assert_eq!(wire.parent, local.parent.map(|p| p.raw()));
        assert_eq!(wire.kind, local.kind.as_str());
        assert_eq!(wire.attempt, local.attempt);
        assert_eq!(wire.track, local.track);
        assert_eq!(wire.sim_start.to_bits(), local.sim_start.to_bits());
        assert_eq!(wire.sim_end.to_bits(), local.sim_end.to_bits());
        assert_eq!(wire.detail, local.detail);
    }

    // An id the log never saw is a NotFound error, not an empty chain.
    let miss = client.trace(0xdead_beef_dead_beef);
    assert!(miss.is_err(), "unknown trace must not serve: {miss:?}");
}

#[test]
fn chrome_trace_export_is_valid_json_with_expected_tracks() {
    let sim = run_sim(FaultPlan::none(), SloPolicy::none(), 2.0);
    let hops = sim.trace_hops();
    let chrome = chrome_trace(&hops);
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Thread-name metadata declares one track per DC plus net and pdme.
    let meta_names: Vec<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
                .map(str::to_owned)
        })
        .collect();
    // Only DC 1 carries a seeded fault, so it is the only DC track; a
    // healthy DC that never emits a report never opens one.
    for track in ["dc1", "net", "pdme"] {
        assert!(meta_names.iter().any(|n| n == track), "missing {track}");
    }
    // Every JSONL line parses too.
    let lines = jsonl(&hops);
    for line in lines.lines() {
        serde_json::from_str::<serde_json::Value>(line).expect("JSONL line parses");
    }
}
