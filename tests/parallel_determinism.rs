//! The determinism-equivalence harness: the same seeded scenario must
//! produce **byte-for-byte identical** observable state whether DCs are
//! stepped sequentially or scattered across 2, 4 or 8 workers. This is
//! the contract the scatter-gather engine (`crates/ship/src/exec.rs`)
//! makes — see the "Execution model" section of `crates/ship/src/sim.rs`
//! and DESIGN.md.
//!
//! What is compared per scenario:
//! * the ICAS snapshot, as its exact JSON serialization;
//! * the total reports fused and received;
//! * every telemetry counter except the `exec` component (job counts
//!   exist only in parallel mode) — network deliveries, drops, batched
//!   reports, DC pipeline activity, fusion conflicts, all of it;
//! * the deterministic (simulated-time) histograms — bus transit and
//!   end-to-end report latency;
//! * the journal, normalized per component: within one component the
//!   event sequence is deterministic, while cross-component
//!   interleaving legitimately varies with worker scheduling.
//! * the full causal-trace export (Chrome trace-event JSON and JSONL),
//!   byte for byte — trace/span ids are purely derived and hop times
//!   are simulated, so the tree must not see the worker count at all.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, FaultTarget, MachineCondition, SimDuration, SimTime};
use mpros::network::NetworkConfig;
use mpros::pdme::export_snapshot;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use std::collections::BTreeMap;

/// A seeded scenario: configuration plus the faults it injects.
struct Scenario {
    name: &'static str,
    dc_count: usize,
    seed: u64,
    network: NetworkConfig,
    fault_plan: FaultPlan,
    faults: Vec<(usize, FaultSeed)>,
    minutes: f64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        // A clean network with two progressing faults on a 4-DC fleet.
        Scenario {
            name: "clean-net-two-faults",
            dc_count: 4,
            seed: 11,
            network: NetworkConfig::default(),
            fault_plan: FaultPlan::none(),
            faults: vec![
                (
                    0,
                    FaultSeed {
                        condition: MachineCondition::MotorBearingDefect,
                        onset: SimTime::ZERO,
                        time_to_failure: SimDuration::from_minutes(10.0),
                        profile: FaultProfile::EarlyOnset,
                    },
                ),
                (
                    2,
                    FaultSeed {
                        condition: MachineCondition::GearToothWear,
                        onset: SimTime::from_secs(20.0),
                        time_to_failure: SimDuration::from_minutes(8.0),
                        profile: FaultProfile::Linear,
                    },
                ),
            ],
            minutes: 3.0,
        },
        // A lossy, jittery network: exercises the RNG draw-order pinning
        // (drops and jitter must fall on the same frames in every mode).
        Scenario {
            name: "lossy-net-one-fault",
            dc_count: 3,
            seed: 99,
            network: NetworkConfig::default()
                .with_drop_probability(0.15)
                .with_jitter(SimDuration::from_millis(4.0)),
            fault_plan: FaultPlan::none(),
            faults: vec![(
                1,
                FaultSeed {
                    condition: MachineCondition::RefrigerantLeak,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(6.0),
                    profile: FaultProfile::Step(0.9),
                },
            )],
            minutes: 3.0,
        },
        // Full adversity: a crash/restart cycle, a partition riding the
        // outbox retry path, a flatlined sensor and a PDME stall — the
        // survivability machinery itself must stay mode-invariant.
        Scenario {
            name: "fault-plan-crash-partition",
            dc_count: 3,
            seed: 23,
            network: NetworkConfig::default(),
            fault_plan: FaultPlan::none()
                .with_dc_crash(
                    DcId::new(2),
                    SimTime::from_secs(40.0),
                    SimTime::from_secs(75.0),
                )
                .with_partition(
                    FaultTarget::Dc(DcId::new(3)),
                    SimTime::from_secs(60.0),
                    SimTime::from_secs(95.0),
                )
                .with_sensor_dropout(
                    DcId::new(1),
                    1,
                    SimTime::from_secs(30.0),
                    SimTime::from_secs(90.0),
                )
                .with_pdme_stall(SimTime::from_secs(100.0), SimTime::from_secs(115.0)),
            faults: vec![(
                0,
                FaultSeed {
                    condition: MachineCondition::MotorBearingDefect,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(8.0),
                    profile: FaultProfile::EarlyOnset,
                },
            )],
            minutes: 4.0,
        },
    ]
}

/// Everything observable that must not depend on scheduling.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    icas_json: String,
    fused: usize,
    reports_received: usize,
    counters: Vec<(String, String, u64)>,
    sim_histograms: Vec<(String, String, u64, String)>,
    journal_by_component: BTreeMap<String, Vec<(f64, String, String)>>,
    chrome_trace: String,
    trace_jsonl: String,
    /// The Prometheus-style text exposition the gateway would serve —
    /// rendered from the filtered sim-domain metrics, so it must be
    /// byte-identical across modes like everything else it derives from.
    exposition: String,
    /// Every sealed flight-recorder incident as its exact JSON (scenario
    /// 3's DC crash guarantees at least one seal).
    incidents_json: String,
}

fn run(scenario: &Scenario, exec: ExecMode) -> Fingerprint {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(scenario.dc_count)
            .with_seed(scenario.seed)
            .with_network(scenario.network.clone())
            .with_fault_plan(scenario.fault_plan.clone())
            .with_survey_period(SimDuration::from_secs(30.0))
            .with_exec(exec),
    )
    .expect("sim builds");
    for (idx, fault) in &scenario.faults {
        sim.seed_fault(*idx, *fault);
    }
    let fused = sim
        .run_for(
            SimDuration::from_minutes(scenario.minutes),
            SimDuration::from_secs(0.5),
        )
        .expect("scenario runs");

    let icas = export_snapshot(sim.pdme(), sim.now(), SimDuration::from_secs(30.0));
    let snap = sim.telemetry().snapshot();
    // Counters: drop the `exec` component — job counts exist only in
    // parallel mode and are scheduling metadata, not state.
    let counters = snap
        .counters
        .iter()
        .filter(|c| c.component != "exec")
        .map(|c| (c.component.clone(), c.name.clone(), c.value))
        .collect();
    // Histograms in simulated time are fully deterministic; wall-clock
    // ones describe the host and are excluded. Fingerprint count and
    // the exact float stats.
    let sim_histograms = snap
        .histograms
        .iter()
        .filter(|h| {
            h.name.ends_with("sim_s")
                || h.name.ends_with("latency_s")
                || h.name.ends_with("transit_s")
        })
        .map(|h| {
            (
                h.component.clone(),
                h.name.clone(),
                h.count,
                format!(
                    "{:?}/{:?}/{:?}/{:?}/{:?}",
                    h.min, h.max, h.p50, h.p95, h.p99
                ),
            )
        })
        .collect();
    let mut journal_by_component: BTreeMap<String, Vec<(f64, String, String)>> = BTreeMap::new();
    for e in sim.telemetry().events() {
        journal_by_component
            .entry(e.component.clone())
            .or_default()
            .push((e.at.as_secs(), e.kind.clone(), e.detail.clone()));
    }
    let hops = sim.trace_hops();
    let serving = mpros::gateway::ServingSnapshot::build(
        sim.steps(),
        sim.now(),
        sim.pdme(),
        SimDuration::from_secs(30.0),
        sim.slo_verdict(),
        sim.telemetry(),
    );
    let recorder = sim.flight_recorder();
    let incidents_json = recorder
        .incidents()
        .iter()
        .map(|summary| {
            recorder
                .incident(summary.id)
                .expect("listed incident is retrievable")
                .to_json()
                .expect("incident serializes")
        })
        .collect::<Vec<_>>()
        .join("\n");
    Fingerprint {
        icas_json: icas.to_json().expect("ICAS serializes"),
        fused,
        reports_received: sim.pdme().reports_received(),
        counters,
        sim_histograms,
        journal_by_component,
        chrome_trace: mpros::telemetry::export::chrome_trace(&hops),
        trace_jsonl: mpros::telemetry::export::jsonl(&hops),
        exposition: serving.exposition().to_owned(),
        incidents_json,
    }
}

#[test]
fn parallel_stepping_is_byte_identical_to_sequential() {
    for scenario in scenarios() {
        let reference = run(&scenario, ExecMode::Sequential);
        assert!(
            reference.reports_received > 0,
            "{}: scenario produced no traffic — vacuous comparison",
            scenario.name
        );
        if scenario.name == "fault-plan-crash-partition" {
            // The DC crash window must have sealed at least one flight
            // recorder incident, or the incident comparison is vacuous.
            assert!(
                !reference.incidents_json.is_empty(),
                "{}: faulted scenario sealed no incidents",
                scenario.name
            );
        }
        for workers in [2, 4, 8] {
            let parallel = run(&scenario, ExecMode::Parallel { workers });
            assert_eq!(
                reference.icas_json, parallel.icas_json,
                "{}: ICAS snapshot diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.fused, parallel.fused,
                "{}: fused total diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.counters, parallel.counters,
                "{}: counters diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.sim_histograms, parallel.sim_histograms,
                "{}: simulated-time histograms diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.journal_by_component, parallel.journal_by_component,
                "{}: journal diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.chrome_trace, parallel.chrome_trace,
                "{}: Chrome trace export diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.trace_jsonl, parallel.trace_jsonl,
                "{}: JSONL trace export diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.exposition, parallel.exposition,
                "{}: metrics exposition diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(
                reference.incidents_json, parallel.incidents_json,
                "{}: sealed incidents diverged at {workers} workers",
                scenario.name
            );
            assert_eq!(reference, parallel, "{}: full fingerprint", scenario.name);
        }
    }
}

/// The same mode twice must also be self-identical (guards against the
/// comparison accidentally passing because *everything* varies).
#[test]
fn each_mode_is_self_deterministic() {
    let all = scenarios();
    let scenario = &all[1];
    assert_eq!(
        run(scenario, ExecMode::Sequential),
        run(scenario, ExecMode::Sequential)
    );
    assert_eq!(
        run(scenario, ExecMode::Parallel { workers: 4 }),
        run(scenario, ExecMode::Parallel { workers: 4 })
    );
}

/// Distinct master seeds must produce distinct runs — the per-DC seed
/// derivation must not collapse streams.
#[test]
fn distinct_seeds_diverge() {
    let mut a = scenarios().remove(0);
    a.minutes = 1.0;
    let base = run(&a, ExecMode::Sequential);
    a.seed = a.seed.wrapping_add(1);
    let shifted = run(&a, ExecMode::Sequential);
    assert_ne!(
        base.icas_json, shifted.icas_json,
        "seed change did not alter the run"
    );
}
