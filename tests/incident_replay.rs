//! Incident replay: a sealed flight-recorder `Incident` from a faulted
//! run is a deterministic artifact. These tests pin the two halves of
//! that claim:
//!
//! * **Mode invariance, over the wire** — an 8-DC run with a mid-run DC
//!   crash seals the same incidents (same deterministic ids, same exact
//!   JSON bundles) and serves the same Prometheus text exposition
//!   whether the fleet stepped sequentially or across 2/4/8 workers,
//!   and everything is fetched through the framed wire-v5 protocol,
//!   not in-process accessors.
//! * **Durability invariance** — tearing the PDME down mid-run and
//!   rebuilding it from the store (snapshot + WAL tail) leaves every
//!   previously sealed incident byte-identical to the uninterrupted
//!   run's, and the restore itself seals a `pdme_crash_restore`
//!   incident whose id any observer can recompute from the scenario
//!   seed and the step alone.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{DcId, FaultPlan, MachineCondition, SimDuration, SimTime};
use mpros::gateway::GatewayClient;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::{incident_id, IncidentTrigger};

const SEED: u64 = 41;

/// A fleet with a progressing bearing defect and a DC crash window at
/// t = 40–70 s: the crash edge fires the recorder well inside the run,
/// leaving plenty of post-window steps to seal the bundle.
fn faulted_sim(dc_count: usize, exec: ExecMode) -> ShipboardSim {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(dc_count)
            .with_seed(SEED)
            .with_survey_period(SimDuration::from_secs(30.0))
            .with_fault_plan(FaultPlan::none().with_dc_crash(
                DcId::new(2),
                SimTime::from_secs(40.0),
                SimTime::from_secs(70.0),
            ))
            .with_exec(exec),
    )
    .expect("sim builds");
    for idx in [0usize, dc_count / 2] {
        sim.seed_fault(
            idx,
            FaultSeed {
                condition: MachineCondition::MotorBearingDefect,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(8.0),
                profile: FaultProfile::EarlyOnset,
            },
        );
    }
    sim
}

#[test]
fn sealed_incidents_and_exposition_are_mode_invariant_over_the_wire() {
    let fetch = |exec: ExecMode| {
        let mut sim = faulted_sim(8, exec);
        sim.run_for(SimDuration::from_minutes(3.0), SimDuration::from_secs(0.5))
            .expect("faulted run completes");
        let gateway = sim.attach_gateway();
        let client = GatewayClient::connect(gateway, 1);

        let summaries = client.incidents().expect("ListIncidents serves");
        assert!(!summaries.is_empty(), "faulted run sealed no incidents");
        assert!(
            summaries
                .iter()
                .any(|s| matches!(s.trigger, IncidentTrigger::DcCrashed { .. })),
            "the DC crash window must be among the sealed triggers"
        );
        for s in &summaries {
            // The id is pure: master seed ⊕ trigger ⊕ step, nothing else.
            assert_eq!(
                s.id,
                incident_id(SEED, &s.trigger, s.step),
                "served id is not recomputable from the summary"
            );
        }
        let ids: Vec<u64> = summaries.iter().map(|s| s.id).collect();
        let bundles = summaries
            .iter()
            .map(|s| {
                client
                    .incident(s.id)
                    .expect("listed incident serves")
                    .to_json()
                    .expect("incident serializes")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let exposition = client.metrics().expect("GetMetrics serves").exposition;
        (ids, bundles, exposition)
    };

    let (ref_ids, ref_bundles, ref_exposition) = fetch(ExecMode::Sequential);
    for workers in [2, 4, 8] {
        let (ids, bundles, exposition) = fetch(ExecMode::Parallel { workers });
        assert_eq!(ref_ids, ids, "incident ids diverged at {workers} workers");
        assert_eq!(
            ref_bundles, bundles,
            "incident JSON diverged at {workers} workers"
        );
        assert_eq!(
            ref_exposition, exposition,
            "text exposition diverged at {workers} workers"
        );
    }
}

#[test]
fn sealed_incident_survives_a_wal_crash_restore_byte_identically() {
    let dt = SimDuration::from_secs(0.5);

    // The uninterrupted reference run.
    let mut reference = faulted_sim(4, ExecMode::Sequential);
    reference
        .run_for(SimDuration::from_secs(180.0), dt)
        .expect("reference run completes");
    let crash_incidents: Vec<_> = reference
        .flight_recorder()
        .incidents()
        .into_iter()
        .filter(|s| matches!(s.trigger, IncidentTrigger::DcCrashed { .. }))
        .collect();
    assert!(
        !crash_incidents.is_empty(),
        "the DC crash window sealed no incident"
    );

    // The same scenario, but the PDME is torn down at t = 120 s — after
    // the DC-crash incident sealed — and rebuilt from snapshot + WAL.
    let mut restored = faulted_sim(4, ExecMode::Sequential);
    restored
        .run_for(SimDuration::from_secs(120.0), dt)
        .expect("pre-crash segment completes");
    restored
        .crash_restore_pdme()
        .expect("restore from the store");
    restored
        .run_for(SimDuration::from_secs(60.0), dt)
        .expect("post-restore segment completes");

    for s in &crash_incidents {
        let a = reference
            .flight_recorder()
            .incident(s.id)
            .expect("reference retains the incident")
            .to_json()
            .expect("incident serializes");
        let b = restored
            .flight_recorder()
            .incident(s.id)
            .expect("incident survives the crash-restore")
            .to_json()
            .expect("incident serializes");
        assert_eq!(a, b, "incident {:016x} changed across the restore", s.id);
    }

    // The restore is itself a trigger edge with a recomputable id.
    let restores: Vec<_> = restored
        .flight_recorder()
        .incidents()
        .into_iter()
        .filter(|s| matches!(s.trigger, IncidentTrigger::PdmeCrashRestore))
        .collect();
    assert_eq!(restores.len(), 1, "exactly one restore incident");
    assert_eq!(
        restores[0].id,
        incident_id(SEED, &IncidentTrigger::PdmeCrashRestore, restores[0].step)
    );
    assert!(
        reference
            .flight_recorder()
            .incidents()
            .iter()
            .all(|s| !matches!(s.trigger, IncidentTrigger::PdmeCrashRestore)),
        "the uninterrupted run must not see a restore trigger"
    );
}
