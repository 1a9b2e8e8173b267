//! §4.9 / §6.3 survivability end to end: a seeded fault campaign —
//! DC crash with restart, network partition riding the acked-retry
//! transport, a PDME stall — must degrade the fleet *visibly* (OOSM
//! status, ICAS export, journal) and then converge back to the no-fault
//! baseline once every window heals. The acked outbox must carry every
//! report across the outages: `net.expired` stays zero whenever the
//! partitions heal inside the retry budget.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{
    DcId, Error, FaultPlan, FaultTarget, MachineCondition, MachineId, SimDuration, SimTime,
};
use mpros::network::{decode_message, encode_message, NetMessage};
use mpros::pdme::icas::export_snapshot;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use proptest::prelude::*;

const DT: f64 = 0.5;
const DC_TIMEOUT: f64 = 30.0;

/// Three DCs, each with a developing plant fault so every station has
/// something to say (and to re-detect after an outage).
fn fleet(fault_plan: FaultPlan) -> ShipboardSim {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(3)
            .with_seed(41)
            .with_fault_plan(fault_plan)
            .with_dc_timeout(SimDuration::from_secs(DC_TIMEOUT))
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .unwrap();
    for (idx, condition) in [
        (0, MachineCondition::MotorBearingDefect),
        (1, MachineCondition::GearToothWear),
        (2, MachineCondition::CondenserFouling),
    ] {
        sim.seed_fault(
            idx,
            FaultSeed {
                condition,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(8.0),
                profile: FaultProfile::EarlyOnset,
            },
        );
    }
    sim
}

/// The campaign under test: DC 2 crashes and restarts, DC 3 rides out
/// a partition on its outbox, and the PDME itself stalls for a spell.
fn campaign() -> FaultPlan {
    FaultPlan::none()
        .with_pdme_stall(SimTime::from_secs(45.0), SimTime::from_secs(60.0))
        .with_dc_crash(
            DcId::new(2),
            SimTime::from_secs(60.0),
            SimTime::from_secs(120.0),
        )
        .with_partition(
            FaultTarget::Dc(DcId::new(3)),
            SimTime::from_secs(90.0),
            SimTime::from_secs(150.0),
        )
}

/// High-confidence maintenance conclusions: the convergence target.
fn strong_conclusions(sim: &ShipboardSim) -> Vec<(MachineId, MachineCondition)> {
    let mut items: Vec<_> = sim
        .pdme()
        .maintenance_list()
        .iter()
        .filter(|i| i.belief > 0.5)
        .map(|i| (i.machine, i.condition))
        .collect();
    items.sort();
    items.dedup();
    items
}

#[test]
fn crashed_and_partitioned_fleet_converges_to_the_no_fault_baseline() {
    let dt = SimDuration::from_secs(DT);

    // Baseline: the same seeded ship with a calm sea.
    let mut baseline = fleet(FaultPlan::none());
    baseline
        .run_for(SimDuration::from_minutes(8.0), dt)
        .unwrap();
    let baseline_conclusions = strong_conclusions(&baseline);
    assert_eq!(
        baseline_conclusions.len(),
        3,
        "every seeded fault should reach a strong conclusion: {baseline_conclusions:?}"
    );

    // The faulted run, stopped mid-campaign to observe the degradation.
    let mut sim = fleet(campaign());
    sim.run_for(SimDuration::from_secs(110.0), dt).unwrap();
    assert!(sim.is_crashed(1), "DC 2 is inside its crash window");
    assert_eq!(
        sim.pdme().degraded_machines(),
        vec![MachineId::new(2)],
        "the crashed DC's machine is marked degraded after the timeout"
    );
    let mid = export_snapshot(sim.pdme(), sim.now(), SimDuration::from_secs(DC_TIMEOUT));
    assert_eq!(mid.machines[1].status, "degraded");
    assert!(
        !mid.data_concentrators[1].alive,
        "crashed DC looks dead to ICAS"
    );

    // Let every window heal and the retries drain.
    sim.run_for(
        SimDuration::from_minutes(8.0) - SimDuration::from_secs(110.0),
        dt,
    )
    .unwrap();

    // Reliability: the outbox retried across the outages and never gave
    // a frame up — the partitions healed inside the retry budget.
    let stats = sim.network().stats();
    assert!(
        stats.retries > 0,
        "the partition must exercise the retry path"
    );
    assert_eq!(
        stats.expired, 0,
        "no report batch may expire when outages heal in budget"
    );
    assert!(stats.dropped > 0, "partitioned frames are counted dropped");

    // Recovery lifecycle is journaled: degrade, recover, re-download,
    // and the machines coming back as fresh reports land.
    let events = sim.telemetry().events();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    for kind in [
        "dc_degraded",
        "dc_recovered",
        "machine_degraded",
        "machine_recovered",
        "pdme_stall",
        "pdme_resume",
    ] {
        assert!(kinds.contains(&kind), "missing journal event {kind:?}");
    }
    assert!(
        sim.dc_epoch(1) >= 1,
        "the restarted DC rejoined under a fresh batch epoch"
    );

    // Convergence: the healed fleet reaches the same strong conclusions
    // as the calm-sea baseline, every machine back to `ok`, every DC
    // alive.
    assert_eq!(strong_conclusions(&sim), baseline_conclusions);
    assert!(
        sim.pdme().degraded_machines().is_empty(),
        "fresh reports cleared every degraded mark"
    );
    let end = export_snapshot(sim.pdme(), sim.now(), SimDuration::from_secs(DC_TIMEOUT));
    assert!(end.machines.iter().all(|m| m.status == "ok"), "{end:?}");
    assert!(end.data_concentrators.iter().all(|d| d.alive));
    for (base, healed) in baseline
        .pdme()
        .maintenance_list()
        .iter()
        .zip(end.machines.iter().flat_map(|m| &m.conditions))
    {
        // Beliefs need not match bit-for-bit (the crash lost volatile
        // detector state), but the healed fleet must be no less sure.
        if healed.description == base.condition.to_string() {
            assert!(
                healed.belief > base.belief - 0.25,
                "healed belief {} collapsed vs baseline {}",
                healed.belief,
                base.belief
            );
        }
    }
}

#[test]
fn pdme_stall_defers_fusion_without_losing_reports() {
    let plan =
        FaultPlan::none().with_pdme_stall(SimTime::from_secs(60.0), SimTime::from_secs(120.0));
    let dt = SimDuration::from_secs(DT);
    let mut sim = fleet(plan);
    sim.run_for(SimDuration::from_secs(59.0), dt).unwrap();
    let before = sim.pdme().reports_received();
    assert!(before > 0, "first surveys land before the stall");
    // Inside the stall nothing reaches the executive...
    sim.run_for(SimDuration::from_secs(55.0), dt).unwrap();
    assert!(sim.is_pdme_stalled());
    assert_eq!(sim.pdme().reports_received(), before);
    // ...and after it lifts, the queued traffic drains — nothing lost.
    sim.run_for(SimDuration::from_minutes(2.0), dt).unwrap();
    assert!(!sim.is_pdme_stalled());
    assert!(sim.pdme().reports_received() > before);
    assert_eq!(sim.network().stats().expired, 0);
}

#[test]
fn fault_plan_naming_a_missing_dc_is_refused() {
    let (from, until) = (SimTime::from_secs(10.0), SimTime::from_secs(20.0));
    let missing = DcId::new(4);
    for plan in [
        FaultPlan::none().with_dc_crash(missing, from, until),
        FaultPlan::none().with_sensor_dropout(missing, 0, from, until),
        FaultPlan::none().with_partition(FaultTarget::Dc(missing), from, until),
    ] {
        let built = ShipboardSim::new(
            ShipboardSimConfig::new()
                .with_dc_count(3)
                .with_fault_plan(plan.clone()),
        );
        assert!(
            matches!(built, Err(Error::InvalidInput(_))),
            "{:?} built a 3-DC ship",
            plan.windows()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The transport ack must survive the wire bit-for-bit: the retry
    /// protocol rests on `(dc, epoch, last_seq)` round-tripping exactly.
    #[test]
    fn ack_frames_roundtrip_the_codec(
        dc in 1u64..1000,
        epoch in 0u64..64,
        last_seq in 0u64..u64::MAX / 2,
    ) {
        let msg = NetMessage::Ack {
            dc: DcId::new(dc),
            epoch,
            last_seq,
        };
        let back = decode_message(&encode_message(&msg).unwrap()).unwrap();
        prop_assert_eq!(back, msg);
    }
}
