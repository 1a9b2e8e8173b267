//! Incremental serving publish: a ship's post-step snapshot shares every
//! ICAS machine entry whose inputs did not change since the previous
//! publish, and is still exactly what a from-scratch build would serve.
//!
//! One seeded, served ship rides a fault campaign — a DC crash and a
//! partition that each degrade a machine and then recover it, a PDME
//! stall, and a crash-restore of the PDME mid-run. At every step:
//!
//! * the published snapshot equals a from-scratch
//!   `ServingSnapshot::build` of the same engine, and the `GetIcas`,
//!   `GetMetrics` and `GetMachineStatus` answers from both encode to the
//!   same wire bytes;
//! * the entries the publish rebuilt (those not shared by `Arc` with
//!   the previous publish) are exactly the machines whose inputs moved:
//!   a report posted for the machine, a `status` flip, or a fused belief
//!   surfaced on a machine `part-of` it. A quiet step rebuilds none;
//! * the first publish after the restore rebuilds every entry.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{
    DcId, FaultPlan, FaultTarget, MachineCondition, MachineId, ObjectId, SimDuration, SimTime,
};
use mpros::gateway::{encode_response, Gateway, GatewayRequest, ServingSnapshot};
use mpros::oosm::{ObjectKind, Relation};
use mpros::pdme::PdmeExecutive;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

const DT: f64 = 1.0;
const DC_TIMEOUT: f64 = 30.0;
const STEPS: u64 = 240;
/// The step after which the PDME is torn down and restored from its
/// durable store.
const RESTORE_AFTER: u64 = 170;
const MACHINES: [u64; 3] = [1, 2, 3];

/// DC 2 crashes and DC 3 is partitioned (each one's machine degrades
/// past the timeout and recovers with its first fresh report), and the
/// PDME stalls.
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

/// Three DCs with a developing fault each. Machine 1 is `part-of`
/// machine 3 directly and machine 2 through an A/C plant system, so a
/// fused belief on either dirties machine 3's entry (its health folds
/// theirs). The relations are checkpointed, so the restore keeps them.
fn ship() -> ShipboardSim {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(3)
            .with_seed(41)
            .with_fault_plan(campaign())
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
    let pdme = sim.pdme_mut();
    let object = |p: &PdmeExecutive, m: u64| p.oosm().machine_object(MachineId::new(m)).unwrap();
    let (m1, m2, m3) = (object(pdme, 1), object(pdme, 2), object(pdme, 3));
    let oosm = pdme.oosm_mut();
    let plant = oosm.create_object(ObjectKind::System, "A/C Plant");
    oosm.relate(m1, Relation::PartOf, m3).unwrap();
    oosm.relate(m2, Relation::PartOf, plant).unwrap();
    oosm.relate(plant, Relation::PartOf, m3).unwrap();
    pdme.snapshot_to_store().unwrap();
    sim
}

/// The machines `object` is transitively `part-of`.
fn machine_ancestors(pdme: &PdmeExecutive, object: ObjectId) -> BTreeSet<u64> {
    let oosm = pdme.oosm();
    let mut out = BTreeSet::new();
    let mut up = oosm.related(object, Relation::PartOf);
    while let Some(parent) = up.pop() {
        if let Some(id) = oosm.property(parent, "machine_id").and_then(|v| v.as_int()) {
            out.insert(id as u64);
        }
        up.extend(oosm.related(parent, Relation::PartOf));
    }
    out
}

/// What a machine's entry shows that its own inputs decide: report
/// count and status.
fn inputs(snapshot: &ServingSnapshot, machine: u64) -> (usize, String) {
    let m = snapshot.machine(machine).unwrap();
    (m.report_count, m.status.clone())
}

/// The wire answers to compare between two snapshots.
fn requests() -> Vec<GatewayRequest> {
    let mut out = vec![GatewayRequest::GetIcas, GatewayRequest::GetMetrics];
    out.extend(
        MACHINES
            .iter()
            .map(|&machine| GatewayRequest::GetMachineStatus { machine }),
    );
    out
}

fn answers(gateway: &Gateway, snapshot: &ServingSnapshot) -> Vec<Vec<u8>> {
    requests()
        .iter()
        .map(|req| encode_response(&gateway.serve_on(snapshot, req)).unwrap())
        .collect()
}

#[test]
fn a_publish_rebuilds_only_what_changed_and_serves_what_a_fresh_build_serves() {
    let timeout = SimDuration::from_secs(DC_TIMEOUT);
    let mut sim = ship();
    let gateway = sim.attach_gateway();
    let first = gateway.snapshot();
    assert_eq!(first.rebuilt_machines(), MACHINES.len(), "first publish");

    let (mut quiet, mut through_ancestor, mut flips, mut restored) = (0, 0, 0, false);
    let mut prev = first;
    for step in 1..=STEPS {
        let restore = step == RESTORE_AFTER + 1;
        if restore {
            sim.crash_restore_pdme().unwrap();
        }
        sim.step(SimDuration::from_secs(DT)).unwrap();
        let published = gateway.snapshot();
        assert_eq!(published.version, step);

        let scratch = ServingSnapshot::build(
            sim.steps(),
            sim.now(),
            sim.pdme(),
            timeout,
            sim.slo_verdict(),
            sim.telemetry(),
        );
        assert_eq!(*published, scratch, "step {step}: published vs fresh build");
        assert_eq!(
            answers(&gateway, &published),
            answers(&gateway, &scratch),
            "step {step}: wire answers"
        );
        assert_eq!(scratch.rebuilt_machines(), MACHINES.len());

        let rebuilt: BTreeSet<u64> = published
            .icas
            .machines
            .iter()
            .zip(&prev.icas.machines)
            .filter(|(now, before)| !Arc::ptr_eq(now, before))
            .map(|(now, _)| now.machine_id)
            .collect();
        assert_eq!(published.rebuilt_machines(), rebuilt.len(), "step {step}");

        // Inputs that moved, read off the two published entries.
        let moved = |field: fn(&(usize, String), &(usize, String)) -> bool| -> Vec<u64> {
            MACHINES
                .into_iter()
                .filter(|&m| field(&inputs(&published, m), &inputs(&prev, m)))
                .collect()
        };
        let posted = moved(|a, b| a.0 != b.0);
        let flipped = moved(|a, b| a.1 != b.1);
        let pdme = sim.pdme();
        let ancestors: BTreeSet<u64> = posted
            .iter()
            .flat_map(|&m| {
                let object = pdme.oosm().machine_object(MachineId::new(m)).unwrap();
                machine_ancestors(pdme, object)
            })
            .collect();
        let expected: BTreeSet<u64> = if restore {
            MACHINES.into_iter().collect()
        } else {
            let own = posted.iter().chain(&flipped).copied();
            own.chain(ancestors.iter().copied()).collect()
        };
        assert_eq!(rebuilt, expected, "step {step}: rebuilt entries");

        if restore {
            restored = true;
        } else if expected.is_empty() {
            quiet += 1;
        } else if posted.len() == 1
            && flipped.is_empty()
            && ancestors.iter().all(|m| !posted.contains(m))
            && !ancestors.is_empty()
        {
            // One machine's reports, and an ancestor rebuilt for its
            // health alone.
            through_ancestor += 1;
        }
        flips += flipped.len();
        prev = published;
    }
    assert!(restored);
    assert!(quiet > STEPS as usize / 2, "{quiet} quiet steps");
    assert!(
        through_ancestor > 0,
        "no ancestor was rebuilt for its health alone"
    );
    // The crashed DC 2's machine and the partitioned DC 3's machine each
    // degrade once and recover once.
    assert_eq!(flips, 4);
}
