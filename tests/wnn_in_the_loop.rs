//! §6.2 integration: a trained WNN attached to a running Data
//! Concentrator contributes reports to the PDME alongside DLI — the
//! "designed for integration of Wavelet Neural Net ... from Georgia
//! Tech" milestone (§3.3), exercised end to end.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{KnowledgeSourceId, MachineCondition, SimDuration, SimTime};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::wnn::{DatasetBuilder, TrainParams, WnnClassifier, WnnConfig};

#[test]
fn wnn_reports_flow_to_the_pdme() {
    // Train the compact classifier (its class set includes the fault we
    // will seed).
    let config = WnnConfig::small_test();
    let dataset = DatasetBuilder::new(config.clone(), 2).build().unwrap();
    let clf = WnnClassifier::train(
        config,
        &dataset,
        &TrainParams {
            epochs: 250,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .unwrap();
    // Persistence round trip on the way in — the artifact a shipboard
    // installation would load.
    let clf = WnnClassifier::from_json(&clf.to_json().unwrap()).unwrap();

    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(3)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .unwrap();
    sim.dc_mut(0).attach_wnn(clf);
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.9),
        },
    );
    sim.run_for(SimDuration::from_minutes(3.0), SimDuration::from_secs(0.25))
        .unwrap();

    let reports = sim
        .pdme()
        .reports_for_machine(mpros::core::MachineId::new(1));
    let wnn_ks = KnowledgeSourceId::new(13); // DC 1, WNN slot
    let wnn_reports: Vec<_> = reports
        .iter()
        .filter(|r| r.knowledge_source == wnn_ks)
        .collect();
    assert!(
        !wnn_reports.is_empty(),
        "WNN contributed nothing; sources seen: {:?}",
        reports
            .iter()
            .map(|r| r.knowledge_source)
            .collect::<Vec<_>>()
    );
    // Live blocks come from an unseen plant (different noise seed and
    // load than the training grid) and the throttle keeps only a couple
    // of WNN reports; what the integration must guarantee is that the
    // WNN called the seeded truth at least once (distribution-shift
    // accuracy itself is measured by the paper_claims test
    // e_wnn_accuracy).
    assert!(
        wnn_reports
            .iter()
            .any(|r| r.condition == MachineCondition::MotorImbalance),
        "WNN never called the seeded fault: {:?}",
        wnn_reports.iter().map(|r| r.condition).collect::<Vec<_>>()
    );
    // And DLI agreed, so fusion reinforced the belief.
    let fused = sim.pdme().fusion().diagnostic().belief(
        mpros::core::MachineId::new(1),
        MachineCondition::MotorImbalance,
    );
    assert!(fused > 0.8, "fused belief {fused}");
}
