//! The survey workspace: every survey-sized buffer a Data Concentrator
//! needs while it surveys, and none of what it keeps between surveys.
//!
//! A standard survey works through about 3.5 MB: five 32,768-sample
//! blocks, the 32 Ki FFT plan and Hann table, the envelope chain's
//! scratch and two output spectra. A DC needs none of it between
//! surveys, so it holds none of it: a ship owns one [`SurveyWorkspace`]
//! per stepping worker and lends it to each DC for the length of its
//! step ([`crate::DataConcentrator::step_with`]). A DC stepped on its
//! own ([`crate::DataConcentrator::step`]) keeps a private workspace.
//!
//! Nothing a DC computes depends on which workspace it was lent or who
//! used it before: every buffer is cleared before it is filled, and the
//! cached FFT plans and window tables are pure functions of their size
//! (DESIGN.md §10.2).

use mpros_dli::{SurveyScratch, VibrationSurvey};
use mpros_signal::DspContext;

/// Survey-sized working memory lent to a DC for one step (see the
/// module docs). Empty when built; it grows on the first survey run
/// through it and keeps its allocations after.
#[derive(Debug, Default)]
pub struct SurveyWorkspace {
    /// Cached FFT plans and window tables, and the scratch arena.
    pub(crate) ctx: DspContext,
    /// The acquired blocks; the train, load and sample rate are set from
    /// the surveying DC's plant at every survey.
    pub(crate) survey: Option<VibrationSurvey>,
    /// Block allocations recovered when channels are quarantined; the
    /// next survey's top-up hands them back before acquisition.
    pub(crate) spare_blocks: Vec<Vec<f64>>,
    /// The raw and envelope spectra of the block under analysis.
    pub(crate) scratch: SurveyScratch,
    /// The WNN input vector.
    pub(crate) wnn_features: Vec<f64>,
}

impl SurveyWorkspace {
    /// An empty workspace; it allocates on the first survey lent it.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod workspace_order_tests {
    use super::*;
    use crate::{DataConcentrator, DcConfig, SensorFault};
    use mpros_chiller::fault::{FaultProfile, FaultSeed};
    use mpros_chiller::plant::PlantConfig;
    use mpros_chiller::ChillerPlant;
    use mpros_core::{
        ConditionReport, DcId, KnowledgeSourceId, MachineCondition, MachineId, SimDuration, SimTime,
    };
    use mpros_wnn::{DatasetBuilder, TrainParams, WnnClassifier, WnnConfig};

    /// A report's identity and payload bits: id, source, timestamp,
    /// condition, belief and severity.
    type ReportBits = (u64, KnowledgeSourceId, u64, MachineCondition, u64, u64);

    fn bits(r: &ConditionReport) -> ReportBits {
        (
            r.id.raw(),
            r.knowledge_source,
            r.timestamp.as_secs().to_bits(),
            r.condition,
            r.belief.value().to_bits(),
            r.severity.value().to_bits(),
        )
    }

    /// A briefly trained compact WNN: its verdicts do not matter here,
    /// only that its feature path runs through the lent context.
    fn wnn() -> WnnClassifier {
        let config = WnnConfig::small_test();
        let dataset = DatasetBuilder::new(config.clone(), 1).build().unwrap();
        let params = TrainParams {
            epochs: 5,
            ..Default::default()
        };
        WnnClassifier::train(config, &dataset, &params).unwrap()
    }

    /// Three DCs, each on a plant with one seeded fault that a different
    /// suite sees: motor imbalance (DLI, vibration), a refrigerant leak
    /// (fuzzy) and compressor surge (SBFR). The leak DC also has a dead
    /// gear-case channel, so its surveys hand a block to the spare pool
    /// that the next DC lent the workspace draws from; the imbalance DC
    /// also runs `wnn`.
    fn fleet(wnn: &WnnClassifier) -> Vec<(DataConcentrator, ChillerPlant)> {
        [
            (MachineCondition::MotorImbalance, 0.9),
            (MachineCondition::RefrigerantLeak, 0.9),
            (MachineCondition::CompressorSurge, 0.95),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (condition, severity))| {
            let id = i as u64 + 1;
            let config = DcConfig::new(DcId::new(id), MachineId::new(id))
                .with_survey_period(SimDuration::from_secs(30.0));
            let mut dc = DataConcentrator::new(config).unwrap();
            match condition {
                MachineCondition::RefrigerantLeak => dc
                    .chain_mut()
                    .fail_sensor(2, SensorFault::Flatline)
                    .unwrap(),
                MachineCondition::MotorImbalance => dc.attach_wnn(wnn.clone()),
                _ => {}
            }
            let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(id), 40 + id));
            plant.seed_fault(FaultSeed {
                condition,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_secs(1.0),
                profile: FaultProfile::Step(severity),
            });
            (dc, plant)
        })
        .collect()
    }

    /// Step the fleet for two simulated minutes at the 4 Hz process
    /// cadence, the DCs in `order` each step, through one shared
    /// workspace or (`None`) each through its private one. Returns each
    /// DC's report stream, in DC order.
    fn run(
        wnn: &WnnClassifier,
        order: [usize; 3],
        shared: Option<&mut SurveyWorkspace>,
    ) -> Vec<Vec<ReportBits>> {
        let mut fleet = fleet(wnn);
        let mut streams = vec![Vec::new(); fleet.len()];
        let mut shared = shared;
        for step in 0..=480 {
            let now = SimTime::from_secs(step as f64 * 0.25);
            for &i in &order {
                let (dc, plant) = &mut fleet[i];
                let reports = match shared.as_deref_mut() {
                    Some(workspace) => dc.step_with(workspace, plant, now, &[]),
                    None => dc.step(plant, now, &[]),
                };
                streams[i].extend(reports.unwrap().iter().map(bits));
            }
        }
        streams
    }

    #[test]
    fn reports_do_not_depend_on_the_lent_workspace() {
        let wnn = wnn();
        let forward = run(&wnn, [0, 1, 2], Some(&mut SurveyWorkspace::new()));
        let backward = run(&wnn, [2, 1, 0], Some(&mut SurveyWorkspace::new()));
        let private = run(&wnn, [0, 1, 2], None);
        // (seeded condition, the source slot that must report it: 1 DLI,
        // 4 fuzzy, 2 SBFR)
        let seeded = [
            (MachineCondition::MotorImbalance, 1),
            (MachineCondition::RefrigerantLeak, 4),
            (MachineCondition::CompressorSurge, 2),
        ];
        for (dc, (condition, slot)) in seeded.into_iter().enumerate() {
            let stream = &private[dc];
            let source = KnowledgeSourceId::new((dc as u64 + 1) * 10 + slot);
            assert!(
                stream.iter().any(|r| r.1 == source && r.3 == condition),
                "DC {} never reported its seeded {condition:?} from {source:?}",
                dc + 1
            );
            assert_eq!(
                &forward[dc],
                &private[dc],
                "DC {}: shared, forward order",
                dc + 1
            );
            assert_eq!(
                &backward[dc],
                &private[dc],
                "DC {}: shared, backward order",
                dc + 1
            );
        }
    }
}
