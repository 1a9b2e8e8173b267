//! §6.1 ablation — load sensitization: "the DLI expert system rule for
//! bearing looseness can be sensitized to available load indicators
//! (such as pre-rotation vane position) in order to ensure that a false
//! positive bearing looseness call is not made when the compressor
//! enters a low load period of operation."
//!
//! Unloaded compressors genuinely vibrate more at looseness-like
//! frequencies; the simulator reproduces this with a mild looseness
//! signature while the machine idles. The sensitized rule must hold its
//! fire at low load without losing real detections under load.

use mpros_bench::{exit_on_failed_verdict, labeled_survey, verdict, Table};
use mpros_chiller::fault::{FaultProfile, FaultSeed, FaultState};
use mpros_chiller::vibration::{AccelLocation, VibrationSynthesizer};
use mpros_chiller::MachineTrain;
use mpros_core::{MachineCondition, MachineId, SimDuration, SimTime};
use mpros_dli::{DliExpertSystem, VibrationSurvey};

/// A survey of an unloaded, *healthy* compressor whose idle rattle looks
/// loose: mild looseness-signature content that disappears under load.
fn idle_rattle_survey(seed: u64, load: f64) -> VibrationSurvey {
    let train = MachineTrain::navy_chiller(MachineId::new(1));
    let synth = VibrationSynthesizer::new(train.clone(), seed);
    let mut faults = FaultState::healthy();
    // The idle rattle: a low-grade looseness signature present only at
    // low load (the §6.1 trap). Modeled as a mild seeded signature that
    // ground truth does NOT count as a fault (severity below the 0.35
    // reporting bar used by analysts).
    let rattle = ((0.35 - load).max(0.0) / 0.35).min(1.0) * 0.55;
    if rattle > 0.0 {
        faults.seed(FaultSeed {
            condition: MachineCondition::BearingHousingLooseness,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(rattle),
        });
    }
    let fs = 16_384.0;
    let t0 = SimTime::from_secs(40.0 + seed as f64);
    VibrationSurvey {
        train: train.clone(),
        load,
        sample_rate: fs,
        blocks: AccelLocation::ALL
            .iter()
            .map(|&loc| (loc, synth.sample_block(loc, t0, 32_768, fs, load, &faults)))
            .collect(),
    }
}

fn looseness_called(dli: &DliExpertSystem, survey: &VibrationSurvey) -> bool {
    dli.analyze(survey)
        .expect("analyzable")
        .iter()
        .any(|d| d.condition == MachineCondition::BearingHousingLooseness)
}

fn main() {
    println!("E-ablation: load sensitization of the looseness rule (§6.1)\n");
    let mut sensitized = DliExpertSystem::new();
    sensitized.load_sensitized = true;
    let mut raw = DliExpertSystem::new();
    raw.load_sensitized = false;

    let seeds: Vec<u64> = (0..6).map(|i| 301 + i * 13).collect();
    let mut t = Table::new(&["scenario", "load", "sensitized FP/TP", "unsensitized FP/TP"]);

    // Low-load healthy machines with idle rattle: any call is a false
    // positive.
    let mut fp_sens = 0usize;
    let mut fp_raw = 0usize;
    for &seed in &seeds {
        let survey = idle_rattle_survey(seed, 0.12);
        fp_sens += usize::from(looseness_called(&sensitized, &survey));
        fp_raw += usize::from(looseness_called(&raw, &survey));
    }
    t.row(&[
        "healthy, idle rattle".into(),
        "0.12".into(),
        format!("{fp_sens}/{} FP", seeds.len()),
        format!("{fp_raw}/{} FP", seeds.len()),
    ]);

    // Loaded machines with genuine looseness: a call is a true positive.
    let mut tp_sens = 0usize;
    let mut tp_raw = 0usize;
    for &seed in &seeds {
        let survey = labeled_survey(
            Some(MachineCondition::BearingHousingLooseness),
            0.8,
            0.85,
            seed,
            32_768,
        );
        tp_sens += usize::from(looseness_called(&sensitized, &survey));
        tp_raw += usize::from(looseness_called(&raw, &survey));
    }
    t.row(&[
        "genuine looseness".into(),
        "0.85".into(),
        format!("{tp_sens}/{} TP", seeds.len()),
        format!("{tp_raw}/{} TP", seeds.len()),
    ]);
    print!("{}", t.render());

    println!();
    verdict(
        "ablation.1 sensitized rule avoids the low-load trap",
        fp_sens == 0 && fp_raw == seeds.len(),
        &format!(
            "false positives: sensitized {fp_sens}, unsensitized {fp_raw} of {}",
            seeds.len()
        ),
    );
    verdict(
        "ablation.2 sensitization costs no loaded detections",
        tp_sens == seeds.len() && tp_raw == seeds.len(),
        "both variants catch genuine looseness under load",
    );
    exit_on_failed_verdict();
}
