//! §1.1 — the WNN/DLI division of labor: the WNN "will excel in drawing
//! conclusions from transitory phenomena rather than steady state data"
//! while the DLI expert system handles steady-state spectra.
//!
//! Both systems face the same chiller startup (coast-up) transients with
//! seeded rotor faults. The DLI order-domain rules, built for constant
//! shaft speed, underread the chirped signatures; a WNN trained on
//! transient feature vectors (wavelet energy maps localize the chirps)
//! classifies them — measuring the claimed complementarity.

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_chiller::transient::StartupSynthesizer;
use mpros_chiller::vibration::AccelLocation;
use mpros_chiller::MachineTrain;
use mpros_core::{MachineCondition, MachineId};
use mpros_dli::{DliExpertSystem, VibrationSurvey};
use mpros_signal::features::{FeatureConfig, FeatureVector};
use mpros_wnn::{Activation, Network, TrainParams};

const FS: f64 = 4_096.0;
const N: usize = 16_384;
const CLASSES: [Option<MachineCondition>; 4] = [
    None,
    Some(MachineCondition::MotorImbalance),
    Some(MachineCondition::MotorMisalignment),
    Some(MachineCondition::BearingHousingLooseness),
];

fn transient_features(block: &[f64]) -> Vec<f64> {
    FeatureVector::extract(block, &FeatureConfig::default(), &[])
        .expect("power-of-two block")
        .values()
        .to_vec()
}

fn main() {
    println!("E-transient: WNN vs DLI on startup transients (§1.1)\n");
    let train = MachineTrain::navy_chiller(MachineId::new(1));

    // Corpus: coast-ups at 3 severities × 4 ramps × 4 seeds per class.
    let severities = [0.5, 0.7, 0.9];
    let ramps = [2.5, 3.0, 3.5, 4.0];
    let mut samples: Vec<(Vec<f64>, usize)> = Vec::new();
    for seed in 0..4u64 {
        let synth = StartupSynthesizer::new(train.clone(), 100 + seed * 17);
        for (label, class) in CLASSES.iter().enumerate() {
            for &ramp in &ramps {
                for &sev in &severities {
                    let fault = class.map(|c| (c, sev));
                    let block = synth.coastup_block(N, FS, ramp, fault, 1.0);
                    samples.push((transient_features(&block), label));
                    if class.is_none() {
                        break; // healthy needs no severity sweep
                    }
                }
            }
        }
    }
    let (train_set, test_set): (Vec<_>, Vec<_>) = samples
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 4 != 0);
    let train_set: Vec<(Vec<f64>, usize)> = train_set.into_iter().map(|(_, s)| s).collect();
    let test_set: Vec<(Vec<f64>, usize)> = test_set.into_iter().map(|(_, s)| s).collect();

    // Z-score, train the WNN.
    let dim = train_set[0].0.len();
    let nf = train_set.len() as f64;
    let mut mean = vec![0.0; dim];
    for (x, _) in &train_set {
        for (m, v) in mean.iter_mut().zip(x) {
            *m += v / nf;
        }
    }
    let mut std = vec![0.0; dim];
    for (x, _) in &train_set {
        for ((s, v), m) in std.iter_mut().zip(x).zip(&mean) {
            *s += (v - m) * (v - m) / nf;
        }
    }
    for s in std.iter_mut() {
        *s = s.sqrt().max(1e-9);
    }
    let norm = |x: &[f64]| -> Vec<f64> {
        x.iter()
            .zip(&mean)
            .zip(&std)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    };
    let mut net =
        Network::new(dim, &[16], CLASSES.len(), Activation::MexicanHat, 7).expect("valid shape");
    let normalized: Vec<(Vec<f64>, usize)> = train_set.iter().map(|(x, y)| (norm(x), *y)).collect();
    net.train(
        &normalized,
        &TrainParams {
            epochs: 300,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");
    let wnn_correct = test_set
        .iter()
        .filter(|(x, y)| net.classify(&norm(x)).0 == *y)
        .count();
    let wnn_acc = wnn_correct as f64 / test_set.len() as f64;

    // DLI on the same faulted coast-ups: steady-state order rules
    // against chirped spectra.
    let dli = DliExpertSystem::new();
    let mut dli_hits = 0usize;
    let mut dli_cases = 0usize;
    for seed in 10..14u64 {
        let synth = StartupSynthesizer::new(train.clone(), seed * 31);
        for class in CLASSES.iter().flatten() {
            for &sev in &severities {
                let block = synth.coastup_block(N, FS, 3.0, Some((*class, sev)), 1.0);
                let survey = VibrationSurvey {
                    train: train.clone(),
                    load: 1.0,
                    sample_rate: FS,
                    blocks: vec![(AccelLocation::MotorDriveEnd, block)],
                };
                let out = dli.analyze(&survey).expect("analyzable");
                dli_cases += 1;
                if out.iter().any(|d| d.condition == *class) {
                    dli_hits += 1;
                }
            }
        }
    }
    let dli_rate = dli_hits as f64 / dli_cases as f64;

    let mut t = Table::new(&["system", "transient performance"]);
    t.row(&[
        "WNN (trained on transients)".into(),
        format!(
            "{:.0}% classification accuracy ({wnn_correct}/{})",
            wnn_acc * 100.0,
            test_set.len()
        ),
    ]);
    t.row(&[
        "DLI steady-state rules".into(),
        format!(
            "{:.0}% detection rate ({dli_hits}/{dli_cases})",
            dli_rate * 100.0
        ),
    ]);
    print!("{}", t.render());

    println!();
    verdict(
        "E-transient.1 WNN handles transitory phenomena",
        wnn_acc >= 0.85,
        &format!(
            "{:.0}% held-out accuracy on coast-up blocks",
            wnn_acc * 100.0
        ),
    );
    verdict(
        "E-transient.2 steady-state rules degrade on chirps",
        dli_rate < wnn_acc - 0.2,
        &format!(
            "DLI {:.0}% vs WNN {:.0}% — the §1.1 division of labor, measured",
            dli_rate * 100.0,
            wnn_acc * 100.0
        ),
    );
    exit_on_failed_verdict();
}
