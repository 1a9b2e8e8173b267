//! E9 — §3.3: "A failure effects mode analysis (FMEA) was completed and
//! used to select 12 candidate failure modes."
//!
//! Prints the reproduced catalog with logical groups and the
//! detectability matrix: which of the DC's knowledge sources (DLI,
//! fuzzy, SBFR) sees each mode at high severity under nominal load.
//! (The WNN covers the same vibration modes as DLI by construction; its
//! accuracy is measured separately in `exp_wnn_accuracy`.)

use mpros_bench::{exit_on_failed_verdict, labeled_survey, verdict, Table};
use mpros_chiller::fault::{FaultProfile, FaultSeed, FaultState};
use mpros_chiller::process::ProcessModel;
use mpros_core::{MachineCondition, SimDuration, SimTime};
use mpros_dli::DliExpertSystem;
use mpros_fuzzy::FuzzyDiagnostics;

fn main() {
    println!("E9: the 12 FMEA failure modes and their evidence channels (§3.3)\n");
    let dli = DliExpertSystem::new();
    let fuzzy = FuzzyDiagnostics::new();

    let mut t = Table::new(&["#", "failure mode", "group", "DLI", "fuzzy", "detected"]);
    let mut all_detected = true;
    for (i, condition) in MachineCondition::ALL.iter().copied().enumerate() {
        // DLI pass: severe fault, nominal load, long blocks.
        let survey = labeled_survey(Some(condition), 0.9, 0.9, 17, 32_768);
        let dli_hit = dli
            .analyze(&survey)
            .expect("analyzable")
            .iter()
            .any(|d| d.condition == condition);

        // Fuzzy pass: process window under the same fault.
        let model = ProcessModel::new(17);
        let mut faults = FaultState::healthy();
        faults.seed(FaultSeed {
            condition,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.9),
        });
        let window: Vec<_> = (0..20)
            .map(|k| model.sample(SimTime::from_secs(5.0 + k as f64 * 0.45), 0.9, &faults))
            .collect();
        let fuzzy_hit = fuzzy
            .analyze(&window)
            .expect("analyzable")
            .iter()
            .any(|d| d.condition == condition);

        let detected = dli_hit || fuzzy_hit;
        all_detected &= detected;
        t.row(&[
            format!("{}", i + 1),
            condition.to_string(),
            condition.group().to_string(),
            if dli_hit { "✓" } else { "-" }.into(),
            if fuzzy_hit { "✓" } else { "-" }.into(),
            if detected { "yes" } else { "NO" }.into(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\n(SBFR additionally corroborates compressor surge from drive-current \
         spike trains; the WNN classifies the vibration modes — see \
         exp_wnn_accuracy.)"
    );

    verdict(
        "E9.1 exactly 12 modes",
        MachineCondition::ALL.len() == 12,
        "catalog size matches the paper's FMEA selection",
    );
    verdict(
        "E9.2 every mode has an evidence channel",
        all_detected,
        "each failure mode detected by at least one knowledge source at severity 0.9",
    );
    exit_on_failed_verdict();
}
