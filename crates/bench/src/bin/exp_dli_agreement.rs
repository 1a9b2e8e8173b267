//! E5 — §6.1: "In one study, it was found that the system exceeds 95%
//! agreement with human expert analysts for machinery aboard the Nimitz
//! class ships."
//!
//! Substitution (DESIGN.md): the human analyst is modeled as the seeded
//! ground truth — analysts reviewing clearly developed faults label them
//! correctly — and agreement is scored over a corpus of surveys with
//! single seeded faults at analyst-visible severities plus healthy
//! controls. Agreement = the expert system's top-severity call names the
//! analyst's label (or both stay silent on healthy machines).

use mpros_bench::{dli_conditions, exit_on_failed_verdict, labeled_survey, verdict, Table};
use mpros_core::MachineCondition;
use mpros_dli::DliExpertSystem;
use std::collections::HashMap;

fn main() {
    println!("E5: DLI agreement with the (synthetic) analyst (§6.1)\n");
    let dli = DliExpertSystem::new();
    let severities = [0.55, 0.7, 0.85, 1.0];
    let loads = [0.6, 0.8, 1.0];
    let seeds: Vec<u64> = (0..4).map(|i| 101 + i * 37).collect();

    let mut per_condition: HashMap<Option<MachineCondition>, (usize, usize)> = HashMap::new();
    let mut record = |label: Option<MachineCondition>, agree: bool| {
        let e = per_condition.entry(label).or_insert((0, 0));
        e.1 += 1;
        if agree {
            e.0 += 1;
        }
    };

    for &seed in &seeds {
        for &load in &loads {
            // Healthy controls: the analyst reports nothing.
            let survey = labeled_survey(None, 0.0, load, seed, 32_768);
            let out = dli.analyze(&survey).expect("analyzable");
            record(None, out.is_empty());
            for &condition in &dli_conditions() {
                for &sev in &severities {
                    let survey = labeled_survey(Some(condition), sev, load, seed, 32_768);
                    let out = dli.analyze(&survey).expect("analyzable");
                    let top = out.first().map(|d| d.condition);
                    record(Some(condition), top == Some(condition));
                }
            }
        }
    }

    let mut t = Table::new(&["analyst label", "agreement", "cases"]);
    let mut total = (0usize, 0usize);
    let mut keys: Vec<_> = per_condition.keys().copied().collect();
    keys.sort_by_key(|k| k.map(|c| c.index() as i64).unwrap_or(-1));
    for k in keys {
        let (agree, cases) = per_condition[&k];
        total.0 += agree;
        total.1 += cases;
        let label = k
            .map(|c| c.to_string())
            .unwrap_or_else(|| "(healthy)".to_string());
        t.row(&[
            label,
            format!("{:.1}%", 100.0 * agree as f64 / cases as f64),
            format!("{agree}/{cases}"),
        ]);
    }
    print!("{}", t.render());
    let overall = 100.0 * total.0 as f64 / total.1 as f64;
    println!("\noverall agreement: {overall:.1}% over {} cases", total.1);
    verdict(
        "E5 dli agreement",
        overall >= 95.0,
        &format!("{overall:.1}% vs the paper's ≥95% Nimitz-class study"),
    );
    exit_on_failed_verdict();
}
