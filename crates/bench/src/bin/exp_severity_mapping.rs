//! E6 — §6.1: the numerical severity score maps to four gradient
//! categories, "Slight, Moderate, Serious and Extreme[, which]
//! correspond to expected lengths of time to failure described loosely
//! as: no foreseeable failure, failure in months, weeks, and days of
//! operation."

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_core::{prognostic::grade_template, Severity, SeverityGrade, TimeToFailure};

fn main() {
    println!("E6: severity grades and time-to-failure mapping (§6.1)\n");
    let mut t = Table::new(&[
        "severity score",
        "grade",
        "paper time-to-failure",
        "template median TTF",
    ]);
    for score in [0.05, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.95] {
        let s = Severity::new(score);
        let grade = s.grade();
        let template = grade_template(grade);
        let median = template
            .horizon_for_probability(0.5)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(&[
            format!("{score:.2}"),
            grade.to_string(),
            grade.time_to_failure().to_string(),
            median,
        ]);
    }
    print!("{}", t.render());

    // Structural checks: exactly the paper's four categories, in order,
    // with the stated TTF correspondence.
    let mapping_ok = SeverityGrade::ALL.iter().map(|g| g.time_to_failure()).eq([
        TimeToFailure::NoForeseeableFailure,
        TimeToFailure::Months,
        TimeToFailure::Weeks,
        TimeToFailure::Days,
    ]);
    verdict(
        "E6.1 four ordered grades",
        mapping_ok,
        "Slight→none, Moderate→months, Serious→weeks, Extreme→days",
    );
    let monotone = {
        let mut last = -1.0;
        let mut ok = true;
        for i in 0..=100 {
            let s = Severity::new(i as f64 / 100.0);
            let g = s.grade() as i64 as f64;
            if g < last {
                ok = false;
            }
            last = g;
        }
        ok
    };
    verdict("E6.2 grade is monotone in score", monotone, "0..=1 sweep");
    let horizons: Vec<f64> = [
        SeverityGrade::Moderate,
        SeverityGrade::Serious,
        SeverityGrade::Extreme,
    ]
    .iter()
    .map(|&g| {
        grade_template(g)
            .horizon_for_probability(0.5)
            .expect("template reaches 50%")
            .as_secs()
    })
    .collect();
    verdict(
        "E6.3 template horizons ordered months > weeks > days",
        horizons[0] > horizons[1] && horizons[1] > horizons[2],
        &format!(
            "{:.1} d > {:.1} d > {:.1} d",
            horizons[0] / 86_400.0,
            horizons[1] / 86_400.0,
            horizons[2] / 86_400.0
        ),
    );
    exit_on_failed_verdict();
}
