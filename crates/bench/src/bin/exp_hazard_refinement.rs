//! §10.1 — hazard/survival refinement: "These approaches scrutinize
//! history data to refine the estimates of life-cycle performance for
//! failures. These refined inputs to the prognostic analysis would
//! yield better projections of future failures."
//!
//! A Weibull life model is fitted to a synthetic bearing-failure history
//! (wear-out, β≈2.6), rendered as an age-conditioned §5.4 prognostic
//! vector, and fused with a live diagnostic prognosis — showing how
//! fleet history sharpens a generic grade-template estimate.

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_core::{prognostic::grade_template, SeverityGrade, SimDuration};
use mpros_fusion::{fuse_prognostics, Lifetime, WeibullFit};

fn main() {
    println!("E-hazard: survival-analysis refinement of prognostics (§10.1)\n");

    // Fleet history: 60 bearing lives (hours), wear-out shaped, plus 20
    // still-running units — the "archives of maintenance data" of §9.
    let shape = 2.6;
    let scale = 8_000.0;
    let mut history: Vec<Lifetime> = (1..=60)
        .map(|i| {
            let u = i as f64 / 61.0;
            Lifetime::failure(scale * (-(1.0 - u).ln()).powf(1.0 / shape))
        })
        .collect();
    for _ in 0..20 {
        history.push(Lifetime::censored(6_500.0));
    }
    let fit = WeibullFit::fit(&history).expect("fittable");
    println!(
        "fitted Weibull: shape β = {:.2} (true 2.6), scale η = {:.0} h (true 8000), \
         median life {:.0} h",
        fit.shape,
        fit.scale,
        fit.median()
    );

    // Age-conditioning: the same fleet model, applied to a fresh unit
    // vs one run well past its design life (12 000 h on an 8 000 h
    // scale) — the case where fleet history says more than the live
    // severity grade does.
    let horizons = [250.0, 750.0, 1_500.0, 3_000.0, 6_000.0];
    let fresh = fit
        .prognostic_vector(0.0, &horizons, SimDuration::from_hours)
        .expect("valid");
    let aged = fit
        .prognostic_vector(12_000.0, &horizons, SimDuration::from_hours)
        .expect("valid");
    let mut t = Table::new(&["horizon (h)", "fresh unit P(fail)", "12000 h unit P(fail)"]);
    for &h in &horizons {
        t.row(&[
            format!("{h:.0}"),
            format!(
                "{:.3}",
                fresh.probability_at(SimDuration::from_hours(h)).value()
            ),
            format!(
                "{:.3}",
                aged.probability_at(SimDuration::from_hours(h)).value()
            ),
        ]);
    }
    print!("{}", t.render());

    // Refinement in action: a live Moderate-grade diagnosis (generic
    // template: failure in months) fused with the aged unit's survival
    // curve pulls the estimate earlier.
    let template = grade_template(SeverityGrade::Moderate);
    let fused = fuse_prognostics(&[template.clone(), aged.clone()]).expect("fusable");
    let med = |v: &mpros_core::PrognosticVector| {
        v.horizon_for_probability(0.5)
            .map(|d| d.as_days())
            .unwrap_or(f64::INFINITY)
    };
    println!(
        "\nmedian failure estimate: grade template {:.0} d, history-conditioned {:.1} d, \
         fused (conservative) {:.1} d",
        med(&template),
        med(&aged),
        med(&fused)
    );

    verdict(
        "E-hazard.1 MLE recovers the life model",
        (fit.shape - shape).abs() < 0.6 && (fit.scale - scale).abs() / scale < 0.1,
        &format!(
            "shape {:.2} (true {shape}), scale within 10% — heavy censoring at              6500 h biases the shape slightly up, as expected",
            fit.shape
        ),
    );
    let p_fresh = fresh
        .probability_at(SimDuration::from_hours(1_500.0))
        .value();
    let p_aged = aged
        .probability_at(SimDuration::from_hours(1_500.0))
        .value();
    verdict(
        "E-hazard.2 age-conditioning matters",
        p_aged > 5.0 * p_fresh,
        &format!("1500 h risk: aged {p_aged:.3} vs fresh {p_fresh:.3}"),
    );
    verdict(
        "E-hazard.3 history sharpens the fused prognosis",
        med(&fused) < med(&template),
        "the refined estimate is earlier (more conservative) than the generic grade",
    );
    exit_on_failed_verdict();
}
