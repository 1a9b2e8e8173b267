//! E3 — §5.4 worked examples of prognostic fusion, plus the ablation
//! comparing the paper's conservative envelope against a naive
//! pointwise-average combiner.

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_core::{PrognosticVector, SimDuration};
use mpros_fusion::fuse_prognostics;

fn p_at(v: &PrognosticVector, months: f64) -> f64 {
    v.probability_at(SimDuration::from_months(months)).value()
}

/// The naive alternative: average of the curves wherever both exist.
fn average_fusion(a: &PrognosticVector, b: &PrognosticVector, months: f64) -> f64 {
    (p_at(a, months) + p_at(b, months)) / 2.0
}

fn main() {
    println!("E3: prognostic knowledge fusion (§5.4)\n");
    let first =
        PrognosticVector::from_months(&[(3.0, 0.01), (4.0, 0.5), (5.0, 0.99)]).expect("valid");
    let weak = PrognosticVector::from_months(&[(4.5, 0.12)]).expect("valid");
    let strong = PrognosticVector::from_months(&[(4.5, 0.95)]).expect("valid");

    // Case 1: the weak report is ignored.
    let fused_weak = fuse_prognostics(&[first.clone(), weak]).expect("fusable");
    let mut t = Table::new(&[
        "months",
        "first report",
        "fused (weak 2nd)",
        "fused (strong 2nd)",
    ]);
    let fused_strong = fuse_prognostics(&[first.clone(), strong]).expect("fusable");
    for m in [3.0, 3.5, 4.0, 4.25, 4.5, 4.75, 5.0] {
        t.row(&[
            format!("{m:.2}"),
            format!("{:.3}", p_at(&first, m)),
            format!("{:.3}", p_at(&fused_weak, m)),
            format!("{:.3}", p_at(&fused_strong, m)),
        ]);
    }
    print!("{}", t.render());

    let weak_ignored = [3.0, 3.7, 4.2, 4.5, 4.9, 5.0, 5.5]
        .iter()
        .all(|&m| (p_at(&fused_weak, m) - p_at(&first, m)).abs() < 1e-9);
    verdict(
        "E3.1 weak report ignored",
        weak_ignored,
        "fused curve identical to the more conservative first report",
    );

    let h90_first = first
        .horizon_for_probability(0.9)
        .expect("reaches 90%")
        .as_months();
    let h90_strong = fused_strong
        .horizon_for_probability(0.9)
        .expect("reaches 90%")
        .as_months();
    verdict(
        "E3.2 strong report dominates",
        p_at(&fused_strong, 4.5) == 0.95 && h90_strong < h90_first,
        &format!(
            "90% point moves from {h90_first:.2} to {h90_strong:.2} months — 'an even earlier demise'"
        ),
    );

    // Ablation: averaging is anti-conservative exactly where it matters.
    println!("\nablation: conservative envelope vs naive average");
    let strong2 = PrognosticVector::from_months(&[(4.5, 0.95)]).expect("valid");
    let mut t = Table::new(&["months", "envelope", "average", "under-warning"]);
    let mut worst: f64 = 0.0;
    for m in [4.0, 4.25, 4.5, 4.75, 5.0] {
        let env = p_at(&fused_strong, m);
        let avg = average_fusion(&first, &strong2, m);
        worst = worst.max(env - avg);
        t.row(&[
            format!("{m:.2}"),
            format!("{env:.3}"),
            format!("{avg:.3}"),
            format!("{:.3}", env - avg),
        ]);
    }
    print!("{}", t.render());
    verdict(
        "E3.3 averaging ablation",
        worst > 0.1,
        &format!(
            "averaging under-warns by up to {worst:.3} failure probability — the paper's \
             most-conservative rule avoids that"
        ),
    );
    exit_on_failed_verdict();
}
