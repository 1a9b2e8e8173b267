//! E2 — §5.3 worked example: "given a belief of 40% that A will occur
//! and another belief of 75% that B or C will occur, it will conclude
//! that A is 14% likely, 'B or C' is 64% likely and there is 22% of
//! belief assigned to unknown possibilities."

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_fusion::{MassFunction, Subset};

fn main() {
    println!("E2: Dempster–Shafer worked example (§5.3)\n");
    let a = Subset::singleton(0);
    let bc = Subset::of(&[1, 2]);
    let m1 = MassFunction::simple_support(3, a, 0.40).expect("valid support");
    let m2 = MassFunction::simple_support(3, bc, 0.75).expect("valid support");
    let (fused, conflict) = m1.combine(&m2).expect("combinable");

    let mut t = Table::new(&["proposition", "paper", "measured"]);
    let rows = [
        ("A", 14.0, fused.mass(a) * 100.0),
        ("B or C", 64.0, fused.mass(bc) * 100.0),
        ("unknown (Θ)", 22.0, fused.unknown() * 100.0),
    ];
    for (name, paper, measured) in rows {
        t.row(&[
            name.to_string(),
            format!("{paper:.0}%"),
            format!("{measured:.1}%"),
        ]);
    }
    print!("{}", t.render());
    println!("\nnormalized conflict K = {conflict:.2} (expected 0.30)");

    let ok = (fused.mass(a) * 100.0 - 14.29).abs() < 0.01
        && (fused.mass(bc) * 100.0 - 64.29).abs() < 0.01
        && (fused.unknown() * 100.0 - 21.43).abs() < 0.01
        && (conflict - 0.30).abs() < 1e-12;
    verdict(
        "E2 dempster-shafer",
        ok,
        "exact fractions 1/7, 9/14, 3/14 — the paper rounds 21.4% up to 22%",
    );
    exit_on_failed_verdict();
}
