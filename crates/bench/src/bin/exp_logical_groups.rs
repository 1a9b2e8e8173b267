//! E8 — §5.3 logical-group ablation. The paper's argument: running
//! Dempster–Shafer over the whole failure catalog "assumes mutual
//! exclusivity of failures ... However this is not the case in CBM,
//! there can, in fact, be several failures at one time." Logical groups
//! fix that. This experiment quantifies it: two genuinely concurrent
//! faults (different groups) are fed as alternating evidence to (a) the
//! grouped engine and (b) a flat single-frame engine over all 12
//! conditions.

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_core::MachineCondition;
use mpros_core::MachineId;
use mpros_fusion::{DiagnosticFusion, MassFunction, Subset};

/// Flat ablation: one frame over the full 12-condition catalog (+Θ
/// handled by simple support), evidence as singleton supports.
struct FlatEngine {
    mass: MassFunction,
    conflict: f64,
}

impl FlatEngine {
    fn new() -> Self {
        FlatEngine {
            mass: MassFunction::vacuous(13).expect("12 conditions + other"),
            conflict: 0.0,
        }
    }

    fn ingest(&mut self, condition: MachineCondition, belief: f64) {
        let support = MassFunction::simple_support(
            13,
            Subset::singleton(condition.index()),
            belief.min(0.999),
        )
        .expect("valid support");
        let (fused, k) = self.mass.combine(&support).expect("combinable");
        self.mass = fused;
        self.conflict += k;
    }

    fn belief(&self, condition: MachineCondition) -> f64 {
        self.mass.belief(Subset::singleton(condition.index()))
    }
}

fn main() {
    println!("E8: logical groups vs one flat frame (§5.3)\n");
    // Two concurrent, independent faults: a bearing defect and a
    // refrigerant leak. Each gets 4 reports of belief 0.6, interleaved.
    let bearing = MachineCondition::MotorBearingDefect;
    let leak = MachineCondition::RefrigerantLeak;
    let machine = MachineId::new(1);

    let mut grouped = DiagnosticFusion::new();
    let mut flat = FlatEngine::new();
    let mut t = Table::new(&[
        "after report",
        "grouped: bearing",
        "grouped: leak",
        "flat: bearing",
        "flat: leak",
        "flat conflict",
    ]);
    let mut step = 0;
    for _ in 0..4 {
        for &(c, b) in &[(bearing, 0.6), (leak, 0.6)] {
            step += 1;
            grouped
                .ingest(
                    &mpros_core::ConditionReport::builder(machine, c, mpros_core::Belief::new(b))
                        .build(),
                )
                .expect("ingestible");
            flat.ingest(c, b);
            t.row(&[
                format!("#{step} ({c})"),
                format!("{:.2}", grouped.belief(machine, bearing)),
                format!("{:.2}", grouped.belief(machine, leak)),
                format!("{:.2}", flat.belief(bearing)),
                format!("{:.2}", flat.belief(leak)),
                format!("{:.2}", flat.conflict),
            ]);
        }
    }
    print!("{}", t.render());

    let gb = grouped.belief(machine, bearing);
    let gl = grouped.belief(machine, leak);
    let fb = flat.belief(bearing);
    let fl = flat.belief(leak);
    println!("\ngrouped final: bearing {gb:.3}, leak {gl:.3} — both high, independent frames");
    println!(
        "flat final   : bearing {fb:.3}, leak {fl:.3} — mutual exclusivity forces the two \
         real faults to fight over one unit of mass (conflict normalized out: {:.2})",
        flat.conflict
    );

    verdict(
        "E8.1 grouped engine tracks both faults",
        gb > 0.9 && gl > 0.9,
        &format!("bearing {gb:.2}, leak {gl:.2}"),
    );
    verdict(
        "E8.2 flat frame suppresses concurrent faults",
        fb.max(fl) < 0.6 && flat.conflict > 0.5,
        &format!(
            "flat beliefs capped at {:.2}/{:.2} with conflict {:.2} — the failure mode \
             the paper's heuristic avoids",
            fb, fl, flat.conflict
        ),
    );
    exit_on_failed_verdict();
}
