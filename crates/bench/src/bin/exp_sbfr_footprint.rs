//! E4 — §6.3 embeddability claims: "The sizes of the current spike
//! machine (Machine 0) and the stiction machine (Machine 1) are
//! respectively 229 and 93 bytes. The interpreter ... is about 2000
//! bytes long... 100 state machines operating in parallel and their
//! interpreter can fit in less than 32K bytes ... can cycle with a
//! period of less than 4 milliseconds."

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_sbfr::builtin::{spike_machine, stiction_machine, EmaTraceGenerator};
use mpros_sbfr::Interpreter;
use std::time::Instant;

fn main() {
    println!("E4: SBFR footprint and cycle period (§6.3, Fig. 3)\n");
    let spike_len = spike_machine(0).encoded_len().expect("valid machine");
    let stiction_len = stiction_machine(1, 0).encoded_len().expect("valid machine");

    let mut fleet = Interpreter::new();
    for i in 0..50u8 {
        fleet
            .add_program(&spike_machine(i * 2))
            .expect("valid machine");
        fleet
            .add_program(&stiction_machine(i * 2 + 1, i * 2))
            .expect("valid machine");
    }
    let fleet_bytes = fleet.total_image_bytes();

    // Warm up, then time cycles over a realistic input trace.
    let trace = EmaTraceGenerator::with_stiction(3, 0.6).generate(20_000);
    for s in trace.iter().take(1_000) {
        fleet.cycle(&s[..]);
    }
    let start = Instant::now();
    let timed = 10_000;
    for s in trace.iter().skip(1_000).take(timed) {
        fleet.cycle(&s[..]);
    }
    let per_cycle_ms = start.elapsed().as_secs_f64() * 1_000.0 / timed as f64;

    let mut t = Table::new(&["claim", "paper", "measured"]);
    t.row(&[
        "spike machine image".into(),
        "229 B".into(),
        format!("{spike_len} B"),
    ]);
    t.row(&[
        "stiction machine image".into(),
        "93 B".into(),
        format!("{stiction_len} B"),
    ]);
    t.row(&[
        "100 machines + interpreter".into(),
        "< 32768 B".into(),
        format!("{fleet_bytes} B images (+ ~2000 B interpreter in the paper)"),
    ]);
    t.row(&[
        "cycle period, 100 machines".into(),
        "< 4 ms".into(),
        format!("{per_cycle_ms:.4} ms"),
    ]);
    print!("{}", t.render());

    verdict(
        "E4.1 machine images in the paper's regime",
        (100..=300).contains(&spike_len) && (60..=220).contains(&stiction_len),
        "same order as 229/93 B (different instruction encoding)",
    );
    verdict(
        "E4.2 100-machine budget",
        fleet_bytes + 2_000 < 32 * 1024,
        &format!("{} B total against the 32 KB budget", fleet_bytes + 2_000),
    );
    verdict(
        "E4.3 cycle period",
        per_cycle_ms < 4.0,
        &format!("{per_cycle_ms:.4} ms per 100-machine cycle (1999 target: <4 ms)"),
    );
    exit_on_failed_verdict();
}
