//! E12 — §4.5: the OOSM event model lets clients be "notified of
//! changes to property or relationship values without the need to
//! poll". Measures the latency of posting a full report (object, typed
//! `reports` row, `refers-to` relation and event fan-out) and of one
//! property change delivered to 1, 4 and 16 subscribers, and checks that
//! every event is already queued when the call that caused it returns.

use mpros_bench::{exit_on_failed_verdict, verdict, Table};
use mpros_core::{Belief, ConditionReport, MachineCondition, MachineId, ReportId};
use mpros_oosm::{ObjectKind, Oosm, OosmEvent, Value};
use std::time::Instant;

const WARMUP: u64 = 1_000;
const TIMED: u64 = 10_000;

/// The `q` quantile of an ascending sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    println!("E12: OOSM events without polling (§4.5)\n");

    // Report posting, with one subscriber draining after every post.
    let mut oosm = Oosm::new();
    oosm.register_machine(MachineId::new(1), "motor");
    let kf = oosm.subscribe();
    let mut post_us = Vec::with_capacity(TIMED as usize);
    let mut pushed = 0u64;
    for i in 1..=WARMUP + TIMED {
        let report = ConditionReport::builder(
            MachineId::new(1),
            MachineCondition::MotorImbalance,
            Belief::new(0.5),
        )
        .id(ReportId::new(i))
        .build();
        let start = Instant::now();
        oosm.post_report(&report).expect("postable");
        let elapsed = start.elapsed();
        if i > WARMUP {
            post_us.push(elapsed.as_secs_f64() * 1e6);
        }
        let posted = kf
            .drain()
            .into_iter()
            .filter(|e| matches!(e, OosmEvent::ReportPosted { report, .. } if report.id == ReportId::new(i)))
            .count();
        pushed += posted as u64;
    }
    post_us.sort_by(f64::total_cmp);

    // Property-change fan-out: one change, then every subscriber drains.
    let mut t = Table::new(&["operation", "subscribers", "p50 (µs)", "p99 (µs)"]);
    t.row(&[
        "post_report".into(),
        "1".into(),
        format!("{:.2}", quantile(&post_us, 0.5)),
        format!("{:.2}", quantile(&post_us, 0.99)),
    ]);
    let mut fanout_exact = true;
    for subs in [1usize, 4, 16] {
        let mut oosm = Oosm::new();
        let subscriptions: Vec<_> = (0..subs).map(|_| oosm.subscribe()).collect();
        let obj = oosm.create_object(ObjectKind::Machine, "m");
        for s in &subscriptions {
            s.drain();
        }
        let mut fan_us = Vec::with_capacity(TIMED as usize);
        for i in 1..=(WARMUP + TIMED) as i64 {
            let start = Instant::now();
            oosm.set_property(obj, "rpm", Value::Int(i))
                .expect("settable");
            let drained: Vec<_> = subscriptions.iter().map(|s| s.drain()).collect();
            let elapsed = start.elapsed();
            if i > WARMUP as i64 {
                fan_us.push(elapsed.as_secs_f64() * 1e6);
            }
            fanout_exact &= drained.iter().all(|events| {
                matches!(events.as_slice(), [OosmEvent::PropertyChanged { value: Value::Int(v), .. }] if *v == i)
            });
        }
        fan_us.sort_by(f64::total_cmp);
        t.row(&[
            "set_property + drain".into(),
            subs.to_string(),
            format!("{:.2}", quantile(&fan_us, 0.5)),
            format!("{:.2}", quantile(&fan_us, 0.99)),
        ]);
    }
    print!("{}", t.render());

    verdict(
        "E12.1 report events are pushed, not polled",
        pushed == WARMUP + TIMED,
        &format!(
            "{pushed} of {} posts had their ReportPosted event queued when post_report returned",
            WARMUP + TIMED
        ),
    );
    verdict(
        "E12.2 every subscriber sees every change once",
        fanout_exact,
        "1, 4 and 16 subscribers each drained exactly one PropertyChanged per change, in order",
    );
    let p50 = quantile(&post_us, 0.5);
    verdict(
        "E12.3 posting a report is microseconds-scale",
        p50 < 1_000.0,
        &format!("post_report p50 {p50:.2} µs over {TIMED} posts"),
    );
    exit_on_failed_verdict();
}
