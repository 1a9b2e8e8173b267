//! Smoke mode: every workload at a tiny size, untraced and traced. Each
//! run must pass its own output checks, emit every metric
//! `BENCHMARK.json` declares with its unit, and keep the ledger
//! identity Σ direct layers + unattributed = step wall.

use serde_json::Value;
use std::process::Command;

/// Direct layers (summed into the step wall) and the unattributed share
/// metric of each workload's ledger.
const LEDGERS: &[(&str, &[&str], &str)] = &[
    (
        "ship8_survey",
        &[
            "dc.step_s",
            "network.s",
            "pdme.ingest_s",
            "pdme.supervise_s",
            "store.snapshot_s",
            "telemetry.slo_s",
            "telemetry.recorder_s",
        ],
        "ship.unattributed_share",
    ),
    (
        "pdme_fanin128",
        &[
            "network.s",
            "pdme.ingest_s",
            "pdme.supervise_s",
            "store.snapshot_s",
        ],
        "pdme.unattributed_share",
    ),
    (
        "fleet4x32_served",
        &["ship.step_s", "fleet.publish_s"],
        "fleet.unattributed_share",
    ),
];

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "smoke"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload} output checks failed:\n{stdout}"
    );
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    result
}

fn value(result: &Value, name: &str) -> f64 {
    result["metrics"][name]["value"]
        .as_f64()
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_emits_its_metrics_passes_its_checks_and_balances_its_ledger() {
    let declared = declared();
    for &(workload, direct, unattributed) in LEDGERS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            let metrics = result["metrics"].as_object().expect("metrics object");
            let wanted = declared[key].as_array().expect("metric list");
            assert_eq!(metrics.iter().count(), wanted.len(), "{workload} {key}");
            for m in wanted {
                let name = m["name"].as_str().expect("metric name");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}"));
                assert_eq!(got["unit"], m["unit"], "{workload} {name} unit");
                assert!(got["value"].as_f64().is_some_and(f64::is_finite));
            }
            if trace {
                let wall = value(&result, "bench.step_wall_s");
                let layers: f64 = direct.iter().map(|l| value(&result, l)).sum();
                let rest = value(&result, unattributed) * wall;
                assert!(wall > 0.0 && rest >= 0.0, "{workload}: layers exceed wall");
                assert!(
                    (layers + rest - wall).abs() <= 1e-9 * wall,
                    "{workload}: {layers} + {rest} != {wall}"
                );
            } else {
                assert!(value(&result, "steps_per_s") > 0.0);
            }
        }
    }
}
