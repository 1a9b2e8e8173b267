//! Outside-in MPROS benchmark.
//!
//! ```text
//! perfbench --workload <ship8_survey|pdme_fanin128|fleet4x32_served>
//!           --seed <n> --seconds <s> --trace <0|1> [--size smoke] [--git-rev <rev>]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up (construction plus
//! one untimed warm-up step), runs a fixed number of steps, checks the
//! outputs, and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` is a separate run that times every
//! call the benchmark makes into a layer and reports the per-layer
//! ledger. `--seconds` sizes the run: the step count is the seconds
//! times a fixed nominal rate per workload, so the work done never
//! depends on how fast the host happens to be. See `NOTES.md`.

mod fanin;
mod fleet;
mod measure;
mod ship8;

use measure::Outcome;
use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("step_p50_s", "s"),
    ("step_p90_s", "s"),
    ("reports_per_s", "reports/s"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// whose call a workload's traced run does not make reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dc.step_s", "s"),
    ("chiller.synth_s", "s"),
    ("signal.extract_s", "s"),
    ("dli.diagnose_s", "s"),
    ("network.s", "s"),
    ("pdme.ingest_s", "s"),
    ("pdme.ingest_us_per_report", "us"),
    ("oosm.post_us_per_report", "us"),
    ("fusion.ingest_us_per_report", "us"),
    ("fusion.failed_reports", "count"),
    ("pdme.supervise_s", "s"),
    ("store.snapshot_s", "s"),
    ("store.wal_appends", "count"),
    ("store.wal_bytes", "bytes"),
    ("telemetry.slo_s", "s"),
    ("telemetry.recorder_s", "s"),
    ("ship.step_s", "s"),
    ("gateway.snapshot_build_s", "s"),
    ("fleet.publish_s", "s"),
    ("fleet.serve_p50_s.list_ships", "s"),
    ("fleet.serve_p50_s.rollup", "s"),
    ("fleet.serve_p50_s.ship_icas", "s"),
    ("fleet.serve_p50_s.for_ship", "s"),
    ("fleet.serve_p50_s.subscribe", "s"),
    ("fleet.codec_p50_s", "s"),
    ("fleet.req_p50_s", "s"),
    ("fleet.req_p90_s", "s"),
    ("loadgen.late_p99_s", "s"),
    ("loadgen.late_max_s", "s"),
    ("loadgen.requests", "count"),
    ("ship.unattributed_share", "ratio"),
    ("pdme.unattributed_share", "ratio"),
    ("fleet.unattributed_share", "ratio"),
    ("bench.step_wall_s", "s"),
    ("bench.fail_share", "ratio"),
    ("bench.runq_wait_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Run size. `Full` is what the benchmark measures; `Smoke` is the tiny
/// size the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub git_rev: String,
}

impl Args {
    /// Steps for a run: `--seconds` times the workload's nominal rate,
    /// at least `floor` (the smoke size uses `smoke`).
    pub fn steps(&self, nominal_per_s: f64, floor: usize, smoke: usize) -> usize {
        match self.size {
            Size::Smoke => smoke,
            Size::Full => ((self.seconds * nominal_per_s).round() as usize).max(floor),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(key.to_string(), value);
    }
    let get = |k: &str| raw.get(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        size: match raw.get("size").map(String::as_str) {
            None | Some("full") => Size::Full,
            Some("smoke") => Size::Smoke,
            Some(other) => return Err(format!("--size must be full or smoke, not {other}")),
        },
        git_rev: raw
            .get("git-rev")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    // Read before any thread is pinned to a CPU.
    measure::nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "ship8_survey" => ship8::run(&args),
        "pdme_fanin128" => fanin::run(&args),
        "fleet4x32_served" => fleet::run(&args),
        other => Err(mpros::core::Error::invalid(format!(
            "unknown workload {other}"
        ))),
    };
    let (mut outcome, values) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for name in values.keys() {
        assert!(
            wanted.iter().any(|(n, _)| n == name),
            "workload produced undeclared metric {name}"
        );
    }
    for &(name, unit) in wanted {
        outcome.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    println!(
        "# run: workload={} seed={} trace={} size={:?} nproc={} cpu=\"{}\" git={}",
        args.workload,
        args.seed,
        args.trace as u8,
        args.size,
        measure::nproc(),
        measure::cpu_model(),
        args.git_rev
    );
    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", outcome.result_line());
}

/// What a workload hands back: the outcome (checks, counts, notes) and
/// its metric values by name.
pub type RunResult = mpros::core::Result<(Outcome, BTreeMap<&'static str, f64>)>;
