//! Exposition-format lint: a self-contained check that the Prometheus
//! text exposition the gateway serves actually obeys its own grammar —
//! `# TYPE` headers before samples, counters suffixed `_total`,
//! series sorted within each kind, no duplicates — and that the
//! validator is not vacuously agreeable: corrupted variants of the
//! *real* served text (a duplicated series, a swapped pair of lines, a
//! headerless sample) must all be rejected.
//!
//! Exits non-zero on the first violation; ci.sh runs it after the
//! serving bench.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::gateway::GatewayClient;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::exposition;
use mpros_core::{MachineCondition, SimDuration, SimTime};

fn fail(msg: &str) -> ! {
    eprintln!("exposition_lint FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    // A short faulted run gives the exposition real series to render:
    // network counters, DC pipeline activity, sim-time histograms.
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(3)
            .with_seed(13)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(6.0),
            profile: FaultProfile::EarlyOnset,
        },
    );
    sim.run_for(SimDuration::from_minutes(2.0), SimDuration::from_secs(0.5))
        .expect("scenario runs");
    let gateway = sim.attach_gateway();
    let client = GatewayClient::connect(gateway, 1);

    let text = client.metrics().expect("GetMetrics serves").exposition;
    if text.is_empty() {
        fail("served exposition is empty");
    }

    // The real thing must validate.
    let stats = match exposition::validate(&text) {
        Ok(stats) => stats,
        Err(e) => fail(&format!("served exposition rejected: {e}")),
    };
    if stats.counters == 0 || stats.samples == 0 {
        fail(&format!(
            "vacuous exposition: {} counters, {} samples",
            stats.counters, stats.samples
        ));
    }

    // Corruption 1: duplicate a sample line — the duplicate-series
    // check must catch it.
    let lines: Vec<&str> = text.lines().collect();
    let sample_ix = lines
        .iter()
        .position(|l| !l.starts_with('#') && !l.is_empty())
        .unwrap_or_else(|| fail("no sample line to corrupt"));
    let mut dup = lines.clone();
    dup.insert(sample_ix, lines[sample_ix]);
    if exposition::validate(&dup.join("\n")).is_ok() {
        fail("duplicated series line was accepted");
    }

    // Corruption 2: swap two `# TYPE` blocks of the same kind — the
    // sorted-within-kind check must catch it.
    let headers: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("# TYPE") && l.ends_with("counter"))
        .map(|(i, _)| i)
        .collect();
    if headers.len() < 2 {
        fail("not enough counter blocks to test ordering");
    }
    let (a, b) = (headers[0], headers[1]);
    let mut swapped = lines.clone();
    swapped.swap(a, a + 1); // header of block A now follows its sample
    if exposition::validate(&swapped.join("\n")).is_ok() {
        fail("sample before its header was accepted");
    }
    let mut unsorted = lines.clone();
    unsorted.swap(a, b);
    unsorted.swap(a + 1, b + 1);
    if exposition::validate(&unsorted.join("\n")).is_ok() {
        fail("out-of-order series were accepted");
    }

    println!(
        "exposition_lint OK: {} bytes, {} counters / {} gauges / {} summaries, \
         {} samples; all corruptions rejected",
        text.len(),
        stats.counters,
        stats.gauges,
        stats.summaries,
        stats.samples
    );
}
