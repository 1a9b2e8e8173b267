//! The destructive chiller test (§9, §10): "Honeywell has donated a
//! surplus centrifugal chiller for use by the prognostics/diagnostics
//! community. We are in the process of assembling a test plan to take
//! full advantage of this opportunity."
//!
//! This example runs that test plan in simulation: every FMEA failure
//! mode is seeded in sequence across a compressed campaign while one
//! Data Concentrator watches, and the detection timeline is printed —
//! what the paper's team hoped to collect at York.
//!
//! ```text
//! cargo run --release --example destructive_test
//! ```

use mpros::chiller::scenario::Scenario;
use mpros::core::DcId;
use mpros::core::{MachineCondition, MachineId, SimDuration, SimTime};
use mpros::dc::{DataConcentrator, DcConfig};

fn main() -> mpros::core::Result<()> {
    // 12 failure modes over a 2-hour compressed campaign.
    let horizon = SimDuration::from_hours(2.0);
    let scenario = Scenario::destructive_test(horizon);
    let plant = scenario.build_plant(MachineId::new(1), 77);

    let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
    cfg.survey_period = SimDuration::from_secs(60.0);
    let mut dc = DataConcentrator::new(cfg)?;

    println!(
        "destructive test: {} events over {}, surveys every 60 s\n",
        scenario.events.len(),
        horizon
    );
    println!(
        "{:<12} {:<38} {:<10} source KS",
        "time", "first detection", "severity"
    );
    let mut detected: Vec<MachineCondition> = Vec::new();
    let dt = SimDuration::from_secs(0.5);
    let steps = (horizon.as_secs() / dt.as_secs()) as usize;
    for i in 0..steps {
        let now = SimTime::ZERO + dt * i as f64;
        for r in dc.step(&plant, now, &[])? {
            if !detected.contains(&r.condition) {
                detected.push(r.condition);
                println!(
                    "{:<12} {:<38} {:<10} {}",
                    now.to_string(),
                    r.condition.to_string(),
                    r.severity.to_string(),
                    r.knowledge_source
                );
            }
        }
    }
    println!(
        "\n{} of 12 modes detected during the campaign",
        detected.len()
    );
    println!(
        "alarm states at teardown: {:?}",
        dc.chain()
            .alarm_states()
            .iter()
            .filter(|(_, on)| *on)
            .count()
    );
    Ok(())
}
