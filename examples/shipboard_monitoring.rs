//! End-to-end shipboard scenario (Fig. 1): two chillers, two Data
//! Concentrators, the ship network, and the PDME with knowledge fusion.
//! Chiller 1 develops a bearing defect and (independently) condenser
//! fouling; chiller 2 stays healthy.
//!
//! ```text
//! cargo run --release --example shipboard_monitoring
//! cargo run --release --example shipboard_monitoring -- --workers 4
//! cargo run --release --example shipboard_monitoring -- --crash-at-minute 7
//! ```
//!
//! `--workers N` steps the DCs on up to N scoped threads per tick;
//! without it they step inline. `--crash-at-minute M` kills the PDME
//! mid-cruise and rebuilds it from the durable store (latest snapshot +
//! WAL tail). Either way the output is identical — those equivalences
//! are the contracts `tests/parallel_determinism.rs` and
//! `tests/crash_restore.rs` enforce.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{FaultPlan, MachineCondition, MachineId, SimDuration, SimTime};
use mpros::pdme::browser;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros::wnn::{DatasetBuilder, TrainParams, WnnClassifier, WnnConfig};

fn main() -> mpros::core::Result<()> {
    let workers = std::env::args()
        .skip_while(|a| a != "--workers")
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let exec = if workers > 0 {
        println!("stepping DCs through {workers} pool workers\n");
        ExecMode::Parallel { workers }
    } else {
        ExecMode::Sequential
    };
    // `--crash-at-minute M` schedules a PdmeCrash fault window: the
    // engine is torn down at minute M and restored from the store
    // within the same simulated instant.
    let crash_at_minute = std::env::args()
        .skip_while(|a| a != "--crash-at-minute")
        .nth(1)
        .and_then(|v| v.parse::<f64>().ok());
    let fault_plan = match crash_at_minute {
        Some(m) => FaultPlan::none().with_pdme_crash(
            SimTime::from_secs(m * 60.0),
            SimTime::from_secs(m * 60.0 + 1.0),
        ),
        None => FaultPlan::none(),
    };
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(2)
            .with_seed(11)
            .with_survey_period(SimDuration::from_secs(60.0))
            .with_fault_plan(fault_plan)
            .with_exec(exec),
    )?;

    // Train the compact WNN classifier and attach it to both DCs so all
    // four knowledge sources (DLI, SBFR, WNN, fuzzy) are live.
    let wnn_config = WnnConfig::small_test();
    let dataset = DatasetBuilder::new(wnn_config.clone(), 2).build()?;
    let clf = WnnClassifier::train(
        wnn_config,
        &dataset,
        &TrainParams {
            epochs: 250,
            learning_rate: 0.02,
            ..Default::default()
        },
    )?;
    sim.dc_mut(0).attach_wnn(clf.clone());
    sim.dc_mut(1).attach_wnn(clf);

    // Chiller 1: a fast-developing bearing defect plus condenser fouling
    // (different logical groups — both must surface independently).
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::MotorBearingDefect,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(20.0),
            profile: FaultProfile::EarlyOnset,
        },
    );
    sim.seed_fault(
        0,
        FaultSeed {
            condition: MachineCondition::CondenserFouling,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_minutes(25.0),
            profile: FaultProfile::Linear,
        },
    );

    // Fifteen minutes of shipboard operation at 4 Hz DC cadence.
    let fused = sim.run_for(
        SimDuration::from_minutes(15.0),
        SimDuration::from_secs(0.25),
    )?;
    println!(
        "after 15 min: {} reports fused, network stats {:?}\n",
        fused,
        sim.network_mut().stats()
    );
    if let Some(m) = crash_at_minute {
        let replayed = sim
            .telemetry()
            .snapshot()
            .counter("store", "recovery_replayed");
        println!(
            "PDME crashed at minute {m} and was rebuilt from the durable store \
             ({replayed} WAL records replayed after the last snapshot);\n\
             every view below comes from the restored engine — byte-identical \
             to a run that never crashed.\n"
        );
    }

    // The Fig. 2 browser for each machine.
    print!("{}", browser::machine_view(sim.pdme(), MachineId::new(1)));
    println!();
    print!("{}", browser::machine_view(sim.pdme(), MachineId::new(2)));
    println!();
    print!("{}", browser::maintenance_view(sim.pdme()));

    // DC health from heartbeats.
    println!("\nDC health:");
    for (dc, alive) in sim
        .pdme()
        .dc_health(sim.now(), SimDuration::from_secs(30.0))
    {
        println!("  {dc}: {}", if alive { "alive" } else { "SILENT" });
    }

    // Ground truth vs fused conclusions.
    println!("\nground truth on chiller 1:");
    for (c, sev) in sim.plant(0).ground_truth(sim.now(), 0.05) {
        println!("  {c} at severity {sev:.2}");
    }

    // Ship-wide observability: per-stage spans, counters and the event
    // journal from the shared telemetry domain.
    println!("\n{}", sim.telemetry().render_dashboard());
    Ok(())
}
