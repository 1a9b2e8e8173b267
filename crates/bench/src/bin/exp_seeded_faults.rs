//! E10 — §9 validation by seeded faults: "Seeded faults are worth
//! doing." For every failure mode, seed a progressive fault, run the
//! full MPROS stack, and measure detection time (first PDME-fused
//! conclusion above belief 0.3), the ground-truth severity at that
//! moment, and the fused prognostic curve at two later checkpoints.
//!
//! Note on time scales: the campaign compresses a whole degradation
//! into 20 simulated minutes, while the §6.1 grade templates speak
//! calendar time ("failure in months/weeks/days"). Absolute TTF values
//! therefore cannot match the compressed clock; what must hold — and is
//! checked — is that prognoses appear once grades leave Slight and that
//! the estimated median time-to-failure *shrinks* as the fault
//! progresses (urgency monotonicity). A healthy control run counts
//! false alarms.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{MachineCondition, SimDuration, SimTime};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros_bench::{exit_on_failed_verdict, verdict, Table};

struct Outcome {
    condition: MachineCondition,
    detected_at: Option<SimTime>,
    severity_at_detection: f64,
    /// Fused median TTF at 60 % and at 95 % of the horizon.
    ttf_mid: Option<SimDuration>,
    ttf_late: Option<SimDuration>,
}

fn median_ttf(sim: &ShipboardSim, condition: MachineCondition) -> Option<SimDuration> {
    sim.pdme()
        .maintenance_list()
        .iter()
        .find(|i| i.condition == condition)
        .and_then(|i| i.median_time_to_failure)
}

fn run_mode(condition: MachineCondition) -> Outcome {
    let horizon = SimDuration::from_minutes(20.0);
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(23)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    let onset = SimTime::ZERO + SimDuration::from_minutes(1.0);
    sim.seed_fault(
        0,
        FaultSeed {
            condition,
            onset,
            time_to_failure: horizon,
            profile: FaultProfile::EarlyOnset,
        },
    );

    let dt = SimDuration::from_secs(0.25);
    let total = onset + horizon;
    let mid_checkpoint = onset + horizon * 0.6;
    let late_checkpoint = onset + horizon * 0.95;
    let mut detected_at = None;
    let mut severity_at_detection = 0.0;
    let mut ttf_mid = None;
    let mut ttf_late = None;
    while sim.now() < total {
        sim.step(dt).expect("step");
        if detected_at.is_none() {
            if let Some(item) = sim
                .pdme()
                .maintenance_list()
                .iter()
                .find(|i| i.condition == condition && i.belief > 0.3)
            {
                detected_at = Some(sim.now());
                severity_at_detection = sim.plant(0).faults().severity(condition, sim.now());
                let _ = item;
            }
        }
        if ttf_mid.is_none() && sim.now() >= mid_checkpoint {
            ttf_mid = median_ttf(&sim, condition);
        }
        if ttf_late.is_none() && sim.now() >= late_checkpoint {
            ttf_late = median_ttf(&sim, condition);
        }
    }
    Outcome {
        condition,
        detected_at,
        severity_at_detection,
        ttf_mid,
        ttf_late,
    }
}

fn main() {
    println!("E10: seeded-fault validation campaign (§9)\n");
    let mut t = Table::new(&[
        "failure mode",
        "detected",
        "gt severity @ detect",
        "median TTF @60%",
        "median TTF @95%",
    ]);
    let mut detected_count = 0usize;
    let mut early_detections = 0usize;
    let mut with_prognosis = 0usize;
    let mut urgency_monotone = 0usize;
    for condition in MachineCondition::ALL {
        let o = run_mode(condition);
        if o.detected_at.is_some() {
            detected_count += 1;
            if o.severity_at_detection < 0.95 {
                early_detections += 1;
            }
        }
        if o.ttf_late.is_some() {
            with_prognosis += 1;
        }
        if let (Some(mid), Some(late)) = (o.ttf_mid, o.ttf_late) {
            if late <= mid {
                urgency_monotone += 1;
            }
        } else if o.ttf_late.is_some() {
            // Appeared only late: urgency went from "none" to "some".
            urgency_monotone += 1;
        }
        t.row(&[
            o.condition.to_string(),
            o.detected_at
                .map(|d| d.to_string())
                .unwrap_or_else(|| "MISSED".into()),
            format!("{:.2}", o.severity_at_detection),
            o.ttf_mid
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            o.ttf_late
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    print!("{}", t.render());

    // Healthy control.
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(29)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    sim.run_for(
        SimDuration::from_minutes(10.0),
        SimDuration::from_secs(0.25),
    )
    .expect("runs");
    let false_alarms = sim.pdme().maintenance_list().len();

    println!();
    verdict(
        "E10.1 detection coverage",
        detected_count == 12,
        &format!("{detected_count}/12 modes detected before functional failure"),
    );
    verdict(
        "E10.2 detections are early",
        early_detections >= 10,
        &format!("{early_detections}/{detected_count} detected below severity 0.95"),
    );
    verdict(
        "E10.3 prognoses appear and grow more urgent",
        with_prognosis >= 9 && urgency_monotone >= with_prognosis - 1,
        &format!(
            "{with_prognosis}/12 modes carried a fused prognosis by 95% of life; \
             urgency monotone for {urgency_monotone} of them"
        ),
    );
    verdict(
        "E10.4 healthy control stays clean",
        false_alarms == 0,
        &format!("{false_alarms} false alarms over 10 healthy minutes"),
    );
    exit_on_failed_verdict();
}
