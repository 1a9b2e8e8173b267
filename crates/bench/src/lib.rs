//! Shared experiment infrastructure.
//!
//! The paper's claims are asserted by `tests/paper_claims.rs`, one test
//! per experiment of EXPERIMENTS.md, each printing its paper-vs-measured
//! table. The `exp_throughput` and `exp_serving` binaries measure the
//! E7/E11 wall-clock rates that `perf_gate` judges. This library holds
//! the common pieces: aligned table rendering, the labeled survey
//! generator the accuracy tests share, the pass/fail verdict line the
//! binaries print, and (in [`scenario`]) the seeded E7/E11 scenarios
//! that `tests/fingerprints.rs` pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mpros_chiller::fault::{FaultProfile, FaultSeed, FaultState};
use mpros_chiller::vibration::{AccelLocation, VibrationSynthesizer};
use mpros_chiller::MachineTrain;
use mpros_core::{MachineCondition, MachineId, SimDuration, SimTime};
use mpros_dli::VibrationSurvey;
use std::sync::atomic::{AtomicBool, Ordering};

pub mod scenario;

/// A plain-text table with aligned columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

static VERDICT_FAILED: AtomicBool = AtomicBool::new(false);

/// Print a pass/fail verdict line in the uniform experiment format. A
/// failed verdict makes [`exit_on_failed_verdict`] exit non-zero.
pub fn verdict(label: &str, ok: bool, detail: &str) {
    if !ok {
        VERDICT_FAILED.store(true, Ordering::Relaxed);
    }
    println!("[{}] {label}: {detail}", if ok { "PASS" } else { "FAIL" });
}

/// Exit with status 1 if any [`verdict`] so far failed. Each binary
/// that prints verdicts calls this after its last one, so a `[FAIL]`
/// line fails the script that ran it.
pub fn exit_on_failed_verdict() {
    if VERDICT_FAILED.load(Ordering::Relaxed) {
        std::process::exit(1);
    }
}

/// Quantile `q` of an ascending-sorted sample by nearest rank; 0 for an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Generate one labeled five-channel survey with a single seeded fault
/// (or none) at the given severity / load / noise seed — the shared
/// corpus generator of the accuracy tests.
pub fn labeled_survey(
    condition: Option<MachineCondition>,
    severity: f64,
    load: f64,
    seed: u64,
    block_len: usize,
) -> VibrationSurvey {
    let train = MachineTrain::navy_chiller(MachineId::new(1));
    let synth = VibrationSynthesizer::new(train.clone(), seed);
    let mut faults = FaultState::healthy();
    if let Some(c) = condition {
        faults.seed(FaultSeed {
            condition: c,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(severity),
        });
    }
    let fs = 16_384.0;
    let t0 = SimTime::from_secs(100.0 + seed as f64);
    let blocks = AccelLocation::ALL
        .iter()
        .map(|&loc| {
            (
                loc,
                synth.sample_block(loc, t0, block_len, fs, load, &faults),
            )
        })
        .collect();
    VibrationSurvey {
        train,
        load,
        sample_rate: fs,
        blocks,
    }
}

/// The vibration-diagnosable conditions (the DLI rule set's coverage).
pub fn dli_conditions() -> Vec<MachineCondition> {
    use MachineCondition::*;
    vec![
        MotorImbalance,
        MotorMisalignment,
        MotorBearingDefect,
        CompressorBearingDefect,
        MotorRotorBarCrack,
        GearToothWear,
        BearingHousingLooseness,
        CompressorSurge,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_checks_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn labeled_survey_shapes() {
        let s = labeled_survey(Some(MachineCondition::MotorImbalance), 0.8, 0.9, 1, 4096);
        assert_eq!(s.blocks.len(), 5);
        assert_eq!(s.blocks[0].1.len(), 4096);
        assert_eq!(s.load, 0.9);
    }
}
