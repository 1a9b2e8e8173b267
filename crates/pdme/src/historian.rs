//! The maintenance historian (§9, §10.1).
//!
//! "Honeywell, York, DLI, NRL, and WM Engineering have archives of
//! maintenance data that we will take full advantage of in constructing
//! our prognostic and diagnostic models" (§9); §10.1 wants hazard/
//! survival techniques to "scrutinize history data to refine the
//! estimates of life-cycle performance."
//!
//! [`Historian`] is that archive: it records maintenance outcomes
//! (failures found, diagnoses reversed, component replacements with
//! their service lives) and feeds the learning loops —
//! believability-style review statistics per condition and Weibull life
//! models per condition for hazard-refined prognostics.

use mpros_core::{Durable, Error, MachineCondition, MachineId, Result, SimDuration, SimTime};
use mpros_fusion::{Lifetime, WeibullFit};
use std::collections::HashMap;

/// One maintenance action outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The diagnosed condition was confirmed on teardown.
    Confirmed,
    /// The diagnosis was reversed (nothing found / different fault).
    Reversed,
}

/// One entry in the maintenance archive.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenanceRecord {
    /// When the maintenance action closed.
    pub at: SimTime,
    /// The machine serviced.
    pub machine: MachineId,
    /// The condition the system had diagnosed.
    pub condition: MachineCondition,
    /// Teardown outcome.
    pub outcome: Outcome,
    /// Service life of the replaced component, if one was replaced.
    pub service_life: Option<SimDuration>,
}

/// Review statistics for one condition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConditionStats {
    /// Confirmed diagnoses.
    pub confirmed: usize,
    /// Reversed diagnoses.
    pub reversed: usize,
}

impl ConditionStats {
    /// Empirical believability with Laplace smoothing (matches the DLI
    /// reversal-statistics semantics of §6.1).
    pub fn believability(self) -> f64 {
        (self.confirmed as f64 + 1.0) / ((self.confirmed + self.reversed) as f64 + 2.0)
    }
}

/// The maintenance archive.
#[derive(Debug, Default)]
pub struct Historian {
    records: Vec<MaintenanceRecord>,
    /// Units still in service: (machine, condition-class) → in-service
    /// since. Used to contribute censored lifetimes.
    in_service: HashMap<(MachineId, MachineCondition), SimTime>,
}

impl Historian {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a component class went into service (installation or
    /// replacement) on a machine.
    pub fn component_installed(
        &mut self,
        machine: MachineId,
        condition: MachineCondition,
        at: SimTime,
    ) {
        self.in_service.insert((machine, condition), at);
    }

    /// Record a closed maintenance action. If a component was replaced,
    /// the service clock for that (machine, condition) restarts at `at`.
    pub fn record(&mut self, record: MaintenanceRecord) {
        if record.service_life.is_some() {
            self.in_service
                .insert((record.machine, record.condition), record.at);
        }
        self.records.push(record);
    }

    /// Number of archived records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Review statistics per condition (the believability feed).
    pub fn stats(&self, condition: MachineCondition) -> ConditionStats {
        let mut s = ConditionStats::default();
        for r in self.records.iter().filter(|r| r.condition == condition) {
            match r.outcome {
                Outcome::Confirmed => s.confirmed += 1,
                Outcome::Reversed => s.reversed += 1,
            }
        }
        s
    }

    /// The lifetime data for one condition class: failures from archived
    /// service lives, plus censored observations for units still in
    /// service at `now`.
    pub fn lifetimes(&self, condition: MachineCondition, now: SimTime) -> Vec<Lifetime> {
        let mut out: Vec<Lifetime> = self
            .records
            .iter()
            .filter(|r| r.condition == condition)
            .filter_map(|r| r.service_life)
            .filter(|d| d.as_secs() > 0.0)
            .map(|d| Lifetime::failure(d.as_secs() / 3_600.0)) // hours
            .collect();
        for ((_, c), &since) in &self.in_service {
            if *c == condition {
                let hours = now.since(since).as_secs() / 3_600.0;
                if hours > 0.0 {
                    out.push(Lifetime::censored(hours));
                }
            }
        }
        out
    }

    /// Fit a Weibull life model for a condition class from the archive
    /// (§10.1's hazard refinement feed). Fails when the archive holds
    /// fewer than two failures for the class.
    pub fn life_model(&self, condition: MachineCondition, now: SimTime) -> Result<WeibullFit> {
        WeibullFit::fit(&self.lifetimes(condition, now))
    }
}

impl Durable for Outcome {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Outcome::Confirmed => 0,
            Outcome::Reversed => 1,
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        match u8::decode(input)? {
            0 => Ok(Outcome::Confirmed),
            1 => Ok(Outcome::Reversed),
            t => Err(Error::invalid(format!("durable outcome: bad tag {t}"))),
        }
    }
}

impl Durable for MaintenanceRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.machine.encode(out);
        self.condition.encode(out);
        self.outcome.encode(out);
        self.service_life.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(MaintenanceRecord {
            at: SimTime::decode(input)?,
            machine: MachineId::decode(input)?,
            condition: MachineCondition::decode(input)?,
            outcome: Outcome::decode(input)?,
            service_life: Option::<SimDuration>::decode(input)?,
        })
    }
}

/// Wire form: the archive in arrival order (record order matters to
/// nothing today, but a byte-identical restore must not invent one),
/// then the in-service clocks in the keyed-map encoding.
impl Durable for Historian {
    fn encode(&self, out: &mut Vec<u8>) {
        self.records.encode(out);
        self.in_service.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self> {
        Ok(Historian {
            records: Vec::decode(input)?,
            in_service: HashMap::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        at_h: f64,
        machine: u64,
        condition: MachineCondition,
        outcome: Outcome,
        life_h: Option<f64>,
    ) -> MaintenanceRecord {
        MaintenanceRecord {
            at: SimTime::from_secs(at_h * 3_600.0),
            machine: MachineId::new(machine),
            condition,
            outcome,
            service_life: life_h.map(SimDuration::from_hours),
        }
    }

    #[test]
    fn stats_accumulate_per_condition() {
        let mut h = Historian::new();
        let c = MachineCondition::MotorBearingDefect;
        h.record(record(1.0, 1, c, Outcome::Confirmed, Some(5_000.0)));
        h.record(record(2.0, 2, c, Outcome::Confirmed, Some(6_000.0)));
        h.record(record(3.0, 3, c, Outcome::Reversed, None));
        h.record(record(
            4.0,
            1,
            MachineCondition::GearToothWear,
            Outcome::Confirmed,
            None,
        ));
        let s = h.stats(c);
        assert_eq!((s.confirmed, s.reversed), (2, 1));
        assert!(s.believability() > 0.5);
        assert_eq!(
            h.stats(MachineCondition::CompressorSurge),
            ConditionStats::default()
        );
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn lifetimes_mix_failures_and_censoring() {
        let mut h = Historian::new();
        let c = MachineCondition::MotorBearingDefect;
        h.record(record(1.0, 1, c, Outcome::Confirmed, Some(4_000.0)));
        h.component_installed(MachineId::new(2), c, SimTime::ZERO);
        let now = SimTime::from_secs(2_500.0 * 3_600.0);
        let lives = h.lifetimes(c, now);
        assert_eq!(
            lives.len(),
            3,
            "failure + 2 in-service (m1 replaced, m2 fresh)"
        );
        assert_eq!(lives.iter().filter(|l| l.failed).count(), 1);
        let censored: Vec<f64> = lives.iter().filter(|l| !l.failed).map(|l| l.time).collect();
        assert!(censored.contains(&2_500.0));
    }

    #[test]
    fn life_model_fits_from_the_archive() {
        let mut h = Historian::new();
        let c = MachineCondition::MotorBearingDefect;
        // Deterministic Weibull(2, 8000 h) service lives.
        for i in 1..=30 {
            let u = i as f64 / 31.0;
            let life = 8_000.0 * (-(1.0 - u).ln()).sqrt();
            h.record(record(
                100.0 * i as f64,
                i as u64,
                c,
                Outcome::Confirmed,
                Some(life),
            ));
        }
        // `now` just after the last replacement: the freshly installed
        // components contribute short censored lives (0–2900 h), which
        // is the realistic archive shape.
        let now = SimTime::from_secs(3_000.0 * 3_600.0);
        let fit = h.life_model(c, now).unwrap();
        assert!((fit.shape - 2.0).abs() < 0.5, "shape {}", fit.shape);
        assert!(
            (fit.scale - 8_000.0).abs() / 8_000.0 < 0.25,
            "scale {}",
            fit.scale
        );
        // Too little data for another class.
        assert!(h
            .life_model(MachineCondition::GearToothWear, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn durable_roundtrip_preserves_archive_and_clocks() {
        let mut h = Historian::new();
        let c = MachineCondition::MotorBearingDefect;
        h.component_installed(MachineId::new(2), c, SimTime::ZERO);
        h.record(record(1.0, 1, c, Outcome::Confirmed, Some(4_000.0)));
        h.record(record(2.0, 3, c, Outcome::Reversed, None));
        let bytes = h.to_durable_bytes();
        let back = Historian::from_durable_bytes(&bytes).unwrap();
        assert_eq!(back.to_durable_bytes(), bytes, "canonical encoding");
        assert_eq!(back.len(), h.len());
        assert_eq!(back.stats(c), h.stats(c));
        let now = SimTime::from_secs(2_500.0 * 3_600.0);
        let sorted = |hist: &Historian| {
            let mut v = hist.lifetimes(c, now);
            v.sort_by(|a, b| (a.failed, a.time).partial_cmp(&(b.failed, b.time)).unwrap());
            v
        };
        assert_eq!(sorted(&back), sorted(&h));
    }

    #[test]
    fn replacement_restarts_the_service_clock() {
        let mut h = Historian::new();
        let c = MachineCondition::CompressorBearingDefect;
        h.component_installed(MachineId::new(1), c, SimTime::ZERO);
        // Replaced at t=1000 h after a 1000 h life.
        h.record(record(1_000.0, 1, c, Outcome::Confirmed, Some(1_000.0)));
        let now = SimTime::from_secs(1_400.0 * 3_600.0);
        let lives = h.lifetimes(c, now);
        let censored: Vec<f64> = lives.iter().filter(|l| !l.failed).map(|l| l.time).collect();
        assert_eq!(censored, vec![400.0], "clock restarted at replacement");
    }
}
