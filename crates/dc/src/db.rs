//! The DC's embedded database (§5.8): a bounded window of recent
//! results.
//!
//! "The data concentrator is a open architecture ODBC compliant
//! relational database designed to store all of the instrumentation
//! configuration information, machinery configuration information, test
//! schedules, resultant measurements, diagnostic results, and condition
//! reports." The configuration and the test schedule live in the DC's
//! own [`HwConfig`](crate::HwConfig) and [`Scheduler`](crate::Scheduler);
//! condition reports go to the PDME, whose ship model keeps them. This
//! database holds the rest: measurement summaries and diagnostic
//! results.
//!
//! A DC runs for months at sea, so each kind of record is kept in a
//! ring of the latest 1,024, not in a table that grows with time. Once
//! a ring is full, the oldest record makes room for the newest and
//! recording allocates nothing. The counts are totals recorded since the
//! DC started; they keep growing while the window stays the same size.

use mpros_chiller::vibration::AccelLocation;
use mpros_core::{MachineCondition, SimTime};
use std::collections::VecDeque;

/// Records of each kind kept in the window.
const DB_WINDOW: usize = 1024;

/// Summary of one acquired measurement block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementRecord {
    /// Acquisition time.
    pub at: SimTime,
    /// The channel's accelerometer location.
    pub channel: AccelLocation,
    /// Block RMS, g.
    pub rms: f64,
    /// Block peak, g.
    pub peak: f64,
}

/// One stored diagnostic result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagnosisRecord {
    /// Diagnosis time.
    pub at: SimTime,
    /// Knowledge source label (`dli`, `sbfr`, `wnn` or `fuzzy`).
    pub source: &'static str,
    /// Condition (catalog index).
    pub condition: MachineCondition,
    /// Severity score.
    pub severity: f64,
    /// Belief.
    pub belief: f64,
}

/// The latest [`DB_WINDOW`] records of one kind, oldest first, and how
/// many were ever recorded.
#[derive(Debug)]
struct Window<T> {
    latest: VecDeque<T>,
    recorded: usize,
}

impl<T> Window<T> {
    fn new() -> Self {
        Window {
            latest: VecDeque::new(),
            recorded: 0,
        }
    }

    fn push(&mut self, record: T) {
        if self.latest.len() == DB_WINDOW {
            self.latest.pop_front();
        }
        self.latest.push_back(record);
        self.recorded += 1;
    }
}

/// The DC database.
#[derive(Debug)]
pub struct DcDatabase {
    measurements: Window<MeasurementRecord>,
    diagnoses: Window<DiagnosisRecord>,
}

impl Default for DcDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl DcDatabase {
    /// An empty database.
    pub fn new() -> Self {
        DcDatabase {
            measurements: Window::new(),
            diagnoses: Window::new(),
        }
    }

    /// Record a measurement summary.
    pub fn record_measurement(&mut self, rec: MeasurementRecord) {
        self.measurements.push(rec);
    }

    /// Record a diagnostic result.
    pub fn record_diagnosis(&mut self, rec: DiagnosisRecord) {
        self.diagnoses.push(rec);
    }

    /// Measurement summaries recorded so far, including those the window
    /// no longer holds.
    pub fn measurement_count(&self) -> usize {
        self.measurements.recorded
    }

    /// Diagnoses recorded so far, including those the window no longer
    /// holds.
    pub fn diagnosis_count(&self) -> usize {
        self.diagnoses.recorded
    }

    /// The diagnoses in the window recorded at or after `since`, in
    /// insertion order.
    pub fn diagnoses_since(&self, since: SimTime) -> Vec<DiagnosisRecord> {
        self.diagnoses
            .latest
            .iter()
            .filter(|d| d.at >= since)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(i: usize) -> MeasurementRecord {
        MeasurementRecord {
            at: SimTime::from_secs(i as f64),
            channel: AccelLocation::ALL[i % AccelLocation::ALL.len()],
            rms: 0.1,
            peak: 0.4,
        }
    }

    fn diagnosis(t: f64) -> DiagnosisRecord {
        DiagnosisRecord {
            at: SimTime::from_secs(t),
            source: "dli",
            condition: MachineCondition::GearToothWear,
            severity: 0.3,
            belief: 0.5,
        }
    }

    #[test]
    fn counts_start_zero() {
        let db = DcDatabase::new();
        assert_eq!(db.measurement_count(), 0);
        assert_eq!(db.diagnosis_count(), 0);
        assert!(db.diagnoses_since(SimTime::ZERO).is_empty());
    }

    #[test]
    fn records_roundtrip() {
        let mut db = DcDatabase::new();
        db.record_measurement(MeasurementRecord {
            at: SimTime::from_secs(1.0),
            channel: AccelLocation::MotorDriveEnd,
            rms: 0.12,
            peak: 0.4,
        });
        db.record_diagnosis(DiagnosisRecord {
            at: SimTime::from_secs(2.0),
            source: "dli",
            condition: MachineCondition::MotorImbalance,
            severity: 0.5,
            belief: 0.8,
        });
        assert_eq!(db.measurement_count(), 1);
        assert_eq!(db.diagnosis_count(), 1);
        let d = &db.diagnoses_since(SimTime::ZERO)[0];
        assert_eq!(d.condition, MachineCondition::MotorImbalance);
        assert_eq!(d.source, "dli");
    }

    #[test]
    fn diagnoses_since_filters_by_time() {
        let mut db = DcDatabase::new();
        for t in [1.0, 5.0, 9.0] {
            db.record_diagnosis(diagnosis(t));
        }
        assert_eq!(db.diagnoses_since(SimTime::from_secs(4.0)).len(), 2);
        assert_eq!(db.diagnoses_since(SimTime::from_secs(10.0)).len(), 0);
    }

    #[test]
    fn the_window_keeps_the_latest_records_in_order() {
        let k = 37;
        let mut db = DcDatabase::new();
        for i in 0..DB_WINDOW + k {
            db.record_measurement(measurement(i));
            db.record_diagnosis(diagnosis(i as f64));
        }
        assert_eq!(db.measurement_count(), DB_WINDOW + k);
        assert_eq!(db.diagnosis_count(), DB_WINDOW + k);
        let kept: Vec<MeasurementRecord> = db.measurements.latest.iter().copied().collect();
        let expected: Vec<MeasurementRecord> = (k..DB_WINDOW + k).map(measurement).collect();
        assert_eq!(kept, expected);
        let kept = db.diagnoses_since(SimTime::ZERO);
        let expected: Vec<DiagnosisRecord> =
            (k..DB_WINDOW + k).map(|i| diagnosis(i as f64)).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn diagnoses_since_reads_only_the_window() {
        let k = 10;
        let mut db = DcDatabase::new();
        for i in 0..DB_WINDOW + k {
            db.record_diagnosis(diagnosis(i as f64));
        }
        // Records 0..k have left the window: asking from t = 0 or from
        // t = k returns the same window.
        assert_eq!(db.diagnoses_since(SimTime::ZERO).len(), DB_WINDOW);
        assert_eq!(
            db.diagnoses_since(SimTime::from_secs(k as f64)).len(),
            DB_WINDOW
        );
        // Inside the window the filter still applies.
        let tail = db.diagnoses_since(SimTime::from_secs((DB_WINDOW + k - 3) as f64));
        let times: Vec<f64> = tail.iter().map(|d| d.at.as_secs()).collect();
        let last = (DB_WINDOW + k) as f64;
        assert_eq!(times, vec![last - 3.0, last - 2.0, last - 1.0]);
    }
}
