//! Versioned JSON export of the telemetry state.
//!
//! Mirrors the `mpros-pdme::icas` interchange style: plain serde structs
//! with a `schema_version` field, rendered with `serde_json` so another
//! shipboard system (or a CI artifact consumer) can read the fleet's
//! observability state without linking against MPROS.

use crate::metrics::HistogramSummary;
use serde::{Deserialize, Serialize};

/// Telemetry interchange schema version.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// One counter reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Owning component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// One gauge reading.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Owning component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Owning component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Exact minimum (absent while empty).
    pub min: Option<f64>,
    /// Exact maximum (absent while empty).
    pub max: Option<f64>,
    /// Mean (absent while empty).
    pub mean: Option<f64>,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 95th percentile.
    pub p95: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

impl HistogramSnapshot {
    /// The summary `s` of the histogram `(component, name)`.
    pub fn new(component: String, name: String, s: HistogramSummary) -> Self {
        HistogramSnapshot {
            component,
            name,
            count: s.count,
            min: s.min,
            max: s.max,
            mean: s.mean,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
        }
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventSnapshot {
    /// Monotone sequence number.
    pub seq: u64,
    /// Simulated seconds the event was recorded at.
    pub at_secs: f64,
    /// Emitting component.
    pub component: String,
    /// Machine-readable kind.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl From<crate::Event> for EventSnapshot {
    fn from(e: crate::Event) -> Self {
        EventSnapshot {
            seq: e.seq,
            at_secs: e.at.as_secs(),
            component: e.component,
            kind: e.kind,
            detail: e.detail,
        }
    }
}

/// The full telemetry document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema version (see [`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Simulated seconds at snapshot time.
    pub at_secs: f64,
    /// Every registered counter, sorted by `(component, name)`.
    pub counters: Vec<CounterSnapshot>,
    /// Every registered gauge, sorted by `(component, name)`.
    pub gauges: Vec<GaugeSnapshot>,
    /// Every registered histogram, sorted by `(component, name)`.
    pub histograms: Vec<HistogramSnapshot>,
    /// Retained journal events, oldest first.
    pub events: Vec<EventSnapshot>,
    /// Journal events evicted to respect the ring capacity.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// The histogram named `(component, name)`, if present.
    pub fn histogram(&self, component: &str, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.component == component && h.name == name)
    }

    /// The counter value for `(component, name)`, 0 when absent.
    pub fn counter(&self, component: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.component == component && c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// The gauge value for `(component, name)`, if present.
    pub fn gauge(&self, component: &str, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.component == component && g.name == name)
            .map(|g| g.value)
    }

    /// Render as pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a document produced by [`TelemetrySnapshot::to_json`].
    /// Rejects documents from a different schema version.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let snap: TelemetrySnapshot = serde_json::from_str(s)?;
        if snap.schema_version != TELEMETRY_SCHEMA_VERSION {
            return Err(serde::DeError::custom(format!(
                "unsupported telemetry schema version {} (expected {})",
                snap.schema_version, TELEMETRY_SCHEMA_VERSION
            ))
            .into());
        }
        Ok(snap)
    }
}
