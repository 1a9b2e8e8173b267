//! Pipeline stages and span timing.
//!
//! MPROS processes every condition report through a fixed pipeline
//! (Fig. 1): the DC acquires a survey, runs the FFT and the algorithm
//! suites, emits reports onto the ship network, and the PDME ingests,
//! posts to the OOSM, and fuses. [`Stage`] names those hops; each stage
//! records two distributions — wall-clock seconds (how expensive the
//! stage is on the host) and simulated seconds (how long the stage takes
//! in scenario time, meaningful for bus transit and end-to-end latency).

use std::fmt;
use std::time::{Duration, Instant};

/// A hop of the acquisition → fusion pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sensor/MUX acquisition of a vibration survey.
    Acquire,
    /// FFT + spectral feature extraction.
    Fft,
    /// DLI vibration expert system pass.
    Dli,
    /// SBFR model-based reasoning cycle.
    Sbfr,
    /// Wavelet neural network classification pass.
    Wnn,
    /// Fuzzy-logic process analysis pass.
    Fuzzy,
    /// Report assembly and emission from the DC.
    Emit,
    /// Ship-network transit (simulated seconds dominate here).
    BusTransit,
    /// PDME message ingest (simulated seconds are end-to-end report
    /// latency: emission timestamp → ingest).
    PdmeIngest,
    /// OOSM report posting.
    OosmPost,
    /// Knowledge-fusion update.
    Fusion,
    /// One DC's whole per-tick step (command handling + scheduled
    /// analyses), as executed by the scatter-gather engine — the unit
    /// of work parallel mode spreads across threads.
    DcStep,
    /// One gateway query served against a published state snapshot
    /// (decode request → serve → encode response).
    GatewayServe,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 13] = [
        Stage::Acquire,
        Stage::Fft,
        Stage::Dli,
        Stage::Sbfr,
        Stage::Wnn,
        Stage::Fuzzy,
        Stage::Emit,
        Stage::BusTransit,
        Stage::PdmeIngest,
        Stage::OosmPost,
        Stage::Fusion,
        Stage::DcStep,
        Stage::GatewayServe,
    ];

    /// Stable snake_case name (used in metric keys and JSON snapshots).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Acquire => "acquire",
            Stage::Fft => "fft",
            Stage::Dli => "dli",
            Stage::Sbfr => "sbfr",
            Stage::Wnn => "wnn",
            Stage::Fuzzy => "fuzzy",
            Stage::Emit => "emit",
            Stage::BusTransit => "bus_transit",
            Stage::PdmeIngest => "pdme_ingest",
            Stage::OosmPost => "oosm_post",
            Stage::Fusion => "fusion",
            Stage::DcStep => "dc_step",
            Stage::GatewayServe => "gateway_serve",
        }
    }

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A started wall-clock measurement. Cheap to create; read it with
/// [`WallTimer::elapsed`] and hand the duration to
/// `Telemetry::record_span_wall`.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    started: Instant,
}

impl WallTimer {
    /// Start timing now.
    pub fn start() -> Self {
        WallTimer {
            started: Instant::now(),
        }
    }

    /// Wall time since [`WallTimer::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(seen.insert(s.as_str()), "duplicate name {s}");
        }
    }

    #[test]
    fn wall_timer_is_monotone() {
        let t = WallTimer::start();
        let a = t.elapsed();
        let b = t.elapsed();
        assert!(b >= a);
    }
}
