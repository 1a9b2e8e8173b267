//! # mpros-dc
//!
//! The Data Concentrator (§5.8, §8.1): "a computer in its own right
//! \[with\] the major responsibility for diagnostics and prognostics."
//!
//! * [`hw`] — the acquisition hardware model: two 16×4 MUX cards (32
//!   channels, 24 accelerometer-capable), a 4-channel spectrum-analyzer
//!   card sampling above 40 kHz, and per-channel latching RMS alarm
//!   detectors, per the Fig. 5 block diagram.
//! * [`scheduler`] — "The DC software is coordinated by an event
//!   scheduler. It coordinates standard vibration test\[s\] ... wavelet and
//!   neural network testing and analysis, and state based feature
//!   recognition routines"; on-demand tests can be commanded remotely.
//! * [`db`] — the embedded database (§5.8): the latest measurement
//!   summaries and diagnostic results, in fixed-size windows.
//! * [`dc`] — the concentrator itself, hosting the four §1.1 algorithm
//!   suites (DLI, SBFR, WNN, fuzzy logic) and emitting §7.2 condition
//!   reports for the PDME.
//! * [`workspace`] — the survey-sized working memory a ship lends each
//!   DC for the length of its survey, so a DC holds none between surveys.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod db;
pub mod dc;
pub mod hw;
pub mod scheduler;
pub mod workspace;

pub use db::DcDatabase;
pub use dc::{DataConcentrator, DcConfig};
pub use hw::{AcquisitionChain, ChannelConfig, HwConfig, SensorFault};
pub use scheduler::{Scheduler, Task};
pub use workspace::SurveyWorkspace;
