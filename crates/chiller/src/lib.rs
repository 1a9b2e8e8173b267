//! # mpros-chiller
//!
//! Physics-flavoured simulator of the shipboard centrifugal chilled-water
//! plant MPROS monitors.
//!
//! The paper prototypes CBM on the chilled-water system because "these A/C
//! systems combine several rotating machinery equipment types (i.e.
//! induction motors, gear transmissions, pumps, and centrifugal
//! compressors) with a fluid power cycle to form a complex system" (§2).
//! The real plant, its seeded-fault rigs and shipboard data are
//! unavailable, so this crate provides the substitute documented in
//! DESIGN.md: a machine train with textbook rotating-machinery kinematics
//! ([`machine`]), a library of the twelve FMEA failure modes with
//! progressive degradation profiles ([`fault`]), a vibration-waveform
//! synthesizer that injects each fault's canonical spectral signature
//! ([`vibration`]), a refrigeration-cycle process-variable model
//! ([`process`]), and a scriptable plant that ties them together behind a
//! sampling API shaped like the DC's acquisition hardware ([`plant`],
//! [`scenario`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
mod kernels;
pub mod machine;
pub mod plant;
pub mod process;
pub mod scenario;
pub mod transient;
pub mod vibration;

pub use fault::{FaultProfile, FaultSeed, FaultState};
pub use machine::{BearingGeometry, MachineTrain, RotatingElement};
pub use plant::{ChillerPlant, PlantConfig};
pub use process::ProcessSnapshot;
pub use scenario::{Scenario, ScenarioEvent};
pub use transient::StartupSynthesizer;
pub use vibration::VibrationSynthesizer;
