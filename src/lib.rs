//! # MPROS — Machinery Prognostics and Diagnostics System
//!
//! Facade crate for the MPROS workspace, a Rust reproduction of
//! *"Condition-Based Maintenance: Algorithms and Applications for Embedded
//! High Performance Computing"* (Bennett & Hadden, IPPS 1999).
//!
//! Each subsystem lives in its own crate; this crate re-exports them under
//! stable module names and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! ```
//! use mpros::prelude::*;
//! use mpros::chiller::fault::{FaultProfile, FaultSeed};
//!
//! // One chiller + DC + PDME; seed a bearing defect and watch the
//! // prioritized maintenance list.
//! let mut sim = ShipboardSim::new(
//!     ShipboardSimConfig::new().with_survey_period(SimDuration::from_secs(30.0)),
//! ).unwrap();
//! sim.seed_fault(0, FaultSeed {
//!     condition: MachineCondition::MotorBearingDefect,
//!     onset: SimTime::ZERO,
//!     time_to_failure: SimDuration::from_minutes(10.0),
//!     profile: FaultProfile::EarlyOnset,
//! });
//! sim.run_for(SimDuration::from_minutes(4.0), SimDuration::from_secs(0.25)).unwrap();
//! let list = sim.pdme().maintenance_list();
//! assert_eq!(list[0].condition, MachineCondition::MotorBearingDefect);
//!
//! // Serve the fused state to concurrent clients over the framed
//! // gateway protocol (see `mpros::gateway`).
//! let handle = sim.attach_gateway();
//! let client = GatewayClient::connect(handle, 1);
//! assert!(!client.icas().unwrap().machines.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod prelude;

// The single-ship simulation (plant → DC → network → PDME loop) lives
// in `mpros-ship` so the fleet plane can shard it; the historical
// `mpros::sim` spelling is preserved here.
pub use mpros_ship::sim;

pub use mpros_chiller as chiller;
pub use mpros_core as core;
pub use mpros_dc as dc;
pub use mpros_dli as dli;
pub use mpros_fleet as fleet;
pub use mpros_fusion as fusion;
pub use mpros_fuzzy as fuzzy;
pub use mpros_gateway as gateway;
pub use mpros_network as network;
pub use mpros_oosm as oosm;
pub use mpros_pdme as pdme;
pub use mpros_sbfr as sbfr;
pub use mpros_ship as ship;
pub use mpros_signal as signal;
pub use mpros_store as store;
pub use mpros_telemetry as telemetry;
pub use mpros_wnn as wnn;
