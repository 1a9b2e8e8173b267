//! # mpros-pdme
//!
//! The Prognostic/Diagnostic Monitoring Engine (§3.1): "the logical
//! center of the MPROS system. Diagnostic and prognostic conclusions are
//! collected from DC-resident algorithms as well as PDME-resident
//! algorithms. Fusion of conflicting and reinforcing source conclusions
//! is performed to form a prioritized list for the use of maintenance
//! personnel."
//!
//! The executive ([`executive`]) implements the §5.1 control flow
//! literally: incoming reports are posted in the OOSM; knowledge fusion
//! then fuses exactly the reports that pass posted; fused conclusions
//! are posted back and rendered. PDME-resident algorithms (§5.7) plug in through
//! [`executive::ResidentAlgorithm`]; the Fig. 2 user-interface view is
//! rendered by [`browser`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The §10.1 future directions are implemented as extensions: multi-
//! level health rollup over the ship model ([`health`]) and spatial/
//! flow correlators as resident algorithms ([`resident`]).

pub mod browser;
pub mod executive;
pub mod health;
pub mod historian;
pub mod icas;
pub mod journal;
pub mod resident;
pub mod supervisor;

pub use executive::{
    fused_belief_key, BatchAck, IngestSummary, PdmeExecutive, ResidentAlgorithm, Revision,
};
pub use health::{health_of, HealthReport};
pub use historian::{Historian, MaintenanceRecord, Outcome};
pub use icas::{export_snapshot, IcasSnapshot};
pub use journal::PdmeWalRecord;
pub use resident::{FlowCorrelator, SpatialCorrelator};
pub use supervisor::{Assignment, Supervisor};
