//! # mpros-oosm
//!
//! The Object-Oriented Ship Model (§4 of the paper): "a persistent
//! repository for machinery state information used for communication
//! between the various prognostic and diagnostic software modules...
//! Entities in the OOSM are modeled as objects with properties and
//! relationships to other entities... Common relationships include
//! 'part-of', whole and refers-to."
//!
//! Three layers, mirroring the paper's architecture:
//!
//! * [`tables`] — the persistence substrate, standing in for the NT/ADO
//!   database of §4.7: the four tables of §4.6's mapping (objects,
//!   properties, relationships and reports), each a vector of typed rows
//!   with only the maps its queries read beside it, written in the
//!   relational byte format of earlier versions.
//! * [`model`] — the object API of §4.4: create/retrieve objects, read
//!   and update properties, add and traverse relationships. "Save for
//!   retrieving the first object in a connected graph of objects, no
//!   understanding of the persistence mechanism is necessary."
//! * [`events`] + report repository ([`reports`]) — the §4.5 event
//!   model: "client programs to be notified of changes to property or
//!   relationship values without the need to poll." Events are built
//!   only while a subscription is open. The PDME's knowledge fusion
//!   takes each report straight from the ingest pass that posted it
//!   rather than from a subscription.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod events;
pub mod model;
pub mod reports;
pub mod tables;

pub use events::{OosmEvent, Subscription};
pub use model::{ObjectKind, Oosm, Relation};

pub use tables::{Tables, Value};
