//! # mpros-network
//!
//! The ship-network substrate. In the paper, "communication among the
//! DC's and the PDME is done using DCOM" (§1.1) — a transport detail we
//! replace (see DESIGN.md) with a simulated ship LAN: a framed,
//! self-describing wire format ([`codec`]) and a latency/jitter/loss/
//! partition-injecting message bus driven by simulated time ([`bus`]).
//! §4.9 motivates the failure injection: "power supply and
//! communications are stable in our labs but may not be the same on
//! board the ships. Simulating the range of problems that may arise will
//! let us improve robustness."

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod codec;
pub mod outbox;

pub use bus::{Endpoint, Envelope, NetStats, NetworkConfig, ShipNetwork};
pub use codec::{
    decode, decode_message, encode, encode_into, encode_message, BatchEntry, Family, NetMessage,
    Tag, Wire, MAX_BATCH, WIRE_VERSION,
};
