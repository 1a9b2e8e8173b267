//! # mpros-fleet — the sharded multi-ship plane
//!
//! One [`Fleet`] owns N independent single-ship simulations
//! ([`mpros_ship::sim::ShipboardSim`]) as shards: each ship gets its own
//! splitmix64-derived master seed, its own durable WAL store, its own
//! fault plan and its own serving gateway, so shards share *nothing* —
//! which is exactly what makes fleet-level determinism cheap to prove.
//! A [`FleetGateway`] routes wire-v6 traffic: single-ship gateway
//! requests route to shard 0 for compatibility, fleet requests answer
//! from a versioned [`FleetSnapshot`] holding every
//! ship's pinned serving snapshot plus a fleet-wide knowledge rollup —
//! worst-status-wins machine census, conservative-envelope prognostic
//! fusion across ships (the paper's §5.4 rule, one level up), a fleet
//! SLO verdict and summed sim-domain counters.
//!
//! ## Determinism contract
//!
//! Every fleet response is a pure function of `(fleet version,
//! request)`. Ships derive their seeds from the fleet master seed and
//! their ship id alone (never their position in a stepping schedule),
//! so a ship's served bytes are byte-identical across
//! `Sequential`/`Parallel{2,4,8}` execution *within* the ship, across
//! any shard-stepping interleaving *between* ships, and across fleet
//! sizes — ship 0 serves the same bytes whether it sails alone or in an
//! eight-ship fleet. A crashed shard degrades to `shard_unavailable` in
//! the rollup while the other shards keep serving unchanged bytes.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod client;
mod fleet;
mod proto;
mod server;
mod snapshot;

pub use client::{FleetClient, FleetDeltaBatch, RollupReport};
pub use fleet::{Fleet, FleetConfig, SHIP_STREAM_SALT};
pub use proto::{
    decode_fleet_request, decode_fleet_response, encode_fleet_request, encode_fleet_response,
    FleetRequest, FleetResponse, ShipDelta, ShipInfo,
};
pub use server::FleetGateway;
pub use snapshot::{
    FleetMachine, FleetPrognostic, FleetRollup, FleetSloVerdict, FleetSnapshot, ShipEntry,
};
