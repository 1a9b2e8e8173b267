//! # mpros-gateway
//!
//! The serving layer: a request/response query server exposing
//! PDME/OOSM/ICAS state to many concurrent clients without ever
//! blocking the simulation's control thread.
//!
//! The paper's PDME exists to *serve* condition state — "results from
//! hundreds of DCs per ship will be correlated ... \[at\] the PDME"
//! (§8.1), consumed by ICAS consoles and maintenance personnel
//! fleet-wide — yet method calls on `PdmeExecutive` only work
//! in-process. This crate closes that gap with three pieces:
//!
//! * [`snapshot`] — [`snapshot::ServingSnapshot`]: a versioned,
//!   immutable, epoch-stamped view of the fused state (ICAS document,
//!   prognostic curves, SLO verdict, the sim-domain series that
//!   `mpros-telemetry` lists straight from its registry) built once per
//!   sim step on the control thread and published by pointer swap.
//!   Readers never contend with the publisher beyond an `Arc` clone
//!   under a briefly held read lock.
//! * [`proto`] — the framed query protocol. Same wire discipline as
//!   `mpros-network` (magic, version byte, type tag, length-prefixed
//!   JSON payload, one generic codec), with its own request and
//!   response families in the one tag table, so a gateway frame can
//!   never be confused with ship-network traffic.
//! * [`serving`] — the [`serving::ServingCore`] shared with the fleet
//!   router: Arc-swap publisher, per-session oldest-drop delta queues,
//!   and the instrumented decode → serve → encode path.
//! * [`server`] / [`client`] — the single-ship [`server::Gateway`] on
//!   that core, and the [`client::GatewayClient`] that speaks the
//!   framed protocol against it.
//!
//! Responses are a pure function of `(snapshot version, request)`:
//! serving never reads live engine state, only the published immutable
//! snapshot, which is what makes gateway responses byte-identical
//! across sequential and parallel execution (see
//! `tests/gateway_serving.rs` at the workspace root).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;
pub mod serving;
pub mod snapshot;

pub use client::{DeltaBatch, GatewayClient, JournalPage, MetricsReport};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, DeltaKind, GatewayRequest,
    GatewayResponse, StatusDelta, GATEWAY_SCHEMA_VERSION,
};
pub use server::Gateway;
pub use serving::{Published, ServingCore};
pub use snapshot::{PrognosticEntry, ServingSnapshot};
