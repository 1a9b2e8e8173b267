//! The fleet router's query protocol (wire v6).
//!
//! Fleet frames ride the same header as everything else (`magic "MP" |
//! version u8 | type u8 | payload_len u32 LE | JSON payload`) through
//! the generic [`mpros_network::encode`] / [`mpros_network::decode`].
//! Their tags are the [`Family::FleetRequest`] and
//! [`Family::FleetResponse`] rows of the one [`mpros_network::Tag`]
//! table; each decoder rejects every other family's tags, so a
//! misrouted frame fails loudly instead of half-parsing.

use crate::snapshot::FleetRollup;
use mpros_core::Result;
use mpros_gateway::{GatewayRequest, GatewayResponse, StatusDelta};
use mpros_network::{decode, encode, Family, Tag, Wire};
use mpros_pdme::IcasSnapshot;
use serde::{Deserialize, Serialize};

/// A client request against the published fleet snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FleetRequest {
    /// Every shard's id, availability and pinned snapshot version.
    ListShips,
    /// The fleet-wide knowledge rollup.
    GetFleetRollup,
    /// One ship's pinned ICAS interchange document.
    GetShipIcas {
        /// Target ship id.
        ship: u64,
    },
    /// Register (idempotently) as a fleet-scoped subscriber and drain
    /// the session's queued per-ship status deltas.
    Subscribe {
        /// Caller-chosen session id.
        session: u64,
    },
    /// Route a single-ship gateway request to one shard, served from
    /// that ship's snapshot as pinned in the current fleet snapshot.
    ForShip {
        /// Target ship id.
        ship: u64,
        /// The inner single-ship request.
        request: GatewayRequest,
    },
}

impl Wire for FleetRequest {
    const FAMILY: Family = Family::FleetRequest;

    fn tag(&self) -> Tag {
        match self {
            FleetRequest::ListShips => Tag::ListShips,
            FleetRequest::GetFleetRollup => Tag::GetFleetRollup,
            FleetRequest::GetShipIcas { .. } => Tag::GetShipIcas,
            FleetRequest::Subscribe { .. } => Tag::FleetSubscribe,
            FleetRequest::ForShip { .. } => Tag::ForShip,
        }
    }
}

/// One row of a [`FleetResponse::Ships`] listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShipInfo {
    /// The shard's ship id.
    pub ship_id: u64,
    /// False while the shard is crashed/crash-restoring.
    pub available: bool,
    /// The ship's pinned serving-snapshot version.
    pub snapshot_version: u64,
    /// Simulated seconds of the pinned snapshot.
    pub at_secs: f64,
    /// Machines in the ship's ICAS document.
    pub machines: usize,
    /// The ship's own SLO verdict, if its watchdog has run.
    pub slo_pass: Option<bool>,
}

/// A queued fleet-scoped subscription event: one ship's machine changed
/// supervision status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShipDelta {
    /// The ship whose machine changed.
    pub ship_id: u64,
    /// Fleet version whose publication observed the edge.
    pub fleet_version: u64,
    /// The underlying single-ship delta.
    pub delta: StatusDelta,
}

/// A fleet router response. Every variant carries the fleet snapshot
/// version it was served from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FleetResponse {
    /// Answer to [`FleetRequest::ListShips`].
    Ships {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// One row per shard, ascending ship id.
        ships: Vec<ShipInfo>,
    },
    /// Answer to [`FleetRequest::GetFleetRollup`].
    FleetRollup {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// Simulated seconds of the fleet snapshot.
        at_secs: f64,
        /// The rollup.
        rollup: FleetRollup,
    },
    /// Answer to [`FleetRequest::GetShipIcas`].
    ShipIcas {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// The ship's pinned serving-snapshot version.
        snapshot_version: u64,
        /// The ship's ICAS interchange document.
        icas: IcasSnapshot,
    },
    /// Answer to [`FleetRequest::Subscribe`]: the session's queued
    /// per-ship deltas, oldest first.
    FleetDeltas {
        /// Fleet snapshot version at poll time.
        fleet_version: u64,
        /// The polling session.
        session: u64,
        /// Deltas evicted (oldest-drop) since the last poll.
        dropped: u64,
        /// The surviving deltas, oldest first.
        deltas: Vec<ShipDelta>,
    },
    /// The addressed shard is crashed/crash-restoring (or the ship id
    /// is unknown); the rest of the fleet keeps serving.
    ShipUnavailable {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// `shard_unavailable` or `unknown_ship`.
        detail: String,
    },
    /// Answer to [`FleetRequest::ForShip`]: the inner single-ship
    /// response, served from the ship's pinned snapshot.
    ShipReply {
        /// Fleet snapshot version.
        fleet_version: u64,
        /// The ship echoed back.
        ship: u64,
        /// The inner single-ship response.
        response: GatewayResponse,
    },
}

impl Wire for FleetResponse {
    const FAMILY: Family = Family::FleetResponse;

    fn tag(&self) -> Tag {
        match self {
            FleetResponse::Ships { .. } => Tag::Ships,
            FleetResponse::FleetRollup { .. } => Tag::FleetRollup,
            FleetResponse::ShipIcas { .. } => Tag::ShipIcas,
            FleetResponse::FleetDeltas { .. } => Tag::FleetDeltas,
            FleetResponse::ShipUnavailable { .. } => Tag::ShipUnavailable,
            FleetResponse::ShipReply { .. } => Tag::ShipReply,
        }
    }
}

impl FleetResponse {
    /// The fleet snapshot version stamped on the response.
    pub fn fleet_version(&self) -> u64 {
        match self {
            FleetResponse::Ships { fleet_version, .. }
            | FleetResponse::FleetRollup { fleet_version, .. }
            | FleetResponse::ShipIcas { fleet_version, .. }
            | FleetResponse::FleetDeltas { fleet_version, .. }
            | FleetResponse::ShipUnavailable { fleet_version, .. }
            | FleetResponse::ShipReply { fleet_version, .. } => *fleet_version,
        }
    }
}

/// Encode a fleet request into one wire frame.
pub fn encode_fleet_request(req: &FleetRequest) -> Result<Vec<u8>> {
    encode(req)
}

/// Decode one fleet request frame.
pub fn decode_fleet_request(frame: &[u8]) -> Result<FleetRequest> {
    decode(frame)
}

/// Encode a fleet response into one wire frame.
pub fn encode_fleet_response(resp: &FleetResponse) -> Result<Vec<u8>> {
    encode(resp)
}

/// Decode one fleet response frame.
pub fn decode_fleet_response(frame: &[u8]) -> Result<FleetResponse> {
    decode(frame)
}
