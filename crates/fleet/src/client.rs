//! The fleet client.
//!
//! Speaks framed wire-v6 against a shared [`FleetGateway`] handle:
//! every call encodes a fleet request frame, hands it to the router,
//! and decodes the fleet response frame — the same byte path a remote
//! fleet console would exercise over a socket, so tests and `mpros-top`
//! driving this client cover the full routing discipline, not an
//! in-process shortcut.

use crate::proto::{self, FleetRequest, FleetResponse, ShipDelta, ShipInfo};
use crate::server::FleetGateway;
use crate::snapshot::FleetRollup;
use mpros_core::{Error, Result};
use mpros_gateway::{GatewayRequest, GatewayResponse};
use mpros_network::Wire;
use mpros_pdme::IcasSnapshot;
use std::sync::Arc;

/// The drained result of one fleet subscription poll.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeltaBatch {
    /// Fleet snapshot version at poll time.
    pub fleet_version: u64,
    /// Deltas evicted by backpressure since the previous poll.
    pub dropped: u64,
    /// The surviving per-ship deltas, oldest first.
    pub deltas: Vec<ShipDelta>,
}

/// The result of one `GetFleetRollup` call.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupReport {
    /// Fleet snapshot version.
    pub fleet_version: u64,
    /// Simulated seconds of the fleet snapshot.
    pub at_secs: f64,
    /// The fleet-wide knowledge rollup.
    pub rollup: FleetRollup,
}

/// A connected fleet client: one session id against one fleet router.
#[derive(Debug, Clone)]
pub struct FleetClient {
    fleet: Arc<FleetGateway>,
    session: u64,
}

impl FleetClient {
    /// Connect to `fleet` under the caller-chosen `session` id. Fleet
    /// sessions are server-side state; two clients sharing an id share
    /// a delta queue.
    pub fn connect(fleet: Arc<FleetGateway>, session: u64) -> Self {
        FleetClient { fleet, session }
    }

    /// This client's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// One request/response exchange through the wire codec.
    pub fn call(&self, req: &FleetRequest) -> Result<FleetResponse> {
        let frame = proto::encode_fleet_request(req)?;
        let back = self.fleet.handle_frame(&frame)?;
        proto::decode_fleet_response(&back)
    }

    /// The published fleet snapshot's version (0 until the first
    /// publish).
    pub fn fleet_version(&self) -> u64 {
        self.fleet.version()
    }

    /// Every shard's id, availability and pinned snapshot version.
    pub fn ships(&self) -> Result<Vec<ShipInfo>> {
        match self.call(&FleetRequest::ListShips)? {
            FleetResponse::Ships { ships, .. } => Ok(ships),
            other => Err(unexpected("Ships", &other)),
        }
    }

    /// The fleet-wide knowledge rollup.
    pub fn rollup(&self) -> Result<RollupReport> {
        match self.call(&FleetRequest::GetFleetRollup)? {
            FleetResponse::FleetRollup {
                fleet_version,
                at_secs,
                rollup,
            } => Ok(RollupReport {
                fleet_version,
                at_secs,
                rollup,
            }),
            other => Err(unexpected("FleetRollup", &other)),
        }
    }

    /// One ship's pinned ICAS interchange document.
    pub fn ship_icas(&self, ship: u64) -> Result<IcasSnapshot> {
        match self.call(&FleetRequest::GetShipIcas { ship })? {
            FleetResponse::ShipIcas { icas, .. } => Ok(icas),
            FleetResponse::ShipUnavailable { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("ShipIcas", &other)),
        }
    }

    /// Register (idempotently) and drain this session's queued per-ship
    /// degraded/recovered deltas.
    pub fn poll_deltas(&self) -> Result<FleetDeltaBatch> {
        let req = FleetRequest::Subscribe {
            session: self.session,
        };
        match self.call(&req)? {
            FleetResponse::FleetDeltas {
                fleet_version,
                dropped,
                deltas,
                ..
            } => Ok(FleetDeltaBatch {
                fleet_version,
                dropped,
                deltas,
            }),
            other => Err(unexpected("FleetDeltas", &other)),
        }
    }

    /// Route a single-ship request to `ship`, served from the ship's
    /// snapshot as pinned in the current fleet snapshot.
    pub fn for_ship(&self, ship: u64, request: GatewayRequest) -> Result<GatewayResponse> {
        match self.call(&FleetRequest::ForShip { ship, request })? {
            FleetResponse::ShipReply { response, .. } => Ok(response),
            FleetResponse::ShipUnavailable { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("ShipReply", &other)),
        }
    }

    /// One ship's pinned sim-domain metrics (structured + exposition),
    /// routed through [`FleetClient::for_ship`].
    pub fn ship_metrics(&self, ship: u64) -> Result<GatewayResponse> {
        self.for_ship(ship, GatewayRequest::GetMetrics)
    }

    /// One page of one ship's journal tail, routed through
    /// [`FleetClient::for_ship`].
    pub fn ship_journal(&self, ship: u64, cursor: u64, max: u32) -> Result<GatewayResponse> {
        self.for_ship(ship, GatewayRequest::StreamJournal { cursor, max })
    }
}

fn unexpected(wanted: &str, got: &FleetResponse) -> Error {
    Error::Encoding(format!(
        "expected {wanted} response, got tag {}",
        got.type_tag()
    ))
}
