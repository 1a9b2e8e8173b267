//! The fleet router: one gateway in front of N ship shards, on the same
//! [`ServingCore`] as the single-ship gateway (see
//! [`mpros_gateway::serving`] for the concurrency model).
//!
//! Routing rules (wire v6):
//!
//! * single-ship gateway requests ([`Family::GatewayRequest`] tags)
//!   route to **shard 0** for compatibility — a v5-era client pointed
//!   at the fleet router keeps working against the first ship,
//!   byte-for-byte, and while shard 0 is down it gets a gateway-family
//!   `NotFound { detail: "shard_unavailable" }` it can still decode;
//! * fleet requests are answered from the published [`FleetSnapshot`];
//!   [`FleetRequest::ForShip`] re-dispatches its inner request against
//!   the addressed ship's *pinned* snapshot;
//! * anything else is a bad frame.
//!
//! A crashed/crash-restoring shard answers `shard_unavailable` (and is
//! flagged in the rollup) while every other shard keeps serving.

use crate::proto::{FleetRequest, FleetResponse, ShipInfo};
use crate::snapshot::{FleetSnapshot, ShipEntry};
use mpros_core::Result;
use mpros_gateway::{encode_response, Gateway, GatewayResponse, ServingCore};
use mpros_network::{Family, Tag};
use mpros_telemetry::{Counter, Telemetry};
use std::sync::Arc;

/// Queued per-ship deltas a fleet session may hold before oldest-drop
/// eviction: larger than a single ship's 64, because one fleet session
/// watches every shard.
const SESSION_QUEUE_CAPACITY: usize = 256;

/// The fleet query router. Shared as `Arc<FleetGateway>`.
#[derive(Debug)]
pub struct FleetGateway {
    /// Publisher, fleet-scoped sessions and `fleet.*` request
    /// instruments, in the fleet's own telemetry domain — distinct from
    /// every ship's, so router load never perturbs a ship's
    /// deterministic serving surface.
    core: ServingCore<FleetSnapshot>,
    /// Per-shard ship gateways, indexed by ship id. Single-ship
    /// compatibility traffic goes straight to shard 0's gateway;
    /// `ForShip` requests serve against pinned snapshots through the
    /// addressed shard's gateway.
    shards: Vec<Arc<Gateway>>,
    routed_ship_requests: Arc<Counter>,
    unavailable_hits: Arc<Counter>,
}

impl FleetGateway {
    pub(crate) fn new(telemetry: &Telemetry, shards: Vec<Arc<Gateway>>) -> Self {
        let core = ServingCore::new(
            "fleet",
            SESSION_QUEUE_CAPACITY,
            None,
            telemetry,
            FleetSnapshot::empty(),
        );
        FleetGateway {
            core,
            shards,
            routed_ship_requests: telemetry.counter("fleet", "routed_ship_requests"),
            unavailable_hits: telemetry.counter("fleet", "unavailable_hits"),
        }
    }

    /// The currently published fleet snapshot (an `Arc` clone).
    pub fn snapshot(&self) -> Arc<FleetSnapshot> {
        self.core.snapshot()
    }

    /// The published fleet snapshot's version (0 until the first
    /// publish).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Registered fleet-scoped subscriber sessions.
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    /// Publish a freshly built fleet snapshot: fan every available
    /// ship's status deltas out to every fleet session (bounded queues,
    /// oldest-drop), then swap the snapshot in.
    pub fn publish(&self, snapshot: FleetSnapshot) {
        self.core.publish(snapshot);
    }

    /// Serve one fleet request against the current snapshot. Pure with
    /// respect to the snapshot (modulo `Subscribe`'s session drain).
    pub fn serve(&self, req: &FleetRequest) -> FleetResponse {
        self.serve_on(&self.snapshot(), req)
    }

    fn serve_on(&self, snap: &FleetSnapshot, req: &FleetRequest) -> FleetResponse {
        let fleet_version = snap.version;
        match req {
            FleetRequest::ListShips => FleetResponse::Ships {
                fleet_version,
                ships: snap
                    .ships
                    .iter()
                    .map(|s| ShipInfo {
                        ship_id: s.ship_id,
                        available: s.available,
                        snapshot_version: s.snapshot.version,
                        at_secs: s.snapshot.at_secs,
                        machines: s.snapshot.icas.machines.len(),
                        slo_pass: s.snapshot.slo.as_ref().map(|v| v.pass),
                    })
                    .collect(),
            },
            FleetRequest::GetFleetRollup => FleetResponse::FleetRollup {
                fleet_version,
                at_secs: snap.at_secs,
                rollup: snap.rollup(),
            },
            FleetRequest::GetShipIcas { ship } => match self.pinned(snap, *ship) {
                Ok((entry, _)) => FleetResponse::ShipIcas {
                    fleet_version,
                    ship: *ship,
                    snapshot_version: entry.snapshot.version,
                    icas: entry.snapshot.icas.clone(),
                },
                Err(detail) => FleetResponse::ShipUnavailable {
                    fleet_version,
                    ship: *ship,
                    detail: detail.into(),
                },
            },
            FleetRequest::Subscribe { session } => {
                let (dropped, deltas) = self.core.drain(*session);
                FleetResponse::FleetDeltas {
                    fleet_version,
                    session: *session,
                    dropped,
                    deltas,
                }
            }
            FleetRequest::ForShip { ship, request } => {
                self.routed_ship_requests.inc();
                match self.pinned(snap, *ship) {
                    Ok((entry, gateway)) => FleetResponse::ShipReply {
                        fleet_version,
                        ship: *ship,
                        response: gateway.serve_on(&entry.snapshot, request),
                    },
                    Err(detail) => FleetResponse::ShipUnavailable {
                        fleet_version,
                        ship: *ship,
                        detail: detail.into(),
                    },
                }
            }
        }
    }

    /// The pinned entry for `ship` and its shard's gateway, or why the
    /// ship cannot serve: `shard_unavailable` (crashed; counted in
    /// `fleet.unavailable_hits`) or `unknown_ship`.
    fn pinned<'a>(
        &'a self,
        snap: &'a FleetSnapshot,
        ship: u64,
    ) -> std::result::Result<(&'a ShipEntry, &'a Gateway), &'static str> {
        let entry = snap.ship(ship);
        let gateway = usize::try_from(ship).ok().and_then(|i| self.shards.get(i));
        match (entry, gateway) {
            (Some(entry), Some(gateway)) if entry.available => Ok((entry, gateway)),
            (Some(_), Some(_)) => {
                self.unavailable_hits.inc();
                Err("shard_unavailable")
            }
            _ => Err("unknown_ship"),
        }
    }

    /// Serve one framed request: decode, route, answer, encode.
    /// Thread-safe; the entry point client transports call
    /// concurrently.
    ///
    /// Single-ship request frames are forwarded to shard 0's gateway
    /// **unchanged** and its response frame returned as-is — the full
    /// v5 compatibility path. Fleet frames are served here. Everything
    /// else counts as `fleet.bad_frames`.
    pub fn handle_frame(&self, frame: &[u8]) -> Result<Vec<u8>> {
        // The tag sits at a fixed header offset; peeking it routes the
        // frame without deserializing the payload twice. Malformed
        // frames fall through to the decoders, which reject them.
        if Tag::peek(frame).map(Tag::family) != Some(Family::GatewayRequest) {
            return self
                .core
                .handle(frame, |snap, req| self.serve_on(snap, req));
        }
        self.routed_ship_requests.inc();
        let snap = self.snapshot();
        let out = match self.pinned(&snap, 0) {
            Ok((_, gateway)) => gateway.handle_frame(frame),
            Err(detail) => encode_response(&GatewayResponse::NotFound {
                snapshot_version: snap.ship(0).map_or(0, |s| s.snapshot.version),
                detail: detail.into(),
            }),
        };
        self.core.count(&out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_gateway::ServingSnapshot;
    use mpros_telemetry::{FlightRecorder, RecorderConfig};

    fn router_with_one_empty_shard() -> FleetGateway {
        let ship_tel = Telemetry::new();
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default(), 7));
        let gateway = Arc::new(Gateway::new(&ship_tel, recorder));
        let fleet_tel = Telemetry::new();
        let router = FleetGateway::new(&fleet_tel, vec![gateway]);
        router.publish(
            FleetSnapshot::build(
                1,
                vec![ShipEntry {
                    ship_id: 0,
                    available: true,
                    snapshot: Arc::new(ServingSnapshot::empty()),
                }],
            )
            .unwrap(),
        );
        router
    }

    #[test]
    fn unknown_ship_is_distinguished_from_crashed_ship() {
        let router = router_with_one_empty_shard();
        match router.serve(&FleetRequest::GetShipIcas { ship: 9 }) {
            FleetResponse::ShipUnavailable { detail, .. } => assert_eq!(detail, "unknown_ship"),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn ship_range_frames_route_to_shard_zero() {
        let router = router_with_one_empty_shard();
        let frame = mpros_gateway::encode_request(&mpros_gateway::GatewayRequest::GetIcas).unwrap();
        let back = router.handle_frame(&frame).unwrap();
        // The reply is a plain single-ship response frame, decodable by
        // a v5-era gateway client.
        let resp = mpros_gateway::decode_response(&back).unwrap();
        assert!(matches!(resp, mpros_gateway::GatewayResponse::Icas { .. }));
    }

    #[test]
    fn garbage_frames_count_as_bad() {
        let router = router_with_one_empty_shard();
        assert!(router.handle_frame(b"nonsense").is_err());
    }
}
