//! The gateway router: the single-ship query surface over the shared
//! [`ServingCore`] — concurrent serving over published snapshots, with
//! per-client sessions and bounded oldest-drop delta queues (see
//! [`crate::serving`] for the concurrency and backpressure model).

use crate::proto::{GatewayRequest, GatewayResponse};
use crate::serving::ServingCore;
use crate::snapshot::ServingSnapshot;
use mpros_core::Result;
use mpros_telemetry::{Counter, FlightRecorder, HopRecord, Stage, Telemetry, TraceId};
use std::sync::Arc;

/// Queued deltas a session may hold before oldest-drop eviction.
const SESSION_QUEUE_CAPACITY: usize = 64;

/// The query server. Shared as `Arc<Gateway>`: the publisher and every
/// client thread hold clones of the same handle.
#[derive(Debug)]
pub struct Gateway {
    /// Publisher, sessions and `gateway.*` request instruments.
    core: ServingCore<ServingSnapshot>,
    telemetry: Telemetry,
    /// Exposition bytes shipped through `GetMetrics` responses.
    exposition_bytes: Arc<Counter>,
    /// The scenario's flight recorder; backs the `StreamJournal` /
    /// `ListIncidents` / `GetIncident` requests.
    recorder: Arc<FlightRecorder>,
}

impl Gateway {
    /// A gateway joined to `telemetry` and serving `recorder`'s
    /// journal and incidents, with 64 queued deltas per session. It
    /// serves the empty version-0 snapshot until the first
    /// [`Gateway::publish`].
    pub fn new(telemetry: &Telemetry, recorder: Arc<FlightRecorder>) -> Self {
        let core = ServingCore::new(
            "gateway",
            SESSION_QUEUE_CAPACITY,
            Some(Stage::GatewayServe),
            telemetry,
            ServingSnapshot::empty(),
        );
        Gateway {
            core,
            telemetry: telemetry.clone(),
            exposition_bytes: telemetry.counter("gateway", "exposition_bytes"),
            recorder,
        }
    }

    /// The currently published snapshot (an `Arc` clone; never blocks
    /// longer than the publisher's pointer swap).
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.core.snapshot()
    }

    /// The published snapshot's version (0 until the first publish).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Registered subscriber sessions.
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    /// Publish a freshly built snapshot: fan its edge-triggered
    /// degraded/recovered deltas out to every registered session
    /// (bounded queues, oldest-drop), then swap it in as current.
    /// Called by the simulation's control thread after each step.
    pub fn publish(&self, snapshot: ServingSnapshot) {
        self.core.publish(snapshot);
    }

    /// Serve one request against the current snapshot. Pure with
    /// respect to the snapshot: every `Get*` answer is a function of
    /// `(snapshot version, request)` alone; `Subscribe` additionally
    /// drains the session's queue (registration is idempotent).
    pub fn serve(&self, req: &GatewayRequest) -> GatewayResponse {
        let snap = self.snapshot();
        self.serve_on(&snap, req)
    }

    /// Serve one request against an explicit snapshot rather than the
    /// currently published one. The fleet router pins each ship's
    /// snapshot into its own `FleetSnapshot` and answers ship-scoped
    /// requests from the pinned state, so a fleet response is a pure
    /// function of `(fleet version, request)` even while the ship
    /// gateway publishes ahead of the fleet.
    pub fn serve_on(&self, snap: &ServingSnapshot, req: &GatewayRequest) -> GatewayResponse {
        let snapshot_version = snap.version;
        match req {
            GatewayRequest::GetMachineStatus { machine } => match snap.machine(*machine) {
                Some(m) => GatewayResponse::MachineStatus {
                    snapshot_version,
                    machine: m.clone(),
                },
                None => GatewayResponse::NotFound {
                    snapshot_version,
                    detail: format!("machine {machine}"),
                },
            },
            GatewayRequest::GetIcas => GatewayResponse::Icas {
                snapshot_version,
                icas: snap.icas.clone(),
            },
            GatewayRequest::GetPrognosticVector {
                machine,
                condition_id,
            } => match snap.prognostic(*machine, *condition_id) {
                Some(vector) => GatewayResponse::PrognosticVector {
                    snapshot_version,
                    machine: *machine,
                    condition_id: *condition_id,
                    vector: vector.clone(),
                },
                None => GatewayResponse::NotFound {
                    snapshot_version,
                    detail: format!("prognostic for machine {machine} condition {condition_id}"),
                },
            },
            GatewayRequest::GetSloVerdict => GatewayResponse::SloVerdict {
                snapshot_version,
                verdict: snap.slo.clone(),
            },
            GatewayRequest::GetCounters => GatewayResponse::Counters {
                snapshot_version,
                counters: snap.series.counters(),
            },
            GatewayRequest::Subscribe { session } => {
                let (dropped, deltas) = self.core.drain(*session);
                GatewayResponse::Deltas {
                    snapshot_version,
                    session: *session,
                    dropped,
                    deltas,
                }
            }
            GatewayRequest::GetMetrics => {
                let exposition = snap.exposition();
                self.exposition_bytes.add(exposition.len() as u64);
                GatewayResponse::Metrics {
                    snapshot_version,
                    at_secs: snap.at_secs,
                    counters: snap.series.counters(),
                    gauges: snap.series.gauges(),
                    histograms: snap.series.histograms(),
                    exposition: exposition.to_owned(),
                }
            }
            GatewayRequest::StreamJournal { cursor, max } => {
                let batch = self.recorder.journal_tail(*cursor, *max as usize);
                GatewayResponse::Journal {
                    snapshot_version,
                    next_cursor: batch.next_cursor,
                    dropped: batch.dropped,
                    events: batch.events,
                }
            }
            GatewayRequest::ListIncidents => GatewayResponse::Incidents {
                snapshot_version,
                incidents: self.recorder.incidents(),
            },
            GatewayRequest::GetIncident { id } => match self.recorder.incident(*id) {
                Some(incident) => GatewayResponse::Incident {
                    snapshot_version,
                    incident,
                },
                None => GatewayResponse::NotFound {
                    snapshot_version,
                    detail: format!("incident {id:016x}"),
                },
            },
            GatewayRequest::GetTrace { trace } => {
                let hops = self.telemetry.trace_log().trace(TraceId(*trace));
                if hops.is_empty() {
                    GatewayResponse::NotFound {
                        snapshot_version,
                        detail: format!("trace {trace:016x}"),
                    }
                } else {
                    GatewayResponse::Trace {
                        snapshot_version,
                        trace: *trace,
                        hops: hops.iter().map(HopRecord::from).collect(),
                    }
                }
            }
        }
    }

    /// Serve one framed request: decode, answer, encode. Thread-safe;
    /// this is the entry point client transports call concurrently.
    ///
    /// Telemetry: counts `gateway.requests` (and `gateway.bad_frames`
    /// for undecodable input), and records the service span in both
    /// clocks — wall seconds for the host cost of the call, simulated
    /// seconds for the *staleness* of the data served (simulated now
    /// minus the snapshot's timestamp).
    pub fn handle_frame(&self, frame: &[u8]) -> Result<Vec<u8>> {
        self.core
            .handle(frame, |snap, req| self.serve_on(snap, req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::DeltaKind;
    use mpros_pdme::icas::{IcasMachine, IcasSnapshot, ICAS_SCHEMA_VERSION};
    use mpros_telemetry::RecorderConfig;

    fn gateway(telemetry: &Telemetry) -> Gateway {
        let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default(), 7));
        Gateway::new(telemetry, recorder)
    }

    fn snap_with(version: u64, statuses: &[(u64, &str)]) -> ServingSnapshot {
        let mut snap = ServingSnapshot::empty();
        snap.version = version;
        snap.at_secs = version as f64;
        snap.icas = IcasSnapshot {
            schema_version: ICAS_SCHEMA_VERSION,
            at_secs: version as f64,
            machines: statuses
                .iter()
                .map(|&(id, status)| {
                    Arc::new(IcasMachine {
                        machine_id: id,
                        name: format!("machine {id}"),
                        health: 1.0,
                        status: status.to_string(),
                        report_count: 0,
                        conditions: Vec::new(),
                    })
                })
                .collect(),
            data_concentrators: Vec::new(),
        };
        snap
    }

    #[test]
    fn publish_swaps_the_served_version() {
        let gw = gateway(&Telemetry::new());
        assert_eq!(gw.version(), 0);
        gw.publish(snap_with(3, &[(1, "ok")]));
        assert_eq!(gw.version(), 3);
        match gw.serve(&GatewayRequest::GetIcas) {
            GatewayResponse::Icas {
                snapshot_version, ..
            } => assert_eq!(snapshot_version, 3),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn subscribe_sees_edge_triggered_deltas_only() {
        let gw = gateway(&Telemetry::new());
        gw.publish(snap_with(1, &[(1, "ok"), (2, "ok")]));
        // Register before the edge.
        let _ = gw.serve(&GatewayRequest::Subscribe { session: 9 });
        // Machine 2 degrades at version 2, stays degraded at 3 (no new
        // delta), recovers at 4.
        gw.publish(snap_with(2, &[(1, "ok"), (2, "degraded")]));
        gw.publish(snap_with(3, &[(1, "ok"), (2, "degraded")]));
        gw.publish(snap_with(4, &[(1, "ok"), (2, "ok")]));
        match gw.serve(&GatewayRequest::Subscribe { session: 9 }) {
            GatewayResponse::Deltas {
                dropped, deltas, ..
            } => {
                assert_eq!(dropped, 0);
                let kinds: Vec<(u64, u64, DeltaKind)> = deltas
                    .iter()
                    .map(|d| (d.snapshot_version, d.machine_id, d.kind))
                    .collect();
                assert_eq!(
                    kinds,
                    vec![(2, 2, DeltaKind::Degraded), (4, 2, DeltaKind::Recovered)]
                );
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn slow_sessions_drop_oldest_deltas() {
        let t = Telemetry::new();
        let core = ServingCore::new("gateway", 2, None, &t, ServingSnapshot::empty());
        core.publish(snap_with(1, &[(1, "ok")]));
        let _ = core.drain(1);
        // Four edges against a capacity-2 queue: the two oldest evict.
        for v in 2..=5 {
            let status = if v % 2 == 0 { "degraded" } else { "ok" };
            core.publish(snap_with(v, &[(1, status)]));
        }
        let (dropped, deltas) = core.drain(1);
        assert_eq!(dropped, 2, "oldest dropped");
        let versions: Vec<u64> = deltas.iter().map(|d| d.snapshot_version).collect();
        assert_eq!(versions, vec![4, 5], "newest survive");
        assert_eq!(
            dropped as usize + deltas.len(),
            4,
            "dropped + surviving reconcile with the four edges"
        );
        assert_eq!(t.counter("gateway", "drops").get(), dropped);
    }
}
