//! The gateway client.
//!
//! Speaks the framed binary protocol against a shared [`Gateway`]
//! handle: every call encodes a request frame, hands it to the router,
//! and decodes the response frame — the same byte path a remote
//! console would exercise over a socket, so tests and benches driving
//! this client cover the full codec discipline, not an in-process
//! shortcut.

use crate::proto::{self, GatewayRequest, GatewayResponse, StatusDelta};
use crate::server::Gateway;
use mpros_core::{Error, PrognosticVector, Result};
use mpros_network::Wire;
use mpros_pdme::icas::IcasMachine;
use mpros_pdme::IcasSnapshot;
use mpros_telemetry::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, HopRecord, Incident,
    IncidentSummary, SloVerdict,
};
use std::sync::Arc;

/// The drained result of one subscription poll.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Serving snapshot version at poll time.
    pub snapshot_version: u64,
    /// Deltas evicted by backpressure since the previous poll.
    pub dropped: u64,
    /// The surviving deltas, oldest first.
    pub deltas: Vec<StatusDelta>,
}

/// The result of one `GetMetrics` call: the sim-domain telemetry view
/// plus its Prometheus-style text rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Serving snapshot version.
    pub snapshot_version: u64,
    /// Simulated seconds of the snapshot.
    pub at_secs: f64,
    /// Sim-domain counters, sorted by `(component, name)`.
    pub counters: Vec<CounterSnapshot>,
    /// Sim-domain gauges, sorted by `(component, name)`.
    pub gauges: Vec<GaugeSnapshot>,
    /// Simulated-time histograms, sorted by `(component, name)`.
    pub histograms: Vec<HistogramSnapshot>,
    /// Prometheus-style text exposition of the above.
    pub exposition: String,
}

/// One page of the remote journal tail.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalPage {
    /// Serving snapshot version at poll time.
    pub snapshot_version: u64,
    /// Cursor for the next poll.
    pub next_cursor: u64,
    /// Events the cursor missed to oldest-drop eviction.
    pub dropped: u64,
    /// The served events, oldest first.
    pub events: Vec<EventSnapshot>,
}

/// A connected client: one session id against one gateway.
#[derive(Debug, Clone)]
pub struct GatewayClient {
    gateway: Arc<Gateway>,
    session: u64,
}

impl GatewayClient {
    /// Connect to `gateway` under the caller-chosen `session` id.
    /// Sessions are server-side state; two clients sharing an id share
    /// a delta queue.
    pub fn connect(gateway: Arc<Gateway>, session: u64) -> Self {
        GatewayClient { gateway, session }
    }

    /// This client's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// One request/response exchange through the wire codec.
    pub fn call(&self, req: &GatewayRequest) -> Result<GatewayResponse> {
        let frame = proto::encode_request(req)?;
        let back = self.gateway.handle_frame(&frame)?;
        proto::decode_response(&back)
    }

    /// The published snapshot's version (0 until the first publish).
    pub fn snapshot_version(&self) -> u64 {
        self.gateway.version()
    }

    /// The full ICAS interchange document.
    pub fn icas(&self) -> Result<IcasSnapshot> {
        match self.call(&GatewayRequest::GetIcas)? {
            GatewayResponse::Icas { icas, .. } => Ok(icas),
            other => Err(unexpected("Icas", &other)),
        }
    }

    /// One machine's ICAS entry.
    pub fn machine_status(&self, machine: u64) -> Result<IcasMachine> {
        match self.call(&GatewayRequest::GetMachineStatus { machine })? {
            GatewayResponse::MachineStatus { machine, .. } => Ok(machine),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("MachineStatus", &other)),
        }
    }

    /// The fused prognostic curve for `(machine, condition_id)`.
    pub fn prognostic(&self, machine: u64, condition_id: usize) -> Result<PrognosticVector> {
        let req = GatewayRequest::GetPrognosticVector {
            machine,
            condition_id,
        };
        match self.call(&req)? {
            GatewayResponse::PrognosticVector { vector, .. } => Ok(vector),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("PrognosticVector", &other)),
        }
    }

    /// The SLO verdict captured with the snapshot (`None` while no
    /// watchdog pass has run).
    pub fn slo_verdict(&self) -> Result<Option<SloVerdict>> {
        match self.call(&GatewayRequest::GetSloVerdict)? {
            GatewayResponse::SloVerdict { verdict, .. } => Ok(verdict),
            other => Err(unexpected("SloVerdict", &other)),
        }
    }

    /// The ship's telemetry counters at snapshot time (minus the
    /// scheduling-only `exec` and serving-side `gateway` components,
    /// which are not part of the deterministic serving surface).
    pub fn counters(&self) -> Result<Vec<CounterSnapshot>> {
        match self.call(&GatewayRequest::GetCounters)? {
            GatewayResponse::Counters { counters, .. } => Ok(counters),
            other => Err(unexpected("Counters", &other)),
        }
    }

    /// The full sim-domain telemetry view at snapshot time, structured
    /// and as text exposition (wire v5).
    pub fn metrics(&self) -> Result<MetricsReport> {
        match self.call(&GatewayRequest::GetMetrics)? {
            GatewayResponse::Metrics {
                snapshot_version,
                at_secs,
                counters,
                gauges,
                histograms,
                exposition,
            } => Ok(MetricsReport {
                snapshot_version,
                at_secs,
                counters,
                gauges,
                histograms,
                exposition,
            }),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// One page of the normalized journal tail starting at `cursor`
    /// (pass 0 to start, then feed `next_cursor` back in; wire v5).
    pub fn stream_journal(&self, cursor: u64, max: u32) -> Result<JournalPage> {
        match self.call(&GatewayRequest::StreamJournal { cursor, max })? {
            GatewayResponse::Journal {
                snapshot_version,
                next_cursor,
                dropped,
                events,
            } => Ok(JournalPage {
                snapshot_version,
                next_cursor,
                dropped,
                events,
            }),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("Journal", &other)),
        }
    }

    /// Summaries of the retained sealed incidents, oldest first
    /// (wire v5).
    pub fn incidents(&self) -> Result<Vec<IncidentSummary>> {
        match self.call(&GatewayRequest::ListIncidents)? {
            GatewayResponse::Incidents { incidents, .. } => Ok(incidents),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("Incidents", &other)),
        }
    }

    /// One sealed incident bundle by its deterministic id (wire v5).
    pub fn incident(&self, id: u64) -> Result<Incident> {
        match self.call(&GatewayRequest::GetIncident { id })? {
            GatewayResponse::Incident { incident, .. } => Ok(incident),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("Incident", &other)),
        }
    }

    /// The recorded hops of one trace, canonically ordered (wire v5).
    pub fn trace(&self, trace: u64) -> Result<Vec<HopRecord>> {
        match self.call(&GatewayRequest::GetTrace { trace })? {
            GatewayResponse::Trace { hops, .. } => Ok(hops),
            GatewayResponse::NotFound { detail, .. } => Err(Error::not_found(detail)),
            other => Err(unexpected("Trace", &other)),
        }
    }

    /// Register (idempotently) and drain this session's queued
    /// degraded/recovered deltas.
    pub fn poll_deltas(&self) -> Result<DeltaBatch> {
        let req = GatewayRequest::Subscribe {
            session: self.session,
        };
        match self.call(&req)? {
            GatewayResponse::Deltas {
                snapshot_version,
                dropped,
                deltas,
                ..
            } => Ok(DeltaBatch {
                snapshot_version,
                dropped,
                deltas,
            }),
            other => Err(unexpected("Deltas", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &GatewayResponse) -> Error {
    Error::Encoding(format!(
        "expected {wanted} response, got tag {}",
        got.type_tag()
    ))
}
