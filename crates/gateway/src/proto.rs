//! The gateway query protocol.
//!
//! Requests and responses ride the same frame layout as the ship
//! network (`magic "MP" | version u8 | type u8 | payload_len u32 LE |
//! JSON payload`) through the generic [`mpros_network::encode`] /
//! [`mpros_network::decode`]. Their tags are the
//! [`Family::GatewayRequest`] and [`Family::GatewayResponse`] rows of
//! the one [`mpros_network::Tag`] table; each decoder rejects every
//! other family's tags, so a misrouted frame fails loudly instead of
//! half-parsing.

use mpros_core::{PrognosticVector, Result};
use mpros_network::{decode, encode, Family, Tag, Wire};
use mpros_pdme::icas::IcasMachine;
use mpros_pdme::IcasSnapshot;
use mpros_telemetry::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, HopRecord, Incident,
    IncidentSummary, SloVerdict,
};
use serde::{Deserialize, Serialize};

/// Gateway payload schema version, stamped into every response.
pub const GATEWAY_SCHEMA_VERSION: u32 = 1;

/// A client request against the published serving snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GatewayRequest {
    /// The named machine's ICAS entry (health, status, conditions).
    GetMachineStatus {
        /// Raw machine id.
        machine: u64,
    },
    /// The full ICAS interchange document.
    GetIcas,
    /// The fused prognostic curve for one `(machine, condition)` pair.
    GetPrognosticVector {
        /// Raw machine id.
        machine: u64,
        /// Condition catalog index.
        condition_id: usize,
    },
    /// The SLO watchdog's verdict captured with the snapshot.
    GetSloVerdict,
    /// The ship's telemetry counters at snapshot time (minus the
    /// scheduling-only `exec` and serving-side `gateway` components).
    GetCounters,
    /// Register (idempotently) as a subscriber and drain the session's
    /// queued degraded/recovered deltas. Subscription is registration
    /// *and* poll: the first call opens the session, every call returns
    /// whatever edge-triggered deltas publishing queued since the last.
    Subscribe {
        /// Caller-chosen session id.
        session: u64,
    },
    /// The full sim-domain telemetry view at snapshot time — structured
    /// counters/gauges/histograms plus the Prometheus-style text
    /// exposition, rendered once per snapshot version (wire v5).
    GetMetrics,
    /// One page of the normalized journal tail: a cursor-based bounded
    /// oldest-drop stream; pass cursor 0 to start, then feed the
    /// returned `next_cursor` back in (wire v5).
    StreamJournal {
        /// Recorder stream sequence to resume from.
        cursor: u64,
        /// Maximum events to return in this page.
        max: u32,
    },
    /// Summaries of the sealed incidents the flight recorder retains
    /// (wire v5).
    ListIncidents,
    /// One sealed incident bundle by its deterministic id (wire v5).
    GetIncident {
        /// The incident id (see `mpros_telemetry::incident_id`).
        id: u64,
    },
    /// Every recorded hop of one trace, canonically ordered — the
    /// remote form of `TraceLog::trace` (wire v5).
    GetTrace {
        /// Raw trace id.
        trace: u64,
    },
}

impl Wire for GatewayRequest {
    const FAMILY: Family = Family::GatewayRequest;

    fn tag(&self) -> Tag {
        match self {
            GatewayRequest::GetMachineStatus { .. } => Tag::GetMachineStatus,
            GatewayRequest::GetIcas => Tag::GetIcas,
            GatewayRequest::GetPrognosticVector { .. } => Tag::GetPrognosticVector,
            GatewayRequest::GetSloVerdict => Tag::GetSloVerdict,
            GatewayRequest::GetCounters => Tag::GetCounters,
            GatewayRequest::Subscribe { .. } => Tag::Subscribe,
            GatewayRequest::GetMetrics => Tag::GetMetrics,
            GatewayRequest::StreamJournal { .. } => Tag::StreamJournal,
            GatewayRequest::ListIncidents => Tag::ListIncidents,
            GatewayRequest::GetIncident { .. } => Tag::GetIncident,
            GatewayRequest::GetTrace { .. } => Tag::GetTrace,
        }
    }
}

/// One edge-triggered supervision transition between two published
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaKind {
    /// The machine's status flipped to `degraded`.
    Degraded,
    /// The machine's status returned to `ok`.
    Recovered,
}

/// A queued subscription event: machine `machine_id` changed
/// supervision status in the snapshot stamped `snapshot_version`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusDelta {
    /// The snapshot whose publication observed the edge.
    pub snapshot_version: u64,
    /// Simulated seconds of that snapshot.
    pub at_secs: f64,
    /// The machine that changed status.
    pub machine_id: u64,
    /// Direction of the change.
    pub kind: DeltaKind,
}

/// A server response. Every variant carries the version of the
/// snapshot it was served from, so clients can order what they see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GatewayResponse {
    /// Answer to [`GatewayRequest::GetMachineStatus`].
    MachineStatus {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The machine's ICAS entry.
        machine: IcasMachine,
    },
    /// Answer to [`GatewayRequest::GetIcas`].
    Icas {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The full interchange document.
        icas: IcasSnapshot,
    },
    /// Answer to [`GatewayRequest::GetPrognosticVector`].
    PrognosticVector {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Raw machine id echoed back.
        machine: u64,
        /// Condition catalog index echoed back.
        condition_id: usize,
        /// The fused (conservative-envelope) curve.
        vector: PrognosticVector,
    },
    /// Answer to [`GatewayRequest::GetSloVerdict`]; `None` while no
    /// watchdog pass has run (empty policy or before the first step).
    SloVerdict {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The captured verdict.
        verdict: Option<SloVerdict>,
    },
    /// Answer to [`GatewayRequest::GetCounters`].
    Counters {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Every counter, sorted by `(component, name)`.
        counters: Vec<CounterSnapshot>,
    },
    /// Answer to [`GatewayRequest::Subscribe`]: the session's queued
    /// deltas, oldest first, plus how many were evicted by backpressure
    /// since the previous poll.
    Deltas {
        /// Serving snapshot version at poll time.
        snapshot_version: u64,
        /// The polling session.
        session: u64,
        /// Deltas evicted (oldest-drop) since the last poll.
        dropped: u64,
        /// The surviving deltas, oldest first.
        deltas: Vec<StatusDelta>,
    },
    /// The requested entity does not exist in the snapshot.
    NotFound {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// What was missing.
        detail: String,
    },
    /// Answer to [`GatewayRequest::GetMetrics`] (wire v5).
    Metrics {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Simulated seconds of the snapshot.
        at_secs: f64,
        /// Sim-domain counters, sorted by `(component, name)`.
        counters: Vec<CounterSnapshot>,
        /// Sim-domain gauges, sorted by `(component, name)`.
        gauges: Vec<GaugeSnapshot>,
        /// Sim-domain (simulated-time) histograms, sorted by
        /// `(component, name)`.
        histograms: Vec<HistogramSnapshot>,
        /// Prometheus-style text exposition of the above.
        exposition: String,
    },
    /// Answer to [`GatewayRequest::StreamJournal`] (wire v5).
    Journal {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Cursor for the next poll.
        next_cursor: u64,
        /// Events the cursor missed to oldest-drop eviction.
        dropped: u64,
        /// The served events, oldest first.
        events: Vec<EventSnapshot>,
    },
    /// Answer to [`GatewayRequest::ListIncidents`] (wire v5).
    Incidents {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Retained sealed incidents, oldest first.
        incidents: Vec<IncidentSummary>,
    },
    /// Answer to [`GatewayRequest::GetIncident`] (wire v5).
    Incident {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// The sealed bundle.
        incident: Incident,
    },
    /// Answer to [`GatewayRequest::GetTrace`] (wire v5).
    Trace {
        /// Serving snapshot version.
        snapshot_version: u64,
        /// Raw trace id echoed back.
        trace: u64,
        /// The trace's hops, canonically ordered.
        hops: Vec<HopRecord>,
    },
}

impl Wire for GatewayResponse {
    const FAMILY: Family = Family::GatewayResponse;

    fn tag(&self) -> Tag {
        match self {
            GatewayResponse::MachineStatus { .. } => Tag::MachineStatus,
            GatewayResponse::Icas { .. } => Tag::Icas,
            GatewayResponse::PrognosticVector { .. } => Tag::PrognosticVector,
            GatewayResponse::SloVerdict { .. } => Tag::SloVerdict,
            GatewayResponse::Counters { .. } => Tag::Counters,
            GatewayResponse::Deltas { .. } => Tag::Deltas,
            GatewayResponse::NotFound { .. } => Tag::NotFound,
            GatewayResponse::Metrics { .. } => Tag::Metrics,
            GatewayResponse::Journal { .. } => Tag::Journal,
            GatewayResponse::Incidents { .. } => Tag::Incidents,
            GatewayResponse::Incident { .. } => Tag::Incident,
            GatewayResponse::Trace { .. } => Tag::Trace,
        }
    }
}

impl GatewayResponse {
    /// The snapshot version stamped on the response.
    pub fn snapshot_version(&self) -> u64 {
        match self {
            GatewayResponse::MachineStatus {
                snapshot_version, ..
            }
            | GatewayResponse::Icas {
                snapshot_version, ..
            }
            | GatewayResponse::PrognosticVector {
                snapshot_version, ..
            }
            | GatewayResponse::SloVerdict {
                snapshot_version, ..
            }
            | GatewayResponse::Counters {
                snapshot_version, ..
            }
            | GatewayResponse::Deltas {
                snapshot_version, ..
            }
            | GatewayResponse::NotFound {
                snapshot_version, ..
            }
            | GatewayResponse::Metrics {
                snapshot_version, ..
            }
            | GatewayResponse::Journal {
                snapshot_version, ..
            }
            | GatewayResponse::Incidents {
                snapshot_version, ..
            }
            | GatewayResponse::Incident {
                snapshot_version, ..
            }
            | GatewayResponse::Trace {
                snapshot_version, ..
            } => *snapshot_version,
        }
    }
}

/// Encode a request into one wire frame.
pub fn encode_request(req: &GatewayRequest) -> Result<Vec<u8>> {
    encode(req)
}

/// Decode one gateway request frame.
pub fn decode_request(frame: &[u8]) -> Result<GatewayRequest> {
    decode(frame)
}

/// Encode a response into one wire frame.
pub fn encode_response(resp: &GatewayResponse) -> Result<Vec<u8>> {
    encode(resp)
}

/// Decode one gateway response frame.
pub fn decode_response(frame: &[u8]) -> Result<GatewayResponse> {
    decode(frame)
}
