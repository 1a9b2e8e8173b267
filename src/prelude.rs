//! The supported public surface, in one import.
//!
//! `use mpros::prelude::*;` brings in everything a typical embedder
//! needs: the assembled simulation and its builder-style configuration,
//! execution modes, fault planning, the serving gateway and its client,
//! and the telemetry/SLO snapshot types those APIs hand back.
//!
//! Anything *not* re-exported here is still reachable through the
//! per-subsystem modules (`mpros::pdme`, `mpros::network`, ...) but is
//! considered an internal surface: it may move or change shape between
//! revisions without the deprecation care the prelude gets. CI diffs
//! the rendered public API against `API_SURFACE.txt` (see
//! `scripts/api_surface.sh`), so additions and removals here are
//! reviewed, never accidental.

pub use crate::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};

// Core vocabulary: time, identity, conditions, reports, errors.
pub use mpros_core::{
    Belief, ConditionReport, DcId, Error, MachineCondition, MachineId, PrognosticVector, Result,
    SimDuration, SimTime,
};

// Fault planning (scheduled adversity against simulated time).
pub use mpros_core::{FaultKind, FaultPlan, FaultPlanConfig, FaultTarget};

// Network and transport configuration, and the trait every wire
// message implements (`type_tag()`).
pub use mpros_network::{NetworkConfig, Wire};

// The serving layer: gateway, the framed protocol and the client that
// speaks it.
pub use mpros_gateway::{
    DeltaBatch, Gateway, GatewayClient, GatewayRequest, GatewayResponse, JournalPage,
    MetricsReport, ServingSnapshot, StatusDelta,
};

// The fleet plane: sharded multi-ship simulation behind one routing
// gateway with a fleet-wide knowledge rollup (wire v6).
pub use mpros_fleet::{
    Fleet, FleetClient, FleetConfig, FleetDeltaBatch, FleetGateway, FleetRequest, FleetResponse,
    FleetRollup, FleetSnapshot, RollupReport, ShipDelta, ShipInfo,
};

// ICAS interchange documents served by the gateway.
pub use mpros_pdme::IcasSnapshot;

// Observability: the shared domain handle, its exported snapshot
// types, and the SLO watchdog vocabulary.
pub use mpros_telemetry::{
    CounterSnapshot, SloPolicy, SloRule, SloVerdict, Telemetry, TelemetrySnapshot,
};

// The flight recorder: bounded incident capture with deterministic
// ids, sealed bundles retrievable over the gateway (wire v5).
pub use mpros_telemetry::{
    FlightRecorder, Incident, IncidentSummary, IncidentTrigger, RecorderConfig,
};
