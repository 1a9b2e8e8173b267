//! The versioned, immutable serving snapshot.
//!
//! Built on the simulation's control thread after a step, then
//! published to the [`crate::server::Gateway`] by pointer swap. Every
//! field is an owned, deterministic product of the engine state the
//! parallel-determinism suite already pins byte-identical across
//! execution modes (the ICAS export, the fused prognostic curves, the
//! counter registry, the SLO verdict) — which is what lets the gateway
//! promise byte-identical responses for a fixed snapshot version no
//! matter how the simulation that produced it was scheduled.

use crate::proto::{DeltaKind, GatewayRequest, GatewayResponse, StatusDelta};
use crate::serving::Published;
use mpros_core::{PrognosticVector, SimDuration, SimTime};
use mpros_pdme::{export_snapshot, IcasSnapshot, PdmeExecutive};
use mpros_telemetry::{
    exposition, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, SloVerdict, Telemetry,
};

/// Whether a histogram records *simulated* time (deterministic) rather
/// than host wall-clock. Same name filter the parallel-determinism
/// suite fingerprints.
fn sim_histogram(name: &str) -> bool {
    name.ends_with("sim_s") || name.ends_with("latency_s") || name.ends_with("transit_s")
}

/// One fused prognostic curve, keyed for lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct PrognosticEntry {
    /// Raw machine id.
    pub machine_id: u64,
    /// Condition catalog index.
    pub condition_id: usize,
    /// The fused (conservative-envelope) curve.
    pub vector: PrognosticVector,
}

/// An immutable, epoch-stamped view of the fused shipboard state.
///
/// Construction reads the engine; serving reads only this. The
/// `version` is the publishing step's ordinal and is stamped onto every
/// response served from the snapshot.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServingSnapshot {
    /// Publishing epoch (the simulation step count at build time).
    pub version: u64,
    /// Simulated seconds at build time.
    pub at_secs: f64,
    /// The full ICAS interchange document.
    pub icas: IcasSnapshot,
    /// The SLO watchdog's verdict from the publishing step, if any.
    pub slo: Option<SloVerdict>,
    /// The telemetry domain's counters, sorted by `(component, name)`,
    /// minus the `exec` and `gateway` components. The exclusions keep
    /// the served state blind to scheduling (pool job counts exist only
    /// in parallel mode) and to the serving layer itself (request
    /// counts track host-side client timing); what remains is a
    /// deterministic product of the seeded simulation.
    pub counters: Vec<CounterSnapshot>,
    /// Sim-domain gauges, same component exclusions as `counters`.
    pub gauges: Vec<GaugeSnapshot>,
    /// Simulated-time histograms (`*.sim_s`, `*.latency_s`,
    /// `*.transit_s`) of the sim-domain components. Wall-clock
    /// histograms stay out of the serving surface — they describe the
    /// host, not the scenario, and would break cross-mode byte identity.
    pub sim_histograms: Vec<HistogramSnapshot>,
    /// Prometheus-style text exposition of `counters` + `gauges` +
    /// `sim_histograms`, rendered once at build time so every
    /// `GetMetrics` answer for one snapshot version is the same bytes.
    pub exposition: String,
    /// Fused prognostic curves, sorted by `(machine_id, condition_id)`.
    pub prognostics: Vec<PrognosticEntry>,
}

impl ServingSnapshot {
    /// An empty pre-publication snapshot (version 0, nothing known).
    /// Gateways serve this until the first real publish.
    pub fn empty() -> Self {
        ServingSnapshot {
            version: 0,
            at_secs: 0.0,
            icas: IcasSnapshot {
                schema_version: mpros_pdme::icas::ICAS_SCHEMA_VERSION,
                at_secs: 0.0,
                machines: Vec::new(),
                data_concentrators: Vec::new(),
            },
            slo: None,
            counters: Vec::new(),
            gauges: Vec::new(),
            sim_histograms: Vec::new(),
            exposition: exposition::render(&[], &[], &[]),
            prognostics: Vec::new(),
        }
    }

    /// Build a snapshot of `pdme` as of `now`, stamped `version`.
    ///
    /// Runs on the control thread between steps (the engine is quiet),
    /// so plain `&` reads are race-free; everything is copied out, so
    /// the result shares nothing with the live engine.
    pub fn build(
        version: u64,
        now: SimTime,
        pdme: &PdmeExecutive,
        dc_timeout: SimDuration,
        slo: Option<&SloVerdict>,
        telemetry: &Telemetry,
    ) -> Self {
        let icas = export_snapshot(pdme, now, dc_timeout);
        let mut prognostics: Vec<PrognosticEntry> = pdme
            .maintenance_list()
            .into_iter()
            .map(|item| PrognosticEntry {
                machine_id: item.machine.raw(),
                condition_id: item.condition.index(),
                vector: item.prognostic,
            })
            .collect();
        prognostics.sort_by_key(|e| (e.machine_id, e.condition_id));
        let tel = telemetry.snapshot();
        let counters: Vec<CounterSnapshot> = tel
            .counters
            .into_iter()
            .filter(|c| Telemetry::is_sim_domain(&c.component))
            .collect();
        let gauges: Vec<GaugeSnapshot> = tel
            .gauges
            .into_iter()
            .filter(|g| Telemetry::is_sim_domain(&g.component))
            .collect();
        let sim_histograms: Vec<HistogramSnapshot> = tel
            .histograms
            .into_iter()
            .filter(|h| Telemetry::is_sim_domain(&h.component) && sim_histogram(&h.name))
            .collect();
        let exposition = exposition::render(&counters, &gauges, &sim_histograms);
        ServingSnapshot {
            version,
            at_secs: now.as_secs(),
            icas,
            slo: slo.cloned(),
            counters,
            gauges,
            sim_histograms,
            exposition,
            prognostics,
        }
    }

    /// The machine's ICAS entry, if it exists.
    pub fn machine(&self, machine_id: u64) -> Option<&mpros_pdme::icas::IcasMachine> {
        self.icas
            .machines
            .iter()
            .find(|m| m.machine_id == machine_id)
    }

    /// The fused prognostic curve for `(machine_id, condition_id)`.
    pub fn prognostic(&self, machine_id: u64, condition_id: usize) -> Option<&PrognosticVector> {
        self.prognostics
            .iter()
            .find(|e| e.machine_id == machine_id && e.condition_id == condition_id)
            .map(|e| &e.vector)
    }
}

impl Published for ServingSnapshot {
    type Request = GatewayRequest;
    type Response = GatewayResponse;
    type Delta = StatusDelta;

    fn version(&self) -> u64 {
        self.version
    }

    fn at_secs(&self) -> f64 {
        self.at_secs
    }

    /// The edge-triggered supervision deltas between `prev` and `self`:
    /// one [`StatusDelta`] per machine whose ICAS `status` flipped
    /// between `"ok"` and `"degraded"` across the two snapshots, in
    /// ascending machine-id order. Machines absent from `prev` only
    /// produce a delta when they arrive already degraded.
    fn deltas_since(&self, prev: &ServingSnapshot) -> Vec<StatusDelta> {
        let mut out = Vec::new();
        for machine in &self.icas.machines {
            let was_degraded = prev
                .machine(machine.machine_id)
                .map(|m| m.status == "degraded")
                .unwrap_or(false);
            let is_degraded = machine.status == "degraded";
            if was_degraded == is_degraded {
                continue;
            }
            out.push(StatusDelta {
                snapshot_version: self.version,
                at_secs: self.at_secs,
                machine_id: machine.machine_id,
                kind: if is_degraded {
                    DeltaKind::Degraded
                } else {
                    DeltaKind::Recovered
                },
            });
        }
        out
    }
}
