//! mpros-telemetry — fleet-scale observability for MPROS.
//!
//! The paper scales to "hundreds of DCs per ship" feeding one PDME
//! (§8.1); operating that fleet needs visibility into every hop of the
//! acquisition → fusion pipeline without perturbing it. This crate
//! provides the shared observability substrate the rest of the workspace
//! threads through its hot paths:
//!
//! * a lock-free [`metrics`] registry — atomic counters, gauges, and
//!   log-bucketed histograms keyed by `(component, metric)`;
//! * [`span`] timing for the pipeline stages, recording both wall-clock
//!   seconds (host cost) and simulated seconds (scenario latency);
//! * a bounded ring-buffer event [`journal`] for rare happenings (drops,
//!   partitions, quarantined channels, fusion conflict renormalizations);
//! * a versioned JSON [`snapshot`] exporter and a text [`dashboard`]
//!   renderer for the shipboard examples and CI artifacts;
//! * deterministic per-report causal tracing ([`trace`]) with Chrome
//!   trace-event / JSONL exporters ([`export`]) and a declarative SLO
//!   watchdog ([`slo`]).
//!
//! Everything is interior-mutable: one [`Telemetry`] handle is created
//! per scenario, cloned into every component, and recorded into from
//! `&self`. Under simulated time the recorded *simulated* durations are
//! fully deterministic; wall-clock durations describe the host.
//!
//! The three per-step readers read only what they use: the SLO watchdog
//! looks up the series its rules name (a lookup that never registers
//! one), the flight recorder reads the journal from its cursor and the
//! sim-domain counters and gauges, and the serving publish reads the
//! sim-domain series as a [`SimSeries`] ([`Telemetry::sim_series`]),
//! whose key table it shares from one publish to the next. Which series
//! are sim-domain is stated once, in this file.

#![forbid(unsafe_code)]

pub mod dashboard;
pub mod export;
pub mod exposition;
pub mod journal;
pub mod metrics;
pub mod recorder;
pub mod series;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use exposition::ExpositionStats;
pub use journal::{Event, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, Registry};
pub use recorder::{
    incident_id, CounterDelta, FlightRecorder, HopRecord, Incident, IncidentSummary,
    IncidentTrigger, JournalBatch, RecorderConfig, StepRecord, INCIDENT_SCHEMA_VERSION,
};
pub use series::SimSeries;
pub use slo::{SloCheck, SloPolicy, SloRule, SloVerdict, SloWatchdog};
pub use snapshot::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot,
    TELEMETRY_SCHEMA_VERSION,
};
pub use span::{Stage, WallTimer};
pub use trace::{HopKind, SpanId, TraceContext, TraceHop, TraceId, TraceLog};

use mpros_core::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Journal events a telemetry domain retains.
const JOURNAL_CAPACITY: usize = 256;

/// Whether `component`'s series are sim-domain, what a gateway serves
/// and a flight recorder captures byte-identically across execution
/// modes: not `exec` (scheduling, parallel mode only) nor `gateway`
/// (client traffic). Histograms must also pass [`sim_time`].
pub(crate) fn sim_domain(component: &str) -> bool {
    component != "exec" && component != "gateway"
}

/// Whether the histogram `name` measures simulated time (`*sim_s`,
/// `*latency_s`, `*transit_s`). Wall-clock histograms describe the
/// host, not the scenario, and would break cross-mode byte identity.
pub(crate) fn sim_time(name: &str) -> bool {
    name.ends_with("sim_s") || name.ends_with("latency_s") || name.ends_with("transit_s")
}

/// A component that records into a [`Telemetry`] domain.
///
/// Every MPROS component is born observing a private domain. The host
/// that wires a scenario calls [`Instrumented::set_telemetry`] to point
/// it at the scenario's shared domain, and from then on the component
/// records there. The join is a plain rebind: nothing recorded in the
/// old domain moves over. Join a freshly built component before it
/// does work, so its counters and histograms are complete. Rebinding
/// to the domain the component already observes changes nothing.
///
/// A PDME restored from the durable store relies on this: the WAL-tail
/// replay counts into the restored engine's private domain, and joining
/// the ship's domain afterwards leaves those replayed counts behind
/// instead of counting the pre-crash work twice.
pub trait Instrumented {
    /// Record into `telemetry` from now on.
    fn set_telemetry(&mut self, telemetry: &Telemetry);

    /// The telemetry domain the component currently records into.
    fn telemetry(&self) -> &Telemetry;
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    journal: Journal,
    /// Current simulated time (f64 bits), stamped onto journal events.
    sim_now_bits: AtomicU64,
    /// Wall-clock span histograms, one per [`Stage`], pre-registered so
    /// recording a span never touches the registry lock.
    span_wall: Vec<Arc<Histogram>>,
    /// Simulated-time span histograms, one per [`Stage`].
    span_sim: Vec<Arc<Histogram>>,
    /// Per-report causal hop log (see [`trace`]).
    trace: TraceLog,
    /// Hops the trace log refused because it was at capacity;
    /// pre-registered so the hot path never touches the registry lock.
    hops_evicted: Arc<Counter>,
    /// High-water mark of retained hops (watermark semantics via
    /// [`Gauge::set_max`]) — with [`Inner::hops_evicted`] it tells an
    /// operator how close a long run came to the trace cap.
    trace_watermark: Arc<Gauge>,
}

/// The shared observability handle: cheap to clone, records from
/// `&self`, safe to share across threads.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh telemetry domain retaining at most 256 journal events.
    pub fn new() -> Self {
        let registry = Registry::new();
        let span_wall = Stage::ALL
            .iter()
            .map(|s| registry.histogram("span", &format!("{s}.wall_s")))
            .collect();
        let span_sim = Stage::ALL
            .iter()
            .map(|s| registry.histogram("span", &format!("{s}.sim_s")))
            .collect();
        let hops_evicted = registry.counter("trace", "hops_evicted");
        let trace_watermark = registry.gauge("trace", "hops_retained_watermark");
        Telemetry {
            inner: Arc::new(Inner {
                registry,
                journal: Journal::new(JOURNAL_CAPACITY),
                sim_now_bits: AtomicU64::new(0f64.to_bits()),
                span_wall,
                span_sim,
                trace: TraceLog::default(),
                hops_evicted,
                trace_watermark,
            }),
        }
    }

    /// The underlying registry (for snapshotting and handle lookup).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The counter `(component, name)` — look up once, record forever.
    pub fn counter(&self, component: &str, name: &str) -> Arc<Counter> {
        self.inner.registry.counter(component, name)
    }

    /// The gauge `(component, name)`.
    pub fn gauge(&self, component: &str, name: &str) -> Arc<Gauge> {
        self.inner.registry.gauge(component, name)
    }

    /// The histogram `(component, name)`.
    pub fn histogram(&self, component: &str, name: &str) -> Arc<Histogram> {
        self.inner.registry.histogram(component, name)
    }

    /// Advance the journal timestamp source; the scenario driver calls
    /// this once per step so events carry simulated time.
    pub fn set_sim_now(&self, now: SimTime) {
        self.inner
            .sim_now_bits
            .store(now.as_secs().to_bits(), Ordering::Relaxed);
    }

    /// The last simulated instant the driver announced.
    pub fn sim_now(&self) -> SimTime {
        SimTime::from_secs(f64::from_bits(
            self.inner.sim_now_bits.load(Ordering::Relaxed),
        ))
    }

    /// Journal an event at the current simulated time.
    pub fn event(&self, component: &str, kind: &str, detail: impl Into<String>) {
        self.inner
            .journal
            .record(self.sim_now(), component, kind, detail.into());
    }

    /// Journal an event at an explicit simulated time.
    pub fn event_at(&self, at: SimTime, component: &str, kind: &str, detail: impl Into<String>) {
        self.inner
            .journal
            .record(at, component, kind, detail.into());
    }

    /// The retained journal events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.journal.events()
    }

    /// The journal (for cursor reads).
    pub(crate) fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Record a stage's wall-clock cost.
    #[inline]
    pub fn record_span_wall(&self, stage: Stage, wall: Duration) {
        self.inner.span_wall[stage.index()].record(wall.as_secs_f64());
    }

    /// Record a stage's simulated-time latency.
    #[inline]
    pub fn record_span_sim(&self, stage: Stage, sim: SimDuration) {
        self.inner.span_sim[stage.index()].record(sim.as_secs());
    }

    /// Record both clocks for one stage occurrence.
    pub fn record_span(&self, stage: Stage, wall: Duration, sim: SimDuration) {
        self.record_span_wall(stage, wall);
        self.record_span_sim(stage, sim);
    }

    /// The wall-clock histogram of one stage.
    pub fn span_wall(&self, stage: Stage) -> Arc<Histogram> {
        Arc::clone(&self.inner.span_wall[stage.index()])
    }

    /// The simulated-time histogram of one stage.
    pub fn span_sim(&self, stage: Stage) -> Arc<Histogram> {
        Arc::clone(&self.inner.span_sim[stage.index()])
    }

    /// Record one causal hop into the trace log. A hop refused by the
    /// full log is surfaced as the `trace.hops_evicted` counter; the
    /// `trace.hops_retained_watermark` gauge tracks how full the log
    /// has ever been.
    #[inline]
    pub fn record_hop(&self, hop: TraceHop) {
        if self.inner.trace.record(hop) {
            self.inner
                .trace_watermark
                .set_max(self.inner.trace.watermark() as f64);
        } else {
            self.inner.hops_evicted.inc();
        }
    }

    /// The trace log (for canonical exports and per-trace queries).
    pub fn trace_log(&self) -> &TraceLog {
        &self.inner.trace
    }

    /// All recorded hops in canonical (scheduling-independent) order.
    pub fn trace_hops(&self) -> Vec<TraceHop> {
        self.inner.trace.canonical_hops()
    }

    /// Capture the full state as a versioned snapshot document.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (registry, all) = (&self.inner.registry, |_: &str, _: &str| true);
        TelemetrySnapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            at_secs: self.sim_now().as_secs(),
            counters: registry.counters_where(all),
            gauges: registry.gauges_where(all),
            histograms: registry.histograms_where(all),
            events: self.events().into_iter().map(EventSnapshot::from).collect(),
            events_dropped: self.inner.journal.dropped(),
        }
    }

    /// The sim-domain series as of now: what a gateway serves. Shares
    /// `prev`'s key table when `prev` was read from this domain and no
    /// series has been registered since; otherwise reads the keys
    /// afresh. Pass [`SimSeries::default`] for a reading that shares
    /// nothing.
    pub fn sim_series(&self, prev: &SimSeries) -> SimSeries {
        SimSeries::read(&self.inner.registry, prev)
    }

    /// The sim-domain counters, sorted by `(component, name)`: a fresh
    /// [`SimSeries`]'s counters.
    pub fn sim_counters(&self) -> Vec<CounterSnapshot> {
        self.sim_series(&SimSeries::default()).counters()
    }

    /// The sim-domain gauges, sorted by `(component, name)`: a fresh
    /// [`SimSeries`]'s gauges.
    pub fn sim_gauges(&self) -> Vec<GaugeSnapshot> {
        self.sim_series(&SimSeries::default()).gauges()
    }

    /// The sim-domain histograms of simulated time, sorted by
    /// `(component, name)`: a fresh [`SimSeries`]'s histograms.
    pub fn sim_histograms(&self) -> Vec<HistogramSnapshot> {
        self.sim_series(&SimSeries::default()).histograms()
    }

    /// Render the current state as the text dashboard.
    pub fn render_dashboard(&self) -> String {
        dashboard::render(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_domain() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter("net", "sent").add(3);
        assert_eq!(u.counter("net", "sent").get(), 3);
        assert_eq!(Telemetry::new().counter("net", "sent").get(), 0);
    }

    #[test]
    fn spans_land_in_preregistered_histograms() {
        let t = Telemetry::new();
        t.record_span(Stage::Fft, Duration::from_micros(150), SimDuration::ZERO);
        t.record_span_sim(Stage::BusTransit, SimDuration::from_millis(30.0));
        assert_eq!(t.span_wall(Stage::Fft).count(), 1);
        assert_eq!(t.span_sim(Stage::Fft).count(), 1);
        assert_eq!(t.span_sim(Stage::BusTransit).count(), 1);
        let p50 = t.span_sim(Stage::BusTransit).p50().unwrap();
        assert!((p50 - 0.030).abs() < 1e-12, "exact for one sample: {p50}");
    }

    #[test]
    fn events_carry_sim_time() {
        let t = Telemetry::new();
        t.set_sim_now(SimTime::from_secs(42.0));
        t.event("net", "partition", "Dc(1) unreachable");
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at.as_secs(), 42.0);
        assert_eq!(events[0].kind, "partition");
    }

    #[test]
    fn snapshot_roundtrips_through_serde_json() {
        let t = Telemetry::new();
        t.set_sim_now(SimTime::from_secs(900.25));
        t.counter("dc1", "reports_emitted").add(12);
        t.gauge("pdme", "dc_staleness_max").set(4.5);
        for i in 0..50 {
            t.record_span(
                Stage::PdmeIngest,
                Duration::from_nanos(500 + 40 * i),
                SimDuration::from_millis(20.0 + i as f64),
            );
        }
        t.event("fusion", "conflict_renorm", "machine 1 k=0.42");
        let snap = t.snapshot();
        let json = snap.to_json().unwrap();
        let back = TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.counter("dc1", "reports_emitted"), 12);
        assert_eq!(back.gauge("pdme", "dc_staleness_max"), Some(4.5));
        let h = back.histogram("span", "pdme_ingest.sim_s").unwrap();
        assert_eq!(h.count, 50);
        assert!(h.p50.unwrap() <= h.p95.unwrap());
        assert!(h.p95.unwrap() <= h.p99.unwrap());
    }

    #[test]
    fn sim_domain_lists_are_the_snapshot_filtered_by_the_rule() {
        let t = Telemetry::new();
        t.counter("exec", "jobs").add(2);
        t.gauge("exec", "workers").set(4.0);
        t.histogram("exec", "queue_latency_s").record(0.2);
        t.counter("gateway", "requests").add(9);
        t.gauge("gateway", "sessions").set(1.0);
        t.histogram("gateway", "request_latency_s").record(0.1);
        t.counter("net", "sent").add(3);
        t.gauge("pdme", "dc_staleness_max").set(4.5);
        t.histogram("net", "bus_transit_s").record(0.005);
        t.histogram("pdme", "report_latency_s").record(1.5);
        t.histogram("store", "snapshot_duration_s").record(1e-4);
        t.record_span(Stage::Fft, Duration::from_micros(150), SimDuration::ZERO);
        // The rule as the gateway and the recorder each applied it to a
        // full snapshot.
        let served = |component: &str| component != "exec" && component != "gateway";
        let sim_time = |name: &str| {
            name.ends_with("sim_s") || name.ends_with("latency_s") || name.ends_with("transit_s")
        };
        let snap = t.snapshot();
        let counters: Vec<_> = snap
            .counters
            .into_iter()
            .filter(|c| served(&c.component))
            .collect();
        let gauges: Vec<_> = snap
            .gauges
            .into_iter()
            .filter(|g| served(&g.component))
            .collect();
        let histograms: Vec<_> = snap
            .histograms
            .into_iter()
            .filter(|h| served(&h.component) && sim_time(&h.name))
            .collect();
        assert_eq!(t.sim_counters(), counters);
        assert_eq!(t.sim_gauges(), gauges);
        assert_eq!(t.sim_histograms(), histograms);
        // Each list kept something and dropped something.
        let names = |h: &[HistogramSnapshot]| -> Vec<String> {
            h.iter()
                .map(|h| format!("{}.{}", h.component, h.name))
                .collect()
        };
        let kept = names(&t.sim_histograms());
        assert!(kept.contains(&"span.fft.sim_s".to_owned()));
        assert!(kept.contains(&"net.bus_transit_s".to_owned()));
        assert!(!kept
            .iter()
            .any(|n| n.ends_with("wall_s") || n.starts_with("exec")));
        assert!(!kept.contains(&"store.snapshot_duration_s".to_owned()));
        assert_eq!(counters.len(), 2, "net.sent and trace.hops_evicted");
        assert_eq!(
            gauges.len(),
            2,
            "pdme.dc_staleness_max and the trace watermark"
        );
    }

    #[test]
    fn a_series_reading_shares_keys_until_a_key_is_added_to_its_domain() {
        let t = Telemetry::new();
        let sent = t.counter("net", "sent");
        let first = t.sim_series(&SimSeries::default());
        sent.add(2);
        t.counter("net", "sent").inc();
        t.counter("exec", "jobs");
        let second = t.sim_series(&first);
        assert!(!second.shares_keys_with(&first), "exec.jobs is a new key");
        let third = t.sim_series(&second);
        assert!(third.shares_keys_with(&second), "no key added");
        assert_eq!(third.counters(), t.sim_counters());
        assert_eq!(
            third,
            t.sim_series(&SimSeries::default()),
            "content equality"
        );
        // Another domain with the same keys never takes the table over.
        let u = Telemetry::new();
        u.counter("net", "sent");
        u.counter("exec", "jobs");
        assert!(!u.sim_series(&third).shares_keys_with(&third));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let t = Telemetry::new();
        let mut snap = t.snapshot();
        snap.schema_version = 99;
        let json = snap.to_json().unwrap();
        assert!(TelemetrySnapshot::from_json(&json).is_err());
    }

    #[test]
    fn hop_eviction_surfaces_as_counter_and_watermark() {
        let t = Telemetry::new();
        let trace = TraceId(1);
        for attempt in 0..3 {
            t.record_hop(TraceHop::new(
                trace,
                HopKind::Send,
                attempt,
                None,
                "net",
                0.0,
                0.0,
                "",
            ));
        }
        assert_eq!(t.counter("trace", "hops_evicted").get(), 0);
        assert_eq!(t.gauge("trace", "hops_retained_watermark").get(), 3.0);
        assert_eq!(t.trace_log().watermark(), 3);
    }

    #[test]
    fn dashboard_names_every_stage() {
        let t = Telemetry::new();
        t.record_span_wall(Stage::Acquire, Duration::from_micros(3));
        t.event("dc1", "quarantine", "channel 4 silent");
        let text = t.render_dashboard();
        for stage in Stage::ALL {
            assert!(text.contains(stage.as_str()), "missing {stage}");
        }
        assert!(text.contains("quarantine"));
    }
}
