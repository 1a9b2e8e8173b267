//! The flight recorder: bounded per-step capture and incident sealing.
//!
//! An unattended shipboard PDME needs the *evidence around an event*,
//! not just live counters: when an SLO trips or a DC goes dark, the
//! operator who dials in hours later wants the journal entries, trace
//! hops, counter movement and SLO verdicts from the steps surrounding
//! the trigger. The [`FlightRecorder`] provides exactly that black-box
//! capability:
//!
//! * every simulation step, the control thread calls
//!   [`FlightRecorder::observe_step`], which captures one [`StepRecord`]
//!   — the journal events, trace hops, counter/gauge deltas and SLO
//!   verdict of that step — into a bounded ring (oldest-drop, so a
//!   cruise of any length holds a constant amount of history);
//! * on a **trigger edge** ([`IncidentTrigger`]: an SLO violation, a DC
//!   crash, a PDME crash-restore, or an explicit API call) the recorder
//!   opens a capture: the ring's tail becomes the *pre* context window,
//!   the following steps fill the *post* window, and when the post
//!   window closes the capture seals into an immutable [`Incident`];
//! * sealed incidents carry a deterministic id — splitmix64 over
//!   `master seed ⊕ trigger ⊕ step` via
//!   [`mpros_core::derive_stream_seed`] — and export as versioned JSON.
//!
//! ## Determinism contract
//!
//! Everything captured is restricted to the *simulation domain*: the
//! scheduling-only `exec` component and the serving-side `gateway`
//! component are filtered from counter/gauge capture by the rule the
//! gateway serves by, trace hops are stored without their wall-clock
//! nanoseconds, and each step's journal events are normalized by
//! `(time, component)` (within one component the order is
//! deterministic; cross-component interleaving within a step is
//! scheduling noise). A sealed incident's JSON is therefore
//! **byte-identical** across `Sequential` and `Parallel{2,4,8}`
//! execution — the same contract the ICAS export and canonical trace
//! exports already make, extended to post-mortem bundles.
//!
//! The recorder also maintains a bounded, cursor-addressable journal
//! tail ([`FlightRecorder::journal_tail`]) over the same normalized
//! event stream, which is what the gateway's `StreamJournal` request
//! serves.

use crate::snapshot::{EventSnapshot, GaugeSnapshot};
use crate::{sim_domain, Event, SloVerdict, Telemetry, TraceHop};
use mpros_core::derive_stream_seed;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, PoisonError};

/// Incident interchange schema version.
pub const INCIDENT_SCHEMA_VERSION: u32 = 1;

/// What fired an incident capture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentTrigger {
    /// The SLO watchdog's verdict flipped from pass to fail.
    SloViolation,
    /// A DC crash window opened.
    DcCrashed {
        /// Raw id of the crashed DC.
        dc: u64,
    },
    /// The PDME was torn down and rebuilt from its durable store.
    PdmeCrashRestore,
    /// An explicit capture request through the API.
    Manual {
        /// Caller-supplied label.
        label: String,
    },
}

impl IncidentTrigger {
    /// Stable snake_case name (used in exports and summaries).
    pub fn kind(&self) -> &'static str {
        match self {
            IncidentTrigger::SloViolation => "slo_violation",
            IncidentTrigger::DcCrashed { .. } => "dc_crashed",
            IncidentTrigger::PdmeCrashRestore => "pdme_crash_restore",
            IncidentTrigger::Manual { .. } => "manual",
        }
    }

    /// Deterministic 64-bit code folded into the incident id: the
    /// trigger kind's ordinal mixed with its payload (crashed DC id,
    /// manual label hash) so two different triggers at the same step
    /// seal distinct incidents.
    pub fn code(&self) -> u64 {
        match self {
            IncidentTrigger::SloViolation => derive_stream_seed(1, 0),
            IncidentTrigger::DcCrashed { dc } => derive_stream_seed(2, *dc),
            IncidentTrigger::PdmeCrashRestore => derive_stream_seed(3, 0),
            IncidentTrigger::Manual { label } => {
                derive_stream_seed(4, mpros_core::seed::fnv1a(label))
            }
        }
    }
}

/// The deterministic incident id: splitmix64 over
/// `master seed ⊕ trigger ⊕ step` (two [`derive_stream_seed`] rounds).
/// Pure — any observer who knows the scenario seed, the trigger and the
/// step can (re)compute the id without seeing the bundle.
pub fn incident_id(master_seed: u64, trigger: &IncidentTrigger, step: u64) -> u64 {
    mpros_core::seed::incident_id(master_seed, trigger.code(), step)
}

/// One trace hop as captured into records and served over the wire:
/// every field of [`TraceHop`] except the diagnostic-only wall-clock
/// nanoseconds, which would break cross-mode byte identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopRecord {
    /// The report's trace id.
    pub trace: u64,
    /// This hop's span id.
    pub span: u64,
    /// Causal parent span, absent only for the emit root.
    pub parent: Option<u64>,
    /// Hop kind, as its stable snake_case name.
    pub kind: String,
    /// Attempt number.
    pub attempt: u32,
    /// Export track (`dc{N}`, `net`, `pdme`).
    pub track: String,
    /// Simulated start time, seconds.
    pub sim_start: f64,
    /// Simulated end time, seconds.
    pub sim_end: f64,
    /// Free-form annotation.
    pub detail: String,
}

impl From<&TraceHop> for HopRecord {
    fn from(h: &TraceHop) -> Self {
        HopRecord {
            trace: h.trace.raw(),
            span: h.span.raw(),
            parent: h.parent.map(|p| p.raw()),
            kind: h.kind.as_str().to_owned(),
            attempt: h.attempt,
            track: h.track.clone(),
            sim_start: h.sim_start,
            sim_end: h.sim_end,
            detail: h.detail.clone(),
        }
    }
}

/// One counter's movement during a step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Owning component.
    pub component: String,
    /// Metric name.
    pub name: String,
    /// Increments observed this step.
    pub delta: u64,
    /// Running total after the step.
    pub total: u64,
}

/// Everything the recorder captured for one simulation step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step ordinal (the sim's step count after the step ran).
    pub step: u64,
    /// Simulated seconds at capture.
    pub at_secs: f64,
    /// Journal events recorded during the step, normalized by
    /// `(time, component)`.
    pub events: Vec<EventSnapshot>,
    /// Trace hops recorded during the step, canonically ordered.
    pub hops: Vec<HopRecord>,
    /// Sim-domain counters that moved this step.
    pub counter_deltas: Vec<CounterDelta>,
    /// Sim-domain gauge readings at the end of the step.
    pub gauges: Vec<GaugeSnapshot>,
    /// The SLO watchdog's verdict for the step, if a policy is active.
    pub slo: Option<SloVerdict>,
}

/// A sealed, immutable incident bundle: the trigger, the step it fired
/// on, and the pre/post context windows around it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Schema version (see [`INCIDENT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Deterministic id (see [`incident_id`]).
    pub id: u64,
    /// What fired the capture.
    pub trigger: IncidentTrigger,
    /// The step the trigger was observed on.
    pub step: u64,
    /// Simulated seconds at the trigger step.
    pub at_secs: f64,
    /// Steps of context captured before the trigger step.
    pub pre_steps: usize,
    /// Steps of context captured after the trigger step.
    pub post_steps: usize,
    /// The context window: `pre_steps` records, then the trigger step's
    /// record, then `post_steps` records.
    pub records: Vec<StepRecord>,
}

impl Incident {
    /// Render as pretty-printed JSON (the interchange form).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a document produced by [`Incident::to_json`]. Rejects
    /// documents from a different schema version.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let incident: Incident = serde_json::from_str(s)?;
        if incident.schema_version != INCIDENT_SCHEMA_VERSION {
            return Err(serde::DeError::custom(format!(
                "unsupported incident schema version {} (expected {})",
                incident.schema_version, INCIDENT_SCHEMA_VERSION
            ))
            .into());
        }
        Ok(incident)
    }

    /// The summary row served by `ListIncidents`.
    pub fn summary(&self) -> IncidentSummary {
        IncidentSummary {
            id: self.id,
            trigger: self.trigger.clone(),
            step: self.step,
            at_secs: self.at_secs,
            records: self.records.len(),
        }
    }
}

/// One row of the incident index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentSummary {
    /// Deterministic incident id.
    pub id: u64,
    /// What fired the capture.
    pub trigger: IncidentTrigger,
    /// The step the trigger was observed on.
    pub step: u64,
    /// Simulated seconds at the trigger step.
    pub at_secs: f64,
    /// Number of step records in the sealed bundle.
    pub records: usize,
}

/// One page of the journal tail (see [`FlightRecorder::journal_tail`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalBatch {
    /// Cursor to pass on the next poll (one past the last event served).
    pub next_cursor: u64,
    /// Events the cursor missed: evicted from the bounded tail (or from
    /// the source journal ring) before this poll read them.
    pub dropped: u64,
    /// The served events, oldest first, with recorder stream sequence
    /// numbers.
    pub events: Vec<EventSnapshot>,
}

/// Flight recorder tuning knobs, builder-style like the other MPROS
/// configs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RecorderConfig {
    /// Step records retained in the ring (the maximum *pre* context any
    /// future incident can capture).
    pub ring_capacity: usize,
    /// Records of context captured before a trigger step.
    pub pre_steps: usize,
    /// Records of context captured after a trigger step; the capture
    /// seals once this many further steps are observed.
    pub post_steps: usize,
    /// Sealed incidents retained (oldest-drop).
    pub max_incidents: usize,
    /// Normalized journal events retained for cursor-based tailing.
    pub journal_tail_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 64,
            pre_steps: 8,
            post_steps: 4,
            max_incidents: 16,
            journal_tail_capacity: 512,
        }
    }
}

impl RecorderConfig {
    /// The default configuration (64-record ring, 8 pre / 4 post,
    /// 16 incidents, 512 tail events).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the step-record ring capacity (clamped to at least 1).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// Set the pre-trigger context window, in steps.
    pub fn with_pre_steps(mut self, pre_steps: usize) -> Self {
        self.pre_steps = pre_steps;
        self
    }

    /// Set the post-trigger context window, in steps.
    pub fn with_post_steps(mut self, post_steps: usize) -> Self {
        self.post_steps = post_steps;
        self
    }

    /// Set the sealed-incident retention bound (clamped to at least 1).
    pub fn with_max_incidents(mut self, max_incidents: usize) -> Self {
        self.max_incidents = max_incidents.max(1);
        self
    }

    /// Set the journal-tail retention bound (clamped to at least 1).
    pub fn with_journal_tail_capacity(mut self, capacity: usize) -> Self {
        self.journal_tail_capacity = capacity.max(1);
        self
    }
}

/// An open capture accumulating its post window.
#[derive(Debug)]
struct PendingIncident {
    trigger: IncidentTrigger,
    step: u64,
    at_secs: f64,
    pre_steps: usize,
    records: Vec<StepRecord>,
    remaining_post: usize,
}

#[derive(Debug, Default)]
struct RecorderState {
    /// The bounded per-step ring, oldest first.
    ring: VecDeque<StepRecord>,
    /// Normalized journal tail with recorder stream sequence numbers.
    tail: VecDeque<EventSnapshot>,
    tail_next_seq: u64,
    /// Next raw journal sequence number to capture.
    journal_cursor: u64,
    /// Next raw trace-log index to capture.
    trace_cursor: usize,
    /// Last observed totals of sim-domain counters, by component and
    /// name.
    counter_totals: BTreeMap<String, BTreeMap<String, u64>>,
    /// Open captures, in trigger order.
    pending: Vec<PendingIncident>,
    /// Sealed incidents, oldest first (bounded).
    incidents: VecDeque<Incident>,
    /// Incidents sealed over the recorder's lifetime.
    sealed_total: u64,
    /// Steps observed over the recorder's lifetime.
    steps_observed: u64,
}

/// The bounded, allocation-stable flight recorder. One per scenario,
/// fed by the simulation's control thread between steps and read
/// concurrently by the serving gateway.
#[derive(Debug)]
pub struct FlightRecorder {
    config: RecorderConfig,
    master_seed: u64,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder for a scenario with the given master seed (folded
    /// into every incident id).
    pub fn new(config: RecorderConfig, master_seed: u64) -> Self {
        FlightRecorder {
            config,
            master_seed,
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// The scenario master seed incident ids derive from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Capture one step: drain the journal and trace log since the last
    /// capture, compute counter deltas, record the SLO verdict, advance
    /// open captures and seal any whose post window closed, and open a
    /// new capture per trigger. Called by the scenario's control thread
    /// once per step, after the step's work (engine quiet).
    pub fn observe_step(
        &self,
        step: u64,
        at_secs: f64,
        telemetry: &Telemetry,
        slo: Option<&SloVerdict>,
        triggers: &[IncidentTrigger],
    ) {
        let mut s = self.lock();
        s.steps_observed += 1;

        // Journal: the events at or past the cursor, normalized.
        let (mut fresh, journal_next) = telemetry.journal().events_from(s.journal_cursor);
        s.journal_cursor = journal_next;
        fresh.sort_by(|a, b| event_order(a).cmp(&event_order(b)));
        let mut events = Vec::with_capacity(fresh.len());
        for e in fresh {
            let snap = EventSnapshot {
                seq: s.tail_next_seq,
                ..EventSnapshot::from(e)
            };
            s.tail_next_seq += 1;
            if s.tail.len() == self.config.journal_tail_capacity {
                s.tail.pop_front();
            }
            s.tail.push_back(snap.clone());
            events.push(snap);
        }

        // Trace hops recorded since the last capture: the *set* is
        // deterministic per step (each step's recording is), the raw
        // order is not — canonical-sort the delta.
        let (new_hops, new_len) = telemetry.trace_log().hops_from(s.trace_cursor);
        s.trace_cursor = new_len;
        let mut hops: Vec<HopRecord> = new_hops.iter().map(HopRecord::from).collect();
        hops.sort_by(|a, b| hop_order(a).cmp(&hop_order(b)));

        // Sim-domain counter movement and gauge readings, read straight
        // from the registry; only the counters that moved are copied.
        let mut counter_deltas = Vec::new();
        let totals = &mut s.counter_totals;
        let registry = telemetry.registry();
        registry.for_each_counter(|component, name, counter| {
            if !sim_domain(component) {
                return;
            }
            let total = counter.get();
            let prev = match totals.get_mut(component).and_then(|n| n.get_mut(name)) {
                Some(prev) => std::mem::replace(prev, total),
                None => {
                    let names = totals.entry(component.to_owned()).or_default();
                    names.insert(name.to_owned(), total);
                    0
                }
            };
            if total != prev {
                counter_deltas.push(CounterDelta {
                    component: component.to_owned(),
                    name: name.to_owned(),
                    delta: total.saturating_sub(prev),
                    total,
                });
            }
        });
        let gauges = registry.gauges_where(|component, _| sim_domain(component));

        let record = StepRecord {
            step,
            at_secs,
            events,
            hops,
            counter_deltas,
            gauges,
            slo: slo.cloned(),
        };

        // Advance open captures with the fresh record; seal the closed
        // ones in trigger order.
        for mut p in std::mem::take(&mut s.pending) {
            p.records.push(record.clone());
            if p.remaining_post == 0 {
                self.seal(&mut s, p);
            } else {
                p.remaining_post -= 1;
                s.pending.push(p);
            }
        }

        // Open one capture per (deduplicated) trigger: the ring tail is
        // the pre window, this step's record is the trigger record.
        let mut seen: Vec<&IncidentTrigger> = Vec::new();
        for trigger in triggers {
            if seen.contains(&trigger) || s.pending.len() >= self.config.max_incidents {
                continue;
            }
            seen.push(trigger);
            let skip = s.ring.len().saturating_sub(self.config.pre_steps);
            let mut records: Vec<StepRecord> = s.ring.iter().skip(skip).cloned().collect();
            let pre_steps = records.len();
            records.push(record.clone());
            let capture = PendingIncident {
                trigger: trigger.clone(),
                step,
                at_secs,
                pre_steps,
                records,
                remaining_post: self.config.post_steps.saturating_sub(1),
            };
            // A zero-post capture seals immediately.
            if self.config.post_steps == 0 {
                self.seal(&mut s, capture);
            } else {
                s.pending.push(capture);
            }
        }

        // Finally, the fresh record enters the ring.
        if s.ring.len() == self.config.ring_capacity {
            s.ring.pop_front();
        }
        s.ring.push_back(record);
    }

    /// Seal a closed capture into its incident bundle and retain it,
    /// evicting the oldest sealed incident past the retention bound.
    fn seal(&self, s: &mut RecorderState, p: PendingIncident) {
        if s.incidents.len() == self.config.max_incidents {
            s.incidents.pop_front();
        }
        s.incidents.push_back(Incident {
            schema_version: INCIDENT_SCHEMA_VERSION,
            id: incident_id(self.master_seed, &p.trigger, p.step),
            trigger: p.trigger,
            step: p.step,
            at_secs: p.at_secs,
            pre_steps: p.pre_steps,
            post_steps: p.records.len() - p.pre_steps - 1,
            records: p.records,
        });
        s.sealed_total += 1;
    }

    /// Steps observed over the recorder's lifetime.
    pub fn steps_observed(&self) -> u64 {
        self.lock().steps_observed
    }

    /// Step records currently retained in the ring.
    pub fn ring_len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Captures currently accumulating their post window.
    pub fn pending_captures(&self) -> usize {
        self.lock().pending.len()
    }

    /// Incidents sealed over the recorder's lifetime (retention may
    /// have evicted early ones).
    pub fn sealed_total(&self) -> u64 {
        self.lock().sealed_total
    }

    /// Summaries of the retained sealed incidents, oldest first.
    pub fn incidents(&self) -> Vec<IncidentSummary> {
        self.lock()
            .incidents
            .iter()
            .map(Incident::summary)
            .collect()
    }

    /// The retained sealed incident with the given id.
    pub fn incident(&self, id: u64) -> Option<Incident> {
        self.lock().incidents.iter().find(|i| i.id == id).cloned()
    }

    /// One page of the normalized journal tail, starting at `cursor`
    /// (a recorder stream sequence number; pass 0 to start from the
    /// oldest retained event, then feed `next_cursor` back in). At most
    /// `max` events are returned; `dropped` counts events the cursor
    /// missed to the bounded tail's oldest-drop eviction.
    pub fn journal_tail(&self, cursor: u64, max: usize) -> JournalBatch {
        let s = self.lock();
        let oldest = s.tail.front().map(|e| e.seq).unwrap_or(s.tail_next_seq);
        let dropped = oldest.saturating_sub(cursor);
        let events: Vec<EventSnapshot> = s
            .tail
            .iter()
            .filter(|e| e.seq >= cursor)
            .take(max)
            .cloned()
            .collect();
        let next_cursor = events
            .last()
            .map(|e| e.seq + 1)
            .unwrap_or(oldest.max(cursor));
        JournalBatch {
            next_cursor,
            dropped,
            events,
        }
    }
}

/// Journal events of one step in `(time, component)` order: within one
/// component the sequence is deterministic; cross-component
/// interleaving within a step varies with worker scheduling.
fn event_order(e: &Event) -> (u64, &str, u64) {
    (e.at.as_secs().to_bits(), &e.component, e.seq)
}

/// The canonical order of one step's trace hops.
fn hop_order(h: &HopRecord) -> (u64, u64, u64, &str, u32, &str) {
    let (start, end) = (h.sim_start.to_bits(), h.sim_end.to_bits());
    (start, end, h.trace, &h.kind, h.attempt, &h.detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::SimTime;

    fn observe(rec: &FlightRecorder, t: &Telemetry, step: u64, triggers: &[IncidentTrigger]) {
        t.set_sim_now(SimTime::from_secs(step as f64));
        rec.observe_step(step, step as f64, t, None, triggers);
    }

    #[test]
    fn ring_is_bounded_and_oldest_drop() {
        let rec = FlightRecorder::new(RecorderConfig::new().with_ring_capacity(4), 7);
        let t = Telemetry::new();
        for step in 1..=10 {
            observe(&rec, &t, step, &[]);
        }
        assert_eq!(rec.ring_len(), 4);
        assert_eq!(rec.steps_observed(), 10);
    }

    #[test]
    fn trigger_seals_incident_with_pre_and_post_windows() {
        let config = RecorderConfig::new()
            .with_pre_steps(2)
            .with_post_steps(2)
            .with_ring_capacity(8);
        let rec = FlightRecorder::new(config, 7);
        let t = Telemetry::new();
        for step in 1..=4 {
            observe(&rec, &t, step, &[]);
        }
        t.event("sim", "boom", "it happened");
        observe(
            &rec,
            &t,
            5,
            &[IncidentTrigger::Manual { label: "op".into() }],
        );
        assert_eq!(rec.pending_captures(), 1);
        assert!(rec.incidents().is_empty());
        observe(&rec, &t, 6, &[]);
        observe(&rec, &t, 7, &[]);
        assert_eq!(rec.pending_captures(), 0);
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        let incident = rec.incident(incidents[0].id).unwrap();
        assert_eq!(incident.step, 5);
        assert_eq!(incident.pre_steps, 2);
        assert_eq!(incident.post_steps, 2);
        let steps: Vec<u64> = incident.records.iter().map(|r| r.step).collect();
        assert_eq!(steps, vec![3, 4, 5, 6, 7]);
        // The trigger step's record carries the journaled event.
        assert_eq!(incident.records[2].events.len(), 1);
        assert_eq!(incident.records[2].events[0].kind, "boom");
        // Roundtrip through the interchange form.
        let back = Incident::from_json(&incident.to_json().unwrap()).unwrap();
        assert_eq!(back, incident);
    }

    #[test]
    fn incident_id_is_deterministic_and_trigger_sensitive() {
        let a = IncidentTrigger::DcCrashed { dc: 2 };
        let b = IncidentTrigger::DcCrashed { dc: 3 };
        assert_eq!(incident_id(7, &a, 80), incident_id(7, &a, 80));
        assert_ne!(incident_id(7, &a, 80), incident_id(7, &b, 80));
        assert_ne!(incident_id(7, &a, 80), incident_id(7, &a, 81));
        assert_ne!(incident_id(7, &a, 80), incident_id(8, &a, 80));
        assert_ne!(
            incident_id(7, &IncidentTrigger::SloViolation, 80),
            incident_id(7, &IncidentTrigger::PdmeCrashRestore, 80)
        );
    }

    #[test]
    fn journal_tail_is_cursor_addressable_and_bounded() {
        let rec = FlightRecorder::new(RecorderConfig::new().with_journal_tail_capacity(3), 7);
        let t = Telemetry::new();
        for step in 1..=5u64 {
            t.event("net", "drop", format!("frame {step}"));
            observe(&rec, &t, step, &[]);
        }
        // 5 events through a capacity-3 tail: the first two evicted.
        let batch = rec.journal_tail(0, 16);
        assert_eq!(batch.dropped, 2);
        assert_eq!(batch.events.len(), 3);
        assert_eq!(batch.events[0].detail, "frame 3");
        assert_eq!(batch.next_cursor, 5);
        // Resuming from the returned cursor sees nothing new.
        let empty = rec.journal_tail(batch.next_cursor, 16);
        assert_eq!(empty.dropped, 0);
        assert!(empty.events.is_empty());
        assert_eq!(empty.next_cursor, batch.next_cursor);
        // New events appear at the cursor.
        t.event("net", "drop", "frame 6");
        observe(&rec, &t, 6, &[]);
        let more = rec.journal_tail(batch.next_cursor, 16);
        assert_eq!(more.events.len(), 1);
        assert_eq!(more.events[0].detail, "frame 6");
    }

    #[test]
    fn the_cursor_read_of_the_journal_matches_a_full_copy_across_eviction() {
        let rec = FlightRecorder::new(RecorderConfig::new().with_post_steps(0), 7);
        let t = Telemetry::new();
        let mut cursor = 0;
        let mut captured = Vec::new();
        // Bursts of 300 and 257 overrun the 256-event source ring
        // within one step.
        for (step, burst) in [(1u64, 3), (2, 300), (3, 0), (4, 257), (5, 5)] {
            t.set_sim_now(SimTime::from_secs(step as f64));
            for i in 0..burst {
                let component = if i % 3 == 0 { "net" } else { "dc1" };
                t.event(component, "drop", format!("step {step} event {i}"));
            }
            // The oracle: copy the whole ring, keep what is at or past
            // the cursor, normalize by (time, component, seq).
            let all = t.events();
            let mut fresh: Vec<crate::Event> =
                all.iter().filter(|e| e.seq >= cursor).cloned().collect();
            if let Some(last) = all.last() {
                cursor = last.seq + 1;
            }
            fresh.sort_by(|a, b| {
                (a.at.as_secs().to_bits(), &a.component, a.seq).cmp(&(
                    b.at.as_secs().to_bits(),
                    &b.component,
                    b.seq,
                ))
            });
            let expected: Vec<(String, String)> =
                fresh.into_iter().map(|e| (e.component, e.detail)).collect();
            let label = format!("step {step}");
            rec.observe_step(
                step,
                step as f64,
                &t,
                None,
                &[IncidentTrigger::Manual { label }],
            );
            let sealed = rec.incidents().last().unwrap().id;
            let record = rec.incident(sealed).unwrap().records.pop().unwrap();
            let got: Vec<(String, String)> = record
                .events
                .into_iter()
                .map(|e| (e.component, e.detail))
                .collect();
            assert_eq!(got, expected, "step {step}");
            captured.extend(expected);
        }
        assert_eq!(captured.len(), 3 + 256 + 256 + 5);
        // The tail keeps the newest 512 captured events, numbered in
        // capture order.
        let batch = rec.journal_tail(0, usize::MAX);
        assert_eq!(batch.dropped, 8);
        let tail: Vec<(u64, String, String)> = batch
            .events
            .into_iter()
            .map(|e| (e.seq, e.component, e.detail))
            .collect();
        let expected: Vec<(u64, String, String)> = captured
            .into_iter()
            .enumerate()
            .skip(8)
            .map(|(seq, (component, detail))| (seq as u64, component, detail))
            .collect();
        assert_eq!(tail, expected);
    }

    #[test]
    fn exec_and_gateway_components_are_filtered_from_capture() {
        let rec = FlightRecorder::new(RecorderConfig::new().with_post_steps(0), 7);
        let t = Telemetry::new();
        t.counter("exec", "jobs").add(5);
        t.counter("gateway", "requests").add(9);
        t.counter("net", "sent").add(3);
        observe(&rec, &t, 1, &[IncidentTrigger::SloViolation]);
        let incident = rec.incident(rec.incidents()[0].id).unwrap();
        let record = incident.records.last().unwrap();
        let components: Vec<&str> = record
            .counter_deltas
            .iter()
            .map(|d| d.component.as_str())
            .collect();
        assert_eq!(components, vec!["net"]);
    }
}
