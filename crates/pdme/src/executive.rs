//! The PDME executive.
//!
//! §5.1's knowledge-fusion control flow:
//!
//! 1. "New reports arriving to the PDME are posted in the OOSM."
//! 2. "New reports posted in the OOSM generate 'new data' messages to
//!    the knowledge fusion components."
//! 3. "The knowledge fusion components access the newly arrived data
//!    from the OOSM. They perform knowledge fusion of diagnostic reports
//!    and knowledge fusion of prognostic reports."
//! 4. "Conclusions from the knowledge fusion components are posted to
//!    the OOSM and presented in user displays."
//!
//! [`PdmeExecutive::ingest`] is the single entry point: step 1 for a
//! whole step's worth of delivered frames, then steps 2–4 as one direct
//! pass that hands fusion each report step 1 posted, in posted order,
//! with resident conclusions queued behind them. No OOSM subscription
//! is involved. It returns an [`IngestSummary`] whose [`BatchAck`]s
//! feed the reliable-transport loop in `mpros-network`.

use crate::historian::{Historian, MaintenanceRecord};
use crate::journal::{encode_ingest, PdmeWalRecord, KIND_INGEST};
use crate::supervisor::Supervisor;
use mpros_core::{
    ConditionReport, DcId, Durable, Error, FailureGroup, MachineCondition, MachineId, Result,
    SimDuration, SimTime,
};
use mpros_fusion::{FusionEngine, MaintenanceItem};
use mpros_network::NetMessage;
use mpros_oosm::{ObjectKind, Oosm, Relation, Value};
use mpros_store::{RecoveredState, StoreHandle};
use mpros_telemetry::{
    Counter, Gauge, Histogram, HopKind, Instrumented, SpanId, Stage, Telemetry, TraceHop, TraceId,
    WallTimer,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Reserved DC id for PDME-resident knowledge sources (§5.7); their
/// reports skip the resident-algorithm pass to bound recursion.
pub const PDME_RESIDENT_DC: DcId = DcId(u64::MAX);

/// The ship-model property under which the executive surfaces a
/// condition's fused belief: `fused_belief:<catalog index>`.
pub fn fused_belief_key(condition: MachineCondition) -> &'static str {
    const KEYS: [&str; MachineCondition::ALL.len()] = [
        "fused_belief:0",
        "fused_belief:1",
        "fused_belief:2",
        "fused_belief:3",
        "fused_belief:4",
        "fused_belief:5",
        "fused_belief:6",
        "fused_belief:7",
        "fused_belief:8",
        "fused_belief:9",
        "fused_belief:10",
        "fused_belief:11",
    ];
    KEYS[condition.index()]
}

/// A point in one engine's history of changes to what it serves: a
/// machine's ICAS entry (its fused conditions, health, status, report
/// count) or the maintenance list. Two equal revisions name the same
/// engine instance after the same number of changes, so whatever a
/// publisher built at the first still holds at the second. Every engine
/// instance — fresh, decoded or restored — draws its own process-unique
/// base, so no revision of a restored engine equals one from before the
/// restore. Derived, never encoded. The default revision precedes every
/// engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Revision {
    engine: u64,
    change: u64,
}

/// The executive's change stamps behind [`Revision`]: the engine
/// instance's base, its change count, and the count at each machine's
/// last change.
#[derive(Debug)]
struct Revisions {
    engine: u64,
    changes: u64,
    machines: HashMap<MachineId, u64>,
}

impl Revisions {
    fn new() -> Self {
        static NEXT_ENGINE: AtomicU64 = AtomicU64::new(1);
        Revisions {
            engine: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
            changes: 0,
            machines: HashMap::new(),
        }
    }

    fn touch(&mut self, machine: MachineId) {
        self.changes += 1;
        self.machines.insert(machine, self.changes);
    }

    fn current(&self) -> Revision {
        Revision {
            engine: self.engine,
            change: self.changes,
        }
    }

    fn machine(&self, machine: MachineId) -> Revision {
        Revision {
            engine: self.engine,
            change: self.machines.get(&machine).copied().unwrap_or(0),
        }
    }
}

/// A PDME-resident diagnostic/prognostic algorithm (§5.7): invoked on
/// every externally posted report with read access to the ship model;
/// may emit further reports (e.g. system-level, model-based
/// conclusions).
pub trait ResidentAlgorithm: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &str;
    /// React to a newly posted report.
    fn on_report(&mut self, report: &ConditionReport, model: &Oosm) -> Vec<ConditionReport>;
}

/// A cumulative acknowledgement owed to one DC for the batched report
/// frames accepted (or recognized as replays) during an ingest pass.
/// Relayed to the DC, it releases every outbox frame of `epoch` whose
/// highest sequence is at or below `last_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// The DC the acknowledgement is addressed to.
    pub dc: DcId,
    /// The DC restart epoch the acknowledged frames were emitted in.
    pub epoch: u64,
    /// Highest batch entry sequence covered, cumulatively.
    pub last_seq: u64,
}

/// What one [`PdmeExecutive::ingest`] pass did, and the
/// acknowledgements it owes the fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Reports posted to the OOSM (fresh, non-replayed).
    pub posted: usize,
    /// Reports fused by the knowledge-fusion pass (posted reports plus
    /// anything resident algorithms emitted in response).
    pub fused: usize,
    /// Batch entries dropped as replays of already-accepted sequences.
    pub replays: usize,
    /// Heartbeat frames observed.
    pub heartbeats: usize,
    /// Cumulative per-DC acknowledgements, sorted by DC then epoch.
    /// Replayed frames are re-acknowledged too: a replay means the
    /// first ack was lost, and only another ack releases the sender's
    /// outbox.
    pub acks: Vec<BatchAck>,
}

/// A report one ingest pass posted and has yet to fuse, with the trace
/// context its `Fuse` and `OosmUpdate` hops hang under: the report's
/// trace and its ingest span. Only wire-batched reports carry one.
type Posted<'a> = (Cow<'a, ConditionReport>, Option<(TraceId, SpanId)>);

/// The PDME executive.
pub struct PdmeExecutive {
    oosm: Oosm,
    fusion: FusionEngine,
    resident: Vec<Box<dyn ResidentAlgorithm>>,
    supervisor: Supervisor,
    dc_last_seen: HashMap<DcId, SimTime>,
    /// Replay guard: per DC, the restart epoch and highest batch
    /// sequence accepted within it. Entries at or below the watermark
    /// in the same epoch are replays (duplicated frames, re-sent
    /// batches) and are skipped rather than double-fused; a frame from
    /// a newer epoch resets the watermark, because a restarted DC's
    /// sequence counter starts over.
    batch_last_seq: HashMap<DcId, (u64, u64)>,
    /// The maintenance archive (§9): outcomes, service lives, Weibull
    /// life-model feed. Snapshotted and journaled with the rest of the
    /// engine so learned life models survive restarts.
    historian: Historian,
    /// Fused `(machine, group)` frames whose `fused_belief:*`
    /// properties are not on the ship model yet, because the machine
    /// had no object when the frame was fused. The next ingest pass
    /// writes them. Derived, never encoded: a restored engine recomputes
    /// it from the model ([`Self::unsurfaced_frames`]).
    unsurfaced: BTreeSet<(MachineId, FailureGroup)>,
    /// What changed since a publisher last looked (see [`Revision`]).
    /// Derived, never encoded: a restored engine starts a new base.
    revisions: Revisions,
    /// Durable store for WAL + snapshots; `None` runs the executive
    /// volatile (unit tests, replay). Attached via
    /// [`PdmeExecutive::attach_store`].
    store: Option<StoreHandle>,
    telemetry: Telemetry,
    metrics: PdmeCounters,
}

/// The executive's own instruments, named once.
struct PdmeCounters {
    reports_received: Arc<Counter>,
    batch_replays: Arc<Counter>,
    report_latency: Arc<Histogram>,
    /// Worst DC silence as of the last supervision pass.
    dc_staleness_max: Arc<Gauge>,
}

impl PdmeCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        PdmeCounters {
            reports_received: telemetry.counter("pdme", "reports_received"),
            batch_replays: telemetry.counter("pdme", "batch_replays_dropped"),
            report_latency: telemetry.histogram("pdme", "report_latency_s"),
            dc_staleness_max: telemetry.gauge("pdme", "dc_staleness_max"),
        }
    }
}

impl Default for PdmeExecutive {
    fn default() -> Self {
        Self::new()
    }
}

impl PdmeExecutive {
    /// A fresh executive with an empty ship model.
    pub fn new() -> Self {
        let telemetry = Telemetry::new();
        let mut oosm = Oosm::new();
        oosm.set_telemetry(&telemetry);
        let mut fusion = FusionEngine::new();
        fusion.set_telemetry(&telemetry);
        PdmeExecutive {
            oosm,
            fusion,
            resident: Vec::new(),
            supervisor: Supervisor::new(),
            dc_last_seen: HashMap::new(),
            batch_last_seq: HashMap::new(),
            historian: Historian::new(),
            unsurfaced: BTreeSet::new(),
            revisions: Revisions::new(),
            store: None,
            metrics: PdmeCounters::wire(&telemetry),
            telemetry,
        }
    }

    /// Attach the durable store: every state-changing entry point
    /// journals to it before applying (WAL discipline), and
    /// [`PdmeExecutive::snapshot_to_store`] checkpoints into it. Attach
    /// after wiring (machines registered, DCs assigned) and write a
    /// baseline snapshot so recovery never starts from an empty model.
    pub fn attach_store(&mut self, store: StoreHandle) {
        self.store = Some(store);
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&StoreHandle> {
        self.store.as_ref()
    }

    /// Journal one WAL record if a store is attached. Infallible entry
    /// points (`register_machine`, `assign_dc`) go through
    /// [`Self::journal_or_die`] instead.
    fn journal(&self, record: &PdmeWalRecord) -> Result<()> {
        if let Some(store) = &self.store {
            store.append(record.kind(), record.payload()?)?;
        }
        Ok(())
    }

    /// WAL discipline for entry points that cannot surface an error:
    /// losing a journal record silently would make recovery diverge, so
    /// an append failure (possible only on I/O-backed media) halts.
    #[allow(clippy::expect_used)] // halting is the documented contract
    fn journal_or_die(&self, record: &PdmeWalRecord) {
        self.journal(record).expect("PDME WAL append failed");
    }

    /// Register a monitored machine in the ship model.
    pub fn register_machine(&mut self, machine: MachineId, name: &str) {
        self.journal_or_die(&PdmeWalRecord::RegisterMachine {
            machine,
            name: name.to_string(),
        });
        self.oosm.register_machine(machine, name);
        self.revisions.touch(machine);
    }

    /// Install a PDME-resident algorithm (§5.7).
    pub fn add_resident_algorithm(&mut self, algorithm: Box<dyn ResidentAlgorithm>) {
        self.resident.push(algorithm);
    }

    /// The ship model.
    pub fn oosm(&self) -> &Oosm {
        &self.oosm
    }

    /// Mutable ship-model access (scenario construction: decks, systems,
    /// proximity relations, ...; §4.5 event subscriptions). A report
    /// posted here is stored but neither journaled nor fused: only
    /// [`Self::ingest`] feeds fusion, so the fused state always matches
    /// what a WAL restore rebuilds.
    ///
    /// The executive cannot see what the caller changes, so the call
    /// starts a new [`Revision`] base: every machine counts as changed.
    pub fn oosm_mut(&mut self) -> &mut Oosm {
        self.revisions = Revisions::new();
        &mut self.oosm
    }

    /// The engine's current [`Revision`]. It moves whenever a machine's
    /// ICAS entry or the maintenance list may have changed: a machine
    /// registered, a report posted, a fused belief surfaced, a `status`
    /// flip, or any [`Self::oosm_mut`] call.
    pub fn revision(&self) -> Revision {
        self.revisions.current()
    }

    /// The [`Revision`] at which `machine`'s ICAS entry last changed:
    /// its registration, a report posted for it, a fused belief
    /// surfaced on it or on any machine `part-of` it (its health folds
    /// theirs), or its `status` flipping.
    pub fn machine_revision(&self, machine: MachineId) -> Revision {
        self.revisions.machine(machine)
    }

    /// Mark `machine` changed, with every machine it is transitively
    /// `part-of`: their health folds its fused beliefs.
    fn touch_with_ancestors(&mut self, machine: MachineId) {
        self.revisions.touch(machine);
        let Some(object) = self.oosm.machine_object(machine) else {
            return;
        };
        let mut up = self.oosm.related(object, Relation::PartOf);
        let mut seen = BTreeSet::new();
        while let Some(parent) = up.pop() {
            if !seen.insert(parent) {
                continue;
            }
            if self.oosm.kind(parent) == Ok(ObjectKind::Machine) {
                if let Some(id) = self
                    .oosm
                    .property(parent, "machine_id")
                    .and_then(|v| v.as_int())
                {
                    self.revisions.touch(MachineId::new(id as u64));
                }
            }
            up.extend(self.oosm.related(parent, Relation::PartOf));
        }
    }

    /// The fusion engine state.
    pub fn fusion(&self) -> &FusionEngine {
        &self.fusion
    }

    /// Reports received over the network so far.
    pub fn reports_received(&self) -> usize {
        self.metrics.reports_received.get() as usize
    }

    /// Post one report to the OOSM, recording liveness and the
    /// end-to-end ingest latency. Shared by the single-report and
    /// batched frame paths. A fresh report from a machine the
    /// supervisor marked `degraded` (its DC went silent) restores the
    /// machine's `status` to `ok`.
    fn ingest_report(&mut self, report: &ConditionReport, now: SimTime) -> Result<()> {
        let timer = WallTimer::start();
        self.dc_last_seen.insert(report.dc, now);
        self.oosm.post_report(report)?;
        self.revisions.touch(report.machine);
        self.metrics.reports_received.inc();
        if self.supervisor.clear_degraded(report.machine) {
            if let Some(obj) = self.oosm.machine_object(report.machine) {
                self.oosm
                    .set_property(obj, "status", Value::Text("ok".into()))?;
            }
            self.telemetry.event_at(
                now,
                "pdme",
                "machine_recovered",
                format!("{} reporting again after DC outage", report.machine),
            );
        }
        // End-to-end scenario latency: report creation at the DC
        // to ingestion here, in simulated time.
        let e2e = now.since(report.timestamp);
        if !e2e.is_negative() {
            self.metrics.report_latency.record(e2e.as_secs());
            self.telemetry.record_span_sim(Stage::PdmeIngest, e2e);
        }
        self.telemetry
            .record_span_wall(Stage::PdmeIngest, timer.elapsed());
        Ok(())
    }

    /// Step 1 for one frame: route it, queue each report it posts for
    /// fusion, update the running summary, and record any
    /// acknowledgement owed (keyed by DC and epoch; the cumulative
    /// watermark is the max sequence seen).
    fn ingest_frame<'a>(
        &mut self,
        msg: &'a NetMessage,
        now: SimTime,
        summary: &mut IngestSummary,
        acks: &mut BTreeMap<(DcId, u64), u64>,
        posted: &mut VecDeque<Posted<'a>>,
    ) -> Result<()> {
        match msg {
            NetMessage::Report(report) => {
                self.ingest_report(report, now)?;
                posted.push_back((Cow::Borrowed(report), None));
                summary.posted += 1;
            }
            NetMessage::ReportBatch { dc, epoch, entries } => {
                self.dc_last_seen.insert(*dc, now);
                for entry in entries {
                    let fresh = match self.batch_last_seq.get(dc) {
                        Some(&(guard_epoch, guard_seq)) => {
                            *epoch > guard_epoch || (*epoch == guard_epoch && entry.seq > guard_seq)
                        }
                        None => true,
                    };
                    if !fresh {
                        summary.replays += 1;
                        self.metrics.batch_replays.inc();
                        self.telemetry.record_hop(TraceHop::new(
                            entry.trace.trace,
                            HopKind::Replay,
                            0,
                            Some(entry.trace.parent),
                            "pdme",
                            now.as_secs(),
                            now.as_secs(),
                            "duplicate frame dropped by replay guard",
                        ));
                        self.telemetry.event_at(
                            now,
                            "pdme",
                            "batch_replay",
                            format!("{dc} epoch {epoch} seq {} already accepted", entry.seq),
                        );
                        continue;
                    }
                    self.ingest_report(&entry.report, now)?;
                    let hop = TraceHop::new(
                        entry.trace.trace,
                        HopKind::Ingest,
                        0,
                        Some(entry.trace.parent),
                        "pdme",
                        now.as_secs(),
                        now.as_secs(),
                        "",
                    );
                    let ingest_span = hop.span;
                    self.telemetry.record_hop(hop);
                    posted.push_back((
                        Cow::Borrowed(&entry.report),
                        Some((entry.trace.trace, ingest_span)),
                    ));
                    self.batch_last_seq.insert(*dc, (*epoch, entry.seq));
                    summary.posted += 1;
                }
                // Ack replayed frames too: the sender only retries when
                // an earlier ack was lost, and another ack is the only
                // thing that stops the retransmissions.
                if let Some(last_seq) = entries.iter().map(|e| e.seq).max() {
                    let watermark = acks.entry((*dc, *epoch)).or_insert(last_seq);
                    *watermark = (*watermark).max(last_seq);
                }
            }
            NetMessage::Heartbeat { dc, .. } => {
                self.dc_last_seen.insert(*dc, now);
                summary.heartbeats += 1;
            }
            _ => {}
        }
        Ok(())
    }

    /// The unified ingest entry point (§5.1 steps 1–4): accept a whole
    /// step's worth of delivered frames — single reports, batched
    /// report frames (with replay/epoch guarding), heartbeats — then
    /// run one knowledge-fusion pass over the reports this call posted.
    /// The returned [`IngestSummary`] says what happened and carries the
    /// [`BatchAck`]s the transport loop owes the DCs. A pass that fails
    /// part-way leaves the reports it already posted stored but unfused.
    pub fn ingest(&mut self, msgs: &[NetMessage], now: SimTime) -> Result<IngestSummary> {
        // Journal before applying, straight from the borrowed frames.
        // An empty pass changes no state (no posts, no liveness
        // updates) and is not journaled, so the WAL holds exactly the
        // frames that shaped the engine.
        if !msgs.is_empty() {
            if let Some(store) = &self.store {
                let mut payload = Vec::new();
                encode_ingest(now, msgs, &mut payload)?;
                store.append(KIND_INGEST, payload)?;
            }
        }
        let mut summary = IngestSummary::default();
        let mut acks: BTreeMap<(DcId, u64), u64> = BTreeMap::new();
        let mut posted = VecDeque::new();
        for msg in msgs {
            self.ingest_frame(msg, now, &mut summary, &mut acks, &mut posted)?;
        }
        summary.fused = self.fuse_posted(posted)?;
        summary.acks = acks
            .into_iter()
            .map(|((dc, epoch), last_seq)| BatchAck {
                dc,
                epoch,
                last_seq,
            })
            .collect();
        Ok(summary)
    }

    /// Steps 2–4 over the reports one pass posted, front to back: fuse
    /// each, close its trace out, and run the resident algorithms on
    /// each external report, posting their conclusions and queueing
    /// them behind it. Then surface the fused state on the ship model.
    /// Returns the number of reports fused.
    ///
    /// Fusion reads each report as posted rather than decoding the
    /// stored JSON payload; the two are equal because `post_report`
    /// accepts only reports whose every float is finite.
    fn fuse_posted(&mut self, mut posted: VecDeque<Posted<'_>>) -> Result<usize> {
        let mut fused = 0;
        let mut frames = BTreeSet::new();
        while let Some((report, trace)) = posted.pop_front() {
            self.fusion.ingest(&report)?;
            frames.insert((report.machine, report.condition.group()));
            fused += 1;
            // Close the report's trace out: fusion, then the fused state
            // surfacing on the ship model (step 4 below).
            if let Some((trace, ingest_span)) = trace {
                let at = self.telemetry.sim_now().as_secs();
                let fuse_hop = TraceHop::new(
                    trace,
                    HopKind::Fuse,
                    0,
                    Some(ingest_span),
                    "pdme",
                    at,
                    at,
                    "",
                );
                let fuse_span = fuse_hop.span;
                self.telemetry.record_hop(fuse_hop);
                self.telemetry.record_hop(TraceHop::new(
                    trace,
                    HopKind::OosmUpdate,
                    0,
                    Some(fuse_span),
                    "pdme",
                    at,
                    at,
                    "fused state surfaced on ship model",
                ));
            }
            // Resident pass only for externally produced reports.
            if report.dc != PDME_RESIDENT_DC {
                let mut emitted = Vec::new();
                for alg in &mut self.resident {
                    emitted.extend(alg.on_report(&report, &self.oosm));
                }
                for mut extra in emitted {
                    extra.dc = PDME_RESIDENT_DC;
                    self.oosm.post_report(&extra)?;
                    self.revisions.touch(extra.machine);
                    posted.push_back((Cow::Owned(extra), None));
                }
            }
        }
        // Step 4: surface the fused state on the machine objects so the
        // browser reads everything from the OOSM. Only the frames this
        // pass fused (and any still waiting for their machine object)
        // can have changed; they are rewritten in maintenance-list
        // order, which fixes the row order of newly inserted keys.
        frames.append(&mut self.unsurfaced);
        let mut surfaced = BTreeSet::new();
        for item in self.fusion.maintenance_list_for(&frames) {
            match self.oosm.machine_object(item.machine) {
                Some(obj) => {
                    self.oosm.set_property(
                        obj,
                        fused_belief_key(item.condition),
                        Value::Float(item.belief),
                    )?;
                    surfaced.insert(item.machine);
                }
                None => {
                    self.unsurfaced
                        .insert((item.machine, item.condition.group()));
                }
            }
        }
        for machine in surfaced {
            self.touch_with_ancestors(machine);
        }
        Ok(fused)
    }

    /// The fused frames with a maintenance row whose property is not on
    /// the ship model: the machine has no object, or was registered
    /// after the frame was last fused.
    fn unsurfaced_frames(&self) -> BTreeSet<(MachineId, FailureGroup)> {
        self.fusion
            .maintenance_list()
            .into_iter()
            .filter(|item| {
                self.oosm.machine_object(item.machine).is_none_or(|obj| {
                    self.oosm
                        .property(obj, fused_belief_key(item.condition))
                        .is_none()
                })
            })
            .map(|item| (item.machine, item.condition.group()))
            .collect()
    }

    /// The prioritized maintenance list (§3.1).
    pub fn maintenance_list(&self) -> Vec<MaintenanceItem> {
        self.fusion.maintenance_list()
    }

    /// DC liveness: every DC heard from, ascending by id, and whether it
    /// was heard from within `timeout` of `now`. A pure read; the
    /// staleness gauge and the degraded/recovered events belong to
    /// [`Self::supervise`].
    pub fn dc_health(&self, now: SimTime, timeout: SimDuration) -> Vec<(DcId, bool)> {
        let mut out: Vec<(DcId, bool)> = self
            .dc_last_seen
            .iter()
            .map(|(&dc, &seen)| (dc, now.since(seen) <= timeout))
            .collect();
        out.sort_by_key(|(dc, _)| *dc);
        out
    }

    /// All reports stored for a machine (the OOSM repository view).
    pub fn reports_for_machine(&self, machine: MachineId) -> Vec<ConditionReport> {
        self.oosm.reports_for_machine(machine)
    }

    /// Names of installed resident algorithms.
    pub fn resident_algorithms(&self) -> Vec<&str> {
        self.resident.iter().map(|a| a.name()).collect()
    }

    /// Objects of a kind in the model (browser helper).
    pub fn machines(&self) -> Vec<MachineId> {
        self.oosm
            .objects_of_kind(ObjectKind::Machine)
            .into_iter()
            .filter_map(|o| {
                self.oosm
                    .property(o, "machine_id")
                    .and_then(|v| v.as_int())
                    .map(|i| MachineId::new(i as u64))
            })
            .collect()
    }

    /// Record which machines a DC monitors and the SBFR images the PDME
    /// should re-download into it after a restart (§6.3). Supersedes
    /// any earlier assignment for the DC.
    pub fn assign_dc(
        &mut self,
        dc: DcId,
        machines: Vec<MachineId>,
        sbfr_images: Vec<(u32, Vec<u8>)>,
    ) {
        self.journal_or_die(&PdmeWalRecord::AssignDc {
            dc,
            machines: machines.clone(),
            sbfr_images: sbfr_images.clone(),
        });
        self.supervisor.assign(dc, machines, sbfr_images);
    }

    /// One supervision pass over the assigned fleet: DCs silent past
    /// `timeout` get their machines' `status` marked `degraded` in the
    /// ship model; DCs heard from again after an outage get their SBFR
    /// machine set re-downloaded via the returned command frames.
    ///
    /// The pass also sets the `pdme.dc_staleness_max` gauge to the worst
    /// silence over every DC heard from, so a ship's staleness objective
    /// judges the step it runs on. A stalled PDME runs no pass, and the
    /// gauge holds its last supervised value until the next one.
    pub fn supervise(&mut self, now: SimTime, timeout: SimDuration) -> Result<Vec<NetMessage>> {
        // Supervision transitions depend only on (now, timeout) and the
        // replayed liveness map, so journaling the inputs reproduces the
        // state machine exactly.
        self.journal(&PdmeWalRecord::Supervise { now, timeout })?;
        let worst = self
            .dc_last_seen
            .values()
            .map(|&seen| now.since(seen).as_secs())
            .fold(0.0, f64::max);
        self.metrics.dc_staleness_max.set(worst);
        let degraded = self.supervisor.degraded_machines();
        let commands = self.supervisor.supervise(
            now,
            timeout,
            &self.dc_last_seen,
            &mut self.oosm,
            &self.telemetry,
        )?;
        // The pass only ever adds marks; each new one flipped a status.
        for machine in self.supervisor.degraded_machines() {
            if degraded.binary_search(&machine).is_err() {
                self.revisions.touch(machine);
            }
        }
        Ok(commands)
    }

    /// Machines currently marked `degraded` (their DC went silent and
    /// no fresh report has arrived since), sorted.
    pub fn degraded_machines(&self) -> Vec<MachineId> {
        self.supervisor.degraded_machines()
    }

    /// The maintenance archive.
    pub fn historian(&self) -> &Historian {
        &self.historian
    }

    /// Archive a closed maintenance action (journaled).
    pub fn record_maintenance(&mut self, record: MaintenanceRecord) -> Result<()> {
        self.journal(&PdmeWalRecord::Maintenance(record.clone()))?;
        self.historian.record(record);
        Ok(())
    }

    /// Record a component (re)installation on a machine (journaled);
    /// feeds censored lifetimes into the §10.1 Weibull life models.
    pub fn component_installed(
        &mut self,
        machine: MachineId,
        condition: MachineCondition,
        at: SimTime,
    ) -> Result<()> {
        self.journal(&PdmeWalRecord::ComponentInstalled {
            machine,
            condition,
            at,
        })?;
        self.historian.component_installed(machine, condition, at);
        Ok(())
    }

    /// Journal a scenario fault-epoch transition (informational; the
    /// replay path skips these, but they anchor log forensics to the
    /// fault timeline).
    pub fn journal_fault_transition(&self, at: SimTime, label: &str, start: bool) -> Result<()> {
        self.journal(&PdmeWalRecord::FaultTransition {
            at,
            label: label.to_string(),
            start,
        })
    }

    /// Serialize the executive's full fused state — ship model, fusion
    /// frames, supervision state, maintenance archive, liveness and
    /// replay-guard watermarks — into one snapshot payload.
    ///
    /// Every ingest pass fuses what it posts before it returns, so any
    /// point between calls is a complete cut of the engine. The last
    /// section, once the trace context of posted-but-unfused reports, is
    /// always written empty, which keeps the format byte-compatible.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.oosm.encode(&mut out);
        self.fusion.encode(&mut out);
        self.supervisor.encode(&mut out);
        self.historian.encode(&mut out);
        self.dc_last_seen.encode(&mut out);
        self.batch_last_seq.encode(&mut out);
        // Pending traces: none.
        0usize.encode(&mut out);
        out
    }

    /// Append a full snapshot of the current state to the attached
    /// store. Returns the snapshot's WAL sequence number, or `None`
    /// when no store is attached.
    pub fn snapshot_to_store(&self) -> Result<Option<u64>> {
        match &self.store {
            Some(store) => Ok(Some(store.append_snapshot(self.snapshot_bytes())?)),
            None => Ok(None),
        }
    }

    /// Rebuild an executive from one snapshot payload. The result
    /// observes a fresh private telemetry domain and has no store
    /// attached and no resident algorithms — hosts re-install residents
    /// and call `set_telemetry` + [`PdmeExecutive::attach_store`] after
    /// recovery.
    ///
    /// An older snapshot may hold pending trace entries (report id,
    /// trace, ingest span, ascending by id). They are checked like every
    /// other section and then dropped: the reports they named were
    /// queued for fusion, and that queue was never part of a snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let mut input = bytes;
        let oosm = Oosm::decode(&mut input)?;
        let fusion = FusionEngine::decode(&mut input)?;
        let supervisor = Supervisor::decode(&mut input)?;
        let historian = Historian::decode(&mut input)?;
        let dc_last_seen = HashMap::decode(&mut input)?;
        let batch_last_seq = HashMap::decode(&mut input)?;
        // Pending traces: (report id, trace id, ingest span id).
        let pending = Vec::<(u64, u64, u64)>::decode(&mut input)?;
        if pending.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(Error::invalid("pdme snapshot: pending traces out of order"));
        }
        if !input.is_empty() {
            return Err(Error::invalid(format!(
                "pdme snapshot: {} trailing byte(s)",
                input.len()
            )));
        }
        let mut pdme = PdmeExecutive {
            oosm,
            fusion,
            supervisor,
            dc_last_seen,
            batch_last_seq,
            historian,
            ..PdmeExecutive::new()
        };
        // The decoded model and engine join the executive's domain.
        let telemetry = pdme.telemetry.clone();
        pdme.set_telemetry(&telemetry);
        pdme.unsurfaced = pdme.unsurfaced_frames();
        Ok(pdme)
    }

    /// Rebuild an executive from recovered store state: decode the
    /// latest snapshot (or start empty when the log predates the first
    /// checkpoint), then replay the WAL tail through the normal entry
    /// points. Ingestion and supervision are deterministic functions of
    /// their journaled inputs, so the result is byte-identical to the
    /// pre-crash engine.
    ///
    /// The replayed executive has no store attached (replay must not
    /// re-journal) and counts into a private telemetry domain the
    /// caller discards by joining its own domain with `set_telemetry`.
    pub fn restore(recovered: &RecoveredState) -> Result<Self> {
        let mut pdme = match &recovered.snapshot {
            Some(bytes) => Self::from_snapshot_bytes(bytes)?,
            None => PdmeExecutive::new(),
        };
        for frame in &recovered.tail {
            pdme.apply(PdmeWalRecord::decode_frame(frame)?)?;
        }
        Ok(pdme)
    }

    /// Apply one replayed WAL record through the normal entry points.
    fn apply(&mut self, record: PdmeWalRecord) -> Result<()> {
        match record {
            PdmeWalRecord::RegisterMachine { machine, name } => {
                self.register_machine(machine, &name);
            }
            PdmeWalRecord::AssignDc {
                dc,
                machines,
                sbfr_images,
            } => self.assign_dc(dc, machines, sbfr_images),
            PdmeWalRecord::Ingest { now, msgs } => {
                self.ingest(&msgs, now)?;
            }
            PdmeWalRecord::Supervise { now, timeout } => {
                self.supervise(now, timeout)?;
            }
            PdmeWalRecord::Maintenance(record) => self.historian.record(record),
            PdmeWalRecord::ComponentInstalled {
                machine,
                condition,
                at,
            } => self.historian.component_installed(machine, condition, at),
            // Informational marker: the fault machinery lives in the
            // host scenario, not the executive.
            PdmeWalRecord::FaultTransition { .. } => {}
        }
        Ok(())
    }
}

impl Instrumented for PdmeExecutive {
    /// Record into `telemetry` from now on, cascading to the fusion
    /// engine and the ship model.
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = PdmeCounters::wire(telemetry);
        self.fusion.set_telemetry(telemetry);
        self.oosm.set_telemetry(telemetry);
        self.telemetry = telemetry.clone();
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_core::{Belief, KnowledgeSourceId, MachineCondition, PrognosticVector, ReportId};

    fn report(id: u64, machine: u64, condition: MachineCondition, belief: f64) -> ConditionReport {
        ConditionReport::builder(MachineId::new(machine), condition, Belief::new(belief))
            .id(ReportId::new(id))
            .dc(DcId::new(1))
            .knowledge_source(KnowledgeSourceId::new(11))
            .severity(0.5)
            .timestamp(SimTime::from_secs(id as f64))
            .prognostic(PrognosticVector::from_months(&[(1.0, 0.4)]).unwrap())
            .build()
    }

    fn pdme() -> PdmeExecutive {
        let mut p = PdmeExecutive::new();
        p.register_machine(MachineId::new(1), "A/C Compressor Motor 1");
        p
    }

    #[test]
    fn report_flows_through_oosm_into_fusion() {
        let mut p = pdme();
        let summary = p
            .ingest(
                &[NetMessage::Report(report(
                    1,
                    1,
                    MachineCondition::MotorImbalance,
                    0.7,
                ))],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(summary.posted, 1);
        assert_eq!(summary.fused, 1);
        assert!(summary.acks.is_empty(), "single reports are not acked");
        let b = p
            .fusion()
            .diagnostic()
            .belief(MachineId::new(1), MachineCondition::MotorImbalance);
        assert!((b - 0.7).abs() < 1e-9);
        assert_eq!(p.reports_received(), 1);
        assert_eq!(p.reports_for_machine(MachineId::new(1)).len(), 1);
    }

    #[test]
    fn maintenance_list_reflects_fused_state() {
        let mut p = pdme();
        let msgs: Vec<NetMessage> = [
            (1, MachineCondition::MotorImbalance, 0.6),
            (2, MachineCondition::MotorImbalance, 0.6),
            (3, MachineCondition::RefrigerantLeak, 0.4),
        ]
        .into_iter()
        .map(|(id, c, b)| NetMessage::Report(report(id, 1, c, b)))
        .collect();
        p.ingest(&msgs, SimTime::ZERO).unwrap();
        let list = p.maintenance_list();
        assert!(!list.is_empty());
        assert_eq!(list[0].condition, MachineCondition::MotorImbalance);
        assert!(list[0].belief > 0.8, "reinforced belief {}", list[0].belief);
        // Fused beliefs are also surfaced as machine properties.
        let obj = p.oosm().machine_object(MachineId::new(1)).unwrap();
        let prop = p.oosm().property(
            obj,
            &format!("fused_belief:{}", MachineCondition::MotorImbalance.index()),
        );
        assert!(prop.is_some());
    }

    #[test]
    fn a_pass_that_fuses_nothing_writes_no_property() {
        let mut p = pdme();
        let imbalance = NetMessage::Report(report(1, 1, MachineCondition::MotorImbalance, 0.6));
        p.ingest(&[imbalance], SimTime::ZERO).unwrap();
        let heartbeat = NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 1.0,
        };
        let rows = p.oosm().store().rows_visited();
        p.ingest(&[heartbeat], SimTime::from_secs(1.0)).unwrap();
        assert_eq!(p.oosm().store().rows_visited(), rows, "the model was read");
    }

    #[test]
    fn a_machine_registered_after_its_frame_fused_gets_its_property_next_pass() {
        let key = format!("fused_belief:{}", MachineCondition::MotorImbalance.index());
        let heartbeat = |at: f64| NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: at,
        };
        let mut p = pdme();
        let late = NetMessage::Report(report(1, 2, MachineCondition::MotorImbalance, 0.6));
        p.ingest(&[late], SimTime::ZERO).unwrap();
        p.register_machine(MachineId::new(2), "A/C Compressor Motor 2");
        // A restored engine owes the same property as the live one.
        let mut restored = PdmeExecutive::from_snapshot_bytes(&p.snapshot_bytes()).unwrap();
        for engine in [&mut p, &mut restored] {
            let obj = engine.oosm().machine_object(MachineId::new(2)).unwrap();
            assert!(engine.oosm().property(obj, &key).is_none());
            engine
                .ingest(&[heartbeat(1.0)], SimTime::from_secs(1.0))
                .unwrap();
            assert!(engine.oosm().property(obj, &key).is_some());
        }
        assert_eq!(p.snapshot_bytes(), restored.snapshot_bytes());
    }

    #[test]
    fn heartbeats_track_dc_health() {
        let mut p = pdme();
        let summary = p
            .ingest(
                &[NetMessage::Heartbeat {
                    dc: DcId::new(1),
                    at_secs: 0.0,
                }],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(summary.heartbeats, 1);
        p.ingest(
            &[NetMessage::Heartbeat {
                dc: DcId::new(2),
                at_secs: 0.0,
            }],
            SimTime::from_secs(100.0),
        )
        .unwrap();
        let health = p.dc_health(SimTime::from_secs(130.0), SimDuration::from_secs(60.0));
        assert_eq!(health, vec![(DcId::new(1), false), (DcId::new(2), true)]);
    }

    #[test]
    fn silent_dc_is_flagged_stale_after_configurable_timeout() {
        let mut p = pdme();
        let timeout = SimDuration::from_secs(45.0);
        // Both DCs check in at t=0; only DC 2 keeps reporting.
        let checkins: Vec<NetMessage> = [1, 2]
            .into_iter()
            .map(|dc| NetMessage::Heartbeat {
                dc: DcId::new(dc),
                at_secs: 0.0,
            })
            .collect();
        p.ingest(&checkins, SimTime::ZERO).unwrap();
        p.ingest(
            &[NetMessage::Heartbeat {
                dc: DcId::new(2),
                at_secs: 60.0,
            }],
            SimTime::from_secs(60.0),
        )
        .unwrap();
        // Within the timeout of everyone's last contact: all healthy,
        // and the supervision pass sets the gauge to the worst
        // staleness (DC 1, 40 s).
        let staleness = p.telemetry().gauge("pdme", "dc_staleness_max");
        let gauge = || staleness.get();
        let health = p.dc_health(SimTime::from_secs(40.0), timeout);
        assert_eq!(health, vec![(DcId::new(1), true), (DcId::new(2), true)]);
        assert_eq!(gauge(), 0.0, "reading liveness sets nothing");
        p.supervise(SimTime::from_secs(40.0), timeout).unwrap();
        assert_eq!(gauge(), 40.0);
        // Past DC 1's timeout: flagged stale, gauge tracks it after the
        // next pass, and reading liveness journals nothing.
        let health = p.dc_health(SimTime::from_secs(100.0), timeout);
        assert_eq!(health, vec![(DcId::new(1), false), (DcId::new(2), true)]);
        assert_eq!(gauge(), 40.0, "the gauge holds between passes");
        p.supervise(SimTime::from_secs(100.0), timeout).unwrap();
        assert_eq!(gauge(), 100.0);
        assert!(p.telemetry().events().iter().all(|e| e.kind != "dc_stale"));
    }

    struct Escalator;
    impl ResidentAlgorithm for Escalator {
        fn name(&self) -> &str {
            "escalator"
        }
        fn on_report(&mut self, report: &ConditionReport, model: &Oosm) -> Vec<ConditionReport> {
            // Model-based system-level conclusion: a bearing defect on a
            // machine that exists in the ship model escalates a gear
            // inspection hint.
            if report.condition == MachineCondition::MotorBearingDefect
                && model.machine_object(report.machine).is_some()
            {
                vec![ConditionReport::builder(
                    report.machine,
                    MachineCondition::GearToothWear,
                    Belief::new(0.2),
                )
                .id(ReportId::new(900_000 + report.id.raw()))
                .knowledge_source(KnowledgeSourceId::new(999))
                .timestamp(report.timestamp)
                .explanation("resident correlator: adjacent gear inspection advised")
                .build()]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn resident_algorithms_run_once_per_external_report() {
        let mut p = pdme();
        p.add_resident_algorithm(Box::new(Escalator));
        assert_eq!(p.resident_algorithms(), vec!["escalator"]);
        let summary = p
            .ingest(
                &[NetMessage::Report(report(
                    1,
                    1,
                    MachineCondition::MotorBearingDefect,
                    0.8,
                ))],
                SimTime::ZERO,
            )
            .unwrap();
        // External report + one resident-emitted report.
        assert_eq!(summary.posted, 1);
        assert_eq!(summary.fused, 2);
        let b = p
            .fusion()
            .diagnostic()
            .belief(MachineId::new(1), MachineCondition::GearToothWear);
        assert!(b > 0.0, "resident conclusion fused");
        // The resident report is in the repository, tagged as resident.
        let all = p.reports_for_machine(MachineId::new(1));
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|r| r.dc == PDME_RESIDENT_DC));
    }

    #[test]
    fn batched_reports_post_and_fuse_like_singles() {
        use mpros_network::BatchEntry;
        let mut p = pdme();
        let entries: Vec<BatchEntry> = [
            (10, MachineCondition::MotorImbalance, 0.6),
            (11, MachineCondition::MotorImbalance, 0.6),
            (12, MachineCondition::RefrigerantLeak, 0.4),
        ]
        .into_iter()
        .map(|(id, c, b)| BatchEntry {
            seq: id,
            trace: mpros_telemetry::TraceContext::default(),
            report: report(id, 1, c, b),
        })
        .collect();
        let batch = NetMessage::ReportBatch {
            dc: DcId::new(1),
            epoch: 0,
            entries,
        };
        let summary = p
            .ingest(std::slice::from_ref(&batch), SimTime::from_secs(20.0))
            .unwrap();
        assert_eq!(summary.posted, 3);
        assert_eq!(summary.fused, 3);
        assert_eq!(
            summary.acks,
            vec![BatchAck {
                dc: DcId::new(1),
                epoch: 0,
                last_seq: 12
            }]
        );
        assert_eq!(p.reports_received(), 3);
        let b = p
            .fusion()
            .diagnostic()
            .belief(MachineId::new(1), MachineCondition::MotorImbalance);
        assert!(b > 0.8, "reinforced belief {b}");
        // The DC is marked live by the batch.
        let health = p.dc_health(SimTime::from_secs(25.0), SimDuration::from_secs(60.0));
        assert_eq!(health, vec![(DcId::new(1), true)]);

        // Replaying the same frame posts nothing new — but is acked
        // again, because a retransmission means the first ack was lost.
        let summary = p
            .ingest(std::slice::from_ref(&batch), SimTime::from_secs(30.0))
            .unwrap();
        assert_eq!(summary.posted, 0);
        assert_eq!(summary.fused, 0);
        assert_eq!(summary.replays, 3);
        assert_eq!(
            summary.acks,
            vec![BatchAck {
                dc: DcId::new(1),
                epoch: 0,
                last_seq: 12
            }]
        );
        assert_eq!(p.reports_received(), 3);
        assert_eq!(
            p.telemetry().counter("pdme", "batch_replays_dropped").get(),
            3
        );
    }

    fn entry_for(seq: u64, dc: u64) -> mpros_network::BatchEntry {
        let mut r = report(seq, 1, MachineCondition::MotorImbalance, 0.5);
        r.dc = DcId::new(dc);
        mpros_network::BatchEntry {
            seq,
            trace: mpros_telemetry::TraceContext::default(),
            report: r,
        }
    }

    #[test]
    fn batch_replay_guard_is_per_dc() {
        let mut p = pdme();
        p.ingest(
            &[NetMessage::ReportBatch {
                dc: DcId::new(1),
                epoch: 0,
                entries: vec![entry_for(5, 1)],
            }],
            SimTime::ZERO,
        )
        .unwrap();
        // A lower sequence from a *different* DC is fresh, not a replay.
        let summary = p
            .ingest(
                &[NetMessage::ReportBatch {
                    dc: DcId::new(2),
                    epoch: 0,
                    entries: vec![entry_for(3, 2)],
                }],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(summary.posted, 1);
        // A partially replayed frame keeps only the new tail.
        let summary = p
            .ingest(
                &[NetMessage::ReportBatch {
                    dc: DcId::new(1),
                    epoch: 0,
                    entries: vec![entry_for(5, 1), entry_for(6, 1)],
                }],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(summary.posted, 1);
        assert_eq!(summary.replays, 1);
        assert_eq!(p.reports_received(), 3);
    }

    #[test]
    fn replay_guard_resets_on_a_new_epoch() {
        let mut p = pdme();
        // Epoch 0 runs the watermark up to seq 50.
        p.ingest(
            &[NetMessage::ReportBatch {
                dc: DcId::new(1),
                epoch: 0,
                entries: vec![entry_for(50, 1)],
            }],
            SimTime::ZERO,
        )
        .unwrap();
        // A restarted DC's sequence counter starts over: a *lower*
        // sequence in a *newer* epoch is fresh, not a replay.
        let summary = p
            .ingest(
                &[NetMessage::ReportBatch {
                    dc: DcId::new(1),
                    epoch: 1,
                    entries: vec![entry_for(3, 1)],
                }],
                SimTime::from_secs(10.0),
            )
            .unwrap();
        assert_eq!(summary.posted, 1);
        assert_eq!(summary.replays, 0);
        assert_eq!(
            summary.acks,
            vec![BatchAck {
                dc: DcId::new(1),
                epoch: 1,
                last_seq: 3
            }]
        );
        // A straggler frame from the dead epoch is pure replay — but
        // still acked under its own epoch so the sender stops retrying.
        let summary = p
            .ingest(
                &[NetMessage::ReportBatch {
                    dc: DcId::new(1),
                    epoch: 0,
                    entries: vec![entry_for(49, 1)],
                }],
                SimTime::from_secs(20.0),
            )
            .unwrap();
        assert_eq!(summary.posted, 0);
        assert_eq!(summary.replays, 1);
        assert_eq!(
            summary.acks,
            vec![BatchAck {
                dc: DcId::new(1),
                epoch: 0,
                last_seq: 49
            }]
        );
    }

    #[test]
    fn supervisor_degrades_and_recovers_machines() {
        let mut p = pdme();
        let timeout = SimDuration::from_secs(30.0);
        p.assign_dc(DcId::new(1), vec![MachineId::new(1)], vec![(0, vec![9, 9])]);
        p.ingest(
            &[NetMessage::Heartbeat {
                dc: DcId::new(1),
                at_secs: 0.0,
            }],
            SimTime::ZERO,
        )
        .unwrap();
        assert!(p
            .supervise(SimTime::from_secs(10.0), timeout)
            .unwrap()
            .is_empty());
        // Silence past the timeout: the machine degrades in the model.
        assert!(p
            .supervise(SimTime::from_secs(60.0), timeout)
            .unwrap()
            .is_empty());
        assert_eq!(p.degraded_machines(), vec![MachineId::new(1)]);
        let obj = p.oosm().machine_object(MachineId::new(1)).unwrap();
        assert_eq!(
            p.oosm().property(obj, "status"),
            Some(Value::Text("degraded".into()))
        );
        // Contact again: the SBFR set is re-downloaded...
        p.ingest(
            &[NetMessage::Heartbeat {
                dc: DcId::new(1),
                at_secs: 70.0,
            }],
            SimTime::from_secs(70.0),
        )
        .unwrap();
        let cmds = p.supervise(SimTime::from_secs(70.0), timeout).unwrap();
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], NetMessage::DownloadSbfr { .. }));
        // ...but the machine stays degraded until a fresh report lands.
        assert_eq!(p.degraded_machines(), vec![MachineId::new(1)]);
        p.ingest(
            &[NetMessage::Report(report(
                99,
                1,
                MachineCondition::MotorImbalance,
                0.4,
            ))],
            SimTime::from_secs(80.0),
        )
        .unwrap();
        assert!(p.degraded_machines().is_empty());
        assert_eq!(
            p.oosm().property(obj, "status"),
            Some(Value::Text("ok".into()))
        );
        assert!(p
            .telemetry()
            .events()
            .iter()
            .any(|e| e.kind == "machine_recovered"));
    }

    #[test]
    fn non_report_messages_are_ignored() {
        let mut p = pdme();
        let summary = p
            .ingest(
                &[NetMessage::RunTest {
                    dc: DcId::new(1),
                    machine: MachineId::new(1),
                }],
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(summary, IngestSummary::default());
    }

    #[test]
    fn crash_restore_reproduces_state_byte_identically() {
        use mpros_store::{RecoveryManager, StoreHandle};
        let tel = Telemetry::new();
        let store = StoreHandle::in_memory(&tel);
        let mut p = pdme();
        p.assign_dc(DcId::new(1), vec![MachineId::new(1)], vec![(0, vec![7, 7])]);
        // Wiring done: attach the store and write the baseline snapshot.
        p.attach_store(store.clone());
        p.snapshot_to_store().unwrap();
        // Pre-checkpoint traffic.
        p.ingest(
            &[NetMessage::Report(report(
                1,
                1,
                MachineCondition::MotorImbalance,
                0.7,
            ))],
            SimTime::from_secs(2.0),
        )
        .unwrap();
        p.supervise(SimTime::from_secs(3.0), SimDuration::from_secs(30.0))
            .unwrap();
        p.snapshot_to_store().unwrap();
        // Post-checkpoint traffic: lands in the WAL tail only.
        p.ingest(
            &[
                NetMessage::Report(report(2, 1, MachineCondition::MotorMisalignment, 0.6)),
                NetMessage::Heartbeat {
                    dc: DcId::new(1),
                    at_secs: 40.0,
                },
            ],
            SimTime::from_secs(40.0),
        )
        .unwrap();
        p.record_maintenance(MaintenanceRecord {
            at: SimTime::from_secs(41.0),
            machine: MachineId::new(1),
            condition: MachineCondition::MotorImbalance,
            outcome: crate::historian::Outcome::Confirmed,
            service_life: Some(SimDuration::from_hours(500.0)),
        })
        .unwrap();
        // Silence past the timeout flips the supervisor state machine.
        p.supervise(SimTime::from_secs(100.0), SimDuration::from_secs(30.0))
            .unwrap();
        assert_eq!(p.degraded_machines(), vec![MachineId::new(1)]);

        let recovered = RecoveryManager::new(&tel).recover(&store.contents().unwrap());
        assert!(recovered.snapshot.is_some(), "checkpoint found");
        let restored = PdmeExecutive::restore(&recovered).unwrap();
        assert_eq!(
            restored.snapshot_bytes(),
            p.snapshot_bytes(),
            "restored engine state is byte-identical"
        );
        assert_eq!(restored.degraded_machines(), vec![MachineId::new(1)]);
        assert_eq!(restored.historian().len(), 1);
        assert_eq!(restored.maintenance_list(), p.maintenance_list());
    }

    #[test]
    fn restore_from_wal_only_replays_from_empty() {
        use mpros_store::{RecoveryManager, StoreHandle};
        let tel = Telemetry::new();
        let store = StoreHandle::in_memory(&tel);
        let mut p = PdmeExecutive::new();
        p.attach_store(store.clone());
        // No snapshot ever written: wiring and traffic all go through
        // the WAL, and recovery replays from the empty engine.
        p.register_machine(MachineId::new(1), "A/C Compressor Motor 1");
        p.ingest(
            &[NetMessage::Report(report(
                1,
                1,
                MachineCondition::MotorImbalance,
                0.7,
            ))],
            SimTime::from_secs(2.0),
        )
        .unwrap();
        let recovered = RecoveryManager::new(&tel).recover(&store.contents().unwrap());
        assert!(recovered.snapshot.is_none());
        let restored = PdmeExecutive::restore(&recovered).unwrap();
        assert_eq!(restored.snapshot_bytes(), p.snapshot_bytes());
    }

    #[test]
    fn fused_belief_keys_name_the_catalog_index() {
        for condition in MachineCondition::ALL {
            let key = format!("fused_belief:{}", condition.index());
            assert_eq!(fused_belief_key(condition), key);
        }
    }

    #[test]
    fn revisions_move_with_what_a_machine_entry_shows() {
        let mut p = pdme();
        p.register_machine(MachineId::new(2), "pump");
        p.register_machine(MachineId::new(3), "A/C plant");
        let (m1, m3) = (MachineId::new(1), MachineId::new(3));
        let parent = p.oosm().machine_object(m3).unwrap();
        let child = p.oosm().machine_object(m1).unwrap();
        p.oosm_mut()
            .relate(child, mpros_oosm::Relation::PartOf, parent)
            .unwrap();
        let at = |p: &PdmeExecutive| {
            let machines = [1, 2, 3].map(|m| p.machine_revision(MachineId::new(m)));
            (p.revision(), machines)
        };
        let start = at(&p);
        // A heartbeat changes no entry.
        let heartbeat = NetMessage::Heartbeat {
            dc: DcId::new(1),
            at_secs: 1.0,
        };
        p.ingest(&[heartbeat], SimTime::from_secs(1.0)).unwrap();
        assert_eq!(at(&p), start);
        // A fused report moves its machine and the machine it is part of.
        let r = NetMessage::Report(report(1, 1, MachineCondition::MotorImbalance, 0.7));
        p.ingest(&[r], SimTime::from_secs(2.0)).unwrap();
        let fused = at(&p);
        assert_ne!(fused.0, start.0);
        assert_eq!(
            [0, 1, 2].map(|i| fused.1[i] != start.1[i]),
            [true, false, true]
        );
        // A status flip moves only the degraded machine.
        p.assign_dc(DcId::new(1), vec![MachineId::new(2)], Vec::new());
        p.supervise(SimTime::from_secs(100.0), SimDuration::from_secs(30.0))
            .unwrap();
        let flipped = at(&p);
        assert_eq!(
            [0, 1, 2].map(|i| flipped.1[i] != fused.1[i]),
            [false, true, false]
        );
        // A second pass with nothing new moves nothing.
        p.supervise(SimTime::from_secs(101.0), SimDuration::from_secs(30.0))
            .unwrap();
        assert_eq!(at(&p), flipped);
        // A restored engine shares no revision with the one it copies.
        let restored = PdmeExecutive::from_snapshot_bytes(&p.snapshot_bytes()).unwrap();
        let copy = at(&restored);
        assert_ne!(copy.0, flipped.0);
        assert!((0..3).all(|i| copy.1[i] != flipped.1[i]));
    }

    #[test]
    fn machines_listing() {
        let mut p = pdme();
        p.register_machine(MachineId::new(7), "pump");
        let mut ms = p.machines();
        ms.sort();
        assert_eq!(ms, vec![MachineId::new(1), MachineId::new(7)]);
    }
}
