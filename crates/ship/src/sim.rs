//! The assembled shipboard simulation (Fig. 1).
//!
//! Wires the full MPROS stack together the way the paper's diagram does:
//! one [`ChillerPlant`] per Data Concentrator, each DC hosting the four
//! algorithm suites; condition reports travel over the simulated ship
//! network to the PDME, which posts them to the OOSM and runs knowledge
//! fusion off the change events. Examples, integration tests and the
//! benchmark harness all drive this one harness.
//!
//! # Execution model
//!
//! Every tick runs the same four phases regardless of [`ExecMode`]:
//!
//! 1. **Deliver** — each DC's command inbox is drained, in ascending
//!    DC-index order. Transport [`NetMessage::Ack`] frames are consumed
//!    here (they release the DC's outbox); everything else is queued as
//!    a command for phase 2. A crashed DC's deliveries are discarded
//!    with the node.
//! 2. **Execute** — each live DC applies its commands and runs
//!    everything due at `now` against its plant
//!    ([`DataConcentrator::step_with`]), borrowing one of the ship's
//!    survey workspaces for its survey. Sequentially this happens inline
//!    through one workspace; in parallel mode the DCs are cut into
//!    contiguous chunks, one scoped thread and one workspace each,
//!    joined back in DC-index order.
//! 3. **Merge** — each live DC's report buffer is parked in its
//!    network outbox as one batched frame, its heartbeat posted if due,
//!    again in ascending DC-index order; then every due outbox frame
//!    (first sends and backoff retries alike) goes on the wire in DC
//!    order. Frames sent at `now` deliver strictly after `now` (the
//!    network's base latency is positive), so nothing a DC sends this
//!    tick can be received this tick — phase 2's outputs cannot feed
//!    back into phase 2.
//! 4. **Fuse** — unless a fault window has the PDME stalled, the PDME
//!    drains its inbox through [`PdmeExecutive::ingest`], posts the
//!    resulting acks back to the DCs, and runs a supervision pass that
//!    degrades silent DCs' machines and re-downloads SBFR sets into
//!    recovered ones.
//!
//! The only cross-DC coupling is the ship network's RNG (jitter and
//! drop draws, consumed in `post` order); phase 3 pins that order to
//! the DC index, and per-DC retry jitter comes from each DC's own
//! stream, so the simulation state — PDME, fusion, OOSM, ICAS exports —
//! is byte-for-byte identical under any worker count, with or without a
//! [`FaultPlan`].
//!
//! # Fault injection
//!
//! A [`FaultPlan`] schedules §4.9-style adversity against simulated
//! time; [`ShipboardSim::step`] applies its transitions at the top of
//! every tick, in the plan's deterministic order:
//!
//! * **DC crash** — the DC's endpoint goes dark and its volatile state
//!   (detectors, id allocator, outbox) is lost. At the window's end the
//!   DC is rebuilt from its original config and rejoins under a new
//!   batch epoch; the PDME re-downloads its SBFR machine set once the
//!   supervisor sees it alive again.
//! * **Sensor dropout** — one acquisition channel flatlines for the
//!   window (the §4.9 broken-transducer case).
//! * **PDME stall** — phase 4 is skipped; frames queue in the network
//!   until the stall lifts.
//! * **Partition** — an endpoint is unreachable; report frames ride out
//!   the window in their outbox on exponential backoff.

use crate::exec::step_dcs;
use mpros_chiller::fault::FaultSeed;
use mpros_chiller::plant::PlantConfig;
use mpros_chiller::ChillerPlant;
use mpros_core::{
    derive_stream_seed, DcId, Error, FaultKind, FaultPlan, FaultTarget, FaultTransition, MachineId,
    Result, SimClock, SimDuration, SimTime,
};
use mpros_dc::{DataConcentrator, DcConfig, SensorFault, SurveyWorkspace};
use mpros_gateway::{Gateway, ServingSnapshot};
use mpros_network::{Endpoint, Envelope, NetMessage, NetworkConfig, ShipNetwork};
use mpros_pdme::PdmeExecutive;
use mpros_store::{RecoveryManager, StoreHandle};
use mpros_telemetry::trace::dc_trace_seed;
use mpros_telemetry::{
    FlightRecorder, IncidentTrigger, Instrumented, RecorderConfig, SloPolicy, SloVerdict,
    SloWatchdog, Telemetry, TraceHop,
};
use std::sync::Arc;

pub use crate::exec::ExecMode;

/// Configuration of a shipboard simulation.
///
/// Built with the same chainable pattern as `NetworkConfig` and
/// `DcConfig`: start from [`ShipboardSimConfig::new`] and apply
/// `with_*` setters. The struct is `#[non_exhaustive]`, so new knobs
/// can be added without breaking downstream construction sites.
///
/// ```
/// use mpros_ship::sim::{ExecMode, ShipboardSimConfig};
/// let config = ShipboardSimConfig::new()
///     .with_dc_count(4)
///     .with_exec(ExecMode::Parallel { workers: 2 });
/// assert_eq!(config.dc_count, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ShipboardSimConfig {
    /// Number of chiller plants / Data Concentrators.
    pub dc_count: usize,
    /// Master seed. Every per-DC stream (plant noise, fault evolution,
    /// retry jitter) derives its own seed from `(seed, dc_id)` via
    /// [`derive_stream_seed`], so streams are statistically independent
    /// and adding a DC never perturbs the others.
    pub seed: u64,
    /// Network behaviour.
    pub network: NetworkConfig,
    /// Scheduled adversity (crashes, dropouts, stalls, partitions);
    /// [`FaultPlan::none`] for a calm sea.
    pub fault_plan: FaultPlan,
    /// How long the PDME supervisor lets a DC stay silent before its
    /// machines are marked degraded.
    pub dc_timeout: SimDuration,
    /// Vibration-survey period per DC.
    pub survey_period: SimDuration,
    /// DC heartbeat period.
    pub heartbeat_period: SimDuration,
    /// How per-DC work is executed each tick.
    pub exec: ExecMode,
    /// Service-level objectives the watchdog evaluates after every
    /// step's supervision pass; [`SloPolicy::none`] disables it.
    pub slo: SloPolicy,
    /// Steps between durable PDME snapshots (`0` disables periodic
    /// checkpoints; the wiring-time baseline snapshot is always
    /// written). Between checkpoints the WAL carries every ingested
    /// frame, so crash recovery replays at most this many steps.
    pub snapshot_every: u64,
}

impl Default for ShipboardSimConfig {
    fn default() -> Self {
        ShipboardSimConfig {
            dc_count: 1,
            seed: 7,
            network: NetworkConfig::default(),
            fault_plan: FaultPlan::none(),
            dc_timeout: SimDuration::from_secs(30.0),
            survey_period: SimDuration::from_secs(30.0),
            heartbeat_period: SimDuration::from_secs(10.0),
            exec: ExecMode::Sequential,
            slo: SloPolicy::none(),
            snapshot_every: 50,
        }
    }
}

impl ShipboardSimConfig {
    /// The default configuration: one DC, seed 7, calm network,
    /// sequential stepping, no SLOs, checkpoints every 50 steps.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the number of chiller plants / Data Concentrators.
    pub fn with_dc_count(mut self, dc_count: usize) -> Self {
        self.dc_count = dc_count;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the network behaviour.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Set the scheduled fault plan.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Set the supervisor's DC liveness timeout.
    pub fn with_dc_timeout(mut self, dc_timeout: SimDuration) -> Self {
        self.dc_timeout = dc_timeout;
        self
    }

    /// Set the per-DC vibration-survey period.
    pub fn with_survey_period(mut self, survey_period: SimDuration) -> Self {
        self.survey_period = survey_period;
        self
    }

    /// Set the DC heartbeat period.
    pub fn with_heartbeat_period(mut self, heartbeat_period: SimDuration) -> Self {
        self.heartbeat_period = heartbeat_period;
        self
    }

    /// Set the execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Set the service-level objectives the watchdog evaluates.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = slo;
        self
    }

    /// Set the durable-checkpoint cadence (`0` disables periodic
    /// snapshots).
    pub fn with_snapshot_every(mut self, snapshot_every: u64) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }
}

/// The running simulation.
pub struct ShipboardSim {
    plants: Vec<ChillerPlant>,
    dcs: Vec<DataConcentrator>,
    dc_ids: Vec<DcId>,
    dc_configs: Vec<DcConfig>,
    /// Per-DC restart epoch; bumped every time a crash window ends.
    epochs: Vec<u64>,
    crashed: Vec<bool>,
    stalled: bool,
    fault_plan: FaultPlan,
    dc_timeout: SimDuration,
    network: ShipNetwork,
    pdme: PdmeExecutive,
    clock: SimClock,
    heartbeat_period: SimDuration,
    last_heartbeat: Vec<SimTime>,
    telemetry: Telemetry,
    exec: ExecMode,
    /// Survey working memory, one per stepping worker (one when
    /// sequential), lent to each DC for its step: a DC holds no
    /// survey-sized buffer between surveys.
    workspaces: Vec<SurveyWorkspace>,
    /// Master seed, kept to re-derive trace-id streams on restarts.
    master_seed: u64,
    /// Per-DC trace-id stream seed for the *current* restart epoch;
    /// shared by the DC (root hops) and the network (wire context).
    trace_seeds: Vec<u64>,
    watchdog: SloWatchdog,
    /// The PDME's durable store: WAL of every ingested frame plus
    /// periodic snapshots; [`FaultKind::PdmeCrash`] restores from it.
    store: StoreHandle,
    snapshot_every: u64,
    /// Steps taken so far (snapshot cadence).
    steps: u64,
    /// The serving gateway, when one is attached: after every step the
    /// control thread builds a [`ServingSnapshot`] and publishes it, so
    /// query traffic reads immutable state and never touches the live
    /// engine.
    gateway: Option<Arc<Gateway>>,
    /// The always-on flight recorder: one bounded step-record capture
    /// per step, incident sealing on trigger edges. Shared with an
    /// attached gateway, which serves it over the wire.
    recorder: Arc<FlightRecorder>,
    /// Incident triggers raised since the last step's capture (fault
    /// transitions, crash-restores, explicit captures); drained into
    /// the recorder at the end of every step.
    pending_triggers: Vec<IncidentTrigger>,
}

impl ShipboardSim {
    /// Build the ship: `dc_count` chillers with their DCs, the network,
    /// and the PDME with every machine registered in its ship model and
    /// every DC's station (machines + SBFR set) on file with the
    /// supervisor. In [`ExecMode::Parallel`] the `exec.workers` gauge
    /// and `exec.jobs` counter are registered here; sequential runs
    /// never carry them.
    pub fn new(config: ShipboardSimConfig) -> Result<Self> {
        // A plan naming a DC this ship lacks would fail mid-run, at the
        // window's first transition; refuse it before anything is built.
        for window in config.fault_plan.windows() {
            let dc = match window.kind {
                FaultKind::DcCrash { dc } | FaultKind::SensorDropout { dc, .. } => dc,
                FaultKind::Partition {
                    target: FaultTarget::Dc(dc),
                } => dc,
                _ => continue,
            };
            if !(1..=config.dc_count as u64).contains(&dc.raw()) {
                return Err(Error::invalid(format!(
                    "fault plan names {dc}, but the ship has {} DCs",
                    config.dc_count
                )));
            }
        }
        // One shared observability domain for the whole ship: every
        // component joins it at wiring time, before any traffic flows.
        let telemetry = Telemetry::new();
        let mut network = ShipNetwork::new(config.network.clone());
        network.set_telemetry(&telemetry);
        network.register(Endpoint::Pdme);
        let mut pdme = PdmeExecutive::new();
        pdme.set_telemetry(&telemetry);
        let sbfr_images = DataConcentrator::default_sbfr_images()?;
        let mut plants = Vec::with_capacity(config.dc_count);
        let mut dcs = Vec::with_capacity(config.dc_count);
        let mut dc_ids = Vec::with_capacity(config.dc_count);
        let mut dc_configs = Vec::with_capacity(config.dc_count);
        let mut trace_seeds = Vec::with_capacity(config.dc_count);
        for i in 0..config.dc_count {
            let machine = MachineId::new(i as u64 + 1);
            let dc_id = DcId::new(i as u64 + 1);
            plants.push(ChillerPlant::new(PlantConfig::new(
                machine,
                derive_stream_seed(config.seed, dc_id.raw()),
            )));
            let trace_seed = dc_trace_seed(config.seed, dc_id.raw(), 0);
            trace_seeds.push(trace_seed);
            let dc_cfg = DcConfig::new(dc_id, machine)
                .with_survey_period(config.survey_period)
                .with_trace_seed(trace_seed);
            let mut dc = DataConcentrator::new(dc_cfg.clone())?;
            dc.set_telemetry(&telemetry);
            dcs.push(dc);
            dc_ids.push(dc_id);
            dc_configs.push(dc_cfg);
            network.register(Endpoint::Dc(dc_id));
            pdme.register_machine(machine, &format!("A/C Plant {} Chiller", i + 1));
            pdme.assign_dc(dc_id, vec![machine], sbfr_images.clone());
        }
        // Wiring complete: attach the durable store and checkpoint the
        // wired-but-quiet engine, so recovery always has a snapshot to
        // start from (the WAL journals everything after this point).
        let store = StoreHandle::in_memory(&telemetry);
        pdme.attach_store(store.clone());
        pdme.snapshot_to_store()?;
        if let ExecMode::Parallel { .. } = config.exec {
            telemetry
                .gauge("exec", "workers")
                .set(config.exec.worker_count() as f64);
            // Registered before the first step, so it reads 0, not absent.
            telemetry.counter("exec", "jobs");
        }
        Ok(ShipboardSim {
            last_heartbeat: vec![SimTime::ZERO - config.heartbeat_period; config.dc_count],
            epochs: vec![0; config.dc_count],
            crashed: vec![false; config.dc_count],
            stalled: false,
            fault_plan: config.fault_plan,
            dc_timeout: config.dc_timeout,
            plants,
            dcs,
            dc_ids,
            dc_configs,
            network,
            pdme,
            clock: SimClock::new(),
            heartbeat_period: config.heartbeat_period,
            telemetry,
            exec: config.exec,
            workspaces: (0..config.exec.worker_count().max(1))
                .map(|_| SurveyWorkspace::new())
                .collect(),
            master_seed: config.seed,
            trace_seeds,
            watchdog: SloWatchdog::new(config.slo),
            store,
            snapshot_every: config.snapshot_every,
            steps: 0,
            gateway: None,
            recorder: Arc::new(FlightRecorder::new(RecorderConfig::default(), config.seed)),
            pending_triggers: Vec::new(),
        })
    }

    /// Attach a serving gateway joined to the ship's telemetry domain.
    /// From now on every [`ShipboardSim::step`] ends by publishing a
    /// fresh [`ServingSnapshot`] (stamped with the step ordinal) to the
    /// returned handle; share the `Arc` with any number of client
    /// threads. An initial snapshot of the current state is published
    /// immediately, so clients never observe the empty version 0 once
    /// this returns.
    pub fn attach_gateway(&mut self) -> Arc<Gateway> {
        let gateway = Arc::new(Gateway::new(&self.telemetry, self.recorder.clone()));
        self.gateway = Some(gateway.clone());
        self.publish_serving_snapshot();
        gateway
    }

    /// The attached gateway, if any.
    pub fn gateway(&self) -> Option<&Arc<Gateway>> {
        self.gateway.as_ref()
    }

    /// Build and publish the post-step serving snapshot, sharing with
    /// the gateway's current snapshot whatever the engine has not
    /// changed since. Runs on the control thread while the engine is
    /// quiet; a no-op without an attached gateway, so un-served
    /// simulations pay nothing.
    fn publish_serving_snapshot(&self) {
        let Some(gateway) = &self.gateway else {
            return;
        };
        let snapshot = ServingSnapshot::build_after(
            &gateway.snapshot(),
            self.steps,
            self.clock.now(),
            &self.pdme,
            self.dc_timeout,
            self.watchdog.last_verdict(),
            &self.telemetry,
        );
        gateway.publish(snapshot);
    }

    /// The PDME's durable store (WAL + snapshots). Handles are shared:
    /// appends through the returned handle land in the same log the
    /// crash-restore path recovers from.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// The scenario's flight recorder: per-step records, the journal
    /// tail, and sealed incident bundles. An attached gateway serves
    /// the same handle over the wire.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Raise a manual incident trigger: the flight recorder opens a
    /// capture at the end of the *next* step (the explicit-API-call
    /// trigger edge), sealing once the post-context window fills.
    pub fn capture_incident(&mut self, label: impl Into<String>) {
        self.pending_triggers.push(IncidentTrigger::Manual {
            label: label.into(),
        });
    }

    /// Crash the PDME process and rebuild it from the durable store:
    /// decode the latest snapshot, replay the WAL tail, re-join the
    /// ship's telemetry domain (without double-counting replayed work)
    /// and re-attach the store. [`FaultKind::PdmeCrash`] windows call
    /// this at their start edge; benches and tests may invoke it
    /// directly at an arbitrary step.
    ///
    /// Resident algorithms are process state and do not survive — hosts
    /// that installed any must re-install them after this returns.
    pub fn crash_restore_pdme(&mut self) -> Result<()> {
        let now = self.clock.now();
        self.telemetry.event_at(
            now,
            "sim",
            "pdme_crash",
            "PDME lost; restoring from snapshot + WAL tail",
        );
        let recovered = RecoveryManager::new(&self.telemetry).recover(&self.store.contents()?);
        let mut fresh = PdmeExecutive::restore(&recovered)?;
        fresh.set_telemetry(&self.telemetry);
        fresh.attach_store(self.store.clone());
        self.pdme = fresh;
        self.pending_triggers
            .push(IncidentTrigger::PdmeCrashRestore);
        self.telemetry.event_at(
            now,
            "sim",
            "pdme_restored",
            format!(
                "replayed {} WAL record(s) past the last snapshot",
                recovered.tail.len()
            ),
        );
        Ok(())
    }

    /// The ship-wide telemetry domain (metrics, spans, journal,
    /// dashboard).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Steps taken so far. Doubles as the serving-snapshot version
    /// stamp: after any step, an attached gateway serves version
    /// `steps()`.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Most threads stepping DCs in one tick (0 in sequential mode).
    pub fn workers(&self) -> usize {
        self.exec.worker_count()
    }

    /// The plants (fault seeding, ground truth).
    pub fn plant_mut(&mut self, idx: usize) -> &mut ChillerPlant {
        &mut self.plants[idx]
    }

    /// The plants, immutably.
    pub fn plant(&self, idx: usize) -> &ChillerPlant {
        &self.plants[idx]
    }

    /// The PDME.
    pub fn pdme(&self) -> &PdmeExecutive {
        &self.pdme
    }

    /// Mutable PDME access (resident algorithms, ship-model edits).
    pub fn pdme_mut(&mut self) -> &mut PdmeExecutive {
        &mut self.pdme
    }

    /// The network (stats, partitions).
    pub fn network_mut(&mut self) -> &mut ShipNetwork {
        &mut self.network
    }

    /// The network, immutably (stats, outbox depths).
    pub fn network(&self) -> &ShipNetwork {
        &self.network
    }

    /// One DC, for configuration (ablation switches, WNN attachment).
    pub fn dc_mut(&mut self, idx: usize) -> &mut DataConcentrator {
        &mut self.dcs[idx]
    }

    /// The scheduled fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The SLO watchdog's verdict from the most recent step, if the
    /// configured policy has any rules and at least one step has run.
    pub fn slo_verdict(&self) -> Option<&SloVerdict> {
        self.watchdog.last_verdict()
    }

    /// Every causal trace hop recorded so far, in canonical order
    /// (identical across execution modes; feed to
    /// [`mpros_telemetry::export::chrome_trace`] or
    /// [`mpros_telemetry::export::jsonl`]).
    pub fn trace_hops(&self) -> Vec<TraceHop> {
        self.telemetry.trace_hops()
    }

    /// The trace-id stream seed DC `idx` currently derives report
    /// traces from (changes on every crash restart).
    pub fn dc_trace_seed(&self, idx: usize) -> u64 {
        self.trace_seeds[idx]
    }

    /// True while DC `idx` is inside a crash window.
    pub fn is_crashed(&self, idx: usize) -> bool {
        self.crashed[idx]
    }

    /// DC `idx`'s restart epoch (0 until its first crash recovery).
    pub fn dc_epoch(&self, idx: usize) -> u64 {
        self.epochs[idx]
    }

    /// True while a fault window has the PDME stalled.
    pub fn is_pdme_stalled(&self) -> bool {
        self.stalled
    }

    /// Seed a fault on plant `idx`.
    pub fn seed_fault(&mut self, idx: usize, seed: FaultSeed) {
        self.plants[idx].seed_fault(seed);
    }

    /// Send a PDME-side command to a DC over the network.
    pub fn send_command(&mut self, dc_idx: usize, msg: &NetMessage) -> Result<()> {
        let envelope = Envelope::to_dc(self.dc_ids[dc_idx], msg.clone());
        self.network.post(self.clock.now(), envelope)
    }

    fn dc_index(&self, dc: DcId) -> usize {
        self.dc_ids
            .iter()
            .position(|&id| id == dc)
            .expect("fault plans target configured DCs")
    }

    /// Apply every fault-plan transition in `(prev, now]`, in the
    /// plan's deterministic order (control thread only, so the state
    /// and RNG effects are identical across execution modes).
    fn apply_fault_transitions(&mut self, prev: SimTime, now: SimTime) -> Result<()> {
        let transitions = self.fault_plan.transitions(prev, now);
        for transition in transitions {
            // Anchor the durable log to the fault timeline (replay
            // skips these markers; forensics reads them).
            let (label, start) = match &transition {
                FaultTransition::Start(kind) => (kind.label(), true),
                FaultTransition::End(kind) => (kind.label(), false),
            };
            self.pdme.journal_fault_transition(now, label, start)?;
            match transition {
                FaultTransition::Start(FaultKind::DcCrash { dc }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.crashed[idx] = true;
                        self.network.crash_dc(dc);
                        self.pending_triggers
                            .push(IncidentTrigger::DcCrashed { dc: dc.raw() });
                    }
                }
                FaultTransition::End(FaultKind::DcCrash { dc }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        continue;
                    }
                    // The restarted process is a *fresh* DC: volatile
                    // detectors, schedules and id allocator reset; the
                    // SBFR set comes back via the PDME supervisor. Its
                    // id allocator restarting means report ids repeat,
                    // so the trace-id stream must fold the new epoch in
                    // — pre- and post-crash reports with the same raw
                    // id stay distinct traces.
                    let epoch = self.epochs[idx] + 1;
                    self.trace_seeds[idx] = dc_trace_seed(self.master_seed, dc.raw(), epoch);
                    let mut fresh = DataConcentrator::new(
                        self.dc_configs[idx]
                            .clone()
                            .with_trace_seed(self.trace_seeds[idx]),
                    )?;
                    fresh.set_telemetry(&self.telemetry);
                    // Harness-held fault state outlives the process:
                    // re-break any channel still inside a dropout window.
                    for window in self.fault_plan.windows() {
                        if let FaultKind::SensorDropout { dc: d, channel } = window.kind {
                            if d == dc && window.active_at(now) {
                                fresh
                                    .chain_mut()
                                    .fail_sensor(channel, SensorFault::Flatline)?;
                            }
                        }
                    }
                    self.dcs[idx] = fresh;
                    self.crashed[idx] = false;
                    self.epochs[idx] = epoch;
                    self.network.restart_dc(dc, self.epochs[idx]);
                    // A partition window may still cover the endpoint.
                    if self.fault_plan.any_active(now, |k| {
                        matches!(k, FaultKind::Partition { target: FaultTarget::Dc(d) } if *d == dc)
                    }) {
                        self.network.set_partitioned(Endpoint::Dc(dc), true);
                    }
                }
                FaultTransition::Start(FaultKind::SensorDropout { dc, channel }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.dcs[idx]
                            .chain_mut()
                            .fail_sensor(channel, SensorFault::Flatline)?;
                    }
                }
                FaultTransition::End(FaultKind::SensorDropout { dc, channel }) => {
                    let idx = self.dc_index(dc);
                    if !self.crashed[idx] {
                        self.dcs[idx].chain_mut().repair_sensor(channel)?;
                    }
                }
                FaultTransition::Start(FaultKind::PdmeStall) => {
                    self.stalled = true;
                    self.telemetry
                        .event_at(now, "sim", "pdme_stall", "fusion pass suspended");
                }
                FaultTransition::End(FaultKind::PdmeStall) => {
                    self.stalled = false;
                    self.telemetry
                        .event_at(now, "sim", "pdme_resume", "fusion pass resumed");
                }
                FaultTransition::Start(FaultKind::PdmeCrash) => {
                    // Crash-restart is instantaneous in simulated time:
                    // the engine is torn down and rebuilt from its
                    // durable store before this tick's traffic flows,
                    // which is what keeps the scenario's outputs
                    // byte-identical to an uninterrupted run.
                    self.crash_restore_pdme()?;
                }
                FaultTransition::End(FaultKind::PdmeCrash) => {
                    // The restart happened at the window's start edge;
                    // nothing is held down for the window's duration.
                }
                FaultTransition::Start(FaultKind::Partition { target }) => {
                    self.network.set_partitioned(endpoint_of(target), true);
                }
                FaultTransition::End(FaultKind::Partition { target }) => {
                    // A crashed DC stays dark until its own restart.
                    if let FaultTarget::Dc(dc) = target {
                        if self.crashed[self.dc_index(dc)] {
                            continue;
                        }
                    }
                    self.network.set_partitioned(endpoint_of(target), false);
                }
            }
        }
        Ok(())
    }

    /// Advance the whole ship by `dt` through the four execution-model
    /// phases (see the module docs), applying any fault-plan
    /// transitions first. Returns the number of reports the PDME fused
    /// this step (0 while the PDME is stalled).
    pub fn step(&mut self, dt: SimDuration) -> Result<usize> {
        let prev = self.clock.now();
        self.clock.advance(dt);
        let now = self.clock.now();
        self.telemetry.set_sim_now(now);
        self.steps += 1;
        self.apply_fault_transitions(prev, now)?;

        // Phase 1: deliver pending traffic, in DC-index order. Acks are
        // transport-level and consumed here; a crashed DC's deliveries
        // die with the node.
        let mut commands: Vec<Vec<NetMessage>> = Vec::with_capacity(self.dc_ids.len());
        for (i, &id) in self.dc_ids.iter().enumerate() {
            let delivered = self.network.recv(Endpoint::Dc(id), now);
            let mut rest = Vec::new();
            for msg in delivered {
                if self.crashed[i] {
                    continue;
                }
                match msg {
                    NetMessage::Ack {
                        dc,
                        epoch,
                        last_seq,
                    } => {
                        self.network.acknowledge(dc, epoch, last_seq);
                    }
                    other => rest.push(other),
                }
            }
            commands.push(rest);
        }

        // Phase 2: execute per-DC steps for every live DC.
        let jobs = self
            .dcs
            .iter_mut()
            .zip(&self.plants)
            .zip(commands)
            .enumerate()
            .filter(|(i, _)| !self.crashed[*i])
            .map(|(i, ((dc, plant), commands))| (i, dc, plant, commands))
            .collect();
        let outputs = step_dcs(self.exec, &self.telemetry, now, jobs, &mut self.workspaces);

        // Phase 3: merge into the network in DC-index order — each DC's
        // reports parked in its outbox as one batched frame, then the
        // heartbeat if due — and pump every due outbox frame onto the
        // wire. This fixes the network RNG's draw order independently
        // of which thread finished first.
        for (i, reports) in outputs {
            let reports = reports?;
            self.network
                .enqueue_report_batch(now, self.dc_ids[i], reports, self.trace_seeds[i])?;
            if now.since(self.last_heartbeat[i]) >= self.heartbeat_period {
                self.last_heartbeat[i] = now;
                self.network.post(
                    now,
                    Envelope::to_pdme(
                        self.dc_ids[i],
                        NetMessage::Heartbeat {
                            dc: self.dc_ids[i],
                            at_secs: now.as_secs(),
                        },
                    ),
                )?;
            }
        }
        self.network.pump_outboxes(now)?;

        // Phase 4: one PDME ingest + fusion pass over everything due,
        // acks back onto the wire, then a supervision pass. A stalled
        // PDME leaves its inbox queueing.
        if self.stalled {
            self.end_step()?;
            return Ok(0);
        }
        let msgs = self.network.recv(Endpoint::Pdme, now);
        let summary = self.pdme.ingest(&msgs, now)?;
        for ack in &summary.acks {
            self.network.post(
                now,
                Envelope::to_dc(
                    ack.dc,
                    NetMessage::Ack {
                        dc: ack.dc,
                        epoch: ack.epoch,
                        last_seq: ack.last_seq,
                    },
                ),
            )?;
        }
        for cmd in self.pdme.supervise(now, self.dc_timeout)? {
            let NetMessage::DownloadSbfr { dc, .. } = &cmd else {
                continue;
            };
            self.network.post(now, Envelope::to_dc(*dc, cmd))?;
        }
        self.end_step()?;
        Ok(summary.fused)
    }

    /// End a step, stalled or not, on the control thread (deterministic
    /// under any worker count): the SLO watchdog, the checkpoint unless
    /// stalled, the flight capture (the step's complete counter
    /// movement; an incident opens on an SLO violation edge or a raised
    /// trigger), then the serving publish, stamped with the step ordinal.
    fn end_step(&mut self) -> Result<()> {
        let was_passing = self.watchdog.last_verdict().is_none_or(|v| v.pass);
        let verdict = self.watchdog.evaluate(&self.telemetry);
        if !self.stalled
            && self.snapshot_every > 0
            && self.steps.is_multiple_of(self.snapshot_every)
        {
            self.pdme.snapshot_to_store()?;
        }
        if was_passing && !verdict.pass {
            self.pending_triggers.push(IncidentTrigger::SloViolation);
        }
        let triggers = std::mem::take(&mut self.pending_triggers);
        self.recorder.observe_step(
            self.steps,
            self.clock.now().as_secs(),
            &self.telemetry,
            Some(verdict),
            &triggers,
        );
        self.publish_serving_snapshot();
        Ok(())
    }

    /// Run for `duration` in steps of `dt`; returns total reports fused.
    pub fn run_for(&mut self, duration: SimDuration, dt: SimDuration) -> Result<usize> {
        let steps = (duration.as_secs() / dt.as_secs()).ceil() as usize;
        let mut fused = 0;
        for _ in 0..steps {
            fused += self.step(dt)?;
        }
        Ok(fused)
    }
}

fn endpoint_of(target: FaultTarget) -> Endpoint {
    match target {
        FaultTarget::Dc(dc) => Endpoint::Dc(dc),
        FaultTarget::Pdme => Endpoint::Pdme,
    }
}
