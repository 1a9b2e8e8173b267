//! `ship8_survey`: an 8-DC ship where every step is a full vibration
//! survey on every DC.
//!
//! `dt` equals the 30 s survey period, so each step runs the 5-channel
//! × 32,768-sample survey, DLI, SBFR and fuzzy on all eight DCs, then
//! the network, PDME ingest, supervision, SLO check and flight recorder.
//! Bearing defects are seeded on two plants so reports flow.
//!
//! The traced run drives the step itself: [`Replica`] calls the same
//! public functions in the phase order `ShipboardSim::step` documents,
//! timing each call, beside an untraced `ShipboardSim` built from the
//! same seed; the two must end with byte-identical ICAS exports. The
//! replica exists only until the program carries its own tracing.

use crate::measure::{
    self, median, timed, Gen, HostSpeed, Ledger, Outcome, RunqWindow, StealWindow, StepWalls,
};
use crate::{Args, RunResult, Size};
use mpros::chiller::fault::FaultProfile;
use mpros::chiller::plant::PlantConfig;
use mpros::chiller::{ChillerPlant, FaultSeed};
use mpros::core::{
    derive_stream_seed, DcId, Error, MachineCondition, MachineId, Result, SimClock, SimDuration,
    SimTime,
};
use mpros::dc::{AcquisitionChain, DataConcentrator, DcConfig};
use mpros::dli::{DliExpertSystem, SpectralFeatures, SurveyScratch, VibrationSurvey};
use mpros::network::{Endpoint, Envelope, NetMessage, NetworkConfig, ShipNetwork};
use mpros::pdme::{export_snapshot, PdmeExecutive};
use mpros::signal::DspContext;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros::store::StoreHandle;
use mpros::telemetry::trace::dc_trace_seed;
use mpros::telemetry::{
    FlightRecorder, Instrumented, RecorderConfig, SloPolicy, SloWatchdog, Stage, Telemetry,
};
use std::collections::BTreeMap;
use std::time::Instant;

const SURVEY_PERIOD_S: f64 = 30.0;
const HEARTBEAT_S: f64 = 10.0;
const DC_TIMEOUT_S: f64 = 30.0;
const SNAPSHOT_EVERY: u64 = 50;

/// Everything a ship of this workload is built from, drawn from the seed.
struct Plan {
    dc_count: usize,
    seed: u64,
    /// `(plant index, bearing-defect seed)`, two distinct plants.
    defects: Vec<(usize, FaultSeed)>,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let dc_count = if args.size == Size::Smoke { 2 } else { 8 };
        let mut gen = Gen::new(args.seed, 1);
        let first = gen.index(dc_count);
        let second = (first + 1 + gen.index(dc_count - 1)) % dc_count;
        let defects = [first, second]
            .into_iter()
            .map(|idx| {
                let seed = FaultSeed {
                    condition: MachineCondition::MotorBearingDefect,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(20.0),
                    profile: FaultProfile::EarlyOnset,
                };
                (idx, seed)
            })
            .collect();
        Plan {
            dc_count,
            seed: args.seed,
            defects,
        }
    }

    fn network(&self) -> NetworkConfig {
        NetworkConfig::new().with_seed(self.seed)
    }

    fn slo() -> SloPolicy {
        SloPolicy::standard(60.0, 90.0, 0.9)
    }

    fn sim(&self) -> Result<ShipboardSim> {
        let config = ShipboardSimConfig::new()
            .with_dc_count(self.dc_count)
            .with_seed(self.seed)
            .with_network(self.network())
            .with_survey_period(SimDuration::from_secs(SURVEY_PERIOD_S))
            .with_heartbeat_period(SimDuration::from_secs(HEARTBEAT_S))
            .with_dc_timeout(SimDuration::from_secs(DC_TIMEOUT_S))
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_exec(ExecMode::Sequential)
            .with_slo(Self::slo());
        let mut sim = ShipboardSim::new(config)?;
        for (idx, seed) in &self.defects {
            sim.seed_fault(*idx, *seed);
        }
        if sim.workers() != 0 {
            return Err(Error::invalid("ship8_survey must step sequentially"));
        }
        Ok(sim)
    }
}

fn dt() -> SimDuration {
    SimDuration::from_secs(SURVEY_PERIOD_S)
}

/// Every seeded bearing defect must top its machine's maintenance items.
fn check_defects_top(pdme: &PdmeExecutive, plan: &Plan, out: &mut Outcome, who: &str) {
    let list = pdme.maintenance_list();
    for (idx, seed) in &plan.defects {
        let machine = MachineId::new(*idx as u64 + 1);
        let top = list.iter().find(|item| item.machine == machine);
        out.check(
            top.map(|item| item.condition) == Some(seed.condition),
            format!(
                "{who}: seeded {:?} tops machine {} (top: {:?})",
                seed.condition,
                machine.raw(),
                top.map(|item| item.condition)
            ),
        );
    }
}

fn icas_bytes(pdme: &PdmeExecutive, now: SimTime) -> String {
    let icas = export_snapshot(pdme, now, SimDuration::from_secs(DC_TIMEOUT_S));
    serde_json::to_string(&icas).expect("ICAS export serialises")
}

pub fn run(args: &Args) -> RunResult {
    let plan = Plan::new(args);
    if args.trace {
        traced(args, &plan)
    } else {
        untraced(args, &plan)
    }
}

fn untraced(args: &Args, plan: &Plan) -> RunResult {
    let steps = args.steps(4.0, 100, 3);
    let setups = if args.size == Size::Smoke { 1 } else { 5 };
    let mut host = HostSpeed::new();
    let (mut sim, setup_times) = measure::repeated_setup(setups, &mut host, || {
        let mut s = plan.sim()?;
        s.step(dt())?;
        Ok(s)
    })?;
    measure::assert_thread_budget();

    let mut walls = StepWalls::default();
    let mut fused = 0usize;
    let runq = RunqWindow::open();
    let steal = StealWindow::open();
    let start = Instant::now();
    for _ in 0..steps {
        let (n, secs) = timed(|| sim.step(dt()));
        fused += n?;
        host.sample();
        walls.push(secs, &host);
    }
    let runq_share = runq.close() / start.elapsed().as_secs_f64();
    let steal_share = steal.close();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.check(walls.len() == steps, format!("{steps} fixed steps ran"));
    check_defects_top(sim.pdme(), plan, &mut out, "ShipboardSim");
    out.check(fused > 0, format!("{fused} reports fused"));
    out.attempted = (steps + fused) as u64;
    out.note(format!("bench.runq_wait_share = {runq_share}"));
    out.note(format!("host steal share = {steal_share}"));
    out.note(format!("fail_share = 0 ({} attempted)", out.attempted));
    let values = walls.end_to_end(&setup_times, fused, &mut out);
    Ok((out, values))
}

/// The traced replica of `ShipboardSim::step` (sequential mode, no fault
/// plan, no gateway), built from public calls only.
struct Replica {
    plants: Vec<ChillerPlant>,
    dcs: Vec<DataConcentrator>,
    dc_ids: Vec<DcId>,
    trace_seeds: Vec<u64>,
    last_heartbeat: Vec<SimTime>,
    network: ShipNetwork,
    pdme: PdmeExecutive,
    clock: SimClock,
    telemetry: Telemetry,
    watchdog: SloWatchdog,
    recorder: FlightRecorder,
    last_slo_pass: Option<bool>,
    steps: u64,
    /// Fixtures for repeating the survey's inner calls per DC.
    chains: Vec<AcquisitionChain>,
    surveys: Vec<VibrationSurvey>,
    contexts: Vec<DspContext>,
    scratch: SurveyScratch,
    features: SpectralFeatures,
    dli: DliExpertSystem,
}

/// A DLI report's `(condition, severity, belief)`, compared bitwise.
type DliKey = (MachineCondition, u64, u64);

impl Replica {
    /// Mirrors `ShipboardSim::new` call for call.
    fn new(plan: &Plan) -> Result<Replica> {
        let telemetry = Telemetry::new();
        let mut network = ShipNetwork::new(plan.network());
        network.set_telemetry(&telemetry);
        network.register(Endpoint::Pdme);
        let mut pdme = PdmeExecutive::new();
        pdme.set_telemetry(&telemetry);
        let sbfr_images = DataConcentrator::default_sbfr_images()?;
        let mut r = Replica {
            plants: Vec::new(),
            dcs: Vec::new(),
            dc_ids: Vec::new(),
            trace_seeds: Vec::new(),
            last_heartbeat: vec![
                SimTime::ZERO - SimDuration::from_secs(HEARTBEAT_S);
                plan.dc_count
            ],
            network,
            pdme,
            clock: SimClock::new(),
            telemetry,
            watchdog: SloWatchdog::new(Plan::slo()),
            recorder: FlightRecorder::new(RecorderConfig::default(), plan.seed),
            last_slo_pass: None,
            steps: 0,
            chains: Vec::new(),
            surveys: Vec::new(),
            contexts: Vec::new(),
            scratch: SurveyScratch::default(),
            features: SpectralFeatures::default(),
            dli: DliExpertSystem::new(),
        };
        for i in 0..plan.dc_count {
            let machine = MachineId::new(i as u64 + 1);
            let dc_id = DcId::new(i as u64 + 1);
            let plant = ChillerPlant::new(PlantConfig::new(
                machine,
                derive_stream_seed(plan.seed, dc_id.raw()),
            ));
            let trace_seed = dc_trace_seed(plan.seed, dc_id.raw(), 0);
            let config = DcConfig::new(dc_id, machine)
                .with_survey_period(SimDuration::from_secs(SURVEY_PERIOD_S))
                .with_trace_seed(trace_seed);
            let mut dc = DataConcentrator::new(config)?;
            dc.set_telemetry(&r.telemetry);
            r.chains
                .push(AcquisitionChain::new(dc.chain().config().clone())?);
            r.surveys.push(VibrationSurvey {
                train: plant.train().clone(),
                load: 0.0,
                sample_rate: dc.chain().config().sample_rate,
                blocks: Vec::new(),
            });
            r.contexts.push(DspContext::new());
            r.plants.push(plant);
            r.dcs.push(dc);
            r.dc_ids.push(dc_id);
            r.trace_seeds.push(trace_seed);
            r.network.register(Endpoint::Dc(dc_id));
            r.pdme
                .register_machine(machine, &format!("A/C Plant {} Chiller", i + 1));
            r.pdme.assign_dc(dc_id, vec![machine], sbfr_images.clone());
        }
        let store = StoreHandle::in_memory(&r.telemetry);
        r.pdme.attach_store(store);
        r.pdme.snapshot_to_store()?;
        for (idx, seed) in &plan.defects {
            r.plants[*idx].seed_fault(*seed);
        }
        Ok(r)
    }

    /// One step, every call timed into `ledger`. Returns the step wall
    /// and, per DC, the DLI reports it emitted.
    fn step(&mut self, dt: SimDuration, ledger: &mut Ledger) -> Result<(f64, Vec<Vec<DliKey>>)> {
        let start = Instant::now();
        self.clock.advance(dt);
        let now = self.clock.now();
        self.telemetry.set_sim_now(now);
        self.steps += 1;
        // No fault plan: `apply_fault_transitions` has nothing to do.

        // Phase 1: deliver, in DC order; acks are consumed here.
        let mut commands: Vec<Vec<NetMessage>> = Vec::with_capacity(self.dc_ids.len());
        for &id in &self.dc_ids {
            let delivered = ledger.time("network", || self.network.recv(Endpoint::Dc(id), now));
            let mut rest = Vec::new();
            for msg in delivered {
                match msg {
                    NetMessage::Ack {
                        dc,
                        epoch,
                        last_seq,
                    } => ledger.time("network", || self.network.acknowledge(dc, epoch, last_seq)),
                    other => rest.push(other),
                }
            }
            commands.push(rest);
        }

        // Phase 2: execute every DC.
        let mut outputs = Vec::with_capacity(self.dcs.len());
        let mut dli = Vec::with_capacity(self.dcs.len());
        for (i, cmds) in commands.iter().enumerate() {
            let (reports, secs) = timed(|| self.dcs[i].step(&self.plants[i], now, cmds));
            self.telemetry
                .record_span_wall(Stage::DcStep, std::time::Duration::from_secs_f64(secs));
            ledger.add("dc", secs);
            let reports = reports?;
            let dli_ks = DcId::new(i as u64 + 1).raw() * 10 + 1;
            dli.push(
                reports
                    .iter()
                    .filter(|r| r.knowledge_source.raw() == dli_ks)
                    .map(|r| {
                        (
                            r.condition,
                            r.severity.value().to_bits(),
                            r.belief.value().to_bits(),
                        )
                    })
                    .collect(),
            );
            outputs.push(reports);
        }

        // Phase 3: merge into the network in DC order, then pump.
        for (i, reports) in outputs.into_iter().enumerate() {
            let id = self.dc_ids[i];
            let seed = self.trace_seeds[i];
            ledger.time("network", || {
                self.network.enqueue_report_batch(now, id, reports, seed)
            })?;
            if now.since(self.last_heartbeat[i]) >= SimDuration::from_secs(HEARTBEAT_S) {
                self.last_heartbeat[i] = now;
                let beat = Envelope::to_pdme(
                    id,
                    NetMessage::Heartbeat {
                        dc: id,
                        at_secs: now.as_secs(),
                    },
                );
                ledger.time("network", || self.network.post(now, beat))?;
            }
        }
        ledger.time("network", || self.network.pump_outboxes(now))?;

        // Phase 4: ingest + fusion, acks, supervision, SLO, checkpoint,
        // flight capture.
        let msgs = ledger.time("network", || self.network.recv(Endpoint::Pdme, now));
        let summary = ledger.time("pdme.ingest", || self.pdme.ingest(&msgs, now))?;
        for ack in &summary.acks {
            let envelope = Envelope::to_dc(
                ack.dc,
                NetMessage::Ack {
                    dc: ack.dc,
                    epoch: ack.epoch,
                    last_seq: ack.last_seq,
                },
            );
            ledger.time("network", || self.network.post(now, envelope))?;
        }
        let timeout = SimDuration::from_secs(DC_TIMEOUT_S);
        let cmds = ledger.time("pdme.supervise", || self.pdme.supervise(now, timeout))?;
        for cmd in cmds {
            let NetMessage::DownloadSbfr { dc, .. } = &cmd else {
                continue;
            };
            let envelope = Envelope::to_dc(*dc, cmd.clone());
            ledger.time("network", || self.network.post(now, envelope))?;
        }
        ledger.time("telemetry.slo", || self.watchdog.evaluate(&self.telemetry));
        if self.steps.is_multiple_of(SNAPSHOT_EVERY) {
            ledger.time("store.snapshot", || self.pdme.snapshot_to_store())?;
        }
        let verdict = self.watchdog.last_verdict().cloned();
        let mut triggers = Vec::new();
        if let Some(v) = &verdict {
            if !v.pass && self.last_slo_pass.unwrap_or(true) {
                triggers.push(mpros::telemetry::IncidentTrigger::SloViolation);
            }
            self.last_slo_pass = Some(v.pass);
        }
        ledger.time("telemetry.recorder", || {
            self.recorder.observe_step(
                self.steps,
                now.as_secs(),
                &self.telemetry,
                verdict.as_ref(),
                &triggers,
            )
        });
        Ok((start.elapsed().as_secs_f64(), dli))
    }

    /// Repeat the survey's inner calls for every DC on the inputs the
    /// step used, outside the step's wall clock: acquisition
    /// (fixture synthesis), feature extraction, DLI rules. The repeated
    /// DLI verdicts must contain every DLI report the DC emitted.
    fn repeat_survey(&mut self, ledger: &mut Ledger, emitted: &[Vec<DliKey>]) -> bool {
        let now = self.clock.now();
        let mut agree = true;
        for (i, emitted) in emitted.iter().enumerate() {
            let survey = &mut self.surveys[i];
            let plant = &self.plants[i];
            survey.load = plant.load_at(now);
            let chain = &mut self.chains[i];
            let ((), secs) = timed(|| chain.survey_into(plant, now, &mut survey.blocks));
            ledger.add_child("chiller.synth", secs);
            let (extracted, secs) = timed(|| {
                SpectralFeatures::extract_into(
                    &mut self.contexts[i],
                    survey,
                    &mut self.scratch,
                    &mut self.features,
                )
            });
            ledger.add_child("signal.extract", secs);
            agree &= extracted.is_ok();
            let (diagnoses, secs) = timed(|| self.dli.diagnose(&self.features));
            ledger.add_child("dli.diagnose", secs);
            let repeated: Vec<DliKey> = diagnoses
                .iter()
                .map(|d| {
                    (
                        d.condition,
                        d.severity.value().to_bits(),
                        d.belief.value().to_bits(),
                    )
                })
                .collect();
            agree &= emitted.iter().all(|key| repeated.contains(key));
        }
        agree
    }
}

fn traced(args: &Args, plan: &Plan) -> RunResult {
    let steps = args.steps(1.6, 30, 2);
    let mut sim = plan.sim()?;
    let mut replica = Replica::new(plan)?;
    // Warm-up step on both, outside the ledger.
    sim.step(dt())?;
    replica.step(dt(), &mut Ledger::default())?;
    measure::assert_thread_budget();

    let mut ledger = Ledger::default();
    let mut sim_walls = Vec::with_capacity(steps);
    let received_before = replica.pdme.reports_received();
    let mut replica_walls = Vec::with_capacity(steps);
    let mut surveys_agree = true;
    let surveys = replica.telemetry.counter("dc", "surveys");
    let mut survey_steps_ok = true;
    let runq = RunqWindow::open();
    let steal = StealWindow::open();
    let start = Instant::now();
    for _ in 0..steps {
        let (fused, secs) = timed(|| sim.step(dt()));
        fused?;
        sim_walls.push(secs);
        let before = surveys.get();
        let (wall, emitted) = replica.step(dt(), &mut ledger)?;
        survey_steps_ok &= surveys.get() - before == plan.dc_count as u64;
        ledger.end_step(wall);
        replica_walls.push(wall);
        surveys_agree &= replica.repeat_survey(&mut ledger, &emitted);
    }
    let runq_share = runq.close() / start.elapsed().as_secs_f64();
    let steal_share = steal.close();

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.check(ledger.steps() == steps, format!("{steps} fixed steps ran"));
    out.check_ledger(&ledger);
    out.note(format!("host steal share = {steal_share}"));
    out.check(survey_steps_ok, "every traced step surveyed every DC");
    out.check(
        surveys_agree,
        "repeated survey calls reproduce every DLI report the DCs emitted",
    );
    let same = icas_bytes(sim.pdme(), sim.now()) == icas_bytes(&replica.pdme, replica.clock.now());
    out.check(
        same,
        "traced replica's ICAS export is byte-identical to ShipboardSim's",
    );
    check_defects_top(&replica.pdme, plan, &mut out, "replica");
    let fused = replica.pdme.fusion().reports_ingested();
    let received = replica.pdme.reports_received() - received_before;
    out.attempted = (steps + fused) as u64;

    let store = replica.telemetry.snapshot();
    let dc = ledger.per_step("dc");
    let values = BTreeMap::from([
        ("dc.step_s", dc),
        ("chiller.synth_s", ledger.per_step("chiller.synth")),
        ("signal.extract_s", ledger.per_step("signal.extract")),
        ("dli.diagnose_s", ledger.per_step("dli.diagnose")),
        ("network.s", ledger.per_step("network")),
        ("pdme.ingest_s", ledger.per_step("pdme.ingest")),
        (
            "pdme.ingest_us_per_report",
            ledger.per_step("pdme.ingest") * steps as f64 / received.max(1) as f64 * 1e6,
        ),
        ("pdme.supervise_s", ledger.per_step("pdme.supervise")),
        ("store.snapshot_s", ledger.per_step("store.snapshot")),
        (
            "store.wal_appends",
            store.counter("store", "wal_appends") as f64,
        ),
        (
            "store.wal_bytes",
            store.counter("store", "wal_bytes") as f64,
        ),
        ("telemetry.slo_s", ledger.per_step("telemetry.slo")),
        (
            "telemetry.recorder_s",
            ledger.per_step("telemetry.recorder"),
        ),
        ("ship.unattributed_share", ledger.unattributed_share()),
        ("bench.step_wall_s", ledger.wall_per_step()),
        ("bench.fail_share", 0.0),
        ("bench.runq_wait_share", runq_share),
        (
            "bench.trace_overhead_share",
            median(&replica_walls) / median(&sim_walls) - 1.0,
        ),
    ]);
    Ok((out, values))
}
