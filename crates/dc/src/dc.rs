//! The Data Concentrator.
//!
//! Hosts the four §1.1 algorithm suites on top of the acquisition chain,
//! scheduler and embedded database, and emits §7.2 condition reports:
//! "The data is processed and then sent to an expert system DLL which
//! applies stored rules for each equipment type and derives the
//! diagnoses" (§5.8). Report emission is throttled per (source,
//! condition): a diagnosis is re-reported when its severity moves
//! materially or a refresh interval elapses, so the PDME's evidence
//! stream stays approximately independent.

use crate::db::{DcDatabase, DiagnosisRecord, MeasurementRecord};
use crate::hw::{AcquisitionChain, HwConfig};
use crate::scheduler::{Scheduler, Task};
use crate::workspace::SurveyWorkspace;
use mpros_chiller::process::ProcessSnapshot;
use mpros_chiller::vibration::AccelLocation;
use mpros_chiller::ChillerPlant;
use mpros_core::{
    Belief, ConditionReport, DcId, IdAllocator, KnowledgeSourceId, MachineCondition, MachineId,
    ReportId, Result, Severity, SimDuration, SimTime,
};
use mpros_core::{PrognosticPoint, PrognosticVector};
use mpros_dli::{DliExpertSystem, SpectralFeatures, VibrationSurvey};
use mpros_fuzzy::FuzzyDiagnostics;
use mpros_network::NetMessage;
use mpros_sbfr::builtin::{spike_machine, stiction_machine};
use mpros_sbfr::Interpreter;
use mpros_signal::features::WaveformStats;
use mpros_signal::trend::TrendTracker;
use mpros_telemetry::trace::dc_trace_seed;
use mpros_telemetry::{
    Counter, HopKind, Instrumented, Stage, Telemetry, TraceHop, TraceId, WallTimer,
};
use mpros_wnn::WnnClassifier;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Process-sample (and SBFR cycle) period, in seconds: 4 Hz.
const PROCESS_PERIOD_S: f64 = 0.25;
/// Run fuzzy analysis every this many process samples.
const FUZZY_EVERY: usize = 20;
/// Process snapshots retained for the fuzzy window.
const FUZZY_WINDOW: usize = 40;
/// Minimum time between repeated reports of the same (source,
/// condition), in minutes, unless severity or belief moves more than
/// [`REREPORT_DELTA`].
const MIN_REPORT_GAP_MIN: f64 = 30.0;
/// Severity or belief change that forces immediate re-reporting.
const REREPORT_DELTA: f64 = 0.15;
/// Largest share of a block's samples that may sit at its own peak
/// magnitude. A live accelerometer reaches its peak once or twice in a
/// block; a block pinned at its peak for more than 1% of the samples is
/// clipped at the converter's rail (or stuck), not reading the machine.
const SATURATION_SHARE: f64 = 0.01;

/// Configuration of one Data Concentrator. Construct via
/// [`DcConfig::new`] and the `with_*` builders; the struct is
/// `#[non_exhaustive]` so future fault/robustness knobs are not
/// breaking changes. Every DC acquires through
/// [`HwConfig::standard`], samples process data at 4 Hz, runs the
/// fuzzy suite every 20 samples over a 40-sample window, and
/// re-reports a diagnosis after 30 minutes or a 0.15 move in its
/// severity or belief.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DcConfig {
    /// This DC's id.
    pub id: DcId,
    /// The machine train it instruments.
    pub machine: MachineId,
    /// Vibration-survey period.
    pub survey_period: SimDuration,
    /// Seed the DC derives per-report [`TraceId`]s from. The scenario
    /// driver sets it to `dc_trace_seed(master, dc, epoch)` — the same
    /// value it hands the network — so the DC's `DcEmit` root hops land
    /// on the same traces as the transport's hops.
    pub trace_seed: u64,
}

impl DcConfig {
    /// Production-shaped defaults: surveys every 10 minutes.
    pub fn new(id: DcId, machine: MachineId) -> Self {
        DcConfig {
            id,
            machine,
            survey_period: SimDuration::from_minutes(10.0),
            trace_seed: dc_trace_seed(0, id.raw(), 0),
        }
    }

    /// Set the vibration-survey period.
    pub fn with_survey_period(mut self, d: SimDuration) -> Self {
        self.survey_period = d;
        self
    }

    /// Set the per-report trace-id seed (see [`DcConfig::trace_seed`]).
    pub fn with_trace_seed(mut self, seed: u64) -> Self {
        self.trace_seed = seed;
        self
    }
}

/// Knowledge-source slots within a DC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Dli,
    Sbfr,
    Wnn,
    Fuzzy,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Dli => "dli",
            Source::Sbfr => "sbfr",
            Source::Wnn => "wnn",
            Source::Fuzzy => "fuzzy",
        }
    }

    fn ks_id(self, dc: DcId) -> KnowledgeSourceId {
        let offset = match self {
            Source::Dli => 1,
            Source::Sbfr => 2,
            Source::Wnn => 3,
            Source::Fuzzy => 4,
        };
        KnowledgeSourceId::new(dc.raw() * 10 + offset)
    }
}

/// The Data Concentrator.
pub struct DataConcentrator {
    config: DcConfig,
    chain: AcquisitionChain,
    scheduler: Scheduler,
    /// The tasks due this step, refilled in place by the scheduler.
    due: Vec<Task>,
    db: DcDatabase,
    dli: DliExpertSystem,
    fuzzy: FuzzyDiagnostics,
    sbfr: Interpreter,
    wnn: Option<WnnClassifier>,
    process_window: VecDeque<ProcessSnapshot>,
    process_samples: usize,
    ids: IdAllocator,
    last_emitted: HashMap<(&'static str, MachineCondition), (SimTime, f64, f64)>,
    /// Severity history per (source, condition) — the "trend data,
    /// histories" input to next-generation prognostics (§1, §5.1).
    severity_trends: HashMap<(&'static str, MachineCondition), TrendTracker>,
    suspect_channels: Vec<AccelLocation>,
    /// The workspace [`DataConcentrator::step`] lends this DC, built on
    /// first use. A ship lends its own instead
    /// ([`DataConcentrator::step_with`]), so a shipboard DC leaves this
    /// empty.
    own_workspace: Option<Box<SurveyWorkspace>>,
    /// The last survey's DLI feature set, reused in place.
    features: SpectralFeatures,
    /// Waveform statistics of the live blocks from the channel
    /// self-check, in block order, handed on to feature extraction.
    block_stats: Vec<WaveformStats>,
    telemetry: Telemetry,
    /// Journal component label, e.g. `dc1`.
    component: String,
    metrics: DcCounters,
}

/// The DC's instruments, named once.
struct DcCounters {
    surveys: Arc<Counter>,
    process_samples: Arc<Counter>,
    sbfr_cycles: Arc<Counter>,
    reports_emitted: Arc<Counter>,
}

impl DcCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        DcCounters {
            surveys: telemetry.counter("dc", "surveys"),
            process_samples: telemetry.counter("dc", "process_samples"),
            sbfr_cycles: telemetry.counter("dc", "sbfr_cycles"),
            reports_emitted: telemetry.counter("dc", "reports_emitted"),
        }
    }
}

impl DataConcentrator {
    /// Build a DC: validates the hardware config, loads the Fig. 3 SBFR
    /// pair, and schedules the periodic tasks from t = 0.
    pub fn new(config: DcConfig) -> Result<Self> {
        let chain = AcquisitionChain::new(HwConfig::standard())?;
        let process_period = SimDuration::from_secs(PROCESS_PERIOD_S);
        let mut scheduler = Scheduler::new();
        scheduler.schedule_periodic(Task::VibrationSurvey, config.survey_period, SimTime::ZERO);
        scheduler.schedule_periodic(Task::ProcessSample, process_period, SimTime::ZERO);
        scheduler.schedule_periodic(Task::SbfrCycle, process_period, SimTime::ZERO);
        let mut sbfr = Interpreter::new();
        sbfr.add_program(&spike_machine(0))?;
        sbfr.add_program(&stiction_machine(1, 0))?;
        let telemetry = Telemetry::new();
        let component = format!("dc{}", config.id.raw());
        Ok(DataConcentrator {
            metrics: DcCounters::wire(&telemetry),
            telemetry,
            component,
            ids: IdAllocator::starting_at(config.id.raw() * 1_000_000),
            config,
            chain,
            scheduler,
            due: Vec::new(),
            db: DcDatabase::new(),
            dli: DliExpertSystem::new(),
            fuzzy: FuzzyDiagnostics::new(),
            sbfr,
            wnn: None,
            process_window: VecDeque::new(),
            process_samples: 0,
            last_emitted: HashMap::new(),
            severity_trends: HashMap::new(),
            suspect_channels: Vec::new(),
            own_workspace: None,
            features: SpectralFeatures::default(),
            block_stats: Vec::new(),
        })
    }

    /// This DC's id.
    pub fn id(&self) -> DcId {
        self.config.id
    }

    /// The Fig. 3 SBFR machine set every fresh DC loads, as
    /// `(slot, encoded image)` pairs — what a supervisor re-downloads
    /// into a DC after a restart wiped its volatile program store
    /// (§6.3).
    pub fn default_sbfr_images() -> Result<Vec<(u32, Vec<u8>)>> {
        Ok(vec![
            (0, spike_machine(0).encode()?),
            (1, stiction_machine(1, 0).encode()?),
        ])
    }

    /// Attach a trained WNN classifier (optional knowledge source).
    pub fn attach_wnn(&mut self, classifier: WnnClassifier) {
        self.wnn = Some(classifier);
    }

    /// The embedded database.
    pub fn db(&self) -> &DcDatabase {
        &self.db
    }

    /// The acquisition chain (alarm states, thresholds).
    pub fn chain(&self) -> &AcquisitionChain {
        &self.chain
    }

    /// Mutable acquisition-chain access (threshold programming, sensor
    /// fault injection in robustness campaigns).
    pub fn chain_mut(&mut self) -> &mut AcquisitionChain {
        &mut self.chain
    }

    /// Channels whose last survey looked electrically dead (flatline),
    /// sat at its rail (saturated) or read non-finite samples — the §4.9
    /// self-diagnosis that keeps a broken transducer from silently
    /// blinding an algorithm.
    pub fn suspect_channels(&self) -> &[mpros_chiller::vibration::AccelLocation] {
        &self.suspect_channels
    }

    /// Handle a remote command (§5.8: "the PDME or any other client can
    /// command the scheduler to conduct another test").
    pub fn handle_command(&mut self, msg: &NetMessage) -> Result<()> {
        match msg {
            NetMessage::RunTest { dc, .. } if *dc == self.config.id => {
                self.scheduler.request(Task::VibrationSurvey);
                Ok(())
            }
            NetMessage::DownloadSbfr { dc, slot, image } if *dc == self.config.id => {
                self.sbfr.replace_machine(*slot as usize, image)
            }
            _ => Ok(()), // not addressed to this DC
        }
    }

    /// One whole scheduling step as a self-contained unit of work:
    /// apply the step's delivered commands in arrival order, then run
    /// everything due at `now`. It touches nothing but `self` and the
    /// read-only plant, so concurrent `step`s on *different* DCs cannot
    /// observe each other. A survey runs through this DC's private
    /// workspace; [`DataConcentrator::step_with`] borrows one instead.
    pub fn step(
        &mut self,
        plant: &ChillerPlant,
        now: SimTime,
        commands: &[NetMessage],
    ) -> Result<Vec<ConditionReport>> {
        let mut workspace = self.own_workspace.take().unwrap_or_default();
        let reports = self.step_with(&mut workspace, plant, now, commands);
        self.own_workspace = Some(workspace);
        reports
    }

    /// [`DataConcentrator::step`] with `workspace` lent for the step's
    /// survey, if one is due — the closure the scatter-gather engine fans
    /// out per DC, each worker lending its own workspace. The reports
    /// and the DC's state are the same whichever workspace is lent and
    /// whoever used it before.
    pub fn step_with(
        &mut self,
        workspace: &mut SurveyWorkspace,
        plant: &ChillerPlant,
        now: SimTime,
        commands: &[NetMessage],
    ) -> Result<Vec<ConditionReport>> {
        for cmd in commands {
            self.handle_command(cmd)?;
        }
        let mut reports = Vec::new();
        let mut due = std::mem::take(&mut self.due);
        self.scheduler.due(now, &mut due);
        let ran = due.iter().try_for_each(|task| match task {
            Task::VibrationSurvey => self.run_survey(workspace, plant, now, &mut reports),
            Task::ProcessSample => self.run_process_sample(plant, now, &mut reports),
            Task::SbfrCycle => self.run_sbfr_cycle(plant, now, &mut reports),
        });
        self.due = due;
        ran?;
        for r in &reports {
            let timer = WallTimer::start();
            self.db.record_diagnosis(DiagnosisRecord {
                at: now,
                source: source_of(r, self.config.id),
                condition: r.condition,
                severity: r.severity.value(),
                belief: r.belief.value(),
            });
            self.metrics.reports_emitted.inc();
            // The trace root: this report's journey starts here. The
            // wall cost of emission goes to the `Emit` stage; the network
            // and PDME add their hops under the same (purely derived)
            // trace id.
            self.telemetry.record_hop(TraceHop::new(
                TraceId::for_report(self.config.trace_seed, r.id.raw()),
                HopKind::DcEmit,
                0,
                None,
                self.component.clone(),
                r.timestamp.as_secs(),
                now.as_secs(),
                format!("{} {:?}", source_of(r, self.config.id), r.condition),
            ));
            self.telemetry
                .record_span_wall(Stage::Emit, timer.elapsed());
        }
        Ok(reports)
    }

    fn run_survey(
        &mut self,
        workspace: &mut SurveyWorkspace,
        plant: &ChillerPlant,
        now: SimTime,
        reports: &mut Vec<ConditionReport>,
    ) -> Result<()> {
        let SurveyWorkspace {
            ctx,
            survey,
            spare_blocks,
            scratch,
            wnn_features,
        } = workspace;
        let load = plant.load_at(now);
        let config = self.chain.config();
        // The workspace keeps its blocks' allocations across surveys and
        // DCs; everything else in the survey is set from this DC's plant.
        // Quarantined channels donate their buffers to `spare_blocks` and
        // the top-up below hands them back before acquisition, so steady
        // state allocates nothing.
        let blocks = survey.take().map(|s| s.blocks).unwrap_or_default();
        let survey = survey.insert(VibrationSurvey {
            train: plant.train().clone(),
            load,
            sample_rate: config.sample_rate,
            blocks,
        });
        while survey.blocks.len() < config.channels.len() {
            let spare = spare_blocks.pop().unwrap_or_default();
            survey.blocks.push((AccelLocation::MotorDriveEnd, spare));
        }
        let timer = WallTimer::start();
        self.chain.survey_into(plant, now, &mut survey.blocks);
        self.metrics.surveys.inc();
        self.telemetry
            .record_span_wall(Stage::Acquire, timer.elapsed());
        // Channel self-check: an electrically dead block, one pinned at
        // its rail, or one whose statistics are not finite (a NaN or
        // infinite sample, or an overflowing sum), means a failed
        // transducer, not a silent machine — exclude it from analysis so
        // the rules and the spectra see only live channels. Live blocks
        // are compacted in place (order preserved); dead blocks return
        // their allocations to the spare pool.
        self.suspect_channels.clear();
        self.block_stats.clear();
        let blocks = &mut survey.blocks;
        let mut live = 0usize;
        for read in 0..blocks.len() {
            let loc = blocks[read].0;
            let stats = WaveformStats::of(&blocks[read].1);
            self.db.record_measurement(MeasurementRecord {
                at: now,
                channel: loc,
                rms: stats.rms,
                peak: stats.peak,
            });
            let fault = if !all_finite(&stats) {
                Some(format!("channel {loc:?} read non-finite samples"))
            } else if stats.rms < 1e-6 {
                Some(format!("channel {loc:?} flatlined (rms {:.1e})", stats.rms))
            } else {
                let share = share_at_peak(&blocks[read].1, stats.peak);
                (share > SATURATION_SHARE).then(|| {
                    format!(
                        "channel {loc:?} saturated ({:.1}% of samples at ±{:.3})",
                        share * 100.0,
                        stats.peak
                    )
                })
            };
            if let Some(detail) = fault {
                self.suspect_channels.push(loc);
                self.telemetry
                    .event_at(now, &self.component, "quarantine", detail);
                spare_blocks.push(std::mem::take(&mut blocks[read].1));
            } else {
                blocks.swap(live, read);
                self.block_stats.push(stats);
                live += 1;
            }
        }
        blocks.truncate(live);
        // DLI: shared feature extraction, rule evaluation.
        let timer = WallTimer::start();
        SpectralFeatures::extract_with_stats_into(
            ctx,
            survey,
            &self.block_stats,
            scratch,
            &mut self.features,
        )?;
        self.telemetry.record_span_wall(Stage::Fft, timer.elapsed());
        let timer = WallTimer::start();
        let diagnoses = self.dli.diagnose(&self.features);
        self.telemetry.record_span_wall(Stage::Dli, timer.elapsed());
        for d in diagnoses {
            self.record_severity(Source::Dli, d.condition, d.severity.value(), now)?;
            if self.should_emit(
                Source::Dli,
                d.condition,
                d.severity.value(),
                d.belief.value(),
                now,
            ) {
                let mut report = d.to_report(
                    self.ids.next_id::<ReportId>(),
                    self.config.id,
                    Source::Dli.ks_id(self.config.id),
                    self.config.machine,
                    now,
                );
                self.refine_prognostic(Source::Dli, d.condition, &mut report)?;
                reports.push(report);
            }
        }
        // WNN, when attached: the classifier truncates each block to its
        // configured length internally, so no copies are made here.
        if let Some(wnn) = &self.wnn {
            let timer = WallTimer::start();
            let classified = wnn.classify_blocks_with(ctx, wnn_features, &survey.blocks, load);
            self.telemetry.record_span_wall(Stage::Wnn, timer.elapsed());
            if let Ok(verdict) = classified {
                if let Some(condition) = verdict.condition() {
                    if verdict.confidence > 0.5
                        && self.should_emit(
                            Source::Wnn,
                            condition,
                            verdict.confidence * 0.7,
                            verdict.confidence,
                            now,
                        )
                    {
                        reports.push(
                            ConditionReport::builder(
                                self.config.machine,
                                condition,
                                Belief::new(verdict.confidence),
                            )
                            .id(self.ids.next_id())
                            .dc(self.config.id)
                            .knowledge_source(Source::Wnn.ks_id(self.config.id))
                            .severity(Severity::new(verdict.confidence * 0.7))
                            .timestamp(now)
                            .explanation(format!(
                                "WNN classified {} (confidence {:.2})",
                                verdict.class.label(),
                                verdict.confidence
                            ))
                            .build(),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    fn run_process_sample(
        &mut self,
        plant: &ChillerPlant,
        now: SimTime,
        reports: &mut Vec<ConditionReport>,
    ) -> Result<()> {
        let snap = plant.sample_process(now);
        self.process_window.push_back(snap);
        while self.process_window.len() > FUZZY_WINDOW {
            self.process_window.pop_front();
        }
        self.process_samples += 1;
        self.metrics.process_samples.inc();
        if !self.process_samples.is_multiple_of(FUZZY_EVERY)
            || self.process_window.len() < FUZZY_EVERY
        {
            return Ok(());
        }
        let window: Vec<ProcessSnapshot> = self.process_window.iter().copied().collect();
        let timer = WallTimer::start();
        let diagnoses = self.fuzzy.analyze(&window)?;
        self.telemetry
            .record_span_wall(Stage::Fuzzy, timer.elapsed());
        for d in diagnoses {
            self.record_severity(Source::Fuzzy, d.condition, d.severity.value(), now)?;
            if self.should_emit(
                Source::Fuzzy,
                d.condition,
                d.severity.value(),
                d.belief.value(),
                now,
            ) {
                let mut report = d.to_report(
                    self.ids.next_id::<ReportId>(),
                    self.config.id,
                    Source::Fuzzy.ks_id(self.config.id),
                    self.config.machine,
                    now,
                );
                self.refine_prognostic(Source::Fuzzy, d.condition, &mut report)?;
                reports.push(report);
            }
        }
        Ok(())
    }

    fn run_sbfr_cycle(
        &mut self,
        plant: &ChillerPlant,
        now: SimTime,
        reports: &mut Vec<ConditionReport>,
    ) -> Result<()> {
        let snap = plant.sample_process(now);
        // Channel 0: drive current; channel 1: commanded load (the CPOS
        // analogue for the chiller).
        let timer = WallTimer::start();
        self.sbfr.cycle(&[snap.motor_current_a, snap.load]);
        self.metrics.sbfr_cycles.inc();
        self.telemetry
            .record_span_wall(Stage::Sbfr, timer.elapsed());
        let flagged = self
            .sbfr
            .status(1)
            .map(|s| s.status & 1 == 1)
            .unwrap_or(false);
        if flagged {
            // Repeated uncommanded current spikes: the compressor is
            // hunting (surge precursor). Consume the flag.
            self.sbfr.set_status(1, 0)?;
            if self.should_emit(
                Source::Sbfr,
                MachineCondition::CompressorSurge,
                0.55,
                0.6,
                now,
            ) {
                reports.push(
                    ConditionReport::builder(
                        self.config.machine,
                        MachineCondition::CompressorSurge,
                        Belief::new(0.6),
                    )
                    .id(self.ids.next_id())
                    .dc(self.config.id)
                    .knowledge_source(Source::Sbfr.ks_id(self.config.id))
                    .severity(Severity::new(0.55))
                    .timestamp(now)
                    .explanation(
                        "SBFR: >4 drive-current spikes without a commanded load change".to_string(),
                    )
                    .build(),
                );
            }
        }
        Ok(())
    }

    /// Feed the severity history that data-driven prognosis trends on.
    fn record_severity(
        &mut self,
        source: Source,
        condition: MachineCondition,
        severity: f64,
        now: SimTime,
    ) -> Result<()> {
        let tracker = match self.severity_trends.entry((source.label(), condition)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(TrendTracker::new(16)?),
        };
        // Equal-or-later timestamps only; the scheduler guarantees it.
        let _ = tracker.record(now, severity);
        Ok(())
    }

    /// §1: "next generation software will use more complex failure
    /// analysis using historical data, and learning to refine its
    /// estimates over time." When the observed severity history trends
    /// cleanly toward 1.0, attach a data-driven prognostic curve around
    /// the projected crossing; it replaces the generic grade template
    /// when it is the more conservative (earlier) estimate — the same
    /// rule prognostic fusion applies at the PDME (§5.4).
    fn refine_prognostic(
        &mut self,
        source: Source,
        condition: MachineCondition,
        report: &mut ConditionReport,
    ) -> Result<()> {
        let Some(tracker) = self.severity_trends.get(&(source.label(), condition)) else {
            return Ok(());
        };
        let Some(eta) = tracker.time_to_threshold(1.0, 0.85) else {
            return Ok(());
        };
        let trend_curve = PrognosticVector::new(vec![
            PrognosticPoint::new(eta * 0.5, 0.2),
            PrognosticPoint::new(eta, 0.6),
            PrognosticPoint::new(eta * 1.5, 0.9),
        ])?;
        let earlier = |v: &PrognosticVector| {
            v.horizon_for_probability(0.5)
                .map(|d| d.as_secs())
                .unwrap_or(f64::INFINITY)
        };
        if earlier(&trend_curve) < earlier(&report.prognostic) {
            report.additional_info =
                format!("trend-refined: severity history projects functional failure in {eta}");
            report.prognostic = trend_curve;
        }
        Ok(())
    }

    /// Re-report gate: first sighting, material severity or belief
    /// change, or refresh interval elapsed.
    fn should_emit(
        &mut self,
        source: Source,
        condition: MachineCondition,
        severity: f64,
        belief: f64,
        now: SimTime,
    ) -> bool {
        let key = (source.label(), condition);
        let emit = match self.last_emitted.get(&key) {
            None => true,
            Some(&(at, sev, bel)) => {
                now.since(at) >= SimDuration::from_minutes(MIN_REPORT_GAP_MIN)
                    || (severity - sev).abs() > REREPORT_DELTA
                    || (belief - bel).abs() > REREPORT_DELTA
            }
        };
        if emit {
            self.last_emitted.insert(key, (now, severity, belief));
        }
        emit
    }
}

impl Instrumented for DataConcentrator {
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = DcCounters::wire(telemetry);
        self.telemetry = telemetry.clone();
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

fn source_of(report: &ConditionReport, dc: DcId) -> &'static str {
    for s in [Source::Dli, Source::Sbfr, Source::Wnn, Source::Fuzzy] {
        if s.ks_id(dc) == report.knowledge_source {
            return s.label();
        }
    }
    "unknown"
}

/// Share of `block`'s samples whose magnitude equals `peak`, the block's
/// largest magnitude.
fn share_at_peak(block: &[f64], peak: f64) -> f64 {
    let at_peak = block.iter().filter(|x| x.abs() >= peak).count();
    at_peak as f64 / block.len().max(1) as f64
}

/// Every statistic of the block is a finite number.
fn all_finite(stats: &WaveformStats) -> bool {
    [
        stats.mean,
        stats.rms,
        stats.peak,
        stats.std_dev,
        stats.crest_factor,
        stats.kurtosis,
        stats.skewness,
    ]
    .iter()
    .all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_chiller::fault::{FaultProfile, FaultSeed};
    use mpros_chiller::plant::PlantConfig;

    fn plant_with(condition: Option<MachineCondition>, sev: f64) -> ChillerPlant {
        let mut p = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 77));
        if let Some(c) = condition {
            p.seed_fault(FaultSeed {
                condition: c,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_secs(1.0),
                profile: FaultProfile::Step(sev),
            });
        }
        p
    }

    fn dc() -> DataConcentrator {
        let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
        cfg.survey_period = SimDuration::from_secs(30.0);
        DataConcentrator::new(cfg).unwrap()
    }

    /// Drive the DC over `secs` seconds of simulated time at the process
    /// cadence, collecting all reports.
    fn run(dc: &mut DataConcentrator, plant: &ChillerPlant, secs: f64) -> Vec<ConditionReport> {
        let mut out = Vec::new();
        let dt = 0.25;
        let steps = (secs / dt) as usize;
        for i in 0..=steps {
            let now = SimTime::from_secs(i as f64 * dt);
            out.extend(dc.step(plant, now, &[]).unwrap());
        }
        out
    }

    #[test]
    fn healthy_plant_stays_quiet() {
        let mut d = dc();
        let reports = run(&mut d, &plant_with(None, 0.0), 60.0);
        assert!(
            reports.is_empty(),
            "false positives: {:?}",
            reports.iter().map(|r| r.condition).collect::<Vec<_>>()
        );
        assert!(d.db().measurement_count() > 0, "surveys ran");
        assert!(
            d.telemetry().counter("dc", "process_samples").get() > 100,
            "scheduler ran"
        );
    }

    #[test]
    fn imbalance_is_reported_by_dli() {
        let mut d = dc();
        let reports = run(
            &mut d,
            &plant_with(Some(MachineCondition::MotorImbalance), 0.9),
            60.0,
        );
        let dli_reports: Vec<_> = reports
            .iter()
            .filter(|r| r.condition == MachineCondition::MotorImbalance)
            .collect();
        assert!(!dli_reports.is_empty(), "imbalance unreported");
        let r = dli_reports[0];
        assert_eq!(r.dc, DcId::new(1));
        assert_eq!(r.machine, MachineId::new(1));
        assert!(r.belief.value() > 0.5);
        assert!(r.has_prognostic());
        assert_eq!(d.db().diagnosis_count(), reports.len());
    }

    #[test]
    fn process_fault_is_reported_by_fuzzy() {
        let mut d = dc();
        let reports = run(
            &mut d,
            &plant_with(Some(MachineCondition::RefrigerantLeak), 0.9),
            60.0,
        );
        assert!(
            reports
                .iter()
                .any(|r| r.condition == MachineCondition::RefrigerantLeak),
            "leak unreported: {:?}",
            reports.iter().map(|r| r.condition).collect::<Vec<_>>()
        );
    }

    #[test]
    fn surge_is_seen_by_multiple_sources() {
        let mut d = dc();
        let reports = run(
            &mut d,
            &plant_with(Some(MachineCondition::CompressorSurge), 0.95),
            120.0,
        );
        let surge: Vec<_> = reports
            .iter()
            .filter(|r| r.condition == MachineCondition::CompressorSurge)
            .collect();
        assert!(!surge.is_empty(), "surge unreported");
        let sources: std::collections::HashSet<_> =
            surge.iter().map(|r| r.knowledge_source).collect();
        assert!(
            sources.len() >= 2,
            "expected ≥2 independent sources, got {sources:?}"
        );
    }

    #[test]
    fn reports_are_throttled() {
        let mut d = dc();
        // 10 surveys in 5 minutes; gap is 30 min, severity constant →
        // exactly one DLI report for the imbalance.
        let reports = run(
            &mut d,
            &plant_with(Some(MachineCondition::MotorImbalance), 0.9),
            300.0,
        );
        let dli: Vec<_> = reports
            .iter()
            .filter(|r| {
                r.condition == MachineCondition::MotorImbalance
                    && r.knowledge_source == KnowledgeSourceId::new(11)
            })
            .collect();
        assert_eq!(dli.len(), 1, "throttle failed: {} reports", dli.len());
    }

    #[test]
    fn run_test_command_triggers_immediate_survey() {
        let mut d = dc();
        let p = plant_with(Some(MachineCondition::MotorImbalance), 0.9);
        // Advance a little past the t=0 survey.
        d.step(&p, SimTime::ZERO, &[]).unwrap();
        let before = d.db().measurement_count();
        d.handle_command(&NetMessage::RunTest {
            dc: DcId::new(1),
            machine: MachineId::new(1),
        })
        .unwrap();
        d.step(&p, SimTime::from_secs(1.0), &[]).unwrap();
        assert!(d.db().measurement_count() > before, "on-demand survey ran");
        // A command addressed elsewhere is ignored.
        let before = d.db().measurement_count();
        d.handle_command(&NetMessage::RunTest {
            dc: DcId::new(9),
            machine: MachineId::new(1),
        })
        .unwrap();
        d.step(&p, SimTime::from_secs(2.0), &[]).unwrap();
        assert_eq!(d.db().measurement_count(), before);
    }

    #[test]
    fn sbfr_download_replaces_machine() {
        let mut d = dc();
        let image = spike_machine(0).encode().unwrap();
        d.handle_command(&NetMessage::DownloadSbfr {
            dc: DcId::new(1),
            slot: 0,
            image,
        })
        .unwrap();
        // Bad image is rejected.
        assert!(d
            .handle_command(&NetMessage::DownloadSbfr {
                dc: DcId::new(1),
                slot: 0,
                image: vec![1, 2, 3],
            })
            .is_err());
    }

    #[test]
    fn telemetry_counts_pipeline_activity() {
        let mut d = dc();
        run(
            &mut d,
            &plant_with(Some(MachineCondition::MotorImbalance), 0.9),
            60.0,
        );
        let t = d.telemetry().clone();
        assert!(t.counter("dc", "surveys").get() >= 2);
        assert!(t.counter("dc", "process_samples").get() > 100);
        assert!(t.counter("dc", "sbfr_cycles").get() > 100);
        assert!(t.counter("dc", "reports_emitted").get() >= 1);
        for stage in [
            Stage::Acquire,
            Stage::Fft,
            Stage::Dli,
            Stage::Sbfr,
            Stage::Fuzzy,
            Stage::Emit,
        ] {
            assert!(t.span_wall(stage).count() > 0, "no {stage} spans");
        }
    }

    #[test]
    fn report_ids_are_unique_and_dc_scoped() {
        let mut d = dc();
        let reports = run(
            &mut d,
            &plant_with(Some(MachineCondition::GearToothWear), 0.9),
            90.0,
        );
        let mut ids: Vec<u64> = reports.iter().map(|r| r.id.raw()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate report ids");
        assert!(ids.iter().all(|&i| i >= 1_000_000), "ids are DC-scoped");
    }
}

#[cfg(test)]
mod trend_tests {
    use super::*;
    use mpros_chiller::fault::{FaultProfile, FaultSeed};
    use mpros_chiller::plant::PlantConfig;

    /// A steadily progressing fault must eventually ship a trend-refined
    /// prognostic whose median precedes the generic grade template's.
    #[test]
    fn progressing_fault_gets_trend_refined_prognosis() {
        let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
        cfg.survey_period = SimDuration::from_secs(30.0);
        let mut dc = DataConcentrator::new(cfg).unwrap();
        let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 55));
        plant.seed_fault(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            // Severity ramps over 20 min: the trend projects crossing
            // 1.0 about (1-s)·20min ahead — far earlier than the
            // months-scale grade template.
            time_to_failure: SimDuration::from_minutes(20.0),
            profile: FaultProfile::Linear,
        });
        let mut refined = Vec::new();
        for i in 0..=2400 {
            let now = SimTime::from_secs(i as f64 * 0.25);
            for r in dc.step(&plant, now, &[]).unwrap() {
                if r.additional_info.contains("trend-refined") {
                    refined.push(r);
                }
            }
        }
        assert!(
            !refined.is_empty(),
            "no trend-refined report over a 10-minute linear ramp"
        );
        let r = refined.last().unwrap();
        let median = r
            .prognostic
            .horizon_for_probability(0.5)
            .expect("trend curve reaches 50%");
        // The fault fails within 20 simulated minutes; the refined
        // median must be on that scale, not on the calendar scale.
        assert!(
            median < SimDuration::from_hours(2.0),
            "median {median} not data-driven"
        );
    }

    /// A step fault holds constant severity: no rising trend, no
    /// refinement — the generic grade prognosis stands.
    #[test]
    fn constant_fault_keeps_the_grade_template() {
        let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
        cfg.survey_period = SimDuration::from_secs(30.0);
        let mut dc = DataConcentrator::new(cfg).unwrap();
        let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 55));
        plant.seed_fault(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.6),
        });
        for i in 0..=1200 {
            let now = SimTime::from_secs(i as f64 * 0.25);
            for r in dc.step(&plant, now, &[]).unwrap() {
                assert!(
                    !r.additional_info.contains("trend-refined"),
                    "flat severity must not be trend-refined"
                );
            }
        }
    }
}

#[cfg(test)]
mod sensor_robustness_tests {
    use super::*;
    use crate::hw::SensorFault;
    use mpros_chiller::fault::{FaultProfile, FaultSeed};
    use mpros_chiller::plant::PlantConfig;
    use mpros_chiller::vibration::AccelLocation;

    #[test]
    fn dead_channel_is_quarantined_and_analysis_continues() {
        let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
        cfg.survey_period = SimDuration::from_secs(30.0);
        let mut dc = DataConcentrator::new(cfg).unwrap();
        // Kill the gear-case accelerometer (channel 2).
        dc.chain_mut()
            .fail_sensor(2, SensorFault::Flatline)
            .unwrap();
        let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 91));
        plant.seed_fault(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.9),
        });
        let mut reports = Vec::new();
        for i in 0..=480 {
            let now = SimTime::from_secs(i as f64 * 0.25);
            reports.extend(dc.step(&plant, now, &[]).unwrap());
        }
        assert_eq!(
            dc.suspect_channels(),
            &[AccelLocation::GearCase],
            "dead channel flagged"
        );
        let quarantines: Vec<_> = dc
            .telemetry()
            .events()
            .into_iter()
            .filter(|e| e.kind == "quarantine")
            .collect();
        assert!(!quarantines.is_empty(), "quarantine journaled");
        assert_eq!(quarantines[0].component, "dc1");
        assert!(quarantines[0].detail.contains("GearCase"));
        assert!(
            reports
                .iter()
                .any(|r| r.condition == MachineCondition::MotorImbalance),
            "motor fault still diagnosed from the live channels"
        );
        // And no phantom gear diagnosis from the zeroed channel.
        assert!(!reports
            .iter()
            .any(|r| r.condition == MachineCondition::GearToothWear));
    }

    /// The peak magnitude of a healthy survey's block on `channel`.
    fn healthy_peak(plant: &ChillerPlant, channel: usize) -> f64 {
        let mut chain = AcquisitionChain::new(HwConfig::standard()).unwrap();
        let blocks = chain.survey(plant, SimTime::ZERO);
        WaveformStats::of(&blocks[channel].1).peak
    }

    fn quarantines(dc: &DataConcentrator) -> Vec<String> {
        dc.telemetry()
            .events()
            .into_iter()
            .filter(|e| e.kind == "quarantine")
            .map(|e| e.detail)
            .collect()
    }

    /// A channel clipped at a rail a quarter of its healthy peak sits at
    /// the rail for far more than 1% of its samples: the self-check
    /// quarantines it as saturated, and the live channels still report.
    #[test]
    fn saturated_channel_is_quarantined() {
        let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 91));
        plant.seed_fault(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.9),
        });
        let rail = healthy_peak(&plant, 1) / 4.0;
        let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
        cfg.survey_period = SimDuration::from_secs(30.0);
        let mut dc = DataConcentrator::new(cfg).unwrap();
        dc.chain_mut()
            .fail_sensor(1, SensorFault::Saturated(rail))
            .unwrap();
        let mut reports = Vec::new();
        for i in 0..=240 {
            let now = SimTime::from_secs(i as f64 * 0.25);
            reports.extend(dc.step(&plant, now, &[]).unwrap());
        }
        assert_eq!(dc.suspect_channels(), &[AccelLocation::MotorNonDriveEnd]);
        let events = quarantines(&dc);
        assert_eq!(events.len(), 3, "one quarantine per survey: {events:?}");
        assert!(
            events
                .iter()
                .all(|d| d.contains("MotorNonDriveEnd") && d.contains("saturated")),
            "{events:?}"
        );
        assert!(
            reports
                .iter()
                .any(|r| r.condition == MachineCondition::MotorImbalance),
            "the motor fault is still diagnosed from the drive-end channel"
        );
    }

    /// Healthy and faulted blocks reach their peak a few times, not for
    /// 1% of a block: none is quarantined, and a rail above the signal's
    /// peak clips nothing.
    #[test]
    fn unclipped_blocks_are_not_quarantined() {
        for condition in [
            None,
            Some(MachineCondition::MotorImbalance),
            Some(MachineCondition::GearToothWear),
            Some(MachineCondition::CompressorSurge),
        ] {
            let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 91));
            if let Some(condition) = condition {
                plant.seed_fault(FaultSeed {
                    condition,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_secs(1.0),
                    profile: FaultProfile::Step(0.9),
                });
            }
            let rail = 2.0 * healthy_peak(&plant, 0);
            let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
            cfg.survey_period = SimDuration::from_secs(30.0);
            let mut dc = DataConcentrator::new(cfg).unwrap();
            dc.chain_mut()
                .fail_sensor(0, SensorFault::Saturated(rail))
                .unwrap();
            for i in 0..=8 {
                dc.step(&plant, SimTime::from_secs(i as f64 * 15.0), &[])
                    .unwrap();
            }
            assert!(dc.suspect_channels().is_empty(), "{condition:?}");
            assert!(
                quarantines(&dc).is_empty(),
                "{condition:?}: {:?}",
                quarantines(&dc)
            );
        }
    }

    /// A transducer stuck at NaN or infinity poisons every statistic of
    /// its block; the self-check quarantines it like a flatline instead
    /// of handing it to the spectra.
    #[test]
    fn non_finite_channel_is_quarantined() {
        for value in [f64::NAN, f64::INFINITY] {
            let mut cfg = DcConfig::new(DcId::new(1), MachineId::new(1));
            cfg.survey_period = SimDuration::from_secs(30.0);
            let mut dc = DataConcentrator::new(cfg).unwrap();
            dc.chain_mut()
                .fail_sensor(0, SensorFault::Stuck(value))
                .unwrap();
            let mut plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 91));
            plant.seed_fault(FaultSeed {
                condition: MachineCondition::GearToothWear,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_secs(1.0),
                profile: FaultProfile::Step(0.9),
            });
            let mut reports = Vec::new();
            for i in 0..=240 {
                let now = SimTime::from_secs(i as f64 * 0.25);
                reports.extend(dc.step(&plant, now, &[]).unwrap());
            }
            assert_eq!(
                dc.suspect_channels(),
                &[AccelLocation::MotorDriveEnd],
                "channel stuck at {value} flagged"
            );
            assert!(!reports.is_empty(), "the live channels still report");
            for r in &reports {
                assert!(
                    r.belief.value().is_finite() && r.severity.value().is_finite(),
                    "stuck at {value}: {:?} belief {} severity {}",
                    r.condition,
                    r.belief.value(),
                    r.severity.value()
                );
            }
        }
    }
}
