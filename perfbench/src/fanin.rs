//! `pdme_fanin128`: 128 DCs' report batches fanned into one PDME.
//!
//! No plants and no DSP in the timed rounds. Each round every DC posts a
//! few reports as one `ReportBatch` frame through
//! `ShipNetwork::enqueue_report_batch` → `pump_outboxes` → `recv` into
//! one `PdmeExecutive` with an in-memory WAL store; acks go back,
//! `supervise` runs every round, and a snapshot is taken every 50
//! rounds. The reports are ones the program's own DCs emitted on the
//! chiller crate's §5.3 preset before set-up, replayed at 128-DC scale.
//!
//! Per-round cost grows with history (OOSM relationship scans), so the
//! run is a fixed number of rounds, never a fixed duration.
//!
//! Failure accounting: an `ingest` error fails the reports of that pass
//! that were posted but not fused, and a report fused into a frame whose
//! beliefs leave [0, 1] (or sum past 1) is failed too. The run keeps
//! going after either; see `NOTES.md` for the fusion defect this shows.

use crate::measure::{
    self, timed, Gen, HostSpeed, Ledger, Outcome, RunqWindow, StealWindow, StepWalls,
};
use crate::{Args, RunResult, Size};
use mpros::chiller::Scenario;
use mpros::core::{
    derive_stream_seed, ConditionReport, DcId, Error, FailureGroup, KnowledgeSourceId, MachineId,
    ReportId, Result, SimDuration, SimTime,
};
use mpros::dc::{DataConcentrator, DcConfig};
use mpros::fusion::FusionEngine;
use mpros::network::{Endpoint, Envelope, NetMessage, NetworkConfig, ShipNetwork};
use mpros::oosm::Oosm;
use mpros::pdme::PdmeExecutive;
use mpros::store::StoreHandle;
use mpros::telemetry::trace::dc_trace_seed;
use mpros::telemetry::{Instrumented, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Reports each DC posts per round: the load, chosen for the benchmark
/// as the fleet client's request rate is. What the reports say comes
/// from the program's own DCs (see [`source_reports`]).
const REPORTS_PER_DC: usize = 3;
/// Source DCs whose emitted reports the fan-in replays.
const SOURCE_DCS: usize = 4;
/// Simulated span the source DCs run over, and their step.
const SOURCE_HORIZON_H: f64 = 6.0;
const SOURCE_STEP_S: f64 = 60.0;
const HEARTBEAT_ROUNDS: usize = 10;
const SNAPSHOT_EVERY: usize = 50;
const DC_TIMEOUT_S: f64 = 30.0;

/// Round `k` happens at `k + 1` simulated seconds (round 0 is warm-up).
fn round_time(k: usize) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(k as f64 + 1.0)
}

fn machine_of(dc: usize) -> MachineId {
    MachineId::new(dc as u64 + 1)
}

fn dc_id(dc: usize) -> DcId {
    DcId::new(dc as u64 + 1)
}

/// The reports the program's own DCs emit on `Scenario::multi_fault`,
/// the chiller crate's §5.3 preset (a bearing defect and an imbalance
/// on one motor, seen by several knowledge sources, beside an
/// independent condenser fouling). [`SOURCE_DCS`] production-default
/// DCs, each on its own plant seeded from `seed`, step across the
/// preset's horizon; their reports, in emitted order per DC, are what
/// the fan-in replays. Conditions, beliefs, severities, knowledge
/// sources and prognostic vectors all come from the program.
fn source_reports(seed: u64) -> Result<Vec<Vec<ConditionReport>>> {
    let horizon = SimDuration::from_hours(SOURCE_HORIZON_H);
    let scenario = Scenario::multi_fault(horizon);
    let steps = (horizon.as_secs() / SOURCE_STEP_S).round() as usize;
    (0..SOURCE_DCS)
        .map(|i| {
            let id = dc_id(i);
            let plant = scenario.build_plant(machine_of(i), derive_stream_seed(seed, id.raw()));
            let mut dc = DataConcentrator::new(DcConfig::new(id, machine_of(i)))?;
            let mut emitted = Vec::new();
            for k in 1..=steps {
                let now = SimTime::ZERO + SimDuration::from_secs(k as f64 * SOURCE_STEP_S);
                emitted.extend(dc.step(&plant, now, &[])?);
            }
            Ok(emitted)
        })
        .collect()
}

/// The fan-in stream: `rounds[k][dc]` is DC `dc`'s batch for round `k`.
/// DC `dc` replays source DC `dc % SOURCE_DCS`'s reports in emitted
/// order, [`REPORTS_PER_DC`] a round from an offset drawn from the seed,
/// wrapping around, re-addressed to its own machine, knowledge sources
/// and report ids and stamped with the round's time.
fn generate(
    seed: u64,
    sources: &[Vec<ConditionReport>],
    dcs: usize,
    rounds: usize,
) -> Vec<Vec<Vec<ConditionReport>>> {
    let mut gen = Gen::new(seed, 2);
    let mut cursor: Vec<usize> = (0..dcs)
        .map(|dc| gen.index(sources[dc % sources.len()].len()))
        .collect();
    let mut next_id: Vec<u64> = (0..dcs).map(|dc| dc_id(dc).raw() * 1_000_000).collect();
    (0..rounds)
        .map(|k| {
            (0..dcs)
                .map(|dc| {
                    let source = &sources[dc % sources.len()];
                    (0..REPORTS_PER_DC)
                        .map(|_| {
                            let mut report = source[cursor[dc] % source.len()].clone();
                            cursor[dc] += 1;
                            next_id[dc] += 1;
                            report.id = ReportId::new(next_id[dc]);
                            report.dc = dc_id(dc);
                            report.machine = machine_of(dc);
                            report.knowledge_source = KnowledgeSourceId::new(
                                dc_id(dc).raw() * 10 + report.knowledge_source.raw() % 10,
                            );
                            report.timestamp = round_time(k);
                            report
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// One fan-in rig: network, PDME with its WAL store, and the generated
/// stream still to be sent.
struct Rig {
    dcs: usize,
    telemetry: Telemetry,
    network: ShipNetwork,
    pdme: PdmeExecutive,
    trace_seeds: Vec<u64>,
    stream: Vec<Vec<Vec<ConditionReport>>>,
    /// Highest batch sequence the PDME has seen per DC (replay filter
    /// for the bench's own bookkeeping).
    seen_seq: Vec<u64>,
    /// `(machine, group)` frames whose beliefs left [0, 1].
    corrupt: BTreeSet<(MachineId, FailureGroup)>,
    generated: usize,
    fused: usize,
    failed: usize,
    ingest_errors: Vec<String>,
}

/// What one round handed the PDME, for the bench's side checks.
struct RoundInput {
    /// Fresh (non-replayed) reports delivered this round, in order.
    fresh: Vec<ConditionReport>,
    fused_now: usize,
}

impl Rig {
    fn new(seed: u64, sources: &[Vec<ConditionReport>], dcs: usize, rounds: usize) -> Result<Rig> {
        let telemetry = Telemetry::new();
        let mut network = ShipNetwork::new(NetworkConfig::new().with_seed(seed));
        network.set_telemetry(&telemetry);
        network.register(Endpoint::Pdme);
        let mut pdme = PdmeExecutive::new();
        pdme.set_telemetry(&telemetry);
        let images = DataConcentrator::default_sbfr_images()?;
        for dc in 0..dcs {
            network.register(Endpoint::Dc(dc_id(dc)));
            pdme.register_machine(machine_of(dc), &format!("Machine {}", dc + 1));
            pdme.assign_dc(dc_id(dc), vec![machine_of(dc)], images.clone());
        }
        pdme.attach_store(StoreHandle::in_memory(&telemetry));
        pdme.snapshot_to_store()?;
        let stream = generate(seed, sources, dcs, rounds);
        let generated = stream.iter().flatten().map(Vec::len).sum();
        Ok(Rig {
            dcs,
            telemetry,
            network,
            pdme,
            trace_seeds: (0..dcs)
                .map(|dc| dc_trace_seed(seed, dc_id(dc).raw(), 0))
                .collect(),
            stream,
            seen_seq: vec![0; dcs],
            corrupt: BTreeSet::new(),
            generated,
            fused: 0,
            failed: 0,
            ingest_errors: Vec::new(),
        })
    }

    /// One round `k`, every call timed into `ledger`. `send` is false
    /// for the final drain round, which only receives.
    fn round(&mut self, k: usize, send: bool, ledger: &mut Ledger) -> Result<(f64, RoundInput)> {
        let now = round_time(k);
        let start = Instant::now();
        for dc in 0..self.dcs {
            let id = dc_id(dc);
            for msg in ledger.time("network", || self.network.recv(Endpoint::Dc(id), now)) {
                if let NetMessage::Ack {
                    dc,
                    epoch,
                    last_seq,
                } = msg
                {
                    ledger.time("network", || self.network.acknowledge(dc, epoch, last_seq));
                }
            }
        }
        if send {
            for dc in 0..self.dcs {
                let id = dc_id(dc);
                let reports = std::mem::take(&mut self.stream[k][dc]);
                let seed = self.trace_seeds[dc];
                ledger.time("network", || {
                    self.network.enqueue_report_batch(now, id, reports, seed)
                })?;
                if k.is_multiple_of(HEARTBEAT_ROUNDS) {
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
        }
        ledger.time("network", || self.network.pump_outboxes(now))?;
        let msgs = ledger.time("network", || self.network.recv(Endpoint::Pdme, now));
        let posted_before = self.pdme.reports_received();
        let fused_before = self.pdme.fusion().reports_ingested();
        let ingested = ledger.time("pdme.ingest", || self.pdme.ingest(&msgs, now));
        let posted = self.pdme.reports_received() - posted_before;
        let fused_now = self.pdme.fusion().reports_ingested() - fused_before;
        match ingested {
            Ok(summary) => {
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
            }
            // The pass's posted-but-unfused reports are lost and its acks
            // never go out; the run carries on.
            Err(e) => {
                self.failed += posted - fused_now;
                self.ingest_errors.push(format!("round {k}: {e}"));
            }
        }
        let timeout = SimDuration::from_secs(DC_TIMEOUT_S);
        for cmd in ledger.time("pdme.supervise", || self.pdme.supervise(now, timeout))? {
            if let NetMessage::DownloadSbfr { dc, .. } = &cmd {
                let envelope = Envelope::to_dc(*dc, cmd.clone());
                ledger.time("network", || self.network.post(now, envelope))?;
            }
        }
        if k > 0 && k.is_multiple_of(SNAPSHOT_EVERY) {
            ledger.time("store.snapshot", || self.pdme.snapshot_to_store())?;
        }
        let wall = start.elapsed().as_secs_f64();
        let mut fresh = Vec::new();
        for msg in &msgs {
            if let NetMessage::ReportBatch { dc, entries, .. } = msg {
                let seen = &mut self.seen_seq[(dc.raw() - 1) as usize];
                for entry in entries {
                    if entry.seq > *seen {
                        *seen = entry.seq;
                        fresh.push(entry.report.clone());
                    }
                }
            }
        }
        Ok((wall, RoundInput { fresh, fused_now }))
    }

    /// Outside the round's wall: find frames whose beliefs left [0, 1]
    /// and fail every report fused into one of them this round.
    fn account(&mut self, input: &RoundInput) {
        for d in self.pdme.fusion().diagnostic().all() {
            let sum: f64 = d.beliefs.iter().map(|(_, b)| b).sum();
            let bad = sum.is_nan()
                || sum > 1.0 + 1e-9
                || d.beliefs.iter().any(|(_, b)| !(0.0..=1.0).contains(b));
            if bad {
                self.corrupt.insert((d.machine, d.group));
            }
        }
        // Fusion runs in posting order, so an aborted pass fused a prefix.
        for report in input.fresh.iter().take(input.fused_now) {
            if self
                .corrupt
                .contains(&(report.machine, report.condition.group()))
            {
                self.failed += 1;
            } else {
                self.fused += 1;
            }
        }
    }
}

/// A standalone OOSM and fusion engine fed the same report stream, so
/// the PDME's inner calls can be timed one report at a time.
struct Standalone {
    oosm: Oosm,
    fusion: FusionEngine,
    reports: usize,
    failed_fusions: usize,
}

impl Standalone {
    fn new(dcs: usize) -> Standalone {
        let mut oosm = Oosm::new();
        for dc in 0..dcs {
            oosm.register_machine(machine_of(dc), &format!("Machine {}", dc + 1));
        }
        Standalone {
            oosm,
            fusion: FusionEngine::new(),
            reports: 0,
            failed_fusions: 0,
        }
    }

    fn feed(&mut self, reports: &[ConditionReport], ledger: &mut Ledger) -> Result<()> {
        for report in reports {
            let (posted, secs) = timed(|| self.oosm.post_report(report));
            ledger.add_child("oosm.post", secs);
            posted?;
            let (fused, secs) = timed(|| self.fusion.ingest(report));
            ledger.add_child("fusion.ingest", secs);
            self.failed_fusions += fused.is_err() as usize;
            self.reports += 1;
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> RunResult {
    let smoke = args.size == Size::Smoke;
    let dcs = if smoke { 8 } else { 128 };
    let rounds = args.steps(7.5, 100, 4);
    // Input generation, before any set-up is timed.
    let sources = source_reports(args.seed)?;
    if sources.iter().any(Vec::is_empty) {
        return Err(Error::invalid("a source DC emitted no reports"));
    }
    // Warm-up round 0, timed rounds 1..=rounds, then one drain round.
    let build = || -> Result<Rig> {
        let mut rig = Rig::new(args.seed, &sources, dcs, rounds + 1)?;
        let (_, input) = rig.round(0, true, &mut Ledger::default())?;
        rig.account(&input);
        Ok(rig)
    };
    let setups = if smoke || args.trace { 1 } else { 5 };
    let mut host = HostSpeed::new();
    let (mut rig, setup_times) = measure::repeated_setup(setups, &mut host, build)?;
    measure::assert_thread_budget();

    let mut standalone = args.trace.then(|| Standalone::new(dcs));
    let mut ledger = Ledger::default();
    let mut walls = Vec::with_capacity(rounds);
    let mut step_walls = StepWalls::default();
    let mut traced_rounds = Vec::new();
    let mut reports_traced = 0usize;
    let fused_before = rig.fused;
    let runq = RunqWindow::open();
    let steal = StealWindow::open();
    let start = Instant::now();
    for k in 1..=rounds {
        // The traced run alternates traced (even, so the 50-round
        // snapshots are traced) and plain rounds; the plain neighbours
        // give the tracing overhead.
        let trace_this = args.trace && k % 2 == 0;
        let mut scratch = Ledger::default();
        let l = if trace_this {
            &mut ledger
        } else {
            &mut scratch
        };
        let (wall, input) = rig.round(k, true, l)?;
        if trace_this {
            ledger.end_step(wall);
            traced_rounds.push(walls.len());
            reports_traced += input.fresh.len();
        }
        walls.push(wall);
        if !args.trace {
            host.sample();
            step_walls.push(wall, &host);
        }
        if let Some(s) = standalone.as_mut() {
            s.feed(&input.fresh, &mut ledger)?;
        }
        rig.account(&input);
    }
    let runq_share = runq.close() / start.elapsed().as_secs_f64();
    let steal_share = steal.close();
    let fused_timed = rig.fused - fused_before;
    let (_, input) = rig.round(rounds + 1, false, &mut Ledger::default())?;
    rig.account(&input);

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.check(walls.len() == rounds, format!("{rounds} fixed rounds ran"));
    let stats = rig.network.stats();
    out.check(
        stats.dropped == 0 && stats.sent == stats.delivered + rig.network.in_flight_count(),
        format!(
            "lossless network delivered every frame (sent {}, delivered {}, in flight {}, dropped {})",
            stats.sent,
            stats.delivered,
            rig.network.in_flight_count(),
            stats.dropped
        ),
    );
    out.check(
        rig.fused + rig.failed == rig.generated,
        format!(
            "every generated report accounted for: {} fused + {} failed = {} generated",
            rig.fused, rig.failed, rig.generated
        ),
    );
    for e in rig.ingest_errors.iter().take(3) {
        out.note(format!("ingest error: {e}"));
    }
    if rig.ingest_errors.len() > 3 {
        out.note(format!(
            "... {} ingest errors in all",
            rig.ingest_errors.len()
        ));
    }
    out.note(format!(
        "{} frames with beliefs outside [0, 1]",
        rig.corrupt.len()
    ));
    let mut mix: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for report in sources.iter().flatten() {
        let entry = mix.entry(format!("{:?}", report.condition)).or_default();
        entry.0 += 1;
        entry.1 += report.belief.value();
    }
    let mix: Vec<String> = mix
        .iter()
        .map(|(c, (n, belief))| format!("{c} {n} (mean belief {:.2})", belief / *n as f64))
        .collect();
    out.note(format!(
        "replayed source reports per condition: {}",
        mix.join(", ")
    ));
    out.attempted = (rounds + rig.generated) as u64;
    out.failed = rig.failed as u64;
    let fail_share = out.failed as f64 / out.attempted as f64;
    out.note(format!(
        "fail_share = {fail_share} ({} attempted)",
        out.attempted
    ));
    out.note(format!("bench.runq_wait_share = {runq_share}"));
    out.note(format!("host steal share = {steal_share}"));

    if args.trace {
        out.check_ledger(&ledger);
    }
    let values = if let Some(s) = standalone {
        let snap = rig.telemetry.snapshot();
        let per_report = |total: f64, n: usize| total / n.max(1) as f64 * 1e6;
        BTreeMap::from([
            ("network.s", ledger.per_step("network")),
            ("pdme.ingest_s", ledger.per_step("pdme.ingest")),
            (
                "pdme.ingest_us_per_report",
                per_report(
                    ledger.per_step("pdme.ingest") * ledger.steps() as f64,
                    reports_traced,
                ),
            ),
            (
                "oosm.post_us_per_report",
                per_report(ledger.child_total("oosm.post"), s.reports),
            ),
            (
                "fusion.ingest_us_per_report",
                per_report(ledger.child_total("fusion.ingest"), s.reports),
            ),
            ("fusion.failed_reports", s.failed_fusions as f64),
            ("pdme.supervise_s", ledger.per_step("pdme.supervise")),
            ("store.snapshot_s", ledger.per_step("store.snapshot")),
            (
                "store.wal_appends",
                snap.counter("store", "wal_appends") as f64,
            ),
            ("store.wal_bytes", snap.counter("store", "wal_bytes") as f64),
            ("pdme.unattributed_share", ledger.unattributed_share()),
            ("bench.step_wall_s", ledger.wall_per_step()),
            ("bench.fail_share", fail_share),
            ("bench.runq_wait_share", runq_share),
            (
                "bench.trace_overhead_share",
                measure::overhead_vs_neighbours(&walls, &traced_rounds),
            ),
        ])
    } else {
        step_walls.end_to_end(&setup_times, fused_timed, &mut out)
    };
    Ok((out, values))
}
