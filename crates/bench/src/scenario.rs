//! The seeded scenarios behind E7 (`exp_throughput`) and E11
//! (`exp_serving`). The binaries time them; `tests/fingerprints.rs`
//! pins every deterministic value they produce. Both call the same
//! functions, so what a bench run prints and what the test pins come
//! from one piece of code.

use crate::{labeled_survey, percentile};
use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::fleet::{Fleet, FleetClient, FleetConfig, FleetRequest};
use mpros::gateway::{Gateway, GatewayClient, GatewayRequest};
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros_core::{
    Belief, ConditionReport, DcId, FaultPlan, FaultPlanConfig, KnowledgeSourceId, MachineCondition,
    MachineId, PrognosticVector, ReportId, SimDuration, SimTime,
};
use mpros_dli::{SpectralFeatures, SurveyScratch};
use mpros_network::{Endpoint, Envelope, NetMessage, NetStats, NetworkConfig, ShipNetwork};
use mpros_pdme::PdmeExecutive;
use mpros_signal::dwt::{Wavelet, WaveletDecomposition};
use mpros_signal::fft::{fft_real, ifft_real};
use mpros_signal::{DspContext, Spectrum, Window};
use mpros_telemetry::{Instrumented, Telemetry};
use serde::Serialize;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Samples per vibration block in the DSP workloads.
pub const BLOCK: usize = 32_768;

/// Timed steps of the 8-DC fleet run, after one warm-up step.
pub const FLEET_STEPS: usize = 10;

/// Worker threads of the fleet run's parallel mode.
pub const FLEET_WORKERS: usize = 4;

/// Concurrent console clients of E11's serving phase.
pub const SERVING_CLIENTS: usize = 8;

/// Ship steps of E11's serving phase.
pub const SERVING_STEPS: usize = 30;

/// `GetMetrics` clients and rounds per client of the observability mix.
pub const OBS_CLIENTS: usize = 2;
/// See [`OBS_CLIENTS`].
pub const OBS_ROUNDS: usize = 200;

/// Shards, settle steps, clients and rounds per client of the fleet
/// console mix.
pub const FLEET_SHIPS: usize = 3;
/// See [`FLEET_SHIPS`].
pub const FLEET_SETTLE_STEPS: usize = 20;
/// See [`FLEET_SHIPS`].
pub const FLEET_CLIENTS: usize = 2;
/// See [`FLEET_SHIPS`].
pub const FLEET_ROUNDS: usize = 150;

/// The step size of every ship scenario: one survey period, so each
/// step pushes a full vibration survey through every DC.
pub fn survey_dt() -> SimDuration {
    SimDuration::from_secs(30.0)
}

/// The operating profile a ship runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sea {
    /// The default lossless network and no scheduled faults.
    Calm,
    /// A dropping, jittery link plus a seeded campaign of two DC
    /// crashes, two partitions and two sensor dropouts across the eight
    /// DCs.
    Lossy,
}

/// The 8-DC ship configuration every ship scenario starts from: seed 5,
/// one survey per [`survey_dt`], under `sea`.
pub fn ship8_config(sea: Sea) -> ShipboardSimConfig {
    let config = ShipboardSimConfig::new()
        .with_dc_count(8)
        .with_seed(5)
        .with_survey_period(survey_dt());
    match sea {
        Sea::Calm => config,
        Sea::Lossy => {
            let mut faults = FaultPlanConfig::default();
            faults.dcs = (1..=8).map(DcId::new).collect();
            faults.crashes = 2;
            faults.partitions = 2;
            faults.sensor_dropouts = 2;
            config
                .with_network(
                    NetworkConfig::default()
                        .with_drop_probability(0.1)
                        .with_jitter(SimDuration::from_millis(5.0)),
                )
                .with_fault_plan(FaultPlan::seeded(5, &faults))
        }
    }
}

/// Build `config` and seed progressing motor-bearing faults on plants 0
/// and 4. Without them an all-healthy ship emits no condition reports,
/// and every latency quantile and served view would be vacuous.
pub fn bearing_ship(config: ShipboardSimConfig) -> ShipboardSim {
    let mut sim = ShipboardSim::new(config).expect("sim builds");
    for idx in [0usize, 4] {
        sim.seed_fault(idx, bearing_fault());
    }
    sim
}

fn bearing_fault() -> FaultSeed {
    FaultSeed {
        condition: MachineCondition::MotorBearingDefect,
        onset: SimTime::ZERO,
        time_to_failure: SimDuration::from_minutes(8.0),
        profile: FaultProfile::EarlyOnset,
    }
}

/// One 8-DC fleet run: its stepping rate plus everything read back out
/// of the finished simulation.
#[derive(Debug)]
pub struct FleetRun {
    /// Timed steps per wall second.
    pub steps_per_s: f64,
    /// The network's delivery counters.
    pub net: NetStats,
    /// Trace-derived end-to-end report latencies (DC emission to the
    /// last fusion hop, simulated seconds, ascending).
    pub e2e: Vec<f64>,
    /// Observations in the run's own `pdme.report_latency_s` histogram.
    pub report_latency_count: u64,
    /// `store.wal_appends`.
    pub wal_appends: u64,
    /// `store.wal_bytes`.
    pub wal_bytes: u64,
    /// The durable store's whole log.
    pub wal_log: Vec<u8>,
}

/// Step [`bearing_ship`] under `sea` and `exec`: one warm-up step, then
/// [`FLEET_STEPS`] timed ones. The simulation outputs are identical in
/// every execution mode (`tests/parallel_determinism.rs`).
pub fn fleet_run(exec: ExecMode, sea: Sea) -> FleetRun {
    let mut sim = bearing_ship(ship8_config(sea).with_exec(exec));
    sim.step(survey_dt()).expect("warmup step");
    let start = Instant::now();
    for _ in 0..FLEET_STEPS {
        sim.step(survey_dt()).expect("timed step");
    }
    let steps_per_s = FLEET_STEPS as f64 / start.elapsed().as_secs_f64();
    let snap = sim.telemetry().snapshot();
    FleetRun {
        steps_per_s,
        net: sim.network().stats(),
        e2e: mpros_telemetry::trace::e2e_latencies(&sim.trace_hops()),
        report_latency_count: snap
            .histogram("pdme", "report_latency_s")
            .map_or(0, |h| h.count),
        wal_appends: snap.counter("store", "wal_appends"),
        wal_bytes: snap.counter("store", "wal_bytes"),
        wal_log: sim.store().contents().expect("store readable"),
    }
}

/// The DSP context microbench's wall-clock numbers (the `dsp{}` block).
#[derive(Debug, Serialize)]
pub struct DspBench {
    /// Forward FFTs of one block per second through the cached plan.
    pub windows_per_s: f64,
    /// Amplitude spectra per second, zero-allocation path.
    pub spectra_per_s: f64,
    /// Amplitude spectra per second, allocating API.
    pub alloc_spectra_per_s: f64,
    /// Legacy inverse FFTs per second.
    pub ifft_per_s: f64,
    /// Legacy DWT reconstructions per second.
    pub synthesize_per_s: f64,
    /// Per-survey feature extraction, median seconds.
    pub survey_extract_p50_s: f64,
    /// Per-survey feature extraction, 95th-percentile seconds.
    pub survey_extract_p95_s: f64,
}

/// A fixed workload through one [`DspContext`] against one labeled
/// survey: raw windowed FFTs and amplitude spectra through the cached
/// plans, the allocating spectrum for comparison, the legacy `ifft_real`
/// and `WaveletDecomposition::synthesize`, and 24 full-survey feature
/// extractions.
pub fn dsp_bench() -> DspBench {
    const FS: f64 = 16_384.0;
    let survey = labeled_survey(
        Some(MachineCondition::MotorBearingDefect),
        0.7,
        0.9,
        3,
        BLOCK,
    );
    let block = &survey.blocks[0].1;
    let mut ctx = DspContext::new();
    let iters = 48usize;
    let rate = |start: Instant| iters as f64 / start.elapsed().as_secs_f64();

    let mut freq = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        ctx.fft_real_into(block, &mut freq).expect("power-of-two");
        std::hint::black_box(freq.len());
    }
    let windows_per_s = rate(start);

    let mut spec = Spectrum::default();
    let start = Instant::now();
    for _ in 0..iters {
        ctx.spectrum_into(block, FS, Window::Hann, &mut spec)
            .expect("computable");
        std::hint::black_box(spec.resolution());
    }
    let spectra_per_s = rate(start);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(Spectrum::compute(block, FS, Window::Hann).expect("computable"));
    }
    let alloc_spectra_per_s = rate(start);

    let spectrum = fft_real(block).expect("power-of-two");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ifft_real(&spectrum).expect("round-trips"));
    }
    let ifft_per_s = rate(start);

    let decomp = WaveletDecomposition::analyze(block, Wavelet::Daubechies4, 5).expect("analyzes");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(decomp.synthesize().expect("reconstructs"));
    }
    let synthesize_per_s = rate(start);

    let mut scratch = SurveyScratch::default();
    let mut features = SpectralFeatures::default();
    let mut samples = Vec::with_capacity(24);
    for _ in 0..24 {
        let start = Instant::now();
        SpectralFeatures::extract_into(&mut ctx, &survey, &mut scratch, &mut features)
            .expect("extractable");
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    DspBench {
        windows_per_s,
        spectra_per_s,
        alloc_spectra_per_s,
        ifft_per_s,
        synthesize_per_s,
        survey_extract_p50_s: percentile(&samples, 0.50),
        survey_extract_p95_s: percentile(&samples, 0.95),
    }
}

/// PDME report handling over the ship network, once each for 10, 50,
/// 100 and 200 DCs: every DC posts one report per round for 20 rounds, one
/// simulated second apart, into a fresh network and executive joined to
/// `telemetry`. Fills its `net.bus_transit_s` and
/// `pdme.report_latency_s` histograms and returns `(dcs, fused
/// reports per wall second)` per entry.
pub fn pdme_fanin(telemetry: &Telemetry) -> Vec<(usize, f64)> {
    [10, 50, 100, 200]
        .map(|dcs| {
            let mut net = ShipNetwork::new(NetworkConfig::default());
            net.set_telemetry(telemetry);
            net.register(Endpoint::Pdme);
            let mut pdme = PdmeExecutive::new();
            pdme.set_telemetry(telemetry);
            for i in 0..dcs {
                net.register(Endpoint::Dc(DcId::new(i as u64 + 1)));
                pdme.register_machine(MachineId::new(i as u64 + 1), &format!("chiller {i}"));
            }
            let rounds = 20;
            let start = Instant::now();
            let mut id = 0u64;
            let mut now = SimTime::ZERO;
            let mut handled = 0usize;
            for _ in 0..rounds {
                for d in 0..dcs {
                    id += 1;
                    let dc = DcId::new(d as u64 + 1);
                    let r = ConditionReport::builder(
                        MachineId::new(d as u64 + 1),
                        MachineCondition::from_index(d % 12).expect("in range"),
                        Belief::new(0.6),
                    )
                    .id(ReportId::new(id))
                    .dc(dc)
                    .knowledge_source(KnowledgeSourceId::new(11))
                    .timestamp(now)
                    .prognostic(PrognosticVector::from_months(&[(1.0, 0.5)]).expect("valid"))
                    .build();
                    net.post(now, Envelope::to_pdme(dc, NetMessage::Report(r)))
                        .expect("posted");
                }
                // One simulated second per round: far past worst-case
                // bus latency, so every frame of the round is delivered.
                now += SimDuration::from_secs(1.0);
                telemetry.set_sim_now(now);
                let msgs = net.recv(Endpoint::Pdme, now);
                handled += pdme.ingest(&msgs, now).expect("ingested").fused;
            }
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(handled, rounds * dcs, "lossless config delivers all");
            (dcs, handled as f64 / secs)
        })
        .into()
}

/// The observability mix's wall-clock numbers (the `obs{}` block).
#[derive(Debug, Serialize)]
pub struct ObsBench {
    /// `GetMetrics` calls answered.
    pub metrics_calls: u64,
    /// Service time of a full `GetMetrics` round trip (snapshot fields
    /// plus the exposition, rendered by the first call per version),
    /// median seconds.
    pub metrics_p50_s: f64,
    /// The same, 95th percentile.
    pub metrics_p95_s: f64,
    /// `StreamJournal` cursor polls answered.
    pub journal_calls: u64,
    /// `StreamJournal` polls per wall second.
    pub journal_tail_qps: f64,
}

/// What the observability mix leaves behind, a pure function of the
/// seeded scenario.
#[derive(Debug)]
pub struct ObsCounts {
    /// Bytes of the final Prometheus text exposition.
    pub exposition_len_final: u64,
    /// Sealed flight-recorder incidents.
    pub incidents_sealed: u64,
}

/// Seal one manual incident on `sim` (the capture lands on the next
/// step and seals after the recorder's post window, so six steps
/// follow), then let [`OBS_CLIENTS`] console clients each run
/// [`OBS_ROUNDS`] rounds of the wire-v5 mix against `gateway`:
/// `GetMetrics`, a `StreamJournal` poll, and every 20th round
/// `ListIncidents`.
pub fn obs_phase(sim: &mut ShipboardSim, gateway: &Arc<Gateway>) -> (ObsBench, ObsCounts) {
    sim.capture_incident("bench checkpoint");
    for _ in 0..6 {
        sim.step(survey_dt()).expect("obs phase step");
    }
    let mut metrics_lat: Vec<f64> = Vec::new();
    let mut journal_calls = 0u64;
    let mut window_s = 0.0f64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..OBS_CLIENTS)
            .map(|i| {
                let gateway = Arc::clone(gateway);
                s.spawn(move || {
                    let client = GatewayClient::connect(gateway, 100 + i as u64);
                    let mut lat = Vec::new();
                    let mut cursor = 0u64;
                    let mut polls = 0u64;
                    let start = Instant::now();
                    for round in 0..OBS_ROUNDS {
                        let t0 = Instant::now();
                        let m = client.metrics().expect("GetMetrics serves");
                        lat.push(t0.elapsed().as_secs_f64());
                        assert!(!m.exposition.is_empty(), "exposition rendered");
                        let page = client
                            .stream_journal(cursor, 64)
                            .expect("StreamJournal serves");
                        cursor = page.next_cursor;
                        polls += 1;
                        if round % 20 == 0 {
                            let listed = client.incidents().expect("ListIncidents serves");
                            assert!(!listed.is_empty(), "the manual capture sealed");
                        }
                    }
                    (lat, polls, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        for handle in handles {
            let (lat, polls, window) = handle.join().expect("obs client joins");
            metrics_lat.extend(lat);
            journal_calls += polls;
            window_s = window_s.max(window);
        }
    });
    metrics_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let probe = GatewayClient::connect(Arc::clone(gateway), 999);
    let counts = ObsCounts {
        exposition_len_final: probe.metrics().expect("final GetMetrics").exposition.len() as u64,
        incidents_sealed: probe.incidents().expect("ListIncidents").len() as u64,
    };
    let bench = ObsBench {
        metrics_calls: metrics_lat.len() as u64,
        metrics_p50_s: percentile(&metrics_lat, 0.50),
        metrics_p95_s: percentile(&metrics_lat, 0.95),
        journal_calls,
        journal_tail_qps: journal_calls as f64 / window_s,
    };
    (bench, counts)
}

/// The fleet console mix's wall-clock numbers (the `fleet{}` block).
#[derive(Debug, Serialize)]
pub struct FleetBench {
    /// Fleet requests per wall second across all clients.
    pub fleet_qps: f64,
    /// Service time of a full `GetFleetRollup` round trip, median
    /// seconds: the most expensive fleet query.
    pub rollup_p50_s: f64,
    /// The same, 95th percentile.
    pub rollup_p95_s: f64,
}

/// The request, routing, publish and census accounting of the fleet
/// console mix, a pure function of the seeded scenario.
#[derive(Debug)]
pub struct FleetCounts {
    /// Requests answered across all clients (five per round).
    pub requests_total: u64,
    /// `fleet.routed_ship_requests`: one `ForShip` per round.
    pub routed_ship_requests: u64,
    /// `fleet.publishes`: one per step plus the construction-time one.
    pub fleet_publishes: u64,
    /// The fleet gateway's final snapshot version.
    pub final_fleet_version: u64,
    /// `fleet.bad_frames`.
    pub bad_frames: u64,
    /// Shards serving at the end.
    pub ships_available: u64,
    /// Machine classes in the rollup's worst-status-wins census.
    pub rollup_machines: u64,
    /// Fused prognostic curves in the rollup.
    pub rollup_prognostics: u64,
}

/// Stand up a [`FLEET_SHIPS`]-ship fleet of 4-DC shards (bearing faults
/// on plants 0 and 2 of each), step it [`FLEET_SETTLE_STEPS`] times,
/// then let [`FLEET_CLIENTS`] clients each run [`FLEET_ROUNDS`] rounds
/// of the wire-v6 console mix: `ListShips`, `GetFleetRollup`,
/// `GetShipIcas`, a `ForShip` routing and a fleet `Subscribe` poll.
pub fn fleet_phase() -> (FleetBench, FleetCounts) {
    let mut fleet = Fleet::new(
        FleetConfig::new()
            .with_ship_count(FLEET_SHIPS)
            .with_seed(5)
            .with_ship(
                ShipboardSimConfig::new()
                    .with_dc_count(4)
                    .with_survey_period(survey_dt()),
            ),
    )
    .expect("fleet builds");
    for ship in 0..FLEET_SHIPS {
        for idx in [0usize, 2] {
            fleet.ship_mut(ship).seed_fault(idx, bearing_fault());
        }
    }
    for _ in 0..FLEET_SETTLE_STEPS {
        fleet.step(survey_dt()).expect("fleet step");
    }
    let gateway = fleet.gateway();

    let mut requests_total = 0u64;
    let mut rollup_lat: Vec<f64> = Vec::new();
    let mut window_s = 0.0f64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET_CLIENTS)
            .map(|i| {
                let gateway = Arc::clone(gateway);
                s.spawn(move || {
                    let client = FleetClient::connect(gateway, 200 + i as u64);
                    let mut lat = Vec::new();
                    let mut calls = 0u64;
                    let start = Instant::now();
                    for round in 0..FLEET_ROUNDS {
                        let ship = (round % FLEET_SHIPS) as u64;
                        client.ships().expect("ListShips serves");
                        let t0 = Instant::now();
                        client.rollup().expect("GetFleetRollup serves");
                        lat.push(t0.elapsed().as_secs_f64());
                        client.ship_icas(ship).expect("GetShipIcas serves");
                        client
                            .for_ship(ship, GatewayRequest::GetIcas)
                            .expect("ForShip routes");
                        client
                            .call(&FleetRequest::Subscribe {
                                session: 200 + i as u64,
                            })
                            .expect("fleet Subscribe serves");
                        calls += 5;
                    }
                    (calls, lat, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        for handle in handles {
            let (calls, lat, window) = handle.join().expect("fleet client joins");
            requests_total += calls;
            rollup_lat.extend(lat);
            window_s = window_s.max(window);
        }
    });
    rollup_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let rollup = FleetClient::connect(Arc::clone(gateway), 299)
        .rollup()
        .expect("final GetFleetRollup")
        .rollup;
    let snap = fleet.telemetry().snapshot();
    let counts = FleetCounts {
        requests_total,
        routed_ship_requests: snap.counter("fleet", "routed_ship_requests"),
        fleet_publishes: snap.counter("fleet", "publishes"),
        final_fleet_version: gateway.version(),
        bad_frames: snap.counter("fleet", "bad_frames"),
        ships_available: (FLEET_SHIPS - rollup.unavailable_ships.len()) as u64,
        rollup_machines: rollup.machines.len() as u64,
        rollup_prognostics: rollup.prognostics.len() as u64,
    };
    let bench = FleetBench {
        fleet_qps: requests_total as f64 / window_s,
        rollup_p50_s: percentile(&rollup_lat, 0.50),
        rollup_p95_s: percentile(&rollup_lat, 0.95),
    };
    (bench, counts)
}
