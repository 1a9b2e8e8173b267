//! E7 — the paper's data-rate claims (§1, §8.1): "thousands of embedded
//! processors will collect millions of data points per second"; the DC
//! samples 4 channels above 40 kHz through 32 MUX channels; "results
//! from hundreds of DCs per ship will be correlated ... \[at\] the PDME."
//!
//! Three measurements:
//!  1. single-core DC analysis throughput (samples/s through the full
//!     acquisition→FFT→features→rules chain);
//!  2. the same fanned across scoped worker threads (one DC per
//!     worker), showing the aggregate "millions of points per second";
//!  3. PDME report-handling rate vs DC count, with reports carried over
//!     the simulated ship network so bus-transit and end-to-end report
//!     latency histograms fill;
//!  4. whole-ship stepping throughput of the scatter-gather engine:
//!     an 8-DC fleet stepped sequentially vs fanned across scoped
//!     threads (`--workers N`, default 4), surveys due every step so each
//!     job is real work. Both runs produce byte-identical simulation
//!     state (see `tests/parallel_determinism.rs`); this measures the
//!     wall-clock side of that trade. `--crash-at K` tears the PDME
//!     down after timed step K and rebuilds it from the durable store
//!     mid-measurement (see `tests/crash_restore.rs`), folding a
//!     crash-restore cycle into the stepping rate;
//!  5. the durability layer itself: raw WAL append throughput into the
//!     in-memory medium, and the latency of a full crash-recovery
//!     (scan + snapshot decode + tail replay) from the fleet run's log.
//!
//! Besides the console tables, writes `BENCH_throughput.json` with the
//! headline rates and the per-stage span quantiles from the shared
//! telemetry domain.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use mpros_bench::{labeled_survey, verdict, Table};
use mpros_core::{
    Belief, ConditionReport, DcId, FaultPlan, FaultPlanConfig, KnowledgeSourceId, MachineCondition,
    MachineId, PrognosticVector, ReportId, SimDuration, SimTime,
};
use mpros_dli::{DliExpertSystem, SpectralFeatures, SurveyScratch};
use mpros_network::{Endpoint, Envelope, NetMessage, NetStats, NetworkConfig, ShipNetwork};
use mpros_pdme::PdmeExecutive;
use mpros_signal::dwt::{Wavelet, WaveletDecomposition};
use mpros_signal::fft::{fft_real, ifft_real};
use mpros_signal::{DspContext, Spectrum, Window};
use mpros_store::{RecoveryManager, StoreHandle, FRAME_HEADER_LEN, FRAME_TRAILER_LEN};
use mpros_telemetry::{Instrumented, Stage, Telemetry, WallTimer};
use serde::Serialize;
use std::thread;
use std::time::Instant;

const BLOCK: usize = 32_768;
const CHANNELS: usize = 5;

/// Samples/second through one DC's full survey analysis; FFT and rule
/// evaluation land in the shared span histograms.
fn dc_analysis_rate(telemetry: &Telemetry, surveys: usize, seed: u64) -> f64 {
    let dli = DliExpertSystem::new();
    let survey = labeled_survey(
        Some(MachineCondition::MotorBearingDefect),
        0.7,
        0.9,
        seed,
        BLOCK,
    );
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..surveys {
        let timer = WallTimer::start();
        let features = SpectralFeatures::extract(&survey).expect("extractable");
        telemetry.record_span_wall(Stage::Fft, timer.elapsed());
        let timer = WallTimer::start();
        sink += dli.diagnose(&features).len();
        telemetry.record_span_wall(Stage::Dli, timer.elapsed());
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (surveys * CHANNELS * BLOCK) as f64 / secs
}

#[derive(Serialize)]
struct StageQuantiles {
    stage: String,
    count: u64,
    p50_s: f64,
    p95_s: f64,
}

#[derive(Serialize)]
struct LatencyQuantiles {
    name: String,
    count: u64,
    p50_s: f64,
    p95_s: f64,
    p99_s: f64,
}

/// The DSP execution context's numbers (the `dsp{}` block, schema v6):
/// wall-clock rates through the zero-allocation hot path plus the legacy
/// allocating APIs for the before/after comparison, per-survey
/// extraction quantiles, and the context's counters from this fixed
/// workload — the counters are deterministic, so the gate diffs them
/// exactly.
#[derive(Serialize)]
struct DspBench {
    windows_per_s: f64,
    spectra_per_s: f64,
    alloc_spectra_per_s: f64,
    ifft_per_s: f64,
    synthesize_per_s: f64,
    survey_extract_p50_s: f64,
    survey_extract_p95_s: f64,
    plans_cached: u64,
    scratch_reuses: u64,
    bytes_avoided: u64,
}

#[derive(Serialize)]
struct ScalingBench {
    dc_count: usize,
    workers: usize,
    host_cores: usize,
    steps_timed: usize,
    fault_profile: String,
    crash_at: Option<usize>,
    sequential_steps_per_s: f64,
    parallel_steps_per_s: f64,
    speedup: f64,
    net_sent: usize,
    net_delivered: usize,
    net_dropped: usize,
    net_retries: usize,
    net_expired: usize,
    /// `dsp.*` telemetry totals across the fleet run — deterministic
    /// products of the survey workload, exact-gated like the network
    /// counters.
    dsp_plans_cached: u64,
    dsp_scratch_reuses: u64,
    dsp_bytes_avoided: u64,
}

#[derive(Serialize)]
struct HostInfo {
    os: String,
    arch: String,
    cores: usize,
}

/// The durability layer's numbers: deterministic WAL volume from the
/// seeded fleet run (exact-gated) plus wall-clock append and recovery
/// rates (tolerance-gated like every other host-dependent rate).
#[derive(Serialize)]
struct StoreBench {
    wal_appends: u64,
    wal_bytes: u64,
    recovery_tail_frames: u64,
    appends_per_s: f64,
    append_mb_per_s: f64,
    recovery_p50_s: f64,
    recovery_p95_s: f64,
}

#[derive(Serialize)]
struct BenchDoc {
    schema_version: u32,
    git_revision: String,
    git_dirty: bool,
    host: HostInfo,
    single_core_samples_per_s: f64,
    aggregate_samples_per_s_8_workers: f64,
    pdme_reports_per_s_100_dcs: f64,
    scaling: ScalingBench,
    dsp: DspBench,
    store: StoreBench,
    wall_stages: Vec<StageQuantiles>,
    sim_latencies: Vec<LatencyQuantiles>,
}

/// `git rev-parse HEAD`, or `"unknown"` outside a repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// True when the working tree has uncommitted changes (conservatively
/// false when git is unavailable).
fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false)
}

/// Quantile of an ascending-sorted sample by nearest-rank.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The `--fault-profile lossy` scenario: a dropping, jittery link plus
/// a seeded fault campaign (crashes, partitions, dropouts) across the
/// 8-DC fleet — the survivability machinery's overhead under load.
fn lossy_profile() -> (NetworkConfig, FaultPlan) {
    let network = NetworkConfig::default()
        .with_drop_probability(0.1)
        .with_jitter(SimDuration::from_millis(5.0));
    let mut fault_cfg = FaultPlanConfig::default();
    fault_cfg.dcs = (1..=8).map(DcId::new).collect();
    fault_cfg.crashes = 2;
    fault_cfg.partitions = 2;
    fault_cfg.sensor_dropouts = 2;
    (network, FaultPlan::seeded(5, &fault_cfg))
}

/// Steps/second of a whole 8-DC ship under one execution mode. The
/// step size equals the survey period, so every step pushes a full
/// vibration survey (FFT + four algorithm suites) through every DC —
/// the chunky-job regime parallel mode is built for. Also returns the
/// network's delivery counters so fault profiles surface their retry
/// and expiry behaviour in the benchmark document.
/// One fleet measurement's outputs: the stepping rate plus everything
/// the benchmark document reads back out of the finished simulation.
struct FleetRun {
    rate: f64,
    net_stats: NetStats,
    e2e: Vec<f64>,
    wal_appends: u64,
    wal_bytes: u64,
    wal_log: Vec<u8>,
    dsp_plans_cached: u64,
    dsp_scratch_reuses: u64,
    dsp_bytes_avoided: u64,
}

fn fleet_steps_per_s(
    exec: ExecMode,
    steps: usize,
    network: &NetworkConfig,
    fault_plan: &FaultPlan,
    crash_at: Option<usize>,
) -> FleetRun {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(8)
            .with_seed(5)
            .with_network(network.clone())
            .with_fault_plan(fault_plan.clone())
            .with_survey_period(SimDuration::from_secs(30.0))
            .with_exec(exec),
    )
    .expect("sim builds");
    // Seed progressing faults on two plants so condition reports (and
    // their causal traces) actually flow — an all-healthy fleet would
    // leave the trace-derived latency quantiles vacuously empty.
    for idx in [0usize, 4] {
        sim.seed_fault(
            idx,
            FaultSeed {
                condition: MachineCondition::MotorBearingDefect,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(8.0),
                profile: FaultProfile::EarlyOnset,
            },
        );
    }
    let dt = SimDuration::from_secs(30.0);
    sim.step(dt).expect("warmup step");
    let start = Instant::now();
    for step in 0..steps {
        sim.step(dt).expect("timed step");
        // A mid-measurement crash-restore cycle: the rebuild from
        // snapshot + WAL tail is part of the timed work, and the final
        // state stays byte-identical (tests/crash_restore.rs).
        if crash_at == Some(step) {
            sim.crash_restore_pdme().expect("crash-restore succeeds");
        }
    }
    let rate = steps as f64 / start.elapsed().as_secs_f64();
    // Trace-derived end-to-end report latencies (DC emission to the
    // last fusion hop, simulated seconds, sorted ascending).
    let e2e = mpros_telemetry::trace::e2e_latencies(&sim.trace_hops());
    let snap = sim.telemetry().snapshot();
    FleetRun {
        rate,
        net_stats: sim.network().stats(),
        e2e,
        wal_appends: snap.counter("store", "wal_appends"),
        wal_bytes: snap.counter("store", "wal_bytes"),
        wal_log: sim.store().contents().expect("store readable"),
        dsp_plans_cached: snap.counter("dsp", "plans_cached"),
        dsp_scratch_reuses: snap.counter("dsp", "scratch_reuses"),
        dsp_bytes_avoided: snap.counter("dsp", "bytes_avoided"),
    }
}

/// Microbench of the DSP execution context against one labeled survey:
/// raw windowed-FFT and amplitude-spectrum rates through the cached
/// plans, the legacy allocating spectrum for comparison, the two legacy
/// round-trip APIs whose hidden clones were removed (`ifft_real`,
/// `WaveletDecomposition::synthesize`), and per-survey feature
/// extraction quantiles. The workload is fixed, so the context's
/// counters come out deterministic.
fn dsp_bench() -> DspBench {
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

    // Raw forward FFTs of the 32k block through the cached plan.
    let mut freq = Vec::new();
    let start = Instant::now();
    for _ in 0..iters {
        ctx.fft_real_into(block, &mut freq).expect("power-of-two");
        std::hint::black_box(freq.len());
    }
    let windows_per_s = iters as f64 / start.elapsed().as_secs_f64();

    // Single-sided amplitude spectra: zero-allocation vs legacy.
    let mut spec = Spectrum::default();
    let start = Instant::now();
    for _ in 0..iters {
        ctx.spectrum_into(block, FS, Window::Hann, &mut spec)
            .expect("computable");
        std::hint::black_box(spec.resolution());
    }
    let spectra_per_s = iters as f64 / start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(Spectrum::compute(block, FS, Window::Hann).expect("computable"));
    }
    let alloc_spectra_per_s = iters as f64 / start.elapsed().as_secs_f64();

    // Legacy inverse FFT (input-spectrum clone removed this revision).
    let spectrum = fft_real(block).expect("power-of-two");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(ifft_real(&spectrum).expect("round-trips"));
    }
    let ifft_per_s = iters as f64 / start.elapsed().as_secs_f64();

    // Legacy multi-level reconstruction (per-level clones removed).
    let decomp = WaveletDecomposition::analyze(block, Wavelet::Daubechies4, 5).expect("analyzes");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(decomp.synthesize().expect("reconstructs"));
    }
    let synthesize_per_s = iters as f64 / start.elapsed().as_secs_f64();

    // Full 5-channel survey extraction through the reusable context.
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

    let stats = ctx.stats();
    DspBench {
        windows_per_s,
        spectra_per_s,
        alloc_spectra_per_s,
        ifft_per_s,
        synthesize_per_s,
        survey_extract_p50_s: percentile(&samples, 0.50),
        survey_extract_p95_s: percentile(&samples, 0.95),
        plans_cached: stats.plans_created,
        scratch_reuses: stats.scratch_reuses,
        bytes_avoided: stats.bytes_avoided,
    }
}

fn main() {
    // `--workers N` sets the thread count of the fleet-stepping measurement;
    // `--fault-profile {none|lossy}` picks the adversity the fleet
    // measurement runs under.
    let args: Vec<String> = std::env::args().collect();
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1);
    let fault_profile = args
        .iter()
        .position(|a| a == "--fault-profile")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "none".to_string());
    let crash_at = args
        .iter()
        .position(|a| a == "--crash-at")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let (fleet_network, fleet_fault_plan) = match fault_profile.as_str() {
        "none" => (NetworkConfig::default(), FaultPlan::none()),
        "lossy" => lossy_profile(),
        other => {
            eprintln!("unknown --fault-profile {other:?} (expected none|lossy)");
            std::process::exit(2);
        }
    };

    println!("E7: data rates and scaling (§1, §8.1)\n");
    let telemetry = Telemetry::new();

    // 1. Single-core DC chain.
    let single = dc_analysis_rate(&telemetry, 6, 3);
    println!(
        "single-core DC analysis: {:.2} M samples/s (5 ch × 32k blocks, FFT + \
         envelope + features + rules)",
        single / 1e6
    );
    // Real-time margin against the hardware's peak acquisition rate:
    // 4 simultaneous channels at 40 kHz = 160 k samples/s.
    println!(
        "real-time margin over the 4×40 kHz sampler: {:.0}×\n",
        single / 160_000.0
    );

    // 1b. The DSP execution context itself.
    let dsp = dsp_bench();
    println!(
        "DSP context (32k blocks): {:.0} windows/s, {:.0} spectra/s \
         ({:.0} via the allocating API), ifft {:.0}/s, dwt synthesize {:.0}/s",
        dsp.windows_per_s,
        dsp.spectra_per_s,
        dsp.alloc_spectra_per_s,
        dsp.ifft_per_s,
        dsp.synthesize_per_s,
    );
    println!(
        "5-channel survey extraction: p50={:.2} ms p95={:.2} ms; \
         {} plans cached, {} scratch reuses, {:.1} MB reallocation avoided\n",
        dsp.survey_extract_p50_s * 1e3,
        dsp.survey_extract_p95_s * 1e3,
        dsp.plans_cached,
        dsp.scratch_reuses,
        dsp.bytes_avoided as f64 / 1e6,
    );

    // 2. Parallel fleet of DCs (one scoped worker thread per DC).
    // Aggregate scaling is bounded by the host's core count — the
    // paper's fleet runs one embedded processor per DC, which the
    // worker-per-DC structure models.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host cores available: {cores}");
    let mut t = Table::new(&["workers", "aggregate Msamples/s", "scaling"]);
    let mut parallel_rate = 0.0;
    for &workers in &[1usize, 2, 4, 8] {
        let start = Instant::now();
        let surveys_per_worker = 4;
        thread::scope(|s| {
            for w in 0..workers {
                let tel = telemetry.clone();
                s.spawn(move || {
                    std::hint::black_box(dc_analysis_rate(&tel, surveys_per_worker, w as u64 + 10));
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let rate = (workers * surveys_per_worker * CHANNELS * BLOCK) as f64 / secs;
        if workers == 8 {
            parallel_rate = rate;
        }
        t.row(&[
            workers.to_string(),
            format!("{:.2}", rate / 1e6),
            format!("{:.2}×", rate / single),
        ]);
    }
    print!("{}", t.render());

    // 3. PDME report-handling rate vs DC count, over the ship network.
    println!();
    let mut t = Table::new(&["DCs", "reports fused/s"]);
    let mut rate_100 = 0.0;
    for &dcs in &[10usize, 50, 100, 200] {
        let mut net = ShipNetwork::new(NetworkConfig::default());
        net.set_telemetry(&telemetry);
        net.register(Endpoint::Pdme);
        let mut pdme = PdmeExecutive::new();
        pdme.set_telemetry(&telemetry);
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
                let r = ConditionReport::builder(
                    MachineId::new(d as u64 + 1),
                    MachineCondition::from_index(d % 12).expect("in range"),
                    Belief::new(0.6),
                )
                .id(ReportId::new(id))
                .dc(DcId::new(d as u64 + 1))
                .knowledge_source(KnowledgeSourceId::new(11))
                .timestamp(now)
                .prognostic(PrognosticVector::from_months(&[(1.0, 0.5)]).expect("valid"))
                .build();
                net.post(
                    now,
                    Envelope::to_pdme(DcId::new(d as u64 + 1), NetMessage::Report(r)),
                )
                .expect("posted");
            }
            // One simulated second per round: far past worst-case bus
            // latency, so every frame of the round is delivered.
            now += SimDuration::from_secs(1.0);
            telemetry.set_sim_now(now);
            let msgs = net.recv(Endpoint::Pdme, now);
            handled += pdme.ingest(&msgs, now).expect("ingested").fused;
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(handled, rounds * dcs, "lossless config delivers all");
        let rate = handled as f64 / secs;
        if dcs == 100 {
            rate_100 = rate;
        }
        t.row(&[dcs.to_string(), format!("{rate:.0}")]);
    }
    print!("{}", t.render());

    // 4. Whole-ship stepping: sequential vs scatter-gather.
    println!();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fleet_steps = 10;
    let seq = fleet_steps_per_s(
        ExecMode::Sequential,
        fleet_steps,
        &fleet_network,
        &fleet_fault_plan,
        crash_at,
    );
    let par = fleet_steps_per_s(
        ExecMode::Parallel { workers },
        fleet_steps,
        &fleet_network,
        &fleet_fault_plan,
        crash_at,
    );
    let (seq_rate, par_rate) = (seq.rate, par.rate);
    let (net_stats, fleet_e2e) = (par.net_stats, par.e2e);
    let speedup = par_rate / seq_rate;
    println!("fleet fault profile: {fault_profile}");
    if let Some(step) = crash_at {
        println!("  crash-restore cycle after timed step {step} (both modes)");
    }
    if fault_profile != "none" {
        println!(
            "  net: sent={} delivered={} dropped={} retries={} expired={}",
            net_stats.sent,
            net_stats.delivered,
            net_stats.dropped,
            net_stats.retries,
            net_stats.expired
        );
    }
    let mut t = Table::new(&["mode", "steps/s (8-DC fleet)", "speedup"]);
    t.row(&[
        "sequential".into(),
        format!("{seq_rate:.2}"),
        "1.00×".into(),
    ]);
    t.row(&[
        format!("parallel ({workers} workers)"),
        format!("{par_rate:.2}"),
        format!("{speedup:.2}×"),
    ]);
    print!("{}", t.render());
    println!("(host cores: {host_cores}; scaling is bounded by min(workers, cores, DCs))");

    // 5. Durability layer: raw WAL append throughput, then the cost of
    // a full crash-recovery from the fleet run's actual log.
    println!();
    let store_tel = Telemetry::new();
    let wal = StoreHandle::in_memory(&store_tel);
    let append_count = 20_000usize;
    let payload_len = 256usize;
    let start = Instant::now();
    for _ in 0..append_count {
        wal.append(9, vec![0x5A; payload_len]).expect("append");
    }
    let secs = start.elapsed().as_secs_f64();
    let appends_per_s = append_count as f64 / secs;
    let framed_len = FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN;
    let append_mb_per_s = (append_count * framed_len) as f64 / secs / 1e6;
    println!(
        "WAL append throughput: {:.0} appends/s ({:.1} MB/s framed, {payload_len}-byte payloads)",
        appends_per_s, append_mb_per_s
    );
    // Recovery: scan the log, decode the newest snapshot, replay the
    // tail through the executive — the whole restart path, repeated so
    // the quantiles mean something.
    let manager = RecoveryManager::new(&store_tel);
    let mut recovery_samples = Vec::new();
    let mut recovery_tail_frames = 0u64;
    for _ in 0..20 {
        let start = Instant::now();
        let recovered = manager.recover(&par.wal_log);
        let engine = PdmeExecutive::restore(&recovered).expect("fleet log restores");
        recovery_samples.push(start.elapsed().as_secs_f64());
        recovery_tail_frames = recovered.tail.len() as u64;
        std::hint::black_box(engine);
    }
    recovery_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let store_bench = StoreBench {
        wal_appends: par.wal_appends,
        wal_bytes: par.wal_bytes,
        recovery_tail_frames,
        appends_per_s,
        append_mb_per_s,
        recovery_p50_s: percentile(&recovery_samples, 0.50),
        recovery_p95_s: percentile(&recovery_samples, 0.95),
    };
    println!(
        "crash-recovery from the fleet log ({} B, {} tail frames): p50={:.2} ms p95={:.2} ms",
        par.wal_log.len(),
        recovery_tail_frames,
        store_bench.recovery_p50_s * 1e3,
        store_bench.recovery_p95_s * 1e3,
    );
    println!(
        "fleet WAL volume: {} appends, {} bytes (deterministic; perf-gated exactly)",
        par.wal_appends, par.wal_bytes
    );

    // Latency quantiles from the shared telemetry domain.
    println!("\nlatency histograms (simulated time):");
    let snap = telemetry.snapshot();
    let mut sim_latencies = Vec::new();
    for (component, name) in [("net", "bus_transit_s"), ("pdme", "report_latency_s")] {
        let h = snap
            .histogram(component, name)
            .expect("histogram populated");
        println!(
            "  {component}.{name}: n={} p50={:.4}s p95={:.4}s p99={:.4}s",
            h.count,
            h.p50.unwrap_or(f64::NAN),
            h.p95.unwrap_or(f64::NAN),
            h.p99.unwrap_or(f64::NAN),
        );
        sim_latencies.push(LatencyQuantiles {
            name: format!("{component}.{name}"),
            count: h.count,
            p50_s: h.p50.unwrap_or(0.0),
            p95_s: h.p95.unwrap_or(0.0),
            p99_s: h.p99.unwrap_or(0.0),
        });
    }
    // Trace-derived latencies: reconstructed from the causal hop chain
    // (DcEmit → last Fuse) rather than the histogram instrumentation —
    // the two must agree, and the perf gate diffs both.
    println!(
        "  trace.e2e_report_latency_s: n={} p50={:.4}s p95={:.4}s p99={:.4}s",
        fleet_e2e.len(),
        percentile(&fleet_e2e, 0.50),
        percentile(&fleet_e2e, 0.95),
        percentile(&fleet_e2e, 0.99),
    );
    sim_latencies.push(LatencyQuantiles {
        name: "trace.e2e_report_latency_s".to_string(),
        count: fleet_e2e.len() as u64,
        p50_s: percentile(&fleet_e2e, 0.50),
        p95_s: percentile(&fleet_e2e, 0.95),
        p99_s: percentile(&fleet_e2e, 0.99),
    });

    let wall_stages = Stage::ALL
        .iter()
        .map(|&stage| {
            let h = telemetry.span_wall(stage);
            StageQuantiles {
                stage: stage.as_str().to_string(),
                count: h.count(),
                p50_s: h.p50().unwrap_or(0.0),
                p95_s: h.p95().unwrap_or(0.0),
            }
        })
        .filter(|q| q.count > 0)
        .collect();
    let doc = BenchDoc {
        // v7: `exp_serving` merges a `serving{}` block into this
        // document after its own run; the two binaries share the schema
        // version, and the gate re-blesses on any bump.
        // v8: `exp_serving` additionally merges the `obs{}` block — the
        // wire-v5 observability mix (GetMetrics / StreamJournal /
        // ListIncidents) against the same gateway.
        // v9: the worker-scaling block (formerly `fleet{}`) is renamed
        // `scaling{}`; `exp_serving` now merges a real `fleet{}` block —
        // the sharded multi-ship plane served over wire v6.
        schema_version: 9,
        git_revision: git_revision(),
        git_dirty: git_dirty(),
        host: HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: host_cores,
        },
        single_core_samples_per_s: single,
        aggregate_samples_per_s_8_workers: parallel_rate,
        pdme_reports_per_s_100_dcs: rate_100,
        scaling: ScalingBench {
            dc_count: 8,
            workers,
            host_cores,
            steps_timed: fleet_steps,
            fault_profile: fault_profile.clone(),
            crash_at,
            sequential_steps_per_s: seq_rate,
            parallel_steps_per_s: par_rate,
            speedup,
            net_sent: net_stats.sent,
            net_delivered: net_stats.delivered,
            net_dropped: net_stats.dropped,
            net_retries: net_stats.retries,
            net_expired: net_stats.expired,
            dsp_plans_cached: par.dsp_plans_cached,
            dsp_scratch_reuses: par.dsp_scratch_reuses,
            dsp_bytes_avoided: par.dsp_bytes_avoided,
        },
        dsp,
        store: store_bench,
        wall_stages,
        sim_latencies,
    };
    let json = serde_json::to_string_pretty(&doc).expect("serializable");
    std::fs::write("BENCH_throughput.json", &json).expect("writable working directory");
    println!("\nwrote BENCH_throughput.json");

    println!();
    verdict(
        "E7.1 'millions of data points per second'",
        parallel_rate > 2e6,
        &format!(
            "{:.2} M samples/s aggregate on 8 workers",
            parallel_rate / 1e6
        ),
    );
    verdict(
        "E7.2 real-time DC margin",
        single > 160_000.0,
        "one core outruns the 4-channel 40 kHz sampler",
    );
    verdict(
        "E7.3 hundreds of DCs per PDME",
        rate_100 > 1_000.0,
        &format!("{rate_100:.0} fused reports/s at 100 DCs — far above shipboard report rates"),
    );
    // Scatter-gather scaling needs physical parallelism: on hosts with
    // enough cores the 8-DC fleet must step ≥1.5× faster at 4+ workers;
    // on smaller hosts the measurement is recorded but not judged (the
    // determinism contract is what CI enforces everywhere).
    let enough_cores = host_cores >= 4 && workers >= 4;
    verdict(
        "E7.4 scatter-gather fleet speedup",
        !enough_cores || speedup >= 1.5,
        &format!(
            "{speedup:.2}× at {workers} workers on {host_cores} cores{}",
            if enough_cores {
                ""
            } else {
                " (below the 4-core floor; recorded, not judged)"
            }
        ),
    );
}
