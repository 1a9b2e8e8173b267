//! `fleet4x32_served`: a fleet of 4 ships × 32 DCs stepped sequentially
//! at `dt` = 1 s while one client thread reads it over the fleet wire.
//!
//! The survey period is longer than the run's simulated span, so the
//! only surveys happen in the set-up warm-up step. Every timed step runs
//! process sampling, SBFR, fuzzy, heartbeats, supervision, the SLO check,
//! the flight recorder, each ship's `ServingSnapshot` build and
//! `Fleet::publish`. One progressing condenser-fouling fault per ship
//! keeps reports, ICAS changes and subscription deltas flowing.
//!
//! The client is an open loop at [`RATE_PER_S`] requests per second over
//! a fixed cyclic mix; each request's latency runs from the time it was
//! due to the decoded reply, so a stalled generator or server shows.

use crate::measure::{
    self, median, quantile, timed, Gen, HostSpeed, Ledger, Outcome, RunqWindow, StealWindow,
    StepWalls,
};
use crate::{Args, RunResult, Size};
use mpros::chiller::FaultSeed;
use mpros::core::{Error, MachineCondition, Result, SimDuration, SimTime};
use mpros::fleet::{Fleet, FleetClient, FleetConfig, FleetGateway, FleetRequest};
use mpros::gateway::{GatewayRequest, ServingSnapshot};
use mpros::pdme::PdmeExecutive;
use mpros::sim::{ExecMode, ShipboardSimConfig};
use mpros::telemetry::SloPolicy;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Open-loop request rate of the client thread.
const RATE_PER_S: f64 = 500.0;
/// Largest generator lateness p95 for which the reported request
/// latencies (p50 and p90) are valid: half the request spacing. The p99
/// is reported, not checked: on a shared 2-vCPU VM, hypervisor steal
/// deschedules the client for milliseconds at a time, so the p99 moves
/// with the host, not with the generator or the program.
const LATE_P95_MAX_S: f64 = 0.5 / RATE_PER_S;
const DC_TIMEOUT_S: f64 = 30.0;
/// Traced steps between two timings of `supervise` on a restored copy
/// of each PDME (restoring costs far more than the call itself).
const SUPERVISE_SAMPLE_EVERY: usize = 10;
/// The session id the traced client's repeated `Subscribe` calls use,
/// so they never drain the measured session's queue.
const PROBE_SESSION: u64 = 9_999;
/// Least stepping time between two host-speed probes. The client is
/// parked for each probe, so a request due meanwhile goes out up to a
/// probe (about 2 ms) late; this keeps those to about 0.5% of requests.
/// The step count stays fixed; only the harness's own probes follow the
/// clock.
const PROBE_INTERVAL: Duration = Duration::from_millis(350);
/// Longest the stepping thread waits for the client to park.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

fn dt() -> SimDuration {
    SimDuration::from_secs(1.0)
}

fn build(args: &Args, ships: usize, dcs: usize, steps: usize) -> Result<Fleet> {
    let ship = ShipboardSimConfig::new()
        .with_dc_count(dcs)
        .with_exec(ExecMode::Sequential)
        .with_dc_timeout(SimDuration::from_secs(DC_TIMEOUT_S))
        .with_slo(SloPolicy::standard(60.0, 90.0, 0.9))
        .with_survey_period(SimDuration::from_secs(10.0 * (steps as f64 + 10.0)));
    let config = FleetConfig::new()
        .with_ship_count(ships)
        .with_seed(args.seed)
        .with_ship(ship)
        .with_parallel_ships(false);
    let mut fleet = Fleet::new(config)?;
    let mut gen = Gen::new(args.seed, 3);
    for s in 0..ships {
        let plant = gen.index(dcs);
        let fouling = FaultSeed::linear(
            MachineCondition::CondenserFouling,
            SimTime::ZERO,
            SimDuration::from_minutes(60.0),
        );
        fleet.ship_mut(s).seed_fault(plant, fouling);
        if fleet.ship(s).workers() != 0 {
            return Err(Error::invalid("fleet4x32_served must step sequentially"));
        }
    }
    // Warm-up: the only survey of every DC happens here.
    fleet.step(dt())?;
    Ok(fleet)
}

/// Parks the client while the stepping thread times the host-speed
/// probe, so the probe measures the host and not the client's serving
/// beside it; whatever serving costs the stepping thread stays in the
/// step walls.
struct Park {
    requested: AtomicBool,
    parks: AtomicU64,
}

impl Park {
    /// Client side: spin until `due`, parking whenever a probe asks. The
    /// client spins rather than sleeps: a sleeping client would wake 500
    /// times a second, and each wake can land on the stepping thread's
    /// CPU and make it wait in the run queue.
    fn wait_until(&self, due: Instant) {
        loop {
            if self.requested.load(Ordering::Acquire) {
                self.parks.fetch_add(1, Ordering::AcqRel);
                while self.requested.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }
            if Instant::now() >= due {
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Stepping side: park the client, take one probe, release it.
    fn probe(&self, host: &mut HostSpeed) {
        let parks = self.parks.load(Ordering::Acquire);
        self.requested.store(true, Ordering::Release);
        let deadline = Instant::now() + PARK_TIMEOUT;
        while self.parks.load(Ordering::Acquire) == parks && Instant::now() < deadline {
            std::hint::spin_loop();
        }
        host.sample();
        self.requested.store(false, Ordering::Release);
    }
}

/// What the stepping thread and the client share.
struct Control {
    start: Barrier,
    done: AtomicBool,
    park: Park,
}

/// Stops the client and lifts any park when dropped.
struct Release<'a>(&'a Control);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.park.requested.store(false, Ordering::Release);
        self.0.done.store(true, Ordering::Release);
    }
}

/// The client's fixed cyclic request mix; `kind` names the per-kind
/// serve metric.
fn request(i: usize, gen: &mut Gen, ships: usize, dcs: usize) -> (&'static str, FleetRequest) {
    let ship = gen.index(ships) as u64;
    let machine = 1 + gen.index(dcs) as u64;
    match i % 6 {
        0 => ("list_ships", FleetRequest::ListShips),
        1 => ("rollup", FleetRequest::GetFleetRollup),
        2 => ("ship_icas", FleetRequest::GetShipIcas { ship }),
        3 => (
            "for_ship",
            FleetRequest::ForShip {
                ship,
                request: GatewayRequest::GetMachineStatus { machine },
            },
        ),
        4 => (
            "for_ship",
            FleetRequest::ForShip {
                ship,
                request: GatewayRequest::GetMetrics,
            },
        ),
        _ => ("subscribe", FleetRequest::Subscribe { session: 1 }),
    }
}

/// What the client thread measured.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    late: Vec<f64>,
    failed: u64,
    non_monotone: u64,
    /// Traced run only: repeated `serve` time per kind, and call − serve.
    serve: BTreeMap<&'static str, Vec<f64>>,
    codec: Vec<f64>,
    runq_wait_s: f64,
    pinned: bool,
}

fn client(
    gateway: Arc<FleetGateway>,
    seed: u64,
    ships: usize,
    dcs: usize,
    trace: bool,
    control: &Control,
) -> ClientLog {
    let client = FleetClient::connect(gateway.clone(), 1);
    let mut gen = Gen::new(seed, 4);
    let mut log = ClientLog::default();
    let mut last_version = 0u64;
    let spacing = Duration::from_secs_f64(1.0 / RATE_PER_S);
    log.pinned = measure::pin_to_cpu(1);
    control.start.wait();
    let runq = RunqWindow::open();
    let t0 = Instant::now();
    let mut i = 0usize;
    // At least one request, however short the stepping run.
    loop {
        let (kind, req) = request(i, &mut gen, ships, dcs);
        let due = t0 + spacing * i as u32;
        control.park.wait_until(due);
        let sent = Instant::now();
        log.late.push((sent - due).as_secs_f64());
        let reply = client.call(&req);
        let replied = Instant::now();
        log.latencies.push((replied - due).as_secs_f64());
        match reply {
            Ok(resp) => {
                let version = resp.fleet_version();
                if version < last_version {
                    log.non_monotone += 1;
                }
                last_version = version;
            }
            Err(_) => log.failed += 1,
        }
        if trace {
            let probe = match req {
                FleetRequest::Subscribe { .. } => FleetRequest::Subscribe {
                    session: PROBE_SESSION,
                },
                other => other,
            };
            let (_, serve_s) = timed(|| gateway.serve(&probe));
            log.serve.entry(kind).or_default().push(serve_s);
            log.codec.push((replied - sent).as_secs_f64() - serve_s);
        }
        i += 1;
        if control.done.load(Ordering::Acquire) {
            break;
        }
    }
    log.runq_wait_s = runq.close();
    log
}

pub fn run(args: &Args) -> RunResult {
    let smoke = args.size == Size::Smoke;
    let (ships, dcs) = if smoke { (2, 2) } else { (4, 32) };
    let steps = args.steps(300.0, 1000, 20_000);
    let setups = if smoke || args.trace { 1 } else { 3 };
    let mut host = HostSpeed::new();
    let (mut fleet, setup_times) =
        measure::repeated_setup(setups, &mut host, || build(args, ships, dcs, steps))?;
    let version_before = fleet.version();
    let fused_before: usize = (0..ships)
        .map(|s| fleet.ship(s).pdme().fusion().reports_ingested())
        .sum();
    let timeout = SimDuration::from_secs(DC_TIMEOUT_S);

    let control = Control {
        start: Barrier::new(2),
        done: AtomicBool::new(false),
        park: Park {
            requested: AtomicBool::new(false),
            parks: AtomicU64::new(0),
        },
    };
    let gateway = fleet.gateway().clone();
    let mut ledger = Ledger::default();
    let mut walls = Vec::with_capacity(steps);
    let mut step_walls = StepWalls::default();
    let mut traced_steps = Vec::new();
    let mut supervise_samples = Vec::new();
    let mut snapshots_equal = true;
    let (log, window, main_wait, steal_share, pinned) = std::thread::scope(|scope| -> Result<_> {
        let handle = scope.spawn(|| client(gateway, args.seed, ships, dcs, args.trace, &control));
        // Release the client however this thread leaves the scope, even
        // by a panic, so the scope's join cannot hang.
        let _release = Release(&control);
        let pinned = measure::pin_to_cpu(0);
        control.start.wait();
        measure::assert_thread_budget();
        let runq = RunqWindow::open();
        let steal = StealWindow::open();
        let t0 = Instant::now();
        let stepped = (|| -> Result<()> {
            let mut last_probe = Instant::now();
            for k in 0..steps {
                // The traced run alternates traced (odd) and plain steps.
                if !(args.trace && k % 2 == 1) {
                    let (r, secs) = timed(|| fleet.step(dt()));
                    r?;
                    walls.push(secs);
                    if !args.trace && last_probe.elapsed() >= PROBE_INTERVAL {
                        control.park.probe(&mut host);
                        last_probe = Instant::now();
                    }
                    step_walls.push(secs, &host);
                    continue;
                }
                let step_start = Instant::now();
                for s in 0..ships {
                    ledger.time("ship.step", || fleet.ship_mut(s).step(dt()))?;
                }
                ledger.time("fleet.publish", || fleet.publish())?;
                let wall = step_start.elapsed().as_secs_f64();
                ledger.end_step(wall);
                traced_steps.push(walls.len());
                walls.push(wall);
                // Inner calls, repeated outside the step's wall clock.
                let sample_supervise = traced_steps.len() % SUPERVISE_SAMPLE_EVERY == 1;
                let mut supervise_s = 0.0;
                for s in 0..ships {
                    let ship = fleet.ship(s);
                    let (snapshot, secs) = timed(|| {
                        ServingSnapshot::build(
                            ship.steps(),
                            ship.now(),
                            ship.pdme(),
                            timeout,
                            ship.slo_verdict(),
                            ship.telemetry(),
                        )
                    });
                    ledger.add_child("gateway.snapshot_build", secs);
                    let published = ship.gateway().map(|g| g.snapshot());
                    snapshots_equal &= published.as_deref() == Some(&snapshot);
                    if sample_supervise {
                        let mut copy =
                            PdmeExecutive::from_snapshot_bytes(&ship.pdme().snapshot_bytes())?;
                        let (r, secs) = timed(|| copy.supervise(ship.now(), timeout));
                        r?;
                        supervise_s += secs;
                    }
                }
                if sample_supervise {
                    supervise_samples.push(supervise_s);
                }
            }
            Ok(())
        })();
        let window = t0.elapsed().as_secs_f64();
        let main_wait = runq.close();
        let steal_share = steal.close();
        control.done.store(true, Ordering::Release);
        let log = handle.join().expect("client thread panicked");
        stepped?;
        Ok((log, window, main_wait, steal_share, pinned))
    })?;

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let requests = log.latencies.len() as u64;
    out.check(walls.len() == steps, format!("{steps} fixed steps ran"));
    out.check(requests > 0, format!("{requests} requests sent"));
    out.check(
        log.failed == 0,
        format!("{} replies failed to decode", log.failed),
    );
    out.check(
        log.non_monotone == 0,
        format!(
            "fleet versions never went back ({} regressions)",
            log.non_monotone
        ),
    );
    out.check(
        fleet.version() == version_before + steps as u64
            && fleet.gateway().version() == fleet.version(),
        format!("one fleet publish per step (version {})", fleet.version()),
    );
    let bad_frames = fleet.telemetry().snapshot().counter("fleet", "bad_frames")
        + (0..ships)
            .map(|s| {
                fleet
                    .ship(s)
                    .telemetry()
                    .snapshot()
                    .counter("gateway", "bad_frames")
            })
            .sum::<u64>();
    out.check(bad_frames == 0, format!("{bad_frames} bad frames"));
    if args.trace {
        out.check(
            snapshots_equal,
            "rebuilt serving snapshots equal the published ones",
        );
    }
    let fused = (0..ships)
        .map(|s| fleet.ship(s).pdme().fusion().reports_ingested())
        .sum::<usize>()
        - fused_before;
    out.check(fused > 0, format!("{fused} reports fused"));
    out.attempted = steps as u64 + fused as u64 + requests;
    out.failed = log.failed + log.non_monotone;
    let fail_share = out.failed as f64 / out.attempted as f64;
    let runq_share = (main_wait + log.runq_wait_s) / window;
    let req_p50 = median(&log.latencies);
    let req_p90 = quantile(&log.latencies, 0.9);
    out.note(format!(
        "fail_share = {fail_share} ({} attempted)",
        out.attempted
    ));
    out.note(format!(
        "req_p50_s = {req_p50}, req_p90_s = {req_p90} over {requests} requests"
    ));
    let late_p95 = quantile(&log.late, 0.95);
    let late_p99 = quantile(&log.late, 0.99);
    out.check(
        late_p95 <= LATE_P95_MAX_S,
        format!(
            "generator late p95 {late_p95} s is at most {LATE_P95_MAX_S} s (p99 {late_p99} s, max {} s)",
            quantile(&log.late, 1.0)
        ),
    );
    out.note(format!(
        "bench.runq_wait_share = {runq_share} (stepping thread {main_wait} s, client {} s)",
        log.runq_wait_s
    ));
    out.note(format!("host steal share = {steal_share}"));
    out.note(format!(
        "stepping thread pinned to CPU 0: {pinned}, client to CPU 1: {}",
        log.pinned
    ));

    if args.trace {
        out.check_ledger(&ledger);
    }
    let values = if args.trace {
        let serve = |kind: &str| log.serve.get(kind).map(|v| median(v)).unwrap_or(0.0);
        BTreeMap::from([
            ("ship.step_s", ledger.per_step("ship.step")),
            ("fleet.publish_s", ledger.per_step("fleet.publish")),
            (
                "gateway.snapshot_build_s",
                ledger.per_step("gateway.snapshot_build"),
            ),
            ("pdme.supervise_s", measure::mean(&supervise_samples)),
            ("fleet.serve_p50_s.list_ships", serve("list_ships")),
            ("fleet.serve_p50_s.rollup", serve("rollup")),
            ("fleet.serve_p50_s.ship_icas", serve("ship_icas")),
            ("fleet.serve_p50_s.for_ship", serve("for_ship")),
            ("fleet.serve_p50_s.subscribe", serve("subscribe")),
            ("fleet.codec_p50_s", median(&log.codec)),
            ("fleet.req_p50_s", req_p50),
            ("fleet.req_p90_s", req_p90),
            ("loadgen.late_p99_s", late_p99),
            ("loadgen.late_max_s", quantile(&log.late, 1.0)),
            ("loadgen.requests", requests as f64),
            ("fleet.unattributed_share", ledger.unattributed_share()),
            ("bench.step_wall_s", ledger.wall_per_step()),
            ("bench.fail_share", fail_share),
            ("bench.runq_wait_share", runq_share),
            (
                "bench.trace_overhead_share",
                measure::overhead_vs_neighbours(&walls, &traced_steps),
            ),
        ])
    } else {
        step_walls.end_to_end(&setup_times, fused, &mut out)
    };
    Ok((out, values))
}
