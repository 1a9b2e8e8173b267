//! E11 — the serving layer under load: N concurrent console clients
//! hammer the `mpros-gateway` query server while the 8-DC ship keeps
//! stepping on its own thread. The claim under test is the gateway's
//! concurrency model: publishing and serving only ever exchange an
//! `Arc` pointer, so query load must not stall the simulation and the
//! simulation must not starve queries.
//!
//! Three measurements:
//!  1. aggregate query throughput (qps) and per-request service-time
//!     quantiles across all clients, through the full wire codec
//!     (encode request → route → encode response);
//!  2. the sim thread's snapshot publish rate *while being served*,
//!     against an unserved control run of the identical scenario;
//!  3. the deterministic serving invariants: final snapshot version ==
//!     steps taken, one publish per step plus the attach-time publish,
//!     zero undecodable frames.
//!
//! Merges a `serving{}` block into `BENCH_throughput.json` (BenchDoc
//! schema v9) for `perf_gate`; run `exp_throughput` first. A second
//! phase measures the observability mix — `GetMetrics` (with its text
//! exposition render), `StreamJournal` cursor polls and
//! `ListIncidents` against a sealed flight-recorder capture — and
//! merges it as the `obs{}` block. A third phase stands up a sharded
//! multi-ship `Fleet` and drives the wire-v6 fleet console mix —
//! `ListShips`, `GetFleetRollup`, `GetShipIcas`, `ForShip` routing and
//! fleet `Subscribe` polls — merging the `fleet{}` block.
//!
//! Usage: `exp_serving [--clients N] [--steps N]`.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::fleet::{Fleet, FleetClient, FleetConfig, FleetRequest};
use mpros::gateway::{GatewayClient, GatewayConfig, GatewayRequest};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros_bench::{verdict, Table};
use mpros_core::{MachineCondition, SimDuration, SimTime};
use serde::Serialize;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

/// Per-client latency samples kept in memory (calls beyond this still
/// count toward qps, their latencies just stop being recorded).
const MAX_SAMPLES_PER_CLIENT: usize = 200_000;

/// The `serving{}` block of the benchmark document.
#[derive(Serialize)]
struct ServingBench {
    clients: usize,
    steps: usize,
    /// Total requests answered across all clients (host-dependent:
    /// clients run for the stepping window's duration).
    requests_total: u64,
    qps: f64,
    p50_s: f64,
    p95_s: f64,
    /// Publishes observed by the gateway (steps + the attach-time one).
    snapshot_publishes: u64,
    publish_rate_per_s: f64,
    /// The same scenario's publish rate with zero clients attached.
    unserved_publish_rate_per_s: f64,
    final_version: u64,
    bad_frames: u64,
    /// Subscription deltas evicted by backpressure (expected 0 here:
    /// every client polls continuously and the calm scenario produces
    /// no supervision edges; recorded for fault-profile variants).
    drops: u64,
}

/// The `obs{}` block: the observability-client mix over wire v5.
#[derive(Serialize)]
struct ObsBench {
    /// `GetMetrics` calls answered (informational; the rate rides on
    /// the latency quantiles below).
    metrics_calls: u64,
    /// Service time of a full `GetMetrics` round trip — snapshot fields
    /// plus the pre-rendered exposition — through the wire codec.
    metrics_p50_s: f64,
    metrics_p95_s: f64,
    /// `StreamJournal` cursor polls answered, and their rate.
    journal_calls: u64,
    journal_tail_qps: f64,
    /// Bytes of the final Prometheus text exposition (deterministic:
    /// the scenario is seeded and the serving surface filtered).
    exposition_len_final: u64,
    /// Sealed flight-recorder incidents at the end (the bench seals
    /// exactly one, via the manual capture API).
    incidents_sealed: u64,
}

/// The `fleet{}` block: the sharded multi-ship plane behind the
/// routing `FleetGateway`, driven over wire v6. The client mix runs a
/// fixed number of rounds against the settled fleet (serve-under-
/// publish is the `serving{}` phase's claim; this one measures routing
/// overhead and rollup cost), so every count below is a pure function
/// of the seeded scenario and gates exactly.
#[derive(Serialize)]
struct FleetBench {
    ships: usize,
    rounds: usize,
    fleet_clients: usize,
    /// Fixed: `fleet_clients * rounds * 5` (five requests per round).
    requests_total: u64,
    /// Aggregate fleet-request rate across all clients (wall).
    fleet_qps: f64,
    /// Service time of a full `GetFleetRollup` round trip — the most
    /// expensive fleet query: the whole rollup crosses the codec.
    rollup_p50_s: f64,
    rollup_p95_s: f64,
    /// `ForShip` routings answered (fixed: one per round per client).
    routed_ship_requests: u64,
    /// Fleet snapshot publishes (steps + the construction-time one).
    fleet_publishes: u64,
    final_fleet_version: u64,
    bad_frames: u64,
    /// Shards serving at the end (no crash in this scenario: all).
    ships_available: u64,
    /// Machine classes in the worst-status-wins census.
    rollup_machines: u64,
    /// Fused prognostic curves in the rollup.
    rollup_prognostics: u64,
}

fn build_sim() -> ShipboardSim {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(8)
            .with_seed(5)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    // Progressing faults on two plants keep reports, prognostics and
    // ICAS churn flowing — an all-healthy fleet would serve a static
    // snapshot and flatter the numbers.
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
    sim
}

/// Quantile of an ascending-sorted sample by nearest-rank.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn arg_value(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients = arg_value(&args, "--clients", 8);
    let steps = arg_value(&args, "--steps", 30);
    let dt = SimDuration::from_secs(30.0);

    println!("E11: concurrent serving over lock-free snapshots\n");

    // Control: the identical scenario stepped with a gateway attached
    // but nobody querying — the publish rate serving must not crater.
    let mut control = build_sim();
    control.attach_gateway(GatewayConfig::new());
    let start = Instant::now();
    for _ in 0..steps {
        control.step(dt).expect("control step");
    }
    let unserved_publish_rate = steps as f64 / start.elapsed().as_secs_f64();
    println!("unserved control: {unserved_publish_rate:.2} publishes/s over {steps} steps");

    // Measured run: the same ship, `clients` threads querying flat out
    // for the whole stepping window.
    let mut sim = build_sim();
    let gateway = sim.attach_gateway(GatewayConfig::new());
    let stop = AtomicBool::new(false);
    let prognostic_condition = MachineCondition::MotorBearingDefect.index();

    let mut requests_total = 0u64;
    let mut samples: Vec<f64> = Vec::new();
    let mut per_client_calls = Vec::new();
    let mut serve_window_s = 0.0f64;
    thread::scope(|s| {
        let stop = &stop;
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let gw = gateway.clone();
                s.spawn(move || {
                    let client = GatewayClient::connect(gw, i as u64);
                    let mut calls = 0u64;
                    let mut lat = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        // One round of the console's working set: the
                        // full ICAS board, one machine drill-down, one
                        // prognostic curve, the verdict, the counters,
                        // and a subscription poll.
                        let machine = (calls % 8) + 1;
                        let round = [
                            GatewayRequest::GetIcas,
                            GatewayRequest::GetMachineStatus { machine },
                            GatewayRequest::GetPrognosticVector {
                                machine,
                                condition_id: prognostic_condition,
                            },
                            GatewayRequest::GetSloVerdict,
                            GatewayRequest::GetCounters,
                            GatewayRequest::Subscribe { session: i as u64 },
                        ];
                        for req in &round {
                            let start = Instant::now();
                            client.call(req).expect("request serves");
                            if lat.len() < MAX_SAMPLES_PER_CLIENT {
                                lat.push(start.elapsed().as_secs_f64());
                            }
                            calls += 1;
                        }
                    }
                    (calls, lat)
                })
            })
            .collect();

        let start = Instant::now();
        for _ in 0..steps {
            sim.step(dt).expect("step under serving load");
        }
        serve_window_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            let (calls, lat) = handle.join().expect("client joins");
            requests_total += calls;
            per_client_calls.push(calls);
            samples.extend(lat);
        }
    });
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let snap = sim.telemetry().snapshot();
    let serving = ServingBench {
        clients,
        steps,
        requests_total,
        // The clients ran exactly as long as the stepping loop; rate
        // against that window, not against the join tail.
        qps: requests_total as f64 / serve_window_s,
        p50_s: percentile(&samples, 0.50),
        p95_s: percentile(&samples, 0.95),
        snapshot_publishes: snap.counter("gateway", "publishes"),
        publish_rate_per_s: steps as f64 / serve_window_s,
        unserved_publish_rate_per_s: unserved_publish_rate,
        final_version: gateway.version(),
        bad_frames: snap.counter("gateway", "bad_frames"),
        drops: snap.counter("gateway", "drops"),
    };

    // Observability phase: seal one manual incident (the capture lands
    // on the next step and seals after the recorder's post window),
    // then let two console clients run the wire-v5 mix — metrics +
    // exposition, journal tail polls, incident listings.
    sim.capture_incident("bench checkpoint");
    for _ in 0..6 {
        sim.step(dt).expect("obs phase step");
    }
    const OBS_CLIENTS: usize = 2;
    const OBS_ROUNDS: usize = 200;
    let mut metrics_lat: Vec<f64> = Vec::new();
    let mut journal_calls = 0u64;
    let mut obs_window_s = 0.0f64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..OBS_CLIENTS)
            .map(|i| {
                let gw = gateway.clone();
                s.spawn(move || {
                    let client = GatewayClient::connect(gw, 100 + i as u64);
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
            obs_window_s = obs_window_s.max(window);
        }
    });
    metrics_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let probe = GatewayClient::connect(gateway.clone(), 999);
    let final_metrics = probe.metrics().expect("final GetMetrics");
    let obs = ObsBench {
        metrics_calls: metrics_lat.len() as u64,
        metrics_p50_s: percentile(&metrics_lat, 0.50),
        metrics_p95_s: percentile(&metrics_lat, 0.95),
        journal_calls,
        journal_tail_qps: journal_calls as f64 / obs_window_s,
        exposition_len_final: final_metrics.exposition.len() as u64,
        incidents_sealed: probe.incidents().expect("ListIncidents").len() as u64,
    };

    // Fleet phase: a 3-ship sharded fleet stepped to a settled state,
    // then the fleet console mix for a fixed number of rounds per
    // client — totals, routings and rollup shape all deterministic.
    const FLEET_SHIPS: usize = 3;
    const FLEET_STEPS: usize = 20;
    const FLEET_CLIENTS: usize = 2;
    const FLEET_ROUNDS: usize = 150;
    let mut fleet = Fleet::new(
        FleetConfig::new()
            .with_ship_count(FLEET_SHIPS)
            .with_seed(5)
            .with_ship(
                ShipboardSimConfig::new()
                    .with_dc_count(4)
                    .with_survey_period(SimDuration::from_secs(30.0)),
            ),
    )
    .expect("fleet builds");
    // The same fault pressure as the single-ship phases, on every
    // shard, so the rollup has degradation and curves to fuse.
    for ship in 0..FLEET_SHIPS {
        for idx in [0usize, 2] {
            fleet.ship_mut(ship).seed_fault(
                idx,
                FaultSeed {
                    condition: MachineCondition::MotorBearingDefect,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_minutes(8.0),
                    profile: FaultProfile::EarlyOnset,
                },
            );
        }
    }
    for _ in 0..FLEET_STEPS {
        fleet.step(dt).expect("fleet step");
    }
    let fleet_gateway = fleet.gateway().clone();

    let mut fleet_requests = 0u64;
    let mut rollup_lat: Vec<f64> = Vec::new();
    let mut fleet_window_s = 0.0f64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET_CLIENTS)
            .map(|i| {
                let gw = fleet_gateway.clone();
                s.spawn(move || {
                    let client = FleetClient::connect(gw, 200 + i as u64);
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
            fleet_requests += calls;
            rollup_lat.extend(lat);
            fleet_window_s = fleet_window_s.max(window);
        }
    });
    rollup_lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let fleet_probe = FleetClient::connect(fleet_gateway.clone(), 299);
    let final_rollup = fleet_probe.rollup().expect("final GetFleetRollup");
    let fleet_snap = fleet.telemetry().snapshot();
    let fleet_bench = FleetBench {
        ships: FLEET_SHIPS,
        rounds: FLEET_ROUNDS,
        fleet_clients: FLEET_CLIENTS,
        requests_total: fleet_requests,
        fleet_qps: fleet_requests as f64 / fleet_window_s,
        rollup_p50_s: percentile(&rollup_lat, 0.50),
        rollup_p95_s: percentile(&rollup_lat, 0.95),
        routed_ship_requests: fleet_snap.counter("fleet", "routed_ship_requests"),
        fleet_publishes: fleet_snap.counter("fleet", "publishes"),
        final_fleet_version: fleet_gateway.version(),
        bad_frames: fleet_snap.counter("fleet", "bad_frames"),
        ships_available: (FLEET_SHIPS - final_rollup.rollup.unavailable_ships.len()) as u64,
        rollup_machines: final_rollup.rollup.machines.len() as u64,
        rollup_prognostics: final_rollup.rollup.prognostics.len() as u64,
    };

    let mut t = Table::new(&["metric", "value"]);
    t.row(&["clients".into(), serving.clients.to_string()]);
    t.row(&["requests served".into(), serving.requests_total.to_string()]);
    t.row(&["aggregate qps".into(), format!("{:.0}", serving.qps)]);
    t.row(&[
        "service time p50 / p95".into(),
        format!(
            "{:.1} µs / {:.1} µs",
            serving.p50_s * 1e6,
            serving.p95_s * 1e6
        ),
    ]);
    t.row(&[
        "publish rate (served / unserved)".into(),
        format!(
            "{:.2}/s / {:.2}/s",
            serving.publish_rate_per_s, serving.unserved_publish_rate_per_s
        ),
    ]);
    t.row(&[
        "snapshot publishes".into(),
        serving.snapshot_publishes.to_string(),
    ]);
    t.row(&[
        "obs: GetMetrics p50 / p95".into(),
        format!(
            "{:.1} µs / {:.1} µs",
            obs.metrics_p50_s * 1e6,
            obs.metrics_p95_s * 1e6
        ),
    ]);
    t.row(&[
        "obs: journal tail qps".into(),
        format!("{:.0}", obs.journal_tail_qps),
    ]);
    t.row(&[
        "obs: exposition bytes / incidents".into(),
        format!("{} / {}", obs.exposition_len_final, obs.incidents_sealed),
    ]);
    t.row(&[
        "fleet: requests / qps".into(),
        format!(
            "{} / {:.0}",
            fleet_bench.requests_total, fleet_bench.fleet_qps
        ),
    ]);
    t.row(&[
        "fleet: rollup p50 / p95".into(),
        format!(
            "{:.1} µs / {:.1} µs",
            fleet_bench.rollup_p50_s * 1e6,
            fleet_bench.rollup_p95_s * 1e6
        ),
    ]);
    t.row(&[
        "fleet: census / curves / routed".into(),
        format!(
            "{} / {} / {}",
            fleet_bench.rollup_machines,
            fleet_bench.rollup_prognostics,
            fleet_bench.routed_ship_requests
        ),
    ]);
    print!("{}", t.render());

    // Merge the block into the throughput document (schema v7).
    let path = "BENCH_throughput.json";
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("exp_serving: cannot read {path}: {e} (run exp_throughput first)");
        std::process::exit(2);
    });
    let mut doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("exp_serving: {path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let Value::Object(map) = &mut doc else {
        eprintln!("exp_serving: {path} is not a JSON object");
        std::process::exit(2);
    };
    map.insert(
        "serving".to_string(),
        serde_json::to_value(&serving).expect("serializable"),
    );
    map.insert(
        "obs".to_string(),
        serde_json::to_value(&obs).expect("serializable"),
    );
    map.insert(
        "fleet".to_string(),
        serde_json::to_value(&fleet_bench).expect("serializable"),
    );
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("serializable"),
    )
    .expect("writable working directory");
    println!("\nmerged serving{{}}, obs{{}} and fleet{{}} into {path}");

    println!();
    let min_calls = per_client_calls.iter().copied().min().unwrap_or(0);
    verdict(
        "E11.1 every client is served",
        clients >= 8 && min_calls >= 60,
        &format!(
            "{clients} concurrent clients, slowest completed {min_calls} calls \
             while the ship stepped {steps} surveys"
        ),
    );
    verdict(
        "E11.2 serving never blocks the sim thread",
        serving.final_version == steps as u64
            && serving.snapshot_publishes == steps as u64 + 1
            && serving.publish_rate_per_s > 0.0,
        &format!(
            "final snapshot version {} after {steps} steps, {} publishes",
            serving.final_version, serving.snapshot_publishes
        ),
    );
    verdict(
        "E11.3 the wire stayed clean",
        serving.bad_frames == 0,
        &format!("{} undecodable frames", serving.bad_frames),
    );
    verdict(
        "E11.4 the observability plane answers the console mix",
        obs.incidents_sealed == 1
            && obs.exposition_len_final > 0
            && obs.metrics_calls == (OBS_CLIENTS * OBS_ROUNDS) as u64,
        &format!(
            "{} GetMetrics calls, {}-byte exposition, {} sealed incident(s)",
            obs.metrics_calls, obs.exposition_len_final, obs.incidents_sealed
        ),
    );
    verdict(
        "E11.5 the fleet plane routes and rolls up deterministically",
        fleet_bench.requests_total == (FLEET_CLIENTS * FLEET_ROUNDS * 5) as u64
            && fleet_bench.routed_ship_requests == (FLEET_CLIENTS * FLEET_ROUNDS) as u64
            && fleet_bench.final_fleet_version == FLEET_STEPS as u64 + 1
            && fleet_bench.fleet_publishes == FLEET_STEPS as u64 + 1
            && fleet_bench.bad_frames == 0
            && fleet_bench.ships_available == FLEET_SHIPS as u64
            && fleet_bench.rollup_machines > 0
            && fleet_bench.rollup_prognostics > 0,
        &format!(
            "{} fleet requests ({} routed), fleet v{}, census {} / {} curves, {} ships up",
            fleet_bench.requests_total,
            fleet_bench.routed_ship_requests,
            fleet_bench.final_fleet_version,
            fleet_bench.rollup_machines,
            fleet_bench.rollup_prognostics,
            fleet_bench.ships_available
        ),
    );
}
