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
//! schema v10) for `perf_gate`; run `exp_throughput` first. A second
//! phase measures the observability mix (`scenario::obs_phase`) on the
//! unserved control ship and merges it as the `obs{}` block. A third phase stands up a sharded
//! multi-ship `Fleet` and drives the wire-v6 fleet console mix
//! (`scenario::fleet_phase`), merging the `fleet{}` block. The
//! verdicts judge the deterministic counts exactly; the binary exits
//! non-zero if one fails.

use mpros::gateway::{GatewayClient, GatewayRequest};
use mpros_bench::scenario::{
    bearing_ship, fleet_phase, obs_phase, ship8_config, survey_dt, Sea, FLEET_CLIENTS,
    FLEET_ROUNDS, FLEET_SETTLE_STEPS, FLEET_SHIPS, OBS_CLIENTS, OBS_ROUNDS, SERVING_CLIENTS,
    SERVING_STEPS,
};
use mpros_bench::{exit_on_failed_verdict, percentile, verdict, Table};
use mpros_core::MachineCondition;
use serde::Serialize;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

/// Per-client latency samples kept in memory (calls beyond this still
/// count toward qps, their latencies just stop being recorded).
const MAX_SAMPLES_PER_CLIENT: usize = 200_000;

/// Bytes of the final Prometheus exposition after the observability
/// phase; pinned also as `obs.exposition_len_final` in
/// `tests/fingerprints.rs`.
const EXPOSITION_LEN_FINAL: u64 = 5356;
/// Machine classes and fused curves in the final fleet rollup; pinned
/// also as `fleet.rollup_machines` / `fleet.rollup_prognostics`.
const ROLLUP_MACHINES: u64 = 4;
/// See [`ROLLUP_MACHINES`].
const ROLLUP_PROGNOSTICS: u64 = 2;

/// The `serving{}` block of the benchmark document.
#[derive(Serialize)]
struct ServingBench {
    /// Total requests answered across all clients (host-dependent:
    /// clients run for the stepping window's duration).
    requests_total: u64,
    qps: f64,
    p50_s: f64,
    p95_s: f64,
    publish_rate_per_s: f64,
    /// The same scenario's publish rate with zero clients attached.
    unserved_publish_rate_per_s: f64,
    /// Subscription deltas evicted by backpressure (expected 0 here:
    /// every client polls continuously and the calm scenario produces
    /// no supervision edges).
    drops: u64,
}

fn main() {
    let steps = SERVING_STEPS;
    let dt = survey_dt();

    println!("E11: concurrent serving over lock-free snapshots\n");

    // Control: the identical scenario stepped with a gateway attached
    // but nobody querying — the publish rate serving must not crater.
    // The observability phase later runs on this ship: its exposition
    // then depends on the seeded scenario alone, not on how many
    // requests the serving phase answered.
    let mut control = bearing_ship(ship8_config(Sea::Calm));
    let control_gateway = control.attach_gateway();
    let start = Instant::now();
    for _ in 0..steps {
        control.step(dt).expect("control step");
    }
    let unserved_publish_rate = steps as f64 / start.elapsed().as_secs_f64();
    println!("unserved control: {unserved_publish_rate:.2} publishes/s over {steps} steps");

    // Measured run: the same ship, SERVING_CLIENTS threads querying flat
    // out for the whole stepping window.
    let mut sim = bearing_ship(ship8_config(Sea::Calm));
    let gateway = sim.attach_gateway();
    let stop = AtomicBool::new(false);
    let prognostic_condition = MachineCondition::MotorBearingDefect.index();

    let mut requests_total = 0u64;
    let mut samples: Vec<f64> = Vec::new();
    let mut per_client_calls = Vec::new();
    let mut serve_window_s = 0.0f64;
    thread::scope(|s| {
        let stop = &stop;
        let handles: Vec<_> = (0..SERVING_CLIENTS)
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
    let snapshot_publishes = snap.counter("gateway", "publishes");
    let final_version = gateway.version();
    let bad_frames = snap.counter("gateway", "bad_frames");
    let serving = ServingBench {
        requests_total,
        // The clients ran exactly as long as the stepping loop; rate
        // against that window, not against the join tail.
        qps: requests_total as f64 / serve_window_s,
        p50_s: percentile(&samples, 0.50),
        p95_s: percentile(&samples, 0.95),
        publish_rate_per_s: steps as f64 / serve_window_s,
        unserved_publish_rate_per_s: unserved_publish_rate,
        drops: snap.counter("gateway", "drops"),
    };

    let (obs, obs_counts) = obs_phase(&mut control, &control_gateway);
    let (fleet_bench, fleet_counts) = fleet_phase();

    let mut t = Table::new(&["metric", "value"]);
    t.row(&["clients".into(), SERVING_CLIENTS.to_string()]);
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
    t.row(&["snapshot publishes".into(), snapshot_publishes.to_string()]);
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
        format!(
            "{} / {}",
            obs_counts.exposition_len_final, obs_counts.incidents_sealed
        ),
    ]);
    t.row(&[
        "fleet: requests / qps".into(),
        format!(
            "{} / {:.0}",
            fleet_counts.requests_total, fleet_bench.fleet_qps
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
            fleet_counts.rollup_machines,
            fleet_counts.rollup_prognostics,
            fleet_counts.routed_ship_requests
        ),
    ]);
    print!("{}", t.render());

    // Merge the blocks into the throughput document.
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
        min_calls >= 60,
        &format!(
            "{SERVING_CLIENTS} concurrent clients, slowest completed {min_calls} calls \
             while the ship stepped {steps} surveys"
        ),
    );
    verdict(
        "E11.2 serving never blocks the sim thread",
        final_version == steps as u64
            && snapshot_publishes == steps as u64 + 1
            && serving.publish_rate_per_s > 0.0,
        &format!(
            "final snapshot version {final_version} after {steps} steps, \
             {snapshot_publishes} publishes"
        ),
    );
    verdict(
        "E11.3 the wire stayed clean",
        bad_frames == 0,
        &format!("{bad_frames} undecodable frames"),
    );
    verdict(
        "E11.4 the observability plane answers the console mix",
        obs_counts.incidents_sealed == 1
            && obs_counts.exposition_len_final == EXPOSITION_LEN_FINAL
            && obs.metrics_calls == (OBS_CLIENTS * OBS_ROUNDS) as u64,
        &format!(
            "{} GetMetrics calls, {}-byte exposition, {} sealed incident(s)",
            obs.metrics_calls, obs_counts.exposition_len_final, obs_counts.incidents_sealed
        ),
    );
    verdict(
        "E11.5 the fleet plane routes and rolls up deterministically",
        fleet_counts.requests_total == (FLEET_CLIENTS * FLEET_ROUNDS * 5) as u64
            && fleet_counts.routed_ship_requests == (FLEET_CLIENTS * FLEET_ROUNDS) as u64
            && fleet_counts.final_fleet_version == FLEET_SETTLE_STEPS as u64 + 1
            && fleet_counts.fleet_publishes == FLEET_SETTLE_STEPS as u64 + 1
            && fleet_counts.bad_frames == 0
            && fleet_counts.ships_available == FLEET_SHIPS as u64
            && fleet_counts.rollup_machines == ROLLUP_MACHINES
            && fleet_counts.rollup_prognostics == ROLLUP_PROGNOSTICS,
        &format!(
            "{} fleet requests ({} routed), fleet v{}, census {} / {} curves, {} ships up",
            fleet_counts.requests_total,
            fleet_counts.routed_ship_requests,
            fleet_counts.final_fleet_version,
            fleet_counts.rollup_machines,
            fleet_counts.rollup_prognostics,
            fleet_counts.ships_available
        ),
    );
    exit_on_failed_verdict();
}
