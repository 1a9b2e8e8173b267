//! Determinism fingerprints of the seeded bench scenarios: every value
//! that `exp_throughput` and `exp_serving` produce without depending on
//! the host is checked against one committed table. Integers compare
//! with `==`, floats bit for bit.
//!
//! The scenarios are the `mpros_bench::scenario` functions the two
//! binaries time, so a row here pins exactly what a bench run prints.
//! The 8-DC fleet run must match in every execution mode, under the calm
//! sea and the lossy one.
//!
//! The table is the simulation's observable contract: never edit a row
//! to make a change pass. Re-bless a row only in a change that means to
//! move it, and say in that change which row moved and why.

use mpros::sim::ExecMode;
use mpros_bench::percentile;
use mpros_bench::scenario::{
    bearing_ship, fleet_phase, fleet_run, obs_phase, pdme_fanin, ship8_config, survey_dt, Sea,
    FLEET_CLIENTS, FLEET_ROUNDS, FLEET_SHIPS, SERVING_CLIENTS, SERVING_STEPS,
};
use mpros_store::RecoveryManager;
use mpros_telemetry::Telemetry;

/// A pinned value: an integer, or a float compared by its bits.
#[derive(Debug, Clone, Copy)]
enum Pin {
    U(u64),
    F(f64),
}

use Pin::{F, U};

impl PartialEq for Pin {
    fn eq(&self, other: &Pin) -> bool {
        match (self, other) {
            (U(a), U(b)) => a == b,
            (F(a), F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// `(group.metric, value)`; each test checks one group, in this order.
const FINGERPRINTS: &[(&str, Pin)] = &[
    // The 8-DC fleet run, calm sea: `exp_throughput`'s gated run.
    ("calm.net_sent", U(122)),
    ("calm.net_delivered", U(112)),
    ("calm.net_dropped", U(0)),
    ("calm.net_retries", U(8)),
    ("calm.net_expired", U(0)),
    ("calm.wal_appends", U(22)),
    ("calm.wal_bytes", U(20_256)),
    ("calm.recovery_tail_frames", U(21)),
    ("calm.trace.e2e_report_latency_s.count", U(8)),
    ("calm.trace.e2e_report_latency_s.p50_s", F(30.0)),
    ("calm.trace.e2e_report_latency_s.p95_s", F(30.0)),
    ("calm.trace.e2e_report_latency_s.p99_s", F(30.0)),
    ("calm.pdme.report_latency_s.count", U(8)),
    // The same run under the lossy sea: drops, retries and the seeded
    // crash/partition/dropout campaign.
    ("lossy.net_sent", U(123)),
    ("lossy.net_delivered", U(100)),
    ("lossy.net_dropped", U(14)),
    ("lossy.net_retries", U(11)),
    ("lossy.net_expired", U(0)),
    ("lossy.wal_appends", U(28)),
    ("lossy.wal_bytes", U(20_639)),
    ("lossy.recovery_tail_frames", U(27)),
    ("lossy.trace.e2e_report_latency_s.count", U(8)),
    ("lossy.trace.e2e_report_latency_s.p50_s", F(30.0)),
    ("lossy.trace.e2e_report_latency_s.p95_s", F(60.0)),
    ("lossy.trace.e2e_report_latency_s.p99_s", F(60.0)),
    ("lossy.pdme.report_latency_s.count", U(8)),
    // The PDME fan-in over the ship network (10, 50, 100 and 200 DCs,
    // 20 rounds each), read off its histograms.
    ("fanin.net.bus_transit_s.count", U(7_200)),
    ("fanin.net.bus_transit_s.p50_s", F(0.006309573444801952)),
    ("fanin.net.bus_transit_s.p95_s", F(0.006999949998677479)),
    ("fanin.net.bus_transit_s.p99_s", F(0.006999949998677479)),
    ("fanin.pdme.report_latency_s.count", U(7_200)),
    ("fanin.pdme.report_latency_s.p50_s", F(1.0)),
    ("fanin.pdme.report_latency_s.p95_s", F(1.0)),
    ("fanin.pdme.report_latency_s.p99_s", F(1.0)),
    // E11's serving phase shape, and the observability mix on the
    // unserved control ship after those steps.
    ("serving.clients", U(8)),
    ("serving.steps", U(30)),
    ("obs.exposition_len_final", U(5_356)),
    ("obs.incidents_sealed", U(1)),
    // The 3-ship fleet console mix.
    ("fleet.ships", U(3)),
    ("fleet.rounds", U(150)),
    ("fleet.fleet_clients", U(2)),
    ("fleet.requests_total", U(1_500)),
    ("fleet.routed_ship_requests", U(300)),
    ("fleet.fleet_publishes", U(21)),
    ("fleet.final_fleet_version", U(21)),
    ("fleet.bad_frames", U(0)),
    ("fleet.ships_available", U(3)),
    ("fleet.rollup_machines", U(4)),
    ("fleet.rollup_prognostics", U(2)),
];

/// Assert that the table's `group.*` rows are exactly `actual`, names
/// and values, in order. `context` names the run in the failure.
fn assert_pinned(group: &str, context: &str, actual: &[(String, Pin)]) {
    let pinned: Vec<(String, Pin)> = FINGERPRINTS
        .iter()
        .filter_map(|&(name, pin)| {
            let metric = name.strip_prefix(group)?.strip_prefix('.')?;
            Some((metric.to_string(), pin))
        })
        .collect();
    let drifted: Vec<String> = (0..pinned.len().max(actual.len()))
        .filter(|&i| pinned.get(i) != actual.get(i))
        .map(|i| {
            format!(
                "  {group}: pinned {:?}, got {:?}",
                pinned.get(i),
                actual.get(i)
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{context}: fingerprints drifted\n{}",
        drifted.join("\n")
    );
}

fn named<const N: usize>(rows: [(&str, Pin); N]) -> Vec<(String, Pin)> {
    rows.map(|(name, pin)| (name.to_string(), pin)).into()
}

/// `metric.count` and `metric.{p50,p95,p99}_s`.
fn quantile_rows(metric: &str, count: u64, [p50, p95, p99]: [f64; 3]) -> Vec<(String, Pin)> {
    [
        ("count", U(count)),
        ("p50_s", F(p50)),
        ("p95_s", F(p95)),
        ("p99_s", F(p99)),
    ]
    .map(|(q, pin)| (format!("{metric}.{q}"), pin))
    .into()
}

fn fleet_run_holds_in_every_exec_mode(sea: Sea, group: &str) {
    for exec in [
        ExecMode::Sequential,
        ExecMode::Parallel { workers: 1 },
        ExecMode::Parallel { workers: 4 },
    ] {
        let run = fleet_run(exec, sea);
        let recovered = RecoveryManager::new(&Telemetry::new()).recover(&run.wal_log);
        let mut actual = named([
            ("net_sent", U(run.net.sent as u64)),
            ("net_delivered", U(run.net.delivered as u64)),
            ("net_dropped", U(run.net.dropped as u64)),
            ("net_retries", U(run.net.retries as u64)),
            ("net_expired", U(run.net.expired as u64)),
            ("wal_appends", U(run.wal_appends)),
            ("wal_bytes", U(run.wal_bytes)),
            ("recovery_tail_frames", U(recovered.tail.len() as u64)),
        ]);
        actual.extend(quantile_rows(
            "trace.e2e_report_latency_s",
            run.e2e.len() as u64,
            [0.50, 0.95, 0.99].map(|q| percentile(&run.e2e, q)),
        ));
        actual.extend(named([(
            "pdme.report_latency_s.count",
            U(run.report_latency_count),
        )]));
        assert_pinned(group, &format!("{group} fleet run, {exec:?}"), &actual);
    }
}

#[test]
fn calm_fleet_run_holds_in_every_exec_mode() {
    fleet_run_holds_in_every_exec_mode(Sea::Calm, "calm");
}

#[test]
fn lossy_fleet_run_holds_in_every_exec_mode() {
    fleet_run_holds_in_every_exec_mode(Sea::Lossy, "lossy");
}

#[test]
fn pdme_fanin_histograms_hold() {
    let telemetry = Telemetry::new();
    pdme_fanin(&telemetry);
    let snap = telemetry.snapshot();
    let mut actual = Vec::new();
    for (component, name) in [("net", "bus_transit_s"), ("pdme", "report_latency_s")] {
        let h = snap.histogram(component, name).expect("populated");
        let quantiles = [h.p50, h.p95, h.p99].map(|q| q.expect("non-empty"));
        actual.extend(quantile_rows(
            &format!("{component}.{name}"),
            h.count,
            quantiles,
        ));
    }
    assert_pinned("fanin", "PDME fan-in", &actual);
}

#[test]
fn observability_mix_holds() {
    let actual = named([
        ("clients", U(SERVING_CLIENTS as u64)),
        ("steps", U(SERVING_STEPS as u64)),
    ]);
    assert_pinned("serving", "serving phase", &actual);

    // `exp_serving`'s unserved control ship: a gateway attached and
    // nobody querying while it steps.
    let mut sim = bearing_ship(ship8_config(Sea::Calm));
    let gateway = sim.attach_gateway();
    for _ in 0..SERVING_STEPS {
        sim.step(survey_dt()).expect("step");
    }
    let (_, counts) = obs_phase(&mut sim, &gateway);
    let actual = named([
        ("exposition_len_final", U(counts.exposition_len_final)),
        ("incidents_sealed", U(counts.incidents_sealed)),
    ]);
    assert_pinned("obs", "observability mix", &actual);
}

#[test]
fn fleet_console_mix_holds() {
    let (_, counts) = fleet_phase();
    let actual = named([
        ("ships", U(FLEET_SHIPS as u64)),
        ("rounds", U(FLEET_ROUNDS as u64)),
        ("fleet_clients", U(FLEET_CLIENTS as u64)),
        ("requests_total", U(counts.requests_total)),
        ("routed_ship_requests", U(counts.routed_ship_requests)),
        ("fleet_publishes", U(counts.fleet_publishes)),
        ("final_fleet_version", U(counts.final_fleet_version)),
        ("bad_frames", U(counts.bad_frames)),
        ("ships_available", U(counts.ships_available)),
        ("rollup_machines", U(counts.rollup_machines)),
        ("rollup_prognostics", U(counts.rollup_prognostics)),
    ]);
    assert_pinned("fleet", "fleet console mix", &actual);
}
