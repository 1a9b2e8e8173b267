//! CI's SLO watchdog runner: drive a seeded 8-DC ship through a named
//! operating profile, let the in-sim watchdog evaluate the declarative
//! SLO policy every step, and exit nonzero if the final verdict fails.
//!
//! Two profiles, two budgets:
//!
//! * `calm` — the default lossless network. Tight budgets: reports must
//!   fuse within seconds and nothing may expire.
//! * `lossy` — a dropping, jittery link plus a seeded fault campaign
//!   (crashes, partitions, sensor dropouts). Latency and staleness
//!   budgets widen to absorb retry backoff and partition windows, but
//!   the hard contract stays: the acked outbox must deliver eventually,
//!   so `net.expired == 0` is enforced in *both* profiles.
//!
//! The final verdict is printed as machine-readable JSON so CI logs
//! capture exactly which rule broke and by how much.
//!
//! `--crash-restore` opens a `PdmeCrash` window at the run's midpoint:
//! the PDME is torn down and rebuilt from the durable store (latest
//! snapshot + WAL tail), so the verdict CI judges is produced by a
//! *restored* engine — which must meet the same budgets, because the
//! restore is byte-identical (see `tests/crash_restore.rs`).
//!
//! Usage: `slo_check --profile calm|lossy [--minutes N] [--crash-restore]`.

use mpros::core::{SimDuration, SimTime};
use mpros::telemetry::SloPolicy;
use mpros_bench::scenario::{bearing_ship, ship8_config, Sea};

fn profile(name: &str) -> (Sea, SloPolicy) {
    match name {
        // Calm sea: sub-second fusion is the norm; give p95 a 5 s
        // budget (a survey period's worth of batching slack) and keep
        // staleness under two survey periods.
        "calm" => (Sea::Calm, SloPolicy::standard(5.0, 65.0, 0.9)),
        // Lossy sea: drops force retries and the fault campaign parks
        // whole DCs behind partitions and crash windows, so late
        // deliveries are expected — but never expiries.
        "lossy" => (Sea::Lossy, SloPolicy::standard(30.0, 120.0, 0.9)),
        other => {
            eprintln!("slo_check: unknown --profile {other:?} (expected calm|lossy)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile_name = args
        .iter()
        .position(|a| a == "--profile")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "calm".to_string());
    let minutes = args
        .iter()
        .position(|a| a == "--minutes")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(5.0);
    let crash_restore = args.iter().any(|a| a == "--crash-restore");

    let (sea, slo) = profile(&profile_name);
    let mut config = ship8_config(sea).with_slo(slo);
    if crash_restore {
        let mid = minutes * 30.0; // seconds: half the campaign
        config.fault_plan = config
            .fault_plan
            .with_pdme_crash(SimTime::from_secs(mid), SimTime::from_secs(mid + 1.0));
    }
    // Progressing bearing faults on two plants keep condition reports
    // flowing; without traffic every latency SLO would pass vacuously.
    let mut sim = bearing_ship(config);
    let fused = sim
        .run_for(
            SimDuration::from_minutes(minutes),
            SimDuration::from_secs(0.5),
        )
        .expect("scenario runs");

    let verdict = sim.slo_verdict().expect("watchdog evaluated every step");
    println!("{}", verdict.to_json().expect("verdict serializes"));
    if crash_restore {
        let replayed = sim
            .telemetry()
            .snapshot()
            .counter("store", "recovery_replayed");
        if replayed == 0 {
            eprintln!(
                "slo_check[{profile_name}]: FAIL — --crash-restore given but no WAL \
                 records were replayed; the verdict is not from a restored engine"
            );
            std::process::exit(1);
        }
        eprintln!(
            "slo_check[{profile_name}]: verdict from a restored engine \
             ({replayed} WAL records replayed after the mid-run crash)"
        );
    }
    let stats = sim.network().stats();
    eprintln!(
        "slo_check[{profile_name}]: {fused} reports fused over {minutes} min; \
         net sent={} delivered={} dropped={} retries={} expired={}",
        stats.sent, stats.delivered, stats.dropped, stats.retries, stats.expired
    );
    if fused == 0 {
        eprintln!("slo_check[{profile_name}]: FAIL — no reports fused, checks are vacuous");
        std::process::exit(1);
    }
    if verdict.pass {
        eprintln!("slo_check[{profile_name}]: PASS");
    } else {
        eprintln!(
            "slo_check[{profile_name}]: FAIL — {}",
            verdict.failing().join("; ")
        );
        std::process::exit(1);
    }
}
