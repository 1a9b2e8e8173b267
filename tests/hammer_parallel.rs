//! Concurrency hammering: step the parallel simulation hard while
//! other threads continuously snapshot the shared telemetry domain and
//! the stepping thread interleaves ICAS exports. Nothing here checks
//! equivalence (that's `parallel_determinism.rs`) — this test exists to
//! surface panics, deadlocks and torn reads under real contention:
//! scoped stepping threads recording `dc_step` spans and bumping
//! counters while reader threads serialize snapshots of the same
//! registry.

use mpros::chiller::fault::{FaultProfile, FaultSeed};
use mpros::core::{MachineCondition, SimDuration, SimTime};
use mpros::pdme::export_snapshot;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn stepping_under_concurrent_snapshots_never_tears() {
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(4)
            .with_seed(42)
            .with_survey_period(SimDuration::from_secs(20.0))
            .with_exec(ExecMode::Parallel { workers: 4 }),
    )
    .expect("sim builds");
    for idx in [0, 3] {
        sim.seed_fault(
            idx,
            FaultSeed {
                condition: MachineCondition::MotorImbalance,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_minutes(5.0),
                profile: FaultProfile::Linear,
            },
        );
    }
    let telemetry = sim.telemetry().clone();
    let done = AtomicBool::new(false);
    let done = &done;
    let telemetry = &telemetry;

    std::thread::scope(|s| {
        // The driver: step in chunks, exporting ICAS between chunks so
        // PDME reads interleave with worker writes on the same domain.
        s.spawn(move || {
            // Survey-heavy steps: dt is half the survey period, so
            // every other step pushes a full survey through all DCs.
            let dt = SimDuration::from_secs(10.0);
            for chunk in 1..=8 {
                for _ in 0..3 {
                    sim.step(dt).expect("step succeeds under contention");
                }
                let icas = export_snapshot(sim.pdme(), sim.now(), SimDuration::from_secs(30.0));
                assert_eq!(icas.machines.len(), 4, "chunk {chunk}: machines missing");
                assert_eq!(icas.data_concentrators.len(), 4);
                assert!(
                    icas.data_concentrators.iter().all(|dc| dc.alive),
                    "chunk {chunk}: a DC went silent"
                );
            }
            assert!(sim.pdme().reports_received() > 0, "no traffic at all");
            done.store(true, Ordering::Release);
        });

        // The hammerers: three readers snapshotting as fast as they can,
        // checking counter monotonicity across snapshots (a torn or
        // backwards read would violate it).
        for reader in 0..3 {
            s.spawn(move || {
                let mut last_jobs = 0u64;
                let mut last_sent = 0u64;
                let mut snapshots = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = telemetry.snapshot();
                    let jobs = snap.counter("exec", "jobs");
                    let sent = snap.counter("net", "sent");
                    assert!(
                        jobs >= last_jobs,
                        "reader {reader}: exec.jobs went backwards ({last_jobs} -> {jobs})"
                    );
                    assert!(
                        sent >= last_sent,
                        "reader {reader}: net.sent went backwards ({last_sent} -> {sent})"
                    );
                    // Snapshots must serialize even mid-write.
                    snap.to_json().expect("snapshot serializes");
                    last_jobs = jobs;
                    last_sent = sent;
                    snapshots += 1;
                }
                assert!(snapshots > 0, "reader {reader} never ran");
            });
        }
    });
}
