//! The DC-staleness objective judges the step it runs on, on every
//! ship. A DC crashes and stays down; the `max(pdme.dc_staleness_max)`
//! rule, with its budget equal to the supervision timeout, must fail on
//! exactly the step the supervisor marks the DC's machines `degraded`,
//! whether or not a gateway serves the ship: liveness is decided once,
//! by the supervision pass every step runs before the watchdog, and the
//! serving publish only reads it.

use mpros::core::{DcId, FaultPlan, SimDuration, SimTime};
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::{SloPolicy, SloRule};

const TIMEOUT_S: f64 = 30.0;

fn ship(served: bool) -> ShipboardSim {
    let staleness = SloRule::GaugeMax {
        component: "pdme".into(),
        name: "dc_staleness_max".into(),
        max: TIMEOUT_S,
    };
    let config = ShipboardSimConfig::new()
        .with_dc_count(2)
        .with_seed(5)
        .with_dc_timeout(SimDuration::from_secs(TIMEOUT_S))
        .with_fault_plan(FaultPlan::none().with_dc_crash(
            DcId::new(1),
            SimTime::from_secs(15.0),
            SimTime::from_secs(600.0),
        ))
        .with_slo(SloPolicy::none().with_rule(staleness));
    let mut sim = ShipboardSim::new(config).expect("sim builds");
    if served {
        sim.attach_gateway();
    }
    sim
}

/// Per step: whether the staleness rule held, the value it read, and
/// whether any machine was degraded after the step.
fn run(served: bool) -> Vec<(bool, f64, bool)> {
    let mut sim = ship(served);
    (0..70)
        .map(|_| {
            sim.step(SimDuration::from_secs(1.0)).expect("step");
            let verdict = sim.slo_verdict().expect("watchdog ran");
            let check = &verdict.checks[0];
            assert_eq!(check.rule.as_str(), "max(pdme.dc_staleness_max)");
            let degraded = !sim.pdme().degraded_machines().is_empty();
            (check.pass, check.value, degraded)
        })
        .collect()
}

#[test]
fn staleness_rule_fails_on_the_step_a_dc_goes_stale_served_or_not() {
    let unserved = run(false);
    let stale_step = unserved
        .iter()
        .position(|&(_, _, degraded)| degraded)
        .expect("the crashed DC goes stale within the run");
    for (step, &(pass, value, degraded)) in unserved.iter().enumerate() {
        assert_eq!(
            pass, !degraded,
            "step {step}: rule pass={pass} at {value} s, degraded={degraded}"
        );
    }
    assert!(unserved[stale_step].1 > TIMEOUT_S);
    assert!(
        unserved[..stale_step]
            .iter()
            .any(|&(_, value, _)| value > 0.0),
        "the gauge is read before the DC goes stale"
    );
    assert_eq!(run(true), unserved, "a served ship judges the same values");
}
