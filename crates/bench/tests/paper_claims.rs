//! The paper's quantitative claims, one test per experiment of
//! EXPERIMENTS.md, with one `assert!` per verdict. Every input is
//! seeded, so each verdict is a deterministic invariant, except E4.3
//! and E12.3, which bound wall-clock times at the paper's own figures.
//!
//! Each test prints its paper-vs-measured table; to see one, run e.g.
//!
//! ```text
//! cargo test --release -p mpros-bench --test paper_claims e5 -- --nocapture
//! ```
//!
//! E2 (the §5.3 worked example) is asserted by
//! `mpros_fusion::mass::tests::paper_worked_example`, and E12.1 (a
//! post's `ReportPosted` is queued when `post_report` returns) by
//! `mpros_oosm::reports::tests::posting_publishes_the_kf_event` and
//! `posting_emits_no_per_column_property_events`; neither is repeated
//! here.

use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros_bench::{dli_conditions, labeled_survey, percentile, Table};
use mpros_chiller::fault::{FaultProfile, FaultSeed, FaultState};
use mpros_chiller::process::ProcessModel;
use mpros_chiller::transient::StartupSynthesizer;
use mpros_chiller::vibration::{AccelLocation, VibrationSynthesizer};
use mpros_chiller::MachineTrain;
use mpros_core::prognostic::grade_template;
use mpros_core::{
    Belief, ConditionReport, MachineCondition, MachineId, PrognosticVector, ReportId, Severity,
    SeverityGrade, SimDuration, SimTime, TimeToFailure,
};
use mpros_dli::{DliExpertSystem, VibrationSurvey};
use mpros_fusion::{
    fuse_prognostics, DiagnosticFusion, Lifetime, MassFunction, NoisyOrNetwork, Subset, WeibullFit,
};
use mpros_fuzzy::FuzzyDiagnostics;
use mpros_oosm::{ObjectKind, Oosm, OosmEvent, Value};
use mpros_sbfr::builtin::{spike_machine, stiction_machine, EmaTraceGenerator};
use mpros_sbfr::Interpreter;
use mpros_signal::features::{FeatureConfig, FeatureVector};
use mpros_signal::spectrum::Spectrum;
use mpros_signal::window::Window;
use mpros_wnn::{
    Activation, Dataset, DatasetBuilder, Network, TrainParams, WnnClassifier, WnnConfig,
};
use std::collections::HashMap;
use std::time::Instant;

/// E3 — §5.4 worked examples of prognostic fusion, plus the ablation
/// comparing the paper's conservative envelope against a naive
/// pointwise-average combiner.
#[test]
fn e3_prognostic_fusion() {
    let p_at = |v: &PrognosticVector, months: f64| {
        v.probability_at(SimDuration::from_months(months)).value()
    };
    let first =
        PrognosticVector::from_months(&[(3.0, 0.01), (4.0, 0.5), (5.0, 0.99)]).expect("valid");
    let weak = PrognosticVector::from_months(&[(4.5, 0.12)]).expect("valid");
    let strong = PrognosticVector::from_months(&[(4.5, 0.95)]).expect("valid");
    let fused_weak = fuse_prognostics(&[first.clone(), weak]).expect("fusable");
    let fused_strong = fuse_prognostics(&[first.clone(), strong.clone()]).expect("fusable");

    let mut t = Table::new(&[
        "months",
        "first report",
        "fused (weak 2nd)",
        "fused (strong 2nd)",
    ]);
    for m in [3.0, 3.5, 4.0, 4.25, 4.5, 4.75, 5.0] {
        t.row(&[
            format!("{m:.2}"),
            format!("{:.3}", p_at(&first, m)),
            format!("{:.3}", p_at(&fused_weak, m)),
            format!("{:.3}", p_at(&fused_strong, m)),
        ]);
    }
    println!("E3: prognostic knowledge fusion (§5.4)\n\n{}", t.render());

    let weak_ignored = [3.0, 3.7, 4.2, 4.5, 4.9, 5.0, 5.5]
        .iter()
        .all(|&m| (p_at(&fused_weak, m) - p_at(&first, m)).abs() < 1e-9);
    assert!(
        weak_ignored,
        "E3.1 weak report ignored: the fused curve differs from the first report"
    );

    let h90_first = first
        .horizon_for_probability(0.9)
        .expect("reaches 90%")
        .as_months();
    let h90_strong = fused_strong
        .horizon_for_probability(0.9)
        .expect("reaches 90%")
        .as_months();
    let p_strong = p_at(&fused_strong, 4.5);
    assert!(
        p_strong == 0.95 && h90_strong < h90_first,
        "E3.2 strong report dominates: fused {p_strong} at 4.5 mo, 90% point \
         {h90_first:.2} → {h90_strong:.2} months, paper: 0.95 and earlier"
    );

    // Ablation: averaging is anti-conservative exactly where it matters.
    let mut t = Table::new(&["months", "envelope", "average", "under-warning"]);
    let mut worst: f64 = 0.0;
    for m in [4.0, 4.25, 4.5, 4.75, 5.0] {
        let env = p_at(&fused_strong, m);
        let avg = (p_at(&first, m) + p_at(&strong, m)) / 2.0;
        worst = worst.max(env - avg);
        t.row(&[
            format!("{m:.2}"),
            format!("{env:.3}"),
            format!("{avg:.3}"),
            format!("{:.3}", env - avg),
        ]);
    }
    println!(
        "ablation: conservative envelope vs naive average\n{}",
        t.render()
    );
    assert!(
        worst > 0.1,
        "E3.3 averaging ablation: averaging under-warns by at most {worst:.3}, expected > 0.1"
    );
}

/// E4 — §6.3 embeddability: spike and stiction machines of 229 and 93
/// bytes, 100 machines plus a ~2000-byte interpreter in under 32 KB,
/// and a cycle period under 4 ms.
#[test]
fn e4_sbfr_footprint() {
    let spike_len = spike_machine(0).encoded_len().expect("valid machine");
    let stiction_len = stiction_machine(1, 0).encoded_len().expect("valid machine");

    let mut fleet = Interpreter::new();
    for i in 0..50u8 {
        fleet
            .add_program(&spike_machine(i * 2))
            .expect("valid machine");
        fleet
            .add_program(&stiction_machine(i * 2 + 1, i * 2))
            .expect("valid machine");
    }
    let fleet_bytes = fleet.total_image_bytes();

    // Warm up, then time cycles over a realistic input trace.
    let trace = EmaTraceGenerator::with_stiction(3, 0.6).generate(20_000);
    for s in trace.iter().take(1_000) {
        fleet.cycle(&s[..]);
    }
    let start = Instant::now();
    let timed = 10_000;
    for s in trace.iter().skip(1_000).take(timed) {
        fleet.cycle(&s[..]);
    }
    let per_cycle_ms = start.elapsed().as_secs_f64() * 1_000.0 / timed as f64;

    let mut t = Table::new(&["claim", "paper", "measured"]);
    t.row(&[
        "spike machine image".into(),
        "229 B".into(),
        format!("{spike_len} B"),
    ]);
    t.row(&[
        "stiction machine image".into(),
        "93 B".into(),
        format!("{stiction_len} B"),
    ]);
    t.row(&[
        "100 machines + interpreter".into(),
        "< 32768 B".into(),
        format!("{fleet_bytes} B images (+ ~2000 B interpreter in the paper)"),
    ]);
    t.row(&[
        "cycle period, 100 machines".into(),
        "< 4 ms".into(),
        format!("{per_cycle_ms:.4} ms"),
    ]);
    println!(
        "E4: SBFR footprint and cycle period (§6.3, Fig. 3)\n\n{}",
        t.render()
    );

    assert!(
        (100..=300).contains(&spike_len) && (60..=220).contains(&stiction_len),
        "E4.1 machine images in the paper's regime: spike {spike_len} B, stiction \
         {stiction_len} B, paper 229/93 B"
    );
    assert!(
        fleet_bytes + 2_000 < 32 * 1024,
        "E4.2 100-machine budget: {} B total, paper < 32 KB",
        fleet_bytes + 2_000
    );
    assert!(
        per_cycle_ms < 4.0,
        "E4.3 cycle period: {per_cycle_ms:.4} ms per 100-machine cycle, paper < 4 ms"
    );
}

/// E5 — §6.1: "the system exceeds 95% agreement with human expert
/// analysts". The analyst is the seeded ground truth (DESIGN.md):
/// agreement means the expert system's top-severity call names the
/// seeded fault, or both stay silent on a healthy machine.
#[test]
fn e5_dli_agreement() {
    let dli = DliExpertSystem::new();
    let severities = [0.55, 0.7, 0.85, 1.0];
    let loads = [0.6, 0.8, 1.0];
    let seeds: Vec<u64> = (0..4).map(|i| 101 + i * 37).collect();

    let mut per_condition: HashMap<Option<MachineCondition>, (usize, usize)> = HashMap::new();
    let mut record = |label: Option<MachineCondition>, agree: bool| {
        let e = per_condition.entry(label).or_insert((0, 0));
        e.1 += 1;
        if agree {
            e.0 += 1;
        }
    };
    for &seed in &seeds {
        for &load in &loads {
            // Healthy controls: the analyst reports nothing.
            let survey = labeled_survey(None, 0.0, load, seed, 32_768);
            record(None, dli.analyze(&survey).expect("analyzable").is_empty());
            for &condition in &dli_conditions() {
                for &sev in &severities {
                    let survey = labeled_survey(Some(condition), sev, load, seed, 32_768);
                    let out = dli.analyze(&survey).expect("analyzable");
                    record(
                        Some(condition),
                        out.first().map(|d| d.condition) == Some(condition),
                    );
                }
            }
        }
    }

    let mut t = Table::new(&["analyst label", "agreement", "cases"]);
    let mut total = (0usize, 0usize);
    let mut keys: Vec<_> = per_condition.keys().copied().collect();
    keys.sort_by_key(|k| k.map(|c| c.index() as i64).unwrap_or(-1));
    for k in keys {
        let (agree, cases) = per_condition[&k];
        total.0 += agree;
        total.1 += cases;
        let label = k
            .map(|c| c.to_string())
            .unwrap_or_else(|| "(healthy)".to_string());
        t.row(&[
            label,
            format!("{:.1}%", 100.0 * agree as f64 / cases as f64),
            format!("{agree}/{cases}"),
        ]);
    }
    let overall = 100.0 * total.0 as f64 / total.1 as f64;
    println!(
        "E5: DLI agreement with the (synthetic) analyst (§6.1)\n\n{}\n\
         overall agreement: {overall:.1}% over {} cases",
        t.render(),
        total.1
    );
    assert!(
        overall >= 95.0,
        "E5 dli agreement: {overall:.1}% over {} cases, paper ≥ 95%",
        total.1
    );
}

/// E6 — §6.1: the severity score maps to Slight, Moderate, Serious and
/// Extreme, which "correspond to ... no foreseeable failure, failure in
/// months, weeks, and days of operation."
#[test]
fn e6_severity_mapping() {
    let mut t = Table::new(&[
        "severity score",
        "grade",
        "paper time-to-failure",
        "template median TTF",
    ]);
    for score in [0.05, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8, 0.95] {
        let grade = Severity::new(score).grade();
        let median = grade_template(grade)
            .horizon_for_probability(0.5)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(&[
            format!("{score:.2}"),
            grade.to_string(),
            grade.time_to_failure().to_string(),
            median,
        ]);
    }
    println!(
        "E6: severity grades and time-to-failure mapping (§6.1)\n\n{}",
        t.render()
    );

    let mapping: Vec<TimeToFailure> = SeverityGrade::ALL
        .iter()
        .map(|g| g.time_to_failure())
        .collect();
    assert_eq!(
        mapping,
        [
            TimeToFailure::NoForeseeableFailure,
            TimeToFailure::Months,
            TimeToFailure::Weeks,
            TimeToFailure::Days,
        ],
        "E6.1 four ordered grades: Slight→none, Moderate→months, Serious→weeks, Extreme→days"
    );
    let grades: Vec<i64> = (0..=100)
        .map(|i| Severity::new(i as f64 / 100.0).grade() as i64)
        .collect();
    assert!(
        grades.windows(2).all(|w| w[0] <= w[1]),
        "E6.2 grade is monotone in score: {grades:?} over a 0..=1 sweep"
    );
    let horizons: Vec<f64> = [
        SeverityGrade::Moderate,
        SeverityGrade::Serious,
        SeverityGrade::Extreme,
    ]
    .iter()
    .map(|&g| {
        grade_template(g)
            .horizon_for_probability(0.5)
            .expect("template reaches 50%")
            .as_days()
    })
    .collect();
    assert!(
        horizons[0] > horizons[1] && horizons[1] > horizons[2],
        "E6.3 template horizons ordered months > weeks > days: {:.1} d, {:.1} d, {:.1} d",
        horizons[0],
        horizons[1],
        horizons[2]
    );
}

/// Flat ablation of E8: one frame over the full 12-condition catalog
/// (plus "other"), evidence as singleton supports.
struct FlatEngine {
    mass: MassFunction,
    conflict: f64,
}

impl FlatEngine {
    fn new() -> Self {
        FlatEngine {
            mass: MassFunction::vacuous(13).expect("12 conditions + other"),
            conflict: 0.0,
        }
    }

    fn ingest(&mut self, condition: MachineCondition, belief: f64) {
        let support = MassFunction::simple_support(
            13,
            Subset::singleton(condition.index()),
            belief.min(0.999),
        )
        .expect("valid support");
        let (fused, k) = self.mass.combine(&support).expect("combinable");
        self.mass = fused;
        self.conflict += k;
    }

    fn belief(&self, condition: MachineCondition) -> f64 {
        self.mass.belief(Subset::singleton(condition.index()))
    }
}

/// E8 — §5.3: one Dempster–Shafer frame over the whole catalog "assumes
/// mutual exclusivity of failures", wrong where "there can, in fact, be
/// several failures at one time"; logical groups fix it. Two concurrent
/// faults in different groups get 4 interleaved reports each.
#[test]
fn e8_logical_groups() {
    let bearing = MachineCondition::MotorBearingDefect;
    let leak = MachineCondition::RefrigerantLeak;
    let machine = MachineId::new(1);

    let mut grouped = DiagnosticFusion::new();
    let mut flat = FlatEngine::new();
    let mut t = Table::new(&[
        "after report",
        "grouped: bearing",
        "grouped: leak",
        "flat: bearing",
        "flat: leak",
        "flat conflict",
    ]);
    let mut step = 0;
    for _ in 0..4 {
        for &(c, b) in &[(bearing, 0.6), (leak, 0.6)] {
            step += 1;
            grouped
                .ingest(&ConditionReport::builder(machine, c, Belief::new(b)).build())
                .expect("ingestible");
            flat.ingest(c, b);
            t.row(&[
                format!("#{step} ({c})"),
                format!("{:.2}", grouped.belief(machine, bearing)),
                format!("{:.2}", grouped.belief(machine, leak)),
                format!("{:.2}", flat.belief(bearing)),
                format!("{:.2}", flat.belief(leak)),
                format!("{:.2}", flat.conflict),
            ]);
        }
    }
    println!(
        "E8: logical groups vs one flat frame (§5.3)\n\n{}",
        t.render()
    );

    let gb = grouped.belief(machine, bearing);
    let gl = grouped.belief(machine, leak);
    let fb = flat.belief(bearing);
    let fl = flat.belief(leak);
    assert!(
        gb > 0.9 && gl > 0.9,
        "E8.1 grouped engine tracks both faults: bearing {gb:.3}, leak {gl:.3}, expected > 0.9"
    );
    assert!(
        fb.max(fl) < 0.6 && flat.conflict > 0.5,
        "E8.2 flat frame suppresses concurrent faults: bearing {fb:.3}, leak {fl:.3}, \
         conflict {:.2}, expected < 0.6 with conflict > 0.5",
        flat.conflict
    );
}

/// E9 — §3.3: "A failure effects mode analysis (FMEA) was completed and
/// used to select 12 candidate failure modes." Each mode must be seen
/// by DLI or fuzzy at severity 0.9 under nominal load.
#[test]
fn e9_failure_modes() {
    let dli = DliExpertSystem::new();
    let fuzzy = FuzzyDiagnostics::new();

    let mut t = Table::new(&["#", "failure mode", "group", "DLI", "fuzzy", "detected"]);
    let mut missed = Vec::new();
    for (i, condition) in MachineCondition::ALL.iter().copied().enumerate() {
        // DLI pass: severe fault, nominal load, long blocks.
        let survey = labeled_survey(Some(condition), 0.9, 0.9, 17, 32_768);
        let dli_hit = dli
            .analyze(&survey)
            .expect("analyzable")
            .iter()
            .any(|d| d.condition == condition);

        // Fuzzy pass: process window under the same fault.
        let model = ProcessModel::new(17);
        let mut faults = FaultState::healthy();
        faults.seed(FaultSeed {
            condition,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(0.9),
        });
        let window: Vec<_> = (0..20)
            .map(|k| model.sample(SimTime::from_secs(5.0 + k as f64 * 0.45), 0.9, &faults))
            .collect();
        let fuzzy_hit = fuzzy
            .analyze(&window)
            .expect("analyzable")
            .iter()
            .any(|d| d.condition == condition);

        let detected = dli_hit || fuzzy_hit;
        if !detected {
            missed.push(condition);
        }
        t.row(&[
            format!("{}", i + 1),
            condition.to_string(),
            condition.group().to_string(),
            if dli_hit { "✓" } else { "-" }.into(),
            if fuzzy_hit { "✓" } else { "-" }.into(),
            if detected { "yes" } else { "NO" }.into(),
        ]);
    }
    println!(
        "E9: the 12 FMEA failure modes and their evidence channels (§3.3)\n\n{}",
        t.render()
    );

    assert_eq!(
        MachineCondition::ALL.len(),
        12,
        "E9.1 exactly 12 modes, as in the paper's FMEA selection"
    );
    assert!(
        missed.is_empty(),
        "E9.2 every mode has an evidence channel: no knowledge source detects {missed:?} \
         at severity 0.9"
    );
}

/// One E10 campaign run: when a fault was first listed and what the
/// fused prognosis said later.
struct Outcome {
    detected_at: Option<SimTime>,
    severity_at_detection: f64,
    /// Fused median TTF at 60 % and at 95 % of the horizon.
    ttf_mid: Option<SimDuration>,
    ttf_late: Option<SimDuration>,
}

fn median_ttf(sim: &ShipboardSim, condition: MachineCondition) -> Option<SimDuration> {
    sim.pdme()
        .maintenance_list()
        .iter()
        .find(|i| i.condition == condition)
        .and_then(|i| i.median_time_to_failure)
}

/// Seed `condition` with early-onset progression over a 20-minute
/// horizon on a 1-DC ship and run the full stack through it.
fn run_mode(condition: MachineCondition) -> Outcome {
    let horizon = SimDuration::from_minutes(20.0);
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(23)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    let onset = SimTime::ZERO + SimDuration::from_minutes(1.0);
    sim.seed_fault(
        0,
        FaultSeed {
            condition,
            onset,
            time_to_failure: horizon,
            profile: FaultProfile::EarlyOnset,
        },
    );

    let dt = SimDuration::from_secs(0.25);
    let mid_checkpoint = onset + horizon * 0.6;
    let late_checkpoint = onset + horizon * 0.95;
    let mut o = Outcome {
        detected_at: None,
        severity_at_detection: 0.0,
        ttf_mid: None,
        ttf_late: None,
    };
    while sim.now() < onset + horizon {
        sim.step(dt).expect("step");
        if o.detected_at.is_none()
            && sim
                .pdme()
                .maintenance_list()
                .iter()
                .any(|i| i.condition == condition && i.belief > 0.3)
        {
            o.detected_at = Some(sim.now());
            o.severity_at_detection = sim.plant(0).faults().severity(condition, sim.now());
        }
        if o.ttf_mid.is_none() && sim.now() >= mid_checkpoint {
            o.ttf_mid = median_ttf(&sim, condition);
        }
        if o.ttf_late.is_none() && sim.now() >= late_checkpoint {
            o.ttf_late = median_ttf(&sim, condition);
        }
    }
    o
}

/// E10 — §9 validation by seeded faults: every failure mode seeded on
/// the full stack, plus a healthy control. The campaign compresses a
/// degradation into 20 simulated minutes while the grade templates
/// speak calendar time, so absolute TTFs cannot match; what must hold
/// is that prognoses appear and that the median TTF shrinks as the
/// fault progresses.
#[test]
fn e10_seeded_faults() {
    let mut t = Table::new(&[
        "failure mode",
        "detected",
        "gt severity @ detect",
        "median TTF @60%",
        "median TTF @95%",
    ]);
    let mut detected_count = 0usize;
    let mut early_detections = 0usize;
    let mut with_prognosis = 0usize;
    let mut urgency_monotone = 0usize;
    for condition in MachineCondition::ALL {
        let o = run_mode(condition);
        if o.detected_at.is_some() {
            detected_count += 1;
            if o.severity_at_detection < 0.95 {
                early_detections += 1;
            }
        }
        if o.ttf_late.is_some() {
            with_prognosis += 1;
        }
        match (o.ttf_mid, o.ttf_late) {
            (Some(mid), Some(late)) if late <= mid => urgency_monotone += 1,
            // Appeared only late: urgency went from "none" to "some".
            (None, Some(_)) => urgency_monotone += 1,
            _ => {}
        }
        let show = |d: Option<SimDuration>| d.map(|d| d.to_string()).unwrap_or_else(|| "-".into());
        t.row(&[
            condition.to_string(),
            o.detected_at
                .map(|d| d.to_string())
                .unwrap_or_else(|| "MISSED".into()),
            format!("{:.2}", o.severity_at_detection),
            show(o.ttf_mid),
            show(o.ttf_late),
        ]);
    }
    println!(
        "E10: seeded-fault validation campaign (§9)\n\n{}",
        t.render()
    );

    // Healthy control.
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(1)
            .with_seed(29)
            .with_survey_period(SimDuration::from_secs(30.0)),
    )
    .expect("sim builds");
    sim.run_for(
        SimDuration::from_minutes(10.0),
        SimDuration::from_secs(0.25),
    )
    .expect("runs");
    let false_alarms = sim.pdme().maintenance_list().len();

    assert!(
        detected_count == 12,
        "E10.1 detection coverage: {detected_count}/12 modes detected before functional failure"
    );
    assert!(
        early_detections >= 10,
        "E10.2 detections are early: {early_detections}/{detected_count} detected below \
         severity 0.95, expected ≥ 10"
    );
    assert!(
        with_prognosis >= 9 && urgency_monotone + 1 >= with_prognosis,
        "E10.3 prognoses appear and grow more urgent: {with_prognosis}/12 modes carried a \
         fused prognosis by 95% of life (expected ≥ 9), urgency monotone for \
         {urgency_monotone} of them"
    );
    assert!(
        false_alarms == 0,
        "E10.4 healthy control stays clean: {false_alarms} false alarms over 10 healthy minutes"
    );
}

/// E12 — §4.5: clients are "notified of changes to property or
/// relationship values without the need to poll". Times a full report
/// post and one property change drained by 1, 4 and 16 subscribers.
#[test]
fn e12_oosm_events() {
    const WARMUP: u64 = 1_000;
    const TIMED: u64 = 10_000;

    // Report posting, with one subscriber draining after every post.
    let mut oosm = Oosm::new();
    oosm.register_machine(MachineId::new(1), "motor");
    let kf = oosm.subscribe();
    let mut post_us = Vec::with_capacity(TIMED as usize);
    for i in 1..=WARMUP + TIMED {
        let report = ConditionReport::builder(
            MachineId::new(1),
            MachineCondition::MotorImbalance,
            Belief::new(0.5),
        )
        .id(ReportId::new(i))
        .build();
        let start = Instant::now();
        oosm.post_report(&report).expect("postable");
        let elapsed = start.elapsed();
        if i > WARMUP {
            post_us.push(elapsed.as_secs_f64() * 1e6);
        }
        kf.drain();
    }
    post_us.sort_by(f64::total_cmp);

    // Property-change fan-out: one change, then every subscriber drains.
    let mut t = Table::new(&["operation", "subscribers", "p50 (µs)", "p99 (µs)"]);
    t.row(&[
        "post_report".into(),
        "1".into(),
        format!("{:.2}", percentile(&post_us, 0.5)),
        format!("{:.2}", percentile(&post_us, 0.99)),
    ]);
    let mut inexact_fanout = Vec::new();
    for subs in [1usize, 4, 16] {
        let mut oosm = Oosm::new();
        let subscriptions: Vec<_> = (0..subs).map(|_| oosm.subscribe()).collect();
        let obj = oosm.create_object(ObjectKind::Machine, "m");
        for s in &subscriptions {
            s.drain();
        }
        let mut fan_us = Vec::with_capacity(TIMED as usize);
        let mut exact = true;
        for i in 1..=(WARMUP + TIMED) as i64 {
            let start = Instant::now();
            oosm.set_property(obj, "rpm", Value::Int(i))
                .expect("settable");
            let drained: Vec<_> = subscriptions.iter().map(|s| s.drain()).collect();
            let elapsed = start.elapsed();
            if i > WARMUP as i64 {
                fan_us.push(elapsed.as_secs_f64() * 1e6);
            }
            exact &= drained.iter().all(|events| {
                matches!(events.as_slice(), [OosmEvent::PropertyChanged { value: Value::Int(v), .. }] if *v == i)
            });
        }
        if !exact {
            inexact_fanout.push(subs);
        }
        fan_us.sort_by(f64::total_cmp);
        t.row(&[
            "set_property + drain".into(),
            subs.to_string(),
            format!("{:.2}", percentile(&fan_us, 0.5)),
            format!("{:.2}", percentile(&fan_us, 0.99)),
        ]);
    }
    println!("E12: OOSM events without polling (§4.5)\n\n{}", t.render());

    assert!(
        inexact_fanout.is_empty(),
        "E12.2 every subscriber sees every change once: with {inexact_fanout:?} subscribers \
         a drain after a change was not exactly one PropertyChanged carrying its value"
    );
    let p50 = percentile(&post_us, 0.5);
    assert!(
        p50 < 1_000.0,
        "E12.3 posting a report is microseconds-scale: post_report p50 {p50:.2} µs over \
         {TIMED} posts, bound 1000 µs"
    );
}

/// Mean and standard deviation (floored at 1e-9) of each feature.
fn zscore_stats(samples: &[(Vec<f64>, usize)]) -> (Vec<f64>, Vec<f64>) {
    let dim = samples[0].0.len();
    let n = samples.len() as f64;
    let mut mean = vec![0.0; dim];
    for (x, _) in samples {
        for (m, v) in mean.iter_mut().zip(x) {
            *m += v / n;
        }
    }
    let mut std = vec![0.0; dim];
    for (x, _) in samples {
        for ((s, v), m) in std.iter_mut().zip(x).zip(&mean) {
            *s += (v - m) * (v - m) / n;
        }
    }
    for s in std.iter_mut() {
        *s = s.sqrt().max(1e-9);
    }
    (mean, std)
}

fn zscore(x: &[f64], mean: &[f64], std: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(mean)
        .zip(std)
        .map(|((v, m), s)| (v - m) / s)
        .collect()
}

/// Held-out accuracy of a `[24]`-hidden network with `activation`,
/// trained on the z-scored `train` split.
fn accuracy_with_activation(
    train: &Dataset,
    test: &Dataset,
    classes: usize,
    activation: Activation,
) -> f64 {
    let (mean, std) = zscore_stats(&train.samples);
    let norm = |ds: &Dataset| -> Vec<(Vec<f64>, usize)> {
        ds.samples
            .iter()
            .map(|(x, y)| (zscore(x, &mean, &std), *y))
            .collect()
    };
    let dim = train.samples[0].0.len();
    let mut net = Network::new(dim, &[24], classes, activation, 7).expect("valid shape");
    net.train(
        &norm(train),
        &TrainParams {
            epochs: 220,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");
    let test_n = norm(test);
    let correct = test_n
        .iter()
        .filter(|(x, y)| net.classify(x).0 == *y)
        .count();
    correct as f64 / test_n.len() as f64
}

/// E-WNN — §6.2: the wavelet neural network's held-out accuracy per
/// fault class, and the activation ablation (Mexican-hat hidden units
/// vs a tanh MLP of the same shape).
#[test]
fn e_wnn_accuracy() {
    let config = WnnConfig::standard();
    let ds = DatasetBuilder::new(config.clone(), 3)
        .build()
        .expect("buildable");
    let (train, test) = ds.split(4);
    let clf = WnnClassifier::train(
        config.clone(),
        &train,
        &TrainParams {
            epochs: 220,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");

    let mut t = Table::new(&["class", "accuracy", "cases"]);
    let mut per_class = vec![(0usize, 0usize); config.classes.len()];
    for (x, y) in &test.samples {
        let v = clf.classify_features(x).expect("classifiable");
        let predicted = v
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        per_class[*y].1 += 1;
        if predicted == *y {
            per_class[*y].0 += 1;
        }
    }
    for (class, &(ok, n)) in config.classes.iter().zip(&per_class) {
        if n > 0 {
            t.row(&[
                class.label(),
                format!("{:.0}%", 100.0 * ok as f64 / n as f64),
                format!("{ok}/{n}"),
            ]);
        }
    }
    let overall = clf.accuracy(&test).expect("scorable");
    // Activation ablation on the identical split.
    let classes = config.classes.len();
    let acc_wavelet = accuracy_with_activation(&train, &test, classes, Activation::MexicanHat);
    let acc_tanh = accuracy_with_activation(&train, &test, classes, Activation::Tanh);
    println!(
        "E-WNN: wavelet neural network classification (§6.2)\n\n\
         corpus: {} channels × {} samples, {classes} classes, feature dim {}; \
         {} train / {} test\n\n{}\n\
         overall held-out accuracy: {:.1}%\n\
         activation ablation (same shape, data, schedule): mexican-hat {:.1}% vs tanh {:.1}%",
        config.channels.len(),
        config.block_len,
        config.feature_dim(),
        train.len(),
        test.len(),
        t.render(),
        overall * 100.0,
        acc_wavelet * 100.0,
        acc_tanh * 100.0
    );

    assert!(
        overall >= 0.85,
        "E-WNN.1 classifier learns the fault classes: {:.1}% held-out accuracy over \
         {classes} classes, expected ≥ 85%",
        overall * 100.0
    );
    assert!(
        acc_wavelet >= acc_tanh - 0.05,
        "E-WNN.2 wavelet activation is competitive: mexican-hat {:.1}% vs tanh {:.1}%",
        acc_wavelet * 100.0,
        acc_tanh * 100.0
    );
}

/// E-BN — §5.3/§10.1: Dempster–Shafer today, Bayes nets "when
/// sufficient data exists". With representative history a learned
/// noisy-OR network turns one symptom into a sharper posterior than two
/// DS reports reach; DS, which never claimed to know the priors, keeps
/// its residual on "unknown".
#[test]
fn e_bn_bayes_vs_ds() {
    // Ground truth: bearing defects are common on this fleet (prior
    // 0.2), imbalance rare (0.02); symptom 0 = BPFO envelope line,
    // symptom 1 = high 1x; leaks 0.03 / 0.05. Representative history:
    // records drawn deterministically, via expected frequencies, from
    // that truth.
    let mut records: Vec<(u32, Vec<bool>)> = Vec::new();
    for mask in 0u32..4 {
        let weight = {
            let p0: f64 = if mask & 1 != 0 { 0.2 } else { 0.8 };
            let p1: f64 = if mask & 2 != 0 { 0.02 } else { 0.98 };
            (p0 * p1 * 1_000.0).round() as usize
        };
        for k in 0..weight.max(2) {
            let symptoms: Vec<bool> = (0..2)
                .map(|s| {
                    let mut miss = 1.0 - [0.03, 0.05][s];
                    for f in 0..2 {
                        if mask & (1 << f) != 0 {
                            miss *= 1.0 - [[0.9, 0.05], [0.1, 0.9]][s][f];
                        }
                    }
                    (k as f64 + 0.5) / weight.max(2) as f64 > miss
                })
                .collect();
            records.push((mask, symptoms));
        }
    }
    let learned = NoisyOrNetwork::learn(
        vec!["bearing defect".into(), "imbalance".into()],
        2,
        &records,
    )
    .expect("learnable");

    // Scenario: the BPFO symptom fires, the 1x symptom does not.
    let bn_post = learned
        .posterior(&[Some(true), Some(false)])
        .expect("inferable");
    // DS sees the same situation as two moderate reports (belief 0.6:
    // a sensor symptom is not a certain diagnosis) in a 3-frame
    // (bearing, imbalance, other).
    let report = MassFunction::simple_support(3, Subset::singleton(0), 0.6).expect("valid");
    let ds = report.combine(&report).expect("combinable").0;
    let ds_bearing = ds.belief(Subset::singleton(0));

    let mut t = Table::new(&["engine", "P(bearing)", "P(imbalance)", "residual"]);
    t.row(&[
        "BN (learned priors), 1 symptom".into(),
        format!("{:.2}", bn_post[0]),
        format!("{:.2}", bn_post[1]),
        "-".into(),
    ]);
    t.row(&[
        "DS, two 0.6 reports".into(),
        format!("{ds_bearing:.2}"),
        format!("{:.2}", ds.belief(Subset::singleton(1)).max(0.0)),
        format!("{:.2} on Θ", ds.unknown()),
    ]);
    // With history from a different fleet, where the BPFO symptom fires
    // spuriously, the BN still commits to the same posterior.
    println!(
        "E-BN: Bayesian network vs Dempster–Shafer (§5.3, §10.1)\n\n{}\n\
         with mismatched history the BN still asserts P(bearing)={:.2}; DS keeps {:.2} \
         of explicit 'unknown' mass",
        t.render(),
        bn_post[0],
        ds.unknown()
    );

    assert!(
        bn_post[0] > ds_bearing,
        "E-BN.1 priors sharpen inference: one symptom + history gives {:.3}, two \
         prior-free reports {ds_bearing:.3}",
        bn_post[0]
    );
    assert!(
        ds.unknown() > 0.1,
        "E-BN.2 DS keeps explicit ignorance: {:.3} residual on Θ, expected > 0.1",
        ds.unknown()
    );
}

/// E-hazard — §10.1: survival analysis "to refine the estimates of
/// life-cycle performance". A Weibull model fitted to a synthetic
/// wear-out history (β = 2.6), rendered as an age-conditioned §5.4
/// prognostic vector and fused with a live diagnostic prognosis.
#[test]
fn e_hazard_refinement() {
    // Fleet history: 60 bearing lives (hours), wear-out shaped, plus 20
    // still-running units — the "archives of maintenance data" of §9.
    let shape = 2.6;
    let scale = 8_000.0;
    let mut history: Vec<Lifetime> = (1..=60)
        .map(|i| {
            let u = i as f64 / 61.0;
            Lifetime::failure(scale * (-(1.0 - u).ln()).powf(1.0 / shape))
        })
        .collect();
    history.extend((0..20).map(|_| Lifetime::censored(6_500.0)));
    let fit = WeibullFit::fit(&history).expect("fittable");

    // Age-conditioning: a fresh unit vs one run well past its design
    // life (12 000 h on an 8 000 h scale).
    let horizons = [250.0, 750.0, 1_500.0, 3_000.0, 6_000.0];
    let fresh = fit
        .prognostic_vector(0.0, &horizons, SimDuration::from_hours)
        .expect("valid");
    let aged = fit
        .prognostic_vector(12_000.0, &horizons, SimDuration::from_hours)
        .expect("valid");
    let p = |v: &PrognosticVector, h: f64| v.probability_at(SimDuration::from_hours(h)).value();
    let mut t = Table::new(&["horizon (h)", "fresh unit P(fail)", "12000 h unit P(fail)"]);
    for &h in &horizons {
        t.row(&[
            format!("{h:.0}"),
            format!("{:.3}", p(&fresh, h)),
            format!("{:.3}", p(&aged, h)),
        ]);
    }

    // Refinement: a live Moderate-grade diagnosis (failure in months)
    // fused with the aged unit's survival curve pulls the estimate
    // earlier.
    let template = grade_template(SeverityGrade::Moderate);
    let fused = fuse_prognostics(&[template.clone(), aged.clone()]).expect("fusable");
    let med = |v: &PrognosticVector| {
        v.horizon_for_probability(0.5)
            .map(|d| d.as_days())
            .unwrap_or(f64::INFINITY)
    };
    println!(
        "E-hazard: survival-analysis refinement of prognostics (§10.1)\n\n\
         fitted Weibull: shape β = {:.2} (true 2.6), scale η = {:.0} h (true 8000), \
         median life {:.0} h\n{}\n\
         median failure estimate: grade template {:.0} d, history-conditioned {:.1} d, \
         fused (conservative) {:.1} d",
        fit.shape,
        fit.scale,
        fit.median(),
        t.render(),
        med(&template),
        med(&aged),
        med(&fused)
    );

    // Heavy censoring at 6500 h biases the shape slightly up.
    assert!(
        (fit.shape - shape).abs() < 0.6 && (fit.scale - scale).abs() / scale < 0.1,
        "E-hazard.1 MLE recovers the life model: shape {:.2} (true {shape}, tolerance 0.6), \
         scale {:.0} (true {scale}, tolerance 10%)",
        fit.shape,
        fit.scale
    );
    let (p_fresh, p_aged) = (p(&fresh, 1_500.0), p(&aged, 1_500.0));
    assert!(
        p_aged > 5.0 * p_fresh,
        "E-hazard.2 age-conditioning matters: 1500 h risk aged {p_aged:.3} vs fresh \
         {p_fresh:.3}, expected more than 5×"
    );
    assert!(
        med(&fused) < med(&template),
        "E-hazard.3 history sharpens the fused prognosis: fused median {:.1} d vs grade \
         template {:.1} d",
        med(&fused),
        med(&template)
    );
}

/// A survey of an unloaded, *healthy* compressor whose idle rattle
/// looks loose: a mild looseness signature below the 0.35 severity that
/// analysts report, present only at low load (the §6.1 trap).
fn idle_rattle_survey(seed: u64, load: f64) -> VibrationSurvey {
    let train = MachineTrain::navy_chiller(MachineId::new(1));
    let synth = VibrationSynthesizer::new(train.clone(), seed);
    let mut faults = FaultState::healthy();
    let rattle = ((0.35 - load).max(0.0) / 0.35).min(1.0) * 0.55;
    if rattle > 0.0 {
        faults.seed(FaultSeed {
            condition: MachineCondition::BearingHousingLooseness,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: FaultProfile::Step(rattle),
        });
    }
    let fs = 16_384.0;
    let t0 = SimTime::from_secs(40.0 + seed as f64);
    VibrationSurvey {
        train,
        load,
        sample_rate: fs,
        blocks: AccelLocation::ALL
            .iter()
            .map(|&loc| (loc, synth.sample_block(loc, t0, 32_768, fs, load, &faults)))
            .collect(),
    }
}

/// §6.1 ablation — load sensitization: the looseness rule "can be
/// sensitized to available load indicators ... to ensure that a false
/// positive bearing looseness call is not made when the compressor
/// enters a low load period". It must hold its fire at low load without
/// losing real detections under load.
#[test]
fn e_ablation_load_sensitization() {
    let mut sensitized = DliExpertSystem::new();
    sensitized.load_sensitized = true;
    let mut raw = DliExpertSystem::new();
    raw.load_sensitized = false;
    let looseness_called = |dli: &DliExpertSystem, survey: &VibrationSurvey| {
        dli.analyze(survey)
            .expect("analyzable")
            .iter()
            .any(|d| d.condition == MachineCondition::BearingHousingLooseness)
    };
    let seeds: Vec<u64> = (0..6).map(|i| 301 + i * 13).collect();
    let n = seeds.len();

    // Low-load healthy machines with idle rattle: any call is a false
    // positive. Loaded machines with genuine looseness: a call is a
    // true positive.
    let (mut fp_sens, mut fp_raw, mut tp_sens, mut tp_raw) = (0usize, 0usize, 0usize, 0usize);
    for &seed in &seeds {
        let survey = idle_rattle_survey(seed, 0.12);
        fp_sens += usize::from(looseness_called(&sensitized, &survey));
        fp_raw += usize::from(looseness_called(&raw, &survey));
    }
    for &seed in &seeds {
        let survey = labeled_survey(
            Some(MachineCondition::BearingHousingLooseness),
            0.8,
            0.85,
            seed,
            32_768,
        );
        tp_sens += usize::from(looseness_called(&sensitized, &survey));
        tp_raw += usize::from(looseness_called(&raw, &survey));
    }
    let mut t = Table::new(&["scenario", "load", "sensitized FP/TP", "unsensitized FP/TP"]);
    t.row(&[
        "healthy, idle rattle".into(),
        "0.12".into(),
        format!("{fp_sens}/{n} FP"),
        format!("{fp_raw}/{n} FP"),
    ]);
    t.row(&[
        "genuine looseness".into(),
        "0.85".into(),
        format!("{tp_sens}/{n} TP"),
        format!("{tp_raw}/{n} TP"),
    ]);
    println!(
        "E-ablation: load sensitization of the looseness rule (§6.1)\n\n{}",
        t.render()
    );

    assert!(
        fp_sens == 0 && fp_raw == n,
        "ablation.1 sensitized rule avoids the low-load trap: false positives sensitized \
         {fp_sens}, unsensitized {fp_raw} of {n}, expected 0 and {n}"
    );
    assert!(
        tp_sens == n && tp_raw == n,
        "ablation.2 sensitization costs no loaded detections: true positives sensitized \
         {tp_sens}, unsensitized {tp_raw} of {n}"
    );
}

/// Worst amplitude error of a unit tone at bin 100 plus each fractional
/// offset, through `window` and the spectrum's peak interpolation.
fn worst_error(window: Window, offsets: &[f64]) -> f64 {
    let fs = 16_384.0;
    let n = 8_192;
    let df = fs / n as f64;
    let mut worst = 0.0f64;
    for &frac in offsets {
        let f = 100.0 * df + frac * df;
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let spec = Spectrum::compute(&sig, fs, window).expect("valid");
        worst = worst.max((spec.amplitude_near(f, 3.0 * df) - 1.0).abs());
    }
    worst
}

/// DSP ablation — window choice vs amplitude accuracy. DLI severity
/// grading reads absolute spectral amplitudes, so scalloping loss biases
/// severity: the rationale for the Hann default (DESIGN.md).
#[test]
fn e_ablation_window_choice() {
    let offsets = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let mut t = Table::new(&["window", "worst amplitude error (0..½ bin offset)"]);
    let errors: Vec<(Window, f64)> = Window::ALL
        .iter()
        .map(|&w| (w, worst_error(w, &offsets)))
        .collect();
    for (w, err) in &errors {
        t.row(&[w.name().into(), format!("{:.1}%", err * 100.0)]);
    }
    println!(
        "E-ablation: FFT window choice vs amplitude accuracy\n\n{}",
        t.render()
    );
    let error_of = |window: Window| {
        errors
            .iter()
            .find(|(w, _)| *w == window)
            .expect("present")
            .1
    };
    let (rect, hann, flat) = (
        error_of(Window::Rectangular),
        error_of(Window::Hann),
        error_of(Window::FlatTop),
    );

    assert!(
        hann < rect,
        "window.1 hann beats rectangular for off-grid tones: {:.1}% vs {:.1}% worst error",
        hann * 100.0,
        rect * 100.0
    );
    assert!(
        flat <= hann,
        "window.2 flattop is the amplitude-accuracy ceiling: {:.1}% vs hann {:.1}%",
        flat * 100.0,
        hann * 100.0
    );
    assert!(
        hann < 0.10,
        "window.3 hann within severity-grading tolerance: {:.1}% worst-case amplitude \
         error, bound 10%",
        hann * 100.0
    );
}

/// E-transient — §1.1: the WNN "will excel in drawing conclusions from
/// transitory phenomena rather than steady state data", while DLI's
/// order-domain rules are built for constant shaft speed. Both face the
/// same chiller coast-ups with seeded rotor faults.
#[test]
fn e_transient_wnn() {
    const FS: f64 = 4_096.0;
    const N: usize = 16_384;
    const CLASSES: [Option<MachineCondition>; 4] = [
        None,
        Some(MachineCondition::MotorImbalance),
        Some(MachineCondition::MotorMisalignment),
        Some(MachineCondition::BearingHousingLooseness),
    ];
    let train = MachineTrain::navy_chiller(MachineId::new(1));
    let features = |block: &[f64]| -> Vec<f64> {
        FeatureVector::extract(block, &FeatureConfig::default(), &[])
            .expect("power-of-two block")
            .values()
            .to_vec()
    };

    // Corpus: coast-ups at 3 severities × 4 ramps × 4 seeds per class.
    let severities = [0.5, 0.7, 0.9];
    let ramps = [2.5, 3.0, 3.5, 4.0];
    let mut samples: Vec<(Vec<f64>, usize)> = Vec::new();
    for seed in 0..4u64 {
        let synth = StartupSynthesizer::new(train.clone(), 100 + seed * 17);
        for (label, class) in CLASSES.iter().enumerate() {
            for &ramp in &ramps {
                for &sev in &severities {
                    let block = synth.coastup_block(N, FS, ramp, class.map(|c| (c, sev)), 1.0);
                    samples.push((features(&block), label));
                    if class.is_none() {
                        break; // healthy needs no severity sweep
                    }
                }
            }
        }
    }
    let (train_set, test_set): (Vec<_>, Vec<_>) = samples
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 4 != 0);
    let train_set: Vec<(Vec<f64>, usize)> = train_set.into_iter().map(|(_, s)| s).collect();
    let test_set: Vec<(Vec<f64>, usize)> = test_set.into_iter().map(|(_, s)| s).collect();

    // Z-score, train the WNN.
    let (mean, std) = zscore_stats(&train_set);
    let dim = train_set[0].0.len();
    let mut net =
        Network::new(dim, &[16], CLASSES.len(), Activation::MexicanHat, 7).expect("valid shape");
    let normalized: Vec<(Vec<f64>, usize)> = train_set
        .iter()
        .map(|(x, y)| (zscore(x, &mean, &std), *y))
        .collect();
    net.train(
        &normalized,
        &TrainParams {
            epochs: 300,
            learning_rate: 0.02,
            ..Default::default()
        },
    )
    .expect("trains");
    let wnn_correct = test_set
        .iter()
        .filter(|(x, y)| net.classify(&zscore(x, &mean, &std)).0 == *y)
        .count();
    let wnn_acc = wnn_correct as f64 / test_set.len() as f64;

    // DLI on the same kind of faulted coast-ups: steady-state order
    // rules against chirped spectra.
    let dli = DliExpertSystem::new();
    let mut dli_hits = 0usize;
    let mut dli_cases = 0usize;
    for seed in 10..14u64 {
        let synth = StartupSynthesizer::new(train.clone(), seed * 31);
        for class in CLASSES.iter().flatten() {
            for &sev in &severities {
                let block = synth.coastup_block(N, FS, 3.0, Some((*class, sev)), 1.0);
                let survey = VibrationSurvey {
                    train: train.clone(),
                    load: 1.0,
                    sample_rate: FS,
                    blocks: vec![(AccelLocation::MotorDriveEnd, block)],
                };
                dli_cases += 1;
                let out = dli.analyze(&survey).expect("analyzable");
                dli_hits += usize::from(out.iter().any(|d| d.condition == *class));
            }
        }
    }
    let dli_rate = dli_hits as f64 / dli_cases as f64;

    let mut t = Table::new(&["system", "transient performance"]);
    t.row(&[
        "WNN (trained on transients)".into(),
        format!(
            "{:.0}% classification accuracy ({wnn_correct}/{})",
            wnn_acc * 100.0,
            test_set.len()
        ),
    ]);
    t.row(&[
        "DLI steady-state rules".into(),
        format!(
            "{:.0}% detection rate ({dli_hits}/{dli_cases})",
            dli_rate * 100.0
        ),
    ]);
    println!(
        "E-transient: WNN vs DLI on startup transients (§1.1)\n\n{}",
        t.render()
    );

    assert!(
        wnn_acc >= 0.85,
        "E-transient.1 WNN handles transitory phenomena: {:.0}% held-out accuracy on \
         coast-up blocks, expected ≥ 85%",
        wnn_acc * 100.0
    );
    assert!(
        dli_rate < wnn_acc - 0.2,
        "E-transient.2 steady-state rules degrade on chirps: DLI {:.0}% vs WNN {:.0}%, \
         expected a gap over 20 points",
        dli_rate * 100.0,
        wnn_acc * 100.0
    );
}
