//! Allocation gate for one quiet ship step with its per-step readers.
//!
//! After its work, every ship step runs three readers of the telemetry
//! domain: the SLO watchdog, the flight recorder and the serving
//! publish. Each needs only part of the domain, and what a reader
//! allocates on a quiet step is what it copies. A counting global
//! allocator wraps the system allocator. The test steps a quiet 8-DC
//! ship (dt = 1 s, a survey period longer than the run, so no DC
//! surveys after warm-up) with the standard SLO policy and a gateway
//! attached, and counts the heap allocations of each step after
//! warm-up. The median per step must stay under a ceiling.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros::core::SimDuration;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};
use mpros::telemetry::SloPolicy;

/// Wraps [`System`]; counts alloc/realloc/alloc_zeroed while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const DCS: usize = 8;
/// Steps before counting: the first survey, the recorder's ring filling
/// to its capacity of 64, and the first checkpoints.
const WARM_UP: u64 = 100;
/// Steps counted.
const SAMPLES: usize = 101;
/// Median heap allocations per quiet step: 30 measured plus a margin
/// of 1 (under 5%). A counting-allocator probe that captures a backtrace
/// per allocation splits the 30:
/// - the serving publish, 8: the value lists of its `SimSeries` (3),
///   the shared ICAS machine list and its revisions (2), the DC
///   liveness list (1), the `Arc` it is published in (1), and the checks
///   list of the SLO verdict it serves (1; the rule labels are shared);
/// - the flight recorder, 15: the checks list of the step record's SLO
///   verdict (1), the sim-domain gauges (5: the list and two names each
///   for 2 gauges) and the counters that moved (9: the list and two
///   names each for the 4 that move on a quiet step);
/// - the ship step, 5: the DC job list (2), the per-DC command lists
///   (1), the DC-step output list (1) and the outbox key list that
///   `pump_outboxes` walks (1);
/// - the PDME supervise pass, 2: its WAL record's encoding.
///
/// The watchdog, which updates one verdict in place, makes none, and
/// neither do the DC schedulers, which refill a due-task list each DC
/// keeps. When each verdict copy also cloned its 4 rule labels and each
/// DC collected a new due-task list the median was 46, when the serving
/// publish copied every series name at every step 160 (the publish made
/// about 126), when the watchdog also rendered its labels and cloned its
/// verdict every pass 183, and when each reader copied the whole
/// domain, 520.
const CEILING: u64 = 31;

#[test]
fn a_quiet_step_allocates_under_a_ceiling() {
    let dt = SimDuration::from_secs(1.0);
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(DCS)
            .with_seed(5)
            .with_slo(SloPolicy::standard(30.0, 120.0, 0.9))
            .with_survey_period(SimDuration::from_secs(10_000.0)),
    )
    .expect("sim builds");
    let gateway = sim.attach_gateway();
    while sim.steps() < WARM_UP {
        sim.step(dt).expect("step");
    }
    let mut counts = Vec::with_capacity(SAMPLES);
    let mut fused = 0;
    for _ in 0..SAMPLES {
        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let step = sim.step(dt);
        ARMED.store(false, Ordering::SeqCst);
        counts.push(ALLOCATIONS.load(Ordering::SeqCst));
        fused += step.expect("step");
    }
    assert_eq!(fused, 0, "a quiet ship fuses no reports");
    assert_eq!(
        gateway.snapshot().version,
        sim.steps(),
        "every step published"
    );
    counts.sort_unstable();
    let median = counts[SAMPLES / 2];
    assert!(
        median <= CEILING,
        "median {median} heap allocations per quiet step (ceiling {CEILING}); \
         min {}, max {}",
        counts[0],
        counts[SAMPLES - 1]
    );
}
