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
/// Median heap allocations per quiet step: 166 measured plus a margin
/// of 9 (5%). Of the 166 the serving publish makes about 126 (the owned
/// sim-domain lists it serves) and the recorder 5; the watchdog, which
/// updates one verdict in place, makes none. When the watchdog rendered
/// its labels and cloned its verdict every pass the median was 183, and
/// when each reader copied the whole domain, 520.
const CEILING: u64 = 175;

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
