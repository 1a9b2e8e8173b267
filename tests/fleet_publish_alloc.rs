//! Allocation gate for one quiet fleet step.
//!
//! A fleet step steps every ship, each of which publishes its serving
//! snapshot, and then publishes the fleet snapshot. On a quiet step no
//! ship's knowledge moves, so the fleet publish shares the census and
//! the prognostic envelopes with the previous fleet snapshot and leaves
//! the counter sums to the first `GetFleetRollup`; each ship publish
//! shares its series names and reads only their values. A counting
//! global allocator wraps the system allocator. The test steps a quiet
//! 4-ship fleet of 2-DC ships (dt = 1 s, a survey period longer than the
//! run, standard SLO policy) and counts the heap allocations of each
//! `Fleet::step` after warm-up. The median per step must stay under a
//! ceiling.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros::core::SimDuration;
use mpros::fleet::{Fleet, FleetConfig};
use mpros::sim::ShipboardSimConfig;
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

const SHIPS: usize = 4;
const DCS: usize = 2;
/// Fleet steps before counting: the first survey, every recorder ring
/// filling to its capacity of 64, and the first checkpoints.
const WARM_UP: usize = 100;
/// Steps counted.
const SAMPLES: usize = 101;
/// Median heap allocations per quiet fleet step: 118 measured plus a
/// margin of 5 (under 5%). When every DC collected a new due-task list
/// and every copy of an SLO verdict cloned its rule labels, the median
/// was 158; when every ship publish also copied its series names and
/// the fleet publish summed the counters and deep-cloned the census at
/// every step, 580.
const CEILING: u64 = 123;

#[test]
fn a_quiet_fleet_step_allocates_under_a_ceiling() {
    let dt = SimDuration::from_secs(1.0);
    let ship = ShipboardSimConfig::new()
        .with_dc_count(DCS)
        .with_slo(SloPolicy::standard(30.0, 120.0, 0.9))
        .with_survey_period(SimDuration::from_secs(10_000.0));
    let mut fleet = Fleet::new(
        FleetConfig::new()
            .with_ship_count(SHIPS)
            .with_seed(5)
            .with_ship(ship),
    )
    .expect("fleet builds");
    for _ in 0..WARM_UP {
        fleet.step(dt).expect("step");
    }
    let fused = |fleet: &Fleet| -> usize {
        (0..SHIPS)
            .map(|s| fleet.ship(s).pdme().fusion().reports_ingested())
            .sum()
    };
    let fused_before = fused(&fleet);
    let mut counts = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let step = fleet.step(dt);
        ARMED.store(false, Ordering::SeqCst);
        counts.push(ALLOCATIONS.load(Ordering::SeqCst));
        step.expect("step");
    }
    assert_eq!(
        fleet.gateway().version(),
        fleet.version(),
        "every step published"
    );
    assert_eq!(
        fused(&fleet),
        fused_before,
        "a quiet fleet fuses no reports"
    );
    counts.sort_unstable();
    let median = counts[SAMPLES / 2];
    assert!(
        median <= CEILING,
        "median {median} heap allocations per quiet fleet step (ceiling {CEILING}); \
         min {}, max {}",
        counts[0],
        counts[SAMPLES - 1]
    );
}
