//! Memory gate for a ship at sea: a healthy ship's live heap does not
//! grow with time, apart from its write-ahead log.
//!
//! A DC runs for months, so what it keeps must be bounded by a window,
//! not by the time it has run. A counting global allocator tracks live
//! heap bytes (allocated minus freed). The test steps a healthy 4-DC
//! ship at dt = 1 s, with a survey period longer than the run, and
//! compares the live heap after 4,000 steps with the live heap after
//! 1,000. The one thing allowed to grow is the PDME's in-memory WAL,
//! which keeps every frame by design until compaction bounds it: the
//! growth must stay under what the WAL's buffer can account for plus a
//! small fixed slack.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mpros::core::SimDuration;
use mpros::sim::{ShipboardSim, ShipboardSimConfig};

/// Wraps [`System`]; keeps a running total of live heap bytes.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const DCS: usize = 4;
const EARLY_STEPS: u64 = 1_000;
const LATE_STEPS: u64 = 4_000;
/// Growth allowed beyond the WAL's: bounded buffers that have not yet
/// reached their final capacity at the early reading.
const FIXED_SLACK: i64 = 64 * 1024;

/// Live heap bytes now, and the length of the ship's WAL. The WAL copy
/// is taken after the heap reading and dropped before returning.
fn reading(sim: &ShipboardSim) -> (i64, i64) {
    let live = LIVE.load(Ordering::SeqCst);
    let wal = sim.store().contents().expect("in-memory WAL reads").len();
    (live, wal as i64)
}

#[test]
fn a_healthy_ship_holds_its_heap_flat_over_time_at_sea() {
    let dt = SimDuration::from_secs(1.0);
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(DCS)
            .with_seed(11)
            .with_survey_period(SimDuration::from_secs(2.0 * LATE_STEPS as f64)),
    )
    .expect("sim builds");
    let mut fused = 0;
    while sim.steps() < EARLY_STEPS {
        fused += sim.step(dt).expect("step");
    }
    let (early_live, early_wal) = reading(&sim);
    while sim.steps() < LATE_STEPS {
        fused += sim.step(dt).expect("step");
    }
    let (late_live, late_wal) = reading(&sim);
    assert_eq!(fused, 0, "a healthy ship fuses no reports");
    // The WAL's buffer holds at least its length and, growing by
    // doubling, at most twice it: its live bytes rise by at most
    // 2·late − early between the readings.
    let wal_slack = 2 * late_wal - early_wal;
    let growth = late_live - early_live;
    assert!(
        growth <= wal_slack + FIXED_SLACK,
        "live heap grew {growth} bytes from step {EARLY_STEPS} to {LATE_STEPS}; \
         the WAL ({early_wal} → {late_wal} bytes) accounts for at most {wal_slack}, \
         plus {FIXED_SLACK} fixed"
    );
}
