//! Memory gate for the DC working set: a Data Concentrator holds no
//! survey-sized buffer between surveys.
//!
//! A survey works through about 3.5 MB (five 32,768-sample blocks, the
//! 32 Ki FFT plan and window, the envelope scratch and two spectra). A
//! ship owns that working memory once per stepping worker and lends it
//! to each DC for its survey, so adding a DC to a ship adds only the
//! DC's own small state. A counting global allocator tracks live heap
//! bytes (allocated minus freed) and, while armed, the largest single
//! allocation. The test measures what a 1-DC and a 32-DC ship hold after
//! one survey step, in `Sequential` and in `Parallel{4}`, and then arms
//! the allocator over a second survey step, which must reuse the lent
//! scratch rather than rebuild it.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counters run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};

use mpros::core::SimDuration;
use mpros::sim::{ExecMode, ShipboardSim, ShipboardSimConfig};

/// Wraps [`System`]; keeps a running total of live heap bytes and, while
/// armed, the largest single allocation.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

const KIB: i64 = 1024;
/// Live heap one more DC may add to a ship after a survey step: its own
/// state (database rings, trends, features, counters), not survey
/// scratch. A lent workspace is about 3.5 MB; a DC measures well under
/// 64 KiB.
const PER_DC: i64 = 256 * KIB;
/// No allocation of a warm survey step may reach this size: every
/// survey-sized buffer (a block is 256 KiB, a half spectrum 256 KiB) is
/// lent, warm, not rebuilt.
const LARGE_ALLOC: usize = 64 * 1024;
/// Parallel workers, and so lent workspaces, of the parallel ship.
const WORKERS: usize = 4;

fn survey_step() -> SimDuration {
    SimDuration::from_secs(30.0)
}

/// A ship of `dcs` DCs that surveys every 30 s step, stepped once; with
/// the live heap bytes it held right after construction and after that
/// first step, both above the heap before it was built.
fn surveyed_ship(dcs: usize, exec: ExecMode) -> (ShipboardSim, i64, i64) {
    let before = LIVE.load(Ordering::SeqCst);
    let mut sim = ShipboardSim::new(
        ShipboardSimConfig::new()
            .with_dc_count(dcs)
            .with_seed(1)
            .with_survey_period(survey_step())
            .with_exec(exec),
    )
    .expect("sim builds");
    let built = LIVE.load(Ordering::SeqCst) - before;
    sim.step(survey_step()).expect("survey step");
    let surveyed = LIVE.load(Ordering::SeqCst) - before;
    (sim, built, surveyed)
}

/// Step `sim` through one more survey with the largest-allocation
/// counter armed; returns that allocation's size.
fn largest_allocation_of_warm_survey(sim: &mut ShipboardSim) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let stepped = sim.step(survey_step());
    ARMED.store(false, Ordering::SeqCst);
    stepped.expect("warm survey step");
    LARGEST.load(Ordering::SeqCst)
}

#[test]
fn a_dc_holds_no_survey_scratch_between_surveys() {
    // Sequential: every DC is lent the ship's one workspace.
    let (one, one_built, one_held) = surveyed_ship(1, ExecMode::Sequential);
    drop(one);
    let (mut many, _, many_held) = surveyed_ship(32, ExecMode::Sequential);
    let per_dc = (many_held - one_held) / 31;
    println!(
        "sequential: 1 DC holds {} KiB ({} KiB at construction), 32 DCs {} KiB; {} KiB per added DC",
        one_held / KIB,
        one_built / KIB,
        many_held / KIB,
        per_dc / KIB
    );
    assert!(
        per_dc <= PER_DC,
        "each DC beyond the first adds {} KiB of live heap after a survey (limit {} KiB): \
         survey scratch is held per DC, not lent",
        per_dc / KIB,
        PER_DC / KIB
    );
    let largest = largest_allocation_of_warm_survey(&mut many);
    println!("sequential warm survey step: largest allocation {largest} bytes");
    assert!(
        largest < LARGE_ALLOC,
        "a warm survey step allocated {largest} bytes at once (limit {LARGE_ALLOC}): \
         survey scratch is rebuilt, not lent warm"
    );
    drop(many);

    // Parallel{4}: up to four workspaces, one per worker. The 1-DC ship's
    // survey growth over its construction bounds one workspace.
    let workspace = one_held - one_built;
    let exec = ExecMode::Parallel { workers: WORKERS };
    let (one, _, one_held) = surveyed_ship(1, exec);
    drop(one);
    let (mut many, _, many_held) = surveyed_ship(32, exec);
    let above = many_held - one_held;
    let limit = WORKERS as i64 * workspace + 32 * PER_DC;
    println!(
        "parallel{{{WORKERS}}}: 32 DCs hold {} KiB above 1 DC (limit {} KiB = {WORKERS} × {} KiB + 32 × {} KiB)",
        above / KIB,
        limit / KIB,
        workspace / KIB,
        PER_DC / KIB
    );
    assert!(
        above <= limit,
        "a 32-DC Parallel{{{WORKERS}}} ship holds {} KiB above a 1-DC one (limit {} KiB)",
        above / KIB,
        limit / KIB
    );
    let largest = largest_allocation_of_warm_survey(&mut many);
    println!("parallel warm survey step: largest allocation {largest} bytes");
    assert!(
        largest < LARGE_ALLOC,
        "a warm Parallel{{{WORKERS}}} survey step allocated {largest} bytes at once \
         (limit {LARGE_ALLOC})"
    );
}
