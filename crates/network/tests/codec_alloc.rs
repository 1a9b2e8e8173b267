//! Allocation gate for the frame encoder.
//!
//! The encoder writes each message's JSON straight into the frame
//! buffer, so encoding a report batch allocates only when that buffer
//! grows: a handful of times for a frame of tens of kilobytes, and
//! never once per field. A counting global allocator wraps the system
//! allocator while one encode runs.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros_core::{
    Belief, ConditionReport, DcId, MachineCondition, MachineId, PrognosticVector, ReportId, SimTime,
};
use mpros_network::{encode_message, BatchEntry, NetMessage};
use mpros_telemetry::{TraceContext, TraceId};

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

/// Entries in the encoded batch.
const ENTRIES: u64 = 64;
/// Allocations one encode may make: the frame buffer's first
/// allocation and its doublings up to the frame size (6 at this size).
const CEILING: u64 = 8;

fn entry(seq: u64) -> BatchEntry {
    let report = ConditionReport::builder(
        MachineId::new(seq % 8 + 1),
        MachineCondition::MotorBearingDefect,
        Belief::new(0.6),
    )
    .id(ReportId::new(seq))
    .dc(DcId::new(3))
    .severity(0.4)
    .timestamp(SimTime::from_secs(seq as f64 * 30.0))
    .explanation("bearing defect tones at BPFO with sidebands")
    .prognostic(PrognosticVector::from_months(&[(1.0, 0.1), (3.0, 0.4), (6.0, 0.9)]).unwrap())
    .build();
    BatchEntry {
        seq,
        trace: TraceContext::for_enqueued(TraceId(seq ^ 0x5eed)),
        report,
    }
}

#[test]
fn encoding_a_batch_allocates_only_for_buffer_growth() {
    let batch = NetMessage::ReportBatch {
        dc: DcId::new(3),
        epoch: 1,
        entries: (1..=ENTRIES).map(entry).collect(),
    };
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let frame = encode_message(&batch);
    ARMED.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let frame = frame.unwrap();
    assert!(frame.len() > 16 * 1024, "frame of {} bytes", frame.len());
    assert!(
        allocations <= CEILING,
        "{allocations} allocations to encode a {ENTRIES}-entry batch, ceiling {CEILING}"
    );
}
