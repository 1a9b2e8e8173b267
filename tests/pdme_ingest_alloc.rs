//! Allocation gate for the PDME ingest path.
//!
//! Wall time is too noisy to gate ingest cost on; heap allocations are
//! not. A counting global allocator wraps the system allocator. The
//! test fills two PDMEs with the 8-machine report mix of
//! `tests/pdme_history.rs`, one volatile and one journaling to an
//! in-memory store, first to 1k and then to 16k stored reports. At each
//! size it counts the allocations of 32 single-report ingests, and for
//! a third, volatile PDME those of 32 heartbeat-only ingests. The
//! median per ingest must be the same at both sizes, so the work does
//! not grow with the stored history, and must stay under a ceiling.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros::core::{Belief, ConditionReport, DcId, MachineCondition, MachineId, ReportId, SimTime};
use mpros::network::NetMessage;
use mpros::pdme::PdmeExecutive;
use mpros::store::StoreHandle;
use mpros::telemetry::Telemetry;

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

const MACHINES: u64 = 8;
/// Reports per ingest call while filling.
const BATCH: u64 = 64;
/// Single-report ingests counted at each size.
const SAMPLES: usize = 32;
/// Median allocations per single-report ingest with no store attached.
const CEILING_VOLATILE: u64 = 40;
/// The same with an in-memory store, which journals every pass.
const CEILING_JOURNALED: u64 = 48;
/// Median allocations per heartbeat-only ingest with no store attached:
/// nothing is posted or fused, so no machine property is rewritten.
const CEILING_HEARTBEAT: u64 = 0;

/// Report `i`: machines round-robin, three conditions per machine, as
/// in `tests/pdme_history.rs`.
fn report(i: u64) -> ConditionReport {
    let machine = i % MACHINES;
    let conditions = [
        MachineCondition::MotorImbalance,
        MachineCondition::MotorBearingDefect,
        MachineCondition::CondenserFouling,
    ];
    ConditionReport::builder(
        MachineId::new(machine + 1),
        conditions[(i / MACHINES % 3) as usize],
        Belief::new(0.6),
    )
    .id(ReportId::new(i))
    .dc(DcId::new(machine + 1))
    .severity(0.4)
    .timestamp(SimTime::from_secs(i as f64))
    .build()
}

struct Filler {
    pdme: PdmeExecutive,
    next: u64,
}

impl Filler {
    fn new(journaled: bool) -> Self {
        let mut pdme = PdmeExecutive::new();
        for m in 1..=MACHINES {
            pdme.register_machine(MachineId::new(m), &format!("machine {m}"));
        }
        if journaled {
            pdme.attach_store(StoreHandle::in_memory(&Telemetry::new()));
        }
        Filler { pdme, next: 0 }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs(self.next as f64)
    }

    /// Ingest reports in batches until `stored` are in the OOSM.
    fn fill_to(&mut self, stored: usize) {
        while self.pdme.oosm().report_count() < stored {
            let batch: Vec<NetMessage> = (self.next..self.next + BATCH)
                .map(|i| NetMessage::Report(report(i)))
                .collect();
            self.next += BATCH;
            self.pdme.ingest(&batch, self.now()).unwrap();
        }
    }

    /// Median allocations over [`SAMPLES`] single-message ingests: one
    /// report each, or one heartbeat each (nothing posted or fused).
    fn median_ingest_allocations(&mut self, heartbeat: bool) -> u64 {
        let mut counts: Vec<u64> = (0..SAMPLES)
            .map(|_| {
                let msg = if heartbeat {
                    NetMessage::Heartbeat {
                        dc: DcId::new(self.next % MACHINES + 1),
                        at_secs: self.next as f64,
                    }
                } else {
                    NetMessage::Report(report(self.next))
                };
                let now = self.now();
                self.next += 1;
                ALLOCATIONS.store(0, Ordering::SeqCst);
                ARMED.store(true, Ordering::SeqCst);
                let summary = self.pdme.ingest(&[msg], now);
                ARMED.store(false, Ordering::SeqCst);
                assert_eq!(summary.unwrap().fused, usize::from(!heartbeat));
                ALLOCATIONS.load(Ordering::SeqCst)
            })
            .collect();
        counts.sort_unstable();
        counts[SAMPLES / 2]
    }
}

#[test]
fn ingest_allocations_do_not_grow_with_history() {
    let rows = [
        ("volatile", false, false, CEILING_VOLATILE),
        ("journaled", true, false, CEILING_JOURNALED),
        ("heartbeat", false, true, CEILING_HEARTBEAT),
    ];
    for (what, journaled, heartbeat, ceiling) in rows {
        let mut filler = Filler::new(journaled);
        filler.fill_to(1_000);
        let small = filler.median_ingest_allocations(heartbeat);
        filler.fill_to(16_000);
        let large = filler.median_ingest_allocations(heartbeat);
        assert_eq!(
            small, large,
            "{what}: median allocations per ingest at 1k vs 16k stored reports"
        );
        assert!(
            small <= ceiling,
            "{what}: {small} allocations per ingest, ceiling {ceiling}"
        );
    }
}
