//! History independence of the PDME's ingest and export paths.
//!
//! The paper's PDME correlates reports from hundreds of DCs over a
//! ship's months at sea, so the work of posting one more report, or of
//! exporting the ICAS view, must not grow with the reports already
//! stored. Wall time is too noisy to gate on; the OOSM store's count of
//! rows its queries examine is not. This test fills one PDME to 1k and
//! then to 16k stored reports and requires the same rows visited at
//! both sizes for one further ingest, one further `post_report`, and
//! one ICAS export. Between the two sizes it also bounds the snapshot
//! bytes each stored report adds: every checkpoint rewrites them all.

use mpros::core::{
    Belief, ConditionReport, DcId, MachineCondition, MachineId, ReportId, SimDuration, SimTime,
};
use mpros::network::NetMessage;
use mpros::pdme::icas::export_snapshot;
use mpros::pdme::PdmeExecutive;

const MACHINES: u64 = 8;
/// Reports per ingest call while filling.
const BATCH: u64 = 64;
/// Snapshot bytes per stored report, at most: one typed `reports` row,
/// its object row (kind, name) and its `refers_to` row. Measured 403
/// (790 when a report was seven property rows).
const SNAPSHOT_BYTES_PER_REPORT: usize = 423;

/// Report `i`: machines round-robin, three conditions per machine, so
/// every (machine, condition) pair has fused long before 1k reports.
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
    fn new() -> Self {
        let mut pdme = PdmeExecutive::new();
        for m in 1..=MACHINES {
            pdme.register_machine(MachineId::new(m), &format!("machine {m}"));
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

    fn rows(&self) -> u64 {
        self.pdme.oosm().store().rows_visited()
    }

    /// Rows visited by one further ingest, one further `post_report`,
    /// and one ICAS export.
    fn measure(&mut self) -> [u64; 3] {
        let before = self.rows();
        let msg = NetMessage::Report(report(self.next));
        self.next += 1;
        self.pdme.ingest(&[msg], self.now()).unwrap();
        let ingest = self.rows() - before;

        let before = self.rows();
        let r = report(self.next);
        self.next += 1;
        self.pdme.oosm_mut().post_report(&r).unwrap();
        let post = self.rows() - before;

        let before = self.rows();
        let snap = export_snapshot(&self.pdme, self.now(), SimDuration::from_secs(60.0));
        let export = self.rows() - before;
        assert_eq!(snap.machines.len() as u64, MACHINES);
        let exported: usize = snap.machines.iter().map(|m| m.report_count).sum();
        assert_eq!(exported, self.pdme.oosm().report_count());
        [ingest, post, export]
    }
}

/// Snapshot length and stored reports.
fn snapshot_size(pdme: &PdmeExecutive) -> (usize, usize) {
    (pdme.snapshot_bytes().len(), pdme.oosm().report_count())
}

#[test]
fn ingest_post_and_export_visit_the_same_rows_at_1k_and_16k_reports() {
    let mut filler = Filler::new();
    filler.fill_to(1_000);
    let small = filler.measure();
    let (bytes_small, reports_small) = snapshot_size(&filler.pdme);
    filler.fill_to(16_000);
    let large = filler.measure();
    let (bytes_large, reports_large) = snapshot_size(&filler.pdme);
    let per_report = (bytes_large - bytes_small) / (reports_large - reports_small);
    assert!(
        per_report <= SNAPSHOT_BYTES_PER_REPORT,
        "{per_report} snapshot bytes per stored report between {reports_small} and \
         {reports_large} reports, ceiling {SNAPSHOT_BYTES_PER_REPORT}"
    );
    assert!(
        small.iter().all(|&rows| rows > 0),
        "rows counted: {small:?}"
    );
    let names = ["ingest", "post_report", "export per machine"];
    for (i, name) in names.iter().enumerate() {
        let per = |rows: u64| if i == 2 { rows / MACHINES } else { rows };
        assert_eq!(
            per(small[i]),
            per(large[i]),
            "{name}: rows visited at 1k vs 16k stored reports ({small:?} vs {large:?})"
        );
    }
    assert_eq!(small[2], large[2], "export rows in total");
}
