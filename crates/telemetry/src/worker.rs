//! Per-worker span batching for parallel execution engines.
//!
//! The shared [`Telemetry`] domain is safe to record
//! into from any thread, but every `record_span_wall` is an atomic RMW
//! on histogram buckets other workers are hitting too. A worker that
//! times many small units of work inside one scatter-gather job would
//! pay that cache-line contention per unit. [`SpanBatch`] gives each
//! worker a plain, thread-local accumulation buffer: samples are pushed
//! with no synchronization at all and merged into the shared domain in
//! one pass at the end of the job (or whenever the worker chooses to
//! flush), so contention is bounded by jobs, not by samples.

use crate::span::Stage;
use crate::Telemetry;
use std::time::Duration;

/// A thread-local buffer of span samples, flushed to a shared
/// [`Telemetry`] domain in one pass.
///
/// Dropping a non-empty batch without flushing loses the samples by
/// design (observability must never block or fail the pipeline); call
/// [`SpanBatch::flush`] at job boundaries.
#[derive(Debug, Default)]
pub struct SpanBatch {
    samples: Vec<(Stage, Duration)>,
}

impl SpanBatch {
    /// An empty batch.
    pub fn new() -> Self {
        SpanBatch::default()
    }

    /// Buffer one wall-clock span sample. No synchronization.
    #[inline]
    pub fn record_wall(&mut self, stage: Stage, wall: Duration) {
        self.samples.push((stage, wall));
    }

    /// Samples currently buffered.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Merge every buffered sample into `telemetry`'s span histograms
    /// and clear the buffer. Returns the number of samples flushed.
    pub fn flush(&mut self, telemetry: &Telemetry) -> usize {
        let n = self.samples.len();
        for (stage, wall) in self.samples.drain(..) {
            telemetry.record_span_wall(stage, wall);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates_then_flushes_in_one_pass() {
        let t = Telemetry::new();
        let mut batch = SpanBatch::new();
        for i in 1..=10u64 {
            batch.record_wall(Stage::DcStep, Duration::from_micros(i));
        }
        assert_eq!(batch.len(), 10);
        assert_eq!(t.span_wall(Stage::DcStep).count(), 0, "nothing shared yet");
        assert_eq!(batch.flush(&t), 10);
        assert!(batch.is_empty());
        assert_eq!(t.span_wall(Stage::DcStep).count(), 10);
        // Extremes survive the batch hop exactly.
        assert_eq!(t.span_wall(Stage::DcStep).min(), Some(1e-6));
        assert_eq!(t.span_wall(Stage::DcStep).max(), Some(10e-6));
    }

    #[test]
    fn flush_on_empty_batch_is_a_noop() {
        let t = Telemetry::new();
        let mut batch = SpanBatch::new();
        assert_eq!(batch.flush(&t), 0);
        assert_eq!(t.span_wall(Stage::DcStep).count(), 0);
    }

    #[test]
    fn concurrent_workers_merge_without_loss() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for w in 0..4 {
                let tel = t.clone();
                s.spawn(move || {
                    let mut batch = SpanBatch::new();
                    for i in 0..1000u64 {
                        batch.record_wall(Stage::DcStep, Duration::from_nanos(w * 1000 + i + 1));
                    }
                    batch.flush(&tel);
                });
            }
        });
        assert_eq!(t.span_wall(Stage::DcStep).count(), 4000);
    }
}
