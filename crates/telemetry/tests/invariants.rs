//! Property and concurrency tests for the telemetry substrate.
//!
//! * Histogram quantiles must be monotone in `q` and bounded by the
//!   exact observed min/max, whatever the sample distribution, and the
//!   one-pass summary must report exactly what the per-quantile calls do.
//! * Counters and histograms must stay exact when hammered from many
//!   threads at once (the DC-per-worker fleet shape of `exp_throughput`).

use mpros_telemetry::{Histogram, Stage, Telemetry};
use proptest::prelude::*;
use std::thread;

proptest! {
    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0.0f64..1.0e6, 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let (qlo, qhi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let vlo = h.quantile(qlo).unwrap();
        let vhi = h.quantile(qhi).unwrap();
        prop_assert!(vlo <= vhi, "quantile not monotone: q{qlo}={vlo} > q{qhi}={vhi}");
        for v in [vlo, vhi] {
            prop_assert!(v >= lo, "quantile {v} below observed min {lo}");
            prop_assert!(v <= hi, "quantile {v} above observed max {hi}");
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn one_summary_pass_matches_the_quantile_calls_bit_for_bit(
        exponents in proptest::collection::vec(-10.0f64..7.0, 0..200),
    ) {
        let h = Histogram::new();
        for &e in &exponents {
            h.record(10f64.powf(e));
        }
        let s = h.summary();
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        prop_assert_eq!(s.count, h.count());
        prop_assert_eq!(bits(s.min), bits(h.min()));
        prop_assert_eq!(bits(s.max), bits(h.max()));
        prop_assert_eq!(bits(s.mean), bits(h.mean()));
        prop_assert_eq!(bits(s.p50), bits(h.quantile(0.50)));
        prop_assert_eq!(bits(s.p95), bits(h.quantile(0.95)));
        prop_assert_eq!(bits(s.p99), bits(h.quantile(0.99)));
    }

    #[test]
    fn extremes_are_exact(samples in proptest::collection::vec(0.0f64..1.0e9, 1..100)) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.min(), Some(lo));
        prop_assert_eq!(h.max(), Some(hi));
    }
}

#[test]
fn counters_survive_scoped_thread_hammering() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let t = Telemetry::new();
    let counter = t.counter("net", "sent");
    thread::scope(|s| {
        for _ in 0..THREADS {
            let tel = t.clone();
            let c = std::sync::Arc::clone(&counter);
            s.spawn(move || {
                let h = tel.histogram("net", "bus_transit_s");
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(i as f64 * 1e-6);
                    tel.record_span_wall(Stage::Fft, std::time::Duration::from_nanos(i));
                }
            });
        }
    });
    let expected = (THREADS as u64) * PER_THREAD;
    assert_eq!(counter.get(), expected);
    assert_eq!(t.histogram("net", "bus_transit_s").count(), expected);
    assert_eq!(t.span_wall(Stage::Fft).count(), expected);
    let h = t.histogram("net", "bus_transit_s");
    assert_eq!(h.min(), Some(0.0));
    assert_eq!(h.max(), Some((PER_THREAD - 1) as f64 * 1e-6));
    let p50 = h.p50().unwrap();
    let p99 = h.p99().unwrap();
    assert!(p50 <= p99);
}
