//! The lock-free metrics registry.
//!
//! Three instrument kinds, all interior-mutable through plain atomics so
//! the hot paths (DC survey loop, network delivery, PDME ingest) never
//! take a lock once they hold a handle:
//!
//! * [`Counter`] — monotone `u64`;
//! * [`Gauge`] — latest-wins `f64` (with a monotone-max variant for
//!   watermarks like `pdme.dc_staleness_max`);
//! * [`Histogram`] — log-bucketed `f64` distribution with `p50`/`p95`/
//!   `p99` estimation, used for latencies in seconds.
//!
//! The [`Registry`] maps `(component, metric)` keys to shared handles.
//! Registration takes a lock (it happens once, at wiring time);
//! recording afterwards is lock-free on the `Arc` handles. Every new key
//! moves the registry's key generation, so a reader that kept the keys
//! it visited can tell, without a visit, whether they are still all.

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A latest-value instrument (stored as `f64` bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (watermark semantics).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 96;
/// Upper bound of bucket 0, in the histogram's unit (seconds for all the
/// latency histograms MPROS registers).
const LOWEST: f64 = 1e-9;
/// Geometric growth per bucket: five buckets per decade, so 95 buckets
/// span 19 decades — nanoseconds to decades of simulated time.
const GROWTH: f64 = 1.584_893_192_461_113_5; // 10^(1/5)

/// Upper bound of bucket `i`.
fn bucket_upper(i: usize) -> f64 {
    LOWEST * GROWTH.powi(i as i32)
}

/// Bucket index for a (non-negative, finite) value.
fn bucket_index(v: f64) -> usize {
    if v <= LOWEST {
        return 0;
    }
    let idx = ((v / LOWEST).log10() * 5.0).ceil() as isize;
    idx.clamp(0, HISTOGRAM_BUCKETS as isize - 1) as usize
}

/// A log-bucketed distribution of non-negative `f64` samples.
///
/// Quantiles are estimated as the upper bound of the bucket where the
/// cumulative count crosses the target rank, clamped to the exactly
/// tracked `[min, max]`, which keeps every reported quantile inside the
/// observed range and monotone in the requested probability.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample. Negative samples are clamped to zero; NaN is
    /// ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let v = v.max(0.0);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulate / min / max via CAS on the bit patterns.
        Self::update(&self.sum_bits, |cur| cur + v);
        Self::update(&self.min_bits, |cur| cur.min(v));
        Self::update(&self.max_bits, |cur| cur.max(v));
    }

    fn update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut cur = bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            if next == cur {
                return;
            }
            match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed)))
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed)))
    }

    /// Mean of recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) / n as f64)
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        let mut estimate = bucket_upper(HISTOGRAM_BUCKETS - 1);
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= rank {
                estimate = bucket_upper(i);
                break;
            }
        }
        let (lo, hi) = (self.min()?, self.max()?);
        Some(estimate.clamp(lo, hi))
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Count, extremes, mean, p50, p95 and p99 from one pass over the
    /// buckets. Each quantile equals what [`Histogram::quantile`] gives
    /// for it, bit for bit, while no sample is recorded concurrently.
    pub fn summary(&self) -> HistogramSummary {
        let n = self.count();
        if n == 0 {
            return HistogramSummary::default();
        }
        let lo = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let hi = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let mean = f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) / n as f64;
        let ranks = QUANTILES.map(|q| ((q * n as f64).ceil() as u64).clamp(1, n));
        let mut estimates = [bucket_upper(HISTOGRAM_BUCKETS - 1); 3];
        let mut next = 0;
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            while next < ranks.len() && cumulative >= ranks[next] {
                estimates[next] = bucket_upper(i);
                next += 1;
            }
            if next == ranks.len() {
                break;
            }
        }
        let [p50, p95, p99] = estimates.map(|e| Some(e.clamp(lo, hi)));
        HistogramSummary {
            count: n,
            min: Some(lo),
            max: Some(hi),
            mean: Some(mean),
            p50,
            p95,
            p99,
        }
    }
}

/// The quantiles a [`HistogramSummary`] reports, ascending.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// One reading of a [`Histogram`] ([`Histogram::summary`]). Every
/// statistic is `None` while the histogram is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact minimum.
    pub min: Option<f64>,
    /// Exact maximum.
    pub max: Option<f64>,
    /// Mean.
    pub mean: Option<f64>,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 95th percentile.
    pub p95: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

/// `component → name → handle`; iterating it visits keys in
/// `(component, name)` order, and a lookup by `&str` allocates nothing.
type Map<T> = RwLock<BTreeMap<String, BTreeMap<String, Arc<T>>>>;

/// Shared map from `(component, metric)` to instrument handles.
///
/// Components look their handles up once at wiring time and then record
/// through the `Arc` without touching the registry again.
#[derive(Debug)]
pub struct Registry {
    counters: Map<Counter>,
    gauges: Map<Gauge>,
    histograms: Map<Histogram>,
    /// The key generation: a fresh draw from [`next_generation`] at
    /// construction and at every key inserted, taken under the write
    /// lock before the insert. Draws are process-unique, so one value
    /// names one registry's key set, never another registry's.
    generation: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: Map::default(),
            gauges: Map::default(),
            histograms: Map::default(),
            generation: AtomicU64::new(next_generation()),
        }
    }
}

/// A key generation no registry has had. Starts at 1, so 0 names no
/// registry's keys.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn find<T>(map: &Map<T>, component: &str, name: &str) -> Option<Arc<T>> {
    map.read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(component)?
        .get(name)
        .map(Arc::clone)
}

fn for_each<T>(map: &Map<T>, mut f: impl FnMut(&str, &str, &Arc<T>)) {
    let map = map.read().unwrap_or_else(PoisonError::into_inner);
    for (component, names) in map.iter() {
        for (name, handle) in names {
            f(component, name, handle);
        }
    }
}

/// One row per handle whose key passes `keep`, in key order; only the
/// kept keys are copied.
fn rows<T, R>(
    map: &Map<T>,
    keep: impl Fn(&str, &str) -> bool,
    row: impl Fn(String, String, &Arc<T>) -> R,
) -> Vec<R> {
    let mut out = Vec::new();
    for_each(map, |component, name, handle| {
        if keep(component, name) {
            out.push(row(component.to_owned(), name.to_owned(), handle));
        }
    });
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter `(component, name)`, created on first use.
    pub fn counter(&self, component: &str, name: &str) -> Arc<Counter> {
        self.get_or_insert(&self.counters, component, name)
    }

    /// The gauge `(component, name)`, created on first use.
    pub fn gauge(&self, component: &str, name: &str) -> Arc<Gauge> {
        self.get_or_insert(&self.gauges, component, name)
    }

    /// The histogram `(component, name)`, created on first use.
    pub fn histogram(&self, component: &str, name: &str) -> Arc<Histogram> {
        self.get_or_insert(&self.histograms, component, name)
    }

    fn get_or_insert<T: Default>(&self, map: &Map<T>, component: &str, name: &str) -> Arc<T> {
        if let Some(existing) = find(map, component, name) {
            return existing;
        }
        let mut w = map.write().unwrap_or_else(PoisonError::into_inner);
        let names = w.entry(component.to_owned()).or_default();
        if let Some(existing) = names.get(name) {
            return Arc::clone(existing);
        }
        self.generation.store(next_generation(), Ordering::SeqCst);
        Arc::clone(names.entry(name.to_owned()).or_default())
    }

    /// The key generation: equal at two reads only if no key was added
    /// in between. A reader that reads it before visiting the keys and
    /// finds it unchanged later has visited every key there is.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The counter `(component, name)` if registered; never registers it.
    pub(crate) fn find_counter(&self, component: &str, name: &str) -> Option<Arc<Counter>> {
        find(&self.counters, component, name)
    }

    /// The gauge `(component, name)` if registered; never registers it.
    pub(crate) fn find_gauge(&self, component: &str, name: &str) -> Option<Arc<Gauge>> {
        find(&self.gauges, component, name)
    }

    /// The histogram `(component, name)` if registered; never registers it.
    pub(crate) fn find_histogram(&self, component: &str, name: &str) -> Option<Arc<Histogram>> {
        find(&self.histograms, component, name)
    }

    /// Visit every counter in `(component, name)` order.
    pub(crate) fn for_each_counter(&self, f: impl FnMut(&str, &str, &Arc<Counter>)) {
        for_each(&self.counters, f)
    }

    /// Visit every gauge in `(component, name)` order.
    pub(crate) fn for_each_gauge(&self, f: impl FnMut(&str, &str, &Arc<Gauge>)) {
        for_each(&self.gauges, f)
    }

    /// Visit every histogram in `(component, name)` order.
    pub(crate) fn for_each_histogram(&self, f: impl FnMut(&str, &str, &Arc<Histogram>)) {
        for_each(&self.histograms, f)
    }

    /// The counters whose key passes `keep`, in key order.
    pub(crate) fn counters_where(&self, keep: impl Fn(&str, &str) -> bool) -> Vec<CounterSnapshot> {
        rows(&self.counters, keep, |component, name, c| CounterSnapshot {
            component,
            name,
            value: c.get(),
        })
    }

    /// The gauges whose key passes `keep`, in key order.
    pub(crate) fn gauges_where(&self, keep: impl Fn(&str, &str) -> bool) -> Vec<GaugeSnapshot> {
        rows(&self.gauges, keep, |component, name, g| GaugeSnapshot {
            component,
            name,
            value: g.get(),
        })
    }

    /// The histograms whose key passes `keep`, summarized, in key order.
    pub(crate) fn histograms_where(
        &self,
        keep: impl Fn(&str, &str) -> bool,
    ) -> Vec<HistogramSnapshot> {
        rows(&self.histograms, keep, |component, name, h| {
            HistogramSnapshot::new(component, name, h.summary())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0); // lower: ignored
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn histogram_tracks_exact_extremes_and_mean() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_none());
        for v in [0.001, 0.002, 0.004, 0.100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(0.001));
        assert_eq!(h.max(), Some(0.100));
        let mean = h.mean().unwrap();
        assert!((mean - 0.026_75).abs() < 1e-12);
        let p50 = h.p50().unwrap();
        assert!((0.001..=0.100).contains(&p50));
        // p99 is pulled down to the exact max.
        assert_eq!(h.p99(), Some(0.100));
    }

    #[test]
    fn histogram_ignores_nan_and_clamps_negatives() {
        let h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
        h.record(-3.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        let mut v = 1e-10;
        while v < 1e9 {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
            v *= 1.31;
        }
    }

    #[test]
    fn registry_reuses_handles() {
        let r = Registry::new();
        let a = r.counter("net", "sent");
        let b = r.counter("net", "sent");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let mut keys = Vec::new();
        r.for_each_counter(|c, n, _| keys.push((c.to_owned(), n.to_owned())));
        assert_eq!(keys, vec![("net".to_owned(), "sent".to_owned())]);
    }

    #[test]
    fn visits_run_in_key_order() {
        let r = Registry::new();
        for (c, n) in [
            ("net", "sent"),
            ("dc", "surveys"),
            ("net", "expired"),
            ("dc", "a"),
        ] {
            r.histogram(c, n);
        }
        let keys: Vec<String> = (r.histograms_where(|_, _| true).iter())
            .map(|h| format!("{}.{}", h.component, h.name))
            .collect();
        assert_eq!(keys, ["dc.a", "dc.surveys", "net.expired", "net.sent"]);
    }
}
