//! The sim-domain series, read as shared names plus fresh values.
//!
//! A gateway serves a domain's sim-domain series at every publish: the
//! counters and gauges of every component but `exec` and `gateway`, and
//! of those components' histograms the ones of simulated time (the rule
//! is stated once, in the crate root).
//! Their names rarely change after wiring; their values change every
//! step. A [`SimSeries`] keeps the two apart: an `Arc` key table (each
//! served `(component, name)` in key order, with the handle behind it)
//! and this reading's values, read through those handles. The table is
//! shared with the previous reading while the registry's key generation
//! has not moved, so a reading that follows another copies no name: it
//! reads the `u64`s, the `f64`s and one summary pass per histogram.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary, Registry};
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};
use crate::{sim_domain, sim_time};
use std::sync::Arc;

/// One served series name.
#[derive(Debug, PartialEq)]
struct Key {
    component: String,
    name: String,
}

/// A key with the handle its values are read through.
type Entry<T> = (Key, Arc<T>);

/// The sim-domain keys of one registry at one key generation.
#[derive(Debug)]
struct KeyTable {
    /// The registry's key generation, read before the visit that built
    /// the table; 0, which no registry has, for the empty table. A key
    /// added during the visit moves the generation past this one, so a
    /// race costs one more rebuild, never a missing key.
    generation: u64,
    counters: Vec<Entry<Counter>>,
    gauges: Vec<Entry<Gauge>>,
    histograms: Vec<Entry<Histogram>>,
}

impl KeyTable {
    fn empty() -> Self {
        KeyTable {
            generation: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    fn read(registry: &Registry) -> Self {
        fn push<T>(list: &mut Vec<Entry<T>>, component: &str, name: &str, handle: &Arc<T>) {
            let key = Key {
                component: component.to_owned(),
                name: name.to_owned(),
            };
            list.push((key, Arc::clone(handle)));
        }
        let mut table = KeyTable {
            generation: registry.generation(),
            ..KeyTable::empty()
        };
        registry.for_each_counter(|c, n, h| {
            if sim_domain(c) {
                push(&mut table.counters, c, n, h);
            }
        });
        registry.for_each_gauge(|c, n, h| {
            if sim_domain(c) {
                push(&mut table.gauges, c, n, h);
            }
        });
        registry.for_each_histogram(|c, n, h| {
            if sim_domain(c) && sim_time(n) {
                push(&mut table.histograms, c, n, h);
            }
        });
        table
    }

    /// Whether both tables list the same keys in the same order.
    fn same_keys(&self, other: &KeyTable) -> bool {
        fn same<T>(a: &[Entry<T>], b: &[Entry<T>]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0)
        }
        same(&self.counters, &other.counters)
            && same(&self.gauges, &other.gauges)
            && same(&self.histograms, &other.histograms)
    }
}

/// One reading of a telemetry domain's sim-domain series: the counters,
/// the gauges and the histograms of simulated time, each list in
/// `(component, name)` order. Built by [`crate::Telemetry::sim_series`].
///
/// Equality compares content: the keys and the values, not whether two
/// readings share their key table.
#[derive(Debug, Clone)]
pub struct SimSeries {
    keys: Arc<KeyTable>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histograms: Vec<HistogramSummary>,
}

impl Default for SimSeries {
    /// The empty reading; it shares its key table with no other.
    fn default() -> Self {
        SimSeries {
            keys: Arc::new(KeyTable::empty()),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

impl PartialEq for SimSeries {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.keys, &other.keys) || self.keys.same_keys(&other.keys))
            && self.counters == other.counters
            && self.gauges == other.gauges
            && self.histograms == other.histograms
    }
}

impl SimSeries {
    /// Read `registry`'s sim-domain series, taking over `prev`'s key
    /// table if the registry has added no key since it was built.
    pub(crate) fn read(registry: &Registry, prev: &SimSeries) -> SimSeries {
        let keys = if prev.keys.generation == registry.generation() {
            Arc::clone(&prev.keys)
        } else {
            Arc::new(KeyTable::read(registry))
        };
        SimSeries {
            counters: keys.counters.iter().map(|(_, c)| c.get()).collect(),
            gauges: keys.gauges.iter().map(|(_, g)| g.get()).collect(),
            histograms: keys.histograms.iter().map(|(_, h)| h.summary()).collect(),
            keys,
        }
    }

    /// Whether `self` and `other` share one key table.
    pub fn shares_keys_with(&self, other: &SimSeries) -> bool {
        Arc::ptr_eq(&self.keys, &other.keys)
    }

    /// Each counter's `(component, name, value)`, in key order, borrowed.
    pub fn counter_values(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        (self.keys.counters.iter())
            .zip(&self.counters)
            .map(|((k, _), &v)| (k.component.as_str(), k.name.as_str(), v))
    }

    /// The counters as owned rows.
    pub fn counters(&self) -> Vec<CounterSnapshot> {
        self.counter_values()
            .map(|(component, name, value)| CounterSnapshot {
                component: component.to_owned(),
                name: name.to_owned(),
                value,
            })
            .collect()
    }

    /// The gauges as owned rows.
    pub fn gauges(&self) -> Vec<GaugeSnapshot> {
        (self.keys.gauges.iter())
            .zip(&self.gauges)
            .map(|((k, _), &value)| GaugeSnapshot {
                component: k.component.clone(),
                name: k.name.clone(),
                value,
            })
            .collect()
    }

    /// The histogram summaries as owned rows.
    pub fn histograms(&self) -> Vec<HistogramSnapshot> {
        (self.keys.histograms.iter())
            .zip(&self.histograms)
            .map(|((k, _), &s)| HistogramSnapshot::new(k.component.clone(), k.name.clone(), s))
            .collect()
    }
}
