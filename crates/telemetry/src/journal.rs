//! The bounded event journal.
//!
//! Rare-but-interesting happenings — dropped frames, network partitions,
//! quarantined channels, fusion conflict renormalizations, DCs going
//! silent — are appended to a fixed-capacity ring buffer. When the ring
//! is full the oldest entry is evicted and a drop counter advances, so
//! the journal can never grow without bound on a long cruise. Events are
//! rare by construction, so this sits behind a plain mutex rather than
//! the lock-free registry machinery.

use mpros_core::SimTime;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Simulated time the event was recorded at.
    pub at: SimTime,
    /// Emitting component (`"net"`, `"dc1"`, `"pdme"`, `"fusion"`...).
    pub component: String,
    /// Short machine-readable kind (`"drop"`, `"partition"`,
    /// `"quarantine"`, `"conflict_renorm"`, `"stale_dc"`...).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

#[derive(Debug, Default)]
struct State {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Event>,
}

/// Fixed-capacity ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    state: Mutex<State>,
}

impl Journal {
    /// An empty journal holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
        }
    }

    /// Append an event, evicting the oldest entry when full.
    pub fn record(&self, at: SimTime, component: &str, kind: &str, detail: String) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = s.next_seq;
        s.next_seq += 1;
        if s.events.len() == self.capacity {
            s.events.pop_front();
            s.dropped += 1;
        }
        s.events.push_back(Event {
            seq,
            at,
            component: component.to_owned(),
            kind: kind.to_owned(),
            detail,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events_from(0).0
    }

    /// The retained events with a sequence number at or past `seq`,
    /// oldest first, and the sequence number to pass next time. Only
    /// those events are copied.
    pub(crate) fn events_from(&self, seq: u64) -> (Vec<Event>, u64) {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let skip = seq.saturating_sub(s.next_seq - s.events.len() as u64) as usize;
        (s.events.iter().skip(skip).cloned().collect(), s.next_seq)
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.record(
                SimTime::from_secs(i as f64),
                "net",
                "drop",
                format!("frame {i}"),
            );
        }
        let events = j.events();
        assert_eq!(events.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(events[0].seq, 2, "oldest two evicted");
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[2].detail, "frame 4");
        assert_eq!(j.capacity(), 3);
        assert!(!j.is_empty());
        // A cursor reads only what is at or past it, evicted or not.
        let seqs = |from| {
            j.events_from(from)
                .0
                .iter()
                .map(|e| e.seq)
                .collect::<Vec<_>>()
        };
        assert_eq!(seqs(0), [2, 3, 4]);
        assert_eq!(seqs(3), [3, 4]);
        assert!(seqs(5).is_empty());
        assert_eq!(j.events_from(3).1, 5);
    }
}
