//! Per-DC reliable-delivery outboxes.
//!
//! §4.9's shipboard reality — partitions, brownouts, flaky cabling —
//! means a fire-and-forget report frame may simply vanish. Each DC
//! therefore parks every [`crate::NetMessage::ReportBatch`] it emits in
//! an outbox until the PDME's cumulative [`crate::NetMessage::Ack`]
//! releases it, retransmitting on an exponential-backoff schedule whose
//! jitter is drawn from the DC's own RNG stream (so retry timing is
//! deterministic per seed and independent across DCs). The queue is
//! bounded: when a long outage backs it up past capacity, the *oldest*
//! frame is evicted first — the freshest diagnostics are the ones worth
//! a berth.
//!
//! The outbox holds pure queue state; the scheduling loop that actually
//! puts frames on the wire lives in [`crate::ShipNetwork::pump_outboxes`],
//! where it can compose with the bus's latency/loss model and telemetry.

use crate::codec::BatchEntry;
use mpros_core::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

// The retry/backoff policy for the per-DC report outboxes. The
// cumulative patience, 1 + 2 + 4 + 8 + 16 + 16·5 ≈ 110 s, comfortably
// outlasts the sub-minute partitions §4.9-style scenarios throw,
// without holding a dead link's frames forever.

/// Unacknowledged frames held per DC; pushing past this evicts the
/// oldest pending frame.
const CAPACITY: usize = 64;
/// Delay before the first retransmission, in seconds.
const BASE_BACKOFF_S: f64 = 1.0;
/// Ceiling on the exponential backoff, in seconds.
const MAX_BACKOFF_S: f64 = 16.0;
/// Transmissions (first send + retries) before a frame expires.
pub(crate) const MAX_ATTEMPTS: u32 = 10;
/// Backoff jitter as a fraction: each delay is scaled by a factor
/// drawn uniformly from `[1, 1 + JITTER]`.
const JITTER: f64 = 0.1;

/// One unacknowledged `ReportBatch` frame awaiting (re)transmission.
#[derive(Debug, Clone)]
pub(crate) struct PendingBatch {
    /// The DC restart epoch the frame was emitted in.
    pub epoch: u64,
    /// Highest entry sequence in the frame (the cumulative-ack key).
    pub last_seq: u64,
    /// The batched reports.
    pub entries: Vec<BatchEntry>,
    /// Transmissions so far.
    pub attempts: u32,
    /// Earliest instant the next transmission may happen.
    pub next_send: SimTime,
}

/// Per-DC outbox: pending frames in emission order, the DC's current
/// restart epoch, and its private backoff-jitter stream.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// The DC's current restart epoch; newly enqueued frames carry it.
    pub epoch: u64,
    /// Unacknowledged frames, oldest first.
    pub pending: VecDeque<PendingBatch>,
    rng: StdRng,
}

impl Outbox {
    pub fn new(seed: u64) -> Self {
        Outbox {
            epoch: 0,
            pending: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Park a frame; evicts the oldest pending frame when full.
    /// Returns the evicted frames (so the caller can account for every
    /// report they carried).
    pub fn push(&mut self, batch: PendingBatch) -> Vec<PendingBatch> {
        let mut evicted = Vec::new();
        while self.pending.len() >= CAPACITY {
            if let Some(old) = self.pending.pop_front() {
                evicted.push(old);
            }
        }
        self.pending.push_back(batch);
        evicted
    }

    /// Apply a cumulative acknowledgement: release every pending frame
    /// of `epoch` whose `last_seq` is covered. Returns frames released.
    pub fn acknowledge(&mut self, epoch: u64, last_seq: u64) -> usize {
        let before = self.pending.len();
        self.pending
            .retain(|p| !(p.epoch == epoch && p.last_seq <= last_seq));
        before - self.pending.len()
    }

    /// Drop everything (volatile state lost in a crash). Returns the
    /// number of frames lost.
    pub fn clear(&mut self) -> usize {
        let lost = self.pending.len();
        self.pending.clear();
        lost
    }

    /// The jittered backoff after the `attempts`-th transmission:
    /// `base · 2^(attempts-1)` capped at the ceiling, scaled by a
    /// factor drawn from `[1, 1 + JITTER]` off this DC's stream.
    pub fn backoff(&mut self, attempts: u32) -> SimDuration {
        let exp = attempts.saturating_sub(1).min(31);
        let capped = (BASE_BACKOFF_S * f64::from(1u32 << exp)).min(MAX_BACKOFF_S);
        SimDuration::from_secs(capped * (1.0 + self.rng.gen_range(0.0..JITTER)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(epoch: u64, last_seq: u64) -> PendingBatch {
        PendingBatch {
            epoch,
            last_seq,
            entries: Vec::new(),
            attempts: 0,
            next_send: SimTime::ZERO,
        }
    }

    #[test]
    fn push_evicts_oldest_when_full() {
        let mut ob = Outbox::new(1);
        for seq in 1..=64 {
            assert!(ob.push(pending(0, seq)).is_empty(), "batch {seq} fits");
        }
        let evicted = ob.push(pending(0, 65));
        assert_eq!(evicted.len(), 1, "the 65th pending batch evicts one");
        assert_eq!(evicted[0].last_seq, 1, "oldest dropped");
        assert_eq!(ob.pending.len(), 64);
        assert_eq!(ob.pending.front().map(|p| p.last_seq), Some(2));
        assert_eq!(ob.pending.back().map(|p| p.last_seq), Some(65));
    }

    #[test]
    fn ack_is_cumulative_and_epoch_scoped() {
        let mut ob = Outbox::new(1);
        ob.push(pending(0, 5));
        ob.push(pending(0, 9));
        ob.push(pending(1, 3)); // post-restart frame
        assert_eq!(ob.acknowledge(0, 9), 2, "covers both epoch-0 frames");
        assert_eq!(ob.pending.len(), 1, "epoch-1 frame untouched");
        assert_eq!(ob.acknowledge(1, 2), 0, "seq 3 not yet covered");
        assert_eq!(ob.acknowledge(1, 3), 1);
    }

    #[test]
    fn backoff_doubles_to_the_cap_with_bounded_jitter() {
        let mut ob = Outbox::new(7);
        for (attempts, nominal) in [
            (1u32, 1.0),
            (2, 2.0),
            (3, 4.0),
            (4, 8.0),
            (5, 16.0),
            (6, 16.0),
            (60, 16.0),
        ] {
            let d = ob.backoff(attempts).as_secs();
            assert!(
                d >= nominal && d <= nominal * 1.1 + 1e-12,
                "attempt {attempts}: {d} outside [{nominal}, {}]",
                nominal * 1.1
            );
        }
    }

    #[test]
    fn backoff_stream_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut ob = Outbox::new(seed);
            (1..6).map(|a| ob.backoff(a).as_secs()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn clear_reports_lost_frames() {
        let mut ob = Outbox::new(1);
        ob.push(pending(0, 1));
        ob.push(pending(0, 2));
        assert_eq!(ob.clear(), 2);
        assert!(ob.pending.is_empty());
    }
}
