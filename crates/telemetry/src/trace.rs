//! Deterministic causal tracing for the report pipeline.
//!
//! Every condition report that leaves a Data Concentrator gets a
//! [`TraceId`], and every hop of its journey — emission, outbox
//! enqueue, each send attempt, bus delivery, PDME ingest, fusion,
//! OOSM update, plus the failure paths (expiry, crash loss, replay
//! dedup) — is recorded as a [`TraceHop`]. The result is a
//! Dapper-style per-report trace that answers "where did report N
//! spend its time" under retries, crashes and parallel stepping.
//!
//! ## Determinism contract
//!
//! All identifiers are *pure functions* of scenario state, derived with
//! the same splitmix64 stream machinery (`mpros_core::derive_stream_seed`)
//! that seeds every other stochastic element:
//!
//! * a DC's **trace seed** is `dc_trace_seed(master, dc_raw, epoch)` —
//!   the crash epoch is folded in because a rebuilt DC resets its report
//!   id allocator, and two reports with the same raw id in different
//!   epochs must not collide;
//! * a report's [`TraceId`] is `TraceId::for_report(trace_seed, report_raw)`;
//! * every [`SpanId`] is `SpanId::derive(trace, kind, attempt)` — any
//!   layer can (re)derive any span without plumbing ids through calls.
//!
//! Because ids carry no randomness and hops record **simulated** time,
//! the canonical export ([`TraceLog::canonical_hops`]) is byte-identical
//! across `Sequential` and `Parallel{2,4,8}` execution. Wall-clock
//! nanoseconds are captured per hop for local inspection but are never
//! part of a canonical export.

use mpros_core::derive_stream_seed;
pub use mpros_core::seed::{dc_trace_seed, TRACE_STREAM_SALT};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// Default bound on retained hops; see [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Identifier of one report's end-to-end journey.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The trace id of a report, derived from its DC's trace seed and
    /// the report's raw id. Pure: every layer that knows the pair
    /// computes the same id.
    pub fn for_report(trace_seed: u64, report_raw: u64) -> TraceId {
        TraceId(derive_stream_seed(trace_seed, report_raw))
    }

    /// Raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one hop (span) within a trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The span id of hop `kind` (attempt `attempt`) of `trace`. Pure
    /// function — a retry's span differs from the first attempt's only
    /// through `attempt`.
    pub fn derive(trace: TraceId, kind: HopKind, attempt: u32) -> SpanId {
        SpanId(derive_stream_seed(
            trace.0,
            (kind.code() << 32) | u64::from(attempt),
        ))
    }

    /// Raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The kind of pipeline hop a [`TraceHop`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HopKind {
    /// A DC algorithm suite emitted the report (trace root).
    DcEmit,
    /// The report entered the DC's outbox.
    Enqueue,
    /// One transmission attempt left the outbox (attempt ≥ 1; retries
    /// show as further `Send` hops on the *same* trace).
    Send,
    /// The outbox gave up: retry budget exhausted or queue overflow.
    Expire,
    /// The report was lost when its DC crashed with the batch pending.
    CrashLost,
    /// The ship network delivered the frame (sim span = bus transit).
    Deliver,
    /// The PDME accepted the report and posted it to the OOSM.
    Ingest,
    /// The PDME dropped a duplicate delivery (replay guard).
    Replay,
    /// Knowledge fusion folded the report into the fused picture.
    Fuse,
    /// The fused belief refresh the report triggered in the OOSM.
    OosmUpdate,
}

impl HopKind {
    /// Every kind, in pipeline order.
    pub const ALL: [HopKind; 10] = [
        HopKind::DcEmit,
        HopKind::Enqueue,
        HopKind::Send,
        HopKind::Expire,
        HopKind::CrashLost,
        HopKind::Deliver,
        HopKind::Ingest,
        HopKind::Replay,
        HopKind::Fuse,
        HopKind::OosmUpdate,
    ];

    /// Stable numeric code (folded into [`SpanId::derive`]).
    pub const fn code(self) -> u64 {
        match self {
            HopKind::DcEmit => 1,
            HopKind::Enqueue => 2,
            HopKind::Send => 3,
            HopKind::Expire => 4,
            HopKind::CrashLost => 5,
            HopKind::Deliver => 6,
            HopKind::Ingest => 7,
            HopKind::Replay => 8,
            HopKind::Fuse => 9,
            HopKind::OosmUpdate => 10,
        }
    }

    /// Stable snake_case name (used in exports).
    pub const fn as_str(self) -> &'static str {
        match self {
            HopKind::DcEmit => "dc_emit",
            HopKind::Enqueue => "enqueue",
            HopKind::Send => "send",
            HopKind::Expire => "expire",
            HopKind::CrashLost => "crash_lost",
            HopKind::Deliver => "deliver",
            HopKind::Ingest => "ingest",
            HopKind::Replay => "replay",
            HopKind::Fuse => "fuse",
            HopKind::OosmUpdate => "oosm_update",
        }
    }
}

impl fmt::Display for HopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-report trace context carried on the wire (codec v3).
///
/// `parent` is the span of the **enqueue** hop — the last hop that is
/// constant across retransmissions, so every retry and the eventual
/// delivery attach to the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TraceContext {
    /// The report's trace.
    pub trace: TraceId,
    /// Span the receiving side should parent its hops under.
    pub parent: SpanId,
}

impl TraceContext {
    /// The context a sender attaches once the report is enqueued.
    pub fn for_enqueued(trace: TraceId) -> TraceContext {
        TraceContext {
            trace,
            parent: SpanId::derive(trace, HopKind::Enqueue, 0),
        }
    }
}

/// One recorded hop of a report's journey.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHop {
    /// The report's trace.
    pub trace: TraceId,
    /// This hop's span (always `SpanId::derive(trace, kind, attempt)`).
    pub span: SpanId,
    /// Causal parent span; `None` only for the [`HopKind::DcEmit`] root.
    pub parent: Option<SpanId>,
    /// What happened.
    pub kind: HopKind,
    /// Attempt number (meaningful for `Send`/`Deliver`; 0 elsewhere).
    pub attempt: u32,
    /// Export track: `dc{N}`, `net` or `pdme`.
    pub track: String,
    /// Simulated start time, seconds.
    pub sim_start: f64,
    /// Simulated end time, seconds (≥ `sim_start`).
    pub sim_end: f64,
    /// Free-form annotation (machine, drop reason, …).
    pub detail: String,
}

impl TraceHop {
    /// Build a hop with the span derived from `(trace, kind, attempt)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        trace: TraceId,
        kind: HopKind,
        attempt: u32,
        parent: Option<SpanId>,
        track: impl Into<String>,
        sim_start: f64,
        sim_end: f64,
        detail: impl Into<String>,
    ) -> TraceHop {
        TraceHop {
            trace,
            span: SpanId::derive(trace, kind, attempt),
            parent,
            kind,
            attempt,
            track: track.into(),
            sim_start,
            sim_end,
            detail: detail.into(),
        }
    }
}

/// Canonical sort key: simulated time first, then trace/kind/attempt so
/// ties break identically no matter which worker recorded first.
fn canonical_key(h: &TraceHop) -> (u64, u64, u64, u64, u32, String) {
    (
        h.sim_start.to_bits(),
        h.sim_end.to_bits(),
        h.trace.0,
        h.kind.code(),
        h.attempt,
        h.detail.clone(),
    )
}

#[derive(Debug, Default)]
struct State {
    hops: Vec<TraceHop>,
    dropped: u64,
    watermark: usize,
}

/// Bounded, thread-safe hop log.
///
/// Worker threads record concurrently; insertion order therefore varies
/// with scheduling, and readers must use [`TraceLog::canonical_hops`]
/// for anything compared across runs. When the capacity is exhausted
/// new hops are counted in `dropped` and discarded (dropping the *new*
/// hop, not evicting an old one, keeps retained content independent of
/// insertion order); canonical exports are only guaranteed identical
/// across worker counts while `dropped == 0`.
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    state: Mutex<State>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A log retaining at most `capacity` hops.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            capacity,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one hop. Returns `true` if the hop was retained, `false`
    /// if the log was full and the hop was counted as dropped — callers
    /// (the [`crate::Telemetry`] handle) surface the drop as the
    /// `trace.hops_evicted` counter instead of losing it silently.
    pub fn record(&self, hop: TraceHop) -> bool {
        let mut s = self.lock();
        if s.hops.len() >= self.capacity {
            s.dropped += 1;
            return false;
        }
        s.hops.push(hop);
        s.watermark = s.watermark.max(s.hops.len());
        true
    }

    /// Number of retained hops.
    pub fn len(&self) -> usize {
        self.lock().hops.len()
    }

    /// The retention bound the log was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of retained hops over the log's lifetime.
    /// Together with [`TraceLog::capacity`] this tells an operator how
    /// close a long run came to the cap (and `dropped` says whether it
    /// hit it).
    pub fn watermark(&self) -> usize {
        self.lock().watermark
    }

    /// The hops recorded at raw index `start` and beyond, in insertion
    /// order, together with the new log length (the cursor for the next
    /// call). Insertion order is scheduling-dependent — cursor readers
    /// (the flight recorder) canonical-sort each delta themselves.
    pub fn hops_from(&self, start: usize) -> (Vec<TraceHop>, usize) {
        let s = self.lock();
        let from = start.min(s.hops.len());
        (s.hops[from..].to_vec(), s.hops.len())
    }

    /// Whether no hop has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hops discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// All retained hops in canonical (deterministic) order.
    pub fn canonical_hops(&self) -> Vec<TraceHop> {
        let mut hops = self.lock().hops.clone();
        hops.sort_by_key(canonical_key);
        hops
    }

    /// The hops of one trace, in canonical order.
    pub fn trace(&self, trace: TraceId) -> Vec<TraceHop> {
        let mut hops: Vec<TraceHop> = self
            .lock()
            .hops
            .iter()
            .filter(|h| h.trace == trace)
            .cloned()
            .collect();
        hops.sort_by_key(canonical_key);
        hops
    }
}

/// End-to-end latency (seconds of simulated time) of every *completed*
/// trace in `hops`: last [`HopKind::Fuse`] end minus the
/// [`HopKind::DcEmit`] start. Traces still in flight (or lost) are
/// skipped. Sorted ascending — ready for percentile reads.
pub fn e2e_latencies(hops: &[TraceHop]) -> Vec<f64> {
    use std::collections::BTreeMap;
    let mut emit: BTreeMap<u64, f64> = BTreeMap::new();
    let mut fused: BTreeMap<u64, f64> = BTreeMap::new();
    for h in hops {
        match h.kind {
            HopKind::DcEmit => {
                emit.entry(h.trace.0).or_insert(h.sim_start);
            }
            HopKind::Fuse => {
                let e = fused.entry(h.trace.0).or_insert(h.sim_end);
                if h.sim_end > *e {
                    *e = h.sim_end;
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<f64> = fused
        .iter()
        .filter_map(|(t, end)| emit.get(t).map(|start| (end - start).max(0.0)))
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_derivation_is_pure_and_kind_attempt_sensitive() {
        let t = TraceId::for_report(7, 42);
        assert_eq!(
            SpanId::derive(t, HopKind::Send, 1),
            SpanId::derive(t, HopKind::Send, 1)
        );
        assert_ne!(
            SpanId::derive(t, HopKind::Send, 1),
            SpanId::derive(t, HopKind::Send, 2)
        );
        assert_ne!(
            SpanId::derive(t, HopKind::Send, 1),
            SpanId::derive(t, HopKind::Deliver, 1)
        );
    }

    #[test]
    fn trace_seed_distinguishes_epochs_and_dcs() {
        let mut seen = std::collections::HashSet::new();
        for dc in 1..=8u64 {
            for epoch in 0..4u64 {
                assert!(seen.insert(dc_trace_seed(5, dc, epoch)));
            }
        }
    }

    #[test]
    fn hop_kind_codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in HopKind::ALL {
            assert!(seen.insert(k.code()), "duplicate code for {k}");
            assert!(!k.as_str().is_empty());
        }
    }

    #[test]
    fn log_canonical_order_ignores_insertion_order() {
        let t1 = TraceId(10);
        let t2 = TraceId(20);
        let a = TraceHop::new(t1, HopKind::DcEmit, 0, None, "dc1", 1.0, 1.0, "");
        let b = TraceHop::new(t2, HopKind::DcEmit, 0, None, "dc2", 1.0, 1.0, "");
        let log1 = TraceLog::default();
        log1.record(a.clone());
        log1.record(b.clone());
        let log2 = TraceLog::default();
        log2.record(b);
        log2.record(a);
        assert_eq!(log1.canonical_hops(), log2.canonical_hops());
    }

    #[test]
    fn full_log_drops_new_hops_and_counts_them() {
        let log = TraceLog::new(1);
        let t = TraceId(1);
        log.record(TraceHop::new(
            t,
            HopKind::DcEmit,
            0,
            None,
            "dc1",
            0.0,
            0.0,
            "",
        ));
        log.record(TraceHop::new(
            t,
            HopKind::Enqueue,
            0,
            None,
            "net",
            1.0,
            1.0,
            "",
        ));
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.canonical_hops()[0].kind, HopKind::DcEmit);
        assert_eq!(log.watermark(), 1);
        assert_eq!(log.capacity(), 1);
    }

    #[test]
    fn record_reports_retention_and_hops_from_pages_in_insertion_order() {
        let log = TraceLog::new(2);
        let t = TraceId(1);
        let mk = |kind| TraceHop::new(t, kind, 0, None, "dc1", 0.0, 0.0, "");
        assert!(log.record(mk(HopKind::DcEmit)));
        let (delta, cursor) = log.hops_from(0);
        assert_eq!(delta.len(), 1);
        assert_eq!(cursor, 1);
        assert!(log.record(mk(HopKind::Enqueue)));
        assert!(!log.record(mk(HopKind::Send)));
        let (delta, cursor) = log.hops_from(cursor);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].kind, HopKind::Enqueue);
        assert_eq!(cursor, 2);
        // A stale past-the-end cursor is clamped, not a panic.
        assert_eq!(log.hops_from(99).0.len(), 0);
        assert_eq!(log.watermark(), 2);
    }

    #[test]
    fn e2e_latency_spans_emit_to_last_fuse() {
        let t = TraceId(9);
        let hops = vec![
            TraceHop::new(t, HopKind::DcEmit, 0, None, "dc1", 10.0, 10.0, ""),
            TraceHop::new(t, HopKind::Fuse, 0, None, "pdme", 12.5, 12.5, ""),
            // An incomplete second trace contributes nothing.
            TraceHop::new(TraceId(11), HopKind::DcEmit, 0, None, "dc1", 11.0, 11.0, ""),
        ];
        assert_eq!(e2e_latencies(&hops), vec![2.5]);
    }
}
