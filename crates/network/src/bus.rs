//! The simulated ship LAN.
//!
//! A central switch with per-endpoint inbound queues, driven entirely by
//! simulated time: [`ShipNetwork::post`] timestamps each frame with a
//! deterministic latency-plus-jitter delivery time (or drops it); as the
//! scenario clock advances, [`ShipNetwork::recv`] surfaces everything
//! due. Partitions model §4.9's unstable shipboard communications: a
//! partitioned endpoint neither sends nor receives until healed; frames
//! lost to drops or partitions are counted in [`NetStats`].
//!
//! Report traffic is *reliable*: each DC's `ReportBatch` frames park in
//! a per-DC [`outbox`](crate::outbox) until the PDME's cumulative `Ack`
//! releases them, with exponential-backoff retransmission pumped by
//! [`ShipNetwork::pump_outboxes`]. A transient partition therefore
//! delays reports instead of losing them; only a frame that exhausts
//! its retry budget (or is evicted from a full queue) is given up,
//! counted on `net.expired`. Everything else — commands, heartbeats,
//! acks themselves — stays fire-and-forget: losing one costs a retry
//! round or a staleness blip, never data.

use crate::codec::{decode_message, encode_message, BatchEntry, NetMessage, MAX_BATCH};
use crate::outbox::{Outbox, PendingBatch, MAX_ATTEMPTS};
use mpros_core::{derive_salted_seed, ConditionReport, DcId, Error, Result, SimDuration, SimTime};
use mpros_telemetry::{
    Counter, Histogram, HopKind, Instrumented, SpanId, Stage, Telemetry, TraceContext, TraceHop,
    TraceId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Salt separating each DC's backoff-jitter stream from its plant and
/// id streams derived off the same master seed.
const OUTBOX_STREAM_SALT: u64 = 0x0B0C_5EED_D15C_0DE5;

/// Base one-way latency, in milliseconds. Positive, so a frame posted
/// at `now` is never received at `now`: the ship's tick phases stay
/// separate (see `mpros_ship::sim`).
const BASE_LATENCY_MS: f64 = 5.0;

/// A network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A data concentrator.
    Dc(DcId),
    /// The central PDME.
    Pdme,
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Dc(id) => write!(f, "{id}"),
            Endpoint::Pdme => write!(f, "PDME"),
        }
    }
}

/// A typed frame hand-off: who sends what to whom. The single argument
/// of [`ShipNetwork::post`].
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending endpoint.
    pub from: Endpoint,
    /// Receiving endpoint.
    pub to: Endpoint,
    /// The message.
    pub msg: NetMessage,
}

impl Envelope {
    /// An envelope between two arbitrary endpoints.
    pub fn new(from: Endpoint, to: Endpoint, msg: NetMessage) -> Self {
        Envelope { from, to, msg }
    }

    /// DC → PDME (report and heartbeat direction).
    pub fn to_pdme(dc: DcId, msg: NetMessage) -> Self {
        Envelope::new(Endpoint::Dc(dc), Endpoint::Pdme, msg)
    }

    /// PDME → DC (command and ack direction).
    pub fn to_dc(dc: DcId, msg: NetMessage) -> Self {
        Envelope::new(Endpoint::Pdme, Endpoint::Dc(dc), msg)
    }
}

/// Network behaviour parameters. Construct via [`NetworkConfig::new`]
/// and the `with_*` builders; the struct is `#[non_exhaustive]` so
/// future fault knobs are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct NetworkConfig {
    /// Uniform jitter added on top of the fixed 5 ms base latency
    /// (0..jitter).
    pub jitter: SimDuration,
    /// Probability a frame is silently lost.
    pub drop_probability: f64,
    /// RNG seed (jitter, drops, and retry backoff are deterministic
    /// given it).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            jitter: SimDuration::from_millis(2.0),
            drop_probability: 0.0,
            seed: 1,
        }
    }
}

impl NetworkConfig {
    /// The default behaviour: 2 ms jitter over the 5 ms base latency,
    /// lossless.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the jitter ceiling.
    pub fn with_jitter(mut self, d: SimDuration) -> Self {
        self.jitter = d;
        self
    }

    /// Set the random-loss probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames accepted for transmission.
    pub sent: usize,
    /// Frames surfaced to receivers.
    pub delivered: usize,
    /// Frames lost (random drop or partition).
    pub dropped: usize,
    /// Report-batch retransmissions pumped from outboxes.
    pub retries: usize,
    /// Report-batch frames permanently given up: retry budget exhausted
    /// or evicted from a full outbox.
    pub expired: usize,
}

#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    to: Endpoint,
    sent_at: SimTime,
    /// For `ReportBatch` frames, the outbox transmission attempt that
    /// put this copy on the wire (0 for untracked traffic) — lets the
    /// delivery hop parent under the matching `Send` span.
    attempt: u32,
    frame: Vec<u8>,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by delivery time, then sequence (deterministic).
        // Delivery times are finite; a NaN would tie and fall back to
        // the sequence order rather than panic.
        self.deliver_at
            .partial_cmp(&other.deliver_at)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Registry-backed delivery counters for one endpoint.
#[derive(Debug)]
struct EndpointCounters {
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
}

/// The bus-wide registry handles, rebound as one unit on domain joins.
#[derive(Debug)]
struct BusCounters {
    sent: Arc<Counter>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    batched_reports: Arc<Counter>,
    retries: Arc<Counter>,
    expired: Arc<Counter>,
    crash_lost: Arc<Counter>,
    bus_transit: Arc<Histogram>,
}

impl BusCounters {
    fn wire(telemetry: &Telemetry) -> Self {
        BusCounters {
            sent: telemetry.counter("net", "sent"),
            delivered: telemetry.counter("net", "delivered"),
            dropped: telemetry.counter("net", "dropped"),
            batched_reports: telemetry.counter("net", "batched_reports"),
            retries: telemetry.counter("net", "retries"),
            expired: telemetry.counter("net", "expired"),
            crash_lost: telemetry.counter("net", "crash_lost"),
            bus_transit: telemetry.histogram("net", "bus_transit_s"),
        }
    }
}

/// The simulated network switch.
#[derive(Debug)]
pub struct ShipNetwork {
    config: NetworkConfig,
    rng: StdRng,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    inboxes: HashMap<Endpoint, VecDeque<NetMessage>>,
    partitioned: HashSet<Endpoint>,
    /// Per-DC reliable-delivery queues. `BTreeMap` so pumping iterates
    /// in DC order — the retry RNG draw order must not depend on hash
    /// iteration.
    outboxes: BTreeMap<DcId, Outbox>,
    seq: u64,
    telemetry: Telemetry,
    metrics: BusCounters,
    per_endpoint: HashMap<Endpoint, EndpointCounters>,
}

impl ShipNetwork {
    /// Build a network with the given behaviour, observing a private
    /// telemetry domain until [`Instrumented::set_telemetry`] joins it
    /// to the scenario's.
    pub fn new(config: NetworkConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let telemetry = Telemetry::new();
        let metrics = BusCounters::wire(&telemetry);
        ShipNetwork {
            config,
            rng,
            in_flight: BinaryHeap::new(),
            inboxes: HashMap::new(),
            partitioned: HashSet::new(),
            outboxes: BTreeMap::new(),
            seq: 0,
            telemetry,
            metrics,
            per_endpoint: HashMap::new(),
        }
    }

    fn endpoint_counters(telemetry: &Telemetry, endpoint: Endpoint) -> EndpointCounters {
        EndpointCounters {
            delivered: telemetry.counter("net", &format!("delivered.{endpoint}")),
            dropped: telemetry.counter("net", &format!("dropped.{endpoint}")),
        }
    }

    /// Register an endpoint (creates its inbox and delivery counters).
    pub fn register(&mut self, endpoint: Endpoint) {
        self.inboxes.entry(endpoint).or_default();
        self.per_endpoint
            .entry(endpoint)
            .or_insert_with(|| Self::endpoint_counters(&self.telemetry, endpoint));
        if let Endpoint::Dc(dc) = endpoint {
            let seed = derive_salted_seed(self.config.seed, dc.raw(), OUTBOX_STREAM_SALT);
            self.outboxes.entry(dc).or_insert_with(|| Outbox::new(seed));
        }
    }

    /// True if the endpoint is registered.
    pub fn is_registered(&self, endpoint: Endpoint) -> bool {
        self.inboxes.contains_key(&endpoint)
    }

    /// Set or clear a partition on an endpoint.
    pub fn set_partitioned(&mut self, endpoint: Endpoint, partitioned: bool) {
        let changed = if partitioned {
            self.partitioned.insert(endpoint)
        } else {
            self.partitioned.remove(&endpoint)
        };
        if changed {
            let kind = if partitioned { "partition" } else { "heal" };
            self.telemetry
                .event("net", kind, format!("endpoint {endpoint}"));
        }
    }

    fn count_drop(&self, to: Endpoint, reason: &str, detail: String) {
        self.metrics.dropped.inc();
        if let Some(ep) = self.per_endpoint.get(&to) {
            ep.dropped.inc();
        }
        self.telemetry.event("net", reason, detail);
    }

    /// Post an envelope at simulated time `now`. The frame is encoded,
    /// subjected to loss/partition, and scheduled for delivery. This is
    /// fire-and-forget; report batches wanting retransmission go through
    /// [`ShipNetwork::enqueue_report_batch`] instead.
    pub fn post(&mut self, now: SimTime, envelope: Envelope) -> Result<()> {
        self.transmit_attempt(now, envelope.from, envelope.to, &envelope.msg, 0)
    }

    fn transmit_attempt(
        &mut self,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        msg: &NetMessage,
        attempt: u32,
    ) -> Result<()> {
        if !self.is_registered(to) {
            return Err(Error::Network(format!("unknown endpoint {to}")));
        }
        self.metrics.sent.inc();
        if self.partitioned.contains(&from) || self.partitioned.contains(&to) {
            // Silently lost, like a real partition.
            self.count_drop(to, "drop", format!("{from}->{to} lost to partition"));
            return Ok(());
        }
        if self.config.drop_probability > 0.0
            && self.rng.gen_range(0.0..1.0) < self.config.drop_probability
        {
            self.count_drop(to, "drop", format!("{from}->{to} random loss"));
            return Ok(());
        }
        let frame = encode_message(msg)?;
        let jitter = if self.config.jitter.as_secs() > 0.0 {
            self.config.jitter * self.rng.gen_range(0.0..1.0)
        } else {
            SimDuration::ZERO
        };
        let deliver_at = now + SimDuration::from_millis(BASE_LATENCY_MS) + jitter;
        self.seq += 1;
        self.in_flight.push(Reverse(InFlight {
            deliver_at,
            seq: self.seq,
            to,
            sent_at: now,
            attempt,
            frame,
        }));
        Ok(())
    }

    /// Record one causal hop for every entry of a pending batch frame.
    fn record_batch_hops(
        &self,
        entries: &[BatchEntry],
        kind: HopKind,
        attempt: u32,
        at: SimTime,
        detail: &str,
    ) {
        for e in entries {
            self.telemetry.record_hop(TraceHop::new(
                e.trace.trace,
                kind,
                attempt,
                Some(e.trace.parent),
                "net",
                at.as_secs(),
                at.as_secs(),
                detail,
            ));
        }
    }

    /// Park one DC's reports for a step in its outbox as
    /// [`NetMessage::ReportBatch`] frames (split above [`MAX_BATCH`]),
    /// stamped with the DC's current restart epoch. Frames go on the
    /// wire — and keep going, on exponential backoff — at each
    /// [`ShipNetwork::pump_outboxes`] until the PDME's cumulative
    /// [`NetMessage::Ack`] releases them. Entries are sequenced by
    /// report id (strictly increasing per DC and epoch by
    /// construction) and stamped with their trace context, derived from
    /// `trace_seed` — the same seed the emitting DC derives its
    /// `DcEmit` hops from, so the enqueue hop lands on the same trace.
    /// Nothing is queued for an empty `reports`.
    pub fn enqueue_report_batch(
        &mut self,
        now: SimTime,
        dc: DcId,
        reports: Vec<ConditionReport>,
        trace_seed: u64,
    ) -> Result<()> {
        if reports.is_empty() {
            return Ok(());
        }
        let Some(outbox) = self.outboxes.get(&dc) else {
            return Err(Error::Network(format!("unregistered DC {dc}")));
        };
        let epoch = outbox.epoch;
        let entries: Vec<BatchEntry> = reports
            .into_iter()
            .map(|report| {
                let trace = TraceId::for_report(trace_seed, report.id.raw());
                BatchEntry {
                    seq: report.id.raw(),
                    trace: TraceContext::for_enqueued(trace),
                    report,
                }
            })
            .collect();
        for e in &entries {
            self.telemetry.record_hop(TraceHop::new(
                e.trace.trace,
                HopKind::Enqueue,
                0,
                Some(SpanId::derive(e.trace.trace, HopKind::DcEmit, 0)),
                "net",
                now.as_secs(),
                now.as_secs(),
                "",
            ));
        }
        let mut evicted: Vec<PendingBatch> = Vec::new();
        if let Some(outbox) = self.outboxes.get_mut(&dc) {
            for chunk in entries.chunks(MAX_BATCH) {
                let Some(last) = chunk.last() else { continue };
                self.metrics.batched_reports.add(chunk.len() as u64);
                evicted.extend(outbox.push(PendingBatch {
                    epoch,
                    last_seq: last.seq,
                    entries: chunk.to_vec(),
                    attempts: 0,
                    next_send: now,
                }));
            }
        }
        if !evicted.is_empty() {
            self.metrics.expired.add(evicted.len() as u64);
            self.telemetry.event(
                "net",
                "expired",
                format!(
                    "{dc}: {} frame(s) evicted from a full outbox",
                    evicted.len()
                ),
            );
            for p in &evicted {
                self.record_batch_hops(
                    &p.entries,
                    HopKind::Expire,
                    p.attempts,
                    now,
                    "evicted from full outbox",
                );
            }
        }
        Ok(())
    }

    /// Put every due outbox frame on the wire, in DC order then
    /// emission order. First transmissions and retries alike flow
    /// through the bus's normal latency/loss model; retries are counted
    /// on `net.retries`, and a frame whose transmission budget is spent
    /// is given up and counted on `net.expired`. Deterministic: backoff
    /// jitter comes from each DC's own stream, and the shared
    /// loss/jitter RNG is consumed in the fixed iteration order.
    pub fn pump_outboxes(&mut self, now: SimTime) -> Result<()> {
        let dcs: Vec<DcId> = self.outboxes.keys().copied().collect();
        for dc in dcs {
            let mut frames: Vec<(NetMessage, u32)> = Vec::new();
            let mut expired: Vec<PendingBatch> = Vec::new();
            let mut retries = 0u64;
            if let Some(outbox) = self.outboxes.get_mut(&dc) {
                let mut kept = VecDeque::with_capacity(outbox.pending.len());
                while let Some(mut p) = outbox.pending.pop_front() {
                    if p.next_send > now {
                        kept.push_back(p);
                        continue;
                    }
                    if p.attempts >= MAX_ATTEMPTS {
                        expired.push(p);
                        continue;
                    }
                    p.attempts += 1;
                    if p.attempts > 1 {
                        retries += 1;
                    }
                    frames.push((
                        NetMessage::ReportBatch {
                            dc,
                            epoch: p.epoch,
                            entries: p.entries.clone(),
                        },
                        p.attempts,
                    ));
                    p.next_send = now + outbox.backoff(p.attempts);
                    kept.push_back(p);
                }
                outbox.pending = kept;
            }
            self.metrics.retries.add(retries);
            if !expired.is_empty() {
                self.metrics.expired.add(expired.len() as u64);
                self.telemetry.event(
                    "net",
                    "expired",
                    format!(
                        "{dc}: {} frame(s) exhausted the retry budget",
                        expired.len()
                    ),
                );
                for p in &expired {
                    self.record_batch_hops(
                        &p.entries,
                        HopKind::Expire,
                        p.attempts,
                        now,
                        "retry budget exhausted",
                    );
                }
            }
            for (msg, attempt) in frames {
                if let NetMessage::ReportBatch { entries, .. } = &msg {
                    self.record_batch_hops(entries, HopKind::Send, attempt, now, "");
                }
                self.transmit_attempt(now, Endpoint::Dc(dc), Endpoint::Pdme, &msg, attempt)?;
            }
        }
        Ok(())
    }

    /// Apply a cumulative acknowledgement to a DC's outbox: every
    /// pending frame of `(dc, epoch)` with `last_seq` covered is
    /// released and will not be retransmitted.
    pub fn acknowledge(&mut self, dc: DcId, epoch: u64, last_seq: u64) {
        if let Some(outbox) = self.outboxes.get_mut(&dc) {
            outbox.acknowledge(epoch, last_seq);
        }
    }

    /// A DC process crashed: its volatile outbox state is lost (counted
    /// on `net.crash_lost`, not `net.expired` — the transport did not
    /// give these frames up, the node did) and the endpoint goes dark
    /// until [`ShipNetwork::restart_dc`].
    pub fn crash_dc(&mut self, dc: DcId) {
        let at = self.telemetry.sim_now();
        if let Some(outbox) = self.outboxes.get(&dc) {
            let doomed: Vec<PendingBatch> = outbox.pending.iter().cloned().collect();
            for p in &doomed {
                self.record_batch_hops(&p.entries, HopKind::CrashLost, p.attempts, at, "dc crash");
            }
        }
        let lost = self
            .outboxes
            .get_mut(&dc)
            .map(|o| o.clear())
            .unwrap_or_default();
        if lost > 0 {
            self.metrics.crash_lost.add(lost as u64);
        }
        self.telemetry.event(
            "net",
            "dc_crash",
            format!("{dc} crashed; {lost} outbox frame(s) lost"),
        );
        self.set_partitioned(Endpoint::Dc(dc), true);
    }

    /// A crashed DC came back: the endpoint rejoins the network and its
    /// outbox adopts the new restart `epoch`, so post-restart frames are
    /// distinguishable from pre-crash ones at the receiver.
    pub fn restart_dc(&mut self, dc: DcId, epoch: u64) {
        if let Some(outbox) = self.outboxes.get_mut(&dc) {
            outbox.epoch = epoch;
        }
        self.telemetry.event(
            "net",
            "dc_restart",
            format!("{dc} restarted, epoch {epoch}"),
        );
        self.set_partitioned(Endpoint::Dc(dc), false);
    }

    /// Unacknowledged report frames parked in one DC's outbox.
    pub fn outbox_depth(&self, dc: DcId) -> usize {
        self.outboxes.get(&dc).map(|o| o.pending.len()).unwrap_or(0)
    }

    /// The restart epoch a DC's outbox currently stamps onto frames.
    pub fn outbox_epoch(&self, dc: DcId) -> u64 {
        self.outboxes.get(&dc).map(|o| o.epoch).unwrap_or(0)
    }

    /// Move every frame due at or before `now` into its inbox.
    pub fn advance(&mut self, now: SimTime) {
        while self
            .in_flight
            .peek()
            .is_some_and(|Reverse(head)| head.deliver_at <= now)
        {
            let Some(Reverse(f)) = self.in_flight.pop() else {
                break;
            };
            // A partition raised after send loses in-flight frames too.
            if self.partitioned.contains(&f.to) {
                self.count_drop(
                    f.to,
                    "drop",
                    format!("in-flight to {} lost to partition", f.to),
                );
                continue;
            }
            let to = f.to;
            let transit = f.deliver_at.since(f.sent_at);
            match decode_message(&f.frame) {
                Ok(msg) => {
                    self.metrics.delivered.inc();
                    if let Some(ep) = self.per_endpoint.get(&to) {
                        ep.delivered.inc();
                    }
                    self.metrics.bus_transit.record(transit.as_secs());
                    self.telemetry.record_span_sim(Stage::BusTransit, transit);
                    if let NetMessage::ReportBatch { entries, .. } = &msg {
                        for e in entries {
                            self.telemetry.record_hop(TraceHop::new(
                                e.trace.trace,
                                HopKind::Deliver,
                                f.attempt,
                                Some(SpanId::derive(e.trace.trace, HopKind::Send, f.attempt)),
                                "net",
                                f.sent_at.as_secs(),
                                f.deliver_at.as_secs(),
                                "",
                            ));
                        }
                    }
                    // Registered at send time.
                    self.inboxes.entry(to).or_default().push_back(msg);
                }
                Err(e) => {
                    self.count_drop(to, "drop", format!("undecodable frame to {to}: {e}"));
                }
            }
        }
    }

    /// Drain the inbox of an endpoint (after advancing to `now`).
    pub fn recv(&mut self, endpoint: Endpoint, now: SimTime) -> Vec<NetMessage> {
        self.advance(now);
        self.inboxes
            .get_mut(&endpoint)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Delivery counters (read from the telemetry registry; the struct
    /// shape predates it and is kept for compatibility).
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.metrics.sent.get() as usize,
            delivered: self.metrics.delivered.get() as usize,
            dropped: self.metrics.dropped.get() as usize,
            retries: self.metrics.retries.get() as usize,
            expired: self.metrics.expired.get() as usize,
        }
    }

    /// Frames delivered to one endpoint so far.
    pub fn delivered_to(&self, endpoint: Endpoint) -> u64 {
        self.per_endpoint
            .get(&endpoint)
            .map(|ep| ep.delivered.get())
            .unwrap_or(0)
    }

    /// Frames addressed to one endpoint and lost so far.
    pub fn dropped_to(&self, endpoint: Endpoint) -> u64 {
        self.per_endpoint
            .get(&endpoint)
            .map(|ep| ep.dropped.get())
            .unwrap_or(0)
    }

    /// The bus-transit latency histogram (simulated seconds).
    pub fn bus_transit(&self) -> Arc<Histogram> {
        Arc::clone(&self.metrics.bus_transit)
    }

    /// Frames currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }
}

impl Instrumented for ShipNetwork {
    /// Record into `telemetry` from now on, per-endpoint counters
    /// included.
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = BusCounters::wire(telemetry);
        for (endpoint, counters) in &mut self.per_endpoint {
            *counters = Self::endpoint_counters(telemetry, *endpoint);
        }
        self.telemetry = telemetry.clone();
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat(dc: u64) -> NetMessage {
        NetMessage::Heartbeat {
            dc: DcId::new(dc),
            at_secs: 0.0,
        }
    }

    fn network(drop: f64) -> ShipNetwork {
        let mut net = ShipNetwork::new(
            NetworkConfig::new()
                .with_jitter(SimDuration::from_millis(5.0))
                .with_drop_probability(drop)
                .with_seed(42),
        );
        net.register(Endpoint::Pdme);
        net.register(Endpoint::Dc(DcId::new(1)));
        net
    }

    fn sample_reports(dc: DcId, seqs: &[u64]) -> Vec<ConditionReport> {
        use mpros_core::{Belief, MachineCondition, MachineId, ReportId};
        seqs.iter()
            .map(|&i| {
                ConditionReport::builder(
                    MachineId::new(7),
                    MachineCondition::GearToothWear,
                    Belief::new(0.7),
                )
                .id(ReportId::new(i))
                .dc(dc)
                .timestamp(SimTime::ZERO)
                .build()
            })
            .collect()
    }

    #[test]
    fn messages_arrive_after_latency() {
        let mut net = network(0.0);
        let t0 = SimTime::ZERO;
        net.post(t0, Envelope::to_pdme(DcId::new(1), heartbeat(1)))
            .unwrap();
        // Too early: nothing.
        assert!(net
            .recv(Endpoint::Pdme, t0 + SimDuration::from_millis(4.0))
            .is_empty());
        assert_eq!(net.in_flight_count(), 1);
        // After max latency (5 + 5 ms) it is there.
        let got = net.recv(Endpoint::Pdme, t0 + SimDuration::from_millis(20.0));
        assert_eq!(got.len(), 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn delivery_order_is_by_delivery_time() {
        let mut net = ShipNetwork::new(
            NetworkConfig::new()
                .with_jitter(SimDuration::ZERO)
                .with_seed(1),
        );
        net.register(Endpoint::Pdme);
        net.register(Endpoint::Dc(DcId::new(1)));
        for i in 0..5 {
            net.post(
                SimTime::from_secs(i as f64),
                Envelope::to_pdme(DcId::new(1), heartbeat(i)),
            )
            .unwrap();
        }
        let got = net.recv(Endpoint::Pdme, SimTime::from_secs(100.0));
        let ids: Vec<u64> = got
            .iter()
            .map(|m| match m {
                NetMessage::Heartbeat { dc, .. } => dc.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unknown_endpoint_is_an_error() {
        let mut net = network(0.0);
        let err = net
            .post(SimTime::ZERO, Envelope::to_dc(DcId::new(99), heartbeat(1)))
            .unwrap_err();
        assert!(matches!(err, Error::Network(_)));
    }

    #[test]
    fn drops_are_counted_not_delivered() {
        let mut net = network(1.0); // everything drops
        for _ in 0..10 {
            net.post(SimTime::ZERO, Envelope::to_pdme(DcId::new(1), heartbeat(1)))
                .unwrap();
        }
        assert!(net
            .recv(Endpoint::Pdme, SimTime::from_secs(10.0))
            .is_empty());
        let s = net.stats();
        assert_eq!(s.sent, 10);
        assert_eq!(s.dropped, 10);
        assert_eq!(s.delivered, 0);
    }

    #[test]
    fn partial_loss_rate_is_plausible() {
        let mut net = network(0.3);
        for i in 0..1000 {
            net.post(
                SimTime::from_secs(i as f64 * 0.001),
                Envelope::to_pdme(DcId::new(1), heartbeat(1)),
            )
            .unwrap();
        }
        let got = net.recv(Endpoint::Pdme, SimTime::from_secs(100.0));
        let rate = got.len() as f64 / 1000.0;
        assert!((0.6..0.8).contains(&rate), "delivery rate {rate}");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut net = network(0.0);
        let dc = Endpoint::Dc(DcId::new(1));
        net.set_partitioned(dc, true);
        net.post(SimTime::ZERO, Envelope::to_pdme(DcId::new(1), heartbeat(1)))
            .unwrap();
        assert_eq!(net.stats().dropped, 1, "partitioned sender loses frames");
        net.set_partitioned(dc, false);
        net.post(
            SimTime::from_secs(1.0),
            Envelope::to_pdme(DcId::new(1), heartbeat(1)),
        )
        .unwrap();
        let got = net.recv(Endpoint::Pdme, SimTime::from_secs(2.0));
        assert_eq!(got.len(), 1, "healed partition delivers again");
    }

    #[test]
    fn partition_raised_midflight_loses_in_flight_frames() {
        let mut net = network(0.0);
        net.post(SimTime::ZERO, Envelope::to_pdme(DcId::new(1), heartbeat(1)))
            .unwrap();
        net.set_partitioned(Endpoint::Pdme, true);
        assert!(net.recv(Endpoint::Pdme, SimTime::from_secs(1.0)).is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn partition_heal_redelivery_accounting_is_exact() {
        // Lossless network; every frame must be accounted for as either
        // delivered or dropped, globally and per endpoint, across a
        // partition → heal → redelivery cycle.
        let mut net = network(0.0);
        let dc = DcId::new(1);
        let pdme = Endpoint::Pdme;

        // Phase 1: healthy traffic, delivered.
        for i in 0..5 {
            net.post(
                SimTime::from_secs(i as f64),
                Envelope::to_pdme(dc, heartbeat(1)),
            )
            .unwrap();
        }
        assert_eq!(net.recv(pdme, SimTime::from_secs(10.0)).len(), 5);

        // Phase 2: one frame in flight, then the PDME partitions — the
        // in-flight frame and everything sent during the outage is lost.
        net.post(
            SimTime::from_secs(10.0),
            Envelope::to_pdme(dc, heartbeat(1)),
        )
        .unwrap();
        net.set_partitioned(pdme, true);
        for i in 0..3 {
            net.post(
                SimTime::from_secs(11.0 + i as f64),
                Envelope::to_pdme(dc, heartbeat(1)),
            )
            .unwrap();
        }
        assert!(net.recv(pdme, SimTime::from_secs(20.0)).is_empty());

        // Phase 3: heal; traffic flows again.
        net.set_partitioned(pdme, false);
        for i in 0..4 {
            net.post(
                SimTime::from_secs(21.0 + i as f64),
                Envelope::to_pdme(dc, heartbeat(1)),
            )
            .unwrap();
        }
        assert_eq!(net.recv(pdme, SimTime::from_secs(30.0)).len(), 4);

        let s = net.stats();
        assert_eq!(s.sent, 13);
        assert_eq!(s.delivered, 9);
        assert_eq!(s.dropped, 4, "1 in-flight + 3 during the outage");
        assert_eq!(s.sent, s.delivered + s.dropped, "nothing unaccounted");
        // Per-endpoint counters agree with the global ones (all traffic
        // was addressed to the PDME).
        assert_eq!(net.delivered_to(pdme), 9);
        assert_eq!(net.dropped_to(pdme), 4);
        assert_eq!(net.delivered_to(Endpoint::Dc(dc)), 0);
        // The journal saw the partition raise and heal.
        let kinds: Vec<String> = net
            .telemetry()
            .events()
            .iter()
            .map(|e| e.kind.clone())
            .collect();
        assert!(kinds.contains(&"partition".to_owned()));
        assert!(kinds.contains(&"heal".to_owned()));
        // Bus-transit latency was histogrammed for each delivery, and
        // sits inside the 5 ms base latency + 5 ms jitter window.
        let transit = net.bus_transit();
        assert_eq!(transit.count(), 9);
        assert!(transit.min().unwrap() >= 0.005);
        assert!(transit.max().unwrap() <= 0.010 + 1e-12);
    }

    #[test]
    fn set_telemetry_records_into_the_new_domain_only() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.post(SimTime::ZERO, Envelope::to_pdme(dc, heartbeat(1)))
            .unwrap();
        assert_eq!(net.recv(Endpoint::Pdme, SimTime::from_secs(1.0)).len(), 1);
        let private = net.telemetry().clone();
        let shared = Telemetry::new();
        net.set_telemetry(&shared);
        assert_eq!(net.stats().sent, 0, "counts stay in the old domain");
        net.post(SimTime::from_secs(2.0), Envelope::to_pdme(dc, heartbeat(1)))
            .unwrap();
        assert_eq!(net.recv(Endpoint::Pdme, SimTime::from_secs(3.0)).len(), 1);
        assert_eq!(shared.counter("net", "sent").get(), 1);
        assert_eq!(net.delivered_to(Endpoint::Pdme), 1);
        assert_eq!(private.counter("net", "sent").get(), 1);
    }

    #[test]
    fn report_batch_travels_as_one_frame() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        let reports = sample_reports(dc, &[100, 101, 102]);
        net.enqueue_report_batch(SimTime::ZERO, dc, reports, 0x5EED)
            .unwrap();
        net.pump_outboxes(SimTime::ZERO).unwrap();
        // Three reports, one frame on the wire.
        assert_eq!(net.stats().sent, 1);
        let got = net.recv(Endpoint::Pdme, SimTime::from_secs(1.0));
        assert_eq!(got.len(), 1);
        match &got[0] {
            NetMessage::ReportBatch {
                dc: from,
                epoch,
                entries,
            } => {
                assert_eq!(*from, dc);
                assert_eq!(*epoch, 0);
                let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
                assert_eq!(seqs, vec![100, 101, 102]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Empty batches queue nothing at all.
        net.enqueue_report_batch(SimTime::from_secs(2.0), dc, Vec::new(), 0x5EED)
            .unwrap();
        assert_eq!(net.outbox_depth(dc), 1, "only the unacked frame");
    }

    #[test]
    fn unacked_batches_retry_until_acknowledged() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[10, 11]), 0x5EED)
            .unwrap();
        net.pump_outboxes(SimTime::ZERO).unwrap();
        assert_eq!(net.stats().sent, 1);
        assert_eq!(net.stats().retries, 0);
        // No ack: pumping after the backoff retransmits the same frame.
        net.pump_outboxes(SimTime::from_secs(2.0)).unwrap();
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().retries, 1);
        // Acked: nothing further goes out.
        net.acknowledge(dc, 0, 11);
        assert_eq!(net.outbox_depth(dc), 0);
        net.pump_outboxes(SimTime::from_secs(60.0)).unwrap();
        assert_eq!(net.stats().sent, 2);
        // Both transmissions delivered (lossless bus): the receiver sees
        // the duplicate — dedup is the replay guard's job, not the bus's.
        assert_eq!(net.recv(Endpoint::Pdme, SimTime::from_secs(61.0)).len(), 2);
    }

    #[test]
    fn retries_survive_a_healing_partition_without_expiry() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[10]), 0x5EED)
            .unwrap();
        net.set_partitioned(Endpoint::Dc(dc), true);
        // Every pump during the outage is swallowed by the partition.
        for s in 0..40 {
            net.pump_outboxes(SimTime::from_secs(s as f64)).unwrap();
        }
        assert!(net
            .recv(Endpoint::Pdme, SimTime::from_secs(40.0))
            .is_empty());
        assert_eq!(net.stats().expired, 0, "still inside the retry budget");
        assert_eq!(net.outbox_depth(dc), 1);
        // Heal: the next due retry delivers.
        net.set_partitioned(Endpoint::Dc(dc), false);
        for s in 40..80 {
            net.pump_outboxes(SimTime::from_secs(s as f64)).unwrap();
        }
        assert!(
            !net.recv(Endpoint::Pdme, SimTime::from_secs(80.0))
                .is_empty(),
            "report crossed after heal"
        );
        assert!(net.stats().retries > 0);
        assert_eq!(net.stats().expired, 0);
    }

    #[test]
    fn exhausted_retry_budget_expires_the_frame() {
        let mut net = ShipNetwork::new(NetworkConfig::default());
        net.register(Endpoint::Pdme);
        let dc = DcId::new(1);
        net.register(Endpoint::Dc(dc));
        net.set_partitioned(Endpoint::Pdme, true); // permanent outage
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[10]), 0x5EED)
            .unwrap();
        // Pump every 0.1 s and note when each transmission goes out.
        let tick = 0.1;
        let mut sends = Vec::new();
        let mut expired_at = None;
        for i in 0..2_000 {
            let now = i as f64 * tick;
            net.pump_outboxes(SimTime::from_secs(now)).unwrap();
            if net.stats().sent > sends.len() {
                sends.push(now);
            }
            if expired_at.is_none() && net.stats().expired > 0 {
                expired_at = Some(now);
            }
        }
        assert_eq!(sends.len(), 10, "10 transmissions before expiry");
        assert_eq!(net.stats().retries, 9, "10 attempts = 1 send + 9 retries");
        assert_eq!(net.stats().expired, 1);
        assert_eq!(net.outbox_depth(dc), 0);
        let expired_at = expired_at.expect("the frame expired");
        assert!(
            expired_at > sends[9],
            "expiry follows the 10th transmission"
        );
        // The gaps double from 1 s and cap at 16 s, each stretched by at
        // most 10% jitter (plus one pump tick of granularity).
        let nominal = [1.0, 2.0, 4.0, 8.0, 16.0, 16.0, 16.0, 16.0, 16.0];
        for (gap, nominal) in sends.windows(2).map(|w| w[1] - w[0]).zip(nominal) {
            assert!(
                gap >= nominal - 1e-9 && gap <= nominal * 1.1 + tick + 1e-9,
                "gap {gap} outside [{nominal}, {}]",
                nominal * 1.1 + tick
            );
        }
    }

    #[test]
    fn full_outbox_evicts_oldest_and_counts_expired() {
        let mut net = ShipNetwork::new(NetworkConfig::default());
        net.register(Endpoint::Pdme);
        let dc = DcId::new(1);
        net.register(Endpoint::Dc(dc));
        net.set_partitioned(Endpoint::Pdme, true); // nothing ever acks
        let enqueue = |net: &mut ShipNetwork, i: u64| {
            net.enqueue_report_batch(
                SimTime::from_secs(i as f64),
                dc,
                sample_reports(dc, &[10 + i]),
                0x5EED,
            )
            .unwrap();
        };
        for i in 0..64 {
            enqueue(&mut net, i);
        }
        assert_eq!(net.outbox_depth(dc), 64);
        assert_eq!(net.stats().expired, 0, "64 pending batches fit");
        enqueue(&mut net, 64);
        assert_eq!(net.outbox_depth(dc), 64);
        assert_eq!(net.stats().expired, 1, "the 65th evicts the oldest");
    }

    #[test]
    fn default_base_latency_keeps_a_tick_phase_separate() {
        let mut net = ShipNetwork::new(NetworkConfig::default());
        net.register(Endpoint::Pdme);
        net.register(Endpoint::Dc(DcId::new(1)));
        let now = SimTime::from_secs(30.0);
        net.post(now, Envelope::to_pdme(DcId::new(1), heartbeat(1)))
            .unwrap();
        assert!(
            net.recv(Endpoint::Pdme, now).is_empty(),
            "a frame sent this tick is received this tick"
        );
        assert!(net
            .recv(Endpoint::Pdme, now + SimDuration::from_millis(4.9))
            .is_empty());
        // 5 ms base latency + at most 2 ms default jitter.
        let got = net.recv(Endpoint::Pdme, now + SimDuration::from_millis(7.0));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn crash_clears_the_outbox_and_restart_bumps_the_epoch() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[10]), 0x5EED)
            .unwrap();
        net.crash_dc(dc);
        assert_eq!(net.outbox_depth(dc), 0, "volatile state lost");
        assert_eq!(net.stats().expired, 0, "crash loss is not transport expiry");
        assert_eq!(net.telemetry().counter("net", "crash_lost").get(), 1);
        // While crashed the endpoint is dark.
        net.pump_outboxes(SimTime::from_secs(1.0)).unwrap();
        assert!(net.recv(Endpoint::Pdme, SimTime::from_secs(2.0)).is_empty());
        // Restart: new epoch is stamped on subsequent frames.
        net.restart_dc(dc, 1);
        assert_eq!(net.outbox_epoch(dc), 1);
        net.enqueue_report_batch(
            SimTime::from_secs(3.0),
            dc,
            sample_reports(dc, &[1]),
            0x5EED,
        )
        .unwrap();
        net.pump_outboxes(SimTime::from_secs(3.0)).unwrap();
        let got = net.recv(Endpoint::Pdme, SimTime::from_secs(4.0));
        assert_eq!(got.len(), 1);
        match &got[0] {
            NetMessage::ReportBatch { epoch, .. } => assert_eq!(*epoch, 1),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn behaviour_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = ShipNetwork::new(
                NetworkConfig::new()
                    .with_jitter(SimDuration::from_millis(10.0))
                    .with_drop_probability(0.5)
                    .with_seed(seed),
            );
            net.register(Endpoint::Pdme);
            net.register(Endpoint::Dc(DcId::new(1)));
            for i in 0..100 {
                net.post(
                    SimTime::from_secs(i as f64 * 0.01),
                    Envelope::to_pdme(DcId::new(1), heartbeat(i)),
                )
                .unwrap();
            }
            net.recv(Endpoint::Pdme, SimTime::from_secs(10.0)).len()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn trace_hops_chain_enqueue_send_deliver() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[42]), 0x5EED)
            .unwrap();
        net.pump_outboxes(SimTime::ZERO).unwrap();
        net.recv(Endpoint::Pdme, SimTime::from_secs(1.0));

        let trace = TraceId::for_report(0x5EED, 42);
        let hops: Vec<TraceHop> = net
            .telemetry()
            .trace_hops()
            .into_iter()
            .filter(|h| h.trace == trace)
            .collect();
        let kinds: Vec<HopKind> = hops.iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![HopKind::Enqueue, HopKind::Send, HopKind::Deliver]
        );
        // Parent linkage: Enqueue hangs off the (DC-side) root span,
        // Send off the enqueue span, Deliver off that attempt's send.
        assert_eq!(
            hops[0].parent,
            Some(SpanId::derive(trace, HopKind::DcEmit, 0))
        );
        assert_eq!(hops[1].parent, Some(hops[0].span));
        assert_eq!(hops[1].attempt, 1, "first transmission");
        assert_eq!(hops[2].parent, Some(hops[1].span));
        assert!(hops[2].sim_end > hops[2].sim_start, "transit takes time");
    }

    #[test]
    fn retry_hops_stay_on_the_original_trace() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[7]), 0x5EED)
            .unwrap();
        net.pump_outboxes(SimTime::ZERO).unwrap();
        net.pump_outboxes(SimTime::from_secs(2.0)).unwrap(); // unacked: retry
        net.recv(Endpoint::Pdme, SimTime::from_secs(10.0));

        let trace = TraceId::for_report(0x5EED, 7);
        let hops = net.telemetry().trace_hops();
        let sends: Vec<&TraceHop> = hops
            .iter()
            .filter(|h| h.trace == trace && h.kind == HopKind::Send)
            .collect();
        assert_eq!(sends.len(), 2, "both transmissions on the same trace");
        assert_eq!(sends[0].attempt, 1);
        assert_eq!(sends[1].attempt, 2);
        // Both sends share the enqueue parent — a retry is a new span
        // under the same enqueue, never a fresh trace.
        assert_eq!(sends[0].parent, sends[1].parent);
        let delivers: Vec<&TraceHop> = hops
            .iter()
            .filter(|h| h.trace == trace && h.kind == HopKind::Deliver)
            .collect();
        assert_eq!(delivers.len(), 2);
        for d in delivers {
            assert_eq!(
                d.parent,
                Some(SpanId::derive(trace, HopKind::Send, d.attempt))
            );
        }
    }

    #[test]
    fn crash_records_crash_lost_hops_for_pending_frames() {
        let mut net = network(0.0);
        let dc = DcId::new(1);
        net.enqueue_report_batch(SimTime::ZERO, dc, sample_reports(dc, &[3, 4]), 0x5EED)
            .unwrap();
        net.crash_dc(dc);
        let hops = net.telemetry().trace_hops();
        let lost: Vec<&TraceHop> = hops
            .iter()
            .filter(|h| h.kind == HopKind::CrashLost)
            .collect();
        assert_eq!(lost.len(), 2, "one hop per report in the lost frame");
        for (h, seq) in lost.iter().zip([3u64, 4]) {
            assert_eq!(h.trace, TraceId::for_report(0x5EED, seq));
        }
    }
}
