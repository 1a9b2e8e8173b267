//! The serving core shared by the single-ship [`crate::Gateway`] and
//! the fleet router: one publisher, one set of session queues, one
//! instrumented decode → serve → encode path.
//!
//! Concurrency model: the control thread is the only writer — it calls
//! [`ServingCore::publish`] once per step, which swaps an `Arc<S>` under
//! a write lock held only for the pointer exchange. Any number of client
//! threads call [`ServingCore::handle`] concurrently; each takes the
//! read lock just long enough to clone the `Arc`, then serves entirely
//! from the immutable snapshot. Every instrument is registered at
//! construction, so neither side touches the telemetry registry lock.
//!
//! Backpressure: subscription deltas are queued per session with a
//! bounded capacity; a slow client that never polls loses its *oldest*
//! deltas first (the same eviction policy as the network outbox) and is
//! told how many were dropped on its next poll — fresh state always
//! wins over stale history.

use mpros_core::{Result, SimTime};
use mpros_network::{decode, encode, Wire};
use mpros_telemetry::{Counter, Histogram, Stage, Telemetry, WallTimer};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// An immutable, versioned snapshot a [`ServingCore`] publishes, and
/// the wire protocol served from it.
pub trait Published: Debug + Send + Sync {
    /// The request family served against the snapshot.
    type Request: Wire;
    /// The response family answering it.
    type Response: Wire;
    /// The subscription event a publish fans out to every session.
    type Delta: Clone + Debug;

    /// Publishing epoch, stamped on every response served from it.
    fn version(&self) -> u64;

    /// Simulated seconds at build time.
    fn at_secs(&self) -> f64;

    /// The edge-triggered events between `prev` and `self`, in a fixed
    /// order.
    fn deltas_since(&self, prev: &Self) -> Vec<Self::Delta>;
}

/// One subscriber's server-side state.
#[derive(Debug)]
struct Session<D> {
    /// Queued deltas, oldest first.
    queue: VecDeque<D>,
    /// Deltas evicted since the session's last poll.
    dropped_since_poll: u64,
}

/// Publisher, session queues and request instruments for snapshots of
/// type `S`.
#[derive(Debug)]
pub struct ServingCore<S: Published> {
    /// The published snapshot. Writers swap the `Arc`; readers clone it.
    current: RwLock<Arc<S>>,
    /// Subscriber sessions, keyed by caller-chosen id. `BTreeMap` so
    /// publish-time fan-out walks sessions in a fixed order.
    sessions: Mutex<BTreeMap<u64, Session<S::Delta>>>,
    /// Queued deltas a session may hold before oldest-drop eviction.
    capacity: usize,
    telemetry: Telemetry,
    /// The stage a served request is recorded under (wall cost plus the
    /// staleness of the data served), if any.
    span: Option<Stage>,
    /// Wall-clock service time, one histogram per request kind, indexed
    /// by [`mpros_network::Tag::index`].
    service_time: Vec<Arc<Histogram>>,
    publishes: Arc<Counter>,
    requests: Arc<Counter>,
    bad_frames: Arc<Counter>,
    drops: Arc<Counter>,
    deltas_queued: Arc<Counter>,
}

impl<S: Published> ServingCore<S> {
    /// A core serving `initial` until the first publish, with its
    /// instruments registered under `component` in `telemetry`: the
    /// counters `publishes`, `requests`, `bad_frames`, `drops` and
    /// `deltas_queued`, and one `service_time.<kind>.wall_s` histogram
    /// per request kind.
    pub fn new(
        component: &str,
        capacity: usize,
        span: Option<Stage>,
        telemetry: &Telemetry,
        initial: S,
    ) -> Self {
        let counter = |name| telemetry.counter(component, name);
        ServingCore {
            current: RwLock::new(Arc::new(initial)),
            sessions: Mutex::new(BTreeMap::new()),
            capacity,
            telemetry: telemetry.clone(),
            span,
            service_time: S::Request::FAMILY
                .tags()
                .iter()
                .map(|tag| {
                    telemetry.histogram(component, &format!("service_time.{}.wall_s", tag.kind()))
                })
                .collect(),
            publishes: counter("publishes"),
            requests: counter("requests"),
            bad_frames: counter("bad_frames"),
            drops: counter("drops"),
            deltas_queued: counter("deltas_queued"),
        }
    }

    /// The currently published snapshot (an `Arc` clone; never blocks
    /// longer than the publisher's pointer swap).
    pub fn snapshot(&self) -> Arc<S> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The published snapshot's version.
    pub fn version(&self) -> u64 {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .version()
    }

    fn sessions(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Session<S::Delta>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registered subscriber sessions.
    pub fn session_count(&self) -> usize {
        self.sessions().len()
    }

    /// Publish `next`: fan its deltas against the current snapshot out
    /// to every registered session (bounded queues, oldest-drop), then
    /// swap it in as current.
    pub fn publish(&self, next: S) {
        let deltas = next.deltas_since(&self.snapshot());
        if !deltas.is_empty() {
            for session in self.sessions().values_mut() {
                for delta in &deltas {
                    while session.queue.len() >= self.capacity {
                        session.queue.pop_front();
                        session.dropped_since_poll += 1;
                        self.drops.inc();
                    }
                    session.queue.push_back(delta.clone());
                    self.deltas_queued.inc();
                }
            }
        }
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        self.publishes.inc();
    }

    /// Register `session` (idempotently) and drain its queue: the
    /// deltas evicted since the last poll, and the survivors, oldest
    /// first.
    pub fn drain(&self, session: u64) -> (u64, Vec<S::Delta>) {
        let mut sessions = self.sessions();
        let state = sessions.entry(session).or_insert_with(|| Session {
            queue: VecDeque::new(),
            dropped_since_poll: 0,
        });
        let dropped = std::mem::take(&mut state.dropped_since_poll);
        (dropped, state.queue.drain(..).collect())
    }

    /// Count a frame a router answered without [`ServingCore::handle`]
    /// (forwarded elsewhere, or refused) as a request or a bad frame.
    pub fn count(&self, outcome: &Result<Vec<u8>>) {
        match outcome {
            Ok(_) => self.requests.inc(),
            Err(_) => self.bad_frames.inc(),
        }
    }

    /// Serve one framed request: decode it (counting `bad_frames` on
    /// failure), answer it with `serve` against the current snapshot,
    /// encode the response, and record `requests`, the kind's service
    /// time and the configured span.
    pub fn handle(
        &self,
        frame: &[u8],
        serve: impl FnOnce(&S, &S::Request) -> S::Response,
    ) -> Result<Vec<u8>> {
        let timer = WallTimer::start();
        let req: S::Request = decode(frame).inspect_err(|_| self.bad_frames.inc())?;
        let snap = self.snapshot();
        let out = encode(&serve(&snap, &req))?;
        self.requests.inc();
        let wall = timer.elapsed();
        self.service_time[req.tag().index()].record(wall.as_secs_f64());
        if let Some(stage) = self.span {
            let staleness = self
                .telemetry
                .sim_now()
                .since(SimTime::from_secs(snap.at_secs()));
            self.telemetry.record_span(stage, wall, staleness);
        }
        Ok(out)
    }
}
