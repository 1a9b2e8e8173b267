//! The scatter-gather execution engine.
//!
//! §8.1 scales MPROS to "hundreds of DCs per ship"; stepping every DC on
//! one core then becomes the wall-clock bottleneck of the whole
//! simulation. This module fans each tick's per-DC work out across a
//! persistent worker pool and gathers the results back in a fixed
//! order, so the observable simulation state is **byte-for-byte
//! independent of scheduling**:
//!
//! 1. *Scatter*: each DC's step — delivered commands plus everything
//!    due at `now` — is one [`StepJob`]. DCs share no mutable state
//!    with each other (per-DC id allocators, per-DC databases, per-DC
//!    RNG streams), so jobs commute.
//! 2. *Gather*: workers return per-DC report buffers; the caller
//!    ([`crate::sim::ShipboardSim::step`]) merges them into the ship
//!    network in ascending DC-index order, which pins the network's
//!    jitter/drop RNG draw order — the only cross-DC coupling — to the
//!    same sequence the sequential engine produces.
//!
//! A panicking DC step is caught ([`std::panic::catch_unwind`]) and
//! surfaced as an `Err` result for its index instead of deadlocking the
//! gather.

use mpros_chiller::ChillerPlant;
use mpros_core::{ConditionReport, Error, Result, SimTime};
use mpros_dc::DataConcentrator;
use mpros_network::NetMessage;
use mpros_telemetry::{SpanBatch, Stage, Telemetry, WallTimer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock `mutex`, ignoring poisoning: a DC step that panicked under the
/// lock is already surfaced as an `Err` outcome, and the cell it left
/// behind is the state the next step (or restore) works from.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How [`crate::sim::ShipboardSim`] executes each tick's per-DC work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Step DCs one after another on the calling thread.
    #[default]
    Sequential,
    /// Fan DC steps out across a persistent pool of worker threads.
    /// Produces byte-identical simulation state to [`ExecMode::Sequential`]
    /// for any worker count (see the module docs).
    Parallel {
        /// Worker threads in the pool (clamped to at least 1).
        workers: usize,
    },
}

impl ExecMode {
    /// Worker threads this mode runs (0 for sequential).
    pub fn worker_count(self) -> usize {
        match self {
            ExecMode::Sequential => 0,
            ExecMode::Parallel { workers } => workers.max(1),
        }
    }
}

/// One DC's unit of work for a tick: the commands the network delivered
/// to it this step, to apply before running whatever is due at `now`.
#[derive(Debug)]
pub struct StepJob {
    /// Index of the DC (and its plant) in the simulation's storage.
    pub dc_index: usize,
    /// The tick's simulated time.
    pub now: SimTime,
    /// Commands delivered to this DC this step, in arrival order.
    pub commands: Vec<NetMessage>,
}

/// A gathered result: the job's DC index and the reports it emitted
/// (or the error/panic that stopped it).
pub type StepOutcome = (usize, Result<Vec<ConditionReport>>);

/// A persistent pool of worker threads stepping DCs.
///
/// Workers hold shared handles to the simulation's DC and plant cells;
/// each [`StepJob`] locks exactly one of each, so jobs for different
/// DCs proceed concurrently and jobs for the same DC (which the engine
/// never issues within one tick) would serialize rather than race.
/// Dropping the pool disconnects the job channel and joins every
/// worker.
pub struct WorkerPool {
    jobs: Option<Sender<StepJob>>,
    results: Receiver<StepOutcome>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` threads over the given DC/plant cells. The pool
    /// records each job's wall cost as a [`Stage::DcStep`] span
    /// (batched per job via [`SpanBatch`]) and counts jobs on the
    /// `exec.jobs` counter of `telemetry`.
    pub fn new(
        workers: usize,
        dcs: Vec<Arc<Mutex<DataConcentrator>>>,
        plants: Vec<Arc<Mutex<ChillerPlant>>>,
        telemetry: Telemetry,
    ) -> Self {
        assert_eq!(dcs.len(), plants.len(), "one plant per DC");
        let workers = workers.max(1);
        let (job_tx, job_rx) = channel::<StepJob>();
        // std has no multi-consumer channel: workers take turns at the
        // one job receiver, holding the lock only while they dequeue.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = channel::<StepOutcome>();
        telemetry.gauge("exec", "workers").set(workers as f64);
        let handles = (0..workers)
            .map(|w| {
                let job_rx = job_rx.clone();
                let result_tx = result_tx.clone();
                let dcs = dcs.clone();
                let plants = plants.clone();
                let telemetry = telemetry.clone();
                let jobs_done = telemetry.counter("exec", "jobs");
                std::thread::Builder::new()
                    .name(format!("mpros-exec-{w}"))
                    .spawn(move || {
                        let mut spans = SpanBatch::new();
                        loop {
                            let Ok(job) = lock(&job_rx).recv() else {
                                break; // pool dropped
                            };
                            let outcome = run_job(&dcs, &plants, &job, &mut spans);
                            jobs_done.inc();
                            spans.flush(&telemetry);
                            if result_tx.send((job.dc_index, outcome)).is_err() {
                                break; // pool dropped mid-step
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            jobs: Some(job_tx),
            results: result_rx,
            handles,
            workers,
        }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Scatter `jobs` across the pool and gather every outcome, sorted
    /// by DC index. Blocks until all jobs complete; a panicking job
    /// yields an `Err` outcome rather than a missing one, so this
    /// always returns exactly `jobs.len()` entries.
    pub fn step_all(&self, jobs: Vec<StepJob>) -> Vec<StepOutcome> {
        let n = jobs.len();
        let tx = self.jobs.as_ref().expect("pool is alive until drop");
        for job in jobs {
            tx.send(job).expect("workers outlive the pool");
        }
        let mut out: Vec<StepOutcome> = (0..n)
            .map(|_| self.results.recv().expect("workers outlive the pool"))
            .collect();
        out.sort_by_key(|(i, _)| *i);
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the job channel; every worker's recv() fails and
        // its loop exits.
        self.jobs.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Execute one job: lock its DC and plant, run the step, convert a
/// panic into an error. The lock scope is inside the unwind guard so a
/// panic releases both cells before the outcome is reported.
fn run_job(
    dcs: &[Arc<Mutex<DataConcentrator>>],
    plants: &[Arc<Mutex<ChillerPlant>>],
    job: &StepJob,
    spans: &mut SpanBatch,
) -> Result<Vec<ConditionReport>> {
    if job.dc_index >= dcs.len() {
        return Err(Error::invalid(format!(
            "job for DC index {} but only {} DCs exist",
            job.dc_index,
            dcs.len()
        )));
    }
    let timer = WallTimer::start();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut dc = lock(&dcs[job.dc_index]);
        let plant = lock(&plants[job.dc_index]);
        dc.step(&plant, job.now, &job.commands)
    }));
    spans.record_wall(Stage::DcStep, timer.elapsed());
    match outcome {
        Ok(result) => result,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Error::invalid(format!(
                "DC step at index {} panicked: {msg}",
                job.dc_index
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_chiller::plant::PlantConfig;
    use mpros_core::{DcId, MachineId, SimDuration};
    use mpros_dc::DcConfig;

    type Cell<T> = Vec<Arc<Mutex<T>>>;

    fn cells(n: usize) -> (Cell<DataConcentrator>, Cell<ChillerPlant>) {
        let mut dcs = Vec::new();
        let mut plants = Vec::new();
        for i in 0..n {
            let machine = MachineId::new(i as u64 + 1);
            let mut cfg = DcConfig::new(DcId::new(i as u64 + 1), machine);
            cfg.survey_period = SimDuration::from_secs(30.0);
            dcs.push(Arc::new(Mutex::new(DataConcentrator::new(cfg).unwrap())));
            plants.push(Arc::new(Mutex::new(ChillerPlant::new(PlantConfig::new(
                machine,
                i as u64 + 11,
            )))));
        }
        (dcs, plants)
    }

    fn jobs_at(n: usize, now: SimTime) -> Vec<StepJob> {
        (0..n)
            .map(|dc_index| StepJob {
                dc_index,
                now,
                commands: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn gather_returns_every_job_in_dc_order() {
        let (dcs, plants) = cells(6);
        let t = Telemetry::new();
        let pool = WorkerPool::new(3, dcs, plants, t.clone());
        for step in 1..=4u64 {
            let now = SimTime::from_secs(step as f64 * 0.25);
            let outcomes = pool.step_all(jobs_at(6, now));
            assert_eq!(outcomes.len(), 6);
            let order: Vec<usize> = outcomes.iter().map(|(i, _)| *i).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
            assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
        }
        assert_eq!(t.counter("exec", "jobs").get(), 24);
        assert_eq!(t.span_wall(Stage::DcStep).count(), 24);
        assert_eq!(t.gauge("exec", "workers").get(), 3.0);
    }

    #[test]
    fn more_workers_than_dcs_is_fine() {
        let (dcs, plants) = cells(2);
        let pool = WorkerPool::new(8, dcs, plants, Telemetry::new());
        let outcomes = pool.step_all(jobs_at(2, SimTime::from_secs(0.25)));
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn out_of_range_job_is_an_error_not_a_hang() {
        let (dcs, plants) = cells(1);
        let pool = WorkerPool::new(2, dcs, plants, Telemetry::new());
        let outcomes = pool.step_all(vec![StepJob {
            dc_index: 5,
            now: SimTime::from_secs(1.0),
            commands: Vec::new(),
        }]);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].1.is_err());
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let (dcs, plants) = cells(2);
        let pool = WorkerPool::new(4, dcs, plants, Telemetry::new());
        pool.step_all(jobs_at(2, SimTime::from_secs(0.25)));
        drop(pool); // must not hang
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ExecMode::Sequential.worker_count(), 0);
        assert_eq!(ExecMode::Parallel { workers: 0 }.worker_count(), 1);
        assert_eq!(ExecMode::Parallel { workers: 4 }.worker_count(), 4);
    }
}
