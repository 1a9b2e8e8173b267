//! The scatter-gather execution engine.
//!
//! §8.1 scales MPROS to "hundreds of DCs per ship"; stepping every DC on
//! one core then becomes the wall-clock bottleneck of the whole
//! simulation. [`step_dcs`] runs one tick's per-DC work either inline or
//! across scoped threads, and hands the results back in a fixed order,
//! so the observable simulation state is **byte-for-byte independent of
//! scheduling**:
//!
//! 1. *Scatter*: each live DC's step — delivered commands plus
//!    everything due at `now` — is one [`DcJob`] borrowing that DC and
//!    its plant. DCs share no mutable state with each other (per-DC id
//!    allocators, per-DC databases, per-DC RNG streams), so jobs
//!    commute. In parallel mode the jobs are cut into at most `workers`
//!    contiguous chunks, one scoped thread per chunk. Chunk *i* lends its
//!    DCs the ship's survey workspace *i* for their steps (sequentially,
//!    every DC is lent workspace 0); what a DC computes does not depend
//!    on which workspace it was lent (DESIGN.md §10.2).
//! 2. *Gather*: the chunks are joined in order, so results come back in
//!    ascending DC-index order; the caller
//!    ([`crate::sim::ShipboardSim::step`]) merges them into the ship
//!    network in that order, which pins the network's jitter/drop RNG
//!    draw order — the only cross-DC coupling — to the same sequence
//!    the sequential engine produces.
//!
//! A panicking DC step propagates out of the caller's `step` in both
//! modes, with its original payload.

use mpros_chiller::ChillerPlant;
use mpros_core::{ConditionReport, Result, SimTime};
use mpros_dc::{DataConcentrator, SurveyWorkspace};
use mpros_network::NetMessage;
use mpros_telemetry::{Stage, Telemetry, WallTimer};

/// How [`crate::sim::ShipboardSim`] executes each tick's per-DC work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Step DCs one after another on the calling thread.
    #[default]
    Sequential,
    /// Fan DC steps out across scoped threads, one per contiguous chunk
    /// of DCs. Produces byte-identical simulation state to
    /// [`ExecMode::Sequential`] for any worker count (see the module
    /// docs).
    Parallel {
        /// Threads per tick (clamped to at least 1).
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

/// One live DC's unit of work for a tick: its index, the DC and its
/// plant, and the commands the network delivered to it this step (to
/// apply before running whatever is due at `now`).
pub(crate) type DcJob<'a> = (
    usize,
    &'a mut DataConcentrator,
    &'a ChillerPlant,
    Vec<NetMessage>,
);

/// Step every job at `now` and return `(dc_index, reports)` in job
/// order, lending chunk *i*'s DCs `workspaces[i]` (`workspaces` holds
/// at least one entry per worker, and one in sequential mode). Each
/// step's wall cost is a [`Stage::DcStep`] span; in parallel mode the
/// steps also count on `exec.jobs`.
pub(crate) fn step_dcs(
    exec: ExecMode,
    telemetry: &Telemetry,
    now: SimTime,
    mut jobs: Vec<DcJob<'_>>,
    workspaces: &mut [SurveyWorkspace],
) -> Vec<(usize, Result<Vec<ConditionReport>>)> {
    let run = |workspace: &mut SurveyWorkspace, (index, dc, plant, commands): &mut DcJob<'_>| {
        let timer = WallTimer::start();
        let result = dc.step_with(workspace, plant, now, commands);
        telemetry.record_span_wall(Stage::DcStep, timer.elapsed());
        (*index, result)
    };
    let ExecMode::Parallel { .. } = exec else {
        let workspace = &mut workspaces[0];
        return jobs.iter_mut().map(|job| run(workspace, job)).collect();
    };
    telemetry.counter("exec", "jobs").add(jobs.len() as u64);
    let per_chunk = jobs.len().div_ceil(exec.worker_count()).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks_mut(per_chunk)
            .zip(workspaces.iter_mut())
            .map(|(chunk, workspace)| {
                scope.spawn(|| {
                    chunk
                        .iter_mut()
                        .map(|job| run(workspace, job))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Joined in chunk order: the deterministic gather.
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ShipboardSim, ShipboardSimConfig};
    use mpros_core::{DcId, FaultPlan, SimDuration};
    use mpros_pdme::export_snapshot;

    fn sim(dc_count: usize, exec: ExecMode, fault_plan: FaultPlan) -> ShipboardSim {
        ShipboardSim::new(
            ShipboardSimConfig::new()
                .with_dc_count(dc_count)
                .with_survey_period(SimDuration::from_secs(30.0))
                .with_fault_plan(fault_plan)
                .with_exec(exec),
        )
        .unwrap()
    }

    #[test]
    fn parallel_steps_count_every_dc_job() {
        let mut sim = sim(6, ExecMode::Parallel { workers: 3 }, FaultPlan::none());
        for _ in 0..4 {
            sim.step(SimDuration::from_secs(30.0)).unwrap();
        }
        let t = sim.telemetry();
        assert_eq!(t.counter("exec", "jobs").get(), 24);
        assert_eq!(t.span_wall(Stage::DcStep).count(), 24);
        assert_eq!(t.gauge("exec", "workers").get(), 3.0);
        assert_eq!(sim.workers(), 3);
    }

    #[test]
    fn more_workers_than_dcs_matches_sequential() {
        let icas = |exec| {
            let mut sim = sim(2, exec, FaultPlan::none());
            sim.run_for(SimDuration::from_minutes(3.0), SimDuration::from_secs(30.0))
                .unwrap();
            export_snapshot(sim.pdme(), sim.now(), SimDuration::from_secs(30.0))
                .to_json()
                .unwrap()
        };
        assert_eq!(
            icas(ExecMode::Parallel { workers: 8 }),
            icas(ExecMode::Sequential)
        );
    }

    #[test]
    fn crashed_dcs_are_not_stepped() {
        // DC 3 is down for the steps ending at t = 20, 30 and 40 s.
        let plan = FaultPlan::none().with_dc_crash(
            DcId::new(3),
            SimTime::from_secs(15.0),
            SimTime::from_secs(45.0),
        );
        let mut sim = sim(3, ExecMode::Parallel { workers: 2 }, plan);
        let mut live = 0;
        for _ in 0..6 {
            sim.step(SimDuration::from_secs(10.0)).unwrap();
            live += (0..3).filter(|&i| !sim.is_crashed(i)).count() as u64;
        }
        assert_eq!(live, 15);
        assert_eq!(sim.telemetry().counter("exec", "jobs").get(), live);
    }

    #[test]
    fn sequential_steps_leave_exec_series_unregistered() {
        let mut sim = sim(2, ExecMode::Sequential, FaultPlan::none());
        sim.step(SimDuration::from_secs(30.0)).unwrap();
        let snap = sim.telemetry().snapshot();
        assert!(snap.counters.iter().all(|c| c.component != "exec"));
        assert!(snap.gauges.iter().all(|g| g.component != "exec"));
        assert_eq!(sim.telemetry().span_wall(Stage::DcStep).count(), 2);
        assert_eq!(sim.workers(), 0);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ExecMode::Sequential.worker_count(), 0);
        assert_eq!(ExecMode::Parallel { workers: 0 }.worker_count(), 1);
        assert_eq!(ExecMode::Parallel { workers: 4 }.worker_count(), 4);
    }
}
