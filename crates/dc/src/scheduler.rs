//! The DC event scheduler (§5.8).
//!
//! "The DC software is coordinated by an event scheduler. It coordinates
//! standard vibration test\[s\] and including data acquisition and
//! communication of the results. In similar fashion, the scheduler
//! conducts wavelet and neural network testing and analysis, and state
//! based feature recognition routines to collect and analyze process
//! variables... the PDME or any other client can command the scheduler
//! to conduct another test and analysis routine."
//!
//! Periodic tasks hold a next-due time and re-arm on their period;
//! remote commands enqueue one-shot runs that fire on the next tick.

use mpros_core::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The schedulable task types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Full vibration survey + spectral analysis (DLI, WNN).
    VibrationSurvey,
    /// Process-variable sample (fuzzy logic input window).
    ProcessSample,
    /// One SBFR interpreter cycle over the slow channels.
    SbfrCycle,
}

impl Task {
    /// All task types.
    pub const ALL: [Task; 3] = [Task::VibrationSurvey, Task::ProcessSample, Task::SbfrCycle];
}

#[derive(Debug)]
struct Periodic {
    task: Task,
    period: SimDuration,
    next_due: SimTime,
}

/// The scheduler: periodic tasks plus an on-demand queue.
#[derive(Debug, Default)]
pub struct Scheduler {
    periodic: Vec<Periodic>,
    on_demand: VecDeque<Task>,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) a periodic task, first due at `first`.
    pub fn schedule_periodic(&mut self, task: Task, period: SimDuration, first: SimTime) {
        self.periodic.retain(|p| p.task != task);
        self.periodic.push(Periodic {
            task,
            period,
            next_due: first,
        });
    }

    /// Enqueue a one-shot run (remote `RunTest` command).
    pub fn request(&mut self, task: Task) {
        self.on_demand.push_back(task);
    }

    /// Replace `out` with the tasks due at `now`, in a deterministic
    /// order (on-demand first, then periodic in registration order). A
    /// periodic task fires at most once per call even if several periods
    /// elapsed — there is no point re-measuring the past — and re-arms at
    /// the first future multiple of its period. `out` is a caller-kept
    /// buffer, so a warm call allocates nothing.
    pub fn due(&mut self, now: SimTime, out: &mut Vec<Task>) {
        out.clear();
        out.extend(self.on_demand.drain(..));
        for p in &mut self.periodic {
            if p.next_due <= now {
                out.push(p.task);
                // Skip any missed periods.
                while p.next_due <= now {
                    p.next_due += p.period;
                }
            }
        }
    }

    /// The next instant anything is due, if any periodic task exists.
    pub fn next_due(&self) -> Option<SimTime> {
        self.periodic
            .iter()
            .map(|p| p.next_due)
            .min_by(|a, b| a.as_secs().total_cmp(&b.as_secs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    impl Scheduler {
        /// [`Scheduler::due`] into a fresh list.
        fn due_now(&mut self, now: SimTime) -> Vec<Task> {
            let mut out = Vec::new();
            self.due(now, &mut out);
            out
        }
    }

    #[test]
    fn periodic_tasks_fire_on_schedule() {
        let mut s = Scheduler::new();
        s.schedule_periodic(Task::ProcessSample, SimDuration::from_secs(10.0), secs(0.0));
        assert_eq!(s.due_now(secs(0.0)), vec![Task::ProcessSample]);
        assert!(s.due_now(secs(5.0)).is_empty());
        assert_eq!(s.due_now(secs(10.0)), vec![Task::ProcessSample]);
        assert_eq!(s.due_now(secs(20.0)), vec![Task::ProcessSample]);
    }

    #[test]
    fn missed_periods_collapse_to_one_run() {
        let mut s = Scheduler::new();
        s.schedule_periodic(Task::SbfrCycle, SimDuration::from_secs(1.0), secs(0.0));
        s.due_now(secs(0.0));
        // 100 periods pass unobserved; one catch-up run, re-armed ahead.
        assert_eq!(s.due_now(secs(100.5)).len(), 1);
        assert!(s.due_now(secs(100.9)).is_empty());
        assert_eq!(s.due_now(secs(101.0)).len(), 1);
    }

    #[test]
    fn on_demand_runs_first_and_once() {
        let mut s = Scheduler::new();
        s.schedule_periodic(Task::ProcessSample, SimDuration::from_secs(10.0), secs(0.0));
        s.request(Task::VibrationSurvey);
        let due = s.due_now(secs(0.0));
        assert_eq!(due, vec![Task::VibrationSurvey, Task::ProcessSample]);
        assert!(s.due_now(secs(1.0)).is_empty(), "one-shot does not repeat");
    }

    #[test]
    fn rescheduling_replaces_the_old_entry() {
        let mut s = Scheduler::new();
        s.schedule_periodic(
            Task::VibrationSurvey,
            SimDuration::from_secs(100.0),
            secs(0.0),
        );
        s.schedule_periodic(
            Task::VibrationSurvey,
            SimDuration::from_secs(5.0),
            secs(2.0),
        );
        s.due_now(secs(2.0));
        assert_eq!(s.due_now(secs(7.0)), vec![Task::VibrationSurvey]);
        assert_eq!(s.periodic.len(), 1);
    }

    #[test]
    fn next_due_reports_earliest() {
        let mut s = Scheduler::new();
        assert_eq!(s.next_due(), None);
        s.schedule_periodic(
            Task::VibrationSurvey,
            SimDuration::from_secs(100.0),
            secs(50.0),
        );
        s.schedule_periodic(Task::ProcessSample, SimDuration::from_secs(10.0), secs(5.0));
        assert_eq!(s.next_due(), Some(secs(5.0)));
    }
}
