//! Measurement plumbing shared by every workload: quantiles, the
//! per-layer ledger, process and host facts read from `/proc`, the
//! seed-driven input generator, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Linear-interpolation quantile (the "type 7" estimator) of `values`.
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Accumulated wall seconds per layer over the traced steps of a run.
///
/// `direct` layers are calls the step itself makes; their sum plus the
/// unattributed rest is the step wall. `child` layers are calls made
/// inside a direct layer, timed by repeating them outside the step's
/// wall clock, so they are reported but never summed into the identity.
#[derive(Debug, Default)]
pub struct Ledger {
    direct: BTreeMap<&'static str, f64>,
    child: BTreeMap<&'static str, f64>,
    wall: f64,
    steps: usize,
}

impl Ledger {
    pub fn add(&mut self, layer: &'static str, secs: f64) {
        *self.direct.entry(layer).or_insert(0.0) += secs;
    }

    /// Time `f` as part of direct layer `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.add(layer, secs);
        out
    }

    pub fn add_child(&mut self, layer: &'static str, secs: f64) {
        *self.child.entry(layer).or_insert(0.0) += secs;
    }

    /// Close one traced step that took `wall` seconds end to end.
    pub fn end_step(&mut self, wall: f64) {
        self.wall += wall;
        self.steps += 1;
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Mean seconds per traced step of a direct or child layer (0 when
    /// the layer was never called).
    pub fn per_step(&self, layer: &str) -> f64 {
        let total = self
            .direct
            .get(layer)
            .or_else(|| self.child.get(layer))
            .copied()
            .unwrap_or(0.0);
        total / self.steps.max(1) as f64
    }

    /// Total seconds of a child layer over the run.
    pub fn child_total(&self, layer: &str) -> f64 {
        self.child.get(layer).copied().unwrap_or(0.0)
    }

    /// Mean traced step wall, seconds.
    pub fn wall_per_step(&self) -> f64 {
        self.wall / self.steps.max(1) as f64
    }

    /// Share of the step wall no direct layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        let direct: f64 = self.direct.values().sum();
        (self.wall - direct) / self.wall
    }
}

/// Run-queue wait of the calling thread so far, ns, from
/// `/proc/thread-self/schedstat` (0 where the kernel does not provide it).
fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Run-queue wait of one thread over a window: opened with
/// [`RunqWindow::open`] on that thread, closed on the same thread.
pub struct RunqWindow {
    wait_ns: u64,
}

impl RunqWindow {
    pub fn open() -> Self {
        RunqWindow {
            wait_ns: runq_wait_ns(),
        }
    }

    /// Seconds this thread spent runnable but waiting for a CPU.
    pub fn close(self) -> f64 {
        runq_wait_ns().saturating_sub(self.wait_ns) as f64 * 1e-9
    }
}

/// `(steal, total)` jiffies of all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Hypervisor steal over a window, all CPUs: time the host ran someone
/// else while this VM's vCPUs wanted to run.
pub struct StealWindow {
    start: (u64, u64),
}

impl StealWindow {
    pub fn open() -> Self {
        StealWindow {
            start: cpu_jiffies(),
        }
    }

    /// Stolen share of all CPU time over the window.
    pub fn close(self) -> f64 {
        let (steal, total) = cpu_jiffies();
        (steal - self.start.0) as f64 / (total - self.start.1).max(1) as f64
    }
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// CPUs available to the process, as first read: pinning a thread
/// later narrows what `available_parallelism` reports for it.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Thread-budget guard: more live threads than CPUs would measure the
/// scheduler, not the program.
pub fn assert_thread_budget() {
    let threads = status_field("Threads:").unwrap_or(1) as usize;
    assert!(
        threads <= nproc(),
        "thread budget exceeded: {threads} threads on {} CPUs",
        nproc()
    );
}

/// Pin the calling thread to CPU `cpu`; false where the kernel refuses.
/// Left to the scheduler, the served workload's two busy threads now and
/// then share one CPU for a whole run, each waiting in the run queue
/// half the time.
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a valid CPU set of `size` bytes for the call's
    // duration, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// SplitMix64: the benchmark's input generator. Inputs depend on the
/// seed alone, never on the program under test.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One run's result: the line the benchmark ends with.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A failed output check: recorded, and the run is marked incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.note(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Ledger health: at most 5% of the traced step wall may fall
    /// outside the direct layers.
    pub fn check_ledger(&mut self, ledger: &Ledger) {
        let share = ledger.unattributed_share();
        self.check(
            share <= 0.05,
            format!("unattributed share of the step wall {share:.5} is at most 0.05"),
        );
    }

    /// The JSON result line. Values keep every digit (Rust prints the
    /// shortest string that round-trips the `f64`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Probe time the host-speed factor is normalised to: the median
/// probe time on the 2-vCPU Xeon host the benchmark was first run on.
const REFERENCE_PROBE_S: f64 = 0.5e-3;

/// Kernel timings per probe; the probe reports their median.
const PROBE_REPEATS: usize = 3;

/// Host-speed normalisation.
///
/// The vCPU's speed on a shared host wanders over tens of seconds, with
/// no steal or run-queue wait to show for it, so raw wall times of the
/// same work spread by tens of percent from run to run. A fixed
/// reference kernel (floating-point butterflies over a 512 KiB buffer,
/// about 0.5 ms) is timed between steps; a wall time multiplied by
/// [`HostSpeed::factor`] is that wall time at the reference host's
/// speed. Before each timing the buffer is rewritten with the same
/// contents, untimed: every probe does identical arithmetic (repeated
/// butterflies would otherwise decay the values into slow subnormals),
/// and the buffer is in cache whatever the step before it touched.
pub struct HostSpeed {
    pristine: Vec<f64>,
    buf: Vec<f64>,
    recent: std::collections::VecDeque<f64>,
}

impl HostSpeed {
    /// Build the probe and take a few warm samples.
    pub fn new() -> Self {
        let pristine: Vec<f64> = (0..65_536).map(|i| (i as f64 * 1e-3).sin()).collect();
        let mut h = HostSpeed {
            buf: pristine.clone(),
            pristine,
            recent: std::collections::VecDeque::new(),
        };
        for _ in 0..2 {
            h.sample();
        }
        h
    }

    /// Time the reference kernel [`PROBE_REPEATS`] times; returns the
    /// median wall seconds.
    pub fn sample(&mut self) -> f64 {
        let mut times = [0.0; PROBE_REPEATS];
        for t in &mut times {
            self.buf.copy_from_slice(&self.pristine);
            let start = Instant::now();
            let n = self.buf.len() / 2;
            for pass in 0..24 {
                let w = 0.5 + pass as f64 * 0.01;
                let (lo, hi) = self.buf.split_at_mut(n);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (x, y) = (*a, *b * w);
                    *a = (x + y) * std::f64::consts::FRAC_1_SQRT_2;
                    *b = (x - y) * std::f64::consts::FRAC_1_SQRT_2;
                }
            }
            std::hint::black_box(&self.buf);
            *t = start.elapsed().as_secs_f64();
        }
        let secs = median(&times);
        if self.recent.len() == 2 {
            self.recent.pop_front();
        }
        self.recent.push_back(secs);
        secs
    }

    /// Reference probe time ÷ the mean of the last two probes (the ones
    /// right before and right after a step when the probe runs between
    /// steps): > 1 when the host runs faster than the reference, < 1
    /// when slower. The two nearest probes track the host's wander
    /// better than a longer window, which lags it.
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_PROBE_S / median(&recent)
    }
}

/// A set-up timed at reference host speed: the probe runs right before
/// and right after, and the wall is scaled by their mean.
pub fn timed_setup<T>(host: &mut HostSpeed, f: impl FnOnce() -> T) -> (T, f64) {
    let before = host.sample();
    let (out, secs) = timed(f);
    let after = host.sample();
    (out, secs * REFERENCE_PROBE_S * 2.0 / (before + after))
}

/// Set up `times` times (at least once), each timed at reference host
/// speed, dropping each result before building the next. Returns the
/// last set-up and every set-up time.
pub fn repeated_setup<T>(
    times: usize,
    host: &mut HostSpeed,
    mut build: impl FnMut() -> mpros::core::Result<T>,
) -> mpros::core::Result<(T, Vec<f64>)> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let (built, s) = timed_setup(host, &mut build);
        last = Some(built?);
        secs.push(s);
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// Tracing overhead: the median over traced steps of each one's wall
/// against the mean of its plain neighbours, minus 1 (0 with no traced
/// step between two plain ones).
pub fn overhead_vs_neighbours(walls: &[f64], traced: &[usize]) -> f64 {
    let ratios: Vec<f64> = traced
        .iter()
        .filter(|&&i| i > 0 && i + 1 < walls.len())
        .map(|&i| walls[i] / ((walls[i - 1] + walls[i + 1]) / 2.0) - 1.0)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

/// The step walls of an untraced run, raw and at reference host speed.
#[derive(Debug, Default)]
pub struct StepWalls {
    raw: Vec<f64>,
    norm: Vec<f64>,
}

impl StepWalls {
    pub fn push(&mut self, wall: f64, host: &HostSpeed) {
        self.raw.push(wall);
        self.norm.push(wall * host.factor());
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// The end-to-end metrics, every time at reference host speed:
    /// median set-up, steps and reports per second of summed step
    /// walls, step p50/p90, peak RSS. The raw figures go to the notes.
    pub fn end_to_end(
        &self,
        setups: &[f64],
        reports: usize,
        out: &mut Outcome,
    ) -> BTreeMap<&'static str, f64> {
        let (raw, norm): (f64, f64) = (self.raw.iter().sum(), self.norm.iter().sum());
        let steps = self.raw.len() as f64;
        out.note(format!(
            "raw wall: steps_per_s = {}, step_p50_s = {}, step_p90_s = {}, host speed factor = {}",
            steps / raw,
            median(&self.raw),
            quantile(&self.raw, 0.9),
            norm / raw
        ));
        BTreeMap::from([
            ("setup_s", median(setups)),
            ("steps_per_s", steps / norm),
            ("step_p50_s", median(&self.norm)),
            ("step_p90_s", quantile(&self.norm, 0.9)),
            ("reports_per_s", reports as f64 / norm),
            ("rss_peak_mb", rss_peak_mb()),
        ])
    }
}
