//! Vibration-waveform synthesis.
//!
//! Produces the "dynamic vibration signals ... acquired using high
//! sampling rates" (§2) that the DC's spectrum analyzer card digitizes.
//! Each accelerometer location sees a healthy baseline (residual 1×,
//! gear-mesh tone at the gear case, broadband noise) plus, for every
//! active fault, that fault's canonical signature scaled by severity and
//! attenuated by the structural coupling between the fault's source and
//! the measurement location.
//!
//! Signatures implemented (standard vibration-analysis practice):
//! * imbalance → 1× shaft radial tone;
//! * misalignment → 2× dominant with elevated 1×;
//! * rolling-element defects → periodic exponentially-decaying resonance
//!   bursts at BPFO/BPFI rate (impulsive: raises kurtosis and envelope
//!   spectrum lines);
//! * rotor-bar crack → pole-pass sidebands around 1×;
//! * gear tooth wear → gear-mesh harmonics with shaft-rate sidebands;
//! * housing looseness → running-speed harmonic series plus ½× subharmonic;
//! * surge → low-frequency (≈ 4 Hz) pulsation at the compressor.

use crate::fault::FaultState;
use crate::kernels;
use crate::machine::{MachineTrain, RotatingElement};
use mpros_core::{MachineCondition, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Accelerometer mounting locations on the chiller train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccelLocation {
    /// Motor drive-end bearing housing.
    MotorDriveEnd,
    /// Motor non-drive-end bearing housing.
    MotorNonDriveEnd,
    /// Gear case.
    GearCase,
    /// Compressor bearing housing.
    CompressorBearing,
    /// Chilled-water pump bearing housing.
    PumpBearing,
}

impl AccelLocation {
    /// All locations, in channel order.
    pub const ALL: [AccelLocation; 5] = [
        AccelLocation::MotorDriveEnd,
        AccelLocation::MotorNonDriveEnd,
        AccelLocation::GearCase,
        AccelLocation::CompressorBearing,
        AccelLocation::PumpBearing,
    ];

    /// The rotating element this location is mounted on.
    pub fn element(self) -> RotatingElement {
        match self {
            AccelLocation::MotorDriveEnd | AccelLocation::MotorNonDriveEnd => {
                RotatingElement::Motor
            }
            AccelLocation::GearCase => RotatingElement::GearSet,
            AccelLocation::CompressorBearing => RotatingElement::Compressor,
            AccelLocation::PumpBearing => RotatingElement::ChilledWaterPump,
        }
    }

    /// Structural transmissibility from the source of `condition` to this
    /// location (1.0 at the source, attenuated across the train). The
    /// paper's OOSM "proximity" relation carries the same physics at the
    /// model level.
    pub fn coupling(self, condition: MachineCondition) -> f64 {
        use AccelLocation::*;
        use MachineCondition::*;
        let source: AccelLocation = match condition {
            MotorImbalance | MotorMisalignment | MotorBearingDefect | MotorRotorBarCrack => {
                MotorDriveEnd
            }
            GearToothWear => GearCase,
            CompressorBearingDefect | CompressorSurge => CompressorBearing,
            BearingHousingLooseness => MotorDriveEnd,
            // Process faults have no direct vibration source.
            MotorWindingInsulation | RefrigerantLeak | CondenserFouling | LubeOilDegradation => {
                return 0.0
            }
        };
        // Hop distance along the train: motor DE/NDE adjacent, then gear,
        // then compressor; the pump is on a separate skid.
        fn pos(l: AccelLocation) -> i32 {
            match l {
                MotorNonDriveEnd => 0,
                MotorDriveEnd => 1,
                GearCase => 2,
                CompressorBearing => 3,
                PumpBearing => 6,
            }
        }
        let hops = (pos(self) - pos(source)).unsigned_abs();
        0.5f64.powi(hops as i32)
    }
}

/// Deterministic vibration synthesizer for one machine train.
#[derive(Debug, Clone)]
pub struct VibrationSynthesizer {
    train: MachineTrain,
    /// Master seed: same seed ⇒ identical waveforms.
    seed: u64,
    /// Broadband noise RMS, g.
    pub noise_rms: f64,
    /// Healthy residual 1× amplitude, g.
    pub baseline_1x: f64,
}

/// Full-severity signature amplitudes, g.
const IMBALANCE_AMP: f64 = 0.60;
const MISALIGN_AMP: f64 = 0.45;
const BEARING_BURST_AMP: f64 = 0.50;
const COMP_BEARING_TONE_AMP: f64 = 0.35;
const ROTOR_BAR_SIDEBAND_AMP: f64 = 0.25;
const GEAR_WEAR_AMP: f64 = 0.40;
const LOOSENESS_AMP: f64 = 0.35;
const SURGE_AMP: f64 = 0.80;
/// Structural resonance excited by bearing impacts, Hz.
const MOTOR_RESONANCE_HZ: f64 = 2_400.0;

impl VibrationSynthesizer {
    /// Create a synthesizer for `train` with deterministic `seed`.
    pub fn new(train: MachineTrain, seed: u64) -> Self {
        VibrationSynthesizer {
            train,
            seed,
            noise_rms: 0.02,
            baseline_1x: 0.05,
        }
    }

    /// The kinematic train description.
    pub fn train(&self) -> &MachineTrain {
        &self.train
    }

    /// Synthesize `n` samples at `sample_rate` Hz from `location`,
    /// starting at absolute time `t0`, with machine `load` (0..=1) and the
    /// given fault state. Deterministic in all arguments.
    pub fn sample_block(
        &self,
        location: AccelLocation,
        t0: SimTime,
        n: usize,
        sample_rate: f64,
        load: f64,
        faults: &FaultState,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        self.sample_block_into(location, t0, n, sample_rate, load, faults, &mut out);
        out
    }

    /// [`VibrationSynthesizer::sample_block`] writing into a
    /// caller-provided buffer (cleared and refilled; zero allocations
    /// once `out` has capacity). Waveforms are bit-identical to
    /// [`VibrationSynthesizer::sample_block`]: the noise stream is keyed
    /// on `(seed, location, t0)` only, never on the buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_block_into(
        &self,
        location: AccelLocation,
        t0: SimTime,
        n: usize,
        sample_rate: f64,
        load: f64,
        faults: &FaultState,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        self.synthesize::<Phasor>(location, t0, sample_rate, load, faults, out);
    }

    /// Fill the zeroed `out` with the block that starts at `t0`, using
    /// kernel set `K` for its tones, bursts and noise.
    fn synthesize<K: Kernels>(
        &self,
        location: AccelLocation,
        t0: SimTime,
        sample_rate: f64,
        load: f64,
        faults: &FaultState,
        out: &mut [f64],
    ) {
        let dt = 1.0 / sample_rate;
        let shaft = self.train.shaft_hz(location.element(), load);

        // Healthy baseline: residual 1× plus (at the gear case) the mesh tone.
        K::tone(out, t0, dt, shaft, self.baseline_1x, 0.3);
        if location == AccelLocation::GearCase {
            K::tone(out, t0, dt, self.train.gear_mesh_hz(load), 0.04, 1.1);
        }
        if location == AccelLocation::PumpBearing {
            K::tone(out, t0, dt, self.train.pump_vane_pass_hz(), 0.03, 2.0);
        }

        // Fault signatures.
        for c in MachineCondition::ALL {
            let sev = faults.severity(c, t0);
            if sev <= 0.0 {
                continue;
            }
            let k = location.coupling(c);
            if k <= 0.0 {
                continue;
            }
            self.add_fault_signature::<K>(out, location, t0, dt, load, c, sev * k);
        }

        // Broadband noise, deterministic per (seed, location, block start).
        let mut rng = self.block_rng(location, t0);
        K::noise(out, &mut rng, self.noise_rms);
    }

    fn block_rng(&self, location: AccelLocation, t0: SimTime) -> StdRng {
        // Mix the master seed, channel, and block start into one stream.
        let loc = AccelLocation::ALL
            .iter()
            .position(|l| *l == location)
            .expect("known location") as u64;
        let t_bits = t0.as_secs().to_bits();
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(loc.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(t_bits.rotate_left(17));
        StdRng::seed_from_u64(mixed)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_fault_signature<K: Kernels>(
        &self,
        out: &mut [f64],
        location: AccelLocation,
        t0: SimTime,
        dt: f64,
        load: f64,
        condition: MachineCondition,
        strength: f64,
    ) {
        use MachineCondition::*;
        let motor = self.train.motor_hz(load);
        match condition {
            MotorImbalance => {
                K::tone(out, t0, dt, motor, IMBALANCE_AMP * strength, 0.0);
            }
            MotorMisalignment => {
                K::tone(out, t0, dt, 2.0 * motor, MISALIGN_AMP * strength, 0.7);
                K::tone(out, t0, dt, motor, 0.3 * MISALIGN_AMP * strength, 0.9);
            }
            MotorBearingDefect => {
                let bpfo = self.train.motor_bearing.bpfo(motor);
                K::bursts(
                    out,
                    t0,
                    dt,
                    bpfo,
                    MOTOR_RESONANCE_HZ,
                    BEARING_BURST_AMP * strength,
                );
            }
            CompressorBearingDefect => {
                // On the high-speed compressor shaft the BPFI (≈ 1.1 kHz)
                // is commensurate with the structural ring-down, so the
                // defect expresses as direct non-synchronous spectral
                // tones with shaft-rate modulation sidebands rather than
                // resolvable impact bursts.
                let comp = self.train.compressor_hz(load);
                let bpfi = self.train.compressor_bearing.bpfi(comp);
                let amp = COMP_BEARING_TONE_AMP * strength;
                K::tone(out, t0, dt, bpfi, amp, 0.4);
                K::tone(out, t0, dt, 2.0 * bpfi, 0.4 * amp, 1.1);
                K::tone(out, t0, dt, bpfi - comp, 0.3 * amp, 1.9);
                K::tone(out, t0, dt, bpfi + comp, 0.3 * amp, 2.4);
            }
            MotorRotorBarCrack => {
                let pp = self.train.pole_pass_hz(load).max(0.5);
                let amp = ROTOR_BAR_SIDEBAND_AMP * strength;
                K::tone(out, t0, dt, motor - pp, amp, 1.3);
                K::tone(out, t0, dt, motor + pp, amp, 2.1);
                K::tone(out, t0, dt, motor, 0.4 * amp, 0.2);
            }
            GearToothWear => {
                let gmf = self.train.gear_mesh_hz(load);
                let amp = GEAR_WEAR_AMP * strength;
                K::tone(out, t0, dt, gmf, amp, 0.0);
                K::tone(out, t0, dt, 2.0 * gmf, 0.5 * amp, 0.5);
                // Shaft-rate sidebands around the mesh.
                K::tone(out, t0, dt, gmf - motor, 0.4 * amp, 1.0);
                K::tone(out, t0, dt, gmf + motor, 0.4 * amp, 1.5);
            }
            BearingHousingLooseness => {
                let amp = LOOSENESS_AMP * strength;
                for h in 1..=6 {
                    K::tone(out, t0, dt, h as f64 * motor, amp / h as f64, h as f64);
                }
                K::tone(out, t0, dt, 0.5 * motor, 0.3 * amp, 0.1);
            }
            CompressorSurge => {
                if location == AccelLocation::CompressorBearing {
                    K::tone(out, t0, dt, 4.0, SURGE_AMP * strength, 0.0);
                    K::tone(out, t0, dt, 8.0, 0.4 * SURGE_AMP * strength, 0.8);
                }
            }
            MotorWindingInsulation | RefrigerantLeak | CondenserFouling | LubeOilDegradation => { /* process-only faults */
            }
        }
    }
}

/// Samples between exact re-anchors of a tone's phasor recurrence.
const REANCHOR: usize = 1024;
/// Phasors per tone: lane `l` carries samples `l, l + LANES, …`, so the
/// lanes advance independently and the loop vectorizes.
const LANES: usize = 4;
/// Noise pairs drawn before any is mapped, so the mapping of one pair
/// overlaps the next instead of waiting on it.
const NOISE_BATCH: usize = 16;

/// The three waveform kernels a block is built from. The synthesizer
/// runs [`Phasor`]; the tests keep the per-sample forms it replaced and
/// compare the two (DESIGN.md §10.6).
trait Kernels {
    /// Add `amp·sin(2π·freq·t + phase)` at `t = t0 + i·dt`.
    fn tone(out: &mut [f64], t0: SimTime, dt: f64, freq: f64, amp: f64, phase: f64);
    /// Add periodic exponentially decaying resonance bursts (bearing-impact
    /// model): an impulse train at `rate` Hz ringing a resonance at `res_hz`.
    fn bursts(out: &mut [f64], t0: SimTime, dt: f64, rate: f64, res_hz: f64, amp: f64);
    /// Add white Gaussian noise of RMS `rms`: Box–Muller over the
    /// crate-approved `rand`, one pair of uniform draws per two samples.
    fn noise(out: &mut [f64], rng: &mut StdRng, rms: f64);
}

/// Recurrences in place of per-sample transcendentals: a rotating
/// phasor per tone, a damped one per burst, and branch-free `ln` and
/// `sin_cos` for the noise.
struct Phasor;

impl Kernels for Phasor {
    fn tone(out: &mut [f64], t0: SimTime, dt: f64, freq: f64, amp: f64, phase: f64) {
        if amp == 0.0 || freq <= 0.0 {
            return;
        }
        let w = 2.0 * PI * freq;
        let base = t0.as_secs();
        let (step_im, step_re) = (w * (LANES as f64 * dt)).sin_cos();
        for (c, chunk) in out.chunks_mut(REANCHOR).enumerate() {
            // Each lane starts from the exact phase of its first sample.
            let i0 = c * REANCHOR;
            let mut re = [0.0; LANES];
            let mut im = [0.0; LANES];
            for l in 0..LANES {
                let (s, co) = (w * (base + (i0 + l) as f64 * dt) + phase).sin_cos();
                (re[l], im[l]) = (amp * co, amp * s);
            }
            let mut quads = chunk.chunks_exact_mut(LANES);
            for quad in &mut quads {
                for l in 0..LANES {
                    quad[l] += im[l];
                    (re[l], im[l]) = (
                        re[l] * step_re - im[l] * step_im,
                        re[l] * step_im + im[l] * step_re,
                    );
                }
            }
            for (s, v) in quads.into_remainder().iter_mut().zip(im) {
                *s += v;
            }
        }
    }

    fn bursts(out: &mut [f64], t0: SimTime, dt: f64, rate: f64, res_hz: f64, amp: f64) {
        if amp == 0.0 || rate <= 0.0 {
            return;
        }
        let period = 1.0 / rate;
        let tau = period / 8.0; // burst decays well before the next impact
        let w = 2.0 * PI * res_hz;
        let base = t0.as_secs();
        let block_len = out.len() as f64 * dt;
        // One sample's decay and rotation.
        let decay = (-dt / tau).exp();
        let (rot_im, rot_re) = (w * dt).sin_cos();
        let (step_re, step_im) = (decay * rot_re, decay * rot_im);
        // Bursts whose ring-down can reach into this block.
        let first = ((base - 6.0 * tau) / period).floor() as i64;
        let last = ((base + block_len) / period).ceil() as i64;
        for k in first..=last {
            let impact = k as f64 * period;
            // Index range influenced by this burst.
            let start = (((impact - base) / dt).ceil()).max(0.0) as usize;
            let end = ((((impact + 6.0 * tau) - base) / dt).ceil()).max(0.0) as usize;
            let end = end.min(out.len());
            // The first sample at or after the impact anchors the phasor.
            let Some(i) = (start..end).find(|&i| base + i as f64 * dt - impact >= 0.0) else {
                continue;
            };
            let t = base + i as f64 * dt - impact;
            let (s, c) = (w * t).sin_cos();
            let a = amp * (-t / tau).exp();
            let (mut re, mut im) = (a * c, a * s);
            for x in &mut out[i..end] {
                *x += im;
                (re, im) = (re * step_re - im * step_im, re * step_im + im * step_re);
            }
        }
    }

    fn noise(out: &mut [f64], rng: &mut StdRng, rms: f64) {
        if rms <= 0.0 {
            return;
        }
        for batch in out.chunks_mut(2 * NOISE_BATCH) {
            // A short last batch maps its unused slots too; 0.5 keeps
            // them in `ln`'s domain.
            let mut u1 = [0.5; NOISE_BATCH];
            let mut u2 = [0.0; NOISE_BATCH];
            for (a, b) in u1.iter_mut().zip(&mut u2).take(batch.len().div_ceil(2)) {
                *a = rng.gen_range(f64::EPSILON..1.0);
                *b = rng.gen_range(0.0..1.0);
            }
            let mut r = [0.0; NOISE_BATCH];
            let mut sin = [0.0; NOISE_BATCH];
            let mut cos = [0.0; NOISE_BATCH];
            for j in 0..NOISE_BATCH {
                r[j] = rms * (-2.0 * kernels::ln(u1[j])).sqrt();
                (sin[j], cos[j]) = kernels::sin_cos_turn(u2[j]);
            }
            for (j, pair) in batch.chunks_mut(2).enumerate() {
                pair[0] += r[j] * cos[j];
                if let [_, second] = pair {
                    *second += r[j] * sin[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSeed, FaultState};
    use mpros_core::{MachineId, SimDuration};
    use mpros_signal::features::WaveformStats;
    use mpros_signal::spectrum::Spectrum;
    use mpros_signal::window::Window;

    const FS: f64 = 16_384.0;
    const N: usize = 8192;

    fn synth() -> VibrationSynthesizer {
        VibrationSynthesizer::new(MachineTrain::navy_chiller(MachineId::new(1)), 42)
    }

    /// The algorithm reference: one `sin` per sample per tone, one `exp`
    /// and one `sin` per burst sample, and libm's `ln` and `sin_cos` in
    /// the Box–Muller noise.
    struct PerSample;

    impl Kernels for PerSample {
        fn tone(out: &mut [f64], t0: SimTime, dt: f64, freq: f64, amp: f64, phase: f64) {
            if amp == 0.0 || freq <= 0.0 {
                return;
            }
            let w = 2.0 * PI * freq;
            let base = t0.as_secs();
            for (i, s) in out.iter_mut().enumerate() {
                *s += amp * (w * (base + i as f64 * dt) + phase).sin();
            }
        }

        fn bursts(out: &mut [f64], t0: SimTime, dt: f64, rate: f64, res_hz: f64, amp: f64) {
            if amp == 0.0 || rate <= 0.0 {
                return;
            }
            let period = 1.0 / rate;
            let tau = period / 8.0;
            let w = 2.0 * PI * res_hz;
            let base = t0.as_secs();
            let block_len = out.len() as f64 * dt;
            let first = ((base - 6.0 * tau) / period).floor() as i64;
            let last = ((base + block_len) / period).ceil() as i64;
            for k in first..=last {
                let impact = k as f64 * period;
                let start = (((impact - base) / dt).ceil()).max(0.0) as usize;
                let end = ((((impact + 6.0 * tau) - base) / dt).ceil()).max(0.0) as usize;
                for i in start..end.min(out.len()) {
                    let t = base + i as f64 * dt - impact;
                    if t >= 0.0 {
                        out[i] += amp * (-t / tau).exp() * (w * t).sin();
                    }
                }
            }
        }

        fn noise(out: &mut [f64], rng: &mut StdRng, rms: f64) {
            if rms <= 0.0 {
                return;
            }
            let mut i = 0;
            while i < out.len() {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt();
                let (s, c) = (2.0 * PI * u2).sin_cos();
                out[i] += rms * r * c;
                if i + 1 < out.len() {
                    out[i + 1] += rms * r * s;
                }
                i += 2;
            }
        }
    }

    /// The largest difference between the synthesizer and the per-sample
    /// reference over every condition and location, for blocks at `t0`.
    fn worst_gap_from_reference(t0: SimTime) -> f64 {
        let s = synth();
        // Not a multiple of the lane count or the re-anchor interval, and
        // odd, so the tails of every loop run too.
        let n = N + 3;
        let mut reference = vec![0.0; n];
        let mut worst = 0.0f64;
        for c in MachineCondition::ALL {
            let f = active(c);
            for loc in AccelLocation::ALL {
                let fast = s.sample_block(loc, t0, n, FS, 0.9, &f);
                reference.fill(0.0);
                s.synthesize::<PerSample>(loc, t0, FS, 0.9, &f, &mut reference);
                for (a, b) in fast.iter().zip(&reference) {
                    worst = worst.max((a - b).abs());
                }
            }
        }
        worst
    }

    fn active(condition: MachineCondition) -> FaultState {
        let mut f = FaultState::healthy();
        f.seed(FaultSeed {
            condition,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: crate::fault::FaultProfile::Step(1.0),
        });
        f
    }

    fn spectrum_of(loc: AccelLocation, faults: &FaultState) -> (Spectrum, f64) {
        let s = synth();
        let load = 1.0;
        let block = s.sample_block(loc, SimTime::from_secs(10.0), N, FS, load, faults);
        let shaft = s.train().shaft_hz(loc.element(), load);
        (Spectrum::compute(&block, FS, Window::Hann).unwrap(), shaft)
    }

    #[test]
    fn determinism_same_seed_same_block() {
        let s = synth();
        let f = FaultState::healthy();
        let a = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        let b = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        assert_eq!(a, b);
        // Different seed → different noise.
        let s2 = VibrationSynthesizer::new(MachineTrain::navy_chiller(MachineId::new(1)), 43);
        let c = s2.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn healthy_spectrum_is_quiet() {
        let (spec, shaft) = spectrum_of(AccelLocation::MotorDriveEnd, &FaultState::healthy());
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        assert!(a1x < 0.1, "healthy 1x {a1x}");
        assert!(spec.amplitude_at_order(shaft, 2.0) < 0.05);
    }

    #[test]
    fn imbalance_raises_1x() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::MotorImbalance),
        );
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        assert!(a1x > 0.4, "imbalance 1x {a1x}");
        assert!(spec.amplitude_at_order(shaft, 2.0) < 0.1);
    }

    #[test]
    fn misalignment_raises_2x_above_1x() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::MotorMisalignment),
        );
        let a1x = spec.amplitude_at_order(shaft, 1.0);
        let a2x = spec.amplitude_at_order(shaft, 2.0);
        assert!(a2x > 0.3, "2x {a2x}");
        assert!(a2x > a1x, "2x {a2x} should dominate 1x {a1x}");
    }

    #[test]
    fn bearing_defect_is_impulsive_with_bpfo_line() {
        let s = synth();
        let f = active(MachineCondition::MotorBearingDefect);
        let block = s.sample_block(AccelLocation::MotorDriveEnd, SimTime::ZERO, N, FS, 1.0, &f);
        let stats = WaveformStats::of(&block);
        assert!(stats.kurtosis > 3.0, "bearing kurtosis {}", stats.kurtosis);
        // Envelope spectrum shows the BPFO line.
        let env = mpros_signal::envelope::bandpass_envelope(&block, FS, 1_800.0, 3_000.0).unwrap();
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        let ac: Vec<f64> = env.iter().map(|e| e - mean).collect();
        let espec = Spectrum::compute(&ac, FS, Window::Hann).unwrap();
        let bpfo = s.train().motor_bearing.bpfo(s.train().motor_hz(1.0));
        let line = espec.amplitude_near(bpfo, 6.0);
        let off = espec.amplitude_near(bpfo * 1.37, 6.0);
        assert!(line > 2.0 * off, "BPFO envelope line {line} vs off {off}");
    }

    #[test]
    fn rotor_bar_sidebands_straddle_1x() {
        let s = synth();
        let f = active(MachineCondition::MotorRotorBarCrack);
        let block = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            65536,
            FS,
            1.0,
            &f,
        );
        let spec = Spectrum::compute(&block, FS, Window::Hann).unwrap();
        let motor = s.train().motor_hz(1.0);
        let pp = s.train().pole_pass_hz(1.0);
        let lower = spec.amplitude_near(motor - pp, 0.4);
        let upper = spec.amplitude_near(motor + pp, 0.4);
        assert!(lower > 0.1 && upper > 0.1, "sidebands {lower}/{upper}");
    }

    #[test]
    fn gear_wear_shows_mesh_harmonics_at_gear_case() {
        let (spec, _) = spectrum_of(
            AccelLocation::GearCase,
            &active(MachineCondition::GearToothWear),
        );
        let s = synth();
        let gmf = s.train().gear_mesh_hz(1.0);
        assert!(spec.amplitude_near(gmf, 20.0) > 0.25);
        assert!(spec.amplitude_near(2.0 * gmf, 30.0) > 0.1);
    }

    #[test]
    fn looseness_generates_harmonic_series() {
        let (spec, shaft) = spectrum_of(
            AccelLocation::MotorDriveEnd,
            &active(MachineCondition::BearingHousingLooseness),
        );
        for h in 1..=4 {
            assert!(
                spec.amplitude_at_order(shaft, h as f64) > 0.03,
                "harmonic {h} missing"
            );
        }
        assert!(
            spec.amplitude_at_order(shaft, 0.5) > 0.02,
            "subharmonic missing"
        );
    }

    #[test]
    fn surge_pulsates_at_low_frequency_on_compressor_only() {
        let (spec, _) = spectrum_of(
            AccelLocation::CompressorBearing,
            &active(MachineCondition::CompressorSurge),
        );
        assert!(
            spec.amplitude_near(4.0, 1.5) > 0.4,
            "surge pulsation missing"
        );
        let (spec_m, _) = spectrum_of(
            AccelLocation::MotorNonDriveEnd,
            &active(MachineCondition::CompressorSurge),
        );
        assert!(
            spec_m.amplitude_near(4.0, 1.5) < 0.1,
            "surge leaked to motor"
        );
    }

    #[test]
    fn process_faults_produce_no_vibration() {
        for c in [
            MachineCondition::RefrigerantLeak,
            MachineCondition::CondenserFouling,
            MachineCondition::LubeOilDegradation,
            MachineCondition::MotorWindingInsulation,
        ] {
            let (spec, shaft) = spectrum_of(AccelLocation::MotorDriveEnd, &active(c));
            assert!(
                spec.amplitude_at_order(shaft, 1.0) < 0.1,
                "{c} should not vibrate"
            );
        }
    }

    #[test]
    fn coupling_attenuates_with_distance() {
        let c = MachineCondition::MotorImbalance;
        let at_src = AccelLocation::MotorDriveEnd.coupling(c);
        let at_gear = AccelLocation::GearCase.coupling(c);
        let at_pump = AccelLocation::PumpBearing.coupling(c);
        assert_eq!(at_src, 1.0);
        assert!(at_gear < at_src && at_pump < at_gear);
    }

    #[test]
    fn severity_scales_signature_amplitude() {
        let s = synth();
        let mut half = FaultState::healthy();
        half.seed(FaultSeed {
            condition: MachineCondition::MotorImbalance,
            onset: SimTime::ZERO,
            time_to_failure: SimDuration::from_secs(1.0),
            profile: crate::fault::FaultProfile::Step(0.5),
        });
        let full = active(MachineCondition::MotorImbalance);
        let shaft = s.train().motor_hz(1.0);
        let spec_h = Spectrum::compute(
            &s.sample_block(
                AccelLocation::MotorDriveEnd,
                SimTime::ZERO,
                N,
                FS,
                1.0,
                &half,
            ),
            FS,
            Window::Hann,
        )
        .unwrap();
        let spec_f = Spectrum::compute(
            &s.sample_block(
                AccelLocation::MotorDriveEnd,
                SimTime::ZERO,
                N,
                FS,
                1.0,
                &full,
            ),
            FS,
            Window::Hann,
        )
        .unwrap();
        let (ah, af) = (
            spec_h.amplitude_at_order(shaft, 1.0),
            spec_f.amplitude_at_order(shaft, 1.0),
        );
        assert!(af > 1.5 * ah, "full {af} vs half {ah}");
    }

    #[test]
    fn phasor_kernels_match_the_per_sample_reference() {
        // The gap is the reference's own rounding of its phase argument
        // `ω·(t0 + i·dt)`, one ulp of which grows with `t0`.
        for (t0, bound) in [
            (0.0, 1e-11),
            (30.0, 2e-10),
            (3_600.0, 2e-8),
            (86_400.0, 5e-7),
            (30.0 * 86_400.0, 1e-5),
        ] {
            let worst = worst_gap_from_reference(SimTime::from_secs(t0));
            println!("t0 = {t0} s: worst gap {worst:.2e} g");
            assert!(
                worst <= bound,
                "t0 = {t0} s: gap {worst:e} g over {bound:e}"
            );
        }
    }

    #[test]
    fn blocks_are_continuous_across_time() {
        // Two adjacent blocks of a pure-tone-dominated signal should join
        // without a phase jump: synthesize one long and two short and
        // compare the deterministic (noise-free) part.
        let mut s = synth();
        s.noise_rms = 0.0;
        let f = active(MachineCondition::MotorImbalance);
        let long = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            2048,
            FS,
            1.0,
            &f,
        );
        let a = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::ZERO,
            1024,
            FS,
            1.0,
            &f,
        );
        let b = s.sample_block(
            AccelLocation::MotorDriveEnd,
            SimTime::from_secs(1024.0 / FS),
            1024,
            FS,
            1.0,
            &f,
        );
        for i in 0..1024 {
            assert!((long[i] - a[i]).abs() < 1e-9);
            assert!((long[1024 + i] - b[i]).abs() < 1e-6);
        }
    }
}
