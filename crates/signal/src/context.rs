//! The reusable DSP execution context: cached FFT plans, cached window
//! tables, and a scratch arena of preallocated buffers behind
//! `*_into`-style APIs.
//!
//! §8.1 sizes the DC pipeline at "millions of data points per second";
//! at that rate, rebuilding twiddle/bit-reversal tables and allocating
//! fresh `Vec`s per [`crate::Spectrum`], cepstrum or DWT pass is the
//! dominant cost. A [`DspContext`] amortizes all of it:
//!
//! * **Plan cache** — one [`FftPlan`] per transform size, built once and
//!   shared via `Arc` (cloning an `Arc` is allocation-free).
//! * **Window cache** — materialized coefficient tables plus the
//!   coherent gain per `(window, size)`, replacing the per-sample
//!   `coefficient()` calls and the per-call `coherent_gain()` vector.
//! * **Scratch arena** — half-spectrum, full complex, real-valued,
//!   cepstrum and DWT buffers that are cleared (capacity retained) and
//!   refilled on every call.
//!
//! The context holds the only implementation of each transform. The
//! allocating APIs (`fft_real`, `ifft_real`, [`crate::Spectrum::compute`],
//! `real_cepstrum`, `hilbert_envelope`, `bandpass_envelope`,
//! [`crate::features::FeatureVector::extract`]) run their `*_into`
//! counterpart on a one-shot context, so the two agree bit for bit.
//!
//! A context need not belong to one user. A ship keeps one per stepping
//! worker and lends it to each data concentrator for the length of its
//! survey; plans and window tables are read-only once built, so they
//! serve every borrower, and every buffer is cleared before it is
//! filled, so no result depends on who used the context before
//! (DESIGN.md §10.2).
//!
//! Real blocks take the plan's real-input transform: one half-size
//! complex FFT plus a split post-twiddle. The band-pass envelope takes
//! one real forward and one complex inverse transform. Against a plain
//! complex DFT of the same data these results agree to within 1e-12 of
//! the peak magnitude, not bit for bit (DESIGN.md §10.5). Each call is a
//! fixed sequence of f64 operations on freshly cleared buffers, so a
//! context rides inside the deterministic simulation and reproduces
//! exactly across execution modes, whichever DCs share it.

use crate::cepstrum::{dominant_quefrency, LOG_FLOOR};
use crate::dct::dct_features_into;
use crate::features::{FeatureConfig, FeatureVector, WaveformStats};
use crate::fft::{Complex, FftPlan};
use crate::spectrum::Spectrum;
use crate::window::Window;
use mpros_core::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// A cached window: materialized coefficients plus the coherent gain.
#[derive(Debug, Clone)]
struct WindowTable {
    coeffs: Vec<f64>,
    /// Mean coefficient, computed with the same summation order as
    /// [`Window::coherent_gain`] (hence bit-identical to it).
    gain: f64,
}

/// Plan and window caches keyed by transform size.
#[derive(Debug, Default)]
struct DspCache {
    plans: HashMap<usize, Arc<FftPlan>>,
    windows: HashMap<(Window, usize), WindowTable>,
}

impl DspCache {
    fn plan(&mut self, n: usize) -> Result<Arc<FftPlan>> {
        if let Some(plan) = self.plans.get(&n) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(FftPlan::new(n)?);
        self.plans.insert(n, Arc::clone(&plan));
        Ok(plan)
    }

    fn window(&mut self, window: Window, n: usize) -> &WindowTable {
        self.windows.entry((window, n)).or_insert_with(|| {
            let coeffs = window.coefficients(n);
            let gain = coeffs.iter().sum::<f64>() / n as f64;
            WindowTable { coeffs, gain }
        })
    }
}

/// The scratch arena: preallocated working buffers reused across calls.
///
/// Private to the context — callers never see intermediate state, they
/// only provide the *output* buffers of each `*_into` call.
#[derive(Debug, Default)]
struct DspScratch {
    /// Bins `0..=n/2` of a real block's spectrum.
    half: Vec<Complex>,
    /// Full-length complex buffer: the analytic signal, or the half-size
    /// work buffer of a real inverse transform.
    full: Vec<Complex>,
    /// Real-valued stage buffer (the envelope before its spectrum).
    real: Vec<f64>,
    /// Cepstrum workspace for feature extraction.
    cep: Vec<f64>,
    /// Reusable multi-level DWT pyramid.
    dwt: crate::dwt::MultiLevelDwt,
}

/// A reusable DSP execution context (see the module docs).
///
/// One context serves one thread of execution at a time. A standalone
/// user owns one across calls; a ship owns one per stepping worker
/// (inside each survey workspace) and lends it to every data
/// concentrator that worker steps.
#[derive(Debug, Default)]
pub struct DspContext {
    cache: DspCache,
    scratch: DspScratch,
}

/// Fill `out` with the real cepstrum of `signal`: one real forward
/// transform, the log magnitude, one real inverse transform.
fn cepstrum_fill(
    plan: &FftPlan,
    signal: &[f64],
    half: &mut Vec<Complex>,
    work: &mut Vec<Complex>,
    out: &mut Vec<f64>,
) -> Result<()> {
    plan.real_forward_with(|i| signal[i], half);
    for z in half.iter_mut() {
        *z = Complex::real(z.norm_sq().sqrt().max(LOG_FLOOR).ln());
    }
    plan.inverse_real_into(half, work, out)
}

/// Fill `out` with the envelope of `signal`: the magnitude of its
/// analytic signal, after a brick-wall band-pass when `band` is
/// `Some((lo_hz, hi_hz, df))`. One real forward transform yields the
/// half spectrum; the band mask and the analytic weights (DC and Nyquist
/// ×1, positive frequencies ×2, negative frequencies 0) apply to it
/// together, and one complex inverse transform follows.
fn envelope_fill(
    plan: &FftPlan,
    signal: &[f64],
    band: Option<(f64, f64, f64)>,
    half: &mut Vec<Complex>,
    full: &mut Vec<Complex>,
    out: &mut Vec<f64>,
) -> Result<()> {
    plan.real_forward_with(|i| signal[i], half);
    let h = plan.len() / 2;
    for (k, z) in half.iter_mut().enumerate() {
        let out_of_band = band.is_some_and(|(lo_hz, hi_hz, df)| {
            let f = k as f64 * df;
            f < lo_hz || f > hi_hz
        });
        if out_of_band {
            *z = Complex::ZERO;
        } else if k != 0 && k != h {
            *z = z.scale(2.0);
        }
    }
    let half = &*half;
    plan.inverse_unscaled_with(|k| half.get(k).copied().unwrap_or(Complex::ZERO), full);
    let inv = 1.0 / plan.len() as f64;
    out.clear();
    out.extend(full.iter().map(|z| z.norm_sq().sqrt() * inv));
    Ok(())
}

/// Fill `out` with the single-sided amplitude spectrum of the real block
/// `sample(0..n)` (already windowed by the caller's closure), using the
/// half spectrum buffer `half`.
fn spectrum_fill(
    plan: &FftPlan,
    sample: impl Fn(usize) -> f64,
    gain: f64,
    sample_rate: f64,
    half: &mut Vec<Complex>,
    out: &mut Spectrum,
) {
    plan.real_forward_with(sample, half);
    let n = plan.len();
    let h = n / 2;
    // Single-sided amplitude: 2|X[k]| / (N · gain) for 0 < k < N/2,
    // |X[k]| / (N · gain) at DC and Nyquist.
    let norm = 1.0 / (n as f64 * gain);
    out.amplitudes.clear();
    out.amplitudes.reserve_exact(h + 1);
    out.amplitudes.push(half[0].norm_sq().sqrt() * norm);
    out.amplitudes
        .extend(half[1..h].iter().map(|z| 2.0 * z.norm_sq().sqrt() * norm));
    out.amplitudes.push(half[h].norm_sq().sqrt() * norm);
    out.df = sample_rate / n as f64;
    out.sample_rate = sample_rate;
}

impl DspContext {
    /// An empty context; caches and scratch grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached [`FftPlan`] for size `n`, building it on first
    /// request. Cloning the returned `Arc` is allocation-free.
    pub fn plan(&mut self, n: usize) -> Result<Arc<FftPlan>> {
        self.cache.plan(n)
    }

    /// Forward FFT of a real signal into `out` (all `n` bins).
    /// [`crate::fft::fft_real`] runs this on a one-shot context;
    /// allocation-free once `out` has capacity.
    pub fn fft_real_into(&mut self, signal: &[f64], out: &mut Vec<Complex>) -> Result<()> {
        let plan = self.plan(signal.len())?;
        plan.forward_real_into(signal, out)
    }

    /// Inverse FFT of the spectrum of a real signal into `out`. Reads
    /// bins `0..=n/2` only, the upper half being their conjugate mirror.
    /// [`crate::fft::ifft_real`] runs this on a one-shot context.
    pub fn ifft_real_into(&mut self, spectrum: &[Complex], out: &mut Vec<f64>) -> Result<()> {
        let n = spectrum.len();
        let plan = self.plan(n)?;
        plan.inverse_real_into(&spectrum[..=n / 2], &mut self.scratch.full, out)
    }

    /// Windowed single-sided amplitude spectrum of `block` into `out`.
    /// [`Spectrum::compute`] runs this on a one-shot context.
    pub fn spectrum_into(
        &mut self,
        block: &[f64],
        sample_rate: f64,
        window: Window,
        out: &mut Spectrum,
    ) -> Result<()> {
        if sample_rate <= 0.0 {
            return Err(Error::invalid("sample rate must be positive"));
        }
        let n = block.len();
        let plan = self.plan(n)?;
        let table = self.cache.window(window, n);
        let coeffs = &table.coeffs;
        spectrum_fill(
            &plan,
            |i| block[i] * coeffs[i],
            table.gain,
            sample_rate,
            &mut self.scratch.half,
            out,
        );
        Ok(())
    }

    /// Real cepstrum of `signal` into `out`.
    /// [`crate::cepstrum::real_cepstrum`] runs this on a one-shot
    /// context.
    pub fn cepstrum_into(&mut self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let plan = self.plan(signal.len())?;
        let scratch = &mut self.scratch;
        cepstrum_fill(&plan, signal, &mut scratch.half, &mut scratch.full, out)
    }

    /// Hilbert (analytic-signal) envelope of `signal` into `out`.
    /// [`crate::envelope::hilbert_envelope`] runs this on a one-shot
    /// context.
    pub fn hilbert_envelope_into(&mut self, signal: &[f64], out: &mut Vec<f64>) -> Result<()> {
        self.envelope_into(signal, None, out)
    }

    /// Brick-wall band-pass to `[lo_hz, hi_hz]` followed by the Hilbert
    /// envelope, into `out`. [`crate::envelope::bandpass_envelope`] runs
    /// this on a one-shot context.
    pub fn bandpass_envelope_into(
        &mut self,
        signal: &[f64],
        sample_rate: f64,
        lo_hz: f64,
        hi_hz: f64,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let df = sample_rate / signal.len() as f64;
        self.envelope_into(signal, Some((lo_hz, hi_hz, df)), out)
    }

    fn envelope_into(
        &mut self,
        signal: &[f64],
        band: Option<(f64, f64, f64)>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let plan = self.plan(signal.len())?;
        let scratch = &mut self.scratch;
        envelope_fill(
            &plan,
            signal,
            band,
            &mut scratch.half,
            &mut scratch.full,
            out,
        )
    }

    /// The bearing-demodulation chain end to end: band-pass envelope of
    /// `block`, mean (DC) removal, then the windowed spectrum of the
    /// AC-coupled envelope into `out`. Bit-identical to running
    /// [`crate::envelope::bandpass_envelope`], subtracting the mean, and
    /// calling [`Spectrum::compute`]; the mean removal and the window
    /// ride in the second transform's packing pass.
    #[allow(clippy::too_many_arguments)]
    pub fn envelope_spectrum_into(
        &mut self,
        block: &[f64],
        sample_rate: f64,
        lo_hz: f64,
        hi_hz: f64,
        window: Window,
        out: &mut Spectrum,
    ) -> Result<()> {
        if sample_rate <= 0.0 {
            return Err(Error::invalid("sample rate must be positive"));
        }
        let n = block.len();
        let plan = self.plan(n)?;
        let scratch = &mut self.scratch;
        let df = sample_rate / n as f64;
        envelope_fill(
            &plan,
            block,
            Some((lo_hz, hi_hz, df)),
            &mut scratch.half,
            &mut scratch.full,
            &mut scratch.real,
        )?;
        let table = self.cache.window(window, n);
        let (env, coeffs) = (&scratch.real, &table.coeffs);
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        spectrum_fill(
            &plan,
            |i| (env[i] - mean) * coeffs[i],
            table.gain,
            sample_rate,
            &mut scratch.half,
            out,
        );
        Ok(())
    }

    /// Append the §6.2 feature values of `block` (plus `process_scalars`)
    /// to `out`, in the exact layout of
    /// [`FeatureVector::extract`]. Appending (rather than clearing)
    /// lets the WNN concatenate per-channel features into one flat
    /// vector without intermediate storage. On error `out` may hold a
    /// partial prefix.
    pub fn feature_values_into(
        &mut self,
        block: &[f64],
        config: &FeatureConfig,
        process_scalars: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let stats = WaveformStats::of(block);
        let plan = self.plan(block.len())?;
        let n = block.len();
        let scratch = &mut self.scratch;
        cepstrum_fill(
            &plan,
            block,
            &mut scratch.half,
            &mut scratch.full,
            &mut scratch.cep,
        )?;
        let cep = &self.scratch.cep;
        let max_q = n / 2;
        let q = dominant_quefrency(cep, 2, max_q).unwrap_or(0);
        let cep_peak = cep.get(q).copied().unwrap_or(0.0);
        out.extend_from_slice(&[
            stats.mean,
            stats.rms,
            stats.peak,
            stats.std_dev,
            stats.crest_factor,
            stats.kurtosis,
            stats.skewness,
        ]);
        out.push(q as f64 / n as f64); // normalized quefrency
        out.push(cep_peak);
        dct_features_into(block, config.dct_coefficients, out);
        self.scratch
            .dwt
            .analyze_into(block, config.wavelet, config.wavelet_levels)?;
        self.scratch.dwt.energy_map_into(out);
        out.extend_from_slice(process_scalars);
        Ok(())
    }

    /// Refill `out` with the §6.2 feature vector of `block`.
    /// [`FeatureVector::extract`] runs this on a one-shot context.
    pub fn feature_vector_into(
        &mut self,
        block: &[f64],
        config: &FeatureConfig,
        process_scalars: &[f64],
        out: &mut FeatureVector,
    ) -> Result<()> {
        out.values.clear();
        self.feature_values_into(block, config, process_scalars, &mut out.values)
    }
}
