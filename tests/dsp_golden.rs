//! Golden-vector conformance for the DSP substrate.
//!
//! Every transform is checked against a closed-form answer with a tight
//! absolute tolerance — sinusoids, impulses and DC offsets against their
//! analytic spectra, Parseval's theorem, DCT-II orthogonality, the
//! cepstrum of a synthetic echo, the envelope of an AM tone — and the
//! legacy allocating APIs are asserted *bit-identical* to the new
//! zero-allocation `*_into` paths through [`DspContext`]. The real-input
//! transform and the one-transform envelope chain are held to within
//! [`REL_TOL`] of the peak against a reference DFT, the full complex
//! transform, and an explicit two-pass envelope chain.

use mpros_signal::cepstrum::{dominant_quefrency, real_cepstrum};
use mpros_signal::dct::{dct2, idct2};
use mpros_signal::dwt::{Wavelet, WaveletDecomposition};
use mpros_signal::envelope::{bandpass_envelope, hilbert_envelope};
use mpros_signal::features::{FeatureConfig, FeatureVector};
use mpros_signal::fft::{dft_reference, fft_real, ifft_real, FftPlan};
use mpros_signal::{Complex, DspContext, MultiLevelDwt, Spectrum, Window};
use std::f64::consts::PI;

/// Tight absolute tolerance for closed-form comparisons: the radix-2
/// FFT at these sizes accumulates well under 1e-9 of round-off per bin
/// on unit-scale inputs.
const TOL: f64 = 1e-9;

/// The stated agreement of the real-input transform and the fused
/// envelope chain with their textbook counterparts, relative to the
/// largest magnitude in the result.
const REL_TOL: f64 = 1e-12;

fn sine(n: usize, cycles: f64, amplitude: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| amplitude * (2.0 * PI * cycles * i as f64 / n as f64 + phase).sin())
        .collect()
}

// ---------------------------------------------------------------------
// Closed-form spectra.
// ---------------------------------------------------------------------

#[test]
fn fft_of_bin_centered_sinusoid_matches_closed_form() {
    // x[n] = A sin(2π k n / N)  ⇒  X[k] = -i A N/2, X[N-k] = +i A N/2,
    // every other bin exactly zero.
    let (n, k, a) = (1024usize, 37usize, 1.5f64);
    let x = sine(n, k as f64, a, 0.0);
    let spec = fft_real(&x).expect("power of two");
    let expect = a * n as f64 / 2.0;
    for (bin, z) in spec.iter().enumerate() {
        let (want_re, want_im) = if bin == k {
            (0.0, -expect)
        } else if bin == n - k {
            (0.0, expect)
        } else {
            (0.0, 0.0)
        };
        assert!(
            (z.re - want_re).abs() < TOL * n as f64 && (z.im - want_im).abs() < TOL * n as f64,
            "bin {bin}: got ({}, {}), want ({want_re}, {want_im})",
            z.re,
            z.im
        );
    }
}

#[test]
fn fft_of_impulse_is_flat() {
    // δ[0] transforms to 1 in every bin, exactly.
    let mut x = vec![0.0; 256];
    x[0] = 1.0;
    for z in fft_real(&x).expect("power of two") {
        assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
    }
}

#[test]
fn fft_of_dc_offset_concentrates_in_bin_zero() {
    let c = 0.75;
    let x = vec![c; 512];
    let spec = fft_real(&x).expect("power of two");
    assert!((spec[0].re - c * 512.0).abs() < TOL * 512.0);
    assert!(spec[0].im.abs() < TOL * 512.0);
    for z in &spec[1..] {
        assert!(z.abs() < TOL * 512.0, "leakage {}", z.abs());
    }
}

#[test]
fn parseval_energy_is_preserved() {
    // Σ|x|² = (1/N) Σ|X|², on a deterministic broadband signal.
    let n = 2048usize;
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64;
            (0.11 * t).sin() + 0.5 * (0.73 * t).cos() + 0.25 * (2.9 * t).sin()
        })
        .collect();
    let spec = fft_real(&x).expect("power of two");
    let time_energy: f64 = x.iter().map(|v| v * v).sum();
    let freq_energy: f64 = spec.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
    assert!(
        (time_energy - freq_energy).abs() < TOL * time_energy.max(1.0),
        "Parseval drift: {time_energy} vs {freq_energy}"
    );
}

#[test]
fn spectrum_reads_amplitude_through_every_window() {
    // A bin-centered tone must read its true amplitude after coherent-
    // gain correction, for every supported window.
    let (n, fs, a) = (4096usize, 16_384.0, 0.8);
    let cycles = 384.0; // exactly bin 384
    let x = sine(n, cycles, a, 0.3);
    let f_hz = cycles * fs / n as f64;
    for window in Window::ALL {
        let spec = Spectrum::compute(&x, fs, window).expect("computable");
        let read = spec.amplitude_near(f_hz, 3.0 * spec.resolution());
        assert!(
            (read - a).abs() < 1e-6,
            "{}: read {read}, want {a}",
            window.name()
        );
    }
}

// ---------------------------------------------------------------------
// DCT-II orthogonality.
// ---------------------------------------------------------------------

#[test]
fn dct2_basis_is_orthonormal() {
    // Transforming each standard basis vector gives the DCT matrix rows;
    // their pairwise dot products must be the identity.
    let n = 32usize;
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut e = vec![0.0; n];
        e[i] = 1.0;
        rows.push(dct2(&e));
    }
    for i in 0..n {
        for j in 0..n {
            let dot: f64 = (0..n).map(|k| rows[i][k] * rows[j][k]).sum();
            let want = if i == j { 1.0 } else { 0.0 };
            assert!((dot - want).abs() < TOL, "⟨{i},{j}⟩ = {dot}");
        }
    }
}

#[test]
fn dct2_roundtrip_is_tight() {
    let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.17).sin() * 3.0).collect();
    let back = idct2(&dct2(&x));
    for (a, b) in x.iter().zip(&back) {
        assert!((a - b).abs() < TOL, "{a} vs {b}");
    }
}

// ---------------------------------------------------------------------
// Cepstrum and envelope.
// ---------------------------------------------------------------------

#[test]
fn cepstrum_of_synthetic_echo_peaks_at_the_delay() {
    // x[n] = s[n] + α s[n-d]: the log-spectrum gains a cos(ωd) ripple,
    // so the cepstrum peaks at quefrency d.
    let (n, d, alpha) = (4096usize, 200usize, 0.6f64);
    // Deterministic broadband source: LCG white noise, so the log-
    // spectrum ripple from the echo is the only periodic structure.
    let mut state = 0x1234_5678_9abc_def0u64;
    let s: Vec<f64> = (0..n + d)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 30) as f64 - 1.0
        })
        .collect();
    let x: Vec<f64> = (0..n).map(|i| s[i + d] + alpha * s[i]).collect();
    let cep = real_cepstrum(&x).expect("power of two");
    let q = dominant_quefrency(&cep, 50, n / 2).expect("non-empty range");
    assert!(
        (q as i64 - d as i64).unsigned_abs() <= 1,
        "echo delay read at {q}, planted at {d}"
    );
}

#[test]
fn envelope_of_am_tone_recovers_the_modulation() {
    // (1 + m cos(2π fm t)) sin(2π fc t): the Hilbert envelope IS the
    // modulation law, away from the block edges.
    let (n, fs) = (4096usize, 16_384.0);
    let (fc, fm, m) = (3_000.0, 64.0, 0.5);
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            (1.0 + m * (2.0 * PI * fm * t).cos()) * (2.0 * PI * fc * t).sin()
        })
        .collect();
    let env = hilbert_envelope(&x).expect("power of two");
    for (i, &e) in env.iter().enumerate().take(7 * n / 8).skip(n / 8) {
        let t = i as f64 / fs;
        let want = 1.0 + m * (2.0 * PI * fm * t).cos();
        assert!((e - want).abs() < 0.02, "envelope[{i}] = {e}, want {want}");
    }
}

// ---------------------------------------------------------------------
// Legacy allocating APIs ≡ zero-allocation `*_into` APIs, to the bit.
// ---------------------------------------------------------------------

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn probe_block(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            (0.21 * t).sin() + 0.45 * (1.37 * t).cos() + 0.1 * (4.11 * t).sin()
        })
        .collect()
}

#[test]
fn context_fft_and_ifft_match_legacy_bitwise() {
    let x = probe_block(2048);
    let legacy = fft_real(&x).expect("legacy fft");
    let mut ctx = DspContext::new();
    let mut freq: Vec<Complex> = Vec::new();
    ctx.fft_real_into(&x, &mut freq).expect("ctx fft");
    assert_eq!(legacy.len(), freq.len());
    for (a, b) in legacy.iter().zip(&freq) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
    let legacy_back = ifft_real(&legacy).expect("legacy ifft");
    let mut back = Vec::new();
    ctx.ifft_real_into(&freq, &mut back).expect("ctx ifft");
    assert_bits_eq(&legacy_back, &back, "ifft");
}

#[test]
fn context_spectrum_matches_legacy_bitwise() {
    let x = probe_block(4096);
    let fs = 16_384.0;
    let mut ctx = DspContext::new();
    for window in Window::ALL {
        let legacy = Spectrum::compute(&x, fs, window).expect("legacy");
        let mut spec = Spectrum::default();
        ctx.spectrum_into(&x, fs, window, &mut spec).expect("ctx");
        assert_bits_eq(legacy.amplitudes(), spec.amplitudes(), window.name());
        assert_eq!(legacy.resolution().to_bits(), spec.resolution().to_bits());
        assert_eq!(legacy.sample_rate().to_bits(), spec.sample_rate().to_bits());
    }
}

#[test]
fn context_cepstrum_and_envelopes_match_legacy_bitwise() {
    let x = probe_block(2048);
    let fs = 16_384.0;
    let mut ctx = DspContext::new();

    let legacy = real_cepstrum(&x).expect("legacy cepstrum");
    let mut cep = Vec::new();
    ctx.cepstrum_into(&x, &mut cep).expect("ctx cepstrum");
    assert_bits_eq(&legacy, &cep, "cepstrum");

    let legacy = hilbert_envelope(&x).expect("legacy envelope");
    let mut env = Vec::new();
    ctx.hilbert_envelope_into(&x, &mut env)
        .expect("ctx envelope");
    assert_bits_eq(&legacy, &env, "hilbert_envelope");

    let legacy = bandpass_envelope(&x, fs, 1_800.0, 3_000.0).expect("legacy bandpass");
    let mut env = Vec::new();
    ctx.bandpass_envelope_into(&x, fs, 1_800.0, 3_000.0, &mut env)
        .expect("ctx bandpass");
    assert_bits_eq(&legacy, &env, "bandpass_envelope");
}

#[test]
fn context_envelope_spectrum_matches_legacy_chain_bitwise() {
    let x = probe_block(4096);
    let fs = 16_384.0;
    // The legacy chain the DLI used: bandpass envelope → remove mean →
    // Hann amplitude spectrum.
    let env = bandpass_envelope(&x, fs, 1_800.0, 3_000.0).expect("legacy bandpass");
    let mean = env.iter().sum::<f64>() / env.len() as f64;
    let ac: Vec<f64> = env.iter().map(|e| e - mean).collect();
    let legacy = Spectrum::compute(&ac, fs, Window::Hann).expect("legacy spectrum");

    let mut ctx = DspContext::new();
    let mut spec = Spectrum::default();
    ctx.envelope_spectrum_into(&x, fs, 1_800.0, 3_000.0, Window::Hann, &mut spec)
        .expect("ctx chain");
    assert_bits_eq(legacy.amplitudes(), spec.amplitudes(), "envelope spectrum");
}

#[test]
fn context_dwt_matches_legacy_bitwise() {
    let x = probe_block(1024);
    for wavelet in [Wavelet::Haar, Wavelet::Daubechies4] {
        for levels in 1..=4 {
            let legacy = WaveletDecomposition::analyze(&x, wavelet, levels).expect("legacy");
            let mut dwt = MultiLevelDwt::new();
            dwt.analyze_into(&x, wavelet, levels).expect("ctx analyze");
            assert_bits_eq(&legacy.approx, dwt.approx(), "approx");
            assert_eq!(legacy.details.len(), dwt.details().len());
            for (a, b) in legacy.details.iter().zip(dwt.details()) {
                assert_bits_eq(a, b, "detail");
            }
            let legacy_map = legacy.energy_map();
            let mut map = Vec::new();
            dwt.energy_map_into(&mut map);
            assert_bits_eq(&legacy_map, &map, "energy map");
            let legacy_rec = legacy.synthesize().expect("legacy synthesize");
            let mut rec = Vec::new();
            dwt.reconstruct_into(&mut rec).expect("ctx reconstruct");
            assert_bits_eq(&legacy_rec, &rec, "reconstruction");
        }
    }
}

#[test]
fn context_feature_vector_matches_legacy_bitwise() {
    let x = probe_block(2048);
    let config = FeatureConfig::default();
    let scalars = [0.35, 0.82];
    let legacy = FeatureVector::extract(&x, &config, &scalars).expect("legacy");
    let mut ctx = DspContext::new();
    let mut fv = FeatureVector::default();
    ctx.feature_vector_into(&x, &config, &scalars, &mut fv)
        .expect("ctx");
    assert_bits_eq(legacy.values(), fv.values(), "feature vector");
    assert_eq!(fv.len(), FeatureVector::dimension(&config, scalars.len()));
}

// ---------------------------------------------------------------------
// Real-input transform and fused envelope chain, within REL_TOL of the
// peak.
// ---------------------------------------------------------------------

/// `max |a − b|` over the peak magnitude of `b`.
fn rel_err(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len());
    let peak = b.iter().fold(0.0f64, |m, z| m.max(z.abs()));
    let err = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((*x - *y).abs()));
    err / peak
}

fn rel_err_real(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let peak = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    err / peak
}

fn complex_of(x: &[f64]) -> Vec<Complex> {
    x.iter().map(|&v| Complex::real(v)).collect()
}

#[test]
fn real_transform_matches_reference_dft_at_every_size() {
    for exp in 2..=10 {
        let n = 1usize << exp;
        let x = probe_block(n);
        let want = dft_reference(&complex_of(&x));
        let got = fft_real(&x).expect("power of two");
        let err = rel_err(&got, &want);
        assert!(err <= REL_TOL, "n={n}: relative error {err:e}");
    }
}

#[test]
fn real_transform_matches_complex_plan_at_32768() {
    let n = 32_768;
    let x = probe_block(n);
    let mut want = complex_of(&x);
    FftPlan::new(n)
        .expect("power of two")
        .forward(&mut want)
        .expect("forward");
    let got = fft_real(&x).expect("power of two");
    let err = rel_err(&got, &want);
    assert!(err <= REL_TOL, "relative error {err:e}");

    let back = ifft_real(&got).expect("inverse");
    let err = rel_err_real(&back, &x);
    assert!(err <= REL_TOL, "round-trip relative error {err:e}");
}

/// The envelope chain as two passes of full complex transforms, built
/// from the public plan only: band-pass (FFT, mask, IFFT, real part),
/// then the Hilbert envelope (FFT, analytic weights, IFFT, magnitude).
fn two_pass_envelope(x: &[f64], fs: f64, lo_hz: f64, hi_hz: f64) -> Vec<f64> {
    let n = x.len();
    let plan = FftPlan::new(n).expect("power of two");
    let df = fs / n as f64;
    let mut buf = complex_of(x);
    plan.forward(&mut buf).expect("forward");
    for (k, z) in buf.iter_mut().enumerate() {
        let f = k.min(n - k) as f64 * df;
        if f < lo_hz || f > hi_hz {
            *z = Complex::ZERO;
        }
    }
    plan.inverse(&mut buf).expect("inverse");
    let mut buf: Vec<Complex> = buf.iter().map(|z| Complex::real(z.re)).collect();
    plan.forward(&mut buf).expect("forward");
    for (k, z) in buf.iter_mut().enumerate() {
        if k > n / 2 {
            *z = Complex::ZERO;
        } else if k != 0 && k != n / 2 {
            *z = z.scale(2.0);
        }
    }
    plan.inverse(&mut buf).expect("inverse");
    buf.iter().map(|z| z.abs()).collect()
}

#[test]
fn fused_envelope_spectrum_matches_two_pass_chain() {
    let (n, fs) = (4096usize, 16_384.0);
    let (lo, hi) = (1_800.0, 3_000.0);
    // An AM carrier inside the band plus out-of-band content.
    let x: Vec<f64> = probe_block(n)
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let t = i as f64 / fs;
            v + (1.0 + 0.6 * (2.0 * PI * 97.0 * t).cos()) * (2.0 * PI * 2_400.0 * t).sin()
        })
        .collect();

    let env = two_pass_envelope(&x, fs, lo, hi);
    let fused = bandpass_envelope(&x, fs, lo, hi).expect("fused envelope");
    let err = rel_err_real(&fused, &env);
    assert!(err <= REL_TOL, "envelope relative error {err:e}");

    // Spectrum of the AC-coupled two-pass envelope, by the plain
    // single-sided formula over a full complex transform.
    let mean = env.iter().sum::<f64>() / n as f64;
    let coeffs = Window::Hann.coefficients(n);
    let mut buf: Vec<Complex> = env
        .iter()
        .zip(&coeffs)
        .map(|(e, w)| Complex::real((e - mean) * w))
        .collect();
    FftPlan::new(n)
        .expect("power of two")
        .forward(&mut buf)
        .expect("forward");
    let norm = 1.0 / (n as f64 * Window::Hann.coherent_gain(n));
    let want: Vec<f64> = (0..=n / 2)
        .map(|k| {
            let scale = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
            scale * buf[k].abs() * norm
        })
        .collect();

    let mut ctx = DspContext::new();
    let mut spec = Spectrum::default();
    ctx.envelope_spectrum_into(&x, fs, lo, hi, Window::Hann, &mut spec)
        .expect("fused chain");
    let err = rel_err_real(spec.amplitudes(), &want);
    assert!(err <= REL_TOL, "envelope spectrum relative error {err:e}");
}
