//! Property-based conformance for the DSP substrate: round-trips,
//! perfect reconstruction, window identities, and bit-identical scratch
//! reuse through the [`DspContext`] hot path.

use mpros_signal::dwt::{Wavelet, WaveletDecomposition};
use mpros_signal::fft::{fft_real, ifft_real, FftPlan};
use mpros_signal::{Complex, DspContext, Spectrum, Window};
use proptest::prelude::*;

/// Largest proptest block: signals are sliced from one generated pool.
const POOL: usize = 4096;

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// FFT → IFFT round-trips within 1e-9 at *every* supported power-of-two
/// size — the deterministic sweep the property test below samples from.
#[test]
fn fft_roundtrip_all_power_of_two_sizes() {
    for exp in 1..=14usize {
        let n = 1 << exp;
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + exp) as f64 * 0.63).sin())
            .collect();
        let back = ifft_real(&fft_real(&x).expect("forward")).expect("inverse");
        let err = max_abs_diff(&x, &back);
        assert!(err <= 1e-9, "n={n}: round-trip error {err}");
    }
}

proptest! {
    /// Round-trip at a random power-of-two size with random contents.
    #[test]
    fn fft_ifft_roundtrip(
        exp in 1usize..=12,
        vals in proptest::collection::vec(-100.0..100.0f64, POOL..=POOL)
    ) {
        let x = &vals[..1 << exp];
        let back = ifft_real(&fft_real(x).expect("forward")).expect("inverse");
        let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(max_abs_diff(x, &back) <= 1e-9 * scale);
    }

    /// The real-input transform agrees with the full complex transform
    /// of the same samples to within 1e-12 of the peak magnitude, and its
    /// inverse returns the samples to within 1e-12 of the largest one.
    #[test]
    fn real_transform_matches_complex_transform(
        exp in 1usize..=12,
        vals in proptest::collection::vec(-100.0..100.0f64, POOL..=POOL)
    ) {
        let x = &vals[..1 << exp];
        let mut want: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
        FftPlan::new(x.len()).expect("power of two").forward(&mut want).expect("forward");
        let got = fft_real(x).expect("forward");
        let peak = want.iter().fold(0.0f64, |m, z| m.max(z.abs()));
        let err = got.iter().zip(&want).fold(0.0f64, |m, (a, b)| m.max((*a - *b).abs()));
        prop_assert!(err <= 1e-12 * peak, "n={}: error {err:e}, peak {peak:e}", x.len());
        let back = ifft_real(&got).expect("inverse");
        let scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        prop_assert!(max_abs_diff(x, &back) <= 1e-12 * scale);
    }

    /// Multi-level DWT reconstructs the signal perfectly, for both
    /// wavelet families and every level depth the block supports —
    /// through the legacy pyramid and the reusable workspace alike.
    #[test]
    fn dwt_perfect_reconstruction(
        levels in 1usize..=5,
        haar in 0usize..2,
        vals in proptest::collection::vec(-10.0..10.0f64, 1024..=1024)
    ) {
        let wavelet = if haar == 1 { Wavelet::Haar } else { Wavelet::Daubechies4 };
        let decomp = WaveletDecomposition::analyze(&vals, wavelet, levels).expect("analyzes");
        let back = decomp.synthesize().expect("synthesizes");
        prop_assert!(max_abs_diff(&vals, &back) <= 1e-9);

        let mut dwt = mpros_signal::MultiLevelDwt::new();
        dwt.analyze_into(&vals, wavelet, levels).expect("analyzes");
        let mut rec = Vec::new();
        dwt.reconstruct_into(&mut rec).expect("reconstructs");
        prop_assert!(max_abs_diff(&vals, &rec) <= 1e-9);
    }

    /// Windows are symmetric (`w[i] = w[n-1-i]`) and their coherent gain
    /// is exactly the mean of the coefficients.
    #[test]
    fn window_symmetry_and_coherent_gain(n in 2usize..=1024, which in 0usize..5) {
        let window = Window::ALL[which];
        for i in 0..n {
            let (a, b) = (window.coefficient(i, n), window.coefficient(n - 1 - i, n));
            prop_assert!((a - b).abs() < 1e-12, "{}[{i}] asymmetric: {a} vs {b}", window.name());
        }
        let mean = (0..n).map(|i| window.coefficient(i, n)).sum::<f64>() / n as f64;
        let gain = window.coherent_gain(n);
        prop_assert!((gain - mean).abs() < 1e-15, "gain {gain} vs mean {mean}");
    }

    /// Repeated calls through one context reuse scratch buffers and
    /// cached plans yet stay bit-identical — including after the plan
    /// cache has been stretched across block sizes.
    #[test]
    fn scratch_reuse_is_bit_identical(
        vals in proptest::collection::vec(-50.0..50.0f64, POOL..=POOL)
    ) {
        let fs = 16_384.0;
        let mut ctx = DspContext::new();
        let mut first = Spectrum::default();
        let mut again = Spectrum::default();
        ctx.spectrum_into(&vals, fs, Window::Hann, &mut first).expect("first");
        // Stretch the scratch arena with a different (smaller) size in
        // between, then recompute the original.
        let mut small = Spectrum::default();
        ctx.spectrum_into(&vals[..256], fs, Window::Blackman, &mut small).expect("small");
        ctx.spectrum_into(&vals, fs, Window::Hann, &mut again).expect("again");
        prop_assert_eq!(first.amplitudes().len(), again.amplitudes().len());
        for (a, b) in first.amplitudes().iter().zip(again.amplitudes()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let mut cep1 = Vec::new();
        let mut cep2 = Vec::new();
        ctx.cepstrum_into(&vals[..2048], &mut cep1).expect("cepstrum");
        ctx.cepstrum_into(&vals[..2048], &mut cep2).expect("cepstrum again");
        for (a, b) in cep1.iter().zip(&cep2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
