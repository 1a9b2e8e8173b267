//! Complex numbers and the Cooley–Tukey FFT.
//!
//! Implemented from scratch (no external numerics crates): an iterative
//! decimation-in-time FFT with bit-reversal permutation and precomputed
//! twiddle tables, taking its radix-2 stages two at a time, plus a
//! real-input transform that runs at half size on the same tables
//! (DESIGN.md §10.5). Sizes must be powers of two, which is what the
//! DC's spectrum analyzer card produces anyway.

use crate::DspContext;
use mpros_core::{Error, Result};
use std::f64::consts::PI;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (no square root; preferred in hot loops).
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors once; the
/// DC pipeline runs thousands of transforms per second at a fixed block
/// size, so plan reuse keeps the hot path allocation-free. One plan of
/// size `n` serves both the `n`-point complex transform and the
/// `n`-point real-input transform, which runs an `n/2`-point complex
/// transform over a prefix of the same tables (DESIGN.md §10.5).
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Forward twiddles per radix-2 stage: the stage of length `len`
    /// holds `e^{-2πij/len}` for `j < len/2` at offset `len/2 - 1`, so
    /// the stages of every smaller power of two form a prefix.
    twiddles: Vec<Complex>,
    /// `bitrev[i]` is `i` with its `log2 n` bits reversed. For `i < n/2`
    /// it is even, and half of it is the `n/2`-point permutation.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Create a plan for transforms of length `n` (power of two, ≥ 2).
    pub fn new(n: usize) -> Result<Self> {
        if n < 2 || !n.is_power_of_two() {
            return Err(Error::invalid(format!(
                "FFT size must be a power of two >= 2, got {n}"
            )));
        }
        let log2n = n.trailing_zeros();
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            for j in 0..half {
                twiddles.push(Complex::cis(-2.0 * PI * j as f64 / len as f64));
            }
            len <<= 1;
        }
        let mut bitrev = vec![0u32; n];
        for (i, r) in bitrev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - log2n);
        }
        Ok(FftPlan {
            n,
            twiddles,
            bitrev,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is zero (never: plans are ≥ 2; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT.
    pub fn forward(&self, data: &mut [Complex]) -> Result<()> {
        self.check(data.len())?;
        self.permute(data);
        butterflies::<false>(&self.twiddles, data);
        Ok(())
    }

    /// In-place inverse FFT (including the 1/n normalization).
    pub fn inverse(&self, data: &mut [Complex]) -> Result<()> {
        self.check(data.len())?;
        self.permute(data);
        butterflies::<true>(&self.twiddles, data);
        let inv = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
        Ok(())
    }

    /// Forward FFT of a real signal into a caller-provided buffer: all
    /// `n` bins, computed by the real-input transform (bins `0..=n/2`)
    /// with the upper half filled in as their conjugate mirror. `dst` is
    /// cleared and refilled; with capacity for `n` bins this performs
    /// **zero allocations**, which is what the DC's steady-state survey
    /// loop relies on.
    pub fn forward_real_into(&self, signal: &[f64], dst: &mut Vec<Complex>) -> Result<()> {
        self.check(signal.len())?;
        dst.clear();
        dst.reserve_exact(self.n);
        self.real_forward_with(|i| signal[i], dst);
        for k in (1..self.n / 2).rev() {
            let z = dst[k].conj();
            dst.push(z);
        }
        Ok(())
    }

    /// Bins `0..=n/2` of the spectrum of the real samples `sample(0..n)`,
    /// computed as one `n/2`-point complex transform of the packed
    /// samples plus a split post-twiddle; the bins above `n/2` are their
    /// conjugate mirror and are not stored. `dst` is cleared and
    /// refilled. Taking the samples through a closure lets callers fuse a
    /// window or an offset into the packing pass.
    pub(crate) fn real_forward_with(&self, sample: impl Fn(usize) -> f64, dst: &mut Vec<Complex>) {
        let half = self.n / 2;
        dst.clear();
        dst.reserve_exact(half + 1);
        // z[m] = x[2m] + i·x[2m+1], scattered straight into the
        // bit-reversed order of the half-size transform: bitrev[i] for
        // i < n/2 is 2·bitrev_{n/2}[i].
        dst.extend(self.bitrev[..half].iter().map(|&r| {
            let m = r as usize;
            Complex::new(sample(m), sample(m + 1))
        }));
        butterflies::<false>(&self.twiddles, dst);
        dst.push(Complex::ZERO);
        split_forward(&self.twiddles[half - 1..], dst);
    }

    /// Inverse of [`FftPlan::real_forward_with`], including the 1/n
    /// normalization: the real signal whose spectrum has bins
    /// `half_spectrum` (`n/2 + 1` of them; the upper half is taken to be
    /// their conjugate mirror). `work` holds the `n/2`-point complex
    /// transform; `dst` is cleared and refilled with `n` samples.
    pub(crate) fn inverse_real_into(
        &self,
        half_spectrum: &[Complex],
        work: &mut Vec<Complex>,
        dst: &mut Vec<f64>,
    ) -> Result<()> {
        let half = self.n / 2;
        if half_spectrum.len() != half + 1 {
            return Err(Error::invalid(format!(
                "half spectrum has {} bins, plan size {} needs {}",
                half_spectrum.len(),
                self.n,
                half + 1
            )));
        }
        let w = &self.twiddles[half - 1..];
        work.clear();
        work.extend(self.bitrev[..half].iter().map(|&r| {
            let k = (r >> 1) as usize;
            let (a, b) = (half_spectrum[k], half_spectrum[half - k]);
            // Even and odd sub-spectra E = (a + b*)/2, O = (a − b*)·w̄ᵏ/2,
            // repacked as Z = E + i·O.
            let e = Complex::new(0.5 * (a.re + b.re), 0.5 * (a.im - b.im));
            let o = Complex::new(0.5 * (a.re - b.re), 0.5 * (a.im + b.im)) * w[k].conj();
            Complex::new(e.re - o.im, e.im + o.re)
        }));
        butterflies::<true>(&self.twiddles, work);
        let inv = 1.0 / half as f64;
        dst.clear();
        dst.reserve_exact(self.n);
        for z in work.iter() {
            dst.push(z.re * inv);
            dst.push(z.im * inv);
        }
        Ok(())
    }

    /// The inverse transform of bins `bin(0..n)` into `dst`, without the
    /// 1/n normalization (callers fold it into their own output pass).
    pub(crate) fn inverse_unscaled_with(
        &self,
        bin: impl Fn(usize) -> Complex,
        dst: &mut Vec<Complex>,
    ) {
        dst.clear();
        dst.extend(self.bitrev.iter().map(|&r| bin(r as usize)));
        butterflies::<true>(&self.twiddles, dst);
    }

    fn check(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(Error::invalid(format!(
                "buffer length {len} does not match plan size {}",
                self.n
            )));
        }
        Ok(())
    }

    /// In-place bit-reversal permutation.
    fn permute(&self, data: &mut [Complex]) {
        for (i, &r) in self.bitrev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }
}

/// The twiddle `w`, conjugated for the inverse direction.
#[inline(always)]
fn twiddle<const INV: bool>(w: Complex) -> Complex {
    if INV {
        w.conj()
    } else {
        w
    }
}

/// Decimation-in-time butterflies over a bit-reversed buffer whose length
/// is a power of two no larger than the plan, taking the radix-2 stages
/// two at a time. The first one or two stages have twiddles 1 and ∓i and
/// run without multiplies.
fn butterflies<const INV: bool>(twiddles: &[Complex], data: &mut [Complex]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let mut len = if n.trailing_zeros() % 2 == 1 {
        for pair in data.chunks_exact_mut(2) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a + b;
            pair[1] = a - b;
        }
        2
    } else {
        for quad in data.chunks_exact_mut(4) {
            let (b0, b1) = (quad[0] + quad[1], quad[0] - quad[1]);
            let (b2, b3) = (quad[2] + quad[3], quad[2] - quad[3]);
            // b3 · (∓i): −i forward, +i inverse.
            let r = if INV {
                Complex::new(-b3.im, b3.re)
            } else {
                Complex::new(b3.im, -b3.re)
            };
            quad[0] = b0 + b2;
            quad[2] = b0 - b2;
            quad[1] = b1 + r;
            quad[3] = b1 - r;
        }
        4
    };
    while len < n {
        len *= 4;
        radix4_pass::<INV>(twiddles, data, len);
    }
}

/// Radix-2 stages `len/2` and `len` in one pass over the buffer. Each
/// block of `len` holds quarters `x0..x3`; stage `len/2` pairs
/// `(x0, x1)` and `(x2, x3)` under `w_{len/2}^j`, then stage `len` pairs
/// `(x0, x2)` under `w_len^j` and `(x1, x3)` under `w_len^{j+len/4}`.
fn radix4_pass<const INV: bool>(twiddles: &[Complex], data: &mut [Complex], len: usize) {
    let q = len / 4;
    let lo = &twiddles[q - 1..2 * q - 1];
    let (hi_a, hi_b) = twiddles[2 * q - 1..4 * q - 1].split_at(q);
    for block in data.chunks_exact_mut(len) {
        let (left, right) = block.split_at_mut(2 * q);
        let (x0, x1) = left.split_at_mut(q);
        let (x2, x3) = right.split_at_mut(q);
        for j in 0..q {
            let w1 = twiddle::<INV>(lo[j]);
            let t = x1[j] * w1;
            let (b0, b1) = (x0[j] + t, x0[j] - t);
            let t = x3[j] * w1;
            let (b2, b3) = (x2[j] + t, x2[j] - t);
            let t = b2 * twiddle::<INV>(hi_a[j]);
            x0[j] = b0 + t;
            x2[j] = b0 - t;
            let t = b3 * twiddle::<INV>(hi_b[j]);
            x1[j] = b1 + t;
            x3[j] = b1 - t;
        }
    }
}

/// Split post-twiddle of the real-input transform, in place: `x` holds
/// the `h`-point transform `Z` of the packed samples in `x[..h]` (plus
/// one spare slot) and leaves with bins `0..=h` of the `2h`-point real
/// spectrum. `w` is the plan's last stage, `w[k] = e^{-2πik/2h}`. Bins
/// `k` and `h − k` share one pair of reads:
/// `X[k] = E + wᵏ·O`, `X[h−k] = (E − wᵏ·O)*` with
/// `E = (Z[k] + Z[h−k]*)/2` and `O = (Z[k] − Z[h−k]*)/2i`.
fn split_forward(w: &[Complex], x: &mut [Complex]) {
    let h = x.len() - 1;
    let z0 = x[0];
    x[0] = Complex::real(z0.re + z0.im);
    x[h] = Complex::real(z0.re - z0.im);
    for k in 1..=h / 2 {
        let (a, b) = (x[k], x[h - k]);
        let e = Complex::new(0.5 * (a.re + b.re), 0.5 * (a.im - b.im));
        let o = Complex::new(0.5 * (a.im + b.im), 0.5 * (b.re - a.re));
        let t = w[k] * o;
        x[k] = e + t;
        x[h - k] = (e - t).conj();
    }
}

/// Forward FFT of a real signal; returns the full complex spectrum.
/// Runs [`crate::DspContext::fft_real_into`] on a one-shot context.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex>> {
    let mut out = Vec::new();
    DspContext::new().fft_real_into(signal, &mut out)?;
    Ok(out)
}

/// Inverse FFT of the spectrum of a real signal, returning the real
/// samples. Only bins `0..=n/2` are read; the upper half is taken to be
/// their conjugate mirror, as it is for every real signal's spectrum.
/// Runs [`crate::DspContext::ifft_real_into`] on a one-shot context.
pub fn ifft_real(spectrum: &[Complex]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    DspContext::new().ifft_real_into(spectrum, &mut out)?;
    Ok(out)
}

/// Naive O(n²) DFT used as a test oracle for the FFT.
#[doc(hidden)]
pub fn dft_reference(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                acc += x * Complex::cis(-2.0 * PI * (k * j) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {b:?}, got {a:?} (tol {tol})"
        );
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(FftPlan::new(0).is_err());
        assert!(FftPlan::new(1).is_err());
        assert!(FftPlan::new(3).is_err());
        assert!(FftPlan::new(100).is_err());
        assert!(FftPlan::new(128).is_ok());
    }

    #[test]
    fn rejects_mismatched_buffer() {
        let plan = FftPlan::new(8).unwrap();
        let mut buf = vec![Complex::ZERO; 4];
        assert!(plan.forward(&mut buf).is_err());
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        FftPlan::new(8).unwrap().forward(&mut data).unwrap();
        for z in data {
            assert_close(z, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let mut data = vec![Complex::real(2.5); 16];
        FftPlan::new(16).unwrap().forward(&mut data).unwrap();
        assert_close(data[0], Complex::real(40.0), 1e-9);
        for z in &data[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_its_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal).unwrap();
        // cos splits into bins k and n-k with magnitude n/2 each.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, z) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(z.abs() < 1e-8, "leakage at bin {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let n = 32;
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = data.clone();
        FftPlan::new(n).unwrap().forward(&mut fast).unwrap();
        let slow = dft_reference(&data);
        for (a, b) in fast.iter().zip(&slow) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn complex_transforms_match_naive_dft_at_every_size() {
        // Odd and even stage counts: a lone radix-2 stage first, or the
        // multiply-free 4-point pass first, then radix-4 passes.
        for exp in 1..=8 {
            let n = 1usize << exp;
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let plan = FftPlan::new(n).unwrap();
            let mut fast = data.clone();
            plan.forward(&mut fast).unwrap();
            for (a, b) in fast.iter().zip(&dft_reference(&data)) {
                assert_close(*a, *b, 1e-9);
            }
            plan.inverse(&mut fast).unwrap();
            for (a, b) in fast.iter().zip(&data) {
                assert_close(*a, *b, 1e-12);
            }
        }
    }

    #[test]
    fn real_half_transform_inverts() {
        for exp in 1..=8 {
            let n = 1usize << exp;
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.25).collect();
            let plan = FftPlan::new(n).unwrap();
            let mut half = Vec::new();
            plan.real_forward_with(|i| x[i], &mut half);
            assert_eq!(half.len(), n / 2 + 1);
            let (mut work, mut back) = (Vec::new(), Vec::new());
            plan.inverse_real_into(&half, &mut work, &mut back).unwrap();
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12, "n={n}: {a} vs {b}");
            }
            assert!(plan
                .inverse_real_into(&half[1..], &mut work, &mut back)
                .is_err());
        }
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(16).unwrap();
        for trial in 0..3 {
            let mut data: Vec<Complex> =
                (0..16).map(|i| Complex::real((i + trial) as f64)).collect();
            let expect = dft_reference(&data);
            plan.forward(&mut data).unwrap();
            for (a, b) in data.iter().zip(&expect) {
                assert_close(*a, *b, 1e-9);
            }
        }
    }

    #[test]
    fn complex_arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sq(), 25.0);
        assert_eq!(z.conj().im, 4.0);
        assert_close(z * Complex::ONE, z, 0.0);
        assert_close(z + (-z), Complex::ZERO, 0.0);
        assert!((Complex::cis(PI / 2.0) - Complex::new(0.0, 1.0)).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn forward_inverse_roundtrip(
            raw in proptest::collection::vec(-100.0..100.0f64, 8..=8)
        ) {
            let spec = fft_real(&raw).unwrap();
            let back = ifft_real(&spec).unwrap();
            for (a, b) in raw.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn parseval_energy_is_preserved(
            raw in proptest::collection::vec(-10.0..10.0f64, 64..=64)
        ) {
            let time_energy: f64 = raw.iter().map(|x| x * x).sum();
            let spec = fft_real(&raw).unwrap();
            let freq_energy: f64 =
                spec.iter().map(|z| z.norm_sq()).sum::<f64>() / raw.len() as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
        }

        #[test]
        fn linearity(
            a in proptest::collection::vec(-10.0..10.0f64, 16..=16),
            b in proptest::collection::vec(-10.0..10.0f64, 16..=16)
        ) {
            let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = fft_real(&a).unwrap();
            let fb = fft_real(&b).unwrap();
            let fsum = fft_real(&sum).unwrap();
            for i in 0..16 {
                prop_assert!(((fa[i] + fb[i]) - fsum[i]).abs() < 1e-8);
            }
        }
    }
}
