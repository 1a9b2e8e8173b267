//! Amplitude spectra, peak extraction and shaft-order analysis.
//!
//! The DLI expert system's rules are phrased over *orders* — multiples of
//! the machine's running speed ("some compressors vibrate more at certain
//! frequencies", §6.1; classic 1× imbalance, 2× misalignment, bearing
//! tones at non-integer orders). [`Spectrum`] turns a windowed FFT into a
//! single-sided amplitude spectrum in engineering units and answers the
//! questions the rules ask: amplitude at a frequency/order, band RMS,
//! dominant peaks.

use crate::window::Window;
use crate::DspContext;
use mpros_core::Result;

/// A single-sided amplitude spectrum of a real signal.
///
/// The `Default` value is an *empty* spectrum (no bins, zero rates) —
/// it exists so callers can preallocate a `Spectrum` once and refill it
/// through [`crate::context::DspContext::spectrum_into`] without
/// reallocating the amplitude buffer.
#[derive(Debug, Clone, Default)]
pub struct Spectrum {
    /// Amplitude (peak, not RMS) per bin, window-corrected.
    pub(crate) amplitudes: Vec<f64>,
    /// Frequency step between bins, Hz.
    pub(crate) df: f64,
    /// Sample rate of the source block, Hz.
    pub(crate) sample_rate: f64,
}

/// One spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Peak frequency, Hz (bin center).
    pub frequency: f64,
    /// Peak amplitude (same units as the time signal).
    pub amplitude: f64,
}

impl Spectrum {
    /// Compute the spectrum of `block` sampled at `sample_rate` Hz, using
    /// `window`. Block length must be a power of two. Runs
    /// [`DspContext::spectrum_into`] on a one-shot context.
    pub fn compute(block: &[f64], sample_rate: f64, window: Window) -> Result<Self> {
        let mut spectrum = Spectrum::default();
        DspContext::new().spectrum_into(block, sample_rate, window, &mut spectrum)?;
        Ok(spectrum)
    }

    /// Amplitudes per bin (index 0 = DC, last = Nyquist).
    pub fn amplitudes(&self) -> &[f64] {
        &self.amplitudes
    }

    /// Frequency resolution (bin width), Hz.
    pub fn resolution(&self) -> f64 {
        self.df
    }

    /// The sample rate of the source block, Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The Nyquist frequency, Hz.
    pub fn nyquist(&self) -> f64 {
        self.sample_rate / 2.0
    }

    /// Center frequency of bin `k`.
    pub fn bin_frequency(&self, k: usize) -> f64 {
        k as f64 * self.df
    }

    /// Amplitude at `freq_hz`, searching bins within `tolerance_hz`
    /// (machinery speed is never exactly known, so rules search a small
    /// neighbourhood). The returned amplitude is parabolically
    /// interpolated around the strongest bin to correct window scalloping
    /// loss for off-grid tones.
    pub fn amplitude_near(&self, freq_hz: f64, tolerance_hz: f64) -> f64 {
        if freq_hz < 0.0 {
            return 0.0;
        }
        let lo = ((freq_hz - tolerance_hz) / self.df).floor().max(0.0) as usize;
        let hi = (((freq_hz + tolerance_hz) / self.df).ceil() as usize)
            .min(self.amplitudes.len().saturating_sub(1));
        let hi = hi.max(lo);
        let k = (lo..=hi)
            .max_by(|&a, &b| {
                self.amplitudes[a]
                    .partial_cmp(&self.amplitudes[b])
                    .expect("amplitudes are finite")
            })
            .expect("range is nonempty");
        self.interpolated_amplitude(k)
    }

    /// Parabolic vertex interpolation of the amplitude around bin `k`.
    fn interpolated_amplitude(&self, k: usize) -> f64 {
        let a = self.amplitudes[k];
        if k == 0 || k + 1 >= self.amplitudes.len() {
            return a;
        }
        let (l, r) = (self.amplitudes[k - 1], self.amplitudes[k + 1]);
        let denom = 2.0 * a - l - r;
        if denom <= 0.0 || a < l || a < r {
            return a; // not a local max: no vertex to fit
        }
        let delta = 0.5 * (r - l) / denom; // vertex offset in bins
        a - 0.25 * (l - r) * delta
    }

    /// Amplitude at `order` × `shaft_hz` with a half-bin-plus-2 % speed
    /// tolerance — the standard order-analysis lookup.
    pub fn amplitude_at_order(&self, shaft_hz: f64, order: f64) -> f64 {
        let f = shaft_hz * order;
        self.amplitude_near(f, (self.df / 2.0) + 0.02 * f)
    }

    /// RMS of the signal content in `[lo_hz, hi_hz]` (band-limited RMS,
    /// as produced by the MUX cards' analog RMS detectors when preceded by
    /// a filter).
    pub fn band_rms(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let lo = (lo_hz / self.df).ceil().max(0.0) as usize;
        let hi = ((hi_hz / self.df).floor() as usize).min(self.amplitudes.len() - 1);
        if lo > hi {
            return 0.0;
        }
        // Each sinusoid of peak amplitude A contributes A²/2 to mean
        // square (DC contributes A²).
        let mut ms = 0.0;
        for (k, &a) in self.amplitudes.iter().enumerate().take(hi + 1).skip(lo) {
            ms += if k == 0 { a * a } else { a * a / 2.0 };
        }
        ms.sqrt()
    }

    /// Total RMS over the whole band.
    pub fn total_rms(&self) -> f64 {
        self.band_rms(0.0, self.nyquist())
    }

    /// The `count` largest local maxima above `floor` amplitude, sorted by
    /// descending amplitude. DC and Nyquist bins are excluded.
    pub fn dominant_peaks(&self, count: usize, floor: f64) -> Vec<Peak> {
        let mut peaks: Vec<Peak> = Vec::new();
        for k in 1..self.amplitudes.len() - 1 {
            let a = self.amplitudes[k];
            if a > floor && a >= self.amplitudes[k - 1] && a >= self.amplitudes[k + 1] {
                peaks.push(Peak {
                    frequency: self.bin_frequency(k),
                    amplitude: a,
                });
            }
        }
        peaks.sort_by(|x, y| y.amplitude.partial_cmp(&x.amplitude).expect("finite"));
        peaks.truncate(count);
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(n: usize, fs: f64, f: f64, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * f * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn bin_centered_tone_amplitude_is_exact_with_rectangular() {
        let fs = 1024.0;
        let n = 1024;
        // 64 Hz is exactly bin 64.
        let sig = tone(n, fs, 64.0, 3.0);
        let spec = Spectrum::compute(&sig, fs, Window::Rectangular).unwrap();
        assert!((spec.amplitude_near(64.0, 0.5) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hann_window_recovers_amplitude_after_gain_correction() {
        let fs = 1024.0;
        let sig = tone(1024, fs, 64.0, 3.0);
        let spec = Spectrum::compute(&sig, fs, Window::Hann).unwrap();
        let a = spec.amplitude_near(64.0, 1.5);
        assert!((a - 3.0).abs() < 0.05, "amplitude {a}");
    }

    #[test]
    fn off_bin_tone_flattop_beats_rectangular_accuracy() {
        let fs = 1000.0;
        let n = 1024;
        // 60 Hz is off the bin grid (df ≈ 0.977 Hz).
        let sig = tone(n, fs, 60.4, 2.0);
        let rect = Spectrum::compute(&sig, fs, Window::Rectangular).unwrap();
        let flat = Spectrum::compute(&sig, fs, Window::FlatTop).unwrap();
        let err_rect = (rect.amplitude_near(60.4, 2.0) - 2.0).abs();
        let err_flat = (flat.amplitude_near(60.4, 2.0) - 2.0).abs();
        assert!(
            err_flat < err_rect,
            "flattop {err_flat} should beat rectangular {err_rect}"
        );
    }

    #[test]
    fn order_lookup_finds_harmonics() {
        let fs = 8192.0;
        let n = 4096;
        let shaft = 29.5; // Hz, like a 1770 rpm motor
        let mut sig = tone(n, fs, shaft, 1.0);
        for (i, s) in tone(n, fs, 2.0 * shaft, 0.5).iter().enumerate() {
            sig[i] += s;
        }
        let spec = Spectrum::compute(&sig, fs, Window::Hann).unwrap();
        assert!((spec.amplitude_at_order(shaft, 1.0) - 1.0).abs() < 0.05);
        assert!((spec.amplitude_at_order(shaft, 2.0) - 0.5).abs() < 0.05);
        assert!(spec.amplitude_at_order(shaft, 3.0) < 0.05);
    }

    #[test]
    fn band_rms_matches_time_domain_rms() {
        let fs = 2048.0;
        let sig = tone(2048, fs, 128.0, 2.0); // RMS = 2/√2 = 1.414
        let spec = Spectrum::compute(&sig, fs, Window::Rectangular).unwrap();
        let rms = spec.total_rms();
        assert!((rms - 2.0 / 2.0f64.sqrt()).abs() < 1e-6, "rms {rms}");
        // Out-of-band RMS is ~0.
        assert!(spec.band_rms(300.0, 900.0) < 1e-9);
    }

    #[test]
    fn dominant_peaks_sorted_and_limited() {
        let fs = 4096.0;
        let n = 4096;
        let mut sig = tone(n, fs, 100.0, 3.0);
        for (i, s) in tone(n, fs, 400.0, 1.0).iter().enumerate() {
            sig[i] += s;
        }
        for (i, s) in tone(n, fs, 700.0, 2.0).iter().enumerate() {
            sig[i] += s;
        }
        let spec = Spectrum::compute(&sig, fs, Window::Hann).unwrap();
        let peaks = spec.dominant_peaks(2, 0.1);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].frequency - 100.0).abs() < 2.0);
        assert!((peaks[1].frequency - 700.0).abs() < 2.0);
        assert!(peaks[0].amplitude > peaks[1].amplitude);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Spectrum::compute(&[0.0; 100], 1000.0, Window::Hann).is_err());
        assert!(Spectrum::compute(&[0.0; 128], 0.0, Window::Hann).is_err());
    }

    #[test]
    fn resolution_and_nyquist() {
        let spec = Spectrum::compute(&vec![0.0; 2048], 40_000.0, Window::Hann).unwrap();
        assert!((spec.resolution() - 40_000.0 / 2048.0).abs() < 1e-12);
        assert_eq!(spec.nyquist(), 20_000.0);
        assert_eq!(spec.amplitudes().len(), 1025);
    }
}
