//! Signal envelope via the Hilbert transform.
//!
//! Rolling-element bearing defects excite high-frequency structural
//! resonances that are *amplitude-modulated* at the defect repetition
//! rate (BPFO/BPFI/...). Standard practice — and the reason DLI-style
//! rule sets can see bearing tones at all — is envelope analysis: band-
//! pass around the resonance, take the envelope, and look for the defect
//! frequency in the envelope spectrum. The analytic-signal envelope is
//! computed here with an FFT-based Hilbert transform.

use crate::DspContext;
use mpros_core::Result;

/// The amplitude envelope of `signal` via the analytic signal
/// (FFT → zero negative frequencies, double positive → IFFT → |·|).
/// Length must be a power of two. Runs
/// [`DspContext::hilbert_envelope_into`] on a one-shot context.
pub fn hilbert_envelope(signal: &[f64]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    DspContext::new().hilbert_envelope_into(signal, &mut out)?;
    Ok(out)
}

/// Band-pass `signal` to `[lo_hz, hi_hz]` in the frequency domain (ideal
/// brick-wall filter), then return the envelope. This is the classic
/// bearing-demodulation chain. Both steps act on one spectrum, so it
/// costs one forward and one inverse transform. Runs
/// [`DspContext::bandpass_envelope_into`] on a one-shot context.
pub fn bandpass_envelope(
    signal: &[f64],
    sample_rate: f64,
    lo_hz: f64,
    hi_hz: f64,
) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    DspContext::new().bandpass_envelope_into(signal, sample_rate, lo_hz, hi_hz, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Spectrum;
    use crate::window::Window;
    use std::f64::consts::PI;

    #[test]
    fn envelope_of_pure_tone_is_its_amplitude() {
        let fs = 1024.0;
        let n = 1024;
        let sig: Vec<f64> = (0..n)
            .map(|i| 2.0 * (2.0 * PI * 128.0 * i as f64 / fs).sin())
            .collect();
        let env = hilbert_envelope(&sig).unwrap();
        // Away from the block edges the envelope is flat at 2.0.
        for &e in &env[64..n - 64] {
            assert!((e - 2.0).abs() < 0.02, "envelope {e}");
        }
    }

    #[test]
    fn envelope_recovers_modulation_frequency() {
        // Carrier 2 kHz modulated at 97 Hz — the shape of a bearing
        // resonance excited by BPFO impacts.
        let fs = 16_384.0;
        let n = 8192;
        let (fc, fm) = (2_000.0, 97.0);
        let sig: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (1.0 + 0.8 * (2.0 * PI * fm * t).cos()) * (2.0 * PI * fc * t).sin()
            })
            .collect();
        let env = bandpass_envelope(&sig, fs, 1_500.0, 2_500.0).unwrap();
        // Remove the DC of the envelope, then its spectrum should peak at fm.
        let mean = env.iter().sum::<f64>() / env.len() as f64;
        let ac: Vec<f64> = env.iter().map(|e| e - mean).collect();
        let spec = Spectrum::compute(&ac, fs, Window::Hann).unwrap();
        let peaks = spec.dominant_peaks(1, 0.01);
        assert!(!peaks.is_empty());
        assert!(
            (peaks[0].frequency - fm).abs() < 4.0,
            "envelope peak at {} Hz, expected {fm}",
            peaks[0].frequency
        );
    }

    #[test]
    fn bandpass_rejects_out_of_band_tone() {
        let fs = 8192.0;
        let n = 4096;
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 100.0 * i as f64 / fs).sin())
            .collect();
        let env = bandpass_envelope(&sig, fs, 2_000.0, 3_000.0).unwrap();
        let rms = (env.iter().map(|e| e * e).sum::<f64>() / env.len() as f64).sqrt();
        assert!(rms < 1e-9, "out-of-band leakage rms {rms}");
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(hilbert_envelope(&[0.0; 100]).is_err());
    }
}
