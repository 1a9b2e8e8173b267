//! Real cepstrum.
//!
//! §6.2 lists the cepstrum among the WNN's input features. The real
//! cepstrum `c[q] = IFFT(log |FFT(x)|)` maps families of harmonics and
//! sidebands — the signature of gear wear and rotor-bar faults — onto
//! single peaks at the corresponding *quefrency* (period).

use crate::DspContext;
use mpros_core::Result;

/// Floor applied inside the log to avoid `log(0)` (shared with the
/// zero-allocation cepstrum path in [`crate::context`]).
pub(crate) const LOG_FLOOR: f64 = 1e-12;

/// Compute the real cepstrum of `signal` (power-of-two length).
/// Returns `n` quefrency coefficients; index `q` corresponds to a period
/// of `q / sample_rate` seconds. Runs [`DspContext::cepstrum_into`] on a
/// one-shot context.
pub fn real_cepstrum(signal: &[f64]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    DspContext::new().cepstrum_into(signal, &mut out)?;
    Ok(out)
}

/// The quefrency (in samples) of the largest cepstral peak within
/// `[min_q, max_q]`, or `None` if the range is empty. Used to detect
/// harmonic families with unknown fundamental.
pub fn dominant_quefrency(cepstrum: &[f64], min_q: usize, max_q: usize) -> Option<usize> {
    let hi = max_q.min(cepstrum.len().saturating_sub(1));
    if min_q > hi {
        return None;
    }
    (min_q..=hi).max_by(|&a, &b| {
        cepstrum[a]
            .partial_cmp(&cepstrum[b])
            .expect("cepstrum values are finite")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn harmonic_family_peaks_at_fundamental_period() {
        let fs = 4096.0;
        let n = 4096;
        let f0 = 64.0; // period = 64 samples
        let mut sig = vec![0.0; n];
        for h in 1..=8 {
            for (i, s) in sig.iter_mut().enumerate() {
                *s += (1.0 / h as f64) * (2.0 * PI * f0 * h as f64 * i as f64 / fs).sin();
            }
        }
        let cep = real_cepstrum(&sig).unwrap();
        let period = (fs / f0) as usize;
        // Rahmonics appear at integer multiples of the fundamental
        // period; the dominant one must be such a multiple.
        let q = dominant_quefrency(&cep, 16, 512).unwrap();
        let nearest_multiple = ((q as f64 / period as f64).round() as i64).max(1) * period as i64;
        assert!(
            (q as i64 - nearest_multiple).unsigned_abs() <= 3,
            "quefrency {q} is not a rahmonic of period {period}"
        );
        // And within the first-rahmonic search range the fundamental wins.
        let q1 = dominant_quefrency(&cep, 16, period + period / 2).unwrap();
        assert!(
            (q1 as i64 - period as i64).unsigned_abs() <= 3,
            "fundamental quefrency {q1}, expected ~{period}"
        );
    }

    #[test]
    fn white_ish_signal_has_no_strong_quefrency_peak() {
        // Single tone: cepstrum away from zero-quefrency stays small
        // relative to a harmonic-rich signal.
        let fs = 2048.0;
        let n = 2048;
        let sig: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 100.0 * i as f64 / fs).sin())
            .collect();
        let cep = real_cepstrum(&sig).unwrap();
        let q = dominant_quefrency(&cep, 8, 512).unwrap();
        // Peak exists but is weak.
        assert!(cep[q].abs() < 1.0);
    }

    #[test]
    fn zero_signal_is_handled() {
        let cep = real_cepstrum(&[0.0; 256]).unwrap();
        assert_eq!(cep.len(), 256);
        assert!(cep.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn empty_range_returns_none() {
        let cep = vec![0.0; 16];
        assert_eq!(dominant_quefrency(&cep, 20, 30), None);
        assert_eq!(dominant_quefrency(&cep, 10, 5), None);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(real_cepstrum(&[0.0; 100]).is_err());
    }
}
