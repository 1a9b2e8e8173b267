//! Time-domain statistics and the §6.2 feature vector.
//!
//! §6.2: "Features extracted from input data are organized into a feature
//! vector, which is fed into the WNN... using information such as the
//! peak of the signal amplitude, standard deviation, cepstrum, DCT
//! coefficients, wavelet maps, temperature, humidity, speed, and mass."
//!
//! [`FeatureVector`] assembles exactly that: waveform statistics, cepstral
//! summary, leading DCT coefficients, the wavelet energy map, and optional
//! scalar process values, in a fixed layout the WNN can train on.

use crate::dwt::Wavelet;
use crate::DspContext;
use mpros_core::Result;
use serde::{Deserialize, Serialize};

/// Basic waveform statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WaveformStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Root mean square.
    pub rms: f64,
    /// Peak absolute amplitude (§6.2 "peak of the signal amplitude").
    pub peak: f64,
    /// Standard deviation (§6.2).
    pub std_dev: f64,
    /// Crest factor `peak / rms` (0 when the signal is all zeros).
    pub crest_factor: f64,
    /// Excess kurtosis; impulsive faults (bearing defects) drive it up.
    pub kurtosis: f64,
    /// Skewness.
    pub skewness: f64,
}

impl WaveformStats {
    /// Compute the statistics of a block. Empty blocks yield all zeros.
    pub fn of(block: &[f64]) -> Self {
        let n = block.len();
        if n == 0 {
            return Self::default();
        }
        let nf = n as f64;
        let mean = block.iter().sum::<f64>() / nf;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        let mut m4 = 0.0;
        let mut sum_sq = 0.0;
        let mut peak = 0.0f64;
        for &x in block {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
            sum_sq += x * x;
            peak = peak.max(x.abs());
        }
        m2 /= nf;
        m3 /= nf;
        m4 /= nf;
        let rms = (sum_sq / nf).sqrt();
        let std_dev = m2.sqrt();
        let kurtosis = if m2 > 0.0 { m4 / (m2 * m2) - 3.0 } else { 0.0 };
        let skewness = if m2 > 0.0 { m3 / m2.powf(1.5) } else { 0.0 };
        WaveformStats {
            mean,
            rms,
            peak,
            std_dev,
            crest_factor: if rms > 0.0 { peak / rms } else { 0.0 },
            kurtosis,
            skewness,
        }
    }
}

/// Layout parameters of a [`FeatureVector`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// How many leading DCT coefficients to keep.
    pub dct_coefficients: usize,
    /// How many DWT levels for the wavelet energy map.
    pub wavelet_levels: usize,
    /// Wavelet family for the energy map.
    pub wavelet: Wavelet,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            dct_coefficients: 8,
            wavelet_levels: 4,
            wavelet: Wavelet::Daubechies4,
        }
    }
}

/// The assembled §6.2 feature vector.
///
/// The `Default` value is empty; preallocate one and refill it through
/// [`crate::context::DspContext::feature_vector_into`] to keep the
/// extraction loop allocation-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureVector {
    pub(crate) values: Vec<f64>,
}

impl FeatureVector {
    /// Extract features from a waveform block (power-of-two length) plus
    /// optional scalar process values (temperature, speed, load, ...).
    /// Runs [`DspContext::feature_vector_into`] on a one-shot context.
    pub fn extract(block: &[f64], config: &FeatureConfig, process_scalars: &[f64]) -> Result<Self> {
        let mut fv = FeatureVector::default();
        DspContext::new().feature_vector_into(block, config, process_scalars, &mut fv)?;
        Ok(fv)
    }

    /// The flat feature values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Feature dimensionality.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no features are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The expected dimensionality for a config and scalar count, without
    /// extracting; WNN layer sizing uses this.
    pub fn dimension(config: &FeatureConfig, process_scalar_count: usize) -> usize {
        7 + 2 + config.dct_coefficients + (config.wavelet_levels + 1) + process_scalar_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn stats_of_known_sine() {
        let n = 4096;
        let sig: Vec<f64> = (0..n)
            .map(|i| 2.0 * (2.0 * PI * 16.0 * i as f64 / n as f64).sin())
            .collect();
        let s = WaveformStats::of(&sig);
        assert!(s.mean.abs() < 1e-12);
        assert!((s.rms - 2.0 / 2.0f64.sqrt()).abs() < 1e-9);
        assert!((s.peak - 2.0).abs() < 1e-3);
        assert!((s.crest_factor - 2.0f64.sqrt()).abs() < 1e-3);
        // Sine kurtosis is -1.5 (excess).
        assert!((s.kurtosis + 1.5).abs() < 1e-2);
        assert!(s.skewness.abs() < 1e-9);
    }

    #[test]
    fn stats_of_empty_and_constant() {
        assert_eq!(WaveformStats::of(&[]), WaveformStats::default());
        let s = WaveformStats::of(&[3.0; 100]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.kurtosis, 0.0);
        assert_eq!(s.crest_factor, 1.0);
    }

    #[test]
    fn impulsive_signal_has_high_kurtosis_and_crest() {
        let mut sig = vec![0.01; 1024];
        sig[500] = 5.0;
        let s = WaveformStats::of(&sig);
        assert!(s.kurtosis > 100.0, "kurtosis {}", s.kurtosis);
        assert!(s.crest_factor > 10.0, "crest {}", s.crest_factor);
    }

    #[test]
    fn feature_vector_has_predicted_dimension() {
        let cfg = FeatureConfig::default();
        let sig: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
        let fv = FeatureVector::extract(&sig, &cfg, &[20.0, 0.8]).unwrap();
        assert_eq!(fv.len(), FeatureVector::dimension(&cfg, 2));
        assert!(!fv.is_empty());
        // Process scalars land at the tail.
        let v = fv.values();
        assert_eq!(v[v.len() - 2], 20.0);
        assert_eq!(v[v.len() - 1], 0.8);
    }

    #[test]
    fn feature_vector_distinguishes_steady_from_transient() {
        let cfg = FeatureConfig::default();
        let n = 512;
        let steady: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 8.0 * i as f64 / n as f64).sin())
            .collect();
        let mut transient = steady.clone();
        for sample in &mut transient[200..208] {
            *sample += 4.0;
        }
        let fs = FeatureVector::extract(&steady, &cfg, &[]).unwrap();
        let ft = FeatureVector::extract(&transient, &cfg, &[]).unwrap();
        // Kurtosis (index 5) and fine-scale wavelet energy differ markedly.
        assert!(ft.values()[5] > fs.values()[5] + 1.0);
    }

    #[test]
    fn rejects_non_power_of_two_block() {
        let cfg = FeatureConfig::default();
        assert!(FeatureVector::extract(&[0.0; 300], &cfg, &[]).is_err());
    }

    #[test]
    fn all_features_finite_on_zero_block() {
        let cfg = FeatureConfig::default();
        let fv = FeatureVector::extract(&[0.0; 128], &cfg, &[0.0]).unwrap();
        assert!(fv.values().iter().all(|v| v.is_finite()));
    }
}
