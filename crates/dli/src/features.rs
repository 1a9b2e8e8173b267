//! Spectral feature extraction for the rule frames.
//!
//! The rules of §6.1 are phrased over order-domain quantities (1× of the
//! motor, gear-mesh amplitude, bearing defect tones in the envelope
//! spectrum, ...). [`SpectralFeatures::extract`] reduces one multi-
//! channel vibration survey to that fixed feature set.

use mpros_chiller::vibration::AccelLocation;
use mpros_chiller::MachineTrain;
use mpros_core::{Error, Result};
use mpros_signal::features::WaveformStats;
use mpros_signal::spectrum::Spectrum;
use mpros_signal::window::Window;
use mpros_signal::DspContext;
use std::collections::HashMap;

/// One multi-channel vibration survey of a machine train.
#[derive(Debug, Clone)]
pub struct VibrationSurvey {
    /// The train's kinematic description (defect-frequency source).
    pub train: MachineTrain,
    /// Load fraction during acquisition (for rule sensitization).
    pub load: f64,
    /// Sample rate, Hz.
    pub sample_rate: f64,
    /// Acquired blocks per location (power-of-two lengths).
    pub blocks: Vec<(AccelLocation, Vec<f64>)>,
}

/// The extracted feature set one rule evaluation consumes.
#[derive(Debug, Clone, Default)]
pub struct SpectralFeatures {
    /// ½× of the motor shaft (looseness subharmonic), g.
    pub motor_half_x: f64,
    /// 1× of the motor shaft, g.
    pub motor_1x: f64,
    /// 2× of the motor shaft, g.
    pub motor_2x: f64,
    /// Largest of 3×–6× motor harmonics, g.
    pub motor_harmonics: f64,
    /// Pole-pass sidebands around motor 1× (max of the pair), g.
    pub pole_pass_sidebands: f64,
    /// Motor-bearing BPFO line in the envelope spectrum, g.
    pub motor_bpfo_envelope: f64,
    /// Compressor-bearing BPFI spectral line (direct, not enveloped:
    /// the high-speed shaft's defect tone is resolvable in the raw
    /// spectrum), g.
    pub comp_bpfi_line: f64,
    /// Gear-mesh fundamental at the gear case, g.
    pub gear_mesh: f64,
    /// Shaft-rate sidebands around the gear mesh (max of the pair), g.
    pub gear_sidebands: f64,
    /// Low-frequency (2–10 Hz) pulsation at the compressor, g.
    pub surge_band: f64,
    /// Waveform kurtosis per location (impulsiveness corroboration).
    pub kurtosis: HashMap<AccelLocation, f64>,
    /// Overall RMS per location, g.
    pub rms: HashMap<AccelLocation, f64>,
    /// Load during the survey (copied through for rule guards).
    pub load: f64,
}

/// Envelope demodulation band for bearing analysis around the motor's
/// structural resonance.
const MOTOR_ENV_BAND: (f64, f64) = (1_800.0, 3_000.0);

/// Reusable spectral workspaces for [`SpectralFeatures::extract_into`].
///
/// Holds the raw amplitude spectrum and the envelope spectrum of the
/// block under analysis; both retain their allocations across surveys so
/// steady-state extraction is allocation-free.
#[derive(Debug, Default)]
pub struct SurveyScratch {
    spec: Spectrum,
    env_spec: Spectrum,
}

impl SpectralFeatures {
    /// Extract the feature set from a survey. Locations absent from the
    /// survey contribute zero features.
    pub fn extract(survey: &VibrationSurvey) -> Result<SpectralFeatures> {
        let mut ctx = DspContext::new();
        let mut scratch = SurveyScratch::default();
        let mut f = SpectralFeatures::default();
        SpectralFeatures::extract_into(&mut ctx, survey, &mut scratch, &mut f)?;
        Ok(f)
    }

    /// [`SpectralFeatures::extract`] through a reusable [`DspContext`]
    /// and [`SurveyScratch`], overwriting `out` in place. Produces
    /// features bit-identical to [`SpectralFeatures::extract`] while
    /// performing zero steady-state heap allocations (per-location maps
    /// keep their capacity across calls).
    ///
    /// On error `out` may hold a partially updated feature set.
    pub fn extract_into(
        ctx: &mut DspContext,
        survey: &VibrationSurvey,
        scratch: &mut SurveyScratch,
        out: &mut SpectralFeatures,
    ) -> Result<()> {
        Self::extract_impl(ctx, survey, None, scratch, out)
    }

    /// [`SpectralFeatures::extract_into`] for a caller that already holds
    /// the [`WaveformStats`] of every block (`stats[i]` for
    /// `survey.blocks[i]`), as the DC's channel self-check does. The
    /// result is bit-identical; each block's statistics pass is skipped.
    pub fn extract_with_stats_into(
        ctx: &mut DspContext,
        survey: &VibrationSurvey,
        stats: &[WaveformStats],
        scratch: &mut SurveyScratch,
        out: &mut SpectralFeatures,
    ) -> Result<()> {
        if stats.len() != survey.blocks.len() {
            return Err(Error::invalid(format!(
                "{} waveform stats for {} survey blocks",
                stats.len(),
                survey.blocks.len()
            )));
        }
        Self::extract_impl(ctx, survey, Some(stats), scratch, out)
    }

    fn extract_impl(
        ctx: &mut DspContext,
        survey: &VibrationSurvey,
        stats: Option<&[WaveformStats]>,
        scratch: &mut SurveyScratch,
        out: &mut SpectralFeatures,
    ) -> Result<()> {
        let f = out;
        f.motor_half_x = 0.0;
        f.motor_1x = 0.0;
        f.motor_2x = 0.0;
        f.motor_harmonics = 0.0;
        f.pole_pass_sidebands = 0.0;
        f.motor_bpfo_envelope = 0.0;
        f.comp_bpfi_line = 0.0;
        f.gear_mesh = 0.0;
        f.gear_sidebands = 0.0;
        f.surge_band = 0.0;
        f.kurtosis.clear();
        f.rms.clear();
        f.load = survey.load;
        let motor_hz = survey.train.motor_hz(survey.load);
        let comp_hz = survey.train.compressor_hz(survey.load);
        let gmf = survey.train.gear_mesh_hz(survey.load);
        let pole_pass = survey.train.pole_pass_hz(survey.load);

        for (i, (loc, block)) in survey.blocks.iter().enumerate() {
            ctx.spectrum_into(block, survey.sample_rate, Window::Hann, &mut scratch.spec)?;
            let spec = &scratch.spec;
            let stats = stats.map_or_else(|| WaveformStats::of(block), |s| s[i]);
            f.kurtosis.insert(*loc, stats.kurtosis);
            f.rms.insert(*loc, stats.rms);
            match loc {
                AccelLocation::MotorDriveEnd | AccelLocation::MotorNonDriveEnd => {
                    // Keep the strongest motor-location reading.
                    f.motor_half_x = f.motor_half_x.max(spec.amplitude_at_order(motor_hz, 0.5));
                    f.motor_1x = f.motor_1x.max(spec.amplitude_at_order(motor_hz, 1.0));
                    f.motor_2x = f.motor_2x.max(spec.amplitude_at_order(motor_hz, 2.0));
                    for h in 3..=6 {
                        f.motor_harmonics = f
                            .motor_harmonics
                            .max(spec.amplitude_at_order(motor_hz, h as f64));
                    }
                    // Pole-pass sidebands sit ~1–2 Hz from a (possibly
                    // huge) 1× line; they are only readable when the
                    // spectral resolution separates them, otherwise the
                    // 1× skirt masquerades as a sideband.
                    if pole_pass > 2.5 * spec.resolution() {
                        let lo = spec.amplitude_near(motor_hz - pole_pass, pole_pass * 0.3);
                        let hi = spec.amplitude_near(motor_hz + pole_pass, pole_pass * 0.3);
                        f.pole_pass_sidebands = f.pole_pass_sidebands.max(lo.max(hi));
                    }
                    let bpfo = survey.train.motor_bearing.bpfo(motor_hz);
                    ctx.envelope_spectrum_into(
                        block,
                        survey.sample_rate,
                        MOTOR_ENV_BAND.0,
                        MOTOR_ENV_BAND.1,
                        Window::Hann,
                        &mut scratch.env_spec,
                    )?;
                    let line = scratch
                        .env_spec
                        .amplitude_near(bpfo, bpfo * 0.04 + scratch.env_spec.resolution());
                    f.motor_bpfo_envelope = f.motor_bpfo_envelope.max(line);
                }
                AccelLocation::GearCase => {
                    f.gear_mesh = spec.amplitude_near(gmf, gmf * 0.03);
                    let lo = spec.amplitude_near(gmf - motor_hz, motor_hz * 0.2);
                    let hi = spec.amplitude_near(gmf + motor_hz, motor_hz * 0.2);
                    f.gear_sidebands = lo.max(hi);
                }
                AccelLocation::CompressorBearing => {
                    let bpfi = survey.train.compressor_bearing.bpfi(comp_hz);
                    f.comp_bpfi_line = spec.amplitude_near(bpfi, 0.02 * bpfi + spec.resolution());
                    // Surge pulsation: strongest line in the 2–10 Hz band.
                    f.surge_band = spec
                        .amplitudes()
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| {
                            let fr = spec.bin_frequency(*k);
                            (2.0..=10.0).contains(&fr)
                        })
                        .map(|(_, &a)| a)
                        .fold(0.0, f64::max);
                }
                AccelLocation::PumpBearing => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpros_chiller::fault::{FaultProfile, FaultSeed, FaultState};
    use mpros_chiller::vibration::VibrationSynthesizer;
    use mpros_core::{MachineCondition, MachineId, SimDuration, SimTime};

    const FS: f64 = 16_384.0;
    const N: usize = 8192;

    pub(crate) fn survey_with(
        condition: Option<MachineCondition>,
        sev: f64,
        load: f64,
    ) -> VibrationSurvey {
        let train = MachineTrain::navy_chiller(MachineId::new(1));
        let synth = VibrationSynthesizer::new(train.clone(), 11);
        let mut faults = FaultState::healthy();
        if let Some(c) = condition {
            faults.seed(FaultSeed {
                condition: c,
                onset: SimTime::ZERO,
                time_to_failure: SimDuration::from_secs(1.0),
                profile: FaultProfile::Step(sev),
            });
        }
        let t0 = SimTime::from_secs(100.0);
        let blocks = AccelLocation::ALL
            .iter()
            .map(|&loc| (loc, synth.sample_block(loc, t0, N, FS, load, &faults)))
            .collect();
        VibrationSurvey {
            train,
            load,
            sample_rate: FS,
            blocks,
        }
    }

    #[test]
    fn healthy_features_are_small() {
        let f = SpectralFeatures::extract(&survey_with(None, 0.0, 0.9)).unwrap();
        assert!(f.motor_1x < 0.1, "1x {}", f.motor_1x);
        assert!(f.motor_2x < 0.05);
        assert!(f.gear_mesh < 0.08);
        assert!(
            f.motor_bpfo_envelope < 0.05,
            "bpfo {}",
            f.motor_bpfo_envelope
        );
        assert!(f.surge_band < 0.05);
        assert_eq!(f.load, 0.9);
    }

    #[test]
    fn imbalance_lifts_motor_1x_only() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::MotorImbalance),
            0.8,
            0.9,
        ))
        .unwrap();
        assert!(f.motor_1x > 0.35, "1x {}", f.motor_1x);
        assert!(f.motor_2x < 0.1);
    }

    #[test]
    fn misalignment_lifts_2x_above_1x() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::MotorMisalignment),
            0.8,
            0.9,
        ))
        .unwrap();
        assert!(f.motor_2x > 0.25, "2x {}", f.motor_2x);
        assert!(f.motor_2x > f.motor_1x);
    }

    #[test]
    fn compressor_bearing_defect_lifts_bpfi_line() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::CompressorBearingDefect),
            0.8,
            0.9,
        ))
        .unwrap();
        let healthy = SpectralFeatures::extract(&survey_with(None, 0.0, 0.9)).unwrap();
        assert!(
            f.comp_bpfi_line > 0.15,
            "BPFI line {} too weak",
            f.comp_bpfi_line
        );
        assert!(
            healthy.comp_bpfi_line < 0.05,
            "healthy BPFI {}",
            healthy.comp_bpfi_line
        );
    }

    #[test]
    fn bearing_defect_lifts_envelope_line_and_kurtosis() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::MotorBearingDefect),
            0.8,
            0.9,
        ))
        .unwrap();
        let healthy = SpectralFeatures::extract(&survey_with(None, 0.0, 0.9)).unwrap();
        assert!(
            f.motor_bpfo_envelope > 3.0 * healthy.motor_bpfo_envelope.max(0.01),
            "bpfo {} vs healthy {}",
            f.motor_bpfo_envelope,
            healthy.motor_bpfo_envelope
        );
        let k = f.kurtosis[&AccelLocation::MotorDriveEnd];
        assert!(k > 2.0, "kurtosis {k}");
    }

    #[test]
    fn gear_wear_lifts_mesh_and_sidebands() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::GearToothWear),
            0.8,
            0.9,
        ))
        .unwrap();
        assert!(f.gear_mesh > 0.2, "mesh {}", f.gear_mesh);
        assert!(f.gear_sidebands > 0.05, "sidebands {}", f.gear_sidebands);
    }

    #[test]
    fn surge_lifts_low_frequency_band() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::CompressorSurge),
            0.9,
            0.9,
        ))
        .unwrap();
        assert!(f.surge_band > 0.4, "surge {}", f.surge_band);
    }

    /// Rotor-bar sidebands need a long block: at the standard 0.5 s
    /// block (df = 2 Hz) the ±1.6 Hz pole-pass spacing is unresolvable
    /// and the feature must stay at zero; at a 2 s block it reads.
    #[test]
    fn rotor_bar_lifts_pole_pass_sidebands_at_fine_resolution() {
        let long_survey = |condition: Option<MachineCondition>| {
            let mut s = survey_with(condition, 0.9, 1.0);
            let train = s.train.clone();
            let synth = VibrationSynthesizer::new(train, 11);
            let mut faults = FaultState::healthy();
            if let Some(c) = condition {
                faults.seed(FaultSeed {
                    condition: c,
                    onset: SimTime::ZERO,
                    time_to_failure: SimDuration::from_secs(1.0),
                    profile: FaultProfile::Step(0.9),
                });
            }
            s.blocks = vec![(
                AccelLocation::MotorDriveEnd,
                synth.sample_block(
                    AccelLocation::MotorDriveEnd,
                    SimTime::from_secs(100.0),
                    32_768,
                    FS,
                    1.0,
                    &faults,
                ),
            )];
            s
        };
        let f = SpectralFeatures::extract(&long_survey(Some(MachineCondition::MotorRotorBarCrack)))
            .unwrap();
        let healthy = SpectralFeatures::extract(&long_survey(None)).unwrap();
        assert!(
            f.pole_pass_sidebands > healthy.pole_pass_sidebands + 0.05,
            "sidebands {} vs {}",
            f.pole_pass_sidebands,
            healthy.pole_pass_sidebands
        );
        // At the short block the feature is suppressed entirely.
        let short = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::MotorRotorBarCrack),
            0.9,
            1.0,
        ))
        .unwrap();
        assert_eq!(short.pole_pass_sidebands, 0.0, "unresolvable → no reading");
    }

    #[test]
    fn looseness_lifts_subharmonic_and_harmonics() {
        let f = SpectralFeatures::extract(&survey_with(
            Some(MachineCondition::BearingHousingLooseness),
            0.9,
            0.9,
        ))
        .unwrap();
        assert!(f.motor_half_x > 0.03, "half-x {}", f.motor_half_x);
        assert!(f.motor_harmonics > 0.04, "harmonics {}", f.motor_harmonics);
    }

    #[test]
    fn partial_surveys_are_tolerated() {
        let mut s = survey_with(Some(MachineCondition::MotorImbalance), 0.8, 0.9);
        s.blocks.retain(|(l, _)| *l == AccelLocation::GearCase);
        let f = SpectralFeatures::extract(&s).unwrap();
        assert_eq!(f.motor_1x, 0.0, "no motor channel, no motor feature");
    }

    #[test]
    fn passed_through_stats_give_identical_features() {
        let s = survey_with(Some(MachineCondition::MotorBearingDefect), 0.7, 0.9);
        let own = SpectralFeatures::extract(&s).unwrap();
        let stats: Vec<WaveformStats> =
            s.blocks.iter().map(|(_, b)| WaveformStats::of(b)).collect();
        let mut ctx = DspContext::new();
        let mut scratch = SurveyScratch::default();
        let mut passed = SpectralFeatures::default();
        SpectralFeatures::extract_with_stats_into(&mut ctx, &s, &stats, &mut scratch, &mut passed)
            .unwrap();
        assert_eq!(own.kurtosis, passed.kurtosis);
        assert_eq!(own.rms, passed.rms);
        assert_eq!(own.motor_bpfo_envelope, passed.motor_bpfo_envelope);
        assert_eq!(own.motor_1x, passed.motor_1x);
        assert!(SpectralFeatures::extract_with_stats_into(
            &mut ctx,
            &s,
            &stats[1..],
            &mut scratch,
            &mut passed
        )
        .is_err());
    }
}
