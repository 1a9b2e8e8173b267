//! Allocation-regression gate for the DSP hot path.
//!
//! A counting global allocator wraps the system allocator; the test runs
//! one full DC survey pass (acquisition → spectral features → WNN
//! preprocessing) and one call of every public `DspContext::*_into`
//! method to warm every scratch buffer and cached plan, then runs both
//! again at a different sim time with counting enabled and asserts that
//! the steady state performs **zero** heap allocations. A plan cache
//! that rebuilt a plan, or a buffer swapped for a fresh one instead of
//! cleared, would allocate here.
//!
//! This file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpros_chiller::plant::{ChillerPlant, PlantConfig};
use mpros_chiller::vibration::AccelLocation;
use mpros_core::{MachineId, SimTime};
use mpros_dc::hw::{AcquisitionChain, HwConfig};
use mpros_dli::{SpectralFeatures, SurveyScratch, VibrationSurvey};
use mpros_signal::features::{FeatureConfig, FeatureVector};
use mpros_signal::{Complex, DspContext, Spectrum, Window};
use mpros_wnn::WnnConfig;

/// Wraps [`System`]; counts alloc/realloc/alloc_zeroed while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One steady-state survey pass: acquire every channel into the reused
/// workspace, extract spectral features, and build the WNN input vector
/// — the exact per-step DSP work a `DataConcentrator` performs.
#[allow(clippy::too_many_arguments)]
fn survey_pass(
    plant: &ChillerPlant,
    chain: &mut AcquisitionChain,
    survey: &mut VibrationSurvey,
    ctx: &mut DspContext,
    scratch: &mut SurveyScratch,
    features: &mut SpectralFeatures,
    wnn: &WnnConfig,
    wnn_features: &mut Vec<f64>,
    t0: SimTime,
) {
    survey.load = plant.load_at(t0);
    chain.survey_into(plant, t0, &mut survey.blocks);
    SpectralFeatures::extract_into(ctx, survey, scratch, features).expect("feature extraction");
    wnn.extract_features_into(ctx, &survey.blocks, survey.load, wnn_features)
        .expect("wnn preprocessing");
}

/// The output buffers of every public `DspContext::*_into` method,
/// reused across passes.
#[derive(Default)]
struct Outputs {
    freq: Vec<Complex>,
    time: Vec<f64>,
    spectrum: Spectrum,
    cepstrum: Vec<f64>,
    hilbert: Vec<f64>,
    bandpass: Vec<f64>,
    env_spectrum: Spectrum,
    values: Vec<f64>,
    vector: FeatureVector,
}

/// One call of every public `DspContext::*_into` method on `block`.
fn transforms_pass(ctx: &mut DspContext, block: &[f64], fs: f64, out: &mut Outputs) {
    let config = FeatureConfig::default();
    ctx.fft_real_into(block, &mut out.freq).expect("fft");
    ctx.ifft_real_into(&out.freq, &mut out.time).expect("ifft");
    ctx.spectrum_into(block, fs, Window::Hann, &mut out.spectrum)
        .expect("spectrum");
    ctx.cepstrum_into(block, &mut out.cepstrum)
        .expect("cepstrum");
    ctx.hilbert_envelope_into(block, &mut out.hilbert)
        .expect("hilbert envelope");
    ctx.bandpass_envelope_into(block, fs, 500.0, 4_000.0, &mut out.bandpass)
        .expect("band-pass envelope");
    ctx.envelope_spectrum_into(
        block,
        fs,
        500.0,
        4_000.0,
        Window::Hann,
        &mut out.env_spectrum,
    )
    .expect("envelope spectrum");
    out.values.clear();
    ctx.feature_values_into(block, &config, &[1.0, 2.0], &mut out.values)
        .expect("feature values");
    ctx.feature_vector_into(block, &config, &[1.0, 2.0], &mut out.vector)
        .expect("feature vector");
}

#[test]
fn steady_state_survey_performs_zero_dsp_allocations() {
    let plant = ChillerPlant::new(PlantConfig::new(MachineId::new(1), 42));
    let hw = HwConfig::standard();
    let channels = hw.channels.len();
    let mut chain = AcquisitionChain::new(hw).expect("chain builds");

    let mut survey = VibrationSurvey {
        train: plant.train().clone(),
        load: 0.0,
        sample_rate: 16_384.0,
        blocks: Vec::new(),
    };
    while survey.blocks.len() < channels {
        survey
            .blocks
            .push((AccelLocation::MotorDriveEnd, Vec::new()));
    }
    let mut ctx = DspContext::new();
    let mut scratch = SurveyScratch::default();
    let mut features = SpectralFeatures::default();
    let wnn = WnnConfig::small_test();
    let mut wnn_features = Vec::new();
    let mut outputs = Outputs::default();

    // Cold pass: sizes every block, scratch buffer, and FFT plan.
    survey_pass(
        &plant,
        &mut chain,
        &mut survey,
        &mut ctx,
        &mut scratch,
        &mut features,
        &wnn,
        &mut wnn_features,
        SimTime::from_secs(0.0),
    );
    transforms_pass(
        &mut ctx,
        &survey.blocks[0].1,
        survey.sample_rate,
        &mut outputs,
    );

    // Warm pass at a different instant: everything must be reused.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    survey_pass(
        &plant,
        &mut chain,
        &mut survey,
        &mut ctx,
        &mut scratch,
        &mut features,
        &wnn,
        &mut wnn_features,
        SimTime::from_secs(120.0),
    );
    let survey_hits = ALLOCATIONS.swap(0, Ordering::SeqCst);
    transforms_pass(
        &mut ctx,
        &survey.blocks[0].1,
        survey.sample_rate,
        &mut outputs,
    );
    ARMED.store(false, Ordering::SeqCst);
    let transform_hits = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        (survey_hits, transform_hits),
        (0, 0),
        "steady state allocated {survey_hits} times in the DC survey and \
         {transform_hits} times across the DspContext::*_into methods"
    );
}
