//! # mpros-signal
//!
//! The digital-signal-processing substrate of MPROS.
//!
//! The paper's data concentrator performs "standard machinery vibration
//! FFT analysis" (§6.1) at sampling rates above 40 kHz (§8.1), and the
//! wavelet neural network consumes features "such as the peak of the
//! signal amplitude, standard deviation, cepstrum, DCT coefficients,
//! wavelet maps" (§6.2). None of that machinery can be assumed to exist,
//! so this crate implements it from scratch:
//!
//! * complex FFT / inverse FFT in radix-4 passes, and a real-input
//!   transform that runs at half size on the same plan ([`fft`]),
//! * window functions with coherent-gain correction ([`window`]),
//! * amplitude/power spectra, peak and shaft-order extraction
//!   ([`spectrum`]),
//! * real cepstrum ([`cepstrum`]), DCT-II ([`dct`]),
//! * Haar / Daubechies-4 discrete wavelet transform and energy maps
//!   ([`dwt`]),
//! * Hilbert-transform envelope for bearing analysis, band-pass and
//!   envelope in one forward and one inverse transform ([`envelope`]),
//! * streaming RMS detectors with programmable alarms modeling the MUX
//!   card hardware ([`rms`]),
//! * sliding-window trend fitting with threshold-crossing projection
//!   ([`trend`]),
//! * time-domain statistical features and the §6.2 feature vector
//!   ([`features`]),
//! * a reusable zero-allocation DSP execution context with cached FFT
//!   plans and a scratch arena ([`context`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cepstrum;
pub mod context;
pub mod dct;
pub mod dwt;
pub mod envelope;
pub mod features;
pub mod fft;
pub mod rms;
pub mod spectrum;
pub mod trend;
pub mod window;

pub use context::DspContext;
pub use dwt::MultiLevelDwt;
pub use fft::Complex;
pub use spectrum::Spectrum;
pub use window::Window;
