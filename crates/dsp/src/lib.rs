//! Signal-processing primitives for the Lumen video-chat defense.
//!
//! This crate implements, from scratch, every DSP building block the
//! ICDCS 2020 paper *"Protecting Real-time Video Chat against Fake Facial
//! Videos Generated by Face Reenactment"* relies on:
//!
//! * a [`Signal`] container that pairs samples with a sample rate,
//! * FIR low-pass filtering (Sec. V: 1 Hz cut-off) in [`filters::fir`],
//! * short-time moving variance / RMS / average windows in
//!   [`filters::moving`],
//! * a Savitzky–Golay smoother (Sec. V: window 31) in [`filters::savgol`],
//! * a threshold filter (Sec. V: cut-off 2) in [`filters::threshold`],
//! * peak finding with prominence (Sec. V) in [`peaks`],
//! * Pearson correlation (Eq. 6) in [`stats`],
//! * dynamic time warping (feature z4) in [`dtw`],
//! * a radix-2 FFT and spectra (Fig. 6) in [`fft`],
//! * delay estimation by cross-correlation in [`xcorr`],
//! * resampling (the Fig. 16 sampling-rate study) in [`resample`].
//!
//! # Example
//!
//! ```
//! use lumen_dsp::{Signal, filters, peaks::{find_peaks, PeakConfig}};
//!
//! # fn main() -> Result<(), lumen_dsp::DspError> {
//! // A 10 Hz luminance trace with one strong step.
//! let samples: Vec<f64> = (0..150)
//!     .map(|i| if i < 75 { 10.0 } else { 100.0 })
//!     .collect();
//! let signal = Signal::new(samples, 10.0)?;
//! let filtered = filters::fir::lowpass(&signal, 1.0)?;
//! let variance = filters::moving::moving_variance(&filtered, 10)?;
//! let found = find_peaks(
//!     variance.samples(),
//!     &PeakConfig::default().min_prominence(10.0),
//! );
//! assert_eq!(found.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;
mod guard;
mod signal;

pub mod detrend;
pub mod dtw;
pub mod fft;
pub mod filters;
pub mod mix;
pub mod normalize;
pub mod peaks;
pub mod resample;
pub mod stats;
pub mod window;
pub mod xcorr;

pub use error::DspError;
pub use signal::Signal;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DspError>;

/// Sample values for the kernels' bit-equality properties.
#[cfg(test)]
mod test_values {
    use proptest::prelude::*;

    /// Finite samples: `±0.0`, `±` subnormals, values below 1e-6 and
    /// magnitudes up to 1e6.
    pub(crate) fn finite() -> impl Strategy<Value = f64> {
        (0u8..8, any::<u64>(), -1e6f64..1e6).prop_map(|(kind, bits, v)| match kind {
            0 => 0.0,
            1 => -0.0,
            // Sign and mantissa bits under a zero exponent.
            2 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
            3 => v * 1e-12,
            _ => v,
        })
    }
}
