//! Second-order IIR (biquad) sections and Butterworth low-pass design.
//!
//! The paper's pipeline uses an FIR low-pass; this module provides the IIR
//! alternative used in the ablation benchmarks (`lumen-bench`), plus a
//! zero-phase `filtfilt` so the IIR variant does not shift peak positions —
//! peak *timing* is what features z1/z2 compare.

use crate::{DspError, Result, Signal};
use std::f64::consts::{PI, SQRT_2};

/// A direct-form-II-transposed biquad section.
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
}

impl Biquad {
    /// Designs a 2nd-order Butterworth low-pass section (Q = 1/√2) using the
    /// bilinear transform.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `cutoff_hz` is outside
    /// `(0, sample_rate / 2)` and [`DspError::InvalidSampleRate`] for a bad
    /// rate.
    pub fn butterworth_lowpass(cutoff_hz: f64, sample_rate: f64) -> Result<Self> {
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(DspError::InvalidSampleRate(sample_rate));
        }
        if !(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0) {
            return Err(DspError::invalid_parameter(
                "cutoff_hz",
                format!("must lie in (0, {})", sample_rate / 2.0),
            ));
        }
        let q = 1.0 / SQRT_2;
        let w0 = 2.0 * PI * cutoff_hz / sample_rate;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Ok(Biquad {
            b0: (1.0 - cosw) / 2.0 / a0,
            b1: (1.0 - cosw) / a0,
            b2: (1.0 - cosw) / 2.0 / a0,
            a1: -2.0 * cosw / a0,
            a2: (1.0 - alpha) / a0,
        })
    }

    /// Runs the filter over `input`, returning the filtered samples.
    /// The filter state starts at zero.
    pub fn process(&self, input: &[f64]) -> Vec<f64> {
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        input
            .iter()
            .map(|&x| {
                let y = self.b0 * x + s1;
                s1 = self.b1 * x - self.a1 * y + s2;
                s2 = self.b2 * x - self.a2 * y;
                y
            })
            .collect()
    }
}

/// Zero-phase Butterworth low-pass: the section is applied forward and then
/// backward, cancelling the phase delay (the classic `filtfilt`).
///
/// The signal edges are extended by reflection (up to 3× the filter's
/// effective settling length) to suppress start-up transients.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for an empty input,
/// [`DspError::TooShort`] for a single sample (no frequency content to
/// filter), and propagates design errors of
/// [`Biquad::butterworth_lowpass`].
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, filters::biquad::filtfilt_lowpass};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let s = Signal::from_fn(100, 10.0, |t| 20.0 + (t * 40.0).sin())?;
/// let out = filtfilt_lowpass(&s, 1.0)?;
/// assert_eq!(out.len(), 100);
/// # Ok(())
/// # }
/// ```
// lint:allow(dead-pub): lumen-bench's `micro.iir_filtfilt_lowpass_1hz_ms`
// row times it against the paper's FIR low-pass
pub fn filtfilt_lowpass(signal: &Signal, cutoff_hz: f64) -> Result<Signal> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    crate::guard::ensure_min_len(signal.samples(), 2)?;
    let biquad = Biquad::butterworth_lowpass(cutoff_hz, signal.sample_rate())?;
    let x = signal.samples();
    let pad = (3.0 * signal.sample_rate() / cutoff_hz).ceil() as usize;
    let pad = pad.min(x.len().saturating_sub(1));

    // Reflect-pad: x[pad], ..., x[1], x[0..n], x[n-2], ..., x[n-1-pad]
    let mut extended = Vec::with_capacity(x.len() + 2 * pad);
    for i in (1..=pad).rev() {
        extended.push(2.0 * x[0] - x[i]);
    }
    extended.extend_from_slice(x);
    for i in 1..=pad {
        extended.push(2.0 * x[x.len() - 1] - x[x.len() - 1 - i]);
    }

    let forward = biquad.process(&extended);
    let mut reversed: Vec<f64> = forward.into_iter().rev().collect();
    reversed = biquad.process(&reversed);
    let mut out: Vec<f64> = reversed.into_iter().rev().collect();
    out.drain(..pad);
    out.truncate(x.len());
    Signal::new(out, signal.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_rejects_bad_cutoff() {
        assert!(Biquad::butterworth_lowpass(0.0, 10.0).is_err());
        assert!(Biquad::butterworth_lowpass(5.0, 10.0).is_err());
        assert!(Biquad::butterworth_lowpass(1.0, 0.0).is_err());
    }

    #[test]
    fn dc_gain_is_unity() {
        let bq = Biquad::butterworth_lowpass(1.0, 10.0).unwrap();
        let out = bq.process(&vec![1.0; 500]);
        assert!((out[499] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn attenuates_high_frequency() {
        let s = Signal::from_fn(400, 10.0, |t| (2.0 * PI * 4.0 * t).sin()).unwrap();
        let out = filtfilt_lowpass(&s, 1.0).unwrap();
        let peak = out.samples()[100..300]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak < 0.05, "leakage {peak}");
    }

    #[test]
    fn filtfilt_has_no_phase_shift() {
        let s = Signal::from_fn(600, 10.0, |t| (2.0 * PI * 0.2 * t).sin()).unwrap();
        let out = filtfilt_lowpass(&s, 1.0).unwrap();
        // Zero-phase: argmax positions must coincide (first full peak near
        // t = 1.25 s, index 12-13).
        let in_max = s.samples()[..50]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let out_max = out.samples()[..50]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((in_max as isize - out_max as isize).abs() <= 1);
    }

    #[test]
    fn preserves_step_level() {
        let s = Signal::from_fn(200, 10.0, |t| if t < 10.0 { 10.0 } else { 90.0 }).unwrap();
        let out = filtfilt_lowpass(&s, 1.0).unwrap();
        assert!((out.samples()[30] - 10.0).abs() < 0.5);
        assert!((out.samples()[170] - 90.0).abs() < 0.5);
    }

    #[test]
    fn short_signal_does_not_panic() {
        let s = Signal::new(vec![1.0, 2.0, 3.0], 10.0).unwrap();
        let out = filtfilt_lowpass(&s, 1.0).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn single_sample_errors_typed() {
        let s = Signal::new(vec![7.0], 10.0).unwrap();
        assert_eq!(
            filtfilt_lowpass(&s, 1.0).unwrap_err(),
            DspError::TooShort { len: 1, min: 2 }
        );
    }
}
