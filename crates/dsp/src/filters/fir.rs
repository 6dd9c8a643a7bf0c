//! Windowed-sinc FIR low-pass filtering.
//!
//! Sec. V of the paper applies "a low-pass filter with a cut-off frequency of
//! 1 Hz" to both raw luminance signals. We implement the classic
//! windowed-sinc design: ideal sinc impulse response, tapered by a window
//! function and normalized to unity DC gain, applied by same-length
//! convolution with edge replication.

use crate::guard::ensure_finite;
use crate::window::WindowKind;
use crate::{DspError, Result, Signal};
use std::f64::consts::PI;

/// Designs a linear-phase low-pass FIR kernel.
///
/// * `taps` — kernel length; must be odd so the filter has integral group
///   delay (an even request is rejected rather than silently adjusted).
/// * `cutoff_hz` — the −6 dB cut-off frequency.
/// * `sample_rate` — in Hz; `cutoff_hz` must be below Nyquist.
///
/// The kernel is normalized so its coefficients sum to 1 (unity DC gain),
/// which keeps luminance levels unchanged in the passband.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] for an even/zero tap count or a
/// cut-off outside `(0, sample_rate / 2)`, and
/// [`DspError::InvalidSampleRate`] for a bad sample rate.
pub fn design_lowpass(
    taps: usize,
    cutoff_hz: f64,
    sample_rate: f64,
    window: WindowKind,
) -> Result<Vec<f64>> {
    if !(sample_rate.is_finite() && sample_rate > 0.0) {
        return Err(DspError::InvalidSampleRate(sample_rate));
    }
    if taps == 0 || taps.is_multiple_of(2) {
        return Err(DspError::invalid_parameter(
            "taps",
            format!("must be odd and non-zero, got {taps}"),
        ));
    }
    if !(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0) {
        return Err(DspError::invalid_parameter(
            "cutoff_hz",
            format!("must lie in (0, {}), got {cutoff_hz}", sample_rate / 2.0),
        ));
    }
    let fc = cutoff_hz / sample_rate; // normalized (cycles per sample)
    let mid = (taps / 2) as isize;
    let mut kernel: Vec<f64> = (0..taps)
        .map(|i| {
            let n = i as isize - mid;
            let sinc = if n == 0 {
                2.0 * fc
            } else {
                (2.0 * PI * fc * n as f64).sin() / (PI * n as f64)
            };
            sinc * window.coefficient(i, taps)
        })
        .collect();
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    Ok(kernel)
}

/// Convolves `x` with `kernel`, returning a same-length output.
///
/// Edges are handled by replicating the first/last sample, which avoids the
/// start-up transient dragging the luminance baseline toward zero.
///
/// Output `i` adds `kernel[j] * x[clamp(i + len / 2 - j)]` to a `+0.0`
/// accumulator over taps `j = 0..len`, in that order. Four outputs are
/// computed per pass, each in its own accumulator, so the adds of
/// neighbouring outputs overlap instead of waiting on one chain; every
/// output still performs the same IEEE operations in the same order.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] when either input is empty and
/// [`DspError::NonFiniteSample`] for NaN/infinite samples or coefficients.
pub fn convolve_same(x: &[f64], kernel: &[f64]) -> Result<Vec<f64>> {
    if x.is_empty() || kernel.is_empty() {
        return Err(DspError::EmptySignal);
    }
    ensure_finite(x)?;
    ensure_finite(kernel)?;
    let n = x.len();
    let half = kernel.len() / 2;
    // `half` copies of each edge sample on either side: output `i` reads
    // tap `j` from `padded[i + 2 * half - j]`, with no per-tap clamp.
    let mut padded = Vec::with_capacity(n + 2 * half);
    padded.resize(half, x[0]);
    padded.extend_from_slice(x);
    padded.resize(n + 2 * half, x[n - 1]);
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while i + 4 <= n {
        let mut acc = [0.0; 4];
        for (j, &k) in kernel.iter().enumerate() {
            let src = &padded[i + 2 * half - j..][..4];
            for (a, &s) in acc.iter_mut().zip(src) {
                *a += k * s;
            }
        }
        out.extend_from_slice(&acc);
        i += 4;
    }
    for i in i..n {
        let mut acc = 0.0;
        for (j, &k) in kernel.iter().enumerate() {
            acc += k * padded[i + 2 * half - j];
        }
        out.push(acc);
    }
    Ok(out)
}

/// Low-pass filters `signal` with the given cut-off using an automatically
/// sized windowed-sinc kernel (Hann window).
///
/// The kernel length is chosen as roughly four times the ratio of sample
/// rate to cut-off (forced odd, minimum 5 taps), which gives a transition
/// band narrow enough to separate the sub-1 Hz luminance changes from the
/// broadband noise in Fig. 6 of the paper.
///
/// # Errors
///
/// Propagates the design errors of [`design_lowpass`]; additionally returns
/// [`DspError::EmptySignal`] for an empty input and [`DspError::TooShort`]
/// for a single-sample input (no frequency content to filter).
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, filters::fir};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// // 5 Hz noise on top of a DC level, sampled at 10 Hz.
/// let noisy = Signal::from_fn(200, 10.0, |t| {
///     50.0 + 5.0 * (2.0 * std::f64::consts::PI * 5.0 * t).sin()
/// })?;
/// let clean = fir::lowpass(&noisy, 1.0)?;
/// let mid = &clean.samples()[50..150];
/// assert!(mid.iter().all(|&s| (s - 50.0).abs() < 0.5));
/// # Ok(())
/// # }
/// ```
pub fn lowpass(signal: &Signal, cutoff_hz: f64) -> Result<Signal> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    crate::guard::ensure_min_len(signal.samples(), 2)?;
    let ratio = signal.sample_rate() / cutoff_hz;
    let mut taps = (4.0 * ratio).ceil() as usize;
    taps = taps.max(5);
    if taps.is_multiple_of(2) {
        taps += 1;
    }
    let kernel = design_lowpass(taps, cutoff_hz, signal.sample_rate(), WindowKind::Hann)?;
    let filtered = convolve_same(signal.samples(), &kernel)?;
    Signal::new(filtered, signal.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-chain convolution [`convolve_same`] replaced: one `+0.0`
    /// accumulator per output and a clamped source index per tap. Kept as
    /// the reference the four-lane kernel must match bit for bit.
    fn convolve_same_reference(x: &[f64], kernel: &[f64]) -> Result<Vec<f64>> {
        if x.is_empty() || kernel.is_empty() {
            return Err(DspError::EmptySignal);
        }
        ensure_finite(x)?;
        ensure_finite(kernel)?;
        let n = x.len() as isize;
        let half = (kernel.len() / 2) as isize;
        let mut out = Vec::with_capacity(x.len());
        for i in 0..n {
            let mut acc = 0.0;
            for (j, &k) in kernel.iter().enumerate() {
                let src = (i + half - j as isize).clamp(0, n - 1) as usize;
                acc += k * x[src];
            }
            out.push(acc);
        }
        Ok(out)
    }

    fn bits(r: Result<Vec<f64>>) -> Result<Vec<u64>> {
        r.map(|v| v.into_iter().map(f64::to_bits).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn convolve_same_matches_the_reference_bit_for_bit(
            x in prop::collection::vec(crate::test_values::finite(), 1..=300),
            kernel in prop::collection::vec(crate::test_values::finite(), 1..=63),
        ) {
            prop_assert_eq!(
                bits(convolve_same(&x, &kernel)),
                bits(convolve_same_reference(&x, &kernel))
            );
        }
    }

    #[test]
    fn convolve_same_keeps_the_positive_zero_accumulator() {
        // An accumulator seeded with its first product would give -0.0.
        let out = convolve_same(&[-0.0], &[1.0]).unwrap();
        assert_eq!(out[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn design_rejects_bad_parameters() {
        assert!(design_lowpass(0, 1.0, 10.0, WindowKind::Hann).is_err());
        assert!(design_lowpass(10, 1.0, 10.0, WindowKind::Hann).is_err());
        assert!(design_lowpass(11, 0.0, 10.0, WindowKind::Hann).is_err());
        assert!(design_lowpass(11, 5.0, 10.0, WindowKind::Hann).is_err());
        assert!(design_lowpass(11, 1.0, 0.0, WindowKind::Hann).is_err());
    }

    #[test]
    fn kernel_has_unity_dc_gain() {
        let k = design_lowpass(41, 1.0, 10.0, WindowKind::Hann).unwrap();
        let sum: f64 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_symmetric() {
        let k = design_lowpass(21, 1.5, 10.0, WindowKind::Hamming).unwrap();
        for i in 0..k.len() {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn dc_passes_unchanged() {
        let s = Signal::new(vec![42.0; 100], 10.0).unwrap();
        let out = lowpass(&s, 1.0).unwrap();
        for &v in out.samples() {
            assert!((v - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn high_frequency_attenuated() {
        // 4 Hz tone at 10 Hz sampling, 1 Hz cutoff -> heavy attenuation.
        let s = Signal::from_fn(300, 10.0, |t| (2.0 * PI * 4.0 * t).sin()).unwrap();
        let out = lowpass(&s, 1.0).unwrap();
        let peak = out.samples()[50..250]
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(peak < 0.02, "4 Hz leakage {peak}");
    }

    #[test]
    fn low_frequency_preserved() {
        // 0.2 Hz tone well inside the passband.
        let s = Signal::from_fn(600, 10.0, |t| (2.0 * PI * 0.2 * t).sin()).unwrap();
        let out = lowpass(&s, 1.0).unwrap();
        // Compare mid-section against the input (group delay is zero for
        // same-length symmetric convolution).
        for i in 100..500 {
            assert!((out.samples()[i] - s.samples()[i]).abs() < 0.05);
        }
    }

    #[test]
    fn step_edge_is_preserved_in_position() {
        let s = Signal::from_fn(200, 10.0, |t| if t < 10.0 { 0.0 } else { 100.0 }).unwrap();
        let out = lowpass(&s, 1.0).unwrap();
        // The 50% crossing should stay near the step position (sample 100).
        let crossing = out
            .samples()
            .iter()
            .position(|&v| v >= 50.0)
            .expect("step must survive filtering");
        assert!(
            (crossing as isize - 100).unsigned_abs() <= 2,
            "crossing at {crossing}"
        );
    }

    #[test]
    fn convolve_same_identity_kernel() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let out = convolve_same(&x, &[1.0]).unwrap();
        assert_eq!(out, x.to_vec());
    }

    #[test]
    fn convolve_empty_errors() {
        assert!(convolve_same(&[], &[1.0]).is_err());
        assert!(convolve_same(&[1.0], &[]).is_err());
    }

    #[test]
    fn convolve_non_finite_errors_typed() {
        assert_eq!(
            convolve_same(&[1.0, f64::NAN], &[1.0]),
            Err(DspError::NonFiniteSample { index: 1 })
        );
        assert_eq!(
            convolve_same(&[1.0, 2.0], &[f64::INFINITY]),
            Err(DspError::NonFiniteSample { index: 0 })
        );
    }
}
