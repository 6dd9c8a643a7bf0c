//! Trend removal.
//!
//! Head posture drifts move the ROI luminance baseline over a clip. The
//! paper's variance stage is insensitive to slow drift, but the
//! preprocessing ablation compares against an explicitly detrended
//! variant.

use crate::{DspError, Result, Signal};

/// Removes the least-squares straight line (linear detrend).
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for an empty signal and
/// [`DspError::TooShort`] for a single sample (a line fit needs two
/// points).
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, detrend::remove_linear};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let drifting = Signal::from_fn(50, 10.0, |t| 5.0 + 2.0 * t)?;
/// let flat = remove_linear(&drifting)?;
/// assert!(flat.samples().iter().all(|v| v.abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
pub fn remove_linear(signal: &Signal) -> Result<Signal> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    crate::guard::ensure_min_len(signal.samples(), 2)?;
    let n = signal.len() as f64;
    let x = signal.samples();
    // Least squares on index: slope = cov(i, x) / var(i).
    let mean_i = (n - 1.0) / 2.0;
    let mean_x = signal.mean();
    let mut cov = 0.0;
    let mut var_i = 0.0;
    for (i, &v) in x.iter().enumerate() {
        let di = i as f64 - mean_i;
        cov += di * (v - mean_x);
        var_i += di * di;
    }
    // lint:allow(float-eq): exactly zero variance means a single sample
    // or constant index weighting; the slope is zero by definition there
    let slope = if var_i == 0.0 { 0.0 } else { cov / var_i };
    let samples: Vec<f64> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| v - (mean_x + slope * (i as f64 - mean_i)))
        .collect();
    Signal::new(samples, signal.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_linear_flattens_ramp_plus_signal() {
        let s = Signal::from_fn(200, 10.0, |t| {
            3.0 * t - 10.0 + (2.0 * std::f64::consts::PI * 0.5 * t).sin()
        })
        .unwrap();
        let out = remove_linear(&s).unwrap();
        // Residual is the sine: bounded by ~1.1 (small leakage at edges).
        assert!(out.samples().iter().all(|v| v.abs() < 1.2));
        assert!(out.mean().abs() < 1e-9);
    }

    #[test]
    fn remove_linear_single_sample_errors_typed() {
        let s = Signal::new(vec![42.0], 10.0).unwrap();
        assert_eq!(
            remove_linear(&s).unwrap_err(),
            DspError::TooShort { len: 1, min: 2 }
        );
    }

    #[test]
    fn empty_errors() {
        let e = Signal::new(vec![], 10.0).unwrap();
        assert!(remove_linear(&e).is_err());
    }
}
