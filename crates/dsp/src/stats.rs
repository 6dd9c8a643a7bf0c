//! Elementary descriptive statistics and the Pearson correlation used for
//! feature `z3` (Eq. 6 of the paper).

use crate::{DspError, Result};

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(lumen_dsp::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (divides by `n`); `0.0` for fewer than two samples.
///
/// The paper's short-time variance windows use the population convention, so
/// it is the default throughout the pipeline.
pub fn variance_population(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Sample variance (divides by `n - 1`); `0.0` for fewer than two samples.
pub fn variance_sample(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Population standard deviation.
pub fn stddev_population(data: &[f64]) -> f64 {
    variance_population(data).sqrt()
}

/// Root mean square of the samples; `0.0` for an empty slice.
pub fn rms(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    (data.iter().map(|&x| x * x).sum::<f64>() / data.len() as f64).sqrt()
}

/// Population covariance of two equally long slices.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] when lengths differ and
/// [`DspError::EmptySignal`] for empty inputs.
pub fn covariance(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(DspError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.is_empty() {
        return Err(DspError::EmptySignal);
    }
    let mx = mean(x);
    let my = mean(y);
    Ok(x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - mx) * (b - my))
        .sum::<f64>()
        / x.len() as f64)
}

/// Pearson correlation coefficient between two equally long slices (Eq. 6).
///
/// The result lies in `[-1, 1]`. When either input has zero variance the
/// correlation is undefined; this implementation returns `0.0` in that case,
/// which is the conservative choice for the detector (a flat segment carries
/// no trend information and should not look "correlated").
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] when lengths differ and
/// [`DspError::EmptySignal`] for empty inputs.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((lumen_dsp::stats::pearson(&x, &y)? - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(DspError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.is_empty() {
        return Err(DspError::EmptySignal);
    }
    let sx = stddev_population(x);
    let sy = stddev_population(y);
    // lint:allow(float-eq): an exactly zero stddev marks a constant input,
    // for which Pearson correlation is undefined; we define it as 0
    if sx == 0.0 || sy == 0.0 {
        return Ok(0.0);
    }
    let cov = covariance(x, y)?;
    Ok((cov / (sx * sy)).clamp(-1.0, 1.0))
}

/// Quantile of an **ascending-sorted** slice by linear interpolation
/// between the two nearest order statistics; `None` for an empty slice.
/// `q` is clamped to `[0, 1]`.
///
/// # Example
///
/// ```
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(lumen_dsp::stats::quantile(&sorted, 0.5), Some(2.5));
/// ```
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median of the samples (averaging the middle pair for even lengths);
/// `None` for an empty slice.
pub fn median(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        assert!((variance_population(&data) - 4.0).abs() < 1e-12);
        assert!((stddev_population(&data) - 2.0).abs() < 1e-12);
        assert!((variance_sample(&data) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance_population(&[3.0]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[-3.0, -3.0, -3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_flat_is_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn pearson_errors() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(DspError::LengthMismatch { left: 1, right: 2 })
        ));
        assert!(matches!(pearson(&[], &[]), Err(DspError::EmptySignal)));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, -1.0), Some(1.0));
        assert_eq!(quantile(&v, 2.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_agrees_with_median() {
        let v = [1.0, 2.0, 5.0, 9.0, 11.0];
        assert_eq!(quantile(&v, 0.5), median(&v));
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn covariance_matches_variance() {
        let x = [1.0, 2.0, 3.0, 10.0];
        assert!((covariance(&x, &x).unwrap() - variance_population(&x)).abs() < 1e-12);
    }
}
