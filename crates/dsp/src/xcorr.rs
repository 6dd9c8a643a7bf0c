//! Cross-correlation and delay estimation.
//!
//! The detector removes network delay before comparing luminance trends
//! (Sec. VI-2). The paper estimates delay from matched change timestamps;
//! this module additionally provides a classical normalized-cross-correlation
//! estimator used as a fallback when too few changes match.

use crate::guard::{ensure_finite, ensure_min_len};
use crate::{stats, DspError, Result, Signal};

/// Normalized cross-correlation of `x` and `y` at integer lag `lag`:
/// `x[i]` is compared against `y[i + lag]`, so a *positive* lag measures how
/// well `y` matches `x` when `y` is assumed to lag behind by `lag` samples.
///
/// Only the overlapping region contributes; returns `0.0` when the overlap
/// is shorter than two samples or either segment is flat.
pub fn normalized_xcorr_at(x: &[f64], y: &[f64], lag: isize) -> f64 {
    let n = x.len() as isize;
    let m = y.len() as isize;
    let start = (-lag).max(0);
    let end = n.min(m - lag);
    if end - start < 2 {
        return 0.0;
    }
    let xs = &x[start as usize..end as usize];
    let ys = &y[(start + lag) as usize..(end + lag) as usize];
    stats::pearson(xs, ys).unwrap_or(0.0)
}

/// The lag (in samples) within `[-max_lag, max_lag]` maximizing normalized
/// cross-correlation, together with the correlation value at that lag.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] when either input is empty,
/// [`DspError::TooShort`] when either holds a single sample (no lag can be
/// scored), [`DspError::NonFiniteSample`] for NaN/infinite samples, and
/// [`DspError::InvalidParameter`] when `max_lag` exceeds the largest lag
/// that can still retain a two-sample overlap (`max(x.len(), y.len()) - 2`).
/// Such a window cannot be searched: its outer lags always score the `0.0`
/// sentinel of [`normalized_xcorr_at`], so accepting the request would
/// silently search a narrower window than the caller asked for.
pub fn best_lag(x: &[f64], y: &[f64], max_lag: usize) -> Result<(isize, f64)> {
    if x.is_empty() || y.is_empty() {
        return Err(DspError::EmptySignal);
    }
    ensure_min_len(x, 2)?;
    ensure_min_len(y, 2)?;
    ensure_finite(x)?;
    ensure_finite(y)?;
    // Lags beyond len-2 in either direction cannot overlap by >= 2
    // samples, so nothing outside this bound can ever win the search.
    let hard_cap = x.len().max(y.len()) - 2;
    if max_lag > hard_cap {
        return Err(DspError::InvalidParameter {
            name: "max_lag",
            reason: format!(
                "max_lag {max_lag} exceeds the largest usable lag {hard_cap} \
                 for inputs of {} and {} samples",
                x.len(),
                y.len()
            ),
        });
    }
    let mut best = (0isize, f64::MIN);
    for lag in -(max_lag as isize)..=(max_lag as isize) {
        let c = normalized_xcorr_at(x, y, lag);
        if c > best.1 {
            best = (lag, c);
        }
    }
    Ok(best)
}

/// Estimates the delay of `y` relative to `x` in seconds, searching up to
/// `max_delay` seconds. Positive output means `y` lags `x`.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for empty inputs and
/// [`DspError::LengthMismatch`] when sample rates differ.
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, xcorr::estimate_delay};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let x = Signal::from_fn(100, 10.0, |t| (t * 2.0).sin())?;
/// let y = x.shift(0.5); // y lags by 0.5 s
/// let d = estimate_delay(&x, &y, 1.0)?;
/// assert!((d - 0.5).abs() < 0.11);
/// # Ok(())
/// # }
/// ```
pub fn estimate_delay(x: &Signal, y: &Signal, max_delay: f64) -> Result<f64> {
    if x.is_empty() || y.is_empty() {
        return Err(DspError::EmptySignal);
    }
    if (x.sample_rate() - y.sample_rate()).abs() > f64::EPSILON {
        return Err(DspError::LengthMismatch {
            left: x.sample_rate() as usize,
            right: y.sample_rate() as usize,
        });
    }
    // A delay bound beyond the signals themselves carries no information:
    // clamp to the largest searchable lag instead of erroring, so callers
    // may pass a generous physical bound for short clips.
    let hard_cap = x.samples().len().max(y.samples().len()).saturating_sub(2);
    let max_lag = ((max_delay * x.sample_rate()).round().max(0.0) as usize).min(hard_cap);
    let (lag, _) = best_lag(x.samples(), y.samples(), max_lag)?;
    Ok(lag as f64 / x.sample_rate())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcorr_at_zero_lag_is_pearson() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((normalized_xcorr_at(&x, &y, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xcorr_small_overlap_is_zero() {
        let x = [1.0, 2.0];
        let y = [1.0, 2.0];
        assert_eq!(normalized_xcorr_at(&x, &y, 1), 0.0);
        assert_eq!(normalized_xcorr_at(&x, &y, 5), 0.0);
    }

    #[test]
    fn best_lag_finds_shift() {
        let x: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.2).sin()).collect();
        let shift = 7usize;
        let y: Vec<f64> = (0..200)
            .map(|i| (((i as f64) - shift as f64) * 0.2).sin())
            .collect();
        let (lag, corr) = best_lag(&x, &y, 20).unwrap();
        assert_eq!(lag, shift as isize);
        assert!(corr > 0.99);
    }

    #[test]
    fn best_lag_negative_shift() {
        let x: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.2).sin()).collect();
        let y: Vec<f64> = (0..200).map(|i| (((i as f64) + 5.0) * 0.2).sin()).collect();
        let (lag, _) = best_lag(&x, &y, 20).unwrap();
        assert_eq!(lag, -5);
    }

    #[test]
    fn estimate_delay_rejects_rate_mismatch() {
        let x = Signal::from_fn(10, 10.0, |t| t).unwrap();
        let y = Signal::from_fn(10, 5.0, |t| t).unwrap();
        assert!(estimate_delay(&x, &y, 1.0).is_err());
    }

    #[test]
    fn empty_inputs_error() {
        assert!(best_lag(&[], &[1.0, 2.0], 3).is_err());
        let x = Signal::new(vec![], 10.0).unwrap();
        let y = Signal::new(vec![1.0], 10.0).unwrap();
        assert!(estimate_delay(&x, &y, 1.0).is_err());
    }

    #[test]
    fn degenerate_inputs_error_typed() {
        assert_eq!(
            best_lag(&[1.0], &[1.0, 2.0], 3),
            Err(DspError::TooShort { len: 1, min: 2 })
        );
        assert_eq!(
            best_lag(&[1.0, f64::NAN], &[1.0, 2.0], 3),
            Err(DspError::NonFiniteSample { index: 1 })
        );
        assert_eq!(
            best_lag(&[1.0, 2.0], &[f64::INFINITY, 2.0], 3),
            Err(DspError::NonFiniteSample { index: 0 })
        );
    }

    #[test]
    fn best_lag_rejects_degenerate_window() {
        // max_lag >= len: every extra lag is unreachable (< 2 overlap).
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let err = best_lag(&x, &x, 10).unwrap_err();
        assert!(
            matches!(
                err,
                DspError::InvalidParameter {
                    name: "max_lag",
                    ..
                }
            ),
            "expected a typed max_lag rejection, got {err:?}"
        );
        // One past the usable bound is already rejected...
        assert!(best_lag(&x, &x, 9).is_err());
        // ...while the largest usable lag (len - 2) still searches. A
        // two-sample overlap of a monotonic ramp is perfectly correlated,
        // so extreme lags legitimately tie the zero-lag peak here — the
        // contract under test is only that the search runs and scores it.
        let (lag, corr) = best_lag(&x, &x, 8).unwrap();
        assert!(lag.unsigned_abs() <= 8);
        assert!((corr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_lag_cap_uses_longer_input() {
        // Asymmetric lengths: the cap follows max(x.len(), y.len()) - 2,
        // so a long y keeps large positive lags searchable.
        let x: Vec<f64> = (0..30).map(|i| ((i as f64) * 0.3).sin()).collect();
        let y: Vec<f64> = (0..200)
            .map(|i| (((i as f64) - 25.0) * 0.3).sin())
            .collect();
        let (lag, corr) = best_lag(&x, &y, 40).unwrap();
        assert_eq!(lag, 25);
        assert!(corr > 0.99);
    }

    #[test]
    fn estimate_delay_clamps_generous_bound() {
        // A physical bound far beyond the clip length is clamped, not
        // rejected: short clips may still use a generous search window.
        let x = Signal::from_fn(50, 10.0, |t| (t * 2.0).sin()).unwrap();
        let y = x.shift(0.5);
        let d = estimate_delay(&x, &y, 60.0).unwrap();
        assert!((d - 0.5).abs() < 0.11, "delay {d} not near 0.5");
    }
}
