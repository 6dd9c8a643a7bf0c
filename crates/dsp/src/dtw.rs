//! Dynamic time warping (feature `z4` of the paper).
//!
//! Sec. VI-2: "we also use the maximum dynamic time warping (DTW) distance
//! between each pair of segments as the fourth feature". Distances use the
//! absolute difference as the local cost and the classic
//! `min(insert, delete, match)` recurrence; an optional Sakoe–Chiba band
//! bounds the warping for long inputs.

use crate::guard::{ensure_finite, ensure_min_len};
use crate::{DspError, Result};

/// Unconstrained DTW distance between `x` and `y`.
///
/// Runs in `O(len(x) · len(y))` time and `O(min)` memory (two rolling rows).
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] when either input is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let x = [0.0, 1.0, 2.0, 1.0, 0.0];
/// // Same shape, time-stretched: DTW distance stays zero.
/// let y = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0];
/// assert_eq!(lumen_dsp::dtw::dtw_distance(&x, &y)?, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn dtw_distance(x: &[f64], y: &[f64]) -> Result<f64> {
    dtw_distance_banded(x, y, None)
}

/// DTW distance constrained to a Sakoe–Chiba band of half-width `band`
/// (in samples). `None` means unconstrained.
///
/// A band at least `|len(x) - len(y)|` wide is required for a path to exist;
/// narrower bands are widened to that minimum automatically.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] when either input is empty,
/// [`DspError::TooShort`] when either holds a single sample, and
/// [`DspError::NonFiniteSample`] for NaN/infinite samples.
pub fn dtw_distance_banded(x: &[f64], y: &[f64], band: Option<usize>) -> Result<f64> {
    if x.is_empty() || y.is_empty() {
        return Err(DspError::EmptySignal);
    }
    ensure_min_len(x, 2)?;
    ensure_min_len(y, 2)?;
    ensure_finite(x)?;
    ensure_finite(y)?;
    let n = x.len();
    let m = y.len();
    let band = band.map(|b| b.max(n.abs_diff(m))).unwrap_or(n.max(m));

    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;

    // Both inputs are finite and every cost is an `abs`, so every cell is
    // `+0.0`, positive or `+∞`: no NaN and no `-0.0` can arise, and the
    // comparison minimum below selects the same bits as `f64::min` in any
    // grouping.
    let lesser = |a: f64, b: f64| if a < b { a } else { b };
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        // Band in y-index space around the diagonal i * m / n.
        let center = i * m / n;
        let lo = center.saturating_sub(band).max(1);
        let hi = (center + band).min(m);
        let xi = x[i - 1];
        // `curr[j - 1]` and `prev[j - 1]` ride along in registers; the
        // minimum of `up` and `diag` does not wait on the previous cell.
        let mut left = curr[lo - 1];
        let mut diag = prev[lo - 1];
        let row = curr[lo..=hi].iter_mut().zip(&prev[lo..=hi]);
        for ((cell, &up), &yj) in row.zip(&y[lo - 1..hi]) {
            let cost = (xi - yj).abs();
            *cell = cost + lesser(lesser(up, diag), left);
            left = *cell;
            diag = up;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[m];
    if d.is_finite() {
        Ok(d)
    } else {
        // Unreachable for the auto-widened band, but kept defensive.
        Err(DspError::invalid_parameter(
            "band",
            "no warping path exists within the band",
        ))
    }
}

/// DTW distance together with the warping path, for diagnostics and the
/// `fig7`-style pipeline visualizations.
///
/// The path is a sequence of `(i, j)` index pairs from `(0, 0)` to
/// `(len(x) - 1, len(y) - 1)`.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] when either input is empty,
/// [`DspError::TooShort`] when either holds a single sample, and
/// [`DspError::NonFiniteSample`] for NaN/infinite samples.
pub fn dtw_with_path(x: &[f64], y: &[f64]) -> Result<(f64, Vec<(usize, usize)>)> {
    if x.is_empty() || y.is_empty() {
        return Err(DspError::EmptySignal);
    }
    ensure_min_len(x, 2)?;
    ensure_min_len(y, 2)?;
    ensure_finite(x)?;
    ensure_finite(y)?;
    let n = x.len();
    let m = y.len();
    let mut dp = vec![f64::INFINITY; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    dp[idx(0, 0)] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let cost = (x[i - 1] - y[j - 1]).abs();
            let best = dp[idx(i - 1, j)]
                .min(dp[idx(i, j - 1)])
                .min(dp[idx(i - 1, j - 1)]);
            dp[idx(i, j)] = cost + best;
        }
    }
    // Backtrack.
    let mut path = Vec::new();
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        path.push((i - 1, j - 1));
        let diag = dp[idx(i - 1, j - 1)];
        let up = dp[idx(i - 1, j)];
        let left = dp[idx(i, j - 1)];
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    Ok((dp[idx(n, m)], path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The banded DTW that [`dtw_distance_banded`] replaced: each cell
    /// reads its three neighbours from the rows and takes `f64::min`. Kept
    /// as the reference the register-carried row must match bit for bit.
    fn dtw_distance_banded_reference(x: &[f64], y: &[f64], band: Option<usize>) -> Result<f64> {
        if x.is_empty() || y.is_empty() {
            return Err(DspError::EmptySignal);
        }
        ensure_min_len(x, 2)?;
        ensure_min_len(y, 2)?;
        ensure_finite(x)?;
        ensure_finite(y)?;
        let n = x.len();
        let m = y.len();
        let band = band.map(|b| b.max(n.abs_diff(m))).unwrap_or(n.max(m));

        let mut prev = vec![f64::INFINITY; m + 1];
        let mut curr = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;

        for i in 1..=n {
            curr.fill(f64::INFINITY);
            let center = i * m / n;
            let lo = center.saturating_sub(band).max(1);
            let hi = (center + band).min(m);
            for j in lo..=hi {
                let cost = (x[i - 1] - y[j - 1]).abs();
                let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
                curr[j] = cost + best;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        let d = prev[m];
        if d.is_finite() {
            Ok(d)
        } else {
            Err(DspError::invalid_parameter(
                "band",
                "no warping path exists within the band",
            ))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn banded_dtw_matches_the_reference_bit_for_bit(
            x in prop::collection::vec(crate::test_values::finite(), 2..=120),
            y in prop::collection::vec(crate::test_values::finite(), 2..=120),
            square in any::<bool>(),
            band in (any::<bool>(), 0usize..=130).prop_map(|(some, b)| some.then_some(b)),
        ) {
            // Lengths differ in most cases; `square` also covers n == m,
            // the shape feature z4 uses.
            let (x, y) = if square {
                let n = x.len().min(y.len());
                (&x[..n], &y[..n])
            } else {
                (&x[..], &y[..])
            };
            prop_assert_eq!(
                dtw_distance_banded(x, y, band).map(f64::to_bits),
                dtw_distance_banded_reference(x, y, band).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn identical_signals_have_zero_distance() {
        let x = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(dtw_distance(&x, &x).unwrap(), 0.0);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(dtw_distance(&[], &[1.0, 2.0]).is_err());
        assert!(dtw_distance(&[1.0, 2.0], &[]).is_err());
        assert!(dtw_with_path(&[], &[]).is_err());
    }

    #[test]
    fn single_sample_inputs_error_typed() {
        assert_eq!(
            dtw_distance(&[1.0], &[1.0, 2.0]),
            Err(DspError::TooShort { len: 1, min: 2 })
        );
        assert_eq!(
            dtw_with_path(&[1.0, 2.0], &[3.0]).unwrap_err(),
            DspError::TooShort { len: 1, min: 2 }
        );
    }

    #[test]
    fn non_finite_inputs_error_typed() {
        assert_eq!(
            dtw_distance(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(DspError::NonFiniteSample { index: 1 })
        );
        assert_eq!(
            dtw_distance(&[1.0, 2.0], &[f64::INFINITY, 2.0]),
            Err(DspError::NonFiniteSample { index: 0 })
        );
        assert!(dtw_with_path(&[1.0, 2.0], &[f64::NEG_INFINITY, 0.0]).is_err());
    }

    #[test]
    fn warping_absorbs_time_stretch() {
        let x = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        let y = [
            0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0,
        ];
        assert_eq!(dtw_distance(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn distance_grows_with_dissimilarity() {
        let x = [0.0, 0.0, 0.0, 0.0];
        let near = [0.1, 0.1, 0.1, 0.1];
        let far = [5.0, 5.0, 5.0, 5.0];
        let d_near = dtw_distance(&x, &near).unwrap();
        let d_far = dtw_distance(&x, &far).unwrap();
        assert!(d_near < d_far);
        assert!((d_far - 20.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let x = [0.0, 2.0, 1.0, 4.0, 1.0];
        let y = [1.0, 1.0, 3.0, 0.0];
        let a = dtw_distance(&x, &y).unwrap();
        let b = dtw_distance(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn banded_matches_full_for_wide_band() {
        let x: Vec<f64> = (0..40).map(|i| ((i as f64) * 0.3).sin()).collect();
        let y: Vec<f64> = (0..35).map(|i| ((i as f64) * 0.33).sin()).collect();
        let full = dtw_distance(&x, &y).unwrap();
        let banded = dtw_distance_banded(&x, &y, Some(40)).unwrap();
        assert!((full - banded).abs() < 1e-12);
    }

    #[test]
    fn banded_is_lower_bounded_by_full() {
        // A tighter band can only increase the optimal cost.
        let x: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.5).sin()).collect();
        let y: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.5 + 1.0).sin()).collect();
        let full = dtw_distance(&x, &y).unwrap();
        let banded = dtw_distance_banded(&x, &y, Some(3)).unwrap();
        assert!(banded >= full - 1e-12);
    }

    #[test]
    fn path_endpoints_and_monotonicity() {
        let x = [0.0, 1.0, 2.0, 1.0];
        let y = [0.0, 2.0, 1.0];
        let (d, path) = dtw_with_path(&x, &y).unwrap();
        assert!(d >= 0.0);
        assert_eq!(path.first(), Some(&(0, 0)));
        assert_eq!(path.last(), Some(&(3, 2)));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0);
            assert!(i1 - i0 <= 1 && j1 - j0 <= 1);
        }
    }

    #[test]
    fn path_distance_matches_distance() {
        let x = [0.3, 1.2, 0.7, 2.2, 0.1];
        let y = [0.0, 1.0, 2.0, 0.0];
        let d1 = dtw_distance(&x, &y).unwrap();
        let (d2, _) = dtw_with_path(&x, &y).unwrap();
        assert!((d1 - d2).abs() < 1e-12);
    }
}
