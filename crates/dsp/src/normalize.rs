//! Signal normalization.
//!
//! Sec. VI-2: "Since we only consider the trend of the luminance signal
//! instead of absolute values, we further normalize each smoothed variance
//! signal to [0, 1]."

use crate::{DspError, Result, Signal};

/// Rescales the signal linearly to `[0, 1]`.
///
/// A constant (flat) signal maps to all zeros — the conservative choice for
/// the detector: a flat variance trace carries no trend evidence.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for an empty signal.
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, normalize::normalize_min_max};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let s = Signal::new(vec![10.0, 20.0, 30.0], 10.0)?;
/// let n = normalize_min_max(&s)?;
/// assert_eq!(n.samples(), &[0.0, 0.5, 1.0]);
/// # Ok(())
/// # }
/// ```
pub fn normalize_min_max(signal: &Signal) -> Result<Signal> {
    let (Some(min), Some(max)) = (signal.min(), signal.max()) else {
        return Err(DspError::EmptySignal);
    };
    let range = max - min;
    // lint:allow(float-eq): exact zero marks a constant signal; any other
    // range is a valid divisor
    if range == 0.0 {
        return signal.try_map(|_| 0.0);
    }
    signal.try_map(|x| (x - min) / range)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_bounds() {
        let s = Signal::new(vec![-5.0, 0.0, 15.0, 2.0], 10.0).unwrap();
        let n = normalize_min_max(&s).unwrap();
        assert_eq!(n.min(), Some(0.0));
        assert_eq!(n.max(), Some(1.0));
    }

    #[test]
    fn min_max_flat_is_zero() {
        let s = Signal::new(vec![4.0; 5], 10.0).unwrap();
        let n = normalize_min_max(&s).unwrap();
        assert!(n.samples().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_errors() {
        let s = Signal::new(vec![], 10.0).unwrap();
        assert!(normalize_min_max(&s).is_err());
    }
}
