//! Threshold filtering (Sec. V: cut-off 2 on the variance signal).
//!
//! "To remove small spikes, we apply a threshold filter on the variance
//! signal with a cut-off threshold of 2." Values strictly below the cut-off
//! are zeroed; everything else passes unchanged.

use crate::{DspError, Result, Signal};

/// Zeroes every sample strictly below `cutoff`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when `cutoff` is not finite.
///
/// # Example
///
/// ```
/// use lumen_dsp::{Signal, filters::threshold::threshold_filter};
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let s = Signal::new(vec![0.5, 2.0, 5.0, 1.9], 10.0)?;
/// let out = threshold_filter(&s, 2.0)?;
/// assert_eq!(out.samples(), &[0.0, 2.0, 5.0, 0.0]);
/// # Ok(())
/// # }
/// ```
pub fn threshold_filter(signal: &Signal, cutoff: f64) -> Result<Signal> {
    if !cutoff.is_finite() {
        return Err(DspError::invalid_parameter("cutoff", "must be finite"));
    }
    signal.try_map(|x| if x < cutoff { 0.0 } else { x })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroes_below_cutoff() {
        let s = Signal::new(vec![0.0, 1.0, 2.0, 3.0], 10.0).unwrap();
        let out = threshold_filter(&s, 2.0).unwrap();
        assert_eq!(out.samples(), &[0.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn negative_cutoff_passes_everything() {
        let s = Signal::new(vec![-5.0, 0.0, 5.0], 10.0).unwrap();
        let out = threshold_filter(&s, -10.0).unwrap();
        assert_eq!(out.samples(), s.samples());
    }

    #[test]
    fn rejects_non_finite_cutoff() {
        let s = Signal::new(vec![1.0], 10.0).unwrap();
        assert!(threshold_filter(&s, f64::NAN).is_err());
    }
}
