use crate::{DspError, Result};

/// A uniformly sampled, real-valued time series.
///
/// `Signal` is the common currency of the Lumen pipeline: luminance traces of
/// the transmitted and received videos are `Signal`s at (by default) 10 Hz,
/// and every filter stage consumes and produces `Signal`s.
///
/// # Example
///
/// ```
/// use lumen_dsp::Signal;
///
/// # fn main() -> Result<(), lumen_dsp::DspError> {
/// let s = Signal::new(vec![1.0, 2.0, 3.0, 4.0], 10.0)?;
/// assert_eq!(s.len(), 4);
/// assert!((s.duration() - 0.4).abs() < 1e-12);
/// assert_eq!(s.time_at(2), 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    samples: Vec<f64>,
    sample_rate: f64,
}

impl Signal {
    /// Creates a signal from raw samples and a sample rate in Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidSampleRate`] if `sample_rate` is not finite
    /// and strictly positive, and [`DspError::NonFiniteSample`] if any sample
    /// is NaN or infinite.
    pub fn new(samples: Vec<f64>, sample_rate: f64) -> Result<Self> {
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(DspError::InvalidSampleRate(sample_rate));
        }
        if let Some(index) = samples.iter().position(|s| !s.is_finite()) {
            return Err(DspError::NonFiniteSample { index });
        }
        Ok(Signal {
            samples,
            sample_rate,
        })
    }

    /// Creates a signal by sampling `f` at `n` uniformly spaced instants
    /// `t = i / sample_rate`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Signal::new`].
    ///
    /// # Example
    ///
    /// ```
    /// use lumen_dsp::Signal;
    ///
    /// # fn main() -> Result<(), lumen_dsp::DspError> {
    /// let sine = Signal::from_fn(100, 10.0, |t| (2.0 * std::f64::consts::PI * t).sin())?;
    /// assert_eq!(sine.len(), 100);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_fn(n: usize, sample_rate: f64, mut f: impl FnMut(f64) -> f64) -> Result<Self> {
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(DspError::InvalidSampleRate(sample_rate));
        }
        let samples = (0..n).map(|i| f(i as f64 / sample_rate)).collect();
        Signal::new(samples, sample_rate)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the signal holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Total duration in seconds (`len / sample_rate`).
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Borrows the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The sample at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<f64> {
        self.samples.get(index).copied()
    }

    /// Time (seconds) of the sample at `index`.
    pub fn time_at(&self, index: usize) -> f64 {
        index as f64 / self.sample_rate
    }

    /// Applies `f` to every sample, producing a new signal at the same rate.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces a non-finite value; use [`Signal::try_map`] for
    /// a fallible variant.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Signal {
        self.try_map(f)
            // lint:allow(no-panic, hot-path-purity): the panic is this
            // method's documented contract; try_map is the total variant
            // and the one the detection pipeline actually calls
            .expect("map closure produced a non-finite sample")
    }

    /// Applies `f` to every sample, validating the output.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NonFiniteSample`] if `f` produces NaN/inf.
    pub fn try_map(&self, mut f: impl FnMut(f64) -> f64) -> Result<Signal> {
        let samples: Vec<f64> = self.samples.iter().map(|&s| f(s)).collect();
        Signal::new(samples, self.sample_rate)
    }

    /// Extracts the sub-signal covering sample indices `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the range is out of bounds
    /// or reversed.
    pub fn slice(&self, start: usize, end: usize) -> Result<Signal> {
        if start > end || end > self.samples.len() {
            return Err(DspError::invalid_parameter(
                "range",
                format!(
                    "slice [{start}, {end}) out of bounds for length {}",
                    self.samples.len()
                ),
            ));
        }
        Signal::new(self.samples[start..end].to_vec(), self.sample_rate)
    }

    /// Splits the signal into `parts` contiguous segments of (near-)equal
    /// length; the first `len % parts` segments are one sample longer.
    ///
    /// Used by the feature extractor, which cuts each smoothed variance
    /// signal into two segments (Sec. VI-2 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `parts` is zero or exceeds
    /// the number of samples.
    pub fn split_even(&self, parts: usize) -> Result<Vec<Signal>> {
        if parts == 0 || parts > self.samples.len() {
            return Err(DspError::invalid_parameter(
                "parts",
                format!("cannot split {} samples into {parts} parts", self.len()),
            ));
        }
        let base = self.samples.len() / parts;
        let extra = self.samples.len() % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0;
        for part in 0..parts {
            let len = base + usize::from(part < extra);
            out.push(self.slice(start, start + len)?);
            start += len;
        }
        Ok(out)
    }

    /// Arithmetic mean of the samples; `0.0` for an empty signal.
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.samples)
    }

    /// Minimum sample value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Maximum sample value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Shifts the whole signal later in time by `delay` seconds, filling the
    /// front with the first sample and truncating the tail so the length is
    /// unchanged. A negative `delay` shifts earlier.
    ///
    /// This mirrors how the detector removes estimated network delay before
    /// comparing trends (Sec. VI-2).
    pub fn shift(&self, delay: f64) -> Signal {
        if self.samples.is_empty() {
            return self.clone();
        }
        let offset = (delay * self.sample_rate).round() as i64;
        let n = self.samples.len() as i64;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let src = (i - offset).clamp(0, n - 1) as usize;
                self.samples[src]
            })
            .collect();
        Signal {
            samples,
            sample_rate: self.sample_rate,
        }
    }
}

impl AsRef<[f64]> for Signal {
    fn as_ref(&self) -> &[f64] {
        &self.samples
    }
}

impl<'a> IntoIterator for &'a Signal {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Signal {
        Signal::from_fn(n, 10.0, |t| t).unwrap()
    }

    #[test]
    fn new_rejects_bad_rate() {
        assert_eq!(
            Signal::new(vec![1.0], 0.0),
            Err(DspError::InvalidSampleRate(0.0))
        );
        assert!(Signal::new(vec![1.0], -3.0).is_err());
        assert!(Signal::new(vec![1.0], f64::NAN).is_err());
    }

    #[test]
    fn new_rejects_non_finite_samples() {
        assert_eq!(
            Signal::new(vec![0.0, f64::NAN], 10.0),
            Err(DspError::NonFiniteSample { index: 1 })
        );
        assert!(Signal::new(vec![f64::INFINITY], 10.0).is_err());
    }

    #[test]
    fn duration_and_time_at() {
        let s = ramp(20);
        assert!((s.duration() - 2.0).abs() < 1e-12);
        assert!((s.time_at(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_and_split() {
        let s = ramp(10);
        let sub = s.slice(2, 5).unwrap();
        assert_eq!(sub.samples(), &[0.2, 0.3, 0.4]);
        assert!(s.slice(5, 2).is_err());
        assert!(s.slice(0, 11).is_err());

        let parts = s.split_even(3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4);
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        let total: usize = parts.iter().map(Signal::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_even_rejects_degenerate() {
        let s = ramp(4);
        assert!(s.split_even(0).is_err());
        assert!(s.split_even(5).is_err());
        assert_eq!(s.split_even(4).unwrap().len(), 4);
    }

    #[test]
    fn shift_delays_signal() {
        let s = Signal::new(vec![1.0, 2.0, 3.0, 4.0, 5.0], 10.0).unwrap();
        let shifted = s.shift(0.2); // two samples later
        assert_eq!(shifted.samples(), &[1.0, 1.0, 1.0, 2.0, 3.0]);
        let back = s.shift(-0.2);
        assert_eq!(back.samples(), &[3.0, 4.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.shift(0.0).samples(), s.samples());
    }

    #[test]
    fn map_preserves_rate() {
        let s = ramp(5);
        let doubled = s.map(|x| 2.0 * x);
        assert_eq!(doubled.sample_rate(), 10.0);
        assert!((doubled.samples()[4] - 0.8).abs() < 1e-12);
        assert!(s.try_map(|x| x / 0.0).is_err());
    }

    #[test]
    fn min_max_mean() {
        let s = Signal::new(vec![3.0, -1.0, 2.0], 1.0).unwrap();
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(3.0));
        assert!((s.mean() - 4.0 / 3.0).abs() < 1e-12);
    }
}
