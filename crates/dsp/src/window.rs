//! Window functions for FIR design and spectral estimation.

use std::f64::consts::PI;

/// The window functions supported by the FIR designer and the spectrum
/// estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowKind {
    /// All-ones window (no tapering).
    Rectangular,
    /// Hann window — the default; good sidelobe suppression for the 1 Hz
    /// low-pass the paper's preprocessing uses.
    #[default]
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
}

impl WindowKind {
    /// Evaluates the window at position `i` of an `n`-point window.
    ///
    /// Returns `1.0` for windows of length 0 or 1 (a degenerate but valid
    /// request).
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            WindowKind::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            WindowKind::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
        }
    }

    /// Materializes the full `n`-point window.
    ///
    /// # Example
    ///
    /// ```
    /// use lumen_dsp::window::WindowKind;
    /// let w = WindowKind::Hann.coefficients(5);
    /// assert_eq!(w.len(), 5);
    /// assert!(w[0] < 1e-12 && (w[2] - 1.0).abs() < 1e-12);
    /// ```
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_symmetric() {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
        ] {
            let w = kind.coefficients(33);
            for i in 0..w.len() {
                assert!(
                    (w[i] - w[w.len() - 1 - i]).abs() < 1e-12,
                    "{kind:?} asymmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn windows_peak_at_center() {
        for kind in [WindowKind::Hann, WindowKind::Hamming, WindowKind::Blackman] {
            let w = kind.coefficients(31);
            let max = w.iter().cloned().fold(f64::MIN, f64::max);
            assert!((w[15] - max).abs() < 1e-12, "{kind:?} not centered");
        }
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(WindowKind::Hann.coefficients(0), Vec::<f64>::new());
        assert_eq!(WindowKind::Hann.coefficients(1), vec![1.0]);
    }

    #[test]
    fn hamming_endpoints() {
        let w = WindowKind::Hamming.coefficients(11);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 0.08).abs() < 1e-12);
    }
}
