//! Radix-2 FFT and magnitude spectra (used to reproduce Fig. 6: the spectrum
//! of luminance signals with and without screen-light changes).

use crate::{DspError, Result, Signal};
use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number; minimal support for the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{i·theta}` on the unit circle.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when the length is not a power of
/// two (zero-pad with [`next_pow2`] first) and [`DspError::EmptySignal`] for
/// an empty buffer.
pub fn fft_in_place(data: &mut [Complex]) -> Result<()> {
    let n = data.len();
    if n == 0 {
        return Err(DspError::EmptySignal);
    }
    if !n.is_power_of_two() {
        return Err(DspError::invalid_parameter(
            "data",
            format!("length {n} is not a power of two"),
        ));
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let step = -2.0 * PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let w = Complex::from_angle(step * k as f64);
                let a = data[start + k];
                let b = data[start + k + len / 2] * w;
                data[start + k] = a + b;
                data[start + k + len / 2] = a - b;
            }
        }
        len *= 2;
    }
    Ok(())
}

/// A one-sided magnitude spectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Frequency of each bin in Hz.
    pub frequencies: Vec<f64>,
    /// Magnitude of each bin (amplitude-normalized: a unit sine yields ~1.0
    /// at its bin).
    pub magnitudes: Vec<f64>,
}

impl Spectrum {
    /// Total spectral energy (sum of squared magnitudes) within
    /// `[lo_hz, hi_hz]`.
    pub fn band_energy(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        self.frequencies
            .iter()
            .zip(&self.magnitudes)
            .filter(|(f, _)| **f >= lo_hz && **f <= hi_hz)
            .map(|(_, m)| m * m)
            .sum()
    }
}

/// Computes the one-sided amplitude spectrum of `signal`.
///
/// The mean is removed first (the luminance DC level would otherwise dwarf
/// the sub-1 Hz band Fig. 6 examines), a Hann window is applied, and the
/// buffer is zero-padded to the next power of two.
///
/// # Errors
///
/// Returns [`DspError::EmptySignal`] for an empty signal.
pub fn magnitude_spectrum(signal: &Signal) -> Result<Spectrum> {
    if signal.is_empty() {
        return Err(DspError::EmptySignal);
    }
    let x = signal.samples();
    let mean = crate::stats::mean(x);
    let n = x.len();
    let window = crate::window::WindowKind::Hann.coefficients(n);
    // Coherent gain of the window, for amplitude normalization.
    let gain: f64 = window.iter().sum::<f64>() / n as f64;
    let padded = next_pow2(n);
    let mut buf: Vec<Complex> = (0..padded)
        .map(|i| {
            if i < n {
                Complex::new((x[i] - mean) * window[i], 0.0)
            } else {
                Complex::default()
            }
        })
        .collect();
    fft_in_place(&mut buf)?;
    let bins = padded / 2 + 1;
    let df = signal.sample_rate() / padded as f64;
    let norm = 2.0 / (n as f64 * gain);
    let frequencies = (0..bins).map(|i| i as f64 * df).collect();
    let magnitudes = buf[..bins].iter().map(|z| z.abs() * norm).collect();
    Ok(Spectrum {
        frequencies,
        magnitudes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::default(); 3];
        assert!(fft_in_place(&mut data).is_err());
        let mut empty: Vec<Complex> = vec![];
        assert!(fft_in_place(&mut empty).is_err());
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut data).unwrap();
        for z in &data {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_definition() {
        let x = [1.0, 2.0, -1.0, 0.5, 0.0, -2.0, 3.0, 1.0];
        let mut data: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut data).unwrap();
        for (k, z) in data.iter().enumerate() {
            let mut expected = Complex::default();
            for (n, &v) in x.iter().enumerate() {
                let theta = -2.0 * PI * (k * n) as f64 / x.len() as f64;
                expected = expected + Complex::from_angle(theta) * Complex::new(v, 0.0);
            }
            assert!((z.re - expected.re).abs() < 1e-9);
            assert!((z.im - expected.im).abs() < 1e-9);
        }
    }

    #[test]
    fn spectrum_locates_a_tone() {
        // 0.5 Hz tone at 10 Hz sampling.
        let s = Signal::from_fn(512, 10.0, |t| 80.0 + 10.0 * (2.0 * PI * 0.5 * t).sin()).unwrap();
        let spec = magnitude_spectrum(&s).unwrap();
        // The strongest bin, ignoring DC.
        let (dom, _) = spec
            .frequencies
            .iter()
            .zip(&spec.magnitudes)
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!((dom - 0.5).abs() < 0.05, "dominant {dom}");
    }

    #[test]
    fn spectrum_amplitude_is_calibrated() {
        // Tone exactly on bin 128 of a 1024-point FFT to avoid scalloping.
        let f0 = 10.0 * 128.0 / 1024.0;
        let s = Signal::from_fn(1024, 10.0, |t| 3.0 * (2.0 * PI * f0 * t).sin()).unwrap();
        let spec = magnitude_spectrum(&s).unwrap();
        let peak = spec.magnitudes.iter().cloned().fold(f64::MIN, f64::max);
        assert!((peak - 3.0).abs() < 0.1, "peak {peak}");
    }

    #[test]
    fn band_energy_separates_low_and_high() {
        let s = Signal::from_fn(1024, 10.0, |t| {
            (2.0 * PI * 0.3 * t).sin() + 0.2 * (2.0 * PI * 4.0 * t).sin()
        })
        .unwrap();
        let spec = magnitude_spectrum(&s).unwrap();
        assert!(spec.band_energy(0.1, 1.0) > 10.0 * spec.band_energy(3.0, 5.0));
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
    }
}
