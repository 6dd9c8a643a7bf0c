//! Ambient light.
//!
//! Sec. VIII-I of the paper: "If the ambient light is strong, the relative
//! luminance change of the reflected light is dominated by the ambient light
//! instead of the screen light." Ambient illuminance adds a constant
//! luma-equivalent term to the face's incident light, which (via the
//! camera's auto-exposure) proportionally shrinks the screen-driven signal.

use crate::noise::{gaussian, WhiteNoise};
use crate::{Result, VideoError};
use rand::Rng;

/// Luma-equivalent illuminance per lux on the face. Calibrated so a typical
/// 100–150 lux indoor scene exposes a face near the middle grey the paper's
/// feasibility study shows (nasal bridge ≈ 105–132).
pub const LUMA_PER_LUX: f64 = 0.45;

/// An ambient lighting condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmbientLight {
    /// Illuminance on the face in lux.
    pub lux: f64,
    /// Relative flicker amplitude (mains flicker, fixtures); fraction of
    /// the mean level.
    pub flicker: f64,
}

impl AmbientLight {
    /// Creates an ambient condition.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for negative lux or flicker
    /// outside `[0, 1]`.
    pub fn new(lux: f64, flicker: f64) -> Result<Self> {
        if !(lux.is_finite() && lux >= 0.0) {
            return Err(VideoError::invalid_parameter(
                "lux",
                "must be finite and non-negative",
            ));
        }
        if !(0.0..=1.0).contains(&flicker) {
            return Err(VideoError::invalid_parameter(
                "flicker",
                "must be within [0, 1]",
            ));
        }
        Ok(AmbientLight { lux, flicker })
    }

    /// Typical dim indoor evening lighting (~60 lux).
    pub fn dim_indoor() -> Self {
        AmbientLight {
            lux: 60.0,
            flicker: 0.002,
        }
    }

    /// Typical indoor lighting (~130 lux on the face) — the paper's default
    /// "relatively stable indoor environment".
    pub fn normal_indoor() -> Self {
        AmbientLight {
            lux: 130.0,
            flicker: 0.002,
        }
    }

    /// Bright indoor lighting, the level at which the paper reports TAR
    /// dropping to ≈ 80 % (240 lux on the face).
    pub fn bright_indoor() -> Self {
        AmbientLight {
            lux: 240.0,
            flicker: 0.002,
        }
    }

    /// Mean luma-equivalent illuminance on the face.
    pub fn incident(&self) -> f64 {
        self.lux * LUMA_PER_LUX
    }

    /// One noisy illuminance sample (mean plus flicker).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mean = self.incident();
        (mean + mean * self.flicker * gaussian(rng)).max(0.0)
    }

    /// A sequence of `n` noisy illuminance samples.
    pub fn samples<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let noise = WhiteNoise::new(self.incident() * self.flicker);
        (0..n)
            .map(|_| (self.incident() + noise.next(rng)).max(0.0))
            .collect()
    }
}

impl Default for AmbientLight {
    fn default() -> Self {
        AmbientLight::normal_indoor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::seeded_rng;

    #[test]
    fn construction_validates() {
        assert!(AmbientLight::new(-1.0, 0.0).is_err());
        assert!(AmbientLight::new(100.0, 1.5).is_err());
        assert!(AmbientLight::new(100.0, 0.01).is_ok());
    }

    #[test]
    fn presets_are_ordered() {
        assert!(AmbientLight::dim_indoor().lux < AmbientLight::normal_indoor().lux);
        assert!(AmbientLight::normal_indoor().lux < AmbientLight::bright_indoor().lux);
    }

    #[test]
    fn incident_scales_with_lux() {
        let a = AmbientLight::new(100.0, 0.0).unwrap();
        let b = AmbientLight::new(200.0, 0.0).unwrap();
        assert!((b.incident() / a.incident() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn samples_hover_near_mean() {
        let a = AmbientLight::normal_indoor();
        let mut rng = seeded_rng(6);
        let samples = a.samples(&mut rng, 2000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - a.incident()).abs() < 0.5);
        assert!(samples.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn zero_flicker_is_constant() {
        let a = AmbientLight::new(100.0, 0.0).unwrap();
        let mut rng = seeded_rng(7);
        let samples = a.samples(&mut rng, 10);
        assert!(samples.iter().all(|&v| (v - a.incident()).abs() < 1e-12));
    }
}
