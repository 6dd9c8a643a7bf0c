//! Camera response: metering, auto-exposure, sensor noise.
//!
//! Sec. II-B of the paper discusses spot and multi-zone metering — the
//! mechanism a legitimate caller exploits to steer her video's overall
//! luminance. On the callee side the camera's auto-exposure settles on the
//! scene's mean radiance and then maps face radiance to pixel values; its
//! gain therefore *shrinks* as ambient light grows, which is the mechanism
//! behind the Sec. VIII-I ambient-light degradation.

use crate::noise::{gaussian, WhiteNoise};
use crate::{Result, VideoError};
use rand::Rng;

/// Light-metering strategy (Sec. II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MeteringMode {
    /// Meter a small spot (tap-to-meter on phones). Exposure reacts fully
    /// to the metered patch.
    Spot,
    /// Average many zones across the frame; the face is one zone among
    /// many, so exposure reacts only partially to face-level changes.
    #[default]
    MultiZone,
}

impl MeteringMode {
    /// Fraction of a face-radiance change that the auto-exposure "sees" and
    /// compensates away. Spot metering on the face compensates strongly;
    /// multi-zone barely reacts (the background dominates).
    pub fn ae_coupling(self) -> f64 {
        match self {
            MeteringMode::Spot => 0.6,
            MeteringMode::MultiZone => 0.12,
        }
    }
}

/// A camera model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Metering strategy.
    pub metering: MeteringMode,
    /// Auto-exposure target pixel level (middle grey ≈ 115 keeps faces in
    /// the paper's observed 105–132 band).
    pub target_level: f64,
    /// Auto-exposure gain limits (min, max).
    pub gain_limits: (f64, f64),
    /// Sensor read-noise standard deviation in luma units (applies to the
    /// ROI *mean*, so it is already averaged over the patch).
    pub noise_sigma: f64,
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for a non-positive target
    /// level, inverted gain limits or negative noise.
    pub fn new(
        metering: MeteringMode,
        target_level: f64,
        gain_limits: (f64, f64),
        noise_sigma: f64,
    ) -> Result<Self> {
        if !(target_level.is_finite() && target_level > 0.0 && target_level <= 255.0) {
            return Err(VideoError::invalid_parameter(
                "target_level",
                "must be within (0, 255]",
            ));
        }
        if !(gain_limits.0.is_finite()
            && gain_limits.1.is_finite()
            && gain_limits.0 > 0.0
            && gain_limits.0 <= gain_limits.1)
        {
            return Err(VideoError::invalid_parameter(
                "gain_limits",
                "must be positive and ordered",
            ));
        }
        if !(noise_sigma.is_finite() && noise_sigma >= 0.0) {
            return Err(VideoError::invalid_parameter(
                "noise_sigma",
                "must be finite and non-negative",
            ));
        }
        Ok(Camera {
            metering,
            target_level,
            gain_limits,
            noise_sigma,
        })
    }

    /// A front smartphone camera like the paper's Google Nexus 6 testbed:
    /// multi-zone metering, middle-grey target, modest ROI noise.
    pub fn nexus6_front() -> Self {
        Camera {
            metering: MeteringMode::MultiZone,
            target_level: 115.0,
            gain_limits: (0.4, 8.0),
            noise_sigma: 0.9,
        }
    }

    /// The settled auto-exposure gain for a scene whose face patch averages
    /// `mean_radiance` (luma-equivalent units), clamped to the gain limits.
    pub fn settled_gain(&self, mean_radiance: f64) -> f64 {
        if mean_radiance <= 0.0 {
            return self.gain_limits.1;
        }
        (self.target_level / mean_radiance).clamp(self.gain_limits.0, self.gain_limits.1)
    }

    /// Exposes a face-patch radiance into a pixel-luminance value.
    ///
    /// `gain` is the settled AE gain; `mean_radiance` the level AE settled
    /// on. The AE coupling partially cancels deviations from that level —
    /// the metering-mode-dependent feedback — before sensor noise and
    /// clamping to `[0, 255]`.
    pub fn expose<R: Rng + ?Sized>(
        &self,
        radiance: f64,
        gain: f64,
        mean_radiance: f64,
        rng: &mut R,
    ) -> f64 {
        let coupling = self.metering.ae_coupling();
        let effective = radiance - coupling * (radiance - mean_radiance);
        let noise = WhiteNoise::new(self.noise_sigma).next(rng);
        // Sub-LSB dither stands in for 8-bit quantization of a ~100-pixel
        // ROI mean.
        let dither = 0.03 * gaussian(rng);
        (gain * effective + noise + dither).clamp(0.0, 255.0)
    }
}

impl Default for Camera {
    fn default() -> Self {
        Camera::nexus6_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::seeded_rng;

    #[test]
    fn construction_validates() {
        assert!(Camera::new(MeteringMode::Spot, 0.0, (0.5, 4.0), 1.0).is_err());
        assert!(Camera::new(MeteringMode::Spot, 115.0, (4.0, 0.5), 1.0).is_err());
        assert!(Camera::new(MeteringMode::Spot, 115.0, (0.5, 4.0), -1.0).is_err());
        assert!(Camera::new(MeteringMode::Spot, 115.0, (0.5, 4.0), 1.0).is_ok());
    }

    #[test]
    fn settled_gain_hits_target() {
        let cam = Camera::nexus6_front();
        let gain = cam.settled_gain(57.5);
        assert!((gain - 2.0).abs() < 1e-12);
    }

    #[test]
    fn settled_gain_clamps() {
        let cam = Camera::nexus6_front();
        assert_eq!(cam.settled_gain(1e-9), cam.gain_limits.1);
        assert_eq!(cam.settled_gain(0.0), cam.gain_limits.1);
        assert_eq!(cam.settled_gain(1e9), cam.gain_limits.0);
    }

    #[test]
    fn exposure_centers_on_target() {
        let cam = Camera::nexus6_front();
        let mut rng = seeded_rng(8);
        let mean_radiance = 60.0;
        let gain = cam.settled_gain(mean_radiance);
        let mean_pixel: f64 = (0..2000)
            .map(|_| cam.expose(mean_radiance, gain, mean_radiance, &mut rng))
            .sum::<f64>()
            / 2000.0;
        assert!((mean_pixel - cam.target_level).abs() < 0.5, "{mean_pixel}");
    }

    #[test]
    fn multizone_preserves_more_signal_than_spot() {
        let mean_radiance = 60.0;
        let delta = 10.0;
        let mut rng = seeded_rng(9);
        let mz = Camera::nexus6_front();
        let spot = Camera::new(MeteringMode::Spot, 115.0, (0.4, 8.0), 0.0).unwrap();
        let gain = mz.settled_gain(mean_radiance);
        let avg = |cam: &Camera, rng: &mut rand_chacha::ChaCha8Rng| {
            (0..500)
                .map(|_| {
                    cam.expose(mean_radiance + delta, gain, mean_radiance, rng)
                        - cam.expose(mean_radiance, gain, mean_radiance, rng)
                })
                .sum::<f64>()
                / 500.0
        };
        let mz_resp = avg(&mz, &mut rng);
        let spot_resp = avg(&spot, &mut rng);
        assert!(mz_resp > spot_resp, "{mz_resp} vs {spot_resp}");
    }

    #[test]
    fn exposure_clamps_to_pixel_range() {
        let cam = Camera::nexus6_front();
        let mut rng = seeded_rng(10);
        let high = cam.expose(1e6, 8.0, 1e6, &mut rng);
        assert!(high <= 255.0);
        let low = cam.expose(0.0, 0.4, 60.0, &mut rng);
        assert!(low >= 0.0);
    }
}
