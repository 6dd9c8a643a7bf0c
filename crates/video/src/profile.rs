//! Synthetic "volunteers".
//!
//! The paper recruits ten volunteers (four females, six males) with diverse
//! skin colors. Each [`UserProfile`] here captures the attributes that
//! matter to the luminance channel: skin reflectance (Eq. 1's `R_c`), head
//! motion energy, blink/talk disturbance, and face-tracking jitter.

use crate::{Result, VideoError};

/// A simulated participant.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Stable identifier (0-based).
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Relative skin reflectance at the nasal bridge, `(0, 1]`
    /// (Eq. 1's `R_c`; darker skin reflects less screen light).
    pub skin_reflectance: f64,
    /// Head-motion diffusion (luma units / √s) feeding a mean-reverting
    /// random walk.
    pub motion_diffusion: f64,
    /// Head-motion mean-reversion rate (1/s).
    pub motion_reversion: f64,
    /// Blink/talk/occlusion burst rate (events/s).
    pub burst_rate: f64,
    /// Burst amplitude (luma units).
    pub burst_amplitude: f64,
    /// Face-localization jitter translated to luminance noise (luma units,
    /// 1σ) — Sec. V: "inaccurate face localization can lead to jittering in
    /// the interested area".
    pub tracking_jitter: f64,
}

impl UserProfile {
    /// Creates a profile after validating physical ranges.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] when `skin_reflectance`
    /// leaves `(0, 1]` or any noise magnitude is negative/non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        name: impl Into<String>,
        skin_reflectance: f64,
        motion_diffusion: f64,
        motion_reversion: f64,
        burst_rate: f64,
        burst_amplitude: f64,
        tracking_jitter: f64,
    ) -> Result<Self> {
        if !(skin_reflectance.is_finite() && skin_reflectance > 0.0 && skin_reflectance <= 1.0) {
            return Err(VideoError::invalid_parameter(
                "skin_reflectance",
                "must be within (0, 1]",
            ));
        }
        for (name_, v) in [
            ("motion_diffusion", motion_diffusion),
            ("motion_reversion", motion_reversion),
            ("burst_rate", burst_rate),
            ("burst_amplitude", burst_amplitude),
            ("tracking_jitter", tracking_jitter),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(VideoError::invalid_parameter(
                    "noise",
                    format!("{name_} must be finite and non-negative"),
                ));
            }
        }
        Ok(UserProfile {
            id,
            name: name.into(),
            skin_reflectance,
            motion_diffusion,
            motion_reversion,
            burst_rate,
            burst_amplitude,
            tracking_jitter,
        })
    }

    /// Number of built-in presets (the paper's ten volunteers).
    pub const PRESET_COUNT: usize = 10;

    /// One of the ten preset volunteers (`index` is taken modulo 10).
    ///
    /// The presets span light to dark skin (reflectance 0.52–0.95), calm to
    /// fidgety motion, and a range of blink/talk rates.
    pub fn preset(index: usize) -> UserProfile {
        // (reflectance, diffusion, reversion, burst rate, burst amp, jitter)
        const TABLE: [(f64, f64, f64, f64, f64, f64); UserProfile::PRESET_COUNT] = [
            (0.92, 1.0, 0.8, 0.06, 3.0, 0.7),
            (0.78, 1.3, 0.7, 0.10, 3.2, 0.8),
            (0.60, 0.8, 0.9, 0.05, 2.5, 0.6),
            (0.88, 1.7, 0.6, 0.12, 3.8, 1.0),
            (0.70, 1.2, 0.8, 0.08, 3.0, 0.8),
            (0.52, 1.0, 0.8, 0.07, 2.8, 0.7),
            (0.95, 1.2, 0.7, 0.09, 3.0, 0.8),
            (0.65, 1.5, 0.6, 0.11, 3.5, 0.95),
            (0.82, 0.9, 0.9, 0.05, 2.6, 0.6),
            (0.74, 1.3, 0.7, 0.10, 3.2, 0.85),
        ];
        let i = index % UserProfile::PRESET_COUNT;
        let (r, md, mr, br, ba, tj) = TABLE[i];
        UserProfile::new(i, format!("user-{}", i + 1), r, md, mr, br, ba, tj)
            // lint:allow(no-panic): the preset table is a literal constant
            // kept in range; unit tests construct every preset
            .expect("presets are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_reflectance() {
        assert!(UserProfile::new(0, "x", 0.0, 1.0, 1.0, 0.1, 3.0, 1.0).is_err());
        assert!(UserProfile::new(0, "x", 1.2, 1.0, 1.0, 0.1, 3.0, 1.0).is_err());
        assert!(UserProfile::new(0, "x", -0.5, 1.0, 1.0, 0.1, 3.0, 1.0).is_err());
        assert!(UserProfile::new(0, "x", 0.8, 1.0, 1.0, 0.1, 3.0, 1.0).is_ok());
    }

    #[test]
    fn new_rejects_negative_noise() {
        assert!(UserProfile::new(0, "x", 0.8, -1.0, 1.0, 0.1, 3.0, 1.0).is_err());
        assert!(UserProfile::new(0, "x", 0.8, 1.0, 1.0, 0.1, 3.0, f64::NAN).is_err());
    }

    #[test]
    fn presets_are_distinct_and_diverse() {
        let all: Vec<UserProfile> = (0..UserProfile::PRESET_COUNT)
            .map(UserProfile::preset)
            .collect();
        assert_eq!(all.len(), 10);
        let min_r = all.iter().map(|p| p.skin_reflectance).fold(1.0, f64::min);
        let max_r = all.iter().map(|p| p.skin_reflectance).fold(0.0, f64::max);
        assert!(min_r < 0.6, "darkest preset {min_r}");
        assert!(max_r > 0.9, "lightest preset {max_r}");
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.id, i);
            assert_eq!(p.name, format!("user-{}", i + 1));
        }
    }

    #[test]
    fn preset_index_wraps() {
        assert_eq!(UserProfile::preset(0), UserProfile::preset(10));
    }
}
