//! The Von Kries diagonal reflection model (Eqs. 1–2 of the paper).
//!
//! Eq. 1: `I_c(x) = E_c(x) · R_c(x)` — the luminance reflected by a facial
//! pixel is the incident illuminance times the skin reflectance. Eq. 2 is
//! its consequence: when only the illuminant changes, the reflected
//! luminance changes *proportionally* — the invariant the whole defense
//! rests on.

use crate::profile::UserProfile;

/// Fraction of the screen's incident light captured by the nasal-bridge
/// patch (the ROI faces the screen almost frontally).
pub const NASAL_CAPTURE: f64 = 1.0;

/// Radiance of the nasal-bridge patch under combined screen and ambient
/// illumination (Eq. 1, luma-equivalent units).
///
/// # Example
///
/// ```
/// use lumen_video::profile::UserProfile;
/// use lumen_video::reflection::face_radiance;
///
/// let user = UserProfile::preset(0);
/// let dark = face_radiance(&user, 0.0, 50.0);
/// let bright = face_radiance(&user, 20.0, 50.0);
/// assert!(bright > dark);
/// ```
pub fn face_radiance(profile: &UserProfile, screen_incident: f64, ambient_incident: f64) -> f64 {
    profile.skin_reflectance
        * (NASAL_CAPTURE * screen_incident.max(0.0) + ambient_incident.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radiance_is_linear_in_illuminance() {
        let user = UserProfile::preset(2);
        let r1 = face_radiance(&user, 10.0, 40.0);
        let r2 = face_radiance(&user, 20.0, 80.0);
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn radiance_scales_with_reflectance() {
        let light = UserProfile::preset(6); // reflectance 0.95
        let dark = UserProfile::preset(5); // reflectance 0.52
        let rl = face_radiance(&light, 15.0, 50.0);
        let rd = face_radiance(&dark, 15.0, 50.0);
        assert!((rl / rd - light.skin_reflectance / dark.skin_reflectance).abs() < 1e-12);
    }

    #[test]
    fn eq2_ratio_is_reflectance_free() {
        // I'/I = E'/E for any user (Eq. 2).
        for idx in 0..UserProfile::PRESET_COUNT {
            let user = UserProfile::preset(idx);
            let i_before = face_radiance(&user, 10.0, 0.0);
            let i_after = face_radiance(&user, 25.0, 0.0);
            let ratio = i_after / i_before;
            assert!((ratio - 25.0 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let user = UserProfile::preset(0);
        assert_eq!(face_radiance(&user, -5.0, -10.0), 0.0);
    }
}
