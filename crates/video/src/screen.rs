//! Screen models.
//!
//! The screen is the defense's unwitting "challenge transmitter": whatever
//! the caller's video does, the callee's screen re-emits it as light. The
//! amount of light reaching the callee's face scales with panel area and
//! brightness and falls with the square of viewing distance — which is why
//! Fig. 13 of the paper finds better performance on larger screens, and why
//! a 6-inch phone only works at ~10 cm.

use crate::{Result, VideoError};

/// Panel technology. All three reduce emitted light for darker content
//  (Sec. II-D), differing only in efficiency and black level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PanelKind {
    /// LED-backlit LCD (the paper's Dell 27-inch testbed monitor).
    #[default]
    Led,
    /// Conventional CCFL/LCD.
    Lcd,
    /// OLED: true blacks, slightly higher contrast.
    Oled,
}

impl PanelKind {
    /// Relative luminous efficiency of the panel (LED = 1.0).
    pub fn efficiency(self) -> f64 {
        match self {
            PanelKind::Led => 1.0,
            PanelKind::Lcd => 0.85,
            PanelKind::Oled => 1.05,
        }
    }

    /// Fraction of full-scale light still emitted for black content
    /// (backlight bleed); OLED is essentially zero.
    pub fn black_level(self) -> f64 {
        match self {
            PanelKind::Led => 0.02,
            PanelKind::Lcd => 0.04,
            PanelKind::Oled => 0.0,
        }
    }
}

/// Empirical coupling constant mapping (panel area / distance²) ·
/// brightness · efficiency to the luma-equivalent illuminance gain,
/// calibrated so the paper's feasibility study reproduces: a black→white
/// flash on a 27-inch LED monitor at 85 % brightness and 0.5 m raises the
/// nasal-bridge luminance by ≈ 27 grey levels (105 → 132).
const COUPLING: f64 = 0.11;

/// 16:9 aspect ratio width factor: width = diagonal · 16/√(16²+9²).
const W_FACTOR: f64 = 16.0 / 18.357_559_75;
/// 16:9 aspect ratio height factor.
const H_FACTOR: f64 = 9.0 / 18.357_559_75;

/// A screen in front of the callee's face.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Screen {
    /// Diagonal size in inches.
    pub diagonal_in: f64,
    /// Brightness setting in `[0, 1]` (the paper uses 85 %).
    pub brightness: f64,
    /// Viewing distance in meters.
    pub distance_m: f64,
    /// Panel technology.
    pub kind: PanelKind,
}

impl Screen {
    /// Creates a screen.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for non-positive diagonal or
    /// distance, or brightness outside `[0, 1]`.
    pub fn new(
        diagonal_in: f64,
        brightness: f64,
        distance_m: f64,
        kind: PanelKind,
    ) -> Result<Self> {
        if !(diagonal_in.is_finite() && diagonal_in > 0.0) {
            return Err(VideoError::invalid_parameter(
                "diagonal_in",
                "must be finite and positive",
            ));
        }
        if !(0.0..=1.0).contains(&brightness) {
            return Err(VideoError::invalid_parameter(
                "brightness",
                "must be within [0, 1]",
            ));
        }
        if !(distance_m.is_finite() && distance_m > 0.0) {
            return Err(VideoError::invalid_parameter(
                "distance_m",
                "must be finite and positive",
            ));
        }
        Ok(Screen {
            diagonal_in,
            brightness,
            distance_m,
            kind,
        })
    }

    /// The paper's testbed monitor: Dell 27-inch LED at 85 % brightness,
    /// typical desktop viewing distance (0.5 m).
    pub fn dell_27in() -> Self {
        Screen {
            diagonal_in: 27.0,
            brightness: 0.85,
            distance_m: 0.5,
            kind: PanelKind::Led,
        }
    }

    /// A 24-inch desktop monitor at the same distance.
    pub fn monitor_24in() -> Self {
        Screen {
            diagonal_in: 24.0,
            brightness: 0.85,
            distance_m: 0.5,
            kind: PanelKind::Led,
        }
    }

    /// A 21.5-inch desktop monitor at the same distance.
    pub fn monitor_21in() -> Self {
        Screen {
            diagonal_in: 21.5,
            brightness: 0.85,
            distance_m: 0.5,
            kind: PanelKind::Led,
        }
    }

    /// A 19-inch desktop monitor at the same distance — the smallest panel
    /// in the Fig. 13 testbed sweep.
    pub fn monitor_19in() -> Self {
        Screen {
            diagonal_in: 19.0,
            brightness: 0.85,
            distance_m: 0.5,
            kind: PanelKind::Led,
        }
    }

    /// A 14-inch laptop panel at 0.45 m.
    pub fn laptop_14in() -> Self {
        Screen {
            diagonal_in: 14.0,
            brightness: 0.85,
            distance_m: 0.45,
            kind: PanelKind::Led,
        }
    }

    /// A 6-inch smartphone held close (~10 cm) — the configuration the
    /// paper found workable for phones.
    pub fn phone_6in_close() -> Self {
        Screen {
            diagonal_in: 6.0,
            brightness: 0.85,
            distance_m: 0.10,
            kind: PanelKind::Oled,
        }
    }

    /// A 6-inch smartphone at arm's length (~40 cm) — too dim to defend,
    /// per Sec. VIII-E.
    pub fn phone_6in_far() -> Self {
        Screen {
            diagonal_in: 6.0,
            brightness: 0.85,
            distance_m: 0.40,
            kind: PanelKind::Oled,
        }
    }

    /// Panel area in m² (16:9 aspect).
    pub fn area_m2(&self) -> f64 {
        let d = self.diagonal_in * 0.0254;
        (d * W_FACTOR) * (d * H_FACTOR)
    }

    /// Luma-equivalent illuminance gain: the incident illuminance on the
    /// face (in luma-equivalent units) per unit of displayed luminance.
    ///
    /// `E_screen(t) = gain · L_display(t)` — Eq. 1's `E_c` for the screen
    /// term.
    pub fn illuminance_gain(&self) -> f64 {
        COUPLING * self.area_m2() / (self.distance_m * self.distance_m)
            * self.brightness
            * self.kind.efficiency()
    }

    /// Incident luma-equivalent illuminance for displayed luminance
    /// `display_luma` (0–255), including the panel's black-level floor.
    pub fn incident(&self, display_luma: f64) -> f64 {
        let floor = self.kind.black_level() * 255.0;
        self.illuminance_gain() * (display_luma.clamp(0.0, 255.0).max(floor))
    }
}

impl Default for Screen {
    fn default() -> Self {
        Screen::dell_27in()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Screen::new(0.0, 0.5, 0.5, PanelKind::Led).is_err());
        assert!(Screen::new(27.0, 1.5, 0.5, PanelKind::Led).is_err());
        assert!(Screen::new(27.0, 0.5, 0.0, PanelKind::Led).is_err());
        assert!(Screen::new(27.0, 0.85, 0.5, PanelKind::Led).is_ok());
    }

    #[test]
    fn area_of_27in_panel() {
        let s = Screen::dell_27in();
        // 27" 16:9 -> 0.598 x 0.336 m = 0.201 m^2.
        assert!((s.area_m2() - 0.201).abs() < 0.005, "{}", s.area_m2());
    }

    #[test]
    fn gain_decreases_with_size() {
        let g27 = Screen::dell_27in().illuminance_gain();
        let g21 = Screen::monitor_21in().illuminance_gain();
        let g14 = Screen::laptop_14in().illuminance_gain();
        let g6 = Screen::phone_6in_far().illuminance_gain();
        assert!(g27 > g21 && g21 > g14 && g14 > g6);
    }

    #[test]
    fn phone_close_rivals_monitor() {
        let close = Screen::phone_6in_close().illuminance_gain();
        let monitor = Screen::dell_27in().illuminance_gain();
        assert!(
            close > 0.5 * monitor && close < 2.0 * monitor,
            "close {close} vs monitor {monitor}"
        );
        let far = Screen::phone_6in_far().illuminance_gain();
        assert!(far < 0.15 * monitor, "far {far} vs monitor {monitor}");
    }

    #[test]
    fn gain_scales_with_inverse_square_distance() {
        let near = Screen::new(27.0, 0.85, 0.25, PanelKind::Led).unwrap();
        let far = Screen::new(27.0, 0.85, 0.5, PanelKind::Led).unwrap();
        let ratio = near.illuminance_gain() / far.illuminance_gain();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn incident_swing_honours_display_limits() {
        let s = Screen::dell_27in();
        let swing = |base: f64, delta: f64| s.incident(base + delta) - s.incident(base);
        // Mid-grey operating point: the swing is linear in the step.
        let up = swing(120.0, 10.0);
        let down = swing(120.0, -10.0);
        assert!((up - s.illuminance_gain() * 10.0).abs() < 1e-9, "{up}");
        assert!((up + down).abs() < 1e-9, "asymmetric mid-range swing");
        // Near white the upward step is clipped by the display range...
        assert!(swing(250.0, 10.0) < up * 0.6);
        // ...and a step fully below the black-level floor is swallowed.
        assert_eq!(swing(0.0, -10.0), 0.0);
    }

    #[test]
    fn feasibility_calibration_anchor() {
        // Black->white full swing on the paper's testbed raises incident
        // light by gain * 255; with the camera's typical exposure gain
        // (~1.0-1.4) this must land near the observed ~27 grey levels.
        let swing = Screen::dell_27in().illuminance_gain() * 255.0;
        assert!(
            (15.0..45.0).contains(&swing),
            "full-swing incident {swing} out of calibration band"
        );
    }

    #[test]
    fn black_level_floors_incident_light() {
        let led = Screen::dell_27in();
        assert!(led.incident(0.0) > 0.0);
        let oled = Screen::phone_6in_close();
        assert_eq!(oled.incident(0.0), 0.0);
    }

    #[test]
    fn incident_clamps_display_range() {
        let s = Screen::dell_27in();
        assert_eq!(s.incident(300.0), s.incident(255.0));
    }
}
