//! Pixels and luminance.
//!
//! Eq. 3 of the paper defines luminance as `C = 0.2126 R + 0.7152 G +
//! 0.0722 B` (the printed `0.722` blue coefficient is a typo — the Rec. 709
//! luma weights must sum to 1; see DESIGN.md §2).

/// Rec. 709 luma weight for red.
pub const LUMA_R: f64 = 0.2126;
/// Rec. 709 luma weight for green.
pub const LUMA_G: f64 = 0.7152;
/// Rec. 709 luma weight for blue.
pub const LUMA_B: f64 = 0.0722;

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel from channel values.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// A pure grey pixel of the given level.
    pub const fn grey(level: u8) -> Self {
        Rgb::new(level, level, level)
    }

    /// Black.
    pub const BLACK: Rgb = Rgb::grey(0);
    /// White.
    pub const WHITE: Rgb = Rgb::grey(255);

    /// Luminance of the pixel per Eq. 3 (Rec. 709 weights), in `[0, 255]`.
    ///
    /// # Example
    ///
    /// ```
    /// use lumen_video::pixel::Rgb;
    /// assert!((Rgb::WHITE.luminance() - 255.0).abs() < 1e-9);
    /// assert_eq!(Rgb::BLACK.luminance(), 0.0);
    /// ```
    pub fn luminance(self) -> f64 {
        LUMA_R * self.r as f64 + LUMA_G * self.g as f64 + LUMA_B * self.b as f64
    }

    /// Builds a grey pixel from a (clamped, rounded) luminance value.
    pub fn from_luminance(luma: f64) -> Self {
        Rgb::grey(luma.clamp(0.0, 255.0).round() as u8)
    }

    /// Scales every channel by `factor`, saturating at 255.
    pub fn scaled(self, factor: f64) -> Self {
        let scale = |c: u8| (c as f64 * factor).clamp(0.0, 255.0).round() as u8;
        Rgb::new(scale(self.r), scale(self.g), scale(self.b))
    }
}

impl From<(u8, u8, u8)> for Rgb {
    fn from((r, g, b): (u8, u8, u8)) -> Self {
        Rgb::new(r, g, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        assert!((LUMA_R + LUMA_G + LUMA_B - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grey_luminance_is_level() {
        for level in [0u8, 1, 17, 128, 200, 255] {
            assert!((Rgb::grey(level).luminance() - level as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn green_dominates_luminance() {
        let g = Rgb::new(0, 200, 0).luminance();
        let r = Rgb::new(200, 0, 0).luminance();
        let b = Rgb::new(0, 0, 200).luminance();
        assert!(g > r && r > b);
    }

    #[test]
    fn from_luminance_clamps_and_rounds() {
        assert_eq!(Rgb::from_luminance(300.0), Rgb::WHITE);
        assert_eq!(Rgb::from_luminance(-5.0), Rgb::BLACK);
        assert_eq!(Rgb::from_luminance(127.6), Rgb::grey(128));
    }

    #[test]
    fn scaled_saturates() {
        assert_eq!(Rgb::grey(200).scaled(2.0), Rgb::WHITE);
        assert_eq!(Rgb::grey(100).scaled(0.5), Rgb::grey(50));
    }

    #[test]
    fn tuple_conversion() {
        let p: Rgb = (1, 2, 3).into();
        assert_eq!(p, Rgb::new(1, 2, 3));
    }
}
