//! Image rasters.
//!
//! Sec. IV of the paper: "we first compress each frame of the transmitted
//! video into a single pixel, and use the luminance value of the compressed
//! pixel to represent the overall luminance of the transmitted video". That
//! compression is [`Frame::mean_luminance`]; ROI extraction for the received
//! video lives in `lumen-face`.

use crate::pixel::Rgb;
use crate::{Result, VideoError};

/// A rectangular region of a frame: origin `(x, y)`, `width × height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Region {
    /// Creates a region.
    pub const fn new(x: usize, y: usize, width: usize, height: usize) -> Self {
        Region {
            x,
            y,
            width,
            height,
        }
    }

    /// A square region centered at `(cx, cy)` with the given side length,
    /// clamped so it never extends past the origin (callers still need the
    /// frame-size check in [`Frame::region_luminance`]).
    ///
    /// This mirrors the paper's interested-area construction: a square of
    /// side `l = |b1 - b2|` centered on the lower nasal bridge (Fig. 5).
    pub fn square_centered(cx: usize, cy: usize, side: usize) -> Self {
        let half = side / 2;
        Region {
            x: cx.saturating_sub(half),
            y: cy.saturating_sub(half),
            width: side,
            height: side,
        }
    }
}

/// An owned 8-bit RGB image.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl Frame {
    /// Creates a frame filled with `fill`.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for a zero dimension.
    pub fn filled(width: usize, height: usize, fill: Rgb) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(VideoError::invalid_parameter(
                "width/height",
                format!("dimensions must be non-zero, got {width}x{height}"),
            ));
        }
        Ok(Frame {
            width,
            height,
            pixels: vec![fill; width * height],
        })
    }

    /// Creates a frame by evaluating `f(x, y)` for every pixel.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for a zero dimension.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> Rgb,
    ) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(VideoError::invalid_parameter(
                "width/height",
                format!("dimensions must be non-zero, got {width}x{height}"),
            ));
        }
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        Ok(Frame {
            width,
            height,
            pixels,
        })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`, or `None` when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> Option<Rgb> {
        (x < self.width && y < self.height).then(|| self.pixels[y * self.width + x])
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::OutOfBounds`] outside the frame.
    pub fn set(&mut self, x: usize, y: usize, pixel: Rgb) -> Result<()> {
        if x >= self.width || y >= self.height {
            return Err(VideoError::OutOfBounds {
                what: format!("pixel ({x}, {y}) in {}x{} frame", self.width, self.height),
            });
        }
        self.pixels[y * self.width + x] = pixel;
        Ok(())
    }

    /// Borrows the raw pixels in row-major order.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Mean luminance of the whole frame — the paper's "compress each frame
    /// into a single pixel" (Sec. IV).
    pub fn mean_luminance(&self) -> f64 {
        self.pixels.iter().map(|p| p.luminance()).sum::<f64>() / self.pixels.len() as f64
    }

    /// Mean luminance of `region`.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::OutOfBounds`] when the region leaves the frame
    /// and [`VideoError::InvalidParameter`] for an empty region.
    pub fn region_luminance(&self, region: Region) -> Result<f64> {
        if region.width == 0 || region.height == 0 {
            return Err(VideoError::invalid_parameter(
                "region",
                "region must have non-zero area",
            ));
        }
        if region.x + region.width > self.width || region.y + region.height > self.height {
            return Err(VideoError::OutOfBounds {
                what: format!("region {region:?} in {}x{} frame", self.width, self.height),
            });
        }
        let mut sum = 0.0;
        for y in region.y..region.y + region.height {
            for x in region.x..region.x + region.width {
                sum += self.pixels[y * self.width + x].luminance();
            }
        }
        Ok(sum / (region.width * region.height) as f64)
    }

    /// Downsamples by integer `factor` using box averaging (per channel).
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] when `factor` is zero or
    /// exceeds either dimension.
    pub fn downsample(&self, factor: usize) -> Result<Frame> {
        if factor == 0 || factor > self.width || factor > self.height {
            return Err(VideoError::invalid_parameter(
                "factor",
                format!(
                    "must be in [1, min({}, {})], got {factor}",
                    self.width, self.height
                ),
            ));
        }
        let w = self.width / factor;
        let h = self.height / factor;
        Frame::from_fn(w, h, |bx, by| {
            let mut r = 0.0;
            let mut g = 0.0;
            let mut b = 0.0;
            for y in by * factor..(by + 1) * factor {
                for x in bx * factor..(bx + 1) * factor {
                    let p = self.pixels[y * self.width + x];
                    r += p.r as f64;
                    g += p.g as f64;
                    b += p.b as f64;
                }
            }
            let n = (factor * factor) as f64;
            Rgb::new(
                (r / n).round() as u8,
                (g / n).round() as u8,
                (b / n).round() as u8,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_dimensions() {
        assert!(Frame::filled(0, 4, Rgb::BLACK).is_err());
        assert!(Frame::from_fn(4, 0, |_, _| Rgb::BLACK).is_err());
        assert!(Frame::filled(4, 4, Rgb::BLACK).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Frame::filled(4, 3, Rgb::BLACK).unwrap();
        f.set(2, 1, Rgb::WHITE).unwrap();
        assert_eq!(f.get(2, 1), Some(Rgb::WHITE));
        assert_eq!(f.get(4, 0), None);
        assert!(f.set(0, 3, Rgb::WHITE).is_err());
    }

    #[test]
    fn mean_luminance_of_uniform_frame() {
        let f = Frame::filled(8, 8, Rgb::grey(100)).unwrap();
        assert!((f.mean_luminance() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_luminance_of_split_frame() {
        let f = Frame::from_fn(10, 10, |x, _| if x < 5 { Rgb::BLACK } else { Rgb::WHITE }).unwrap();
        assert!((f.mean_luminance() - 127.5).abs() < 1e-9);
    }

    #[test]
    fn region_luminance_selects_subarea() {
        let f = Frame::from_fn(10, 10, |x, _| if x < 5 { Rgb::BLACK } else { Rgb::WHITE }).unwrap();
        let left = f.region_luminance(Region::new(0, 0, 5, 10)).unwrap();
        let right = f.region_luminance(Region::new(5, 0, 5, 10)).unwrap();
        assert_eq!(left, 0.0);
        assert!((right - 255.0).abs() < 1e-9);
        assert!(f.region_luminance(Region::new(6, 0, 5, 10)).is_err());
        assert!(f.region_luminance(Region::new(0, 0, 0, 10)).is_err());
    }

    #[test]
    fn square_centered_clamps_at_origin() {
        let r = Region::square_centered(1, 1, 6);
        assert_eq!((r.x, r.y), (0, 0));
        let r = Region::square_centered(10, 10, 4);
        assert_eq!((r.x, r.y, r.width, r.height), (8, 8, 4, 4));
    }

    #[test]
    fn downsample_averages_blocks() {
        let f = Frame::from_fn(4, 4, |x, y| {
            if (x + y) % 2 == 0 {
                Rgb::BLACK
            } else {
                Rgb::WHITE
            }
        })
        .unwrap();
        let d = f.downsample(2).unwrap();
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 2);
        // Each 2x2 block holds two black and two white pixels.
        assert_eq!(d.get(0, 0), Some(Rgb::grey(128)));
        assert!(f.downsample(0).is_err());
        assert!(f.downsample(5).is_err());
    }
}
