//! Facial-landmark detection by nasal-ridge brightness analysis.
//!
//! The detector stands in for the paper's Python facial-recognition API
//! (Sec. IV). It makes no use of the renderer's ground truth: it segments
//! the face as the bright blob, locates the specular nasal ridge as the
//! brightest vertical band near the face axis, measures the band's vertical
//! extent, and reconstructs the nine nasal landmarks from the band geometry.

use crate::geometry::{FaceGeometry, RIDGE_BOTTOM, RIDGE_TOP};
use crate::landmarks::LandmarkSet;
use lumen_video::frame::Frame;

/// Minimum fraction of frame pixels that must belong to the face blob for a
/// detection to be accepted.
const MIN_FACE_FRACTION: f64 = 0.02;
/// Minimum ridge-band height in pixels.
const MIN_RIDGE_PIXELS: usize = 3;

/// Detects the nasal landmark set in `frame`, or `None` when no face (or no
/// usable ridge) is visible.
///
/// # Example
///
/// ```
/// use lumen_face::{geometry::FaceGeometry, render::FaceRenderer, detect::detect_landmarks};
///
/// let geom = FaceGeometry::centered(160, 120);
/// let frame = FaceRenderer::default().render(&geom, 130.0).unwrap();
/// let found = detect_landmarks(&frame).expect("face visible");
/// let truth = geom.landmarks();
/// assert!(found.rms_error(&truth) < 6.0);
/// ```
pub fn detect_landmarks(frame: &Frame) -> Option<LandmarkSet> {
    let w = frame.width();
    let h = frame.height();
    let lumas: Vec<f64> = frame.pixels().iter().map(|p| p.luminance()).collect();
    let min = lumas.iter().cloned().fold(f64::MAX, f64::min);
    let max = lumas.iter().cloned().fold(f64::MIN, f64::max);
    if max - min < 20.0 {
        return None; // No contrast: no face against background.
    }

    // 1. Face blob: pixels above the mid threshold.
    let threshold = 0.5 * (min + max);
    let mut count = 0usize;
    let mut sum_x = 0.0;
    let mut min_y = h;
    let mut max_y = 0usize;
    for y in 0..h {
        for x in 0..w {
            if lumas[y * w + x] > threshold {
                count += 1;
                sum_x += x as f64;
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
        }
    }
    if (count as f64) < MIN_FACE_FRACTION * (w * h) as f64 {
        return None;
    }
    let face_cx = sum_x / count as f64;
    let face_h = (max_y - min_y + 1) as f64;
    // Face ellipse height is 0.84 * scale.
    let scale_est = face_h / 0.84;
    let face_cy = (min_y as f64 + max_y as f64) / 2.0;

    // 2. Ridge column: brightest column average near the face axis, within
    //    the vertical band where a nose can sit.
    let x_lo = (face_cx - 0.12 * scale_est).floor().max(0.0) as usize;
    let x_hi = ((face_cx + 0.12 * scale_est).ceil() as usize).min(w - 1);
    let y_lo = (face_cy + (RIDGE_TOP - 0.06) * scale_est).floor().max(0.0) as usize;
    let y_hi = ((face_cy + (RIDGE_BOTTOM + 0.06) * scale_est).ceil() as usize).min(h - 1);
    if x_lo >= x_hi || y_lo >= y_hi {
        return None;
    }
    let col_mean = |x: usize| -> f64 {
        let mut s = 0.0;
        for y in y_lo..=y_hi {
            s += lumas[y * w + x];
        }
        s / (y_hi - y_lo + 1) as f64
    };
    let means: Vec<(usize, f64)> = (x_lo..=x_hi).map(|x| (x, col_mean(x))).collect();
    let (best_x, best_mean) = means.iter().cloned().max_by(|a, b| a.1.total_cmp(&b.1))?;
    // Sub-pixel ridge x: luminance-weighted centroid of columns within 90 %
    // of the peak mean.
    let cutoff = 0.9 * best_mean;
    let (mut wx, mut ws) = (0.0, 0.0);
    for &(x, m) in &means {
        if m >= cutoff {
            wx += x as f64 * m;
            ws += m;
        }
    }
    let ridge_x = if ws > 0.0 { wx / ws } else { best_x as f64 };

    // 3. Ridge band vertical extent in the best column: rows whose
    //    luminance exceeds midway between skin and ridge levels.
    let col = best_x;
    let column: Vec<f64> = (y_lo..=y_hi).map(|y| lumas[y * w + col]).collect();
    let ridge_level = column.iter().cloned().fold(f64::MIN, f64::max);
    // Skin level: sample the cheek midway off-axis at face center height.
    let cheek_x = ((face_cx + 0.17 * scale_est) as usize).min(w - 1);
    let cheek_y = (face_cy as usize).min(h - 1);
    let skin_level = lumas[cheek_y * w + cheek_x];
    let band_threshold = 0.5 * (skin_level + ridge_level);
    // Longest contiguous run above the threshold.
    let mut best_run = (0usize, 0usize);
    let mut run_start: Option<usize> = None;
    for (i, &v) in column.iter().enumerate() {
        if v >= band_threshold {
            run_start.get_or_insert(i);
        } else if let Some(s) = run_start.take() {
            if i - s > best_run.1 - best_run.0 {
                best_run = (s, i);
            }
        }
    }
    if let Some(s) = run_start {
        if column.len() - s > best_run.1 - best_run.0 {
            best_run = (s, column.len());
        }
    }
    let band_len = best_run.1 - best_run.0;
    if band_len < MIN_RIDGE_PIXELS {
        return None;
    }
    let band_top = (y_lo + best_run.0) as f64;
    let band_bottom = (y_lo + best_run.1 - 1) as f64;

    // 4. Invert the geometry: the band spans [RIDGE_TOP, RIDGE_BOTTOM]·scale.
    let scale = (band_bottom - band_top) / (RIDGE_BOTTOM - RIDGE_TOP);
    let cy = band_top - RIDGE_TOP * scale;
    let geom = FaceGeometry {
        cx: ridge_x,
        cy,
        scale,
    };
    Some(geom.landmarks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::FaceRenderer;
    use lumen_video::frame::Frame;
    use lumen_video::pixel::Rgb;

    #[test]
    fn detects_centered_face_accurately() {
        let geom = FaceGeometry::centered(160, 120);
        let frame = FaceRenderer::default().render(&geom, 140.0).unwrap();
        let found = detect_landmarks(&frame).expect("detection");
        let err = found.rms_error(&geom.landmarks());
        assert!(err < 6.0, "rms error {err}");
    }

    #[test]
    fn tracks_head_motion() {
        let base = FaceGeometry::centered(160, 120);
        let renderer = FaceRenderer::default();
        for (dx, dy) in [(-10.0, -5.0), (8.0, 4.0), (0.0, 7.0)] {
            let geom = base.moved(dx, dy);
            let frame = renderer.render(&geom, 130.0).unwrap();
            let found = detect_landmarks(&frame).expect("detection");
            let err = found.rms_error(&geom.landmarks());
            assert!(err < 7.0, "pose ({dx},{dy}): rms {err}");
        }
    }

    #[test]
    fn detection_is_illumination_invariant_in_position() {
        let geom = FaceGeometry::centered(160, 120);
        let renderer = FaceRenderer::default();
        let dark = detect_landmarks(&renderer.render(&geom, 90.0).unwrap()).unwrap();
        let bright = detect_landmarks(&renderer.render(&geom, 170.0).unwrap()).unwrap();
        assert!(dark.lower_bridge().distance(&bright.lower_bridge()) < 3.0);
    }

    /// The robustness bar behind "the ROI can be robustly located"
    /// (Sec. II-E): detection rate and RMS landmark error over a 5 × 3
    /// grid of head offsets at three illumination levels. Poses whose
    /// face leaves the frame are skipped.
    #[test]
    fn detector_clears_the_robustness_bar() {
        let renderer = FaceRenderer::default();
        let base = FaceGeometry::centered(renderer.width, renderer.height);
        let mut attempted = 0usize;
        let mut errors = Vec::new();
        for dx in [-12.0, -6.0, 0.0, 6.0, 12.0] {
            for dy in [-5.0, 0.0, 5.0] {
                let geom = base.moved(dx, dy);
                if !geom.fits(renderer.width, renderer.height) {
                    continue;
                }
                for level in [100.0, 130.0, 160.0] {
                    attempted += 1;
                    let frame = renderer.render(&geom, level).unwrap();
                    if let Some(found) = detect_landmarks(&frame) {
                        errors.push(found.rms_error(&geom.landmarks()));
                    }
                }
            }
        }
        let detection_rate = errors.len() as f64 / attempted as f64;
        let mean_rms_error = errors.iter().sum::<f64>() / errors.len() as f64;
        let max_rms_error = errors.iter().fold(0.0f64, |m, &e| m.max(e));
        assert!(attempted >= 40, "grid too small: {attempted}");
        assert!(detection_rate > 0.97, "detection rate {detection_rate}");
        assert!(mean_rms_error < 6.0, "mean rms {mean_rms_error}");
        assert!(max_rms_error < 12.0, "max rms {max_rms_error}");
    }

    #[test]
    fn rejects_blank_frame() {
        let frame = Frame::filled(160, 120, Rgb::grey(40)).unwrap();
        assert!(detect_landmarks(&frame).is_none());
    }

    #[test]
    fn rejects_noise_without_face() {
        // Random speckle: bright pixels everywhere, no coherent blob band.
        let frame = Frame::from_fn(160, 120, |x, y| {
            if (x * 7 + y * 13) % 97 < 2 {
                Rgb::grey(200)
            } else {
                Rgb::grey(30)
            }
        })
        .unwrap();
        // Either no detection, or a detection with a degenerate ridge is
        // not produced.
        if let Some(lm) = detect_landmarks(&frame) {
            // If something was found it must at least be inside the frame.
            assert!(lm.lower_bridge().x >= 0.0 && lm.lower_bridge().x < 160.0);
        }
    }

    #[test]
    fn roi_side_estimate_close_to_truth() {
        let geom = FaceGeometry::centered(200, 160);
        let frame = FaceRenderer {
            width: 200,
            height: 160,
            ..FaceRenderer::default()
        }
        .render(&geom, 140.0)
        .unwrap();
        let found = detect_landmarks(&frame).unwrap();
        let truth = geom.landmarks().roi_side();
        let got = found.roi_side();
        assert!(
            (got - truth).abs() / truth < 0.35,
            "roi side {got} vs truth {truth}"
        );
    }
}
