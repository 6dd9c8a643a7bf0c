//! Luminance extraction from frames (Sec. IV).
//!
//! The fast path of the library operates on luminance traces directly (the
//! chat simulator produces them), but the paper's step 5 starts from
//! *frames*: the transmitted video is compressed to one pixel per frame
//! ([`Frame::mean_luminance`]), and the received video contributes the
//! mean luminance of the nasal-bridge interest square located by the
//! landmark detector. This module implements the received side of that
//! frame path, tying `lumen-face` into the pipeline; an end-to-end
//! consistency test lives in the workspace integration suite.

use crate::{CoreError, Result};
use lumen_dsp::Signal;
use lumen_face::detect::detect_landmarks;
use lumen_face::roi::roi_luminance;
use lumen_face::tracker::LandmarkTracker;
use lumen_video::frame::Frame;

/// ROI luminance of each received frame: landmarks are detected per frame,
/// smoothed by `tracker`, and the interest-square luminance extracted.
///
/// Frames where detection fails *and* no previous landmarks exist are
/// filled with the first successful reading afterwards (leading gap); later
/// failures coast on the tracker state, mirroring how a real pipeline holds
/// the last known ROI.
///
/// # Errors
///
/// Returns [`CoreError::Video`] when no frame in the whole clip yields a
/// detectable face, and propagates signal-construction errors.
pub fn received_roi_luminance(
    frames: &[Frame],
    sample_rate: f64,
    tracker: &mut LandmarkTracker,
) -> Result<Signal> {
    if frames.is_empty() {
        return Err(CoreError::from(lumen_dsp::DspError::EmptySignal));
    }
    let mut samples: Vec<Option<f64>> = Vec::with_capacity(frames.len());
    for frame in frames {
        let detection = detect_landmarks(frame);
        let landmarks = tracker.update(detection);
        match landmarks {
            Some(lm) => match roi_luminance(frame, &lm) {
                Ok(l) => samples.push(Some(l)),
                Err(_) => samples.push(samples.last().copied().flatten()),
            },
            None => samples.push(None),
        }
    }
    // Fill the leading gap with the first real reading.
    let first = samples.iter().flatten().next().copied().ok_or_else(|| {
        CoreError::from(lumen_video::VideoError::invalid_parameter(
            "frames",
            "no face detected in any frame",
        ))
    })?;
    let mut filled = Vec::with_capacity(samples.len());
    let mut last = first;
    for s in samples {
        if let Some(v) = s {
            last = v;
        }
        filled.push(last);
    }
    Ok(Signal::new(filled, sample_rate)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_face::geometry::FaceGeometry;
    use lumen_face::render::FaceRenderer;
    use lumen_video::pixel::Rgb;

    fn face_frames(levels: &[f64]) -> Vec<Frame> {
        let geom = FaceGeometry::centered(160, 120);
        let renderer = FaceRenderer::default();
        levels
            .iter()
            .map(|&l| renderer.render(&geom, l).unwrap())
            .collect()
    }

    #[test]
    fn empty_frame_list_errors() {
        let mut tracker = LandmarkTracker::new(0.6);
        assert!(received_roi_luminance(&[], 10.0, &mut tracker).is_err());
    }

    #[test]
    fn roi_trace_follows_skin_level() {
        let frames = face_frames(&[100.0, 100.0, 140.0, 140.0]);
        let mut tracker = LandmarkTracker::new(0.8);
        let s = received_roi_luminance(&frames, 10.0, &mut tracker).unwrap();
        assert_eq!(s.len(), 4);
        assert!(
            s.samples()[3] > s.samples()[0] + 20.0,
            "trace {:?}",
            s.samples()
        );
    }

    #[test]
    fn faceless_clip_errors() {
        let frames = vec![Frame::filled(160, 120, Rgb::grey(40)).unwrap(); 3];
        let mut tracker = LandmarkTracker::new(0.6);
        assert!(received_roi_luminance(&frames, 10.0, &mut tracker).is_err());
    }

    #[test]
    fn detection_gap_coasts() {
        let geom = FaceGeometry::centered(160, 120);
        let renderer = FaceRenderer::default();
        let frames = vec![
            renderer.render(&geom, 130.0).unwrap(),
            Frame::filled(160, 120, Rgb::grey(40)).unwrap(), // face lost
            renderer.render(&geom, 130.0).unwrap(),
        ];
        let mut tracker = LandmarkTracker::new(0.8);
        let s = received_roi_luminance(&frames, 10.0, &mut tracker).unwrap();
        assert_eq!(s.len(), 3);
        // The gap frame reads the held ROI on a blank background (darker),
        // but must produce *some* finite value.
        assert!(s.samples()[1] >= 0.0);
    }
}
