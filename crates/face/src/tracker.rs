//! Temporal landmark tracking.
//!
//! Sec. V of the paper names "inaccurate face localization" as a noise
//! source that jitters the interest area. The tracker smooths detections
//! with an exponential moving average.

use crate::landmarks::{Landmark, LandmarkSet};

/// An exponential-moving-average landmark tracker.
#[derive(Debug, Clone)]
pub struct LandmarkTracker {
    alpha: f64,
    state: Option<LandmarkSet>,
}

impl LandmarkTracker {
    /// Creates a tracker. `alpha` in `(0, 1]` is the EMA weight of the new
    /// detection (1.0 = no smoothing); values outside the range are
    /// clamped.
    pub fn new(alpha: f64) -> Self {
        LandmarkTracker {
            alpha: alpha.clamp(0.05, 1.0),
            state: None,
        }
    }

    /// The current smoothed landmark estimate, if any detection has been
    /// observed.
    pub fn current(&self) -> Option<&LandmarkSet> {
        self.state.as_ref()
    }

    /// Feeds one detection (or `None` on detection failure) and returns the
    /// updated estimate. On failure the tracker coasts on its last state.
    pub fn update(&mut self, detection: Option<LandmarkSet>) -> Option<LandmarkSet> {
        if let Some(det) = detection {
            let next = match &self.state {
                None => det,
                Some(prev) => blend(prev, &det, self.alpha),
            };
            self.state = Some(next);
        }
        self.state
    }
}

fn blend(prev: &LandmarkSet, new: &LandmarkSet, alpha: f64) -> LandmarkSet {
    let mix = |a: &Landmark, b: &Landmark| {
        Landmark::new(a.x + alpha * (b.x - a.x), a.y + alpha * (b.y - a.y))
    };
    LandmarkSet {
        nasal_bridge: [
            mix(&prev.nasal_bridge[0], &new.nasal_bridge[0]),
            mix(&prev.nasal_bridge[1], &new.nasal_bridge[1]),
            mix(&prev.nasal_bridge[2], &new.nasal_bridge[2]),
            mix(&prev.nasal_bridge[3], &new.nasal_bridge[3]),
        ],
        nasal_tip: [
            mix(&prev.nasal_tip[0], &new.nasal_tip[0]),
            mix(&prev.nasal_tip[1], &new.nasal_tip[1]),
            mix(&prev.nasal_tip[2], &new.nasal_tip[2]),
            mix(&prev.nasal_tip[3], &new.nasal_tip[3]),
            mix(&prev.nasal_tip[4], &new.nasal_tip[4]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FaceGeometry;

    fn landmarks_at(dx: f64) -> LandmarkSet {
        FaceGeometry::centered(160, 120).moved(dx, 0.0).landmarks()
    }

    #[test]
    fn first_detection_initializes() {
        let mut t = LandmarkTracker::new(0.5);
        assert!(t.current().is_none());
        let out = t.update(Some(landmarks_at(0.0))).unwrap();
        assert_eq!(out, landmarks_at(0.0));
    }

    #[test]
    fn ema_smooths_jumps() {
        let mut t = LandmarkTracker::new(0.5);
        t.update(Some(landmarks_at(0.0)));
        let out = t.update(Some(landmarks_at(10.0))).unwrap();
        let x = out.lower_bridge().x;
        let x0 = landmarks_at(0.0).lower_bridge().x;
        assert!((x - (x0 + 5.0)).abs() < 1e-9, "x {x}");
    }

    #[test]
    fn coasts_through_detection_failure() {
        let mut t = LandmarkTracker::new(0.7);
        t.update(Some(landmarks_at(3.0)));
        let held = t.update(None).unwrap();
        assert_eq!(held, landmarks_at(3.0));
    }
}
