//! Compute-feasibility model for reenactment pipelines.
//!
//! Sec. VIII-J argues that even an attacker who *can* forge the reflected
//! luminance cannot do it fast enough: the extra image-processing layer
//! pushes the per-frame latency beyond what real-time chat tolerates, and
//! "the rejection rate quickly rises to about 80 % when the delay is 1.3
//! seconds". This module makes that argument executable.

/// Per-frame cost model of an attack pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Milliseconds of processing per output frame.
    pub per_frame_ms: f64,
    /// Pipeline depth: frames in flight (adds latency, not throughput).
    pub pipeline_depth: usize,
}

impl ComputeModel {
    /// ICFace-class reenactment at its best reported rate (≈ 47.5 Hz,
    /// Sec. II-A).
    pub fn icface() -> Self {
        ComputeModel {
            per_frame_ms: 1000.0 / 47.5,
            pipeline_depth: 2,
        }
    }

    /// Achievable output frame rate.
    pub fn achievable_fps(&self) -> f64 {
        if self.per_frame_ms <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / self.per_frame_ms
        }
    }

    /// End-to-end added latency in seconds (pipeline depth × frame cost).
    pub fn latency_s(&self) -> f64 {
        self.pipeline_depth as f64 * self.per_frame_ms / 1000.0
    }

    /// `true` when the pipeline can sustain `fps` output.
    pub fn can_sustain(&self, fps: f64) -> bool {
        self.achievable_fps() >= fps
    }

    /// The same pipeline with an extra luminance-forgery stage: per-frame
    /// relighting of the synthesized face given head/camera/screen geometry.
    /// `relight_ms` is the added per-frame cost; the stage also deepens the
    /// pipeline (it needs the observed screen luminance, which arrives a
    /// round trip late).
    pub fn with_luminance_forgery(self, relight_ms: f64) -> ComputeModel {
        ComputeModel {
            per_frame_ms: self.per_frame_ms + relight_ms.max(0.0),
            pipeline_depth: self.pipeline_depth + 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_matches_cited_rate() {
        assert!((ComputeModel::icface().achievable_fps() - 47.5).abs() < 0.1);
    }

    #[test]
    fn reenactment_sustains_chat_rates() {
        // Plain reenactment is real-time at typical 24-30 fps chat rates —
        // the reason the attack is dangerous at all.
        assert!(ComputeModel::icface().can_sustain(30.0));
    }

    #[test]
    fn luminance_forgery_breaks_realtime() {
        // A per-frame relighting pass (ray-traced or generative, ≥ 60 ms on
        // attacker-class hardware) drops the pipeline below chat rates and
        // pushes latency beyond the paper's 1.3 s rejection knee.
        let forging = ComputeModel::icface().with_luminance_forgery(60.0);
        assert!(!forging.can_sustain(24.0));
        let heavy = ComputeModel::icface().with_luminance_forgery(280.0);
        assert!(
            heavy.latency_s() > 1.3,
            "latency {} s below the Fig. 17 knee",
            heavy.latency_s()
        );
    }

    #[test]
    fn latency_grows_with_depth() {
        let base = ComputeModel::icface();
        let forged = base.with_luminance_forgery(10.0);
        assert!(forged.latency_s() > base.latency_s());
    }

    #[test]
    fn zero_cost_is_infinite_fps() {
        let m = ComputeModel {
            per_frame_ms: 0.0,
            pipeline_depth: 1,
        };
        assert!(m.achievable_fps().is_infinite());
        assert!(m.can_sustain(1e9));
    }
}
