//! Sec. IX analogue — per-stage computation overhead of the detection
//! pipeline.
//!
//! The paper reports how long each step of the defense takes on a laptop
//! and a phone (face tracking dominates; the luminance analysis itself is
//! cheap). This experiment reproduces that breakdown for the simulator's
//! pipeline: a trained detector runs over a batch of clips on one thread
//! with a live [`lumen_obs`] recorder, whose registry yields the per-stage
//! latency table — preprocess, change detection, feature extraction and
//! LOF scoring under the whole-clip `detect` span.

use crate::ExpResult;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::Config;
use lumen_obs::{stage, Recorder, Snapshot, SpanRow};
use serde::{Deserialize, Serialize};

/// The batch pipeline stages, in execution order, that make up the
/// machine-readable stage table.
pub const STAGES: &[&str] = &[
    stage::DETECT,
    stage::PREPROCESS,
    stage::CHANGE_DETECTION,
    stage::FEATURE_EXTRACTION,
    stage::LOF_SCORING,
];

/// Options for the overhead experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadOpts {
    /// Volunteer whose clips are processed.
    pub user: usize,
    /// Training clips for the detector.
    pub train_clips: usize,
    /// Clips detected under instrumentation (half legitimate, half attack).
    pub detect_clips: usize,
}

impl Default for OverheadOpts {
    fn default() -> Self {
        OverheadOpts {
            user: 0,
            train_clips: 15,
            detect_clips: 30,
        }
    }
}

/// The overhead-breakdown result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadResult {
    /// Clips processed under instrumentation.
    pub clips: usize,
    /// The per-stage latency table in pipeline execution order — the
    /// machine-readable core of the Sec. IX breakdown, consumed directly
    /// by the `lumen-bench` perf harness.
    pub stages: Vec<SpanRow>,
    /// Aggregated observability snapshot: per-stage latency distributions,
    /// verdict counters and feature-value histograms.
    pub snapshot: Snapshot,
}

impl OverheadResult {
    /// Renders the per-stage latency table and pipeline counters.
    pub fn print(&self) -> String {
        let mut out = format!(
            "## Sec. IX — per-stage computation overhead ({} clips)\n",
            self.clips
        );
        out.push_str(&lumen_obs::report::render_text(&self.snapshot));
        out
    }
}

/// Runs the overhead experiment.
///
/// # Errors
///
/// Propagates simulation, training and detection errors.
pub fn run(opts: OverheadOpts) -> ExpResult<OverheadResult> {
    let builder = ScenarioBuilder::default();
    let training: Vec<TracePair> = (0..opts.train_clips)
        .map(|i| builder.legitimate(opts.user, 700_000 + i as u64))
        .collect::<Result<_, _>>()?;
    let detector = Detector::train_from_traces(&training, Config::default())?;

    let pairs: Vec<TracePair> = (0..opts.detect_clips)
        .map(|i| {
            if i % 2 == 0 {
                builder.legitimate(opts.user, 710_000 + i as u64)
            } else {
                builder.reenactment(opts.user, 720_000 + i as u64)
            }
        })
        .collect::<Result<_, _>>()?;
    time_stages(&detector, &pairs, pairs.len())
}

/// Runs `detections` detections of `clips`, cycling through them, under
/// one in-memory recorder and tables their stage spans. Every detection
/// runs on this thread: with a worker per core, a span can wait out a
/// scheduler slice, and that wait then sets the table's tail.
///
/// # Errors
///
/// Fails when `clips` is empty and propagates detection errors.
pub fn time_stages(
    detector: &Detector,
    clips: &[TracePair],
    detections: usize,
) -> ExpResult<OverheadResult> {
    if clips.is_empty() {
        return Err("no clips to time".into());
    }
    let (recorder, sink) = Recorder::in_memory();
    let staged = detector.clone().with_recorder(recorder);
    for clip in clips.iter().cycle().take(detections) {
        staged.detect(clip)?;
    }
    let snapshot = sink.registry().snapshot();
    let stages = STAGES
        .iter()
        .filter_map(|name| snapshot.spans.iter().find(|s| s.name == *name).cloned())
        .collect();
    Ok(OverheadResult {
        clips: detections,
        stages,
        snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_obs::stage;

    #[test]
    fn overhead_breaks_down_every_stage() {
        let r = run(OverheadOpts {
            user: 0,
            train_clips: 10,
            detect_clips: 6,
        })
        .unwrap();
        assert_eq!(r.clips, 6);
        // The typed stage table lists every batch pipeline stage in order.
        assert_eq!(
            r.stages.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            STAGES
        );
        assert!(r.stages.iter().all(|s| s.count == 6));
        // Every batch pipeline stage appears with one span per clip.
        for name in [
            stage::DETECT,
            stage::PREPROCESS,
            stage::CHANGE_DETECTION,
            stage::FEATURE_EXTRACTION,
            stage::LOF_SCORING,
        ] {
            let row = r
                .snapshot
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing stage {name}"));
            assert_eq!(row.count, 6, "stage {name}");
            assert!(row.total_ms >= 0.0);
        }
        // Verdict counters cover every clip.
        let accepted: u64 = r
            .snapshot
            .counters
            .iter()
            .filter(|c| c.name == "detector.accepted" || c.name == "detector.rejected")
            .map(|c| c.value)
            .sum();
        assert_eq!(accepted, 6);
        let table = r.print();
        assert!(table.contains("Stage latency"));
        assert!(table.contains(stage::LOF_SCORING));
    }
}
