//! Shared fixtures for the `lumen-bench` timing harness.
//!
//! Sec. IX of the paper argues the defense fits resource-limited devices:
//! landmark detection runs at hundreds of fps, and "feature extraction and
//! classification can be quickly processed together within 0.2 seconds for
//! a luminance signal extracted from a 15-second facial video". The
//! `micro.*` rows of `lumen-bench run` regenerate those numbers on this
//! implementation from the fixtures below.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::session::SessionConfig;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::features::FeatureVector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_face::detect::detect_landmarks;
use lumen_face::geometry::FaceGeometry;
use lumen_face::landmarks::LandmarkSet;
use lumen_face::render::FaceRenderer;
use lumen_lof::knn::KnnIndex;
use lumen_probe::{ChallengeSchedule, ProbeConfig, ProbeInjector, ProbeVerifier, VerifierConfig};
use lumen_serve::{
    CheckpointStore, MemStorage, ServeConfig, StoreConfig, Supervisor, SupervisorSnapshot,
};
use lumen_video::frame::Frame;

/// A deterministic 15-second legitimate trace pair (10 Hz).
pub fn standard_pair() -> TracePair {
    ScenarioBuilder::default()
        .legitimate(0, 12_345)
        .expect("standard scenario")
}

/// A deterministic reenactment-attack trace pair.
pub fn attack_pair() -> TracePair {
    ScenarioBuilder::default()
        .reenactment(0, 12_345)
        .expect("standard attack scenario")
}

/// Twenty legitimate training pairs.
pub fn training_pairs() -> Vec<TracePair> {
    let chats = ScenarioBuilder::default();
    (0..20)
        .map(|i| chats.legitimate(0, 90_000 + i).expect("training scenario"))
        .collect()
}

/// A detector trained on [`training_pairs`] with paper defaults.
pub fn trained_detector() -> Detector {
    Detector::train_from_traces(&training_pairs(), Config::default()).expect("training succeeds")
}

/// The feature vector of [`standard_pair`] under paper defaults.
pub fn standard_features() -> FeatureVector {
    Detector::features_with(&standard_pair(), &Config::default()).expect("features extract")
}

/// A rendered face frame (160×120) for landmark benchmarks.
pub fn standard_frame() -> Frame {
    FaceRenderer::default()
        .render(&FaceGeometry::centered(160, 120), 130.0)
        .expect("render succeeds")
}

/// The landmarks of [`standard_frame`].
pub fn standard_landmarks() -> LandmarkSet {
    detect_landmarks(&standard_frame()).expect("face visible")
}

/// A brute-force k-NN index over twenty deterministic points in the 4-D
/// feature space: the detector's training-set scale (Sec. VII-A).
pub fn knn_index() -> KnnIndex {
    let points: Vec<Vec<f64>> = (0..20)
        .map(|i| {
            let t = i as f64;
            vec![
                (t * 0.37).sin().abs(),
                (t * 0.73).cos().abs(),
                (t * 0.11).sin() * 0.5 + 0.5,
                (t * 0.053).fract(),
            ]
        })
        .collect();
    KnnIndex::new(points).expect("k-NN index builds")
}

/// One active-probe round: a challenge, the armed legitimate response to
/// it and the verifier that judges the response.
pub struct ProbeRound {
    /// The probe configuration the challenge was drawn under.
    pub config: ProbeConfig,
    /// The challenge (seed 11).
    pub schedule: ChallengeSchedule,
    /// A legitimate caller's response to [`ProbeRound::schedule`].
    pub response: TracePair,
    /// A verifier with default settings.
    pub verifier: ProbeVerifier,
}

/// The standard [`ProbeRound`].
pub fn probe_round() -> ProbeRound {
    let config = ProbeConfig::default();
    let schedule = ChallengeSchedule::generate(&config, 11).expect("probe schedule");
    let response = ProbeInjector::new(schedule.clone())
        .armed_scenario(
            ScenarioBuilder::default()
                .with_session(config.session_config(1.5, &SessionConfig::default()))
                .with_static_caller(120.0),
        )
        .legitimate(0, 12)
        .expect("probe scenario");
    let verifier = ProbeVerifier::new(VerifierConfig::default()).expect("verifier");
    ProbeRound {
        config,
        schedule,
        response,
        verifier,
    }
}

/// Samples per 15-second clip at 10 Hz.
const CLIP_SAMPLES: usize = 150;

/// A supervisor checkpoint of `sessions` sessions caught mid-clip, the
/// shape a durable daemon commits. Each session streams one of eight
/// seeded legitimate traces through a vote-window-3 stream and starts
/// `150 · s / sessions` samples late; after two clip periods every
/// session has had a clip served, and their partial clips hold 0 to 149
/// samples.
pub fn checkpoint_snapshot(sessions: usize) -> SupervisorSnapshot {
    let detector = trained_detector();
    let chats = ScenarioBuilder::default();
    let pairs: Vec<TracePair> = (0..8)
        .map(|k| {
            chats
                .legitimate(0, 70_000 + k)
                .expect("checkpoint scenario")
        })
        .collect();
    let config = ServeConfig {
        max_sessions: sessions,
        budget_clips: sessions as u64,
        budget_period_ticks: 1,
        deadline_ticks: 1_000_000,
        ..ServeConfig::default()
    };
    let mut sup = Supervisor::new(config).expect("checkpoint serve config");
    for _ in 0..sessions {
        let stream = StreamingDetector::new(detector.clone(), 15.0, 3).expect("stream config");
        sup.admit(stream).session().expect("session admitted");
    }
    let phase = |s: usize| s * CLIP_SAMPLES / sessions.max(1);
    for turn in 0..2 * CLIP_SAMPLES {
        for s in 0..sessions {
            if let Some(i) = turn.checked_sub(phase(s)) {
                let pair = &pairs[s % pairs.len()];
                let i = i % CLIP_SAMPLES;
                sup.offer(s as u64, pair.tx.samples()[i], pair.rx.samples()[i])
                    .expect("session offered");
            }
        }
        sup.tick();
    }
    sup.snapshot()
}

/// An in-memory checkpoint store with the default policy, holding
/// `committed` as its generations, oldest first.
pub fn memory_store(committed: &[SupervisorSnapshot]) -> CheckpointStore<MemStorage> {
    let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default())
        .expect("default store config");
    for snap in committed {
        store.commit(snap.tick, snap).expect("in-memory commit");
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(standard_pair().tx.len(), 150);
        assert_eq!(attack_pair().rx.len(), 150);
        assert_eq!(training_pairs().len(), 20);
        let det = trained_detector();
        assert!(det.detect(&standard_pair()).unwrap().score > 0.0);
        assert_eq!(standard_frame().width(), 160);
        assert!(det.score(&standard_features()).is_ok());
        standard_landmarks();
        assert_eq!(knn_index().len(), 20);
        let probe = probe_round();
        assert!(probe
            .verifier
            .verify(&probe.schedule, &probe.response)
            .is_ok());
        let snap = checkpoint_snapshot(8);
        assert_eq!(snap.sessions.len(), 8);
        assert!(snap.sessions.iter().all(|s| s.stream.clips_done >= 1));
        let partial: Vec<usize> = snap
            .sessions
            .iter()
            .map(|s| s.stream.tx_buffer.len())
            .collect();
        assert_eq!(partial, [0, 132, 113, 94, 75, 57, 38, 19]);
        let mut store = memory_store(std::slice::from_ref(&snap));
        let loaded = store.load_latest().unwrap().loaded.unwrap();
        assert_eq!(loaded.snapshot, snap);
    }
}
