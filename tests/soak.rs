//! Soak: hundreds of sessions surviving repeated checkpoint/restore
//! cycles with exact shed accounting and byte-identical verdicts.
//!
//! Ignored by default (it detects hundreds of real clips); run with
//! `cargo test --release --test soak -- --ignored`.

use lumen::chat::feed::SampleFeed;
use lumen::chat::scenario::ScenarioBuilder;
use lumen::core::detector::Detector;
use lumen::core::stream::StreamingDetector;
use lumen::core::Config;
use lumen::experiments::replay::{ReplayAudit, SupervisorReplay};
use lumen::serve::{ServeConfig, Supervisor};

fn trained() -> Detector {
    let chats = ScenarioBuilder::default();
    let training: Vec<_> = (0..15)
        .map(|i| chats.legitimate(0, 50_000 + i).unwrap())
        .collect();
    Detector::train_from_traces(&training, Config::default()).unwrap()
}

fn config(sessions: usize) -> ServeConfig {
    ServeConfig {
        max_sessions: sessions,
        queue_clips: 2,
        // Ample budget: the soak exercises checkpoint cycles, not
        // shedding (the overload experiment covers that).
        budget_clips: sessions as u64,
        budget_period_ticks: 10,
        deadline_ticks: 10_000,
        ..ServeConfig::default()
    }
}

#[test]
#[ignore = "soak: hundreds of sessions x checkpoint cycles; run with --ignored"]
fn soak_hundreds_of_sessions_survive_checkpoint_cycles() {
    const SESSIONS: usize = 200;
    const CLIPS: usize = 3;
    const CLIP_SAMPLES: usize = 150;
    let template = StreamingDetector::new(trained(), 15.0, 3).unwrap();

    // Each session replays its own legitimate trace per clip.
    let chats = ScenarioBuilder::default();
    let feeds: Vec<_> = (0..SESSIONS as u64)
        .map(|id| {
            let clips: Vec<_> = (0..CLIPS as u64)
                .map(|clip| chats.legitimate(0, 51_000 + clip * 1_000 + id).unwrap())
                .collect();
            SampleFeed::from_pairs(&clips).unwrap()
        })
        .collect();
    let run = || {
        SupervisorReplay::new(
            Supervisor::new(config(SESSIONS)).unwrap(),
            &template,
            feeds.clone(),
        )
    };
    let (mut straight, mut cycled) = (run().unwrap(), run().unwrap());

    // `cycled` is torn down and restored from a serde snapshot mid-clip
    // (partial buffers live) and at every clip boundary (the clip just
    // queued); its verdicts, events and counters must stay equal.
    let audit = ReplayAudit {
        steps: CLIPS * CLIP_SAMPLES,
        kills: (0..CLIPS)
            .flat_map(|clip| [clip * CLIP_SAMPLES + 73, (clip + 1) * CLIP_SAMPLES - 1])
            .collect(),
    };
    let report = audit.run(&mut straight, &mut cycled).unwrap();
    assert!(
        report.ok(),
        "checkpoint cycles changed a verdict: {report:?}"
    );

    let stats = straight.supervisor().stats();
    assert_eq!(stats.offered_clips, (SESSIONS * CLIPS) as u64);
    assert_eq!(
        stats.served_clips + stats.shed_clips,
        stats.offered_clips,
        "every offered clip must be served or a counted shed"
    );
    for id in 0..SESSIONS as u64 {
        assert_eq!(
            straight.supervisor().stream(id).unwrap().clips_done(),
            CLIPS
        );
        assert_eq!(cycled.supervisor().stream(id).unwrap().clips_done(), CLIPS);
    }
}
