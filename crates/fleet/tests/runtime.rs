//! Fleet runtime integration: admission tiers, stealing, accounting and
//! composable checkpoint/restore.

use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_fleet::{
    AdmissionConfig, Fleet, FleetAdmitOutcome, FleetConfig, FleetEvent, FleetSnapshot,
};
use lumen_obs::Recorder;
use lumen_serve::{CheckpointStore, MemStorage, ServeConfig, StoreConfig};
use std::sync::OnceLock;

fn detector() -> Detector {
    static DET: OnceLock<Detector> = OnceLock::new();
    DET.get_or_init(|| {
        let chats = ScenarioBuilder::default();
        let training: Vec<_> = (0..15)
            .map(|i| chats.legitimate(0, 90_000 + i).unwrap())
            .collect();
        Detector::train_from_traces(&training, Config::default()).unwrap()
    })
    .clone()
}

fn stream() -> StreamingDetector {
    StreamingDetector::new(detector(), 15.0, 3).unwrap()
}

fn pair(seed: u64) -> TracePair {
    ScenarioBuilder::default().legitimate(0, seed).unwrap()
}

fn relaxed_fleet(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        seed: 7,
        shard: ServeConfig {
            deadline_ticks: 1_000,
            ..ServeConfig::default()
        },
        admission: AdmissionConfig::default(),
        max_steals_per_tick: 8,
    }
}

/// Feeds one trace pair into a fleet session, ticking after every sample
/// and asserting the conservation ledger at every step.
fn feed_pair(fleet: &mut Fleet, session: u64, pair: &TracePair) {
    for (tx, rx) in pair.tx.samples().iter().zip(pair.rx.samples()) {
        fleet.offer(session, *tx, *rx).unwrap();
        fleet.tick();
        assert!(fleet.ledger().holds(), "ledger broke: {:?}", fleet.ledger());
    }
}

#[test]
fn serves_across_shards_with_exact_accounting() {
    let mut fleet = Fleet::new(relaxed_fleet(3)).unwrap();
    let mut sessions = Vec::new();
    for key in 0..6u64 {
        match fleet.admit(key, stream()) {
            FleetAdmitOutcome::Admitted { session, shard } => {
                assert_eq!(fleet.shard_of_session(session), shard);
                sessions.push(session);
            }
            other => panic!("admission refused: {other:?}"),
        }
    }
    assert_eq!(fleet.sessions(), 6);
    let p = pair(1234);
    for &s in &sessions {
        feed_pair(&mut fleet, s, &p);
    }
    // Drain the queues, then the summed identity must close.
    for _ in 0..200 {
        fleet.tick();
    }
    let stats = fleet.shard_stats();
    assert!(stats.served_clips > 0, "nothing served");
    assert_eq!(stats.served_clips + stats.shed_clips, stats.offered_clips);
    assert_eq!(fleet.pending_clips(), 0);
    // Every session produced verdicts under its fleet id.
    let events = fleet.drain_events();
    for &s in &sessions {
        assert!(
            events.iter().any(|e| e.session == s),
            "no events for session {s}"
        );
    }
}

#[test]
fn admission_bucket_throttles_typed_and_counted() {
    let mut config = relaxed_fleet(2);
    config.admission = AdmissionConfig {
        burst_sessions: 2,
        refill_per_tick: 0.0,
    };
    let mut fleet = Fleet::new(config).unwrap();
    assert!(fleet.admit(0, stream()).session().is_some());
    assert!(fleet.admit(1, stream()).session().is_some());
    assert_eq!(fleet.admit(2, stream()), FleetAdmitOutcome::Throttled);
    let stats = fleet.stats();
    assert_eq!(stats.offered_sessions, 3);
    assert_eq!(stats.admitted_sessions, 2);
    assert_eq!(stats.throttled_sessions, 1);
}

#[test]
fn hot_shard_skew_triggers_stealing_and_keeps_the_ledger() {
    let mut config = relaxed_fleet(2);
    // Tiny per-shard budget so the loaded shard falls behind.
    config.shard.budget_clips = 1;
    config.shard.budget_period_ticks = 40;
    config.shard.queue_clips = 4;
    let mut fleet = Fleet::new(config).unwrap();
    // Pick keys that all hash onto one shard: seeded hot-shard skew.
    let hot = fleet.shard_of_key(0);
    let keys: Vec<u64> = (0..200u64)
        .filter(|&k| fleet.shard_of_key(k) == hot)
        .take(4)
        .collect();
    assert_eq!(keys.len(), 4, "not enough keys landed on shard {hot}");
    let sessions: Vec<u64> = keys
        .iter()
        .map(|&k| fleet.admit(k, stream()).session().expect("admitted"))
        .collect();
    let p = pair(77);
    for (tx, rx) in p.tx.samples().iter().zip(p.rx.samples()) {
        for &s in &sessions {
            fleet.offer(s, *tx, *rx).unwrap();
        }
        fleet.tick();
        assert!(fleet.ledger().holds(), "ledger broke: {:?}", fleet.ledger());
    }
    for _ in 0..400 {
        fleet.tick();
        assert!(fleet.ledger().holds());
    }
    assert!(
        fleet.stats().steals > 0,
        "idle shard never donated credits to the hot shard"
    );
    let idle = 1 - hot;
    assert_eq!(
        fleet.shard(idle).unwrap().stats().offered_clips,
        0,
        "skew setup leaked clips onto the idle shard"
    );
}

fn verdict_events(events: &[FleetEvent]) -> Vec<&FleetEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                lumen_serve::SessionEventKind::Verdict(_)
                    | lumen_serve::SessionEventKind::Shed { .. }
            )
        })
        .collect()
}

#[test]
fn mid_clip_restore_replays_byte_identical() {
    let config = relaxed_fleet(2);
    let p = pair(4242);
    let samples: Vec<(f64, f64)> =
        p.tx.samples()
            .iter()
            .zip(p.rx.samples())
            .map(|(&tx, &rx)| (tx, rx))
            .collect();
    let cut = samples.len() / 2 + 3; // mid-clip, not on a boundary

    // Reference: uninterrupted run.
    let mut reference = Fleet::new(config.clone()).unwrap();
    let sessions: Vec<u64> = (0..4u64)
        .map(|k| reference.admit(k, stream()).session().expect("admitted"))
        .collect();
    let mut snapshot: Option<FleetSnapshot> = None;
    for (i, &(tx, rx)) in samples.iter().enumerate() {
        if i == cut {
            snapshot = Some(reference.snapshot());
        }
        for &s in &sessions {
            reference.offer(s, tx, rx).unwrap();
        }
        reference.tick();
    }
    for _ in 0..100 {
        reference.tick();
    }
    let reference_events = reference.drain_events();

    // Kill/restore at the cut, replay the tail through a store round-trip.
    let mut store: CheckpointStore<MemStorage, FleetSnapshot> =
        CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
    store.commit(0, &snapshot.expect("cut inside run")).unwrap();
    let (mut restored, report) = Fleet::restore_from_store(
        config,
        &mut store,
        |_| StreamingDetector::new(detector(), 15.0, 3),
        &Recorder::null(),
    )
    .unwrap();
    assert_eq!(report.restored_sessions(), 4);
    assert!(report.quarantined_sessions().is_empty());
    for &(tx, rx) in &samples[cut..] {
        for &s in &sessions {
            restored.offer(s, tx, rx).unwrap();
        }
        restored.tick();
    }
    for _ in 0..100 {
        restored.tick();
    }
    let restored_events = restored.drain_events();

    // The restored run must replay the post-cut verdict stream
    // byte-identically; the reference's early events (pre-cut) are a
    // prefix, so compare the tails per session.
    for &s in &sessions {
        let all: Vec<_> = verdict_events(&reference_events)
            .into_iter()
            .filter(|e| e.session == s)
            .cloned()
            .collect();
        let tail: Vec<_> = verdict_events(&restored_events)
            .into_iter()
            .filter(|e| e.session == s)
            .cloned()
            .collect();
        assert!(
            tail.len() <= all.len(),
            "restored session {s} produced more verdicts than the reference"
        );
        assert_eq!(
            &all[all.len() - tail.len()..],
            &tail[..],
            "session {s} diverged after restore"
        );
    }
    assert!(restored.ledger().holds());
}

#[test]
fn threaded_and_serial_stepping_agree() {
    let config = relaxed_fleet(3);
    let p = pair(99);
    let samples: Vec<(f64, f64)> =
        p.tx.samples()
            .iter()
            .zip(p.rx.samples())
            .map(|(&tx, &rx)| (tx, rx))
            .collect();

    let run = |threaded: bool| -> (Vec<FleetEvent>, FleetSnapshot) {
        let mut fleet = Fleet::new(config.clone()).unwrap();
        let sessions: Vec<u64> = (0..6u64)
            .map(|k| fleet.admit(k, stream()).session().expect("admitted"))
            .collect();
        for &(tx, rx) in &samples {
            for &s in &sessions {
                fleet.offer(s, tx, rx).unwrap();
            }
            if threaded {
                fleet.step_shards(|_, shard| {
                    shard.tick();
                });
            } else {
                fleet.tick();
            }
        }
        for _ in 0..60 {
            fleet.tick();
        }
        (fleet.drain_events(), fleet.snapshot())
    };

    let (serial_events, serial_snap) = run(false);
    let (threaded_events, threaded_snap) = run(true);
    assert_eq!(serial_events, threaded_events);
    assert_eq!(serial_snap, threaded_snap);
}
