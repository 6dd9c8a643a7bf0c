//! Fleet runtime integration: admission tiers, stealing and accounting.
//! Checkpoint/restore replay is audited by the `fleet` experiment's
//! snapshot check and the restore proptest in the root `tests/fleet.rs`.

use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_fleet::{AdmissionConfig, Fleet, FleetAdmitOutcome, FleetConfig};
use lumen_serve::ServeConfig;
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
