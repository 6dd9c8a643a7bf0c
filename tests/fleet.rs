//! Property tests for the sharded fleet runtime: composable snapshot
//! restore is byte-identical for never-quarantined sessions regardless
//! of shard count, and the work-stealing conservation ledger holds on
//! every tick under seeded hot-shard skew.

use lumen::chat::feed::SampleFeed;
use lumen::chat::scenario::ScenarioBuilder;
use lumen::chat::trace::TracePair;
use lumen::core::detector::Detector;
use lumen::core::stream::StreamingDetector;
use lumen::core::Config;
use lumen::experiments::replay::{FleetReplay, ReplayAudit};
use lumen::fleet::{AdmissionConfig, Fleet, FleetConfig};
use lumen::serve::ServeConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn detector() -> &'static Detector {
    static DET: OnceLock<Detector> = OnceLock::new();
    DET.get_or_init(|| {
        let chats = ScenarioBuilder::default();
        let training: Vec<_> = (0..12)
            .map(|i| chats.legitimate(0, 70_000 + i).expect("training trace"))
            .collect();
        Detector::train_from_traces(&training, Config::default()).expect("training succeeds")
    })
}

fn stream() -> StreamingDetector {
    StreamingDetector::new(detector().clone(), 15.0, 3).expect("valid stream config")
}

/// A small fixed pool of legitimate traces, one per session ordinal.
fn pool() -> &'static Vec<TracePair> {
    static POOL: OnceLock<Vec<TracePair>> = OnceLock::new();
    POOL.get_or_init(|| {
        let chats = ScenarioBuilder::default();
        (0..4)
            .map(|i| chats.legitimate(0, 72_000 + i).expect("pool trace"))
            .collect()
    })
}

fn relaxed(shards: usize, seed: u64, sessions: usize) -> FleetConfig {
    FleetConfig {
        shards,
        seed,
        shard: ServeConfig {
            max_sessions: sessions,
            budget_clips: 2,
            budget_period_ticks: 1,
            deadline_ticks: 10_000,
            ..ServeConfig::default()
        },
        admission: AdmissionConfig {
            burst_sessions: u32::try_from(sessions).expect("small count"),
            refill_per_tick: 1.0,
        },
        max_steals_per_tick: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fleet killed mid-clip into the checkpoint store and restored
    /// shard-by-shard replays every never-quarantined session
    /// byte-identically to the uninterrupted run — whatever the shard
    /// count, wherever the cut, and even when one session's snapshot
    /// entry rots and the restore quarantines it. The cut lands after a
    /// session's first clip is served, so its vote ring holds a vote.
    #[test]
    fn restore_is_byte_identical_for_unquarantined_sessions(
        shards in 1usize..=4,
        cut in 170usize..430,
        rot in any::<bool>(),
        rotted in 0usize..4,
        seed in 0u64..512,
    ) {
        const SESSIONS: usize = 4;
        let config = relaxed(shards, seed, SESSIONS);
        // Three pool traces per session, each session's in its own order.
        let feeds: Vec<_> = (0..SESSIONS)
            .map(|si| {
                let traces: Vec<_> = (0..3).map(|k| pool()[(si + k) % pool().len()].clone()).collect();
                SampleFeed::from_pairs(&traces).expect("one feed")
            })
            .collect();
        let shortest = feeds.iter().map(SampleFeed::len).min().unwrap_or(0);
        prop_assert!(shortest >= 450, "feeds must cover three clips");

        let mut straight = FleetReplay::new(config.clone(), &stream(), feeds.clone()).expect("admitted");
        let mut cycled = FleetReplay::new(config, &stream(), feeds).expect("admitted");
        if rot {
            cycled = cycled.rot(rotted);
        }
        // The crash lands after `cut` samples of every session.
        let audit = ReplayAudit { steps: 450, kills: vec![cut - 1] };
        let report = audit.run(&mut straight, &mut cycled).expect("audit runs");
        prop_assert_eq!(&report.exempt, &rot.then_some(rotted).into_iter().collect::<Vec<_>>());
        prop_assert!(
            report.misrestores == 0 && report.books_match(),
            "a session diverged after restore (shards={}, cut={}): {:?}",
            shards,
            cut,
            report
        );
        // Unrotted, the event stream, the shard counters and every
        // session's final stream state match too.
        prop_assert!(rot || report.outcome_ok, "{:?}", report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under seeded hot-shard skew (every key hashed onto one shard,
    /// tiny per-shard budget) idle shards donate credits to the hot one,
    /// and the conservation ledger `offered == served + shed + in_flight`
    /// holds on every single tick.
    #[test]
    fn stealing_conserves_work_under_hot_shard_skew(
        shards in 2usize..=4,
        seed in 0u64..512,
        hot_sessions in 3usize..=5,
    ) {
        let mut config = relaxed(shards, seed, hot_sessions);
        config.shard.budget_clips = 1;
        config.shard.budget_period_ticks = 40;
        config.shard.queue_clips = 2;
        let mut fleet = Fleet::new(config).expect("valid config");

        let hot = fleet.shard_of_key(0);
        let keys: Vec<u64> = (0..2_000u64)
            .filter(|&k| fleet.shard_of_key(k) == hot)
            .take(hot_sessions)
            .collect();
        prop_assert_eq!(keys.len(), hot_sessions, "not enough keys landed on shard {}", hot);
        let ids: Vec<u64> = keys
            .iter()
            .map(|&k| fleet.admit(k, stream()).session().expect("admitted"))
            .collect();
        for &id in &ids {
            prop_assert_eq!(fleet.shard_of_session(id), hot, "skew setup leaked a session");
        }

        let pair = &pool()[0];
        for sample in 0..pair.tx.samples().len().min(160) {
            for &id in &ids {
                fleet
                    .offer(id, pair.tx.samples()[sample], pair.rx.samples()[sample])
                    .expect("offer succeeds");
            }
            fleet.tick();
            let ledger = fleet.ledger();
            prop_assert!(ledger.holds(), "ledger broke mid-feed: {:?}", ledger);
        }
        let mut guard = 0u32;
        while fleet.pending_clips() > 0 {
            fleet.tick();
            let ledger = fleet.ledger();
            prop_assert!(ledger.holds(), "ledger broke draining: {:?}", ledger);
            guard += 1;
            prop_assert!(guard < 100_000, "fleet failed to drain");
        }

        prop_assert!(
            fleet.stats().steals > 0,
            "idle shards never donated credits to the hot shard"
        );
        let stats = fleet.shard_stats();
        prop_assert_eq!(stats.served_clips + stats.shed_clips, stats.offered_clips);
        let ledger = fleet.ledger();
        prop_assert_eq!(ledger.in_flight, 0);
        prop_assert!(ledger.holds());
    }
}
