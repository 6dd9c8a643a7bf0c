//! Checkpoint determinism: restoring a mid-clip snapshot must be
//! invisible in the verdict stream, even on a degraded link where the
//! quality gate abstains and the watchdog is mid-backoff. The faulty
//! scenario matters: it is the watchdog counters, vote history and
//! partial clip buffers — not just the trained model — that have to
//! survive the round trip through the checkpoint store's payload codec.

use lumen::chat::fault::{BurstLoss, FaultPlan};
use lumen::chat::feed::SampleFeed;
use lumen::chat::scenario::ScenarioBuilder;
use lumen::core::detector::{ClipOutcome, Detector};
use lumen::core::quality::QualityGate;
use lumen::core::stream::{ClipVerdict, StreamSnapshot, StreamingDetector};
use lumen::core::Config;
use lumen::experiments::replay::{Books, ReplayAudit, Restored, SupervisorReplay, Workload};
use lumen::experiments::ExpResult;
use lumen::serve::store::{decode_payload, encode_payload};
use lumen::serve::{ServeConfig, Supervisor, SupervisorSnapshot};

fn heavy_burst() -> FaultPlan {
    FaultPlan {
        burst: BurstLoss::bursty(0.1, 6.0, 0.95),
        ..FaultPlan::none()
    }
}

fn trained() -> Detector {
    let clean = ScenarioBuilder::default();
    let training: Vec<_> = (0..10)
        .map(|i| clean.legitimate(0, 70_000 + i).expect("training trace"))
        .collect();
    Detector::train_from_traces(&training, Config::default()).expect("training succeeds")
}

fn gated(detector: &Detector) -> StreamingDetector {
    StreamingDetector::new(detector.clone(), 15.0, 3)
        .expect("valid stream config")
        .with_quality_gate(QualityGate::default())
}

/// `clips` consecutive degraded-link clips of one legitimate caller as
/// one feed, and an audit that kills at sample 73 of every clip: mid-clip,
/// with partial buffers, watchdog counters and vote history live.
fn degraded_run(clips: usize) -> (SampleFeed, ReplayAudit) {
    let degraded = ScenarioBuilder::default().with_faults(heavy_burst());
    let pairs: Vec<_> = (0..clips)
        .map(|clip| {
            degraded
                .legitimate(0, 71_000 + clip as u64)
                .expect("degraded trace")
        })
        .collect();
    let len = pairs[0].tx.samples().len();
    let audit = ReplayAudit {
        steps: clips * len,
        kills: (0..clips).map(|clip| clip * len + 73).collect(),
    };
    (SampleFeed::from_pairs(&pairs).expect("one feed"), audit)
}

/// One gated stream fed sample by sample. A kill round-trips its
/// `StreamSnapshot` through the checkpoint payload codec into a freshly
/// built stream.
struct StreamRun {
    stream: StreamingDetector,
    fresh: StreamingDetector,
    feed: SampleFeed,
    verdicts: Vec<ClipVerdict>,
}

impl Workload for StreamRun {
    type Record = ClipVerdict;

    fn step(&mut self, _: usize, books: &mut Books<ClipVerdict>) -> ExpResult<()> {
        if let Some((tx, rx)) = self.feed.next_sample() {
            if let Some(v) = self.stream.push(tx, rx)? {
                books.record(0, v.clip_index, v.clone());
                self.verdicts.push(v);
            }
        }
        Ok(())
    }

    fn drain(&mut self, _: &mut Books<ClipVerdict>) -> ExpResult<()> {
        Ok(())
    }

    fn kill_and_restore(&mut self, step: usize, _: &mut Books<ClipVerdict>) -> ExpResult<Restored> {
        let snap = self.stream.snapshot();
        let back: StreamSnapshot = decode_payload(&encode_payload(&snap))?;
        assert_eq!(back, snap, "snapshot must round-trip through the codec");
        self.stream = self.fresh.clone();
        self.stream.restore(&back)?;
        Ok(Restored {
            resume_step: step + 1,
            quarantined: Vec::new(),
        })
    }

    fn same_outcome(&self, reference: &Self) -> bool {
        self.verdicts == reference.verdicts
    }
}

#[test]
fn faulty_stream_survives_mid_clip_checkpoints_verbatim() {
    const CLIPS: usize = 4;
    let detector = trained();
    let (feed, audit) = degraded_run(CLIPS);
    let run = || StreamRun {
        stream: gated(&detector),
        fresh: gated(&detector),
        feed: feed.clone(),
        verdicts: Vec::new(),
    };
    let (mut straight, mut cycled) = (run(), run());
    let report = audit.run(&mut straight, &mut cycled).expect("audit runs");
    assert!(
        report.ok(),
        "checkpoint cycles changed the verdict stream: {report:?}"
    );
    assert_eq!(straight.verdicts.len(), CLIPS);
    // The degraded link must actually exercise the abstention path, or
    // the watchdog state this test protects was never populated.
    assert!(
        straight
            .verdicts
            .iter()
            .any(|v| matches!(v.outcome, ClipOutcome::Inconclusive(_))),
        "burst faults produced no inconclusive clip; the check is vacuous"
    );
}

#[test]
fn supervised_faulty_session_replays_identically_after_restore() {
    const CLIPS: usize = 3;
    let detector = trained();
    let config = ServeConfig {
        max_sessions: 1,
        budget_clips: 1,
        budget_period_ticks: 10,
        deadline_ticks: 10_000,
        ..ServeConfig::default()
    };
    let (feed, audit) = degraded_run(CLIPS);
    let run = || {
        let sup = Supervisor::new(config.clone()).expect("valid config");
        SupervisorReplay::new(sup, &gated(&detector), vec![feed.clone()]).expect("admitted")
    };
    let (mut straight, mut cycled) = (run(), run());
    // Events drained before a kill are the caller's to keep, so the whole
    // event stream and the counters must match the uninterrupted run.
    let report = audit.run(&mut straight, &mut cycled).expect("audit runs");
    assert!(
        report.ok(),
        "restored supervisor diverged from the uninterrupted one: {report:?}"
    );
    assert_eq!(report.subject_records, CLIPS as u64);
    assert_eq!(straight.supervisor().stats().offered_clips, CLIPS as u64);
}

#[test]
fn in_flight_probe_survives_checkpoint_byte_identically() {
    use lumen::chat::session::SessionConfig;
    use lumen::probe::{ProbeConfig, ProbeDecision, ProbeDirector, ProbeInjector, ProbePolicy};
    use lumen::serve::SessionEventKind;

    let detector = trained();
    let config = ServeConfig {
        max_sessions: 2,
        deadline_ticks: 10_000,
        ..ServeConfig::default()
    };
    let mut sup = Supervisor::new(config.clone()).expect("valid config");
    let director = ProbeDirector::new(ProbePolicy::default(), 93).expect("valid policy");
    let id = sup
        .admit_probed(gated(&detector), director)
        .session()
        .expect("admitted");

    // A flatline clip makes the passive gate abstain, which arms the
    // director: the checkpoint below carries an *in-flight* challenge.
    for _ in 0..150 {
        sup.offer(id, 100.0, 42.0).expect("offer succeeds");
        sup.tick();
    }
    while sup.pending_clips() > 0 {
        sup.tick();
    }
    let events = sup.drain_events();
    let schedule = events
        .iter()
        .find_map(|e| match &e.kind {
            SessionEventKind::ProbeRequested(s) => Some(s.clone()),
            _ => None,
        })
        .expect("the inconclusive clip must raise a probe request");

    // Checkpoint with the challenge outstanding, then restore twice: the
    // snapshot must carry the director verbatim, and encoding the
    // restored supervisor must reproduce the checkpoint byte-for-byte.
    let snap = sup.snapshot();
    let payload = encode_payload(&snap);
    let back: SupervisorSnapshot = decode_payload(&payload).expect("snapshot decodes");
    assert_eq!(back, snap, "snapshot must round-trip through the codec");
    let restored =
        Supervisor::restore(config.clone(), &back, |_| Ok(gated(&detector))).expect("restores");
    assert_eq!(
        encode_payload(&restored.snapshot()),
        payload,
        "a restored supervisor must checkpoint byte-identically"
    );
    assert_eq!(
        restored.probe_director(id).unwrap().unwrap().in_flight(),
        Some(&schedule),
        "the in-flight challenge must survive the round trip"
    );

    // Both the original and the restored supervisor must accept the same
    // challenge response and produce the same verdict.
    let pair = ProbeInjector::new(schedule.clone())
        .armed_scenario(
            ScenarioBuilder::default()
                .with_session(ProbeConfig::default().session_config(1.5, &SessionConfig::default()))
                .with_static_caller(120.0),
        )
        .legitimate(0, 78_000)
        .expect("probed trace");
    let mut restored = restored;
    let original = sup.resolve_probe(id, &pair).expect("resolves");
    let replayed = restored.resolve_probe(id, &pair).expect("resolves");
    assert_eq!(original, replayed, "restored probe verdict diverged");
    assert_eq!(original.decision, ProbeDecision::Pass, "{original:?}");
}

#[test]
fn restore_keeps_every_sample_bit() {
    use lumen::serve::{CheckpointStore, MemStorage, QueuedClip, StoreConfig};

    // The wire accepts any f64 and `Supervisor::offer` buffers samples
    // unchecked, so a checkpoint must hand back each sample's exact bits.
    let special = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_0000_0000_0001), // a NaN with a payload
        -0.0,
        f64::from_bits(1), // the smallest subnormal
    ];
    let detector = trained();
    let config = ServeConfig {
        max_sessions: 1,
        deadline_ticks: 10_000,
        ..ServeConfig::default()
    };
    let mut sup = Supervisor::new(config.clone()).expect("valid config");
    let id = sup.admit(gated(&detector)).session().expect("admitted");
    let clip = sup.stream(id).expect("admitted").clip_samples();
    let samples: Vec<(f64, f64)> = (0..clip + 10)
        .map(|i| (special[i % 5], special[(i + 2) % 5]))
        .collect();
    // No tick: the first clip stays queued, the last 10 samples partial.
    for &(tx, rx) in &samples {
        sup.offer(id, tx, rx).expect("offer succeeds");
    }
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let pair_bits = |pairs: &[(f64, f64)]| {
        let (tx, rx): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        (bits(&tx), bits(&rx))
    };
    let (queued, partial) = samples.split_at(clip);
    let expected = (pair_bits(queued), pair_bits(partial));
    let sample_bits = |snap: &SupervisorSnapshot| {
        let session = &snap.sessions[0];
        let queued = match &session.queue[..] {
            [QueuedClip::Clip { tx, rx, .. }] => (bits(tx), bits(rx)),
            other => panic!("expected one queued clip, found {other:?}"),
        };
        let stream = &session.stream;
        (queued, (bits(&stream.tx_buffer), bits(&stream.rx_buffer)))
    };
    assert_eq!(sample_bits(&sup.snapshot()), expected);

    let mut store =
        CheckpointStore::new(MemStorage::new(), StoreConfig::default()).expect("default store");
    store
        .commit(sup.tick_now(), &sup.snapshot())
        .expect("commit succeeds");
    let loaded = store
        .load_latest()
        .expect("listing never fails in memory")
        .loaded
        .expect("the generation is intact")
        .snapshot;
    let restored =
        Supervisor::restore(config, &loaded, |_| Ok(gated(&detector))).expect("restores");
    let stream = restored.stream(id).expect("restored").snapshot();
    assert_eq!(
        (bits(&stream.tx_buffer), bits(&stream.rx_buffer)),
        expected.1,
        "the partial clip changed bits across the restore"
    );
    assert_eq!(
        sample_bits(&restored.snapshot()),
        expected,
        "the restored supervisor's next snapshot changed bits"
    );
}
