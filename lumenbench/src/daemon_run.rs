//! The daemon workloads: an in-process `lumend` on a loopback port, two
//! client connections, one `send_raw` batch of `Sample` frames per
//! connection per turn, then `Daemon::turn_once`, then a poll of both
//! connections for verdicts.

use crate::host::{now_ns, wait_until_ns};
use crate::plan::{enrol, Inputs, Spec, CLIP_SECONDS, GRACE_TURNS, VOTE_WINDOW, WARMUP_TURNS};
use crate::report::{layer_metrics, LayerCounts, Report};
use crate::tally::{block_sums, percentile, Tally};
use crate::trace::{DetectShadow, SpanId, Tracer};
use crate::{time_setups, Result};
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_daemon::wire::{Decoder, Frame};
use lumen_daemon::{Daemon, DaemonClient, DaemonConfig, DetectorFactory};
use lumen_obs::FlightConfig;
use lumen_serve::store::entry_name;
use lumen_serve::{
    CheckpointStore, CommitOutcome, MemStorage, ServeConfig, SessionEventKind, Storage,
    StoreConfig, Supervisor,
};
use std::collections::VecDeque;
use std::hint::black_box;

/// Bytes per read, as the daemon reads its sockets.
const READ_CHUNK: usize = 4096;

/// A serve configuration whose budget never binds and whose deadlines
/// never expire: a tick cannot complete more clips than there are
/// sessions, and every clip is served in the tick it completes.
pub fn serve_config(sessions: usize) -> ServeConfig {
    ServeConfig {
        max_sessions: sessions,
        queue_clips: 4,
        budget_clips: sessions as u64,
        budget_period_ticks: 1,
        deadline_ticks: 1_000_000,
        ..ServeConfig::default()
    }
}

/// The sessions connection `lane` carries: dealt round robin.
pub fn lane_sessions(spec: &Spec, lane: usize) -> Vec<usize> {
    (lane..spec.sessions).step_by(spec.lanes).collect()
}

fn with_flight(sup: Supervisor, flight: bool) -> Supervisor {
    if flight {
        sup.with_flight(FlightConfig::default())
    } else {
        sup
    }
}

fn store(spec: &Spec) -> Result<Option<CheckpointStore<MemStorage>>> {
    if spec.checkpoint_every == 0 {
        return Ok(None);
    }
    Ok(Some(CheckpointStore::new(
        MemStorage::new(),
        StoreConfig::default(),
    )?))
}

struct Rig {
    daemon: Daemon<MemStorage>,
    clients: Vec<DaemonClient>,
    detector: Detector,
    /// Daemon session id of each benchmark session.
    ids: Vec<u64>,
    /// Benchmark session of each daemon session id.
    index_of: Vec<usize>,
}

/// Set-up: enrolment, supervisor, store and daemon, both connections,
/// and every session admitted over the wire.
fn build(spec: &Spec, inputs: &Inputs) -> Result<Rig> {
    let detector = enrol(&inputs.training)?;
    let sup = with_flight(Supervisor::new(serve_config(spec.sessions))?, spec.flight);
    let sessions_detector = detector.clone();
    let factory: DetectorFactory = Box::new(move |_| {
        StreamingDetector::new(sessions_detector.clone(), CLIP_SECONDS, VOTE_WINDOW)
    });
    // Every frame of a turn's batch must pass the token bucket: the
    // default 64-token burst would refuse most of it.
    let bucket = u32::try_from(4 * spec.sessions)?;
    let config = DaemonConfig {
        bucket_capacity: bucket,
        bucket_refill: f64::from(bucket),
        checkpoint_every_turns: spec.checkpoint_every,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(sup, factory, config, store(spec)?)?;
    let mut clients = Vec::with_capacity(spec.lanes);
    let mut waiting = Vec::with_capacity(spec.lanes);
    for lane in 0..spec.lanes {
        let mut client = DaemonClient::connect(daemon.port())?;
        let sessions = lane_sessions(spec, lane);
        let hello = Frame::Hello.encode();
        client.send_raw(&hello.repeat(sessions.len()))?;
        clients.push(client);
        waiting.push(VecDeque::from(sessions));
    }
    let mut ids = vec![u64::MAX; spec.sessions];
    for _ in 0..GRACE_TURNS {
        daemon.turn_once()?;
        for (lane, client) in clients.iter_mut().enumerate() {
            for frame in client.poll()? {
                match (frame, waiting[lane].pop_front()) {
                    (Frame::Welcome { session }, Some(s)) => ids[s] = session,
                    (frame, _) => return Err(format!("admission answered {frame:?}").into()),
                }
            }
        }
        if waiting.iter().all(VecDeque::is_empty) {
            break;
        }
    }
    if !waiting.iter().all(VecDeque::is_empty) {
        return Err("admission did not complete".into());
    }
    let mut index_of = vec![usize::MAX; spec.sessions];
    for (s, &id) in ids.iter().enumerate() {
        let slot = usize::try_from(id)
            .ok()
            .and_then(|i| index_of.get_mut(i))
            .ok_or("daemon session ids are not dense")?;
        *slot = s;
    }
    Ok(Rig {
        daemon,
        clients,
        detector,
        ids,
        index_of,
    })
}

/// The inner layers of `Daemon::turn_once`, replayed on identical
/// inputs in a traced run.
struct Shadow {
    tracer: Tracer,
    decoders: Vec<Decoder>,
    sup: Supervisor,
    /// Shadow supervisor session id of each benchmark session.
    ids: Vec<u64>,
    store: Option<CheckpointStore<MemStorage>>,
    detect: DetectShadow,
    counts: LayerCounts,
}

impl Shadow {
    fn new(spec: &Spec, detector: &Detector) -> Result<Shadow> {
        let mut sup = with_flight(Supervisor::new(serve_config(spec.sessions))?, spec.flight);
        let mut ids = Vec::with_capacity(spec.sessions);
        for _ in 0..spec.sessions {
            let stream = StreamingDetector::new(detector.clone(), CLIP_SECONDS, VOTE_WINDOW)?;
            ids.push(
                sup.admit(stream)
                    .session()
                    .ok_or("shadow admission refused")?,
            );
        }
        Ok(Shadow {
            tracer: Tracer::default(),
            decoders: (0..spec.lanes).map(|_| Decoder::new(1 << 20)).collect(),
            sup,
            ids,
            store: store(spec)?,
            detect: DetectShadow::new(detector, spec.flight),
            counts: LayerCounts {
                turn_span: "daemon.turn",
                ..LayerCounts::default()
            },
        })
    }

    /// Replays one turn on the shadow supervisor, which follows the real
    /// one from the first turn. Outside the window (`turn_span` `None`)
    /// only the supervisor's state is advanced. `samples` is what was
    /// offered (session, tx, rx), `verdicts` what came back.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        inputs: &Inputs,
        spec: &Spec,
        turn_span: Option<SpanId>,
        batches: &[Vec<u8>],
        samples: &[(usize, f64, f64)],
        verdicts: &[Frame],
        checkpointed: bool,
    ) -> Result<()> {
        let Some(turn_span) = turn_span else {
            for &(s, tx, rx) in samples {
                self.sup.offer(self.ids[s], tx, rx)?;
            }
            self.sup.tick();
            self.sup.drain_events();
            return Ok(());
        };
        let plan = spec.plan();
        self.counts.traced_turns += 1;
        for (decoder, batch) in self.decoders.iter_mut().zip(batches) {
            let a = now_ns();
            let mut frames = 0u64;
            for chunk in batch.chunks(READ_CHUNK) {
                decoder.push(chunk);
            }
            while let Some(frame) = decoder.next_frame()? {
                black_box(frame);
                frames += 1;
            }
            let b = now_ns();
            self.tracer.record("wire.decode", a, b, Some(turn_span));
            self.counts.frames_decoded += frames;
        }
        for frame in verdicts {
            let a = now_ns();
            black_box(frame.encode());
            let b = now_ns();
            self.tracer.record("wire.encode", a, b, Some(turn_span));
        }
        let a = now_ns();
        for &(s, tx, rx) in samples {
            black_box(self.sup.offer(self.ids[s], tx, rx)?);
        }
        let b = now_ns();
        self.tracer.record("serve.offers", a, b, Some(turn_span));
        self.counts.serve_offers += samples.len() as u64;
        let a = now_ns();
        self.sup.tick();
        let b = now_ns();
        let tick = self.tracer.record("serve.tick", a, b, Some(turn_span));
        for event in self.sup.drain_events() {
            if let SessionEventKind::Verdict(v) = event.kind {
                // Shadow ids are admission order, the benchmark's order.
                let s = usize::try_from(event.session)?;
                let clip = v.clip_index as u64;
                self.detect.time_clip(
                    &mut self.tracer,
                    tick,
                    (s, clip),
                    inputs.clip(&plan, s, clip),
                )?;
            }
        }
        if checkpointed {
            if let Some(store) = self.store.as_mut() {
                let a = now_ns();
                let snap = self.sup.snapshot();
                let b = now_ns();
                let outcome = store.commit(self.sup.tick_now(), &snap)?;
                let c = now_ns();
                self.tracer.record("serve.snapshot", a, b, Some(turn_span));
                self.tracer.record("store.commit", b, c, Some(turn_span));
                if let CommitOutcome::Committed { generation } = outcome {
                    let record = store.storage().read(&entry_name(generation))?;
                    self.counts.checkpoint_bytes = record.len() as u64;
                }
            }
        }
        Ok(())
    }
}

/// Runs a daemon workload; with `untraced_turn_ns` (the median turn of
/// an untraced run) the window is traced.
///
/// # Errors
///
/// Propagates daemon, transport and detection errors.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    untraced_turn_ns: Option<u64>,
) -> Result<Report> {
    let before = spec.setups / 2;
    let mut setup_ns = time_setups(before, || build(spec, inputs))?;
    let mut rig = build(spec, inputs)?;
    let mut shadow = match untraced_turn_ns {
        Some(_) => Some(Shadow::new(spec, &rig.detector)?),
        None => None,
    };
    let plan = spec.plan();
    let lanes: Vec<Vec<usize>> = (0..spec.lanes).map(|l| lane_sessions(spec, l)).collect();
    let lane_of = |s: usize| s % spec.lanes;
    let total = spec.total_turns();
    let mut tally = Tally::new(spec);
    let mut batches = vec![Vec::new(); spec.lanes];
    let mut samples: Vec<(usize, f64, f64)> = Vec::with_capacity(spec.sessions);
    // When each turn's batch was due or handed to its socket, per lane.
    let mut started = vec![0u64; (total + GRACE_TURNS) as usize * spec.lanes];
    let mut turn_ns = Vec::with_capacity(spec.window_turns as usize);
    let mut late_ns = Vec::new();
    let mut window_start = 0u64;
    let mut turn = 0u64;
    while turn < total || (!tally.window_complete() && turn < total + GRACE_TURNS) {
        samples.clear();
        for (lane, batch) in batches.iter_mut().enumerate() {
            batch.clear();
            for &s in &lanes[lane] {
                if turn >= total {
                    break;
                }
                if let Some((tx, rx)) = inputs.sample(&plan, s, turn) {
                    let session = rig.ids[s];
                    batch.extend_from_slice(&Frame::Sample { session, tx, rx }.encode());
                    samples.push((s, tx, rx));
                }
            }
        }
        if turn == WARMUP_TURNS {
            window_start = now_ns();
        }
        let due = match spec.period_ns {
            Some(period) if spec.in_window(turn) => {
                let due = window_start + (turn - WARMUP_TURNS) * period;
                wait_until_ns(due);
                late_ns.push(now_ns().saturating_sub(due));
                Some(due)
            }
            _ => None,
        };
        for (lane, client) in rig.clients.iter_mut().enumerate() {
            started[turn as usize * spec.lanes + lane] = due.unwrap_or_else(now_ns);
            client.send_raw(&batches[lane])?;
        }
        let a = now_ns();
        rig.daemon.turn_once()?;
        let b = now_ns();
        let mut frames = Vec::new();
        for client in rig.clients.iter_mut() {
            frames.extend(client.poll()?);
        }
        let held = now_ns();
        if spec.in_window(turn) {
            turn_ns.push(b - a);
        }
        for frame in &frames {
            match frame {
                Frame::Verdict { session, verdict } => {
                    let Some(s) = usize::try_from(*session)
                        .ok()
                        .and_then(|i| rig.index_of.get(i).copied())
                    else {
                        tally.problem(format!("verdict for unknown session {session}"));
                        continue;
                    };
                    let completed = plan.completion_turn(s, verdict.clip_index);
                    let start = started
                        .get(completed as usize * spec.lanes + lane_of(s))
                        .copied()
                        .unwrap_or(held);
                    let accepted = match verdict.disposition {
                        0 => Some(true),
                        1 => Some(false),
                        _ => None,
                    };
                    tally.verdict(
                        inputs,
                        s,
                        verdict.clip_index,
                        accepted,
                        verdict.score,
                        held.saturating_sub(start),
                    );
                }
                other => tally.problem(format!("unexpected frame {other:?}")),
            }
        }
        if let Some(shadow) = shadow.as_mut() {
            let span = spec
                .in_window(turn)
                .then(|| shadow.tracer.record("daemon.turn", a, b, None));
            let checkpointed = spec.checkpoint_every > 0
                && rig.daemon.turns().is_multiple_of(spec.checkpoint_every);
            shadow.replay(
                inputs,
                spec,
                span,
                &batches,
                &samples,
                &frames,
                checkpointed,
            )?;
        }
        turn += 1;
    }

    let serve = rig.daemon.serve_stats().clone();
    let wire = rig.daemon.wire_stats().clone();
    tally.identity(
        serve.served_clips + serve.shed_clips == serve.offered_clips,
        "served + shed == offered",
    );
    tally.identity(
        wire.verdict_total() == serve.served_clips,
        "wire verdicts == served",
    );
    tally.problems(wire.shed_total(), "shed frames on the wire");
    tally.problems(wire.rate_limited, "rate-limited frames");
    tally.problems(wire.refused_admissions, "refused admissions");
    tally.problems(wire.rejected_frames, "rejected frames");
    let store_stats = rig.daemon.store().map(|s| *s.stats()).unwrap_or_default();
    tally.problems(store_stats.write_failures, "checkpoint write failures");

    late_ns.sort_unstable();
    let late_p99_ms = percentile(&late_ns, 0.99) as f64 / 1e6;
    let (layers, spans) = match shadow {
        Some(mut shadow) => {
            let c = &mut shadow.counts;
            c.untraced_turn_p50_ns = untraced_turn_ns.unwrap_or(0);
            c.rate_limited = wire.rate_limited;
            c.clips_served = serve.served_clips;
            c.clips_shed = serve.shed_clips;
            c.queue_wait_ticks_max = rig
                .daemon
                .supervisor()
                .latencies_ticks()
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            c.commits = store_stats.commits;
            c.write_failures = store_stats.write_failures;
            c.late_p99_ms = late_p99_ms;
            (layer_metrics(&shadow.tracer, c), Some(shadow.tracer))
        }
        None => (Vec::new(), None),
    };
    drop(rig);
    setup_ns.extend(time_setups(spec.setups - before, || build(spec, inputs))?);
    Ok(Report {
        workload: spec.workload,
        seed,
        outcome: tally.finish(),
        setup_s: crate::median(&setup_ns) as f64 / 1e9,
        block_busy_ns: block_sums(&turn_ns),
        turn_p50_ns: crate::median(&turn_ns),
        peak_rss_mb: 0.0,
        late_p99_ms,
        layers,
        spans,
    })
}
