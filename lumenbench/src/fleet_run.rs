//! The fleet workload: every session's sample goes straight to
//! `Fleet::offer`, then one `Fleet::tick` and `Fleet::drain_events` per
//! turn. No wire and no daemon: the control that bypasses both.

use crate::daemon_run::serve_config;
use crate::host::now_ns;
use crate::plan::{enrol, Inputs, Spec, CLIP_SAMPLES, CLIP_SECONDS, GRACE_TURNS, VOTE_WINDOW};
use crate::report::{layer_metrics, LayerCounts, Report};
use crate::tally::{block_sums, Tally};
use crate::trace::{DetectShadow, Tracer};
use crate::{time_setups, Result};
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_fleet::{AdmissionConfig, Fleet, FleetAdmitOutcome, FleetConfig};
use lumen_serve::{ClipAdmission, SessionEventKind, Supervisor};
use std::hint::black_box;

struct Rig {
    fleet: Fleet,
    detector: Detector,
    /// Fleet session id of each benchmark session.
    ids: Vec<u64>,
    /// Benchmark session of each fleet session id.
    index_of: Vec<usize>,
}

/// Set-up: enrolment, the fleet and every session admitted.
fn build(spec: &Spec, inputs: &Inputs) -> Result<Rig> {
    let detector = enrol(&inputs.training)?;
    let burst = u32::try_from(spec.sessions)?;
    let mut fleet = Fleet::new(FleetConfig {
        shards: spec.lanes,
        shard: serve_config(spec.sessions),
        admission: AdmissionConfig {
            burst_sessions: burst,
            refill_per_tick: f64::from(burst),
        },
        ..FleetConfig::default()
    })?;
    let mut ids = Vec::with_capacity(spec.sessions);
    for s in 0..spec.sessions {
        let stream = StreamingDetector::new(detector.clone(), CLIP_SECONDS, VOTE_WINDOW)?;
        match fleet.admit(s as u64, stream) {
            FleetAdmitOutcome::Admitted { session, .. } => ids.push(session),
            other => return Err(format!("fleet admission answered {other:?}").into()),
        }
    }
    let mut index_of = vec![usize::MAX; spec.sessions * spec.lanes];
    for (s, &id) in ids.iter().enumerate() {
        let slot = usize::try_from(id)
            .ok()
            .and_then(|i| index_of.get_mut(i))
            .ok_or("fleet session id out of range")?;
        *slot = s;
    }
    Ok(Rig {
        fleet,
        detector,
        ids,
        index_of,
    })
}

/// The shard supervisors inside `Fleet::tick`, replayed on identical
/// inputs in a traced run.
struct Shadow {
    tracer: Tracer,
    shards: Vec<Supervisor>,
    /// Shard and local id of each benchmark session.
    place: Vec<(usize, u64)>,
    /// Benchmark session of each (shard, local id).
    index_of: Vec<Vec<usize>>,
    detect: DetectShadow,
    counts: LayerCounts,
}

impl Shadow {
    fn new(spec: &Spec, rig: &Rig) -> Result<Shadow> {
        let mut shards = (0..spec.lanes)
            .map(|_| Supervisor::new(serve_config(spec.sessions)))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let mut place = Vec::with_capacity(spec.sessions);
        let mut index_of = vec![Vec::new(); spec.lanes];
        for (s, &id) in rig.ids.iter().enumerate() {
            let shard = rig.fleet.shard_of_session(id);
            let stream = StreamingDetector::new(rig.detector.clone(), CLIP_SECONDS, VOTE_WINDOW)?;
            let local = shards[shard]
                .admit(stream)
                .session()
                .ok_or("shadow admission refused")?;
            place.push((shard, local));
            index_of[shard].push(s);
        }
        Ok(Shadow {
            tracer: Tracer::default(),
            shards,
            place,
            index_of,
            detect: DetectShadow::new(&rig.detector, false),
            counts: LayerCounts {
                turn_span: "fleet.turn",
                ..LayerCounts::default()
            },
        })
    }
}

/// Runs the fleet workload; with `untraced_turn_ns` (the median turn of
/// an untraced run) the window is traced.
///
/// # Errors
///
/// Propagates fleet and detection errors.
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
        Some(_) => Some(Shadow::new(spec, &rig)?),
        None => None,
    };
    let plan = spec.plan();
    let total = spec.total_turns();
    let mut tally = Tally::new(spec);
    // (session, tx, rx, completes a clip)
    let mut offers: Vec<(usize, f64, f64, bool)> = Vec::with_capacity(spec.sessions);
    // When each session last handed over a clip's final sample: (clip, ns).
    let mut handed = vec![(u64::MAX, 0u64); spec.sessions];
    let mut turn_ns = Vec::with_capacity(spec.window_turns as usize);
    let mut turn = 0u64;
    while turn < total || (!tally.window_complete() && turn < total + GRACE_TURNS) {
        offers.clear();
        if turn < total {
            for s in 0..spec.sessions {
                if let Some((tx, rx)) = inputs.sample(&plan, s, turn) {
                    let completes = (turn + 1 - plan.phase(s)).is_multiple_of(CLIP_SAMPLES);
                    offers.push((s, tx, rx, completes));
                }
            }
        }
        let a = now_ns();
        for &(s, tx, rx, completes) in &offers {
            if completes {
                handed[s] = (plan.clips_done(s, turn) - 1, now_ns());
            }
            match rig.fleet.offer(rig.ids[s], tx, rx) {
                Ok(None | Some(ClipAdmission::Admitted)) => {}
                Ok(Some(ClipAdmission::Shed { reason })) => {
                    tally.problem(format!("session {s}: clip shed at completion ({reason})"))
                }
                Err(e) => tally.problem(format!("session {s}: offer failed: {e}")),
            }
        }
        let b = now_ns();
        rig.fleet.tick();
        let c = now_ns();
        let events = rig.fleet.drain_events();
        let d = now_ns();
        if spec.in_window(turn) {
            turn_ns.push(d - a);
        }
        for event in events {
            let s = usize::try_from(event.session)
                .ok()
                .and_then(|i| rig.index_of.get(i).copied())
                .filter(|&s| s < spec.sessions);
            match (event.kind, s) {
                (SessionEventKind::Verdict(v), Some(s)) => {
                    let clip = v.clip_index as u64;
                    let start = match handed[s] {
                        (c, ns) if c == clip => ns,
                        _ => a,
                    };
                    let score = v.detection().map_or(f64::NAN, |d| d.score);
                    tally.verdict(
                        inputs,
                        s,
                        clip,
                        v.outcome.accepted(),
                        score,
                        d.saturating_sub(start),
                    );
                }
                (kind, _) => tally.problem(format!(
                    "unexpected event for fleet session {}: {kind:?}",
                    event.session
                )),
            }
        }
        if let Some(shadow) = shadow.as_mut() {
            let times = spec.in_window(turn).then_some((a, b, c, d));
            replay(shadow, inputs, spec, &offers, times)?;
        }
        turn += 1;
    }

    let stats = rig.fleet.shard_stats();
    tally.identity(rig.fleet.ledger().holds(), "fleet ledger holds");
    tally.identity(
        stats.served_clips + stats.shed_clips == stats.offered_clips,
        "served + shed == offered",
    );
    tally.problems(stats.shed_clips, "shed clips");
    tally.problems(stats.rejected_sessions, "refused admissions");
    tally.problems(rig.fleet.stats().throttled_sessions, "throttled admissions");

    let (layers, spans) = match shadow {
        Some(mut shadow) => {
            let c = &mut shadow.counts;
            c.untraced_turn_p50_ns = untraced_turn_ns.unwrap_or(0);
            c.clips_served = stats.served_clips;
            c.clips_shed = stats.shed_clips;
            c.queue_wait_ticks_max = (0..rig.fleet.shards())
                .filter_map(|k| rig.fleet.shard(k))
                .flat_map(|sup| sup.latencies_ticks().iter().copied())
                .max()
                .unwrap_or(0);
            c.steals = rig.fleet.stats().steals;
            let most = (0..rig.fleet.shards())
                .filter_map(|k| rig.fleet.shard(k).map(Supervisor::sessions))
                .max()
                .unwrap_or(0);
            c.max_shard_share = most as f64 / spec.sessions.max(1) as f64;
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
        late_p99_ms: 0.0,
        layers,
        spans,
    })
}

/// Replays one turn on the shadow shards, which follow the real ones
/// from the first turn. In the window, `t` holds the real calls' times
/// (offers start, tick start, drain start, end) and the replay records
/// fleet spans, shard offers and ticks, and the detection of every clip
/// a shadow shard served; outside it only the shards' state advances.
fn replay(
    shadow: &mut Shadow,
    inputs: &Inputs,
    spec: &Spec,
    offers: &[(usize, f64, f64, bool)],
    t: Option<(u64, u64, u64, u64)>,
) -> Result<()> {
    let mut by_shard: Vec<Vec<(u64, f64, f64)>> = vec![Vec::new(); shadow.shards.len()];
    for &(s, tx, rx, _) in offers {
        let (shard, local) = shadow.place[s];
        by_shard[shard].push((local, tx, rx));
    }
    let Some(t) = t else {
        for (sup, batch) in shadow.shards.iter_mut().zip(&by_shard) {
            for &(local, tx, rx) in batch {
                sup.offer(local, tx, rx)?;
            }
            sup.tick();
            sup.drain_events();
        }
        return Ok(());
    };
    let plan = spec.plan();
    let tracer = &mut shadow.tracer;
    let turn = tracer.record("fleet.turn", t.0, t.3, None);
    let offered = tracer.record("fleet.offers", t.0, t.1, Some(turn));
    let ticked = tracer.record("fleet.tick", t.1, t.2, Some(turn));
    tracer.record("fleet.drain", t.2, t.3, Some(turn));
    shadow.counts.traced_turns += 1;
    shadow.counts.fleet_offers += offers.len() as u64;
    shadow.counts.serve_offers += offers.len() as u64;
    for (sup, batch) in shadow.shards.iter_mut().zip(&by_shard) {
        let a = now_ns();
        for &(local, tx, rx) in batch {
            black_box(sup.offer(local, tx, rx)?);
        }
        let b = now_ns();
        tracer.record("serve.offers", a, b, Some(offered));
    }
    for (k, sup) in shadow.shards.iter_mut().enumerate() {
        let a = now_ns();
        sup.tick();
        let b = now_ns();
        let tick = tracer.record("serve.tick", a, b, Some(ticked));
        for event in sup.drain_events() {
            if let SessionEventKind::Verdict(v) = event.kind {
                let s = usize::try_from(event.session)
                    .ok()
                    .and_then(|local| shadow.index_of[k].get(local).copied())
                    .ok_or("shadow verdict for an unknown session")?;
                let clip = v.clip_index as u64;
                shadow
                    .detect
                    .time_clip(tracer, tick, (s, clip), inputs.clip(&plan, s, clip))?;
            }
        }
    }
    Ok(())
}
