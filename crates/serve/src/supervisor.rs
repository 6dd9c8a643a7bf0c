//! The multi-session supervisor: admission, backpressure, shedding.
//!
//! One [`Supervisor`] owns a fleet of [`StreamingDetector`]s — one per
//! admitted chat session — and multiplexes their clip detections onto a
//! bounded, tick-driven work budget. The paper triggers its detector
//! "multiple times during the real-time video chat" for *one* session
//! (Sec. III-B); a deployment verifying many concurrent sessions must
//! decide what happens when the offered detection load exceeds capacity.
//! The supervisor's answer: clips are *shed, never silently dropped* —
//! every shed is recorded into the session's verdict stream as a
//! [`Withheld`](lumen_core::quality::InconclusiveReason::Withheld)
//! abstention (feeding the inconclusive-clip watchdog), counted in
//! [`ServeStats`], and reported as a [`SessionEvent`], so
//! `served + shed == offered` holds exactly and an attacker cannot DoS
//! the defense into silence.
//!
//! Verdict-order discipline: a session's verdict stream carries exactly
//! one entry per completed clip, *in completion order*, whether the clip
//! was served or shed. Sheds decided at completion time (queue full,
//! breaker open) therefore enqueue an ordering tombstone rather than
//! recording immediately — the tombstone is flushed once every earlier
//! clip has been resolved, which is what keeps served clips' outcomes
//! byte-identical to an unloaded run.

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::checkpoint::{QueuedClip, SessionSnapshot, SupervisorSnapshot};
use crate::store::{CheckpointStore, QuarantinedGeneration, Storage};
use crate::{BreakerConfig, Result, ServeError};
use lumen_chat::clock::SimClock;
use lumen_chat::trace::TracePair;
use lumen_core::stream::{ClipVerdict, StreamingDetector};
use lumen_obs::{stage, FlightConfig, FlightSink, Recorder, Snapshot};
use lumen_probe::{ChallengeSchedule, ProbeDirector, ProbeVerdict};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Sheds recorded within a single [`Supervisor::tick`] at or above this
/// count constitute a *shed burst*: an overload spike worth a
/// flight-recorder post-mortem, not just a counter increment.
pub const SHED_BURST_TRIGGER: u64 = 4;

/// Tuning for a [`Supervisor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Maximum concurrently admitted sessions.
    pub max_sessions: usize,
    /// Completed clips a session may hold queued for detection; a clip
    /// completing against a full queue is shed with
    /// [`ShedReason::QueueFull`].
    pub queue_clips: usize,
    /// Detection credits granted per budget period: the global work
    /// budget is `budget_clips` clip detections every
    /// `budget_period_ticks` ticks, shared by all sessions round-robin.
    pub budget_clips: u64,
    /// Length of one budget period, in ticks.
    pub budget_period_ticks: u64,
    /// A queued clip older than this many ticks can no longer meet its
    /// latency deadline and is shed with [`ShedReason::DeadlineExceeded`].
    pub deadline_ticks: u64,
    /// Tick rate of the supervisor clock, Hz (the video sample rate).
    pub tick_rate_hz: f64,
    /// Per-session circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            queue_clips: 2,
            budget_clips: 4,
            budget_period_ticks: 10,
            deadline_ticks: 300,
            tick_rate_hz: 10.0,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for any zero capacity,
    /// budget, period or deadline, or a non-positive tick rate.
    pub fn validate(&self) -> Result<()> {
        if self.max_sessions == 0 {
            return Err(ServeError::invalid_config(
                "max_sessions",
                "must be non-zero",
            ));
        }
        if self.queue_clips == 0 {
            return Err(ServeError::invalid_config(
                "queue_clips",
                "must be non-zero",
            ));
        }
        if self.budget_clips == 0 {
            return Err(ServeError::invalid_config(
                "budget_clips",
                "must be non-zero",
            ));
        }
        if self.budget_period_ticks == 0 {
            return Err(ServeError::invalid_config(
                "budget_period_ticks",
                "must be non-zero",
            ));
        }
        if self.deadline_ticks == 0 {
            return Err(ServeError::invalid_config(
                "deadline_ticks",
                "must be non-zero",
            ));
        }
        if !(self.tick_rate_hz.is_finite() && self.tick_rate_hz > 0.0) {
            return Err(ServeError::invalid_config(
                "tick_rate_hz",
                "must be finite and positive",
            ));
        }
        self.breaker.validate()
    }
}

/// Why a clip (or a session) was shed rather than served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The session's clip queue was already at capacity.
    QueueFull,
    /// The clip waited past its detection deadline.
    DeadlineExceeded,
    /// The session's circuit breaker was open.
    BreakerOpen,
    /// Detection failed on the clip; it is counted, not retried.
    DetectionFailed,
    /// The supervisor was at its session capacity (admission only).
    CapacityExhausted,
    /// The session was released with clips still queued.
    SessionClosed,
    /// The supervisor is draining for shutdown (admission only).
    Draining,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            ShedReason::QueueFull => "queue full",
            ShedReason::DeadlineExceeded => "deadline exceeded",
            ShedReason::BreakerOpen => "breaker open",
            ShedReason::DetectionFailed => "detection failed",
            ShedReason::CapacityExhausted => "capacity exhausted",
            ShedReason::SessionClosed => "session closed",
            ShedReason::Draining => "draining",
        };
        f.write_str(label)
    }
}

/// Outcome of [`Supervisor::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The session was admitted under the returned id.
    Admitted {
        /// The new session's id.
        session: u64,
    },
    /// The session was turned away.
    Shed {
        /// Why admission was refused.
        reason: ShedReason,
    },
}

impl AdmitOutcome {
    /// The admitted session id, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            AdmitOutcome::Admitted { session } => Some(*session),
            AdmitOutcome::Shed { .. } => None,
        }
    }
}

/// Disposition of a clip the moment it completes inside
/// [`Supervisor::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipAdmission {
    /// The clip was queued for detection.
    Admitted,
    /// The clip will be shed: its `Withheld` verdict is recorded once
    /// every earlier clip of the session has been resolved, preserving
    /// completion order in the verdict stream.
    Shed {
        /// Why the clip was refused.
        reason: ShedReason,
    },
}

/// What happened inside a session, reported in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// The session the event belongs to.
    pub session: u64,
    /// The event itself.
    pub kind: SessionEventKind,
}

/// The payload of a [`SessionEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEventKind {
    /// A clip was served and produced this verdict.
    Verdict(ClipVerdict),
    /// A clip was shed; the recorded `Withheld` verdict is attached.
    Shed {
        /// Why the clip was shed.
        reason: ShedReason,
        /// The abstention recorded into the session's verdict stream.
        verdict: ClipVerdict,
    },
    /// The session's circuit breaker changed position.
    Breaker(BreakerTransition),
    /// The session's probe director wants this challenge transmitted:
    /// the caller-side client should arm a
    /// [`ProbeInjector`](lumen_probe::ProbeInjector) with the schedule
    /// and later hand the resulting trace pair to
    /// [`Supervisor::resolve_probe`].
    ProbeRequested(ChallengeSchedule),
    /// A probe round was verified; conclusive verdicts have already been
    /// fused into the session's vote history as one vote.
    Probe(ProbeVerdict),
}

/// Aggregate counters of one supervisor, exact by construction:
/// `served_clips + shed_clips == offered_clips` once every queue has
/// drained, and `shed_clips` is the sum of the by-reason counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Clips completed by admitted sessions.
    pub offered_clips: u64,
    /// Clips served to detection.
    pub served_clips: u64,
    /// Clips shed (all reasons).
    pub shed_clips: u64,
    /// Sheds because the session queue was full.
    pub shed_queue_full: u64,
    /// Sheds because the clip missed its deadline.
    pub shed_deadline: u64,
    /// Sheds because the session breaker was open.
    pub shed_breaker: u64,
    /// Sheds because detection failed on the clip.
    pub shed_failed: u64,
    /// Sheds because the session was released with clips queued.
    pub shed_closed: u64,
    /// Sessions refused at admission.
    pub rejected_sessions: u64,
}

impl ServeStats {
    /// Sums two stat sets element-wise. A fleet of shards aggregates its
    /// global accounting this way, so `Σ served + Σ shed == Σ offered`
    /// holds across shards exactly as it does within one supervisor.
    #[must_use]
    pub fn merged(&self, other: &ServeStats) -> ServeStats {
        ServeStats {
            offered_clips: self.offered_clips + other.offered_clips,
            served_clips: self.served_clips + other.served_clips,
            shed_clips: self.shed_clips + other.shed_clips,
            shed_queue_full: self.shed_queue_full + other.shed_queue_full,
            shed_deadline: self.shed_deadline + other.shed_deadline,
            shed_breaker: self.shed_breaker + other.shed_breaker,
            shed_failed: self.shed_failed + other.shed_failed,
            shed_closed: self.shed_closed + other.shed_closed,
            rejected_sessions: self.rejected_sessions + other.rejected_sessions,
        }
    }
}

/// One supervisor's live state as one shard of a deployment, flattened
/// for reporting (the daemon's `metrics_json` reply embeds one of these
/// per shard).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// Shard index.
    pub shard: u64,
    /// Admitted sessions.
    pub sessions: u64,
    /// Queue entries pending (clips and tombstones).
    pub queue_depth: u64,
    /// Servable clips queued (tombstones excluded).
    pub backlog: u64,
    /// Unspent serve credits of the current budget period.
    pub credits: u64,
    /// Clips offered so far.
    pub offered: u64,
    /// Clips served so far.
    pub served: u64,
    /// Clips shed so far.
    pub shed: u64,
    /// Sessions refused at admission.
    pub rejected_sessions: u64,
}

impl ShardBreakdown {
    /// Reads one supervisor's live counters into a breakdown row.
    pub fn from_supervisor(shard: usize, sup: &Supervisor) -> Self {
        let stats = sup.stats();
        ShardBreakdown {
            shard: shard as u64,
            sessions: sup.sessions() as u64,
            queue_depth: sup.pending_clips() as u64,
            backlog: sup.backlog_clips() as u64,
            credits: sup.credits(),
            offered: stats.offered_clips,
            served: stats.served_clips,
            shed: stats.shed_clips,
            rejected_sessions: stats.rejected_sessions,
        }
    }
}

#[derive(Debug)]
struct SessionSlot {
    stream: StreamingDetector,
    partial_tx: Vec<f64>,
    partial_rx: Vec<f64>,
    queue: VecDeque<QueuedClip>,
    breaker: CircuitBreaker,
    probe: Option<ProbeDirector>,
}

impl SessionSlot {
    fn queued_real_clips(&self) -> usize {
        self.queue
            .iter()
            .filter(|c| matches!(c, QueuedClip::Clip { .. }))
            .count()
    }
}

/// One session dropped during a graceful (partial) restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSession {
    /// The session id carried by the rejected snapshot entry.
    pub id: u64,
    /// Why its snapshot failed validation.
    pub reason: String,
}

/// Outcome of [`Supervisor::restore_with_report`]: which sessions came
/// back intact and which were quarantined instead of failing the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RestoreReport {
    /// Sessions restored intact, in snapshot order.
    pub restored: Vec<u64>,
    /// Sessions whose snapshot entries failed validation and were
    /// dropped (the host re-admits them fresh).
    pub quarantined: Vec<QuarantinedSession>,
    /// The checkpoint generation actually restored, when the supervisor
    /// came back through a [`CheckpointStore`] (`None` for a direct
    /// snapshot restore).
    pub fallback_generation: Option<u64>,
    /// Newer generations rejected before the restored one (0 = the
    /// newest stored generation was valid).
    pub fallback_depth: usize,
    /// Corrupt generations the store quarantined during the load.
    pub generation_quarantines: Vec<QuarantinedGeneration>,
}

/// A supervised fleet of streaming detectors sharing one detection budget.
#[derive(Debug)]
pub struct Supervisor {
    config: ServeConfig,
    clock: SimClock,
    sessions: BTreeMap<u64, SessionSlot>,
    next_id: u64,
    credits: u64,
    cursor: u64,
    events: Vec<SessionEvent>,
    latencies: Vec<u64>,
    stats: ServeStats,
    recorder: Recorder,
    flight: Option<Arc<FlightSink>>,
    draining: bool,
}

impl Supervisor {
    /// A supervisor with no sessions and a full first budget period.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the config fails
    /// [`ServeConfig::validate`].
    pub fn new(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let clock = SimClock::at_rate(config.tick_rate_hz);
        let credits = config.budget_clips;
        Ok(Supervisor {
            config,
            clock,
            sessions: BTreeMap::new(),
            next_id: 0,
            credits,
            cursor: 0,
            events: Vec::new(),
            latencies: Vec::new(),
            stats: ServeStats::default(),
            recorder: Recorder::null(),
            flight: None,
            draining: false,
        })
    }

    /// Attaches an observability recorder, propagating it into every
    /// admitted (and subsequently admitted) session's detector so the
    /// whole fleet shares one event stream with session/clip trace tags.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self.propagate_recorder();
        self
    }

    /// Attaches a flight recorder: a bounded tick-stamped event ring with
    /// an always-on metrics fold. All supervisor and per-session
    /// instrumentation flows into it, [`Supervisor::metrics_snapshot`] /
    /// [`Supervisor::dump_flight_record`] become live, and anomaly
    /// triggers (breaker trip, shed burst, watchdog retrigger, suspicious
    /// probe verdicts) freeze post-mortem bundles automatically.
    pub fn with_flight(mut self, config: FlightConfig) -> Self {
        let flight = Arc::new(FlightSink::new(config));
        flight.set_tick(self.clock.tick());
        self.recorder = Recorder::new(flight.clone());
        self.flight = Some(flight);
        self.propagate_recorder();
        self
    }

    /// Pushes the current recorder into every admitted session's stream.
    fn propagate_recorder(&mut self) {
        if !self.recorder.is_enabled() {
            return;
        }
        for slot in self.sessions.values_mut() {
            slot.stream.set_recorder(self.recorder.clone());
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Admits a new session around the given (already trained) streaming
    /// detector. At capacity the session is explicitly turned away —
    /// counted in [`ServeStats::rejected_sessions`], never queued.
    pub fn admit(&mut self, stream: StreamingDetector) -> AdmitOutcome {
        self.admit_with(stream, None)
    }

    /// [`Supervisor::admit`] with an active-probing director attached:
    /// whenever the passive path abstains, the director may request a
    /// luminance challenge (surfaced as
    /// [`SessionEventKind::ProbeRequested`]) whose verified response is
    /// fused back through [`Supervisor::resolve_probe`].
    pub fn admit_probed(
        &mut self,
        stream: StreamingDetector,
        probe: ProbeDirector,
    ) -> AdmitOutcome {
        self.admit_with(stream, Some(probe))
    }

    fn admit_with(
        &mut self,
        mut stream: StreamingDetector,
        probe: Option<ProbeDirector>,
    ) -> AdmitOutcome {
        if self.draining {
            self.stats.rejected_sessions += 1;
            self.recorder.add("serve.rejected_sessions", 1);
            return AdmitOutcome::Shed {
                reason: ShedReason::Draining,
            };
        }
        if self.sessions.len() >= self.config.max_sessions {
            self.stats.rejected_sessions += 1;
            self.recorder.add("serve.rejected_sessions", 1);
            return AdmitOutcome::Shed {
                reason: ShedReason::CapacityExhausted,
            };
        }
        let session = self.next_id;
        self.next_id += 1;
        if self.recorder.is_enabled() {
            // The fleet shares one recorder; per-session attribution comes
            // from the trace scopes opened around each unit of work.
            stream.set_recorder(self.recorder.clone());
        }
        self.sessions.insert(
            session,
            SessionSlot {
                stream,
                partial_tx: Vec::new(),
                partial_rx: Vec::new(),
                queue: VecDeque::new(),
                breaker: CircuitBreaker::new(self.config.breaker),
                probe,
            },
        );
        self.recorder
            .gauge("serve.sessions", self.sessions.len() as f64);
        AdmitOutcome::Admitted { session }
    }

    /// Releases a session. Clips still queued are shed as
    /// [`ShedReason::SessionClosed`] (recorded into the verdict stream
    /// first, so accounting stays exact), then the detector is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn release(&mut self, session: u64) -> Result<()> {
        let Some(mut slot) = self.sessions.remove(&session) else {
            return Err(ServeError::UnknownSession(session));
        };
        let _scope = self.recorder.session_scope(session);
        while let Some(entry) = slot.queue.pop_front() {
            let reason = match entry {
                QueuedClip::Clip { .. } => ShedReason::SessionClosed,
                QueuedClip::Tombstone { reason } => reason,
            };
            Self::record_shed(
                &mut slot.stream,
                session,
                reason,
                &mut self.stats,
                &mut self.events,
                &self.recorder,
            );
        }
        self.recorder
            .gauge("serve.sessions", self.sessions.len() as f64);
        Ok(())
    }

    /// Feeds one luminance sample pair into a session. Returns the clip's
    /// disposition when this sample completes a clip, `None` mid-clip.
    ///
    /// Samples are accepted unconditionally (backpressure acts on whole
    /// clips, the unit of detection work): when the completed clip cannot
    /// be queued — queue at capacity, or the session's breaker open — it
    /// is shed, with the `Withheld` verdict deferred behind the session's
    /// earlier pending clips to keep the verdict stream in completion
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn offer(&mut self, session: u64, tx: f64, rx: f64) -> Result<Option<ClipAdmission>> {
        let Some(slot) = self.sessions.get_mut(&session) else {
            return Err(ServeError::UnknownSession(session));
        };
        slot.partial_tx.push(tx);
        slot.partial_rx.push(rx);
        if slot.partial_tx.len() < slot.stream.clip_samples() {
            return Ok(None);
        }
        let tx = std::mem::take(&mut slot.partial_tx);
        let rx = std::mem::take(&mut slot.partial_rx);
        self.stats.offered_clips += 1;
        let _scope = self.recorder.session_scope(session);
        self.recorder.add("serve.offered", 1);
        let admission = if slot.breaker.is_open() {
            ClipAdmission::Shed {
                reason: ShedReason::BreakerOpen,
            }
        } else if slot.queued_real_clips() >= self.config.queue_clips {
            ClipAdmission::Shed {
                reason: ShedReason::QueueFull,
            }
        } else {
            ClipAdmission::Admitted
        };
        match admission {
            ClipAdmission::Admitted => slot.queue.push_back(QueuedClip::Clip {
                tx,
                rx,
                completed_at: self.clock.tick(),
            }),
            ClipAdmission::Shed { reason } => {
                slot.queue.push_back(QueuedClip::Tombstone { reason })
            }
        }
        Ok(Some(admission))
    }

    /// Advances one tick: refills the budget at period boundaries, walks
    /// breaker cool-downs, sheds deadline-expired clips, then spends
    /// credits serving queued clips round-robin. Returns the new tick.
    // lint:hot-path
    pub fn tick(&mut self) -> u64 {
        self.clock.advance();
        let now = self.clock.tick();
        if let Some(flight) = &self.flight {
            // Stamp before any event of this tick is recorded, so the
            // flight ring's logical timestamps match the tick boundary.
            flight.set_tick(now);
        }
        let _tick_span = self.recorder.span(stage::SERVE_TICK);
        let shed_before = self.stats.shed_clips;
        if now.is_multiple_of(self.config.budget_period_ticks) {
            self.credits = self.config.budget_clips;
        }
        // Breaker cool-downs.
        for (&id, slot) in self.sessions.iter_mut() {
            if let Some(transition) = slot.breaker.tick() {
                self.recorder.mark("serve.breaker", "open->half_open");
                self.events.push(SessionEvent {
                    session: id,
                    kind: SessionEventKind::Breaker(transition),
                });
            }
        }
        // Flush tombstones and deadline-expired clips from queue fronts.
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for &id in &ids {
            self.flush_front(id, now);
        }
        // Spend the budget round-robin across sessions with ready clips.
        while self.credits > 0 {
            let Some(id) = self.next_ready() else {
                break;
            };
            self.credits -= 1;
            self.serve_front(id, now);
            self.flush_front(id, now);
            self.cursor = id;
        }
        self.recorder
            .gauge("serve.queue_depth", self.pending_clips() as f64);
        if self.stats.shed_clips - shed_before >= SHED_BURST_TRIGGER {
            self.flight_trigger("shed_burst");
        }
        now
    }

    /// The next session after the fairness cursor whose queue front is a
    /// real (servable) clip.
    fn next_ready(&self) -> Option<u64> {
        let ready =
            |slot: &SessionSlot| matches!(slot.queue.front(), Some(QueuedClip::Clip { .. }));
        self.sessions
            .range(self.cursor.saturating_add(1)..)
            .find(|(_, s)| ready(s))
            .map(|(&id, _)| id)
            .or_else(|| {
                self.sessions
                    .range(..=self.cursor)
                    .find(|(_, s)| ready(s))
                    .map(|(&id, _)| id)
            })
    }

    /// Resolves everything at the queue front that needs no detection
    /// budget: tombstones, and clips already past their deadline.
    fn flush_front(&mut self, session: u64, now: u64) {
        let _scope = self.recorder.session_scope(session);
        loop {
            let Some(slot) = self.sessions.get_mut(&session) else {
                return;
            };
            let reason = match slot.queue.front() {
                Some(QueuedClip::Tombstone { reason }) => *reason,
                Some(QueuedClip::Clip { completed_at, .. })
                    if now.saturating_sub(*completed_at) > self.config.deadline_ticks =>
                {
                    ShedReason::DeadlineExceeded
                }
                _ => return,
            };
            slot.queue.pop_front();
            Self::record_shed(
                &mut slot.stream,
                session,
                reason,
                &mut self.stats,
                &mut self.events,
                &self.recorder,
            );
        }
    }

    /// Serves the clip at a session's queue front (the caller has checked
    /// it is a real clip and paid one credit for it).
    fn serve_front(&mut self, session: u64, now: u64) {
        let _scope = self.recorder.session_scope(session);
        let Some(slot) = self.sessions.get_mut(&session) else {
            // lint:allow(span-early-exit): the serve-clip span measures
            // real clip serving; a vanished session serves nothing
            return;
        };
        let Some(QueuedClip::Clip {
            tx,
            rx,
            completed_at,
        }) = slot.queue.pop_front()
        else {
            return;
        };
        let _clip_span = self.recorder.span(stage::SERVE_CLIP);
        let mut anomalies: Vec<&'static str> = Vec::new();
        // The stream commits a clip only when it judges it, so a detection
        // error leaves it as it was and the clip becomes a counted shed.
        match slot.stream.push_clip(tx, rx) {
            Ok(v) => {
                self.stats.served_clips += 1;
                self.recorder.add("serve.served", 1);
                let latency = now.saturating_sub(completed_at);
                self.latencies.push(latency);
                self.recorder.observe("serve.latency_ticks", latency as f64);
                let transition = if v.retrigger {
                    anomalies.push("watchdog_retrigger");
                    slot.breaker.record_failure()
                } else if v.outcome.accepted().is_some() {
                    slot.breaker.record_success()
                } else {
                    None
                };
                if transition == Some(BreakerTransition::Tripped) {
                    anomalies.push("breaker_tripped");
                }
                // Passive abstention is the probe director's trigger: ask
                // it whether this is the moment to spend a challenge.
                let probe_request = slot.probe.as_mut().and_then(|d| d.observe(&v));
                self.events.push(SessionEvent {
                    session,
                    kind: SessionEventKind::Verdict(v),
                });
                Self::record_breaker_transition(
                    session,
                    transition,
                    &mut self.events,
                    &self.recorder,
                );
                if let Some(schedule) = probe_request {
                    self.recorder.add("serve.probe_requests", 1);
                    self.events.push(SessionEvent {
                        session,
                        kind: SessionEventKind::ProbeRequested(schedule),
                    });
                }
            }
            Err(_) => {
                let transition = slot.breaker.record_failure();
                if transition == Some(BreakerTransition::Tripped) {
                    anomalies.push("breaker_tripped");
                }
                Self::record_shed(
                    &mut slot.stream,
                    session,
                    ShedReason::DetectionFailed,
                    &mut self.stats,
                    &mut self.events,
                    &self.recorder,
                );
                Self::record_breaker_transition(
                    session,
                    transition,
                    &mut self.events,
                    &self.recorder,
                );
            }
        }
        for reason in anomalies {
            self.flight_trigger(reason);
        }
    }

    /// Emits a trace mark and freezes the flight ring into a post-mortem
    /// bundle. A no-op without an attached flight recorder.
    fn flight_trigger(&self, reason: &'static str) {
        if let Some(flight) = &self.flight {
            // The mark lands in the ring first, so the bundle itself
            // records what tripped it.
            self.recorder.mark("flight.trigger", reason);
            flight.trigger(reason);
        }
    }

    /// Records one shed into the session's verdict stream and every
    /// counter that must see it.
    fn record_shed(
        stream: &mut StreamingDetector,
        session: u64,
        reason: ShedReason,
        stats: &mut ServeStats,
        events: &mut Vec<SessionEvent>,
        recorder: &Recorder,
    ) {
        let verdict = stream.record_withheld();
        stats.shed_clips += 1;
        match reason {
            ShedReason::QueueFull => stats.shed_queue_full += 1,
            ShedReason::DeadlineExceeded => stats.shed_deadline += 1,
            ShedReason::BreakerOpen => stats.shed_breaker += 1,
            ShedReason::DetectionFailed => stats.shed_failed += 1,
            ShedReason::SessionClosed => stats.shed_closed += 1,
            // CapacityExhausted and Draining are admission outcomes, not
            // clip sheds; they cannot reach here but the match stays total.
            ShedReason::CapacityExhausted | ShedReason::Draining => {}
        }
        recorder.add("serve.shed", 1);
        // Per-cause counters, so a metrics snapshot can apportion the shed
        // total without replaying the event stream.
        recorder.add(
            match reason {
                ShedReason::QueueFull => "serve.shed.queue_full",
                ShedReason::DeadlineExceeded => "serve.shed.deadline",
                ShedReason::BreakerOpen => "serve.shed.breaker_open",
                ShedReason::DetectionFailed => "serve.shed.detection_failed",
                ShedReason::SessionClosed => "serve.shed.session_closed",
                ShedReason::CapacityExhausted => "serve.shed.capacity",
                ShedReason::Draining => "serve.shed.draining",
            },
            1,
        );
        events.push(SessionEvent {
            session,
            kind: SessionEventKind::Shed { reason, verdict },
        });
    }

    fn record_breaker_transition(
        session: u64,
        transition: Option<BreakerTransition>,
        events: &mut Vec<SessionEvent>,
        recorder: &Recorder,
    ) {
        let Some(transition) = transition else {
            return;
        };
        let detail = match transition {
            BreakerTransition::Tripped => "tripped open",
            BreakerTransition::Probing => "open->half_open",
            BreakerTransition::Restored => "restored closed",
        };
        recorder.mark("serve.breaker", detail);
        events.push(SessionEvent {
            session,
            kind: SessionEventKind::Breaker(transition),
        });
    }

    /// Drains every event accumulated since the last call, in the order
    /// they occurred.
    pub fn drain_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Puts the supervisor into drain mode: every subsequent admission is
    /// turned away with [`ShedReason::Draining`] while already-admitted
    /// sessions keep being served. Drain mode is a property of this
    /// process, not of the fleet state — it is deliberately *not* part of
    /// [`Supervisor::snapshot`], so a restore always comes back accepting
    /// traffic.
    pub fn begin_drain(&mut self) {
        if !self.draining {
            self.draining = true;
            self.recorder.mark("serve.drain", "begin");
        }
    }

    /// Whether [`Supervisor::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Latency (ticks from clip completion to detection) of every served
    /// clip, in serve order.
    pub fn latencies_ticks(&self) -> &[u64] {
        &self.latencies
    }

    /// Number of admitted sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Admitted session ids, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// The id the next admitted session gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Samples offered to `session` so far, where its client resumes
    /// after a restart: every resolved clip and every queued entry, clip
    /// or tombstone, took one clip's samples, and the partial clip holds
    /// the rest.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn samples_offered(&self, session: u64) -> Result<u64> {
        let slot = self
            .sessions
            .get(&session)
            .ok_or(ServeError::UnknownSession(session))?;
        let clips = slot.stream.clips_done() + slot.queue.len();
        Ok((clips * slot.stream.clip_samples() + slot.partial_tx.len()) as u64)
    }

    /// Queue entries (clips and tombstones) not yet resolved, across all
    /// sessions. Zero means every offered clip has been served or shed.
    pub fn pending_clips(&self) -> usize {
        self.sessions.values().map(|s| s.queue.len()).sum()
    }

    /// Queued *servable* clips (tombstones excluded) across all sessions.
    ///
    /// This is the backlog a fleet's work-stealing tier compares across
    /// shards: tombstones resolve for free at the next tick, so only real
    /// clips represent detection work waiting on budget.
    pub fn backlog_clips(&self) -> usize {
        self.sessions.values().map(|s| s.queued_real_clips()).sum()
    }

    /// Serve credits left in the current budget period.
    pub fn credits(&self) -> u64 {
        self.credits
    }

    /// Removes up to `n` unspent credits from the current budget period,
    /// returning how many were actually taken.
    ///
    /// This is the donor half of fleet work stealing: a shard that ends
    /// its tick with credits left over provably had no ready clips (the
    /// tick loop only stops early when [`Supervisor::tick`] finds no
    /// servable queue front), so those credits can migrate to a hot shard
    /// without starving local work.
    pub fn take_credits(&mut self, n: u64) -> u64 {
        let taken = n.min(self.credits);
        self.credits -= taken;
        taken
    }

    /// Serves one ready clip *without* spending local credits, on a
    /// donated credit from another shard. Returns whether a clip was
    /// served.
    ///
    /// The served clip goes through the exact same path as budgeted
    /// serving — round-robin fairness cursor, deadline flush, breaker and
    /// shed accounting — so `served + shed == offered` still holds on
    /// this shard, and the donor's identity is untouched (it gave up a
    /// credit it was not going to spend).
    pub fn serve_stolen(&mut self) -> bool {
        let Some(id) = self.next_ready() else {
            return false;
        };
        let now = self.clock.tick();
        self.serve_front(id, now);
        self.flush_front(id, now);
        self.cursor = id;
        true
    }

    /// The session's streaming detector (status, clip accounting).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn stream(&self, session: u64) -> Result<&StreamingDetector> {
        self.sessions
            .get(&session)
            .map(|s| &s.stream)
            .ok_or(ServeError::UnknownSession(session))
    }

    /// The session's circuit-breaker position.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn breaker_state(&self, session: u64) -> Result<BreakerState> {
        self.sessions
            .get(&session)
            .map(|s| s.breaker.state())
            .ok_or(ServeError::UnknownSession(session))
    }

    /// The session's probe director, if the session was admitted with one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own.
    pub fn probe_director(&self, session: u64) -> Result<Option<&ProbeDirector>> {
        self.sessions
            .get(&session)
            .map(|s| s.probe.as_ref())
            .ok_or(ServeError::UnknownSession(session))
    }

    /// Verifies the response to a session's outstanding challenge and
    /// fuses the result: a conclusive probe verdict (pass or fail) enters
    /// the session's vote history as exactly one vote — the same 0.7·D
    /// majority the passive clips feed — and counts as breaker success;
    /// an abstaining probe changes nothing. The verdict is also surfaced
    /// as [`SessionEventKind::Probe`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for an id this supervisor
    /// does not own and [`ServeError::Probe`] when the session has no
    /// probe director, no challenge is outstanding, or verification
    /// fails (the challenge then stays in flight for a retry).
    pub fn resolve_probe(&mut self, session: u64, pair: &TracePair) -> Result<ProbeVerdict> {
        let Some(slot) = self.sessions.get_mut(&session) else {
            return Err(ServeError::UnknownSession(session));
        };
        let director = slot
            .probe
            .as_mut()
            .ok_or(ServeError::Probe(lumen_probe::ProbeError::NoProbeInFlight))?;
        let _scope = self.recorder.session_scope(session);
        let verdict = director.resolve(pair, &self.recorder)?;
        // A resolve that leaves a challenge outstanding re-issued it: the
        // director judged the missing response a restart casualty, not
        // evidence. Surface the fresh challenge like any other request.
        let reissued = director.in_flight().cloned();
        self.recorder.add("serve.probes_resolved", 1);
        if let Some(accepted) = verdict.accepted() {
            slot.stream.record_probe_vote(accepted);
            let transition = slot.breaker.record_success();
            Self::record_breaker_transition(session, transition, &mut self.events, &self.recorder);
        }
        self.events.push(SessionEvent {
            session,
            kind: SessionEventKind::Probe(verdict.clone()),
        });
        // A response that exists but arrives late, or correlates only
        // weakly, is exactly the timed-verification failure worth a
        // post-mortem (cf. the mistimed challenge rounds of Face
        // Flashing-style defenses).
        match verdict.fail_reason {
            Some(lumen_probe::ProbeFailReason::LateResponse) => {
                self.flight_trigger("probe_late_response");
            }
            Some(lumen_probe::ProbeFailReason::WeakCorrelation) => {
                self.flight_trigger("probe_weak_correlation");
            }
            _ => {}
        }
        if let Some(schedule) = reissued {
            self.recorder.add("serve.probe_reissues", 1);
            self.recorder.mark(
                "serve.probe.reissue",
                &format!("session {session}: challenge re-issued after restart window"),
            );
            self.events.push(SessionEvent {
                session,
                kind: SessionEventKind::ProbeRequested(schedule),
            });
        }
        Ok(verdict)
    }

    /// Live aggregated metrics (counters, gauges, span and value
    /// histograms) from the flight recorder's always-on fold. `None` when
    /// the supervisor was built without [`Supervisor::with_flight`].
    pub fn metrics_snapshot(&self) -> Option<Snapshot> {
        self.flight.as_ref().map(|f| f.registry_snapshot())
    }

    /// The most recent flight-recorder post-mortem rendered as JSONL
    /// (header line, then one tick-stamped event per line, oldest first).
    /// `None` without a flight recorder or before any anomaly trigger.
    pub fn dump_flight_record(&self) -> Option<String> {
        self.flight
            .as_ref()
            .and_then(|f| f.latest_postmortem())
            .map(|p| p.to_jsonl())
    }

    /// The attached flight sink, for direct inspection (all retained
    /// post-mortems, ring drop counters).
    pub fn flight_sink(&self) -> Option<&Arc<FlightSink>> {
        self.flight.as_ref()
    }

    /// The supervisor clock's current tick.
    pub fn tick_now(&self) -> u64 {
        self.clock.tick()
    }

    /// Captures the whole runtime — supervisor bookkeeping plus every
    /// session's queue, breaker and detector state — as a serializable
    /// checkpoint. Detector *models* are excluded (they are immutable and
    /// deterministically re-trainable); [`Supervisor::restore`] takes a
    /// factory that rebuilds them.
    pub fn snapshot(&self) -> SupervisorSnapshot {
        let _span = self.recorder.span(stage::CHECKPOINT);
        self.recorder.add("serve.checkpoints", 1);
        SupervisorSnapshot {
            tick: self.clock.tick(),
            credits: self.credits,
            cursor: self.cursor,
            next_id: self.next_id,
            stats: self.stats.clone(),
            latencies: self.latencies.clone(),
            sessions: self
                .sessions
                .iter()
                .map(|(&id, slot)| SessionSnapshot {
                    id,
                    partial_tx: slot.partial_tx.clone(),
                    partial_rx: slot.partial_rx.clone(),
                    queue: slot.queue.iter().cloned().collect(),
                    breaker: slot.breaker.state(),
                    stream: slot.stream.snapshot(),
                    probe: slot.probe.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a supervisor from a checkpoint. `factory` reconstructs
    /// each session's trained [`StreamingDetector`] (called with the
    /// session id); its mutable state is then restored from the snapshot,
    /// so the resumed runtime replays the interrupted workload to a
    /// byte-identical verdict sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid `config`,
    /// [`ServeError::BadSnapshot`] for duplicate session ids, a stale
    /// `next_id`, mismatched partial buffers, a queued clip completed
    /// after the checkpoint tick (a non-monotonic snapshot) or one that is
    /// not one clip long, and
    /// propagates factory and [`StreamingDetector::restore`] errors.
    pub fn restore<F>(
        config: ServeConfig,
        snap: &SupervisorSnapshot,
        mut factory: F,
    ) -> Result<Supervisor>
    where
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        config.validate()?;
        let mut sessions = BTreeMap::new();
        for s in &snap.sessions {
            let slot = Self::build_slot(&config, s, snap.tick, snap.next_id, &mut factory)?;
            if sessions.insert(s.id, slot).is_some() {
                return Err(ServeError::bad_snapshot(format!(
                    "duplicate session id {}",
                    s.id
                )));
            }
        }
        Ok(Self::assemble(config, snap, sessions))
    }

    /// [`Supervisor::restore`] with graceful degradation: a session whose
    /// snapshot entry fails validation is *quarantined* — dropped from
    /// the restored fleet and reported — instead of failing the whole
    /// restore. The healthy majority resumes byte-identical replay; the
    /// host re-admits quarantined sessions fresh. Every quarantine is
    /// counted (`serve.restore.quarantined`) and marked
    /// (`serve.restore.quarantine`) on `recorder`, so a flight-recorder
    /// post-mortem shows exactly which sessions failed closed and why.
    ///
    /// A probe director restored with a challenge in flight is put into
    /// its restart window ([`ProbeDirector::note_restart`]), making a
    /// `MissingResponse` on that challenge retry-eligible — the response
    /// may simply have been lost with the crash.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid `config`.
    /// Per-session defects never error — they quarantine.
    pub fn restore_with_report<F>(
        config: ServeConfig,
        snap: &SupervisorSnapshot,
        mut factory: F,
        recorder: &Recorder,
    ) -> Result<(Supervisor, RestoreReport)>
    where
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        config.validate()?;
        let mut sessions = BTreeMap::new();
        let mut report = RestoreReport::default();
        for s in &snap.sessions {
            if sessions.contains_key(&s.id) {
                Self::quarantine_session(
                    &mut report,
                    s.id,
                    format!("duplicate session id {}", s.id),
                    recorder,
                );
                continue;
            }
            match Self::build_slot(&config, s, snap.tick, snap.next_id, &mut factory) {
                Ok(mut slot) => {
                    if let Some(director) = slot.probe.as_mut() {
                        director.note_restart();
                    }
                    report.restored.push(s.id);
                    sessions.insert(s.id, slot);
                }
                Err(e) => Self::quarantine_session(&mut report, s.id, e.to_string(), recorder),
            }
        }
        recorder.add("serve.restore.sessions", report.restored.len() as u64);
        Ok((Self::assemble(config, snap, sessions), report))
    }

    /// Restores from the newest *valid* generation of a checkpoint store:
    /// corrupt generations are quarantined by the store (fallback), then
    /// corrupt per-session entries are quarantined by
    /// [`Supervisor::restore_with_report`] (graceful degradation). The
    /// report carries both layers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Store`] for backend failures and
    /// [`ServeError::BadSnapshot`] when no stored generation survives
    /// validation (the host must cold-start instead).
    pub fn restore_from_store<S, F>(
        config: ServeConfig,
        store: &mut CheckpointStore<S>,
        factory: F,
        recorder: &Recorder,
    ) -> Result<(Supervisor, RestoreReport)>
    where
        S: Storage,
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        let load = store.load_latest()?;
        let Some(loaded) = load.loaded else {
            return Err(ServeError::bad_snapshot(format!(
                "checkpoint store holds no valid generation ({} quarantined)",
                load.quarantined.len()
            )));
        };
        let (sup, mut report) =
            Self::restore_with_report(config, &loaded.snapshot, factory, recorder)?;
        report.fallback_generation = Some(loaded.generation);
        report.fallback_depth = loaded.fallback_depth;
        report.generation_quarantines = load.quarantined;
        if loaded.fallback_depth > 0 {
            recorder.mark(
                "serve.restore.fallback",
                &format!(
                    "fell back {} generation(s) to {}",
                    loaded.fallback_depth, loaded.generation
                ),
            );
        }
        Ok((sup, report))
    }

    /// Validates one snapshot entry and rebuilds its session slot.
    fn build_slot<F>(
        config: &ServeConfig,
        s: &SessionSnapshot,
        snap_tick: u64,
        next_id: u64,
        factory: &mut F,
    ) -> Result<SessionSlot>
    where
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        if s.id >= next_id {
            return Err(ServeError::bad_snapshot(format!(
                "session {} not below next_id {next_id}",
                s.id
            )));
        }
        if s.partial_tx.len() != s.partial_rx.len() {
            return Err(ServeError::bad_snapshot(format!(
                "session {}: partial tx/rx buffers disagree: {} vs {}",
                s.id,
                s.partial_tx.len(),
                s.partial_rx.len()
            )));
        }
        // A supervised stream judges whole clips (`push_clip`) and never
        // buffers samples of its own, so buffered samples mean rot.
        if !s.stream.tx_buffer.is_empty() || !s.stream.rx_buffer.is_empty() {
            return Err(ServeError::bad_snapshot(format!(
                "session {}: stream buffers hold {} tx and {} rx samples, but a supervised \
                 stream never buffers",
                s.id,
                s.stream.tx_buffer.len(),
                s.stream.rx_buffer.len()
            )));
        }
        for entry in &s.queue {
            if let QueuedClip::Clip { completed_at, .. } = entry {
                if *completed_at > snap_tick {
                    return Err(ServeError::bad_snapshot(format!(
                        "session {}: queued clip completed at tick {completed_at}, after the \
                         checkpoint tick {snap_tick}",
                        s.id
                    )));
                }
            }
        }
        let mut stream = factory(s.id)?;
        stream.restore(&s.stream)?;
        if s.partial_tx.len() >= stream.clip_samples() {
            return Err(ServeError::bad_snapshot(format!(
                "session {}: partial clip of {} samples does not fit a {}-sample clip",
                s.id,
                s.partial_tx.len(),
                stream.clip_samples()
            )));
        }
        for entry in &s.queue {
            if let QueuedClip::Clip { tx, rx, .. } = entry {
                if tx.len() != stream.clip_samples() || rx.len() != stream.clip_samples() {
                    return Err(ServeError::bad_snapshot(format!(
                        "session {}: queued clip of {} tx and {} rx samples is not a {}-sample \
                         clip",
                        s.id,
                        tx.len(),
                        rx.len(),
                        stream.clip_samples()
                    )));
                }
            }
        }
        Ok(SessionSlot {
            stream,
            partial_tx: s.partial_tx.clone(),
            partial_rx: s.partial_rx.clone(),
            queue: s.queue.iter().cloned().collect(),
            breaker: CircuitBreaker::with_state(config.breaker, s.breaker),
            probe: s.probe.clone(),
        })
    }

    /// Assembles the restored supervisor around the rebuilt sessions.
    fn assemble(
        config: ServeConfig,
        snap: &SupervisorSnapshot,
        sessions: BTreeMap<u64, SessionSlot>,
    ) -> Supervisor {
        let clock = SimClock::resumed_at(1.0 / config.tick_rate_hz, snap.tick);
        Supervisor {
            config,
            clock,
            sessions,
            next_id: snap.next_id,
            credits: snap.credits,
            cursor: snap.cursor,
            events: Vec::new(),
            latencies: snap.latencies.clone(),
            stats: snap.stats.clone(),
            recorder: Recorder::null(),
            flight: None,
            draining: false,
        }
    }

    /// Records one quarantined session on the report and the recorder.
    fn quarantine_session(
        report: &mut RestoreReport,
        id: u64,
        reason: String,
        recorder: &Recorder,
    ) {
        recorder.add("serve.restore.quarantined", 1);
        recorder.mark(
            "serve.restore.quarantine",
            &format!("session {id}: {reason}"),
        );
        report.quarantined.push(QuarantinedSession { id, reason });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_chat::scenario::ScenarioBuilder;
    use lumen_chat::trace::TracePair;
    use lumen_core::detector::Detector;
    use lumen_core::quality::QualityGate;
    use lumen_core::Config;
    use std::sync::OnceLock;

    fn detector() -> Detector {
        static DET: OnceLock<Detector> = OnceLock::new();
        DET.get_or_init(|| {
            let chats = ScenarioBuilder::default();
            let training: Vec<_> = (0..15)
                .map(|i| chats.legitimate(0, 70_000 + i).unwrap())
                .collect();
            Detector::train_from_traces(&training, Config::default()).unwrap()
        })
        .clone()
    }

    fn stream() -> StreamingDetector {
        StreamingDetector::new(detector(), 15.0, 3).unwrap()
    }

    fn gated_stream() -> StreamingDetector {
        stream().with_quality_gate(QualityGate::default())
    }

    /// A config whose budget easily covers a handful of sessions.
    fn relaxed() -> ServeConfig {
        ServeConfig {
            deadline_ticks: 1_000,
            ..ServeConfig::default()
        }
    }

    /// Offers one trace pair to a session, ticking the supervisor after
    /// every sample.
    fn feed_pair(sup: &mut Supervisor, session: u64, pair: &TracePair) {
        for (tx, rx) in pair.tx.samples().iter().zip(pair.rx.samples()) {
            sup.offer(session, *tx, *rx).unwrap();
            sup.tick();
        }
    }

    fn verdicts_of(events: &[SessionEvent], session: u64) -> Vec<ClipVerdict> {
        events
            .iter()
            .filter(|e| e.session == session)
            .filter_map(|e| match &e.kind {
                SessionEventKind::Verdict(v) => Some(v.clone()),
                SessionEventKind::Shed { verdict, .. } => Some(verdict.clone()),
                SessionEventKind::Breaker(_)
                | SessionEventKind::ProbeRequested(_)
                | SessionEventKind::Probe(_) => None,
            })
            .collect()
    }

    #[test]
    fn config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
        for bad in [
            ServeConfig {
                max_sessions: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_clips: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                budget_clips: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                budget_period_ticks: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                deadline_ticks: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                tick_rate_hz: 0.0,
                ..ServeConfig::default()
            },
        ] {
            assert!(Supervisor::new(bad).is_err());
        }
    }

    #[test]
    fn admission_respects_capacity() {
        let mut sup = Supervisor::new(ServeConfig {
            max_sessions: 1,
            ..relaxed()
        })
        .unwrap();
        let first = sup.admit(stream());
        assert_eq!(first.session(), Some(0));
        let second = sup.admit(stream());
        assert_eq!(
            second,
            AdmitOutcome::Shed {
                reason: ShedReason::CapacityExhausted
            }
        );
        assert_eq!(sup.stats().rejected_sessions, 1);
        assert_eq!(sup.sessions(), 1);
        sup.release(0).unwrap();
        assert!(sup.admit(stream()).session().is_some());
        assert!(sup.release(99).is_err());
        assert!(sup.stream(99).is_err());
        assert!(sup.breaker_state(99).is_err());
    }

    #[test]
    fn unloaded_run_matches_bare_streaming_detector() {
        let chats = ScenarioBuilder::default();
        let pairs: Vec<TracePair> = (0..2)
            .map(|s| chats.legitimate(0, 71_000 + s).unwrap())
            .collect();
        // Reference: the same detector fed directly.
        let mut reference = stream();
        let mut expected = Vec::new();
        for p in &pairs {
            for (tx, rx) in p.tx.samples().iter().zip(p.rx.samples()) {
                if let Some(v) = reference.push(*tx, *rx).unwrap() {
                    expected.push(v);
                }
            }
        }
        // Served through the supervisor with slack capacity.
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let id = sup.admit(stream()).session().unwrap();
        for p in &pairs {
            feed_pair(&mut sup, id, p);
        }
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        let events = sup.drain_events();
        assert_eq!(verdicts_of(&events, id), expected);
        assert_eq!(sup.stats().offered_clips, 2);
        assert_eq!(sup.stats().served_clips, 2);
        assert_eq!(sup.stats().shed_clips, 0);
        assert_eq!(sup.latencies_ticks().len(), 2);
        assert!(sup.latencies_ticks().iter().all(|&l| l <= 10));
    }

    #[test]
    fn overload_sheds_exactly_and_never_silently() {
        // Capacity: 1 clip per 150 ticks. Offered: 3 sessions × 1 clip per
        // 150 ticks = 3× saturation.
        let config = ServeConfig {
            max_sessions: 8,
            queue_clips: 1,
            budget_clips: 1,
            budget_period_ticks: 150,
            deadline_ticks: 150,
            ..ServeConfig::default()
        };
        let mut sup = Supervisor::new(config).unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|_| sup.admit(stream()).session().unwrap())
            .collect();
        let chats = ScenarioBuilder::default();
        let pair = chats.legitimate(0, 72_000).unwrap();
        for clip in 0..2 {
            let _ = clip;
            for (tx, rx) in pair.tx.samples().iter().zip(pair.rx.samples()) {
                for &id in &ids {
                    sup.offer(id, *tx, *rx).unwrap();
                }
                sup.tick();
            }
        }
        let mut guard = 0;
        while sup.pending_clips() > 0 {
            sup.tick();
            guard += 1;
            assert!(guard < 2_000, "queues must drain under deadline shedding");
        }
        let stats = sup.stats().clone();
        assert_eq!(stats.offered_clips, 6);
        assert!(stats.shed_clips > 0, "3x saturation must shed");
        assert_eq!(
            stats.served_clips + stats.shed_clips,
            stats.offered_clips,
            "every offered clip is either served or a counted shed"
        );
        assert_eq!(
            stats.shed_clips,
            stats.shed_queue_full
                + stats.shed_deadline
                + stats.shed_breaker
                + stats.shed_failed
                + stats.shed_closed
        );
        // Nothing vanished: each session's verdict stream carries one
        // entry per offered clip, and sheds surfaced as events.
        let events = sup.drain_events();
        for &id in &ids {
            assert_eq!(sup.stream(id).unwrap().clips_done(), 2);
            assert_eq!(verdicts_of(&events, id).len(), 2);
        }
        let shed_events = events
            .iter()
            .filter(|e| matches!(e.kind, SessionEventKind::Shed { .. }))
            .count() as u64;
        assert_eq!(shed_events, stats.shed_clips);
    }

    #[test]
    fn served_clips_under_overload_match_unloaded_outcomes() {
        let chats = ScenarioBuilder::default();
        let pairs: Vec<TracePair> = (0..2)
            .map(|s| chats.legitimate(0, 73_000 + s).unwrap())
            .collect();
        // Unloaded reference verdict per clip position.
        let mut reference = stream();
        let mut expected = Vec::new();
        for p in &pairs {
            for (tx, rx) in p.tx.samples().iter().zip(p.rx.samples()) {
                if let Some(v) = reference.push(*tx, *rx).unwrap() {
                    expected.push(v);
                }
            }
        }
        // Overloaded: two sessions share one clip of budget per period, so
        // some clips shed — but every *served* clip must reproduce the
        // unloaded outcome at its clip position.
        let config = ServeConfig {
            queue_clips: 1,
            budget_clips: 1,
            budget_period_ticks: 150,
            deadline_ticks: 150,
            ..ServeConfig::default()
        };
        let mut sup = Supervisor::new(config).unwrap();
        let ids: Vec<u64> = (0..2)
            .map(|_| sup.admit(stream()).session().unwrap())
            .collect();
        for p in &pairs {
            for (tx, rx) in p.tx.samples().iter().zip(p.rx.samples()) {
                for &id in &ids {
                    sup.offer(id, *tx, *rx).unwrap();
                }
                sup.tick();
            }
        }
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        let events = sup.drain_events();
        let mut saw_served = false;
        for &id in &ids {
            for v in verdicts_of(&events, id) {
                if let Some(d) = v.detection() {
                    saw_served = true;
                    assert_eq!(
                        Some(d),
                        expected[v.clip_index].detection(),
                        "served clip {} must match the unloaded outcome",
                        v.clip_index
                    );
                }
            }
        }
        assert!(saw_served, "at least one clip must be served");
    }

    #[test]
    fn breaker_trips_sheds_probes_and_restores() {
        let config = ServeConfig {
            breaker: BreakerConfig {
                trip_after: 2,
                open_ticks: 400,
                half_open_probes: 1,
            },
            ..relaxed()
        };
        let mut sup = Supervisor::new(config).unwrap();
        let id = sup.admit(gated_stream()).session().unwrap();
        // Six flatline clips: the quality gate abstains on each, the
        // stream watchdog re-triggers twice (after 2 and 4+2 abstentions),
        // and the second re-trigger trips the breaker.
        for _ in 0..6 * 150 {
            sup.offer(id, 100.0, 42.0).unwrap();
            sup.tick();
        }
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        assert!(matches!(
            sup.breaker_state(id).unwrap(),
            BreakerState::Open { .. }
        ));
        // A clip completed while open is shed without detection work.
        for _ in 0..150 {
            sup.offer(id, 100.0, 42.0).unwrap();
            sup.tick();
        }
        sup.tick(); // flush the tombstone
                    // Cool-down expires into half-open probing...
        for _ in 0..500 {
            sup.tick();
        }
        assert_eq!(
            sup.breaker_state(id).unwrap(),
            BreakerState::HalfOpen { successes: 0 }
        );
        // ...and one conclusive probe clip restores the session.
        let pair = ScenarioBuilder::default().legitimate(0, 74_000).unwrap();
        feed_pair(&mut sup, id, &pair);
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        assert_eq!(
            sup.breaker_state(id).unwrap(),
            BreakerState::Closed { failures: 0 }
        );
        let events = sup.drain_events();
        let transitions: Vec<BreakerTransition> = events
            .iter()
            .filter_map(|e| match e.kind {
                SessionEventKind::Breaker(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                BreakerTransition::Tripped,
                BreakerTransition::Probing,
                BreakerTransition::Restored
            ]
        );
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                SessionEventKind::Shed {
                    reason: ShedReason::BreakerOpen,
                    ..
                }
            )),
            "the clip completed while open must shed as BreakerOpen"
        );
        assert_eq!(sup.stats().shed_breaker, 1);
    }

    #[test]
    fn passive_abstention_requests_probe_and_fuses_verdict() {
        use lumen_chat::session::SessionConfig;
        use lumen_probe::{ProbeConfig, ProbeDecision, ProbeInjector, ProbePolicy};

        let mut sup = Supervisor::new(relaxed()).unwrap();
        let director = ProbeDirector::new(ProbePolicy::default(), 31).unwrap();
        let id = sup
            .admit_probed(gated_stream(), director)
            .session()
            .unwrap();
        // A flatline clip: the passive gate abstains, which is the
        // director's trigger.
        for _ in 0..150 {
            sup.offer(id, 100.0, 42.0).unwrap();
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
            .expect("an inconclusive clip must raise a probe request");
        assert_eq!(
            sup.probe_director(id).unwrap().unwrap().in_flight(),
            Some(&schedule)
        );
        // The client transmits the challenge; a live face reflects it.
        let pair = ProbeInjector::new(schedule.clone())
            .armed_scenario(
                ScenarioBuilder::default()
                    .with_session(
                        ProbeConfig::default().session_config(1.5, &SessionConfig::default()),
                    )
                    .with_static_caller(120.0),
            )
            .legitimate(0, 77_000)
            .unwrap();
        let clips_before = sup.stream(id).unwrap().clips_done();
        let verdict = sup.resolve_probe(id, &pair).unwrap();
        assert_eq!(verdict.decision, ProbeDecision::Pass, "{verdict:?}");
        // Fused as a vote, not as a clip; the challenge is spent.
        assert_eq!(sup.stream(id).unwrap().clips_done(), clips_before);
        assert!(sup
            .probe_director(id)
            .unwrap()
            .unwrap()
            .in_flight()
            .is_none());
        let events = sup.drain_events();
        assert!(events.iter().any(
            |e| matches!(&e.kind, SessionEventKind::Probe(v) if v.decision == ProbeDecision::Pass)
        ));
        // No second response to verify.
        assert!(matches!(
            sup.resolve_probe(id, &pair),
            Err(ServeError::Probe(lumen_probe::ProbeError::NoProbeInFlight))
        ));
        // Unprobed sessions and unknown ids are both refused.
        let plain = sup.admit(stream()).session().unwrap();
        assert!(matches!(
            sup.resolve_probe(plain, &pair),
            Err(ServeError::Probe(lumen_probe::ProbeError::NoProbeInFlight))
        ));
        assert!(matches!(
            sup.resolve_probe(99, &pair),
            Err(ServeError::UnknownSession(99))
        ));
        assert!(sup.probe_director(plain).unwrap().is_none());
        assert!(sup.probe_director(99).is_err());
    }

    #[test]
    fn release_sheds_queued_clips_as_closed() {
        let config = ServeConfig {
            budget_clips: 1,
            budget_period_ticks: 10_000,
            ..relaxed()
        };
        let mut sup = Supervisor::new(config).unwrap();
        let id = sup.admit(stream()).session().unwrap();
        let pair = ScenarioBuilder::default().legitimate(0, 75_000).unwrap();
        // Complete one clip without granting any budget ticks afterwards.
        for (tx, rx) in pair.tx.samples().iter().zip(pair.rx.samples()) {
            sup.offer(id, *tx, *rx).unwrap();
        }
        assert_eq!(sup.pending_clips(), 1);
        sup.release(id).unwrap();
        assert_eq!(sup.pending_clips(), 0);
        assert_eq!(sup.stats().shed_closed, 1);
        let events = sup.drain_events();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            SessionEventKind::Shed {
                reason: ShedReason::SessionClosed,
                ..
            }
        )));
    }

    #[test]
    fn checkpoint_round_trips_and_resumes_identically() {
        let chats = ScenarioBuilder::default();
        let pair_a = chats.legitimate(0, 76_000).unwrap();
        let pair_b = chats.legitimate(0, 76_001).unwrap();
        let build = |session: u64| -> lumen_core::Result<StreamingDetector> {
            let _ = session;
            StreamingDetector::new(detector(), 15.0, 3)
        };
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let a = sup.admit(stream()).session().unwrap();
        let b = sup.admit(stream()).session().unwrap();
        // Session a completes one clip; session b is 80 samples into one.
        feed_pair(&mut sup, a, &pair_a);
        for (tx, rx) in pair_b.tx.samples()[..80]
            .iter()
            .zip(&pair_b.rx.samples()[..80])
        {
            sup.offer(b, *tx, *rx).unwrap();
            sup.tick();
        }
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        let drained = sup.drain_events();
        assert!(!drained.is_empty());
        // Snapshot → JSON → snapshot must be lossless.
        let snap = sup.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: SupervisorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // The restored supervisor is indistinguishable going forward.
        let mut restored = Supervisor::restore(sup.config().clone(), &back, build).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.tick_now(), sup.tick_now());
        // Both resume where their clients left off.
        assert_eq!(restored.samples_offered(a).unwrap(), 150);
        assert_eq!(restored.samples_offered(b).unwrap(), 80);
        assert!(restored.samples_offered(b + 1).is_err());
        assert_eq!(restored.next_id(), b + 1);
        for (tx, rx) in pair_b.tx.samples()[80..]
            .iter()
            .zip(&pair_b.rx.samples()[80..])
        {
            sup.offer(b, *tx, *rx).unwrap();
            sup.tick();
            restored.offer(b, *tx, *rx).unwrap();
            restored.tick();
        }
        while sup.pending_clips() > 0 || restored.pending_clips() > 0 {
            sup.tick();
            restored.tick();
        }
        assert_eq!(restored.drain_events(), sup.drain_events());
        assert_eq!(restored.stats(), sup.stats());
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let mut sup = Supervisor::new(relaxed()).unwrap();
        sup.admit(stream());
        let good = sup.snapshot();
        let mut bad = good.clone();
        bad.next_id = 0; // session 0 exists, so next_id must exceed it
        assert!(Supervisor::restore(relaxed(), &bad, build).is_err());
        let mut bad = good.clone();
        bad.sessions[0].partial_rx.push(1.0);
        assert!(Supervisor::restore(relaxed(), &bad, build).is_err());
        let mut bad = good.clone();
        bad.sessions.push(bad.sessions[0].clone());
        assert!(Supervisor::restore(relaxed(), &bad, build).is_err());
        assert!(Supervisor::restore(relaxed(), &good, build).is_ok());
    }

    #[test]
    fn restore_rejects_duplicate_ids_and_future_clips_with_typed_errors() {
        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let mut sup = Supervisor::new(relaxed()).unwrap();
        sup.admit(stream());
        let good = sup.snapshot();
        // Duplicate session ids are a distinct, named defect.
        let mut bad = good.clone();
        bad.sessions.push(bad.sessions[0].clone());
        match Supervisor::restore(relaxed(), &bad, build) {
            Err(ServeError::BadSnapshot(reason)) => {
                assert!(reason.contains("duplicate session id"), "{reason}");
            }
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
        // A queued clip completed after the checkpoint tick is a
        // non-monotonic snapshot: the clip claims to come from the future.
        let mut bad = good.clone();
        bad.sessions[0].queue.push(QueuedClip::Clip {
            tx: vec![1.0],
            rx: vec![1.0],
            completed_at: bad.tick + 1,
        });
        match Supervisor::restore(relaxed(), &bad, build) {
            Err(ServeError::BadSnapshot(reason)) => {
                assert!(reason.contains("after the checkpoint tick"), "{reason}");
            }
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_queued_clip_that_is_not_one_clip_long() {
        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let a = sup.admit(stream()).session().unwrap();
        let b = sup.admit(stream()).session().unwrap();
        let good = sup.snapshot();
        // One sample too many, and sides of different lengths.
        for (tx, rx) in [(151, 151), (150, 149)] {
            let mut bad = good.clone();
            bad.sessions[1].queue.push(QueuedClip::Clip {
                tx: vec![100.0; tx],
                rx: vec![100.0; rx],
                completed_at: bad.tick,
            });
            match Supervisor::restore(relaxed(), &bad, build) {
                Err(ServeError::BadSnapshot(reason)) => {
                    assert!(reason.contains("not a 150-sample clip"), "{reason}");
                }
                other => panic!("expected BadSnapshot, got {other:?}"),
            }
            let (restored, report) =
                Supervisor::restore_with_report(relaxed(), &bad, build, &Recorder::null()).unwrap();
            assert_eq!(report.restored, vec![a]);
            assert_eq!(report.quarantined.len(), 1);
            assert_eq!(report.quarantined[0].id, b);
            assert!(
                report.quarantined[0]
                    .reason
                    .contains("not a 150-sample clip"),
                "{}",
                report.quarantined[0].reason
            );
            assert_eq!(restored.session_ids(), vec![a]);
        }
    }

    #[test]
    fn restore_rejects_samples_buffered_in_a_session_stream() {
        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let a = sup.admit(stream()).session().unwrap();
        let b = sup.admit(stream()).session().unwrap();
        let mut bad = sup.snapshot();
        bad.sessions[1].stream.tx_buffer = vec![100.0; 10];
        bad.sessions[1].stream.rx_buffer = vec![100.0; 10];
        let expected = format!("session {b}: stream buffers hold 10 tx and 10 rx samples");
        match Supervisor::restore(relaxed(), &bad, build) {
            Err(ServeError::BadSnapshot(reason)) => {
                assert!(reason.contains(&expected), "{reason}");
            }
            other => panic!("expected BadSnapshot, got {other:?}"),
        }
        let (restored, report) =
            Supervisor::restore_with_report(relaxed(), &bad, build, &Recorder::null()).unwrap();
        assert_eq!(report.restored, vec![a]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, b);
        assert!(
            report.quarantined[0].reason.contains(&expected),
            "{}",
            report.quarantined[0].reason
        );
        assert_eq!(restored.session_ids(), vec![a]);
    }

    #[test]
    fn restore_with_report_quarantines_bad_sessions_and_keeps_the_rest() {
        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let (recorder, sink) = Recorder::in_memory();
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let a = sup.admit(stream()).session().unwrap();
        let b = sup.admit(stream()).session().unwrap();
        let mut snap = sup.snapshot();
        // Rot session b's entry: its partial buffers disagree in shape.
        let slot = snap.sessions.iter_mut().find(|s| s.id == b).unwrap();
        slot.partial_rx.push(0.0);
        let (restored, report) =
            Supervisor::restore_with_report(relaxed(), &snap, build, &recorder).unwrap();
        assert_eq!(report.restored, vec![a]);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, b);
        assert!(
            report.quarantined[0].reason.contains("partial tx/rx"),
            "{}",
            report.quarantined[0].reason
        );
        assert_eq!(restored.sessions(), 1);
        assert_eq!(restored.session_ids(), vec![a]);
        let registry = sink.registry();
        assert_eq!(registry.counter("serve.restore.quarantined"), 1);
        assert_eq!(registry.counter("serve.restore.sessions"), 1);
        // The strict path refuses the same snapshot outright.
        assert!(Supervisor::restore(relaxed(), &snap, build).is_err());
    }

    #[test]
    fn restored_in_flight_probe_is_retry_eligible_and_reissued() {
        use lumen_core::quality::InconclusiveReason;
        use lumen_probe::{ProbeDecision, ProbePolicy};

        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let director = ProbeDirector::new(ProbePolicy::default(), 31).unwrap();
        let id = sup
            .admit_probed(gated_stream(), director)
            .session()
            .unwrap();
        // A flatline clip makes the gate abstain, which issues a probe.
        for _ in 0..150 {
            sup.offer(id, 100.0, 42.0).unwrap();
            sup.tick();
        }
        while sup.pending_clips() > 0 {
            sup.tick();
        }
        sup.drain_events();
        let challenge = sup
            .probe_director(id)
            .unwrap()
            .unwrap()
            .in_flight()
            .cloned()
            .expect("challenge in flight");

        // Crash with the challenge outstanding; recover gracefully.
        let snap = sup.snapshot();
        drop(sup);
        let (recorder, _sink) = Recorder::in_memory();
        let (mut sup, report) =
            Supervisor::restore_with_report(relaxed(), &snap, build, &recorder).unwrap();
        assert_eq!(report.restored, vec![id]);
        let director = sup.probe_director(id).unwrap().unwrap();
        assert!(
            director.in_restart_window(),
            "a restored in-flight challenge opens the restart window"
        );

        // The response went down with the crash: rx carries only a faint
        // copy of the challenge (high correlation, no physical gain).
        // Inside the restart window that is retry-eligible, not a reject.
        let rate = challenge.sample_rate;
        let samples: Vec<f64> = challenge
            .waveform()
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let dither = if i % 2 == 0 { 0.05 } else { -0.05 };
                128.0 + 0.005 * w + dither
            })
            .collect();
        let rx = lumen_dsp::Signal::new(samples, rate).unwrap();
        let pair = TracePair {
            tx: rx.clone(),
            rx,
            kind: lumen_chat::trace::ScenarioKind::Legitimate { user: 0 },
            seed: 0,
            forward_delay: 0.0,
            backward_delay: 0.0,
        };
        let verdict = sup.resolve_probe(id, &pair).unwrap();
        assert_eq!(verdict.decision, ProbeDecision::Abstain);
        assert_eq!(verdict.abstain_reason, Some(InconclusiveReason::Withheld));
        // The challenge was re-issued, not silently dropped.
        let reissued = sup
            .probe_director(id)
            .unwrap()
            .unwrap()
            .in_flight()
            .cloned()
            .expect("a fresh challenge is re-issued");
        assert_ne!(reissued, challenge);
        let events = sup.drain_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(&e.kind, SessionEventKind::ProbeRequested(s) if *s == reissued)),
            "the re-issue must surface as a ProbeRequested event"
        );

        // The strict restore path must NOT arm the window: byte-identical
        // replay forbids behavioural drift.
        let strict = Supervisor::restore(relaxed(), &snap, build).unwrap();
        assert!(!strict
            .probe_director(id)
            .unwrap()
            .unwrap()
            .in_restart_window());
    }

    #[test]
    fn restore_from_store_falls_back_past_a_corrupt_generation() {
        use crate::store::{entry_name, MemStorage, StoreConfig};

        let build = |_: u64| StreamingDetector::new(detector(), 15.0, 3);
        let (recorder, _sink) = Recorder::in_memory();
        let mut sup = Supervisor::new(relaxed()).unwrap();
        let id = sup.admit(stream()).session().unwrap();
        let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        store.commit(sup.tick_now(), &sup.snapshot()).unwrap();
        sup.tick();
        store.commit(sup.tick_now(), &sup.snapshot()).unwrap();
        // Bit-rot the newest generation; the restore must fall back.
        assert!(store.storage_mut().tamper(&entry_name(2), 30, 0x40));
        let (restored, report) =
            Supervisor::restore_from_store(relaxed(), &mut store, build, &recorder).unwrap();
        assert_eq!(report.fallback_generation, Some(1));
        assert_eq!(report.fallback_depth, 1);
        assert_eq!(report.generation_quarantines.len(), 1);
        assert_eq!(report.restored, vec![id]);
        assert_eq!(restored.tick_now(), 0, "generation 1 predates the tick");
        // Nothing valid at all is a typed cold-start signal.
        let mut empty = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        assert!(matches!(
            Supervisor::restore_from_store(relaxed(), &mut empty, build, &recorder),
            Err(ServeError::BadSnapshot(_))
        ));
    }
}
