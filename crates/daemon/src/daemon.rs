//! The `lumend` event loop: a single-threaded, deterministic daemon core
//! wrapping one [`Supervisor`].
//!
//! One [`Daemon::turn_once`] is the unit of progress: accept pending
//! connections, read and dispatch every decodable frame from every peer,
//! advance the supervisor one tick, route the drained session events back
//! out as frames, enforce abuse/read/idle deadlines, checkpoint on
//! schedule, flush. Because a turn advances the simulated clock exactly
//! one tick, the whole daemon is a pure function of (config, admitted
//! traffic) — the loopback experiments and the kill/restore soak rely on
//! this to demand *byte-identical* verdict streams across restarts.
//!
//! ## Robustness posture
//!
//! - **Malformed bytes** can never panic the process: the wire decoder is
//!   total, and every [`WireError`] maps to a typed
//!   [`Frame::Goodbye`] plus a `daemon.frames_rejected.*` counter.
//! - **Oversize frames** are refused from the header alone — the length
//!   cap gates before the body is buffered, so hostile lengths cannot
//!   drive allocation.
//! - **Slowloris** (a frame trickled forever) trips the read deadline;
//!   silence trips the idle deadline. Both get typed disconnects.
//! - **Floods** drain a per-connection token bucket; refusals are
//!   counted, and past a threshold the peer is disconnected for abuse and
//!   a flight-recorder post-mortem is triggered.
//! - **Backpressure** maps transport pressure onto the supervisor's
//!   existing shed accounting: every wire verdict/shed frame is counted,
//!   and `served + shed == offered` holds end-to-end (see
//!   [`WireStats::verdict_total`] / [`WireStats::shed_total`]).

use crate::limiter::TokenBucket;
use crate::transport::{Conn, Listener, ReadEvent};
use crate::wire::{Decoder, DisconnectCause, Frame, RejectCode, WireError, WireTrace, WireVerdict};
use crate::{DaemonError, Result};
use lumen_chat::trace::{ScenarioKind, TracePair};
use lumen_core::detector::ClipOutcome;
use lumen_core::quality::InconclusiveReason;
use lumen_core::stream::{ClipVerdict, SessionStatus, StreamingDetector};
use lumen_dsp::Signal;
use lumen_obs::{FlightConfig, FlightSink, Recorder, Sink};
use lumen_probe::{ProbeDirector, ProbePolicy};
use lumen_serve::{
    AdmitOutcome, BreakerTransition, CheckpointStore, CommitOutcome, MemStorage, RestoreReport,
    ServeConfig, ServeStats, SessionEventKind, ShardBreakdown, Storage, Supervisor,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Builds a fresh trained streaming detector for a session. Called with
/// the session id on restore; with `u64::MAX` for a brand-new admission
/// (the id is only assigned once the supervisor accepts).
pub type DetectorFactory = Box<dyn FnMut(u64) -> lumen_core::Result<StreamingDetector>>;

/// Daemon tuning knobs. All deadlines are in event-loop turns (= ticks),
/// never wall-clock, so every behaviour is reproducible.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Hard cap on a frame's payload length, enforced from the header.
    pub max_frame_len: u32,
    /// Token-bucket burst capacity per connection.
    pub bucket_capacity: u32,
    /// Tokens regained per turn per connection.
    pub bucket_refill: f64,
    /// Rate-limited frames tolerated before the peer is disconnected for
    /// abuse (and a flight post-mortem fires).
    pub abuse_disconnect_after: u32,
    /// Turns of total silence before an idle disconnect.
    pub idle_turns: u64,
    /// Turns a partial frame may sit undecodable before a slow-read
    /// (slowloris) disconnect.
    pub read_turns: u64,
    /// Commit a checkpoint every this many turns (0 = only at drain).
    pub checkpoint_every_turns: u64,
    /// Per-session cap on frames parked for a disconnected-but-resumable
    /// session; overflow evicts oldest-first and is counted.
    pub park_limit: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            max_frame_len: 1 << 20,
            bucket_capacity: 64,
            bucket_refill: 8.0,
            abuse_disconnect_after: 32,
            idle_turns: 10_000,
            read_turns: 1_000,
            checkpoint_every_turns: 0,
            park_limit: 4096,
        }
    }
}

/// Wire-level accounting, the daemon-side half of the
/// `served + shed == offered` identity. Every supervisor event is either
/// sent, parked for a resumable session, or counted as orphaned — nothing
/// is silently dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Verdict frames delivered or parked.
    pub verdict_frames: u64,
    /// Verdict events whose session was no longer reachable.
    pub orphaned_verdicts: u64,
    /// Shed frames delivered or parked.
    pub shed_frames: u64,
    /// Shed events whose session was no longer reachable.
    pub orphaned_sheds: u64,
    /// Admissions refused (typed `Refused` frames).
    pub refused_admissions: u64,
    /// Sessions admitted over the wire.
    pub welcomes: u64,
    /// Successful resumes after a restart.
    pub resumes: u64,
    /// Refused resumes (unknown or quarantined sessions).
    pub resume_rejections: u64,
    /// Frames refused by the token bucket.
    pub rate_limited: u64,
    /// Non-fatal `Reject` frames sent (all codes).
    pub rejected_frames: u64,
    /// Connections dropped for rate-limit abuse.
    pub abuse_disconnects: u64,
    /// Connections dropped for idle timeout.
    pub idle_disconnects: u64,
    /// Connections dropped for a stalled partial frame.
    pub slow_read_disconnects: u64,
    /// Connections dropped for malformed/oversize bytes.
    pub malformed_disconnects: u64,
    /// Parked frames evicted by the per-session park cap.
    pub park_overflow: u64,
}

impl WireStats {
    /// All verdict events accounted at the wire layer.
    pub fn verdict_total(&self) -> u64 {
        self.verdict_frames + self.orphaned_verdicts
    }

    /// All shed events accounted at the wire layer.
    pub fn shed_total(&self) -> u64 {
        self.shed_frames + self.orphaned_sheds
    }
}

/// Report returned by [`Daemon::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Turns the drain took from the call to fully drained.
    pub turns: u64,
    /// Supervisor tick at completion.
    pub tick: u64,
    /// Generation of the final checkpoint, when a store is attached.
    pub final_generation: Option<u64>,
}

/// One connected peer and its protocol state.
struct Peer {
    conn: Conn,
    decoder: Decoder,
    bucket: TokenBucket,
    last_rx_turn: u64,
    partial_since: Option<u64>,
    rate_limited: u32,
    closing: bool,
}

/// The `lumend` daemon: listener, peers, supervisor, store. The
/// supervisor owns every session's state; the daemon keeps only what is
/// about connections: which peer a session is bound to, and the frames
/// parked for a session no peer holds.
pub struct Daemon<S: Storage = MemStorage> {
    config: DaemonConfig,
    listener: Listener,
    sup: Supervisor,
    factory: DetectorFactory,
    probe_policy: Option<ProbePolicy>,
    probe_seed: u64,
    store: Option<CheckpointStore<S>>,
    peers: BTreeMap<u64, Peer>,
    next_peer: u64,
    /// session → peer currently bound to it.
    bound: BTreeMap<u64, u64>,
    /// Encoded frames awaiting a resumed connection, per session.
    parked: BTreeMap<u64, VecDeque<Vec<u8>>>,
    recorder: Recorder,
    flight: Option<Arc<FlightSink>>,
    turn: u64,
    stats: WireStats,
    drained: bool,
    final_generation: Option<u64>,
}

impl<S: Storage> Daemon<S> {
    /// A daemon around an already-configured supervisor, bound to an
    /// ephemeral loopback port. When the supervisor carries a flight
    /// recorder, the daemon's own counters flow into the same registry.
    /// The supervisor is usually empty; the sessions of a non-empty one
    /// are unbound and can resume, as after [`Daemon::restore_from_store`].
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] when the listener cannot bind.
    pub fn new(
        sup: Supervisor,
        factory: DetectorFactory,
        config: DaemonConfig,
        store: Option<CheckpointStore<S>>,
    ) -> Result<Self> {
        let listener = Listener::bind_loopback()?;
        let flight = sup.flight_sink().cloned();
        let recorder = match &flight {
            Some(f) => Recorder::new(f.clone() as Arc<dyn Sink>),
            None => Recorder::null(),
        };
        Ok(Daemon {
            config,
            listener,
            sup,
            factory,
            probe_policy: None,
            probe_seed: 0,
            store,
            peers: BTreeMap::new(),
            next_peer: 0,
            bound: BTreeMap::new(),
            parked: BTreeMap::new(),
            recorder,
            flight,
            turn: 0,
            stats: WireStats::default(),
            drained: false,
            final_generation: None,
        })
    }

    /// Restarts a daemon from the newest valid checkpoint generation in
    /// `store` — the crash-recovery path of the soak. Sessions that fail
    /// validation are quarantined: the supervisor does not know them, so
    /// their resumes are refused and their clients re-admit fresh.
    /// Everything else resumes exactly where the checkpoint left it, at
    /// [`Supervisor::samples_offered`].
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Serve`] when no stored generation survives
    /// validation, and [`DaemonError::Io`] for listener failures.
    pub fn restore_from_store(
        serve_config: ServeConfig,
        mut store: CheckpointStore<S>,
        mut factory: DetectorFactory,
        config: DaemonConfig,
        flight: Option<FlightConfig>,
    ) -> Result<(Self, RestoreReport)> {
        let recorder = Recorder::null();
        let (sup, report) =
            Supervisor::restore_from_store(serve_config, &mut store, &mut *factory, &recorder)?;
        let sup = match flight {
            Some(fc) => sup.with_flight(fc),
            None => sup,
        };
        let daemon = Daemon::new(sup, factory, config, Some(store))?;
        daemon.recorder.add("daemon.restores", 1);
        Ok((daemon, report))
    }

    /// Arms active probing: admitted sessions get a [`ProbeDirector`]
    /// seeded from `seed` and the session id, so challenge schedules are
    /// reproducible per session.
    pub fn with_probe(mut self, policy: ProbePolicy, seed: u64) -> Self {
        self.probe_policy = Some(policy);
        self.probe_seed = seed;
        self
    }

    /// The loopback port clients connect to.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }

    /// Wire-level accounting so far.
    pub fn wire_stats(&self) -> &WireStats {
        &self.stats
    }

    /// The wrapped supervisor's serve accounting.
    pub fn serve_stats(&self) -> &ServeStats {
        self.sup.stats()
    }

    /// The wrapped supervisor (read-only).
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// The checkpoint store, when one is attached.
    pub fn store(&self) -> Option<&CheckpointStore<S>> {
        self.store.as_ref()
    }

    /// Turns executed so far.
    pub fn turns(&self) -> u64 {
        self.turn
    }

    /// Whether [`Daemon::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.sup.is_draining()
    }

    /// Whether the drain has completed (the daemon is inert).
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// The payload of [`Frame::Metrics`]: a JSON object with the obs
    /// registry snapshot under `"metrics"` (`{}` when no flight recorder
    /// is attached) and a per-shard serve breakdown under `"shards"`. A
    /// single daemon wraps one supervisor, so the breakdown has exactly
    /// one row (shard 0); fleet deployments report one row per shard in
    /// the same shape.
    pub fn metrics_json(&self) -> String {
        use serde::{Serialize, Value};
        let metrics = match self.sup.metrics_snapshot() {
            Some(snap) => snap.serialize(),
            None => Value::Object(Vec::new()),
        };
        let shards = Value::Array(vec![
            ShardBreakdown::from_supervisor(0, &self.sup).serialize()
        ]);
        let reply = Value::Object(vec![
            ("metrics".to_string(), metrics),
            ("shards".to_string(), shards),
        ]);
        match serde_json::to_string(&reply) {
            Ok(json) => json,
            Err(_) => {
                self.recorder.add("daemon.metrics_render_failures", 1);
                "{}".to_string()
            }
        }
    }

    /// Stops admitting (wire `Hello`s get `Refused{Draining}`, the
    /// supervisor refuses with [`lumen_serve::ShedReason::Draining`]) while
    /// in-flight clips keep being served. [`Daemon::turn_once`] completes the
    /// drain once the queues are empty.
    pub fn begin_drain(&mut self) {
        if !self.sup.is_draining() {
            self.sup.begin_drain();
            self.recorder.mark("daemon.drain", "begin");
        }
    }

    /// Runs [`Daemon::turn_once`] until the drain completes.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::DrainStalled`] when the drain does not
    /// complete within `max_turns`, or any turn error.
    pub fn drain(&mut self, max_turns: u64) -> Result<DrainReport> {
        self.begin_drain();
        let start = self.turn;
        while !self.drained {
            if self.turn - start >= max_turns {
                return Err(DaemonError::DrainStalled {
                    turns: self.turn - start,
                    pending: self.sup.pending_clips(),
                });
            }
            self.turn_once()?;
        }
        Ok(DrainReport {
            turns: self.turn - start,
            tick: self.sup.tick_now(),
            final_generation: self.final_generation,
        })
    }

    /// One event-loop turn. See the module docs for the exact sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::Io`] only for unexpected transport
    /// failures; peer misbehaviour never errors the loop.
    pub fn turn_once(&mut self) -> Result<()> {
        let _span = self.recorder.span(lumen_obs::stage::DAEMON_TURN);
        if self.drained {
            return Ok(());
        }
        self.turn += 1;
        self.accept_pending()?;
        let peer_ids: Vec<u64> = self.peers.keys().copied().collect();
        for pid in peer_ids {
            self.service_peer(pid)?;
        }
        let _tick = self.sup.tick();
        if let Some(store) = self.store.as_mut() {
            let now = self.sup.tick_now();
            if let Some(CommitOutcome::Committed { .. }) = store.tick(now) {
                self.recorder.add("daemon.checkpoint_retries_flushed", 1);
            }
        }
        self.route_events();
        self.enforce_deadlines();
        if !self.sup.is_draining()
            && self.config.checkpoint_every_turns > 0
            && self.turn.is_multiple_of(self.config.checkpoint_every_turns)
        {
            self.checkpoint();
        }
        if self.sup.is_draining() && self.sup.pending_clips() == 0 {
            self.finish_drain();
        }
        self.flush_and_reap()?;
        Ok(())
    }

    fn accept_pending(&mut self) -> Result<()> {
        while let Some(mut conn) = self.listener.accept()? {
            if self.sup.is_draining() {
                conn.queue(
                    &Frame::Goodbye {
                        cause: DisconnectCause::Draining,
                    }
                    .encode(),
                );
                match conn.flush() {
                    Ok(_) => {}
                    Err(_) => self.recorder.add("daemon.flush_failures", 1),
                }
                continue;
            }
            let pid = self.next_peer;
            self.next_peer += 1;
            self.peers.insert(
                pid,
                Peer {
                    conn,
                    decoder: Decoder::new(self.config.max_frame_len),
                    bucket: TokenBucket::new(
                        self.config.bucket_capacity,
                        self.config.bucket_refill,
                    ),
                    last_rx_turn: self.turn,
                    partial_since: None,
                    rate_limited: 0,
                    closing: false,
                },
            );
            self.recorder.add("daemon.accepted", 1);
        }
        Ok(())
    }

    fn service_peer(&mut self, pid: u64) -> Result<()> {
        let Some(mut peer) = self.peers.remove(&pid) else {
            return Ok(());
        };
        peer.bucket.refill();
        let mut closed = false;
        if !peer.closing {
            let mut buf = [0u8; 4096];
            loop {
                match peer.conn.read_chunk(&mut buf)? {
                    ReadEvent::Data(n) => {
                        peer.decoder.push(&buf[..n]);
                        peer.last_rx_turn = self.turn;
                    }
                    ReadEvent::Idle => break,
                    ReadEvent::Closed => {
                        closed = true;
                        break;
                    }
                }
            }
            loop {
                match peer.decoder.next_frame() {
                    Ok(Some(frame)) => {
                        if self.dispatch(pid, &mut peer, frame) {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(err) => {
                        self.reject_malformed(pid, &mut peer, &err);
                        break;
                    }
                }
            }
            peer.partial_since = if peer.decoder.buffered() > 0 {
                peer.partial_since.or(Some(self.turn))
            } else {
                None
            };
        }
        if closed {
            self.release_peer_sessions(pid);
            self.recorder.add("daemon.peer_closed", 1);
        } else {
            self.peers.insert(pid, peer);
        }
        Ok(())
    }

    /// Handles one decoded frame. Returns `true` when the connection was
    /// condemned (goodbye queued) and no further frames should be read.
    fn dispatch(&mut self, pid: u64, peer: &mut Peer, frame: Frame) -> bool {
        if !peer.bucket.try_take() {
            self.stats.rate_limited += 1;
            self.recorder.add("daemon.rate_limited", 1);
            peer.rate_limited += 1;
            if peer.rate_limited >= self.config.abuse_disconnect_after {
                self.stats.abuse_disconnects += 1;
                self.recorder.add("daemon.abuse_disconnects", 1);
                self.flight_trigger("client_abuse");
                self.condemn(pid, peer, DisconnectCause::RateLimitAbuse);
                return true;
            }
            self.reject(peer, RejectCode::RateLimited);
            return false;
        }
        match frame {
            Frame::Hello => self.on_hello(pid, peer),
            Frame::Resume { session } => self.on_resume(pid, peer, session),
            Frame::Sample { session, tx, rx } => self.on_sample(pid, peer, session, tx, rx),
            Frame::Bye { session } => self.on_bye(pid, peer, session),
            Frame::Ping { nonce } => peer.conn.queue(&Frame::Pong { nonce }.encode()),
            Frame::MetricsRequest => {
                let json = self.metrics_json().into_bytes();
                peer.conn.queue(&Frame::Metrics { json }.encode());
            }
            Frame::ProbeResponse { session, response } => {
                self.on_probe_response(pid, peer, session, response)
            }
            Frame::Shutdown => self.begin_drain(),
            // Server-role frames arriving from a client are a protocol
            // violation: the peer is desynchronized or probing.
            Frame::Welcome { .. }
            | Frame::Refused { .. }
            | Frame::Resumed { .. }
            | Frame::ResumeRejected { .. }
            | Frame::Verdict { .. }
            | Frame::Shed { .. }
            | Frame::Breaker { .. }
            | Frame::ProbeChallenge { .. }
            | Frame::ProbeOutcome { .. }
            | Frame::Metrics { .. }
            | Frame::Pong { .. }
            | Frame::Reject { .. }
            | Frame::Goodbye { .. } => {
                self.stats.malformed_disconnects += 1;
                self.recorder.add("daemon.frames_rejected.role", 1);
                self.condemn(pid, peer, DisconnectCause::Malformed);
                return true;
            }
        }
        false
    }

    fn on_hello(&mut self, pid: u64, peer: &mut Peer) {
        if self.sup.is_draining() {
            self.stats.refused_admissions += 1;
            peer.conn.queue(
                &Frame::Refused {
                    reason: lumen_serve::ShedReason::Draining,
                }
                .encode(),
            );
            return;
        }
        let stream = match (self.factory)(u64::MAX) {
            Ok(stream) => stream,
            Err(_) => {
                self.recorder.add("daemon.factory_failures", 1);
                self.reject(peer, RejectCode::Refused);
                return;
            }
        };
        let outcome = match &self.probe_policy {
            Some(policy) => {
                let seed = self.probe_seed ^ self.sup.next_id();
                match ProbeDirector::new(*policy, seed) {
                    Ok(director) => self.sup.admit_probed(stream, director),
                    Err(_) => {
                        self.recorder.add("daemon.probe_director_failures", 1);
                        self.sup.admit(stream)
                    }
                }
            }
            None => self.sup.admit(stream),
        };
        match outcome {
            AdmitOutcome::Admitted { session } => {
                self.bound.insert(session, pid);
                self.stats.welcomes += 1;
                self.recorder.add("daemon.welcomes", 1);
                peer.conn.queue(&Frame::Welcome { session }.encode());
            }
            AdmitOutcome::Shed { reason } => {
                self.stats.refused_admissions += 1;
                self.recorder.add("daemon.refused_admissions", 1);
                peer.conn.queue(&Frame::Refused { reason }.encode());
            }
        }
    }

    fn on_resume(&mut self, pid: u64, peer: &mut Peer, session: u64) {
        // Only a session the supervisor knows can resume: a quarantined or
        // released one is gone. A session bound to a *live* connection
        // cannot be re-claimed either: a replayed admission (THREAT_MODEL
        // §network adversary) must not hijack or duplicate an active
        // verdict stream.
        let next_sample = match self.sup.samples_offered(session) {
            Ok(next) if !self.sup.is_draining() && !self.bound.contains_key(&session) => next,
            _ => {
                self.stats.resume_rejections += 1;
                self.recorder.add("daemon.resume_rejections", 1);
                peer.conn.queue(&Frame::ResumeRejected { session }.encode());
                return;
            }
        };
        self.bound.insert(session, pid);
        self.stats.resumes += 1;
        self.recorder.add("daemon.resumes", 1);
        peer.conn.queue(
            &Frame::Resumed {
                session,
                next_sample,
            }
            .encode(),
        );
        if let Some(mut queue) = self.parked.remove(&session) {
            while let Some(bytes) = queue.pop_front() {
                peer.conn.queue(&bytes);
            }
        }
    }

    fn on_sample(&mut self, pid: u64, peer: &mut Peer, session: u64, tx: f64, rx: f64) {
        if self.bound.get(&session) != Some(&pid) {
            self.reject(peer, RejectCode::UnknownSession);
            return;
        }
        // Shed clips surface later as typed tombstone events in the
        // verdict stream; the sample itself was consumed.
        match self.sup.offer(session, tx, rx) {
            Ok(_admission) => {}
            Err(_) => {
                self.recorder.add("daemon.offer_failures", 1);
                self.reject(peer, RejectCode::Refused);
            }
        }
    }

    fn on_bye(&mut self, pid: u64, peer: &mut Peer, session: u64) {
        if self.bound.get(&session) != Some(&pid) {
            self.reject(peer, RejectCode::UnknownSession);
            return;
        }
        self.bound.remove(&session);
        self.parked.remove(&session);
        match self.sup.release(session) {
            Ok(()) => self.recorder.add("daemon.byes", 1),
            Err(_) => self.recorder.add("daemon.release_failures", 1),
        }
    }

    fn on_probe_response(&mut self, pid: u64, peer: &mut Peer, session: u64, response: WireTrace) {
        if self.bound.get(&session) != Some(&pid) {
            self.reject(peer, RejectCode::UnknownSession);
            return;
        }
        let pair = match (
            Signal::new(response.tx, response.sample_rate),
            Signal::new(response.rx, response.sample_rate),
        ) {
            (Ok(tx), Ok(rx)) => TracePair {
                tx,
                rx,
                // Ground truth is unknowable server-side; the verifier
                // only consumes the traces and delays.
                kind: ScenarioKind::Legitimate { user: 0 },
                seed: 0,
                forward_delay: response.forward_delay,
                backward_delay: response.backward_delay,
            },
            _ => {
                self.recorder.add("daemon.probe_trace_invalid", 1);
                self.reject(peer, RejectCode::Refused);
                return;
            }
        };
        // The judged ProbeVerdict (and any restart re-issue) lands in the
        // supervisor's event stream and is routed like every other event.
        match self.sup.resolve_probe(session, &pair) {
            Ok(_verdict) => self.recorder.add("daemon.probe_responses", 1),
            Err(_) => {
                self.recorder.add("daemon.probe_resolve_failures", 1);
                self.reject(peer, RejectCode::Refused);
            }
        }
    }

    fn reject(&mut self, peer: &mut Peer, code: RejectCode) {
        self.stats.rejected_frames += 1;
        peer.conn.queue(&Frame::Reject { code }.encode());
    }

    fn reject_malformed(&mut self, pid: u64, peer: &mut Peer, err: &WireError) {
        let (counter, cause): (&'static str, DisconnectCause) = match err {
            WireError::BadMagic(_) => ("daemon.frames_rejected.magic", DisconnectCause::Malformed),
            WireError::BadVersion(_) => {
                ("daemon.frames_rejected.version", DisconnectCause::Malformed)
            }
            WireError::Oversize { .. } => {
                ("daemon.frames_rejected.oversize", DisconnectCause::Oversize)
            }
            WireError::BadCrc { .. } => ("daemon.frames_rejected.crc", DisconnectCause::Malformed),
            WireError::UnknownType(_) => {
                ("daemon.frames_rejected.type", DisconnectCause::Malformed)
            }
            WireError::Truncated(_) | WireError::TrailingBytes(_) | WireError::BadEnum { .. } => {
                ("daemon.frames_rejected.payload", DisconnectCause::Malformed)
            }
        };
        self.recorder.add(counter, 1);
        self.stats.malformed_disconnects += 1;
        self.recorder.add("daemon.malformed_disconnects", 1);
        self.condemn(pid, peer, cause);
    }

    /// Queues a typed goodbye, releases the peer's sessions and marks the
    /// connection for teardown once its outbound buffer flushes.
    fn condemn(&mut self, pid: u64, peer: &mut Peer, cause: DisconnectCause) {
        peer.conn.queue(&Frame::Goodbye { cause }.encode());
        peer.closing = true;
        self.release_peer_sessions(pid);
    }

    /// Releases every session bound to peer `pid`, in ascending order.
    fn release_peer_sessions(&mut self, pid: u64) {
        let sessions: Vec<u64> = self
            .bound
            .iter()
            .filter(|&(_, &bound_to)| bound_to == pid)
            .map(|(&session, _)| session)
            .collect();
        for session in sessions {
            self.bound.remove(&session);
            self.parked.remove(&session);
            match self.sup.release(session) {
                Ok(()) => {}
                Err(_) => self.recorder.add("daemon.release_failures", 1),
            }
        }
    }

    fn route_events(&mut self) {
        for event in self.sup.drain_events() {
            let session = event.session;
            let (frame, is_verdict, is_shed) = match event.kind {
                SessionEventKind::Verdict(v) => (
                    Some(Frame::Verdict {
                        session,
                        verdict: wire_verdict(&v),
                    }),
                    true,
                    false,
                ),
                SessionEventKind::Shed { reason, verdict } => (
                    Some(Frame::Shed {
                        session,
                        reason,
                        verdict: wire_verdict(&verdict),
                    }),
                    false,
                    true,
                ),
                SessionEventKind::Breaker(transition) => (
                    Some(Frame::Breaker {
                        session,
                        transition: breaker_code(transition),
                    }),
                    false,
                    false,
                ),
                SessionEventKind::ProbeRequested(schedule) => {
                    match serde_json::to_string(&schedule) {
                        Ok(json) => (
                            Some(Frame::ProbeChallenge {
                                session,
                                schedule_json: json.into_bytes(),
                            }),
                            false,
                            false,
                        ),
                        Err(_) => {
                            self.recorder.add("daemon.encode_failures", 1);
                            (None, false, false)
                        }
                    }
                }
                SessionEventKind::Probe(verdict) => match serde_json::to_string(&verdict) {
                    Ok(json) => (
                        Some(Frame::ProbeOutcome {
                            session,
                            verdict_json: json.into_bytes(),
                        }),
                        false,
                        false,
                    ),
                    Err(_) => {
                        self.recorder.add("daemon.encode_failures", 1);
                        (None, false, false)
                    }
                },
            };
            let Some(frame) = frame else { continue };
            let bytes = frame.encode();
            let delivered = if let Some(pid) = self.bound.get(&session) {
                match self.peers.get_mut(pid) {
                    Some(peer) => {
                        peer.conn.queue(&bytes);
                        true
                    }
                    None => self.park(session, bytes),
                }
            } else if self.sup.stream(session).is_ok() {
                self.park(session, bytes)
            } else {
                false
            };
            if is_verdict {
                if delivered {
                    self.stats.verdict_frames += 1;
                    self.recorder.add("daemon.verdict_frames", 1);
                } else {
                    self.stats.orphaned_verdicts += 1;
                    self.recorder.add("daemon.orphaned_verdicts", 1);
                }
            }
            if is_shed {
                if delivered {
                    self.stats.shed_frames += 1;
                    self.recorder.add("daemon.shed_frames", 1);
                } else {
                    self.stats.orphaned_sheds += 1;
                    self.recorder.add("daemon.orphaned_sheds", 1);
                }
            }
        }
    }

    fn park(&mut self, session: u64, bytes: Vec<u8>) -> bool {
        let queue = self.parked.entry(session).or_default();
        if queue.len() >= self.config.park_limit {
            queue.pop_front();
            self.stats.park_overflow += 1;
            self.recorder.add("daemon.park_overflow", 1);
        }
        queue.push_back(bytes);
        true
    }

    fn enforce_deadlines(&mut self) {
        let mut expired: Vec<(u64, DisconnectCause)> = Vec::new();
        for (&pid, peer) in &self.peers {
            if peer.closing {
                continue;
            }
            if let Some(since) = peer.partial_since {
                if self.turn.saturating_sub(since) > self.config.read_turns {
                    expired.push((pid, DisconnectCause::SlowRead));
                    continue;
                }
            }
            if self.turn.saturating_sub(peer.last_rx_turn) > self.config.idle_turns {
                expired.push((pid, DisconnectCause::IdleTimeout));
            }
        }
        for (pid, cause) in expired {
            let Some(mut peer) = self.peers.remove(&pid) else {
                continue;
            };
            match cause {
                DisconnectCause::SlowRead => {
                    self.stats.slow_read_disconnects += 1;
                    self.recorder.add("daemon.slow_read_disconnects", 1);
                }
                _ => {
                    self.stats.idle_disconnects += 1;
                    self.recorder.add("daemon.idle_disconnects", 1);
                }
            }
            self.condemn(pid, &mut peer, cause);
            self.peers.insert(pid, peer);
        }
    }

    fn checkpoint(&mut self) {
        let snap = self.sup.snapshot();
        let now = self.sup.tick_now();
        if let Some(store) = self.store.as_mut() {
            match store.commit(now, &snap) {
                Ok(CommitOutcome::Committed { generation }) => {
                    self.final_generation = Some(generation);
                    self.recorder.add("daemon.checkpoints", 1);
                }
                Ok(CommitOutcome::Retrying { .. }) => {
                    self.recorder.add("daemon.checkpoint_retries", 1);
                }
                Ok(CommitOutcome::GaveUp { .. }) => {
                    self.recorder.add("daemon.checkpoint_gave_up", 1);
                }
                Err(_) => self.recorder.add("daemon.checkpoint_failures", 1),
            }
        }
    }

    fn finish_drain(&mut self) {
        self.checkpoint();
        let pids: Vec<u64> = self.peers.keys().copied().collect();
        for pid in pids {
            let Some(mut peer) = self.peers.remove(&pid) else {
                continue;
            };
            if !peer.closing {
                peer.conn.queue(
                    &Frame::Goodbye {
                        cause: DisconnectCause::Draining,
                    }
                    .encode(),
                );
                peer.closing = true;
                // Sessions are *not* released: they live on in the final
                // checkpoint for the next process to restore.
                self.bound.retain(|_, bound_to| *bound_to != pid);
            }
            self.peers.insert(pid, peer);
        }
        self.drained = true;
        self.recorder.mark("daemon.drain", "complete");
    }

    fn flush_and_reap(&mut self) -> Result<()> {
        let pids: Vec<u64> = self.peers.keys().copied().collect();
        for pid in pids {
            let Some(mut peer) = self.peers.remove(&pid) else {
                continue;
            };
            let flushed = match peer.conn.flush() {
                Ok(done) => done,
                Err(_) => {
                    self.recorder.add("daemon.flush_failures", 1);
                    self.release_peer_sessions(pid);
                    continue; // drop the peer
                }
            };
            if peer.closing && flushed {
                continue; // goodbye delivered; drop the peer
            }
            self.peers.insert(pid, peer);
        }
        Ok(())
    }

    fn flight_trigger(&self, reason: &str) {
        if let Some(flight) = &self.flight {
            self.recorder.mark("daemon.flight_trigger", reason);
            flight.trigger(reason);
        }
    }
}

/// Flattens a core [`ClipVerdict`] into its wire form.
pub fn wire_verdict(v: &ClipVerdict) -> WireVerdict {
    let (disposition, reason_code, reason_detail, score) = match &v.outcome {
        ClipOutcome::Conclusive(d) => (u8::from(!d.accepted), 0u8, 0.0, d.score),
        ClipOutcome::Inconclusive(reason) => {
            let (code, detail) = match reason {
                InconclusiveReason::TooShort { len } => (1u8, *len as f64),
                InconclusiveReason::Flatline => (2, 0.0),
                InconclusiveReason::ExcessiveGaps { gap_fraction } => (3, *gap_fraction),
                InconclusiveReason::LongFreeze { run } => (4, *run as f64),
                InconclusiveReason::LowEffectiveRate { rate } => (5, *rate),
                InconclusiveReason::NonFinite { count } => (6, *count as f64),
                InconclusiveReason::Withheld => (7, 0.0),
            };
            (2u8, code, detail, 0.0)
        }
    };
    WireVerdict {
        clip_index: v.clip_index as u64,
        disposition,
        reason_code,
        reason_detail,
        score,
        status: match v.status {
            SessionStatus::Gathering => 0,
            SessionStatus::Trusted => 1,
            SessionStatus::Alert => 2,
        },
        retrigger: v.retrigger,
    }
}

fn breaker_code(t: BreakerTransition) -> u8 {
    match t {
        BreakerTransition::Tripped => 1,
        BreakerTransition::Probing => 2,
        BreakerTransition::Restored => 3,
    }
}
