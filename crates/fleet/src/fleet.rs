//! The fleet: N supervisor shards behind one admission/stealing tier.
//!
//! # Identity
//!
//! Fleet session ids interleave shard-local ids arithmetically:
//! `fleet_id = local_id * shards + shard`, so `shard = fleet_id % shards`
//! and `local = fleet_id / shards`. The mapping is collision-free and
//! needs no routing table — nothing extra to checkpoint, nothing to
//! rebuild on restore.
//!
//! # Accounting
//!
//! Each shard keeps its own exact `served + shed == offered` identity;
//! the fleet sums them ([`Fleet::shard_stats`]) and extends the identity
//! to the in-flight window: [`Fleet::ledger`] asserts
//! `offered == served + shed + in_flight` at any instant, where
//! `in_flight` counts queue entries (clips and shed tombstones) not yet
//! resolved into a verdict. Work stealing moves *credits*, not queue
//! entries, so a stolen serve is accounted on the shard that owns the
//! session and the ledger never sees a clip in two places.
//!
//! # Stealing
//!
//! After every shard has ticked, a shard holding unspent credits provably
//! had no servable clip (the tick loop only leaves credits behind when no
//! queue front is ready), so donating a credit to the hottest backlogged
//! shard costs the donor nothing. Donations are bounded per tick, counted
//! (`fleet.steals`), and obs-marked with the donor→recipient pair.

use crate::admission::AdmissionBucket;
use crate::config::FleetConfig;
use crate::partition::Partitioner;
use crate::snapshot::{FleetManifest, FleetRestoreReport, FleetSnapshot};
use crate::{FleetError, Result};
use lumen_chat::trace::TracePair;
use lumen_core::stream::StreamingDetector;
use lumen_obs::{stage, Recorder};
use lumen_probe::{ProbeDirector, ProbeVerdict};
use lumen_serve::store::Storage;
use lumen_serve::{
    AdmitOutcome, CheckpointStore, ClipAdmission, ServeError, ServeStats, SessionEventKind,
    ShedReason, Supervisor,
};
use serde::{Deserialize, Serialize};

/// Outcome of [`Fleet::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAdmitOutcome {
    /// The session was admitted under the returned fleet id.
    Admitted {
        /// Fleet-scoped session id.
        session: u64,
        /// The shard that owns it.
        shard: usize,
    },
    /// The fleet admission bucket was empty: shed before any shard was
    /// consulted.
    Throttled,
    /// The owning shard turned the session away (e.g. at capacity).
    Shed {
        /// The shard that refused it.
        shard: usize,
        /// Why.
        reason: ShedReason,
    },
}

impl FleetAdmitOutcome {
    /// The admitted fleet session id, if any.
    pub fn session(&self) -> Option<u64> {
        match self {
            FleetAdmitOutcome::Admitted { session, .. } => Some(*session),
            _ => None,
        }
    }
}

/// A shard event re-scoped to fleet session ids.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// The shard the event happened on.
    pub shard: usize,
    /// Fleet-scoped session id.
    pub session: u64,
    /// The event itself.
    pub kind: SessionEventKind,
}

/// Fleet-tier counters (everything below lives in per-shard
/// [`ServeStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Sessions offered to [`Fleet::admit`].
    pub offered_sessions: u64,
    /// Sessions admitted onto a shard.
    pub admitted_sessions: u64,
    /// Sessions shed by the fleet admission bucket.
    pub throttled_sessions: u64,
    /// Clips served on donated credits.
    pub steals: u64,
}

/// The instantaneous clip-conservation ledger:
/// `offered == served + shed + in_flight` across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConservationLedger {
    /// Clips completed by admitted sessions, summed across shards.
    pub offered: u64,
    /// Clips served to detection, summed across shards.
    pub served: u64,
    /// Clips shed (verdict recorded), summed across shards.
    pub shed: u64,
    /// Queue entries (clips and tombstones) not yet resolved.
    pub in_flight: u64,
}

impl ConservationLedger {
    /// Whether the conservation identity holds exactly.
    pub fn holds(&self) -> bool {
        self.served + self.shed + self.in_flight == self.offered
    }
}

/// A sharded multi-supervisor runtime.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    partitioner: Partitioner,
    shards: Vec<Supervisor>,
    recorder: Recorder,
    bucket: AdmissionBucket,
    stats: FleetStats,
}

impl Fleet {
    /// A fleet of `config.shards` empty supervisors.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the config fails
    /// [`FleetConfig::validate`].
    pub fn new(config: FleetConfig) -> Result<Fleet> {
        config.validate()?;
        let partitioner = Partitioner::new(config.seed, config.shards);
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            shards.push(Supervisor::new(config.shard.clone())?);
        }
        let bucket = AdmissionBucket::new(config.admission);
        Ok(Fleet {
            config,
            partitioner,
            shards,
            recorder: Recorder::null(),
            bucket,
            stats: FleetStats::default(),
        })
    }

    /// Attaches a fleet-tier observability recorder (admission counters,
    /// per-shard queue-depth gauges, steal marks). Shard-internal events
    /// stay on the shards' own recorders.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's supervisor.
    pub fn shard(&self, shard: usize) -> Option<&Supervisor> {
        self.shards.get(shard)
    }

    /// The shard a stable session *key* would land on (pre-admission
    /// routing, e.g. for capacity planning).
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.partitioner.shard_of(key)
    }

    /// The shard owning an admitted fleet session id.
    pub fn shard_of_session(&self, session: u64) -> usize {
        (session % self.shards.len() as u64) as usize
    }

    fn fleet_id(&self, shard: usize, local: u64) -> u64 {
        local * self.shards.len() as u64 + shard as u64
    }

    fn locate(&self, session: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        ((session % n) as usize, session / n)
    }

    /// Re-scopes a shard error to the fleet session id the caller used.
    fn rescope(e: ServeError, session: u64) -> FleetError {
        match e {
            ServeError::UnknownSession(_) => ServeError::UnknownSession(session).into(),
            other => other.into(),
        }
    }

    /// Admits a session keyed by `key` (any stable connection identity).
    ///
    /// Order of the shedding tiers: the fleet admission bucket decides
    /// first (typed [`FleetAdmitOutcome::Throttled`], counted in
    /// [`FleetStats::throttled_sessions`]); only a token-holding session
    /// reaches its shard, which may still refuse it at capacity (counted
    /// in that shard's [`ServeStats::rejected_sessions`]). Both tiers are
    /// explicit and summable, so global shed accounting stays exact.
    pub fn admit(&mut self, key: u64, stream: StreamingDetector) -> FleetAdmitOutcome {
        self.admit_with(key, stream, None)
    }

    /// [`Fleet::admit`] with an active-probing director attached.
    pub fn admit_probed(
        &mut self,
        key: u64,
        stream: StreamingDetector,
        probe: ProbeDirector,
    ) -> FleetAdmitOutcome {
        self.admit_with(key, stream, Some(probe))
    }

    fn admit_with(
        &mut self,
        key: u64,
        stream: StreamingDetector,
        probe: Option<ProbeDirector>,
    ) -> FleetAdmitOutcome {
        self.stats.offered_sessions += 1;
        if !self.bucket.try_take() {
            self.stats.throttled_sessions += 1;
            self.recorder.add("fleet.shed.throttled", 1);
            return FleetAdmitOutcome::Throttled;
        }
        let shard = self.partitioner.shard_of(key);
        let outcome = match probe {
            Some(probe) => self.shards[shard].admit_probed(stream, probe),
            None => self.shards[shard].admit(stream),
        };
        match outcome {
            AdmitOutcome::Admitted { session } => {
                self.stats.admitted_sessions += 1;
                FleetAdmitOutcome::Admitted {
                    session: self.fleet_id(shard, session),
                    shard,
                }
            }
            AdmitOutcome::Shed { reason } => {
                self.recorder.add("fleet.shed.capacity", 1);
                FleetAdmitOutcome::Shed { shard, reason }
            }
        }
    }

    /// Feeds one luminance sample pair into a session (fleet id).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] (wrapped) for an id no
    /// shard owns.
    pub fn offer(&mut self, session: u64, tx: f64, rx: f64) -> Result<Option<ClipAdmission>> {
        let (shard, local) = self.locate(session);
        self.shards[shard]
            .offer(local, tx, rx)
            .map_err(|e| Self::rescope(e, session))
    }

    /// Releases a session (fleet id).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] (wrapped) for an id no
    /// shard owns.
    pub fn release(&mut self, session: u64) -> Result<()> {
        let (shard, local) = self.locate(session);
        self.shards[shard]
            .release(local)
            .map_err(|e| Self::rescope(e, session))
    }

    /// Hands a verified probe trace pair back to a session (fleet id).
    ///
    /// # Errors
    ///
    /// Propagates shard errors with the session id re-scoped.
    pub fn resolve_probe(&mut self, session: u64, pair: &TracePair) -> Result<ProbeVerdict> {
        let (shard, local) = self.locate(session);
        self.shards[shard]
            .resolve_probe(local, pair)
            .map_err(|e| Self::rescope(e, session))
    }

    /// The session's streaming detector (fleet id).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] (wrapped) for an id no
    /// shard owns.
    pub fn stream(&self, session: u64) -> Result<&StreamingDetector> {
        let (shard, local) = self.locate(session);
        self.shards[shard]
            .stream(local)
            .map_err(|e| Self::rescope(e, session))
    }

    /// Advances every shard one tick, in shard order, then runs the fleet
    /// barrier work: admission-bucket refill, the work-stealing pass, and
    /// per-shard gauges. Returns the new tick.
    // lint:hot-path
    pub fn tick(&mut self) -> u64 {
        let _span = self.recorder.span(stage::FLEET_TICK);
        for shard in &mut self.shards {
            shard.tick();
        }
        self.bucket.refill();
        self.steal_pass();
        for (index, shard) in self.shards.iter().enumerate() {
            self.recorder.gauge_indexed(
                "fleet.shard.queue_depth",
                index as u64,
                shard.pending_clips() as f64,
            );
        }
        self.recorder
            .gauge("fleet.backlog", self.backlog_clips() as f64);
        self.tick_now()
    }

    /// Migrates unspent credits from idle shards to the hottest
    /// backlogged shard, serving one clip per donated credit. Bounded by
    /// `max_steals_per_tick`; returns the number of clips served on
    /// donated credits.
    fn steal_pass(&mut self) -> u64 {
        let mut stolen = 0u64;
        for _ in 0..self.config.max_steals_per_tick {
            let Some(hot) = self.hottest_shard() else {
                break;
            };
            let Some(donor) = self.donor_shard(hot) else {
                break;
            };
            if self.shards[donor].take_credits(1) == 0 {
                break;
            }
            if self.shards[hot].serve_stolen() {
                stolen += 1;
                self.recorder
                    .mark("fleet.steal", &format!("shard {donor} -> shard {hot}"));
            } else {
                // Unreachable by the tick-loop invariant (backlog > 0
                // implies a ready front), but if it ever fires the donated
                // credit stays burned rather than double-spent.
                break;
            }
        }
        if stolen > 0 {
            self.stats.steals += stolen;
            self.recorder.add("fleet.steals", stolen);
        }
        stolen
    }

    /// The shard with the deepest servable backlog (ties break to the
    /// lowest index, keeping the pass deterministic).
    fn hottest_shard(&self) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (index, shard) in self.shards.iter().enumerate() {
            let backlog = shard.backlog_clips();
            if backlog == 0 {
                continue;
            }
            if best.is_none_or(|(_, deepest)| backlog > deepest) {
                best = Some((index, backlog));
            }
        }
        best.map(|(index, _)| index)
    }

    /// The first shard (≠ `hot`) with unspent credits and no backlog of
    /// its own.
    fn donor_shard(&self, hot: usize) -> Option<usize> {
        self.shards
            .iter()
            .enumerate()
            .find(|&(index, shard)| {
                index != hot && shard.credits() > 0 && shard.backlog_clips() == 0
            })
            .map(|(index, _)| index)
    }

    /// The fleet clock's current tick (shards tick in lockstep; shard 0
    /// is authoritative).
    pub fn tick_now(&self) -> u64 {
        self.shards.first().map_or(0, Supervisor::tick_now)
    }

    /// Fleet-tier counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Per-shard counters summed across the fleet:
    /// `Σ served + Σ shed == Σ offered` holds exactly once queues drain.
    pub fn shard_stats(&self) -> ServeStats {
        self.shards
            .iter()
            .fold(ServeStats::default(), |acc, s| acc.merged(s.stats()))
    }

    /// Total admitted sessions across shards.
    pub fn sessions(&self) -> usize {
        self.shards.iter().map(Supervisor::sessions).sum()
    }

    /// Queue entries (clips and tombstones) pending across shards.
    pub fn pending_clips(&self) -> usize {
        self.shards.iter().map(Supervisor::pending_clips).sum()
    }

    /// Servable clips queued across shards.
    pub fn backlog_clips(&self) -> usize {
        self.shards.iter().map(Supervisor::backlog_clips).sum()
    }

    /// The instantaneous conservation ledger. [`ConservationLedger::holds`]
    /// is an invariant — it is checked by the fleet proptests at every
    /// tick, including under seeded hot-shard skew.
    pub fn ledger(&self) -> ConservationLedger {
        let stats = self.shard_stats();
        ConservationLedger {
            offered: stats.offered_clips,
            served: stats.served_clips,
            shed: stats.shed_clips,
            in_flight: self.pending_clips() as u64,
        }
    }

    /// Drains every shard's pending events, re-scoped to fleet session
    /// ids, in shard order (deterministic).
    pub fn drain_events(&mut self) -> Vec<FleetEvent> {
        let n = self.shards.len() as u64;
        let mut out = Vec::new();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            for event in shard.drain_events() {
                out.push(FleetEvent {
                    shard: index,
                    session: event.session * n + index as u64,
                    kind: event.kind,
                });
            }
        }
        out
    }

    /// Captures the whole fleet as a composable checkpoint: a manifest
    /// plus every shard's [`SupervisorSnapshot`](lumen_serve::SupervisorSnapshot).
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            manifest: FleetManifest {
                shards: self.shards.len() as u64,
                seed: self.config.seed,
                tick: self.tick_now(),
                admission_tokens: self.bucket.tokens(),
                stats: self.stats.clone(),
            },
            shards: self.shards.iter().map(Supervisor::snapshot).collect(),
        }
    }

    /// Rebuilds a fleet from a checkpoint, shard by shard, with per-shard
    /// quarantine: a session whose snapshot entry fails validation is
    /// dropped from its shard (and reported) while every other session —
    /// on that shard and all others — resumes byte-identical replay.
    ///
    /// `factory` rebuilds each session's trained detector and is called
    /// with *fleet* session ids.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an invalid config and
    /// [`FleetError::BadSnapshot`] when the manifest's shard count
    /// disagrees with `config.shards` (resharding is a migration, not a
    /// restore). Per-session defects never error — they quarantine.
    pub fn restore_with_report<F>(
        config: FleetConfig,
        snap: &FleetSnapshot,
        mut factory: F,
        recorder: &Recorder,
    ) -> Result<(Fleet, FleetRestoreReport)>
    where
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        config.validate()?;
        if snap.manifest.shards != config.shards as u64
            || snap.shards.len() as u64 != snap.manifest.shards
        {
            return Err(FleetError::bad_snapshot(format!(
                "manifest holds {} shard(s), config expects {} (snapshot carries {})",
                snap.manifest.shards,
                config.shards,
                snap.shards.len()
            )));
        }
        let n = config.shards as u64;
        let mut shards = Vec::with_capacity(config.shards);
        let mut report = FleetRestoreReport::default();
        for (index, shard_snap) in snap.shards.iter().enumerate() {
            let (shard, shard_report) = Supervisor::restore_with_report(
                config.shard.clone(),
                shard_snap,
                |local| factory(local * n + index as u64),
                recorder,
            )?;
            shards.push(shard);
            report.shards.push(shard_report);
        }
        let partitioner = Partitioner::new(config.seed, config.shards);
        let mut bucket = AdmissionBucket::new(config.admission);
        bucket.set_tokens(snap.manifest.admission_tokens);
        let fleet = Fleet {
            config,
            partitioner,
            shards,
            recorder: recorder.clone(),
            bucket,
            stats: snap.manifest.stats.clone(),
        };
        Ok((fleet, report))
    }

    /// Restores from the newest *valid* generation of a fleet checkpoint
    /// store: corrupt generations fall back at the store tier, corrupt
    /// sessions quarantine at the shard tier, and the report carries all
    /// three layers (generations, shards, sessions).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Store`] for backend failures and
    /// [`FleetError::BadSnapshot`] when no stored generation survives
    /// validation.
    pub fn restore_from_store<S, F>(
        config: FleetConfig,
        store: &mut CheckpointStore<S, FleetSnapshot>,
        factory: F,
        recorder: &Recorder,
    ) -> Result<(Fleet, FleetRestoreReport)>
    where
        S: Storage,
        F: FnMut(u64) -> lumen_core::Result<StreamingDetector>,
    {
        let load = store.load_latest()?;
        let Some(loaded) = load.loaded else {
            return Err(FleetError::bad_snapshot(format!(
                "fleet checkpoint store holds no valid generation ({} quarantined)",
                load.quarantined.len()
            )));
        };
        let (fleet, mut report) =
            Self::restore_with_report(config, &loaded.snapshot, factory, recorder)?;
        report.fallback_generation = Some(loaded.generation);
        report.fallback_depth = loaded.fallback_depth;
        report.generation_quarantines = load.quarantined;
        Ok((fleet, report))
    }
}
