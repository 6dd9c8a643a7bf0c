//! Seeded chaos injection at the supervisor boundary.
//!
//! [`ChaosPlan`] is the durability layer's counterpart of
//! `lumen_chat::FaultPlan`: where a `FaultPlan` damages the *transport*
//! (loss bursts, freezes, corruption on the wire), a `ChaosPlan` attacks
//! the *runtime* — checkpoint writes that fail, tear or flip bits (via
//! [`StorageFaults`] on the in-memory backend), sessions whose stored
//! snapshots rot, clips that arrive poisoned with non-finite samples,
//! detection-error storms that hammer one session's breaker, and tick
//! stalls that eat serve budget.
//!
//! Every decision is a **pure hash of stable coordinates** — the plan
//! seed plus (session, clip) or (generation, session) — never a draw
//! from sequential RNG state. That is what makes the chaos experiment's
//! integrity check possible: an uninterrupted reference run and a
//! kill/restore run consult the injector at the same coordinates and see
//! the same faults, so any divergence in their verdict streams is the
//! recovery path's fault, not the injector's.

use crate::checkpoint::SupervisorSnapshot;
use crate::store::StorageFaults;
use crate::{Result, ServeError};
use lumen_dsp::mix::{splitmix as mix, unit};
use serde::{Deserialize, Serialize};

/// What a chaos run does to the fleet, beyond transport faults.
///
/// Probabilities are per coordinate (see each field); zero disables that
/// fault. The default plan is quiet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed for every chaos decision.
    pub seed: u64,
    /// Faults injected into checkpoint-store writes (the harness passes
    /// these to [`MemStorage::with_faults`](crate::MemStorage)).
    pub storage: StorageFaults,
    /// Per-(session, clip) probability the clip arrives poisoned: its
    /// samples are replaced with non-finite values, driving the detection
    /// path into its error branch (a counted `DetectionFailed` shed).
    pub poison_clip: f64,
    /// Per-session probability of one detection-error storm: a window of
    /// [`ChaosPlan::storm_clips`] consecutive poisoned clips, starting at
    /// a seeded clip index below [`ChaosPlan::storm_start_window`].
    pub storm: f64,
    /// Length of a detection-error storm, clips.
    pub storm_clips: u64,
    /// Earliest window (in clips) a storm may start in.
    pub storm_start_window: u64,
    /// Per-feed-step probability the clock stalls: the harness burns
    /// [`ChaosPlan::stall_ticks`] extra idle ticks before the next
    /// sample.
    pub stall: f64,
    /// Ticks lost per stall.
    pub stall_ticks: u64,
    /// Per-(generation, session) probability that the session's entry in
    /// the written checkpoint is corrupted *before* framing — the CRC
    /// still validates, so only the per-session restore validation can
    /// catch it (and must quarantine exactly that session).
    pub corrupt_session: f64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan::seeded(0)
    }
}

impl ChaosPlan {
    /// A quiet plan (no faults) drawing any future decisions from `seed`.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            storage: StorageFaults::none(),
            poison_clip: 0.0,
            storm: 0.0,
            storm_clips: 4,
            storm_start_window: 32,
            stall: 0.0,
            stall_ticks: 3,
            corrupt_session: 0.0,
        }
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for probabilities outside
    /// `[0, 1]` or degenerate storm/stall shapes.
    pub fn validate(&self) -> Result<()> {
        self.storage.validate().map_err(ServeError::from)?;
        for (field, p) in [
            ("poison_clip", self.poison_clip),
            ("storm", self.storm),
            ("stall", self.stall),
            ("corrupt_session", self.corrupt_session),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(ServeError::invalid_config(
                    match field {
                        "poison_clip" => "poison_clip",
                        "storm" => "storm",
                        "stall" => "stall",
                        _ => "corrupt_session",
                    },
                    "must lie in [0, 1]",
                ));
            }
        }
        if self.storm > 0.0 && self.storm_clips == 0 {
            return Err(ServeError::invalid_config(
                "storm_clips",
                "a storm of zero clips does nothing",
            ));
        }
        if self.storm > 0.0 && self.storm_start_window == 0 {
            return Err(ServeError::invalid_config(
                "storm_start_window",
                "must be positive when storms are enabled",
            ));
        }
        if self.stall > 0.0 && self.stall_ticks == 0 {
            return Err(ServeError::invalid_config(
                "stall_ticks",
                "a stall of zero ticks does nothing",
            ));
        }
        Ok(())
    }
}

/// Ways one stored [`SessionSnapshot`](crate::SessionSnapshot) is rotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionCorruption {
    /// An extra received-side sample is appended to the stream's partial
    /// clip, so the tx/rx shape check of
    /// [`StreamingDetector::restore`](lumen_core::stream::StreamingDetector::restore)
    /// fails.
    ShapeDrift,
    /// A queued clip claims to have completed in the snapshot's future,
    /// so the monotonicity check fails.
    FutureTick,
}

/// Stateless decider for a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosInjector {
    plan: ChaosPlan,
}

impl ChaosInjector {
    /// Builds an injector for `plan`.
    ///
    /// # Errors
    ///
    /// Propagates [`ChaosPlan::validate`] failures.
    pub fn new(plan: ChaosPlan) -> Result<Self> {
        plan.validate()?;
        Ok(ChaosInjector { plan })
    }

    /// The governing plan.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Whether the clip `(session, clip)` arrives poisoned — either by
    /// the independent per-clip draw or because it falls inside the
    /// session's detection-error storm.
    pub fn poison_clip(&self, session: u64, clip: u64) -> bool {
        if unit(mix(self.plan.seed, TAG_POISON, session, clip)) < self.plan.poison_clip {
            return true;
        }
        if self.plan.storm > 0.0
            && unit(mix(self.plan.seed, TAG_STORM, session, 0)) < self.plan.storm
        {
            let start =
                mix(self.plan.seed, TAG_STORM_START, session, 0) % self.plan.storm_start_window;
            return clip >= start && clip < start + self.plan.storm_clips;
        }
        false
    }

    /// Extra idle ticks to burn before feed step `step` (0 = no stall).
    pub fn stall_ticks(&self, step: u64) -> u64 {
        if unit(mix(self.plan.seed, TAG_STALL, step, 0)) < self.plan.stall {
            self.plan.stall_ticks
        } else {
            0
        }
    }

    /// The corruption (if any) this plan inflicts on `session`'s entry in
    /// checkpoint `generation`.
    pub fn session_corruption(&self, generation: u64, session: u64) -> Option<SessionCorruption> {
        let h = mix(self.plan.seed, TAG_CORRUPT, generation, session);
        if unit(h) >= self.plan.corrupt_session {
            return None;
        }
        Some(if mix(h, TAG_CORRUPT, 1, 0).is_multiple_of(2) {
            SessionCorruption::ShapeDrift
        } else {
            SessionCorruption::FutureTick
        })
    }

    /// Rots the per-session entries of a snapshot about to be framed and
    /// written as `generation`; returns the corrupted session ids.
    ///
    /// The record's CRC is computed *after* this mutation, so the store's
    /// framing cannot catch it — only
    /// [`Supervisor::restore_with_report`](crate::Supervisor::restore_with_report)'s
    /// per-session validation can, by quarantining exactly these
    /// sessions.
    pub fn corrupt_snapshot(&self, generation: u64, snap: &mut SupervisorSnapshot) -> Vec<u64> {
        let mut corrupted = Vec::new();
        for session in &mut snap.sessions {
            let Some(kind) = self.session_corruption(generation, session.id) else {
                continue;
            };
            match kind {
                SessionCorruption::FutureTick if !session.queue.is_empty() => {
                    if let Some(crate::QueuedClip::Clip { completed_at, .. }) =
                        session.queue.first_mut()
                    {
                        *completed_at = snap.tick.saturating_add(1_000_000);
                    } else {
                        session.stream.rx_buffer.push(0.0);
                    }
                }
                _ => session.stream.rx_buffer.push(0.0),
            }
            corrupted.push(session.id);
        }
        corrupted
    }
}

const TAG_POISON: u64 = 0x01;
const TAG_STORM: u64 = 0x02;
const TAG_STORM_START: u64 = 0x03;
const TAG_STALL: u64 = 0x04;
const TAG_CORRUPT: u64 = 0x05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let injector = ChaosInjector::new(ChaosPlan::seeded(7)).unwrap();
        for s in 0..8 {
            for c in 0..32 {
                assert!(!injector.poison_clip(s, c));
                assert_eq!(injector.session_corruption(s, c), None);
            }
            assert_eq!(injector.stall_ticks(s), 0);
        }
    }

    #[test]
    fn decisions_are_stateless_and_seeded() {
        let mut plan = ChaosPlan::seeded(11);
        plan.poison_clip = 0.3;
        plan.stall = 0.3;
        plan.corrupt_session = 0.3;
        let a = ChaosInjector::new(plan).unwrap();
        let b = ChaosInjector::new(plan).unwrap();
        // Querying in different orders changes nothing: decisions are
        // functions of coordinates, not of call history.
        let forward: Vec<bool> = (0..64).map(|c| a.poison_clip(1, c)).collect();
        let backward: Vec<bool> = (0..64).rev().map(|c| b.poison_clip(1, c)).collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|&p| p), "some clips poisoned");
        assert!(!forward.iter().all(|&p| p), "not all clips poisoned");
        let mut other = plan;
        other.seed = 12;
        let c = ChaosInjector::new(other).unwrap();
        let reseeded: Vec<bool> = (0..64).map(|i| c.poison_clip(1, i)).collect();
        assert_ne!(forward, reseeded);
    }

    #[test]
    fn storms_cover_a_contiguous_window() {
        let mut plan = ChaosPlan::seeded(5);
        plan.storm = 1.0;
        plan.storm_clips = 4;
        plan.storm_start_window = 8;
        let injector = ChaosInjector::new(plan).unwrap();
        for session in 0..8u64 {
            let poisoned: Vec<u64> = (0..64)
                .filter(|&c| injector.poison_clip(session, c))
                .collect();
            assert_eq!(poisoned.len(), 4, "session {session}");
            assert!(poisoned.windows(2).all(|w| w[1] == w[0] + 1));
            assert!(poisoned[0] < 8);
        }
    }

    #[test]
    fn validation_rejects_bad_probabilities() {
        let mut plan = ChaosPlan::seeded(1);
        plan.poison_clip = 1.5;
        assert!(ChaosInjector::new(plan).is_err());
        let mut plan = ChaosPlan::seeded(1);
        plan.storm = 0.5;
        plan.storm_clips = 0;
        assert!(ChaosInjector::new(plan).is_err());
        let mut plan = ChaosPlan::seeded(1);
        plan.stall = 0.5;
        plan.stall_ticks = 0;
        assert!(ChaosInjector::new(plan).is_err());
        let mut plan = ChaosPlan::seeded(1);
        plan.storage.bit_flip = -0.1;
        assert!(ChaosInjector::new(plan).is_err());
    }
}
