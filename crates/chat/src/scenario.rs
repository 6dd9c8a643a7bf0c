//! Scenario builders — the one-stop API for generating detection inputs.
//!
//! A scenario fixes the physical testbed (screen, ambient, camera, network)
//! and produces [`TracePair`]s for any callee type with one call. All
//! randomness is derived from the scenario seed, so datasets are exactly
//! reproducible.

use crate::endpoint::{AdaptiveCallee, Caller, LiveFace, ReenactmentCallee, ReplayCallee};
use crate::fault::FaultPlan;
use crate::session::{run_session_with, SessionConfig};
use crate::trace::{ScenarioKind, TracePair};
use crate::Result;
use lumen_attack::adaptive::AdaptiveForger;
use lumen_attack::reenact::ReenactmentAttacker;
use lumen_attack::replay::ReplayAttacker;
use lumen_video::content::{MeteringScript, ScriptParams};
use lumen_video::noise::substream;
use lumen_video::profile::UserProfile;
use lumen_video::synth::SynthConfig;

/// A reusable scenario template.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Session timing and network.
    pub session: SessionConfig,
    /// Callee-side optics (screen, ambient, camera).
    pub conditions: SynthConfig,
    /// Caller metering-script generation parameters.
    pub script_params: ScriptParams,
    /// Relative per-session environmental variation (ambient level, viewing
    /// distance, network delay), drawn deterministically from the scenario
    /// seed. Real sessions never repeat the exact same room and network;
    /// without this spread a fixed training draw can collapse into an
    /// unrealistically tight LOF cluster.
    pub environment_jitter: f64,
    /// Observability sink every generated session streams its transport
    /// counters into (default: disabled).
    pub recorder: lumen_obs::Recorder,
    /// Optional per-tick display-luma overlay added to every generated
    /// caller trace (an active probe waveform; see `lumen-probe`).
    pub tx_overlay: Option<Vec<f64>>,
    /// When set, callers hold this constant display level (no scripted
    /// metering changes and no scene noise) — the low-variance content
    /// that starves the passive detector of evidence.
    pub static_level: Option<f64>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            session: SessionConfig::default(),
            conditions: SynthConfig::default(),
            script_params: ScriptParams::default(),
            environment_jitter: 0.1,
            recorder: lumen_obs::Recorder::null(),
            tx_overlay: None,
            static_level: None,
        }
    }
}

impl ScenarioBuilder {
    /// Sets the callee-side optics.
    pub fn with_conditions(mut self, conditions: SynthConfig) -> Self {
        self.conditions = conditions;
        self
    }

    /// Sets the session configuration.
    pub fn with_session(mut self, session: SessionConfig) -> Self {
        self.session = session;
        self
    }

    /// Layers a transport [`FaultPlan`] on both network directions.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.session.faults = faults;
        self
    }

    /// Streams every generated session's transport counters into `recorder`.
    pub fn with_recorder(mut self, recorder: lumen_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Adds a per-tick display-luma overlay (e.g. a probe waveform) to
    /// every caller trace this builder generates.
    #[must_use]
    pub fn with_tx_overlay(mut self, overlay: Vec<f64>) -> Self {
        self.tx_overlay = Some(overlay);
        self
    }

    /// Makes every caller hold a constant display level with no scene
    /// noise: a static talking head / frozen slide, the content class on
    /// which the passive path must abstain.
    #[must_use]
    pub fn with_static_caller(mut self, level: f64) -> Self {
        self.static_level = Some(level);
        self
    }

    fn caller_for(&self, seed: u64) -> Result<Caller> {
        let mut caller = match self.static_level {
            Some(level) => {
                let script = MeteringScript::constant(level, self.session.duration)?;
                let mut caller = Caller::new(script);
                caller.scene_noise = 0.0;
                caller
            }
            None => {
                let mut rng = substream(seed, 50);
                let script =
                    MeteringScript::random(&mut rng, self.session.duration, &self.script_params)?;
                Caller::new(script)
            }
        };
        caller.overlay = self.tx_overlay.clone();
        Ok(caller)
    }

    /// Per-seed variation of the physical setup: ambient level, viewing
    /// distance and one-way network delay wander within
    /// `±environment_jitter` (relative) around the template values.
    fn perturbed(&self, seed: u64) -> Result<(SynthConfig, SessionConfig)> {
        // lint:allow(float-eq): exact zero is the "no jitter" sentinel
        if self.environment_jitter == 0.0 {
            return Ok((self.conditions, self.session));
        }
        use rand::Rng;
        let mut rng = substream(seed, 51);
        let j = self.environment_jitter.clamp(0.0, 0.9);
        let mut wobble = move || 1.0 + j * (2.0 * rng.gen::<f64>() - 1.0);

        let mut conditions = self.conditions;
        conditions.ambient = lumen_video::ambient::AmbientLight::new(
            self.conditions.ambient.lux * wobble(),
            self.conditions.ambient.flicker,
        )?;
        conditions.screen.distance_m = (self.conditions.screen.distance_m * wobble()).max(0.05);

        let mut session = self.session;
        session.forward.base_delay = (self.session.forward.base_delay * wobble()).max(0.0);
        session.backward.base_delay = (self.session.backward.base_delay * wobble()).max(0.0);
        Ok((conditions, session))
    }

    /// A legitimate session: volunteer `user` (preset index) on the callee
    /// side.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn legitimate(&self, user: usize, seed: u64) -> Result<TracePair> {
        let caller = self.caller_for(seed)?;
        let (conditions, session) = self.perturbed(seed)?;
        let callee = LiveFace {
            profile: UserProfile::preset(user),
            conditions,
        };
        run_session_with(
            &caller,
            &callee,
            &session,
            ScenarioKind::Legitimate { user },
            seed,
            &self.recorder,
        )
    }

    /// A reenactment attack impersonating volunteer `victim`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn reenactment(&self, victim: usize, seed: u64) -> Result<TracePair> {
        let caller = self.caller_for(seed)?;
        let (conditions, session) = self.perturbed(seed)?;
        let callee = ReenactmentCallee {
            attacker: ReenactmentAttacker::new(UserProfile::preset(victim), conditions),
        };
        run_session_with(
            &caller,
            &callee,
            &session,
            ScenarioKind::Reenactment { victim },
            seed,
            &self.recorder,
        )
    }

    /// An adaptive forgery attack with processing delay `delay` seconds.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (including a negative delay).
    pub fn adaptive(&self, victim: usize, delay: f64, seed: u64) -> Result<TracePair> {
        let caller = self.caller_for(seed)?;
        let (conditions, session) = self.perturbed(seed)?;
        let callee = AdaptiveCallee {
            forger: AdaptiveForger::new(conditions, delay)?,
            victim: UserProfile::preset(victim),
        };
        run_session_with(
            &caller,
            &callee,
            &session,
            ScenarioKind::Adaptive { victim, delay },
            seed,
            &self.recorder,
        )
    }

    /// A media-replay attack impersonating volunteer `victim`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn replay(&self, victim: usize, seed: u64) -> Result<TracePair> {
        let caller = self.caller_for(seed)?;
        let (conditions, session) = self.perturbed(seed)?;
        let callee = ReplayCallee {
            attacker: ReplayAttacker::new(UserProfile::preset(victim), conditions),
        };
        run_session_with(
            &caller,
            &callee,
            &session,
            ScenarioKind::Replay { victim },
            seed,
            &self.recorder,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_dsp::stats::pearson;

    #[test]
    fn all_scenarios_produce_full_traces() {
        let b = ScenarioBuilder::default();
        for pair in [
            b.legitimate(0, 1).unwrap(),
            b.reenactment(0, 1).unwrap(),
            b.adaptive(0, 1.0, 1).unwrap(),
            b.replay(0, 1).unwrap(),
        ] {
            assert_eq!(pair.tx.len(), 150);
            assert_eq!(pair.rx.len(), 150);
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let b = ScenarioBuilder::default();
        assert_eq!(b.legitimate(2, 9).unwrap(), b.legitimate(2, 9).unwrap());
        assert_ne!(b.legitimate(2, 9).unwrap(), b.legitimate(2, 10).unwrap());
    }

    #[test]
    fn legitimate_rx_correlates_more_than_attack() {
        let b = ScenarioBuilder::default();
        let mut legit_sum = 0.0;
        let mut attack_sum = 0.0;
        let n = 8;
        for seed in 0..n {
            let l = b.legitimate(1, seed).unwrap();
            legit_sum += pearson(l.tx.samples(), l.rx.samples()).unwrap();
            let a = b.reenactment(1, seed).unwrap();
            attack_sum += pearson(a.tx.samples(), a.rx.samples()).unwrap();
        }
        let legit = legit_sum / n as f64;
        let attack = attack_sum / n as f64;
        assert!(
            legit > attack + 0.3,
            "legit corr {legit} vs attack corr {attack}"
        );
    }

    #[test]
    fn kinds_are_tagged() {
        let b = ScenarioBuilder::default();
        assert!(b.legitimate(3, 0).unwrap().kind.is_legitimate());
        assert!(!b.reenactment(3, 0).unwrap().kind.is_legitimate());
        let adaptive = b.adaptive(3, 0.7, 0).unwrap();
        assert_eq!(
            adaptive.kind,
            ScenarioKind::Adaptive {
                victim: 3,
                delay: 0.7
            }
        );
    }
}
