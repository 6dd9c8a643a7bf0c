//! Probe scheduling and fusion policy.
//!
//! A [`ProbeDirector`] sits beside one streaming session. It watches the
//! passive verdict stream; when the passive path abstains (low-variance
//! content, a degraded stretch) it issues a fresh seeded challenge —
//! under a cooldown and a per-session budget, because probes cost
//! transmitted-video fidelity and verification work. The resulting
//! [`ProbeVerdict`] is fused into the *same* 0.7·D
//! vote history the passive clips feed
//! (`StreamingDetector::record_probe_vote`), so active evidence carries
//! exactly one vote, not a side-channel override.
//!
//! The director is plain serializable state: checkpointing a serving
//! runtime mid-probe captures the in-flight challenge byte-identically,
//! and the restored runtime can still verify the response.

use crate::schedule::{ChallengeSchedule, ProbeConfig};
use crate::verify::{ProbeDecision, ProbeFailReason, ProbeVerdict, ProbeVerifier, VerifierConfig};
use crate::{ProbeError, Result};
use lumen_chat::trace::TracePair;
use lumen_core::detector::ClipOutcome;
use lumen_core::quality::InconclusiveReason;
use lumen_core::stream::ClipVerdict;
use lumen_obs::Recorder;
use serde::{Deserialize, Serialize};

/// When and how a session may be probed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbePolicy {
    /// Challenge generation parameters.
    pub challenge: ProbeConfig,
    /// Verification thresholds.
    pub verifier: VerifierConfig,
    /// Passive verdicts that must elapse after a probe is issued before
    /// the next one may fire.
    pub cooldown_clips: u64,
    /// Maximum probes per session lifetime.
    pub max_probes: u64,
    /// Challenges that may be re-issued free of budget when a
    /// [`MissingResponse`](ProbeFailReason::MissingResponse) lands inside
    /// the restart window (see [`ProbeDirector::note_restart`]): after a
    /// checkpoint/restore, a missing response most likely means the
    /// response frames were lost with the crash, not that the callee
    /// stripped the probe. Zero disables restart retries.
    pub restart_retries: u64,
}

impl Default for ProbePolicy {
    fn default() -> Self {
        ProbePolicy {
            challenge: ProbeConfig::default(),
            verifier: VerifierConfig::default(),
            cooldown_clips: 2,
            max_probes: 8,
            restart_retries: 2,
        }
    }
}

impl ProbePolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Propagates challenge and verifier validation failures; a zero
    /// probe budget is also rejected (use no director instead).
    pub fn validate(&self) -> Result<()> {
        self.challenge.validate()?;
        self.verifier.validate()?;
        if self.max_probes == 0 {
            return Err(ProbeError::invalid_config(
                "max_probes",
                "a director with no probe budget can never act",
            ));
        }
        Ok(())
    }
}

/// Per-session probe state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeDirector {
    policy: ProbePolicy,
    seed: u64,
    issued: u64,
    cooldown: u64,
    in_flight: Option<ChallengeSchedule>,
    /// Whether the outstanding challenge crossed a checkpoint/restore
    /// boundary (armed by [`ProbeDirector::note_restart`], cleared by the
    /// first conclusive resolve).
    restart_window: bool,
    /// Restart-window retries consumed so far.
    restart_retries_used: u64,
    /// Challenges re-issued inside restart windows (drives the reserved
    /// re-issue seed ordinals, `max_probes + n`).
    reissued: u64,
}

impl ProbeDirector {
    /// Creates a director drawing challenge seeds from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`ProbePolicy::validate`] failures.
    pub fn new(policy: ProbePolicy, seed: u64) -> Result<Self> {
        policy.validate()?;
        Ok(ProbeDirector {
            policy,
            seed,
            issued: 0,
            cooldown: 0,
            in_flight: None,
            restart_window: false,
            restart_retries_used: 0,
            reissued: 0,
        })
    }

    /// The governing policy.
    pub fn policy(&self) -> &ProbePolicy {
        &self.policy
    }

    /// Probes issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The outstanding challenge, if a probe is awaiting its response.
    pub fn in_flight(&self) -> Option<&ChallengeSchedule> {
        self.in_flight.as_ref()
    }

    /// Whether the outstanding challenge is inside its restart window.
    pub fn in_restart_window(&self) -> bool {
        self.restart_window
    }

    /// Marks the outstanding challenge as having crossed a restart: the
    /// supervisor calls this when the director is restored from a
    /// checkpoint with a challenge still in flight. Inside the window a
    /// [`MissingResponse`](ProbeFailReason::MissingResponse) is
    /// retry-eligible — up to [`ProbePolicy::restart_retries`] fresh
    /// challenges are re-issued (budget-free, under an exponentially
    /// growing cooldown) instead of burning the session's probe budget on
    /// a response that was probably lost with the crash. No-op when
    /// nothing is in flight.
    pub fn note_restart(&mut self) {
        if self.in_flight.is_some() {
            self.restart_window = true;
        }
    }

    /// Observes one passive clip verdict; returns a fresh challenge when
    /// the policy says this is the moment to probe.
    ///
    /// A probe fires when the clip was inconclusive for a *signal* reason
    /// (not a load shed — `Withheld` clips say nothing about the callee),
    /// no probe is already outstanding, the cooldown has elapsed and the
    /// session budget is not exhausted. Each challenge draws from a
    /// deterministic per-probe seed, so a director restored from a
    /// checkpoint issues the same future challenges.
    pub fn observe(&mut self, verdict: &ClipVerdict) -> Option<ChallengeSchedule> {
        let cooling = self.cooldown > 0;
        self.cooldown = self.cooldown.saturating_sub(1);
        let wants_probe = matches!(
            &verdict.outcome,
            ClipOutcome::Inconclusive(reason) if !matches!(reason, InconclusiveReason::Withheld)
        );
        if !wants_probe
            || cooling
            || self.in_flight.is_some()
            || self.issued >= self.policy.max_probes
        {
            return None;
        }
        // Policy was validated at construction, so generation cannot
        // fail; a defensive None keeps the path panic-free regardless.
        let schedule =
            ChallengeSchedule::generate(&self.policy.challenge, probe_seed(self.seed, self.issued))
                .ok()?;
        self.issued += 1;
        self.cooldown = self.policy.cooldown_clips;
        self.in_flight = Some(schedule.clone());
        Some(schedule)
    }

    /// Verifies the response to the outstanding challenge and clears it.
    ///
    /// Inside a restart window (see [`ProbeDirector::note_restart`]) a
    /// [`MissingResponse`](ProbeFailReason::MissingResponse) does not
    /// become a reject vote: while retries remain, the verdict is
    /// neutralized to an abstention and a *fresh* challenge is re-issued
    /// in its place (left in [`ProbeDirector::in_flight`], budget-free,
    /// with the cooldown doubling per retry). Any other outcome closes
    /// the window.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoProbeInFlight`] when no challenge is
    /// outstanding; verification errors leave the challenge in flight so
    /// a transient failure can be retried.
    pub fn resolve(&mut self, pair: &TracePair, recorder: &Recorder) -> Result<ProbeVerdict> {
        let schedule = self.in_flight.clone().ok_or(ProbeError::NoProbeInFlight)?;
        let verifier = ProbeVerifier::new(self.policy.verifier)?;
        let verdict = verifier.verify_with(&schedule, pair, recorder)?;
        if verdict.fail_reason == Some(ProbeFailReason::MissingResponse)
            && self.restart_window
            && self.restart_retries_used < self.policy.restart_retries
        {
            // Re-issue seeds come from the ordinal range above
            // `max_probes`, which regular probes can never reach, so a
            // restored director still draws the same future challenges.
            let fresh = ChallengeSchedule::generate(
                &self.policy.challenge,
                probe_seed(self.seed, self.policy.max_probes + self.reissued),
            )
            .ok();
            if let Some(fresh) = fresh {
                self.restart_retries_used += 1;
                self.reissued += 1;
                let doublings = (self.restart_retries_used - 1).min(16) as u32;
                self.cooldown = self
                    .policy
                    .cooldown_clips
                    .max(1)
                    .saturating_mul(1u64 << doublings);
                self.in_flight = Some(fresh);
                recorder.add("probe.retry.missing_response", 1);
                return Ok(retry_withheld(&verdict));
            }
        }
        self.restart_window = false;
        if let Some(reason) = verdict.fail_reason {
            // Per-cause counters: a flight recorder or metrics snapshot can
            // tell a mistimed response apart from a missing one.
            recorder.add(
                match reason {
                    ProbeFailReason::WeakCorrelation => "probe.fail.weak_correlation",
                    ProbeFailReason::MissingResponse => "probe.fail.missing_response",
                    ProbeFailReason::LowHitRate => "probe.fail.low_hit_rate",
                    ProbeFailReason::LateResponse => "probe.fail.late_response",
                },
                1,
            );
        }
        self.in_flight = None;
        Ok(verdict)
    }
}

/// Neutralizes a restart-window missing response: the measurements stay
/// for diagnostics, but the decision becomes a vote-free abstention (the
/// re-issued challenge will produce the real verdict).
fn retry_withheld(verdict: &ProbeVerdict) -> ProbeVerdict {
    ProbeVerdict {
        decision: ProbeDecision::Abstain,
        fail_reason: None,
        abstain_reason: Some(InconclusiveReason::Withheld),
        confidence: 0.0,
        ..verdict.clone()
    }
}

/// Deterministic per-probe seed derivation: the shared workspace mixer
/// over `(seed, ordinal + 1)`, tag 0. The `+ 1` keeps ordinal 0 from
/// collapsing its coordinate to the raw seed — the formula (and thus
/// every historical challenge schedule) is unchanged by the move to
/// [`lumen_dsp::mix::splitmix`].
fn probe_seed(seed: u64, ordinal: u64) -> u64 {
    lumen_dsp::mix::splitmix(seed, 0, ordinal.wrapping_add(1), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::stream::SessionStatus;

    fn inconclusive(clip_index: usize) -> ClipVerdict {
        ClipVerdict {
            clip_index,
            outcome: ClipOutcome::Inconclusive(InconclusiveReason::Flatline),
            status: SessionStatus::Gathering,
            retrigger: false,
        }
    }

    fn withheld(clip_index: usize) -> ClipVerdict {
        ClipVerdict {
            clip_index,
            outcome: ClipOutcome::Inconclusive(InconclusiveReason::Withheld),
            status: SessionStatus::Gathering,
            retrigger: false,
        }
    }

    #[test]
    fn zero_budget_rejected() {
        let policy = ProbePolicy {
            max_probes: 0,
            ..ProbePolicy::default()
        };
        assert!(ProbeDirector::new(policy, 1).is_err());
    }

    #[test]
    fn fires_on_inconclusive_with_cooldown_and_budget() {
        let policy = ProbePolicy {
            cooldown_clips: 2,
            max_probes: 2,
            ..ProbePolicy::default()
        };
        let mut director = ProbeDirector::new(policy, 99).unwrap();
        let first = director.observe(&inconclusive(0)).expect("first probe");
        assert_eq!(director.issued(), 1);
        assert_eq!(director.in_flight(), Some(&first));
        // Outstanding probe and cooldown both block the next request.
        assert!(director.observe(&inconclusive(1)).is_none());
        director.in_flight = None;
        assert!(director.observe(&inconclusive(2)).is_none(), "cooling down");
        let second = director.observe(&inconclusive(3)).expect("second probe");
        assert_ne!(first, second, "each probe draws a fresh challenge");
        director.in_flight = None;
        // Budget of two is now exhausted forever.
        for i in 4..10 {
            assert!(director.observe(&inconclusive(i)).is_none());
        }
    }

    #[test]
    fn withheld_clips_do_not_trigger() {
        let mut director = ProbeDirector::new(ProbePolicy::default(), 7).unwrap();
        assert!(director.observe(&withheld(0)).is_none());
        assert_eq!(director.issued(), 0);
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = ProbeDirector::new(ProbePolicy::default(), 123).unwrap();
        let mut b = a.clone();
        let sa = a.observe(&inconclusive(0)).unwrap();
        let sb = b.observe(&inconclusive(0)).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a, b);
    }

    /// A pair whose rx carries a faint exact copy of `schedule` (high
    /// correlation, gain far below the physical reflection) — the
    /// verifier's `MissingResponse` signature.
    fn faint_copy_pair(schedule: &ChallengeSchedule) -> TracePair {
        let rate = schedule.sample_rate;
        // The sample-to-sample dither keeps the quality gate from reading
        // the piecewise-constant challenge copy as frozen frames; it is
        // small enough that the regression gain stays under the
        // `MissingResponse` threshold.
        let samples: Vec<f64> = schedule
            .waveform()
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let dither = if i % 2 == 0 { 0.05 } else { -0.05 };
                128.0 + 0.005 * w + dither
            })
            .collect();
        let rx = lumen_dsp::Signal::new(samples, rate).unwrap();
        TracePair {
            tx: rx.clone(),
            rx,
            kind: lumen_chat::trace::ScenarioKind::Legitimate { user: 0 },
            seed: 0,
            forward_delay: 0.0,
            backward_delay: 0.0,
        }
    }

    #[test]
    fn restart_window_retries_missing_response() {
        let policy = ProbePolicy {
            cooldown_clips: 2,
            restart_retries: 2,
            ..ProbePolicy::default()
        };
        let mut director = ProbeDirector::new(policy, 42).unwrap();
        let first = director.observe(&inconclusive(0)).expect("probe fires");
        assert_eq!(director.issued(), 1);

        // Simulate the checkpoint cycle: the director crosses a restore
        // with the challenge still outstanding.
        director.note_restart();
        assert!(director.in_restart_window());

        let verdict = director
            .resolve(&faint_copy_pair(&first), &Recorder::null())
            .unwrap();
        // The missing response is neutralized, not fused as a reject...
        assert_eq!(verdict.decision, ProbeDecision::Abstain);
        assert_eq!(verdict.accepted(), None);
        assert_eq!(verdict.abstain_reason, Some(InconclusiveReason::Withheld));
        // ...a fresh challenge is re-issued, budget-free, under a
        // doubled-on-next-retry cooldown.
        let second = director.in_flight().cloned().expect("re-issued");
        assert_ne!(second, first, "the re-issue draws a fresh challenge");
        assert_eq!(director.issued(), 1, "no budget burned");
        assert_eq!(director.cooldown, 2);

        // Second retry: cooldown backoff doubles.
        let verdict = director
            .resolve(&faint_copy_pair(&second), &Recorder::null())
            .unwrap();
        assert_eq!(verdict.decision, ProbeDecision::Abstain);
        let third = director.in_flight().cloned().expect("re-issued again");
        assert_ne!(third, second);
        assert_eq!(director.cooldown, 4);

        // Retries exhausted: the next missing response is a real fail.
        let verdict = director
            .resolve(&faint_copy_pair(&third), &Recorder::null())
            .unwrap();
        assert_eq!(verdict.decision, ProbeDecision::Fail);
        assert_eq!(verdict.fail_reason, Some(ProbeFailReason::MissingResponse));
        assert!(director.in_flight().is_none());
        assert!(!director.in_restart_window());
    }

    #[test]
    fn missing_response_outside_restart_window_fails_normally() {
        let mut director = ProbeDirector::new(ProbePolicy::default(), 42).unwrap();
        let schedule = director.observe(&inconclusive(0)).expect("probe fires");
        let verdict = director
            .resolve(&faint_copy_pair(&schedule), &Recorder::null())
            .unwrap();
        assert_eq!(verdict.decision, ProbeDecision::Fail);
        assert_eq!(verdict.fail_reason, Some(ProbeFailReason::MissingResponse));
        assert!(director.in_flight().is_none(), "no re-issue");
    }

    #[test]
    fn note_restart_without_challenge_is_a_noop() {
        let mut director = ProbeDirector::new(ProbePolicy::default(), 42).unwrap();
        director.note_restart();
        assert!(!director.in_restart_window());
    }

    #[test]
    fn resolve_without_probe_errors() {
        let mut director = ProbeDirector::new(ProbePolicy::default(), 5).unwrap();
        let tx = lumen_dsp::Signal::new(vec![100.0; 10], 50.0).unwrap();
        let pair = TracePair {
            tx: tx.clone(),
            rx: tx,
            kind: lumen_chat::trace::ScenarioKind::Legitimate { user: 0 },
            seed: 0,
            forward_delay: 0.0,
            backward_delay: 0.0,
        };
        assert_eq!(
            director.resolve(&pair, &Recorder::null()),
            Err(ProbeError::NoProbeInFlight)
        );
    }
}
