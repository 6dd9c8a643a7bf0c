//! Embedding a challenge into the transmitted display luma.
//!
//! Injection is deliberately *additive and upstream*: the challenge is an
//! offset on the display-luma trace the caller transmits, so the
//! reflected response is produced by the same physical chain the passive
//! detector already models — `Screen::incident` (with its black-level
//! floor and 0–255 clamp), skin reflectance, ambient mixing,
//! auto-exposure and the camera. Nothing in the receive path knows a
//! probe is running.

use crate::schedule::ChallengeSchedule;
use crate::Result;
use lumen_chat::endpoint::Caller;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_dsp::Signal;

/// Embeds a [`ChallengeSchedule`] into transmitted display luma.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeInjector {
    schedule: ChallengeSchedule,
}

impl ProbeInjector {
    /// Creates an injector for one challenge.
    pub fn new(schedule: ChallengeSchedule) -> Self {
        ProbeInjector { schedule }
    }

    /// The carried challenge.
    pub fn schedule(&self) -> &ChallengeSchedule {
        &self.schedule
    }

    /// Adds the challenge waveform to `tx` over the overlapping prefix,
    /// clamping each sample to the displayable `[0, 255]` range. Ticks
    /// past the end of the schedule are transmitted unchanged.
    ///
    /// # Errors
    ///
    /// Propagates signal-construction errors.
    pub fn inject(&self, tx: &Signal) -> Result<Signal> {
        let waveform = self.schedule.waveform();
        let samples: Vec<f64> = tx
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let offset = waveform.get(i).copied().unwrap_or(0.0);
                (s + offset).clamp(0.0, 255.0)
            })
            .collect();
        Ok(Signal::new(samples, tx.sample_rate())?)
    }

    /// Attaches the challenge to a [`Caller`] as a display-luma overlay,
    /// so every trace the caller transmits carries the probe.
    #[must_use]
    pub fn armed_caller(&self, caller: Caller) -> Caller {
        caller.with_overlay(self.schedule.waveform())
    }

    /// Attaches the challenge to every caller a [`ScenarioBuilder`]
    /// generates — the probe then rides through the full duplex session
    /// simulation (network, callee behaviour, camera) for any scenario
    /// kind.
    #[must_use]
    pub fn armed_scenario(&self, builder: ScenarioBuilder) -> ScenarioBuilder {
        builder.with_tx_overlay(self.schedule.waveform())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ProbeConfig;

    fn schedule() -> ChallengeSchedule {
        ChallengeSchedule::generate(&ProbeConfig::default(), 11).unwrap()
    }

    #[test]
    fn inject_adds_waveform_and_clamps() {
        let s = schedule();
        let injector = ProbeInjector::new(s.clone());
        let n = s.total_ticks() + 10;
        let tx = Signal::new(vec![120.0; n], s.sample_rate).unwrap();
        let probed = injector.inject(&tx).unwrap();
        let w = s.waveform();
        for (i, &v) in probed.samples().iter().enumerate() {
            let expect = (120.0 + w.get(i).copied().unwrap_or(0.0)).clamp(0.0, 255.0);
            assert!((v - expect).abs() < 1e-12);
        }
        // Near white the sum clamps instead of exceeding the range.
        let bright = Signal::new(vec![253.0; n], s.sample_rate).unwrap();
        let clamped = injector.inject(&bright).unwrap();
        assert!(clamped.samples().iter().all(|&v| v <= 255.0));
    }

    #[test]
    fn armed_caller_carries_probe() {
        let s = schedule();
        let injector = ProbeInjector::new(s.clone());
        let caller = injector.armed_caller(Caller::new(
            lumen_video::content::MeteringScript::constant(100.0, 8.0).unwrap(),
        ));
        assert_eq!(caller.overlay.as_deref(), Some(&s.waveform()[..]));
    }
}
