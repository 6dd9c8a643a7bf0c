//! End-to-end synthesis of the received-video ROI luminance trace for a
//! *live* face.
//!
//! Given the transmitted video's luminance trace (what the callee's screen
//! displays), [`ReflectionSynth`] chains the optics models of this crate —
//! screen emission → ambient mixing → Von Kries skin reflection → camera
//! exposure — and layers on the user's behavioural noise (head motion,
//! blinks/talking, tracking jitter). The output is the luminance of the
//! lower-nasal-bridge ROI, exactly the quantity Sec. IV of the paper
//! extracts from the received video.
//!
//! Attack-side synthesis (reenactment, replay, adaptive forgery) lives in
//! `lumen-attack` and bypasses this path — that is the point of the attack.

use crate::ambient::AmbientLight;
use crate::camera::Camera;
use crate::noise::{substream, BurstProcess, RandomWalk, WhiteNoise};
use crate::profile::UserProfile;
use crate::reflection::face_radiance;
use crate::screen::Screen;
use crate::{Result, VideoError};
use lumen_dsp::Signal;
use lumen_obs::Recorder;

/// Physical configuration of the callee's side.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynthConfig {
    /// The screen displaying the caller's video.
    pub screen: Screen,
    /// Ambient light on the callee's face.
    pub ambient: AmbientLight,
    /// The callee's camera.
    pub camera: Camera,
}

/// Synthesizer for live-face ROI luminance traces.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReflectionSynth {
    config: SynthConfig,
}

impl ReflectionSynth {
    /// Creates a synthesizer.
    pub fn new(config: SynthConfig) -> Self {
        ReflectionSynth { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The settled auto-exposure gain for a transmitted trace averaging
    /// `tx_mean` — exposed for calibration tests and the ambient-light
    /// experiment.
    pub fn settled_gain(&self, profile: &UserProfile, tx_mean: f64) -> f64 {
        let mean_radiance = face_radiance(
            profile,
            self.config.screen.incident(tx_mean),
            self.config.ambient.incident(),
        );
        self.config.camera.settled_gain(mean_radiance)
    }

    /// Peak-to-peak ROI amplitude produced by a transmitted-video luminance
    /// swing of `tx_swing` around mean `tx_mean` (noise-free prediction).
    /// Useful for calibration and the screen-size experiment.
    pub fn predicted_amplitude(&self, profile: &UserProfile, tx_mean: f64, tx_swing: f64) -> f64 {
        let gain = self.settled_gain(profile, tx_mean);
        let coupling = self.config.camera.metering.ae_coupling();
        gain * (1.0 - coupling)
            * profile.skin_reflectance
            * self.config.screen.illuminance_gain()
            * tx_swing
    }

    /// Synthesizes the ROI luminance trace of a live face watching `tx`.
    ///
    /// `seed` drives all stochastic components deterministically; the same
    /// `(tx, profile, seed)` triple always produces the same trace.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::Dsp`] wrapping an empty-signal error when `tx`
    /// is empty.
    pub fn synthesize(&self, tx: &Signal, profile: &UserProfile, seed: u64) -> Result<Signal> {
        self.synthesize_with(tx, profile, seed, &Recorder::null())
    }

    /// [`synthesize`](Self::synthesize) with live observability: the whole
    /// optics chain runs under a `video.synthesize` span and the number of
    /// produced frames lands on the `video.frames_synthesized` counter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`synthesize`](Self::synthesize).
    pub fn synthesize_with(
        &self,
        tx: &Signal,
        profile: &UserProfile,
        seed: u64,
        recorder: &Recorder,
    ) -> Result<Signal> {
        let _span = recorder.span("video.synthesize");
        if tx.is_empty() {
            return Err(VideoError::from(lumen_dsp::DspError::EmptySignal));
        }
        let n = tx.len();
        let dt = 1.0 / tx.sample_rate();

        // Settle auto-exposure on the clip's mean scene.
        let mean_radiance = face_radiance(
            profile,
            self.config.screen.incident(tx.mean()),
            self.config.ambient.incident(),
        );
        let gain = self.config.camera.settled_gain(mean_radiance);

        // Independent noise streams.
        let mut rng_ambient = substream(seed, 0);
        let mut rng_motion = substream(seed, 1);
        let mut rng_burst = substream(seed, 2);
        let mut rng_sensor = substream(seed, 3);
        let mut rng_jitter = substream(seed, 4);

        let mut motion = RandomWalk::new(profile.motion_reversion, profile.motion_diffusion);
        let bursts = BurstProcess::new(profile.burst_rate, 0.45, profile.burst_amplitude).samples(
            &mut rng_burst,
            n,
            tx.sample_rate(),
        );
        let jitter = WhiteNoise::new(profile.tracking_jitter);

        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let display = tx.samples()[i];
                let incident = self.config.screen.incident(display)
                    + self.config.ambient.sample(&mut rng_ambient);
                let radiance = profile.skin_reflectance * incident;
                let pixel =
                    self.config
                        .camera
                        .expose(radiance, gain, mean_radiance, &mut rng_sensor);
                let disturbance =
                    motion.step(&mut rng_motion, dt) + bursts[i] + jitter.next(&mut rng_jitter);
                (pixel + disturbance).clamp(0.0, 255.0)
            })
            .collect();
        recorder.add("video.frames_synthesized", samples.len() as u64);
        Ok(Signal::new(samples, tx.sample_rate())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::MeteringScript;

    fn tx_square() -> Signal {
        MeteringScript::square_wave(40.0, 200.0, 0.2, 15.0)
            .unwrap()
            .sample_signal(10.0)
            .unwrap()
    }

    #[test]
    fn synthesis_is_deterministic() {
        let synth = ReflectionSynth::default();
        let tx = tx_square();
        let user = UserProfile::preset(0);
        let a = synth.synthesize(&tx, &user, 77).unwrap();
        let b = synth.synthesize(&tx, &user, 77).unwrap();
        let c = synth.synthesize(&tx, &user, 78).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_tx_errors() {
        let synth = ReflectionSynth::default();
        let tx = Signal::new(vec![], 10.0).unwrap();
        assert!(synth.synthesize(&tx, &UserProfile::preset(0), 1).is_err());
    }

    #[test]
    fn face_follows_screen_luminance() {
        let synth = ReflectionSynth::default();
        let tx = tx_square();
        let user = UserProfile::preset(0);
        let rx = synth.synthesize(&tx, &user, 3).unwrap();
        // Mean ROI level during dark vs bright screen phases. Phase layout
        // of the 0.2 Hz square wave: dark [0, 2.5), bright [2.5, 5.0), ...
        let mean_in =
            |lo: usize, hi: usize| rx.samples()[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        let dark = (mean_in(5, 24) + mean_in(55, 74)) / 2.0;
        let bright = (mean_in(30, 49) + mean_in(80, 99)) / 2.0;
        assert!(
            bright - dark > 5.0,
            "bright {bright} vs dark {dark} — reflection signal missing"
        );
    }

    #[test]
    fn amplitude_matches_feasibility_study() {
        // Black->white on the Dell 27" should move the nasal bridge by
        // roughly 27 grey levels (paper: 105 -> 132); accept a 2x band.
        let synth = ReflectionSynth::default();
        let user = UserProfile::preset(0);
        let amp = synth.predicted_amplitude(&user, 127.0, 255.0);
        assert!((13.0..55.0).contains(&amp), "amplitude {amp}");
    }

    #[test]
    fn face_level_sits_in_plausible_band() {
        let synth = ReflectionSynth::default();
        let tx = tx_square();
        let rx = synth.synthesize(&tx, &UserProfile::preset(4), 5).unwrap();
        let mean = rx.mean();
        assert!(
            (70.0..170.0).contains(&mean),
            "face mean {mean} outside feasibility band"
        );
    }

    #[test]
    fn larger_screen_gives_larger_amplitude() {
        let user = UserProfile::preset(0);
        let mk = |screen: Screen| {
            ReflectionSynth::new(SynthConfig {
                screen,
                ..SynthConfig::default()
            })
            .predicted_amplitude(&user, 127.0, 160.0)
        };
        let a27 = mk(Screen::dell_27in());
        let a21 = mk(Screen::monitor_21in());
        let a14 = mk(Screen::laptop_14in());
        let a6 = mk(Screen::phone_6in_far());
        assert!(a27 > a21 && a21 > a14 && a14 > a6);
    }

    #[test]
    fn stronger_ambient_shrinks_amplitude() {
        let user = UserProfile::preset(0);
        let mk = |ambient: AmbientLight| {
            ReflectionSynth::new(SynthConfig {
                ambient,
                ..SynthConfig::default()
            })
            .predicted_amplitude(&user, 127.0, 160.0)
        };
        let dim = mk(AmbientLight::dim_indoor());
        let normal = mk(AmbientLight::normal_indoor());
        let bright = mk(AmbientLight::bright_indoor());
        assert!(dim > normal && normal > bright, "{dim} {normal} {bright}");
    }

    #[test]
    fn instrumented_synthesis_counts_frames() {
        let (rec, sink) = lumen_obs::Recorder::in_memory();
        let synth = ReflectionSynth::default();
        let tx = tx_square();
        let user = UserProfile::preset(0);
        let plain = synth.synthesize(&tx, &user, 77).unwrap();
        let traced = synth.synthesize_with(&tx, &user, 77, &rec).unwrap();
        // Instrumentation must not perturb the synthesis itself.
        assert_eq!(plain, traced);
        let registry = sink.registry();
        assert_eq!(
            registry.counter("video.frames_synthesized"),
            tx.len() as u64
        );
        assert_eq!(
            registry.span_durations("video.synthesize").unwrap().count(),
            1
        );
    }

    #[test]
    fn output_stays_in_pixel_range() {
        let synth = ReflectionSynth::default();
        let tx = tx_square();
        for seed in 0..5 {
            let rx = synth
                .synthesize(&tx, &UserProfile::preset(seed as usize), seed)
                .unwrap();
            assert!(rx.samples().iter().all(|&v| (0.0..=255.0).contains(&v)));
        }
    }
}
