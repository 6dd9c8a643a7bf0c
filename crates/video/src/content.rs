//! Luminance scripts for transmitted video content.
//!
//! Sec. II-B of the paper: in spot metering, "by moving the metering spot
//! between high-luminance and low-luminance areas, the legitimate user can
//! easily control the overall luminance of its video". A [`MeteringScript`]
//! models exactly that behaviour: the caller's video holds a luminance level
//! for a few seconds, then steps to a distinctly different level with a
//! short exposure-convergence transition.
//!
//! The same type also models the *attacker's* pre-recorded target video
//! (whose luminance changes are statistically independent of the live
//! screen).

use crate::noise::{gaussian, WhiteNoise};
use crate::{Result, VideoError};
use lumen_dsp::Signal;
use rand::Rng;

/// One scripted luminance change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuminanceStep {
    /// Time the change begins, in seconds.
    pub time: f64,
    /// Target luminance level (0–255 scale) after the change.
    pub level: f64,
    /// Transition duration in seconds (exposure convergence).
    pub transition: f64,
}

/// Parameters for random script generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptParams {
    /// Minimum and maximum gap between consecutive changes, seconds.
    pub gap: (f64, f64),
    /// Range of "dark" luminance levels.
    pub low: (f64, f64),
    /// Range of "bright" luminance levels.
    pub high: (f64, f64),
    /// Range of transition durations, seconds.
    pub transition: (f64, f64),
    /// Range of the delay before the first change, seconds.
    pub first_change: (f64, f64),
}

impl Default for ScriptParams {
    fn default() -> Self {
        // Calibrated to the paper's testbed: 15-second clips containing a
        // handful of deliberate metering changes between dark and bright
        // scene areas. Gaps stay above the detector's 30-sample RMS merge
        // window (3 s at 10 Hz) so deliberate changes remain separable.
        ScriptParams {
            // Wide gap ranges keep change *timing* diverse across clips —
            // a reenactment attacker's pre-recorded clip must not share a
            // predictable change template with the live video — while the
            // lower bound stays above the detector's 3 s RMS merge window.
            gap: (4.5, 8.5),
            low: (45.0, 80.0),
            high: (150.0, 205.0),
            transition: (0.25, 0.5),
            // The detector's 3 s smoothing window cannot resolve a change
            // in the first ~1.5 s of a clip; a deliberate caller waits.
            first_change: (2.0, 6.5),
        }
    }
}

impl ScriptParams {
    fn validate(&self) -> Result<()> {
        let ordered = |name: &'static str, (a, b): (f64, f64)| {
            if a.is_finite() && b.is_finite() && a <= b && a >= 0.0 {
                Ok(())
            } else {
                Err(VideoError::invalid_parameter(
                    name,
                    format!("range ({a}, {b}) must be ordered, finite, non-negative"),
                ))
            }
        };
        ordered("gap", self.gap)?;
        ordered("low", self.low)?;
        ordered("high", self.high)?;
        ordered("transition", self.transition)?;
        ordered("first_change", self.first_change)?;
        if self.low.1 >= self.high.0 {
            return Err(VideoError::invalid_parameter(
                "low/high",
                "low range must sit strictly below high range",
            ));
        }
        Ok(())
    }
}

/// A piecewise luminance trajectory for a video's overall luminance.
#[derive(Debug, Clone, PartialEq)]
pub struct MeteringScript {
    initial_level: f64,
    steps: Vec<LuminanceStep>,
    duration: f64,
}

fn smoothstep(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    x * x * (3.0 - 2.0 * x)
}

impl MeteringScript {
    /// Creates a script from an initial level and ordered steps.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for a non-positive duration,
    /// out-of-order / out-of-range steps, or luminance outside `[0, 255]`.
    pub fn new(initial_level: f64, steps: Vec<LuminanceStep>, duration: f64) -> Result<Self> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err(VideoError::invalid_parameter(
                "duration",
                "must be finite and positive",
            ));
        }
        if !(0.0..=255.0).contains(&initial_level) {
            return Err(VideoError::invalid_parameter(
                "initial_level",
                "must be within [0, 255]",
            ));
        }
        let mut prev = 0.0;
        for (i, s) in steps.iter().enumerate() {
            if !(s.time.is_finite() && s.time >= prev && s.time <= duration) {
                return Err(VideoError::invalid_parameter(
                    "steps",
                    format!("step {i} at t={} is out of order or range", s.time),
                ));
            }
            if !(0.0..=255.0).contains(&s.level) {
                return Err(VideoError::invalid_parameter(
                    "steps",
                    format!("step {i} level {} outside [0, 255]", s.level),
                ));
            }
            if !(s.transition.is_finite() && s.transition >= 0.0) {
                return Err(VideoError::invalid_parameter(
                    "steps",
                    format!("step {i} transition must be non-negative"),
                ));
            }
            prev = s.time;
        }
        Ok(MeteringScript {
            initial_level,
            steps,
            duration,
        })
    }

    /// A constant-luminance script (a video-chat scene without metering
    /// changes) — the "w/o screen light change" case of Fig. 6.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeteringScript::new`].
    pub fn constant(level: f64, duration: f64) -> Result<Self> {
        MeteringScript::new(level, Vec::new(), duration)
    }

    /// The classic feasibility-study stimulus: a square wave flashing
    /// between `low` and `high` at `frequency` Hz (Sec. II-D uses 0.2 Hz
    /// black/white).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeteringScript::new`]; additionally rejects a
    /// non-positive frequency.
    pub fn square_wave(low: f64, high: f64, frequency: f64, duration: f64) -> Result<Self> {
        if !(frequency.is_finite() && frequency > 0.0) {
            return Err(VideoError::invalid_parameter(
                "frequency",
                "must be finite and positive",
            ));
        }
        let half_period = 0.5 / frequency;
        let mut steps = Vec::new();
        let mut t = half_period;
        let mut to_high = true;
        while t < duration {
            steps.push(LuminanceStep {
                time: t,
                level: if to_high { high } else { low },
                transition: 0.05,
            });
            to_high = !to_high;
            t += half_period;
        }
        MeteringScript::new(low, steps, duration)
    }

    /// Generates a random metering script with [`ScriptParams::default`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`MeteringScript::random`].
    pub fn random_with_seed(seed: u64, duration: f64) -> Result<Self> {
        let mut rng = crate::noise::seeded_rng(seed);
        Self::random(&mut rng, duration, &ScriptParams::default())
    }

    /// Generates a random metering script: levels alternate between the low
    /// and high ranges with random gaps, starting from a random phase.
    ///
    /// # Errors
    ///
    /// Returns [`VideoError::InvalidParameter`] for invalid `params` or
    /// duration.
    pub fn random<R: Rng + ?Sized>(
        rng: &mut R,
        duration: f64,
        params: &ScriptParams,
    ) -> Result<Self> {
        params.validate()?;
        if !(duration.is_finite() && duration > 0.0) {
            return Err(VideoError::invalid_parameter(
                "duration",
                "must be finite and positive",
            ));
        }
        let in_range = |rng: &mut R, (a, b): (f64, f64)| {
            if a == b {
                a
            } else {
                rng.gen_range(a..b)
            }
        };
        let mut bright = rng.gen::<bool>();
        let initial = if bright {
            in_range(rng, params.high)
        } else {
            in_range(rng, params.low)
        };
        let mut steps = Vec::new();
        let mut t = in_range(rng, params.first_change);
        // A change too close to the clip end cannot be resolved by the
        // detector's smoothing windows; a deliberate caller paces changes
        // inside the clip.
        let last_usable = duration - 2.0;
        while t < last_usable {
            bright = !bright;
            let level = if bright {
                in_range(rng, params.high)
            } else {
                in_range(rng, params.low)
            };
            steps.push(LuminanceStep {
                time: t,
                level,
                transition: in_range(rng, params.transition),
            });
            t += in_range(rng, params.gap);
        }
        MeteringScript::new(initial, steps, duration)
    }

    /// Script duration in seconds.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// The scripted steps.
    pub fn steps(&self) -> &[LuminanceStep] {
        &self.steps
    }

    /// Ground-truth times of the scripted luminance changes — used by
    /// experiments to verify the preprocessing chain's peak detection.
    pub fn change_times(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.time).collect()
    }

    /// Luminance at time `t` (clamped to the script range). Transitions use
    /// a smoothstep ramp over each step's `transition` window.
    pub fn sample(&self, t: f64) -> f64 {
        let mut level = self.initial_level;
        for s in &self.steps {
            if t < s.time {
                break;
            }
            if s.transition > 0.0 && t < s.time + s.transition {
                let alpha = smoothstep((t - s.time) / s.transition);
                return level + (s.level - level) * alpha;
            }
            level = s.level;
        }
        level
    }

    /// Samples the script into a [`Signal`] at `sample_rate` Hz.
    ///
    /// # Errors
    ///
    /// Propagates signal-construction errors (bad sample rate).
    pub fn sample_signal(&self, sample_rate: f64) -> Result<Signal> {
        let n = (self.duration * sample_rate).round() as usize;
        Ok(Signal::from_fn(n, sample_rate, |t| self.sample(t))?)
    }
}

/// Adds scene noise to a transmitted-video luminance trace: white noise from
/// content motion plus occasional heavier wobble (Sec. V: "For the
/// transmitted video, the noise is mainly from the object movement in the
/// scene").
pub fn add_scene_noise<R: Rng + ?Sized>(signal: &Signal, sigma: f64, rng: &mut R) -> Signal {
    let white = WhiteNoise::new(sigma);
    let samples: Vec<f64> = signal
        .samples()
        .iter()
        .map(|&v| {
            let wobble = 0.3 * sigma * gaussian(rng);
            (v + white.next(rng) + wobble).clamp(0.0, 255.0)
        })
        .collect();
    // lint:allow(no-panic): every sample is clamped to [0, 255] above, so
    // the signal is finite by construction
    Signal::new(samples, signal.sample_rate()).expect("noise output is finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::seeded_rng;

    #[test]
    fn constant_script_is_flat() {
        let s = MeteringScript::constant(100.0, 15.0).unwrap();
        assert_eq!(s.sample(0.0), 100.0);
        assert_eq!(s.sample(7.5), 100.0);
        assert_eq!(s.sample(15.0), 100.0);
        assert!(s.change_times().is_empty());
    }

    #[test]
    fn new_validates() {
        assert!(MeteringScript::constant(100.0, 0.0).is_err());
        assert!(MeteringScript::constant(300.0, 10.0).is_err());
        let bad_order = vec![
            LuminanceStep {
                time: 5.0,
                level: 100.0,
                transition: 0.3,
            },
            LuminanceStep {
                time: 2.0,
                level: 50.0,
                transition: 0.3,
            },
        ];
        assert!(MeteringScript::new(80.0, bad_order, 10.0).is_err());
        let out_of_range = vec![LuminanceStep {
            time: 20.0,
            level: 100.0,
            transition: 0.3,
        }];
        assert!(MeteringScript::new(80.0, out_of_range, 10.0).is_err());
    }

    #[test]
    fn step_transition_is_monotone() {
        let script = MeteringScript::new(
            50.0,
            vec![LuminanceStep {
                time: 5.0,
                level: 200.0,
                transition: 0.5,
            }],
            15.0,
        )
        .unwrap();
        assert_eq!(script.sample(4.9), 50.0);
        let a = script.sample(5.1);
        let b = script.sample(5.3);
        let c = script.sample(5.45);
        assert!(50.0 < a && a < b && b < c && c < 200.0);
        assert_eq!(script.sample(5.6), 200.0);
    }

    #[test]
    fn zero_transition_is_instant() {
        let script = MeteringScript::new(
            50.0,
            vec![LuminanceStep {
                time: 5.0,
                level: 200.0,
                transition: 0.0,
            }],
            15.0,
        )
        .unwrap();
        assert_eq!(script.sample(4.999), 50.0);
        assert_eq!(script.sample(5.0), 200.0);
    }

    #[test]
    fn square_wave_alternates() {
        let s = MeteringScript::square_wave(0.0, 255.0, 0.2, 15.0).unwrap();
        // Period 5 s: low on [0, 2.5), high on [2.6, 5.0), ...
        assert_eq!(s.sample(1.0), 0.0);
        assert_eq!(s.sample(4.0), 255.0);
        assert_eq!(s.sample(6.0), 0.0);
        assert_eq!(s.change_times().len(), 5);
    }

    #[test]
    fn random_scripts_are_deterministic_per_seed() {
        let a = MeteringScript::random_with_seed(11, 15.0).unwrap();
        let b = MeteringScript::random_with_seed(11, 15.0).unwrap();
        let c = MeteringScript::random_with_seed(12, 15.0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_script_has_plausible_changes() {
        for seed in 0..20 {
            let s = MeteringScript::random_with_seed(seed, 15.0).unwrap();
            let n = s.change_times().len();
            assert!((1..=4).contains(&n), "seed {seed}: {n} changes");
            // Levels alternate between ranges.
            for w in s.steps().windows(2) {
                assert!((w[0].level - w[1].level).abs() > 60.0);
            }
        }
    }

    #[test]
    fn random_rejects_overlapping_ranges() {
        let mut rng = seeded_rng(0);
        let params = ScriptParams {
            low: (40.0, 160.0),
            high: (150.0, 200.0),
            ..ScriptParams::default()
        };
        assert!(MeteringScript::random(&mut rng, 15.0, &params).is_err());
    }

    #[test]
    fn sample_signal_has_expected_length() {
        let s = MeteringScript::random_with_seed(3, 15.0).unwrap();
        let sig = s.sample_signal(10.0).unwrap();
        assert_eq!(sig.len(), 150);
        assert_eq!(sig.sample_rate(), 10.0);
        assert!(sig.samples().iter().all(|&v| (0.0..=255.0).contains(&v)));
    }

    #[test]
    fn scene_noise_perturbs_but_preserves_mean() {
        let s = MeteringScript::constant(100.0, 15.0)
            .unwrap()
            .sample_signal(10.0)
            .unwrap();
        let mut rng = seeded_rng(5);
        let noisy = add_scene_noise(&s, 3.0, &mut rng);
        assert_ne!(noisy.samples(), s.samples());
        assert!((noisy.mean() - 100.0).abs() < 1.5);
        assert!(noisy.samples().iter().all(|&v| (0.0..=255.0).contains(&v)));
    }
}
