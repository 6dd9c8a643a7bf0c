//! Fault injection: the transport impairments a live video chat actually
//! suffers, beyond i.i.d. drops with Gaussian jitter.
//!
//! Real links lose packets in *bursts* (Wi-Fi interference, congested
//! queues), stall entirely for hundreds of milliseconds (freezes), decode
//! garbage after reference-frame loss (black/corrupt frames), duplicate
//! retransmitted packets, drift their clocks, and change quality mid-call
//! when a route flaps. A [`FaultPlan`] describes such an impairment
//! profile; [`FaultInjector`] applies it deterministically (seeded ChaCha)
//! on top of the base [`crate::channel::ChannelConfig`] behaviour, so every
//! resilience experiment is exactly reproducible.
//!
//! The burst model is the classic two-state Gilbert–Elliott chain: the
//! channel is either *good* or *bad*; each packet may flip the state, and
//! the per-packet loss probability depends on the state. Mean burst length
//! is `1 / p_exit` packets.

use crate::packet::FramePacket;
use crate::{ChatError, Result};
use lumen_video::noise::substream;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn ensure_prob(name: &'static str, p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) {
        return Err(ChatError::invalid_parameter(name, "must lie in [0, 1]"));
    }
    Ok(())
}

/// Two-state Gilbert–Elliott bursty-loss model.
///
/// All four fields are per-packet probabilities. [`BurstLoss::disabled`]
/// (all zero) reproduces the base channel exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// P(good → bad) evaluated once per packet.
    pub p_enter: f64,
    /// P(bad → good) evaluated once per packet; mean burst length is
    /// `1 / p_exit` packets.
    pub p_exit: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// No burst losses at all — the neutral element.
    pub fn disabled() -> Self {
        BurstLoss {
            p_enter: 0.0,
            p_exit: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// A convenience profile: bursts start with probability `p_enter` per
    /// packet, last `mean_burst_packets` on average, and lose `loss_bad` of
    /// the packets inside a burst.
    pub fn bursty(p_enter: f64, mean_burst_packets: f64, loss_bad: f64) -> Self {
        BurstLoss {
            p_enter,
            p_exit: if mean_burst_packets > 1.0 {
                1.0 / mean_burst_packets
            } else {
                1.0
            },
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// `true` when this model can ever lose a packet.
    pub fn is_active(&self) -> bool {
        self.loss_good > 0.0 || (self.p_enter > 0.0 && self.loss_bad > 0.0)
    }

    /// Validates all probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ChatError::InvalidParameter`] for a probability outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        ensure_prob("p_enter", self.p_enter)?;
        ensure_prob("p_exit", self.p_exit)?;
        ensure_prob("loss_good", self.loss_good)?;
        ensure_prob("loss_bad", self.loss_bad)
    }
}

impl Default for BurstLoss {
    fn default() -> Self {
        BurstLoss::disabled()
    }
}

/// A complete impairment profile for one channel direction.
///
/// The default plan injects nothing; every field composes independently
/// with the base [`crate::channel::ChannelConfig`] (i.i.d. drops, Gaussian
/// jitter), and all randomness derives from the channel seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Bursty losses (Gilbert–Elliott).
    pub burst: BurstLoss,
    /// Per-packet probability that a freeze episode starts: the link stalls
    /// and every packet sent during the episode is lost (the receiver holds
    /// its last frame).
    pub freeze_prob: f64,
    /// Duration of each freeze episode, seconds.
    pub freeze_duration: f64,
    /// Per-packet probability the frame decodes black (luma 0) — a lost
    /// reference frame.
    pub black_frame_prob: f64,
    /// Per-packet probability the frame decodes to garbage (uniform random
    /// luma) — slice corruption.
    pub corrupt_prob: f64,
    /// Per-packet probability the packet is duplicated in flight (spurious
    /// retransmission); the copy takes an independently jittered path.
    pub duplicate_prob: f64,
    /// Relative clock-rate error between the tx and rx timelines: each
    /// packet's delivery slips by `skew × send-time` seconds, so a 0.01
    /// skew delays the frame sent at t = 10 s by an extra 100 ms. Negative
    /// values model a fast receiver clock (ordered delivery still holds).
    pub skew: f64,
    /// Session time at which the burst model switches to [`shift_burst`] —
    /// a mid-call route change. `f64::INFINITY` (the default) disables the
    /// shift.
    ///
    /// [`shift_burst`]: FaultPlan::shift_burst
    pub shift_at: f64,
    /// The burst model in force from [`shift_at`](FaultPlan::shift_at) on.
    pub shift_burst: BurstLoss,
}

impl FaultPlan {
    /// The no-fault plan (the default).
    pub fn none() -> Self {
        FaultPlan {
            burst: BurstLoss::disabled(),
            freeze_prob: 0.0,
            freeze_duration: 0.0,
            black_frame_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            skew: 0.0,
            shift_at: f64::INFINITY,
            shift_burst: BurstLoss::disabled(),
        }
    }

    /// `true` when any impairment is configured.
    pub fn is_active(&self) -> bool {
        self.burst.is_active()
            || self.shift_burst.is_active()
            || self.freeze_prob > 0.0
            || self.black_frame_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.duplicate_prob > 0.0
            // lint:allow(float-eq): exact zero is the "no skew" default
            || self.skew != 0.0
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ChatError::InvalidParameter`] for probabilities outside
    /// `[0, 1]`, a negative freeze duration, a skew at or beyond ±1 (the
    /// receiver clock would stop or run backwards), or a negative shift
    /// time.
    pub fn validate(&self) -> Result<()> {
        self.burst.validate()?;
        self.shift_burst.validate()?;
        ensure_prob("freeze_prob", self.freeze_prob)?;
        ensure_prob("black_frame_prob", self.black_frame_prob)?;
        ensure_prob("corrupt_prob", self.corrupt_prob)?;
        ensure_prob("duplicate_prob", self.duplicate_prob)?;
        if !(self.freeze_duration.is_finite() && self.freeze_duration >= 0.0) {
            return Err(ChatError::invalid_parameter(
                "freeze_duration",
                "must be finite and non-negative",
            ));
        }
        if !(self.skew.is_finite() && self.skew.abs() < 1.0) {
            return Err(ChatError::invalid_parameter(
                "skew",
                "must be finite with |skew| < 1",
            ));
        }
        if self.shift_at.is_nan() || self.shift_at < 0.0 {
            return Err(ChatError::invalid_parameter(
                "shift_at",
                "must be non-negative (INFINITY disables the shift)",
            ));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Why the injector discarded a packet — drives the observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Random loss in the Gilbert–Elliott good state.
    Random,
    /// Loss inside a bad-state burst.
    Burst,
    /// Loss during a freeze episode.
    Freeze,
}

/// The injector's decision for one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultVerdict {
    /// Deliver the (possibly rewritten) packet.
    Deliver {
        /// The packet to enqueue — luma may have been blacked or corrupted.
        packet: FramePacket,
        /// Enqueue a second, independently jittered copy as well.
        duplicate: bool,
        /// Extra delivery delay from clock skew, seconds (may be negative).
        extra_delay: f64,
    },
    /// The packet is lost.
    Lost(LossCause),
}

/// Stateful, deterministic application of a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    in_bad: bool,
    freeze_until: f64,
}

impl FaultInjector {
    /// Creates an injector; all randomness derives from `seed` on a
    /// dedicated substream, so the base channel's draws are unaffected by
    /// whether faults are configured.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] failures.
    pub fn new(plan: FaultPlan, seed: u64) -> Result<Self> {
        plan.validate()?;
        Ok(FaultInjector {
            plan,
            rng: substream(seed, 31),
            in_bad: false,
            freeze_until: f64::NEG_INFINITY,
        })
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Judges one packet at send time `now`.
    pub fn judge(&mut self, mut packet: FramePacket, now: f64) -> FaultVerdict {
        // Freeze episodes stall the link outright.
        if now < self.freeze_until {
            return FaultVerdict::Lost(LossCause::Freeze);
        }
        if self.plan.freeze_prob > 0.0 && self.rng.gen::<f64>() < self.plan.freeze_prob {
            self.freeze_until = now + self.plan.freeze_duration;
            if self.plan.freeze_duration > 0.0 {
                return FaultVerdict::Lost(LossCause::Freeze);
            }
        }
        // Gilbert–Elliott chain, with a mid-session model switch.
        let burst = if now >= self.plan.shift_at {
            self.plan.shift_burst
        } else {
            self.plan.burst
        };
        if self.in_bad {
            if self.rng.gen::<f64>() < burst.p_exit {
                self.in_bad = false;
            }
        } else if self.rng.gen::<f64>() < burst.p_enter {
            self.in_bad = true;
        }
        let loss = if self.in_bad {
            burst.loss_bad
        } else {
            burst.loss_good
        };
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            return FaultVerdict::Lost(if self.in_bad {
                LossCause::Burst
            } else {
                LossCause::Random
            });
        }
        // Payload impairments on the surviving packet.
        if self.plan.black_frame_prob > 0.0 && self.rng.gen::<f64>() < self.plan.black_frame_prob {
            packet.luma = 0.0;
        } else if self.plan.corrupt_prob > 0.0 && self.rng.gen::<f64>() < self.plan.corrupt_prob {
            packet.luma = 255.0 * self.rng.gen::<f64>();
        }
        let duplicate =
            self.plan.duplicate_prob > 0.0 && self.rng.gen::<f64>() < self.plan.duplicate_prob;
        FaultVerdict::Deliver {
            packet,
            duplicate,
            extra_delay: self.plan.skew * now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packets(injector: &mut FaultInjector, n: usize, dt: f64) -> Vec<FaultVerdict> {
        (0..n)
            .map(|i| {
                let now = i as f64 * dt;
                injector.judge(FramePacket::new(i as u64, now, 100.0), now)
            })
            .collect()
    }

    #[test]
    fn none_plan_is_transparent() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1).unwrap();
        for v in packets(&mut inj, 200, 0.1) {
            match v {
                FaultVerdict::Deliver {
                    packet,
                    duplicate,
                    extra_delay,
                } => {
                    assert_eq!(packet.luma, 100.0);
                    assert!(!duplicate);
                    assert_eq!(extra_delay, 0.0);
                }
                FaultVerdict::Lost(_) => panic!("no-fault plan lost a packet"),
            }
        }
    }

    #[test]
    fn burst_losses_cluster() {
        let plan = FaultPlan {
            burst: BurstLoss {
                p_enter: 0.05,
                p_exit: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 7).unwrap();
        let verdicts = packets(&mut inj, 4000, 0.1);
        let lost: Vec<bool> = verdicts
            .iter()
            .map(|v| matches!(v, FaultVerdict::Lost(LossCause::Burst)))
            .collect();
        let losses = lost.iter().filter(|&&l| l).count();
        // Stationary loss = p_bad = 0.05 / 0.25 = 0.2.
        let rate = losses as f64 / lost.len() as f64;
        assert!((rate - 0.2).abs() < 0.06, "burst loss rate {rate}");
        // Burstiness: the chance a loss follows a loss far exceeds the
        // marginal rate (for i.i.d. loss they would be equal).
        let pairs = lost.windows(2).filter(|w| w[0]).count();
        let repeats = lost.windows(2).filter(|w| w[0] && w[1]).count();
        let conditional = repeats as f64 / pairs.max(1) as f64;
        assert!(
            conditional > 1.8 * rate,
            "losses not bursty: P(loss|loss) = {conditional}, marginal = {rate}"
        );
    }

    #[test]
    fn freeze_stalls_for_duration() {
        let plan = FaultPlan {
            freeze_prob: 1.0,
            freeze_duration: 0.5,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 3).unwrap();
        // The very first packet triggers a freeze; everything within the
        // next 0.5 s is lost to it.
        for i in 0..5 {
            let now = i as f64 * 0.1;
            let v = inj.judge(FramePacket::new(i, now, 50.0), now);
            assert_eq!(v, FaultVerdict::Lost(LossCause::Freeze), "tick {i}");
        }
        assert!(0.4 < inj.freeze_until && inj.freeze_until <= 0.6);
    }

    #[test]
    fn skew_grows_with_time() {
        let plan = FaultPlan {
            skew: 0.02,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 5).unwrap();
        let at = |inj: &mut FaultInjector, now: f64| match inj
            .judge(FramePacket::new(0, now, 1.0), now)
        {
            FaultVerdict::Deliver { extra_delay, .. } => extra_delay,
            FaultVerdict::Lost(_) => panic!("skew-only plan lost a packet"),
        };
        assert_eq!(at(&mut inj, 0.0), 0.0);
        assert!((at(&mut inj, 10.0) - 0.2).abs() < 1e-12);
        assert!(at(&mut inj, 20.0) > at(&mut inj, 10.0));
    }

    #[test]
    fn black_frames_zero_luma() {
        let plan = FaultPlan {
            black_frame_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 9).unwrap();
        match inj.judge(FramePacket::new(0, 0.0, 200.0), 0.0) {
            FaultVerdict::Deliver { packet, .. } => assert_eq!(packet.luma, 0.0),
            FaultVerdict::Lost(_) => panic!("lost"),
        }
    }

    #[test]
    fn quality_shift_switches_models() {
        let plan = FaultPlan {
            burst: BurstLoss::disabled(),
            shift_at: 5.0,
            shift_burst: BurstLoss {
                p_enter: 1.0,
                p_exit: 0.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 11).unwrap();
        let verdicts = packets(&mut inj, 100, 0.1);
        let early_lost = verdicts[..50]
            .iter()
            .filter(|v| matches!(v, FaultVerdict::Lost(_)))
            .count();
        let late_lost = verdicts[51..]
            .iter()
            .filter(|v| matches!(v, FaultVerdict::Lost(_)))
            .count();
        assert_eq!(early_lost, 0);
        assert_eq!(late_lost, 49, "shifted model should lose everything");
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan {
            burst: BurstLoss::bursty(0.1, 4.0, 0.9),
            corrupt_prob: 0.1,
            duplicate_prob: 0.1,
            ..FaultPlan::none()
        };
        let run = || {
            let mut inj = FaultInjector::new(plan, 21).unwrap();
            packets(&mut inj, 300, 0.1)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plan_validates() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan {
            freeze_prob: 1.5,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            freeze_duration: -1.0,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            skew: 1.0,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            shift_at: -2.0,
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            burst: BurstLoss {
                p_enter: -0.1,
                ..BurstLoss::disabled()
            },
            ..FaultPlan::none()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn is_active_detects_any_fault() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan {
            skew: 0.01,
            ..FaultPlan::none()
        }
        .is_active());
        assert!(FaultPlan {
            burst: BurstLoss::bursty(0.1, 5.0, 1.0),
            ..FaultPlan::none()
        }
        .is_active());
    }
}
