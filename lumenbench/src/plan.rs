//! What a run does: the workload shapes, the per-session clip schedule,
//! and the inputs generated before anything is timed (enrolment traces,
//! the seeded clip pool and a direct-detection reference for every clip).

use crate::Result;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_chat::trace::TracePair;
use lumen_core::detector::Detector;
use lumen_core::Config;
use lumen_dsp::Signal;

/// Samples per clip: 15 s at the detector's 10 Hz.
pub const CLIP_SAMPLES: u64 = 150;
/// Clip length handed to every session's streaming detector, seconds.
pub const CLIP_SECONDS: f64 = 15.0;
/// Voting window of every session's streaming detector.
pub const VOTE_WINDOW: usize = 3;
/// Warm-up turns before the window: two clip periods, so every session
/// has completed a clip and every turn completes the same number.
pub const WARMUP_TURNS: u64 = 2 * CLIP_SAMPLES;
/// Turns allowed for admission and, after the window, for late verdicts.
pub const GRACE_TURNS: u64 = 50;
/// Every `REENACTMENT_EVERY`-th session is a reenactment attack, the
/// rest are legitimate: a fixed 3 : 1 mix.
const REENACTMENT_EVERY: usize = 4;
/// Enrolment draws, as the `daemon` experiment makes them.
const TRAIN_COUNT: u64 = 10;
const TRAIN_SEED_BASE: u64 = 91_000;

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop through an in-process daemon over two loopback
    /// connections.
    DaemonSteady,
    /// Open loop through a daemon with a flight recorder and periodic
    /// checkpoints.
    DaemonDurable,
    /// Closed loop straight into a two-shard fleet, no wire.
    FleetDirect,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DaemonSteady,
        Workload::DaemonDurable,
        Workload::FleetDirect,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DaemonSteady => "daemon_steady",
            Workload::DaemonDurable => "daemon_durable",
            Workload::FleetDirect => "fleet_direct",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed-work shape of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Which traffic mix.
    pub workload: Workload,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Loopback connections (daemon) or shards (fleet).
    pub lanes: usize,
    /// Measured turns after the warm-up.
    pub window_turns: u64,
    /// Open-loop turn period; `None` runs turns back to back.
    pub period_ns: Option<u64>,
    /// Daemon checkpoint cadence in turns; 0 disables the store.
    pub checkpoint_every: u64,
    /// Whether sessions carry a flight recorder.
    pub flight: bool,
    /// Timed set-ups per run, half before the window and half after it;
    /// `setup_s` is their median.
    pub setups: usize,
    /// Distinct legitimate clips in the pool.
    pub legit_pool: usize,
    /// Distinct reenactment clips in the pool.
    pub reenactment_pool: usize,
}

impl Spec {
    /// The standard shape of `workload` for a run of about `seconds`.
    ///
    /// Closed-loop windows are fixed work: a turn count per second sized
    /// so today's code takes about `seconds` on a two-core host, so every
    /// run of one seed judges exactly the same clips. The open loop's
    /// length is its schedule, `seconds` exactly unless it falls behind.
    pub fn standard(workload: Workload, seconds: u64) -> Spec {
        let seconds = seconds.max(1);
        let (sessions, turns_per_s, period_ns, checkpoint_every, flight) = match workload {
            Workload::DaemonSteady => (1_200, 330, None, 0, false),
            Workload::DaemonDurable => (600, 50, Some(20_000_000), 25, true),
            Workload::FleetDirect => (1_200, 470, None, 0, false),
        };
        Spec {
            workload,
            sessions,
            lanes: 2,
            window_turns: seconds * turns_per_s,
            period_ns,
            checkpoint_every,
            flight,
            setups: 150,
            legit_pool: 9_001,
            reenactment_pool: 3_001,
        }
    }

    /// The run's session schedule.
    pub fn plan(&self) -> Plan {
        Plan {
            sessions: self.sessions,
            legit_pool: self.legit_pool,
            reenactment_pool: self.reenactment_pool,
        }
    }

    /// The shape of each pass of a traced run: half the window, kept a
    /// whole number of checkpoint periods and at least one clip period.
    pub fn traced_pass(&self) -> Spec {
        let period = self.checkpoint_every.max(1);
        let half = (self.window_turns / 2 / period * period).max(CLIP_SAMPLES);
        Spec {
            window_turns: half,
            ..self.clone()
        }
    }

    /// All turns the traffic runs: warm-up plus window.
    pub fn total_turns(&self) -> u64 {
        WARMUP_TURNS + self.window_turns
    }

    /// Whether `turn` lies in the measured window.
    pub fn in_window(&self, turn: u64) -> bool {
        (WARMUP_TURNS..self.total_turns()).contains(&turn)
    }
}

/// Ground truth of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The enrolled user on camera.
    Legitimate,
    /// A reenactment attacker impersonating the enrolled user.
    Reenactment,
}

/// The per-session schedule: kind, clip phase and which pool clip each
/// of its clips replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    sessions: usize,
    legit_pool: usize,
    reenactment_pool: usize,
}

impl Plan {
    /// Concurrent sessions.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Ground truth of session `s`.
    pub fn kind(&self, s: usize) -> Kind {
        if s % REENACTMENT_EVERY == REENACTMENT_EVERY - 1 {
            Kind::Reenactment
        } else {
            Kind::Legitimate
        }
    }

    /// The turn session `s` sends its first sample. Phases spread evenly
    /// over one clip period, so clip boundaries are staggered and every
    /// steady-state turn completes `sessions / 150` clips.
    pub fn phase(&self, s: usize) -> u64 {
        (s as u64 * CLIP_SAMPLES) / self.sessions.max(1) as u64
    }

    /// The turn whose sample completes clip `clip` of session `s`.
    pub fn completion_turn(&self, s: usize, clip: u64) -> u64 {
        self.phase(s) + (clip + 1) * CLIP_SAMPLES - 1
    }

    /// Clips of session `s` completed by the end of turn `turn`.
    pub fn clips_done(&self, s: usize, turn: u64) -> u64 {
        match (turn + 1).checked_sub(self.phase(s)) {
            Some(sent) => sent / CLIP_SAMPLES,
            None => 0,
        }
    }

    /// Clips (all sessions) completing in turns `[from, to)`.
    pub fn clips_between(&self, from: u64, to: u64) -> u64 {
        (0..self.sessions)
            .map(|s| {
                self.clips_done(s, to.saturating_sub(1))
                    - from.checked_sub(1).map_or(0, |f| self.clips_done(s, f))
            })
            .sum()
    }

    fn kind_count(&self, kind: Kind) -> usize {
        let reenactment = self.sessions / REENACTMENT_EVERY;
        match kind {
            Kind::Legitimate => self.sessions - reenactment,
            Kind::Reenactment => reenactment,
        }
    }

    fn pool_len(&self, kind: Kind) -> usize {
        match kind {
            Kind::Legitimate => self.legit_pool,
            Kind::Reenactment => self.reenactment_pool,
        }
    }

    /// Index into [`Inputs::pool`] of the clip session `s` streams as
    /// its clip number `clip`. Sessions of one kind walk their pool in
    /// interleaved order, so consecutive clips of a session are
    /// `sessions-of-that-kind` entries apart.
    pub fn pool_index(&self, s: usize, clip: u64) -> usize {
        let kind = self.kind(s);
        let rank = match kind {
            Kind::Legitimate => s - s / REENACTMENT_EVERY,
            Kind::Reenactment => s / REENACTMENT_EVERY,
        } as u64;
        let len = self.pool_len(kind) as u64;
        let sequence = rank + clip * self.kind_count(kind) as u64;
        let local = (sequence % len) as usize;
        match kind {
            Kind::Legitimate => local,
            Kind::Reenactment => self.legit_pool + local,
        }
    }

    /// Whether no session replays a pool clip twice within `turns`
    /// turns: the pool walk of each kind must not wrap onto itself.
    pub fn clips_are_fresh(&self, turns: u64) -> bool {
        let per_session = turns / CLIP_SAMPLES + 1;
        [Kind::Legitimate, Kind::Reenactment]
            .into_iter()
            .all(|kind| {
                let len = self.pool_len(kind) as u64;
                let stride = self.kind_count(kind) as u64 % len.max(1);
                self.kind_count(kind) == 0 || len / gcd(len, stride) >= per_session
            })
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A direct detection of one pool clip: what every verdict for that clip
/// must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Whether the detector accepts the clip as legitimate.
    pub accepted: bool,
    /// The LOF score.
    pub score: f64,
}

/// Everything generated before the first timed call.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Enrolment traces (fixed, as the `daemon` experiment draws them).
    pub training: Vec<TracePair>,
    /// Seeded clips: legitimate first, then reenactment.
    pub pool: Vec<TracePair>,
    /// `Detector::detect` of each pool clip, index for index.
    pub references: Vec<Reference>,
}

impl Inputs {
    /// The sample session `s` sends in turn `turn`, if it has started.
    pub fn sample(&self, plan: &Plan, s: usize, turn: u64) -> Option<(f64, f64)> {
        let sent = turn.checked_sub(plan.phase(s))?;
        let pair = &self.pool[plan.pool_index(s, sent / CLIP_SAMPLES)];
        let n = (sent % CLIP_SAMPLES) as usize;
        Some((*pair.tx.samples().get(n)?, *pair.rx.samples().get(n)?))
    }

    /// The pool clip session `s` streams as clip `clip`.
    pub fn clip(&self, plan: &Plan, s: usize, clip: u64) -> &TracePair {
        &self.pool[plan.pool_index(s, clip)]
    }

    /// The reference verdict of clip `clip` of session `s`.
    pub fn reference(&self, plan: &Plan, s: usize, clip: u64) -> Reference {
        self.references[plan.pool_index(s, clip)]
    }
}

/// The detector every session runs, trained as the `daemon` experiment
/// trains it. Enrolment is part of set-up.
///
/// # Errors
///
/// Propagates training failures.
pub fn enrol(training: &[TracePair]) -> Result<Detector> {
    Ok(Detector::train_from_traces(training, Config::default())?)
}

/// Generates the enrolment traces, the seeded clip pool and the
/// references. Nothing here is timed.
///
/// # Errors
///
/// Fails when the scenario generator or detection fails, when a clip has
/// the wrong length, or when the pool is too small for every session to
/// see fresh clips throughout the run.
pub fn prepare(spec: &Spec, seed: u64) -> Result<Inputs> {
    let plan = spec.plan();
    if !plan.clips_are_fresh(spec.total_turns() + CLIP_SAMPLES) {
        return Err("clip pool too small: a session would replay a clip".into());
    }
    let scenario = ScenarioBuilder::default();
    let training = (0..TRAIN_COUNT)
        .map(|i| scenario.legitimate(0, TRAIN_SEED_BASE + i))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    // Pool draws are disjoint from the enrolment draws and from other
    // seeds' draws.
    let base = 1_000_000_u64.wrapping_add(seed.wrapping_mul(1 << 24));
    let mut pool = Vec::with_capacity(spec.legit_pool + spec.reenactment_pool);
    for i in 0..spec.legit_pool as u64 {
        pool.push(scenario.legitimate(0, base.wrapping_add(i))?);
    }
    for i in 0..spec.reenactment_pool as u64 {
        pool.push(scenario.reenactment(0, base.wrapping_add(1 << 23).wrapping_add(i))?);
    }
    let detector = enrol(&training)?;
    let references = pool
        .iter()
        .map(|pair| reference(&detector, pair))
        .collect::<Result<Vec<_>>>()?;
    Ok(Inputs {
        training,
        pool,
        references,
    })
}

/// `Detector::detect` of a clip exactly as a streaming session buffers
/// it: samples clamped to the 8-bit luminance range.
fn reference(detector: &Detector, pair: &TracePair) -> Result<Reference> {
    if pair.tx.len() as u64 != CLIP_SAMPLES || pair.rx.len() as u64 != CLIP_SAMPLES {
        return Err(format!(
            "pool clip has {} samples, not {CLIP_SAMPLES}",
            pair.tx.len()
        )
        .into());
    }
    let clamp = |s: &Signal| -> Result<Signal> {
        let samples = s.samples().iter().map(|v| v.clamp(0.0, 255.0)).collect();
        Ok(Signal::new(samples, s.sample_rate())?)
    };
    let buffered = TracePair {
        tx: clamp(&pair.tx)?,
        rx: clamp(&pair.rx)?,
        ..pair.clone()
    };
    let detection = detector.detect(&buffered)?;
    Ok(Reference {
        accepted: detection.accepted,
        score: detection.score,
    })
}
