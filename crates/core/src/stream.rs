//! Online (streaming) detection.
//!
//! The batch [`crate::detector::Detector`] consumes complete 15-second
//! clips. A deployed video-chat client instead sees one luminance sample
//! pair per tick; [`StreamingDetector`] buffers those pairs, runs a
//! detection every time a full clip accumulates, and fuses the last `D`
//! verdicts with the paper's majority-voting rule — "our detection methods
//! can be triggered multiple times during the real-time video chat"
//! (Sec. III-B).

use crate::detector::{ClipOutcome, Detection, Detector};
use crate::quality::{GateDecision, InconclusiveReason, QualityGate};
use crate::voting::combine_votes;
use crate::{CoreError, Result};
use lumen_chat::trace::{ScenarioKind, TracePair};
use lumen_dsp::Signal;
use lumen_obs::{stage, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The streaming detector's standing assessment of the remote party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionStatus {
    /// Not enough clips observed yet.
    Gathering,
    /// Majority voting currently accepts the remote party.
    Trusted,
    /// Majority voting currently flags the remote party as an attacker.
    Alert,
}

/// One clip's verdict, from [`StreamingDetector::push`] or
/// [`StreamingDetector::push_clip`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClipVerdict {
    /// Index of the completed clip (0-based).
    pub clip_index: usize,
    /// The single-clip outcome: a detection, or an abstention when the
    /// quality gate withheld the clip.
    pub outcome: ClipOutcome,
    /// The fused session status after this clip.
    pub status: SessionStatus,
    /// `true` when the inconclusive-clip watchdog asks the caller to
    /// re-trigger a detection round (e.g. prompt fresh luminance activity)
    /// rather than keep waiting out a degraded stretch.
    pub retrigger: bool,
}

impl ClipVerdict {
    /// The underlying detection, when the clip was conclusive.
    pub fn detection(&self) -> Option<&Detection> {
        self.outcome.detection()
    }
}

/// Escalating re-trigger schedule for runs of inconclusive clips: fire
/// after [`WATCHDOG_BASE`] consecutive abstentions, then back off
/// exponentially (doubling the threshold each fire) up to [`WATCHDOG_CAP`]
/// so a long outage does not spam re-challenges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Watchdog {
    consecutive: usize,
    threshold: usize,
}

/// First watchdog re-trigger fires after this many consecutive
/// inconclusive clips; each subsequent fire doubles the threshold.
pub const WATCHDOG_BASE: usize = 2;

/// The watchdog's backoff ceiling: the re-trigger threshold doubles per
/// fire ([`WATCHDOG_BASE`], 4, 8, …) but never exceeds this many
/// consecutive inconclusive clips. Shared by the backoff logic, its doc
/// comments and the `watchdog_retriggers_with_backoff` test so the three
/// can never drift apart.
pub const WATCHDOG_CAP: usize = 16;

impl Watchdog {
    fn new() -> Self {
        Watchdog {
            consecutive: 0,
            threshold: WATCHDOG_BASE,
        }
    }

    /// Records one inconclusive clip; `true` when a re-trigger fires.
    fn inconclusive(&mut self) -> bool {
        self.consecutive += 1;
        if self.consecutive >= self.threshold {
            self.consecutive = 0;
            self.threshold = (self.threshold * 2).min(WATCHDOG_CAP);
            true
        } else {
            false
        }
    }

    fn conclusive(&mut self) {
        *self = Watchdog::new();
    }
}

/// Buffers per-tick luminance samples and triggers clip detections.
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    detector: Detector,
    clip_samples: usize,
    window: usize,
    tx_buffer: Vec<f64>,
    rx_buffer: Vec<f64>,
    history: VecDeque<bool>,
    clips_done: usize,
    last_status: SessionStatus,
    gate: Option<QualityGate>,
    watchdog: Watchdog,
}

impl StreamingDetector {
    /// Wraps a trained detector.
    ///
    /// * `clip_seconds` — clip length (the paper: 15 s);
    /// * `window` — number of recent clips fused by voting (the paper's D).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive clip length
    /// or a zero window.
    pub fn new(detector: Detector, clip_seconds: f64, window: usize) -> Result<Self> {
        if !(clip_seconds.is_finite() && clip_seconds > 0.0) {
            return Err(CoreError::invalid_config(
                "clip_seconds",
                "must be finite and positive",
            ));
        }
        if window == 0 {
            return Err(CoreError::invalid_config("window", "must be non-zero"));
        }
        let clip_samples = (clip_seconds * detector.config().sample_rate).round() as usize;
        if clip_samples < 2 {
            return Err(CoreError::invalid_config(
                "clip_seconds",
                "clip must span at least 2 samples",
            ));
        }
        Ok(StreamingDetector {
            detector,
            clip_samples,
            window,
            tx_buffer: Vec::new(),
            rx_buffer: Vec::new(),
            history: VecDeque::with_capacity(window),
            clips_done: 0,
            last_status: SessionStatus::Gathering,
            gate: None,
            watchdog: Watchdog::new(),
        })
    }

    /// Enables quality gating: clips are screened before voting, degraded
    /// clips abstain ([`ClipOutcome::Inconclusive`]) instead of casting a
    /// misleading vote, and [`StreamingDetector::push`] accepts non-finite
    /// samples (the gate handles them) rather than erroring.
    pub fn with_quality_gate(mut self, gate: QualityGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Attaches an observability recorder to the underlying detector:
    /// every stage span, counter and status mark this session emits flows
    /// through it. The default is the disabled null recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Replaces the attached recorder in place — used by serving layers
    /// that propagate one fleet-wide recorder into admitted sessions.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.detector.set_recorder(recorder);
    }

    /// Number of samples per clip.
    pub fn clip_samples(&self) -> usize {
        self.clip_samples
    }

    /// Completed clips so far.
    pub fn clips_done(&self) -> usize {
        self.clips_done
    }

    /// Samples of the partial clip buffered so far.
    pub fn partial_samples(&self) -> usize {
        self.tx_buffer.len()
    }

    /// The current fused status: the paper's [`combine_votes`] rule over
    /// the vote ring. Abstentions never enter the ring, so a degraded
    /// stretch neither dilutes the rejection fraction nor forces a
    /// verdict; until the first conclusive vote the status stays
    /// [`SessionStatus::Gathering`].
    pub fn status(&self) -> SessionStatus {
        let votes: Vec<bool> = self.history.iter().copied().collect();
        match combine_votes(&votes, self.detector.config().vote_coefficient) {
            Ok(true) => SessionStatus::Trusted,
            Ok(false) => SessionStatus::Alert,
            Err(_) => SessionStatus::Gathering,
        }
    }

    /// Feeds one tick: the transmitted-video luminance and the received
    /// ROI luminance for the same instant. Returns a verdict when this tick
    /// completes a clip, which [`StreamingDetector::push_clip`] judges.
    ///
    /// # Errors
    ///
    /// Without a quality gate, returns [`CoreError::InvalidConfig`] for
    /// non-finite samples; with one, non-finite samples are buffered for
    /// the gate to judge. Detection errors propagate either way.
    pub fn push(&mut self, tx_luma: f64, rx_luma: f64) -> Result<Option<ClipVerdict>> {
        if self.gate.is_none() && (!tx_luma.is_finite() || !rx_luma.is_finite()) {
            return Err(CoreError::invalid_config(
                "sample",
                "luminance samples must be finite",
            ));
        }
        let Some((tx, rx)) = self.fill(tx_luma, rx_luma) else {
            return Ok(None);
        };
        self.push_clip(tx, rx).map(Some)
    }

    /// Appends one sample pair to the partial clip as given, with no check
    /// and no clamp, and hands the clip back, leaving the buffer empty,
    /// once it holds [`StreamingDetector::clip_samples`] pairs. A serving
    /// layer that queues whole clips for [`StreamingDetector::push_clip`]
    /// buffers them here, so the partial clip is part of the stream's
    /// [`StreamingDetector::snapshot`].
    pub fn fill(&mut self, tx_luma: f64, rx_luma: f64) -> Option<(Vec<f64>, Vec<f64>)> {
        self.tx_buffer.push(tx_luma);
        self.rx_buffer.push(rx_luma);
        if self.tx_buffer.len() < self.clip_samples {
            return None;
        }
        Some((
            std::mem::take(&mut self.tx_buffer),
            std::mem::take(&mut self.rx_buffer),
        ))
    }

    /// Judges one complete clip and fuses its verdict. The clip's vote,
    /// the watchdog and the clip count change only when the clip is
    /// judged; on `Err` the stream is as it was. The partial clip that
    /// [`StreamingDetector::fill`] buffers is not touched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `tx` or `rx` is not
    /// [`StreamingDetector::clip_samples`] long and, without a quality
    /// gate, for non-finite samples. Detection errors propagate.
    pub fn push_clip(&mut self, mut tx: Vec<f64>, mut rx: Vec<f64>) -> Result<ClipVerdict> {
        if tx.len() != self.clip_samples || rx.len() != self.clip_samples {
            // lint:allow(span-early-exit): the vote-fusion span measures
            // only fused-status computation; a rejected clip never reaches it
            return Err(CoreError::invalid_config(
                "clip",
                format!(
                    "{} tx and {} rx samples do not make a {}-sample clip",
                    tx.len(),
                    rx.len(),
                    self.clip_samples
                ),
            ));
        }
        if self.gate.is_none() && tx.iter().chain(&rx).any(|v| !v.is_finite()) {
            return Err(CoreError::invalid_config(
                "sample",
                "luminance samples must be finite",
            ));
        }
        for v in tx.iter_mut().chain(rx.iter_mut()) {
            *v = clamp(*v);
        }
        let rate = self.detector.config().sample_rate;
        let recorder = self.detector.recorder().clone();
        // Everything from judgement to verdict is attributed to this clip
        // in the event stream's trace context.
        let _clip_scope = recorder.clip_scope(self.clips_done as u64);
        let outcome = self.judge_clip(tx, rx, rate)?;
        let mut retrigger = false;
        match outcome.accepted() {
            Some(accepted) => {
                if self.history.len() == self.window {
                    self.history.pop_front();
                }
                self.history.push_back(accepted);
                self.watchdog.conclusive();
            }
            None => {
                retrigger = self.watchdog.inconclusive();
                if retrigger {
                    recorder.add("stream.watchdog_retrigger", 1);
                    recorder.mark("stream.watchdog", "re-trigger detection round");
                }
            }
        }
        let clip_index = self.clips_done;
        self.clips_done += 1;
        let status = {
            let _stage = recorder.span(stage::VOTE_FUSION);
            self.status()
        };
        recorder.add("stream.clips", 1);
        if status != self.last_status {
            recorder.mark(
                "stream.status",
                &format!("{:?}->{:?}", self.last_status, status),
            );
            self.last_status = status;
        }
        Ok(ClipVerdict {
            clip_index,
            outcome,
            status,
            retrigger,
        })
    }

    /// Judges one complete clip from its raw buffers: gate (when enabled),
    /// repair, detect.
    fn judge_clip(&self, tx_raw: Vec<f64>, rx_raw: Vec<f64>, rate: f64) -> Result<ClipOutcome> {
        let Some(gate) = &self.gate else {
            let pair = TracePair {
                tx: Signal::new(tx_raw, rate)?,
                rx: Signal::new(rx_raw, rate)?,
                kind: ScenarioKind::Legitimate { user: 0 }, // unknown at runtime
                seed: 0,
                forward_delay: 0.0,
                backward_delay: 0.0,
            };
            return Ok(ClipOutcome::Conclusive(self.detector.detect(&pair)?));
        };
        // The transmitted trace is produced locally, but a broken capture
        // path can still flatline or corrupt it — screen it quietly.
        let tx_samples = match gate.screen(&tx_raw, rate).decision {
            GateDecision::Inconclusive(reason) => {
                self.detector.recorder().add("detect.inconclusive", 1);
                return Ok(ClipOutcome::Inconclusive(reason));
            }
            GateDecision::Pass { samples, .. } => samples,
        };
        // The received trace carries the channel damage; screen it with
        // full instrumentation.
        match self.detector.screen_recorded(&rx_raw, rate, gate).decision {
            GateDecision::Inconclusive(reason) => Ok(ClipOutcome::Inconclusive(reason)),
            GateDecision::Pass { samples, .. } => {
                let pair = TracePair {
                    tx: Signal::new(tx_samples, rate)?,
                    rx: Signal::new(samples, rate)?,
                    kind: ScenarioKind::Legitimate { user: 0 }, // unknown at runtime
                    seed: 0,
                    forward_delay: 0.0,
                    backward_delay: 0.0,
                };
                Ok(ClipOutcome::Conclusive(self.detector.detect(&pair)?))
            }
        }
    }

    /// Records a vote produced *outside* the passive clip pipeline — an
    /// active probe verdict from a challenge–response round (see the
    /// `lumen-probe` crate). The vote enters the same bounded history the
    /// passive clips feed, so the fused [`SessionStatus`] weighs active
    /// evidence with the paper's 0.7·D rule rather than through a side
    /// channel, and a conclusive probe resets the inconclusive-clip
    /// watchdog exactly like a conclusive clip. The clip index does *not*
    /// advance: probes are not clips, and the verdict stream stays one
    /// entry per offered clip. Returns the fused status after the vote.
    pub fn record_probe_vote(&mut self, accepted: bool) -> SessionStatus {
        let recorder = self.detector.recorder().clone();
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(accepted);
        self.watchdog.conclusive();
        recorder.add("stream.probe_votes", 1);
        let status = {
            let _stage = recorder.span(stage::VOTE_FUSION);
            self.status()
        };
        if status != self.last_status {
            recorder.mark(
                "stream.status",
                &format!("{:?}->{:?}", self.last_status, status),
            );
            self.last_status = status;
        }
        status
    }

    /// Records a clip that an upstream layer withheld before any sample
    /// reached this detector — e.g. an overloaded serving runtime shedding
    /// the clip to protect its deadline. The shed is *counted*, never
    /// silent: it feeds the inconclusive-clip watchdog and the clip index
    /// advances exactly as if the clip had been screened out by the
    /// quality gate, so the verdict stream has one entry per offered clip.
    /// The voting history is untouched (sheds reflect the runtime, not the
    /// callee).
    pub fn record_withheld(&mut self) -> ClipVerdict {
        let recorder = self.detector.recorder().clone();
        let _clip_scope = recorder.clip_scope(self.clips_done as u64);
        let retrigger = self.watchdog.inconclusive();
        if retrigger {
            recorder.add("stream.watchdog_retrigger", 1);
            recorder.mark("stream.watchdog", "re-trigger detection round");
        }
        let clip_index = self.clips_done;
        self.clips_done += 1;
        recorder.add("stream.clips", 1);
        recorder.add("stream.withheld", 1);
        let status = self.status();
        if status != self.last_status {
            recorder.mark(
                "stream.status",
                &format!("{:?}->{:?}", self.last_status, status),
            );
            self.last_status = status;
        }
        ClipVerdict {
            clip_index,
            outcome: ClipOutcome::Inconclusive(InconclusiveReason::Withheld),
            status,
            retrigger,
        }
    }

    /// Captures the mutable session state — partial clip buffers, the vote
    /// ring, clip accounting and the watchdog schedule — as a serializable
    /// snapshot. The trained detector model is deliberately *not* included:
    /// it is immutable and deterministically reconstructible from its
    /// training set, so checkpoints stay small and
    /// [`StreamingDetector::restore`] takes a freshly trained detector.
    pub fn snapshot(&self) -> StreamSnapshot {
        StreamSnapshot {
            tx_buffer: self.tx_buffer.clone(),
            rx_buffer: self.rx_buffer.clone(),
            history: self.history.iter().copied().collect(),
            clips_done: self.clips_done,
            last_status: self.last_status,
            watchdog_consecutive: self.watchdog.consecutive,
            watchdog_threshold: self.watchdog.threshold,
        }
    }

    /// Restores the mutable session state from a snapshot taken by
    /// [`StreamingDetector::snapshot`] — including mid-clip: the partial
    /// buffers resume exactly where the checkpoint cut them, so replaying
    /// the interrupted clip's remaining samples yields a byte-identical
    /// verdict sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the snapshot is
    /// inconsistent with this detector's geometry: mismatched buffer
    /// lengths, a partial clip at least as long as a full clip, a vote
    /// ring wider than the window, or a watchdog schedule outside the
    /// [`WATCHDOG_BASE`]..=[`WATCHDOG_CAP`] range.
    pub fn restore(&mut self, snap: &StreamSnapshot) -> Result<()> {
        if snap.tx_buffer.len() != snap.rx_buffer.len() {
            return Err(CoreError::invalid_config(
                "snapshot",
                format!(
                    "tx/rx partial buffers disagree: {} vs {}",
                    snap.tx_buffer.len(),
                    snap.rx_buffer.len()
                ),
            ));
        }
        if snap.tx_buffer.len() >= self.clip_samples {
            return Err(CoreError::invalid_config(
                "snapshot",
                format!(
                    "partial clip of {} samples does not fit a {}-sample clip",
                    snap.tx_buffer.len(),
                    self.clip_samples
                ),
            ));
        }
        if snap.history.len() > self.window {
            return Err(CoreError::invalid_config(
                "snapshot",
                format!(
                    "vote ring of {} exceeds window {}",
                    snap.history.len(),
                    self.window
                ),
            ));
        }
        if !(WATCHDOG_BASE..=WATCHDOG_CAP).contains(&snap.watchdog_threshold)
            || snap.watchdog_consecutive >= snap.watchdog_threshold
        {
            return Err(CoreError::invalid_config(
                "snapshot",
                format!(
                    "watchdog state {}/{} outside the {WATCHDOG_BASE}..={WATCHDOG_CAP} schedule",
                    snap.watchdog_consecutive, snap.watchdog_threshold
                ),
            ));
        }
        self.tx_buffer = snap.tx_buffer.clone();
        self.rx_buffer = snap.rx_buffer.clone();
        self.history = snap.history.iter().copied().collect();
        self.clips_done = snap.clips_done;
        self.last_status = snap.last_status;
        self.watchdog = Watchdog {
            consecutive: snap.watchdog_consecutive,
            threshold: snap.watchdog_threshold,
        };
        Ok(())
    }
}

/// Clamps a finite sample into the 8-bit luminance range; a non-finite
/// one is left for the quality gate to judge.
fn clamp(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(0.0, 255.0)
    } else {
        v
    }
}

/// Serializable snapshot of a [`StreamingDetector`]'s mutable session
/// state (the trained model is reconstructed separately on restore — see
/// [`StreamingDetector::snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSnapshot {
    /// Samples of the in-progress (partial) clip, transmitted side.
    pub tx_buffer: Vec<f64>,
    /// Samples of the in-progress (partial) clip, received side.
    pub rx_buffer: Vec<f64>,
    /// The vote ring: recent conclusive acceptance votes, oldest first.
    pub history: Vec<bool>,
    /// Completed clips so far (the next clip index).
    pub clips_done: usize,
    /// The last fused status reported to the caller.
    pub last_status: SessionStatus,
    /// Watchdog: consecutive inconclusive clips since the last fire.
    pub watchdog_consecutive: usize,
    /// Watchdog: the current re-trigger threshold (a power-of-two step of
    /// the [`WATCHDOG_BASE`]→[`WATCHDOG_CAP`] backoff schedule).
    pub watchdog_threshold: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use lumen_chat::scenario::ScenarioBuilder;

    fn detector() -> Detector {
        let chats = ScenarioBuilder::default();
        let training: Vec<_> = (0..15)
            .map(|i| chats.legitimate(0, 80_000 + i).unwrap())
            .collect();
        Detector::train_from_traces(&training, Config::default()).unwrap()
    }

    fn feed(stream: &mut StreamingDetector, pair: &TracePair) -> Vec<ClipVerdict> {
        let mut out = Vec::new();
        for (tx, rx) in pair.tx.samples().iter().zip(pair.rx.samples()) {
            if let Some(v) = stream.push(*tx, *rx).unwrap() {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn construction_validates() {
        assert!(StreamingDetector::new(detector(), 0.0, 3).is_err());
        assert!(StreamingDetector::new(detector(), 15.0, 0).is_err());
        let s = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        assert_eq!(s.clip_samples(), 150);
        assert_eq!(s.status(), SessionStatus::Gathering);
    }

    #[test]
    fn emits_one_verdict_per_clip() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        let verdicts = feed(&mut stream, &chats.legitimate(0, 81_000).unwrap());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].clip_index, 0);
        assert_eq!(stream.clips_done(), 1);
    }

    #[test]
    fn legitimate_stream_stays_trusted() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        for seed in 0..4u64 {
            feed(&mut stream, &chats.legitimate(0, 82_000 + seed).unwrap());
        }
        assert_eq!(stream.status(), SessionStatus::Trusted);
    }

    #[test]
    fn attack_stream_raises_alert() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        for seed in 0..4u64 {
            feed(&mut stream, &chats.reenactment(0, 83_000 + seed).unwrap());
        }
        assert_eq!(stream.status(), SessionStatus::Alert);
    }

    #[test]
    fn alert_recovers_after_window_slides() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 2).unwrap();
        for seed in 0..3u64 {
            feed(&mut stream, &chats.reenactment(0, 84_000 + seed).unwrap());
        }
        assert_eq!(stream.status(), SessionStatus::Alert);
        // The attacker leaves; the genuine user returns.
        for seed in 0..3u64 {
            feed(&mut stream, &chats.legitimate(0, 85_000 + seed).unwrap());
        }
        assert_eq!(stream.status(), SessionStatus::Trusted);
    }

    #[test]
    fn probe_votes_fuse_like_clip_votes() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        // Active probes alone can carry a gathering session to a verdict.
        assert_eq!(stream.record_probe_vote(true), SessionStatus::Trusted);
        assert_eq!(stream.status(), SessionStatus::Trusted);
        // Probes are not clips: the clip index must not advance.
        assert_eq!(stream.clips_done(), 0);
        // A failed probe is a rejection vote; enough of them flip the
        // fused status under the same 0.7·D rule as passive clips.
        stream.record_probe_vote(false);
        stream.record_probe_vote(false);
        assert_eq!(stream.record_probe_vote(false), SessionStatus::Alert);
        // The window is shared and bounded: old probe votes slide out.
        let snap = stream.snapshot();
        assert_eq!(snap.history.len(), 3);
    }

    #[test]
    fn abstentions_do_not_dilute_rejections() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 5).unwrap();
        stream.record_probe_vote(false);
        stream.record_withheld();
        stream.record_probe_vote(false);
        stream.record_withheld();
        // Abstentions never enter the vote ring: 3 > 0.7·3 rejects. Had
        // they counted as accept votes, 3 <= 0.7·5 would read Trusted.
        assert_eq!(stream.record_probe_vote(false), SessionStatus::Alert);
        assert_eq!(stream.clips_done(), 2);
    }

    #[test]
    fn probe_vote_resets_watchdog_backoff() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        // Two withheld clips fire the first re-trigger and double the
        // backoff threshold.
        assert!(!stream.record_withheld().retrigger);
        assert!(stream.record_withheld().retrigger);
        assert_eq!(stream.snapshot().watchdog_threshold, 2 * WATCHDOG_BASE);
        // A conclusive probe resets the backoff schedule like a
        // conclusive clip would.
        stream.record_probe_vote(true);
        let snap = stream.snapshot();
        assert_eq!(snap.watchdog_consecutive, 0);
        assert_eq!(snap.watchdog_threshold, WATCHDOG_BASE);
    }

    #[test]
    fn rejects_non_finite_samples() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        assert!(stream.push(f64::NAN, 100.0).is_err());
        assert!(stream.push(100.0, f64::INFINITY).is_err());
    }

    #[test]
    fn fill_buffers_samples_as_given() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        let n = stream.clip_samples();
        for _ in 1..n {
            assert!(stream.fill(f64::NAN, 300.0).is_none());
        }
        assert_eq!(stream.partial_samples(), n - 1);
        let (tx, rx) = stream.fill(-5.0, 400.0).unwrap();
        assert_eq!(stream.partial_samples(), 0);
        assert!(tx[..n - 1].iter().all(|v| v.is_nan()), "no check");
        assert_eq!(
            (tx[n - 1], rx[0], rx[n - 1]),
            (-5.0, 300.0, 400.0),
            "no clamp"
        );
        assert_eq!(stream.clips_done(), 0, "filling judges nothing");
    }

    #[test]
    fn push_clip_commits_only_on_success() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        feed(&mut stream, &chats.legitimate(0, 94_000).unwrap());
        let pair = chats.legitimate(0, 94_001).unwrap();
        let n = stream.clip_samples();
        let (tx, rx) = (
            pair.tx.samples()[..n].to_vec(),
            pair.rx.samples()[..n].to_vec(),
        );
        // A partial clip sits in the per-sample buffer throughout.
        for (t, r) in tx[..20].iter().zip(&rx[..20]) {
            assert!(stream.push(*t, *r).unwrap().is_none());
        }
        let before = stream.snapshot();
        let short = stream.push_clip(tx[..n - 1].to_vec(), rx[..n - 1].to_vec());
        assert!(short.is_err(), "one sample short is not a clip");
        assert_eq!(stream.snapshot(), before);
        let mut poisoned = rx.clone();
        poisoned[70] = f64::NAN;
        assert!(
            stream.push_clip(tx.clone(), poisoned).is_err(),
            "NaN without a gate"
        );
        assert_eq!(stream.snapshot(), before);
        let verdict = stream.push_clip(tx, rx).unwrap();
        assert_eq!(verdict.clip_index, 1);
        let after = stream.snapshot();
        assert_eq!((after.clips_done, after.history.len()), (2, 2));
        assert_eq!(after.tx_buffer, before.tx_buffer, "the partial clip stays");
    }

    fn gated(window: usize) -> StreamingDetector {
        StreamingDetector::new(detector(), 15.0, window)
            .unwrap()
            .with_quality_gate(QualityGate::default())
    }

    #[test]
    fn gated_stream_still_trusts_clean_clips() {
        let chats = ScenarioBuilder::default();
        let mut stream = gated(3);
        for seed in 0..3u64 {
            feed(&mut stream, &chats.legitimate(0, 82_000 + seed).unwrap());
        }
        assert_eq!(stream.status(), SessionStatus::Trusted);
    }

    #[test]
    fn all_dropped_clip_is_inconclusive_not_alert() {
        let chats = ScenarioBuilder::default();
        let mut stream = gated(3);
        let pair = chats.legitimate(0, 87_000).unwrap();
        // Every rx frame lost: the receiver re-displays one held frame.
        let mut verdicts = Vec::new();
        for &tx in pair.tx.samples() {
            if let Some(v) = stream.push(tx, 120.0).unwrap() {
                verdicts.push(v);
            }
        }
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].outcome.is_inconclusive());
        assert_eq!(verdicts[0].status, SessionStatus::Gathering);
        assert_eq!(stream.status(), SessionStatus::Gathering);
    }

    #[test]
    fn flatline_and_nan_feed_never_panics_or_votes() {
        let mut stream = gated(3);
        // A dead camera: NaN for half a clip, a stuck value for the rest.
        for i in 0..stream.clip_samples() * 2 {
            let rx = if i % 2 == 0 { f64::NAN } else { 55.0 };
            let v = stream.push(110.0, rx).unwrap();
            if let Some(v) = v {
                assert!(v.outcome.is_inconclusive());
                assert_ne!(v.status, SessionStatus::Alert);
            }
        }
        assert_eq!(stream.status(), SessionStatus::Gathering);
    }

    #[test]
    fn skewed_feed_does_not_false_alert() {
        let chats = ScenarioBuilder::default();
        let mut stream = gated(3);
        let pair = chats.legitimate(0, 88_000).unwrap();
        // Severe clock skew: the rx timeline runs at half speed, so every
        // rx sample is displayed twice.
        for (i, &tx) in pair.tx.samples().iter().enumerate() {
            let rx = pair.rx.samples()[i / 2];
            if let Some(v) = stream.push(tx, rx).unwrap() {
                assert_ne!(v.status, SessionStatus::Alert);
            }
        }
        assert_ne!(stream.status(), SessionStatus::Alert);
    }

    /// The clip indices at which the watchdog is expected to fire during
    /// an unbroken inconclusive run of `clips` clips, derived from the
    /// shared `WATCHDOG_BASE`/`WATCHDOG_CAP` constants (fire after BASE,
    /// then double the gap per fire, capped at CAP).
    fn expected_watchdog_fires(clips: usize) -> Vec<usize> {
        let mut fires = Vec::new();
        let mut threshold = WATCHDOG_BASE;
        let mut next = threshold;
        while next <= clips {
            fires.push(next - 1); // 0-based clip index of the firing clip
            threshold = (threshold * 2).min(WATCHDOG_CAP);
            next += threshold;
        }
        fires
    }

    #[test]
    fn watchdog_retriggers_with_backoff() {
        let mut stream = gated(3);
        // A long run of flatline (inconclusive) clips: the watchdog fires
        // after WATCHDOG_BASE clips, doubles its gap per fire, and the gap
        // saturates at the WATCHDOG_CAP constant — never every clip, and
        // never a gap beyond the cap.
        let clips = 2 * (WATCHDOG_BASE + 4 + 8 + WATCHDOG_CAP);
        let mut fired = Vec::new();
        for clip in 0..clips {
            for _ in 0..stream.clip_samples() {
                if let Some(v) = stream.push(100.0, 42.0).unwrap() {
                    if v.retrigger {
                        fired.push(clip);
                    }
                }
            }
        }
        assert_eq!(
            fired,
            expected_watchdog_fires(clips),
            "backoff schedule {fired:?}"
        );
        // Once saturated, consecutive fires are exactly WATCHDOG_CAP apart.
        let last_gap = fired[fired.len() - 1] - fired[fired.len() - 2];
        assert_eq!(last_gap, WATCHDOG_CAP, "gap must cap at WATCHDOG_CAP");
        // A conclusive clip resets the schedule.
        let chats = ScenarioBuilder::default();
        feed(&mut stream, &chats.legitimate(0, 89_000).unwrap());
        assert_eq!(stream.clips_done(), clips + 1);
    }

    #[test]
    fn gate_accepts_non_finite_pushes() {
        let mut stream = gated(3);
        assert!(stream.push(f64::NAN, 100.0).unwrap().is_none());
        assert!(stream.push(100.0, f64::INFINITY).unwrap().is_none());
    }

    #[test]
    fn snapshot_restores_mid_clip_to_identical_verdicts() {
        let chats = ScenarioBuilder::default();
        let pairs: Vec<TracePair> = (0..3)
            .map(|s| chats.legitimate(0, 91_000 + s).unwrap())
            .collect();
        // Straight run.
        let mut straight = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        let mut expected = Vec::new();
        for p in &pairs {
            expected.extend(feed(&mut straight, p));
        }
        // Interrupted run: checkpoint mid-clip (73 samples into clip 1),
        // restore into a freshly built detector, replay the rest.
        let mut first = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        let mut got = feed(&mut first, &pairs[0]);
        for (tx, rx) in pairs[1].tx.samples()[..73]
            .iter()
            .zip(&pairs[1].rx.samples()[..73])
        {
            assert!(first.push(*tx, *rx).unwrap().is_none());
        }
        let snap = first.snapshot();
        drop(first); // the "crash"
        let mut resumed = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        resumed.restore(&snap).unwrap();
        for (tx, rx) in pairs[1].tx.samples()[73..]
            .iter()
            .zip(&pairs[1].rx.samples()[73..])
        {
            if let Some(v) = resumed.push(*tx, *rx).unwrap() {
                got.push(v);
            }
        }
        got.extend(feed(&mut resumed, &pairs[2]));
        assert_eq!(got, expected, "restored run must replay identically");
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        let good = stream.snapshot();
        let mut bad = good.clone();
        bad.rx_buffer.push(1.0);
        assert!(stream.restore(&bad).is_err(), "mismatched buffers");
        bad = good.clone();
        bad.tx_buffer = vec![1.0; 150];
        bad.rx_buffer = vec![1.0; 150];
        assert!(stream.restore(&bad).is_err(), "oversized partial clip");
        bad = good.clone();
        bad.history = vec![true; 4];
        assert!(stream.restore(&bad).is_err(), "vote ring wider than window");
        bad = good.clone();
        bad.watchdog_threshold = WATCHDOG_CAP * 2;
        assert!(stream.restore(&bad).is_err(), "threshold beyond cap");
        bad = good.clone();
        bad.watchdog_consecutive = bad.watchdog_threshold;
        assert!(stream.restore(&bad).is_err(), "consecutive >= threshold");
        assert!(stream.restore(&good).is_ok());
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        feed(&mut stream, &chats.legitimate(0, 92_000).unwrap());
        let pair = chats.legitimate(0, 92_001).unwrap();
        for (tx, rx) in pair.tx.samples()[..40].iter().zip(&pair.rx.samples()[..40]) {
            stream.push(*tx, *rx).unwrap();
        }
        let snap = stream.snapshot();
        let back = StreamSnapshot::deserialize(&snap.serialize()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn withheld_clips_count_and_feed_the_watchdog() {
        let chats = ScenarioBuilder::default();
        let mut stream = StreamingDetector::new(detector(), 15.0, 3).unwrap();
        feed(&mut stream, &chats.legitimate(0, 93_000).unwrap());
        assert_eq!(stream.status(), SessionStatus::Trusted);
        // Two consecutive sheds: clip accounting advances, the voting
        // history (and status) is untouched, and the second shed trips the
        // watchdog (WATCHDOG_BASE = 2).
        let v1 = stream.record_withheld();
        assert_eq!(v1.clip_index, 1);
        assert_eq!(
            v1.outcome,
            ClipOutcome::Inconclusive(InconclusiveReason::Withheld)
        );
        assert_eq!(v1.status, SessionStatus::Trusted);
        assert!(!v1.retrigger);
        let v2 = stream.record_withheld();
        assert_eq!(v2.clip_index, 2);
        assert!(v2.retrigger, "second consecutive shed fires the watchdog");
        assert_eq!(stream.clips_done(), 3);
        // A conclusive clip afterwards resumes normal operation.
        let verdicts = feed(&mut stream, &chats.legitimate(0, 93_001).unwrap());
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].clip_index, 3);
    }
}
