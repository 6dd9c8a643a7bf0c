//! The correctness check every run makes: each verdict is compared with
//! the direct detection of the same 150 samples as it arrives, in clip
//! order per session, and the window's latencies and error rates are
//! kept for the end-to-end metrics.

use crate::plan::{Inputs, Kind, Plan, Spec, WARMUP_TURNS};

/// How many problem descriptions a run keeps for its report.
const MAX_NOTES: usize = 8;
/// Turns per latency block. A block (60–80 ms of closed-loop traffic,
/// 500 ms of the open loop) is short enough to fall within one phase of
/// a host that alternates between fast and slow phases lasting from a
/// fraction of a second to minutes, and holds exactly one checkpoint of
/// the durable daemon, which commits every 25 turns.
pub const LATENCY_BLOCK_TURNS: u64 = 25;

/// Verdicts checked so far, and everything wrong with the run.
#[derive(Debug, Clone)]
pub struct Tally {
    plan: Plan,
    window: (u64, u64),
    next_clip: Vec<u64>,
    window_ok: u64,
    problems: u64,
    /// Latencies of correctly judged window clips, by completion block.
    blocks: Vec<Vec<u64>>,
    legit: (u64, u64),
    reenactment: (u64, u64),
    notes: Vec<String>,
}

/// The checked result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Clips scheduled to complete in the window.
    pub attempted: u64,
    /// Window clips without an identical verdict, plus every other
    /// failure (refused admissions, rejected or rate-limited frames,
    /// sheds, broken accounting identities, wrong warm-up verdicts).
    pub failed: u64,
    /// Window clips judged correctly.
    pub judged: u64,
    /// Latency of every correctly judged window clip by completion block
    /// ([`LATENCY_BLOCK_TURNS`] turns), each block ascending, in window
    /// order.
    pub blocks_ns: Vec<Vec<u64>>,
    /// Conclusive legitimate verdicts in the window, and how many were
    /// rejected.
    pub legit: (u64, u64),
    /// Conclusive reenactment verdicts in the window, and how many were
    /// accepted.
    pub reenactment: (u64, u64),
    /// The first few problems, for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// False rejections over conclusive legitimate verdicts.
    pub fn frr(&self) -> f64 {
        ratio(self.legit.1, self.legit.0)
    }

    /// False acceptances over conclusive reenactment verdicts.
    pub fn far(&self) -> f64 {
        ratio(self.reenactment.1, self.reenactment.0)
    }

    /// `failed / attempted`.
    pub fn failed_fraction(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Latency samples: the correctly judged window clips.
    pub fn latency_samples(&self) -> usize {
        self.blocks_ns.iter().map(Vec::len).sum()
    }

    /// Latency percentile `q` (0–1, nearest rank) of each
    /// [`LATENCY_BLOCK_TURNS`]-turn block, median over the window's
    /// blocks, milliseconds. The host stalls single turns for up to tens
    /// of milliseconds at random, in bursts that come and go in phases;
    /// a percentile of the whole window, or a mean over blocks, follows
    /// how many stalls a run happened to catch. The median over blocks
    /// follows the typical block: a stall the system makes in every
    /// block, such as the durable daemon's commit, sets it in full, while
    /// one in fewer than half the blocks does not move it (the traced
    /// `daemon.turn_us_p99` still shows those).
    pub fn latency_ms(&self, q: f64) -> f64 {
        let per_block: Vec<u64> = self
            .blocks_ns
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| percentile(b, q))
            .collect();
        crate::median(&per_block) as f64 / 1e6
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sums of consecutive [`LATENCY_BLOCK_TURNS`]-turn runs of per-turn
/// values that start at the window's first turn: one per latency block.
pub fn block_sums(per_turn: &[u64]) -> Vec<u64> {
    per_turn
        .chunks(LATENCY_BLOCK_TURNS as usize)
        .map(|block| block.iter().sum())
        .collect()
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Tally {
    /// An empty tally for one run of `spec`.
    pub fn new(spec: &Spec) -> Tally {
        Tally {
            plan: spec.plan(),
            window: (WARMUP_TURNS, spec.total_turns()),
            next_clip: vec![0; spec.sessions],
            window_ok: 0,
            problems: 0,
            blocks: vec![Vec::new(); spec.window_turns.div_ceil(LATENCY_BLOCK_TURNS) as usize],
            legit: (0, 0),
            reenactment: (0, 0),
            notes: Vec::new(),
        }
    }

    /// Checks the verdict for clip `clip` of session `s`: `accepted` is
    /// `None` for an abstention. `latency_ns` runs from when the clip's
    /// last sample was due or handed over until the verdict was held.
    pub fn verdict(
        &mut self,
        inputs: &Inputs,
        s: usize,
        clip: u64,
        accepted: Option<bool>,
        score: f64,
        latency_ns: u64,
    ) {
        let Some(next) = self.next_clip.get_mut(s) else {
            self.problem(format!("verdict for unknown session {s}"));
            return;
        };
        if clip != *next {
            let expected = *next;
            self.problem(format!(
                "session {s}: verdict for clip {clip}, expected clip {expected}"
            ));
            return;
        }
        *next += 1;
        let reference = inputs.reference(&self.plan, s, clip);
        let identical =
            accepted == Some(reference.accepted) && score.to_bits() == reference.score.to_bits();
        let turn = self.plan.completion_turn(s, clip);
        let in_window = (self.window.0..self.window.1).contains(&turn);
        if !identical {
            let note = format!(
                "session {s} clip {clip}: verdict {accepted:?}/{score} differs from direct \
                 detection {}/{}",
                reference.accepted, reference.score
            );
            if in_window {
                // Counted as a missing window verdict in `finish`.
                self.note(note);
            } else {
                self.problem(note);
            }
            return;
        }
        if !in_window {
            return;
        }
        self.window_ok += 1;
        if let Some(block) = self
            .blocks
            .get_mut(((turn - self.window.0) / LATENCY_BLOCK_TURNS) as usize)
        {
            block.push(latency_ns);
        }
        let (conclusive, wrong) = match self.plan.kind(s) {
            Kind::Legitimate => (&mut self.legit, !reference.accepted),
            Kind::Reenactment => (&mut self.reenactment, reference.accepted),
        };
        conclusive.0 += 1;
        conclusive.1 += u64::from(wrong);
    }

    /// Records one failure outside the per-clip check.
    pub fn problem(&mut self, what: String) {
        self.problems += 1;
        self.note(what);
    }

    /// Records `count` failures of one kind (nothing when 0).
    pub fn problems(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.problems += count;
            self.note(format!("{count} × {what}"));
        }
    }

    /// Checks that an accounting identity holds; a miss is one failure.
    pub fn identity(&mut self, holds: bool, what: &str) {
        if !holds {
            self.problem(format!("accounting identity broken: {what}"));
        }
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// Whether every clip scheduled in the window has its verdict.
    pub fn window_complete(&self) -> bool {
        (0..self.plan.sessions())
            .all(|s| self.next_clip[s] >= self.plan.clips_done(s, self.window.1 - 1))
    }

    /// Closes the tally.
    pub fn finish(self) -> Outcome {
        let attempted = self.plan.clips_between(self.window.0, self.window.1);
        let mut blocks_ns = self.blocks;
        for block in &mut blocks_ns {
            block.sort_unstable();
        }
        Outcome {
            attempted,
            failed: attempted.saturating_sub(self.window_ok) + self.problems,
            judged: self.window_ok,
            blocks_ns,
            legit: self.legit,
            reenactment: self.reenactment,
            notes: self.notes,
        }
    }
}
