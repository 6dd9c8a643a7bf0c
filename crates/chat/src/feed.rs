//! Per-session sample feeds.
//!
//! A serving runtime (see `lumen-serve`) consumes one luminance sample
//! pair per session per clock tick. [`SampleFeed`] adapts recorded
//! [`TracePair`]s — one chat session's transmitted and received luminance
//! traces — into exactly that shape: a tick-driven source aligned to a
//! [`SimClock`], so many sessions can be multiplexed onto one global tick
//! loop deterministically.

use crate::clock::SimClock;
use crate::trace::TracePair;
use crate::{ChatError, Result};

/// A tick-driven source of luminance sample pairs for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleFeed {
    tx: Vec<f64>,
    rx: Vec<f64>,
    pos: usize,
    clock: SimClock,
}

impl SampleFeed {
    /// A feed replaying one recorded trace pair at its native sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`ChatError::InvalidParameter`] when the two traces disagree in
    /// length or sample rate — such a pair cannot be replayed tick-aligned.
    pub fn new(pair: &TracePair) -> Result<Self> {
        Self::from_pairs(std::slice::from_ref(pair))
    }

    /// A feed replaying several trace pairs back to back (a long session
    /// recorded as consecutive clips).
    ///
    /// # Errors
    ///
    /// Returns [`ChatError::InvalidParameter`] when the slice is empty or any pair's
    /// traces disagree in length or sample rate with each other or with
    /// the first pair.
    pub fn from_pairs(pairs: &[TracePair]) -> Result<Self> {
        let Some(first) = pairs.first() else {
            return Err(ChatError::invalid_parameter(
                "pairs",
                "a feed needs at least one trace pair",
            ));
        };
        let rate = first.tx.sample_rate();
        let mut tx = Vec::new();
        let mut rx = Vec::new();
        for pair in pairs {
            if pair.tx.len() != pair.rx.len() {
                return Err(ChatError::invalid_parameter(
                    "pairs",
                    format!(
                        "tx/rx length mismatch: {} vs {}",
                        pair.tx.len(),
                        pair.rx.len()
                    ),
                ));
            }
            if pair.tx.sample_rate() != rate || pair.rx.sample_rate() != rate {
                return Err(ChatError::invalid_parameter(
                    "pairs",
                    "all traces in a feed must share one sample rate",
                ));
            }
            tx.extend_from_slice(pair.tx.samples());
            rx.extend_from_slice(pair.rx.samples());
        }
        Ok(SampleFeed {
            tx,
            rx,
            pos: 0,
            clock: SimClock::at_rate(rate),
        })
    }

    /// The next sample pair, advancing the feed's clock one tick; `None`
    /// once the recording is exhausted.
    pub fn next_sample(&mut self) -> Option<(f64, f64)> {
        let sample = self
            .tx
            .get(self.pos)
            .copied()
            .zip(self.rx.get(self.pos).copied())?;
        self.pos += 1;
        self.clock.advance();
        Some(sample)
    }

    /// Samples not yet consumed.
    pub fn remaining(&self) -> usize {
        self.tx.len() - self.pos
    }

    /// Samples consumed so far — the index the next
    /// [`SampleFeed::next_sample`] call will read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Rewinds (or fast-forwards) the feed so the next sample read is
    /// `pos`. A daemon client uses this after a server restart: the
    /// restored server reports how many samples of the session survived
    /// the checkpoint, and the client replays from exactly there, so the
    /// reconstructed stream is byte-identical to an uninterrupted one.
    ///
    /// The clock is rebuilt to `pos` ticks so session-local time stays a
    /// pure function of the replay position.
    ///
    /// # Errors
    ///
    /// Returns [`ChatError::InvalidParameter`] when `pos` lies beyond the
    /// end of the recording.
    pub fn rewind_to(&mut self, pos: usize) -> Result<()> {
        if pos > self.tx.len() {
            return Err(ChatError::invalid_parameter(
                "pos",
                format!("resume point {pos} beyond recording of {}", self.tx.len()),
            ));
        }
        self.pos = pos;
        self.clock = SimClock::resumed_at(self.clock.dt(), pos as u64);
        Ok(())
    }

    /// Total samples in the recording.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// `true` when the recording holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// The feed's clock (ticks consumed so far, session-local time).
    pub fn clock(&self) -> SimClock {
        self.clock
    }
}

impl Iterator for SampleFeed {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        self.next_sample()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn replays_every_sample_in_order() {
        let pair = ScenarioBuilder::default().legitimate(0, 61_000).unwrap();
        let mut feed = SampleFeed::new(&pair).unwrap();
        assert_eq!(feed.len(), pair.tx.len());
        let mut n = 0;
        while let Some((tx, rx)) = feed.next_sample() {
            assert_eq!(tx, pair.tx.samples()[n]);
            assert_eq!(rx, pair.rx.samples()[n]);
            n += 1;
        }
        assert_eq!(n, pair.tx.len());
        assert_eq!(feed.remaining(), 0);
        assert_eq!(feed.clock().tick(), n as u64);
    }

    #[test]
    fn concatenates_pairs_and_tracks_remaining() {
        let chats = ScenarioBuilder::default();
        let a = chats.legitimate(0, 61_001).unwrap();
        let b = chats.legitimate(0, 61_002).unwrap();
        let mut feed = SampleFeed::from_pairs(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(feed.len(), a.tx.len() + b.tx.len());
        feed.next_sample().unwrap();
        assert_eq!(feed.remaining(), feed.len() - 1);
        assert_eq!(feed.count(), a.tx.len() + b.tx.len() - 1);
    }

    #[test]
    fn rewind_replays_identically_from_the_resume_point() {
        let pair = ScenarioBuilder::default().legitimate(0, 61_004).unwrap();
        let mut feed = SampleFeed::new(&pair).unwrap();
        let full: Vec<_> = feed.clone().collect();
        for _ in 0..40 {
            feed.next_sample().unwrap();
        }
        assert_eq!(feed.position(), 40);
        feed.rewind_to(25).unwrap();
        assert_eq!(feed.position(), 25);
        assert_eq!(feed.clock().tick(), 25);
        let resumed: Vec<_> = feed.clone().collect();
        assert_eq!(resumed, full[25..]);
        assert!(feed.rewind_to(feed.len() + 1).is_err());
        feed.rewind_to(feed.len()).unwrap();
        assert_eq!(feed.remaining(), 0);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(SampleFeed::from_pairs(&[]).is_err());
        let chats = ScenarioBuilder::default();
        let mut pair = chats.legitimate(0, 61_003).unwrap();
        pair.rx = pair.rx.slice(0, pair.rx.len() - 1).unwrap();
        assert!(SampleFeed::new(&pair).is_err());
    }
}
