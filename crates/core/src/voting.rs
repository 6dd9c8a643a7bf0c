//! Decision combination over multiple detection rounds (Sec. VII-B).
//!
//! "Considering the final result is produced based on D detection attempts,
//! an untrusted user is regarded as a face reenactment attacker if its votes
//! exceed 0.7 × D." Votes here are *rejection* votes from single-clip
//! detections.

use crate::detector::{Detection, Detector};
use crate::{CoreError, Result};
use lumen_chat::trace::TracePair;

/// The combined verdict of a voting round.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Per-round detections, in order.
    pub rounds: Vec<Detection>,
    /// Number of rejection votes.
    pub rejection_votes: usize,
    /// `true` when the untrusted user is accepted as legitimate.
    pub accepted: bool,
}

/// Combines boolean acceptance votes: the user is flagged as an attacker
/// when rejection votes strictly exceed `coefficient × D`.
///
/// # The exact-tie boundary
///
/// The paper's rule is *strict*: "an untrusted user is regarded as a face
/// reenactment attacker if its votes **exceed** 0.7 × D" (Sec. VII-B). A
/// vote count exactly equal to `coefficient × D` therefore **accepts** —
/// e.g. D = 10 with exactly 7 rejection votes is accepted, 8 rejects.
/// This holds under floating-point evaluation: the comparison is
/// `rejections as f64 <= coefficient * D as f64`, both sides computed with
/// a single rounding each, so the only way an exact tie could flip is if
/// `coefficient * D` rounded *below* the true product by more than the gap
/// to the next representable integer — impossible for integer `rejections`
/// (integers up to 2⁵³ are exact in f64, and one multiplication is
/// correctly rounded to within half an ulp). The
/// `exact_tie_at_boundary_accepts` unit test pins D = 10, c = 0.7,
/// 7 rejections to the accepting side so any future refactor that flips
/// the boundary fails loudly.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty vote list or a
/// coefficient outside `[0, 1]`.
pub fn combine_votes(accepted_votes: &[bool], coefficient: f64) -> Result<bool> {
    if accepted_votes.is_empty() {
        return Err(CoreError::invalid_config(
            "votes",
            "at least one detection round is required",
        ));
    }
    if !(0.0..=1.0).contains(&coefficient) {
        return Err(CoreError::invalid_config(
            "vote_coefficient",
            "must lie in [0, 1]",
        ));
    }
    let rejections = accepted_votes.iter().filter(|&&a| !a).count();
    Ok(rejections as f64 <= coefficient * accepted_votes.len() as f64)
}

/// A detector wrapper that triggers `rounds` detections and fuses them by
/// majority voting.
#[derive(Debug, Clone)]
pub struct VotingDetector {
    detector: Detector,
    rounds: usize,
}

impl VotingDetector {
    /// Wraps a trained detector with a round count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero rounds.
    pub fn new(detector: Detector, rounds: usize) -> Result<Self> {
        if rounds == 0 {
            return Err(CoreError::invalid_config(
                "rounds",
                "at least one round is required",
            ));
        }
        Ok(VotingDetector { detector, rounds })
    }

    /// The number of detection rounds D.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The wrapped single-clip detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Runs detection over `pairs` (one clip per round) and fuses the
    /// votes. Exactly [`VotingDetector::rounds`] pairs are consumed; extra
    /// pairs are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when fewer pairs than rounds
    /// are supplied; propagates detection errors.
    pub fn detect(&self, pairs: &[TracePair]) -> Result<Verdict> {
        if pairs.len() < self.rounds {
            return Err(CoreError::invalid_config(
                "pairs",
                format!("need {} clips, got {}", self.rounds, pairs.len()),
            ));
        }
        let rounds = pairs[..self.rounds]
            .iter()
            .map(|p| self.detector.detect(p))
            .collect::<Result<Vec<_>>>()?;
        let votes: Vec<bool> = rounds.iter().map(|d| d.accepted).collect();
        let accepted = combine_votes(&votes, self.detector.config().vote_coefficient)?;
        let rejection_votes = votes.iter().filter(|&&a| !a).count();
        Ok(Verdict {
            rounds,
            rejection_votes,
            accepted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use lumen_chat::scenario::ScenarioBuilder;

    #[test]
    fn vote_combination_uses_strict_threshold() {
        // D = 3, coefficient 0.7 -> reject only when rejections > 2.1,
        // i.e. all three rounds reject.
        assert!(combine_votes(&[false, false, true], 0.7).unwrap());
        assert!(!combine_votes(&[false, false, false], 0.7).unwrap());
        // D = 5 -> reject when rejections > 3.5, i.e. >= 4.
        assert!(combine_votes(&[false, false, false, true, true], 0.7).unwrap());
        assert!(!combine_votes(&[false, false, false, false, true], 0.7).unwrap());
    }

    #[test]
    fn exact_tie_at_boundary_accepts() {
        // D = 10, coefficient 0.7: exactly 7 rejection votes sit *on* the
        // 0.7·D boundary. The paper's rule is strict ("votes exceed
        // 0.7 × D"), so the tie accepts; one more rejection flags the
        // attacker. This pins the boundary against float-rounding drift.
        let tie: Vec<bool> = [vec![false; 7], vec![true; 3]].concat();
        assert!(combine_votes(&tie, 0.7).unwrap(), "7/10 must accept");
        let over: Vec<bool> = [vec![false; 8], vec![true; 2]].concat();
        assert!(!combine_votes(&over, 0.7).unwrap(), "8/10 must reject");

        // Ties at other window sizes whose product is inexact in binary
        // (0.7·D for D = 20, 30: the product rounds to the exact integer).
        let d20: Vec<bool> = [vec![false; 14], vec![true; 6]].concat();
        assert!(combine_votes(&d20, 0.7).unwrap(), "14/20 must accept");
        let d30: Vec<bool> = [vec![false; 21], vec![true; 9]].concat();
        assert!(combine_votes(&d30, 0.7).unwrap(), "21/30 must accept");
    }

    #[test]
    fn vote_combination_validates() {
        assert!(combine_votes(&[], 0.7).is_err());
        assert!(combine_votes(&[true], 1.5).is_err());
        assert!(combine_votes(&[true], 0.0).unwrap());
        assert!(!combine_votes(&[false], 0.0).unwrap());
    }

    #[test]
    fn single_round_equals_single_detection() {
        let b = ScenarioBuilder::default();
        let train: Vec<_> = (0..15).map(|i| b.legitimate(0, 100 + i).unwrap()).collect();
        let det = Detector::train_from_traces(&train, Config::default()).unwrap();
        let voting = VotingDetector::new(det.clone(), 1).unwrap();
        let pair = b.legitimate(0, 999).unwrap();
        let single = det.detect(&pair).unwrap();
        let fused = voting.detect(std::slice::from_ref(&pair)).unwrap();
        assert_eq!(single.accepted, fused.accepted);
        assert_eq!(fused.rounds.len(), 1);
    }

    #[test]
    fn voting_improves_attack_rejection() {
        let b = ScenarioBuilder::default();
        let train: Vec<_> = (0..15).map(|i| b.legitimate(0, 200 + i).unwrap()).collect();
        let det = Detector::train_from_traces(&train, Config::default()).unwrap();
        let voting = VotingDetector::new(det, 5).unwrap();
        let clips: Vec<_> = (0..5).map(|i| b.reenactment(0, 300 + i).unwrap()).collect();
        let verdict = voting.detect(&clips).unwrap();
        assert!(!verdict.accepted, "5-round attack fused to accept");
        assert!(verdict.rejection_votes >= 4);
    }

    #[test]
    fn detect_requires_enough_clips() {
        let b = ScenarioBuilder::default();
        let train: Vec<_> = (0..15).map(|i| b.legitimate(0, 400 + i).unwrap()).collect();
        let det = Detector::train_from_traces(&train, Config::default()).unwrap();
        let voting = VotingDetector::new(det, 3).unwrap();
        let clips: Vec<_> = (0..2).map(|i| b.legitimate(0, 500 + i).unwrap()).collect();
        assert!(voting.detect(&clips).is_err());
    }

    #[test]
    fn zero_rounds_rejected() {
        let b = ScenarioBuilder::default();
        let train: Vec<_> = (0..15).map(|i| b.legitimate(0, 600 + i).unwrap()).collect();
        let det = Detector::train_from_traces(&train, Config::default()).unwrap();
        assert!(VotingDetector::new(det, 0).is_err());
    }
}
