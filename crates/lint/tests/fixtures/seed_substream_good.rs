//! Good: every subsystem owns a distinct substream label, one spelled as
//! a literal and one through a named constant the rule resolves.

/// Label reserved for the challenge stream (see SUBSTREAMS.md).
const CHALLENGE_STREAM: u64 = 8;

/// Synthesis-side noise.
pub mod synth {
    /// Derives the frame-noise stream.
    pub fn noise_rng(seed: u64) -> Rng {
        substream(seed, 7)
    }
}

/// Challenge-side schedule.
pub mod challenge {
    /// Derives the challenge stream from its own label.
    pub fn challenge_rng(seed: u64) -> Rng {
        substream(seed, CHALLENGE_STREAM)
    }
}

/// Derives both streams of one session.
fn session_streams(seed: u64) -> (Rng, Rng) {
    (synth::noise_rng(seed), challenge::challenge_rng(seed))
}
