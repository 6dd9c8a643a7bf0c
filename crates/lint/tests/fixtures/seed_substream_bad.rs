//! Bad: two distinct subsystems derive from the same substream label, so
//! their "independent" randomness is byte-identical.

/// Synthesis-side noise.
pub mod synth {
    /// Derives the frame-noise stream.
    pub fn noise_rng(seed: u64) -> Rng {
        substream(seed, 7)
    }
}

/// Challenge-side schedule.
pub mod challenge {
    /// Derives the challenge stream — collides with `synth::noise_rng`.
    pub fn challenge_rng(seed: u64) -> Rng {
        substream(seed, 7)
    }
}

/// Derives both streams of one session.
fn session_streams(seed: u64) -> (Rng, Rng) {
    (synth::noise_rng(seed), challenge::challenge_rng(seed))
}
