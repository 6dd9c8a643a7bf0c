//! Per-connection token-bucket rate limiting.
//!
//! The bucket is deterministic: it refills per event-loop *turn*, not per
//! wall-clock second, so limiter behaviour is exactly reproducible in the
//! loopback experiments and the kill/restore soak. At the daemon's target
//! cadence (one turn per simulated sample tick) a refill of `r` tokens per
//! turn admits `r` frames per tick sustained, with bursts up to the
//! capacity.

/// A deterministic token bucket. One per connection.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_turn: f64,
}

impl TokenBucket {
    /// A full bucket holding `capacity` tokens that regains
    /// `refill_per_turn` tokens at every [`TokenBucket::refill`].
    pub fn new(capacity: u32, refill_per_turn: f64) -> Self {
        let capacity = f64::from(capacity);
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_turn: refill_per_turn.max(0.0),
        }
    }

    /// Adds one turn's worth of tokens, saturating at capacity. Called
    /// once per event-loop turn for every live connection.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.refill_per_turn).min(self.capacity);
    }

    /// Takes one token if available. `false` means the frame must be
    /// refused — the caller charges it to the abuse counters.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve_then_recover() {
        let mut bucket = TokenBucket::new(4, 0.5);
        for _ in 0..4 {
            assert!(bucket.try_take());
        }
        assert!(!bucket.try_take());
        bucket.refill();
        assert!(!bucket.try_take(), "half a token is not a token");
        bucket.refill();
        assert!(bucket.try_take());
        for _ in 0..100 {
            bucket.refill();
        }
        assert!((bucket.tokens - 4.0).abs() < 1e-12, "caps at capacity");
    }

    #[test]
    fn zero_refill_never_recovers() {
        let mut bucket = TokenBucket::new(1, 0.0);
        assert!(bucket.try_take());
        for _ in 0..10 {
            bucket.refill();
        }
        assert!(!bucket.try_take());
    }
}
