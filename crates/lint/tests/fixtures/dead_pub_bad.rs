//! Bad: one `pub fn` that only its own unit tests call, and one that
//! only calls itself. Nothing else in the workspace names either.

/// Mean of the samples.
pub fn mean(x: &[f64]) -> f64 {
    x.iter().sum::<f64>() / x.len() as f64
}

/// Counts down to zero.
pub fn countdown(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        countdown(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_two() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
