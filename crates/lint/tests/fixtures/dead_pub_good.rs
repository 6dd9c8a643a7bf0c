//! Good: the one `pub fn` has a caller outside its own body and tests;
//! private, `pub(crate)` and trait-impl fns are never checked.

/// Mean of the samples.
pub fn mean(x: &[f64]) -> f64 {
    x.iter().sum::<f64>() / x.len() as f64
}

/// Mean absolute deviation.
fn spread(x: &[f64]) -> f64 {
    let m = mean(x);
    x.iter().map(|v| (v - m).abs()).sum()
}

pub(crate) fn unused_in_crate() {}

/// A summary statistic.
pub trait Statistic {
    /// Computes it.
    fn compute(&self, x: &[f64]) -> f64;
}

/// The spread as a statistic.
pub struct Spread;

impl Statistic for Spread {
    fn compute(&self, x: &[f64]) -> f64 {
        spread(x)
    }
}
