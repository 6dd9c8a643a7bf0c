//! Property tests for the mergeable log-bucketed histograms: merging is
//! commutative and associative, never loses a sample, and merged
//! quantiles honour the documented relative-error bound — the invariants
//! that make fleet-wide percentile aggregation sound.

use lumen::obs::registry::QUANTILE_RELATIVE_ERROR;
use lumen::obs::Histogram;
use proptest::prelude::*;

fn samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-6f64..1e6, 1..max_len)
}

fn hist_of(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Nearest-rank ground-truth quantile over the raw samples.
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Structural equality up to float-summation order: bucket counts, sample
/// count, min and max must match exactly; `sum` is accumulated in float
/// and may differ in the last ulp between merge orders.
macro_rules! prop_assert_equivalent {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
        prop_assert_eq!(a.count(), b.count());
        prop_assert_eq!(a.min(), b.min());
        prop_assert_eq!(a.max(), b.max());
        prop_assert_eq!(a.nonpositive(), b.nonpositive());
        prop_assert!((a.sum() - b.sum()).abs() <= a.sum().abs() * 1e-12 + 1e-12);
    }};
}

proptest! {
    #[test]
    fn merge_is_commutative(a in samples(128), b in samples(128)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in samples(64), b in samples(64), c in samples(64)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_equivalent!(left, right);
    }

    #[test]
    fn merge_preserves_counts_and_exact_stats(a in samples(128), b in samples(128)) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        let sum: f64 = all.iter().sum();
        prop_assert!((merged.sum() - sum).abs() <= sum.abs() * 1e-12 + 1e-12);
        let min = all.iter().copied().fold(f64::INFINITY, f64::min);
        let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(merged.min(), Some(min));
        prop_assert_eq!(merged.max(), Some(max));
        // Merging equals observing the concatenation.
        prop_assert_equivalent!(merged, hist_of(&all));
    }

    #[test]
    fn merged_quantiles_stay_within_the_documented_bound(
        a in samples(128),
        b in samples(128),
        q in 0.01f64..0.999,
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        let truth = exact_quantile(&all, q);
        let approx = merged.quantile(q).expect("non-empty histogram");
        prop_assert!(
            (approx - truth).abs() <= truth.abs() * QUANTILE_RELATIVE_ERROR + 1e-12,
            "q={} approx={} truth={}", q, approx, truth
        );
    }

    #[test]
    fn quantiles_are_bracketed_by_min_and_max(v in samples(256), q in 0.0f64..1.0) {
        let h = hist_of(&v);
        let quant = h.quantile(q).expect("non-empty histogram");
        prop_assert!(quant >= h.min().expect("non-empty"));
        prop_assert!(quant <= h.max().expect("non-empty"));
    }
}
