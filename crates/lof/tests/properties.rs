//! Property-based tests for the LOF components.

use lumen_lof::classifier::LofClassifier;
use lumen_lof::distance::{Chebyshev, Euclidean, Manhattan, Metric};
use lumen_lof::knn::KnnIndex;
use lumen_lof::lof::LofModel;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn points(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, dim..=dim), n)
}

proptest! {
    #[test]
    fn metrics_satisfy_axioms(a in prop::collection::vec(-50.0f64..50.0, 3..=3),
                              b in prop::collection::vec(-50.0f64..50.0, 3..=3),
                              c in prop::collection::vec(-50.0f64..50.0, 3..=3)) {
        for m in [&Euclidean as &dyn Metric, &Manhattan, &Chebyshev] {
            let dab = m.distance(&a, &b);
            let dba = m.distance(&b, &a);
            prop_assert!(dab >= 0.0);
            prop_assert!((dab - dba).abs() < 1e-9);
            prop_assert_eq!(m.distance(&a, &a), 0.0);
            // Triangle inequality.
            let dac = m.distance(&a, &c);
            let dcb = m.distance(&c, &b);
            prop_assert!(dab <= dac + dcb + 1e-9);
        }
    }

    #[test]
    fn knn_distances_are_sorted(train in points(2, 4..20), q in prop::collection::vec(-100.0f64..100.0, 2..=2), k in 1usize..4) {
        let idx = KnnIndex::new(train).unwrap();
        prop_assume!(k <= idx.len());
        let nn = idx.nearest(&q, k, None).unwrap();
        for w in nn.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn knn_first_neighbour_is_global_min(train in points(2, 4..20), q in prop::collection::vec(-100.0f64..100.0, 2..=2)) {
        let idx = KnnIndex::new(train.clone()).unwrap();
        let nn = idx.nearest(&q, 1, None).unwrap();
        let brute = train
            .iter()
            .map(|p| Euclidean.distance(&q, p))
            .fold(f64::MAX, f64::min);
        prop_assert!((nn[0].distance - brute).abs() < 1e-12);
    }

    #[test]
    fn lof_scores_are_positive(train in points(3, 6..15), q in prop::collection::vec(-100.0f64..100.0, 3..=3), k in 2usize..5) {
        prop_assume!(k < train.len());
        let model = LofModel::fit(train, k).unwrap();
        let s = model.score(&q).unwrap();
        prop_assert!(s > 0.0 || s.is_infinite());
    }

    #[test]
    fn lof_is_invariant_to_training_order(train in points(2, 6..12), q in prop::collection::vec(-100.0f64..100.0, 2..=2), seed in 0u64..100) {
        let model_a = LofModel::fit(train.clone(), 3).unwrap();
        let mut shuffled = train;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        shuffled.shuffle(&mut rng);
        let model_b = LofModel::fit(shuffled, 3).unwrap();
        let a = model_a.score(&q).unwrap();
        let b = model_b.score(&q).unwrap();
        if a.is_finite() && b.is_finite() {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        } else {
            prop_assert_eq!(a.is_infinite(), b.is_infinite());
        }
    }

    #[test]
    fn lof_is_translation_invariant(train in points(2, 6..12), q in prop::collection::vec(-50.0f64..50.0, 2..=2), shift in -20.0f64..20.0) {
        let model_a = LofModel::fit(train.clone(), 3).unwrap();
        let shifted: Vec<Vec<f64>> = train
            .iter()
            .map(|p| p.iter().map(|v| v + shift).collect())
            .collect();
        let model_b = LofModel::fit(shifted, 3).unwrap();
        let q_shifted: Vec<f64> = q.iter().map(|v| v + shift).collect();
        let a = model_a.score(&q).unwrap();
        let b = model_b.score(&q_shifted).unwrap();
        if a.is_finite() && b.is_finite() {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn classifier_threshold_is_monotone(train in points(2, 8..14), q in prop::collection::vec(-100.0f64..100.0, 2..=2)) {
        let strict = LofClassifier::fit(train.clone(), 3, 1.2).unwrap();
        let lax = LofClassifier::fit(train, 3, 10.0).unwrap();
        // Anything the strict classifier accepts, the lax one must accept.
        if strict.is_inlier(&q).unwrap() {
            prop_assert!(lax.is_inlier(&q).unwrap());
        }
    }
}
