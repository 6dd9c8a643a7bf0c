//! Local Outlier Factor (LOF) novelty detection.
//!
//! Sec. VII-A of the ICDCS 2020 paper builds its fake-video classifier on
//! the LOF model of Breunig et al.: the detector is trained *only* on
//! legitimate users' feature vectors; an untrusted user's vector is scored
//! against that set, and a score above the decision threshold `τ` (default
//! 3, with `k = 5` neighbours) flags a face-reenactment attacker.
//!
//! The crate provides:
//!
//! * distance metrics ([`distance`]),
//! * an exact k-nearest-neighbour index ([`knn`]),
//! * the LOF machinery — k-distance, reachability distance, local
//!   reachability density and the LOF score itself ([`lof`]),
//! * a trained novelty classifier with a decision threshold
//!   ([`classifier::LofClassifier`]),
//! * a scored background grid for Fig. 9-style visualizations ([`grid`]).
//!
//! # Example
//!
//! ```
//! use lumen_lof::classifier::LofClassifier;
//!
//! # fn main() -> Result<(), lumen_lof::LofError> {
//! // Legitimate users cluster near (1, 1).
//! let train = vec![
//!     vec![0.9, 1.0], vec![1.0, 1.1], vec![1.1, 0.9],
//!     vec![1.0, 0.95], vec![0.95, 1.05], vec![1.05, 1.0],
//! ];
//! let model = LofClassifier::fit(train, 5, 3.0)?;
//! assert!(model.is_inlier(&[1.0, 1.0])?);      // legitimate
//! assert!(!model.is_inlier(&[8.0, -4.0])?);    // attacker: outlier
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;

pub mod classifier;
pub mod distance;
pub mod grid;
pub mod knn;
pub mod lof;

pub use error::LofError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LofError>;
