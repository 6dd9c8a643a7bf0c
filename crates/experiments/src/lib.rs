//! Regenerates every table and figure of the ICDCS 2020 evaluation.
//!
//! Each module reproduces one paper artifact (see DESIGN.md §5 for the
//! index) and exposes `run(...) -> Result<SomeResult>` plus a
//! `print()` renderer. The `lumen-experiments` binary dispatches on the
//! experiment id:
//!
//! ```text
//! lumen-experiments fig11       # overall TAR/TRR per user
//! lumen-experiments all         # everything, in paper order
//! lumen-experiments fig12 --json
//! ```
//!
//! All experiments are deterministic: scenario seeds are fixed constants,
//! so every run reproduces the committed numbers in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ablation;
pub mod ambient;
pub mod baselines;
pub mod chaos;
pub mod clip_length;
pub mod daemon;
pub mod dsoak;
pub mod feasibility;
pub mod fleet;
pub mod forgery_delay;
pub mod lof_example;
pub mod metering;
pub mod network;
pub mod occlusion;
pub mod overall;
pub mod overhead;
pub mod overload;
pub mod panel;
pub mod pipeline_stages;
pub mod preproc_ablation;
pub mod probe;
pub mod related_work;
pub mod replay;
pub mod resilience;
pub mod roc_analysis;
pub mod runner;
pub mod sampling_rate;
pub mod screen_size;
pub mod spectrum;
pub mod threshold_sweep;
pub mod training_size;
pub mod voting;

/// Boxed error alias used across experiments.
pub type ExpError = Box<dyn std::error::Error + Send + Sync>;
/// Result alias used across experiments.
pub type ExpResult<T> = Result<T, ExpError>;
