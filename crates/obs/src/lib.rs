//! Observability for the Lumen pipeline: hierarchical timing spans,
//! counters, gauges, mergeable log-bucketed histograms, pluggable event
//! sinks and a flight recorder for post-mortem reconstruction.
//!
//! The paper's evaluation (Sec. IX) reports per-stage computation overhead;
//! this crate is the instrumentation layer that lets the reproduction
//! measure the same breakdown. A [`Recorder`] is a cheap cloneable handle
//! that instrumented code (the detector, the chat transport, the video
//! synthesizer) emits [`Event`]s through; where they go is decided by the
//! [`Sink`] behind it:
//!
//! * no sink at all — [`Recorder::null`], the default: emission
//!   short-circuits before any event is assembled;
//! * [`InMemorySink`] — buffers events and aggregates them into a
//!   [`Registry`] / [`Snapshot`];
//! * [`JsonlSink`] — one JSON object per event, newline-delimited, for
//!   offline analysis;
//! * [`FlightSink`] — a bounded tick-stamped ring plus an always-on
//!   metrics fold, dumping deterministic [`Postmortem`] bundles on anomaly
//!   triggers.
//!
//! Events carry a session/clip trace context set via
//! [`Recorder::session_scope`] / [`Recorder::clip_scope`], so a fleet-wide
//! sink can reconstruct the per-session event sequence after the fact.
//! Histograms share one log-linear layout ([`registry::BUCKETS`] buckets,
//! relative quantile error bounded by
//! [`registry::QUANTILE_RELATIVE_ERROR`]) and [`Histogram::merge`] exactly,
//! so histograms from independent recorders combine into fleet quantiles.
//!
//! # Example
//!
//! ```
//! use lumen_obs::{report, Recorder};
//!
//! let (recorder, sink) = Recorder::in_memory();
//! {
//!     let _clip = recorder.span("detect");
//!     let _stage = recorder.span(lumen_obs::stage::PREPROCESS);
//!     recorder.add("clips", 1);
//! }
//! let snapshot = sink.snapshot();
//! assert_eq!(snapshot.spans.len(), 2);
//! println!("{}", report::render_text(&snapshot));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod event;
pub mod flight;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod sink;

pub use event::{Event, EventKind};
pub use flight::{
    FlightConfig, FlightEvent, FlightRecorder, FlightSink, Postmortem, PostmortemHeader,
};
pub use recorder::{Recorder, SpanGuard, TraceGuard};
pub use registry::{Histogram, Registry, Snapshot, SpanRow};
pub use sink::{InMemorySink, JsonlSink, Sink};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the data even if a panicking holder poisoned it:
/// telemetry must keep flowing after an instrumented thread panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Canonical span names for the detection pipeline stages, so every layer
/// and every report agrees on spelling.
pub mod stage {
    /// The whole frame-to-verdict detection of one clip.
    pub const DETECT: &str = "detect";
    /// Smoothing chain (low-pass through moving average) on both traces.
    pub const PREPROCESS: &str = "preprocess";
    /// Significant-luminance-change (peak) detection on both traces.
    pub const CHANGE_DETECTION: &str = "change_detection";
    /// Behaviour/trend feature extraction (z1–z4).
    pub const FEATURE_EXTRACTION: &str = "feature_extraction";
    /// LOF scoring of the feature vector.
    pub const LOF_SCORING: &str = "lof_scoring";
    /// Majority-vote fusion over the recent clip verdicts.
    pub const VOTE_FUSION: &str = "vote_fusion";
    /// Signal-quality screening of a clip before any vote is cast.
    pub const QUALITY_GATE: &str = "quality_gate";
    /// One scheduler tick of the multi-session serving runtime.
    pub const SERVE_TICK: &str = "serve_tick";
    /// One queued clip being served to detection by the runtime.
    pub const SERVE_CLIP: &str = "serve_clip";
    /// Capturing a checkpoint of the serving runtime.
    pub const CHECKPOINT: &str = "checkpoint";
    /// Matched-filter verification of one active luminance probe.
    pub const PROBE_VERIFY: &str = "probe_verify";
    /// One event-loop turn of the serving daemon (accept, read, dispatch,
    /// tick, write).
    pub const DAEMON_TURN: &str = "daemon_turn";
    /// One scheduler tick of the sharded fleet runtime (admission,
    /// per-shard ticks, work stealing).
    pub const FLEET_TICK: &str = "fleet_tick";

    /// The four stages nested under [`DETECT`] plus the fusion stage, in
    /// pipeline order.
    pub const PIPELINE: [&str; 5] = [
        PREPROCESS,
        CHANGE_DETECTION,
        FEATURE_EXTRACTION,
        LOF_SCORING,
        VOTE_FUSION,
    ];
}
