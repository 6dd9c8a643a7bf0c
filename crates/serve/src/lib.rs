//! Supervised multi-session serving runtime for the Lumen defense.
//!
//! The paper runs its detector repeatedly inside *one* video chat
//! (Sec. III-B); the ROADMAP's north star is a service verifying **many
//! concurrent sessions** on a fixed compute budget. That turns
//! availability into part of the security story: an active defense only
//! protects while its verify loop keeps up, so a runtime that silently
//! drops detection rounds under load is a runtime an attacker can DoS
//! around. This crate makes the frame→verdict path robust to overload and
//! crashes with four mechanisms:
//!
//! * **Admission control + backpressure** ([`Supervisor::admit`],
//!   [`Supervisor::offer`]) — bounded per-session clip queues and a global
//!   tick-driven work budget, with explicit [`AdmitOutcome`] /
//!   [`ClipAdmission`] outcomes.
//! * **Load shedding, never silent** — a clip that cannot be served
//!   (queue full, deadline missed, breaker open, detection failure)
//!   becomes a counted `Withheld` abstention in the session's verdict
//!   stream, in completion order, so `served + shed == offered` holds
//!   exactly and served clips' outcomes stay byte-identical to an
//!   unloaded run.
//! * **Per-session circuit breakers** ([`breaker`]) — repeated watchdog
//!   re-triggers or detection errors trip a session open; half-open
//!   probes re-admit it; every transition is an event and an obs mark.
//! * **Checkpoint/restore** ([`Supervisor::snapshot`],
//!   [`Supervisor::restore`]) — serde snapshots of the whole runtime,
//!   including mid-clip partial buffers, replaying to byte-identical
//!   verdicts after a restart.
//!
//! Everything is driven off `lumen_chat::clock` ticks — no wall clock, no
//! ambient randomness — so any run (and any crash/restore of it) is
//! deterministic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod error;

pub mod breaker;
pub mod chaos;
pub mod checkpoint;
pub mod store;
pub mod supervisor;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use chaos::{ChaosInjector, ChaosPlan};
pub use checkpoint::{QueuedClip, SessionSnapshot, SupervisorSnapshot};
pub use error::ServeError;
pub use store::{
    CheckpointStore, CommitOutcome, CorruptReason, LoadReport, LoadedGeneration, MemStorage,
    QuarantinedGeneration, Storage, StorageFaults, StoreConfig, StoreError, StoreStats,
};
pub use supervisor::{
    AdmitOutcome, ClipAdmission, QuarantinedSession, RestoreReport, ServeConfig, ServeStats,
    SessionEvent, SessionEventKind, ShardBreakdown, ShedReason, Supervisor,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
