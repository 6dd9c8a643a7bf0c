//! Sharded multi-supervisor runtime for the Lumen defense.
//!
//! One [`Supervisor`](lumen_serve::Supervisor) runs a round-robin serve
//! loop over one clip budget — the right shape for dozens of sessions,
//! not for the ROADMAP's "millions of users". This crate scales that
//! runtime *horizontally* without giving up any of its guarantees:
//!
//! * **Seeded sharding** ([`Partitioner`]) — sessions hash-partition
//!   onto N supervisor shards by a stable key; the hash seed comes from
//!   a SUBSTREAMS-registered substream, so placement is deterministic,
//!   auditable, and identical across restores and reference runs.
//! * **Fleet admission** ([`FleetConfig::admission`]) — a deterministic
//!   token bucket above the shards bounds session-creation rate; every
//!   refusal is a typed [`FleetAdmitOutcome`] and a counted shed, so the
//!   global identity `served + shed == offered` survives summation
//!   across shards.
//! * **Work stealing** — idle shards donate unspent credits to the
//!   hottest backlogged shard after every tick; each donation is
//!   bounded, counted and obs-marked, and the conservation ledger
//!   `offered == served + shed + in_flight` ([`Fleet::ledger`]) holds
//!   exactly throughout.
//! * **Composable checkpoints** ([`FleetSnapshot`]) — a manifest plus
//!   per-shard supervisor snapshots, persisted through the existing
//!   CRC-framed [`CheckpointStore`](lumen_serve::CheckpointStore) and
//!   restored shard-by-shard with per-session quarantine.
//!
//! [`Fleet::tick`] steps the shards serially, in shard order, on the
//! caller's thread: the one stepping path, so every run is deterministic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod admission;
mod error;
mod fleet;

pub mod config;
pub mod partition;
pub mod snapshot;

pub use admission::AdmissionBucket;
pub use config::{AdmissionConfig, FleetConfig};
pub use error::FleetError;
pub use fleet::{ConservationLedger, Fleet, FleetAdmitOutcome, FleetEvent, FleetStats};
pub use lumen_serve::ShardBreakdown;
pub use partition::{Partitioner, PARTITION_SUBSTREAM};
pub use snapshot::{FleetManifest, FleetRestoreReport, FleetSnapshot};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FleetError>;
