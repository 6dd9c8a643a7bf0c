//! Composable fleet checkpoints: a manifest plus one
//! [`SupervisorSnapshot`] per shard.
//!
//! The fleet does not invent a new durability format. A
//! [`FleetSnapshot`] serializes through the same vendored-serde path as
//! a single supervisor's checkpoint and persists through the same
//! CRC-framed, generation-rotated
//! [`CheckpointStore`](lumen_serve::CheckpointStore) (instantiated with
//! this payload type); restore walks the shards one by one through
//! [`Supervisor::restore_with_report`](lumen_serve::Supervisor::restore_with_report),
//! so a corrupt session quarantines exactly that session on exactly its
//! shard while every other shard resumes byte-identical replay.

use crate::fleet::FleetStats;
use lumen_serve::{QuarantinedGeneration, RestoreReport, SupervisorSnapshot};
use serde::{Deserialize, Serialize};

/// Fleet-level bookkeeping stored alongside the shard snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Number of shard snapshots that follow (restore refuses a manifest
    /// whose shard count disagrees with the restoring config — resharding
    /// is a migration, not a restore).
    pub shards: u64,
    /// The fleet seed (partitioning is derived from it, so it must
    /// survive the crash for placements to stay stable).
    pub seed: u64,
    /// Fleet clock tick at checkpoint time (shards tick in lockstep).
    pub tick: u64,
    /// Admission-bucket level at checkpoint time.
    pub admission_tokens: f64,
    /// Fleet-tier counters (admission, stealing) at checkpoint time.
    pub stats: FleetStats,
}

/// The checkpointed state of a whole fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Fleet-level bookkeeping.
    pub manifest: FleetManifest,
    /// Per-shard supervisor checkpoints, in shard order.
    pub shards: Vec<SupervisorSnapshot>,
}

/// Outcome of a fleet restore: one [`RestoreReport`] per shard plus the
/// store-level fallback bookkeeping when the snapshot came through a
/// checkpoint store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRestoreReport {
    /// Per-shard restore reports, in shard order. Session ids inside are
    /// *local* to their shard; [`FleetRestoreReport::quarantined_sessions`]
    /// translates to fleet ids.
    pub shards: Vec<RestoreReport>,
    /// The checkpoint generation actually restored, when the fleet came
    /// back through a checkpoint store.
    pub fallback_generation: Option<u64>,
    /// Newer generations rejected before the restored one.
    pub fallback_depth: usize,
    /// Corrupt generations the store quarantined during the load.
    pub generation_quarantines: Vec<QuarantinedGeneration>,
}

impl FleetRestoreReport {
    /// Total sessions restored intact across all shards.
    pub fn restored_sessions(&self) -> usize {
        self.shards.iter().map(|r| r.restored.len()).sum()
    }

    /// Fleet-scoped ids of every quarantined session, in shard order.
    pub fn quarantined_sessions(&self) -> Vec<u64> {
        let shards = self.shards.len() as u64;
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.quarantined.iter().map(move |q| q.id * shards + i as u64))
            .collect()
    }
}
