//! Checkpoint types: the serializable image of a running supervisor.
//!
//! A checkpoint captures every piece of *mutable* runtime state — the
//! clock tick, budget credits, fairness cursor, aggregate stats, and per
//! session the pending-clip queue, the breaker position and the
//! [`StreamSnapshot`] of the detector, which holds the session's partial
//! clip — but no trained model: models are immutable and deterministically
//! re-trainable, so [`Supervisor::restore`](crate::Supervisor::restore)
//! takes a factory that rebuilds them and grafts the snapshot state back
//! on. The partial clip is validated in one place,
//! [`StreamingDetector::restore`]. Restoring a mid-clip checkpoint and
//! replaying the remaining samples yields a byte-identical verdict
//! sequence (see `tests/checkpoint.rs`).
//!
//! [`StreamingDetector::restore`]: lumen_core::stream::StreamingDetector::restore

use crate::breaker::BreakerState;
use crate::supervisor::{ServeStats, ShedReason};
use lumen_core::stream::StreamSnapshot;
use lumen_probe::ProbeDirector;
use serde::{Deserialize, Serialize, Value};

/// One entry of a session's pending-clip queue: a completed clip awaiting
/// detection, or the ordering tombstone of a shed decided at completion
/// time, which holds the clip's place in the verdict stream and costs no
/// detection budget. The supervisor queues and checkpoints this one type.
#[derive(Debug, Clone, PartialEq)]
pub enum QueuedClip {
    /// A completed clip awaiting detection.
    Clip {
        /// Transmitted-side samples of the clip.
        tx: Vec<f64>,
        /// Received-side samples of the clip.
        rx: Vec<f64>,
        /// Tick at which the clip completed.
        completed_at: u64,
    },
    /// A shed decided at completion time, awaiting its verdict-stream
    /// slot.
    Tombstone {
        /// Why the clip was shed.
        reason: ShedReason,
    },
}

// The vendored serde derive handles unit-variant enums only; the queue
// entry serializes by hand as a kind-tagged object.
impl Serialize for QueuedClip {
    fn serialize(&self) -> Value {
        match self {
            QueuedClip::Clip {
                tx,
                rx,
                completed_at,
            } => Value::Object(vec![
                ("kind".to_string(), Value::String("clip".to_string())),
                ("tx".to_string(), tx.serialize()),
                ("rx".to_string(), rx.serialize()),
                ("completed_at".to_string(), completed_at.serialize()),
            ]),
            QueuedClip::Tombstone { reason } => Value::Object(vec![
                ("kind".to_string(), Value::String("tombstone".to_string())),
                ("reason".to_string(), reason.serialize()),
            ]),
        }
    }
}

impl Deserialize for QueuedClip {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let kind = v.field("kind")?.as_str()?;
        match kind {
            "clip" => Ok(QueuedClip::Clip {
                tx: Vec::<f64>::deserialize(v.field("tx")?)?,
                rx: Vec::<f64>::deserialize(v.field("rx")?)?,
                completed_at: u64::deserialize(v.field("completed_at")?)?,
            }),
            "tombstone" => Ok(QueuedClip::Tombstone {
                reason: ShedReason::deserialize(v.field("reason")?)?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown queued clip kind `{other}`"
            ))),
        }
    }
}

/// The checkpointed state of one admitted session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session id.
    pub id: u64,
    /// Pending clips and shed tombstones, front first.
    pub queue: Vec<QueuedClip>,
    /// The circuit breaker's position.
    pub breaker: BreakerState,
    /// The streaming detector's mutable state, the partial clip included.
    pub stream: StreamSnapshot,
    /// The probe director — policy, budget spent, cooldown and any
    /// in-flight challenge — for sessions admitted with active probing.
    pub probe: Option<ProbeDirector>,
}

/// The checkpointed state of a whole supervisor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorSnapshot {
    /// The supervisor clock's tick at checkpoint time.
    pub tick: u64,
    /// Unspent detection credits of the current budget period.
    pub credits: u64,
    /// The round-robin fairness cursor (last served session id).
    pub cursor: u64,
    /// The next session id to assign.
    pub next_id: u64,
    /// Aggregate counters at checkpoint time.
    pub stats: ServeStats,
    /// Served-clip latencies recorded so far, in serve order.
    pub latencies: Vec<u64>,
    /// Every admitted session, ascending by id.
    pub sessions: Vec<SessionSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_clips_round_trip_through_serde() {
        let entries = [
            QueuedClip::Clip {
                tx: vec![1.0, 2.0],
                rx: vec![3.0, 4.0],
                completed_at: 17,
            },
            QueuedClip::Tombstone {
                reason: ShedReason::QueueFull,
            },
        ];
        for entry in &entries {
            let back = QueuedClip::deserialize(&entry.serialize()).unwrap();
            assert_eq!(&back, entry);
        }
        assert!(QueuedClip::deserialize(&Value::Null).is_err());
    }
}
