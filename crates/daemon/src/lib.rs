//! # lumen-daemon — `lumend`, the hardened serving surface
//!
//! Everything else in this workspace runs inside experiment binaries that
//! own their sessions from birth to death. This crate is the real serving
//! surface the paper's premise demands: a daemon that keeps producing
//! verdicts inside the real-time envelope while callers connect,
//! misbehave, and disconnect — and while the daemon itself is killed and
//! restored mid-traffic.
//!
//! The pieces, bottom-up:
//!
//! - [`wire`] — the length-prefixed, CRC-32-framed binary protocol
//!   (`MAGIC ∥ version ∥ type ∥ len ∥ payload ∥ CRC-32`), hand-rolled in
//!   the style of the checkpoint store's record framing. Total decoder:
//!   torn prefixes wait, corruption fails typed, nothing panics.
//! - [`limiter`] — deterministic per-connection token buckets (refill per
//!   event-loop turn, never wall clock).
//! - [`transport`] — the sanctioned `std::net` boundary (non-blocking
//!   loopback TCP), fenced by the `no-net` lumen-lint rule.
//! - [`daemon`] — the single-threaded event loop around a
//!   [`lumen_serve::Supervisor`]: admission, sample ingestion,
//!   verdict/probe streaming, typed disconnects, checkpointing and
//!   graceful drain.
//! - [`client`] — the load-generator side: a thin typed-frame client the
//!   loopback experiments and the kill/restore soak drive.
//!
//! The invariant the whole crate is built to keep: the wire layer adds
//! *zero* slack to the supervisor's exact `served + shed == offered`
//! accounting — every session event is delivered, parked for a resumable
//! session, or counted as orphaned, and the soak proves verdict streams
//! stay byte-identical across ≥ 3 mid-traffic kill/restore cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod daemon;
pub mod limiter;
pub mod transport;
pub mod wire;

pub use client::DaemonClient;
pub use daemon::{Daemon, DaemonConfig, DetectorFactory, DrainReport, WireStats};
pub use limiter::TokenBucket;
pub use wire::{Decoder, DisconnectCause, Frame, RejectCode, WireError, WireTrace, WireVerdict};

/// Everything that can fail in the daemon crate.
#[derive(Debug)]
pub enum DaemonError {
    /// An unexpected transport failure (bind, accept, hard read/write).
    Io(String),
    /// The peer byte stream failed to decode (client side; the daemon
    /// maps wire errors to typed disconnects instead).
    Wire(wire::WireError),
    /// The wrapped supervisor refused an operation.
    Serve(lumen_serve::ServeError),
    /// A graceful drain did not complete within its turn budget.
    DrainStalled {
        /// Turns spent draining.
        turns: u64,
        /// Clips still pending when the budget ran out.
        pending: usize,
    },
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(msg) => write!(f, "transport: {msg}"),
            DaemonError::Wire(e) => write!(f, "wire: {e}"),
            DaemonError::Serve(e) => write!(f, "serve: {e}"),
            DaemonError::DrainStalled { turns, pending } => {
                write!(
                    f,
                    "drain stalled after {turns} turns with {pending} clips pending"
                )
            }
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Wire(e) => Some(e),
            DaemonError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wire::WireError> for DaemonError {
    fn from(e: wire::WireError) -> Self {
        DaemonError::Wire(e)
    }
}

impl From<lumen_serve::ServeError> for DaemonError {
    fn from(e: lumen_serve::ServeError) -> Self {
        DaemonError::Serve(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DaemonError>;
