//! Crash-safe, generation-rotated checkpoint store.
//!
//! A [`SupervisorSnapshot`] only protects the
//! fleet if it survives the crash it was taken for. This module gives the
//! supervisor a durable home for its checkpoints with four properties:
//!
//! * **Self-validating records** — every stored generation is framed as
//!   `magic ∥ version ∥ generation ∥ payload-length ∥ payload ∥ CRC32`,
//!   so a torn write (truncated record) or a bit flip anywhere in the
//!   file is *detected* at load time, never silently restored. The
//!   payload is the snapshot's serde value tree in the binary encoding of
//!   [`encode_payload`], which keeps every `f64` bit-exact.
//! * **Generation rotation** — each commit writes a fresh
//!   `ckpt-<generation>.lmck` entry and prunes the oldest beyond a
//!   configured retention, so one corrupt write can never destroy the
//!   only copy.
//! * **Fallback + quarantine** — [`CheckpointStore::load_latest`] walks
//!   generations newest-first, quarantines every corrupt record by
//!   renaming it aside (keeping the evidence for post-mortems), and
//!   restores the newest *valid* generation.
//! * **Bounded retry** — a failed commit is retried on subsequent clock
//!   ticks with exponential backoff, up to a configured attempt budget;
//!   a newer commit supersedes an unflushed retry.
//!
//! Durability is injected through the [`Storage`] trait: [`dir::DirStorage`]
//! writes real files (tempfile + rename, the only filesystem I/O in the
//! crate), while [`MemStorage`] keeps bytes in memory and can inject
//! seeded write failures, torn writes and bit flips for chaos tests.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use crate::checkpoint::SupervisorSnapshot;
use lumen_dsp::mix::{splitmix, unit};
use lumen_obs::Recorder;
use serde::{Deserialize, Serialize};

pub mod dir;
mod payload;

pub use payload::{decode_payload, encode_payload, MAX_PAYLOAD_DEPTH};

/// Leading magic of every framed checkpoint record.
pub const MAGIC: [u8; 4] = *b"LMCK";

/// On-disk format version written into every record. Version 2 carries
/// the binary payload of [`encode_payload`]; version 1 carried JSON text
/// and is refused as [`CorruptReason::BadVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Framed header length: magic + version + generation + payload length.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// CRC32 trailer length.
const TRAILER_LEN: usize = 4;

/// Why a stored generation was rejected at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptReason {
    /// The record ends before the framed length says it should (torn
    /// write).
    Truncated,
    /// The leading magic is not [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion,
    /// The framed payload length disagrees with the record size.
    LengthMismatch,
    /// The generation framed inside the record disagrees with the entry
    /// name it was stored under.
    GenerationMismatch,
    /// The CRC32 trailer does not match the record bytes (bit flip).
    ChecksumMismatch,
    /// The checksum held but the payload does not decode to a snapshot.
    BadPayload,
    /// The storage backend could not produce the record's bytes at all.
    Unreadable,
}

impl fmt::Display for CorruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            CorruptReason::Truncated => "record truncated (torn write)",
            CorruptReason::BadMagic => "bad magic",
            CorruptReason::BadVersion => "unsupported format version",
            CorruptReason::LengthMismatch => "framed length disagrees with record size",
            CorruptReason::GenerationMismatch => "framed generation disagrees with entry name",
            CorruptReason::ChecksumMismatch => "checksum mismatch (bit flip)",
            CorruptReason::BadPayload => "payload does not decode",
            CorruptReason::Unreadable => "backend could not read the record",
        };
        f.write_str(text)
    }
}

impl std::error::Error for CorruptReason {}

/// Errors produced by the checkpoint store and its storage backends.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// A store configuration field is outside its valid domain.
    InvalidConfig {
        /// Field name.
        field: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The storage backend failed an operation.
    Io(String),
}

impl StoreError {
    /// Convenience constructor for [`StoreError::InvalidConfig`].
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        StoreError::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid store config `{field}`: {reason}")
            }
            StoreError::Io(reason) => write!(f, "storage backend failed: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Injected durability: where checkpoint records live.
///
/// Entry names are flat strings (no directories). `write` must publish
/// atomically — after a crash a record is either fully present under its
/// name or absent, though its *bytes* may still be damaged (that is what
/// the CRC framing detects).
pub trait Storage: fmt::Debug {
    /// Every entry name currently stored.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the backend cannot enumerate.
    fn list(&self) -> Result<Vec<String>, StoreError>;

    /// Reads one entry's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the entry is missing or unreadable.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;

    /// Atomically publishes `bytes` under `name`, replacing any previous
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the write fails.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Renames an entry (used to quarantine corrupt generations).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the rename fails.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError>;

    /// Removes an entry (used by retention pruning).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the removal fails.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
}

impl<S: Storage + ?Sized> Storage for &mut S {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        (**self).list()
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        (**self).read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        (**self).write(name, bytes)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        (**self).rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        (**self).remove(name)
    }
}

/// Seeded fault probabilities for [`MemStorage`].
///
/// Failure draws are pure functions of the storage seed and the write
/// ordinal, so a fleet run and its replay see identical faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageFaults {
    /// Probability a write fails loudly (backend returns an error).
    pub write_fail: f64,
    /// Probability a write silently stores a truncated record.
    pub torn_write: f64,
    /// Probability a write silently stores the record with one bit
    /// flipped.
    pub bit_flip: f64,
}

impl StorageFaults {
    /// No injected faults.
    pub fn none() -> Self {
        StorageFaults {
            write_fail: 0.0,
            torn_write: 0.0,
            bit_flip: 0.0,
        }
    }

    /// Validates the probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] for probabilities outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), StoreError> {
        for (field, p) in [
            ("write_fail", self.write_fail),
            ("torn_write", self.torn_write),
            ("bit_flip", self.bit_flip),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(StoreError::invalid_config(
                    match field {
                        "write_fail" => "write_fail",
                        "torn_write" => "torn_write",
                        _ => "bit_flip",
                    },
                    "must lie in [0, 1]",
                ));
            }
        }
        Ok(())
    }
}

/// In-memory storage backend with seeded fault injection.
///
/// The chaos layer's stand-in for a disk: it keeps every entry in a map,
/// and — when configured with [`StorageFaults`] — makes writes fail
/// loudly, tear (store a truncated record) or flip one bit, all decided
/// by a deterministic hash of the seed and the write ordinal. Entries it
/// silently damaged are remembered in [`MemStorage::sabotaged`] so chaos
/// tests can assert that every one of them was *detected* downstream.
#[derive(Debug, Clone)]
pub struct MemStorage {
    files: BTreeMap<String, Vec<u8>>,
    faults: StorageFaults,
    seed: u64,
    writes: u64,
    sabotaged: Vec<String>,
}

impl MemStorage {
    /// A fault-free in-memory backend.
    pub fn new() -> Self {
        MemStorage {
            files: BTreeMap::new(),
            faults: StorageFaults::none(),
            seed: 0,
            writes: 0,
            sabotaged: Vec::new(),
        }
    }

    /// A backend injecting `faults`, drawing decisions from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageFaults::validate`] failures.
    pub fn with_faults(seed: u64, faults: StorageFaults) -> Result<Self, StoreError> {
        faults.validate()?;
        Ok(MemStorage {
            files: BTreeMap::new(),
            faults,
            seed,
            writes: 0,
            sabotaged: Vec::new(),
        })
    }

    /// Replaces the injected fault mix mid-run. The chaos harness writes
    /// its first checkpoint fault-free so a fleet restore never has to
    /// cold-start, then turns the configured faults on.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageFaults::validate`] failures.
    pub fn set_faults(&mut self, faults: StorageFaults) -> Result<(), StoreError> {
        faults.validate()?;
        self.faults = faults;
        Ok(())
    }

    /// Entry names whose stored bytes were silently damaged (torn or
    /// bit-flipped) at write time, in write order. A name may appear more
    /// than once if rewritten; quarantine renames do not clear it.
    pub fn sabotaged(&self) -> &[String] {
        &self.sabotaged
    }

    /// Number of write operations attempted so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Current entry names (for tests).
    pub fn names(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// XORs `mask` into the byte at `index` of `name`, for corruption
    /// tests; returns whether the entry existed and was long enough.
    pub fn tamper(&mut self, name: &str, index: usize, mask: u8) -> bool {
        match self.files.get_mut(name) {
            Some(bytes) if index < bytes.len() && mask != 0 => {
                bytes[index] ^= mask;
                true
            }
            _ => false,
        }
    }

    /// Truncates the entry `name` to `len` bytes, for torn-write tests;
    /// returns whether the entry existed and was longer than `len`.
    pub fn truncate(&mut self, name: &str, len: usize) -> bool {
        match self.files.get_mut(name) {
            Some(bytes) if len < bytes.len() => {
                bytes.truncate(len);
                true
            }
            _ => false,
        }
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        MemStorage::new()
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Io(format!("no such entry `{name}`")))
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.writes += 1;
        let ordinal = self.writes;
        // Tag 0 keeps the fault stream that the chaos rows and
        // `seeded_fault_stream_is_pinned` depend on.
        if unit(splitmix(self.seed, 0, ordinal, 0)) < self.faults.write_fail {
            return Err(StoreError::Io(format!(
                "injected write failure (write #{ordinal})"
            )));
        }
        let silent = unit(splitmix(self.seed, 0, ordinal, 1));
        let mut stored = bytes.to_vec();
        if silent < self.faults.torn_write {
            // Torn write: keep a strict prefix, never the whole record.
            let cut = (splitmix(self.seed, 0, ordinal, 2) as usize) % stored.len().max(1);
            stored.truncate(cut);
            self.sabotaged.push(name.to_string());
        } else if silent < self.faults.torn_write + self.faults.bit_flip && !stored.is_empty() {
            let bit = (splitmix(self.seed, 0, ordinal, 3) as usize) % (stored.len() * 8);
            stored[bit / 8] ^= 1 << (bit % 8);
            self.sabotaged.push(name.to_string());
        }
        self.files.insert(name.to_string(), stored);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        match self.files.remove(from) {
            Some(bytes) => {
                self.files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(StoreError::Io(format!("no such entry `{from}`"))),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::Io(format!("no such entry `{name}`")))
    }
}

/// Slice-by-8 tables of the reflected IEEE CRC-32: `CRC32_TABLES[0][b]`
/// is the CRC of byte `b`, and `CRC32_TABLES[k][b]` that of `b` followed
/// by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Frames `payload` as one checkpoint record for `generation`.
pub fn encode_record(generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a framed record and returns its generation and payload.
///
/// # Errors
///
/// Returns the [`CorruptReason`] describing the first framing violation:
/// truncation, bad magic/version, a length or checksum mismatch.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, &[u8]), CorruptReason> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CorruptReason::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CorruptReason::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != FORMAT_VERSION {
        return Err(CorruptReason::BadVersion);
    }
    let generation = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let framed_len = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    let expected = (HEADER_LEN as u64)
        .saturating_add(framed_len)
        .saturating_add(TRAILER_LEN as u64);
    if (bytes.len() as u64) < expected {
        return Err(CorruptReason::Truncated);
    }
    if bytes.len() as u64 != expected {
        return Err(CorruptReason::LengthMismatch);
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let trailer = &bytes[bytes.len() - TRAILER_LEN..];
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if crc32(body) != stored {
        return Err(CorruptReason::ChecksumMismatch);
    }
    Ok((generation, &body[HEADER_LEN..]))
}

/// Retention and retry policy of a [`CheckpointStore`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Newest generations kept on storage; older ones are pruned after a
    /// successful commit.
    pub keep_generations: usize,
    /// Total write attempts per generation (first try plus retries).
    pub max_write_attempts: u32,
    /// Backoff before the first retry, ticks; doubles per attempt.
    pub retry_backoff_ticks: u64,
    /// Upper bound on the per-retry backoff, ticks.
    pub retry_backoff_cap_ticks: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            keep_generations: 3,
            max_write_attempts: 4,
            retry_backoff_ticks: 8,
            retry_backoff_cap_ticks: 64,
        }
    }
}

impl StoreConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::InvalidConfig`] for a zero retention, a zero
    /// attempt budget, a zero backoff, or a cap below the base backoff.
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.keep_generations == 0 {
            return Err(StoreError::invalid_config(
                "keep_generations",
                "a store keeping zero generations can never restore",
            ));
        }
        if self.max_write_attempts == 0 {
            return Err(StoreError::invalid_config(
                "max_write_attempts",
                "at least one write attempt is required",
            ));
        }
        if self.retry_backoff_ticks == 0 {
            return Err(StoreError::invalid_config(
                "retry_backoff_ticks",
                "must be positive",
            ));
        }
        if self.retry_backoff_cap_ticks < self.retry_backoff_ticks {
            return Err(StoreError::invalid_config(
                "retry_backoff_cap_ticks",
                "must be at least retry_backoff_ticks",
            ));
        }
        Ok(())
    }
}

/// What happened to a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The generation is durable.
    Committed {
        /// The committed generation.
        generation: u64,
    },
    /// The write failed; a retry is armed.
    Retrying {
        /// The generation awaiting its retry.
        generation: u64,
        /// Attempts made so far.
        attempt: u32,
        /// Tick at which the next attempt fires.
        next_attempt_at: u64,
    },
    /// The attempt budget is exhausted; the generation is lost.
    GaveUp {
        /// The abandoned generation.
        generation: u64,
        /// Attempts made.
        attempts: u32,
    },
}

/// Aggregate counters of a [`CheckpointStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Generations made durable.
    pub commits: u64,
    /// Write attempts the backend rejected.
    pub write_failures: u64,
    /// Retry attempts fired by [`CheckpointStore::tick`].
    pub retries: u64,
    /// Generations abandoned after exhausting the attempt budget.
    pub gave_up: u64,
    /// Pending retries dropped because a newer commit superseded them.
    pub superseded: u64,
    /// Corrupt generations quarantined at load time.
    pub quarantined: u64,
}

impl StoreStats {
    /// Sums two stat sets element-wise (chaos harnesses accumulate
    /// counters across crash incarnations of the store).
    #[must_use]
    pub fn merged(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            commits: self.commits + other.commits,
            write_failures: self.write_failures + other.write_failures,
            retries: self.retries + other.retries,
            gave_up: self.gave_up + other.gave_up,
            superseded: self.superseded + other.superseded,
            quarantined: self.quarantined + other.quarantined,
        }
    }
}

/// One corrupt generation set aside at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedGeneration {
    /// The entry name the record was stored under.
    pub name: String,
    /// Why it was rejected.
    pub reason: CorruptReason,
}

/// The generation [`CheckpointStore::load_latest`] settled on.
///
/// Generic over the snapshot payload; defaults to [`SupervisorSnapshot`]
/// so single-supervisor callers never name the parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedGeneration<T = SupervisorSnapshot> {
    /// The restored generation number.
    pub generation: u64,
    /// The decoded snapshot.
    pub snapshot: T,
    /// How many newer generations were rejected before this one (0 = the
    /// newest stored generation was valid).
    pub fallback_depth: usize,
}

/// Outcome of [`CheckpointStore::load_latest`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport<T = SupervisorSnapshot> {
    /// The newest valid generation, or `None` when nothing valid is
    /// stored.
    pub loaded: Option<LoadedGeneration<T>>,
    /// Every corrupt generation found (and quarantined) during the scan,
    /// newest first.
    pub quarantined: Vec<QuarantinedGeneration>,
}

/// A retry armed after a failed commit.
#[derive(Debug, Clone)]
struct PendingWrite {
    generation: u64,
    name: String,
    bytes: Vec<u8>,
    attempts: u32,
    next_attempt_at: u64,
}

/// Generation-rotated checkpoint store over an injected [`Storage`].
///
/// Generic over the snapshot payload it frames (any `Serialize +
/// Deserialize` type); defaults to [`SupervisorSnapshot`], the original
/// single-supervisor payload, so existing callers are unchanged. The
/// fleet runtime instantiates it with `FleetSnapshot` to persist a
/// manifest plus every shard's snapshot through the same CRC-framed,
/// generation-rotated machinery.
#[derive(Debug)]
pub struct CheckpointStore<S: Storage, T = SupervisorSnapshot> {
    storage: S,
    config: StoreConfig,
    recorder: Recorder,
    next_generation: u64,
    pending: Option<PendingWrite>,
    stats: StoreStats,
    _payload: PhantomData<fn() -> T>,
}

impl<S: Storage, T: Serialize + Deserialize> CheckpointStore<S, T> {
    /// Opens a store over `storage`, resuming generation numbering after
    /// any records already present.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreConfig::validate`] failures and backend listing
    /// errors.
    pub fn new(storage: S, config: StoreConfig) -> Result<Self, StoreError> {
        config.validate()?;
        let highest = storage
            .list()?
            .iter()
            .filter_map(|name| parse_name(name))
            .max()
            .unwrap_or(0);
        Ok(CheckpointStore {
            storage,
            config,
            recorder: Recorder::null(),
            next_generation: highest + 1,
            pending: None,
            stats: StoreStats::default(),
            _payload: PhantomData,
        })
    }

    /// Attaches a metrics recorder (`store.*` counters).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// The injected backend (chaos tests inspect sabotage records here).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Mutable access to the injected backend.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// The generation number the next [`CheckpointStore::commit`] will be
    /// assigned (chaos harnesses corrupt a snapshot for a specific
    /// generation *before* committing it).
    pub fn next_generation(&self) -> u64 {
        self.next_generation
    }

    /// Commits `snapshot` as a fresh generation at tick `now`.
    ///
    /// A failed write arms a bounded exponential-backoff retry driven by
    /// [`CheckpointStore::tick`]; an older unflushed retry is superseded
    /// (the newer snapshot strictly dominates it).
    ///
    /// # Errors
    ///
    /// None today: every snapshot encodes, and backend write failures are
    /// *not* errors — they arm the retry and report
    /// [`CommitOutcome::Retrying`].
    pub fn commit(&mut self, now: u64, snapshot: &T) -> Result<CommitOutcome, StoreError> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let name = entry_name(generation);
        let bytes = encode_record(generation, &encode_payload(snapshot));
        if self.pending.take().is_some() {
            self.stats.superseded += 1;
            self.recorder.add("store.superseded", 1);
        }
        match self.storage.write(&name, &bytes) {
            Ok(()) => {
                self.stats.commits += 1;
                self.recorder.add("store.commit", 1);
                self.prune();
                Ok(CommitOutcome::Committed { generation })
            }
            Err(_) => {
                self.stats.write_failures += 1;
                self.recorder.add("store.write_failure", 1);
                let next_attempt_at = now.saturating_add(self.backoff(1));
                self.pending = Some(PendingWrite {
                    generation,
                    name,
                    bytes,
                    attempts: 1,
                    next_attempt_at,
                });
                Ok(CommitOutcome::Retrying {
                    generation,
                    attempt: 1,
                    next_attempt_at,
                })
            }
        }
    }

    /// Drives the pending retry, if one is due at tick `now`.
    pub fn tick(&mut self, now: u64) -> Option<CommitOutcome> {
        let due = self
            .pending
            .as_ref()
            .is_some_and(|p| now >= p.next_attempt_at);
        if !due {
            return None;
        }
        let mut p = self.pending.take()?;
        self.stats.retries += 1;
        self.recorder.add("store.retry", 1);
        match self.storage.write(&p.name, &p.bytes) {
            Ok(()) => {
                self.stats.commits += 1;
                self.recorder.add("store.commit", 1);
                self.prune();
                Some(CommitOutcome::Committed {
                    generation: p.generation,
                })
            }
            Err(_) => {
                self.stats.write_failures += 1;
                self.recorder.add("store.write_failure", 1);
                p.attempts += 1;
                if p.attempts >= self.config.max_write_attempts {
                    self.stats.gave_up += 1;
                    self.recorder.add("store.gave_up", 1);
                    Some(CommitOutcome::GaveUp {
                        generation: p.generation,
                        attempts: p.attempts,
                    })
                } else {
                    p.next_attempt_at = now.saturating_add(self.backoff(p.attempts));
                    let out = CommitOutcome::Retrying {
                        generation: p.generation,
                        attempt: p.attempts,
                        next_attempt_at: p.next_attempt_at,
                    };
                    self.pending = Some(p);
                    Some(out)
                }
            }
        }
    }

    /// Finds the newest *valid* generation, quarantining every corrupt
    /// record encountered on the way (renamed aside with a `.quarantined`
    /// suffix, so the evidence survives for post-mortems).
    ///
    /// # Errors
    ///
    /// Propagates backend listing failures. Corrupt records are never
    /// errors — they are quarantined and reported.
    pub fn load_latest(&mut self) -> Result<LoadReport<T>, StoreError> {
        let mut entries: Vec<(u64, String)> = self
            .storage
            .list()?
            .into_iter()
            .filter_map(|name| parse_name(&name).map(|generation| (generation, name)))
            .collect();
        entries.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
        let mut quarantined = Vec::new();
        for (depth, (generation, name)) in entries.into_iter().enumerate() {
            let reason = match self.storage.read(&name) {
                Err(_) => CorruptReason::Unreadable,
                Ok(bytes) => match decode_record(&bytes) {
                    Err(reason) => reason,
                    Ok((framed_generation, _)) if framed_generation != generation => {
                        CorruptReason::GenerationMismatch
                    }
                    Ok((_, payload)) => match decode_payload(payload) {
                        Err(reason) => reason,
                        Ok(snapshot) => {
                            return Ok(LoadReport {
                                loaded: Some(LoadedGeneration {
                                    generation,
                                    snapshot,
                                    fallback_depth: depth,
                                }),
                                quarantined,
                            });
                        }
                    },
                },
            };
            self.quarantine(&name, reason, &mut quarantined);
        }
        Ok(LoadReport {
            loaded: None,
            quarantined,
        })
    }

    fn quarantine(
        &mut self,
        name: &str,
        reason: CorruptReason,
        out: &mut Vec<QuarantinedGeneration>,
    ) {
        // Best effort: a failed rename still quarantines logically — the
        // record stays reported and will simply be rejected again next
        // scan.
        let _ = self.storage.rename(name, &format!("{name}.quarantined"));
        self.stats.quarantined += 1;
        self.recorder.add("store.quarantined", 1);
        out.push(QuarantinedGeneration {
            name: name.to_string(),
            reason,
        });
    }

    /// Removes generations beyond the retention window (best effort).
    fn prune(&mut self) {
        let Ok(listed) = self.storage.list() else {
            return;
        };
        let mut generations: Vec<(u64, String)> = listed
            .into_iter()
            .filter_map(|name| parse_name(&name).map(|generation| (generation, name)))
            .collect();
        generations.sort_by_key(|&(generation, _)| std::cmp::Reverse(generation));
        for (_, name) in generations.into_iter().skip(self.config.keep_generations) {
            // lint:allow(error-swallowing): pruning is documented
            // best-effort; a generation that refuses to die is retried on
            // the next checkpoint and never affects the active stream
            let _ = self.storage.remove(&name);
        }
    }

    /// Exponential backoff before attempt `attempts + 1`, capped.
    fn backoff(&self, attempts: u32) -> u64 {
        let doublings = attempts.saturating_sub(1).min(32);
        self.config
            .retry_backoff_ticks
            .saturating_mul(1u64 << doublings)
            .min(self.config.retry_backoff_cap_ticks)
    }
}

/// Entry name of a generation (zero-padded so lexicographic order is
/// numeric order).
pub fn entry_name(generation: u64) -> String {
    format!("ckpt-{generation:020}.lmck")
}

/// Parses a generation number out of an [`entry_name`]-shaped name.
pub fn parse_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".lmck")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::ServeStats;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-32 that [`crc32`] must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    fn empty_snapshot(tick: u64) -> SupervisorSnapshot {
        SupervisorSnapshot {
            tick,
            credits: 0,
            cursor: 0,
            next_id: 1,
            stats: ServeStats::default(),
            latencies: Vec::new(),
            sessions: Vec::new(),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_loop(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            skip in 0usize..8,
        ) {
            // Every length and every start offset modulo the 8-byte step.
            let bytes = &bytes[skip.min(bytes.len())..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn version_one_record_is_quarantined_as_bad_version() {
        // A version-1 record framed JSON text; the store no longer reads
        // it, and says why.
        let mut record = encode_record(1, br#"{"tick":0,"credits":0}"#);
        record[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body = record.len() - TRAILER_LEN;
        let crc = crc32(&record[..body]);
        record[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_record(&record), Err(CorruptReason::BadVersion));
        let mut storage = MemStorage::new();
        storage.write(&entry_name(1), &record).unwrap();
        let mut store: CheckpointStore<_, SupervisorSnapshot> =
            CheckpointStore::new(storage, StoreConfig::default()).unwrap();
        let report = store.load_latest().unwrap();
        assert!(report.loaded.is_none());
        assert_eq!(
            report.quarantined,
            [QuarantinedGeneration {
                name: entry_name(1),
                reason: CorruptReason::BadVersion,
            }]
        );
    }

    #[test]
    fn undecodable_payload_is_quarantined_as_bad_payload() {
        let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        store.commit(1, &empty_snapshot(1)).unwrap();
        let record = encode_record(2, &encode_payload(&"not a snapshot"));
        store.storage_mut().write(&entry_name(2), &record).unwrap();
        let report = store.load_latest().unwrap();
        assert_eq!(report.loaded.unwrap().generation, 1);
        assert_eq!(report.quarantined[0].reason, CorruptReason::BadPayload);
    }

    #[test]
    fn record_round_trips() {
        let payload = b"{\"x\":1}";
        let framed = encode_record(42, payload);
        let (generation, back) = decode_record(&framed).unwrap();
        assert_eq!(generation, 42);
        assert_eq!(back, payload);
    }

    #[test]
    fn decode_rejects_each_framing_violation() {
        let framed = encode_record(7, b"payload");
        assert_eq!(decode_record(&framed[..10]), Err(CorruptReason::Truncated));
        let mut bad_magic = framed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(decode_record(&bad_magic), Err(CorruptReason::BadMagic));
        let mut bad_version = framed.clone();
        bad_version[4] = 99;
        assert_eq!(decode_record(&bad_version), Err(CorruptReason::BadVersion));
        let mut flipped = framed.clone();
        let last = flipped.len() - 10;
        flipped[last] ^= 0x01;
        assert_eq!(
            decode_record(&flipped),
            Err(CorruptReason::ChecksumMismatch)
        );
        let mut longer = framed.clone();
        longer.push(0);
        assert_eq!(decode_record(&longer), Err(CorruptReason::LengthMismatch));
        let truncated = &framed[..framed.len() - 1];
        assert_eq!(decode_record(truncated), Err(CorruptReason::Truncated));
    }

    #[test]
    fn entry_names_sort_and_parse() {
        assert_eq!(parse_name(&entry_name(12)), Some(12));
        assert!(entry_name(9) < entry_name(10));
        assert_eq!(parse_name("ckpt-junk.lmck"), None);
        assert_eq!(parse_name("other"), None);
        assert_eq!(
            parse_name(&format!("{}.quarantined", entry_name(3))),
            None,
            "quarantined records leave the rotation"
        );
    }

    #[test]
    fn commit_load_round_trip() {
        let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        let out = store.commit(5, &empty_snapshot(5)).unwrap();
        assert_eq!(out, CommitOutcome::Committed { generation: 1 });
        let report = store.load_latest().unwrap();
        let loaded = report.loaded.unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.snapshot, empty_snapshot(5));
        assert_eq!(loaded.fallback_depth, 0);
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn rotation_prunes_old_generations() {
        let config = StoreConfig {
            keep_generations: 2,
            ..StoreConfig::default()
        };
        let mut store = CheckpointStore::new(MemStorage::new(), config).unwrap();
        for tick in 0..5 {
            store.commit(tick, &empty_snapshot(tick)).unwrap();
        }
        let names = store.storage().names();
        assert_eq!(names, vec![entry_name(4), entry_name(5)]);
    }

    #[test]
    fn corrupt_newest_falls_back_and_quarantines() {
        let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        store.commit(1, &empty_snapshot(1)).unwrap();
        store.commit(2, &empty_snapshot(2)).unwrap();
        assert!(store.storage_mut().tamper(&entry_name(2), 30, 0x40));
        let report = store.load_latest().unwrap();
        let loaded = report.loaded.unwrap();
        assert_eq!(loaded.generation, 1, "fell back to the older generation");
        assert_eq!(loaded.fallback_depth, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(
            report.quarantined[0].reason,
            CorruptReason::ChecksumMismatch
        );
        // The corrupt record was renamed aside, not deleted.
        let names = store.storage().names();
        assert!(names.contains(&format!("{}.quarantined", entry_name(2))));
        assert!(!names.contains(&entry_name(2)));
    }

    #[test]
    fn no_valid_generation_reports_empty() {
        let mut store = CheckpointStore::new(MemStorage::new(), StoreConfig::default()).unwrap();
        store.commit(1, &empty_snapshot(1)).unwrap();
        assert!(store.storage_mut().truncate(&entry_name(1), 9));
        let report = store.load_latest().unwrap();
        assert!(report.loaded.is_none());
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, CorruptReason::Truncated);
    }

    #[test]
    fn failed_commit_retries_with_backoff_then_succeeds() {
        // write_fail = 1.0 fails every write; drop it to zero after two
        // attempts by swapping the backend's faults via direct access.
        let storage = MemStorage::with_faults(
            9,
            StorageFaults {
                write_fail: 1.0,
                torn_write: 0.0,
                bit_flip: 0.0,
            },
        )
        .unwrap();
        let config = StoreConfig {
            retry_backoff_ticks: 4,
            retry_backoff_cap_ticks: 16,
            max_write_attempts: 5,
            ..StoreConfig::default()
        };
        let mut store = CheckpointStore::new(storage, config).unwrap();
        let out = store.commit(100, &empty_snapshot(100)).unwrap();
        assert_eq!(
            out,
            CommitOutcome::Retrying {
                generation: 1,
                attempt: 1,
                next_attempt_at: 104
            }
        );
        assert_eq!(store.tick(103), None, "not due yet");
        let out = store.tick(104).unwrap();
        assert_eq!(
            out,
            CommitOutcome::Retrying {
                generation: 1,
                attempt: 2,
                next_attempt_at: 112
            },
            "second failure doubles the backoff"
        );
        // Heal the backend; the due retry now lands.
        store.storage_mut().faults = StorageFaults::none();
        let out = store.tick(112).unwrap();
        assert_eq!(out, CommitOutcome::Committed { generation: 1 });
        assert!(store.load_latest().unwrap().loaded.is_some());
        assert_eq!(store.stats().retries, 2);
        assert_eq!(store.stats().write_failures, 2);
    }

    #[test]
    fn retry_budget_exhausts_to_gave_up() {
        let storage = MemStorage::with_faults(
            9,
            StorageFaults {
                write_fail: 1.0,
                torn_write: 0.0,
                bit_flip: 0.0,
            },
        )
        .unwrap();
        let config = StoreConfig {
            max_write_attempts: 2,
            retry_backoff_ticks: 1,
            retry_backoff_cap_ticks: 1,
            ..StoreConfig::default()
        };
        let mut store = CheckpointStore::new(storage, config).unwrap();
        store.commit(0, &empty_snapshot(0)).unwrap();
        let out = store.tick(10).unwrap();
        assert_eq!(
            out,
            CommitOutcome::GaveUp {
                generation: 1,
                attempts: 2
            }
        );
        assert_eq!(store.pending.as_ref().map(|p| p.generation), None);
        assert_eq!(store.stats().gave_up, 1);
    }

    #[test]
    fn newer_commit_supersedes_pending_retry() {
        let storage = MemStorage::with_faults(
            3,
            StorageFaults {
                write_fail: 1.0,
                torn_write: 0.0,
                bit_flip: 0.0,
            },
        )
        .unwrap();
        let mut store = CheckpointStore::new(storage, StoreConfig::default()).unwrap();
        store.commit(0, &empty_snapshot(0)).unwrap();
        assert_eq!(store.pending.as_ref().map(|p| p.generation), Some(1));
        store.storage_mut().faults = StorageFaults::none();
        let out = store.commit(1, &empty_snapshot(1)).unwrap();
        assert_eq!(out, CommitOutcome::Committed { generation: 2 });
        assert_eq!(store.pending.as_ref().map(|p| p.generation), None);
        assert_eq!(store.stats().superseded, 1);
    }

    #[test]
    fn generation_numbering_resumes_after_reopen() {
        let mut storage = MemStorage::new();
        {
            let mut store = CheckpointStore::new(&mut storage, StoreConfig::default()).unwrap();
            store.commit(0, &empty_snapshot(0)).unwrap();
            store.commit(1, &empty_snapshot(1)).unwrap();
        }
        let store: CheckpointStore<_, SupervisorSnapshot> =
            CheckpointStore::new(&mut storage, StoreConfig::default()).unwrap();
        assert_eq!(store.next_generation, 3);
    }

    #[test]
    fn seeded_faults_are_deterministic_and_tracked() {
        let faults = StorageFaults {
            write_fail: 0.2,
            torn_write: 0.2,
            bit_flip: 0.2,
        };
        let run = |seed: u64| {
            let mut s = MemStorage::with_faults(seed, faults).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..50u64 {
                outcomes.push(s.write(&format!("e{i}"), b"0123456789abcdef").is_ok());
            }
            (outcomes, s.sabotaged().to_vec())
        };
        assert_eq!(run(7), run(7), "same seed, same faults");
        assert_ne!(run(7), run(8), "different seed, different faults");
        let (_, sabotaged) = run(7);
        assert!(!sabotaged.is_empty(), "some writes were silently damaged");
    }

    #[test]
    fn seeded_fault_stream_is_pinned() {
        // The chaos experiment's checked-in rows depend on exactly which
        // writes fail, tear or flip, and where: pin the stream itself.
        let faults = StorageFaults {
            write_fail: 0.2,
            torn_write: 0.2,
            bit_flip: 0.2,
        };
        let mut s = MemStorage::with_faults(0x5EED_CAFE, faults).unwrap();
        let record: Vec<u8> = (0..40).collect();
        let outcomes: Vec<String> = (0..32)
            .map(|i| {
                let name = format!("e{i}");
                if s.write(&name, &record).is_err() {
                    return "fail".to_string();
                }
                let stored = s.read(&name).unwrap();
                if stored.len() < record.len() {
                    return format!("tear@{}", stored.len());
                }
                match stored.iter().zip(&record).position(|(a, b)| a != b) {
                    Some(at) => format!(
                        "flip@{}",
                        at * 8 + (stored[at] ^ record[at]).trailing_zeros() as usize
                    ),
                    None => "ok".to_string(),
                }
            })
            .collect();
        assert_eq!(
            outcomes.join(" "),
            "fail ok ok ok fail ok flip@133 flip@74 flip@21 tear@7 ok ok ok tear@13 flip@89 \
             tear@31 fail flip@46 fail fail tear@39 ok fail ok ok flip@305 fail fail ok ok ok ok"
        );
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        let bad = [
            StoreConfig {
                keep_generations: 0,
                ..StoreConfig::default()
            },
            StoreConfig {
                max_write_attempts: 0,
                ..StoreConfig::default()
            },
            StoreConfig {
                retry_backoff_ticks: 0,
                ..StoreConfig::default()
            },
            StoreConfig {
                retry_backoff_cap_ticks: 1,
                retry_backoff_ticks: 2,
                ..StoreConfig::default()
            },
        ];
        for config in bad {
            assert!(config.validate().is_err(), "{config:?}");
        }
        assert!(StorageFaults {
            write_fail: 1.5,
            ..StorageFaults::none()
        }
        .validate()
        .is_err());
    }
}
