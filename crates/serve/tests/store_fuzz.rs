//! Corruption fuzz for the checkpoint store's framing and fallback: any
//! single-byte flip of a stored generation — and any torn-write prefix —
//! must be *detected*, never silently restored. The CRC-32 trailer covers
//! the whole header and payload, so a flip anywhere in the record breaks
//! validation; a flip in the trailer breaks the stored checksum itself.
//!
//! Behind the CRC sits the payload decoder, which must be total on its
//! own: bytes that pass the checksum but are not a snapshot never panic,
//! never allocate what a length prefix claims before the bytes are there,
//! and are quarantined as `BadPayload`.

use std::sync::OnceLock;

use lumen_chat::scenario::ScenarioBuilder;
use lumen_core::detector::Detector;
use lumen_core::stream::StreamingDetector;
use lumen_core::Config;
use lumen_serve::store::{
    decode_payload, decode_record, encode_payload, encode_record, entry_name, Storage,
    MAX_PAYLOAD_DEPTH,
};
use lumen_serve::{
    CheckpointStore, CorruptReason, LoadReport, MemStorage, ServeConfig, StoreConfig, Supervisor,
    SupervisorSnapshot,
};
use proptest::prelude::*;
use serde::{Number, Value};

/// A store holding two committed generations of an (empty) supervisor
/// snapshot — generation 2 is the newest, generation 1 the fallback.
fn two_generation_store() -> CheckpointStore<MemStorage> {
    let sup = Supervisor::new(ServeConfig::default()).expect("default config");
    let mut store =
        CheckpointStore::new(MemStorage::new(), StoreConfig::default()).expect("default store");
    store.commit(0, &sup.snapshot()).expect("first commit");
    store.commit(1, &sup.snapshot()).expect("second commit");
    store
}

/// Two committed generations of a real supervisor: three sessions
/// started 40 samples apart, so each commit catches every session at a
/// different point of its clip, with clips served, queued behind the
/// budget and partly filled.
struct RealRecords {
    /// The snapshot of generation 1, the fallback.
    first: SupervisorSnapshot,
    /// Generations 1 and 2, as stored.
    records: [Vec<u8>; 2],
}

fn real_records() -> &'static RealRecords {
    static RECORDS: OnceLock<RealRecords> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let chats = ScenarioBuilder::default();
        let training: Vec<_> = (0..8)
            .map(|i| chats.legitimate(0, 64_000 + i).expect("training trace"))
            .collect();
        let detector =
            Detector::train_from_traces(&training, Config::default()).expect("training succeeds");
        let config = ServeConfig {
            max_sessions: 3,
            budget_clips: 1,
            budget_period_ticks: 100,
            deadline_ticks: 10_000,
            ..ServeConfig::default()
        };
        let mut sup = Supervisor::new(config).expect("valid config");
        let pairs: Vec<_> = (0..3)
            .map(|s| chats.legitimate(0, 65_000 + s).expect("session trace"))
            .collect();
        for _ in &pairs {
            let stream = StreamingDetector::new(detector.clone(), 15.0, 3).expect("valid stream");
            sup.admit(stream).session().expect("admitted");
        }
        let mut store =
            CheckpointStore::new(MemStorage::new(), StoreConfig::default()).expect("default store");
        let mut first = None;
        for step in 0..290usize {
            for (s, pair) in pairs.iter().enumerate() {
                if let Some(i) = step.checked_sub(40 * s) {
                    let i = i % pair.tx.len();
                    sup.offer(s as u64, pair.tx.samples()[i], pair.rx.samples()[i])
                        .expect("offer succeeds");
                }
            }
            sup.tick();
            if step == 239 {
                let snap = sup.snapshot();
                store.commit(sup.tick_now(), &snap).expect("first commit");
                first = Some(snap);
            }
        }
        store
            .commit(sup.tick_now(), &sup.snapshot())
            .expect("second commit");
        let first = first.expect("committed at step 239");
        assert!(first
            .sessions
            .iter()
            .all(|s| !s.stream.tx_buffer.is_empty()));
        assert!(first.sessions.iter().any(|s| !s.queue.is_empty()));
        let read = |generation| {
            store
                .storage()
                .read(&entry_name(generation))
                .expect("stored")
        };
        RealRecords {
            first,
            records: [read(1), read(2)],
        }
    })
}

/// A store holding both [`real_records`], generation 2 damaged by `damage`.
fn load_damaged_real(damage: impl FnOnce(&mut Vec<u8>)) -> LoadReport {
    let real = real_records();
    let mut storage = MemStorage::new();
    let mut newest = real.records[1].clone();
    damage(&mut newest);
    storage
        .write(&entry_name(1), &real.records[0])
        .expect("in memory");
    storage.write(&entry_name(2), &newest).expect("in memory");
    let mut store = CheckpointStore::new(storage, StoreConfig::default()).expect("default store");
    store.load_latest().expect("listing never fails in memory")
}

/// Loads `payload` framed as the only generation of a fresh store.
fn load_framed(payload: &[u8]) -> LoadReport {
    let mut storage = MemStorage::new();
    storage
        .write(&entry_name(1), &encode_record(1, payload))
        .expect("in memory");
    let mut store = CheckpointStore::new(storage, StoreConfig::default()).expect("default store");
    store.load_latest().expect("listing never fails in memory")
}

fn quarantined_as(report: &LoadReport, reason: CorruptReason) -> bool {
    report.loaded.is_none()
        && report.quarantined.len() == 1
        && report.quarantined[0].reason == reason
}

/// Containers nested `depth` deep around a null.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Null, |inner, _| Value::Array(vec![inner]))
}

#[test]
fn real_record_fails_decode_under_every_single_byte_flip_and_cut() {
    let record = &real_records().records[1];
    for index in 0..record.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut flipped = record.clone();
            flipped[index] ^= mask;
            assert!(
                decode_record(&flipped).is_err(),
                "flip {mask:#x} at {index}"
            );
        }
        assert!(decode_record(&record[..index]).is_err(), "cut at {index}");
    }
}

#[test]
fn length_prefixes_past_the_end_are_refused_before_allocating() {
    // A string, an array, a float run and an object, each with its
    // length prefix (bytes 1..9, after the tag) overwritten. A count of
    // 2^60 values cannot be allocated at all, so reaching the assertion
    // shows the count was refused first.
    let containers = [
        Value::String("abc".into()),
        Value::Array(vec![Value::Null, Value::Null]),
        Value::Array(vec![Value::Number(Number::F64(1.0)); 2]),
        Value::Object(vec![("a".into(), Value::Null)]),
    ];
    for container in containers {
        let valid = encode_payload(&container);
        assert_eq!(decode_payload::<Value>(&valid), Ok(container.clone()));
        let left = (valid.len() - 9) as u64;
        for count in [left + 1, 1 << 60, u64::MAX] {
            let mut bytes = valid.clone();
            bytes[1..9].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                decode_payload::<Value>(&bytes),
                Err(CorruptReason::BadPayload),
                "{container:?} with count {count}"
            );
            assert!(quarantined_as(
                &load_framed(&bytes),
                CorruptReason::BadPayload
            ));
        }
    }
}

#[test]
fn nesting_one_level_past_the_bound_is_refused() {
    let deepest = encode_payload(&nested(MAX_PAYLOAD_DEPTH));
    assert_eq!(
        decode_payload::<Value>(&deepest),
        Ok(nested(MAX_PAYLOAD_DEPTH))
    );
    let too_deep = encode_payload(&nested(MAX_PAYLOAD_DEPTH + 1));
    assert_eq!(
        decode_payload::<Value>(&too_deep),
        Err(CorruptReason::BadPayload)
    );
    assert!(quarantined_as(
        &load_framed(&too_deep),
        CorruptReason::BadPayload
    ));
}

proptest! {
    /// Flipping any single byte of a framed record anywhere — magic,
    /// version, generation, length, payload or trailer — fails decoding.
    #[test]
    fn any_single_byte_flip_fails_decode(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        generation in any::<u64>(),
        index in any::<usize>(),
        mask in 1u8..,
    ) {
        let mut record = encode_record(generation, &payload);
        let index = index % record.len();
        record[index] ^= mask;
        prop_assert!(decode_record(&record).is_err());
    }

    /// Any strict prefix of a framed record fails decoding (a torn write
    /// never yields a shorter-but-valid record).
    #[test]
    fn any_torn_prefix_fails_decode(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        generation in any::<u64>(),
        cut in any::<usize>(),
    ) {
        let record = encode_record(generation, &payload);
        let cut = cut % record.len();
        prop_assert!(decode_record(&record[..cut]).is_err());
    }

    /// Arbitrary garbage never decodes by accident (and never panics).
    #[test]
    fn garbage_never_decodes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert!(decode_record(&bytes).is_err());
    }

    /// End to end: flip one byte of the newest stored generation, then
    /// restore. The store must quarantine the damaged record and fall
    /// back to the older valid generation — never load the damaged one.
    #[test]
    fn flipped_generation_is_quarantined_and_fallen_back(
        index in any::<usize>(),
        mask in 1u8..,
    ) {
        let mut store = two_generation_store();
        let len = store
            .storage()
            .read(&entry_name(2))
            .expect("generation 2 stored")
            .len();
        prop_assert!(store.storage_mut().tamper(&entry_name(2), index % len, mask));
        let report = store.load_latest().expect("listing never fails in memory");
        let loaded = report.loaded.expect("generation 1 is intact");
        prop_assert_eq!(loaded.generation, 1);
        prop_assert_eq!(loaded.fallback_depth, 1);
        prop_assert_eq!(report.quarantined.len(), 1);
        prop_assert_eq!(&report.quarantined[0].name, &entry_name(2));
    }

    /// End to end: tear the newest stored generation to any strict
    /// prefix, then restore — same quarantine-and-fallback guarantee.
    #[test]
    fn torn_generation_is_quarantined_and_fallen_back(cut in any::<usize>()) {
        let mut store = two_generation_store();
        let len = store
            .storage()
            .read(&entry_name(2))
            .expect("generation 2 stored")
            .len();
        prop_assert!(store.storage_mut().truncate(&entry_name(2), cut % len));
        let report = store.load_latest().expect("listing never fails in memory");
        let loaded = report.loaded.expect("generation 1 is intact");
        prop_assert_eq!(loaded.generation, 1);
        prop_assert_eq!(loaded.fallback_depth, 1);
        prop_assert_eq!(report.quarantined.len(), 1);
        prop_assert_eq!(&report.quarantined[0].name, &entry_name(2));
    }

    /// Arbitrary payload bytes under a valid frame and CRC never panic
    /// the decoder and never load: they are quarantined as `BadPayload`.
    #[test]
    fn framed_garbage_payload_is_a_bad_payload(
        payload in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        prop_assert!(quarantined_as(&load_framed(&payload), CorruptReason::BadPayload));
    }

    /// A real payload cut anywhere and continued with arbitrary bytes
    /// reaches deep into the decoder; it too is a `BadPayload`.
    #[test]
    fn real_payload_with_a_garbage_tail_is_a_bad_payload(
        cut in any::<usize>(),
        tail in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let real = real_records();
        let (_, payload) = decode_record(&real.records[1]).expect("stored intact");
        let mut damaged = payload[..cut % payload.len()].to_vec();
        damaged.extend_from_slice(&tail);
        prop_assume!(damaged != payload);
        prop_assert!(quarantined_as(&load_framed(&damaged), CorruptReason::BadPayload));
    }

    /// End to end on a real multi-session, mid-clip record: flip one
    /// byte of the newest generation and the store quarantines it and
    /// restores the older generation exactly.
    #[test]
    fn flipped_real_generation_is_quarantined_and_fallen_back(
        index in any::<usize>(),
        mask in 1u8..,
    ) {
        let report = load_damaged_real(|record| {
            let index = index % record.len();
            record[index] ^= mask;
        });
        let loaded = report.loaded.expect("generation 1 is intact");
        prop_assert_eq!(loaded.generation, 1);
        prop_assert_eq!(&loaded.snapshot, &real_records().first);
        prop_assert_eq!(report.quarantined.len(), 1);
        prop_assert_eq!(&report.quarantined[0].name, &entry_name(2));
    }

    /// The same for a torn write of the real record.
    #[test]
    fn torn_real_generation_is_quarantined_and_fallen_back(cut in any::<usize>()) {
        let report = load_damaged_real(|record| record.truncate(cut % record.len()));
        let loaded = report.loaded.expect("generation 1 is intact");
        prop_assert_eq!(loaded.generation, 1);
        prop_assert_eq!(&loaded.snapshot, &real_records().first);
        prop_assert_eq!(report.quarantined.len(), 1);
        prop_assert_eq!(&report.quarantined[0].name, &entry_name(2));
    }
}
