//! The checkpoint payload: one binary encoding of the vendored serde
//! [`Value`] tree.
//!
//! Every snapshot type renders itself into a [`Value`] through
//! `serde::Serialize`, so encoding that tree persists the supervisor,
//! fleet and daemon snapshots alike with no per-type code. Each value is
//! a tag byte and a body; integers and lengths are little-endian:
//!
//! | tag | value | body |
//! |-----|-------|------|
//! | 0 | null | none |
//! | 1, 2 | `false`, `true` | none |
//! | 3 | `I64` | 8 bytes |
//! | 4 | `U64` | 8 bytes |
//! | 5 | `F64` | the 8 bytes of its bits |
//! | 6 | string | `u64` byte length, UTF-8 bytes |
//! | 7 | array | `u64` count, the values |
//! | 8 | non-empty array of `F64` only | `u64` count, 8 bytes per float |
//! | 9 | object | `u64` count, then per entry a key (as a string body) and a value |
//!
//! Floats travel as raw bits, so a restore is bit-exact for every `f64`:
//! infinities, signed zeros, subnormals and NaN payloads come back as
//! they went in.
//!
//! The decoder is total. It refuses more than [`MAX_PAYLOAD_DEPTH`]
//! nested containers, a count or length the remaining bytes cannot hold
//! (before allocating anything that size), an unknown tag, invalid UTF-8
//! and trailing bytes. Every refusal, and every
//! tree the target type does not deserialize from, is
//! [`CorruptReason::BadPayload`].

use super::CorruptReason;
use serde::{Deserialize, Number, Serialize, Value};

/// Most containers (arrays and objects) a payload may nest. The deepest
/// snapshot, a fleet snapshot with a probe challenge in flight, nests
/// about ten; the bound keeps the recursive decoder's stack small.
pub const MAX_PAYLOAD_DEPTH: usize = 32;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const I64: u8 = 3;
const U64: u8 = 4;
const F64: u8 = 5;
const STRING: u8 = 6;
const ARRAY: u8 = 7;
const F64_RUN: u8 = 8;
const OBJECT: u8 = 9;

/// Encodes `value` as a checkpoint payload.
pub fn encode_payload<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    write_value(&mut out, &value.serialize());
    out
}

/// Decodes a checkpoint payload written by [`encode_payload`].
///
/// # Errors
///
/// Returns [`CorruptReason::BadPayload`] when `bytes` is not exactly one
/// well-formed value within the decoder's bounds, or when that value does
/// not deserialize into `T`.
pub fn decode_payload<T: Deserialize>(bytes: &[u8]) -> Result<T, CorruptReason> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(0).ok_or(CorruptReason::BadPayload)?;
    if reader.pos != bytes.len() {
        return Err(CorruptReason::BadPayload);
    }
    T::deserialize(&value).map_err(|_| CorruptReason::BadPayload)
}

fn write_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::Number(Number::I64(x)) => {
            out.push(I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Number(Number::U64(x)) => {
            out.push(U64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Number(Number::F64(x)) => {
            out.push(F64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::String(s) => {
            out.push(STRING);
            write_str(out, s);
        }
        Value::Array(items) if !items.is_empty() && items.iter().all(is_f64) => {
            out.push(F64_RUN);
            write_len(out, items.len());
            out.reserve(8 * items.len());
            for item in items {
                if let Value::Number(Number::F64(x)) = item {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        Value::Array(items) => {
            out.push(ARRAY);
            write_len(out, items.len());
            for item in items {
                write_value(out, item);
            }
        }
        Value::Object(entries) => {
            out.push(OBJECT);
            write_len(out, entries.len());
            for (key, item) in entries {
                write_str(out, key);
                write_value(out, item);
            }
        }
    }
}

fn is_f64(value: &Value) -> bool {
    matches!(value, Value::Number(Number::F64(_)))
}

fn write_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over payload bytes; every read is `None` past the end.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let taken = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(taken)
    }

    fn word(&mut self) -> Option<[u8; 8]> {
        self.take(8)?.try_into().ok()
    }

    /// A `u64` count of items that take at least `min_bytes` each,
    /// refused unless the remaining bytes can hold that many.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        let n = usize::try_from(u64::from_le_bytes(self.word()?)).ok()?;
        let left = self.bytes.len() - self.pos;
        (n <= left / min_bytes).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).ok().map(str::to_owned)
    }

    fn f64(&mut self) -> Option<Value> {
        Some(Value::Number(Number::F64(f64::from_le_bytes(self.word()?))))
    }

    /// The value at the cursor, inside `depth` containers.
    fn value(&mut self, depth: usize) -> Option<Value> {
        let tag = *self.take(1)?.first()?;
        if matches!(tag, ARRAY | F64_RUN | OBJECT) && depth >= MAX_PAYLOAD_DEPTH {
            return None;
        }
        Some(match tag {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            I64 => Value::Number(Number::I64(i64::from_le_bytes(self.word()?))),
            U64 => Value::Number(Number::U64(u64::from_le_bytes(self.word()?))),
            F64 => self.f64()?,
            STRING => Value::String(self.string()?),
            ARRAY => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            F64_RUN => {
                let n = self.count(8)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.f64()?);
                }
                Value::Array(items)
            }
            OBJECT => {
                // A key length and a tag: nine bytes per entry at least.
                let n = self.count(9)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Value::Object(entries)
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_value_kind_round_trips() {
        let value = Value::Object(vec![
            ("null".into(), Value::Null),
            (
                "flags".into(),
                Value::Array(vec![Value::Bool(false), Value::Bool(true)]),
            ),
            ("i".into(), Value::Number(Number::I64(-7))),
            ("u".into(), Value::Number(Number::U64(u64::MAX))),
            ("f".into(), Value::Number(Number::F64(0.1))),
            ("text".into(), Value::String("π ∥ 𝄞".into())),
            ("empty".into(), Value::Array(Vec::new())),
            ("run".into(), vec![1.5, -2.0].serialize()),
            (
                "mixed".into(),
                Value::Array(vec![Value::Number(Number::F64(1.0)), Value::Null]),
            ),
            (
                "nested".into(),
                Value::Object(vec![("".into(), Value::Object(Vec::new()))]),
            ),
        ]);
        let bytes = encode_payload(&value);
        assert_eq!(decode_payload::<Value>(&bytes), Ok(value));
    }

    #[test]
    fn floats_come_back_bit_exact() {
        let samples = vec![
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_dead_beef),
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
        ];
        let back: Vec<f64> = decode_payload(&encode_payload(&samples)).unwrap();
        assert_eq!(bits(&back), bits(&samples));
        let one: f64 = decode_payload(&encode_payload(&f64::NEG_INFINITY)).unwrap();
        assert_eq!(one.to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn float_arrays_are_one_packed_run() {
        let bytes = encode_payload(&vec![1.0f64, 2.0, 3.0]);
        assert_eq!(bytes.len(), 1 + 8 + 3 * 8);
        assert_eq!(bytes[0], F64_RUN);
        assert_eq!(
            encode_payload(&Vec::<f64>::new()),
            [&[ARRAY][..], &[0; 8]].concat()
        );
    }

    // Over-long length prefixes and the depth bound are exercised,
    // through the store as well, in `tests/store_fuzz.rs`.
    #[test]
    fn malformed_payloads_are_bad_payloads() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![10],
            vec![I64, 1, 2],
            [&[STRING][..], &2u64.to_le_bytes(), &[0xC3, 0x28]].concat(),
            vec![NULL, NULL],
        ];
        for bytes in cases {
            assert_eq!(
                decode_payload::<Value>(&bytes),
                Err(CorruptReason::BadPayload),
                "{bytes:?}"
            );
        }
        // Well-formed, but not the requested type.
        assert_eq!(
            decode_payload::<Vec<f64>>(&encode_payload(&"text")),
            Err(CorruptReason::BadPayload)
        );
    }

    proptest! {
        #[test]
        fn float_runs_keep_every_bit(raw in prop::collection::vec(any::<u64>(), 0..64)) {
            let samples: Vec<f64> = raw.iter().map(|&b| f64::from_bits(b)).collect();
            let back: Vec<f64> = decode_payload(&encode_payload(&samples)).unwrap();
            prop_assert_eq!(bits(&back), raw);
        }
    }
}
