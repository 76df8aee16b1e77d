//! The compact versioned binary codec for [`Value`] trees.
//!
//! Checkpoints are [`Value`] trees (see `autocat_ppo::checkpoint`), and
//! the JSON text form — while exact — is the known bottleneck of short
//! sweep jobs: every `f32` round-trips through shortest-float formatting
//! and parsing. This codec serializes the identical tree as framed binary
//! (floats as raw `f64` bit patterns, integers little-endian), so
//! `encode`/`decode` is a bit-exact inverse pair **and** agrees with the
//! JSON codec tree-for-tree: `decode(encode(v)) == v == from_json(to_json(v))`
//! for every tree both codecs accept. JSON stays the interchange/golden
//! form; binary is the hot path.
//!
//! # Wire format
//!
//! ```text
//! file    := magic "ACSB" | version u16 LE | value
//! value   := tag u8 | payload
//! tag 0   := Str    (u32 LE byte length | UTF-8 bytes)
//! tag 1   := Int    (i64 LE)
//! tag 2   := Float  (f64 bit pattern, u64 LE)
//! tag 3   := Bool   (u8: 0 or 1)
//! tag 4   := Array  (u32 LE count | count values)
//! tag 5   := Table  (u32 LE count | count × (string payload key | value))
//! ```
//!
//! Tables serialize in `BTreeMap` key order, so encoding is a pure
//! function of the tree — the property the content-addressed store's
//! digests rely on. Trailing bytes after the root value are an error
//! (a truncated *or* padded file must never decode).

use autocat_nn::value::{check_depth, Value};
use std::collections::BTreeMap;

/// Leading magic of every binary value file.
pub const MAGIC: [u8; 4] = *b"ACSB";

/// Format version written after the magic.
pub const FORMAT_VERSION: u16 = 1;

const TAG_STR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_ARRAY: u8 = 4;
const TAG_TABLE: u8 = 5;

/// Whether `bytes` starts with the binary-codec magic — the sniff used by
/// loaders that fall back to JSON for legacy files.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Encodes a value as a framed binary document (magic + version + tree).
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    encode_value(value, &mut out);
    out
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    // Checkpoint arrays are parameter tensors: u32 lengths are ample, and
    // a fixed width keeps the format trivially seekable.
    let len = u32::try_from(len).expect("value length exceeds u32");
    out.extend_from_slice(&len.to_le_bytes());
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    encode_len(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            encode_len(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Table(map) => {
            out.push(TAG_TABLE);
            encode_len(map.len(), out);
            for (key, item) in map {
                encode_str(key, out);
                encode_value(item, out);
            }
        }
    }
}

/// Decodes a framed binary document back into its [`Value`] tree.
///
/// # Errors
///
/// Returns an error on a bad magic, an unsupported format version,
/// truncation at any depth, nesting deeper than
/// [`autocat_nn::value::MAX_DEPTH`], an unknown tag, invalid UTF-8 or
/// trailing bytes — never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<Value, String> {
    if bytes.len() < MAGIC.len() + 2 {
        return Err(format!(
            "binary value file truncated: {} byte(s), header needs {}",
            bytes.len(),
            MAGIC.len() + 2
        ));
    }
    if !is_binary(bytes) {
        return Err("bad magic: not a binary value file".into());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported binary format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let mut cursor = Cursor {
        bytes,
        pos: MAGIC.len() + 2,
    };
    let value = cursor.value(0)?;
    if cursor.pos != bytes.len() {
        return Err(format!(
            "{} trailing byte(s) after the root value",
            bytes.len() - cursor.pos
        ));
    }
    Ok(value)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| {
                format!(
                    "truncated: need {n} byte(s) at offset {}, file has {}",
                    self.pos,
                    self.bytes.len()
                )
            })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn len(&mut self) -> Result<usize, String> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.len()?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Decodes one value inside `depth` enclosing containers; deeper
    /// than [`autocat_nn::value::MAX_DEPTH`] is an error, not unbounded
    /// recursion.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.u8()? {
            TAG_STR => Ok(Value::Str(self.string()?)),
            TAG_INT => {
                let raw = self.take(8)?;
                Ok(Value::Int(i64::from_le_bytes(
                    raw.try_into().expect("8 bytes"),
                )))
            }
            TAG_FLOAT => {
                let raw = self.take(8)?;
                Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                    raw.try_into().expect("8 bytes"),
                ))))
            }
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(format!("bad bool byte {other}")),
            },
            TAG_ARRAY => {
                check_depth(depth)?;
                let count = self.len()?;
                let mut items = Vec::new();
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            TAG_TABLE => {
                check_depth(depth)?;
                let count = self.len()?;
                let mut map = BTreeMap::new();
                for _ in 0..count {
                    let key = self.string()?;
                    let item = self.value(depth + 1)?;
                    map.insert(key, item);
                }
                Ok(Value::Table(map))
            }
            other => Err(format!("unknown value tag {other}")),
        }
    }
}

/// The content digest of an encoded document: 64-bit FNV-1a over the
/// canonical bytes — the store's object key. Reuses the workspace's one
/// digest kernel ([`autocat_nn::state::fnv1a`]), so every bit-identity
/// gate in the repo speaks the same fingerprint language.
pub fn content_digest(bytes: &[u8]) -> u64 {
    autocat_nn::state::fnv1a(bytes.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocat_nn::value::{from_json, to_json};

    fn sample() -> Value {
        let mut inner = Value::table();
        inner.set("name", Value::Str("prime+probe \"PP\" → π".into()));
        inner.set("ways", Value::Int(-4));
        inner.set("big", Value::Int(i64::MAX));
        inner.set("rate", Value::Float(-0.012_345_678_9));
        inner.set("neg_zero", Value::Float(f64::from(-0.0f32)));
        inner.set("on", Value::Bool(true));
        inner.set("off", Value::Bool(false));
        inner.set(
            "hidden",
            Value::Array(vec![Value::Int(64), Value::Str("x".into()), Value::table()]),
        );
        let mut root = Value::table();
        root.set("scenario", inner);
        root.set("empty", Value::Array(vec![]));
        root.set("version", Value::Int(1));
        root
    }

    #[test]
    fn round_trips_every_variant() {
        let value = sample();
        let bytes = encode(&value);
        assert!(is_binary(&bytes));
        assert_eq!(decode(&bytes).unwrap(), value);
    }

    #[test]
    fn agrees_with_the_json_codec_tree_for_tree() {
        // The interchange contract: the same tree through either codec.
        let value = sample();
        let via_json = from_json(&to_json(&value)).unwrap();
        let via_binary = decode(&encode(&value)).unwrap();
        assert_eq!(via_json, via_binary);
    }

    #[test]
    fn nan_and_infinity_bits_survive() {
        // JSON cannot carry these; binary must (RNG-free sanity margin —
        // real checkpoints are finite, but the codec must not corrupt).
        for bits in [
            f64::NAN.to_bits(),
            0x7ff0_dead_beef_0001,
            f64::INFINITY.to_bits(),
        ] {
            let value = Value::Float(f64::from_bits(bits));
            match decode(&encode(&value)).unwrap() {
                Value::Float(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let value = sample();
        assert_eq!(encode(&value), encode(&value));
        assert_eq!(
            content_digest(&encode(&value)),
            content_digest(&encode(&value))
        );
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode of {cut}/{} bytes must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode(&sample());
        let err = decode(b"JUNKJUNKJUNK").unwrap_err();
        assert!(err.contains("magic"), "{err}");

        bytes[4] = 0xFF; // version word
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_rejected() {
        let mut padded = encode(&sample());
        padded.push(0);
        let err = decode(&padded).unwrap_err();
        assert!(err.contains("trailing"), "{err}");

        let mut bad_tag = encode(&Value::Int(3));
        bad_tag[6] = 99; // the root tag byte
        let err = decode(&bad_tag).unwrap_err();
        assert!(err.contains("tag"), "{err}");

        let mut bad_bool = encode(&Value::Bool(true));
        *bad_bool.last_mut().unwrap() = 7;
        assert!(decode(&bad_bool).unwrap_err().contains("bool"));
    }

    #[test]
    fn invalid_utf8_in_strings_is_rejected() {
        let mut bytes = encode(&Value::Str("ab".into()));
        let n = bytes.len();
        bytes[n - 1] = 0xFF; // clobber a string byte with a non-UTF-8 one
        assert!(decode(&bytes).unwrap_err().contains("UTF-8"));
    }

    /// A header followed by `depth` arrays of one element each, around an
    /// integer.
    fn nested_arrays(depth: usize) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for _ in 0..depth {
            bytes.push(TAG_ARRAY);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_INT);
        bytes.extend_from_slice(&7i64.to_le_bytes());
        bytes
    }

    #[test]
    fn nesting_beyond_max_depth_is_an_error_not_a_stack_overflow() {
        use autocat_nn::value::MAX_DEPTH;
        // A default-stack thread, like the daemon's connection handlers:
        // unbounded recursion here aborts the whole test process.
        let (deep, at_max, over_max) = std::thread::spawn(|| {
            (
                decode(&nested_arrays(100_000)),
                decode(&nested_arrays(MAX_DEPTH)),
                decode(&nested_arrays(MAX_DEPTH + 1)),
            )
        })
        .join()
        .expect("decoder thread must not panic");
        assert!(deep.unwrap_err().contains("nesting deeper"));
        assert!(over_max.is_err());
        let mut value = at_max.expect("MAX_DEPTH levels must decode");
        for _ in 0..MAX_DEPTH {
            value = value.as_array().expect("one array per level")[0].clone();
        }
        assert_eq!(value, Value::Int(7));
        // The encoder writes what the decoder reads back at that depth.
        let mut tree = Value::Int(7);
        for _ in 0..MAX_DEPTH {
            tree = Value::Array(vec![tree]);
        }
        assert_eq!(encode(&tree), nested_arrays(MAX_DEPTH));
    }
}
