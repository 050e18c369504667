//! Shared helpers for implementing
//! [`DriftDetector::snapshot_state`](crate::DriftDetector::snapshot_state) /
//! [`DriftDetector::restore_state`](crate::DriftDetector::restore_state),
//! and the compact binary **window codec** behind snapshot wire format v4,
//! the only layout any writer produces.
//!
//! Every snapshot in the workspace is a JSON-shaped [`serde::Value`] object
//! with a `version` field and one entry per piece of mutable state. These
//! helpers centralise the field lookup, type conversion and validation
//! boilerplate so each detector's `restore_state` reads as a flat list of
//! `field(..)?` calls followed by a single all-or-nothing assignment block
//! (a failed restore must leave the detector untouched, never
//! half-restored).
//!
//! # The window codec
//!
//! Detector windows (OPTWIN's [`crate::SplitWindow`], the KSWIN and STEPD
//! buffers, ADWIN's bucket rows) dominate snapshot size: serialized as JSON
//! number arrays they cost ~4–20 bytes per element, which balloons
//! million-stream engine snapshots at large `w_max`. Writers therefore
//! embed each sequence ([`encode_f64_seq`], [`encode_bool_seq`],
//! [`encode_u64_seq`]) as a base64 string wrapping a small binary frame:
//!
//! ```text
//! magic "OWB4" · kind u8 · scale u8 · count u32 LE · checksum u32 LE · payload
//! ```
//!
//! where `kind` selects one of the payload codecs below and `checksum` is
//! FNV-1a over the header prefix (magic, kind, scale, count) *and* the
//! payload, so corruption anywhere in the frame fails loudly. The encoder
//! picks, per sequence, the smallest applicable codec:
//!
//! * **raw** — little-endian `f64` bit patterns, 8 bytes per element; the
//!   universal fallback, always bit-exact.
//! * **fixed-point delta** — when every value is exactly representable as
//!   `i / 10^scale` (verified bit-for-bit at encode time), the integers are
//!   delta- and zigzag-encoded as LEB128 varints. Monotone or
//!   slowly-varying low-precision sequences (error rates, bucket sums of
//!   binary streams) shrink to 1–2 bytes per element.
//! * **bit-packed** — sequences of exactly `0.0`/`1.0` (binary error
//!   streams, the paper's primary input) and `bool` windows pack to one
//!   *bit* per element.
//!
//! Decoding validates magic, kind, element count, payload length and
//! checksum, and reproduces the original values **bit-exactly** (fixed-point
//! eligibility is proven by round-tripping each value at encode time, so
//! decode performs the identical IEEE operations). The `*_seq_field` readers
//! accept both layouts — a JSON array (written by the retired v1–v3 writer)
//! or a blob string (v4) — so every older snapshot keeps restoring
//! unchanged. Scalar `f64` state goes through [`float_value`].

use crate::CoreError;

/// Builds an [`CoreError::InvalidSnapshot`] with the given message.
pub fn invalid(message: impl Into<String>) -> CoreError {
    CoreError::InvalidSnapshot {
        message: message.into(),
    }
}

/// Looks up and deserializes a snapshot field, naming the field in every
/// error.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] when the field is missing or its
/// value does not convert to `T`.
pub fn field<T: serde::Deserialize>(
    state: &serde::Value,
    name: &'static str,
) -> Result<T, CoreError> {
    let value = state
        .get(name)
        .ok_or_else(|| invalid(format!("missing field `{name}`")))?;
    T::from_value(value).map_err(|e| invalid(format!("field `{name}`: {e}")))
}

/// A scalar `f64` as a snapshot value: a JSON number when finite, a
/// one-element raw-`f64` blob otherwise — JSON has no NaN or ±inf, and the
/// `null` its writer emits would make the snapshot unreadable.
#[must_use]
pub fn float_value(x: f64) -> serde::Value {
    if x.is_finite() {
        serde::Value::Float(x)
    } else {
        serde::Value::Str(frame(KIND_RAW_F64, 0, 1, &x.to_bits().to_le_bytes()))
    }
}

/// Reads a scalar written by [`float_value`]: a JSON number or a
/// one-element blob string.
pub(crate) fn float_from_value(value: &serde::Value) -> Result<f64, String> {
    match value {
        serde::Value::Str(text) => match f64s_from_blob(text)?.as_slice() {
            [x] => Ok(*x),
            values => Err(format!(
                "expected a one-element blob, found {} elements",
                values.len()
            )),
        },
        _ => <f64 as serde::Deserialize>::from_value(value).map_err(|e| e.to_string()),
    }
}

/// [`field`] for an `f64` accumulator written by [`float_value`].
/// Non-finite values are accepted: a detector fed `±1e300` or NaN
/// legitimately runs with `inf`/NaN accumulators, and restore must
/// round-trip every state its paired snapshot can emit.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] when the field is missing, is
/// neither a number nor a blob string, or the blob fails validation or
/// does not hold exactly one element.
pub fn float_field(state: &serde::Value, name: &'static str) -> Result<f64, CoreError> {
    let value = state
        .get(name)
        .ok_or_else(|| invalid(format!("missing field `{name}`")))?;
    float_from_value(value).map_err(|e| invalid(format!("field `{name}`: {e}")))
}

/// Checks the snapshot's `version` field against the detector's current
/// format version.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] when the field is missing or the
/// version does not match.
pub fn check_version(
    state: &serde::Value,
    expected: u64,
    detector: &'static str,
) -> Result<(), CoreError> {
    let version: u64 = field(state, "version")?;
    if version != expected {
        return Err(invalid(format!(
            "unsupported {detector} snapshot version {version} (expected {expected})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Blob frame
// ---------------------------------------------------------------------------

/// Magic bytes opening every window blob ("OptWin Binary, format 4").
pub const BLOB_MAGIC: [u8; 4] = *b"OWB4";
/// Frame header length: magic (4) + kind (1) + scale (1) + count (4) +
/// checksum (4).
pub const BLOB_HEADER_LEN: usize = 14;

/// Payload codec: raw little-endian `f64` bit patterns.
const KIND_RAW_F64: u8 = 0;
/// Payload codec: zigzag-delta LEB128 varints of `value * 10^scale`.
const KIND_FIXED_DELTA: u8 = 1;
/// Payload codec: one bit per element, values restricted to `0.0` / `1.0`.
const KIND_BITS01: u8 = 2;
/// Payload codec: plain LEB128 varints of `u64` elements.
const KIND_VARINT_U64: u8 = 3;
/// Payload codec: one bit per `bool` element.
const KIND_BITS_BOOL: u8 = 4;

/// Largest decimal exponent the fixed-point probe tries at encode time.
const MAX_FIXED_SCALE: u8 = 9;

/// 32-bit FNV-1a over `bytes` — the blob checksum primitive. Not
/// cryptographic; it exists to turn silent bit-rot into a loud
/// [`CoreError::InvalidSnapshot`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_continue(0x811c_9dc5, bytes)
}

/// Continues an FNV-1a hash from a previous state, so multi-slice inputs
/// (header prefix + payload) hash without concatenating.
fn fnv1a_continue(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// The checksum a well-formed frame with these bytes should carry: FNV-1a
/// over the header prefix (magic, kind, scale, count) *and* the payload —
/// a corrupted `scale` or `count` byte must fail as loudly as a corrupted
/// payload byte, since either silently changes every decoded value.
/// Exposed so test harnesses can re-seal a deliberately mutated frame.
///
/// # Panics
///
/// Panics when `bytes` is shorter than [`BLOB_HEADER_LEN`].
#[must_use]
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    assert!(bytes.len() >= BLOB_HEADER_LEN, "frame shorter than header");
    fnv1a_continue(fnv1a(&bytes[..10]), &bytes[BLOB_HEADER_LEN..])
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (with `=` padding) of `bytes`.
fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0];
        let b1 = chunk.get(1).copied().unwrap_or(0);
        let b2 = chunk.get(2).copied().unwrap_or(0);
        out.push(BASE64_ALPHABET[(b0 >> 2) as usize] as char);
        out.push(BASE64_ALPHABET[(((b0 & 0x03) << 4) | (b1 >> 4)) as usize] as char);
        if chunk.len() > 1 {
            out.push(BASE64_ALPHABET[(((b1 & 0x0f) << 2) | (b2 >> 6)) as usize] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(BASE64_ALPHABET[(b2 & 0x3f) as usize] as char);
        } else {
            out.push('=');
        }
    }
    out
}

/// Strict base64 decode: canonical padded form only.
fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "invalid base64: length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    fn value_of(c: u8) -> Result<u8, String> {
        match c {
            b'A'..=b'Z' => Ok(c - b'A'),
            b'a'..=b'z' => Ok(c - b'a' + 26),
            b'0'..=b'9' => Ok(c - b'0' + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("invalid base64 character `{}`", c as char)),
        }
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (group, chunk) in bytes.chunks(4).enumerate() {
        let last = group == bytes.len() / 4 - 1;
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 0 && (!last || pad > 2 || chunk[..4 - pad].contains(&b'=')) {
            return Err("invalid base64: misplaced padding".to_string());
        }
        let v0 = value_of(chunk[0])?;
        let v1 = value_of(chunk[1])?;
        out.push((v0 << 2) | (v1 >> 4));
        if pad < 2 {
            let v2 = value_of(chunk[2])?;
            out.push((v1 << 4) | (v2 >> 2));
            if pad < 1 {
                let v3 = value_of(chunk[3])?;
                out.push((v2 << 6) | v3);
            }
        }
    }
    Ok(out)
}

/// The standard padded base64 encoding window blobs use, exposed for
/// tooling and the corruption-test harness.
#[must_use]
pub fn to_base64(bytes: &[u8]) -> String {
    base64_encode(bytes)
}

/// Strict inverse of [`to_base64`] (canonical padded form only), exposed
/// for tooling and the corruption-test harness.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] for non-canonical or malformed
/// base64.
pub fn from_base64(text: &str) -> Result<Vec<u8>, CoreError> {
    base64_decode(text).map_err(invalid)
}

/// Assembles a blob: header + payload, base64-encoded.
fn frame(kind: u8, scale: u8, count: usize, payload: &[u8]) -> String {
    let count = u32::try_from(count).expect("a blob holds at most u32::MAX elements");
    let mut bytes = Vec::with_capacity(BLOB_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&BLOB_MAGIC);
    bytes.push(kind);
    bytes.push(scale);
    bytes.extend_from_slice(&count.to_le_bytes());
    let checksum = fnv1a_continue(fnv1a(&bytes), payload);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    base64_encode(&bytes)
}

/// A decoded blob frame.
struct Blob {
    kind: u8,
    scale: u8,
    count: usize,
    payload: Vec<u8>,
}

/// Decodes and validates the frame around a blob's payload.
fn unframe(text: &str) -> Result<Blob, String> {
    let bytes = base64_decode(text)?;
    if bytes.len() < BLOB_HEADER_LEN {
        return Err(format!(
            "truncated blob: {} bytes, header alone needs {BLOB_HEADER_LEN}",
            bytes.len()
        ));
    }
    if bytes[..4] != BLOB_MAGIC {
        return Err(format!(
            "bad magic {:02x?} (expected {:02x?} = \"OWB4\")",
            &bytes[..4],
            BLOB_MAGIC
        ));
    }
    let kind = bytes[4];
    let scale = bytes[5];
    let count = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes"));
    let computed = frame_checksum(&bytes);
    let payload = bytes[BLOB_HEADER_LEN..].to_vec();
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
    }
    if kind != KIND_FIXED_DELTA && scale != 0 {
        return Err(format!("non-zero scale {scale} for codec kind {kind}"));
    }
    Ok(Blob {
        kind,
        scale,
        count,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, v: u64) {
    // Branch-free encode: the byte count comes straight from the bit width
    // (`| 1` maps v = 0 to one byte), every lane is written with its
    // continuation bit set in a fixed-trip loop, and the last byte's
    // continuation bit is cleared afterwards. Byte-for-byte identical to the
    // classic emit-until-zero loop.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    let n = bits.div_ceil(7);
    let mut buf = [0u8; 10];
    for (k, byte) in buf.iter_mut().enumerate() {
        *byte = ((v >> (7 * k)) & 0x7f) as u8 | 0x80;
    }
    buf[n - 1] &= 0x7f;
    out.extend_from_slice(&buf[..n]);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    // One range check up front instead of a bounds check per byte; the
    // validation (10-byte cap, final-part overflow) is unchanged.
    let tail = &bytes[(*pos).min(bytes.len())..];
    let mut value: u64 = 0;
    for (shift, &byte) in tail.iter().take(10).enumerate() {
        let part = u64::from(byte & 0x7f);
        if shift == 9 && part > 1 {
            return Err("invalid varint: exceeds 64 bits".to_string());
        }
        value |= part << (shift * 7);
        if byte & 0x80 == 0 {
            *pos += shift + 1;
            return Ok(value);
        }
    }
    if tail.len() < 10 {
        Err("element count mismatch: varint payload ends early".to_string())
    } else {
        Err("invalid varint: more than 10 bytes".to_string())
    }
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

// ---------------------------------------------------------------------------
// f64 sequences
// ---------------------------------------------------------------------------

const ONE_BITS: u64 = 1.0f64.to_bits();

/// Bit-packs one flag per element, LSB-first within each byte — 64 elements
/// at a time: each chunk is assembled into a `u64` with branch-free shifts
/// and stored through its little-endian byte image, which reproduces the
/// byte-at-a-time layout exactly (bit `i` lands in `payload[i / 8]` at
/// position `i % 8`).
fn pack_bits<T>(values: &[T], bit: impl Fn(&T) -> bool) -> Vec<u8> {
    let mut payload = vec![0u8; values.len().div_ceil(8)];
    for (chunk, bytes) in values.chunks(64).zip(payload.chunks_mut(8)) {
        let mut word = 0u64;
        for (k, v) in chunk.iter().enumerate() {
            word |= u64::from(bit(v)) << k;
        }
        bytes.copy_from_slice(&word.to_le_bytes()[..bytes.len()]);
    }
    payload
}

/// Probes the smallest decimal scale whose fixed-point integers reproduce
/// every value bit-exactly: `(i as f64) / 10^k` is the identical IEEE
/// operation at decode time, so a successful round-trip here *is* the
/// bit-exactness proof.
fn fixed_scale_ints(values: &[f64]) -> Option<(u8, Vec<i64>)> {
    'scales: for k in 0..=MAX_FIXED_SCALE {
        let scale = 10f64.powi(i32::from(k));
        let mut ints = Vec::with_capacity(values.len());
        for &v in values {
            if !v.is_finite() {
                return None;
            }
            let y = (v * scale).round();
            if !(y.abs() <= 9.0e15) {
                continue 'scales;
            }
            #[allow(clippy::cast_possible_truncation)]
            let i = y as i64;
            if ((i as f64) / scale).to_bits() != v.to_bits() {
                continue 'scales;
            }
            ints.push(i);
        }
        return Some((k, ints));
    }
    None
}

fn delta_payload(ints: &[i64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ints.len() * 2);
    let mut previous = 0i64;
    for &i in ints {
        // |i| ≤ 9e15 for every fixed-point integer, so the difference can
        // never overflow i64.
        push_varint(&mut payload, zigzag(i - previous));
        previous = i;
    }
    payload
}

/// Encodes an `f64` sequence as a binary blob string, choosing the smallest
/// applicable payload codec (bit-packed for pure 0/1 streams, fixed-point
/// deltas for low-precision or monotone data, raw frames otherwise).
/// Panics beyond `u32::MAX` elements, as do the other encoders.
#[must_use]
pub fn encode_f64_seq(values: &[f64]) -> serde::Value {
    let raw_len = values.len() * 8;
    let mut best: Option<(u8, u8, Vec<u8>)> = None;
    if values
        .iter()
        .all(|v| v.to_bits() == 0 || v.to_bits() == ONE_BITS)
    {
        best = Some((
            KIND_BITS01,
            0,
            pack_bits(values, |v| v.to_bits() == ONE_BITS),
        ));
    }
    if best.is_none() {
        if let Some((scale, ints)) = fixed_scale_ints(values) {
            let payload = delta_payload(&ints);
            if payload.len() < raw_len {
                best = Some((KIND_FIXED_DELTA, scale, payload));
            }
        }
    }
    let (kind, scale, payload) = best.unwrap_or_else(|| {
        let mut payload = Vec::with_capacity(raw_len);
        for &v in values {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        (KIND_RAW_F64, 0, payload)
    });
    serde::Value::Str(frame(kind, scale, values.len(), &payload))
}

fn f64s_from_blob(text: &str) -> Result<Vec<f64>, String> {
    let blob = unframe(text)?;
    match blob.kind {
        KIND_RAW_F64 => {
            if blob.payload.len() != blob.count * 8 {
                return Err(format!(
                    "element count mismatch: header says {} f64s, payload holds {} bytes",
                    blob.count,
                    blob.payload.len()
                ));
            }
            Ok(blob
                .payload
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                .collect())
        }
        KIND_FIXED_DELTA => {
            if blob.scale > 18 {
                return Err(format!("fixed-point scale {} out of range", blob.scale));
            }
            let scale = 10f64.powi(i32::from(blob.scale));
            // Each varint occupies at least one payload byte, so a header
            // count beyond `payload.len()` is certainly corrupt — cap the
            // pre-allocation so a forged count cannot trigger a huge (and
            // potentially aborting) allocation before the length check.
            let mut values = Vec::with_capacity(blob.count.min(blob.payload.len()));
            let mut pos = 0usize;
            let mut current = 0i64;
            for _ in 0..blob.count {
                let delta = unzigzag(read_varint(&blob.payload, &mut pos)?);
                current = current
                    .checked_add(delta)
                    .ok_or_else(|| "fixed-point accumulator overflow".to_string())?;
                values.push((current as f64) / scale);
            }
            if pos != blob.payload.len() {
                return Err(format!(
                    "element count mismatch: {} trailing payload bytes after {} elements",
                    blob.payload.len() - pos,
                    blob.count
                ));
            }
            Ok(values)
        }
        KIND_BITS01 => bits_from_blob(&blob).map(|bits| {
            bits.into_iter()
                .map(|b| if b { 1.0 } else { 0.0 })
                .collect()
        }),
        other => Err(format!("codec kind {other} does not hold f64 elements")),
    }
}

fn bits_from_blob(blob: &Blob) -> Result<Vec<bool>, String> {
    if blob.payload.len() != blob.count.div_ceil(8) {
        return Err(format!(
            "element count mismatch: header says {} bits, payload holds {} bytes",
            blob.count,
            blob.payload.len()
        ));
    }
    // Padding bits past `count` must be zero — a strict canonical form so a
    // flipped tail bit cannot slip through as "still decodes fine".
    if let Some(&last) = blob.payload.last() {
        let used = blob.count % 8;
        if used != 0 && last >> used != 0 {
            return Err("element count mismatch: non-zero padding bits".to_string());
        }
    }
    // Byte-at-a-time unpack: eight branch-free pushes per full byte instead
    // of a divide, modulo and bounds check per bit.
    let full = blob.count / 8;
    let mut bits = Vec::with_capacity(blob.count);
    for &byte in &blob.payload[..full] {
        let b = |k: u8| byte >> k & 1 == 1;
        bits.extend_from_slice(&[b(0), b(1), b(2), b(3), b(4), b(5), b(6), b(7)]);
    }
    for k in 0..blob.count % 8 {
        bits.push(blob.payload[full] >> k & 1 == 1);
    }
    Ok(bits)
}

// ---------------------------------------------------------------------------
// bool and u64 sequences
// ---------------------------------------------------------------------------

/// Encodes a `bool` sequence as a bit-packed binary blob string.
#[must_use]
pub fn encode_bool_seq(values: &[bool]) -> serde::Value {
    let payload = pack_bits(values, |&b| b);
    serde::Value::Str(frame(KIND_BITS_BOOL, 0, values.len(), &payload))
}

fn bools_from_blob(text: &str) -> Result<Vec<bool>, String> {
    let blob = unframe(text)?;
    if blob.kind != KIND_BITS_BOOL {
        return Err(format!(
            "codec kind {} does not hold bool elements",
            blob.kind
        ));
    }
    bits_from_blob(&blob)
}

/// Encodes a `u64` sequence as a varint binary blob string.
#[must_use]
pub fn encode_u64_seq(values: &[u64]) -> serde::Value {
    let mut payload = Vec::with_capacity(values.len() * 2);
    for &v in values {
        push_varint(&mut payload, v);
    }
    serde::Value::Str(frame(KIND_VARINT_U64, 0, values.len(), &payload))
}

fn u64s_from_blob(text: &str) -> Result<Vec<u64>, String> {
    let blob = unframe(text)?;
    if blob.kind != KIND_VARINT_U64 {
        return Err(format!(
            "codec kind {} does not hold u64 elements",
            blob.kind
        ));
    }
    // As in the fixed-delta decoder: ≥ 1 payload byte per varint, so cap
    // the pre-allocation against a forged header count.
    let mut values = Vec::with_capacity(blob.count.min(blob.payload.len()));
    let mut pos = 0usize;
    for _ in 0..blob.count {
        values.push(read_varint(&blob.payload, &mut pos)?);
    }
    if pos != blob.payload.len() {
        return Err(format!(
            "element count mismatch: {} trailing payload bytes after {} elements",
            blob.payload.len() - pos,
            blob.count
        ));
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// Dual-layout sequence readers
// ---------------------------------------------------------------------------

/// Reads an `f64` sequence stored either as a JSON number array (wire
/// formats v1–v3) or as a binary blob string (v4).
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] (naming the field) when the field
/// is missing, is neither an array nor a string, an array element is not a
/// number, or the blob fails validation (base64, magic, kind, element
/// count, checksum).
pub fn f64_seq_field(state: &serde::Value, name: &'static str) -> Result<Vec<f64>, CoreError> {
    let value = state
        .get(name)
        .ok_or_else(|| invalid(format!("missing field `{name}`")))?;
    match value {
        serde::Value::Str(text) => {
            f64s_from_blob(text).map_err(|e| invalid(format!("field `{name}`: {e}")))
        }
        serde::Value::Array(_) => <Vec<f64> as serde::Deserialize>::from_value(value)
            .map_err(|e| invalid(format!("field `{name}`: {e}"))),
        other => Err(invalid(format!(
            "field `{name}`: expected a number array or a binary blob string, found {other:?}"
        ))),
    }
}

/// Reads a `bool` sequence stored either as a JSON array or as a bit-packed
/// blob string. See [`f64_seq_field`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] under the same conditions as
/// [`f64_seq_field`].
pub fn bool_seq_field(state: &serde::Value, name: &'static str) -> Result<Vec<bool>, CoreError> {
    let value = state
        .get(name)
        .ok_or_else(|| invalid(format!("missing field `{name}`")))?;
    match value {
        serde::Value::Str(text) => {
            bools_from_blob(text).map_err(|e| invalid(format!("field `{name}`: {e}")))
        }
        serde::Value::Array(_) => <Vec<bool> as serde::Deserialize>::from_value(value)
            .map_err(|e| invalid(format!("field `{name}`: {e}"))),
        other => Err(invalid(format!(
            "field `{name}`: expected a bool array or a binary blob string, found {other:?}"
        ))),
    }
}

/// Reads a `u64` sequence stored either as a JSON array or as a varint blob
/// string. See [`f64_seq_field`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] under the same conditions as
/// [`f64_seq_field`].
pub fn u64_seq_field(state: &serde::Value, name: &'static str) -> Result<Vec<u64>, CoreError> {
    let value = state
        .get(name)
        .ok_or_else(|| invalid(format!("missing field `{name}`")))?;
    match value {
        serde::Value::Str(text) => {
            u64s_from_blob(text).map_err(|e| invalid(format!("field `{name}`: {e}")))
        }
        serde::Value::Array(_) => <Vec<u64> as serde::Deserialize>::from_value(value)
            .map_err(|e| invalid(format!("field `{name}`: {e}"))),
        other => Err(invalid(format!(
            "field `{name}`: expected an integer array or a binary blob string, found {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Write-ahead-log framing (checkpoint wire format v5)
// ---------------------------------------------------------------------------

/// Magic bytes opening every write-ahead-log segment ("OptWin Ahead Log").
///
/// The engine's checkpoint subsystem (wire format v5) persists record
/// batches between delta checkpoints as per-shard append-only log segments.
/// A segment is a fixed header followed by self-checksummed frames; this
/// module owns the byte-level framing so the corruption contract matches
/// the window codec above: every complete-but-damaged frame fails loudly,
/// while a **torn tail** (a frame cut short by a crash mid-append) reads as
/// a clean end of log — losing the torn frame is exactly the durability
/// boundary a write-ahead log promises.
pub const WAL_MAGIC: [u8; 4] = *b"OWAL";

/// Format version byte of the segment header.
pub const WAL_VERSION: u8 = 1;

/// Segment header length: magic (4) + version (1) + shard (4) + generation
/// (8).
pub const WAL_HEADER_LEN: usize = 17;

/// Frame header length: kind (1) + payload length (4) + checksum (4).
pub const WAL_FRAME_HEADER_LEN: usize = 9;

/// Encodes a segment header for the given shard and checkpoint generation.
#[must_use]
pub fn wal_segment_header(shard: u32, generation: u64) -> [u8; WAL_HEADER_LEN] {
    let mut header = [0u8; WAL_HEADER_LEN];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4] = WAL_VERSION;
    header[5..9].copy_from_slice(&shard.to_le_bytes());
    header[9..17].copy_from_slice(&generation.to_le_bytes());
    header
}

/// Parses a segment header, returning `(shard, generation)`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] when the header is truncated,
/// the magic does not match, or the version byte is unsupported.
pub fn wal_parse_segment_header(bytes: &[u8]) -> Result<(u32, u64), CoreError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(invalid(format!(
            "WAL segment header truncated: {} of {WAL_HEADER_LEN} bytes",
            bytes.len()
        )));
    }
    if bytes[..4] != WAL_MAGIC {
        return Err(invalid("WAL segment has bad magic"));
    }
    if bytes[4] != WAL_VERSION {
        return Err(invalid(format!(
            "unsupported WAL segment version {} (expected {WAL_VERSION})",
            bytes[4]
        )));
    }
    let shard = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    let generation = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
    Ok((shard, generation))
}

/// Checksum of a WAL frame: FNV-1a over the kind byte and the length field,
/// continued over the payload — a corrupted length fails as loudly as a
/// corrupted payload byte.
fn wal_frame_checksum(kind: u8, payload: &[u8]) -> u32 {
    let mut prefix = [0u8; 5];
    prefix[0] = kind;
    prefix[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    fnv1a_continue(fnv1a(&prefix), payload)
}

/// Encodes one self-checksummed WAL frame:
/// `kind u8 · payload length u32 LE · checksum u32 LE · payload`.
#[must_use]
pub fn wal_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(WAL_FRAME_HEADER_LEN + payload.len());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&wal_frame_checksum(kind, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A decoded WAL frame: `(kind, payload, bytes consumed from the input)`.
pub type WalFrame<'a> = (u8, &'a [u8], usize);

/// Decodes the frame at the head of `bytes`.
///
/// Returns `Ok(Some((kind, payload, consumed)))` for a complete, verified
/// frame, and `Ok(None)` at a clean end of log: `bytes` is empty **or**
/// holds an incomplete frame — the torn tail a crash mid-append leaves
/// behind, which a recovery reader must treat as EOF, not corruption.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSnapshot`] when a *complete* frame fails its
/// checksum — genuine corruption, never recoverable by truncation.
pub fn wal_next_frame(bytes: &[u8]) -> Result<Option<WalFrame<'_>>, CoreError> {
    if bytes.len() < WAL_FRAME_HEADER_LEN {
        return Ok(None);
    }
    let kind = bytes[0];
    let len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(WAL_FRAME_HEADER_LEN..WAL_FRAME_HEADER_LEN + len) else {
        return Ok(None);
    };
    if wal_frame_checksum(kind, payload) != stored {
        return Err(invalid(format!(
            "WAL frame checksum mismatch (kind {kind}, {len}-byte payload)"
        )));
    }
    Ok(Some((kind, payload, WAL_FRAME_HEADER_LEN + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> serde::Value {
        serde::Value::Object(vec![
            ("version".to_string(), serde::Value::UInt(3)),
            ("count".to_string(), serde::Value::UInt(7)),
            ("mean".to_string(), serde::Value::Float(0.25)),
            ("bad".to_string(), serde::Value::Float(f64::NAN)),
            ("label".to_string(), serde::Value::Str("x".to_string())),
        ])
    }

    #[test]
    fn field_lookup_and_errors() {
        let s = state();
        assert_eq!(field::<u64>(&s, "count").unwrap(), 7);
        assert_eq!(float_field(&s, "mean").unwrap(), 0.25);
        // Saturated accumulators restore verbatim: non-finite is a
        // reachable live state, not corruption.
        assert!(float_field(&s, "bad").unwrap().is_nan());
        let err = field::<u64>(&s, "missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        let err = field::<u64>(&s, "mean").unwrap_err();
        assert!(err.to_string().contains("mean"));
        let err = float_field(&s, "label").unwrap_err();
        assert!(err.to_string().contains("label"));
    }

    #[test]
    fn version_check() {
        let s = state();
        assert!(check_version(&s, 3, "TEST").is_ok());
        let err = check_version(&s, 4, "TEST").unwrap_err();
        assert!(err.to_string().contains("TEST snapshot version 3"));
        let err = check_version(&serde::Value::Null, 1, "TEST").unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    fn blob_text(value: &serde::Value) -> &str {
        match value {
            serde::Value::Str(s) => s,
            other => panic!("expected blob string, got {other:?}"),
        }
    }

    fn seq_state(value: serde::Value) -> serde::Value {
        serde::Value::Object(vec![("seq".to_string(), value)])
    }

    #[test]
    fn base64_round_trips_all_lengths() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = base64_encode(&bytes);
            assert_eq!(base64_decode(&text).unwrap(), bytes, "len {len}");
        }
        assert!(base64_decode("abc").unwrap_err().contains("multiple of 4"));
        assert!(base64_decode("ab~=").unwrap_err().contains("character"));
        assert!(base64_decode("a=bc").unwrap_err().contains("padding"));
    }

    #[test]
    fn f64_blob_round_trips_every_codec() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],                                        // empty
            vec![0.0, 1.0, 1.0, 0.0, 1.0],                 // bit-packed
            vec![0.25, 0.5, 0.75, 1.5, -2.25],             // fixed-point, scale probes
            vec![0.06, 0.07, 0.08, 0.55],                  // decimal fixed-point
            (0..100).map(f64::from).collect(),             // monotone integers
            vec![1.0 / 3.0, 0.1 + 0.2, f64::MAX, -1e-300], // raw fallback
            vec![f64::NAN, f64::INFINITY, -0.0],           // non-finite + signed zero stay raw
        ];
        for values in cases {
            let blob = encode_f64_seq(&values);
            let back = f64_seq_field(&seq_state(blob), "seq").unwrap();
            assert_eq!(back.len(), values.len());
            for (a, b) in values.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact round trip");
            }
        }
    }

    #[test]
    fn binary_streams_pack_to_bits() {
        let values: Vec<f64> = (0..1_000)
            .map(|i| f64::from(u8::from(i % 3 == 0)))
            .collect();
        let blob = blob_text(&encode_f64_seq(&values)).to_string();
        // 1000 bits = 125 payload bytes + 14 header ≈ 186 base64 chars —
        // far below both raw (8 B/elem) and JSON ("0.0," ≈ 4 B/elem).
        assert!(blob.len() < 200, "blob is {} chars", blob.len());
        let back = f64_seq_field(&seq_state(serde::Value::Str(blob)), "seq").unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn low_precision_sequences_use_fixed_point_deltas() {
        let values: Vec<f64> = (0..500).map(|i| f64::from(i % 100) / 100.0).collect();
        let blob = blob_text(&encode_f64_seq(&values)).to_string();
        // ≤ 2 payload bytes per element once delta-encoded.
        assert!(blob.len() < 1_400, "blob is {} chars", blob.len());
        let back = f64_seq_field(&seq_state(serde::Value::Str(blob)), "seq").unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bool_and_u64_blobs_round_trip() {
        let bools: Vec<bool> = (0..77).map(|i| i % 5 != 0).collect();
        let back = bool_seq_field(&seq_state(encode_bool_seq(&bools)), "seq").unwrap();
        assert_eq!(back, bools);

        let ints: Vec<u64> = vec![0, 1, 127, 128, 300, u64::MAX, 1 << 40];
        let back = u64_seq_field(&seq_state(encode_u64_seq(&ints)), "seq").unwrap();
        assert_eq!(back, ints);
    }

    #[test]
    fn json_array_layout_still_reads() {
        use serde::Serialize as _;
        let values = vec![0.5, 1.25, -3.0];
        let state = seq_state(values.to_value());
        assert_eq!(f64_seq_field(&state, "seq").unwrap(), values);
        let bools = vec![true, false, true];
        let state = seq_state(bools.to_value());
        assert_eq!(bool_seq_field(&state, "seq").unwrap(), bools);
        let ints: Vec<u64> = vec![1, 2, 3];
        let state = seq_state(ints.to_value());
        assert_eq!(u64_seq_field(&state, "seq").unwrap(), ints);
    }

    #[test]
    fn float_values_keep_finite_numbers_and_blob_the_rest() {
        assert_eq!(float_value(0.25), serde::Value::Float(0.25));
        assert_eq!(float_value(-0.0), serde::Value::Float(-0.0));
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let value = float_value(x);
            assert!(matches!(value, serde::Value::Str(_)), "{x} must be a blob");
            let back = float_field(&seq_state(value), "seq").unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        // A blob holding anything but one element is not a scalar.
        let err = float_field(&seq_state(encode_f64_seq(&[1.5, 2.5])), "seq").unwrap_err();
        assert!(err.to_string().contains("one-element"), "{err}");
    }

    /// Every corruption class the fuzzing satellite names must surface as a
    /// clean `InvalidSnapshot` naming the field — never a panic.
    #[test]
    fn corrupted_blobs_are_rejected_with_context() {
        let values: Vec<f64> = (0..50).map(|i| f64::from(i) * 0.25).collect();
        let good = blob_text(&encode_f64_seq(&values)).to_string();

        let expect_err = |text: String, needle: &str| {
            let state = seq_state(serde::Value::Str(text));
            let err = f64_seq_field(&state, "seq").unwrap_err().to_string();
            assert!(err.contains("seq"), "field context missing in `{err}`");
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        };

        // Truncated blob (cut mid-payload, re-padded to valid base64).
        let mut bytes = base64_decode(&good).unwrap();
        bytes.truncate(BLOB_HEADER_LEN + 5);
        expect_err(base64_encode(&bytes), "mismatch");
        // Truncated below even the header.
        let mut bytes = base64_decode(&good).unwrap();
        bytes.truncate(6);
        expect_err(base64_encode(&bytes), "truncated");
        // Flipped checksum byte.
        let mut bytes = base64_decode(&good).unwrap();
        bytes[10] ^= 0xff;
        expect_err(base64_encode(&bytes), "checksum mismatch");
        // Flipped payload byte (checksum now disagrees).
        let mut bytes = base64_decode(&good).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        expect_err(base64_encode(&bytes), "checksum mismatch");
        // Bad magic.
        let mut bytes = base64_decode(&good).unwrap();
        bytes[0] = b'X';
        expect_err(base64_encode(&bytes), "bad magic");
        // The checksum covers the header too: a flipped scale byte (which
        // would otherwise *silently* decode every fixed-point value off by
        // a power of ten) and a flipped count byte both fail loudly.
        let mut bytes = base64_decode(&good).unwrap();
        bytes[5] ^= 0x01;
        expect_err(base64_encode(&bytes), "checksum mismatch");
        let mut bytes = base64_decode(&good).unwrap();
        bytes[9] ^= 0xff;
        expect_err(base64_encode(&bytes), "checksum mismatch");
        // Re-seals its frame so the corruption reaches the deeper check.
        let reseal = |bytes: &mut Vec<u8>| {
            let checksum = frame_checksum(bytes);
            bytes[10..14].copy_from_slice(&checksum.to_le_bytes());
        };
        // Element-count mismatch (header count inflated and re-sealed).
        let mut bytes = base64_decode(&good).unwrap();
        let count = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) + 1;
        bytes[6..10].copy_from_slice(&count.to_le_bytes());
        reseal(&mut bytes);
        expect_err(base64_encode(&bytes), "element count mismatch");
        // A forged huge count must error (and not abort on a giant
        // pre-allocation) — the capacity is capped at the payload length.
        let mut bytes = base64_decode(&good).unwrap();
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        expect_err(base64_encode(&bytes), "element count mismatch");
        // Unknown codec kind (re-sealed, kind byte nonsense).
        let mut bytes = base64_decode(&good).unwrap();
        bytes[4] = 99;
        reseal(&mut bytes);
        expect_err(base64_encode(&bytes), "codec kind 99");
        // Invalid base64.
        expect_err(format!("~~{good}~~"), "base64");
        expect_err(good[..good.len() - 1].to_string(), "base64");
        // Wrong shape entirely.
        let err = f64_seq_field(&seq_state(serde::Value::Bool(true)), "seq")
            .unwrap_err()
            .to_string();
        assert!(err.contains("expected a number array"));
    }

    /// Deterministic mutation fuzzing: random single-byte corruptions of a
    /// valid frame either decode to *something* or fail cleanly — the
    /// decoder must never panic or loop.
    #[test]
    fn mutated_blobs_never_panic() {
        let values: Vec<f64> = (0..64).map(|i| f64::from(i % 7) / 10.0).collect();
        let good = blob_text(&encode_f64_seq(&values)).to_string();
        let bytes = base64_decode(&good).unwrap();
        let mut rng_state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            for _ in 0..=(next() % 3) {
                let at = (next() as usize) % mutated.len();
                mutated[at] ^= (next() % 255 + 1) as u8;
            }
            // Any outcome but a panic is acceptable.
            let _ = f64s_from_blob(&base64_encode(&mutated));
            let _ = bools_from_blob(&base64_encode(&mutated));
            let _ = u64s_from_blob(&base64_encode(&mutated));
        }
    }

    #[test]
    fn fnv1a_reference_values() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn wal_segment_header_round_trips_and_rejects_garbage() {
        let header = wal_segment_header(3, 17);
        assert_eq!(header.len(), WAL_HEADER_LEN);
        assert_eq!(wal_parse_segment_header(&header).unwrap(), (3, 17));

        // Truncated, bad magic, bad version: all loud, never a panic.
        assert!(wal_parse_segment_header(&header[..WAL_HEADER_LEN - 1]).is_err());
        let mut bad_magic = header;
        bad_magic[0] ^= 0xff;
        assert!(wal_parse_segment_header(&bad_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut bad_version = header;
        bad_version[4] = WAL_VERSION + 1;
        assert!(wal_parse_segment_header(&bad_version)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn wal_frames_round_trip_in_sequence() {
        let mut log = Vec::new();
        log.extend_from_slice(&wal_frame(0, b"first payload"));
        log.extend_from_slice(&wal_frame(1, b""));
        log.extend_from_slice(&wal_frame(7, &[0xAA; 100]));

        let mut at = 0;
        let mut frames = Vec::new();
        while let Some((kind, payload, consumed)) = wal_next_frame(&log[at..]).unwrap() {
            frames.push((kind, payload.to_vec()));
            at += consumed;
        }
        assert_eq!(at, log.len());
        assert_eq!(
            frames,
            vec![
                (0u8, b"first payload".to_vec()),
                (1, Vec::new()),
                (7, vec![0xAA; 100]),
            ]
        );
    }

    /// A frame cut short by a crash mid-append must read as clean EOF at
    /// every possible cut point — the write-ahead-log durability boundary.
    #[test]
    fn wal_torn_tail_reads_as_clean_eof() {
        let frame = wal_frame(2, b"torn by the crash");
        for cut in 0..frame.len() {
            assert_eq!(
                wal_next_frame(&frame[..cut]).unwrap(),
                None,
                "cut at {cut} must be EOF, not corruption"
            );
        }
        assert!(wal_next_frame(&frame).unwrap().is_some());
    }

    /// Any single-byte flip in a *complete* frame is detected (a flipped
    /// length byte may instead turn the frame into a torn tail — also
    /// acceptable, but never a silent wrong decode).
    #[test]
    fn wal_checksum_flip_is_detected() {
        let frame = wal_frame(5, b"checksummed payload");
        for at in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[at] ^= 0x01;
            if let Ok(Some((kind, payload, _))) = wal_next_frame(&mutated) {
                panic!("flip at {at} decoded silently: kind {kind}, {payload:?}")
            }
        }
    }
}
