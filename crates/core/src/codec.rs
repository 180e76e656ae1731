//! Deterministic binary encoding for durable dispatch state.
//!
//! The workspace has no serialization dependency, so checkpointing and the
//! write-ahead log hand-roll their wire format here: a tiny, explicit
//! little-endian codec with typed decode errors. Three properties matter
//! more than generality:
//!
//! * **Bit-exactness** — `f64` fields travel as raw IEEE-754 bits
//!   ([`f64::to_bits`]), so a decoded [`TimePoint`] or [`Duration`] is the
//!   same value to the last ulp and recovered runs replay bit-identically.
//! * **Determinism** — containers encode in a canonical order (maps are
//!   `BTreeMap`s, written and required back in key order), so encoding the
//!   same state twice yields the same bytes and checksums are meaningful.
//! * **No panics on hostile input** — [`Codec::decode`] validates every
//!   invariant the in-memory constructors assert (durations non-negative,
//!   finite times, hour slots `< 24`) and returns a typed [`DecodeError`]
//!   instead; corrupt or truncated bytes can never take down the service.
//!
//! The module also hosts [`crc32`], the checksum the WAL and checkpoint
//! containers use to detect corruption (CRC-32/ISO-HDLC, the zlib/PNG
//! polynomial — table-driven, no external crates).

use crate::config::DispatchConfig;
use crate::order::{Order, OrderId};
use crate::route::PlannedOrder;
use crate::vehicle::VehicleId;
use foodmatch_roadnet::{Duration, EdgeId, HourSlot, NodeId, TimePoint};
use std::collections::BTreeMap;
use std::fmt;

/// Why a byte slice failed to decode. Every variant is a hard, typed error:
/// decoding never panics and never fabricates state from bad bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// Bytes the decoder needed to continue.
        needed: usize,
        /// Bytes actually left in the input.
        available: usize,
    },
    /// A fixed-width field held a value outside its domain (a non-finite
    /// time, a negative duration, an hour slot ≥ 24, an unknown enum tag…).
    /// The message names the field and the offending value.
    Invalid(String),
    /// A declared element count was absurdly large for the bytes remaining —
    /// a corrupt length prefix, not a real collection. Caught before any
    /// allocation is attempted.
    LengthOverflow {
        /// The declared element count.
        declared: u64,
        /// Bytes remaining in the input.
        available: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, available } => {
                write!(f, "unexpected end of input: needed {needed} bytes, {available} available")
            }
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
            DecodeError::LengthOverflow { declared, available } => write!(
                f,
                "declared length {declared} exceeds the {available} bytes remaining (corrupt \
                 length prefix)"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a byte slice for [`Codec::decode`]. Every read is
/// bounds-checked and returns [`DecodeError::UnexpectedEof`] rather than
/// panicking past the end.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes, or reports how far short the input fell.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Validates a declared element count against the bytes remaining:
    /// every element needs at least one byte, so a count beyond
    /// [`Self::remaining`] is a corrupt prefix, rejected before allocating.
    pub fn check_len(&self, declared: u64) -> Result<usize, DecodeError> {
        if declared > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { declared, available: self.remaining() });
        }
        Ok(declared as usize)
    }

    /// Fails unless the input is fully consumed — trailing garbage after a
    /// complete value is corruption, not padding.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Invalid(format!(
                "{} trailing bytes after a complete value",
                self.remaining()
            )))
        }
    }
}

/// Symmetric binary encode/decode with typed errors — the wire format of the
/// WAL and checkpoints. Implementations must round-trip bit-exactly:
/// `decode(encode(x)) == x` for every representable `x`.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value back, validating every domain invariant.
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: this value encoded into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must span the entire slice.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut reader = ByteReader::new(bytes);
        let value = Self::decode(&mut reader)?;
        reader.expect_end()?;
        Ok(value)
    }
}

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(reader.take(1)?[0])
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let bytes = reader.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("take(4) returns 4 bytes")))
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let bytes = reader.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("take(8) returns 8 bytes")))
    }
}

/// `usize` travels as `u64` so 32- and 64-bit hosts agree on the format.
impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let raw = u64::decode(reader)?;
        usize::try_from(raw)
            .map_err(|_| DecodeError::Invalid(format!("usize value {raw} exceeds host width")))
    }
}

/// `f64` travels as its raw IEEE-754 bits — bit-exact, NaN-preserving.
impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(reader)?))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Invalid(format!("bool byte must be 0 or 1, got {other}"))),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let declared = u64::decode(reader)?;
        let len = reader.check_len(declared)?;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Invalid("string is not valid UTF-8".to_string()))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            other => Err(DecodeError::Invalid(format!("Option tag must be 0 or 1, got {other}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let declared = u64::decode(reader)?;
        let len = reader.check_len(declared)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(reader)?);
        }
        Ok(items)
    }
}

/// A map travels as its entries in key order; decoding refuses any other
/// order (and so any duplicate key) instead of silently re-sorting it.
impl<K: Codec + Ord + fmt::Debug, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let entries = Vec::<(K, V)>::decode(reader)?;
        if let Some(pair) = entries.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(DecodeError::Invalid(format!(
                "map keys must be strictly ascending, found {:?} before {:?}",
                pair[0].0, pair[1].0
            )));
        }
        Ok(entries.into_iter().collect())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.encode(out);
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let mut items = [T::default(); N];
        for slot in &mut items {
            *slot = T::decode(reader)?;
        }
        Ok(items)
    }
}

impl Codec for TimePoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs_f64().encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let secs = f64::decode(reader)?;
        if !secs.is_finite() {
            return Err(DecodeError::Invalid(format!("TimePoint must be finite, got {secs}")));
        }
        Ok(TimePoint::from_secs_f64(secs))
    }
}

impl Codec for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_secs_f64().encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let secs = f64::decode(reader)?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(DecodeError::Invalid(format!(
                "Duration must be finite and non-negative, got {secs}"
            )));
        }
        Ok(Duration::from_secs_f64(secs))
    }
}

impl Codec for HourSlot {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.hour());
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let hour = reader.take(1)?[0];
        if hour >= 24 {
            return Err(DecodeError::Invalid(format!("HourSlot must be in 0..24, got {hour}")));
        }
        Ok(HourSlot::new(hour))
    }
}

impl Codec for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId(u32::decode(reader)?))
    }
}

impl Codec for EdgeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(EdgeId(u32::decode(reader)?))
    }
}

impl Codec for OrderId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(OrderId(u64::decode(reader)?))
    }
}

impl Codec for VehicleId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(VehicleId(u32::decode(reader)?))
    }
}

impl Codec for Order {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.restaurant.encode(out);
        self.customer.encode(out);
        self.placed_at.encode(out);
        self.items.encode(out);
        self.prep_time.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let id = OrderId::decode(reader)?;
        let restaurant = NodeId::decode(reader)?;
        let customer = NodeId::decode(reader)?;
        let placed_at = TimePoint::decode(reader)?;
        let items = u32::decode(reader)?;
        let prep_time = Duration::decode(reader)?;
        if items == 0 {
            return Err(DecodeError::Invalid("Order must contain at least one item".to_string()));
        }
        Ok(Order { id, restaurant, customer, placed_at, items, prep_time })
    }
}

impl Codec for PlannedOrder {
    fn encode(&self, out: &mut Vec<u8>) {
        self.order.encode(out);
        self.picked_up.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(PlannedOrder { order: Order::decode(reader)?, picked_up: bool::decode(reader)? })
    }
}

impl Codec for DispatchConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.max_orders_per_vehicle.encode(out);
        self.max_items_per_vehicle.encode(out);
        self.rejection_penalty_secs.encode(out);
        self.accumulation_window.encode(out);
        self.batching_threshold.encode(out);
        self.gamma.encode(out);
        self.k_factor.encode(out);
        self.rejection_deadline.encode(out);
        self.max_first_mile.encode(out);
        self.use_batching.encode(out);
        self.use_reshuffle.encode(out);
        self.use_bfs_sparsification.encode(out);
        self.use_angular_distance.encode(out);
        self.num_threads.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let config = DispatchConfig {
            max_orders_per_vehicle: usize::decode(reader)?,
            max_items_per_vehicle: u32::decode(reader)?,
            rejection_penalty_secs: f64::decode(reader)?,
            accumulation_window: Duration::decode(reader)?,
            batching_threshold: Duration::decode(reader)?,
            gamma: f64::decode(reader)?,
            k_factor: f64::decode(reader)?,
            rejection_deadline: Duration::decode(reader)?,
            max_first_mile: Duration::decode(reader)?,
            use_batching: bool::decode(reader)?,
            use_reshuffle: bool::decode(reader)?,
            use_bfs_sparsification: bool::decode(reader)?,
            use_angular_distance: bool::decode(reader)?,
            num_threads: usize::decode(reader)?,
        };
        config.validate().map_err(|err| DecodeError::Invalid(format!("DispatchConfig: {err}")))?;
        Ok(config)
    }
}

/// Reads a little-endian `u32` at byte offset `at`. Infallible by
/// construction (fixed-size copy), so frame parsers that have already
/// length-checked their input need no `try_into().expect(..)`.
///
/// # Panics
/// Slice-indexes out of bounds if `bytes.len() < at + 4`; callers must
/// length-check first (the WAL/checkpoint readers do).
pub fn u32_le_at(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

/// Reads a little-endian `u64` at byte offset `at`. See [`u32_le_at`].
///
/// # Panics
/// Slice-indexes out of bounds if `bytes.len() < at + 8`; callers must
/// length-check first.
pub fn u64_le_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial `0xEDB88320`), table-driven.
/// Used by the WAL record frame and checkpoint container to detect
/// corruption; not a cryptographic integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = build_crc_table();
    let mut crc = !0u32;
    for &byte in bytes {
        let index = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[index];
    }
    !crc
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).expect("roundtrip decodes"), value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("Δ-window"));
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((3u32, 4u64));
        roundtrip([1.0f64, 2.5, -0.0]);
        roundtrip(BTreeMap::from([(2u32, 20u64), (1, 10)]));
    }

    #[test]
    fn a_map_is_refused_unless_its_keys_arrive_strictly_ascending() {
        for unsorted in [vec![(2u32, 20u64), (1, 10)], vec![(1, 10), (1, 11)]] {
            let decoded = BTreeMap::<u32, u64>::from_bytes(&unsorted.to_bytes());
            assert!(matches!(decoded, Err(DecodeError::Invalid(_))), "{unsorted:?}: {decoded:?}");
        }
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for value in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -1e-300] {
            let bytes = value.to_bytes();
            let back = f64::from_bytes(&bytes).unwrap();
            assert_eq!(back.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(TimePoint::from_hms(12, 34, 56));
        roundtrip(Duration::from_mins(7.25));
        roundtrip(HourSlot::new(23));
        roundtrip(NodeId(42));
        roundtrip(EdgeId(7));
        roundtrip(OrderId(u64::MAX));
        roundtrip(VehicleId(9));
        roundtrip(Order::new(
            OrderId(3),
            NodeId(1),
            NodeId(2),
            TimePoint::from_hms(12, 0, 0),
            2,
            Duration::from_mins(9.0),
        ));
        roundtrip(DispatchConfig::default());
    }

    #[test]
    fn invalid_values_yield_typed_errors_not_panics() {
        // A negative duration on the wire.
        let bytes = (-1.0f64).to_bytes();
        assert!(matches!(Duration::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
        // A NaN time point.
        let bytes = f64::NAN.to_bytes();
        assert!(matches!(TimePoint::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
        // An out-of-range hour slot.
        assert!(matches!(HourSlot::from_bytes(&[24]), Err(DecodeError::Invalid(_))));
        // A zero-item order.
        let mut bytes = Vec::new();
        OrderId(1).encode(&mut bytes);
        NodeId(0).encode(&mut bytes);
        NodeId(1).encode(&mut bytes);
        TimePoint::MIDNIGHT.encode(&mut bytes);
        0u32.encode(&mut bytes);
        Duration::ZERO.encode(&mut bytes);
        assert!(matches!(Order::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn truncation_yields_eof_not_panics() {
        let full = Order::new(
            OrderId(3),
            NodeId(1),
            NodeId(2),
            TimePoint::from_hms(12, 0, 0),
            2,
            Duration::from_mins(9.0),
        )
        .to_bytes();
        for cut in 0..full.len() {
            let err = Order::from_bytes(&full[..cut]).expect_err("truncated input must fail");
            assert!(matches!(err, DecodeError::UnexpectedEof { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        // A Vec claiming u64::MAX elements with 2 bytes of payload.
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2]);
        assert!(matches!(Vec::<u64>::from_bytes(&bytes), Err(DecodeError::LengthOverflow { .. })));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(matches!(u32::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitive to every bit.
        assert_ne!(crc32(b"foodmatch"), crc32(b"foodmatcg"));
    }
}
