//! The write-ahead log: a durable, replayable record of every input the
//! online dispatch layer receives — with group-commit batched fsync.
//!
//! Dispatch is deterministic: the same inputs in the same order produce the
//! same windows, the same assignments, the same report — bit for bit. That
//! makes crash-safety a logging problem. A [`WriteAheadLog`] records every
//! [`submit_order`](crate::DispatchService::submit_order),
//! [`ingest_event`](crate::DispatchService::ingest_event) and
//! [`advance_to`](crate::DispatchService::advance_to) call as a framed
//! [`WalRecord`] *before* it is applied; recovery restores the latest
//! [checkpoint](crate::checkpoint) and replays the log suffix past the
//! checkpoint's [`wal_seq`](crate::checkpoint::ServiceCheckpoint::wal_seq),
//! landing on exactly the state — and exactly the output stream — the
//! uninterrupted run would have produced.
//!
//! ## Group commit
//!
//! One `fdatasync` per record caps durable ingest around the disk's flush
//! rate — three orders of magnitude below what the dispatcher itself
//! sustains. A [`FlushPolicy`] amortises that cost: appended records are
//! framed into an in-memory group and written + fsynced *once per flush*.
//! The log therefore distinguishes two sequence numbers:
//!
//! * [`appended_seq`](WriteAheadLog::appended_seq) — records accepted into
//!   the log (buffered or durable);
//! * [`acked_seq`](WriteAheadLog::acked_seq) — records known durable on
//!   disk. Only acked records survive a crash.
//!
//! The durability contract is *prefix durability*: a crash loses at most
//! the unflushed suffix `[acked_seq, appended_seq)`, never a record below
//! an acked one, never a reordered or fabricated record. Recovery lands on
//! a valid prefix run ending at a flush boundary;
//! `tests/recovery_equivalence.rs` pins the property for every policy.
//!
//! ## On-disk format
//!
//! ```text
//! [8-byte magic "FMWAL002"] [u64 base_seq] [u32 CRC-32 of base_seq]
//! repeated: [u32 payload length] [u32 CRC-32 of payload] [payload]
//! ```
//!
//! All integers little-endian; payloads are [`Codec`]-encoded
//! [`WalRecord`]s. `base_seq` is the global sequence number of the first
//! record in the file — zero for a fresh log, the sealed checkpoint's
//! `wal_seq` after [compaction](WriteAheadLog::compact_below) dropped the
//! prefix a checkpoint already covers. The reader distinguishes two failure
//! shapes, mirroring what a real crash can and cannot produce:
//!
//! * a **torn tail** — the file ends mid-record, exactly what a crash
//!   during a group flush leaves behind. The partial record is dropped and
//!   reported as [`TornTail`]; every record before it is intact (flushes
//!   write the group in order). [`WriteAheadLog::open`] truncates the tear
//!   and resumes appending after the last whole record.
//! * **corruption** — a checksum mismatch, an oversized length, or a
//!   payload that fails structural validation *anywhere* in the log. No
//!   crash produces this (earlier records were fully flushed before later
//!   ones were written); it means the file was damaged after the fact, and
//!   reading stops with a hard, typed [`WalError`]. Never a panic, never a
//!   silently wrong prefix.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::checkpoint::sync_parent_dir;
use foodmatch_core::codec::{crc32, u32_le_at, u64_le_at, ByteReader, Codec, DecodeError};
use foodmatch_core::Order;
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::TimePoint;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic prefix of every WAL file (8 bytes, versioned). Version 002 added
/// the checksummed `base_seq` header field for compacted logs.
pub const WAL_MAGIC: &[u8; 8] = b"FMWAL002";

/// Total size of the file header: magic, base sequence, header CRC.
pub const WAL_HEADER_LEN: usize = 8 + 8 + 4;

/// Upper bound on one record's payload (16 MiB). A declared length above
/// this is corruption, not a plausibly torn append — even a maximal-fleet
/// disruption event is orders of magnitude smaller.
pub const MAX_RECORD_LEN: u32 = 16 << 20;

/// One logged dispatcher input. The three variants mirror the three
/// mutating calls of the online API.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An order was submitted.
    SubmitOrder(Order),
    /// A disruption event was ingested.
    IngestEvent(DisruptionEvent),
    /// The clock was advanced to this target.
    AdvanceTo(TimePoint),
}

impl Codec for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::SubmitOrder(order) => {
                out.push(0);
                order.encode(out);
            }
            WalRecord::IngestEvent(event) => {
                out.push(1);
                event.encode(out);
            }
            WalRecord::AdvanceTo(until) => {
                out.push(2);
                until.encode(out);
            }
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => Ok(WalRecord::SubmitOrder(Order::decode(reader)?)),
            1 => Ok(WalRecord::IngestEvent(DisruptionEvent::decode(reader)?)),
            2 => Ok(WalRecord::AdvanceTo(TimePoint::decode(reader)?)),
            tag => Err(DecodeError::Invalid(format!("unknown WalRecord tag {tag}"))),
        }
    }
}

/// When the write-ahead log flushes buffered records to disk.
///
/// Both policies preserve the append *order*; they differ only in how many
/// records share one `fdatasync`. The group-commit trade is explicit: a
/// crash loses at most the unflushed suffix (`appended_seq − acked_seq`
/// records), and recovery always lands on a clean flush boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every record — the strictest contract (nothing is ever
    /// lost once `append` returns) and the default. One fsync per record.
    #[default]
    EveryRecord,
    /// Flush when an [`AdvanceTo`](WalRecord::AdvanceTo) record is appended
    /// — one fsync per accumulation window, aligning durability with the
    /// dispatch cadence: a window's inputs become durable together, before
    /// any of its outputs are computed.
    Window,
}

/// A typed write-ahead-log failure. Reading or writing a WAL never panics;
/// every corruption and I/O mode surfaces as one of these.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`] (wrong file, or a
    /// future/incompatible format version), or is shorter than the header.
    BadHeader {
        /// The bytes actually found (up to the header length).
        found: Vec<u8>,
    },
    /// The header's `base_seq` does not match its stored CRC-32 — the
    /// header was damaged after the fact.
    HeaderChecksumMismatch {
        /// Checksum stored in the header.
        expected: u32,
        /// Checksum of the `base_seq` bytes actually present.
        actual: u32,
    },
    /// A record frame declares a payload larger than [`MAX_RECORD_LEN`] —
    /// a corrupt length field, not a torn append.
    OversizedRecord {
        /// Byte offset of the offending frame.
        offset: u64,
        /// The declared payload length.
        declared: u32,
    },
    /// A record's payload does not match its stored CRC-32. The log was
    /// damaged after it was written (a torn append cannot produce this —
    /// earlier records are flushed before later ones exist).
    ChecksumMismatch {
        /// Global sequence number of the corrupt record.
        index: u64,
        /// Byte offset of its frame.
        offset: u64,
        /// Checksum stored in the frame.
        expected: u32,
        /// Checksum of the payload actually present.
        actual: u32,
    },
    /// A record passed its checksum but failed structural validation.
    Malformed {
        /// Global sequence number of the malformed record.
        index: u64,
        /// Byte offset of its frame.
        offset: u64,
        /// The underlying decode failure.
        source: DecodeError,
    },
    /// A replay asked for records below the log's `base_seq` — the prefix
    /// was [compacted](WriteAheadLog::compact_below) away after a
    /// checkpoint sealed, and that checkpoint (or a newer one) is required
    /// to recover. Raised instead of silently replaying a partial history.
    CompactedPast {
        /// First sequence number still present in the log.
        base_seq: u64,
        /// The (older) sequence number the caller asked to replay from.
        requested: u64,
    },
    /// A fault-injection point fired (see
    /// [`FailPoint`](crate::durable::FailPoint)): the simulated process
    /// died here. Only produced by the fault-injection harness.
    CrashInjected {
        /// The record sequence number at which the simulated crash fired.
        seq: u64,
    },
    /// The durable wrapper already crashed (via a fail point); further
    /// input is refused until recovery.
    Crashed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL i/o failed: {e}"),
            WalError::BadHeader { found } => {
                write!(f, "not a WAL file (header {found:?})")
            }
            WalError::HeaderChecksumMismatch { expected, actual } => write!(
                f,
                "WAL header checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            WalError::OversizedRecord { offset, declared } => write!(
                f,
                "WAL record at offset {offset} declares {declared} payload bytes (limit {MAX_RECORD_LEN}) — corrupt length"
            ),
            WalError::ChecksumMismatch { index, offset, expected, actual } => write!(
                f,
                "WAL record {index} (offset {offset}) checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            WalError::Malformed { index, offset, source } => {
                write!(f, "WAL record {index} (offset {offset}) is malformed: {source}")
            }
            WalError::CompactedPast { base_seq, requested } => write!(
                f,
                "WAL was compacted up to sequence {base_seq}; records from {requested} are gone — \
                 recover from the checkpoint the compaction was anchored to"
            ),
            WalError::CrashInjected { seq } => {
                write!(f, "fault injection: simulated crash at WAL sequence {seq}")
            }
            WalError::Crashed => {
                write!(f, "dispatcher crashed (fault injection); recover before submitting input")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Malformed { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A partial final record left by a crash mid-flush: tolerated, dropped,
/// reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the partial frame starts (the valid prefix ends
    /// here).
    pub offset: u64,
    /// Number of partial bytes dropped.
    pub bytes: u64,
}

/// The result of reading a WAL: the intact records plus, when the file
/// ends mid-record, the torn tail that was dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct WalReadOutcome {
    /// Global sequence number of `records[0]` — zero for an uncompacted
    /// log, the compaction anchor otherwise.
    pub base_seq: u64,
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Present when the file ended mid-record (crash during a flush).
    pub torn_tail: Option<TornTail>,
}

impl WalReadOutcome {
    /// Sequence number the next append would get (= records durably in the
    /// file, counted from the global origin).
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }

    /// The records from global sequence `from` on — the replay suffix past
    /// a checkpoint's `wal_seq`. Returns [`WalError::CompactedPast`] when
    /// `from` predates the log's `base_seq`: the history below the
    /// compaction anchor is gone, and replaying a partial middle would
    /// corrupt state. A `from` beyond the end yields an empty slice (the
    /// checkpoint is newer than every surviving record).
    pub fn suffix_from(&self, from: u64) -> Result<&[WalRecord], WalError> {
        if from < self.base_seq {
            return Err(WalError::CompactedPast { base_seq: self.base_seq, requested: from });
        }
        let skip = (from - self.base_seq) as usize;
        Ok(&self.records[skip.min(self.records.len())..])
    }
}

/// Frames one record: `[u32 len] [u32 crc] [payload]`.
fn frame_into(record: &WalRecord, framed: &mut Vec<u8>) {
    let payload = record.to_bytes();
    framed.reserve(payload.len() + 8);
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
}

/// The file header: magic, base sequence and a CRC binding the two.
fn header(base_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    let seq_bytes = base_seq.to_le_bytes();
    out.extend_from_slice(&seq_bytes);
    out.extend_from_slice(&crc32(&seq_bytes).to_le_bytes());
    out
}

/// Decodes a WAL from raw bytes. Torn tails are tolerated (see the
/// [module docs](self)); any other irregularity is a hard [`WalError`].
pub fn read_wal_bytes(bytes: &[u8]) -> Result<WalReadOutcome, WalError> {
    if bytes.len() < WAL_HEADER_LEN || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::BadHeader {
            found: bytes[..bytes.len().min(WAL_HEADER_LEN)].to_vec(),
        });
    }
    let base_seq = u64_le_at(bytes, 8);
    let expected = u32_le_at(bytes, 16);
    let actual = crc32(&base_seq.to_le_bytes());
    if actual != expected {
        return Err(WalError::HeaderChecksumMismatch { expected, actual });
    }
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return Ok(WalReadOutcome { base_seq, records, torn_tail: None });
        }
        if remaining < 8 {
            // The frame header itself is incomplete: torn flush.
            return Ok(WalReadOutcome {
                base_seq,
                records,
                torn_tail: Some(TornTail { offset: offset as u64, bytes: remaining as u64 }),
            });
        }
        let len = u32_le_at(bytes, offset);
        let expected = u32_le_at(bytes, offset + 4);
        if len > MAX_RECORD_LEN {
            return Err(WalError::OversizedRecord { offset: offset as u64, declared: len });
        }
        let body = offset + 8;
        if bytes.len() - body < len as usize {
            // Payload incomplete at end-of-file: torn flush.
            return Ok(WalReadOutcome {
                base_seq,
                records,
                torn_tail: Some(TornTail { offset: offset as u64, bytes: remaining as u64 }),
            });
        }
        let payload = &bytes[body..body + len as usize];
        let actual = crc32(payload);
        if actual != expected {
            return Err(WalError::ChecksumMismatch {
                index: base_seq + records.len() as u64,
                offset: offset as u64,
                expected,
                actual,
            });
        }
        let record = WalRecord::from_bytes(payload).map_err(|source| WalError::Malformed {
            index: base_seq + records.len() as u64,
            offset: offset as u64,
            source,
        })?;
        records.push(record);
        offset = body + len as usize;
    }
}

/// Reads and decodes a WAL file. See [`read_wal_bytes`].
pub fn read_wal_file(path: impl AsRef<Path>) -> Result<WalReadOutcome, WalError> {
    read_wal_bytes(&fs::read(path.as_ref())?)
}

/// An append-only write-ahead log file with group-commit flushing.
///
/// Appends are framed and checksummed into an in-memory group; the
/// [`FlushPolicy`] decides when the group is written and fsynced as one
/// unit. [`DurableDispatch`](crate::durable::DurableDispatch) enforces the
/// write-ahead ordering (buffer before apply, durable before ack), so the
/// *acked* log always holds at least as much history as any state the
/// process has acknowledged.
#[derive(Debug)]
pub struct WriteAheadLog {
    file: fs::File,
    path: PathBuf,
    policy: FlushPolicy,
    /// Global sequence number of the first record in this file.
    base_seq: u64,
    /// Records known durable on disk.
    acked_seq: u64,
    /// Records accepted into the log (acked + buffered).
    appended_seq: u64,
    /// Framed, unflushed records.
    buffer: Vec<u8>,
    metrics: WalMetrics,
}

/// Telemetry handles for the durability hot path, acquired when the log
/// is created or opened. Inert without an installed recorder; appends are
/// identical bytes either way.
#[derive(Debug)]
struct WalMetrics {
    /// `wal.append_ns` — one buffered append (framing + policy check;
    /// includes the flush when the policy triggers one).
    append_ns: foodmatch_telemetry::Histogram,
    /// `wal.fsync_ns` — the `sync_data` portion of each flush.
    fsync_ns: foodmatch_telemetry::Histogram,
    /// `wal.flush_records` — records per group flush (batch size).
    flush_records: foodmatch_telemetry::Histogram,
    /// `wal.unflushed` — records currently buffered (acked lag).
    unflushed: foodmatch_telemetry::Gauge,
    /// `wal.bytes` / `wal.records` — durable append volume.
    bytes: foodmatch_telemetry::Counter,
    records: foodmatch_telemetry::Counter,
    /// `wal.compactions` — prefix compactions performed.
    compactions: foodmatch_telemetry::Counter,
}

impl WalMetrics {
    #[expect(clippy::disallowed_methods, reason = "the constructor acquires each handle once")]
    fn acquire() -> Self {
        WalMetrics {
            append_ns: foodmatch_telemetry::histogram("wal.append_ns"),
            fsync_ns: foodmatch_telemetry::histogram("wal.fsync_ns"),
            flush_records: foodmatch_telemetry::histogram("wal.flush_records"),
            unflushed: foodmatch_telemetry::gauge("wal.unflushed"),
            bytes: foodmatch_telemetry::counter("wal.bytes"),
            records: foodmatch_telemetry::counter("wal.records"),
            compactions: foodmatch_telemetry::counter("wal.compactions"),
        }
    }
}

impl WriteAheadLog {
    /// Creates a fresh WAL at `path` (truncating any existing file) with
    /// the default per-record flush policy.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, WalError> {
        Self::create_with(path, FlushPolicy::EveryRecord)
    }

    /// Creates a fresh WAL at `path` (truncating any existing file) under
    /// the given [`FlushPolicy`] and writes the header.
    pub fn create_with(path: impl AsRef<Path>, policy: FlushPolicy) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = fs::File::create(&path)?;
        file.write_all(&header(0))?;
        file.sync_all()?;
        sync_parent_dir(&path)?;
        Ok(WriteAheadLog {
            file,
            path,
            policy,
            base_seq: 0,
            acked_seq: 0,
            appended_seq: 0,
            buffer: Vec::new(),
            metrics: WalMetrics::acquire(),
        })
    }

    /// Opens an existing WAL for appending with the default per-record
    /// flush policy. See [`open_with`](Self::open_with).
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, WalReadOutcome), WalError> {
        Self::open_with(path, FlushPolicy::EveryRecord)
    }

    /// Opens an existing WAL for appending: reads it back (propagating any
    /// corruption as a typed error), truncates a torn tail if one exists,
    /// and returns the log positioned after the last intact record together
    /// with everything read. This is the restart path — the returned
    /// records drive recovery replay, and
    /// [`WalReadOutcome::suffix_from`] guards compacted logs with a typed
    /// error instead of replaying a partial history.
    pub fn open_with(
        path: impl AsRef<Path>,
        policy: FlushPolicy,
    ) -> Result<(Self, WalReadOutcome), WalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = fs::read(&path)?;
        let outcome = read_wal_bytes(&bytes)?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        if let Some(tear) = outcome.torn_tail {
            file.set_len(tear.offset)?;
            file.sync_all()?;
        }
        let seq = outcome.next_seq();
        Ok((
            WriteAheadLog {
                file,
                path,
                policy,
                base_seq: outcome.base_seq,
                acked_seq: seq,
                appended_seq: seq,
                buffer: Vec::new(),
                metrics: WalMetrics::acquire(),
            },
            outcome,
        ))
    }

    /// Appends one record to the group buffer and flushes the group when
    /// the [`FlushPolicy`] calls for it. Returns the record's global
    /// sequence number (zero-based append index). The record is *durable*
    /// only once [`acked_seq`](Self::acked_seq) passes it.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, WalError> {
        let _span = foodmatch_telemetry::span("wal", "append");
        let _append = self.metrics.append_ns.timer();
        frame_into(record, &mut self.buffer);
        let seq = self.appended_seq;
        self.appended_seq += 1;
        let due = match self.policy {
            FlushPolicy::EveryRecord => true,
            FlushPolicy::Window => matches!(record, WalRecord::AdvanceTo(_)),
        };
        if due {
            self.flush()?;
        } else {
            self.metrics.unflushed.set((self.appended_seq - self.acked_seq) as i64);
        }
        Ok(seq)
    }

    /// Writes and fsyncs every buffered record as one group, advancing
    /// [`acked_seq`](Self::acked_seq) to [`appended_seq`](Self::appended_seq).
    /// A no-op on an empty buffer. Returns the new acked sequence.
    pub fn flush(&mut self) -> Result<u64, WalError> {
        if self.buffer.is_empty() {
            return Ok(self.acked_seq);
        }
        let batch = self.appended_seq - self.acked_seq;
        self.file.write_all(&self.buffer)?;
        {
            let _fsync = self.metrics.fsync_ns.timer();
            self.file.sync_data()?;
        }
        self.metrics.bytes.add(self.buffer.len() as u64);
        self.metrics.records.add(batch);
        self.metrics.flush_records.record(batch);
        self.metrics.unflushed.set(0);
        self.buffer.clear();
        self.acked_seq = self.appended_seq;
        Ok(self.acked_seq)
    }

    /// Drops every buffered (unacked) record without writing it — what a
    /// power cut does to the in-memory group. Rolls
    /// [`appended_seq`](Self::appended_seq) back to
    /// [`acked_seq`](Self::acked_seq). Crash-simulation hook; production
    /// code has no reason to call it.
    pub fn discard_unflushed(&mut self) -> u64 {
        let dropped = self.appended_seq - self.acked_seq;
        self.buffer.clear();
        self.appended_seq = self.acked_seq;
        self.metrics.unflushed.set(0);
        dropped
    }

    /// Flushes any buffered group, then appends only a *prefix* of the
    /// record's frame — a simulated torn flush, as a crash midway through
    /// a group write would leave. The record does not count as appended or
    /// durable. Used by the fault-injection harness to exercise the
    /// torn-tail recovery path.
    pub fn append_torn(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.flush()?;
        let mut framed = Vec::new();
        frame_into(record, &mut framed);
        let keep = (framed.len() / 2).max(1);
        self.file.write_all(&framed[..keep])?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Drops every durable record below global sequence `below` — the
    /// prefix a sealed checkpoint at `wal_seq = below` fully covers —
    /// bounding replay work and disk growth on long runs. The surviving
    /// suffix is rewritten to a sibling file with `base_seq = below` and
    /// atomically renamed over the log, so a crash mid-compaction leaves
    /// either the old log or the new one, never a hybrid. Any buffered
    /// group is flushed first; `below` values at or under the current
    /// `base_seq` are no-ops, and values past the acked end are clamped.
    ///
    /// Only compact at a *sealed* checkpoint's `wal_seq`: after
    /// compaction, recovery from any older checkpoint reports
    /// [`WalError::CompactedPast`].
    pub fn compact_below(&mut self, below: u64) -> Result<(), WalError> {
        let _span = foodmatch_telemetry::span("wal", "compact");
        self.flush()?;
        let below = below.min(self.acked_seq);
        if below <= self.base_seq {
            return Ok(());
        }
        let outcome = read_wal_bytes(&fs::read(&self.path)?)?;
        debug_assert_eq!(outcome.base_seq, self.base_seq);
        let keep = outcome.suffix_from(below)?;
        let tmp = self.path.with_extension("wal-compact");
        {
            let mut file = fs::File::create(&tmp)?;
            let mut bytes = header(below);
            for record in keep {
                frame_into(record, &mut bytes);
            }
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        self.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.file.sync_all()?;
        self.base_seq = below;
        self.metrics.compactions.inc();
        Ok(())
    }

    /// The flush policy this log runs under.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Global sequence number of the first record still in the file (zero
    /// until a compaction raises it).
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Records known durable on disk (and the global sequence number the
    /// next *flush* will ack up to, exclusive).
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Records accepted into the log — durable or buffered — and the
    /// sequence number the next append will get.
    pub fn appended_seq(&self) -> u64 {
        self.appended_seq
    }

    /// Records buffered but not yet durable (`appended_seq − acked_seq`).
    pub fn unflushed(&self) -> u64 {
        self.appended_seq - self.acked_seq
    }

    /// The file path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WriteAheadLog {
    /// A graceful shutdown flushes the buffered group — losing records is
    /// what *crashes* do, not drops. (Crash simulation calls
    /// [`discard_unflushed`](Self::discard_unflushed) first, making this a
    /// no-op.) Errors are swallowed: there is no way to report them from a
    /// destructor, and the acked contract never claimed these records.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::OrderId;
    use foodmatch_roadnet::{Duration as SimDuration, NodeId};

    fn sample_records() -> Vec<WalRecord> {
        let t = TimePoint::from_hms(12, 0, 0);
        vec![
            WalRecord::SubmitOrder(Order::new(
                OrderId(1),
                NodeId(4),
                NodeId(9),
                t,
                2,
                SimDuration::from_mins(7.0),
            )),
            WalRecord::AdvanceTo(t + SimDuration::from_mins(3.0)),
            WalRecord::AdvanceTo(t + SimDuration::from_mins(6.0)),
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fm-wal-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_read_round_trip_preserves_every_record() {
        let path = temp_path("roundtrip");
        let mut wal = WriteAheadLog::create(&path).expect("create");
        let records = sample_records();
        for (i, record) in records.iter().enumerate() {
            assert_eq!(wal.append(record).expect("append"), i as u64);
            assert_eq!(wal.acked_seq(), i as u64 + 1, "EveryRecord acks each append");
        }
        let outcome = read_wal_file(&path).expect("read");
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.base_seq, 0);
        assert_eq!(outcome.torn_tail, None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn window_policy_flushes_on_advance_records() {
        let path = temp_path("window");
        let records = sample_records();
        {
            let mut wal = WriteAheadLog::create_with(&path, FlushPolicy::Window).expect("create");
            wal.append(&records[0]).expect("append submit");
            assert_eq!(wal.acked_seq(), 0, "submissions buffer");
            assert_eq!(wal.unflushed(), 1);
            // Nothing on disk yet beyond the header.
            assert!(read_wal_file(&path).expect("read").records.is_empty());
            wal.append(&records[1]).expect("append advance");
            assert_eq!(wal.acked_seq(), 2, "the advance flushes the window's group");
            wal.append(&records[0]).expect("append submit");
            assert_eq!(wal.acked_seq(), 2, "the next window's submission buffers again");
            // Graceful drop flushes the partial group.
        }
        let expected = [records[0].clone(), records[1].clone(), records[0].clone()];
        assert_eq!(read_wal_file(&path).expect("read").records, expected);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn discard_unflushed_loses_exactly_the_unacked_suffix() {
        let path = temp_path("discard");
        let records = sample_records();
        let mut wal = WriteAheadLog::create_with(&path, FlushPolicy::Window).expect("create");
        wal.append(&records[0]).expect("append");
        wal.flush().expect("flush");
        // Submissions only: under `Window` nothing but an advance flushes.
        wal.append(&records[0]).expect("append");
        wal.append(&records[0]).expect("append");
        assert_eq!(wal.discard_unflushed(), 2);
        assert_eq!(wal.appended_seq(), 1);
        drop(wal); // the drop-flush has nothing left to write
        let outcome = read_wal_file(&path).expect("read");
        assert_eq!(outcome.records, records[..1], "only the acked prefix survives");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_appending_resumes_after_it() {
        let path = temp_path("torn");
        let mut wal = WriteAheadLog::create(&path).expect("create");
        let records = sample_records();
        wal.append(&records[0]).expect("append");
        wal.append_torn(&records[1]).expect("torn append");
        drop(wal);

        let (mut reopened, outcome) = WriteAheadLog::open(&path).expect("open tolerates tear");
        assert_eq!(outcome.records, records[..1]);
        assert!(outcome.torn_tail.is_some(), "the tear is reported");
        assert_eq!(reopened.appended_seq(), 1);

        // The tear was truncated: appending continues from a clean log.
        reopened.append(&records[2]).expect("append after recovery");
        drop(reopened);
        let outcome = read_wal_file(&path).expect("reread");
        assert_eq!(outcome.records, vec![records[0].clone(), records[2].clone()]);
        assert_eq!(outcome.torn_tail, None);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_the_prefix_and_stamps_the_base_seq() {
        let path = temp_path("compact");
        let mut wal = WriteAheadLog::create(&path).expect("create");
        let records = sample_records();
        for record in &records {
            wal.append(record).expect("append");
        }
        wal.compact_below(2).expect("compact");
        assert_eq!(wal.base_seq(), 2);
        assert_eq!(wal.appended_seq(), 3, "sequence numbers keep their global origin");

        let outcome = read_wal_file(&path).expect("read compacted");
        assert_eq!(outcome.base_seq, 2);
        assert_eq!(outcome.records, records[2..]);
        assert_eq!(outcome.suffix_from(2).expect("anchored suffix"), &records[2..]);
        assert_eq!(outcome.suffix_from(3).expect("empty suffix"), &[] as &[WalRecord]);
        assert!(
            matches!(
                outcome.suffix_from(0),
                Err(WalError::CompactedPast { base_seq: 2, requested: 0 })
            ),
            "replaying below the compaction anchor is a typed error"
        );

        // Appending continues after a compaction, and reopening a compacted
        // log restores the global sequence numbering.
        wal.append(&records[0]).expect("append after compaction");
        drop(wal);
        let (reopened, outcome) = WriteAheadLog::open(&path).expect("reopen compacted");
        assert_eq!(outcome.base_seq, 2);
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(reopened.appended_seq(), 4);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_is_idempotent_and_clamped() {
        let path = temp_path("compact-clamp");
        let mut wal = WriteAheadLog::create(&path).expect("create");
        for record in &sample_records() {
            wal.append(record).expect("append");
        }
        wal.compact_below(2).expect("compact");
        wal.compact_below(2).expect("same anchor is a no-op");
        wal.compact_below(1).expect("older anchor is a no-op");
        assert_eq!(wal.base_seq(), 2);
        wal.compact_below(100).expect("past-the-end anchor clamps");
        assert_eq!(wal.base_seq(), 3);
        assert!(read_wal_file(&path).expect("read").records.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_typed_error() {
        let path = temp_path("corrupt");
        let mut wal = WriteAheadLog::create(&path).expect("create");
        for record in &sample_records() {
            wal.append(record).expect("append");
        }
        drop(wal);
        let mut bytes = fs::read(&path).expect("read file");
        // Flip one payload bit of the *first* record (well before the tail).
        bytes[WAL_HEADER_LEN + 8] ^= 0x10;
        match read_wal_bytes(&bytes) {
            Err(WalError::ChecksumMismatch { index: 0, .. }) => {}
            other => panic!("expected a checksum error on record 0, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn header_and_length_corruption_yield_typed_errors() {
        assert!(matches!(read_wal_bytes(b"nope"), Err(WalError::BadHeader { .. })));
        assert!(matches!(
            read_wal_bytes(b"XXXXXXXXrest-of-the-header"),
            Err(WalError::BadHeader { .. })
        ));

        // A damaged base_seq is caught by the header checksum.
        let mut bytes = header(7);
        bytes[9] ^= 0x01;
        assert!(matches!(read_wal_bytes(&bytes), Err(WalError::HeaderChecksumMismatch { .. })));

        let mut bytes = header(0);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(read_wal_bytes(&bytes), Err(WalError::OversizedRecord { .. })));
    }
}
