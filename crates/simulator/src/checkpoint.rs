//! Checkpoint serialisation for the online dispatch layer.
//!
//! A [`ServiceCheckpoint`] is the complete, self-contained run state of a
//! [`DispatchService`](crate::DispatchService): order pools and cursors,
//! fleet physics (positions, edge-level itineraries, restaurant waits,
//! shift state), the event-schedule cursor with its active disruption set,
//! and every metrics accumulator. A [`RouterCheckpoint`] is the sharded
//! analogue for a [`DispatchRouter`](crate::DispatchRouter): one service
//! checkpoint per zone plus the router's own manifest (zone membership
//! maps, lockstep clock, termination flag).
//!
//! What a checkpoint deliberately does **not** contain: the road network
//! and zone map (deployment configuration, rebuilt deterministically), the
//! policy (stateless across windows by the
//! [`DispatchPolicy`](foodmatch_core::DispatchPolicy) contract), the
//! engine's memo caches (performance state — queries re-memoise), and the
//! schedule's rendered-overlay cache (rebuilt on restore and debug-asserted
//! equal). Restoring therefore needs the same network, zones and policy the
//! original run was created with; everything else round-trips bit-exactly.
//!
//! ## On-disk format
//!
//! Checkpoints encode through the deterministic
//! [`Codec`](foodmatch_core::Codec) (hash containers are serialised in
//! sorted key order, floats as raw IEEE-754 bits), so the same state always
//! produces the same bytes. A checkpoint *file* wraps the payload in a
//! checksummed container:
//!
//! ```text
//! [8-byte magic "FMCKPT02"] [u64 payload length] [u32 CRC-32 of payload] [payload]
//! ```
//!
//! Files are written atomically — to a temporary sibling, fsynced, then
//! renamed into place — so a crash mid-write leaves the previous checkpoint
//! (or nothing), never a torn one. A router checkpoint is a *directory*:
//! per-shard checkpoint files plus a `manifest` that records each shard
//! file's checksum; the directory is staged under a temporary name and
//! renamed as a unit. Corruption anywhere (bad magic, short file, checksum
//! mismatch, invalid payload) surfaces as a typed [`CheckpointError`] —
//! never a panic, never silently wrong state.

use crate::fleet::VehicleState;
use crate::metrics::MetricsCollector;
use foodmatch_core::codec::{crc32, u32_le_at, u64_le_at, ByteReader, Codec, DecodeError};
use foodmatch_core::{DispatchConfig, Order, OrderId, VehicleId};
use foodmatch_events::EventSchedule;
use foodmatch_roadnet::TimePoint;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Magic prefix of every checkpoint file (8 bytes, versioned).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FMCKPT02";

/// Name of the manifest file inside a router checkpoint directory.
pub const ROUTER_MANIFEST: &str = "manifest";

/// A typed failure loading or storing a checkpoint. Corrupt or truncated
/// files are always reported through one of these variants — reading a
/// checkpoint never panics.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is shorter than the fixed container header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The file does not start with [`CHECKPOINT_MAGIC`] (wrong file, or a
    /// future/incompatible format version).
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload's CRC-32 does not match the header — the file is
    /// corrupt.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// The payload passed its checksum but failed structural validation
    /// (should not happen without a CRC collision; reported, not trusted).
    Decode(DecodeError),
    /// A router manifest references a different number of shards than the
    /// checkpoint directory (or the zone map at restore time) provides.
    ShardCountMismatch {
        /// Shards the manifest declares.
        expected: usize,
        /// Shards actually found.
        found: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            CheckpointError::TooShort { len } => {
                write!(f, "checkpoint file too short ({len} bytes) for the container header")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:?})")
            }
            CheckpointError::LengthMismatch { declared, actual } => {
                write!(f, "checkpoint payload length mismatch: header says {declared}, file holds {actual}")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            CheckpointError::Decode(e) => write!(f, "checkpoint payload invalid: {e}"),
            CheckpointError::ShardCountMismatch { expected, found } => {
                write!(f, "router checkpoint shard count mismatch: manifest says {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Decode(e)
    }
}

/// A typed failure rebuilding a dispatcher from an (already decoded)
/// checkpoint, when the caller-supplied deployment pieces do not match it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The zone map handed to [`DispatchRouter::restore`](crate::DispatchRouter::restore)
    /// has a different number of zones than the checkpoint has shards.
    ZoneCountMismatch {
        /// Shards in the checkpoint.
        checkpoint: usize,
        /// Zones in the supplied zone map.
        zones: usize,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ZoneCountMismatch { checkpoint, zones } => write!(
                f,
                "checkpoint has {checkpoint} shards but the zone map has {zones} zones — \
                 restore with the zone map the run was created with"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The complete run state of one [`DispatchService`](crate::DispatchService).
///
/// Obtained from [`DispatchService::checkpoint`](crate::DispatchService::checkpoint);
/// turned back into a live service by
/// [`DispatchService::restore`](crate::DispatchService::restore). Serialises
/// deterministically through [`Codec`]; persist with [`save_checkpoint`] /
/// [`load_checkpoint`].
#[derive(Clone, Debug)]
pub struct ServiceCheckpoint {
    /// Number of write-ahead-log records already applied when the
    /// checkpoint was taken. Zero for bare (non-durable) services; a
    /// [`DurableDispatch`](crate::durable::DurableDispatch) stamps its log
    /// position here so recovery knows which log suffix to replay.
    pub wal_seq: u64,
    pub(crate) config: DispatchConfig,
    pub(crate) start: TimePoint,
    pub(crate) end: TimePoint,
    pub(crate) drain_end: TimePoint,
    pub(crate) window_close: TimePoint,
    pub(crate) orders: Vec<Order>,
    pub(crate) next_order: usize,
    pub(crate) known: Vec<(OrderId, TimePoint)>,
    pub(crate) schedule: EventSchedule,
    pub(crate) vehicles: Vec<VehicleState>,
    pub(crate) pending: Vec<Order>,
    pub(crate) assigned_or_done: Vec<OrderId>,
    pub(crate) delivered: Vec<OrderId>,
    pub(crate) cancel_requested: Vec<OrderId>,
    pub(crate) prep_delay_pending: Vec<(OrderId, foodmatch_roadnet::Duration)>,
    pub(crate) cancelled_ids: Vec<OrderId>,
    pub(crate) sdt: Vec<(OrderId, foodmatch_roadnet::Duration)>,
    pub(crate) collector: MetricsCollector,
    pub(crate) finished: bool,
}

impl ServiceCheckpoint {
    /// The service clock (close time of the last processed window) at the
    /// moment the checkpoint was taken.
    pub fn clock(&self) -> TimePoint {
        self.window_close
    }

    /// Whether the checkpointed service had already finished.
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

fn require(cond: bool, msg: impl FnOnce() -> String) -> Result<(), DecodeError> {
    if cond {
        Ok(())
    } else {
        Err(DecodeError::Invalid(msg()))
    }
}

fn require_sorted_unique<K: Ord + Copy + fmt::Debug>(
    keys: impl Iterator<Item = K> + Clone,
    what: &str,
) -> Result<(), DecodeError> {
    let mut shifted = keys.clone();
    shifted.next();
    for (a, b) in keys.zip(shifted) {
        if a >= b {
            return Err(DecodeError::Invalid(format!(
                "{what} must be strictly sorted, found {a:?} before {b:?}"
            )));
        }
    }
    Ok(())
}

impl Codec for ServiceCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wal_seq.encode(out);
        self.config.encode(out);
        self.start.encode(out);
        self.end.encode(out);
        self.drain_end.encode(out);
        self.window_close.encode(out);
        self.orders.encode(out);
        self.next_order.encode(out);
        self.known.encode(out);
        self.schedule.encode(out);
        self.vehicles.encode(out);
        self.pending.encode(out);
        self.assigned_or_done.encode(out);
        self.delivered.encode(out);
        self.cancel_requested.encode(out);
        self.prep_delay_pending.encode(out);
        self.cancelled_ids.encode(out);
        self.sdt.encode(out);
        self.collector.encode(out);
        self.finished.encode(out);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let wal_seq = u64::decode(reader)?;
        let config = DispatchConfig::decode(reader)?;
        let start = TimePoint::decode(reader)?;
        let end = TimePoint::decode(reader)?;
        let drain_end = TimePoint::decode(reader)?;
        let window_close = TimePoint::decode(reader)?;
        require(start <= end && end <= drain_end, || {
            format!("checkpoint horizon out of order: start {start:?}, end {end:?}, drain {drain_end:?}")
        })?;
        require(start <= window_close && window_close <= drain_end, || {
            format!("checkpoint clock {window_close:?} outside [start, drain] bounds")
        })?;
        let orders = Vec::<Order>::decode(reader)?;
        let next_order = usize::decode(reader)?;
        require(next_order <= orders.len(), || {
            format!("order cursor {next_order} past the {} submitted orders", orders.len())
        })?;
        let known = Vec::<(OrderId, TimePoint)>::decode(reader)?;
        require_sorted_unique(known.iter().map(|&(id, _)| id), "checkpoint order index")?;
        let schedule = EventSchedule::decode(reader)?;
        let vehicles = Vec::<VehicleState>::decode(reader)?;
        {
            let mut ids: Vec<VehicleId> = vehicles.iter().map(|v| v.id).collect();
            ids.sort_unstable();
            ids.dedup();
            require(ids.len() == vehicles.len(), || {
                "checkpoint fleet contains duplicate vehicle ids".to_string()
            })?;
        }
        let pending = Vec::<Order>::decode(reader)?;
        let assigned_or_done = Vec::<OrderId>::decode(reader)?;
        require_sorted_unique(assigned_or_done.iter().copied(), "assigned/done set")?;
        let delivered = Vec::<OrderId>::decode(reader)?;
        require_sorted_unique(delivered.iter().copied(), "delivered set")?;
        let cancel_requested = Vec::<OrderId>::decode(reader)?;
        require_sorted_unique(cancel_requested.iter().copied(), "cancel-requested set")?;
        let prep_delay_pending = Vec::<(OrderId, foodmatch_roadnet::Duration)>::decode(reader)?;
        require_sorted_unique(prep_delay_pending.iter().map(|&(id, _)| id), "prep-delay map")?;
        let cancelled_ids = Vec::<OrderId>::decode(reader)?;
        require_sorted_unique(cancelled_ids.iter().copied(), "cancelled set")?;
        let sdt = Vec::<(OrderId, foodmatch_roadnet::Duration)>::decode(reader)?;
        require_sorted_unique(sdt.iter().map(|&(id, _)| id), "SDT map")?;
        let collector = MetricsCollector::decode(reader)?;
        let finished = bool::decode(reader)?;
        Ok(ServiceCheckpoint {
            wal_seq,
            config,
            start,
            end,
            drain_end,
            window_close,
            orders,
            next_order,
            known,
            schedule,
            vehicles,
            pending,
            assigned_or_done,
            delivered,
            cancel_requested,
            prep_delay_pending,
            cancelled_ids,
            sdt,
            collector,
            finished,
        })
    }
}

/// The complete run state of one [`DispatchRouter`](crate::DispatchRouter):
/// the router's own manifest (zone membership maps, lockstep clock,
/// termination state) plus one [`ServiceCheckpoint`] per zone shard.
///
/// Obtained from [`DispatchRouter::checkpoint`](crate::DispatchRouter::checkpoint);
/// turned back into a live router by
/// [`DispatchRouter::restore`](crate::DispatchRouter::restore). Persist as
/// a directory of per-shard files with [`save_router_checkpoint`] /
/// [`load_router_checkpoint`], or as a single file with the plain
/// [`save_checkpoint`] (it implements [`Codec`] like any other state).
#[derive(Clone, Debug)]
pub struct RouterCheckpoint {
    /// Write-ahead-log position, as on [`ServiceCheckpoint::wal_seq`].
    pub wal_seq: u64,
    pub(crate) config: DispatchConfig,
    pub(crate) window_close: TimePoint,
    pub(crate) drain_end: TimePoint,
    pub(crate) finished: bool,
    pub(crate) order_zone: Vec<(OrderId, u32)>,
    pub(crate) vehicle_zone: Vec<(VehicleId, u32)>,
    pub(crate) shards: Vec<ServiceCheckpoint>,
}

impl RouterCheckpoint {
    /// The router clock at the moment the checkpoint was taken.
    pub fn clock(&self) -> TimePoint {
        self.window_close
    }

    /// Number of zone shards in the checkpoint.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the checkpointed router had already finished.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Encodes only the manifest part (everything but the shard states);
    /// shard checksums bind the manifest to its shard files.
    fn encode_manifest(&self, shard_crcs: &[u32], out: &mut Vec<u8>) {
        self.wal_seq.encode(out);
        self.config.encode(out);
        self.window_close.encode(out);
        self.drain_end.encode(out);
        self.finished.encode(out);
        self.order_zone.encode(out);
        self.vehicle_zone.encode(out);
        shard_crcs.to_vec().encode(out);
    }

    fn decode_manifest(
        reader: &mut ByteReader<'_>,
    ) -> Result<(RouterCheckpoint, Vec<u32>), DecodeError> {
        let wal_seq = u64::decode(reader)?;
        let config = DispatchConfig::decode(reader)?;
        let window_close = TimePoint::decode(reader)?;
        let drain_end = TimePoint::decode(reader)?;
        let finished = bool::decode(reader)?;
        let order_zone = Vec::<(OrderId, u32)>::decode(reader)?;
        require_sorted_unique(order_zone.iter().map(|&(id, _)| id), "router order-zone map")?;
        let vehicle_zone = Vec::<(VehicleId, u32)>::decode(reader)?;
        require_sorted_unique(vehicle_zone.iter().map(|&(id, _)| id), "router vehicle-zone map")?;
        let shard_crcs = Vec::<u32>::decode(reader)?;
        Ok((
            RouterCheckpoint {
                wal_seq,
                config,
                window_close,
                drain_end,
                finished,
                order_zone,
                vehicle_zone,
                shards: Vec::new(),
            },
            shard_crcs,
        ))
    }
}

impl Codec for RouterCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_manifest(&[], out);
        self.shards.encode(out);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let (mut checkpoint, shard_crcs) = RouterCheckpoint::decode_manifest(reader)?;
        require(shard_crcs.is_empty(), || {
            "inline router checkpoint must not carry shard-file checksums".to_string()
        })?;
        checkpoint.shards = Vec::<ServiceCheckpoint>::decode(reader)?;
        Ok(checkpoint)
    }
}

/// Wraps `payload` in the checksummed checkpoint container.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies the container framing and returns the payload slice.
fn unseal(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < 20 {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(CheckpointError::BadMagic { found });
    }
    let declared = u64_le_at(bytes, 8);
    let expected = u32_le_at(bytes, 16);
    let payload = &bytes[20..];
    if declared != payload.len() as u64 {
        return Err(CheckpointError::LengthMismatch { declared, actual: payload.len() as u64 });
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: a temporary sibling is written,
/// fsynced, then renamed over the destination, so a crash mid-write never
/// leaves a torn file.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("ckpt-tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Serialises any checkpoint (`ServiceCheckpoint`, `RouterCheckpoint`, or
/// any other [`Codec`] state) into a checksummed container and writes it
/// atomically to `path`.
pub fn save_checkpoint<C: Codec>(path: impl AsRef<Path>, state: &C) -> Result<(), CheckpointError> {
    let _span = foodmatch_telemetry::span("checkpoint", "save");
    // lint: allow(telemetry-handle-discipline) — free function with no
    // struct to cache a handle in; runs once per checkpoint save, not per
    // window, and must bind whatever recorder is installed at call time.
    let _timer = foodmatch_telemetry::histogram("checkpoint.save_ns").timer();
    atomic_write(path.as_ref(), &seal(&state.to_bytes()))
}

/// Reads a checkpoint container from `path`, verifying magic, length and
/// checksum before decoding. Every corruption mode is a typed
/// [`CheckpointError`].
pub fn load_checkpoint<C: Codec>(path: impl AsRef<Path>) -> Result<C, CheckpointError> {
    let _span = foodmatch_telemetry::span("checkpoint", "restore");
    // lint: allow(telemetry-handle-discipline) — free function, once per
    // restore; see `save_checkpoint`.
    let _timer = foodmatch_telemetry::histogram("checkpoint.restore_ns").timer();
    let bytes = fs::read(path.as_ref())?;
    let payload = unseal(&bytes)?;
    Ok(C::from_bytes(payload)?)
}

/// Name of the shard file for shard `index` inside a router checkpoint
/// directory.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:04}.ckpt")
}

/// Persists a [`RouterCheckpoint`] as a directory: one container file per
/// shard plus a [`ROUTER_MANIFEST`] binding them together by checksum. The
/// directory is staged under a temporary name and renamed into place as a
/// unit; an existing checkpoint directory at `dir` is replaced.
pub fn save_router_checkpoint(
    dir: impl AsRef<Path>,
    checkpoint: &RouterCheckpoint,
) -> Result<(), CheckpointError> {
    let _span = foodmatch_telemetry::span("checkpoint", "save_router");
    // lint: allow(telemetry-handle-discipline) — free function, once per
    // checkpoint save; see `save_checkpoint`.
    let _timer = foodmatch_telemetry::histogram("checkpoint.save_ns").timer();
    let dir = dir.as_ref();
    let staging = dir.with_extension("ckpt-staging");
    if staging.exists() {
        fs::remove_dir_all(&staging)?;
    }
    fs::create_dir_all(&staging)?;
    let mut shard_crcs = Vec::with_capacity(checkpoint.shards.len());
    for (i, shard) in checkpoint.shards.iter().enumerate() {
        let sealed = seal(&shard.to_bytes());
        shard_crcs.push(crc32(&sealed));
        let mut file = fs::File::create(staging.join(shard_file_name(i)))?;
        file.write_all(&sealed)?;
        file.sync_all()?;
    }
    let mut manifest_payload = Vec::new();
    checkpoint.encode_manifest(&shard_crcs, &mut manifest_payload);
    let mut file = fs::File::create(staging.join(ROUTER_MANIFEST))?;
    file.write_all(&seal(&manifest_payload))?;
    file.sync_all()?;
    drop(file);
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::rename(&staging, dir)?;
    Ok(())
}

/// Loads a router checkpoint directory written by
/// [`save_router_checkpoint`], verifying the manifest and every shard file
/// (container checksum *and* the manifest's record of it) before decoding.
pub fn load_router_checkpoint(dir: impl AsRef<Path>) -> Result<RouterCheckpoint, CheckpointError> {
    let _span = foodmatch_telemetry::span("checkpoint", "restore_router");
    // lint: allow(telemetry-handle-discipline) — free function, once per
    // restore; see `save_checkpoint`.
    let _timer = foodmatch_telemetry::histogram("checkpoint.restore_ns").timer();
    let dir = dir.as_ref();
    let manifest_bytes = fs::read(dir.join(ROUTER_MANIFEST))?;
    let payload = unseal(&manifest_bytes)?;
    let mut reader = ByteReader::new(payload);
    let (mut checkpoint, shard_crcs) = RouterCheckpoint::decode_manifest(&mut reader)?;
    reader.expect_end()?;
    let mut shards = Vec::with_capacity(shard_crcs.len());
    for (i, &expected) in shard_crcs.iter().enumerate() {
        let path = dir.join(shard_file_name(i));
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CheckpointError::ShardCountMismatch {
                    expected: shard_crcs.len(),
                    found: i,
                });
            }
            Err(e) => return Err(e.into()),
        };
        let actual = crc32(&bytes);
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        let shard_payload = unseal(&bytes)?;
        shards.push(ServiceCheckpoint::from_bytes(shard_payload)?);
    }
    checkpoint.shards = shards;
    Ok(checkpoint)
}

/// One enqueued background save: the WAL sequence the checkpoint covers,
/// plus the captured state itself.
struct CheckpointJob<C> {
    seq: u64,
    state: C,
}

/// Cross-thread state shared between the dispatch side and the persist
/// worker.
struct CheckpointerShared {
    /// Highest WAL sequence whose checkpoint is sealed on disk (0 until the
    /// first seal; 0 is also the trivially-sealed empty prefix).
    sealed_seq: AtomicU64,
    /// Jobs enqueued but not yet persisted (or coalesced away).
    pending: Mutex<usize>,
    /// Signalled whenever `pending` drops.
    idle: Condvar,
    /// First persist failure, if any. Once set, later seals still proceed
    /// (a transient disk error on one save does not doom the next), but the
    /// error stays visible until [`BackgroundCheckpointer::take_error`].
    error: Mutex<Option<String>>,
}

/// Locks a mutex, recovering from poisoning instead of panicking. A
/// poisoned lock means some thread panicked while holding it; every value
/// guarded here (a pending-job counter, an error slot) is valid in any
/// intermediate state, so the durability layer keeps going rather than
/// cascading the panic through crash recovery.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Two-phase background checkpointing: cheap in-thread *capture*
/// (cloning the dispatcher's state — what
/// [`DurableDispatch::checkpoint`](crate::DurableDispatch::checkpoint)
/// returns), worker-thread *persist* (Codec-serialise, seal, atomic
/// rename). The dispatch thread stalls only for the capture; the
/// serialisation and fsync — the expensive phase — happen off-thread.
///
/// When saves arrive faster than the disk persists them, queued jobs are
/// **coalesced**: the worker drains the queue and seals only the newest
/// state (each checkpoint is a complete snapshot, so intermediate ones are
/// dead weight the moment a newer capture exists). The skipped count is
/// recorded on the `checkpoint.coalesced` counter.
///
/// [`sealed_seq`](Self::sealed_seq) publishes the newest checkpoint known
/// safe on disk — the anchor [`WriteAheadLog::compact_below`](crate::WriteAheadLog::compact_below)
/// may truncate the log to. Never compact past a sequence this has not
/// published: the checkpoint covering the dropped prefix must exist before
/// the prefix goes.
///
/// Dropping the checkpointer drains the queue and joins the worker, so an
/// in-flight seal is never abandoned half-written (the atomic rename
/// guarantees that even a hard kill leaves the previous file intact).
pub struct BackgroundCheckpointer<C: Send + 'static> {
    sender: Option<std::sync::mpsc::Sender<CheckpointJob<C>>>,
    worker: Option<std::thread::JoinHandle<()>>,
    shared: Arc<CheckpointerShared>,
}

impl<C: Send + 'static> fmt::Debug for BackgroundCheckpointer<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackgroundCheckpointer")
            .field("sealed_seq", &self.sealed_seq())
            .finish_non_exhaustive()
    }
}

impl BackgroundCheckpointer<ServiceCheckpoint> {
    /// A background checkpointer persisting [`ServiceCheckpoint`]s to a
    /// single container file via [`save_checkpoint`].
    pub fn service(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::new(path, |path, state| save_checkpoint(path, state))
    }
}

impl BackgroundCheckpointer<RouterCheckpoint> {
    /// A background checkpointer persisting [`RouterCheckpoint`]s to a
    /// checkpoint directory via [`save_router_checkpoint`].
    pub fn router(dir: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::new(dir, |dir, state| save_router_checkpoint(dir, state))
    }
}

impl<C: Send + 'static> BackgroundCheckpointer<C> {
    /// Starts the persist worker, writing every sealed checkpoint to
    /// `path` through `persist` (an atomic-rename writer such as
    /// [`save_checkpoint`] or [`save_router_checkpoint`]). Fails with
    /// [`CheckpointError::Io`] if the worker thread cannot be spawned.
    pub fn new(
        path: impl AsRef<Path>,
        persist: fn(&Path, &C) -> Result<(), CheckpointError>,
    ) -> Result<Self, CheckpointError> {
        let path = path.as_ref().to_path_buf();
        let shared = Arc::new(CheckpointerShared {
            sealed_seq: AtomicU64::new(0),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            error: Mutex::new(None),
        });
        let (sender, receiver) = std::sync::mpsc::channel::<CheckpointJob<C>>();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("fm-checkpointer".to_string())
            .spawn(move || {
                let persist_ns = foodmatch_telemetry::histogram("checkpoint.persist_ns");
                let sealed = foodmatch_telemetry::counter("checkpoint.sealed");
                let coalesced = foodmatch_telemetry::counter("checkpoint.coalesced");
                while let Ok(first) = receiver.recv() {
                    // Coalesce: a newer complete snapshot obsoletes every
                    // older queued one.
                    let mut consumed = 1usize;
                    let mut job = first;
                    while let Ok(newer) = receiver.try_recv() {
                        consumed += 1;
                        job = newer;
                    }
                    if consumed > 1 {
                        coalesced.add(consumed as u64 - 1);
                    }
                    let result = {
                        let _span = foodmatch_telemetry::span("checkpoint", "persist");
                        let _timer = persist_ns.timer();
                        persist(&path, &job.state)
                    };
                    match result {
                        Ok(()) => {
                            worker_shared.sealed_seq.fetch_max(job.seq, Ordering::SeqCst);
                            sealed.inc();
                        }
                        Err(e) => {
                            let mut slot = lock_unpoisoned(&worker_shared.error);
                            slot.get_or_insert_with(|| {
                                format!("background checkpoint at seq {} failed: {e}", job.seq)
                            });
                        }
                    }
                    let mut pending = lock_unpoisoned(&worker_shared.pending);
                    *pending = pending.saturating_sub(consumed);
                    worker_shared.idle.notify_all();
                }
            })
            .map_err(CheckpointError::Io)?;
        Ok(BackgroundCheckpointer { sender: Some(sender), worker: Some(worker), shared })
    }

    /// Phase two: hands a captured checkpoint (covering WAL records below
    /// `seq`) to the persist worker and returns immediately. `seq` must be
    /// the value stamped on the checkpoint (its `wal_seq`).
    /// The worker lives until `Drop` closes the channel, so a send only
    /// fails if the worker thread died; that failure lands in the error
    /// slot (surfaced by [`take_error`](Self::take_error) /
    /// [`drain`](Self::drain)) rather than panicking the dispatch thread.
    pub fn save(&self, seq: u64, state: C) {
        let mut pending = lock_unpoisoned(&self.shared.pending);
        *pending += 1;
        drop(pending);
        let sent = match self.sender.as_ref() {
            Some(sender) => sender.send(CheckpointJob { seq, state }).is_ok(),
            None => false,
        };
        if !sent {
            let mut pending = lock_unpoisoned(&self.shared.pending);
            *pending = pending.saturating_sub(1);
            drop(pending);
            lock_unpoisoned(&self.shared.error).get_or_insert_with(|| {
                format!("checkpoint worker unavailable; save at seq {seq} dropped")
            });
            self.shared.idle.notify_all();
        }
    }

    /// Highest WAL sequence whose checkpoint is sealed on disk — safe to
    /// [compact](crate::WriteAheadLog::compact_below) the log below. Zero
    /// until the first seal (the empty prefix needs no checkpoint).
    pub fn sealed_seq(&self) -> u64 {
        self.shared.sealed_seq.load(Ordering::SeqCst)
    }

    /// Jobs enqueued but not yet persisted or coalesced.
    pub fn pending(&self) -> usize {
        *lock_unpoisoned(&self.shared.pending)
    }

    /// Takes the first persist failure, if one occurred. A failed save
    /// never advances [`sealed_seq`](Self::sealed_seq), so compaction
    /// anchored there stays safe even if the error goes unchecked.
    pub fn take_error(&self) -> Option<String> {
        lock_unpoisoned(&self.shared.error).take()
    }

    /// Blocks until every enqueued job is persisted (or coalesced away)
    /// and returns the sealed sequence, or the first persist failure.
    pub fn drain(&self) -> Result<u64, String> {
        let mut pending = lock_unpoisoned(&self.shared.pending);
        while *pending > 0 {
            pending =
                self.shared.idle.wait(pending).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(pending);
        match self.take_error() {
            Some(error) => Err(error),
            None => Ok(self.sealed_seq()),
        }
    }
}

impl<C: Send + 'static> Drop for BackgroundCheckpointer<C> {
    fn drop(&mut self) {
        // Close the channel so the worker drains the queue and exits, then
        // join it: every enqueued seal completes (or reports its error)
        // before the checkpointer is gone.
        self.sender.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_rejects_every_corruption_mode_with_typed_errors() {
        let payload = 42u64.to_bytes();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).expect("clean container"), &payload[..]);

        assert!(matches!(unseal(&sealed[..10]), Err(CheckpointError::TooShort { len: 10 })));

        let mut wrong_magic = sealed.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(unseal(&wrong_magic), Err(CheckpointError::BadMagic { .. })));

        // The previous format (its `DispatchConfig` was one byte longer) is
        // refused by its magic, never decoded — as a file of its own and as
        // a shard file of a router checkpoint directory.
        let mut previous = sealed.clone();
        previous[..8].copy_from_slice(b"FMCKPT01");
        assert!(matches!(
            unseal(&previous),
            Err(CheckpointError::BadMagic { found }) if &found == b"FMCKPT01"
        ));
        let dir = std::env::temp_dir().join(format!("fm-ckpt-magic-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        fs::write(dir.join(shard_file_name(0)), &previous).expect("write shard file");
        let router = RouterCheckpoint {
            wal_seq: 0,
            config: DispatchConfig::default(),
            window_close: TimePoint::MIDNIGHT,
            drain_end: TimePoint::MIDNIGHT,
            finished: false,
            order_zone: Vec::new(),
            vehicle_zone: Vec::new(),
            shards: Vec::new(),
        };
        let mut manifest = Vec::new();
        router.encode_manifest(&[crc32(&previous)], &mut manifest);
        fs::write(dir.join(ROUTER_MANIFEST), seal(&manifest)).expect("write manifest");
        assert!(matches!(
            load_router_checkpoint(&dir),
            Err(CheckpointError::BadMagic { found }) if &found == b"FMCKPT01"
        ));
        fs::remove_dir_all(&dir).ok();

        let mut truncated = sealed.clone();
        truncated.pop();
        assert!(matches!(unseal(&truncated), Err(CheckpointError::LengthMismatch { .. })));

        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(unseal(&flipped), Err(CheckpointError::ChecksumMismatch { .. })));
    }

    #[test]
    fn atomic_save_round_trips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("fm-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("value.ckpt");
        save_checkpoint(&path, &0xDEAD_BEEFu64).expect("save");
        let value: u64 = load_checkpoint(&path).expect("load");
        assert_eq!(value, 0xDEAD_BEEF);
        // Overwrite goes through the same atomic rename.
        save_checkpoint(&path, &7u64).expect("overwrite");
        assert_eq!(load_checkpoint::<u64>(&path).expect("reload"), 7);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_checkpointer_seals_the_newest_state_and_publishes_its_seq() {
        let dir = std::env::temp_dir().join(format!("fm-bgckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("bg.ckpt");
        let bg: BackgroundCheckpointer<u64> =
            BackgroundCheckpointer::new(&path, |path, state| save_checkpoint(path, state))
                .expect("spawn checkpoint worker");
        assert_eq!(bg.sealed_seq(), 0, "nothing sealed yet");
        // A burst of saves: the worker may coalesce, but the newest always
        // lands, and sealed_seq only moves forward.
        for seq in 1..=5u64 {
            bg.save(seq, seq * 100);
        }
        let sealed = bg.drain().expect("drain");
        assert_eq!(sealed, 5);
        assert_eq!(load_checkpoint::<u64>(&path).expect("load"), 500);
        assert_eq!(bg.pending(), 0);
        drop(bg);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_checkpointer_reports_persist_failures_without_advancing() {
        let dir = std::env::temp_dir().join(format!("fm-bgckpt-err-{}", std::process::id()));
        // The parent directory does not exist, so every atomic write fails.
        let path = dir.join("missing").join("bg.ckpt");
        let bg: BackgroundCheckpointer<u64> =
            BackgroundCheckpointer::new(&path, |path, state| save_checkpoint(path, state))
                .expect("spawn checkpoint worker");
        bg.save(3, 42);
        let err = bg.drain().expect_err("persist into a missing dir fails");
        assert!(err.contains("seq 3"), "error names the failed seq: {err}");
        assert_eq!(bg.sealed_seq(), 0, "a failed save never advances the seal");
        fs::remove_dir_all(&dir).ok();
    }
}
