//! Checkpoint serialisation for the online dispatch layer.
//!
//! A [`ServiceCheckpoint`] is the complete, self-contained run state of a
//! [`DispatchService`](crate::DispatchService) — the service's `RunState`
//! (order book, pools and cursors, fleet physics down to edge-level
//! itineraries, the event-schedule cursor with its active disruption set,
//! the metrics so far) under a write-ahead-log stamp. A
//! [`RouterCheckpoint`] is the sharded analogue for a
//! [`DispatchRouter`](crate::DispatchRouter): one container for N run
//! states, one per zone, plus the vehicle→zone routing map, under one
//! stamp. The router keeps no clock of its own, so none is stored.
//!
//! What a checkpoint deliberately does **not** contain: the road network
//! and zone map (deployment configuration, rebuilt deterministically), the
//! policy (stateless across windows by the
//! [`DispatchPolicy`](foodmatch_core::DispatchPolicy) contract), the
//! engine's memo caches (performance state — queries re-memoise), and the
//! engine's overlay (re-rendered from the schedule's active disruptions on
//! restore). Restoring therefore needs the same network, zones and policy the
//! original run was created with; everything else round-trips bit-exactly.
//!
//! ## On-disk format
//!
//! Checkpoints encode through the deterministic
//! [`Codec`](foodmatch_core::Codec) (maps in key order, floats as raw
//! IEEE-754 bits), so the same state always produces the same bytes. Both
//! dispatcher shapes persist through the same container, one file:
//!
//! ```text
//! [8-byte magic "FMCKPT04"] [u64 payload length] [u32 CRC-32 of payload] [payload]
//! ```
//!
//! Files are written atomically — to a temporary sibling, fsynced, then
//! renamed into place — so a crash mid-write leaves the previous checkpoint
//! (or nothing), never a torn one and never a gap. Corruption anywhere (bad
//! magic, short file, checksum mismatch, invalid payload) surfaces as a
//! typed [`CheckpointError`] — never a panic, never silently wrong state.

use crate::step::{require, Clock, RunState};
use foodmatch_core::codec::{crc32, u32_le_at, u64_le_at, ByteReader, Codec, DecodeError};
use foodmatch_core::VehicleId;
use foodmatch_roadnet::TimePoint;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Magic prefix of every checkpoint file (8 bytes, versioned).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FMCKPT04";

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
    pub(crate) state: RunState,
}

impl ServiceCheckpoint {
    /// The service clock (close time of the last processed window) at the
    /// moment the checkpoint was taken.
    pub fn clock(&self) -> TimePoint {
        self.state.window_close
    }

    /// Whether the checkpointed service had already finished.
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }
}

impl Codec for ServiceCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wal_seq.encode(out);
        self.state.encode(out);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(ServiceCheckpoint { wal_seq: u64::decode(reader)?, state: RunState::decode(reader)? })
    }
}

/// The complete run state of one [`DispatchRouter`](crate::DispatchRouter):
/// a routing map (the zone of every vehicle seen so far) plus one run state
/// per zone shard. No router clock is stored: it is the latest shard clock.
///
/// Obtained from [`DispatchRouter::checkpoint`](crate::DispatchRouter::checkpoint);
/// turned back into a live router by
/// [`DispatchRouter::restore`](crate::DispatchRouter::restore). Serialises
/// deterministically through [`Codec`]; persist with [`save_checkpoint`] /
/// [`load_checkpoint`], like the service's.
#[derive(Clone, Debug)]
pub struct RouterCheckpoint {
    /// Write-ahead-log position, as on [`ServiceCheckpoint::wal_seq`].
    pub wal_seq: u64,
    pub(crate) vehicle_zone: BTreeMap<VehicleId, u32>,
    pub(crate) shards: Vec<RunState>,
}

impl RouterCheckpoint {
    /// The router clock at the moment the checkpoint was taken.
    pub fn clock(&self) -> TimePoint {
        Clock::lockstep(self.shards.iter().map(RunState::clock)).now
    }

    /// Whether the checkpointed router had already finished.
    pub fn is_finished(&self) -> bool {
        self.shards.iter().all(|state| state.finished)
    }
}

/// Decoding validates what the router relies on: at least one shard, every
/// vehicle routed to one, disjoint order books, one configuration, horizon
/// and clock.
impl Codec for RouterCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wal_seq.encode(out);
        self.vehicle_zone.encode(out);
        self.shards.encode(out);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let checkpoint = RouterCheckpoint {
            wal_seq: Codec::decode(reader)?,
            vehicle_zone: Codec::decode(reader)?,
            shards: Codec::decode(reader)?,
        };
        let RouterCheckpoint { vehicle_zone, shards, .. } = &checkpoint;
        let Some(first) = shards.first() else {
            return Err(DecodeError::Invalid("router checkpoint holds no shard".to_string()));
        };
        require(vehicle_zone.values().all(|&zone| (zone as usize) < shards.len()), || {
            format!("a vehicle is routed past the {} shards", shards.len())
        })?;
        let mut ids = BTreeSet::new();
        require(shards.iter().flat_map(|s| s.book.keys()).all(|&id| ids.insert(id)), || {
            "an order id appears in two shard books".to_string()
        })?;
        let horizon = |s: &RunState| (s.start, s.end, s.drain_end);
        require(
            shards.iter().all(|s| s.config == first.config && horizon(s) == horizon(first)),
            || "shards disagree on configuration or horizon".to_string(),
        )?;
        let now = checkpoint.clock();
        require(shards.iter().all(|s| s.finished || s.window_close == now), || {
            format!("an unfinished shard's clock is behind the router clock {now:?}")
        })?;
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
    atomic_write(path.as_ref(), &seal(&state.to_bytes()))
}

/// Reads a checkpoint container from `path`, verifying magic, length and
/// checksum before decoding. Every corruption mode is a typed
/// [`CheckpointError`].
pub fn load_checkpoint<C: Codec>(path: impl AsRef<Path>) -> Result<C, CheckpointError> {
    let _span = foodmatch_telemetry::span("checkpoint", "restore");
    let bytes = fs::read(path.as_ref())?;
    let payload = unseal(&bytes)?;
    Ok(C::from_bytes(payload)?)
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
    /// single container file via [`save_checkpoint`].
    pub fn router(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::new(path, |path, state| save_checkpoint(path, state))
    }
}

impl<C: Send + 'static> BackgroundCheckpointer<C> {
    /// Starts the persist worker, writing every sealed checkpoint to
    /// `path` through `persist` (an atomic-rename writer such as
    /// [`save_checkpoint`]). Fails with
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
    use crate::router::{DispatchRouter, ZoneMap};
    use foodmatch_core::policies::GreedyPolicy;
    use foodmatch_core::{DispatchConfig, Order, OrderId};
    use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, Duration, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What `load_checkpoint` does with a file's bytes.
    fn open<C: Codec>(file: &[u8]) -> Result<C, CheckpointError> {
        Ok(C::from_bytes(unseal(file)?)?)
    }

    /// A two-zone router twelve minutes into a day that reaches every corner
    /// of the state — orders riding, pooled and queued, one cancelled and
    /// one delayed while queued, an incident active, a driver who joined
    /// mid-run — and, as the service shape, its first shard.
    fn mid_run_checkpoints() -> (ServiceCheckpoint, RouterCheckpoint) {
        let grid = GridCityBuilder::new(10, 10).major_every(0);
        let network = grid.congestion(CongestionProfile::free_flow()).build();
        let at = |mins: f64| TimePoint::from_hms(12, 0, 0) + Duration::from_mins(mins);
        let centers = [network.position(NodeId(25)), network.position(NodeId(75))];
        let mut router = DispatchRouter::new(
            &network,
            ZoneMap::voronoi(&network, &centers),
            vec![(VehicleId(0), NodeId(0)), (VehicleId(1), NodeId(99))],
            |_| GreedyPolicy::new(),
            DispatchConfig::default(),
            at(0.0),
            at(60.0),
            Duration::from_hours(2.0),
        );
        for i in 0..8u32 {
            let (restaurant, customer) = (NodeId((37 * i + 5) % 100), NodeId(7 * i + 3));
            let prep = Duration::from_mins(4.0);
            let placed = at(2.5 * f64::from(i));
            let order = Order::new(OrderId(i.into()), restaurant, customer, placed, 1, prep);
            assert!(router.submit_order(order).is_accepted());
        }
        let incident = TrafficDisruption::localized(
            DisruptionCause::Incident,
            NodeId(22),
            900.0,
            2.0,
            at(50.0),
        );
        for (mins, kind) in [
            (4.0, EventKind::Traffic(incident)),
            (5.0, EventKind::OrderCancelled { order: OrderId(7) }),
            (5.0, EventKind::PrepDelay { order: OrderId(6), extra: Duration::from_mins(3.0) }),
            (7.0, EventKind::VehicleOnShift { vehicle: VehicleId(2), location: NodeId(44) }),
        ] {
            assert!(router.ingest_event(DisruptionEvent::new(at(mins), kind)).is_accepted());
        }
        let _ = router.advance_to(at(12.0));
        let shard = router.snapshot().zones[0].1;
        assert!(shard.queued > 0 && shard.in_flight > 0 && shard.traffic_active, "{shard:?}");
        let checkpoint = router.checkpoint();
        (ServiceCheckpoint { wal_seq: 0, state: checkpoint.shards[0].clone() }, checkpoint)
    }

    /// The reason decoding refuses the mid-run router checkpoint once
    /// `damage` has been done to it.
    fn refusal(damage: impl FnOnce(&mut RouterCheckpoint)) -> String {
        let (_, mut checkpoint) = mid_run_checkpoints();
        assert!(RouterCheckpoint::from_bytes(&checkpoint.to_bytes()).is_ok());
        damage(&mut checkpoint);
        match RouterCheckpoint::from_bytes(&checkpoint.to_bytes()) {
            Err(DecodeError::Invalid(reason)) => reason,
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_router_checkpoint_without_shards_is_refused() {
        let reason = refusal(|c| c.shards.clear());
        assert!(reason.contains("no shard"), "{reason}");
    }

    #[test]
    fn a_vehicle_routed_past_the_shards_is_refused() {
        let reason = refusal(|c| {
            c.vehicle_zone.insert(VehicleId(0), 99);
        });
        assert!(reason.contains("past the 2 shards"), "{reason}");
    }

    #[test]
    fn an_order_in_two_shard_books_is_refused() {
        let reason = refusal(|c| {
            let order = c.shards[0].orders[0];
            let entry = c.shards[0].book[&order.id];
            c.shards[1].orders.push(order);
            c.shards[1].book.insert(order.id, entry);
        });
        assert!(reason.contains("two shard books"), "{reason}");
    }

    #[test]
    fn shards_that_disagree_on_configuration_or_horizon_are_refused() {
        let damages: [fn(&mut RunState); 4] = [
            |s| s.config.rejection_deadline += Duration::from_mins(1.0),
            |s| s.start = s.start - Duration::from_mins(1.0),
            |s| s.end += Duration::from_mins(1.0),
            |s| s.drain_end += Duration::from_mins(1.0),
        ];
        for damage in damages {
            let reason = refusal(|c| damage(&mut c.shards[1]));
            assert!(reason.contains("disagree"), "{reason}");
        }
    }

    #[test]
    fn an_unfinished_shard_behind_the_clock_is_refused() {
        let reason = refusal(|c| {
            let shard = &mut c.shards[1];
            shard.window_close = shard.window_close - shard.config.accumulation_window;
        });
        assert!(reason.contains("behind the router clock"), "{reason}");
    }

    /// Every one-byte flip and every truncation of a checkpoint *file* is a
    /// typed error; every one-byte flip of the *payload* re-sealed under a
    /// valid CRC — damage the container cannot see — is a typed decode error
    /// or a state that passes the same validations again. Never a panic.
    fn sweep<C: Codec>(state: &C, rng: &mut StdRng) {
        let file = seal(&state.to_bytes());
        assert!(open::<C>(&file).is_ok(), "the undamaged file loads");
        let mut revalidated = 0;
        for at in 0..file.len() {
            let cut = open::<C>(&file[..at]).err();
            let typed = matches!(
                cut,
                Some(CheckpointError::TooShort { .. } | CheckpointError::LengthMismatch { .. })
            );
            assert!(typed, "cut at {at}: {cut:?}");
            let mut damaged = file.clone();
            damaged[at] ^= rng.random_range(1u8..=255);
            let flipped = open::<C>(&damaged).err();
            let typed = match at {
                0..8 => matches!(flipped, Some(CheckpointError::BadMagic { .. })),
                8..16 => matches!(flipped, Some(CheckpointError::LengthMismatch { .. })),
                _ => matches!(flipped, Some(CheckpointError::ChecksumMismatch { .. })),
            };
            assert!(typed, "file byte {at}: {flipped:?}");
            if at < 20 {
                continue; // header bytes: no payload to re-seal
            }
            match open::<C>(&seal(&damaged[20..])) {
                Err(CheckpointError::Decode(_)) => {}
                Err(other) => panic!("payload byte {at}: the container is intact, got {other}"),
                Ok(state) => {
                    revalidated += 1;
                    assert!(C::from_bytes(&state.to_bytes()).is_ok(), "payload byte {at}");
                }
            }
        }
        assert!(revalidated > 0, "some damage only validation can judge");
    }

    #[test]
    fn every_flip_and_truncation_of_a_mid_run_checkpoint_is_typed() {
        let (service, router) = mid_run_checkpoints();
        let mut rng = StdRng::seed_from_u64(0xC4EC_0003);
        sweep(&service, &mut rng);
        sweep(&router, &mut rng);
    }

    #[test]
    fn container_rejects_every_corruption_mode_with_typed_errors() {
        let payload = 42u64.to_bytes();
        let sealed = seal(&payload);
        assert_eq!(unseal(&sealed).expect("clean container"), &payload[..]);

        assert!(matches!(unseal(&sealed[..10]), Err(CheckpointError::TooShort { len: 10 })));

        let mut wrong_magic = sealed.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(unseal(&wrong_magic), Err(CheckpointError::BadMagic { .. })));

        // A well-formed container of the previous format is refused by its
        // magic, never decoded.
        let mut previous = sealed.clone();
        previous[..8].copy_from_slice(b"FMCKPT03");
        assert!(matches!(
            unseal(&previous),
            Err(CheckpointError::BadMagic { found }) if &found == b"FMCKPT03"
        ));

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
