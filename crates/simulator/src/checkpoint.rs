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
//! [`Codec`] (maps in key order, floats as raw
//! IEEE-754 bits), so the same state always produces the same bytes. Both
//! dispatcher shapes persist through the same container, one file:
//!
//! ```text
//! [8-byte magic "FMCKPT05"] [u64 payload length] [u32 CRC-32 of payload] [payload]
//! ```
//!
//! Files are written atomically — to a temporary sibling, fsynced, then
//! renamed into place and the directory fsynced — so a crash mid-write
//! leaves the previous checkpoint (or nothing), never a torn one and never
//! a gap. Corruption anywhere (bad
//! magic, short file, checksum mismatch, invalid payload) surfaces as a
//! typed [`CheckpointError`] — never a panic, never silently wrong state.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::step::{require, Clock, RunState};
use foodmatch_core::codec::{crc32, u32_le_at, u64_le_at, ByteReader, Codec, DecodeError};
use foodmatch_core::VehicleId;
use foodmatch_roadnet::TimePoint;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Magic prefix of every checkpoint file (8 bytes, versioned).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FMCKPT05";

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
/// fsynced, then renamed over the destination, and the rename is synced,
/// so a crash never leaves a torn file and a returned save survives a
/// power cut.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("ckpt-tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(())
}

/// Makes the directory entry of `path` durable — its creation, or a rename
/// onto it — by syncing the directory that holds it (`.` for a bare file
/// name). Without it a power cut can lose a rename whose file data was
/// already synced.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
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

/// Persists captured checkpoints to one container file on the calling
/// thread. [`DurableDispatch::checkpoint`](crate::DurableDispatch::checkpoint)
/// captures the state (a clone); [`save`](Self::save) seals it with
/// [`save_checkpoint`] at the window boundary, as the write-ahead log's
/// fsync already is.
///
/// [`sealed_seq`](Self::sealed_seq) is the WAL sequence of the last save
/// that returned `Ok` — the anchor
/// [`WriteAheadLog::compact_below`](crate::WriteAheadLog::compact_below)
/// may truncate the log to. Never compact past it: the checkpoint covering
/// the dropped prefix must exist before the prefix goes. A failed save
/// leaves it where it was and keeps its error for [`drain`](Self::drain);
/// a later save can still succeed.
pub struct Checkpointer<C: Codec> {
    path: PathBuf,
    sealed_seq: Cell<u64>,
    failure: Cell<Option<String>>,
    persist_ns: foodmatch_telemetry::Histogram,
    codec: PhantomData<fn(&C)>,
}

/// The name the benchmark rig still builds against; a `[benchmark]` change
/// renames its uses to [`Checkpointer`] and deletes this alias (ROADMAP
/// item 3).
pub type BackgroundCheckpointer<C> = Checkpointer<C>;

impl<C: Codec> fmt::Debug for Checkpointer<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpointer")
            .field("path", &self.path)
            .field("sealed_seq", &self.sealed_seq())
            .finish_non_exhaustive()
    }
}

impl Checkpointer<ServiceCheckpoint> {
    /// A checkpointer of [`ServiceCheckpoint`]s at `path`. It never fails;
    /// the `Result` is the benchmark rig's signature, and goes with the
    /// [`BackgroundCheckpointer`] alias.
    pub fn service(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Ok(Self::new(path))
    }
}

impl<C: Codec> Checkpointer<C> {
    /// A checkpointer writing every save to `path`. Nothing is sealed
    /// until the first save succeeds.
    #[expect(clippy::disallowed_methods, reason = "the constructor acquires its handle once")]
    pub fn new(path: impl AsRef<Path>) -> Self {
        Checkpointer {
            path: path.as_ref().to_path_buf(),
            sealed_seq: Cell::new(0),
            failure: Cell::new(None),
            persist_ns: foodmatch_telemetry::histogram("checkpoint.persist_ns"),
            codec: PhantomData,
        }
    }

    /// Seals a captured checkpoint (covering WAL records below `seq`, the
    /// value stamped on it as its `wal_seq`) before returning. On success
    /// [`sealed_seq`](Self::sealed_seq) becomes `seq`; on failure it stays
    /// put, and the first failure since the last [`drain`](Self::drain) is
    /// kept for it.
    pub fn save(&self, seq: u64, state: C) {
        let saved = {
            let _span = foodmatch_telemetry::span("checkpoint", "persist");
            let _timer = self.persist_ns.timer();
            save_checkpoint(&self.path, &state)
        };
        match saved {
            Ok(()) => self.sealed_seq.set(seq),
            Err(e) => {
                let first = self.failure.take();
                self.failure
                    .set(first.or_else(|| Some(format!("checkpoint at seq {seq} failed: {e}"))));
            }
        }
    }

    /// The WAL sequence of the last save that returned `Ok` — safe to
    /// [compact](crate::WriteAheadLog::compact_below) the log below. Zero
    /// until the first seal (the empty prefix needs no checkpoint).
    pub fn sealed_seq(&self) -> u64 {
        self.sealed_seq.get()
    }

    /// Returns the sealed sequence, or takes the first save failure since
    /// the last call.
    pub fn drain(&self) -> Result<u64, String> {
        match self.failure.take() {
            Some(failure) => Err(failure),
            None => Ok(self.sealed_seq()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{replay_wal, DurableDispatch};
    use crate::router::{DispatchRouter, ZoneMap};
    use crate::service::{DispatchOutput, DispatchService};
    use crate::wal::WriteAheadLog;
    use foodmatch_core::policies::GreedyPolicy;
    use foodmatch_core::{DispatchConfig, Order, OrderId};
    use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, Duration, NodeId, ShortestPathEngine};
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
        previous[..8].copy_from_slice(b"FMCKPT04");
        assert!(matches!(
            unseal(&previous),
            Err(CheckpointError::BadMagic { found }) if &found == b"FMCKPT04"
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
    fn a_bare_file_name_syncs_the_working_directory() {
        // The parent of a bare name is "", which cannot be opened.
        assert_eq!(Path::new("value.ckpt").parent(), Some(Path::new("")));
        sync_parent_dir(Path::new("value.ckpt")).expect("sync .");
    }

    #[test]
    fn a_nested_path_syncs_the_directory_that_holds_it() {
        let dir = scratch("ckpt-dir-sync");
        sync_parent_dir(&dir.join("value.ckpt")).expect("sync the scratch directory");
        let missing = dir.join("absent").join("value.ckpt");
        assert!(sync_parent_dir(&missing).is_err(), "the parent itself is opened");
        fs::remove_dir_all(&dir).ok();
    }

    /// An empty directory of the system's temporary directory, unique to
    /// `name` and this process.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fm-{name}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn a_save_is_sealed_on_disk_when_it_returns() {
        let dir = scratch("ckpt-inline");
        let path = dir.join("value.ckpt");
        let checkpointer: Checkpointer<u64> = Checkpointer::new(&path);
        assert_eq!(checkpointer.sealed_seq(), 0, "nothing sealed yet");
        for seq in 1..=3u64 {
            checkpointer.save(seq, seq * 100);
            assert_eq!(load_checkpoint::<u64>(&path).expect("load"), seq * 100);
            assert_eq!(checkpointer.sealed_seq(), seq);
        }
        assert_eq!(checkpointer.drain(), Ok(3));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_save_seals_nothing_and_drain_names_its_seq() {
        let dir = scratch("ckpt-missing");
        // The parent directory does not exist, so the atomic write fails.
        let checkpointer: Checkpointer<u64> =
            Checkpointer::new(dir.join("missing").join("value.ckpt"));
        checkpointer.save(3, 42);
        assert_eq!(checkpointer.sealed_seq(), 0, "a failed save never advances the seal");
        let failure = checkpointer.drain().expect_err("a save into a missing directory fails");
        assert!(failure.contains("seq 3"), "the failure names its seq: {failure}");
        assert_eq!(checkpointer.drain(), Ok(0), "drain takes the failure");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_save_after_a_failed_one_still_seals() {
        let dir = scratch("ckpt-retry");
        let path = dir.join("missing").join("value.ckpt");
        let checkpointer: Checkpointer<u64> = Checkpointer::new(&path);
        checkpointer.save(3, 42);
        fs::create_dir_all(dir.join("missing")).expect("create the missing directory");
        checkpointer.save(5, 43);
        assert_eq!(checkpointer.sealed_seq(), 5);
        assert_eq!(load_checkpoint::<u64>(&path).expect("load"), 43);
        let failure = checkpointer.drain().expect_err("the first failure is kept");
        assert!(failure.contains("seq 3"), "{failure}");
        assert_eq!(checkpointer.drain(), Ok(5));
        fs::remove_dir_all(&dir).ok();
    }

    /// Outputs with the wall-clock window fields zeroed, so two runs of the
    /// same inputs compare equal.
    fn settled(mut outputs: Vec<DispatchOutput>) -> Vec<DispatchOutput> {
        for output in &mut outputs {
            if let DispatchOutput::WindowClosed { stats } = output {
                stats.compute_secs = 0.0;
                stats.overflown = false;
            }
        }
        outputs
    }

    /// A save that fails seals nothing, so compacting the log to
    /// `sealed_seq` right after it keeps the suffix the previous checkpoint
    /// needs, and a crash then recovers to the uninterrupted run.
    #[test]
    fn compaction_after_a_failed_save_keeps_the_previous_checkpoint_recoverable() {
        let dir = scratch("ckpt-durable");
        let (wal_path, path) = (dir.join("dispatch.wal"), dir.join("dispatch.ckpt"));
        let grid = GridCityBuilder::new(8, 8).major_every(0);
        let network = grid.congestion(CongestionProfile::free_flow()).build();
        let engine = ShortestPathEngine::cached(network);
        let start = TimePoint::from_hms(12, 0, 0);
        let service = || {
            DispatchService::new(
                engine.clone(),
                vec![(VehicleId(0), NodeId(0)), (VehicleId(1), NodeId(63))],
                GreedyPolicy::new(),
                DispatchConfig::default(),
                start,
                start + Duration::from_hours(1.0),
                Duration::from_hours(2.0),
            )
        };
        // Window k closes at `tick(k)` and brings order k, placed as it opens.
        let tick = |k: u32| start + Duration::from_mins(3.0 * f64::from(k));
        let order = |k: u32| {
            let (restaurant, customer) = (NodeId((37 * k + 5) % 64), NodeId((11 * k + 3) % 64));
            let prep = Duration::from_mins(4.0);
            Order::new(OrderId(k.into()), restaurant, customer, tick(k - 1), 1, prep)
        };
        let finish = |service: &mut DispatchService<GreedyPolicy>| {
            let mut outputs = Vec::new();
            for k in 11..=12 {
                assert!(service.submit_order(order(k)).is_accepted());
                outputs.extend(service.advance_to(tick(k)).into_outputs());
            }
            outputs.extend(service.advance_to(service.drain_deadline()).into_outputs());
            outputs
        };

        let mut golden = service();
        let mut uninterrupted = Vec::new();
        for k in 1..=10 {
            assert!(golden.submit_order(order(k)).is_accepted());
            uninterrupted.extend(golden.advance_to(tick(k)).into_outputs());
        }
        uninterrupted.extend(finish(&mut golden));

        // Saves after windows 4 and 8; the second finds a directory where
        // its temporary file goes, so its write fails.
        let checkpointer: Checkpointer<ServiceCheckpoint> = Checkpointer::new(&path);
        let log = WriteAheadLog::create(&wal_path).expect("create WAL");
        let mut durable = DurableDispatch::new(service(), log);
        let (mut emitted, mut sealed_outputs, mut seqs) = (Vec::new(), 0, Vec::new());
        for k in 1..=10 {
            assert!(durable.submit_order(order(k)).expect("log order").is_accepted());
            emitted.extend(durable.advance_to(tick(k)).expect("log advance").into_outputs());
            if k % 4 == 0 {
                if k == 8 {
                    fs::create_dir(path.with_extension("ckpt-tmp")).expect("block the save");
                } else {
                    sealed_outputs = emitted.len();
                }
                let checkpoint = durable.checkpoint().expect("capture");
                seqs.push(checkpoint.wal_seq);
                checkpointer.save(checkpoint.wal_seq, checkpoint);
                durable.compact_log(checkpointer.sealed_seq()).expect("compact the WAL");
            }
        }
        let sealed = checkpointer.sealed_seq();
        assert_eq!(sealed, seqs[0], "the first save sealed, the second did not");
        let failure = checkpointer.drain().expect_err("the blocked save fails");
        assert!(failure.contains(&format!("seq {}", seqs[1])), "{failure}");

        // Power cut: only the WAL and the first checkpoint survive.
        drop(durable.into_parts());
        let (_log, read) = WriteAheadLog::open(&wal_path).expect("reopen WAL");
        let checkpoint: ServiceCheckpoint = load_checkpoint(&path).expect("load checkpoint");
        assert_eq!(checkpoint.wal_seq, sealed);
        let suffix = read.suffix_from(sealed).expect("compaction kept the sealed suffix");
        let mut recovered =
            DispatchService::restore(engine.clone(), GreedyPolicy::new(), &checkpoint);
        let mut stream = emitted[..sealed_outputs].to_vec();
        stream.extend(replay_wal(&mut recovered, suffix).expect("replay the WAL suffix"));
        assert_eq!(settled(stream.clone()), settled(emitted));
        stream.extend(finish(&mut recovered));
        assert_eq!(settled(stream), settled(uninterrupted));
        fs::remove_dir_all(&dir).ok();
    }
}
