//! Crash-safe dispatch: the durable wrapper tying a dispatcher to its
//! write-ahead log, plus the fault-injection hook and recovery replay.
//!
//! [`DurableDispatch`] wraps a [`DispatchService`]
//! or [`DispatchRouter`] (anything implementing
//! [`WalTarget`]) and enforces the write-ahead contract on every mutating
//! call: the input is framed and checksummed into the [`WriteAheadLog`]
//! *first*, and only then applied. Under a group-commit
//! [`FlushPolicy`](crate::wal::FlushPolicy) the record may sit in the
//! log's in-memory group until the next flush — the wrapper therefore
//! exposes both ends of the durability ledger:
//! [`acked_seq`](DurableDispatch::acked_seq) (records fsynced to disk,
//! guaranteed to survive a crash) and
//! [`appended_seq`](DurableDispatch::appended_seq) (records accepted,
//! durable *or* buffered). A crash loses at most the unacked suffix, and
//! recovery is a pure function of (latest checkpoint, log):
//!
//! 1. [`WriteAheadLog::open`] the log — torn tails from a crash mid-flush
//!    are truncated, corruption is a typed error;
//! 2. [restore](crate::DispatchService::restore) the latest checkpoint;
//! 3. [`replay_wal`] the records past the checkpoint's
//!    [`wal_seq`](crate::checkpoint::ServiceCheckpoint::wal_seq) — on a
//!    compacted log, [`suffix_from`](crate::wal::WalReadOutcome::suffix_from)
//!    guards against a missing prefix with a typed error.
//!
//! [`checkpoint`](DurableDispatch::checkpoint) is a *flush barrier*: the
//! buffered group is made durable before the state is captured, so a
//! checkpoint's `wal_seq` never exceeds the acked log — restoring it can
//! always find (on disk) every record at or below its stamp.
//!
//! Because dispatch is deterministic, the recovered run continues with the
//! same windows, the same assignments, the same outputs and the same final
//! report as the run that never crashed — the property
//! `tests/recovery_equivalence.rs` pins across policies, crash points and
//! both dispatcher shapes.
//!
//! Crashes are simulated, not real: a [`FailPoint`] names a sequence
//! number and a [`FailMode`] (die before the append, after it, or midway
//! through the frame bytes), and the wrapper returns
//! [`WalError::CrashInjected`] at that exact boundary, refusing all further
//! input. Production code simply never installs a fail point.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::checkpoint::{RouterCheckpoint, ServiceCheckpoint};
use crate::router::{DispatchRouter, RoutedOutput};
use crate::service::{
    AdvanceOutcome, DispatchOutput, DispatchService, IngestOutcome, SubmitOutcome,
};
use crate::wal::{WalError, WalRecord, WriteAheadLog};
use foodmatch_core::{DispatchPolicy, Order};
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::TimePoint;
use std::fmt;

/// A dispatcher the durable wrapper can drive: the three mutating calls of
/// the online API plus checkpointing. Implemented by
/// [`DispatchService`] and [`DispatchRouter`].
pub trait WalTarget {
    /// The per-window output type ([`DispatchOutput`], or zone-tagged
    /// [`RoutedOutput`] for the router).
    type Output;
    /// The checkpoint type capturing this dispatcher's full state.
    type Checkpoint;

    /// Applies one submitted order.
    fn apply_submit(&mut self, order: Order) -> SubmitOutcome;
    /// Applies one ingested disruption event.
    fn apply_ingest(&mut self, event: DisruptionEvent) -> IngestOutcome;
    /// Advances the clock.
    fn apply_advance(&mut self, until: TimePoint) -> AdvanceOutcome<Self::Output>;
    /// Captures the full dispatcher state (with `wal_seq` zero; the
    /// wrapper stamps the log position).
    fn take_checkpoint(&self) -> Self::Checkpoint;
    /// Stamps the write-ahead-log position onto a checkpoint.
    fn stamp_wal_seq(checkpoint: &mut Self::Checkpoint, seq: u64);
    /// True once the dispatcher has finished.
    fn finished(&self) -> bool;
}

impl<P: DispatchPolicy> WalTarget for DispatchService<P> {
    type Output = DispatchOutput;
    type Checkpoint = ServiceCheckpoint;

    fn apply_submit(&mut self, order: Order) -> SubmitOutcome {
        self.submit_order(order)
    }
    fn apply_ingest(&mut self, event: DisruptionEvent) -> IngestOutcome {
        self.ingest_event(event)
    }
    fn apply_advance(&mut self, until: TimePoint) -> AdvanceOutcome<DispatchOutput> {
        self.advance_to(until)
    }
    fn take_checkpoint(&self) -> ServiceCheckpoint {
        self.checkpoint()
    }
    fn stamp_wal_seq(checkpoint: &mut ServiceCheckpoint, seq: u64) {
        checkpoint.wal_seq = seq;
    }
    fn finished(&self) -> bool {
        self.is_finished()
    }
}

impl<P: DispatchPolicy> WalTarget for DispatchRouter<P> {
    type Output = RoutedOutput;
    type Checkpoint = RouterCheckpoint;

    fn apply_submit(&mut self, order: Order) -> SubmitOutcome {
        self.submit_order(order)
    }
    fn apply_ingest(&mut self, event: DisruptionEvent) -> IngestOutcome {
        self.ingest_event(event)
    }
    fn apply_advance(&mut self, until: TimePoint) -> AdvanceOutcome<RoutedOutput> {
        self.advance_to(until)
    }
    fn take_checkpoint(&self) -> RouterCheckpoint {
        self.checkpoint()
    }
    fn stamp_wal_seq(checkpoint: &mut RouterCheckpoint, seq: u64) {
        checkpoint.wal_seq = seq;
    }
    fn finished(&self) -> bool {
        self.is_finished()
    }
}

/// Where, relative to the WAL append, a [`FailPoint`] kills the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Die before the record reaches the log: the input is neither durable
    /// nor applied — recovery never sees it (the caller would retry in a
    /// real deployment). Any unflushed group-commit buffer dies with the
    /// process.
    BeforeAppend,
    /// Die after the record is durable but before it is applied: the
    /// classic write-ahead gap. Recovery replays the record, so the input
    /// is *not* lost.
    AfterAppend,
    /// Die midway through writing the frame bytes: leaves a torn tail for
    /// [`WriteAheadLog::open`] to truncate. Like [`FailMode::BeforeAppend`],
    /// the input is not durable.
    TornAppend,
}

/// A fault-injection point: simulate a crash at WAL sequence `at_seq`, in
/// the phase named by `mode`. Install with
/// [`DurableDispatch::set_fail_point`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPoint {
    /// The sequence number (zero-based append index) at which to die.
    pub at_seq: u64,
    /// Where relative to the append to die.
    pub mode: FailMode,
}

/// A dispatcher bound to its write-ahead log. See the [module docs](self).
#[derive(Debug)]
pub struct DurableDispatch<T: WalTarget> {
    target: T,
    log: WriteAheadLog,
    fail_point: Option<FailPoint>,
    crashed: bool,
    /// `checkpoint.capture_ns` — the capture phase of a checkpoint; the
    /// persist phase is timed by the [`Checkpointer`](crate::Checkpointer)
    /// (`checkpoint.persist_ns`).
    capture_ns: foodmatch_telemetry::Histogram,
}

impl<T: WalTarget> DurableDispatch<T> {
    /// Binds `target` to `log`. The log's existing position becomes the
    /// next sequence number — pass a fresh log for a fresh run, or a log
    /// reopened with [`WriteAheadLog::open`] after recovery replay.
    pub fn new(target: T, log: WriteAheadLog) -> Self {
        #[expect(clippy::disallowed_methods, reason = "the constructor acquires its handle once")]
        let capture_ns = foodmatch_telemetry::histogram("checkpoint.capture_ns");
        DurableDispatch { target, log, fail_point: None, crashed: false, capture_ns }
    }

    /// Installs (or clears) a fault-injection point. Testing hook; never
    /// used in production paths.
    pub fn set_fail_point(&mut self, fail_point: Option<FailPoint>) {
        self.fail_point = fail_point;
    }

    /// True once a fail point has fired; all further input is refused with
    /// [`WalError::Crashed`].
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Records known durable on disk — the crash-survival guarantee.
    pub fn acked_seq(&self) -> u64 {
        self.log.acked_seq()
    }

    /// Records accepted into the log, durable or buffered.
    pub fn appended_seq(&self) -> u64 {
        self.log.appended_seq()
    }

    /// Records buffered but not yet durable (the acked lag).
    pub fn unflushed(&self) -> u64 {
        self.log.unflushed()
    }

    /// Forces the buffered group durable now, regardless of policy.
    /// Returns the new acked sequence.
    pub fn flush(&mut self) -> Result<u64, WalError> {
        self.log.flush()
    }

    /// Drops every WAL record below `below` — call with a *sealed*
    /// checkpoint's `wal_seq` once its file is safely on disk. See
    /// [`WriteAheadLog::compact_below`].
    pub fn compact_log(&mut self, below: u64) -> Result<(), WalError> {
        self.log.compact_below(below)
    }

    /// The wrapped dispatcher, read-only.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// Consumes the wrapper, returning the dispatcher and its log.
    pub fn into_parts(self) -> (T, WriteAheadLog) {
        (self.target, self.log)
    }

    /// Captures a checkpoint of the dispatcher with the current log
    /// position stamped on: restoring it and replaying the log suffix past
    /// [`appended_seq`](Self::appended_seq) reproduces the run exactly.
    ///
    /// Checkpoints are **flush barriers**: the buffered group is flushed
    /// first, so the stamp never exceeds [`acked_seq`](Self::acked_seq) —
    /// otherwise a crash right after the checkpoint sealed could leave a
    /// state *ahead* of the durable log, and the lost records would be
    /// re-driven on top of state that already contains them.
    pub fn checkpoint(&mut self) -> Result<T::Checkpoint, WalError> {
        let _capture = self.capture_ns.timer();
        self.log.flush()?;
        let mut checkpoint = self.target.take_checkpoint();
        T::stamp_wal_seq(&mut checkpoint, self.log.acked_seq());
        Ok(checkpoint)
    }

    /// Logs, then applies, one submitted order.
    pub fn submit_order(&mut self, order: Order) -> Result<SubmitOutcome, WalError> {
        self.log_record(&WalRecord::SubmitOrder(order))?;
        Ok(self.target.apply_submit(order))
    }

    /// Logs, then applies, one disruption event.
    pub fn ingest_event(&mut self, event: DisruptionEvent) -> Result<IngestOutcome, WalError> {
        self.log_record(&WalRecord::IngestEvent(event))?;
        Ok(self.target.apply_ingest(event))
    }

    /// Logs, then applies, one clock advance.
    pub fn advance_to(&mut self, until: TimePoint) -> Result<AdvanceOutcome<T::Output>, WalError> {
        self.log_record(&WalRecord::AdvanceTo(until))?;
        Ok(self.target.apply_advance(until))
    }

    /// The write-ahead contract, shared by all three calls: refuse input
    /// after a crash, honour the fail point at its exact boundary, and
    /// append the record (the flush policy decides when it hits disk). On
    /// `Ok(())` the caller applies the payload it logged — the record types
    /// are `Copy`, so each entry point logs and applies the same value
    /// without a dispatch-by-variant round trip.
    fn log_record(&mut self, record: &WalRecord) -> Result<(), WalError> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        let seq = self.log.appended_seq();
        if let Some(fp) = self.fail_point.filter(|fp| fp.at_seq == seq) {
            self.crashed = true;
            // A simulated power cut also loses whatever the group-commit
            // buffer held: only the acked prefix survives on disk.
            match fp.mode {
                FailMode::BeforeAppend => {
                    self.log.discard_unflushed();
                }
                FailMode::AfterAppend => {
                    // "Durable but not applied" means the group holding the
                    // record flushed before the process died.
                    self.log.append(record)?;
                    self.log.flush()?;
                }
                FailMode::TornAppend => {
                    // `append_torn` flushes the pending group, then dies
                    // midway through this record's frame bytes.
                    self.log.append_torn(record)?;
                }
            }
            return Err(WalError::CrashInjected { seq });
        }
        self.log.append(record)?;
        Ok(())
    }
}

/// A typed replay failure: the log and the dispatcher disagree in a way
/// deterministic replay cannot paper over.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// An `AdvanceTo` record targets a time before the dispatcher's clock
    /// — the log is misordered (or replayed against the wrong checkpoint).
    /// Detectable only because
    /// [`advance_to`](crate::DispatchService::advance_to) reports
    /// [`AdvanceStatus::OutOfOrder`](crate::service::AdvanceStatus) instead
    /// of silently no-opping.
    OutOfOrderAdvance {
        /// Index of the offending record within the replayed slice.
        index: usize,
        /// The stale target it requested.
        requested: TimePoint,
        /// The dispatcher clock it fell behind.
        clock: TimePoint,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::OutOfOrderAdvance { index, requested, clock } => write!(
                f,
                "replay record {index} advances to {requested:?}, behind the dispatcher clock {clock:?} — \
                 the log is misordered or paired with the wrong checkpoint"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays a slice of WAL records against a restored dispatcher, returning
/// the outputs the advances produce (identical to what the original run
/// emitted over the same span, determinism guaranteed). Submit/ingest
/// outcomes are discarded — their effects are in the state — but a
/// misordered `AdvanceTo` is a typed [`ReplayError`].
pub fn replay_wal<T: WalTarget>(
    target: &mut T,
    records: &[WalRecord],
) -> Result<Vec<T::Output>, ReplayError> {
    let mut outputs = Vec::new();
    for (index, record) in records.iter().enumerate() {
        match record {
            WalRecord::SubmitOrder(order) => {
                let _ = target.apply_submit(*order);
            }
            WalRecord::IngestEvent(event) => {
                let _ = target.apply_ingest(*event);
            }
            WalRecord::AdvanceTo(until) => {
                let outcome = target.apply_advance(*until);
                if let crate::service::AdvanceStatus::OutOfOrder { requested, clock } =
                    outcome.status
                {
                    return Err(ReplayError::OutOfOrderAdvance { index, requested, clock });
                }
                outputs.extend(outcome.into_outputs());
            }
        }
    }
    Ok(outputs)
}
