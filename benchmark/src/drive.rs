//! The driver: builds a dispatcher for a generated [`World`] and runs the
//! closed loop over it, one accumulation window per tick.
//!
//! Closed loop in simulated time on one dispatch thread: for each tick
//! `t = now + Δ`, submit the orders placed by `t` (just in time, as a live
//! feed would), ingest the events due, `advance_to(t)`; repeat until the
//! dispatcher reports finished. There is no real-time pacing, so there is
//! no generator lateness to report.

use crate::spans::{Tracer, NO_SHARD, ROOT};
use crate::stats::process_cpu_secs;
use crate::verify::digest;
use crate::workloads::{Shape, World};
use crate::Fallible;
use foodmatch_core::{DispatchPolicy, Order, OrderId};
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::{ShortestPathEngine, TimePoint};
use foodmatch_sim::{
    load_checkpoint, replay_wal, BackgroundCheckpointer, DispatchOutput, DispatchRouter,
    DispatchService, DurableDispatch, FlushPolicy, RoutedOutput, ServiceCheckpoint,
    SimulationReport, WriteAheadLog, ZoneId,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A checkpoint is captured after every this many ticks.
const CHECKPOINT_EVERY: usize = 5;
/// The power-cut drill hits this many ticks after a capture.
const DRILL_CHECKPOINT_AGE: usize = 3;

fn text(error: impl std::fmt::Display) -> String {
    error.to_string()
}

fn bare(output: DispatchOutput) -> RoutedOutput {
    RoutedOutput { zone: ZoneId(0), output }
}

/// The three dispatcher shapes behind one set of calls.
pub enum Dispatcher<P: DispatchPolicy + Clone> {
    Bare(Box<DispatchService<P>>),
    Durable(Box<DurableRig<P>>),
    Routed(Box<DispatchRouter<P>>),
}

/// What the durable shape did besides dispatching.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DurableStats {
    pub recover_ms: f64,
    pub replay_ms: f64,
    pub replay_records: usize,
    pub acked_lag_max: u64,
    pub checkpoint_bytes: u64,
}

/// `DurableDispatch` plus the machinery a deployment runs around it: the
/// background checkpointer, compaction below sealed checkpoints and — in
/// the untraced pass — one power cut.
pub struct DurableRig<P: DispatchPolicy + Clone> {
    durable: Option<DurableDispatch<DispatchService<P>>>,
    checkpointer: Option<BackgroundCheckpointer<ServiceCheckpoint>>,
    engine: ShortestPathEngine,
    policy: P,
    wal_path: PathBuf,
    checkpoint_path: PathBuf,
    drill_tick: Option<usize>,
    /// Tick after which the newest checkpoint was captured.
    captured_after: Option<usize>,
    stats: DurableStats,
}

impl<P: DispatchPolicy + Clone> DurableRig<P> {
    fn durable(&mut self) -> &mut DurableDispatch<DispatchService<P>> {
        self.durable.as_mut().expect("the durable service is only absent mid-recovery")
    }

    fn service(&self) -> &DispatchService<P> {
        self.durable.as_ref().expect("the durable service is only absent mid-recovery").target()
    }

    /// Captures a checkpoint on the dispatch thread, hands it to the
    /// background worker, and compacts the log below whatever the worker
    /// has sealed by now.
    fn checkpoint(&mut self, tick: usize, tracer: Option<&Tracer>, parent: u32) -> Fallible<()> {
        let checkpoint =
            spanned(tracer, "checkpoint.capture", parent, || self.durable().checkpoint())
                .map_err(text)?;
        let checkpointer = self.checkpointer.as_ref().expect("checkpointer runs between drills");
        checkpointer.save(checkpoint.wal_seq, checkpoint);
        self.captured_after = Some(tick);
        let sealed = checkpointer.sealed_seq();
        if sealed > 0 {
            spanned(tracer, "compact", parent, || self.durable().compact_log(sealed))
                .map_err(text)?;
        }
        Ok(())
    }

    /// The drill: the process loses its memory — service state and the
    /// unflushed record group — and comes back from the newest sealed
    /// checkpoint plus a replay of the durable log suffix. `emitted` is
    /// what the lost process had emitted since that checkpoint; the replay
    /// must regenerate exactly it. Returns how many buffered records the
    /// cut destroyed (the caller re-submits them).
    fn power_cut(&mut self, emitted: &[RoutedOutput]) -> Fallible<u64> {
        let started = Instant::now();
        let checkpointer = self.checkpointer.take().expect("checkpointer runs before the drill");
        checkpointer.drain()?;
        drop(checkpointer);
        let (service, mut log) =
            self.durable.take().expect("service runs before the drill").into_parts();
        let lost = log.discard_unflushed();
        drop(log);
        drop(service);

        let (log, read) =
            WriteAheadLog::open_with(&self.wal_path, FlushPolicy::Window).map_err(text)?;
        let checkpoint: ServiceCheckpoint = load_checkpoint(&self.checkpoint_path).map_err(text)?;
        let suffix = read.suffix_from(checkpoint.wal_seq).map_err(text)?;
        let mut service =
            DispatchService::restore(self.engine.clone(), self.policy.clone(), &checkpoint);
        let replay_started = Instant::now();
        let replayed = replay_wal(&mut service, suffix).map_err(text)?;
        self.stats.replay_ms = replay_started.elapsed().as_secs_f64() * 1e3;
        self.stats.replay_records = suffix.len();
        let replayed: Vec<RoutedOutput> = replayed.into_iter().map(bare).collect();
        if digest(&replayed) != digest(emitted) {
            return Err(format!(
                "recovery replayed {} outputs that differ from the {} emitted before the cut",
                replayed.len(),
                emitted.len()
            ));
        }
        self.durable = Some(DurableDispatch::new(service, log));
        self.checkpointer =
            Some(BackgroundCheckpointer::service(&self.checkpoint_path).map_err(text)?);
        self.stats.recover_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(lost)
    }
}

/// Builds the dispatcher `world.shape` asks for, with a fresh engine (so
/// every pass starts with cold oracle caches). `make_policy` gets the zone
/// index, or [`NO_SHARD`] outside a router. Durable files go under
/// `scratch`; `drill` arms the power cut.
pub fn build<P: DispatchPolicy + Clone>(
    world: &World,
    scratch: &Path,
    drill: bool,
    mut make_policy: impl FnMut(i32) -> P,
) -> Fallible<Dispatcher<P>> {
    let service = |policy: P, engine: ShortestPathEngine| {
        DispatchService::new(
            engine,
            world.vehicle_starts.clone(),
            policy,
            world.config.clone(),
            world.start,
            world.end,
            world.drain_limit,
        )
    };
    Ok(match &world.shape {
        Shape::Bare => {
            let engine = ShortestPathEngine::cached(world.network.clone());
            Dispatcher::Bare(Box::new(service(make_policy(NO_SHARD), engine)))
        }
        Shape::Durable => {
            std::fs::create_dir_all(scratch).map_err(text)?;
            let wal_path = scratch.join("dispatch.wal");
            let checkpoint_path = scratch.join("dispatch.ckpt");
            let log = WriteAheadLog::create_with(&wal_path, FlushPolicy::Window).map_err(text)?;
            let engine = ShortestPathEngine::cached(world.network.clone());
            let policy = make_policy(NO_SHARD);
            // One drill per run, at a fixed tick a third of the way into
            // the horizon and `DRILL_CHECKPOINT_AGE` ticks past a capture.
            let window_secs = world.config.accumulation_window.as_secs_f64();
            let horizon_ticks = ((world.end - world.start).as_secs_f64() / window_secs) as usize;
            let capture = (horizon_ticks / 3 / CHECKPOINT_EVERY).max(1) * CHECKPOINT_EVERY;
            Dispatcher::Durable(Box::new(DurableRig {
                durable: Some(DurableDispatch::new(service(policy.clone(), engine.clone()), log)),
                checkpointer: Some(
                    BackgroundCheckpointer::service(&checkpoint_path).map_err(text)?,
                ),
                engine,
                policy,
                wal_path,
                checkpoint_path,
                drill_tick: drill.then_some(capture - 1 + DRILL_CHECKPOINT_AGE),
                captured_after: None,
                stats: DurableStats::default(),
            }))
        }
        Shape::Routed(zones) => Dispatcher::Routed(Box::new(DispatchRouter::new(
            &world.network,
            zones.clone(),
            world.vehicle_starts.clone(),
            |zone| make_policy(zone.0 as i32),
            world.config.clone(),
            world.start,
            world.end,
            world.drain_limit,
        ))),
    })
}

impl<P: DispatchPolicy + Clone> Dispatcher<P> {
    fn submit(&mut self, order: Order) -> Fallible<bool> {
        Ok(match self {
            Dispatcher::Bare(service) => service.submit_order(order),
            Dispatcher::Durable(rig) => rig.durable().submit_order(order).map_err(text)?,
            Dispatcher::Routed(router) => router.submit_order(order),
        }
        .is_accepted())
    }

    fn ingest(&mut self, event: DisruptionEvent) -> Fallible<bool> {
        Ok(match self {
            Dispatcher::Bare(service) => service.ingest_event(event),
            Dispatcher::Durable(rig) => rig.durable().ingest_event(event).map_err(text)?,
            Dispatcher::Routed(router) => router.ingest_event(event),
        }
        .is_accepted())
    }

    fn advance(&mut self, until: TimePoint, out: &mut Vec<RoutedOutput>) -> Fallible<()> {
        match self {
            Dispatcher::Bare(service) => {
                out.extend(service.advance_to(until).into_iter().map(bare))
            }
            Dispatcher::Durable(rig) => {
                // The acked lag peaks here: a window's submits and ingests
                // sit in the group buffer until this advance flushes them.
                rig.stats.acked_lag_max = rig.stats.acked_lag_max.max(rig.durable().unflushed());
                out.extend(rig.durable().advance_to(until).map_err(text)?.into_iter().map(bare));
            }
            Dispatcher::Routed(router) => out.extend(router.advance_to(until)),
        }
        Ok(())
    }

    fn now(&self) -> TimePoint {
        match self {
            Dispatcher::Bare(service) => service.now(),
            Dispatcher::Durable(rig) => rig.service().now(),
            Dispatcher::Routed(router) => router.now(),
        }
    }

    fn is_finished(&self) -> bool {
        match self {
            Dispatcher::Bare(service) => service.is_finished(),
            Dispatcher::Durable(rig) => rig.service().is_finished(),
            Dispatcher::Routed(router) => router.is_finished(),
        }
    }

    fn report(&self) -> SimulationReport {
        match self {
            Dispatcher::Bare(service) => service.report(),
            Dispatcher::Durable(rig) => rig.service().report(),
            Dispatcher::Routed(router) => router.report().aggregate,
        }
    }
}

/// Everything one drive of one instance produced.
#[derive(Debug)]
pub struct Drive {
    /// Wall time of every tick, in milliseconds (recovery excluded).
    pub tick_ms: Vec<f64>,
    /// Whether the tick took any input or emitted any output. The rest are
    /// the dispatcher idling through the drain; how many of those a day has
    /// depends on when its last delivery lands, so latency percentiles are
    /// taken over the active ticks only.
    pub active: Vec<bool>,
    /// Drive-loop wall seconds: the sum of the ticks.
    pub wall_s: f64,
    /// Process CPU seconds over the drive loop (recovery excluded).
    pub cpu_s: f64,
    pub offered: Vec<OrderId>,
    pub events_ingested: usize,
    /// Submissions or ingests the dispatcher refused.
    pub refused: usize,
    pub outputs: Vec<RoutedOutput>,
    pub report: SimulationReport,
    pub durable: DurableStats,
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn spanned<T>(tracer: Option<&Tracer>, name: &str, parent: u32, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.scope(name, parent, NO_SHARD, |_| f()),
        None => f(),
    }
}

/// Drives `dispatcher` over `world`'s feeds until it finishes. Untraced,
/// a tick costs two clock reads; traced, every call into the program is a
/// span under the tick's.
pub fn drive<P: DispatchPolicy + Clone>(
    mut dispatcher: Dispatcher<P>,
    world: &World,
    tracer: Option<&Tracer>,
) -> Fallible<Drive> {
    let delta = world.config.accumulation_window;
    let (mut next_order, mut next_event) = (0, 0);
    let (mut tick_ms, mut active) = (Vec::new(), Vec::new());
    let (mut offered, mut outputs) = (Vec::new(), Vec::new());
    let (mut events_ingested, mut refused) = (0, 0);
    // Index into `outputs` where each tick's outputs start.
    let mut tick_starts = Vec::new();
    let cpu_before = process_cpu_secs();
    let mut cpu_excluded = 0.0;

    while !dispatcher.is_finished() {
        let tick = tick_ms.len();
        let until = dispatcher.now() + delta;
        let due_orders =
            world.orders[next_order..].iter().take_while(|o| o.placed_at <= until).count();
        let due_events = world.events[next_event..].iter().take_while(|e| e.at <= until).count();
        let orders = &world.orders[next_order..next_order + due_orders];
        let events = &world.events[next_event..next_event + due_events];
        (next_order, next_event) = (next_order + due_orders, next_event + due_events);
        tick_starts.push(outputs.len());
        if let Some(tracer) = tracer {
            tracer.set_tick(tick as u32);
        }

        let mut excluded = std::time::Duration::ZERO;
        let started = Instant::now();
        let mut body = |parent: u32| -> Fallible<()> {
            for &order in orders {
                let accepted = spanned(tracer, "submit", parent, || dispatcher.submit(order))?;
                refused += usize::from(!accepted);
            }
            if let Dispatcher::Durable(rig) = &mut dispatcher {
                if rig.drill_tick == Some(tick) {
                    let cut = Instant::now();
                    let cpu_cut = process_cpu_secs();
                    let since = rig.captured_after.map_or(0, |t| tick_starts[t + 1]);
                    let lost = rig.power_cut(&outputs[since..])?;
                    if lost != orders.len() as u64 {
                        return Err(format!("the cut lost {lost} records, not this tick's orders"));
                    }
                    excluded = cut.elapsed();
                    cpu_excluded = process_cpu_secs() - cpu_cut;
                    // The feed re-sends what was never acknowledged.
                    for &order in orders {
                        if !rig.durable().submit_order(order).map_err(text)?.is_accepted() {
                            return Err("a re-submitted order was refused".to_string());
                        }
                    }
                }
            }
            for &event in events {
                let accepted = spanned(tracer, "ingest", parent, || dispatcher.ingest(event))?;
                refused += usize::from(!accepted);
            }
            match tracer {
                Some(tracer) => {
                    tracer.advance_scope(parent, || dispatcher.advance(until, &mut outputs))?
                }
                None => dispatcher.advance(until, &mut outputs)?,
            }
            if let Dispatcher::Durable(rig) = &mut dispatcher {
                if (tick + 1).is_multiple_of(CHECKPOINT_EVERY)
                    && !rig.durable().target().is_finished()
                {
                    rig.checkpoint(tick, tracer, parent)?;
                }
            }
            Ok(())
        };
        match tracer {
            Some(tracer) => tracer.scope("tick", ROOT, NO_SHARD, &mut body)?,
            None => body(ROOT)?,
        }
        tick_ms.push((started.elapsed() - excluded).as_secs_f64() * 1e3);
        let quiet = orders.is_empty() && events.is_empty();
        active.push(!quiet || outputs.len() > tick_starts[tick]);
        offered.extend(orders.iter().map(|o| o.id));
        events_ingested += events.len();
    }

    let cpu_s = process_cpu_secs() - cpu_before - cpu_excluded;
    let report = dispatcher.report();
    let mut durable = DurableStats::default();
    if let Dispatcher::Durable(mut rig) = dispatcher {
        if let Some(checkpointer) = rig.checkpointer.take() {
            checkpointer.drain()?;
        }
        rig.stats.checkpoint_bytes =
            std::fs::metadata(&rig.checkpoint_path).map(|m| m.len()).unwrap_or(0);
        durable = rig.stats;
    }
    let wall_s = tick_ms.iter().sum::<f64>() / 1e3;
    Ok(Drive {
        tick_ms,
        active,
        wall_s,
        cpu_s,
        offered,
        events_ingested,
        refused,
        outputs,
        report,
        durable,
    })
}
