//! The traced pass's policy: FoodMatch taken apart at its stage boundaries.
//!
//! [`StagedFoodMatch`] composes the same public functions as
//! `FoodMatchPolicy::assign` — `batch_orders` → `build_food_graph` →
//! `config.build_solver().solve` → assignments sorted by vehicle — with a
//! span, an oracle-query delta and a few counts around each. The output
//! digest check proves every run that it still computes what the stock
//! policy computes.

use crate::spans::Tracer;
use foodmatch_core::{
    batch_orders, build_food_graph, AssignmentOutcome, DispatchConfig, DispatchPolicy,
    VehicleAssignment, WindowSnapshot,
};
use foodmatch_roadnet::ShortestPathEngine;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// What one `assign` call did, stage by stage.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowRecord {
    pub orders_in: usize,
    pub batches_out: usize,
    pub merges: usize,
    pub batching_queries: u64,
    pub evaluations: usize,
    pub explicit_edges: usize,
    pub foodgraph_queries: u64,
    /// Whether the solver ran (windows without orders, vehicles or batches
    /// return before it).
    pub solved: bool,
    pub rows: usize,
    pub cols: usize,
    pub pairs_returned: usize,
    pub pairs_under_omega: usize,
}

/// Shared between every zone's policy instance and the benchmark.
#[derive(Debug, Default)]
pub struct StageLog {
    pub windows: Mutex<Vec<WindowRecord>>,
    /// First `AssignmentOutcome::validate` failure, if any (check 2).
    pub invalid: Mutex<Option<String>>,
}

#[derive(Clone, Debug)]
pub struct StagedFoodMatch {
    tracer: Arc<Tracer>,
    log: Arc<StageLog>,
    shard: i32,
}

impl StagedFoodMatch {
    pub fn new(tracer: Arc<Tracer>, log: Arc<StageLog>, shard: i32) -> Self {
        StagedFoodMatch { tracer, log, shard }
    }

    fn stages(
        &self,
        parent: u32,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
        record: &mut WindowRecord,
    ) -> AssignmentOutcome {
        if window.orders.is_empty() || window.vehicles.is_empty() {
            return AssignmentOutcome::all_unassigned(window);
        }
        let (tracer, shard) = (&self.tracer, self.shard);

        let before = engine.query_count();
        let batching = tracer.scope("batching", parent, shard, |_| {
            batch_orders(&window.orders, engine, window.time, config)
        });
        record.batching_queries = engine.query_count() - before;
        record.batches_out = batching.batches.len();
        record.merges = batching.merges;
        let batches = batching.batches;
        if batches.is_empty() {
            return AssignmentOutcome::all_unassigned(window);
        }

        let before = engine.query_count();
        let graph = tracer.scope("foodgraph", parent, shard, |_| {
            build_food_graph(&batches, &window.vehicles, engine, window.time, config)
        });
        record.foodgraph_queries = engine.query_count() - before;
        record.evaluations = graph.evaluations;
        record.explicit_edges = graph.explicit_edges();

        let omega = config.rejection_penalty_secs;
        let mut assignments: Vec<VehicleAssignment> =
            tracer.scope("matching", parent, shard, |_| {
                let matching = config.build_solver().solve(&graph.costs);
                record.pairs_returned = matching.matched_pairs();
                matching
                    .pairs()
                    .filter(|&(row, col)| graph.costs.get(row, col) < omega)
                    .map(|(row, col)| VehicleAssignment {
                        vehicle: graph.vehicle_ids[col],
                        orders: batches[row].order_ids(),
                    })
                    .collect()
            });
        record.solved = true;
        record.rows = graph.costs.rows();
        record.cols = graph.costs.cols();
        record.pairs_under_omega = assignments.len();

        assignments.sort_by_key(|a| a.vehicle);
        let assigned: HashSet<_> =
            assignments.iter().flat_map(|a| a.orders.iter().copied()).collect();
        let unassigned =
            window.orders.iter().map(|o| o.id).filter(|id| !assigned.contains(id)).collect();
        AssignmentOutcome { assignments, unassigned }
    }
}

impl DispatchPolicy for StagedFoodMatch {
    fn name(&self) -> &'static str {
        "FoodMatch"
    }

    fn uses_reshuffling(&self, config: &DispatchConfig) -> bool {
        config.use_reshuffle
    }

    fn assign(
        &mut self,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
    ) -> AssignmentOutcome {
        let mut record = WindowRecord { orders_in: window.orders.len(), ..Default::default() };
        let parent = self.tracer.current_advance();
        let outcome = self.tracer.scope("policy.assign", parent, self.shard, |id| {
            self.stages(id, window, engine, config, &mut record)
        });
        // Check 2, in a span of its own so it is not billed to the service.
        self.tracer.scope("validate", parent, self.shard, |_| {
            if let Err(why) = outcome.validate(window) {
                let mut invalid = self.log.invalid.lock().expect("stage log poisoned");
                invalid.get_or_insert(format!("window at {:?}: {why}", window.time));
            }
        });
        self.log.windows.lock().expect("stage log poisoned").push(record);
        outcome
    }
}
