//! Accumulation-window snapshots and assignment outcomes — the interface
//! between the dispatcher and whatever drives it (the simulator, a replay
//! harness, or a live system).
//!
//! At the end of every accumulation window of length Δ the driver collects
//! the unassigned orders `O(ℓ)` (including, when reshuffling is enabled,
//! orders assigned earlier but not yet picked up) and the available vehicles
//! `V(ℓ)` into a [`WindowSnapshot`]; the dispatch policy answers with an
//! [`AssignmentOutcome`] that says which orders go to which vehicle.

use crate::order::{Order, OrderId};
use crate::vehicle::{VehicleId, VehicleSnapshot};
use foodmatch_roadnet::TimePoint;
use std::collections::{HashMap, HashSet};

/// Everything a dispatch policy sees about one accumulation window.
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// The window-close time `t` at which all costs are evaluated.
    pub time: TimePoint,
    /// `O(ℓ)`: the orders to assign in this window.
    pub orders: Vec<Order>,
    /// `V(ℓ)`: the available vehicles.
    pub vehicles: Vec<VehicleSnapshot>,
}

impl WindowSnapshot {
    /// Creates a snapshot.
    pub fn new(time: TimePoint, orders: Vec<Order>, vehicles: Vec<VehicleSnapshot>) -> Self {
        WindowSnapshot { time, orders, vehicles }
    }

    /// Number of orders awaiting assignment.
    pub fn order_count(&self) -> usize {
        self.orders.len()
    }

    /// Number of available vehicles.
    pub fn vehicle_count(&self) -> usize {
        self.vehicles.len()
    }

    /// The order-to-vehicle ratio of this window (∞ when no vehicles).
    pub fn pressure(&self) -> f64 {
        if self.vehicles.is_empty() {
            f64::INFINITY
        } else {
            self.orders.len() as f64 / self.vehicles.len() as f64
        }
    }

    /// Looks up an order by id.
    pub fn order(&self, id: OrderId) -> Option<&Order> {
        self.orders.iter().find(|o| o.id == id)
    }

    /// Looks up a vehicle by id.
    pub fn vehicle(&self, id: VehicleId) -> Option<&VehicleSnapshot> {
        self.vehicles.iter().find(|v| v.id == id)
    }
}

/// One vehicle's share of a window assignment: the orders newly given to it.
#[derive(Clone, Debug, PartialEq)]
pub struct VehicleAssignment {
    /// The vehicle receiving the orders.
    pub vehicle: VehicleId,
    /// The newly assigned orders (a batch of size 1..=MAXO minus the
    /// vehicle's committed load).
    pub orders: Vec<OrderId>,
}

/// The dispatch policy's answer for one window.
#[derive(Clone, Debug, Default)]
pub struct AssignmentOutcome {
    /// Per-vehicle new assignments. A vehicle appears at most once.
    pub assignments: Vec<VehicleAssignment>,
    /// Orders from the snapshot left unassigned in this window.
    pub unassigned: Vec<OrderId>,
}

impl AssignmentOutcome {
    /// An outcome that assigns nothing.
    pub fn all_unassigned(window: &WindowSnapshot) -> Self {
        AssignmentOutcome {
            assignments: Vec::new(),
            unassigned: window.orders.iter().map(|o| o.id).collect(),
        }
    }

    /// Total number of orders assigned to some vehicle.
    pub fn assigned_order_count(&self) -> usize {
        self.assignments.iter().map(|a| a.orders.len()).sum()
    }

    /// Validates the outcome against its window: every order appears exactly
    /// once (assigned or unassigned), assigned vehicles exist in the window
    /// and are not repeated. Returns a description of the first violation.
    pub fn validate(&self, window: &WindowSnapshot) -> Result<(), String> {
        let window_orders: HashSet<OrderId> = window.orders.iter().map(|o| o.id).collect();
        let window_vehicles: HashSet<VehicleId> = window.vehicles.iter().map(|v| v.id).collect();

        let mut seen_orders: HashMap<OrderId, &'static str> = HashMap::new();
        let mut seen_vehicles = HashSet::new();
        for assignment in &self.assignments {
            if !window_vehicles.contains(&assignment.vehicle) {
                return Err(format!(
                    "assignment references unknown vehicle {}",
                    assignment.vehicle
                ));
            }
            if !seen_vehicles.insert(assignment.vehicle) {
                return Err(format!("vehicle {} appears in two assignments", assignment.vehicle));
            }
            if assignment.orders.is_empty() {
                return Err(format!("vehicle {} was assigned an empty batch", assignment.vehicle));
            }
            for &order in &assignment.orders {
                if !window_orders.contains(&order) {
                    return Err(format!("assignment references unknown order {order}"));
                }
                if seen_orders.insert(order, "assigned").is_some() {
                    return Err(format!("order {order} assigned more than once"));
                }
            }
        }
        for &order in &self.unassigned {
            if !window_orders.contains(&order) {
                return Err(format!("unassigned list references unknown order {order}"));
            }
            if seen_orders.insert(order, "unassigned").is_some() {
                return Err(format!("order {order} listed twice"));
            }
        }
        if seen_orders.len() != window_orders.len() {
            return Err(format!(
                "outcome covers {} of {} window orders",
                seen_orders.len(),
                window_orders.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_roadnet::{Duration, NodeId};

    fn order(id: u64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(0),
            NodeId(1),
            TimePoint::from_hms(12, 0, 0),
            1,
            Duration::from_mins(5.0),
        )
    }

    fn window() -> WindowSnapshot {
        WindowSnapshot::new(
            TimePoint::from_hms(12, 3, 0),
            vec![order(1), order(2), order(3)],
            vec![
                VehicleSnapshot::idle(VehicleId(0), NodeId(0)),
                VehicleSnapshot::idle(VehicleId(1), NodeId(1)),
            ],
        )
    }

    #[test]
    fn pressure_is_order_to_vehicle_ratio() {
        let w = window();
        assert!((w.pressure() - 1.5).abs() < 1e-12);
        let empty = WindowSnapshot::new(w.time, w.orders.clone(), Vec::new());
        assert!(empty.pressure().is_infinite());
    }

    #[test]
    fn lookup_helpers_work() {
        let w = window();
        assert!(w.order(OrderId(2)).is_some());
        assert!(w.order(OrderId(9)).is_none());
        assert!(w.vehicle(VehicleId(1)).is_some());
        assert!(w.vehicle(VehicleId(7)).is_none());
    }

    #[test]
    fn valid_outcome_passes_validation() {
        let w = window();
        let outcome = AssignmentOutcome {
            assignments: vec![
                VehicleAssignment { vehicle: VehicleId(0), orders: vec![OrderId(1), OrderId(3)] },
                VehicleAssignment { vehicle: VehicleId(1), orders: vec![OrderId(2)] },
            ],
            unassigned: vec![],
        };
        outcome.validate(&w).unwrap();
        assert_eq!(outcome.assigned_order_count(), 3);
    }

    #[test]
    fn all_unassigned_covers_every_order() {
        let w = window();
        let outcome = AssignmentOutcome::all_unassigned(&w);
        outcome.validate(&w).unwrap();
        assert_eq!(outcome.assigned_order_count(), 0);
        assert_eq!(outcome.unassigned.len(), 3);
    }

    #[test]
    fn validation_rejects_double_assignment() {
        let w = window();
        let outcome = AssignmentOutcome {
            assignments: vec![
                VehicleAssignment { vehicle: VehicleId(0), orders: vec![OrderId(1)] },
                VehicleAssignment { vehicle: VehicleId(1), orders: vec![OrderId(1)] },
            ],
            unassigned: vec![OrderId(2), OrderId(3)],
        };
        assert!(outcome.validate(&w).is_err());
    }

    #[test]
    fn validation_rejects_missing_orders() {
        let w = window();
        let outcome = AssignmentOutcome {
            assignments: vec![VehicleAssignment {
                vehicle: VehicleId(0),
                orders: vec![OrderId(1)],
            }],
            unassigned: vec![OrderId(2)],
        };
        assert!(outcome.validate(&w).is_err());
    }

    #[test]
    fn validation_rejects_unknown_vehicle_and_empty_batch() {
        let w = window();
        let unknown_vehicle = AssignmentOutcome {
            assignments: vec![VehicleAssignment {
                vehicle: VehicleId(9),
                orders: vec![OrderId(1)],
            }],
            unassigned: vec![OrderId(2), OrderId(3)],
        };
        assert!(unknown_vehicle.validate(&w).is_err());
        let empty_batch = AssignmentOutcome {
            assignments: vec![VehicleAssignment { vehicle: VehicleId(0), orders: vec![] }],
            unassigned: vec![OrderId(1), OrderId(2), OrderId(3)],
        };
        assert!(empty_batch.validate(&w).is_err());
    }
}
