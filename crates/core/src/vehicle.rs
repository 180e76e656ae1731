//! Delivery vehicles as seen by the dispatcher.
//!
//! The dispatcher never manipulates the simulator's full vehicle state; at
//! the close of every accumulation window it receives a [`VehicleSnapshot`]
//! per available vehicle: where the vehicle is (snapped to the nearest road
//! node, as in the paper), where it is currently heading (used by the angular
//! distance of §IV-D1), and which orders it is already committed to, each a
//! [`PlannedOrder`] with its pickup state, as the route planner takes it.
//!
//! Which previously assigned orders appear as *committed* versus being put
//! back into the unassigned pool is the reshuffling decision of §IV-D2 and is
//! made by the caller (the simulator): picked-up orders are always committed;
//! not-yet-picked-up orders are committed only when reshuffling is disabled.

use crate::config::DispatchConfig;
use crate::order::Order;
use crate::route::PlannedOrder;
use foodmatch_roadnet::NodeId;
use std::fmt;

/// Identifier of a delivery vehicle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VehicleId(pub u32);

impl VehicleId {
    /// The id as a raw integer.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The dispatcher's view of one available vehicle at window-close time.
#[derive(Clone, Debug, PartialEq)]
pub struct VehicleSnapshot {
    /// Identifier of the vehicle.
    pub id: VehicleId,
    /// `loc(v, t)`: current position snapped to the nearest road node.
    pub location: NodeId,
    /// The next node the vehicle is driving towards, if it is en route;
    /// `None` when idle. Feeds the angular distance of Eq. 8.
    pub heading: Option<NodeId>,
    /// Orders the vehicle is committed to and that the dispatcher must plan
    /// around but may not reassign.
    pub committed: Vec<PlannedOrder>,
    /// Orders currently assigned to this vehicle that the window has put back
    /// up for reshuffling (§IV-D2). They are *not* constraints — the policy
    /// may move them elsewhere — but they let cost ties be broken in favour
    /// of the incumbent vehicle so that reshuffling does not oscillate.
    pub tentative: Vec<crate::order::OrderId>,
}

impl VehicleSnapshot {
    /// Creates an idle vehicle snapshot with no committed orders.
    pub fn idle(id: VehicleId, location: NodeId) -> Self {
        VehicleSnapshot {
            id,
            location,
            heading: None,
            committed: Vec::new(),
            tentative: Vec::new(),
        }
    }

    /// Total number of items across committed orders.
    pub fn committed_items(&self) -> u32 {
        self.committed.iter().map(|c| c.order.items).sum()
    }

    /// Whether this vehicle can additionally take the given set of orders
    /// without violating the `MAXO` / `MAXI` constraints of Definition 4.
    pub fn can_take(&self, extra: &[Order], config: &DispatchConfig) -> bool {
        if self.committed.len() + extra.len() > config.max_orders_per_vehicle {
            return false;
        }
        let extra_items: u32 = extra.iter().map(|o| o.items).sum();
        self.committed_items() + extra_items <= config.max_items_per_vehicle
    }

    /// Whether the vehicle has any spare order capacity at all.
    pub fn has_capacity(&self, config: &DispatchConfig) -> bool {
        self.committed.len() < config.max_orders_per_vehicle
            && self.committed_items() < config.max_items_per_vehicle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderId;
    use foodmatch_roadnet::{Duration, TimePoint};

    fn order(id: u64, items: u32) -> Order {
        Order::new(
            OrderId(id),
            NodeId(0),
            NodeId(1),
            TimePoint::from_hms(12, 0, 0),
            items,
            Duration::from_mins(8.0),
        )
    }

    #[test]
    fn idle_vehicle_has_no_load() {
        let v = VehicleSnapshot::idle(VehicleId(1), NodeId(5));
        assert!(v.committed.is_empty());
        assert_eq!(v.committed_items(), 0);
        assert!(v.has_capacity(&DispatchConfig::default()));
    }

    #[test]
    fn capacity_respects_max_orders() {
        let config = DispatchConfig::default();
        let mut v = VehicleSnapshot::idle(VehicleId(1), NodeId(5));
        v.committed = vec![PlannedOrder::on_board(order(1, 1)), PlannedOrder::pending(order(2, 1))];
        assert!(v.can_take(&[order(3, 1)], &config));
        assert!(!v.can_take(&[order(3, 1), order(4, 1)], &config));
    }

    #[test]
    fn capacity_respects_max_items() {
        let config = DispatchConfig::default();
        let mut v = VehicleSnapshot::idle(VehicleId(1), NodeId(5));
        v.committed = vec![PlannedOrder::pending(order(1, 8))];
        assert!(v.can_take(&[order(2, 2)], &config));
        assert!(!v.can_take(&[order(2, 3)], &config));
        assert!(v.has_capacity(&config));
        v.committed.push(PlannedOrder::pending(order(3, 2)));
        assert!(!v.has_capacity(&config));
    }

    #[test]
    fn vehicle_id_formats_like_the_paper() {
        assert_eq!(format!("{}", VehicleId(2)), "v2");
    }
}
