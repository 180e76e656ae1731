//! Food orders (Definition 2 of the paper).

use foodmatch_roadnet::{Duration, NodeId, TimePoint};
use std::fmt;

/// Identifier of a food order, unique within a simulation run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrderId(pub u64);

impl OrderId {
    /// The id as a raw integer.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for OrderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for OrderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A food order `o = ⟨o^r, o^c, o^t, o^i, o^p⟩` (Definition 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Order {
    /// Unique identifier.
    pub id: OrderId,
    /// `o^r`: restaurant (pick-up) node.
    pub restaurant: NodeId,
    /// `o^c`: customer (drop-off) node.
    pub customer: NodeId,
    /// `o^t`: the time the order was placed.
    pub placed_at: TimePoint,
    /// `o^i`: number of items in the order.
    pub items: u32,
    /// `o^p`: expected food preparation time.
    pub prep_time: Duration,
}

impl Order {
    /// Creates an order, validating that it has at least one item.
    ///
    /// # Panics
    /// Panics if `items == 0`.
    pub fn new(
        id: OrderId,
        restaurant: NodeId,
        customer: NodeId,
        placed_at: TimePoint,
        items: u32,
        prep_time: Duration,
    ) -> Self {
        assert!(items > 0, "an order must contain at least one item");
        Order { id, restaurant, customer, placed_at, items, prep_time }
    }

    /// The earliest time the food can leave the restaurant:
    /// `o^t + o^p`.
    pub fn ready_at(&self) -> TimePoint {
        self.placed_at + self.prep_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Order {
        Order::new(
            OrderId(7),
            NodeId(1),
            NodeId(2),
            TimePoint::from_hms(12, 0, 0),
            3,
            Duration::from_mins(10.0),
        )
    }

    #[test]
    fn ready_at_adds_prep_time() {
        let o = sample();
        assert_eq!(o.ready_at(), TimePoint::from_hms(12, 10, 0));
    }

    #[test]
    fn order_id_formats_like_the_paper() {
        assert_eq!(format!("{}", OrderId(3)), "o3");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_item_orders_rejected() {
        let _ =
            Order::new(OrderId(1), NodeId(0), NodeId(1), TimePoint::MIDNIGHT, 0, Duration::ZERO);
    }
}
