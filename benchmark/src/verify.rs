//! Correctness checks on a run's output stream: the order-conservation
//! tally (check 1) and the stream digest two passes are compared by
//! (check 3).

use foodmatch_core::{crc32, Codec, OrderId};
use foodmatch_sim::{DispatchOutput, RoutedOutput, SimulationReport};
use std::collections::{HashMap, HashSet};

/// Where every offered order ended up.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    pub offered: usize,
    pub delivered: usize,
    pub rejected: usize,
    pub cancelled: usize,
    pub undelivered: usize,
    pub xdt_mins: f64,
}

impl Tally {
    /// Pools another instance's tally into this one.
    pub fn add(&mut self, other: &Tally) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.rejected += other.rejected;
        self.cancelled += other.cancelled;
        self.undelivered += other.undelivered;
        self.xdt_mins += other.xdt_mins;
    }
}

/// CRC-32 of the encoded stream with the wall-clock fields of
/// `WindowClosed` (`compute_secs`, `overflown`) zeroed, so two runs of the
/// same computation digest alike however long they took.
pub fn digest(outputs: &[RoutedOutput]) -> u32 {
    let mut bytes = Vec::with_capacity(outputs.len() * 40);
    for routed in outputs {
        routed.zone.0.encode(&mut bytes);
        encode_output(&routed.output, &mut bytes);
    }
    crc32(&bytes)
}

fn encode_output(output: &DispatchOutput, out: &mut Vec<u8>) {
    match *output {
        DispatchOutput::Assigned { order, vehicle, at } => {
            out.push(0);
            order.encode(out);
            vehicle.encode(out);
            at.encode(out);
        }
        DispatchOutput::PickedUp { order, vehicle, at, waited } => {
            out.push(1);
            order.encode(out);
            vehicle.encode(out);
            at.encode(out);
            waited.encode(out);
        }
        DispatchOutput::Delivered { order, vehicle, at, xdt } => {
            out.push(2);
            order.encode(out);
            vehicle.encode(out);
            at.encode(out);
            xdt.encode(out);
        }
        DispatchOutput::Rejected { order, at } => {
            out.push(3);
            order.encode(out);
            at.encode(out);
        }
        DispatchOutput::Cancelled { order, at } => {
            out.push(4);
            order.encode(out);
            at.encode(out);
        }
        DispatchOutput::WindowClosed { mut stats } => {
            out.push(5);
            stats.compute_secs = 0.0;
            stats.overflown = false;
            stats.encode(out);
        }
    }
}

/// Check 1. Every offered order reaches exactly one of delivered /
/// rejected / cancelled / undelivered; `PickedUp` precedes `Delivered`; no
/// XDT is negative; nothing is reported for an order that was never
/// offered; and the program's own report agrees with its stream.
pub fn conservation(
    offered: &[OrderId],
    outputs: &[RoutedOutput],
    report: &SimulationReport,
) -> Result<Tally, String> {
    #[derive(Default)]
    struct Fate {
        picked_up: bool,
        terminal: Option<&'static str>,
    }
    let mut fates: HashMap<OrderId, Fate> =
        offered.iter().map(|&id| (id, Fate::default())).collect();
    if fates.len() != offered.len() {
        return Err("an order id was offered twice".to_string());
    }
    let mut tally = Tally { offered: offered.len(), ..Tally::default() };
    let terminal = |fates: &mut HashMap<OrderId, Fate>, order: OrderId, kind| {
        let fate = fates.get_mut(&order).ok_or(format!("{kind} for unknown order {order}"))?;
        match fate.terminal.replace(kind) {
            None => Ok(()),
            Some(earlier) => Err(format!("order {order} is both {earlier} and {kind}")),
        }
    };
    for routed in outputs {
        match routed.output {
            DispatchOutput::PickedUp { order, .. } => {
                let fate = fates.get_mut(&order).ok_or(format!("pickup of unknown {order}"))?;
                if fate.terminal.is_some() || std::mem::replace(&mut fate.picked_up, true) {
                    return Err(format!("order {order} picked up twice or after its end"));
                }
            }
            DispatchOutput::Delivered { order, xdt, .. } => {
                if !fates.get(&order).is_some_and(|f| f.picked_up) {
                    return Err(format!("order {order} delivered without a pickup"));
                }
                if xdt.as_secs_f64() < 0.0 {
                    return Err(format!("order {order} has negative XDT"));
                }
                terminal(&mut fates, order, "delivered")?;
                tally.delivered += 1;
                tally.xdt_mins += xdt.as_mins_f64();
            }
            DispatchOutput::Rejected { order, .. } => {
                terminal(&mut fates, order, "rejected")?;
                tally.rejected += 1;
            }
            DispatchOutput::Cancelled { order, .. } => {
                terminal(&mut fates, order, "cancelled")?;
                tally.cancelled += 1;
            }
            DispatchOutput::Assigned { .. } | DispatchOutput::WindowClosed { .. } => {}
        }
    }
    // Orders still on a vehicle at the drain cutoff get no terminal event;
    // the report names them, and they must be exactly the orders left over.
    let undelivered: HashSet<OrderId> = report.undelivered.iter().copied().collect();
    for (&order, fate) in &fates {
        if fate.terminal.is_none() != undelivered.contains(&order) {
            return Err(format!("order {order} has no single fate"));
        }
    }
    tally.undelivered = undelivered.len();
    let reported = (report.delivered.len(), report.rejected.len(), report.cancelled.len());
    if reported != (tally.delivered, tally.rejected, tally.cancelled)
        || report.total_orders != tally.offered
    {
        return Err(format!("report {reported:?} disagrees with the stream {tally:?}"));
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::VehicleId;
    use foodmatch_roadnet::{Duration, TimePoint};
    use foodmatch_sim::{WindowStats, ZoneId};

    fn at(mins: u32) -> TimePoint {
        TimePoint::from_hms(12, mins, 0)
    }

    fn routed(output: DispatchOutput) -> RoutedOutput {
        RoutedOutput { zone: ZoneId(0), output }
    }

    fn pickup(order: u64) -> RoutedOutput {
        let (order, vehicle) = (OrderId(order), VehicleId(1));
        routed(DispatchOutput::PickedUp { order, vehicle, at: at(5), waited: Duration::ZERO })
    }

    fn delivery(order: u64) -> RoutedOutput {
        let (order, vehicle) = (OrderId(order), VehicleId(1));
        let xdt = Duration::from_mins(2.0);
        routed(DispatchOutput::Delivered { order, vehicle, at: at(9), xdt })
    }

    fn window(compute_secs: f64, overflown: bool) -> RoutedOutput {
        let stats = WindowStats {
            closed_at: at(3),
            slot: at(3).hour_slot(),
            orders: 2,
            vehicles: 1,
            assigned: 1,
            compute_secs,
            overflown,
            disrupted: false,
        };
        routed(DispatchOutput::WindowClosed { stats })
    }

    fn report(delivered: &[u64], rejected: &[u64], undelivered: &[u64]) -> SimulationReport {
        let mut collector = foodmatch_sim::MetricsCollector::new("FoodMatch", 0, Duration::ZERO);
        for _ in 0..delivered.len() + rejected.len() + undelivered.len() {
            collector.record_offered();
        }
        for &id in delivered {
            collector.record_delivery(OrderId(id), at(0), at(9), Duration::from_mins(7.0));
        }
        for &id in rejected {
            collector.record_rejection(OrderId(id));
        }
        for &id in undelivered {
            collector.record_undelivered(OrderId(id));
        }
        collector.finish()
    }

    #[test]
    fn digest_ignores_wall_clock_fields_only() {
        let fast = [window(0.01, false), pickup(1), delivery(1)];
        let slow = [window(9.0, true), pickup(1), delivery(1)];
        assert_eq!(digest(&fast), digest(&slow));

        let mut other = fast;
        if let DispatchOutput::WindowClosed { stats } = &mut other[0].output {
            stats.assigned = 2;
        }
        assert_ne!(digest(&fast), digest(&other));
    }

    #[test]
    fn digest_changes_when_two_outputs_swap() {
        let a = [pickup(1), pickup(2), delivery(1), delivery(2)];
        let b = [pickup(2), pickup(1), delivery(1), delivery(2)];
        assert_ne!(digest(&a), digest(&b));
        let mut rezoned = a;
        rezoned[0].zone = ZoneId(1);
        assert_ne!(digest(&a), digest(&rezoned));
    }

    #[test]
    fn conservation_accepts_a_complete_stream() {
        let offered = [OrderId(1), OrderId(2), OrderId(3)];
        let rejected = routed(DispatchOutput::Rejected { order: OrderId(2), at: at(30) });
        let stream = [window(0.0, false), pickup(1), rejected, delivery(1)];
        let tally = conservation(&offered, &stream, &report(&[1], &[2], &[3])).expect("conserved");
        let expected = Tally {
            offered: 3,
            delivered: 1,
            rejected: 1,
            cancelled: 0,
            undelivered: 1,
            xdt_mins: 2.0,
        };
        assert_eq!(tally, expected);
    }

    #[test]
    fn conservation_rejects_broken_streams() {
        let offered = [OrderId(1)];
        let full = report(&[1], &[], &[]);
        let err = |stream: &[RoutedOutput], report| conservation(&offered, stream, report).is_err();
        assert!(err(&[delivery(1)], &full), "delivery without pickup");
        assert!(err(&[pickup(1), delivery(1), delivery(1)], &full), "two fates");
        assert!(err(&[pickup(1)], &full), "no fate and not reported undelivered");
        assert!(err(&[pickup(1), delivery(1), pickup(2)], &full), "unknown order");
        let empty = report(&[], &[], &[]);
        assert!(err(&[pickup(1), delivery(1)], &empty), "report disagrees");
        assert!(!err(&[pickup(1), delivery(1)], &full));
    }
}
