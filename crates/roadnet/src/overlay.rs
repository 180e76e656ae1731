//! Live traffic perturbations as a delta-overlay on the distance oracle.
//!
//! The paper's road network is *dynamic*: edge travel times are refreshed
//! from live speeds as the day unfolds. Rebuilding a per-hour-slot index
//! (the paper's hub labels) on every refresh would be absurdly expensive, so
//! perturbations are instead expressed as a [`TrafficOverlay`]
//! — a sparse map `EdgeId → multiplier ≥ 1` layered on top of the static
//! `β(e, t)` weights. The effective weight of a perturbed edge is
//! `β(e, t) × multiplier(e)`.
//!
//! The sparse map is what callers build and compare; a search never reads
//! it. [`ShortestPathEngine::set_overlay`](crate::ShortestPathEngine::set_overlay)
//! renders it once, against its network, into one multiplier per edge
//! ([`TrafficOverlay::edge_multipliers`]: `1.0` where unperturbed, and
//! `β × 1.0` is `β` bit for bit), and a query under an active overlay that
//! the engine's overlay memo cannot answer is **one** exact Dijkstra on the
//! overlaid weights — the same kernel as an unperturbed search, paying one
//! indexed load more per relaxed edge. The static memo is not asked: an
//! answer on the static weights says nothing a search that stops at its
//! last target needs. A generation counter on the engine invalidates
//! memoised overlay answers, and the rendered table with them, when the
//! overlay changes. The memo-free references,
//! [`dijkstra::one_to_many`](crate::dijkstra::one_to_many) and
//! [`dijkstra::shortest_path`](crate::dijkstra::shortest_path), take the
//! overlay as a value and render it the same way.
//!
//! Multipliers are restricted to `≥ 1` (incidents, rain and localized
//! slowdowns make roads *slower*): an overlay never disconnects the graph —
//! a perturbed edge is slow, not closed — so a pair is reachable under an
//! overlay exactly when it is without one.

use crate::graph::RoadNetwork;
use crate::ids::EdgeId;
use crate::timeofday::TimePoint;
use std::collections::HashMap;

/// A sparse set of travel-time multipliers layered over a road network.
///
/// Cheap to clone when empty and small; built once per change of the active
/// disruption set and handed to the engine, which keeps only its rendering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficOverlay {
    /// Only perturbed edges are stored; absent edges have multiplier `1`.
    multipliers: HashMap<EdgeId, f64>,
}

impl TrafficOverlay {
    /// Creates an empty overlay (every edge at its baseline weight).
    pub fn new() -> Self {
        Self::default()
    }

    /// Slows `edge` down by `factor`. Overlapping perturbations combine by
    /// taking the worst (largest) factor.
    ///
    /// # Panics
    /// Panics if `factor` is not finite or is below `1.0` — overlays model
    /// slowdowns only (see the module docs for why).
    pub fn slow_edge(&mut self, edge: EdgeId, factor: f64) {
        assert!(factor.is_finite() && factor >= 1.0, "overlay factor must be ≥ 1, got {factor}");
        if factor == 1.0 {
            return;
        }
        let entry = self.multipliers.entry(edge).or_insert(1.0);
        *entry = entry.max(factor);
    }

    /// The travel-time multiplier of `edge` (`1.0` when unperturbed).
    #[inline]
    pub fn multiplier(&self, edge: EdgeId) -> f64 {
        self.multipliers.get(&edge).copied().unwrap_or(1.0)
    }

    /// True when no edge is perturbed.
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// Number of perturbed edges.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// The overlay rendered against `network`: the multiplier of every edge,
    /// indexed by edge id (`1.0` where unperturbed). This is what the
    /// overlaid searches read. The network sizes the table; an overlay entry
    /// for an edge id the network does not have is never asked for.
    pub fn edge_multipliers(&self, network: &RoadNetwork) -> Vec<f64> {
        network.edge_ids().map(|edge| self.multiplier(edge)).collect()
    }
}

/// The overlaid weight `β(e, t) × multiplier(e)` in seconds, over a table
/// rendered by [`TrafficOverlay::edge_multipliers`] for the same network.
/// `t`'s hour slot is resolved once, here, for every edge the closure prices.
#[inline]
pub(crate) fn overlaid_secs<'a>(
    network: &'a RoadNetwork,
    multipliers: &'a [f64],
    t: TimePoint,
) -> impl Fn(EdgeId) -> f64 + 'a {
    let slot = t.hour_slot();
    move |edge| network.beta_at(edge, slot).as_secs_f64() * multipliers[edge.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionProfile, RoadClass};
    use crate::dijkstra::tests::path_end;
    use crate::dijkstra::{one_to_many, shortest_path};
    use crate::generators::GridCityBuilder;
    use crate::geo::GeoPoint;
    use crate::graph::RoadNetworkBuilder;
    use crate::ids::NodeId;

    fn overlay_on(net: &RoadNetwork, factor: f64, every: usize) -> TrafficOverlay {
        let mut overlay = TrafficOverlay::new();
        for eid in net.edge_ids().step_by(every) {
            overlay.slow_edge(eid, factor);
        }
        overlay
    }

    /// A reference network whose edges are physically lengthened by the
    /// overlay factors, so plain Dijkstra on it *is* the perturbed oracle.
    fn rebuilt_with_overlay(net: &RoadNetwork, overlay: &TrafficOverlay) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new().congestion(net.congestion().clone());
        for node in net.node_ids() {
            b.add_node(net.position(node));
        }
        for eid in net.edge_ids() {
            let e = net.edge(eid);
            b.add_edge(e.from, e.to, e.length_m * overlay.multiplier(eid), e.class);
        }
        b.build()
    }

    #[test]
    fn empty_overlay_matches_plain_dijkstra() {
        let net = GridCityBuilder::new(5, 5).build();
        let unperturbed = TrafficOverlay::new();
        let t = TimePoint::from_hms(12, 0, 0);
        let targets = [NodeId(3), NodeId(18), NodeId(24)];
        for s in [0u32, 7, 13] {
            assert_eq!(
                one_to_many(&net, NodeId(s), &targets, t, Some(&unperturbed)),
                one_to_many(&net, NodeId(s), &targets, t, None)
            );
        }
    }

    #[test]
    fn overlaid_times_match_a_rebuilt_network() {
        let net = GridCityBuilder::new(6, 6).congestion(CongestionProfile::metropolitan()).build();
        let overlay = overlay_on(&net, 2.5, 3);
        let reference = rebuilt_with_overlay(&net, &overlay);
        let t = TimePoint::from_hms(19, 30, 0);
        for s in (0..net.node_count() as u32).step_by(5) {
            for g in (1..net.node_count() as u32).step_by(7) {
                let got = one_to_many(&net, NodeId(s), &[NodeId(g)], t, Some(&overlay))[0];
                let expected = one_to_many(&reference, NodeId(s), &[NodeId(g)], t, None)[0];
                match (got, expected) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a.as_secs_f64() - b.as_secs_f64()).abs() < 1e-6,
                            "{s}->{g}: {a:?} vs {b:?}"
                        );
                    }
                    (a, b) => assert_eq!(a, b, "{s}->{g}"),
                }
            }
        }
    }

    #[test]
    fn one_to_many_overlaid_matches_pointwise() {
        let net = GridCityBuilder::new(5, 4).build();
        let overlay = overlay_on(&net, 1.8, 4);
        let t = TimePoint::from_hms(9, 0, 0);
        let targets: Vec<NodeId> = net.node_ids().step_by(3).collect();
        let batch = one_to_many(&net, NodeId(1), &targets, t, Some(&overlay));
        for (i, &target) in targets.iter().enumerate() {
            let single = one_to_many(&net, NodeId(1), &[target], t, Some(&overlay))[0];
            assert_eq!(batch[i], single, "target {target}");
        }
    }

    #[test]
    fn overlaid_path_reconstruction_is_consistent() {
        let net = GridCityBuilder::new(5, 5).build();
        let overlay = overlay_on(&net, 4.0, 2);
        let t = TimePoint::from_hms(12, 0, 0);
        let path = shortest_path(&net, NodeId(0), NodeId(24), t, Some(&overlay)).unwrap();
        assert_eq!(path_end(&net, NodeId(0), &path.edges), NodeId(24));
        // Summing the overlaid edge weights along the path reproduces the
        // reported travel time.
        let mut total = 0.0;
        for &eid in &path.edges {
            total += net.travel_time(eid, t).as_secs_f64() * overlay.multiplier(eid);
        }
        assert!((total - path.travel_time.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn overlay_combines_overlapping_factors_by_max() {
        let mut overlay = TrafficOverlay::new();
        overlay.slow_edge(EdgeId(3), 1.5);
        overlay.slow_edge(EdgeId(3), 2.0);
        overlay.slow_edge(EdgeId(3), 1.2);
        assert_eq!(overlay.multiplier(EdgeId(3)), 2.0);
        assert_eq!(overlay.len(), 1);
        // Factor 1.0 is a no-op, not an entry.
        overlay.slow_edge(EdgeId(9), 1.0);
        assert_eq!(overlay.len(), 1);
    }

    #[test]
    fn the_network_sizes_the_rendered_table_not_the_overlay() {
        let net = GridCityBuilder::new(3, 3).build();
        let mut overlay = TrafficOverlay::new();
        overlay.slow_edge(EdgeId(2), 1.5);
        overlay.slow_edge(EdgeId(u32::MAX - 1), 3.0);
        let table = overlay.edge_multipliers(&net);
        assert_eq!(table.len(), net.edge_count());
        for eid in net.edge_ids() {
            assert_eq!(table[eid.index()], if eid == EdgeId(2) { 1.5 } else { 1.0 });
        }
    }

    #[test]
    #[should_panic(expected = "overlay factor must be ≥ 1")]
    fn speedup_factors_are_rejected() {
        let mut overlay = TrafficOverlay::new();
        overlay.slow_edge(EdgeId(0), 0.5);
    }

    #[test]
    fn disconnected_targets_stay_unreachable() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.01));
        let d = b.add_node(GeoPoint::new(0.0, 0.02));
        b.add_edge(a, c, 100.0, RoadClass::Local);
        let net = b.build();
        let mut overlay = TrafficOverlay::new();
        overlay.slow_edge(EdgeId(0), 2.0);
        assert_eq!(one_to_many(&net, a, &[d], TimePoint::MIDNIGHT, Some(&overlay))[0], None);
    }
}
