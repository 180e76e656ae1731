//! Live traffic perturbations as a delta-overlay on the distance oracle.
//!
//! The paper's road network is *dynamic*: edge travel times are refreshed
//! from live speeds as the day unfolds. Rebuilding a per-hour-slot index
//! (hub labels, contraction hierarchies) on every refresh would be absurdly
//! expensive, so perturbations are instead expressed as a [`TrafficOverlay`]
//! — a sparse map `EdgeId → multiplier ≥ 1` layered on top of the static
//! `β(e, t)` weights. The effective weight of a perturbed edge is
//! `β(e, t) × multiplier(e)`.
//!
//! [`ShortestPathEngine`](crate::ShortestPathEngine) answers queries under an
//! active overlay with a **bounded overlay search**: the unperturbed index
//! answer `d₀` is a lower bound on the perturbed distance, and
//! `d₀ × max_multiplier` is an upper bound (the unperturbed-optimal path is
//! still available, just slower), so an exact Dijkstra on the overlaid
//! weights can prune every label above that bound. The indexes themselves are
//! never rebuilt; a generation counter on the engine invalidates memoised
//! overlay answers when the overlay changes.
//!
//! Multipliers are restricted to `≥ 1` (incidents, rain and localized
//! slowdowns make roads *slower*); this is what makes the index answer a
//! usable lower bound. Overlays never disconnect the graph — a perturbed
//! edge is slow, not closed.

use crate::dijkstra::{path_to, search, settled_time, PathResult, SearchSpace};
use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId};
use crate::timeofday::{Duration, TimePoint};
use std::collections::HashMap;

/// A sparse set of travel-time multipliers layered over a road network.
///
/// Cheap to clone when empty and small; built once per change of the active
/// disruption set, shared behind the engine's overlay slot thereafter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficOverlay {
    /// Only perturbed edges are stored; absent edges have multiplier `1`.
    multipliers: HashMap<EdgeId, f64>,
    max_multiplier: f64,
}

impl TrafficOverlay {
    /// Creates an empty overlay (every edge at its baseline weight).
    pub fn new() -> Self {
        TrafficOverlay { multipliers: HashMap::new(), max_multiplier: 1.0 }
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
        self.max_multiplier = self.max_multiplier.max(factor);
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

    /// The largest multiplier in the overlay (`1.0` when empty). Used to turn
    /// an unperturbed index answer into an upper bound for the overlay search.
    #[inline]
    pub fn max_multiplier(&self) -> f64 {
        self.max_multiplier
    }

    /// The perturbed weight of `edge` at time `t`:
    /// `β(e, t) × multiplier(e)`, in seconds.
    #[inline]
    pub fn edge_secs(&self, network: &RoadNetwork, edge: EdgeId, t: TimePoint) -> f64 {
        network.travel_time(edge, t).as_secs_f64() * self.multiplier(edge)
    }

    /// Converts an unperturbed distance `d₀` (seconds) into a safe pruning
    /// bound for the overlay search. The margin absorbs floating-point noise
    /// in the `≤ d₀ × max_multiplier` upper-bound argument.
    #[inline]
    pub(crate) fn search_bound(&self, baseline_secs: f64) -> f64 {
        baseline_secs * self.max_multiplier * (1.0 + 1e-9) + 1e-6
    }
}

/// Exact `SP(u, v, t)` on the overlaid weights, pruned at `bound` seconds
/// when given (the caller guarantees the true perturbed distance does not
/// exceed the bound; see [`TrafficOverlay::search_bound`]).
pub fn shortest_travel_time_overlaid_in(
    network: &RoadNetwork,
    overlay: &TrafficOverlay,
    source: NodeId,
    target: NodeId,
    t: TimePoint,
    bound_secs: Option<f64>,
    space: &mut SearchSpace,
) -> Option<Duration> {
    let bound = bound_secs.unwrap_or(f64::INFINITY);
    search(network, source, &[target], bound, space, |e| overlay.edge_secs(network, e, t));
    settled_time(space, target)
}

/// [`shortest_travel_time_overlaid_in`] for several targets in one bounded
/// Dijkstra run. Targets that are unreachable (or lie beyond the bound —
/// which the caller only allows for unreachable targets) map to `None`.
pub fn one_to_many_overlaid_in(
    network: &RoadNetwork,
    overlay: &TrafficOverlay,
    source: NodeId,
    targets: &[NodeId],
    t: TimePoint,
    bound_secs: Option<f64>,
    space: &mut SearchSpace,
) -> Vec<Option<Duration>> {
    let bound = bound_secs.unwrap_or(f64::INFINITY);
    search(network, source, targets, bound, space, |e| overlay.edge_secs(network, e, t));
    targets.iter().map(|&target| settled_time(space, target)).collect()
}

/// Full shortest path (node sequence, travel time, length) on the overlaid
/// weights.
pub fn shortest_path_overlaid_in(
    network: &RoadNetwork,
    overlay: &TrafficOverlay,
    source: NodeId,
    target: NodeId,
    t: TimePoint,
    space: &mut SearchSpace,
) -> Option<PathResult> {
    search(network, source, &[target], f64::INFINITY, space, |e| overlay.edge_secs(network, e, t));
    path_to(network, source, target, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionProfile, RoadClass};
    use crate::dijkstra;
    use crate::generators::GridCityBuilder;
    use crate::geo::GeoPoint;
    use crate::graph::RoadNetworkBuilder;

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
        let overlay = TrafficOverlay::new();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut space = SearchSpace::new();
        for s in [0u32, 7, 13] {
            for g in [3u32, 18, 24] {
                assert_eq!(
                    shortest_travel_time_overlaid_in(
                        &net,
                        &overlay,
                        NodeId(s),
                        NodeId(g),
                        t,
                        None,
                        &mut space
                    ),
                    dijkstra::shortest_travel_time(&net, NodeId(s), NodeId(g), t)
                );
            }
        }
    }

    #[test]
    fn overlaid_times_match_a_rebuilt_network() {
        let net = GridCityBuilder::new(6, 6).congestion(CongestionProfile::metropolitan()).build();
        let overlay = overlay_on(&net, 2.5, 3);
        let reference = rebuilt_with_overlay(&net, &overlay);
        let t = TimePoint::from_hms(19, 30, 0);
        let mut space = SearchSpace::new();
        for s in (0..net.node_count() as u32).step_by(5) {
            for g in (1..net.node_count() as u32).step_by(7) {
                let got = shortest_travel_time_overlaid_in(
                    &net,
                    &overlay,
                    NodeId(s),
                    NodeId(g),
                    t,
                    None,
                    &mut space,
                );
                let expected = dijkstra::shortest_travel_time(&reference, NodeId(s), NodeId(g), t);
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
    fn bounded_search_is_exact_when_bound_is_valid() {
        let net = GridCityBuilder::new(6, 6).build();
        let overlay = overlay_on(&net, 3.0, 2);
        let t = TimePoint::from_hms(13, 0, 0);
        let mut space = SearchSpace::new();
        for s in (0..36u32).step_by(4) {
            for g in (2..36u32).step_by(6) {
                let d0 = dijkstra::shortest_travel_time(&net, NodeId(s), NodeId(g), t)
                    .expect("grid connected")
                    .as_secs_f64();
                let bounded = shortest_travel_time_overlaid_in(
                    &net,
                    &overlay,
                    NodeId(s),
                    NodeId(g),
                    t,
                    Some(overlay.search_bound(d0)),
                    &mut space,
                );
                let unbounded = shortest_travel_time_overlaid_in(
                    &net,
                    &overlay,
                    NodeId(s),
                    NodeId(g),
                    t,
                    None,
                    &mut space,
                );
                assert_eq!(bounded, unbounded, "{s}->{g}");
                // The perturbed distance sits inside the [d0, bound] bracket.
                let secs = bounded.unwrap().as_secs_f64();
                assert!(secs >= d0 - 1e-9 && secs <= overlay.search_bound(d0));
            }
        }
    }

    #[test]
    fn one_to_many_overlaid_matches_pointwise() {
        let net = GridCityBuilder::new(5, 4).build();
        let overlay = overlay_on(&net, 1.8, 4);
        let t = TimePoint::from_hms(9, 0, 0);
        let targets: Vec<NodeId> = net.node_ids().step_by(3).collect();
        let mut space = SearchSpace::new();
        let batch =
            one_to_many_overlaid_in(&net, &overlay, NodeId(1), &targets, t, None, &mut space);
        for (i, &target) in targets.iter().enumerate() {
            let single = shortest_travel_time_overlaid_in(
                &net,
                &overlay,
                NodeId(1),
                target,
                t,
                None,
                &mut space,
            );
            assert_eq!(batch[i], single, "target {target}");
        }
    }

    #[test]
    fn overlaid_path_reconstruction_is_consistent() {
        let net = GridCityBuilder::new(5, 5).build();
        let overlay = overlay_on(&net, 4.0, 2);
        let t = TimePoint::from_hms(12, 0, 0);
        let mut space = SearchSpace::new();
        let path = shortest_path_overlaid_in(&net, &overlay, NodeId(0), NodeId(24), t, &mut space)
            .unwrap();
        assert_eq!(path.nodes.first(), Some(&NodeId(0)));
        assert_eq!(path.nodes.last(), Some(&NodeId(24)));
        // Summing the overlaid edge weights along the path reproduces the
        // reported travel time.
        let mut total = 0.0;
        for pair in path.nodes.windows(2) {
            let (eid, _) = net
                .out_edges(pair[0])
                .find(|(_, e)| e.to == pair[1])
                .expect("consecutive path nodes are adjacent");
            total += overlay.edge_secs(&net, eid, t);
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
        assert_eq!(overlay.max_multiplier(), 2.0);
        assert_eq!(overlay.len(), 1);
        // Factor 1.0 is a no-op, not an entry.
        overlay.slow_edge(EdgeId(9), 1.0);
        assert_eq!(overlay.len(), 1);
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
        let mut space = SearchSpace::new();
        assert_eq!(
            shortest_travel_time_overlaid_in(
                &net,
                &overlay,
                a,
                d,
                TimePoint::MIDNIGHT,
                None,
                &mut space
            ),
            None
        );
    }
}
