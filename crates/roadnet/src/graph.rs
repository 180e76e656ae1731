//! The road network graph (Definition 1 of the paper).
//!
//! A [`RoadNetwork`] is a weighted directed graph whose nodes are road
//! intersections (with geographic coordinates) and whose edges are road
//! segments. The temporal weight `β(e, t)` of an edge is its free-flow
//! traversal time scaled by the [`CongestionProfile`] multiplier of its road
//! class at the hour slot containing `t`.
//!
//! The adjacency structure is CSR-like (a flat edge array plus per-node
//! offsets) so that neighbour iteration during Dijkstra touches contiguous
//! memory. Networks are immutable once built; construction goes through
//! [`RoadNetworkBuilder`]. The reverse table — each node's in-edges, and
//! each edge's ordinal among its head's (`InEdges`) — is what the
//! oracle's tree rows store a parent as; it is built on first use, not by
//! the builder.

use crate::congestion::{CongestionProfile, RoadClass};
use crate::geo::{GeoPoint, LatTrig};
use crate::ids::{EdgeId, NodeId};
use crate::timeofday::{Duration, TimePoint};
use std::sync::{Arc, OnceLock};

/// The most edges one node may be the head of ([`RoadNetworkBuilder::build`]
/// panics beyond it): a tree row stores a parent as its ordinal among the
/// node's in-edges in one byte, and keeps the three values above
/// `MAX_IN_DEGREE - 1` for its markers.
pub const MAX_IN_DEGREE: usize = 253;

/// Metadata stored for every node (road intersection).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeRecord {
    /// Geographic position of the intersection.
    pub position: GeoPoint,
}

/// Metadata stored for every directed edge (road segment).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeRecord {
    /// Tail of the edge (the segment is traversed `from → to`).
    pub from: NodeId,
    /// Head of the edge.
    pub to: NodeId,
    /// Length of the segment in meters.
    pub length_m: f64,
    /// Free-flow traversal time in seconds.
    pub free_flow_secs: f64,
    /// Functional class, controlling congestion sensitivity.
    pub class: RoadClass,
}

/// An immutable, time-dependent road network.
///
/// Cloning a `RoadNetwork` is cheap: the underlying storage is shared behind
/// an [`Arc`], which lets the dispatcher, simulator and multiple worker
/// threads reference the same network without copies.
#[derive(Clone, Debug)]
pub struct RoadNetwork {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<NodeRecord>,
    /// [`RoadNetwork::lat_trig`], one per node, computed at build.
    lat_trig: Vec<LatTrig>,
    edges: Vec<EdgeRecord>,
    /// CSR offsets: out-edges of node `u` are `edge_order[offsets[u]..offsets[u+1]]`.
    offsets: Vec<u32>,
    /// Edge ids sorted by tail node.
    edge_order: Vec<EdgeId>,
    congestion: CongestionProfile,
    /// [`RoadNetwork::max_travel_time`]: a constant of the (immutable)
    /// network, so the O(E) scan runs once, at build.
    max_travel_time: Duration,
    /// [`RoadNetwork::in_edges`], built by the first call: only the
    /// oracle's tree rows read it, so building a network does not pay for it.
    in_edges: OnceLock<InEdges>,
}

/// The reverse of the CSR layout: each node's in-edges in edge-id order, and
/// each edge's position among its head's — its *in-ordinal*, which fits in
/// a byte because no node has more than [`MAX_IN_DEGREE`] in-edges.
#[derive(Debug)]
pub(crate) struct InEdges {
    /// In-edges of node `v` are `order[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    order: Vec<InEdge>,
    /// Per edge, its index in its head's slice of `order`.
    ordinal: Vec<u8>,
}

/// One entry of [`InEdges`]: the edge and its tail, side by side, so that a
/// tree walk steps from a node to its parent with one load past the offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InEdge {
    pub(crate) edge: EdgeId,
    pub(crate) tail: NodeId,
}

impl InEdges {
    fn of(network: &Inner) -> Self {
        let node_count = network.nodes.len();
        let mut offsets = vec![0u32; node_count + 1];
        for edge in &network.edges {
            offsets[edge.to.index() + 1] += 1;
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![InEdge { edge: EdgeId(0), tail: NodeId(0) }; network.edges.len()];
        let mut ordinal = vec![0u8; network.edges.len()];
        for (idx, edge) in network.edges.iter().enumerate() {
            let head = edge.to.index();
            let slot = cursor[head] as usize;
            order[slot] = InEdge { edge: EdgeId::from_index(idx), tail: edge.from };
            ordinal[idx] = (slot - offsets[head] as usize) as u8;
            cursor[head] += 1;
        }
        InEdges { offsets, order, ordinal }
    }

    /// The in-edge of `node` at `ordinal` (what [`Self::in_ordinal`] gave).
    #[inline]
    pub(crate) fn in_edge(&self, node: NodeId, ordinal: u8) -> InEdge {
        self.order[self.offsets[node.index()] as usize + usize::from(ordinal)]
    }

    /// `edge`'s position among the in-edges of its head.
    #[inline]
    pub(crate) fn in_ordinal(&self, edge: EdgeId) -> u8 {
        self.ordinal[edge.index()]
    }
}

impl RoadNetwork {
    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Number of directed edges in the network.
    pub fn edge_count(&self) -> usize {
        self.inner.edges.len()
    }

    /// Iterates over all node ids in dense order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all edge ids in dense order.
    pub fn edge_ids(&self) -> impl DoubleEndedIterator<Item = EdgeId> + ExactSizeIterator + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Returns the record of `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range for this network.
    pub fn node(&self, node: NodeId) -> &NodeRecord {
        &self.inner.nodes[node.index()]
    }

    /// Returns the geographic position of `node`.
    pub fn position(&self, node: NodeId) -> GeoPoint {
        self.node(node).position
    }

    /// `cos φ` and `sin φ` of `node`'s latitude, bit for bit what
    /// [`LatTrig::of`] computes: kept per node (16 B each) because the
    /// angular potential of Eq. 8 needs them for every node an expansion
    /// reaches, in every expansion that reaches it.
    #[inline]
    pub fn lat_trig(&self, node: NodeId) -> LatTrig {
        self.inner.lat_trig[node.index()]
    }

    /// Returns the record of `edge`.
    ///
    /// # Panics
    /// Panics if `edge` is out of range for this network.
    pub fn edge(&self, edge: EdgeId) -> &EdgeRecord {
        &self.inner.edges[edge.index()]
    }

    /// The congestion profile used to evaluate `β(e, t)`.
    pub fn congestion(&self) -> &CongestionProfile {
        &self.inner.congestion
    }

    /// Out-edges of `node`, as `(EdgeId, &EdgeRecord)` pairs.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> + '_ {
        let lo = self.inner.offsets[node.index()] as usize;
        let hi = self.inner.offsets[node.index() + 1] as usize;
        self.inner.edge_order[lo..hi].iter().map(move |&eid| (eid, &self.inner.edges[eid.index()]))
    }

    /// Every node's in-edges and every edge's in-ordinal, built by the
    /// first call and shared by every clone of the network.
    pub(crate) fn in_edges(&self) -> &InEdges {
        self.inner.in_edges.get_or_init(|| InEdges::of(&self.inner))
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        let lo = self.inner.offsets[node.index()] as usize;
        let hi = self.inner.offsets[node.index() + 1] as usize;
        hi - lo
    }

    /// Temporal weight `β(e, t)`: the time needed to traverse `edge` when the
    /// traversal starts at time `t` (Definition 1).
    pub fn travel_time(&self, edge: EdgeId, t: TimePoint) -> Duration {
        let rec = &self.inner.edges[edge.index()];
        let mult = self.inner.congestion.multiplier(rec.class, t.hour_slot());
        Duration::from_secs_f64(rec.free_flow_secs * mult)
    }

    /// The largest possible `β(e, t)` over all edges and hours, used to
    /// normalise temporal distance in the vehicle-sensitive weight of Eq. 8.
    pub fn max_travel_time(&self) -> Duration {
        self.inner.max_travel_time
    }

    /// Straight-line (haversine) distance between two nodes, in meters.
    pub fn haversine_between(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_m(self.position(b))
    }

    /// Returns the node nearest to `point` by straight-line distance.
    ///
    /// This mirrors the paper's handling of vehicles that are not exactly on
    /// an intersection: "we approximate its location to the closest node in
    /// the road network". Linear scan — adequate for the network sizes used in
    /// the experiments, and only called when snapping external positions.
    ///
    /// # Panics
    /// Panics if the network has no nodes.
    pub fn nearest_node(&self, point: GeoPoint) -> NodeId {
        assert!(!self.inner.nodes.is_empty(), "nearest_node on empty network");
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for (idx, rec) in self.inner.nodes.iter().enumerate() {
            let d = rec.position.distance_m(point);
            if d < best_d {
                best_d = d;
                best = NodeId::from_index(idx);
            }
        }
        best
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// Nodes must be added before edges referencing them. The builder validates
/// endpoints and edge attributes eagerly so that a constructed network is
/// always internally consistent.
#[derive(Debug, Default)]
pub struct RoadNetworkBuilder {
    nodes: Vec<NodeRecord>,
    edges: Vec<EdgeRecord>,
    congestion: Option<CongestionProfile>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the congestion profile (defaults to
    /// [`CongestionProfile::metropolitan`] if never called).
    pub fn congestion(mut self, profile: CongestionProfile) -> Self {
        self.congestion = Some(profile);
        self
    }

    /// Adds a node at `position` and returns its id.
    pub fn add_node(&mut self, position: GeoPoint) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeRecord { position });
        id
    }

    /// Adds a directed edge with an explicit length and road class. The
    /// free-flow travel time is derived from the class's free-flow speed.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added, if the endpoints are
    /// equal, or if `length_m` is not a positive finite number.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        length_m: f64,
        class: RoadClass,
    ) -> EdgeId {
        assert!(from.index() < self.nodes.len(), "edge tail {from} not in builder");
        assert!(to.index() < self.nodes.len(), "edge head {to} not in builder");
        assert_ne!(from, to, "self-loop edges are not allowed");
        assert!(
            length_m.is_finite() && length_m > 0.0,
            "edge length must be positive, got {length_m}"
        );
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeRecord {
            from,
            to,
            length_m,
            free_flow_secs: length_m / class.free_flow_speed_mps(),
            class,
        });
        id
    }

    /// Adds a pair of directed edges `a → b` and `b → a` with the same length
    /// and class, returning both ids.
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_m: f64,
        class: RoadClass,
    ) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, length_m, class), self.add_edge(b, a, length_m, class))
    }

    /// Adds a directed edge whose length is the haversine distance between
    /// the endpoints' positions.
    pub fn add_edge_geodesic(&mut self, from: NodeId, to: NodeId, class: RoadClass) -> EdgeId {
        let length = self.nodes[from.index()].position.distance_m(self.nodes[to.index()].position);
        self.add_edge(from, to, length.max(1.0), class)
    }

    /// Current number of nodes added.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current number of edges added.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the builder into an immutable [`RoadNetwork`].
    ///
    /// # Panics
    /// Panics if no nodes were added, or if a node is the head of more than
    /// [`MAX_IN_DEGREE`] edges.
    pub fn build(self) -> RoadNetwork {
        assert!(!self.nodes.is_empty(), "a road network needs at least one node");
        let node_count = self.nodes.len();

        // Counting sort of edges by tail node into a CSR layout. The same
        // pass counts in-edges, saturating at a byte, for `MAX_IN_DEGREE`: a
        // counter per edge in `add_edge` cost the metro grid twice as much.
        let mut counts = vec![0u32; node_count + 1];
        let mut in_degrees = vec![0u8; node_count];
        for edge in &self.edges {
            counts[edge.from.index() + 1] += 1;
            let in_degree = &mut in_degrees[edge.to.index()];
            *in_degree = in_degree.saturating_add(1);
        }
        if let Some(node) = in_degrees.iter().position(|&d| usize::from(d) > MAX_IN_DEGREE) {
            let node = NodeId::from_index(node);
            panic!("node {node} is the head of more edges than a node may be, {MAX_IN_DEGREE}");
        }
        for i in 0..node_count {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut edge_order = vec![EdgeId(0); self.edges.len()];
        for (idx, edge) in self.edges.iter().enumerate() {
            let slot = cursor[edge.from.index()] as usize;
            edge_order[slot] = EdgeId::from_index(idx);
            cursor[edge.from.index()] += 1;
        }

        let congestion = self.congestion.unwrap_or_default();
        let max_free_secs = self.edges.iter().map(|e| e.free_flow_secs).fold(0.0_f64, f64::max);
        let max_travel_time = Duration::from_secs_f64(max_free_secs * congestion.max_multiplier());
        let lat_trig = self.nodes.iter().map(|node| LatTrig::of(node.position.lat)).collect();
        RoadNetwork {
            inner: Arc::new(Inner {
                nodes: self.nodes,
                lat_trig,
                edges: self.edges,
                offsets,
                edge_order,
                congestion,
                max_travel_time,
                in_edges: OnceLock::new(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeofday::TimePoint;

    fn tiny_network() -> RoadNetwork {
        // Three nodes in a line with a shortcut back.
        let mut b = RoadNetworkBuilder::new().congestion(CongestionProfile::free_flow());
        let n0 = b.add_node(GeoPoint::new(0.0, 0.0));
        let n1 = b.add_node(GeoPoint::new(0.0, 0.01));
        let n2 = b.add_node(GeoPoint::new(0.0, 0.02));
        b.add_edge(n0, n1, 1000.0, RoadClass::Arterial);
        b.add_edge(n1, n2, 1000.0, RoadClass::Local);
        b.add_edge(n2, n0, 2500.0, RoadClass::Collector);
        b.build()
    }

    #[test]
    fn builder_produces_expected_counts() {
        let net = tiny_network();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert_eq!(net.out_degree(NodeId(0)), 1);
        assert_eq!(net.out_degree(NodeId(1)), 1);
        assert_eq!(net.out_degree(NodeId(2)), 1);
    }

    #[test]
    fn out_edges_report_correct_heads() {
        let net = tiny_network();
        let heads: Vec<NodeId> = net.out_edges(NodeId(0)).map(|(_, e)| e.to).collect();
        assert_eq!(heads, vec![NodeId(1)]);
        let heads: Vec<NodeId> = net.out_edges(NodeId(2)).map(|(_, e)| e.to).collect();
        assert_eq!(heads, vec![NodeId(0)]);
    }

    #[test]
    fn travel_time_uses_free_flow_speed() {
        let net = tiny_network();
        let t = TimePoint::from_hms(4, 0, 0);
        // 1000 m arterial at ~13.9 m/s ≈ 72 s.
        let tt = net.travel_time(EdgeId(0), t).as_secs_f64();
        assert!((tt - 1000.0 / RoadClass::Arterial.free_flow_speed_mps()).abs() < 1e-9);
    }

    #[test]
    fn travel_time_reacts_to_congestion() {
        let mut b = RoadNetworkBuilder::new().congestion(CongestionProfile::metropolitan());
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.01));
        b.add_edge(a, c, 1000.0, RoadClass::Arterial);
        let net = b.build();
        let night = net.travel_time(EdgeId(0), TimePoint::from_hms(3, 0, 0));
        let dinner = net.travel_time(EdgeId(0), TimePoint::from_hms(19, 30, 0));
        assert!(dinner > night);
    }

    #[test]
    fn nearest_node_snaps_to_closest() {
        let net = tiny_network();
        let snapped = net.nearest_node(GeoPoint::new(0.0, 0.0119));
        assert_eq!(snapped, NodeId(1));
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.01));
        let (e1, e2) = b.add_bidirectional(a, c, 500.0, RoadClass::Local);
        let net = b.build();
        assert_eq!(net.edge(e1).from, a);
        assert_eq!(net.edge(e2).from, c);
        assert_eq!(net.edge(e1).to, c);
        assert_eq!(net.edge(e2).to, a);
    }

    #[test]
    fn geodesic_edge_length_matches_haversine() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(12.0, 77.0));
        let c = b.add_node(GeoPoint::new(12.0, 77.01));
        let e = b.add_edge_geodesic(a, c, RoadClass::Collector);
        let net = b.build();
        let expected = net.position(a).distance_m(net.position(c));
        assert!((net.edge(e).length_m - expected).abs() < 1e-6);
    }

    #[test]
    fn max_travel_time_bounds_every_edge() {
        let net = tiny_network();
        let cap = net.max_travel_time();
        for e in net.edge_ids() {
            for h in 0..24 {
                let t = TimePoint::from_hms(h, 0, 0);
                assert!(net.travel_time(e, t) <= cap);
            }
        }
        // The value stored at build is the scan it replaced, to the bit.
        for net in [net, crate::generators::GridCityBuilder::new(4, 5).build()] {
            let max_free =
                net.edge_ids().map(|e| net.edge(e).free_flow_secs).fold(0.0_f64, f64::max);
            let scanned = Duration::from_secs_f64(max_free * net.congestion().max_multiplier());
            assert_eq!(net.max_travel_time(), scanned);
            assert!(scanned > Duration::ZERO);
        }
    }

    #[test]
    fn lat_trig_is_what_the_bearing_computes() {
        let net = crate::generators::RandomCityBuilder::new(40).seed(3).build();
        for node in net.node_ids() {
            let lat = net.position(node).lat.to_radians();
            let trig = net.lat_trig(node);
            assert_eq!(trig.cos.to_bits(), lat.cos().to_bits(), "{node}");
            assert_eq!(trig.sin.to_bits(), lat.sin().to_bits(), "{node}");
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        b.add_edge(a, a, 10.0, RoadClass::Local);
    }

    #[test]
    #[should_panic(expected = "edge length must be positive")]
    fn non_positive_length_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.01));
        b.add_edge(a, c, 0.0, RoadClass::Local);
    }

    /// A network of `in_degree` edges into one node, each from a node of
    /// its own.
    fn fan_in(in_degree: usize) -> (RoadNetwork, NodeId) {
        let mut b = RoadNetworkBuilder::new();
        let hub = b.add_node(GeoPoint::new(0.0, 0.0));
        for i in 0..in_degree {
            let tail = b.add_node(GeoPoint::new(0.001 * (i + 1) as f64, 0.0));
            b.add_edge(tail, hub, 100.0, RoadClass::Local);
        }
        (b.build(), hub)
    }

    #[test]
    fn a_node_may_be_the_head_of_max_in_degree_edges() {
        let (net, hub) = fan_in(MAX_IN_DEGREE);
        let in_edges = net.in_edges();
        let last = u8::try_from(MAX_IN_DEGREE - 1).expect("an ordinal fits in a byte");
        let InEdge { edge, tail } = in_edges.in_edge(hub, last);
        assert_eq!((net.edge(edge).to, in_edges.in_ordinal(edge)), (hub, last));
        assert_eq!(tail, NodeId::from_index(MAX_IN_DEGREE));
    }

    #[test]
    #[should_panic(expected = "node n0 is the head of more edges than a node may be, 253")]
    fn a_node_with_one_in_edge_too_many_does_not_build() {
        fan_in(MAX_IN_DEGREE + 1);
    }

    /// Every edge is found again at its ordinal among its head's in-edges,
    /// on a City B-sized generated city (1 200 nodes, 7 km radius) and on a
    /// network with parallel edges.
    #[test]
    fn every_edge_is_the_in_edge_at_its_ordinal() {
        let city = crate::generators::RandomCityBuilder::new(1200).radius_m(7_000.0).seed(0xB);
        let mut parallel = RoadNetworkBuilder::new();
        let a = parallel.add_node(GeoPoint::new(0.0, 0.0));
        let c = parallel.add_node(GeoPoint::new(0.0, 0.01));
        parallel.add_edge(a, c, 900.0, RoadClass::Local);
        parallel.add_edge(a, c, 800.0, RoadClass::Arterial);
        parallel.add_edge(c, a, 700.0, RoadClass::Local);
        for net in [city.build(), parallel.build(), tiny_network()] {
            let in_edges = net.in_edges();
            let mut seen = vec![0usize; net.node_count()];
            for e in net.edge_ids() {
                let EdgeRecord { from, to: head, .. } = *net.edge(e);
                let found = in_edges.in_edge(head, in_edges.in_ordinal(e));
                assert_eq!(found, InEdge { edge: e, tail: from }, "{e}");
                seen[head.index()] += 1;
            }
            // Ordinals of one head are 0.. its in-degree, in edge-id order.
            for node in net.node_ids() {
                let ids: Vec<EdgeId> =
                    (0..seen[node.index()]).map(|o| in_edges.in_edge(node, o as u8).edge).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{node}");
            }
        }
    }

    #[test]
    fn clone_shares_storage() {
        let net = tiny_network();
        let clone = net.clone();
        assert!(Arc::ptr_eq(&net.inner, &clone.inner));
    }
}
