//! Synthetic city generators.
//!
//! The paper's road networks are OpenStreetMap extracts of three Indian
//! cities (39k–460k edges) that ship with the proprietary Swiggy dataset.
//! These generators produce networks with the structural properties the
//! algorithms care about — planar-ish connectivity, heterogeneous road
//! classes, realistic edge lengths, geographic coordinates — at a size that
//! can be simulated on one machine:
//!
//! * [`GridCityBuilder`] — a Manhattan-style grid; deterministic, handy for
//!   tests and worked examples.
//! * [`RandomCityBuilder`] — a random geometric graph: nodes scattered in a
//!   disc, each connected to its nearest neighbours, components stitched
//!   together so the network is strongly connected, arterial "ring + spoke"
//!   roads overlaid to create the fast/slow route structure that makes
//!   time-dependent routing interesting.

use crate::congestion::{CongestionProfile, RoadClass};
use crate::geo::GeoPoint;
use crate::graph::{RoadNetwork, RoadNetworkBuilder};
use crate::grid::NodeGrid;
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Degrees of latitude per meter (approximately, near the equator-to-mid
/// latitudes where our synthetic cities live).
const DEG_PER_METER_LAT: f64 = 1.0 / 111_195.0;

/// Builder for a rectangular grid city.
///
/// Nodes form an `rows × cols` lattice with a fixed spacing; all horizontal
/// and vertical neighbours are connected bidirectionally. Every `major_every`
/// row/column is an arterial, the rest are local streets.
#[derive(Clone, Debug)]
pub struct GridCityBuilder {
    rows: usize,
    cols: usize,
    spacing_m: f64,
    major_every: usize,
    origin: GeoPoint,
    congestion: CongestionProfile,
}

impl GridCityBuilder {
    /// Creates a grid with the given number of rows and columns and default
    /// spacing of 250 m.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        GridCityBuilder {
            rows,
            cols,
            spacing_m: 250.0,
            major_every: 4,
            origin: GeoPoint::new(12.90, 77.55),
            congestion: CongestionProfile::metropolitan(),
        }
    }

    /// Sets the spacing between adjacent intersections, in meters.
    pub fn spacing_m(mut self, spacing: f64) -> Self {
        assert!(spacing.is_finite() && spacing > 0.0, "spacing must be positive");
        self.spacing_m = spacing;
        self
    }

    /// Every `n`-th row/column becomes an arterial road (0 disables
    /// arterials).
    pub fn major_every(mut self, n: usize) -> Self {
        self.major_every = n;
        self
    }

    /// Sets the geographic origin (south-west corner) of the grid.
    pub fn origin(mut self, origin: GeoPoint) -> Self {
        self.origin = origin;
        self
    }

    /// Sets the congestion profile of the generated network.
    pub fn congestion(mut self, profile: CongestionProfile) -> Self {
        self.congestion = profile;
        self
    }

    /// Node id of the intersection at `(row, col)` in the generated network.
    pub fn node_at(&self, row: usize, col: usize) -> NodeId {
        assert!(row < self.rows && col < self.cols, "grid coordinates out of range");
        NodeId::from_index(row * self.cols + col)
    }

    /// Builds the road network.
    pub fn build(&self) -> RoadNetwork {
        let mut builder = RoadNetworkBuilder::new().congestion(self.congestion.clone());
        let deg_per_m_lon = DEG_PER_METER_LAT / self.origin.lat.to_radians().cos().max(0.2);

        for r in 0..self.rows {
            for c in 0..self.cols {
                let lat = self.origin.lat + r as f64 * self.spacing_m * DEG_PER_METER_LAT;
                let lon = self.origin.lon + c as f64 * self.spacing_m * deg_per_m_lon;
                builder.add_node(GeoPoint::new(lat, lon));
            }
        }

        let class_of = |line: usize| {
            if self.major_every > 0 && line % self.major_every == 0 {
                RoadClass::Arterial
            } else {
                RoadClass::Local
            }
        };
        let at = |r: usize, c: usize| NodeId::from_index(r * self.cols + c);
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c + 1 < self.cols {
                    builder.add_bidirectional(at(r, c), at(r, c + 1), self.spacing_m, class_of(r));
                }
                if r + 1 < self.rows {
                    builder.add_bidirectional(at(r, c), at(r + 1, c), self.spacing_m, class_of(c));
                }
            }
        }
        builder.build()
    }
}

/// Builder for a random-geometric city.
///
/// Nodes are scattered uniformly in a disc of radius `radius_m` around the
/// city centre. Each node connects to its `neighbours` nearest nodes with
/// collector/local streets; a ring of arterials plus radial spokes is
/// overlaid; finally, any remaining weakly connected components are stitched
/// together so every node can reach every other.
#[derive(Clone, Debug)]
pub struct RandomCityBuilder {
    nodes: usize,
    radius_m: f64,
    neighbours: usize,
    seed: u64,
    center: GeoPoint,
    congestion: CongestionProfile,
    arterial_spokes: usize,
}

impl RandomCityBuilder {
    /// Creates a builder for a city with `nodes` intersections and defaults
    /// sized like a mid-town delivery zone (radius 6 km, 3 nearest
    /// neighbours, 6 arterial spokes).
    ///
    /// # Panics
    /// Panics if `nodes < 2`.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 2, "a city needs at least two intersections");
        RandomCityBuilder {
            nodes,
            radius_m: 6_000.0,
            neighbours: 3,
            seed: 42,
            center: GeoPoint::new(12.9716, 77.5946),
            congestion: CongestionProfile::metropolitan(),
            arterial_spokes: 6,
        }
    }

    /// Sets the RNG seed, making the generated city reproducible.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the city radius in meters.
    pub fn radius_m(mut self, radius: f64) -> Self {
        assert!(radius.is_finite() && radius > 100.0, "radius must exceed 100 m");
        self.radius_m = radius;
        self
    }

    /// Sets how many nearest neighbours each node connects to.
    pub fn neighbours(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one neighbour per node");
        self.neighbours = k;
        self
    }

    /// Sets the number of arterial spokes radiating from the centre.
    pub fn arterial_spokes(mut self, spokes: usize) -> Self {
        self.arterial_spokes = spokes;
        self
    }

    /// Sets the geographic centre of the city.
    pub fn center(mut self, center: GeoPoint) -> Self {
        self.center = center;
        self
    }

    /// Sets the congestion profile of the generated network.
    pub fn congestion(mut self, profile: CongestionProfile) -> Self {
        self.congestion = profile;
        self
    }

    /// Builds the road network.
    ///
    /// Every nearest-node question — each node's `neighbours` streets, each
    /// spoke's next node, each stitch between components — is asked of a
    /// grid over the node positions, which reads only the cells around each
    /// question, so a city builds in near-linear time rather than the
    /// `O(n²)` of comparing every pair (60 000 nodes in well under a second
    /// in release). The grid answers exactly what scanning every node
    /// answers: the same streets in the same order, with the same lengths
    /// to the bit and the same RNG draws, so a seed gives the same network
    /// either way.
    pub fn build(&self) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut builder = RoadNetworkBuilder::new().congestion(self.congestion.clone());
        let deg_per_m_lon = DEG_PER_METER_LAT / self.center.lat.to_radians().cos().max(0.2);

        // Scatter nodes uniformly in a disc (rejection-free via sqrt radius).
        let mut positions = Vec::with_capacity(self.nodes);
        for _ in 0..self.nodes {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            let r = self.radius_m * rng.random_range(0.0_f64..1.0).sqrt();
            let lat = self.center.lat + r * angle.sin() * DEG_PER_METER_LAT;
            let lon = self.center.lon + r * angle.cos() * deg_per_m_lon;
            let p = GeoPoint::new(lat, lon);
            positions.push(p);
            builder.add_node(p);
        }
        let grid = NodeGrid::new(&positions);
        let mut found = Vec::new();

        let mut dsu = DisjointSet::new(self.nodes);
        let mut edge_exists = std::collections::HashSet::new();
        let add_street = |builder: &mut RoadNetworkBuilder,
                          dsu: &mut DisjointSet,
                          edge_exists: &mut std::collections::HashSet<(usize, usize)>,
                          a: usize,
                          b: usize,
                          class: RoadClass| {
            if a == b {
                return;
            }
            let key = (a.min(b), a.max(b));
            if !edge_exists.insert(key) {
                return;
            }
            let length = positions[a].distance_m(positions[b]).max(20.0) * 1.2;
            builder.add_bidirectional(NodeId::from_index(a), NodeId::from_index(b), length, class);
            dsu.union(a, b);
        };

        // k-nearest-neighbour streets, nearest first, ties to the smaller index.
        for i in 0..self.nodes {
            let distance = |j: usize| (j != i).then(|| positions[i].distance_m(positions[j]));
            grid.nearest(positions[i], self.neighbours, distance, &mut found);
            for &(_, j) in &found {
                let class = if rng.random_range(0.0..1.0) < 0.25 {
                    RoadClass::Collector
                } else {
                    RoadClass::Local
                };
                add_street(&mut builder, &mut dsu, &mut edge_exists, i, j, class);
            }
        }

        // Arterial spokes: connect the centre-most node outwards along
        // `arterial_spokes` headings by chaining the nearest node in an
        // angular sector at increasing radii.
        if self.arterial_spokes > 0 && self.nodes > self.arterial_spokes * 2 {
            let mut nearest_to = |target: GeoPoint, skip: Option<usize>| {
                let distance =
                    |i: usize| (Some(i) != skip).then(|| positions[i].distance_m(target));
                grid.nearest(target, 1, distance, &mut found);
                found[0].1
            };
            let center_node = nearest_to(self.center, None);
            for spoke in 0..self.arterial_spokes {
                let heading = spoke as f64 / self.arterial_spokes as f64 * std::f64::consts::TAU;
                let mut previous = center_node;
                let steps = 6usize;
                for step in 1..=steps {
                    let target_r = self.radius_m * step as f64 / steps as f64;
                    let target = GeoPoint::new(
                        self.center.lat + target_r * heading.sin() * DEG_PER_METER_LAT,
                        self.center.lon + target_r * heading.cos() * deg_per_m_lon,
                    );
                    let nearest = nearest_to(target, Some(previous));
                    add_street(
                        &mut builder,
                        &mut dsu,
                        &mut edge_exists,
                        previous,
                        nearest,
                        RoadClass::Arterial,
                    );
                    previous = nearest;
                }
            }
        }

        // Stitch remaining components together so the network is connected
        // (bidirectional edges ⇒ strongly connected): each round joins node
        // 0's component to the component of the closest pair `(i, j)`, `i`
        // inside it and `j` outside, ties to the smaller `i`, then `j`. Only
        // node 0's component grows, so the others keep their members. Each
        // outside node keeps its closest inside node by `(distance, i)`, and
        // only the nodes that have just come inside can improve on it: they
        // are compared node by node, or, when there are more of them than
        // `STITCH_SCAN_LIMIT`, the grid is asked again.
        let component: Vec<usize> = (0..self.nodes).map(|i| dsu.find(i)).collect();
        let mut in_main: Vec<bool> = component.iter().map(|&c| c == component[0]).collect();
        let (mut joined, outside): (Vec<usize>, Vec<usize>) =
            (0..self.nodes).partition(|&i| in_main[i]);
        let mut outside: Vec<(usize, (f64, usize))> =
            outside.into_iter().map(|j| (j, (f64::INFINITY, usize::MAX))).collect();
        loop {
            for (j, best) in &mut outside {
                if joined.len() > STITCH_SCAN_LIMIT {
                    let distance =
                        |i: usize| in_main[i].then(|| positions[i].distance_m(positions[*j]));
                    grid.nearest(positions[*j], 1, distance, &mut found);
                    *best = found[0];
                    continue;
                }
                for &i in &joined {
                    let d = positions[i].distance_m(positions[*j]);
                    let order = d.partial_cmp(&best.0).expect("distances are not NaN");
                    if order.then(i.cmp(&best.1)).is_lt() {
                        *best = (d, i);
                    }
                }
            }
            let Some(&(j, (_, i))) = outside.iter().min_by(|(j, (d, i)), (k, (e, h))| {
                d.partial_cmp(e).expect("distances are not NaN").then((i, j).cmp(&(h, k)))
            }) else {
                break;
            };
            add_street(&mut builder, &mut dsu, &mut edge_exists, i, j, RoadClass::Collector);
            joined.clear();
            outside.retain(|&(v, _)| {
                let stays = component[v] != component[j];
                if !stays {
                    in_main[v] = true;
                    joined.push(v);
                }
                stays
            });
        }

        builder.build()
    }
}

/// The most nodes a stitching round compares every outside node with, node
/// by node; past it, each outside node asks the grid, which reads the cells
/// around it.
const STITCH_SCAN_LIMIT: usize = 32;

/// Minimal union-find used to keep the random city connected.
struct DisjointSet {
    parent: Vec<usize>,
}

impl DisjointSet {
    fn new(n: usize) -> Self {
        DisjointSet { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::timeofday::TimePoint;

    #[test]
    fn grid_has_expected_size() {
        let net = GridCityBuilder::new(4, 5).build();
        assert_eq!(net.node_count(), 20);
        // Each interior adjacency contributes two directed edges.
        let undirected = 4 * 4 + 3 * 5; // horizontal + vertical adjacencies
        assert_eq!(net.edge_count(), undirected * 2);
    }

    #[test]
    fn grid_node_at_maps_to_lattice() {
        let b = GridCityBuilder::new(3, 4);
        let net = b.build();
        let n = b.node_at(2, 3);
        assert_eq!(n, NodeId(11));
        assert!(net.position(n).lat > net.position(b.node_at(0, 3)).lat);
    }

    #[test]
    fn grid_is_strongly_connected() {
        let net = GridCityBuilder::new(5, 5).build();
        let all: Vec<NodeId> = net.node_ids().collect();
        let d = dijkstra::one_to_many(&net, NodeId(0), &all, TimePoint::MIDNIGHT, None);
        assert!(d.iter().all(Option::is_some));
        let back = dijkstra::one_to_many(&net, NodeId(24), &all, TimePoint::MIDNIGHT, None);
        assert!(back.iter().all(Option::is_some));
    }

    #[test]
    fn random_city_is_connected_and_reproducible() {
        let a = RandomCityBuilder::new(120).seed(9).build();
        let b = RandomCityBuilder::new(120).seed(9).build();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let all: Vec<NodeId> = a.node_ids().collect();
        let d = dijkstra::one_to_many(&a, NodeId(0), &all, TimePoint::from_hms(12, 0, 0), None);
        assert!(d.iter().all(Option::is_some), "random city must be connected");
    }

    #[test]
    fn random_city_seeds_differ() {
        let a = RandomCityBuilder::new(80).seed(1).build();
        let b = RandomCityBuilder::new(80).seed(2).build();
        let pos_a: Vec<_> = a.node_ids().map(|n| a.position(n)).collect();
        let pos_b: Vec<_> = b.node_ids().map(|n| b.position(n)).collect();
        assert_ne!(pos_a, pos_b);
    }

    #[test]
    fn random_city_contains_arterials() {
        let net = RandomCityBuilder::new(150).seed(3).build();
        let arterials =
            net.edge_ids().filter(|&e| net.edge(e).class == RoadClass::Arterial).count();
        assert!(arterials > 0, "expected arterial spokes");
    }

    #[test]
    fn node_positions_stay_within_radius() {
        let builder = RandomCityBuilder::new(100).seed(5).radius_m(3_000.0);
        let net = builder.build();
        for n in net.node_ids() {
            let d = net.position(n).distance_m(builder.center);
            assert!(d <= 3_100.0, "node {n} at distance {d}");
        }
    }

    /// `RandomCityBuilder::build` as it was before the grid, every nearest
    /// node found by scanning every node (or every pair): the reference the
    /// grid is pinned to, kept verbatim.
    fn build_by_scans(this: &RandomCityBuilder) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(this.seed);
        let mut builder = RoadNetworkBuilder::new().congestion(this.congestion.clone());
        let deg_per_m_lon = DEG_PER_METER_LAT / this.center.lat.to_radians().cos().max(0.2);

        // Scatter nodes uniformly in a disc (rejection-free via sqrt radius).
        let mut positions = Vec::with_capacity(this.nodes);
        for _ in 0..this.nodes {
            let angle = rng.random_range(0.0..std::f64::consts::TAU);
            let r = this.radius_m * rng.random_range(0.0_f64..1.0).sqrt();
            let lat = this.center.lat + r * angle.sin() * DEG_PER_METER_LAT;
            let lon = this.center.lon + r * angle.cos() * deg_per_m_lon;
            let p = GeoPoint::new(lat, lon);
            positions.push(p);
            builder.add_node(p);
        }

        let mut dsu = DisjointSet::new(this.nodes);
        let mut edge_exists = std::collections::HashSet::new();
        let add_street = |builder: &mut RoadNetworkBuilder,
                          dsu: &mut DisjointSet,
                          edge_exists: &mut std::collections::HashSet<(usize, usize)>,
                          a: usize,
                          b: usize,
                          class: RoadClass| {
            if a == b {
                return;
            }
            let key = (a.min(b), a.max(b));
            if !edge_exists.insert(key) {
                return;
            }
            let length = positions[a].distance_m(positions[b]).max(20.0) * 1.2;
            builder.add_bidirectional(NodeId::from_index(a), NodeId::from_index(b), length, class);
            dsu.union(a, b);
        };

        // k-nearest-neighbour streets.
        for i in 0..this.nodes {
            let mut by_distance: Vec<(f64, usize)> = (0..this.nodes)
                .filter(|&j| j != i)
                .map(|j| (positions[i].distance_m(positions[j]), j))
                .collect();
            by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are not NaN"));
            for &(_, j) in by_distance.iter().take(this.neighbours) {
                let class = if rng.random_range(0.0..1.0) < 0.25 {
                    RoadClass::Collector
                } else {
                    RoadClass::Local
                };
                add_street(&mut builder, &mut dsu, &mut edge_exists, i, j, class);
            }
        }

        // Arterial spokes: connect the centre-most node outwards along
        // `arterial_spokes` headings by chaining the nearest node in an
        // angular sector at increasing radii.
        if this.arterial_spokes > 0 && this.nodes > this.arterial_spokes * 2 {
            let center_node = positions
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.distance_m(this.center)
                        .partial_cmp(&b.1.distance_m(this.center))
                        .expect("distances are not NaN")
                })
                .map(|(i, _)| i)
                .expect("at least one node");
            for spoke in 0..this.arterial_spokes {
                let heading = spoke as f64 / this.arterial_spokes as f64 * std::f64::consts::TAU;
                let mut previous = center_node;
                let steps = 6usize;
                for step in 1..=steps {
                    let target_r = this.radius_m * step as f64 / steps as f64;
                    let target = GeoPoint::new(
                        this.center.lat + target_r * heading.sin() * DEG_PER_METER_LAT,
                        this.center.lon + target_r * heading.cos() * deg_per_m_lon,
                    );
                    let nearest = positions
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != previous)
                        .min_by(|a, b| {
                            a.1.distance_m(target)
                                .partial_cmp(&b.1.distance_m(target))
                                .expect("distances are not NaN")
                        })
                        .map(|(i, _)| i)
                        .expect("at least two nodes");
                    add_street(
                        &mut builder,
                        &mut dsu,
                        &mut edge_exists,
                        previous,
                        nearest,
                        RoadClass::Arterial,
                    );
                    previous = nearest;
                }
            }
        }

        // Stitch remaining components together through their closest pairs so
        // the network is connected (bidirectional edges ⇒ strongly connected).
        loop {
            let roots: Vec<usize> = (0..this.nodes).filter(|&i| dsu.find(i) == i).collect();
            if roots.len() <= 1 {
                break;
            }
            let main_root = dsu.find(0);
            let mut best: Option<(f64, usize, usize)> = None;
            for i in 0..this.nodes {
                if dsu.find(i) != main_root {
                    continue;
                }
                for j in 0..this.nodes {
                    if dsu.find(j) == main_root {
                        continue;
                    }
                    let d = positions[i].distance_m(positions[j]);
                    if best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, i, j));
                    }
                }
            }
            let (_, i, j) = best.expect("disconnected component has a closest pair");
            add_street(&mut builder, &mut dsu, &mut edge_exists, i, j, RoadClass::Collector);
        }

        builder.build()
    }

    /// Everything a generated network is: node positions, and every edge in
    /// order with its length and free-flow time to the bit and its class.
    type Fingerprint = (Vec<(u64, u64)>, Vec<(NodeId, NodeId, u64, u64, RoadClass)>);

    fn fingerprint(net: &RoadNetwork) -> Fingerprint {
        let nodes = net
            .node_ids()
            .map(|n| (net.position(n).lat.to_bits(), net.position(n).lon.to_bits()))
            .collect();
        let edges = net
            .edge_ids()
            .map(|e| {
                let r = net.edge(e);
                (r.from, r.to, r.length_m.to_bits(), r.free_flow_secs.to_bits(), r.class)
            })
            .collect();
        (nodes, edges)
    }

    #[test]
    fn the_grid_builds_the_networks_the_scans_build_bit_for_bit() {
        let sweep =
            [(2, 12), (3, 12), (5, 8), (10, 8), (40, 6), (80, 4), (120, 3), (200, 2), (550, 1)];
        for (nodes, seeds) in sweep {
            for seed in 0..seeds {
                for radius in [150.0, 1_500.0, 6_000.0] {
                    let builder = RandomCityBuilder::new(nodes).seed(seed).radius_m(radius);
                    assert!(
                        fingerprint(&builder.build()) == fingerprint(&build_by_scans(&builder)),
                        "{nodes} nodes, seed {seed}, radius {radius} m"
                    );
                }
            }
        }
        // City B's preset, and the edge cases: more neighbours than other
        // nodes, one neighbour, no spokes, and a city off the centre it
        // aims its spokes at.
        let city_b = RandomCityBuilder::new(1_200).radius_m(7_000.0).seed(0xB);
        let variants = [
            city_b.clone(),
            RandomCityBuilder::new(6).neighbours(5).seed(1),
            RandomCityBuilder::new(9).neighbours(20).seed(2),
            RandomCityBuilder::new(300).neighbours(1).seed(3),
            RandomCityBuilder::new(300).arterial_spokes(0).seed(4),
            RandomCityBuilder::new(40).arterial_spokes(19).seed(5),
            RandomCityBuilder::new(200).center(GeoPoint::new(-33.9, 18.4)).seed(6),
        ];
        for builder in variants {
            assert!(
                fingerprint(&builder.build()) == fingerprint(&build_by_scans(&builder)),
                "{builder:?}"
            );
        }
    }

    #[test]
    fn a_city_of_twelve_thousand_nodes_builds_connected() {
        // City B's shape at ten times its node count (the ×1/10 rung): the
        // scans took minutes here in a debug build.
        let net = RandomCityBuilder::new(12_000).radius_m(7_000.0 * 10f64.sqrt()).seed(0xB).build();
        assert_eq!(net.node_count(), 12_000);
        assert!(net.node_ids().all(|n| net.out_edges(n).next().is_some()), "a node with no street");
        let mut seen = vec![false; net.node_count()];
        let mut queue = std::collections::VecDeque::from([NodeId(0)]);
        seen[0] = true;
        while let Some(node) = queue.pop_front() {
            for (_, edge) in net.out_edges(node) {
                if !std::mem::replace(&mut seen[edge.to.index()], true) {
                    queue.push_back(edge.to);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every node reachable from node 0");
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn zero_grid_rejected() {
        let _ = GridCityBuilder::new(0, 3);
    }
}
