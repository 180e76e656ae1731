//! A uniform grid over node positions: the one answer to "which node is
//! nearest" asked while a city is generated and while external positions
//! are snapped to it.
//!
//! Nodes are bucketed by latitude/longitude into cells sized from the node
//! count (about two nodes a cell), so a query reads the cells around its
//! point ring by ring instead of every node. A query is exact: it returns
//! what a scan over every node would, ordered by `(distance, node)` with
//! the caller's own distance expression, so ties go to the smaller index
//! and every bit of the distance is the caller's. The ring search stops
//! only once a lower bound on every unread cell's distance is strictly
//! above the `k`-th best distance found.

use crate::geo::{GeoPoint, EARTH_RADIUS_M};

/// Nodes per cell the grid is sized for.
const NODES_PER_CELL: usize = 2;

/// The smallest cell side, in degrees of latitude (≈ 0.1 m): keeps the
/// ring bounds far above the haversine's rounding when nodes crowd into a
/// tiny area.
const MIN_CELL_DEG: f64 = 1e-6;

/// Relative margin taken off every ring bound, so that rounding in the cell
/// assignment or the haversine cannot end a ring search early.
const BOUND_MARGIN: f64 = 1e-6;

/// Node indices bucketed by cell, rows south to north, columns west to east.
#[derive(Debug)]
pub(crate) struct NodeGrid {
    /// South-west corner of the nodes' bounding box, in degrees.
    lat0: f64,
    lon0: f64,
    /// Cell side in degrees of latitude and of longitude.
    cell_lat: f64,
    cell_lon: f64,
    rows: usize,
    cols: usize,
    /// The largest `|latitude|` of any node, in degrees.
    abs_lat_max: f64,
    /// The east edge of the bounding box, in degrees.
    lon_max: f64,
    /// Nodes of cell `c` are `nodes[starts[c]..starts[c + 1]]`, ascending.
    starts: Vec<u32>,
    nodes: Vec<u32>,
}

impl NodeGrid {
    /// Buckets `positions` (node `i` at `positions[i]`).
    ///
    /// # Panics
    /// Panics if `positions` is empty.
    pub(crate) fn new(positions: &[GeoPoint]) -> Self {
        assert!(!positions.is_empty(), "a grid needs at least one node");
        let fold = |pick: fn(&GeoPoint) -> f64, combine: fn(f64, f64) -> f64| {
            positions.iter().map(pick).reduce(combine).expect("at least one node")
        };
        let (lat0, lat_max) = (fold(|p| p.lat, f64::min), fold(|p| p.lat, f64::max));
        let (lon0, lon_max) = (fold(|p| p.lon, f64::min), fold(|p| p.lon, f64::max));

        // Square cells in metres: a degree of longitude is `cos φ` of one of
        // latitude at the box's middle latitude.
        let lon_scale = ((lat0 + lat_max) / 2.0).to_radians().cos().max(0.01);
        let (height, width) = (lat_max - lat0, (lon_max - lon0) * lon_scale);
        let cells = (positions.len() / NODES_PER_CELL).max(1) as f64;
        // The second term keeps a long, thin box to at most ≈ 3 × `cells`.
        let side = (height * width / cells).sqrt().max(height.max(width) / cells).max(MIN_CELL_DEG);
        let rows = (height / side) as usize + 1;
        let cols = (width / side) as usize + 1;

        let mut grid = NodeGrid {
            lat0,
            lon0,
            cell_lat: side,
            cell_lon: side / lon_scale,
            rows,
            cols,
            abs_lat_max: lat0.abs().max(lat_max.abs()),
            lon_max,
            starts: vec![0; rows * cols + 1],
            nodes: vec![0; positions.len()],
        };
        // Counting sort by cell; filling in index order keeps each cell
        // ascending.
        let cell_of: Vec<usize> = positions
            .iter()
            .map(|&p| {
                let (row, col) = grid.cell(p);
                row * cols + col
            })
            .collect();
        for &cell in &cell_of {
            grid.starts[cell + 1] += 1;
        }
        for cell in 0..rows * cols {
            grid.starts[cell + 1] += grid.starts[cell];
        }
        let mut cursor = grid.starts.clone();
        for (node, &cell) in cell_of.iter().enumerate() {
            grid.nodes[cursor[cell] as usize] = node as u32;
            cursor[cell] += 1;
        }
        grid
    }

    /// The cell holding `point`, clamped onto the grid for a point outside
    /// the bounding box.
    fn cell(&self, point: GeoPoint) -> (usize, usize) {
        let index = |offset: f64, side: f64, count: usize| {
            // `as` saturates: a NaN lands in cell 0, an overflow in the last.
            ((offset / side).floor().max(0.0) as usize).min(count - 1)
        };
        (
            index(point.lat - self.lat0, self.cell_lat, self.rows),
            index(point.lon - self.lon0, self.cell_lon, self.cols),
        )
    }

    /// A lower bound, in metres, on the distance from `point` to any node
    /// one more cell away than the ring just read, per ring read: a node
    /// `r + 1` rings out lies at least `r` cells away in latitude or in
    /// longitude. Latitude gives `R·|Δφ|`; longitude `(2/π)·R·cos φ_max·|Δλ|`,
    /// from `sin x ≥ 2x/π` on `[0, π/2]`. Zero where those do not hold
    /// (a latitude past the poles, a longitude span over 180°, NaN), which
    /// makes the search read every cell.
    fn ring_bound_m(&self, point: GeoPoint) -> f64 {
        let abs_lat_max = self.abs_lat_max.max(point.lat.abs());
        let lon_span = self.lon_max.max(point.lon) - self.lon0.min(point.lon);
        if !(abs_lat_max <= 90.0 && lon_span <= 180.0) {
            return 0.0;
        }
        let by_lat = EARTH_RADIUS_M * self.cell_lat.to_radians();
        let by_lon = std::f64::consts::FRAC_2_PI
            * EARTH_RADIUS_M
            * abs_lat_max.to_radians().cos()
            * self.cell_lon.to_radians();
        by_lat.min(by_lon).max(0.0) * (1.0 - BOUND_MARGIN)
    }

    /// Fills `best` with the `k` nodes nearest to `point`, ascending by
    /// `(distance(node), node)`: what sorting every node by that key and
    /// taking the first `k` gives, with fewer than `k` when fewer nodes are
    /// accepted. `distance` is the caller's distance from `point` to a
    /// node, or `None` to skip the node; it is called at most once a node.
    ///
    /// # Panics
    /// Panics if `distance` returns NaN.
    pub(crate) fn nearest(
        &self,
        point: GeoPoint,
        k: usize,
        mut distance: impl FnMut(usize) -> Option<f64>,
        best: &mut Vec<(f64, usize)>,
    ) {
        best.clear();
        if k == 0 {
            return;
        }
        let (row, col) = self.cell(point);
        let (row, col) = (row as isize, col as isize);
        let (rows, cols) = (self.rows as isize, self.cols as isize);
        let per_ring = self.ring_bound_m(point);
        let mut read_cell = |best: &mut Vec<(f64, usize)>, r: isize, c: isize| {
            if r < 0 || r >= rows || c < 0 || c >= cols {
                return;
            }
            let cell = r as usize * self.cols + c as usize;
            let members = &self.nodes[self.starts[cell] as usize..self.starts[cell + 1] as usize];
            for &node in members {
                let node = node as usize;
                let Some(d) = distance(node) else { continue };
                let before = |&(e, other): &(f64, usize)| {
                    e.partial_cmp(&d).expect("distances are not NaN").then(other.cmp(&node)).is_lt()
                };
                let at = best.partition_point(before);
                if at < k {
                    if best.len() == k {
                        best.pop();
                    }
                    best.insert(at, (d, node));
                }
            }
        };
        for ring in 0.. {
            if ring == 0 {
                read_cell(best, row, col);
            } else {
                for c in col - ring..=col + ring {
                    read_cell(best, row - ring, c);
                    read_cell(best, row + ring, c);
                }
                for r in row - ring + 1..row + ring {
                    read_cell(best, r, col - ring);
                    read_cell(best, r, col + ring);
                }
            }
            let covered = row - ring <= 0
                && col - ring <= 0
                && row + ring >= rows - 1
                && col + ring >= cols - 1;
            if covered || (best.len() == k && best[k - 1].0 < per_ring * ring as f64) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scan the grid replaces: every accepted node, sorted by
    /// `(distance, node)`, the first `k` kept.
    fn scan(
        positions: &[GeoPoint],
        point: GeoPoint,
        k: usize,
        skip: Option<usize>,
    ) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = (0..positions.len())
            .filter(|&j| Some(j) != skip)
            .map(|j| (positions[j].distance_m(point), j))
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("distances are not NaN"));
        all.truncate(k);
        all
    }

    fn grid_answer(
        grid: &NodeGrid,
        positions: &[GeoPoint],
        point: GeoPoint,
        k: usize,
        skip: Option<usize>,
    ) -> Vec<(f64, usize)> {
        let mut best = Vec::new();
        let distance = |j: usize| (Some(j) != skip).then(|| positions[j].distance_m(point));
        grid.nearest(point, k, distance, &mut best);
        best
    }

    fn bits(found: &[(f64, usize)]) -> Vec<(u64, usize)> {
        found.iter().map(|&(d, j)| (d.to_bits(), j)).collect()
    }

    fn assert_matches_scan(positions: &[GeoPoint], points: &[GeoPoint], ks: &[usize]) {
        let grid = NodeGrid::new(positions);
        for &point in points {
            for &k in ks {
                for skip in [None, Some(0), Some(positions.len() - 1)] {
                    assert_eq!(
                        bits(&grid_answer(&grid, positions, point, k, skip)),
                        bits(&scan(positions, point, k, skip)),
                        "point {point:?}, k {k}, skip {skip:?}, {} nodes",
                        positions.len()
                    );
                }
            }
        }
    }

    fn scatter(rng: &mut StdRng, n: usize, center: GeoPoint, spread_deg: f64) -> Vec<GeoPoint> {
        (0..n)
            .map(|_| {
                GeoPoint::new(
                    center.lat + rng.random_range(-spread_deg..spread_deg),
                    center.lon + rng.random_range(-spread_deg..spread_deg),
                )
            })
            .collect()
    }

    #[test]
    fn queries_inside_and_outside_the_box_match_the_scan() {
        let mut rng = StdRng::seed_from_u64(5);
        // Near the tropics, where the synthetic cities are, and far north,
        // where a degree of longitude is under half a degree of latitude.
        for center in [GeoPoint::new(12.97, 77.59), GeoPoint::new(69.65, 18.96)] {
            for (n, spread) in
                [(1, 0.01), (2, 0.01), (3, 0.05), (17, 0.002), (300, 0.06), (900, 0.3)]
            {
                let positions = scatter(&mut rng, n, center, spread);
                let mut points = scatter(&mut rng, 20, center, spread);
                // Far outside the box on every side, and near its corners.
                points.extend(scatter(&mut rng, 20, center, spread * 4.0));
                points.push(GeoPoint::new(center.lat + 2.0, center.lon - 3.0));
                points.push(GeoPoint::new(-40.0, 150.0));
                let ks = [1, 3, n.saturating_sub(1).max(1), n + 2];
                assert_matches_scan(&positions, &points, &ks);
            }
        }
    }

    #[test]
    fn coincident_nodes_go_to_the_smaller_index() {
        let mut rng = StdRng::seed_from_u64(8);
        let spot = GeoPoint::new(12.9, 77.6);
        // Every node at one spot: one cell, all distances tied.
        let same = vec![spot; 9];
        assert_matches_scan(&same, &[spot, GeoPoint::new(12.91, 77.6)], &[1, 3, 8, 9]);
        let grid = NodeGrid::new(&same);
        assert_eq!((grid.rows, grid.cols), (1, 1));
        assert_eq!(grid_answer(&grid, &same, spot, 2, Some(0)), vec![(0.0, 1), (0.0, 2)]);

        // Pairs and triples stacked on a few spots among scattered nodes.
        let mut positions = scatter(&mut rng, 200, spot, 0.02);
        for i in 0..40 {
            let copy = positions[i * 3];
            positions[i * 3 + 1] = copy;
            positions[199 - i] = copy;
        }
        let points: Vec<GeoPoint> = positions.iter().step_by(7).copied().collect();
        assert_matches_scan(&positions, &points, &[1, 2, 3, 5]);
    }

    #[test]
    fn a_box_crowded_into_one_cell_or_one_line_matches_the_scan() {
        let mut rng = StdRng::seed_from_u64(13);
        let spot = GeoPoint::new(-33.9, 18.4);
        // Within centimetres: the minimum cell side puts them in one cell.
        let tiny = scatter(&mut rng, 40, spot, 1e-8);
        let grid = NodeGrid::new(&tiny);
        assert_eq!((grid.rows, grid.cols), (1, 1));
        assert_matches_scan(&tiny, &scatter(&mut rng, 10, spot, 1e-3), &[1, 3, 39]);
        // All on one meridian, then on one parallel.
        let meridian: Vec<GeoPoint> = (0..120)
            .map(|_| GeoPoint::new(spot.lat + rng.random_range(0.0..0.1), spot.lon))
            .collect();
        let parallel: Vec<GeoPoint> = (0..120)
            .map(|_| GeoPoint::new(spot.lat, spot.lon + rng.random_range(0.0..0.1)))
            .collect();
        for line in [meridian, parallel] {
            let grid = NodeGrid::new(&line);
            assert!(grid.rows * grid.cols <= 3 * 60 + 1);
            assert_matches_scan(&line, &scatter(&mut rng, 15, spot, 0.1), &[1, 3]);
        }
    }
}
