//! Geodesic helpers: haversine distance, bearing (Definition 10 in the paper)
//! and the angular distance used to anticipate vehicle movement (§IV-D1).
//!
//! The paper's angular distance of a vehicle `v` (currently at `source`,
//! heading to `dest`) with respect to a candidate node `u` is
//!
//! ```text
//! adist(v, u, t) = (1 - cos(Θ(source, dest) - Θ(source, u))) / 2
//! ```
//!
//! where `Θ` is the initial great-circle bearing between two points. The value
//! lies in `[0, 1]`: 0 when `u` lies exactly in the direction of travel, 1
//! when it lies in the diametrically opposite direction.

/// Mean Earth radius in meters (IUGG value), used by the haversine formula.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A geographic point in degrees of latitude and longitude.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude in degrees.
    pub fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in meters.
    pub fn distance_m(self, other: GeoPoint) -> f64 {
        haversine_meters(self, other)
    }
}

/// Haversine (great-circle) distance between two points, in meters.
///
/// This is the distance function used by the Reyes et al. baseline, which the
/// paper criticises for ignoring the road network; we keep it around both for
/// that baseline and for generating realistic edge lengths in synthetic
/// cities.
pub fn haversine_meters(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();

    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// Initial great-circle bearing from `s` towards `t` (Definition 10),
/// rendered in radians in the range `[0, 2π)`.
///
/// Follows the paper's formulation: `Θ(s, t) = atan2(X, Y)` with
/// `X = cos(φ_t)·sin(λ_t − λ_s)` and
/// `Y = cos(φ_s)·sin(φ_t) − sin(φ_s)·cos(φ_t)·cos(λ_t − λ_s)`.
pub fn bearing(s: GeoPoint, t: GeoPoint) -> f64 {
    let phi_s = s.lat.to_radians();
    let phi_t = t.lat.to_radians();
    let dlon = (t.lon - s.lon).to_radians();

    let x = phi_t.cos() * dlon.sin();
    let y = phi_s.cos() * phi_t.sin() - phi_s.sin() * phi_t.cos() * dlon.cos();
    let theta = x.atan2(y);
    theta.rem_euclid(std::f64::consts::TAU)
}

/// Angular distance between the direction of travel (`source → dest`) and the
/// direction towards a candidate node (`source → candidate`), in `[0, 1]`.
///
/// Returns 0 when the two points are in the same direction, 1 when they are
/// diametrically opposite. When `source` coincides with either endpoint the
/// bearing is undefined; we return 0.5 — a neutral value that neither favours
/// nor penalises the candidate, matching the intent of Eq. 8.
pub fn angular_distance(source: GeoPoint, dest: GeoPoint, candidate: GeoPoint) -> f64 {
    AngularFrame::new(source, dest).distance_to(candidate, LatTrig::of(candidate.lat))
}

/// Closer than this (meters) two points count as one: no bearing between them.
const COINCIDENT_M: f64 = 0.5;

/// The cosine and sine of a latitude — the two terms of a bearing that
/// depend on one endpoint alone. A [`RoadNetwork`](crate::RoadNetwork)
/// keeps them for every node (`lat_trig`), so Eq. 8's per-node potential does
/// not recompute them in every expansion that reaches the node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatTrig {
    /// `cos φ`.
    pub cos: f64,
    /// `sin φ`.
    pub sin: f64,
}

impl LatTrig {
    /// The terms of latitude `lat` (degrees), as [`bearing`] computes them.
    pub fn of(lat: f64) -> Self {
        let lat = lat.to_radians();
        LatTrig { cos: lat.cos(), sin: lat.sin() }
    }
}

/// A vehicle's half of [`angular_distance`]: the terms that depend only on
/// where it stands and where it is heading, evaluated once so that Alg. 2's
/// expansion pays per candidate node only for that node's own terms.
/// [`AngularFrame::distance_to`] is the same floating-point expression as the
/// three-point form, operation for operation, and so equals it bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct AngularFrame {
    source: GeoPoint,
    trig: LatTrig,
    /// `Θ(source, heading)`; `None` when the two coincide and every
    /// distance is the neutral 0.5.
    heading_bearing: Option<f64>,
}

impl AngularFrame {
    /// The frame of a vehicle at `source` travelling towards `heading`.
    pub fn new(source: GeoPoint, heading: GeoPoint) -> Self {
        AngularFrame {
            source,
            trig: LatTrig::of(source.lat),
            heading_bearing: if haversine_meters(source, heading) < COINCIDENT_M {
                None
            } else {
                Some(bearing(source, heading))
            },
        }
    }

    /// `adist` of `candidate`, whose latitude terms are `trig`, in this
    /// frame, in `[0, 1]`.
    ///
    /// The coincidence haversine (three libm calls) runs only for a
    /// candidate that `surely_apart` cannot place a metre away, which
    /// in a city is the handful of nodes next to the vehicle; the answer is
    /// the three-point form's either way.
    pub fn distance_to(&self, candidate: GeoPoint, trig: LatTrig) -> f64 {
        let Some(theta_heading) = self.heading_bearing else { return 0.5 };
        let dlat = (candidate.lat - self.source.lat).to_radians();
        let dlon = (candidate.lon - self.source.lon).to_radians();

        // `haversine_meters(source, candidate)`…
        if !self.surely_apart(dlat, dlon, trig.cos) {
            let h =
                (dlat / 2.0).sin().powi(2) + self.trig.cos * trig.cos * (dlon / 2.0).sin().powi(2);
            if 2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin() < COINCIDENT_M {
                return 0.5;
            }
        }
        // …and `bearing(source, candidate)`, sharing the candidate's terms.
        let x = trig.cos * dlon.sin();
        let y = self.trig.cos * trig.sin - self.trig.sin * trig.cos * dlon.cos();
        let theta_candidate = x.atan2(y).rem_euclid(std::f64::consts::TAU);
        (1.0 - (theta_heading - theta_candidate).cos()) / 2.0
    }

    /// True when the haversine of `(dlat, dlon)` from the source is at least
    /// twice [`COINCIDENT_M`], by two bounds that need no libm call: the
    /// great-circle distance is at least `R·|Δφ|`, and for `|Δλ| ≤ π` its
    /// `h` is at least `cos φ₁ · cos φ₂ · (Δλ / π)²` (`sin x ≥ 2x / π` on
    /// `[0, π/2]`, `asin x ≥ x`). The factor of two leaves rounding — a few
    /// ulps of `h` — no say; `|Δλ| > π` (across the antimeridian) always
    /// falls through to the haversine.
    #[inline]
    fn surely_apart(&self, dlat: f64, dlon: f64, cos_lat: f64) -> bool {
        use std::f64::consts::PI;
        const APART: f64 = 2.0 * COINCIDENT_M / EARTH_RADIUS_M;
        dlat.abs() >= APART
            || (dlon.abs() <= PI
                && self.trig.cos * cos_lat * (dlon / PI).powi(2) >= APART * APART / 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-6;

    #[test]
    fn haversine_zero_for_identical_points() {
        let p = GeoPoint::new(12.97, 77.59);
        assert!(haversine_meters(p, p) < TOL);
    }

    #[test]
    fn haversine_known_distance() {
        // One degree of latitude is roughly 111.2 km.
        let a = GeoPoint::new(12.0, 77.0);
        let b = GeoPoint::new(13.0, 77.0);
        let d = haversine_meters(a, b);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
    }

    #[test]
    fn haversine_is_symmetric() {
        let a = GeoPoint::new(12.9, 77.6);
        let b = GeoPoint::new(13.1, 77.7);
        assert!((haversine_meters(a, b) - haversine_meters(b, a)).abs() < TOL);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = GeoPoint::new(0.0, 0.0);
        let north = GeoPoint::new(1.0, 0.0);
        let east = GeoPoint::new(0.0, 1.0);
        let south = GeoPoint::new(-1.0, 0.0);
        let west = GeoPoint::new(0.0, -1.0);
        assert!(bearing(origin, north).abs() < 1e-3);
        assert!((bearing(origin, east) - std::f64::consts::FRAC_PI_2).abs() < 1e-3);
        assert!((bearing(origin, south) - std::f64::consts::PI).abs() < 1e-3);
        assert!((bearing(origin, west) - 3.0 * std::f64::consts::FRAC_PI_2).abs() < 1e-3);
    }

    #[test]
    fn bearing_is_in_range() {
        let a = GeoPoint::new(12.9, 77.6);
        for (lat, lon) in [(13.0, 77.0), (12.0, 78.0), (12.9, 77.6001), (12.8, 77.5)] {
            let b = bearing(a, GeoPoint::new(lat, lon));
            assert!((0.0..std::f64::consts::TAU).contains(&b), "bearing {b} out of range");
        }
    }

    #[test]
    fn angular_distance_same_direction_is_zero() {
        let source = GeoPoint::new(0.0, 0.0);
        let dest = GeoPoint::new(0.0, 1.0);
        let candidate = GeoPoint::new(0.0, 0.5);
        assert!(angular_distance(source, dest, candidate) < 1e-9);
    }

    #[test]
    fn angular_distance_opposite_direction_is_one() {
        let source = GeoPoint::new(0.0, 0.0);
        let dest = GeoPoint::new(0.0, 1.0);
        let candidate = GeoPoint::new(0.0, -1.0);
        assert!((angular_distance(source, dest, candidate) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn angular_distance_perpendicular_is_half() {
        let source = GeoPoint::new(0.0, 0.0);
        let dest = GeoPoint::new(0.0, 1.0);
        let candidate = GeoPoint::new(1.0, 0.0);
        let d = angular_distance(source, dest, candidate);
        assert!((d - 0.5).abs() < 1e-3, "got {d}");
    }

    #[test]
    fn angular_distance_degenerate_is_neutral() {
        let p = GeoPoint::new(10.0, 10.0);
        let q = GeoPoint::new(10.1, 10.1);
        assert_eq!(angular_distance(p, p, q), 0.5);
        assert_eq!(angular_distance(p, q, p), 0.5);
    }

    /// `angular_distance` as it was before [`AngularFrame`]: both haversines
    /// and both bearings from scratch on every call.
    fn reference_angular_distance(source: GeoPoint, dest: GeoPoint, candidate: GeoPoint) -> f64 {
        const EPS_M: f64 = 0.5;
        if haversine_meters(source, dest) < EPS_M || haversine_meters(source, candidate) < EPS_M {
            return 0.5;
        }
        let theta_dest = bearing(source, dest);
        let theta_cand = bearing(source, candidate);
        (1.0 - (theta_dest - theta_cand).cos()) / 2.0
    }

    #[test]
    fn frame_distance_equals_the_three_point_form_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xA15);
        let anywhere = |rng: &mut StdRng| {
            GeoPoint::new(rng.random_range(-89.0..89.0), rng.random_range(-180.0..180.0))
        };
        for _ in 0..6_000 {
            // City scale: heading and candidate within a few kilometres.
            let source = anywhere(&mut rng);
            let mut near = || {
                GeoPoint::new(
                    source.lat + rng.random_range(-0.05..0.05),
                    source.lon + rng.random_range(-0.05..0.05),
                )
            };
            check(source, near(), near());
        }
        for _ in 0..6_000 {
            check(anywhere(&mut rng), anywhere(&mut rng), anywhere(&mut rng));
        }

        let p = GeoPoint::new(12.9, 77.6);
        let q = GeoPoint::new(12.95, 77.7);
        // 1e-6° of latitude is 0.11 m, inside the 0.5 m coincidence radius;
        // 1e-5° is 1.1 m, just outside it.
        let inside = GeoPoint::new(p.lat + 1e-6, p.lon);
        let outside = GeoPoint::new(p.lat + 1e-5, p.lon);
        let north = GeoPoint::new(p.lat + 0.1, p.lon);
        let south = GeoPoint::new(p.lat - 0.1, p.lon);
        let east_of_antimeridian = GeoPoint::new(-16.5, -179.98);
        let west_of_antimeridian = GeoPoint::new(-16.4, 179.97);
        for (source, heading, candidate) in [
            (p, p, q),
            (p, q, p),
            (p, p, p),
            (p, q, q),
            (p, q, inside),
            (p, q, outside),
            (p, inside, q),
            (p, outside, q),
            (p, north, south),
            (p, north, north),
            (p, south, q),
            (p, q, north),
            (west_of_antimeridian, east_of_antimeridian, GeoPoint::new(-16.3, -179.9)),
            (east_of_antimeridian, GeoPoint::new(-16.6, -179.5), west_of_antimeridian),
        ] {
            check(source, heading, candidate);
        }
        let frame = AngularFrame::new(p, q);
        assert_eq!(frame.distance_to(inside, LatTrig::of(inside.lat)), 0.5);
        assert_ne!(frame.distance_to(outside, LatTrig::of(outside.lat)), 0.5);
    }

    /// `AngularFrame::distance_to` against the reference, bit for bit.
    fn check(source: GeoPoint, heading: GeoPoint, candidate: GeoPoint) {
        let got =
            AngularFrame::new(source, heading).distance_to(candidate, LatTrig::of(candidate.lat));
        let want = reference_angular_distance(source, heading, candidate);
        assert_eq!(got.to_bits(), want.to_bits(), "{source:?} {heading:?} {candidate:?}");
        assert_eq!(angular_distance(source, heading, candidate).to_bits(), want.to_bits());
    }

    /// Where the bound that skips the coincidence haversine decides: every
    /// candidate 0.3 to 3 m from the source, north, south, east and west, at
    /// the equator, at 60° and at 85° (where a degree of longitude is
    /// 9.7 km), lands on the reference's side of 0.5 m — and pairs across
    /// the antimeridian, where `|Δλ|` is near 2π for points metres apart.
    #[test]
    fn frame_distance_is_bit_identical_at_the_coincidence_boundary() {
        let metres_per_degree = EARTH_RADIUS_M.to_radians();
        let offsets = [0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0];
        let (mut coincident, mut apart) = (0, 0);
        for lat in [0.0, 60.0, 85.0, -60.0] {
            let source = GeoPoint::new(lat, 77.6);
            let per_lon_degree = metres_per_degree * lat.to_radians().cos();
            let heading = GeoPoint::new(lat + 0.01, 77.61);
            for metres in offsets {
                let (dlat, dlon) = (metres / metres_per_degree, metres / per_lon_degree);
                for candidate in [
                    GeoPoint::new(lat + dlat, source.lon),
                    GeoPoint::new(lat - dlat, source.lon),
                    GeoPoint::new(lat, source.lon + dlon),
                    GeoPoint::new(lat, source.lon - dlon),
                    GeoPoint::new(lat + dlat / 2.0, source.lon + dlon / 2.0),
                ] {
                    check(source, heading, candidate);
                    if AngularFrame::new(source, heading)
                        .distance_to(candidate, LatTrig::of(candidate.lat))
                        == 0.5
                    {
                        coincident += 1;
                    } else {
                        apart += 1;
                    }
                }
            }
        }
        // Both sides of the boundary were visited.
        assert!(coincident >= 8 && apart >= 8, "{coincident} coincident, {apart} apart");

        // Across the antimeridian: `Δλ` is ±(2π − a few μrad).
        let east = GeoPoint::new(-16.5, -179.999_995);
        for metres in offsets {
            let dlon = metres / (metres_per_degree * 16.5f64.to_radians().cos());
            let west = GeoPoint::new(-16.5, 180.0 - (dlon - 0.000_005));
            check(east, GeoPoint::new(-16.4, -179.9), west);
            check(west, GeoPoint::new(-16.6, 179.9), east);
            check(west, east, GeoPoint::new(-16.5 + metres / metres_per_degree, 179.9));
        }
    }
}
