//! Ground truth and determinism of the assignment solver.
//!
//! The contract under test: the dispatch solver
//! (`DispatchConfig::build_solver`, [`Decomposed`]: components →
//! [`sparse_km::solve`] per shard) returns an assignment of
//! `min(rows, cols)` pairs whose total cost is the optimum, and is
//! bit-identical for every thread count. The optimum is checked two ways,
//! neither of them a second solver: exhaustive enumeration on instances
//! small enough to enumerate, and on every instance an optimality
//! certificate — the residual graph of the returned assignment has no
//! negative cycle.

use foodmatch_core::{
    batch_orders, build_food_graph, DispatchConfig, DispatchPolicy, FoodMatchPolicy, Order,
    VehicleSnapshot, WindowSnapshot,
};
use foodmatch_matching::{decompose, sparse_km, Assignment, Decomposed, SparseCostMatrix};
use foodmatch_roadnet::{ShortestPathEngine, TimePoint};
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OMEGA: f64 = 7_200.0;

/// `rows × cols` cells, each set with probability `density` to a cost
/// `draw` picks (every cell when `density` is 1, none when it is 0, with no
/// coin flipped).
fn sparse_instance(
    rng: &mut StdRng,
    (rows, cols): (usize, usize),
    omega: f64,
    density: f64,
    draw: impl Fn(&mut StdRng) -> f64,
) -> SparseCostMatrix {
    let mut costs = SparseCostMatrix::new(rows, cols, omega);
    for r in 0..rows {
        for c in 0..cols {
            if density >= 1.0 || (density > 0.0 && rng.random_range(0.0..1.0) < density) {
                costs.set(r, c, draw(rng));
            }
        }
    }
    costs
}

/// A random instance of up to 10 × 10; `integer` restricts costs to whole
/// seconds so that totals of distinct matchings differ by at least one.
fn random_instance(rng: &mut StdRng, density: f64, integer: bool) -> SparseCostMatrix {
    let shape = (rng.random_range(1..=10), rng.random_range(1..=10));
    sparse_instance(rng, shape, OMEGA, density, |rng| {
        if integer {
            rng.random_range(0..7_000) as f64
        } else {
            rng.random_range(0.0..7_000.0)
        }
    })
}

/// The dispatch solver as the policies build it, and its per-shard solver
/// run on the whole instance.
fn solve_both(costs: &SparseCostMatrix) -> [(&'static str, Assignment); 2] {
    [
        ("dispatch solver", DispatchConfig::default().build_solver().solve(costs)),
        ("sparse KM", sparse_km::solve(costs)),
    ]
}

/// The optimum by exhaustive enumeration: the cheapest way to match every
/// line of the shorter side to a distinct line of the longer one, Ω cells
/// included (at most 720 matchings on a 6 × 6 instance).
fn brute_force_optimum(costs: &SparseCostMatrix) -> f64 {
    /// The cheapest completion from line `line` of the shorter side on.
    fn explore(
        cost: &dyn Fn(usize, usize) -> f64,
        line: usize,
        lines: usize,
        used: &mut [bool],
    ) -> f64 {
        if line == lines {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for other in 0..used.len() {
            if !used[other] {
                used[other] = true;
                best = best.min(cost(line, other) + explore(cost, line + 1, lines, used));
                used[other] = false;
            }
        }
        best
    }
    let wide = costs.rows() <= costs.cols();
    let (short, long) =
        if wide { (costs.rows(), costs.cols()) } else { (costs.cols(), costs.rows()) };
    let cost = |i: usize, j: usize| if wide { costs.get(i, j) } else { costs.get(j, i) };
    explore(&cost, 0, short, &mut vec![false; long])
}

/// Number of matchings [`brute_force_optimum`] enumerates.
fn matchings(costs: &SparseCostMatrix) -> usize {
    let (short, long) = (costs.rows().min(costs.cols()), costs.rows().max(costs.cols()));
    (long - short + 1..=long).try_fold(1usize, usize::checked_mul).unwrap_or(usize::MAX)
}

/// The optimality certificate: whether some assignment of as many pairs
/// costs less than `solved`. An assignment of `min(rows, cols)` pairs is a
/// flow of that value through source → rows → columns → sink, and a flow is
/// cheapest for its value iff its residual graph has no negative cycle.
/// Bellman–Ford looks for one, every node starting at distance 0: a
/// relaxation still possible after `V` passes closes a cycle. Relaxations
/// that gain less than 1e-6 are ignored, so rounding noise is no cycle.
fn improvable(costs: &SparseCostMatrix, solved: &Assignment) -> bool {
    let (n, m) = (costs.rows(), costs.cols());
    let (source, sink) = (n + m, n + m + 1);
    let mut arcs: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..n {
        arcs.push(if solved.row_to_col[r].is_some() { (r, source, 0.0) } else { (source, r, 0.0) });
        for c in 0..m {
            let cost = costs.get(r, c);
            // A matched pair can be undone, any other pair added.
            arcs.push(if solved.row_to_col[r] == Some(c) {
                (n + c, r, -cost)
            } else {
                (r, n + c, cost)
            });
        }
    }
    for c in 0..m {
        arcs.push(if solved.col_to_row[c].is_some() {
            (sink, n + c, 0.0)
        } else {
            (n + c, sink, 0.0)
        });
    }
    let mut dist = vec![0.0; n + m + 2];
    for _ in 0..dist.len() {
        let mut relaxed = false;
        for &(u, v, w) in &arcs {
            if dist[u] + w < dist[v] - 1e-6 {
                dist[v] = dist[u] + w;
                relaxed = true;
            }
        }
        if !relaxed {
            return false;
        }
    }
    true
}

/// Asserts that `solved` is a minimum-cost assignment of `costs`: a
/// consistent matching of `min(rows, cols)` pairs whose `total_cost` is its
/// pairs' sum (within `tol`), with no negative residual cycle, and — when
/// the instance is small enough to enumerate — the enumerated optimum.
fn assert_optimal(costs: &SparseCostMatrix, solved: &Assignment, tol: f64, what: &str) {
    assert!(solved.is_consistent(), "{what}");
    assert_eq!(solved.matched_pairs(), costs.rows().min(costs.cols()), "{what}");
    let sum: f64 = solved.pairs().map(|(r, c)| costs.get(r, c)).sum();
    assert!((solved.total_cost - sum).abs() <= tol, "{what}: total {} vs {sum}", solved.total_cost);
    assert!(!improvable(costs, solved), "{what}: a cheaper assignment exists on {costs:?}");
    if matchings(costs) <= 5_040 {
        let optimum = brute_force_optimum(costs);
        let off = (solved.total_cost - optimum).abs();
        assert!(off <= tol, "{what}: total {} vs optimum {optimum}", solved.total_cost);
    }
}

#[test]
fn solver_is_optimal_on_random_real_valued_instances() {
    let mut rng = StdRng::seed_from_u64(0xF00D_CAFE);
    for trial in 0..250usize {
        let density = [0.1, 0.3, 0.6][trial % 3];
        let costs = random_instance(&mut rng, density, false);
        for (name, solved) in solve_both(&costs) {
            assert_optimal(&costs, &solved, 1e-6, &format!("{name}, trial {trial}"));
        }
    }
}

#[test]
fn every_solver_kind_is_exact_on_random_integer_instances() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..150usize {
        let density = [0.15, 0.45, 0.8][trial % 3];
        let costs = random_instance(&mut rng, density, true);
        for (name, solved) in solve_both(&costs) {
            // Integer totals differ by >= 1, so 0.5 separates "picked an
            // optimal matching" from any suboptimal one.
            assert_optimal(&costs, &solved, 0.5, &format!("{name}, trial {trial}"));
        }
    }
}

#[test]
fn rectangular_extremes_and_degenerate_shapes_agree() {
    let mut rng = StdRng::seed_from_u64(7_777);
    // Very wide and very tall shapes, fully dense and nearly empty.
    for &(rows, cols) in &[(1usize, 12usize), (12, 1), (2, 9), (9, 2), (8, 8)] {
        for density in [0.0, 1.0] {
            let costs = sparse_instance(&mut rng, (rows, cols), OMEGA, density, |rng| {
                rng.random_range(0..5_000) as f64
            });
            for (name, solved) in solve_both(&costs) {
                assert_optimal(&costs, &solved, 0.5, &format!("{name}, {rows}×{cols}"));
            }
        }
    }
}

#[test]
fn sparse_km_is_optimal_on_random_sparse_instances() {
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..300 {
        let shape = (rng.random_range(1..=7), rng.random_range(1..=7));
        let costs =
            sparse_instance(&mut rng, shape, 1000.0, 0.45, |rng| rng.random_range(0.0..900.0));
        assert_optimal(&costs, &sparse_km::solve(&costs), 1e-6, &format!("trial {trial}"));
    }
}

#[test]
fn sparse_km_is_optimal_on_larger_early_terminating_instances() {
    // Bigger, very sparse instances: the regime where the early termination
    // skips most of each round's heap. Equal-index ties are seeded
    // deliberately (costs drawn from a coarse grid).
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..8 {
        let shape = (30 + round * 5, 25 + round * 4);
        let costs = sparse_instance(&mut rng, shape, 600.0, 0.06, |rng| {
            (rng.random_range(0..12) * 50) as f64
        });
        let solved = sparse_km::solve(&costs);
        assert_optimal(&costs, &solved, 1e-6, &format!("round {round}"));
        // Determinism: repeated solves return identical assignments.
        assert_eq!(solved, sparse_km::solve(&costs));
    }
    // Alternating large and small shapes, so each solve reuses pooled
    // scratch that a differently shaped solve left behind.
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..6 {
        let shape = if round % 2 == 0 { (40, 35) } else { (3, 4) };
        let costs = sparse_instance(&mut rng, shape, 700.0, 0.2, |rng| {
            (rng.random_range(0..14) * 50) as f64
        });
        assert_optimal(&costs, &sparse_km::solve(&costs), 1e-6, &format!("interleaved {round}"));
    }
}

#[test]
fn sparse_km_is_optimal_on_fully_dense_instances() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..50 {
        let shape = (rng.random_range(1..=6), rng.random_range(1..=6));
        let costs =
            sparse_instance(&mut rng, shape, 500.0, 1.0, |rng| rng.random_range(0.0..499.0));
        assert_optimal(&costs, &sparse_km::solve(&costs), 1e-6, &format!("trial {trial}"));
    }
}

#[test]
fn the_certificate_rejects_worsened_assignments() {
    // Swap the columns of two rows of an optimal assignment; whenever that
    // costs more, the certificate must find the cheaper one.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut caught = 0;
    for trial in 0..40 {
        let shape = (rng.random_range(2..=40), rng.random_range(2..=40));
        let costs =
            sparse_instance(&mut rng, shape, OMEGA, 0.2, |rng| rng.random_range(0..7_000) as f64);
        let optimal = sparse_km::solve(&costs);
        let (a, b) = (rng.random_range(0..shape.0), rng.random_range(0..shape.0));
        let mut worse = optimal.clone();
        worse.row_to_col.swap(a, b);
        worse.col_to_row = vec![None; shape.1];
        for (r, c) in worse.pairs().collect::<Vec<_>>() {
            worse.col_to_row[c] = Some(r);
        }
        worse.total_cost = worse.pairs().map(|(r, c)| costs.get(r, c)).sum();
        if worse.total_cost > optimal.total_cost + 0.5 {
            assert!(improvable(&costs, &worse), "trial {trial}: worse assignment certified");
            caught += 1;
        }
    }
    assert!(caught >= 20, "only {caught} worsened assignments to catch");
}

#[test]
fn all_omega_instances_reduce_to_pure_rejection_padding() {
    let costs = SparseCostMatrix::new(6, 4, OMEGA);
    assert!(decompose(&costs).is_empty());
    for (name, solved) in solve_both(&costs) {
        assert_eq!(solved.matched_pairs(), 4);
        assert!((solved.total_cost - 4.0 * OMEGA).abs() < 1e-9, "{name}");
    }
}

#[test]
fn explicit_entries_at_omega_never_beat_rejection() {
    // Clamped FoodGraph edges can sit exactly at Ω; they are equivalent to
    // rejection and must not change any solver's total.
    let mut costs = SparseCostMatrix::new(3, 3, OMEGA);
    costs.set(0, 0, OMEGA);
    costs.set(1, 1, 120.0);
    costs.set(2, 1, 60.0);
    for (name, solved) in solve_both(&costs) {
        assert!((solved.total_cost - (60.0 + 2.0 * OMEGA)).abs() < 1e-6, "{name}");
    }
}

#[test]
fn foodgraph_of_a_real_window_is_solved_optimally() {
    // The orders of one accumulation window of a generated City B lunch,
    // every vehicle idle at its start: batched, priced into a FoodGraph both
    // sparsified and dense, and solved.
    let scenario = Scenario::generate(
        CityId::B,
        ScenarioOptions {
            seed: 9,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(13, 0, 0),
            vehicle_fraction: 1.0,
        },
    );
    let t = TimePoint::from_hms(12, 14, 0);
    let window_start = t - scenario.city.preset.delta;
    let orders: Vec<Order> = scenario
        .orders
        .iter()
        .copied()
        .filter(|o| o.placed_at >= window_start && o.placed_at < t)
        .collect();
    let vehicles: Vec<VehicleSnapshot> =
        scenario.vehicle_starts.iter().map(|&(id, node)| VehicleSnapshot::idle(id, node)).collect();
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    let window = WindowSnapshot::new(t, orders, vehicles);
    assert_eq!(window.orders.len(), 14);

    let sparsified = DispatchConfig::default();
    let dense = DispatchConfig { use_bfs_sparsification: false, ..Default::default() };
    for config in [sparsified, dense] {
        let batches = batch_orders(&window.orders, &engine, t, &config).batches;
        let graph = build_food_graph(&batches, &window.vehicles, &engine, t, &config);
        let solved = config.build_solver().solve(&graph.costs);
        let what = format!("{} batches × {} vehicles", batches.len(), window.vehicles.len());
        assert_optimal(&graph.costs, &solved, 1e-6, &what);

        // The policy serves exactly the orders of the certified solve's
        // sub-Ω pairs.
        let served: usize = solved
            .pairs()
            .filter(|&(row, col)| graph.costs.get(row, col) < config.rejection_penalty_secs)
            .map(|(row, _)| batches[row].orders.len())
            .sum();
        assert!(served > 0, "{what}");
        let outcome = FoodMatchPolicy::new().assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        assert_eq!(outcome.assigned_order_count(), served, "{what}");
    }
}

#[test]
fn decomposed_solves_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..20usize {
        // Larger instances with block structure so several components exist.
        let blocks = 2 + trial % 4;
        let mut costs = SparseCostMatrix::new(blocks * 8, blocks * 6, OMEGA);
        for b in 0..blocks {
            for _ in 0..20 {
                let r = b * 8 + rng.random_range(0..8usize);
                let c = b * 6 + rng.random_range(0..6usize);
                costs.set(r, c, rng.random_range(0.0..6_000.0));
            }
        }
        assert!(decompose(&costs).len() >= 2, "block instance must decompose");
        let reference = Decomposed::new(1).solve(&costs);
        for threads in [2, 3, 8, 17] {
            let solved = Decomposed::new(threads).solve(&costs);
            assert_eq!(solved, reference, "{threads} threads diverged on trial {trial}");
        }
    }
}

#[test]
fn component_sharding_partitions_rows_and_columns() {
    let mut rng = StdRng::seed_from_u64(31_337);
    for _ in 0..50 {
        let costs = random_instance(&mut rng, 0.2, false);
        let components = decompose(&costs);
        let mut seen_rows = vec![false; costs.rows()];
        let mut seen_cols = vec![false; costs.cols()];
        for component in &components {
            assert!(!component.rows.is_empty() && !component.cols.is_empty());
            assert!(component.edges() > 0, "components carry at least one finite edge");
            for &r in &component.rows {
                assert!(!seen_rows[r], "row {r} appears in two components");
                seen_rows[r] = true;
            }
            for &c in &component.cols {
                assert!(!seen_cols[c], "col {c} appears in two components");
                seen_cols[c] = true;
            }
            // The component's matrix holds exactly its global sub-matrix.
            for (lr, &gr) in component.rows.iter().enumerate() {
                for (lc, &gc) in component.cols.iter().enumerate() {
                    let global = costs.get(gr, gc);
                    let local = component.matrix.get(lr, lc);
                    if global < OMEGA {
                        assert_eq!(local, global);
                    } else {
                        assert_eq!(local, OMEGA, "cross entries stay at the default");
                    }
                }
            }
        }
        // Every finite edge lands in some component.
        for &(r, c, v) in costs.entries() {
            if v < OMEGA {
                assert!(seen_rows[r] && seen_cols[c]);
            }
        }
    }
}

#[test]
fn dispatch_solver_matches_exhaustive_enumeration_on_tiny_instances() {
    let mut rng = StdRng::seed_from_u64(0x0B5E55ED);
    let solver = DispatchConfig::default().build_solver();
    // What the seeded loop must have covered by the time it ends.
    let (mut wide, mut tall, mut square) = (0, 0, 0);
    let (mut all_omega, mut at_omega, mut sharded, mut isolated) = (0, 0, 0, 0);
    for trial in 0..600usize {
        let integer = trial % 2 == 0;
        let (rows, cols) = match trial % 3 {
            0 => (rng.random_range(1..=5), 6),
            1 => (6, rng.random_range(1..=5)),
            _ => {
                let n = rng.random_range(1..=6);
                (n, n)
            }
        };
        let density = [0.0, 0.25, 0.5, 1.0][rng.random_range(0..4usize)];
        let mut costs = SparseCostMatrix::new(rows, cols, OMEGA);
        for r in 0..rows {
            for c in 0..cols {
                if rng.random_range(0.0..1.0) >= density {
                    continue;
                }
                let cost = if rng.random_range(0.0..1.0) < 0.15 {
                    OMEGA
                } else if integer {
                    rng.random_range(0..7_000) as f64
                } else {
                    rng.random_range(0.0..7_000.0)
                };
                costs.set(r, c, cost);
            }
        }

        let optimum = brute_force_optimum(&costs);
        let solved = solver.solve(&costs);
        if integer {
            assert_eq!(solved.total_cost, optimum, "trial {trial} on {costs:?}");
        } else {
            let off = (solved.total_cost - optimum).abs();
            assert!(off <= 1e-9, "trial {trial}: off by {off} on {costs:?}");
        }
        assert_eq!(solved.matched_pairs(), rows.min(cols), "trial {trial}");
        assert!(solved.is_consistent(), "trial {trial}");
        assert!(!improvable(&costs, &solved), "trial {trial}");
        for threads in [1, 2, 4] {
            assert_eq!(Decomposed::new(threads).solve(&costs), solved, "trial {trial}");
        }

        let useful: Vec<_> = costs.entries().iter().filter(|&&(_, _, v)| v < OMEGA).collect();
        wide += usize::from(rows < cols);
        tall += usize::from(rows > cols);
        square += usize::from(rows == cols);
        all_omega += usize::from(useful.is_empty());
        at_omega += usize::from(useful.len() < costs.explicit_entries());
        sharded += usize::from(decompose(&costs).len() >= 2);
        isolated += usize::from(
            !useful.is_empty()
                && (0..rows).any(|r| useful.iter().all(|e| e.0 != r))
                && (0..cols).any(|c| useful.iter().all(|e| e.1 != c)),
        );
    }
    for (what, seen) in [
        ("wide", wide),
        ("tall", tall),
        ("square", square),
        ("all-Ω", all_omega),
        ("explicit entry at Ω", at_omega),
        ("two or more components", sharded),
        ("isolated row and column", isolated),
    ] {
        assert!(seen >= 20, "only {seen} {what} instances");
    }
}
