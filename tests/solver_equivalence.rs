//! Equivalence, ground truth and determinism of the assignment solver.
//!
//! The contract under test: the dispatch solver
//! (`DispatchConfig::build_solver`, [`Decomposed`]: components → [`SparseKm`]
//! per shard) returns an assignment of `min(rows, cols)` pairs whose total
//! cost is the optimum — checked against the dense rectangular Kuhn–Munkres
//! reference ([`DenseKm`]) on random instances and against exhaustive
//! enumeration on tiny ones — and is bit-identical for every thread count.

use foodmatch_core::DispatchConfig;
use foodmatch_matching::{
    decompose, solve_hungarian, AssignmentSolver, CostMatrix, Decomposed, DenseKm,
    SparseCostMatrix, SparseKm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OMEGA: f64 = 7_200.0;

/// A random sparse instance; `integer` restricts costs to whole seconds so
/// that totals of distinct matchings differ by at least one.
fn random_instance(rng: &mut StdRng, density: f64, integer: bool) -> SparseCostMatrix {
    let rows = rng.random_range(1..=10);
    let cols = rng.random_range(1..=10);
    let mut costs = SparseCostMatrix::new(rows, cols, OMEGA);
    for r in 0..rows {
        for c in 0..cols {
            if rng.random_range(0.0..1.0) < density {
                let cost = if integer {
                    rng.random_range(0..7_000) as f64
                } else {
                    rng.random_range(0.0..7_000.0)
                };
                costs.set(r, c, cost);
            }
        }
    }
    costs
}

/// The dispatch solver as the policies build it, its per-shard solver run
/// on the whole instance, and the dense reference.
fn solvers() -> Vec<Box<dyn AssignmentSolver>> {
    vec![DispatchConfig::default().build_solver(), Box::new(SparseKm), Box::new(DenseKm)]
}

fn assert_matches_dense(costs: &SparseCostMatrix, solver: &dyn AssignmentSolver, tol: f64) {
    let dense = solve_hungarian(&costs.to_dense());
    let solved = solver.solve(costs);
    assert!(
        (solved.total_cost - dense.total_cost).abs() <= tol,
        "{}: total {} vs dense {} on\n{}",
        solver.name(),
        solved.total_cost,
        dense.total_cost,
        costs.to_dense()
    );
    assert_eq!(solved.matched_pairs(), costs.rows().min(costs.cols()), "{}", solver.name());
    assert!(solved.is_consistent(), "{}", solver.name());
}

#[test]
fn km_family_agrees_with_dense_on_random_real_valued_instances() {
    let mut rng = StdRng::seed_from_u64(0xF00D_CAFE);
    let solvers = solvers();
    for trial in 0..250usize {
        let density = [0.1, 0.3, 0.6][trial % 3];
        let costs = random_instance(&mut rng, density, false);
        for solver in &solvers {
            assert_matches_dense(&costs, solver.as_ref(), 1e-6);
        }
    }
}

#[test]
fn every_solver_kind_is_exact_on_random_integer_instances() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let solvers = solvers();
    for trial in 0..150usize {
        let density = [0.15, 0.45, 0.8][trial % 3];
        let costs = random_instance(&mut rng, density, true);
        for solver in &solvers {
            // Integer totals differ by >= 1, so 0.5 separates "picked an
            // optimal matching" from any suboptimal one.
            assert_matches_dense(&costs, solver.as_ref(), 0.5);
        }
    }
}

#[test]
fn rectangular_extremes_and_degenerate_shapes_agree() {
    let mut rng = StdRng::seed_from_u64(7_777);
    let solvers = solvers();
    // Very wide and very tall shapes, fully dense and nearly empty.
    for &(rows, cols) in &[(1usize, 12usize), (12, 1), (2, 9), (9, 2), (8, 8)] {
        for density in [0.0, 1.0] {
            let mut costs = SparseCostMatrix::new(rows, cols, OMEGA);
            for r in 0..rows {
                for c in 0..cols {
                    if density == 1.0 {
                        costs.set(r, c, rng.random_range(0..5_000) as f64);
                    }
                }
            }
            for solver in &solvers {
                assert_matches_dense(&costs, solver.as_ref(), 0.5);
            }
        }
    }
}

#[test]
fn all_omega_instances_reduce_to_pure_rejection_padding() {
    let costs = SparseCostMatrix::new(6, 4, OMEGA);
    assert!(decompose(&costs).is_empty());
    for solver in solvers() {
        let solved = solver.solve(&costs);
        assert_eq!(solved.matched_pairs(), 4);
        assert!((solved.total_cost - 4.0 * OMEGA).abs() < 1e-9, "{}", solver.name());
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
    for solver in solvers() {
        let solved = solver.solve(&costs);
        assert!((solved.total_cost - (60.0 + 2.0 * OMEGA)).abs() < 1e-6, "{}", solver.name());
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

/// The optimum by exhaustive enumeration: the cheapest way to match every
/// line of the shorter side to a distinct line of the longer one, Ω cells
/// included (at most 720 matchings on a 6 × 6 instance).
fn brute_force_optimum(costs: &CostMatrix) -> f64 {
    fn explore(costs: &CostMatrix, row: usize, used: &mut [bool]) -> f64 {
        if row == costs.rows() {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for col in 0..costs.cols() {
            if !used[col] {
                used[col] = true;
                best = best.min(costs.get(row, col) + explore(costs, row + 1, used));
                used[col] = false;
            }
        }
        best
    }
    if costs.rows() <= costs.cols() {
        explore(costs, 0, &mut vec![false; costs.cols()])
    } else {
        explore(&costs.transposed(), 0, &mut vec![false; costs.rows()])
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

        let optimum = brute_force_optimum(&costs.to_dense());
        let solved = solver.solve(&costs);
        if integer {
            assert_eq!(solved.total_cost, optimum, "trial {trial} on\n{}", costs.to_dense());
        } else {
            let off = (solved.total_cost - optimum).abs();
            assert!(off <= 1e-9, "trial {trial}: off by {off} on\n{}", costs.to_dense());
        }
        assert_eq!(solved.matched_pairs(), rows.min(cols), "trial {trial}");
        assert!(solved.is_consistent(), "trial {trial}");
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
