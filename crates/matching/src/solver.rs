//! The assignment-solver interface and its dense reference.
//!
//! The matching stage (§IV-A) asks one question: given a sparse cost matrix
//! between order batches (rows) and vehicles (columns) whose unset entries
//! carry the rejection penalty Ω, return a minimum-cost assignment of
//! `min(rows, cols)` pairs. Dispatch answers it with one chain,
//! [`Decomposed`](crate::Decomposed): shard by connected component, solve
//! every shard with [`SparseKm`](crate::SparseKm), Kuhn–Munkres over the
//! explicit entries. [`DenseKm`] answers it over *all* cells and is what the
//! tests compare that chain against.
//!
//! | Solver | Complexity | Role |
//! |---|---|---|
//! | [`SparseKm`](crate::SparseKm) | `O(t·(E + V) log V)` over explicit entries | solves each shard; never touches the Ω cells¹ |
//! | [`Decomposed`](crate::Decomposed) | `SparseKm` per connected component, in parallel | the dispatch solver¹ |
//! | [`DenseKm`] | `O(n²·m)` over all cells | test reference; arbitrary matrices (entries may exceed Ω) |
//!
//! ¹ requires the FoodGraph invariant that explicit entries never exceed the
//! default cost Ω (Algorithm 2 clamps every edge weight with `min(·, Ω)`).
//! [`DenseKm`] has no such precondition.
//!
//! ## The rejection-padding convention
//!
//! All solvers return an [`Assignment`] with exactly `min(rows, cols)`
//! matched pairs and a `total_cost` equal to the dense optimum: pairs the
//! solver left at the rejection penalty are padded in deterministically
//! (free rows and free columns paired in ascending index order, Ω each).
//! Consumers that only want the *useful* pairs filter on
//! `costs.get(row, col) < Ω`, exactly as they would against a dense matrix.

use crate::hungarian;
use crate::matrix::{Assignment, SparseCostMatrix};

/// A minimum-cost bipartite assignment solver over sparse cost matrices.
///
/// Implementations must be deterministic: the same matrix must always
/// produce the same [`Assignment`], bit for bit, regardless of thread count
/// or environment.
pub trait AssignmentSolver: Send + Sync {
    /// Short human-readable solver name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Computes a minimum-cost assignment of `min(rows, cols)` pairs.
    fn solve(&self, costs: &SparseCostMatrix) -> Assignment;
}

/// The reference: densify the matrix (materialising every Ω entry) and run
/// the serial rectangular Kuhn–Munkres solver on it.
///
/// This is the only solver with no precondition on the explicit entries —
/// cells larger than the default cost are honoured — and the implementation
/// the sparse chain is equivalence-tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseKm;

impl AssignmentSolver for DenseKm {
    fn name(&self) -> &'static str {
        "dense-km"
    }

    fn solve(&self, costs: &SparseCostMatrix) -> Assignment {
        hungarian::solve(&costs.to_dense())
    }
}

/// Assembles the canonical [`Assignment`] from the useful (below-default)
/// pairs a sparse solver matched: fills both directions, then pads with
/// default-cost pairs — free rows and free columns in ascending index order —
/// until `min(rows, cols)` pairs are matched, mirroring the perfect matching
/// a dense solver would return.
pub(crate) fn pad_assignment(
    rows: usize,
    cols: usize,
    default_cost: f64,
    useful: &[(usize, usize, f64)],
) -> Assignment {
    let target = rows.min(cols);
    let mut row_to_col = vec![None; rows];
    let mut col_to_row = vec![None; cols];
    let mut total_cost = 0.0;
    let mut matched = 0usize;
    for &(r, c, cost) in useful {
        debug_assert!(
            row_to_col[r].is_none() && col_to_row[c].is_none(),
            "pairs must be a matching"
        );
        row_to_col[r] = Some(c);
        col_to_row[c] = Some(r);
        total_cost += cost;
        matched += 1;
    }
    debug_assert!(matched <= target);
    let free_cols: Vec<usize> = (0..cols).filter(|&c| col_to_row[c].is_none()).collect();
    let mut next_free = free_cols.into_iter();
    for (r, slot) in row_to_col.iter_mut().enumerate() {
        if matched == target {
            break;
        }
        if slot.is_some() {
            continue;
        }
        let c = next_free.next().expect("a free column exists while matched < min(rows, cols)");
        *slot = Some(c);
        col_to_row[c] = Some(r);
        total_cost += default_cost;
        matched += 1;
    }
    let assignment = Assignment { row_to_col, col_to_row, total_cost };
    debug_assert!(assignment.is_consistent());
    assignment
}

/// In debug builds, checks the sparse-solver precondition that no explicit
/// entry exceeds the default cost (the FoodGraph invariant; see the module
/// docs). [`DenseKm`] is the escape hatch for matrices that violate it.
pub(crate) fn debug_assert_entries_at_most_default(costs: &SparseCostMatrix) {
    debug_assert!(
        costs.entries().iter().all(|&(_, _, v)| v <= costs.default_cost()),
        "sparse solvers require explicit entries <= default cost; use DenseKm otherwise"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decomposed, SparseKm};

    #[test]
    fn dense_km_matches_the_bare_hungarian_solver() {
        let mut costs = SparseCostMatrix::new(2, 3, 100.0);
        costs.set(0, 1, 5.0);
        costs.set(1, 0, 7.0);
        let via_trait = DenseKm.solve(&costs);
        let direct = hungarian::solve(&costs.to_dense());
        assert_eq!(via_trait, direct);
        assert_eq!(via_trait.matched_pairs(), 2);
        assert!((via_trait.total_cost - 12.0).abs() < 1e-9);
    }

    #[test]
    fn padding_fills_to_the_dense_matching_size() {
        let padded = pad_assignment(3, 2, 50.0, &[(1, 1, 7.0)]);
        assert_eq!(padded.matched_pairs(), 2);
        // Row 0 takes the first free column (0); row 2 stays unmatched.
        assert_eq!(padded.row_to_col, vec![Some(0), Some(1), None]);
        assert!((padded.total_cost - 57.0).abs() < 1e-9);
        assert!(padded.is_consistent());
    }

    #[test]
    fn padding_with_no_useful_pairs_is_all_default() {
        let padded = pad_assignment(2, 4, 9.0, &[]);
        assert_eq!(padded.matched_pairs(), 2);
        assert_eq!(padded.row_to_col, vec![Some(0), Some(1)]);
        assert!((padded.total_cost - 18.0).abs() < 1e-9);
    }

    #[test]
    fn every_kind_solves_a_small_instance_identically() {
        let mut costs = SparseCostMatrix::new(3, 3, 1000.0);
        costs.set(0, 0, 4.0);
        costs.set(0, 1, 1.0);
        costs.set(1, 0, 2.0);
        costs.set(2, 2, 5.0);
        let sharded = Decomposed::new(2);
        let solvers: [&dyn AssignmentSolver; 3] = [&sharded, &SparseKm, &DenseKm];
        for solver in solvers {
            let a = solver.solve(&costs);
            assert_eq!(a.matched_pairs(), 3, "{}", solver.name());
            assert!((a.total_cost - 8.0).abs() < 1e-9, "{}: {}", solver.name(), a.total_cost);
        }
    }
}
