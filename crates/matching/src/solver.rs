//! What a solve returns: the assignment contract and its padding.
//!
//! The matching stage (§IV-A) asks one question: given a sparse cost matrix
//! between order batches (rows) and vehicles (columns) whose unset entries
//! carry the rejection penalty Ω, return a minimum-cost assignment of
//! `min(rows, cols)` pairs. Dispatch answers it with one chain,
//! [`Decomposed`](crate::Decomposed): shard by connected component, solve
//! every shard with [`sparse_km::solve`](crate::sparse_km::solve),
//! Kuhn–Munkres over the explicit entries in `O(t·(E + V) log V)`, never
//! touching the Ω cells. Both require the FoodGraph invariant that explicit
//! entries never exceed the default cost Ω (Algorithm 2 clamps every edge
//! weight with `min(·, Ω)`).
//!
//! The ground truth the tests hold the solver to lives in
//! `tests/solver_equivalence.rs`: exhaustive enumeration on small
//! instances, and on every instance a residual-graph optimality certificate
//! (no negative cycle, by Bellman–Ford).
//!
//! ## The rejection-padding convention
//!
//! Every solve returns an [`Assignment`] with exactly `min(rows, cols)`
//! matched pairs and a `total_cost` equal to the optimum over all cells:
//! pairs the solver left at the rejection penalty are padded in
//! deterministically (free rows and free columns paired in ascending index
//! order, Ω each). Consumers that only want the *useful* pairs filter on
//! `costs.get(row, col) < Ω`.

use crate::matrix::{Assignment, SparseCostMatrix};

/// Assembles the canonical [`Assignment`] from the useful (below-default)
/// pairs a sparse solver matched: fills both directions, then pads with
/// default-cost pairs — free rows and free columns in ascending index order —
/// until `min(rows, cols)` pairs are matched.
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
/// docs).
pub(crate) fn debug_assert_entries_at_most_default(costs: &SparseCostMatrix) {
    debug_assert!(
        costs.entries().iter().all(|&(_, _, v)| v <= costs.default_cost()),
        "the solver requires explicit entries <= default cost"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sparse_km, Decomposed};

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
        for a in [Decomposed::new(2).solve(&costs), sparse_km::solve(&costs)] {
            assert_eq!(a.matched_pairs(), 3);
            assert!((a.total_cost - 8.0).abs() < 1e-9, "{}", a.total_cost);
        }
    }
}
