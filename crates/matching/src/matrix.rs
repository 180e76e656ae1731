//! The sparse cost matrix and the assignment result type.

/// A sparse cost matrix: only explicitly set entries differ from a default
/// cost (the rejection penalty Ω in the FoodGraph).
///
/// The sparsified FoodGraph of Algorithm 2 produces exactly this structure:
/// each vehicle has true marginal-cost edges to at most `k` batches and
/// Ω-edges to every other batch. The solver ([`Decomposed`](crate::Decomposed))
/// reads its explicit entries directly, without ever materialising the Ω
/// entries.
#[derive(Clone, Debug)]
pub struct SparseCostMatrix {
    rows: usize,
    cols: usize,
    default_cost: f64,
    /// One record per distinct cell, in first-write order; re-writes update
    /// the record in place (later writes win).
    entries: Vec<(usize, usize, f64)>,
    /// `(row, col)` → index into `entries`.
    index: std::collections::HashMap<(usize, usize), usize>,
}

impl SparseCostMatrix {
    /// Creates an empty sparse matrix where unset entries cost `default_cost`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `default_cost` is not finite.
    pub fn new(rows: usize, cols: usize, default_cost: f64) -> Self {
        assert!(rows > 0 && cols > 0, "cost matrix dimensions must be positive");
        assert!(default_cost.is_finite(), "default cost must be finite");
        SparseCostMatrix {
            rows,
            cols,
            default_cost,
            entries: Vec::new(),
            index: std::collections::HashMap::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cost used for entries that were never [`set`](Self::set).
    pub fn default_cost(&self) -> f64 {
        self.default_cost
    }

    /// Number of distinct explicitly set cells.
    pub fn explicit_entries(&self) -> usize {
        self.entries.len()
    }

    /// Records the cost of `(row, col)`. Later writes to the same cell win.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds or `value` is not finite.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "cost matrix index out of bounds");
        assert!(value.is_finite(), "cost entries must be finite, got {value}");
        match self.index.entry((row, col)) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.entries[*slot.get()].2 = value;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push((row, col, value));
            }
        }
    }

    /// The cost at `(row, col)`: the explicitly set value, or the default.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "cost matrix index out of bounds");
        match self.index.get(&(row, col)) {
            Some(&i) => self.entries[i].2,
            None => self.default_cost,
        }
    }

    /// The distinct explicit cells as `(row, col, cost)`, in first-write
    /// order (deterministic for deterministic construction).
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }
}

/// The result of a bipartite assignment.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// `row_to_col[r]` is the column matched to row `r`, if any.
    pub row_to_col: Vec<Option<usize>>,
    /// `col_to_row[c]` is the row matched to column `c`, if any.
    pub col_to_row: Vec<Option<usize>>,
    /// Sum of the costs of all matched pairs.
    pub total_cost: f64,
}

impl Assignment {
    /// Number of matched (row, column) pairs.
    pub fn matched_pairs(&self) -> usize {
        self.row_to_col.iter().filter(|c| c.is_some()).count()
    }

    /// Iterates over matched `(row, col)` pairs in row order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col.iter().enumerate().filter_map(|(r, c)| c.map(|c| (r, c)))
    }

    /// Checks internal consistency: the two directions agree and no column is
    /// used twice. Primarily used by tests and debug assertions.
    pub fn is_consistent(&self) -> bool {
        let mut seen_cols = vec![false; self.col_to_row.len()];
        for (r, col) in self.row_to_col.iter().enumerate() {
            if let Some(c) = *col {
                if c >= self.col_to_row.len() || seen_cols[c] || self.col_to_row[c] != Some(r) {
                    return false;
                }
                seen_cols[c] = true;
            }
        }
        for (c, row) in self.col_to_row.iter().enumerate() {
            if let Some(r) = *row {
                if r >= self.row_to_col.len() || self.row_to_col[r] != Some(c) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_set_and_get_apply_default_and_overrides() {
        let mut s = SparseCostMatrix::new(2, 3, 100.0);
        s.set(0, 1, 5.0);
        s.set(1, 2, 7.0);
        s.set(0, 1, 4.0); // later write wins, in place
        assert_eq!(s.explicit_entries(), 2, "duplicate writes collapse to one cell");
        assert_eq!(s.entries(), &[(0, 1, 4.0), (1, 2, 7.0)]);
        assert_eq!(s.get(0, 1), 4.0);
        assert_eq!(s.get(1, 2), 7.0);
        assert_eq!(s.get(0, 0), 100.0, "unset cells read the default");
    }

    #[test]
    fn assignment_consistency_checks() {
        let good = Assignment {
            row_to_col: vec![Some(1), None],
            col_to_row: vec![None, Some(0)],
            total_cost: 1.0,
        };
        assert!(good.is_consistent());
        assert_eq!(good.matched_pairs(), 1);
        assert_eq!(good.pairs().collect::<Vec<_>>(), vec![(0, 1)]);

        let bad = Assignment {
            row_to_col: vec![Some(0), Some(0)],
            col_to_row: vec![Some(0)],
            total_cost: 0.0,
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    #[should_panic(expected = "cost entries must be finite")]
    fn non_finite_entry_rejected() {
        SparseCostMatrix::new(1, 1, 100.0).set(0, 0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        let _ = SparseCostMatrix::new(2, 2, 100.0).get(2, 0);
    }
}
