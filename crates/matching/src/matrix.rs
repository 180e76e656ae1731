//! Dense and sparse cost matrices plus the assignment result type.

use std::fmt;

/// A dense rectangular cost matrix with `rows × cols` finite entries.
#[derive(Clone, Debug, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// Creates a matrix filled with `fill`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `fill` is not finite.
    pub fn filled(rows: usize, cols: usize, fill: f64) -> Self {
        assert!(rows > 0 && cols > 0, "cost matrix dimensions must be positive");
        assert!(fill.is_finite(), "cost entries must be finite");
        CostMatrix { rows, cols, data: vec![fill; rows * cols] }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows are empty, ragged, or contain non-finite values.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cost matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "cost matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            for &value in row {
                assert!(value.is_finite(), "cost entries must be finite, got {value}");
                data.push(value);
            }
        }
        CostMatrix { rows: rows.len(), cols, data }
    }

    /// Creates a matrix by evaluating `cost(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut cost: impl FnMut(usize, usize) -> f64) -> Self {
        let mut matrix = CostMatrix::filled(rows, cols, 0.0);
        for r in 0..rows {
            for c in 0..cols {
                matrix.set(r, c, cost(r, c));
            }
        }
        matrix
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The cost at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "cost matrix index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the cost at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds or `value` is not finite.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "cost matrix index out of bounds");
        assert!(value.is_finite(), "cost entries must be finite, got {value}");
        self.data[row * self.cols + col] = value;
    }

    /// The transposed matrix.
    pub fn transposed(&self) -> CostMatrix {
        let mut t = CostMatrix::filled(self.cols, self.rows, 0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }
}

impl fmt::Display for CostMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, "\t")?;
                }
                write!(f, "{:.2}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A sparse cost matrix: only explicitly set entries differ from a default
/// cost (the rejection penalty Ω in the FoodGraph).
///
/// The sparsified FoodGraph of Algorithm 2 produces exactly this structure:
/// each vehicle has true marginal-cost edges to at most `k` batches and
/// Ω-edges to every other batch. The sparse solvers
/// ([`SparseKm`](crate::SparseKm), [`Decomposed`](crate::Decomposed))
/// operate on this representation directly, without ever materialising the
/// Ω entries.
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

    /// Materialises the sparse matrix into a dense [`CostMatrix`].
    pub fn to_dense(&self) -> CostMatrix {
        let mut dense = CostMatrix::filled(self.rows, self.cols, self.default_cost);
        for &(r, c, v) in &self.entries {
            dense.set(r, c, v);
        }
        dense
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
    fn from_rows_and_get_set() {
        let mut m = CostMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        m.set(1, 0, 9.0);
        assert_eq!(m.get(1, 0), 9.0);
    }

    #[test]
    fn from_fn_evaluates_every_cell() {
        let m = CostMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let m = CostMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn sparse_to_dense_applies_default_and_overrides() {
        let mut s = SparseCostMatrix::new(2, 3, 100.0);
        s.set(0, 1, 5.0);
        s.set(1, 2, 7.0);
        s.set(0, 1, 4.0); // later write wins, in place
        let d = s.to_dense();
        assert_eq!(d.get(0, 0), 100.0);
        assert_eq!(d.get(0, 1), 4.0);
        assert_eq!(d.get(1, 2), 7.0);
        assert_eq!(s.explicit_entries(), 2, "duplicate writes collapse to one cell");
        assert_eq!(s.get(0, 1), 4.0);
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
        let _ = CostMatrix::from_rows(&[vec![f64::INFINITY]]);
    }

    #[test]
    #[should_panic(expected = "all rows must have the same length")]
    fn ragged_rows_rejected() {
        let _ = CostMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        let m = CostMatrix::filled(2, 2, 0.0);
        let _ = m.get(2, 0);
    }
}
