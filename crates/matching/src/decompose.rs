//! Connected-component sharding of sparse assignment instances, and the
//! [`Decomposed`] meta-solver that solves the shards in parallel.
//!
//! ## Why sharding is exact
//!
//! Let the *finite-cost graph* of a [`SparseCostMatrix`] be the bipartite
//! graph whose edges are the explicit entries strictly below the default
//! cost Ω (explicit entries are required to be ≤ Ω — the FoodGraph
//! invariant). Rows and columns in different connected components of this
//! graph are joined only by Ω edges. An optimal dense matching never
//! *needs* such a cross edge: an Ω edge costs exactly as much as leaving
//! both endpoints for the deterministic Ω padding, so any optimal solution
//! can be rewritten — at identical total cost — to use sub-Ω edges within
//! components plus arbitrary Ω padding. The sub-Ω part of an optimum is a
//! minimum-weight matching of reduced weights `c_e − Ω ≤ 0`, and since
//! matchings constrain rows/columns only within their own component, that
//! minimisation splits exactly into one independent minimisation per
//! component:
//!
//! ```text
//!   min_dense = Ω·min(rows, cols) + Σ_components min-matching(component)
//! ```
//!
//! Each per-component subproblem is handed to [`SparseKm`] as its own
//! sparse matrix (same default Ω), so the shard's optimum — its sub-Ω
//! pairs — is exactly the component's term. Stitching the per-component
//! sub-Ω pairs back together and re-padding therefore reproduces the dense
//! optimum, because the per-shard solver is exact.
//!
//! Components are independent, so they are solved concurrently through the
//! shared deterministic [`parallel_map`](crate::parallel::parallel_map):
//! results come back in component order and each component's solve is
//! single-threaded, so the stitched assignment is bit-identical for every
//! thread count. This sharding is also the enabling step for NUMA-aware
//! dispatch later: whole components can be pinned to a socket.

use crate::matrix::{Assignment, SparseCostMatrix};
use crate::parallel::parallel_map;
use crate::solver::{debug_assert_entries_at_most_default, pad_assignment, AssignmentSolver};
use crate::sparse_km::SparseKm;

/// One connected component of the finite-cost bipartite graph.
#[derive(Clone, Debug)]
pub struct Component {
    /// Global row indices in this component, ascending.
    pub rows: Vec<usize>,
    /// Global column indices in this component, ascending.
    pub cols: Vec<usize>,
    /// The component's own sparse matrix (local indices, same default cost).
    pub matrix: SparseCostMatrix,
}

impl Component {
    /// Number of explicit sub-default entries in the component.
    pub fn edges(&self) -> usize {
        self.matrix.explicit_entries()
    }
}

/// Finds the connected components of the finite-cost graph of `costs` via
/// union-find over the sub-default explicit entries.
///
/// Rows and columns touched by no sub-default entry belong to no component
/// (they can only ever be Ω-padded) and are not returned. Components are
/// ordered by their smallest global row index, and rows/columns within a
/// component are ascending, so the decomposition is deterministic.
pub fn decompose(costs: &SparseCostMatrix) -> Vec<Component> {
    let n = costs.rows();
    let m = costs.cols();
    let omega = costs.default_cost();
    // Union-find over rows (0..n) and columns (n..n+m).
    let mut parent: Vec<usize> = (0..n + m).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut useful: Vec<(usize, usize, f64)> = Vec::new();
    for &(r, c, v) in costs.entries() {
        if v < omega {
            useful.push((r, c, v));
            let (a, b) = (find(&mut parent, r), find(&mut parent, n + c));
            if a != b {
                // Union by smaller root id keeps roots deterministic.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }
    }

    // Group rows and columns by root, in ascending order per component.
    let mut component_of_root: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    let mut components: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    let mut row_slot: Vec<Option<(usize, usize)>> = vec![None; n]; // (component, local row)
    let mut col_slot: Vec<Option<(usize, usize)>> = vec![None; m];
    // Only rows/cols that carry at least one useful edge participate.
    let mut row_used = vec![false; n];
    let mut col_used = vec![false; m];
    for &(r, c, _) in &useful {
        row_used[r] = true;
        col_used[c] = true;
    }
    for (r, &used) in row_used.iter().enumerate() {
        if !used {
            continue;
        }
        let root = find(&mut parent, r);
        let idx = *component_of_root.entry(root).or_insert_with(|| {
            components.push((Vec::new(), Vec::new()));
            components.len() - 1
        });
        row_slot[r] = Some((idx, components[idx].0.len()));
        components[idx].0.push(r);
    }
    for (c, &used) in col_used.iter().enumerate() {
        if !used {
            continue;
        }
        let root = find(&mut parent, n + c);
        let idx = *component_of_root
            .get(&root)
            .expect("a used column always shares a root with some used row");
        col_slot[c] = Some((idx, components[idx].1.len()));
        components[idx].1.push(c);
    }

    let mut matrices: Vec<SparseCostMatrix> = components
        .iter()
        .map(|(rows, cols)| SparseCostMatrix::new(rows.len(), cols.len(), omega))
        .collect();
    for &(r, c, v) in &useful {
        let (idx, lr) = row_slot[r].expect("useful rows are slotted");
        let (cidx, lc) = col_slot[c].expect("useful cols are slotted");
        debug_assert_eq!(idx, cidx, "an edge never crosses components");
        matrices[idx].set(lr, lc, v);
    }

    components
        .into_iter()
        .zip(matrices)
        .map(|((rows, cols), matrix)| Component { rows, cols, matrix })
        .collect()
}

/// The dispatch solver: shards the instance by connected component, solves
/// each component independently with [`SparseKm`] — in parallel — and
/// stitches the per-component assignments back together. Exact (see the
/// module docs for the proof sketch).
#[derive(Clone, Debug)]
pub struct Decomposed {
    threads: usize,
    metrics: DecomposedMetrics,
}

/// `matching.solve_ns.decomposed-sparse-km` / `matching.components` /
/// `matching.component_size` handles, acquired once at construction (inert
/// without a recorder) so `solve` never touches the registry — the
/// per-window hot path does handle *use* only.
#[derive(Clone, Debug)]
struct DecomposedMetrics {
    solve_ns: foodmatch_telemetry::Histogram,
    components: foodmatch_telemetry::Histogram,
    component_size: foodmatch_telemetry::Histogram,
}

impl DecomposedMetrics {
    fn acquire() -> Self {
        DecomposedMetrics {
            solve_ns: foodmatch_telemetry::histogram("matching.solve_ns.decomposed-sparse-km"),
            components: foodmatch_telemetry::histogram("matching.components"),
            component_size: foodmatch_telemetry::histogram("matching.component_size"),
        }
    }
}

impl Decomposed {
    /// A solver whose per-component solves fan out over at most `threads`
    /// workers (`<= 1` solves components serially); the result is
    /// bit-identical for every value. Telemetry handles bind to the recorder
    /// installed at construction time: each solve is timed into
    /// `matching.solve_ns.decomposed-sparse-km` under a `solver` span.
    pub fn new(threads: usize) -> Self {
        Decomposed { threads: threads.max(1), metrics: DecomposedMetrics::acquire() }
    }
}

impl AssignmentSolver for Decomposed {
    fn name(&self) -> &'static str {
        "decomposed-sparse-km"
    }

    fn solve(&self, costs: &SparseCostMatrix) -> Assignment {
        let _span = foodmatch_telemetry::span("solver", self.name());
        let _timer = self.metrics.solve_ns.timer();
        debug_assert_entries_at_most_default(costs);
        let omega = costs.default_cost();
        let components = decompose(costs);
        if self.metrics.components.is_live() {
            self.metrics.components.record(components.len() as u64);
            for component in &components {
                self.metrics
                    .component_size
                    .record((component.rows.len() + component.cols.len()) as u64);
            }
        }
        // Small instances or a single component: skip the sharding overhead.
        if components.len() <= 1 {
            let solved = match components.into_iter().next() {
                Some(only) => stitch_component(&only, SparseKm.solve(&only.matrix), omega),
                None => Vec::new(),
            };
            return pad_assignment(costs.rows(), costs.cols(), omega, &solved);
        }
        let per_component: Vec<Vec<(usize, usize, f64)>> =
            parallel_map(&components, self.threads, |_, component| {
                stitch_component(component, SparseKm.solve(&component.matrix), omega)
            });
        let mut useful: Vec<(usize, usize, f64)> = per_component.into_iter().flatten().collect();
        useful.sort_by_key(|&(r, _, _)| r);
        pad_assignment(costs.rows(), costs.cols(), omega, &useful)
    }
}

/// Maps a component-local assignment's useful (sub-Ω) pairs back to global
/// `(row, col, cost)` triples.
fn stitch_component(
    component: &Component,
    local: Assignment,
    omega: f64,
) -> Vec<(usize, usize, f64)> {
    local
        .pairs()
        .filter_map(|(lr, lc)| {
            let cost = component.matrix.get(lr, lc);
            (cost < omega).then(|| (component.rows[lr], component.cols[lc], cost))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::DenseKm;

    fn block_diagonal() -> SparseCostMatrix {
        // Two 2×2 blocks plus an isolated row/column pair of Ω only.
        let mut costs = SparseCostMatrix::new(5, 5, 100.0);
        costs.set(0, 0, 1.0);
        costs.set(0, 1, 9.0);
        costs.set(1, 1, 2.0);
        costs.set(2, 2, 3.0);
        costs.set(3, 2, 1.0);
        costs.set(3, 3, 4.0);
        costs
    }

    #[test]
    fn decompose_finds_the_blocks() {
        let costs = block_diagonal();
        let components = decompose(&costs);
        assert_eq!(components.len(), 2);
        assert_eq!(components[0].rows, vec![0, 1]);
        assert_eq!(components[0].cols, vec![0, 1]);
        assert_eq!(components[1].rows, vec![2, 3]);
        assert_eq!(components[1].cols, vec![2, 3]);
        assert_eq!(components[0].edges(), 3);
        assert_eq!(components[1].edges(), 3);
        // Row 4 / col 4 carry no sub-Ω edge and belong to no component.
    }

    #[test]
    fn entries_at_the_default_do_not_join_components() {
        let mut costs = SparseCostMatrix::new(2, 2, 100.0);
        costs.set(0, 0, 1.0);
        costs.set(0, 1, 100.0); // == Ω: no better than rejection
        costs.set(1, 1, 2.0);
        let components = decompose(&costs);
        assert_eq!(components.len(), 2);
    }

    #[test]
    fn decomposed_matches_the_monolithic_solve() {
        let costs = block_diagonal();
        let whole = DenseKm.solve(&costs);
        for threads in [1, 2, 4] {
            let sharded = Decomposed::new(threads).solve(&costs);
            assert!((sharded.total_cost - whole.total_cost).abs() < 1e-9);
            assert_eq!(sharded.matched_pairs(), whole.matched_pairs());
            assert!(sharded.is_consistent());
        }
    }

    #[test]
    fn all_default_matrix_decomposes_to_nothing_and_pads() {
        let costs = SparseCostMatrix::new(3, 2, 42.0);
        assert!(decompose(&costs).is_empty());
        let a = Decomposed::new(1).solve(&costs);
        assert_eq!(a.matched_pairs(), 2);
        assert!((a.total_cost - 84.0).abs() < 1e-9);
    }

    #[test]
    fn thread_count_never_changes_the_assignment() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut costs = SparseCostMatrix::new(20, 18, 1000.0);
        for r in 0..20 {
            for c in 0..18 {
                if rng.random_range(0.0..1.0) < 0.12 {
                    costs.set(r, c, rng.random_range(0.0..900.0));
                }
            }
        }
        let reference = Decomposed::new(1).solve(&costs);
        for threads in [2, 3, 8, 32] {
            let solved = Decomposed::new(threads).solve(&costs);
            assert_eq!(solved, reference, "threads = {threads}");
        }
    }
}
