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
//! Each component carries its own sub-Ω edges in local indices, and the
//! Kuhn–Munkres kernel in `sparse_km` (a private module) solves them as
//! they are, with no matrix in between, so the component's optimum — its
//! sub-Ω pairs — is exactly the component's term. Mapping those pairs back
//! to global indices and re-padding therefore reproduces the dense optimum,
//! because the kernel is exact.
//!
//! Components are independent, so they are solved concurrently through the
//! shared deterministic [`parallel_map`]:
//! results come back in component order and each component's solve is
//! single-threaded, so the assignment is bit-identical for every thread
//! count.

use crate::matrix::{Assignment, SparseCostMatrix};
use crate::parallel::parallel_map;
use crate::solver::pad_assignment;
use crate::sparse_km::min_weight_matching;

/// One connected component of the finite-cost bipartite graph.
#[derive(Clone, Debug)]
pub struct Component {
    /// Global row indices in this component, ascending.
    pub rows: Vec<usize>,
    /// Global column indices in this component, ascending.
    pub cols: Vec<usize>,
    /// The component's sub-Ω entries as `(local row, local col, cost)`,
    /// where local index `i` stands for `rows[i]` / `cols[i]`, in the
    /// matrix's first-write order.
    pub edges: Vec<(usize, usize, f64)>,
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
    // Only rows/cols that carry at least one useful edge participate.
    let mut used = vec![false; n + m];
    for &(r, c, v) in costs.entries() {
        if v < omega {
            used[r] = true;
            used[n + c] = true;
            let (a, b) = (find(&mut parent, r), find(&mut parent, n + c));
            if a != b {
                // Union by smaller root id keeps roots deterministic.
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                parent[hi] = lo;
            }
        }
    }

    // Group rows, then columns, by root, ascending within each component;
    // `local[x]` is node `x`'s index inside its component.
    let mut component_of_root = vec![usize::MAX; n + m];
    let mut local = vec![0; n + m];
    let mut components: Vec<Component> = Vec::new();
    for x in (0..n + m).filter(|&x| used[x]) {
        let root = find(&mut parent, x);
        if component_of_root[root] == usize::MAX {
            debug_assert!(x < n, "a used column always shares a root with some used row");
            component_of_root[root] = components.len();
            components.push(Component { rows: Vec::new(), cols: Vec::new(), edges: Vec::new() });
        }
        let component = &mut components[component_of_root[root]];
        let line = if x < n { &mut component.rows } else { &mut component.cols };
        local[x] = line.len();
        line.push(if x < n { x } else { x - n });
    }
    for &(r, c, v) in costs.entries() {
        if v < omega {
            let idx = component_of_root[find(&mut parent, r)];
            components[idx].edges.push((local[r], local[n + c], v));
        }
    }
    components
}

/// The dispatch solver: shards the instance by connected component, solves
/// each component's edges independently — in parallel — and maps the
/// matched pairs back to global indices. Exact (see the module docs for the
/// proof sketch).
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
    /// The name the solver reports its `solver` span under.
    pub const NAME: &'static str = "decomposed-sparse-km";

    /// A solver whose per-component solves fan out over at most `threads`
    /// workers (`<= 1` solves components serially); the result is
    /// bit-identical for every value. Telemetry handles bind to the recorder
    /// installed at construction time: each solve is timed into
    /// `matching.solve_ns.decomposed-sparse-km` under a `solver` span.
    pub fn new(threads: usize) -> Self {
        Decomposed { threads: threads.max(1), metrics: DecomposedMetrics::acquire() }
    }

    /// Computes a minimum-cost assignment of `min(rows, cols)` pairs,
    /// bit-identical for every thread count.
    pub fn solve(&self, costs: &SparseCostMatrix) -> Assignment {
        let _span = foodmatch_telemetry::span("solver", Self::NAME);
        let _timer = self.metrics.solve_ns.timer();
        let omega = costs.default_cost();
        debug_assert!(
            costs.entries().iter().all(|&(_, _, v)| v <= omega),
            "the solver requires explicit entries <= default cost"
        );
        let components = decompose(costs);
        if self.metrics.components.is_live() {
            self.metrics.components.record(components.len() as u64);
            for component in &components {
                self.metrics
                    .component_size
                    .record((component.rows.len() + component.cols.len()) as u64);
            }
        }
        let per_component = parallel_map(&components, self.threads, |_, component| {
            let (rows, cols) = (&component.rows, &component.cols);
            min_weight_matching(rows.len(), cols.len(), omega, &component.edges)
                .into_iter()
                .map(|(lr, lc, cost)| (rows[lr], cols[lc], cost))
                .collect::<Vec<_>>()
        });
        let mut useful: Vec<(usize, usize, f64)> = per_component.into_iter().flatten().collect();
        useful.sort_by_key(|&(r, _, _)| r);
        pad_assignment(costs.rows(), costs.cols(), omega, &useful)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(components[0].edges, vec![(0, 0, 1.0), (0, 1, 9.0), (1, 1, 2.0)]);
        assert_eq!(components[1].edges, vec![(0, 0, 3.0), (1, 0, 1.0), (1, 1, 4.0)]);
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
