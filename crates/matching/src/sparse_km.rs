//! Sparse Kuhn–Munkres: minimum-cost assignment without densifying Ω.
//!
//! A dense Kuhn–Munkres solver spends `O(rows²·cols)` touching every cell,
//! most of which carry the rejection penalty Ω in a sparsified FoodGraph.
//! This solver never materialises those cells. It exploits the *rejection
//! reduction*: for a matrix whose explicit entries never exceed the default
//! cost Ω (the FoodGraph invariant — Algorithm 2 clamps with `min(·, Ω)`),
//! the dense optimum over perfect matchings of size `t = min(rows, cols)`
//! decomposes as
//!
//! ```text
//!   min_dense = Ω·t + min over matchings M of explicit edges of Σ (c_e − Ω)
//! ```
//!
//! because any matching of explicit edges extends to size `t` with Ω edges
//! (the Ω graph is complete), and every reduced weight `c_e − Ω ≤ 0`. The
//! right-hand minimisation is a minimum-weight bipartite matching of
//! *unrestricted size* over only the explicit entries, solved here with
//! successive shortest augmenting paths under Johnson potentials: each round
//! runs one Dijkstra over the residual graph (all reduced arc costs ≥ 0) and
//! augments along the cheapest path, stopping as soon as the cheapest
//! augmenting path no longer has negative true cost. Path costs are
//! non-decreasing across rounds, so the stop is globally optimal.
//!
//! ## Early termination
//!
//! The per-round Dijkstra does not run the heap dry. The target is the free
//! column minimising the *true* path cost `dist(c) + pot_col(c)`, and any
//! node still in the heap at reduced distance `d` can only lead to free
//! columns of true cost at least `d + L`, where
//! `L = min over free columns of pot_col`. The search therefore stops at the
//! first pop with `d + L > min(best settled target so far, 0)` — the `0`
//! arm covers the round where no augmenting path is profitable and the
//! whole solve ends. The bound is strict, so every free column *tying* the
//! best true cost is settled before the stop: the selected target, the
//! augmenting path, and the potential updates (all settled nodes carry
//! final distances; unsettled ones sit above the update cap) are
//! bit-for-bit the ones a search that runs the heap dry produces.
//!
//! Complexity: `O(t · (E + V) log V)` with `E` the explicit entries and
//! `V = rows + cols` — independent of the Ω fill; early termination removes
//! most of the `(E + V) log V` constant on instances whose augmenting paths
//! are short. Fully deterministic: heap ties break on node index and the
//! adjacency is sorted by column.
//!
//! ## Pooled scratch
//!
//! The dispatch loop calls [`min_weight_matching`] once per window per
//! component, on instances of similar shape every time. All working state
//! — adjacency, matching and potential arrays, the Dijkstra heap and its
//! distance array — lives in a thread-local `Scratch` pool, so repeated solves on a
//! thread are allocation-free once the pool has grown to the workload's
//! high-water mark (the same idiom as `roadnet::dijkstra::SearchSpace`).
//! The per-round distance reset is O(1) via generation stamps: a slot's
//! distance counts only if its stamp matches the current round, everything
//! else reads as +∞. Pooling is invisible in the output — every array the
//! algorithm reads is (re)initialised per solve or stamped per round, and
//! the results stay bit-identical to the unpooled solver's.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry: smallest distance first, ties on the lower node index.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for BinaryHeap's max-heap semantics; distances are finite.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pooled per-thread working state of [`min_weight_matching`]. Every
/// vector grows to the workload's high-water mark and stays; the distance
/// array resets per Dijkstra round in O(1) via generation stamps.
#[derive(Default)]
struct Scratch {
    /// Per-row `(col, cost)` lists; inner vectors are reused.
    adj: Vec<Vec<(usize, f64)>>,
    match_row: Vec<Option<usize>>,
    match_col: Vec<Option<usize>>,
    pot_row: Vec<f64>,
    pot_col: Vec<f64>,
    /// `dist[i]` is meaningful only when `stamp[i] == generation`;
    /// everything else reads as +∞.
    dist: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    parent_col: Vec<usize>,
    parent_row: Vec<usize>,
    heap: BinaryHeap<HeapEntry>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Computes the minimum-weight (most negative) matching of reduced weights
/// `cost − omega` over `edges`, `(row, col, cost)` triples on `rows × cols`
/// with every cost below `omega`, returning the matched triples sorted by
/// row. Working state comes from the thread-local [`Scratch`] pool; only
/// the returned triples allocate in steady state.
pub(crate) fn min_weight_matching(
    rows: usize,
    cols: usize,
    omega: f64,
    edges: &[(usize, usize, f64)],
) -> Vec<(usize, usize, f64)> {
    SCRATCH
        .with(|scratch| min_weight_matching_in(&mut scratch.borrow_mut(), rows, cols, omega, edges))
}

fn min_weight_matching_in(
    scratch: &mut Scratch,
    n: usize,
    m: usize,
    omega: f64,
    edges: &[(usize, usize, f64)],
) -> Vec<(usize, usize, f64)> {
    let Scratch {
        adj,
        match_row,
        match_col,
        pot_row,
        pot_col,
        dist,
        stamp,
        generation,
        parent_col,
        parent_row,
        heap,
    } = scratch;

    // The edges with their original costs, sorted by column within each
    // row so the result is independent of insertion order, built into the
    // pooled row vectors. Every use takes the reduced weight `v − Ω < 0`.
    if adj.len() < n {
        adj.resize_with(n, Vec::new);
    }
    for row in adj[..n].iter_mut() {
        row.clear();
    }
    for &(r, c, v) in edges {
        debug_assert!(v < omega, "edges lie below the default cost");
        adj[r].push((c, v));
    }
    for row in adj[..n].iter_mut() {
        row.sort_by_key(|&(c, _)| c);
    }

    // Nodes: rows are 0..n, columns are n..n+m. The per-solve arrays are
    // fully re-initialised here; nothing from a previous solve leaks.
    match_row.clear();
    match_row.resize(n, None);
    match_col.clear();
    match_col.resize(m, None);
    // Johnson potentials keeping every residual arc's reduced cost ≥ 0:
    // pot_row starts at 0, pot_col at the cheapest incoming weight.
    pot_row.clear();
    pot_row.resize(n, 0.0);
    pot_col.clear();
    pot_col.resize(m, 0.0);
    for row in &adj[..n] {
        for &(c, v) in row {
            if v - omega < pot_col[c] {
                pot_col[c] = v - omega;
            }
        }
    }

    if stamp.len() < n + m {
        stamp.resize(n + m, 0);
        dist.resize(stamp.len(), f64::INFINITY);
    }
    parent_col.clear();
    parent_col.resize(m, usize::MAX);
    parent_row.clear();
    parent_row.resize(n, usize::MAX);

    loop {
        // One Dijkstra over the residual graph from every free useful row.
        // Bumping the generation invalidates every stamped distance — the
        // O(1) equivalent of refilling `dist` with +∞.
        if *generation == u32::MAX {
            stamp.fill(0);
            *generation = 0;
        }
        *generation += 1;
        let gen = *generation;
        let read_dist = |dist: &[f64], stamp: &[u32], i: usize| {
            if stamp[i] == gen {
                dist[i]
            } else {
                f64::INFINITY
            }
        };
        heap.clear();
        for r in 0..n {
            if match_row[r].is_none() && !adj[r].is_empty() {
                dist[r] = 0.0;
                stamp[r] = gen;
                heap.push(HeapEntry { dist: 0.0, node: r });
            }
        }
        // Early-termination machinery (see the module docs): `free_pot_min`
        // lower-bounds the potential of any candidate target column, and
        // `best_settled` tracks the best true cost among settled free
        // columns.
        let free_pot_min = (0..m)
            .filter(|&c| match_col[c].is_none())
            .map(|c| pot_col[c])
            .fold(f64::INFINITY, f64::min);
        let mut best_settled = f64::INFINITY;
        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > read_dist(dist, stamp, node) {
                continue; // stale entry
            }
            // Everything still in the heap leads to true costs of at least
            // `d + free_pot_min`; once that exceeds both the best settled
            // target and 0 (the no-augmentation stop), the round's outcome
            // is fixed.
            if d + free_pot_min > best_settled.min(0.0) {
                break;
            }
            if node < n {
                let r = node;
                for &(c, v) in &adj[r] {
                    if match_row[r] == Some(c) {
                        continue; // matched edges only have a backward arc
                    }
                    let reduced = (v - omega + pot_row[r] - pot_col[c]).max(0.0);
                    let nd = d + reduced;
                    if nd < read_dist(dist, stamp, n + c) {
                        dist[n + c] = nd;
                        stamp[n + c] = gen;
                        parent_col[c] = r;
                        heap.push(HeapEntry { dist: nd, node: n + c });
                    }
                }
            } else {
                let c = node - n;
                if match_col[c].is_none() {
                    // A settled free column: a candidate target with final
                    // distance, hence exact true cost.
                    best_settled = best_settled.min(d + pot_col[c]);
                }
                if let Some(r) = match_col[c] {
                    // Backward arc along the matched edge; its reduced cost is
                    // 0 up to floating-point noise.
                    let v = edge_cost(&adj[r], c);
                    let reduced = (-(v - omega + pot_row[r] - pot_col[c])).max(0.0);
                    let nd = d + reduced;
                    if nd < read_dist(dist, stamp, r) {
                        dist[r] = nd;
                        stamp[r] = gen;
                        parent_row[r] = c;
                        heap.push(HeapEntry { dist: nd, node: r });
                    }
                }
            }
        }

        // Cheapest augmenting path = free column minimising the *true* cost
        // (reduced distance un-telescoped through the potentials).
        let mut best: Option<(f64, usize)> = None;
        for c in 0..m {
            let d = read_dist(dist, stamp, n + c);
            if match_col[c].is_some() || !d.is_finite() {
                continue;
            }
            let true_cost = d + pot_col[c];
            if best.is_none_or(|(cost, _)| true_cost < cost) {
                best = Some((true_cost, c));
            }
        }
        let Some((best_cost, target)) = best else { break };
        if best_cost >= 0.0 {
            break; // no augmenting path improves on rejection
        }

        // Update potentials (capped at the target's distance — the classic
        // rule that keeps unreached arcs non-negative), then augment.
        let cap = read_dist(dist, stamp, n + target);
        for (r, pot) in pot_row.iter_mut().enumerate().take(n) {
            *pot += read_dist(dist, stamp, r).min(cap);
        }
        for (c, pot) in pot_col.iter_mut().enumerate().take(m) {
            *pot += read_dist(dist, stamp, n + c).min(cap);
        }
        let mut c = target;
        loop {
            let r = parent_col[c];
            let previous = match_row[r];
            match_row[r] = Some(c);
            match_col[c] = Some(r);
            match previous {
                Some(next) => c = next,
                None => break,
            }
        }
    }

    // The matched cost is read off the edge: `(v − Ω) + Ω` need not be `v`.
    (0..n).filter_map(|r| match_row[r].map(|c| (r, c, edge_cost(&adj[r], c)))).collect()
}

/// The cost of the edge to column `c` in one row's adjacency.
fn edge_cost(row: &[(usize, f64)], c: usize) -> f64 {
    row.iter()
        .find(|&&(cc, _)| cc == c)
        .map(|&(_, v)| v)
        .expect("matched edges come from the adjacency")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decomposed, SparseCostMatrix};

    #[test]
    fn empty_matrix_is_all_rejections() {
        assert!(min_weight_matching(3, 2, 100.0, &[]).is_empty());
        let a = Decomposed::new(1).solve(&SparseCostMatrix::new(3, 2, 100.0));
        assert_eq!(a.matched_pairs(), 2);
        assert!((a.total_cost - 200.0).abs() < 1e-9);
    }

    #[test]
    fn picks_the_global_optimum_not_the_greedy_one() {
        // The paper's Example 5/6 shape: greedy takes the 0 edge and is then
        // forced into rejection; the optimum pays 1 + 1.
        let edges = [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0)];
        assert_eq!(min_weight_matching(2, 2, 100.0, &edges), vec![(0, 1, 1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn leaves_worse_than_rejection_edges_alone() {
        // A single explicit edge exactly at Ω is no better than rejection;
        // it never reaches the kernel, and the solve pads instead.
        let mut costs = SparseCostMatrix::new(1, 2, 50.0);
        costs.set(0, 1, 50.0);
        let a = Decomposed::new(1).solve(&costs);
        assert_eq!(a.row_to_col, vec![Some(0)], "padding takes the first free column");
        assert!((a.total_cost - 50.0).abs() < 1e-9);
    }

    #[test]
    fn pooled_scratch_is_invisible_across_interleaved_shapes() {
        // Alternate between a large and a small instance so the pool's
        // high-water arrays dwarf the small solve, then pin every pooled
        // result bit-identical to one from a pristine scratch. Catches any
        // state leaking between solves (stale stamps, dirty adjacency rows,
        // oversized arrays read past their logical length).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut instances = Vec::new();
        for round in 0..6 {
            let (rows, cols) = if round % 2 == 0 { (40, 35) } else { (3, 4) };
            let mut edges = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if rng.random_range(0.0..1.0) < 0.2 {
                        edges.push((r, c, (rng.random_range(0..14) * 50) as f64));
                    }
                }
            }
            instances.push((rows, cols, edges));
        }
        for (rows, cols, edges) in &instances {
            let pooled = min_weight_matching(*rows, *cols, 700.0, edges);
            let pristine =
                min_weight_matching_in(&mut Scratch::default(), *rows, *cols, 700.0, edges);
            assert_eq!(pooled, pristine);
        }
    }
}
