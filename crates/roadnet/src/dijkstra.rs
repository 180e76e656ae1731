//! Time-sliced shortest paths.
//!
//! The paper writes `SP(u, v, t)` for the length of the quickest path from
//! `u` to `v` "at time `t`": edge weights are evaluated at the query time and
//! treated as static for the duration of the query (the same snapshot
//! semantics used when building the FoodGraph). This module provides:
//!
//! * [`one_to_many`] / [`shortest_path`] — the reference answers: travel
//!   times from one source to a set of targets, and one quickest path, on
//!   `β(e, t)` or on the weights of a [`TrafficOverlay`]. A point query is a
//!   one-target sweep. The dispatcher asks [`crate::ShortestPathEngine`],
//!   which is held to these bit for bit.
//! * [`Expansion`] — a lazy best-first iterator yielding nodes in ascending
//!   distance from a source, which is exactly the primitive Algorithm 2 needs
//!   to find the `k` nearest batch start nodes of a vehicle, and which also
//!   accepts a custom edge weight — a function of the edge's travel time and
//!   of a *potential* of its head node, evaluated once per node — so the
//!   vehicle-sensitive weight `α(v, e, t)` of Eq. 8 can be plugged in.
//!
//! ## Two loops
//!
//! Every eager query — the two references here, the engine's sweeps, gated
//! sweeps ([`crate::gates`]) and path queries — is a few lines over one
//! kernel, `search`: Dijkstra under an edge-weight closure, run until the
//! marked targets are settled (or, gated, until only targets no open gate
//! wants are left), read back by `settled_time` or walked back by `path`.
//! It starts from one of two seeds: the source alone, or the engine's *tree
//! row* of the source — what earlier searches from it on the same weights
//! settled — which it settles again at the labels they popped and resumes
//! from. A change to the search loop lands there once.
//! [`Expansion`] is the only other loop, and stays one on purpose: it is
//! lazy (the caller decides when to stop, so it relaxes a node *before*
//! yielding it), and it carries two weights per label — the order it settles
//! in and the travel time along the tree — where the kernel carries one.
//!
//! ## Allocation-free steady state
//!
//! The dispatcher fires thousands of queries per accumulation window, and a
//! per-query `vec![f64::INFINITY; n]` makes the allocator the bottleneck long
//! before the graph search is. Every search therefore runs inside a reusable
//! [`SearchSpace`]: flat distance/parent/settled arrays stamped with a
//! *generation* counter, reset in O(1) by bumping the generation. The
//! references allocate a throwaway space; the engine keeps a pool of spaces,
//! hands one to each of its searches and to every [`Expansion`] through
//! [`crate::ShortestPathEngine::search_space`], so its hot path never touches
//! the allocator in steady state.

use crate::gates::Gates;
use crate::graph::{InEdge, RoadNetwork, MAX_IN_DEGREE};
use crate::ids::{EdgeId, NodeId};
use crate::overlay::{overlaid_secs, TrafficOverlay};
use crate::timeofday::{Duration, HourSlot, TimePoint};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no parent edge recorded".
pub(crate) const NO_EDGE: u32 = u32::MAX;

/// Tree-row markers beside in-edge ordinals: the row's own source, a node no
/// search from the source has settled yet, and a node no street reaches —
/// known only once a search has run the reachable graph dry. Ordinals stay
/// below all three: the builder caps a node's in-edges at `MAX_IN_DEGREE`.
pub(crate) const ROW_SOURCE: u8 = u8::MAX;
pub(crate) const ROW_UNSETTLED: u8 = u8::MAX - 1;
pub(crate) const ROW_UNREACHABLE: u8 = u8::MAX - 2;
const _: () = assert!(MAX_IN_DEGREE == ROW_UNREACHABLE as usize);

/// The result of a point-to-point shortest-path query.
#[derive(Clone, Debug, PartialEq)]
pub struct PathResult {
    /// Total traversal time of the path.
    pub travel_time: Duration,
    /// Total length of the path in meters.
    pub length_m: f64,
    /// The edges driven from source to target, in order (none when the
    /// source is the target).
    pub edges: Vec<EdgeId>,
}

/// Entry in the Dijkstra priority queue: `(cost bits, node)`, reversed so
/// the smallest pops first from Rust's max-heap. The bits of the costs
/// [`SearchSpace::push`] admits, `+0.0` to `+∞`, order as their values do,
/// so this is the order of cost, ties to the smaller node, in integer
/// compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct QueueEntry(Reverse<(u64, u32)>);

/// Reusable scratch memory for graph searches, reset in O(1).
///
/// All per-node state (tentative distance, an [`Expansion`]'s tree travel
/// time, parent edge, potential, settled flag, target mark) lives in flat
/// arrays alongside a *generation* stamp per node. A slot is only valid
/// when its stamp equals the space's current generation, so starting a new
/// search is a single counter bump — no `memset`, no allocation. The arrays grow to the largest
/// network seen and are then reused verbatim, which keeps steady-state
/// queries entirely allocation-free.
#[derive(Debug, Default)]
pub struct SearchSpace {
    dist: Vec<f64>,
    /// An [`Expansion`]'s second label; the eager kernel writes none.
    time: Vec<f64>,
    parent: Vec<u32>,
    /// Node potentials of an [`Expansion::with_potential`] search; slot
    /// `i` is valid exactly when `touched[i]` carries the current generation.
    potential: Vec<f64>,
    touched: Vec<u32>,
    settled: Vec<u32>,
    targeted: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<QueueEntry>,
    /// The nodes the current [`search`] popped, in pop order.
    popped: Vec<u32>,
    /// The tree row a [`Seed::Row`] search resumes, copied in through
    /// [`Self::row_buffer`], and whether the current search did; and the
    /// seed's scratch, one tree path.
    row: Vec<u8>,
    resumed: bool,
    path: Vec<(usize, InEdge)>,
}

impl SearchSpace {
    /// Creates an empty search space; arrays grow on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn grow(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.time.resize(n, f64::INFINITY);
            self.parent.resize(n, NO_EDGE);
            self.potential.resize(n, 0.0);
            self.touched.resize(n, 0);
            self.settled.resize(n, 0);
            self.targeted.resize(n, 0);
        }
    }

    /// Starts a fresh search over a network of `n` nodes: O(1) unless the
    /// space needs to grow or the 32-bit generation counter wraps (once every
    /// ~4 billion searches, at which point the stamps are re-zeroed).
    pub(crate) fn begin(&mut self, n: usize) {
        self.grow(n);
        if self.generation == u32::MAX {
            self.touched.fill(0);
            self.settled.fill(0);
            self.targeted.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.popped.clear();
    }

    /// The buffer a [`Seed::Row`] search reads its row from, `n` bytes: the
    /// caller copies a tree row in. It grows once and is then reused.
    pub(crate) fn row_buffer(&mut self, n: usize) -> &mut [u8] {
        self.row.resize(n, ROW_UNSETTLED);
        &mut self.row[..n]
    }

    #[inline]
    pub(crate) fn dist(&self, i: usize) -> f64 {
        if self.is_labelled(i) {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    /// Whether the current search has given `i` a label: every node it
    /// reached but those a row seed settled and nothing needed the label of.
    #[inline]
    fn is_labelled(&self, i: usize) -> bool {
        self.touched[i] == self.generation
    }

    /// The label of `node`, on the row of a [`Seed::Row`] search: climbs its
    /// tree path to the source or to a node already labelled, then labels
    /// the nodes on the way down, each its tail's label plus `edge_secs` of
    /// its parent edge — left to right, as the search that settled it
    /// summed.
    fn label_on_row(
        &mut self,
        network: &RoadNetwork,
        node: usize,
        edge_secs: &impl Fn(EdgeId) -> f64,
    ) -> f64 {
        let in_edges = network.in_edges();
        let mut path = std::mem::take(&mut self.path);
        let mut at = node;
        while !self.is_labelled(at) {
            match self.row[at] {
                ROW_SOURCE => self.label(at, 0.0, NO_EDGE),
                ordinal => {
                    let in_edge = in_edges.in_edge(NodeId::from_index(at), ordinal);
                    path.push((at, in_edge));
                    at = in_edge.tail.index();
                }
            }
        }
        while let Some((at, InEdge { edge, tail })) = path.pop() {
            let label = self.dist(tail.index()) + edge_secs(edge);
            self.label(at, label, edge.0);
        }
        self.path = path;
        self.dist(node)
    }

    /// The row the current search resumed, if it is a [`Seed::Row`] search:
    /// what it knows of the nodes the seed settled.
    pub(crate) fn resumed_row(&self) -> Option<&[u8]> {
        self.resumed.then_some(&self.row[..])
    }

    #[inline]
    pub(crate) fn time_of(&self, i: usize) -> f64 {
        debug_assert_eq!(self.touched[i], self.generation);
        self.time[i]
    }

    /// Labels `i`: its distance and parent edge in the current search.
    #[inline]
    fn label(&mut self, i: usize, dist: f64, parent: u32) {
        self.dist[i] = dist;
        self.parent[i] = parent;
        self.touched[i] = self.generation;
    }

    /// Labels `i` with an [`Expansion`]'s two weights.
    #[inline]
    fn update(&mut self, i: usize, dist: f64, time: f64, parent: u32) {
        self.time[i] = time;
        self.label(i, dist, parent);
    }

    /// The potential of `i` in the current search, from `compute` the first
    /// time it is asked for. A node's potential is asked for when an edge
    /// into it is relaxed, and the first such relaxation always improves on
    /// "unreached" and so touches the node — which is what marks the slot
    /// valid for the rest of this search, and stale for the next one.
    #[inline]
    fn potential(&mut self, i: usize, compute: impl FnOnce() -> f64) -> f64 {
        if self.touched[i] != self.generation {
            self.potential[i] = compute();
        }
        self.potential[i]
    }

    #[inline]
    pub(crate) fn is_settled(&self, i: usize) -> bool {
        self.settled[i] == self.generation
    }

    #[inline]
    pub(crate) fn settle(&mut self, i: usize) {
        self.settled[i] = self.generation;
    }

    #[inline]
    pub(crate) fn parent_edge(&self, i: usize) -> Option<EdgeId> {
        if self.touched[i] == self.generation && self.parent[i] != NO_EDGE {
            Some(EdgeId(self.parent[i]))
        } else {
            None
        }
    }

    /// `(node index, parent stamp)` of every node the current [`search`]
    /// settled by popping it, in pop order — the source's stamp is
    /// [`NO_EDGE`]; a row seed's nodes, popped by an earlier search, are in
    /// [`Self::resumed_row`] instead. A settled node's label and parent are
    /// final: a longer search from the same source on the same weights is
    /// the same pop sequence run further.
    pub(crate) fn settled_parents(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.popped.iter().map(|&i| (i as usize, self.parent[i as usize]))
    }

    /// Marks `i` as a target of the current search; false if already marked.
    #[inline]
    pub(crate) fn mark_target(&mut self, i: usize) -> bool {
        if self.targeted[i] == self.generation {
            false
        } else {
            self.targeted[i] = self.generation;
            true
        }
    }

    /// Consumes a target mark, returning true if `i` was still marked: when
    /// `i` is settled, or when a gated search stops waiting for it.
    #[inline]
    pub(crate) fn take_target(&mut self, i: usize) -> bool {
        if self.targeted[i] == self.generation {
            // Generation is >= 1 after `begin`, so 0 can never collide.
            self.targeted[i] = 0;
            true
        } else {
            false
        }
    }

    /// Queues `node` at `cost`.
    ///
    /// # Panics
    /// Panics if `cost` is NaN or below `+0.0` (`-0.0` included): the queue
    /// orders on the bits of a cost, which order as its value only from
    /// `+0.0` up.
    #[inline]
    pub(crate) fn push(&mut self, cost: f64, node: NodeId) {
        assert!(cost.to_bits() <= f64::INFINITY.to_bits(), "queue cost {cost} is not ≥ +0.0");
        self.heap.push(QueueEntry(Reverse((cost.to_bits(), node.0))));
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, NodeId)> {
        let QueueEntry(Reverse((bits, node))) = self.heap.pop()?;
        Some((f64::from_bits(bits), NodeId(node)))
    }
}

/// Where a [`search`] starts.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Seed {
    /// A fresh search: the source alone, at label 0.
    Source(NodeId),
    /// A resumed search: the tree row in the space's [`row
    /// buffer`](SearchSpace::row_buffer) — per node its parent edge's
    /// ordinal among the node's in-edges, or a `ROW_*` marker — left by
    /// earlier searches from its source on the same weights. Its nodes are
    /// settled again, none of them popped, and the out-edges that leave the
    /// row are relaxed; the search goes on from there. A seeded node gets a
    /// label only when one of those edges, or a target, needs it: its tail's
    /// label plus `edge_secs` of its parent edge, which is the label the
    /// search that settled it popped (and what the engine's walk re-sums).
    Row,
}

/// What a [`search`] did: `reach`, the last label it popped, which no node
/// it left unsettled is nearer than — infinite when it ran the reachable
/// graph dry, so that whatever it left unsettled is unreachable — and how
/// many nodes it `settled` by popping them (a row seed's are not counted).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Searched {
    pub(crate) reach: f64,
    pub(crate) settled: u64,
}

/// The eager search kernel: Dijkstra from `seed` under `edge_secs`, run
/// until every node of `targets` is settled or the reachable graph is
/// exhausted. Answers stay in `space` for [`settled_time`] and [`path_to`].
///
/// Resuming a row answers what the fresh search answers, bit for bit: a
/// row's settled set is a prefix of the fresh search's pop sequence, and
/// `fl(a + w)` is monotone in `a`, so the labels are the same fixpoint
/// whatever the order nodes settle in — a tie that picks another parent
/// still sums to the same bits.
///
/// With `gates`, a target stops being waited for once only closed gates
/// want it: the first label popped beyond a gate's radius decides the gate,
/// and a target it was the last reason for loses its mark. Below the
/// smallest undecided radius the loop is the plain one, one comparison per
/// pop apart.
///
/// Every eager query of the crate — point, one-to-many, gated and path, on
/// `β(e, t)` or on overlaid weights — is this loop; it is monomorphised per
/// weight closure, so the engine's closures cost nothing at run time (the
/// memo-free references pass theirs boxed).
pub(crate) fn search(
    network: &RoadNetwork,
    seed: Seed,
    targets: &[NodeId],
    mut gates: Option<&mut Gates<'_>>,
    space: &mut SearchSpace,
    edge_secs: impl Fn(EdgeId) -> f64,
) -> Searched {
    space.begin(network.node_count());
    space.resumed = matches!(seed, Seed::Row);
    match seed {
        Seed::Source(source) => {
            space.label(source.index(), 0.0, NO_EDGE);
            space.push(0.0, source);
        }
        Seed::Row => seed_row(network, space, &edge_secs),
    }
    let mut remaining = 0usize;
    for &target in targets {
        let i = target.index();
        if !space.is_settled(i) {
            remaining += usize::from(space.mark_target(i));
        } else {
            space.label_on_row(network, i, &edge_secs);
        }
    }
    let mut horizon = gates.as_deref().map_or(f64::INFINITY, Gates::horizon);
    let mut searched = Searched { reach: 0.0, settled: 0 };
    while remaining > 0 {
        let Some((cost, node)) = space.pop() else {
            return Searched { reach: f64::INFINITY, ..searched };
        };
        searched.reach = cost;
        if cost > horizon {
            let gates = gates.as_deref_mut().expect("only a gate sets a finite horizon");
            remaining -= gates.pass(cost, space);
            horizon = gates.horizon();
            if remaining == 0 {
                break;
            }
        }
        let i = node.index();
        if space.is_settled(i) || cost > space.dist(i) {
            continue;
        }
        space.settle(i);
        space.popped.push(node.0);
        searched.settled += 1;
        if space.take_target(i) {
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        relax(network, space, node, cost, &edge_secs);
    }
    searched
}

/// Relaxes the out-edges of `node`, settled at `cost`, into the queue.
#[inline]
fn relax(
    network: &RoadNetwork,
    space: &mut SearchSpace,
    node: NodeId,
    cost: f64,
    edge_secs: &impl Fn(EdgeId) -> f64,
) {
    for (eid, edge) in network.out_edges(node) {
        let to = edge.to.index();
        if space.is_settled(to) {
            continue;
        }
        let next = cost + edge_secs(eid);
        if next < space.dist(to) {
            space.label(to, next, eid.0);
            space.push(next, edge.to);
        }
    }
}

/// The [`Seed::Row`] seed: settles every node on the row, then relaxes the
/// out-edges that leave it. Only a node with such an edge needs its label,
/// so labels are summed on demand ([`SearchSpace::label_on_row`]).
fn seed_row(network: &RoadNetwork, space: &mut SearchSpace, edge_secs: &impl Fn(EdgeId) -> f64) {
    let n = space.row.len();
    for node in 0..n {
        if space.row[node] != ROW_UNSETTLED && space.row[node] != ROW_UNREACHABLE {
            space.settle(node);
        }
    }
    for node in 0..n {
        if !space.is_settled(node) {
            continue;
        }
        let mut cost = None;
        for (eid, edge) in network.out_edges(NodeId::from_index(node)) {
            let to = edge.to.index();
            if space.is_settled(to) {
                continue;
            }
            let cost = *cost.get_or_insert_with(|| space.label_on_row(network, node, edge_secs));
            let next = cost + edge_secs(eid);
            if next < space.dist(to) {
                space.label(to, next, eid.0);
                space.push(next, edge.to);
            }
        }
    }
}

/// The static weight `β(e, t)` in seconds, as a [`search`] closure. `t`'s
/// hour slot is resolved once, here, for every edge the closure prices.
#[inline]
pub(crate) fn beta_secs(network: &RoadNetwork, t: TimePoint) -> impl Fn(EdgeId) -> f64 + '_ {
    let slot = t.hour_slot();
    move |edge| network.beta_at(edge, slot).as_secs_f64()
}

/// The travel time [`search`] settled `node` at, `None` if it never was
/// (unreachable, or not a target and not on the way).
pub(crate) fn settled_time(space: &SearchSpace, node: NodeId) -> Option<Duration> {
    let i = node.index();
    space.is_settled(i).then(|| Duration::from_secs_f64(space.dist(i)))
}

/// The quickest path from `source` to `target` under `edge_secs`, searched
/// in `space`: [`search`], then a walk of the parent edges back from
/// `target`. `None` if `target` is unreachable. The edge sequence is the
/// only allocation.
pub(crate) fn path(
    network: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    space: &mut SearchSpace,
    edge_secs: impl Fn(EdgeId) -> f64,
) -> Option<PathResult> {
    search(network, Seed::Source(source), &[target], None, space, edge_secs);
    let travel_time = settled_time(space, target)?;
    let mut edges = Vec::new();
    let mut length_m = 0.0;
    let mut cursor = target;
    while cursor != source {
        let eid = space.parent_edge(cursor.index()).expect("reached node must have a parent edge");
        let edge = network.edge(eid);
        length_m += edge.length_m;
        cursor = edge.from;
        edges.push(eid);
    }
    edges.reverse();
    Some(PathResult { travel_time, length_m, edges })
}

/// The weights a reference query runs on: `β(e, t)`, or its overlaid
/// weights over `multipliers` ([`TrafficOverlay::edge_multipliers`]).
fn reference_secs<'a>(
    network: &'a RoadNetwork,
    t: TimePoint,
    multipliers: Option<&'a [f64]>,
) -> Box<dyn Fn(EdgeId) -> f64 + 'a> {
    match multipliers {
        None => Box::new(beta_secs(network, t)),
        Some(multipliers) => Box::new(overlaid_secs(network, multipliers, t)),
    }
}

/// Travel times from `source` to each of `targets` at time `t`, on `β(e, t)`
/// or, given an `overlay`, on its overlaid weights; `None` for an
/// unreachable target. One Dijkstra in a throwaway space, stopped once every
/// reachable target is settled. A point query is `one_to_many(.., &[b], ..)[0]`.
pub fn one_to_many(
    network: &RoadNetwork,
    source: NodeId,
    targets: &[NodeId],
    t: TimePoint,
    overlay: Option<&TrafficOverlay>,
) -> Vec<Option<Duration>> {
    let multipliers = overlay.map(|overlay| overlay.edge_multipliers(network));
    let edge_secs = reference_secs(network, t, multipliers.as_deref());
    let space = &mut SearchSpace::new();
    search(network, Seed::Source(source), targets, None, space, edge_secs);
    targets.iter().map(|&target| settled_time(space, target)).collect()
}

/// The quickest path (edge sequence, travel time, length) from `source` to
/// `target` at time `t`, on the weights [`one_to_many`] reads; `None` if
/// `target` is unreachable. One Dijkstra in a throwaway space.
pub fn shortest_path(
    network: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    t: TimePoint,
    overlay: Option<&TrafficOverlay>,
) -> Option<PathResult> {
    let multipliers = overlay.map(|overlay| overlay.edge_multipliers(network));
    let edge_secs = reference_secs(network, t, multipliers.as_deref());
    path(network, source, target, &mut SearchSpace::new(), edge_secs)
}

/// A node settled by a best-first [`Expansion`], together with its distance
/// from the source under the expansion's weight function and the accumulated
/// *temporal* distance (β-weights), which may differ when a custom weight is
/// in use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Settled {
    /// The settled node.
    pub node: NodeId,
    /// Distance from the source under the expansion's weight function.
    pub weight: f64,
    /// Travel time from the source accumulated along the same tree path.
    pub travel_time: Duration,
}

/// Lazy best-first expansion of the road network from a source node.
///
/// Yields nodes in non-decreasing order of accumulated weight. With the
/// default weight (the temporal edge weight `β(e, t)`) this is plain
/// Dijkstra; Algorithm 2 of the paper swaps in the vehicle-sensitive weight
/// `α(v, e, t)` (Eq. 8) via [`Expansion::with_potential`], so nodes pop in
/// an order that blends travel time with angular distance while the true
/// travel time along the tree path is still tracked for cost computations.
///
/// An expansion runs inside a caller's [`SearchSpace`] — one of the engine's
/// pool ([`crate::ShortestPathEngine::search_space`]) — so per-vehicle
/// expansions in the FoodGraph hot loop reuse one set of arrays instead of
/// allocating per vehicle.
pub struct Expansion<'a, P = fn(NodeId) -> f64, W = fn(f64, f64) -> f64> {
    network: &'a RoadNetwork,
    /// The hour slot of the expansion's `t`: all of `t` that `β` reads.
    slot: HourSlot,
    /// `(potential, weight)` of a custom-weight expansion; `None` means
    /// "use β(e, t)".
    custom: Option<(P, W)>,
    space: &'a mut SearchSpace,
    yielded_source: bool,
    source: NodeId,
}

impl<'a> Expansion<'a> {
    /// Starts a best-first expansion from `source`, inside `space`, using the
    /// temporal edge weight `β(e, t)`.
    pub fn new(
        network: &'a RoadNetwork,
        source: NodeId,
        t: TimePoint,
        space: &'a mut SearchSpace,
    ) -> Self {
        Self::build(network, source, t, None, space)
    }
}

impl<'a, P: Fn(NodeId) -> f64, W: Fn(f64, f64) -> f64> Expansion<'a, P, W> {
    /// Starts a best-first expansion from `source`, inside `space`, in which
    /// an edge `e = (u, u')` weighs `weight(potential(u'), β(e, t))` (must be
    /// non-negative and finite).
    ///
    /// `potential` is evaluated at most once per node per expansion, however
    /// many edges into the node are relaxed, and kept in the space: the place
    /// for whatever the weight needs that depends on the head node alone
    /// (Eq. 8's angular distance — a dozen transcendental calls).
    pub fn with_potential(
        network: &'a RoadNetwork,
        source: NodeId,
        t: TimePoint,
        potential: P,
        weight: W,
        space: &'a mut SearchSpace,
    ) -> Self {
        Self::build(network, source, t, Some((potential, weight)), space)
    }

    fn build(
        network: &'a RoadNetwork,
        source: NodeId,
        t: TimePoint,
        custom: Option<(P, W)>,
        space: &'a mut SearchSpace,
    ) -> Self {
        space.begin(network.node_count());
        space.update(source.index(), 0.0, 0.0, NO_EDGE);
        space.push(0.0, source);
        Expansion { network, slot: t.hour_slot(), custom, space, yielded_source: false, source }
    }

    /// `β(e, t)` in seconds, at the expansion's slot.
    #[inline]
    fn beta(&self, edge: EdgeId) -> f64 {
        self.network.beta_at(edge, self.slot).as_secs_f64()
    }

    fn relax(&mut self, node: NodeId) {
        let network = self.network;
        let base_w = self.space.dist(node.index());
        let base_t = self.space.time_of(node.index());
        for (eid, edge) in network.out_edges(node) {
            let to = edge.to.index();
            if self.space.is_settled(to) {
                continue;
            }
            let beta = self.beta(eid);
            let space = &mut *self.space;
            let w = match &self.custom {
                None => base_w + beta,
                Some((potential, weight)) => {
                    let w = weight(space.potential(to, || potential(edge.to)), beta);
                    debug_assert!(w.is_finite() && w >= 0.0, "edge weight must be non-negative");
                    base_w + w
                }
            };
            if w < space.dist(to) {
                space.update(to, w, base_t + beta, eid.0);
                space.push(w, edge.to);
            }
        }
    }
}

impl<P: Fn(NodeId) -> f64, W: Fn(f64, f64) -> f64> Iterator for Expansion<'_, P, W> {
    type Item = Settled;

    fn next(&mut self) -> Option<Settled> {
        if !self.yielded_source {
            self.yielded_source = true;
            self.space.settle(self.source.index());
            // Relax the source's out-edges before yielding it so that the
            // iterator is usable even if the caller stops immediately after.
            let source = self.source;
            self.relax(source);
            return Some(Settled { node: self.source, weight: 0.0, travel_time: Duration::ZERO });
        }
        loop {
            let (cost, node) = self.space.pop()?;
            let i = node.index();
            if self.space.is_settled(i) || cost > self.space.dist(i) {
                continue;
            }
            self.space.settle(i);
            self.relax(node);
            let travel_time = Duration::from_secs_f64(self.space.time_of(i));
            return Some(Settled { node, weight: cost, travel_time });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::congestion::{CongestionProfile, RoadClass};
    use crate::geo::GeoPoint;
    use crate::graph::RoadNetworkBuilder;

    /// A 2x3 grid with uniform 1000 m local edges (free flow ~144.9 s each).
    fn grid_2x3() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new().congestion(CongestionProfile::free_flow());
        let mut ids = Vec::new();
        for r in 0..2 {
            for c in 0..3 {
                ids.push(b.add_node(GeoPoint::new(r as f64 * 0.009, c as f64 * 0.009)));
            }
        }
        let at = |r: usize, c: usize| ids[r * 3 + c];
        for r in 0..2 {
            for c in 0..3 {
                if c + 1 < 3 {
                    b.add_bidirectional(at(r, c), at(r, c + 1), 1000.0, RoadClass::Local);
                }
                if r + 1 < 2 {
                    b.add_bidirectional(at(r, c), at(r + 1, c), 1000.0, RoadClass::Local);
                }
            }
        }
        b.build()
    }

    fn edge_secs() -> f64 {
        1000.0 / RoadClass::Local.free_flow_speed_mps()
    }

    /// The reference point query: a one-target sweep.
    fn point(net: &RoadNetwork, source: NodeId, target: NodeId, t: TimePoint) -> Option<Duration> {
        one_to_many(net, source, &[target], t, None)[0]
    }

    #[test]
    fn travel_time_matches_manhattan_distance_on_grid() {
        let net = grid_2x3();
        let t = TimePoint::from_hms(10, 0, 0);
        let d = point(&net, NodeId(0), NodeId(5), t).unwrap();
        assert!((d.as_secs_f64() - 3.0 * edge_secs()).abs() < 1e-6);
    }

    #[test]
    fn source_equals_target_is_zero() {
        let net = grid_2x3();
        let t = TimePoint::MIDNIGHT;
        assert_eq!(point(&net, NodeId(2), NodeId(2), t), Some(Duration::ZERO));
    }

    #[test]
    fn path_reconstruction_is_consistent() {
        let net = grid_2x3();
        let t = TimePoint::from_hms(8, 0, 0);
        let path = shortest_path(&net, NodeId(0), NodeId(5), t, None).unwrap();
        assert_eq!(path_end(&net, NodeId(0), &path.edges), NodeId(5));
        assert_eq!(path.edges.len(), 3);
        assert!((path.length_m - 3000.0).abs() < 1e-6);
        // Path travel time must equal the sum of its edge travel times.
        let mut total = 0.0;
        for &eid in &path.edges {
            total += net.travel_time(eid, t).as_secs_f64();
        }
        assert!((total - path.travel_time.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn unreachable_target_returns_none() {
        // Two disconnected nodes.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.1));
        let d = b.add_node(GeoPoint::new(0.0, 0.2));
        b.add_edge(a, c, 100.0, RoadClass::Local);
        let net = b.build();
        assert_eq!(point(&net, a, d, TimePoint::MIDNIGHT), None);
        assert!(shortest_path(&net, a, d, TimePoint::MIDNIGHT, None).is_none());
    }

    #[test]
    fn one_to_many_matches_individual_queries() {
        let net = grid_2x3();
        let t = TimePoint::from_hms(13, 0, 0);
        let targets = [NodeId(1), NodeId(4), NodeId(5), NodeId(0)];
        let batch = one_to_many(&net, NodeId(0), &targets, t, None);
        for (i, &target) in targets.iter().enumerate() {
            let single = point(&net, NodeId(0), target, t);
            assert_eq!(batch[i], single, "mismatch for {target}");
        }
    }

    #[test]
    fn one_to_many_handles_duplicate_targets() {
        let net = grid_2x3();
        let t = TimePoint::from_hms(13, 0, 0);
        let targets = [NodeId(4), NodeId(4), NodeId(0), NodeId(0)];
        let batch = one_to_many(&net, NodeId(0), &targets, t, None);
        assert_eq!(batch[0], batch[1]);
        assert_eq!(batch[2], Some(Duration::ZERO));
        assert_eq!(batch[3], Some(Duration::ZERO));
    }

    /// Where driving `edges` from `source` ends, asserting that each edge
    /// leaves the node the one before it reached.
    pub(crate) fn path_end(net: &RoadNetwork, source: NodeId, edges: &[EdgeId]) -> NodeId {
        edges.iter().fold(source, |at, &eid| {
            let edge = net.edge(eid);
            assert_eq!(edge.from, at, "{eid:?} does not leave {at}");
            edge.to
        })
    }

    /// Number of nodes `space` is currently sized for.
    pub(crate) fn node_capacity(space: &SearchSpace) -> usize {
        space.dist.len()
    }

    /// `net` plus one node no street reaches; edge ids are unchanged.
    pub(crate) fn with_island(net: &RoadNetwork) -> (RoadNetwork, NodeId) {
        let mut b = RoadNetworkBuilder::new().congestion(net.congestion().clone());
        for node in net.node_ids() {
            b.add_node(net.position(node));
        }
        for eid in net.edge_ids() {
            let e = net.edge(eid);
            b.add_edge(e.from, e.to, e.length_m, e.class);
        }
        let island = b.add_node(GeoPoint::new(0.0, 0.0));
        (b.build(), island)
    }

    /// The references are bodies over [`search`]; this pins that point,
    /// sweep and path read it alike, bit for bit, on `β` and on overlaid
    /// weights.
    #[test]
    fn point_sweep_and_path_agree_bit_for_bit_on_beta_and_overlaid_weights() {
        use crate::generators::RandomCityBuilder;
        let t = TimePoint::from_hms(19, 30, 0);
        let bits = |d: Option<Duration>| d.map(|d| d.as_secs_f64().to_bits());
        for seed in [3usize, 11, 29] {
            let city = RandomCityBuilder::new(120).seed(seed as u64).build();
            let (net, island) = with_island(&city);
            let mut slowed = TrafficOverlay::new();
            for eid in net.edge_ids().step_by(3) {
                slowed.slow_edge(eid, 2.5);
            }
            let n = city.node_count();
            let source = NodeId::from_index(seed);
            let (a, b) = (NodeId::from_index(n / 2), NodeId::from_index(n - 1));
            let sweep =
                |overlay, targets: &[NodeId]| one_to_many(&net, source, targets, t, overlay);

            // Rows: a self-pair, a duplicated target, an unreachable one.
            let targets = [source, a, b, a, island];
            for overlay in [None, Some(&slowed)] {
                let swept = sweep(overlay, &targets);
                assert_eq!(swept[0], Some(Duration::ZERO));
                for (&target, &swept) in targets.iter().zip(&swept) {
                    assert_eq!(swept.is_some(), target != island, "seed {seed}, {target}");
                    assert_eq!(bits(sweep(overlay, &[target])[0]), bits(swept));
                    let walked = shortest_path(&net, source, target, t, overlay);
                    assert_eq!(bits(walked.as_ref().map(|p| p.travel_time)), bits(swept));
                    if let Some(walked) = walked {
                        assert_eq!(path_end(&net, source, &walked.edges), target);
                    }
                }
                // Exhausting the graph for the island (nothing stops the
                // search early) leaves every reachable answer as it was.
                assert_eq!(sweep(overlay, &targets[..4]), swept[..4]);
            }
        }
    }

    #[test]
    fn one_to_all_covers_connected_grid() {
        let net = grid_2x3();
        let all: Vec<NodeId> = net.node_ids().collect();
        let d = one_to_many(&net, NodeId(0), &all, TimePoint::MIDNIGHT, None);
        assert_eq!(d.len(), 6);
        assert!(d.iter().all(|x| x.is_some()));
        assert_eq!(d[0], Some(Duration::ZERO));
    }

    #[test]
    fn expansion_in_borrowed_space_matches_owned() {
        let net = grid_2x3();
        let t = TimePoint::MIDNIGHT;
        let mut space = SearchSpace::new();
        for _ in 0..2 {
            let borrowed: Vec<Settled> = Expansion::new(&net, NodeId(0), t, &mut space).collect();
            let owned: Vec<Settled> =
                Expansion::new(&net, NodeId(0), t, &mut SearchSpace::new()).collect();
            assert_eq!(borrowed, owned);
        }
    }

    /// An expansion under `β` is Dijkstra run to exhaustion: it settles
    /// every reachable node, and each at the reference travel time to the
    /// bit, whatever searches ran in its space before.
    #[test]
    fn a_beta_expansion_settles_every_node_at_the_reference_time() {
        use crate::generators::{GridCityBuilder, RandomCityBuilder};
        let t = TimePoint::from_hms(18, 45, 0);
        let bits = |answers: &[Option<Duration>]| {
            answers.iter().map(|d| d.map(|d| d.as_secs_f64().to_bits())).collect::<Vec<_>>()
        };
        let mut space = SearchSpace::new();
        let city = RandomCityBuilder::new(150).seed(7).build();
        let grid = GridCityBuilder::new(6, 7).congestion(CongestionProfile::metropolitan()).build();
        for net in [with_island(&city).0, grid] {
            let all: Vec<NodeId> = net.node_ids().collect();
            for source in net.node_ids().step_by(9) {
                let want = one_to_many(&net, source, &all, t, None);
                let mut got = vec![None; net.node_count()];
                for settled in Expansion::new(&net, source, t, &mut space) {
                    assert_eq!(got[settled.node.index()], None, "{source}: settled twice");
                    got[settled.node.index()] = Some(settled.travel_time);
                }
                assert_eq!(bits(&got), bits(&want), "{source}");
            }
        }
    }

    #[test]
    fn search_space_is_reusable_across_queries() {
        let net = grid_2x3();
        let t = TimePoint::from_hms(9, 0, 0);
        let mut space = SearchSpace::new();
        // Interleave different query types in one space; results must match
        // the references, which search a fresh space, every time.
        for round in 0..3 {
            for s in 0..net.node_count() {
                let source = NodeId(s as u32);
                let target = NodeId(((s + round + 1) % net.node_count()) as u32);
                let beta = beta_secs(&net, t);
                search(&net, Seed::Source(source), &[target], None, &mut space, &beta);
                assert_eq!(
                    settled_time(&space, target),
                    point(&net, source, target, t),
                    "round {round}, {source}->{target}"
                );
                let targets: Vec<NodeId> = net.node_ids().collect();
                search(&net, Seed::Source(source), &targets, None, &mut space, &beta);
                assert_eq!(
                    targets.iter().map(|&target| settled_time(&space, target)).collect::<Vec<_>>(),
                    one_to_many(&net, source, &targets, t, None)
                );
                assert_eq!(
                    path(&net, source, target, &mut space, &beta),
                    shortest_path(&net, source, target, t, None)
                );
            }
        }
        assert_eq!(node_capacity(&space), net.node_count());
    }

    #[test]
    fn expansion_yields_nodes_in_nondecreasing_order() {
        let net = grid_2x3();
        let space = &mut SearchSpace::new();
        let weights: Vec<f64> =
            Expansion::new(&net, NodeId(0), TimePoint::MIDNIGHT, space).map(|s| s.weight).collect();
        assert_eq!(weights.len(), 6);
        for pair in weights.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12);
        }
    }

    #[test]
    fn expansion_with_custom_weight_changes_order_but_keeps_travel_time() {
        let net = grid_2x3();
        let t = TimePoint::MIDNIGHT;
        // A weight that strongly prefers edges leading to higher node ids.
        let mut space = SearchSpace::new();
        let expansion = Expansion::with_potential(
            &net,
            NodeId(0),
            t,
            |node| 1000.0 - f64::from(node.0),
            |potential, _beta| potential,
            &mut space,
        );
        let mut order = Vec::new();
        for settled in expansion {
            order.push(settled.node);
            if settled.node != NodeId(0) {
                // Travel time along the chosen tree path can never beat the
                // true shortest travel time.
                let best = point(&net, NodeId(0), settled.node, t).unwrap();
                assert!(settled.travel_time.as_secs_f64() + 1e-9 >= best.as_secs_f64());
            }
        }
        let by_travel_time: Vec<NodeId> =
            Expansion::new(&net, NodeId(0), t, &mut space).map(|s| s.node).collect();
        assert_eq!(order.len(), by_travel_time.len());
        assert_ne!(order, by_travel_time);
    }

    /// [`Expansion`] as it was when a custom weight was a closure over the
    /// *edge*, called for every relaxation: what the node-potential form must
    /// reproduce, settled node for settled node.
    fn per_edge_expansion(
        net: &RoadNetwork,
        source: NodeId,
        t: TimePoint,
        weight: impl Fn(EdgeId) -> f64,
    ) -> Vec<Settled> {
        let mut space = SearchSpace::new();
        space.begin(net.node_count());
        space.update(source.index(), 0.0, 0.0, NO_EDGE);
        space.settle(source.index());
        let relax = |space: &mut SearchSpace, node: NodeId| {
            let base_w = space.dist(node.index());
            let base_t = space.time_of(node.index());
            for (eid, edge) in net.out_edges(node) {
                let to = edge.to.index();
                if space.is_settled(to) {
                    continue;
                }
                let w = base_w + weight(eid);
                if w < space.dist(to) {
                    let time = base_t + net.travel_time(eid, t).as_secs_f64();
                    space.update(to, w, time, eid.0);
                    space.push(w, edge.to);
                }
            }
        };
        relax(&mut space, source);
        let mut out = vec![Settled { node: source, weight: 0.0, travel_time: Duration::ZERO }];
        while let Some((cost, node)) = space.pop() {
            let i = node.index();
            if space.is_settled(i) || cost > space.dist(i) {
                continue;
            }
            space.settle(i);
            relax(&mut space, node);
            let travel_time = Duration::from_secs_f64(space.time_of(i));
            out.push(Settled { node, weight: cost, travel_time });
        }
        out
    }

    /// A 7×8 grid whose intersections are knocked off the lattice and whose
    /// streets mix all three road classes, under rush-hour congestion: no two
    /// edges weigh the same, so equal sequences are not an accident of ties.
    fn jittered_grid() -> RoadNetwork {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ROWS: usize = 7;
        const COLS: usize = 8;
        let mut rng = StdRng::seed_from_u64(19);
        let mut b = RoadNetworkBuilder::new().congestion(CongestionProfile::metropolitan());
        for r in 0..ROWS {
            for c in 0..COLS {
                let jitter = |rng: &mut StdRng| rng.random_range(-0.0007..0.0007);
                b.add_node(GeoPoint::new(
                    12.9 + r as f64 * 0.0023 + jitter(&mut rng),
                    77.6 + c as f64 * 0.0023 + jitter(&mut rng),
                ));
            }
        }
        let at = |r: usize, c: usize| NodeId::from_index(r * COLS + c);
        let classes = [RoadClass::Local, RoadClass::Collector, RoadClass::Arterial];
        for r in 0..ROWS {
            for c in 0..COLS {
                for (nr, nc) in [(r, c + 1), (r + 1, c)] {
                    if nr < ROWS && nc < COLS {
                        let class = classes[rng.random_range(0..classes.len())];
                        b.add_edge_geodesic(at(r, c), at(nr, nc), class);
                        b.add_edge_geodesic(at(nr, nc), at(r, c), class);
                    }
                }
            }
        }
        b.build()
    }

    #[test]
    fn node_potential_expansion_equals_the_per_edge_closure_bit_for_bit() {
        use crate::geo::{angular_distance, AngularFrame};
        let net = jittered_grid();
        let t = TimePoint::from_hms(19, 30, 0);
        let max_beta = net.max_travel_time().as_secs_f64();
        let gamma = 0.5;
        let mut space = SearchSpace::new();
        let mut cases = 0;
        for source in net.node_ids().step_by(2).take(24) {
            let source_pos = net.position(source);
            // Three headings: a neighbour, the far corner, and the source
            // itself (no bearing: every angular distance is the neutral 0.5).
            let neighbour = net.out_edges(source).next().expect("grid node has a street").1.to;
            let far = NodeId::from_index(net.node_count() - 1 - source.index());
            for heading in [neighbour, far, source] {
                let heading_pos = net.position(heading);
                let want = per_edge_expansion(&net, source, t, |eid| {
                    let adist =
                        angular_distance(source_pos, heading_pos, net.position(net.edge(eid).to));
                    let beta = net.travel_time(eid, t).as_secs_f64();
                    (1.0 - gamma) * adist + gamma * beta / max_beta
                });
                let frame = AngularFrame::new(source_pos, heading_pos);
                let got: Vec<Settled> = Expansion::with_potential(
                    &net,
                    source,
                    t,
                    |node| frame.distance_to(net.position(node), net.lat_trig(node)),
                    |adist, beta| (1.0 - gamma) * adist + gamma * beta / max_beta,
                    &mut space,
                )
                .collect();
                assert_eq!(got.len(), net.node_count(), "{source} → {heading}");
                assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(&want) {
                    assert_eq!(got.node, want.node, "{source} → {heading}");
                    assert_eq!(got.weight.to_bits(), want.weight.to_bits());
                    let (got_secs, want_secs) =
                        (got.travel_time.as_secs_f64(), want.travel_time.as_secs_f64());
                    assert_eq!(got_secs.to_bits(), want_secs.to_bits());
                }
                cases += 1;
            }
        }
        assert!(cases >= 60);
    }

    #[test]
    fn potential_is_evaluated_once_per_node_and_never_served_stale() {
        use std::cell::{Cell, RefCell};
        let net = jittered_grid();
        let t = TimePoint::from_hms(12, 0, 0);
        let n = net.node_count();
        // One pooled space through every search, as the engine hands it out.
        let mut space = SearchSpace::new();
        for (round, source) in
            [NodeId(0), NodeId(17), NodeId(0), NodeId(55)].into_iter().enumerate()
        {
            // The potential differs from round to round, so a value kept
            // from the previous search would show up in the weights.
            let scale = 1.0 + round as f64;
            let potential_of = |node: NodeId| scale * f64::from(node.0 % 7);
            let evaluations = RefCell::new(vec![0u32; n]);
            let got: Vec<Settled> = Expansion::with_potential(
                &net,
                source,
                t,
                |node| {
                    evaluations.borrow_mut()[node.index()] += 1;
                    potential_of(node)
                },
                |potential, beta| potential + beta,
                &mut space,
            )
            .collect();
            let per_edge_calls = Cell::new(0);
            let want = per_edge_expansion(&net, source, t, |eid| {
                per_edge_calls.set(per_edge_calls.get() + 1);
                potential_of(net.edge(eid).to) + net.travel_time(eid, t).as_secs_f64()
            });
            assert_eq!(got, want, "round {round}");

            let evaluations = evaluations.into_inner();
            assert!(evaluations.iter().all(|&count| count <= 1), "round {round}");
            // Every node but the source is entered by some relaxed edge.
            let evaluated: u32 = evaluations.iter().sum();
            assert_eq!(evaluated as usize, n - 1, "round {round}");
            assert_eq!(evaluations[source.index()], 0);
            assert!(per_edge_calls.get() > 3 * (n - 1) / 2, "what the per-edge form paid");

            // A β search in between leaves touched nodes without a potential;
            // the next round must not read those slots either.
            search(
                &net,
                Seed::Source(NodeId(3)),
                &[NodeId(40)],
                None,
                &mut space,
                beta_secs(&net, t),
            );
        }
    }

    /// `beta_secs`, `overlaid_secs` and an [`Expansion`] resolve `t`'s hour
    /// slot once, when they are built, and price every edge as
    /// `travel_time(e, t)` does (times its multiplier under an overlay), to
    /// the bit: on every edge of a City B–sized network, in all 24 slots,
    /// either side of each hour boundary, and across a day wrap.
    #[test]
    fn a_slot_resolved_once_prices_every_edge_as_travel_time_does() {
        use crate::generators::RandomCityBuilder;
        let net = RandomCityBuilder::new(1200).radius_m(7_000.0).seed(0xB).build();
        let mut overlay = TrafficOverlay::new();
        for eid in net.edge_ids().step_by(3) {
            overlay.slow_edge(eid, 1.0 + f64::from(eid.0 % 7) / 4.0);
        }
        let multipliers = overlay.edge_multipliers(&net);
        let (hour, day) = (3600.0, 24.0 * 3600.0);
        let mut instants = Vec::new();
        for slot in 0..24 {
            let boundary = f64::from(slot) * hour;
            instants.extend([boundary - 1e-9, boundary, boundary + hour / 2.0]);
        }
        instants.extend([day - 1e-9, day, day + 1e-9, day + 13.5 * hour, -0.5 * hour]);
        let mut slots = std::collections::BTreeSet::new();
        let mut space = SearchSpace::new();
        for secs in instants {
            let t = TimePoint::from_secs_f64(secs);
            slots.insert(t.hour_slot().index());
            let (beta, overlaid) = (beta_secs(&net, t), overlaid_secs(&net, &multipliers, t));
            let expansion = Expansion::new(&net, NodeId(0), t, &mut space);
            for eid in net.edge_ids() {
                let want = net.travel_time(eid, t).as_secs_f64();
                assert_eq!(beta(eid).to_bits(), want.to_bits(), "{eid:?} at {secs}");
                assert_eq!(expansion.beta(eid).to_bits(), want.to_bits(), "{eid:?} at {secs}");
                let want = want * multipliers[eid.index()];
                assert_eq!(overlaid(eid).to_bits(), want.to_bits(), "{eid:?} at {secs}");
            }
        }
        assert_eq!(slots.len(), 24);
    }

    /// The queue pops by cost, ties to the smaller node, `+0.0` before any
    /// positive cost: the numeric order of `(cost, node)`, subnormals and
    /// `+∞` included.
    #[test]
    fn the_queue_pops_by_cost_then_by_the_smaller_node() {
        let pushed = [
            (2.5, 7),
            (2.5, 3),
            (f64::INFINITY, 0),
            (1.0, 6),
            (f64::MIN_POSITIVE / 2.0, 9),
            (2.5, 4),
            (0.0, 5),
            (f64::MIN_POSITIVE, 1),
            (0.0, 2),
            (1.0, 8),
        ];
        let mut space = SearchSpace::new();
        space.begin(10);
        for (cost, node) in pushed {
            space.push(cost, NodeId(node));
        }
        let popped: Vec<(f64, u32)> =
            std::iter::from_fn(|| space.pop()).map(|(cost, node)| (cost, node.0)).collect();
        let mut want = pushed.to_vec();
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN").then(a.1.cmp(&b.1)));
        let bits = |entries: &[(f64, u32)]| -> Vec<(u64, u32)> {
            entries.iter().map(|&(cost, node)| (cost.to_bits(), node)).collect()
        };
        assert_eq!(bits(&popped), bits(&want));
        assert_eq!(bits(&popped[..2]), [(0.0f64.to_bits(), 2), (0.0f64.to_bits(), 5)]);
    }

    fn push_one(cost: f64) {
        let mut space = SearchSpace::new();
        space.begin(1);
        space.push(cost, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is not ≥ +0.0")]
    fn a_nan_queue_cost_panics() {
        push_one(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "is not ≥ +0.0")]
    fn a_negative_queue_cost_panics() {
        push_one(-1e-12);
    }

    /// `-0.0` equals `+0.0` but its bits would order it last.
    #[test]
    #[should_panic(expected = "is not ≥ +0.0")]
    fn a_negative_zero_queue_cost_panics() {
        push_one(-0.0);
    }

    #[test]
    fn congestion_lengthens_peak_paths() {
        let mut b = RoadNetworkBuilder::new().congestion(CongestionProfile::metropolitan());
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.02));
        b.add_bidirectional(a, c, 2000.0, RoadClass::Arterial);
        let net = b.build();
        let night = point(&net, a, c, TimePoint::from_hms(3, 0, 0)).unwrap();
        let dinner = point(&net, a, c, TimePoint::from_hms(20, 0, 0)).unwrap();
        assert!(dinner > night);
    }
}
