//! Contraction hierarchies distance oracle.
//!
//! The fourth shortest-path backend (Geisberger et al.'s *contraction
//! hierarchies*): nodes are contracted one by one in ascending "importance",
//! inserting *shortcut* arcs that preserve shortest-path distances among the
//! remaining nodes; a query then runs two upward Dijkstra searches — forward
//! from the source, backward from the target — over a DAG-like search graph
//! whose depth is logarithmic in practice, which is what makes point-to-point
//! queries orders of magnitude faster than plain Dijkstra.
//!
//! Like [`crate::hub_labels`], an index is exact for one [`HourSlot`] (edge
//! weights are constant within a slot), so [`crate::ShortestPathEngine`]
//! keeps one lazily-built [`ContractionHierarchy`] per slot. Unlike hub
//! labels, the index also answers *path* queries: every shortcut remembers
//! its two constituent arcs, so a query result unpacks recursively into the
//! original edge sequence.
//!
//! Implementation notes:
//!
//! * **Node ordering** uses the classic edge-difference heuristic (shortcuts
//!   added minus arcs removed) plus a deleted-neighbours term, maintained
//!   *lazily*: a popped candidate is re-evaluated and re-queued if its
//!   priority is no longer minimal.
//! * **Witness searches** are budgeted: a search that exhausts its settle
//!   budget conservatively inserts the shortcut, which can only make the
//!   index larger, never incorrect.
//! * **Queries** are allocation-free in steady state: the bidirectional
//!   search runs in a pooled pair of generation-stamped
//!   [`SearchSpace`](crate::dijkstra::SearchSpace)s.

use crate::dijkstra::{SearchSpace, NO_EDGE};
use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, NodeId};
use crate::timeofday::{Duration, HourSlot, TimePoint};
use crate::{lock, PathResult};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// Cap on pooled query spaces (one pair is ~6 words per node; a handful
/// covers every worker thread of the dispatcher).
const MAX_POOLED_SPACES: usize = 32;

/// Settle budget for one witness search. Exhausting it falls back to
/// inserting the shortcut, so the constant trades index size for build time.
const WITNESS_SETTLE_BUDGET: usize = 512;

/// An arc of the hierarchy: an original road segment or a shortcut standing
/// for exactly two consecutive arcs.
#[derive(Clone, Copy, Debug)]
struct ChArc {
    from: u32,
    to: u32,
    weight: f64,
    kind: ArcKind,
}

#[derive(Clone, Copy, Debug)]
enum ArcKind {
    /// An original edge of the road network.
    Edge(EdgeId),
    /// A shortcut replacing `arcs[left]` followed by `arcs[right]`.
    Shortcut { left: u32, right: u32 },
}

/// One direction of the CSR search graph: for every node, the upward arcs
/// leaving it (forward: original direction; backward: reversed).
#[derive(Clone, Debug, Default)]
struct SearchGraph {
    offsets: Vec<u32>,
    /// `(neighbour, weight, arc index)` triples.
    arcs: Vec<(u32, f64, u32)>,
}

impl SearchGraph {
    #[inline]
    fn neighbours(&self, node: usize) -> &[(u32, f64, u32)] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.arcs[lo..hi]
    }
}

/// A 4-ary min-heap keyed on the raw bit pattern of a non-negative `f64`
/// (IEEE-754 orders non-negative floats like their bit patterns), with the
/// node id as a deterministic tie-break.
///
/// CH searches settle only a few dozen nodes, so per-operation constants
/// dominate; integer-comparing a shallow 4-ary heap is markedly cheaper than
/// `BinaryHeap`'s three-way `f64` comparator at these sizes.
#[derive(Debug, Default)]
struct MinQueue {
    data: Vec<(u64, u32)>,
}

impl MinQueue {
    #[inline]
    fn clear(&mut self) {
        self.data.clear();
    }

    #[inline]
    fn push(&mut self, cost: f64, node: u32) {
        debug_assert!(cost >= 0.0, "bit-ordered keys need non-negative costs");
        let mut i = self.data.len();
        self.data.push((cost.to_bits(), node));
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.data[parent] <= self.data[i] {
                break;
            }
            self.data.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn peek_cost(&self) -> f64 {
        self.data.first().map_or(f64::INFINITY, |&(bits, _)| f64::from_bits(bits))
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        let top = *self.data.first()?;
        let last = self.data.pop().expect("non-empty");
        if !self.data.is_empty() {
            self.data[0] = last;
            let mut i = 0;
            loop {
                let first_child = 4 * i + 1;
                if first_child >= self.data.len() {
                    break;
                }
                let mut smallest = first_child;
                for child in (first_child + 1)..(first_child + 4).min(self.data.len()) {
                    if self.data[child] < self.data[smallest] {
                        smallest = child;
                    }
                }
                if self.data[i] <= self.data[smallest] {
                    break;
                }
                self.data.swap(i, smallest);
                i = smallest;
            }
        }
        Some((f64::from_bits(top.0), top.1))
    }
}

/// A pooled pair of per-direction query states: generation-stamped node
/// arrays plus the dedicated queue.
#[derive(Debug, Default)]
struct QuerySpace {
    fwd: SearchSpace,
    bwd: SearchSpace,
    fwd_queue: MinQueue,
    bwd_queue: MinQueue,
}

/// Exact contraction-hierarchy index for one hour slot of a road network.
#[derive(Debug)]
pub struct ContractionHierarchy {
    slot: HourSlot,
    node_count: usize,
    /// All arcs: original edges first, then shortcuts (for unpacking).
    arcs: Vec<ChArc>,
    /// Forward upward graph: arcs `u → v` with `rank[v] > rank[u]`.
    fwd: SearchGraph,
    /// Backward upward graph: arcs `u → v` with `rank[u] > rank[v]`, stored
    /// at `v` (the backward search walks them head-to-tail).
    bwd: SearchGraph,
    /// Number of shortcut arcs inserted during preprocessing.
    shortcut_count: usize,
    /// Pool of bidirectional query spaces (forward, backward). Boxed on
    /// purpose: checkout/check-in then moves one pointer instead of the
    /// ~400-byte space struct while the pool lock is held.
    #[allow(clippy::vec_box)] // boxed on purpose, see above
    spaces: Mutex<Vec<Box<QuerySpace>>>,
}

impl ContractionHierarchy {
    /// Builds the hierarchy for `slot` by contracting every node in
    /// edge-difference order with lazy priority updates.
    pub fn build(network: &RoadNetwork, slot: HourSlot) -> Self {
        let n = network.node_count();
        let t = slot_time(slot);

        // Original arcs, weighted at the slot's representative time.
        let mut arcs: Vec<ChArc> = network
            .edge_ids()
            .map(|eid| {
                let edge = network.edge(eid);
                ChArc {
                    from: edge.from.0,
                    to: edge.to.0,
                    weight: network.travel_time(eid, t).as_secs_f64(),
                    kind: ArcKind::Edge(eid),
                }
            })
            .collect();

        // Dynamic adjacency over uncontracted nodes (arc indices).
        let mut out_arcs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_arcs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (idx, arc) in arcs.iter().enumerate() {
            out_arcs[arc.from as usize].push(idx as u32);
            in_arcs[arc.to as usize].push(idx as u32);
        }

        let mut contracted = vec![false; n];
        let mut deleted_neighbours = vec![0u32; n];
        let mut rank = vec![0u32; n];
        let mut witness = SearchSpace::with_capacity(n);
        let mut scratch = ContractionScratch::default();

        let mut queue: BinaryHeap<PriorityEntry> = (0..n as u32)
            .map(|node| PriorityEntry {
                priority: node_priority(
                    node,
                    &arcs,
                    &out_arcs,
                    &in_arcs,
                    &contracted,
                    &deleted_neighbours,
                    &mut witness,
                    &mut scratch,
                ),
                node,
            })
            .collect();

        let mut next_rank = 0u32;
        let mut shortcut_count = 0usize;
        while let Some(PriorityEntry { priority, node }) = queue.pop() {
            let v = node as usize;
            if contracted[v] {
                continue;
            }
            // Lazy update: re-evaluate; if the node is no longer (weakly)
            // minimal, re-queue it and look at the next candidate.
            let current = node_priority(
                node,
                &arcs,
                &out_arcs,
                &in_arcs,
                &contracted,
                &deleted_neighbours,
                &mut witness,
                &mut scratch,
            );
            if current > priority {
                if let Some(top) = queue.peek() {
                    if (current, node) > (top.priority, top.node) {
                        queue.push(PriorityEntry { priority: current, node });
                        continue;
                    }
                }
            }

            // Contract `v`. The lazy re-evaluation above already ran
            // gather_shortcuts for exactly this node and nothing has changed
            // since, so `scratch.shortcuts` holds the shortcuts to insert —
            // re-gathering here would double every witness search.
            for &(left, right, weight) in &scratch.shortcuts {
                let from = arcs[left as usize].from;
                let to = arcs[right as usize].to;
                let idx = arcs.len() as u32;
                arcs.push(ChArc { from, to, weight, kind: ArcKind::Shortcut { left, right } });
                out_arcs[from as usize].push(idx);
                in_arcs[to as usize].push(idx);
                shortcut_count += 1;
            }
            contracted[v] = true;
            rank[v] = next_rank;
            next_rank += 1;
            for &a in out_arcs[v].iter().chain(in_arcs[v].iter()) {
                let arc = &arcs[a as usize];
                for endpoint in [arc.from as usize, arc.to as usize] {
                    if endpoint != v && !contracted[endpoint] {
                        deleted_neighbours[endpoint] += 1;
                    }
                }
            }
        }

        // Split arcs into the two upward search graphs (ranks are distinct,
        // so every arc lands in exactly one).
        let fwd = build_search_graph(n, &arcs, &rank, true);
        let bwd = build_search_graph(n, &arcs, &rank, false);

        ContractionHierarchy {
            slot,
            node_count: n,
            arcs,
            fwd,
            bwd,
            shortcut_count,
            spaces: Mutex::new(Vec::new()),
        }
    }

    /// The hour slot this index was built for.
    pub fn slot(&self) -> HourSlot {
        self.slot
    }

    /// Number of shortcut arcs the preprocessing inserted (index-size metric
    /// reported by the benchmarks).
    pub fn shortcut_count(&self) -> usize {
        self.shortcut_count
    }

    /// Exact shortest travel time from `source` to `target`, or `None` if
    /// unreachable.
    pub fn travel_time(&self, source: NodeId, target: NodeId) -> Option<Duration> {
        let mut query = self.checkout();
        self.search(source, target, &mut query).map(|(dist, _)| Duration::from_secs_f64(dist))
    }

    /// Exact shortest travel times from `source` to each target (`None` for
    /// unreachable pairs), reusing one pooled space pair for the whole batch.
    pub fn travel_times_to_many(
        &self,
        source: NodeId,
        targets: &[NodeId],
    ) -> Vec<Option<Duration>> {
        let mut query = self.checkout();
        targets
            .iter()
            .map(|&target| {
                self.search(source, target, &mut query)
                    .map(|(dist, _)| Duration::from_secs_f64(dist))
            })
            .collect()
    }

    /// Shortest path with the full node sequence, unpacking shortcuts back
    /// into original road segments.
    pub fn shortest_path(
        &self,
        network: &RoadNetwork,
        source: NodeId,
        target: NodeId,
    ) -> Option<PathResult> {
        if source == target {
            return Some(PathResult {
                travel_time: Duration::ZERO,
                length_m: 0.0,
                nodes: vec![source],
            });
        }
        let mut query = self.checkout();
        let found = self.search(source, target, &mut query);
        found.map(|(dist, meet)| {
            // Walk parent arcs from the meeting node back to both endpoints,
            // then unpack every arc (shortcuts recurse) into edge ids.
            let mut up_arcs: Vec<u32> = Vec::new();
            let mut cursor = meet;
            loop {
                let parent = query.fwd.parent_raw(cursor);
                if parent == NO_EDGE {
                    break;
                }
                up_arcs.push(parent);
                cursor = self.arcs[parent as usize].from as usize;
            }
            up_arcs.reverse();
            let mut cursor = meet;
            loop {
                let parent = query.bwd.parent_raw(cursor);
                if parent == NO_EDGE {
                    break;
                }
                up_arcs.push(parent);
                cursor = self.arcs[parent as usize].to as usize;
            }

            let mut edges: Vec<EdgeId> = Vec::new();
            for &arc in &up_arcs {
                self.unpack_arc(arc, &mut edges);
            }
            let mut nodes = Vec::with_capacity(edges.len() + 1);
            nodes.push(source);
            let mut length_m = 0.0;
            for eid in edges {
                let edge = network.edge(eid);
                debug_assert_eq!(Some(&edge.from), nodes.last());
                nodes.push(edge.to);
                length_m += edge.length_m;
            }
            PathResult { travel_time: Duration::from_secs_f64(dist), length_m, nodes }
        })
    }

    /// Bidirectional upward Dijkstra. Returns the shortest distance and the
    /// meeting node (as an index), or `None` when unreachable.
    fn search(
        &self,
        source: NodeId,
        target: NodeId,
        query: &mut QuerySpace,
    ) -> Option<(f64, usize)> {
        if source == target {
            return Some((0.0, source.index()));
        }
        let QuerySpace { fwd, bwd, fwd_queue, bwd_queue } = query;
        fwd.begin(self.node_count);
        bwd.begin(self.node_count);
        fwd_queue.clear();
        bwd_queue.clear();
        fwd.update_no_time(source.index(), 0.0, NO_EDGE);
        fwd_queue.push(0.0, source.0);
        bwd.update_no_time(target.index(), 0.0, NO_EDGE);
        bwd_queue.push(0.0, target.0);

        let mut best = f64::INFINITY;
        let mut meet = usize::MAX;
        loop {
            let fwd_top = fwd_queue.peek_cost();
            let bwd_top = bwd_queue.peek_cost();
            // CH termination: neither queue can improve on the best meeting.
            if fwd_top.min(bwd_top) >= best {
                break;
            }
            // Pick the direction with the cheaper frontier. (Stall-on-demand
            // was tried here and measured as a net loss at our network sizes
            // — the searches are already only a few dozen pops — so the loop
            // stays lean; revisit once city graphs grow past ~10^5 nodes.)
            let (graph, space, other, queue) = if fwd_top <= bwd_top {
                (&self.fwd, &mut *fwd, &mut *bwd, &mut *fwd_queue)
            } else {
                (&self.bwd, &mut *bwd, &mut *fwd, &mut *bwd_queue)
            };
            let (cost, node) = queue.pop().expect("peeked cost implies an entry");
            let i = node as usize;
            if space.is_settled(i) || cost > space.dist(i) {
                continue;
            }
            space.settle(i);
            let opposite = other.dist(i);
            if opposite.is_finite() && cost + opposite < best {
                best = cost + opposite;
                meet = i;
            }
            for &(to, weight, arc) in graph.neighbours(i) {
                let j = to as usize;
                let next = cost + weight;
                // A label at or beyond `best` can never improve the meeting
                // (every continuation only adds weight), so don't queue it.
                if next < space.dist(j) && next < best {
                    space.update_no_time(j, next, arc);
                    queue.push(next, to);
                    // A relaxed node the other side already reached is a
                    // meeting candidate even if never settled on this side.
                    let opposite = other.dist(j);
                    if next + opposite < best {
                        best = next + opposite;
                        meet = j;
                    }
                }
            }
        }

        if best.is_finite() {
            Some((best, meet))
        } else {
            None
        }
    }

    fn unpack_arc(&self, arc: u32, out: &mut Vec<EdgeId>) {
        match self.arcs[arc as usize].kind {
            ArcKind::Edge(eid) => out.push(eid),
            ArcKind::Shortcut { left, right } => {
                self.unpack_arc(left, out);
                self.unpack_arc(right, out);
            }
        }
    }

    /// Checks a query space out of the pool; the guard returns it on drop,
    /// so every exit path (including panics) re-pools the space.
    fn checkout(&self) -> QueryGuard<'_> {
        let query = lock(self.spaces.lock()).pop().unwrap_or_default();
        QueryGuard { pool: &self.spaces, query: Some(query) }
    }
}

/// RAII checkout of a pooled [`QuerySpace`].
struct QueryGuard<'a> {
    #[allow(clippy::vec_box)] // mirrors the pool field: moves stay pointer-sized
    pool: &'a Mutex<Vec<Box<QuerySpace>>>,
    query: Option<Box<QuerySpace>>,
}

impl std::ops::Deref for QueryGuard<'_> {
    type Target = QuerySpace;
    fn deref(&self) -> &QuerySpace {
        self.query.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for QueryGuard<'_> {
    fn deref_mut(&mut self) -> &mut QuerySpace {
        self.query.as_mut().expect("present until drop")
    }
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        if let Some(query) = self.query.take() {
            let mut pool = lock(self.pool.lock());
            if pool.len() < MAX_POOLED_SPACES {
                pool.push(query);
            }
        }
    }
}

/// Scratch buffers reused across priority evaluations and contractions.
#[derive(Default)]
struct ContractionScratch {
    /// `(in-arc, out-arc, weight)` triples of the shortcuts a contraction
    /// would insert.
    shortcuts: Vec<(u32, u32, f64)>,
    /// Minimal in-arc per uncontracted in-neighbour.
    ins: Vec<(u32, u32, f64)>,
    /// Minimal out-arc per uncontracted out-neighbour.
    outs: Vec<(u32, u32, f64)>,
}

/// Min-heap entry of the contraction queue (ties broken by node id so the
/// ordering — and therefore the whole index — is deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PriorityEntry {
    priority: i64,
    node: u32,
}

impl PartialOrd for PriorityEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PriorityEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.priority, other.node).cmp(&(self.priority, self.node))
    }
}

/// Representative query time of a slot (edge weights are constant within a
/// slot, so any instant inside it works; mid-slot mirrors `hub_labels`).
fn slot_time(slot: HourSlot) -> TimePoint {
    TimePoint::from_hms(u32::from(slot.hour()), 30, 0)
}

/// Collects, per uncontracted neighbour of `v`, the cheapest in/out arcs —
/// the only arcs that can carry a shortest path through `v`.
fn collect_neighbour_arcs(
    v: u32,
    arcs: &[ChArc],
    out_arcs: &[Vec<u32>],
    in_arcs: &[Vec<u32>],
    contracted: &[bool],
    scratch: &mut ContractionScratch,
) {
    scratch.ins.clear();
    scratch.outs.clear();
    for &a in &in_arcs[v as usize] {
        let arc = &arcs[a as usize];
        let u = arc.from;
        if u == v || contracted[u as usize] {
            continue;
        }
        match scratch.ins.iter_mut().find(|(node, _, _)| *node == u) {
            Some(entry) if arc.weight < entry.2 => {
                entry.1 = a;
                entry.2 = arc.weight;
            }
            Some(_) => {}
            None => scratch.ins.push((u, a, arc.weight)),
        }
    }
    for &a in &out_arcs[v as usize] {
        let arc = &arcs[a as usize];
        let w = arc.to;
        if w == v || contracted[w as usize] {
            continue;
        }
        match scratch.outs.iter_mut().find(|(node, _, _)| *node == w) {
            Some(entry) if arc.weight < entry.2 => {
                entry.1 = a;
                entry.2 = arc.weight;
            }
            Some(_) => {}
            None => scratch.outs.push((w, a, arc.weight)),
        }
    }
}

/// Determines the shortcuts contracting `v` requires (into
/// `scratch.shortcuts`): for every in-neighbour `u` and out-neighbour `w`, a
/// shortcut `u → w` is needed unless a *witness* path avoiding `v` is at
/// least as short.
fn gather_shortcuts(
    v: u32,
    arcs: &[ChArc],
    out_arcs: &[Vec<u32>],
    in_arcs: &[Vec<u32>],
    contracted: &[bool],
    witness: &mut SearchSpace,
    scratch: &mut ContractionScratch,
) {
    collect_neighbour_arcs(v, arcs, out_arcs, in_arcs, contracted, scratch);
    scratch.shortcuts.clear();
    if scratch.ins.is_empty() || scratch.outs.is_empty() {
        return;
    }
    let ins = std::mem::take(&mut scratch.ins);
    let outs = std::mem::take(&mut scratch.outs);
    for &(u, in_arc, in_weight) in &ins {
        let cap = outs
            .iter()
            .filter(|&&(w, _, _)| w != u)
            .map(|&(_, _, out_weight)| in_weight + out_weight)
            .fold(0.0_f64, f64::max);
        witness_search(u, v, cap, &outs, arcs, out_arcs, contracted, witness);
        for &(w, out_arc, out_weight) in &outs {
            if w == u {
                continue;
            }
            let via = in_weight + out_weight;
            let witnessed =
                witness.is_settled(w as usize) && witness.dist(w as usize) <= via + 1e-9;
            if !witnessed {
                scratch.shortcuts.push((in_arc, out_arc, via));
            }
        }
    }
    scratch.ins = ins;
    scratch.outs = outs;
}

/// Budgeted multi-target Dijkstra from `u` over uncontracted nodes avoiding
/// `v`. Settled targets certify witness distances; an exhausted budget simply
/// leaves targets unsettled (⇒ shortcut inserted, conservatively).
#[allow(clippy::too_many_arguments)] // the build's arrays one by one: others are lent out mutably
fn witness_search(
    u: u32,
    v: u32,
    cap: f64,
    targets: &[(u32, u32, f64)],
    arcs: &[ChArc],
    out_arcs: &[Vec<u32>],
    contracted: &[bool],
    witness: &mut SearchSpace,
) {
    witness.begin(contracted.len());
    let mut remaining = 0usize;
    for &(w, _, _) in targets {
        if w != u && witness.mark_target(w as usize) {
            remaining += 1;
        }
    }
    witness.update(u as usize, 0.0, 0.0, NO_EDGE);
    witness.push(0.0, NodeId(u));
    let mut budget = WITNESS_SETTLE_BUDGET;
    while remaining > 0 && budget > 0 {
        let Some((cost, node)) = witness.pop() else { break };
        if cost > cap + 1e-9 {
            break;
        }
        let i = node.index();
        if witness.is_settled(i) || cost > witness.dist(i) {
            continue;
        }
        witness.settle(i);
        budget -= 1;
        if witness.take_target(i) {
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        for &a in &out_arcs[i] {
            let arc = &arcs[a as usize];
            let j = arc.to as usize;
            if arc.to == v || contracted[j] || witness.is_settled(j) {
                continue;
            }
            let next = cost + arc.weight;
            if next < witness.dist(j) {
                witness.update(j, next, next, NO_EDGE);
                witness.push(next, NodeId(arc.to));
            }
        }
    }
}

/// Priority of contracting `node` right now: the edge-difference heuristic
/// (shortcuts − removed arcs) plus the deleted-neighbours term that spreads
/// contraction evenly across the network.
#[allow(clippy::too_many_arguments)] // the build's arrays one by one: others are lent out mutably
fn node_priority(
    node: u32,
    arcs: &[ChArc],
    out_arcs: &[Vec<u32>],
    in_arcs: &[Vec<u32>],
    contracted: &[bool],
    deleted_neighbours: &[u32],
    witness: &mut SearchSpace,
    scratch: &mut ContractionScratch,
) -> i64 {
    gather_shortcuts(node, arcs, out_arcs, in_arcs, contracted, witness, scratch);
    let removed = (scratch.ins.len() + scratch.outs.len()) as i64;
    let added = scratch.shortcuts.len() as i64;
    2 * (added - removed) + i64::from(deleted_neighbours[node as usize])
}

/// Builds one direction of the upward search graph in CSR form.
fn build_search_graph(n: usize, arcs: &[ChArc], rank: &[u32], forward: bool) -> SearchGraph {
    let mut counts = vec![0u32; n + 1];
    let mut keep: Vec<(usize, u32)> = Vec::new();
    for (idx, arc) in arcs.iter().enumerate() {
        let (tail, head) = (arc.from as usize, arc.to as usize);
        if forward && rank[head] > rank[tail] {
            keep.push((tail, idx as u32));
            counts[tail + 1] += 1;
        } else if !forward && rank[tail] > rank[head] {
            keep.push((head, idx as u32));
            counts[head + 1] += 1;
        }
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut slots = vec![(0u32, 0.0f64, 0u32); keep.len()];
    for (node, idx) in keep {
        let arc = &arcs[idx as usize];
        let neighbour = if forward { arc.to } else { arc.from };
        slots[cursor[node] as usize] = (neighbour, arc.weight, idx);
        cursor[node] += 1;
    }
    SearchGraph { offsets, arcs: slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::RoadClass;
    use crate::dijkstra;
    use crate::generators::{GridCityBuilder, RandomCityBuilder};
    use crate::geo::GeoPoint;
    use crate::graph::RoadNetworkBuilder;

    fn assert_matches_dijkstra(network: &RoadNetwork, slot: HourSlot) {
        let index = ContractionHierarchy::build(network, slot);
        let t = slot_time(slot);
        let nodes: Vec<NodeId> = network.node_ids().collect();
        for &s in nodes.iter().step_by(3) {
            let reference = dijkstra::one_to_all(network, s, t);
            for (j, &g) in nodes.iter().enumerate().step_by(2) {
                let expected = reference[j];
                let got = index.travel_time(s, g);
                match (expected, got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(
                        (a.as_secs_f64() - b.as_secs_f64()).abs() < 1e-6,
                        "{s}->{g}: dijkstra {a:?} vs CH {b:?}"
                    ),
                    other => panic!("{s}->{g}: reachability mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let net = GridCityBuilder::new(6, 6).build();
        assert_matches_dijkstra(&net, HourSlot::new(13));
    }

    #[test]
    fn matches_dijkstra_on_random_city_at_peak() {
        let net = RandomCityBuilder::new(70).seed(9).build();
        assert_matches_dijkstra(&net, HourSlot::new(20));
    }

    #[test]
    fn matches_dijkstra_on_random_city_off_peak() {
        let net = RandomCityBuilder::new(50).seed(3).build();
        assert_matches_dijkstra(&net, HourSlot::new(4));
    }

    #[test]
    fn same_node_query_is_zero() {
        let net = GridCityBuilder::new(3, 3).build();
        let index = ContractionHierarchy::build(&net, HourSlot::new(0));
        assert_eq!(index.travel_time(NodeId(4), NodeId(4)), Some(Duration::ZERO));
    }

    #[test]
    fn disconnected_nodes_are_unreachable() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(GeoPoint::new(0.0, 0.0));
        let c = b.add_node(GeoPoint::new(0.0, 0.01));
        let lonely = b.add_node(GeoPoint::new(1.0, 1.0));
        b.add_bidirectional(a, c, 500.0, RoadClass::Local);
        let net = b.build();
        let index = ContractionHierarchy::build(&net, HourSlot::new(12));
        assert_eq!(index.travel_time(a, lonely), None);
        assert!(index.shortest_path(&net, a, lonely).is_none());
        assert!(index.travel_time(a, c).is_some());
    }

    #[test]
    fn unpacked_paths_are_valid_and_optimal() {
        let net = RandomCityBuilder::new(60).seed(5).build();
        let slot = HourSlot::new(13);
        let index = ContractionHierarchy::build(&net, slot);
        let t = slot_time(slot);
        let nodes: Vec<NodeId> = net.node_ids().collect();
        let mut checked = 0;
        for &s in nodes.iter().step_by(7) {
            for &g in nodes.iter().step_by(11) {
                let expected = dijkstra::shortest_path(&net, s, g, t);
                let got = index.shortest_path(&net, s, g);
                match (expected, got) {
                    (None, None) => {}
                    (Some(reference), Some(path)) => {
                        checked += 1;
                        assert_eq!(path.nodes.first(), Some(&s));
                        assert_eq!(path.nodes.last(), Some(&g));
                        assert!(
                            (path.travel_time.as_secs_f64() - reference.travel_time.as_secs_f64())
                                .abs()
                                < 1e-6,
                            "{s}->{g}: {path:?} vs {reference:?}"
                        );
                        // Consecutive nodes must be adjacent, and the edge
                        // times must sum to the reported travel time.
                        let mut total = 0.0;
                        for pair in path.nodes.windows(2) {
                            let (eid, _) = net
                                .out_edges(pair[0])
                                .find(|(_, e)| e.to == pair[1])
                                .expect("unpacked path nodes must be adjacent");
                            total += net.travel_time(eid, t).as_secs_f64();
                        }
                        assert!((total - path.travel_time.as_secs_f64()).abs() < 1e-6);
                    }
                    other => panic!("{s}->{g}: reachability mismatch {other:?}"),
                }
            }
        }
        assert!(checked > 0, "sampled pairs should include reachable ones");
    }

    #[test]
    fn to_many_matches_single_queries() {
        let net = GridCityBuilder::new(5, 5).build();
        let index = ContractionHierarchy::build(&net, HourSlot::new(12));
        let targets: Vec<NodeId> = net.node_ids().step_by(3).collect();
        let batch = index.travel_times_to_many(NodeId(2), &targets);
        for (i, &target) in targets.iter().enumerate() {
            assert_eq!(batch[i], index.travel_time(NodeId(2), target));
        }
    }

    #[test]
    fn build_is_deterministic() {
        let net = RandomCityBuilder::new(40).seed(17).build();
        let a = ContractionHierarchy::build(&net, HourSlot::new(12));
        let b = ContractionHierarchy::build(&net, HourSlot::new(12));
        assert_eq!(a.shortcut_count(), b.shortcut_count());
        assert_eq!(a.slot(), b.slot());
        for s in net.node_ids().step_by(5) {
            for g in net.node_ids().step_by(7) {
                assert_eq!(a.travel_time(s, g), b.travel_time(s, g));
            }
        }
    }
}
