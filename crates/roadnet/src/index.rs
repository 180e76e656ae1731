//! The distance oracle: one memoising Dijkstra engine.
//!
//! Higher layers (route planning, batching, FoodGraph construction, the
//! simulator) issue a very large number of `SP(u, v, t)` queries. The paper
//! answers them from hub labels; [`ShortestPathEngine`] returns the same
//! distances from Dijkstra plus a memo of what its searches found, one hour
//! slot at a time: `(source, target) → travel time` pairs, which pay off
//! because dispatch repeatedly asks about the same restaurant/customer nodes
//! within a window, and behind them the **tree rows** of sources that
//! *repeat* (below), which pay off because a vehicle that stands still, and
//! every restaurant, is swept again window after window with a few new
//! targets each time. The memo's one lock is never held across the fallback
//! Dijkstra run. A miss is one run of the kernel the free functions of
//! [`crate::dijkstra`] and [`crate::overlay`] run, so every answer is theirs
//! bit for bit.
//!
//! Path queries ([`ShortestPathEngine::shortest_path`]) are one pooled
//! Dijkstra. While a [`TrafficOverlay`] is installed
//! ([`ShortestPathEngine::set_overlay`]) the static memo answers on weights
//! that no longer hold, so it is not asked, and a miss of the
//! generation-stamped overlay memo — pairs and rows, the same two layers
//! read by the same code — is one Dijkstra on the overlaid weights.
//!
//! ## Tree rows
//!
//! Dijkstra's label of a node is the left-to-right sum of the edge weights
//! along its tree path, whatever the targets were, and a longer search from
//! the same source on the same weights is the same pop sequence run further.
//! So what one search *settled* answers later targets bit for bit. When a
//! sweep finds its source already known to the memo (≥ 1 hit) and still has
//! a miss, the search it has to run anyway leaves behind the parent edge of
//! every node it settled — one byte per network node: the parent edge's
//! ordinal among the node's in-edges (the network's in-edge table; the
//! builder caps a node's in-degree at
//! [`MAX_IN_DEGREE`](crate::graph::MAX_IN_DEGREE)), or one of the
//! three values above the ordinals, markers for the source, for "not
//! settled yet" and, once a search has run the reachable graph dry, for
//! "unreachable". Later sweeps and point queries from that source
//! probe the pair memo first (≈ 40 ns; a walk is ≈ 200 ns on City B —
//! `repeat_source` in the micro-benchmarks), then walk the parents back —
//! ordinal to in-edge to its tail — and re-sum the very closure the search
//! priced edges with (`β(e, t)`, or `β × multiplier` under an overlay).
//!
//! A row also keeps its **reach**, the largest label its searches popped (∞
//! once one ran dry): no node it has not settled is nearer. For targets the
//! tree does not reach, the search *resumes* the row instead of starting
//! over (`engine.rows.resumed`): the row, copied into the search's pooled
//! space, is settled again without a pop — a node's label summed only when
//! an edge leaving the row needs it — and the search goes on from the
//! frontier, to the same targets, and merges what it settled into the row.
//! That search settles (`engine.settled`) only nodes the row lacks, and the
//! labels are the fresh search's bit for bit (`dijkstra`, "Two loops"). The
//! engine never runs a search it would not have run without rows, nor one
//! that reaches farther than the fresh one: a gate the reach decides costs
//! no search (below), and every search that runs is one the fresh engine
//! would run past every label below the reach. Rows are budgeted by one
//! constant (`ROW_BUDGET_BYTES`, 640 KiB per engine), first come first kept
//! with no eviction; a source seen for the first time is never given one,
//! and a known source the budget refuses is counted (`engine.rows.refused`).
//!
//! ## Gated sweeps
//!
//! [`ShortestPathEngine::gated_travel_times`] sweeps from one source to
//! *required* targets and to the members of *gates* ([`GatedTargets`]): a
//! gate opens when one of its triggers lies within its radius, and only the
//! required targets and the members of open gates are answered. It is the
//! vehicle's start row of the FoodGraph — the first legs of its committed
//! orders required, one gate per offer with the first-mile bound as radius
//! and the offer's restaurants as triggers — and it is the same path as
//! [`ShortestPathEngine::travel_times_to_many`], which is a sweep with no
//! gates:
//!
//! * the pair memo and the tree row answer first, and what they know decides
//!   gates — a trigger known within the radius opens its gate, and a gate
//!   whose triggers are all known to lie beyond it closes with no search. A
//!   trigger the row has not settled is known to lie at least its reach
//!   away, so every gate of a radius below the reach is decided here;
//! * the one search, for what is still unknown and still wanted, runs in the
//!   Dijkstra kernel with the gates, resuming the row if the source has one:
//!   the first label it pops beyond a gate's radius decides the gate
//!   (everything nearer is settled by then) — open only on a trigger settled
//!   at a label within the radius, since a resumed search starts with row
//!   nodes settled beyond it — and a member only closed gates wanted stops
//!   being waited for. The search ends when nothing wanted is unsettled, so
//!   it never runs wider than the plain sweep of the same targets, and
//!   usually stops at the radius. A gate still undecided has a radius of at
//!   least the row's reach, and a target still unknown lies at least that
//!   far, so a fresh search would pop every label below the reach anyway:
//!   resuming can only save work;
//! * only settled targets are memoised. A search that ended by closing gates
//!   did not run dry: it writes no unreachable pair and no `ROW_UNREACHABLE`.
//!
//! So a gated sweep opens exactly the gates the plain sweep would, and
//! answers what it answers bit for bit as that sweep does.
//!
//! A point query ([`ShortestPathEngine::travel_time`]) is a one-target
//! sweep, so the memo has one query path. Pairs and rows carry a
//! `(generation, hour slot)` stamp, and any query with another stamp moves
//! the memo on: the rows and the pair memo of the hour that has
//! passed (or of the overlay generation that is gone) are dropped — which
//! is what pays for the rows. The static pair memo survives overlay
//! episodes of the same hour; rows do not (there is one set, behind
//! whichever pair memo is live).
//!
//! The engine is `Send + Sync` (interior mutability is `std::sync`: locks
//! taken through the crate's poison-recovering `lock`, and atomics) so
//! FoodGraph construction can fan out per-vehicle work across threads while
//! sharing one engine. Dijkstra fallbacks run in pooled
//! [`SearchSpace`]s (checked out per query, returned on drop — the pool
//! holds as many as were ever checked out at once), so steady-state
//! queries perform no allocation beyond their output and the memo's growth:
//! admitting a source allocates its one row, a row hit allocates nothing
//! (the path scratch lives in the memo), and a resumed search copies its
//! row into a buffer of the pooled space, checked out only when a search
//! runs;
//! [`ShortestPathEngine::search_space`] hands the same pooled spaces to
//! callers that drive their own [`Expansion`](crate::dijkstra::Expansion)s.

use crate::dijkstra::{
    self, SearchSpace, Seed, NO_EDGE, ROW_SOURCE, ROW_UNREACHABLE, ROW_UNSETTLED,
};
use crate::gates::{Answer, GatedAnswers, GatedTargets, Gates};
use crate::graph::{InEdge, InEdges, RoadNetwork};
use crate::ids::{EdgeId, NodeId};
use crate::lock;
use crate::overlay::{self, TrafficOverlay};
use crate::timeofday::{Duration, TimePoint};
use foodmatch_telemetry as telemetry;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// What every tree row of one engine may hold together, in bytes: a row is
/// one byte per network node, so an engine keeps `ROW_BUDGET_BYTES /
/// node_count` of them (546 on City B, 262 on the metro grid), first come
/// first kept — an evicting policy thrashes the moment the sources that
/// repeat outnumber the rows, because a fleet cycles through every window.
const ROW_BUDGET_BYTES: usize = 640 * 1024;

/// The engine's current traffic overlay, stamped with a generation counter.
/// Swapping the overlay bumps the generation, which invalidates every
/// memoised overlay answer without touching the static memo.
#[derive(Debug)]
struct OverlayVersion {
    generation: u64,
    /// The installed overlay as [`TrafficOverlay::edge_multipliers`] rendered
    /// it against the engine's network — one entry per edge, built whole for
    /// this generation and never patched — or empty when no overlay is
    /// active. The overlaid searches and `edge_travel_time` read this table;
    /// the sparse map it came from is not kept.
    multipliers: Vec<f64>,
}

/// The weights a memoised answer holds on: the overlay generation (`0` is
/// the static `β(e, t)`; an installed overlay is generation ≥ 1) and the
/// hour slot, which is all of `t` that `β` reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Stamp {
    generation: u64,
    slot: usize,
}

impl Stamp {
    fn new(generation: u64, t: TimePoint) -> Self {
        Stamp { generation, slot: t.hour_slot().index() }
    }

    /// Moves `held` on to `asked`, returning true when it did and what was
    /// held under the old stamp has to go. Every query, a point query as
    /// much as a sweep, moves the memo on to its own stamp, so a query for
    /// a trailing hour (an order's SDT asked at a `placed_at` before the
    /// hour turned) costs the new hour its memo — which changed no count on
    /// any benchmark workload.
    fn roll(held: &mut Option<Stamp>, asked: Stamp) -> bool {
        held.replace(asked) != Some(asked)
    }
}

/// `(source, target) → seconds` on the weights of one stamp at a time: the
/// travel time, or `f64::INFINITY` for "unreachable".
#[derive(Debug, Default)]
struct PairMemo {
    stamp: Option<Stamp>,
    map: HashMap<(NodeId, NodeId), f64>,
}

impl PairMemo {
    /// The answer held for `pair`, if any.
    fn get(&self, pair: (NodeId, NodeId)) -> Option<Option<Duration>> {
        self.map.get(&pair).copied().map(decode)
    }

    fn remember(&mut self, pair: (NodeId, NodeId), answer: Option<Duration>) {
        self.map.insert(pair, encode(answer));
    }
}

/// What the engine remembers: the two pair memos — `pairs[0]` on the
/// static weights, one hour at a time (kept across overlay episodes),
/// `pairs[1]` on the active overlay generation — and, behind whichever the
/// query runs on, the tree rows of the sources that repeat. Everything is
/// probed, nothing iterated; a stamp that moves on clears lazily, on the
/// first touch that notices.
#[derive(Debug, Default)]
struct Memo {
    pairs: [PairMemo; 2],
    rows_stamp: Option<Stamp>,
    /// Source → its tree row; [`ROW_BUDGET_BYTES`] caps how many.
    rows: HashMap<NodeId, TreeRow>,
    /// Scratch of [`walk`]: the edges of one tree path, target first.
    path: Vec<EdgeId>,
}

impl Memo {
    /// Prepares the rows and the pair memo of that kind of weights for a
    /// query on `stamp` (see [`Stamp::roll`]); the rows it drops free their
    /// share of the budget.
    fn roll_to(&mut self, overlaid: bool, stamp: Stamp) {
        if Stamp::roll(&mut self.rows_stamp, stamp) {
            self.rows.clear();
        }
        let memo = &mut self.pairs[usize::from(overlaid)];
        if Stamp::roll(&mut memo.stamp, stamp) {
            memo.map.clear();
        }
    }
}

/// A source's shortest-path tree as far as searches from it have settled
/// it: per node the parent edge's in-ordinal or a `ROW_*` marker
/// ([`crate::dijkstra`]), and `reach`, the largest label those searches
/// popped — infinite once one ran dry. No node the row has not settled is
/// nearer than `reach`.
#[derive(Debug)]
struct TreeRow {
    parents: Box<[u8]>,
    reach: f64,
}

/// Reads `target` off a tree row: `None` when no search has settled it
/// yet, else the answer the search that settled it gave, bit for bit —
/// Dijkstra's label of a node is the left-to-right sum of `edge_secs` along
/// its tree path, whatever the targets were and however far the search ran.
fn walk(
    row: &[u8],
    in_edges: &InEdges,
    target: NodeId,
    path: &mut Vec<EdgeId>,
    edge_secs: impl Fn(EdgeId) -> f64,
) -> Option<Option<Duration>> {
    path.clear();
    let mut node = target;
    loop {
        match row[node.index()] {
            ROW_SOURCE => break,
            ROW_UNSETTLED => return None,
            ROW_UNREACHABLE => return Some(None),
            ordinal => {
                let InEdge { edge, tail } = in_edges.in_edge(node, ordinal);
                path.push(edge);
                node = tail;
            }
        }
    }
    let secs = path.iter().rev().fold(0.0, |secs, &edge| secs + edge_secs(edge));
    Some(Some(Duration::from_secs_f64(secs)))
}

/// Merges what the search in `space` settled, up to `reach`, into its
/// source's `row`: the row it resumed, if it did, and each parent edge of
/// a node it labelled as its in-ordinal. A node the row holds already keeps
/// its parent: any parent a search on these weights gave it sums to the
/// same label. An infinite `reach` says the search exhausted the reachable
/// graph (it ended with a target unsettled), so whatever is still unsettled
/// is unreachable.
fn grow(row: &mut TreeRow, in_edges: &InEdges, space: &SearchSpace, reach: f64) {
    if let Some(seed) = space.resumed_row() {
        for (held, &seeded) in row.parents.iter_mut().zip(seed) {
            if *held == ROW_UNSETTLED {
                *held = seeded;
            }
        }
    }
    for (node, parent) in space.settled_parents() {
        if row.parents[node] == ROW_UNSETTLED {
            row.parents[node] =
                if parent == NO_EDGE { ROW_SOURCE } else { in_edges.in_ordinal(EdgeId(parent)) };
        }
    }
    row.reach = row.reach.max(reach);
    if reach == f64::INFINITY {
        for parent in row.parents.iter_mut().filter(|parent| **parent == ROW_UNSETTLED) {
            *parent = ROW_UNREACHABLE;
        }
    }
}

/// Shared, thread-safe shortest-path oracle over a [`RoadNetwork`].
#[derive(Clone)]
pub struct ShortestPathEngine {
    inner: Arc<EngineInner>,
}

/// Telemetry handles, acquired once at engine construction. Inert (every
/// update a no-op) when no recorder is installed at that point; strictly
/// observational either way — recording never changes an answer.
struct EngineMetrics {
    /// `engine.queries` — every point/one-to-many/path query.
    queries: telemetry::Counter,
    /// `engine.searches` — graph searches actually *run*: every point
    /// search, one-to-many sweep, overlay search and best-first expansion
    /// checks one space out of the pool. (The `backend` counter counts the
    /// pairs a search answered, so a sweep of ten misses is ten there and
    /// one here.)
    searches: telemetry::Counter,
    /// `engine.foodgraph.sources` — rows swept by the FoodGraph's resolve
    /// phase, reported through [`ShortestPathEngine::note_foodgraph_sources`].
    foodgraph_sources: telemetry::Counter,
    /// `engine.memo.hits` / `.misses` — static memo traffic. A pair read off
    /// a tree row is a hit, one the row does not reach and the pair memo does
    /// not hold a miss — in a gated sweep, only while some gate still wants
    /// it.
    memo_hits: telemetry::Counter,
    memo_misses: telemetry::Counter,
    /// `engine.overlay_memo.hits` / `.misses` — generation-stamped
    /// overlay memo traffic, rows included.
    overlay_hits: telemetry::Counter,
    overlay_misses: telemetry::Counter,
    /// `engine.rows.hits` — the hits above that a tree row answered;
    /// `engine.rows.admitted` — rows allocated; `engine.rows.refused` —
    /// searches from a known source that wanted a row and found the budget
    /// spent.
    rows_hits: telemetry::Counter,
    rows_admitted: telemetry::Counter,
    rows_refused: telemetry::Counter,
    /// `engine.rows.resumed` — searches seeded from a tree row, which
    /// settle the row's nodes again without popping them.
    rows_resumed: telemetry::Counter,
    /// `engine.settled` — nodes the memo's searches settled by popping
    /// them; a row seed's are not counted.
    settled: telemetry::Counter,
    /// `engine.backend.dijkstra.queries` — static-memo misses a search
    /// answered (a miss a gated search stopped short of was answered by
    /// none). Pairs asked under an overlay are not in it.
    backend_dijkstra: telemetry::Counter,
    /// `engine.gates.closed` — gates of gated sweeps that a search closed
    /// before it reached any of their triggers: the offers a vehicle's start
    /// row stopped short of.
    gates_closed: telemetry::Counter,
}

impl EngineMetrics {
    #[expect(clippy::disallowed_methods, reason = "the constructor acquires each handle once")]
    fn acquire() -> Self {
        EngineMetrics {
            queries: telemetry::counter("engine.queries"),
            searches: telemetry::counter("engine.searches"),
            foodgraph_sources: telemetry::counter("engine.foodgraph.sources"),
            memo_hits: telemetry::counter("engine.memo.hits"),
            memo_misses: telemetry::counter("engine.memo.misses"),
            overlay_hits: telemetry::counter("engine.overlay_memo.hits"),
            overlay_misses: telemetry::counter("engine.overlay_memo.misses"),
            rows_hits: telemetry::counter("engine.rows.hits"),
            rows_admitted: telemetry::counter("engine.rows.admitted"),
            rows_refused: telemetry::counter("engine.rows.refused"),
            rows_resumed: telemetry::counter("engine.rows.resumed"),
            settled: telemetry::counter("engine.settled"),
            backend_dijkstra: telemetry::counter("engine.backend.dijkstra.queries"),
            gates_closed: telemetry::counter("engine.gates.closed"),
        }
    }
}

struct EngineInner {
    network: RoadNetwork,
    /// What the engine remembers of the searches it ran: the static pair
    /// memo, the overlay pair memo, and the tree rows behind both.
    memo: Mutex<Memo>,
    /// Pool of reusable Dijkstra search spaces.
    spaces: Mutex<Vec<SearchSpace>>,
    /// The active traffic overlay (empty at generation 0). Swapped whole so
    /// in-flight queries keep a consistent snapshot.
    overlay: RwLock<Arc<OverlayVersion>>,
    /// Fast-path flag mirroring `overlay`'s emptiness, so unperturbed queries
    /// skip the read lock entirely.
    overlay_active: AtomicBool,
    queries: AtomicU64,
    metrics: EngineMetrics,
}

impl ShortestPathEngine {
    /// Creates the engine over `network`, its memo empty.
    pub fn cached(network: RoadNetwork) -> Self {
        ShortestPathEngine {
            inner: Arc::new(EngineInner {
                network,
                memo: Mutex::new(Memo::default()),
                spaces: Mutex::new(Vec::new()),
                overlay: RwLock::new(Arc::new(OverlayVersion {
                    generation: 0,
                    multipliers: Vec::new(),
                })),
                overlay_active: AtomicBool::new(false),
                queries: AtomicU64::new(0),
                metrics: EngineMetrics::acquire(),
            }),
        }
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.inner.network
    }

    /// Number of `(source, target)` pairs asked so far, answered or not (for
    /// benchmarks).
    pub fn query_count(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Observational: the FoodGraph's resolve phase swept `rows` distinct
    /// sources for one window (`engine.foodgraph.sources`). The counter
    /// lives here because the engine is the one long-lived object the window
    /// stages share, so its handle is acquired once, at construction.
    pub fn note_foodgraph_sources(&self, rows: usize) {
        self.inner.metrics.foodgraph_sources.add(rows as u64);
    }

    /// Checks a reusable [`SearchSpace`] out of the engine's pool; it returns
    /// to the pool when the guard drops. Callers that run their own
    /// [`Expansion`](crate::dijkstra::Expansion)s (the FoodGraph's per-vehicle
    /// best-first searches) use this so repeated searches stay
    /// allocation-free.
    pub fn search_space(&self) -> PooledSpace {
        self.inner.metrics.searches.inc();
        let space = lock(self.inner.spaces.lock()).pop().unwrap_or_default();
        PooledSpace { space: Some(space), engine: Arc::clone(&self.inner) }
    }

    /// `SP(source, target, t)`: shortest travel time at time `t`, or `None`
    /// if the target is unreachable. When a [`TrafficOverlay`] is active the
    /// answer is exact on the perturbed weights (see [`Self::set_overlay`]).
    /// A one-target sweep: the memo has one query path.
    pub fn travel_time(&self, source: NodeId, target: NodeId, t: TimePoint) -> Option<Duration> {
        self.sweep(source, &[target], None, t)[0].expect("a sweep with no gates answers all")
    }

    /// Travel times from `source` to several `targets`: what the memo knows,
    /// then one search for the rest.
    pub fn travel_times_to_many(
        &self,
        source: NodeId,
        targets: &[NodeId],
        t: TimePoint,
    ) -> Vec<Option<Duration>> {
        let answers = self.sweep(source, targets, None, t);
        answers
            .into_iter()
            .map(|answer| answer.expect("a sweep with no gates answers all"))
            .collect()
    }

    /// A gated sweep from `source` (see "Gated sweeps" above): travel times
    /// to the required targets and to the members of every gate with a
    /// trigger within its radius, and which gates those are — from a search
    /// that stops once nothing still wanted is unsettled. Every pair asked
    /// counts as a query, answered or not.
    pub fn gated_travel_times(
        &self,
        source: NodeId,
        asked: &GatedTargets,
        t: TimePoint,
    ) -> GatedAnswers {
        let (nodes, layout) = asked.layout();
        let mut gates = Gates::new(asked, &nodes, layout);
        let answers = self.sweep(source, &nodes, Some(&mut gates), t);
        self.inner.metrics.gates_closed.add(gates.closed_early);
        gates.answers(&answers)
    }

    /// One sweep from `source` to `targets` on the active overlay: an
    /// [`Answer`] per target, every one `gates` (when given) still wants
    /// answered. Under an overlay it runs on the overlay memo, stamped with
    /// the overlay's generation, and its search on the overlaid weights; the
    /// static memo is not asked — it answers on weights that no longer hold.
    fn sweep(
        &self,
        source: NodeId,
        targets: &[NodeId],
        gates: Option<&mut Gates<'_>>,
        t: TimePoint,
    ) -> Vec<Answer> {
        self.inner.queries.fetch_add(targets.len() as u64, Ordering::Relaxed);
        self.inner.metrics.queries.add(targets.len() as u64);
        if self.inner.overlay_active.load(Ordering::Acquire) {
            let version = self.overlay_version();
            if !version.multipliers.is_empty() {
                let overlaid = overlay::overlaid_secs(&self.inner.network, &version.multipliers, t);
                let stamp = Stamp::new(version.generation, t);
                return self.memo_sweep(true, stamp, source, targets, gates, overlaid);
            }
        }
        let beta = dijkstra::beta_secs(&self.inner.network, t);
        self.memo_sweep(false, Stamp::new(0, t), source, targets, gates, beta)
    }

    /// Shortest path with node sequence and length: one pooled-space
    /// Dijkstra (the memo holds distances, not paths). Counted in
    /// [`Self::query_count`] like the other entry points.
    pub fn shortest_path(
        &self,
        source: NodeId,
        target: NodeId,
        t: TimePoint,
    ) -> Option<dijkstra::PathResult> {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.queries.inc();
        let network = &self.inner.network;
        if self.inner.overlay_active.load(Ordering::Acquire) {
            let version = self.overlay_version();
            if !version.multipliers.is_empty() {
                let overlaid = overlay::overlaid_secs(network, &version.multipliers, t);
                return dijkstra::path(network, source, target, &mut self.search_space(), overlaid);
            }
        }
        let beta = dijkstra::beta_secs(network, t);
        dijkstra::path(network, source, target, &mut self.search_space(), beta)
    }

    /// Installs `overlay` as the active traffic perturbation, bumping the
    /// overlay generation. This is the one place that holds both the overlay
    /// and the network, so it renders the sparse map into this generation's
    /// table of one multiplier per edge (`O(E)`, once per change of the
    /// disruption set). Subsequent queries are answered exactly on the
    /// perturbed weights, each overlay-memo miss by one Dijkstra over that
    /// table — the static memo is not consulted; memoised overlay answers
    /// from earlier generations are invalidated by their generation stamp.
    ///
    /// Swapping the overlay while other threads query is safe (each query
    /// works on a consistent snapshot), but the caller is responsible for the
    /// semantics of mid-flight swaps; the simulator only swaps at
    /// accumulation-window boundaries.
    pub fn set_overlay(&self, overlay: TrafficOverlay) {
        let active = !overlay.is_empty();
        let multipliers =
            if active { overlay.edge_multipliers(&self.inner.network) } else { Vec::new() };
        let mut slot = lock(self.inner.overlay.write());
        let generation = slot.generation + 1;
        *slot = Arc::new(OverlayVersion { generation, multipliers });
        self.inner.overlay_active.store(active, Ordering::Release);
    }

    /// Removes any active traffic overlay (bumps the generation).
    pub fn clear_overlay(&self) {
        self.set_overlay(TrafficOverlay::new());
    }

    /// True when a non-empty traffic overlay is active.
    pub fn has_overlay(&self) -> bool {
        self.inner.overlay_active.load(Ordering::Acquire)
    }

    /// The traversal time of a single edge at time `t` under the active
    /// overlay: `β(e, t) × multiplier(e)`. This is what the simulator uses to
    /// move vehicles, so fleet physics and the distance oracle always agree.
    /// Not counted as an oracle query.
    pub fn edge_travel_time(&self, edge: EdgeId, t: TimePoint) -> Duration {
        let base = self.inner.network.travel_time(edge, t);
        if !self.inner.overlay_active.load(Ordering::Acquire) {
            return base;
        }
        let version = self.overlay_version();
        let multiplier = version.multipliers.get(edge.index()).copied().unwrap_or(1.0);
        if multiplier == 1.0 {
            base
        } else {
            Duration::from_secs_f64(base.as_secs_f64() * multiplier)
        }
    }

    /// A consistent snapshot of the active overlay version.
    fn overlay_version(&self) -> Arc<OverlayVersion> {
        lock(self.inner.overlay.read()).clone()
    }

    /// Counts `hits` and `misses` of one memoised sweep, and the misses its
    /// search `answered`: under an overlay in the overlay memo's counters,
    /// else in the static memo's and in `engine.backend.dijkstra.queries`.
    /// A plain search answers every miss; a gated one may stop short of a
    /// miss that only a closed gate wanted.
    fn count_memo(&self, overlaid: bool, hits: u64, misses: u64, answered: u64) {
        let metrics = &self.inner.metrics;
        if overlaid {
            metrics.overlay_hits.add(hits);
            metrics.overlay_misses.add(misses);
        } else {
            metrics.memo_hits.add(hits);
            metrics.memo_misses.add(misses);
            metrics.backend_dijkstra.add(answered);
        }
    }

    /// The one memoised query path, on the weights `stamp` names, which
    /// `edge_secs` prices: per target the pair memo (a probe, ≈ 40 ns), then
    /// `source`'s tree row (a walk, ≈ 200 ns on City B), then a single
    /// one-to-many search, run with no lock held, for the targets they do
    /// not know — less, when `gates` are given, those only gates that what
    /// is known closes wanted; the row's `reach` floors every target it has
    /// not settled, so a gate of a smaller radius is decided here. A search
    /// from a source with a row resumes the row, copied into the search's
    /// pooled space under the lock. Concurrent fills of the same pair are
    /// idempotent (both remember the same exact answer). A source the memo
    /// already knew (≥ 1 hit) that still has a miss stands still while its
    /// stops change: it is given a tree row, budget permitting, which the
    /// search it had to run anyway fills as far as it settled. A point query
    /// is a one-target sweep, so its miss has no hit and admits no row.
    fn memo_sweep(
        &self,
        overlaid: bool,
        stamp: Stamp,
        source: NodeId,
        targets: &[NodeId],
        mut gates: Option<&mut Gates<'_>>,
        edge_secs: impl Fn(EdgeId) -> f64,
    ) -> Vec<Answer> {
        let inner = &*self.inner;
        let in_edges = inner.network.in_edges();
        let kind = usize::from(overlaid);
        let mut out: Vec<Answer> = vec![None; targets.len()];
        // A self-pair is answered without the memo: neither hit nor miss.
        let (mut hits, mut row_hits) = (0, 0);
        let (missing, search) = {
            let mut memo = lock(inner.memo.lock());
            memo.roll_to(overlaid, stamp);
            let Memo { pairs, rows, path, .. } = &mut *memo;
            let row = rows.get(&source);
            for (answer, &target) in out.iter_mut().zip(targets) {
                if source == target {
                    *answer = Some(Some(Duration::ZERO));
                } else if let Some(known) = pairs[kind].get((source, target)) {
                    *answer = Some(known);
                    hits += 1;
                } else if let Some(known) =
                    row.and_then(|row| walk(&row.parents, in_edges, target, path, &edge_secs))
                {
                    *answer = Some(known);
                    row_hits += 1;
                }
            }
            if let Some(gates) = gates.as_deref_mut() {
                gates.floor = row.map_or(0.0, |row| row.reach);
            }
            let missing = missing(targets, &out, gates.as_deref_mut());
            // Only a search that will run checks a space out; it resumes the
            // row, if there is one, from a copy in the space.
            let search = (!missing.is_empty()).then(|| {
                let mut space = self.search_space();
                let seed = match row {
                    Some(row) => {
                        space.row_buffer(row.parents.len()).copy_from_slice(&row.parents);
                        Seed::Row
                    }
                    None => Seed::Source(source),
                };
                (space, seed)
            });
            (missing, search)
        };
        inner.metrics.rows_hits.add(row_hits);
        let mut answered = 0;
        if let Some((mut space, seed)) = search {
            let searched =
                dijkstra::search(&inner.network, seed, &missing, gates, &mut space, &edge_secs);
            let reach = searched.reach;
            inner.metrics.settled.add(searched.settled);
            if matches!(seed, Seed::Row) {
                inner.metrics.rows_resumed.inc();
            }
            let mut memo = lock(inner.memo.lock());
            let Memo { pairs, rows_stamp, rows, .. } = &mut *memo;
            let memoise = pairs[kind].stamp == Some(stamp);
            answered = read_back(&space, reach, targets, &mut out, |target, answer| {
                if memoise {
                    pairs[kind].remember((source, target), answer);
                }
            });
            if *rows_stamp == Some(stamp) {
                if hits + row_hits > 0 && !rows.contains_key(&source) {
                    let budget = ROW_BUDGET_BYTES / inner.network.node_count().max(1);
                    if rows.len() < budget {
                        let parents = vec![ROW_UNSETTLED; inner.network.node_count()];
                        rows.insert(source, TreeRow { parents: parents.into(), reach: 0.0 });
                        inner.metrics.rows_admitted.inc();
                    } else {
                        inner.metrics.rows_refused.inc();
                    }
                }
                if let Some(row) = rows.get_mut(&source) {
                    grow(row, in_edges, &space, reach);
                }
            }
        }
        self.count_memo(overlaid, hits + row_hits, missing.len() as u64, answered);
        out
    }
}

/// A [`SearchSpace`] checked out of a [`ShortestPathEngine`]'s pool; derefs
/// to the space and returns it to the pool on drop.
pub struct PooledSpace {
    space: Option<SearchSpace>,
    engine: Arc<EngineInner>,
}

impl Deref for PooledSpace {
    type Target = SearchSpace;
    fn deref(&self) -> &SearchSpace {
        self.space.as_ref().expect("space present until drop")
    }
}

impl DerefMut for PooledSpace {
    fn deref_mut(&mut self) -> &mut SearchSpace {
        self.space.as_mut().expect("space present until drop")
    }
}

impl Drop for PooledSpace {
    fn drop(&mut self) {
        if let Some(space) = self.space.take() {
            lock(self.engine.spaces.lock()).push(space);
        }
    }
}

fn encode(d: Option<Duration>) -> f64 {
    d.map_or(f64::INFINITY, Duration::as_secs_f64)
}

fn decode(secs: f64) -> Option<Duration> {
    if secs.is_finite() {
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    }
}

/// The targets a sweep has to search for: those `known` does not answer,
/// less — once `gates` have decided what the known answers decide — those no
/// gate still in play wants.
fn missing(targets: &[NodeId], known: &[Answer], gates: Option<&mut Gates<'_>>) -> Vec<NodeId> {
    let unknown = targets.iter().zip(known).enumerate().filter(|(_, (_, known))| known.is_none());
    match gates {
        None => unknown.map(|(_, (&target, _))| target).collect(),
        Some(gates) => {
            gates.decide(known);
            unknown.filter(|&(i, _)| gates.wanted(i)).map(|(_, (&target, _))| target).collect()
        }
    }
}

/// Reads what a search that reached `reach` in `space` found into the
/// targets `out` does not know yet, handing `found` each answer: a settled
/// target's travel time, or that a target is unreachable, once the search
/// ran the reachable graph dry. A target a gated search stopped short of
/// stays unknown. Returns how many targets it answered.
fn read_back(
    space: &SearchSpace,
    reach: f64,
    targets: &[NodeId],
    out: &mut [Answer],
    mut found: impl FnMut(NodeId, Option<Duration>),
) -> u64 {
    let mut answered = 0;
    for (slot, &target) in out.iter_mut().zip(targets).filter(|(known, _)| known.is_none()) {
        let answer = dijkstra::settled_time(space, target);
        if answer.is_some() || reach == f64::INFINITY {
            found(target, answer);
            *slot = Some(answer);
            answered += 1;
        }
    }
    answered
}

impl std::fmt::Debug for ShortestPathEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShortestPathEngine")
            .field("nodes", &self.inner.network.node_count())
            .field("queries", &self.query_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::tests::{node_capacity, with_island};
    use crate::generators::GridCityBuilder;

    fn sample_pairs(net: &RoadNetwork) -> Vec<(NodeId, NodeId)> {
        let nodes: Vec<NodeId> = net.node_ids().collect();
        let mut pairs = Vec::new();
        for (i, &a) in nodes.iter().enumerate().step_by(5) {
            for &b in nodes.iter().skip(i % 3).step_by(7) {
                pairs.push((a, b));
            }
        }
        pairs
    }

    #[test]
    fn cached_engine_answers_repeat_queries_identically() {
        let net = GridCityBuilder::new(5, 5).build();
        let engine = ShortestPathEngine::cached(net.clone());
        let t = TimePoint::from_hms(19, 0, 0);
        let first = engine.travel_time(NodeId(0), NodeId(24), t);
        let second = engine.travel_time(NodeId(0), NodeId(24), t);
        assert_eq!(first, second);
        assert!(engine.query_count() >= 2);
    }

    #[test]
    fn to_many_matches_pointwise_queries() {
        let net = GridCityBuilder::new(5, 4).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let targets: Vec<NodeId> = net.node_ids().step_by(3).collect();
        let engine = ShortestPathEngine::cached(net.clone());
        let batch = engine.travel_times_to_many(NodeId(1), &targets, t);
        for (i, &target) in targets.iter().enumerate() {
            let reference = dijkstra::one_to_many(&net, NodeId(1), &[target], t, None)[0];
            assert_eq!(bits(batch[i]), bits(reference), "{target}");
            assert_eq!(bits(engine.travel_time(NodeId(1), target, t)), bits(reference));
        }
    }

    #[test]
    fn cached_to_many_mixes_cache_hits_and_misses() {
        let net = GridCityBuilder::new(5, 4).build();
        let engine = ShortestPathEngine::cached(net.clone());
        let t = TimePoint::from_hms(9, 0, 0);
        // Prime part of the cache.
        let _ = engine.travel_time(NodeId(0), NodeId(3), t);
        let targets: Vec<NodeId> = vec![NodeId(3), NodeId(7), NodeId(0), NodeId(11)];
        let batch = engine.travel_times_to_many(NodeId(0), &targets, t);
        for (i, &target) in targets.iter().enumerate() {
            let reference = dijkstra::one_to_many(&net, NodeId(0), &[target], t, None)[0];
            assert_eq!(bits(batch[i]), bits(reference), "{target}");
        }
    }

    /// What one engine has counted: `engine.searches`,
    /// `engine.backend.dijkstra.queries`, `[hits, misses]` of the static
    /// memo and of the overlay memo, `[hits, admitted]` of
    /// the tree rows, `engine.rows.refused`, `engine.gates.closed`,
    /// `engine.rows.resumed` and `engine.settled`.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Counts {
        searches: u64,
        backend: u64,
        memo: [u64; 2],
        overlay: [u64; 2],
        rows: [u64; 2],
        refused: u64,
        gates_closed: u64,
        resumed: u64,
        settled: u64,
    }

    /// An engine whose counters count into a registry of its own, and a
    /// reader of them. The process-global recorder is not used: engines
    /// built by tests on other threads would count into it.
    fn metered(net: &RoadNetwork) -> (ShortestPathEngine, impl Fn() -> Counts) {
        let registry = telemetry::Telemetry::new();
        let mut engine = ShortestPathEngine::cached(net.clone());
        let metrics = &mut Arc::get_mut(&mut engine.inner).expect("not yet shared").metrics;
        metrics.searches = registry.counter("searches");
        metrics.backend_dijkstra = registry.counter("backend");
        metrics.memo_hits = registry.counter("memo.hits");
        metrics.memo_misses = registry.counter("memo.misses");
        metrics.overlay_hits = registry.counter("overlay.hits");
        metrics.overlay_misses = registry.counter("overlay.misses");
        metrics.rows_hits = registry.counter("rows.hits");
        metrics.rows_admitted = registry.counter("rows.admitted");
        metrics.rows_refused = registry.counter("rows.refused");
        metrics.gates_closed = registry.counter("gates.closed");
        metrics.rows_resumed = registry.counter("rows.resumed");
        metrics.settled = registry.counter("settled");
        let read = move || {
            let snapshot = registry.snapshot();
            let count = |name| snapshot.counter(name).expect("registered");
            Counts {
                searches: count("searches"),
                backend: count("backend"),
                memo: [count("memo.hits"), count("memo.misses")],
                overlay: [count("overlay.hits"), count("overlay.misses")],
                rows: [count("rows.hits"), count("rows.admitted")],
                refused: count("rows.refused"),
                gates_closed: count("gates.closed"),
                resumed: count("rows.resumed"),
                settled: count("settled"),
            }
        };
        (engine, read)
    }

    fn bits(d: Option<Duration>) -> Option<u64> {
        d.map(|d| d.as_secs_f64().to_bits())
    }

    #[test]
    fn a_self_pair_in_a_sweep_is_neither_a_memo_hit_nor_a_miss() {
        let net = GridCityBuilder::new(5, 4).build();
        let t = TimePoint::from_hms(9, 0, 0);
        let (source, a, b) = (NodeId(6), NodeId(2), NodeId(17));
        // The static memo, then the overlay memo.
        for overlaid in [false, true] {
            let (engine, counts) = metered(&net);
            let counted = || if overlaid { counts().overlay } else { counts().memo };
            if overlaid {
                engine.set_overlay(slowdown_overlay(&net, 2.0));
            }
            let cold = engine.travel_times_to_many(source, &[source, a, b], t);
            assert_eq!(counted(), [0, 2], "cold, overlaid: {overlaid}");
            let warm = engine.travel_times_to_many(source, &[source, a, b], t);
            assert_eq!(counted(), [2, 2], "warm, overlaid: {overlaid}");
            assert_eq!(cold, warm);
            assert_eq!(cold[0], Some(Duration::ZERO));
            // `travel_time` counts a self-pair the same way: not at all.
            assert_eq!(engine.travel_time(source, source, t), Some(Duration::ZERO));
            assert_eq!(counted(), [2, 2]);
            assert_eq!(engine.query_count(), 7, "every pair asked is still a query");
        }
    }

    /// `source → targets` by the memo-free one-to-many of `overlay` (or of
    /// the static weights), as bits.
    fn reference_bits(
        net: &RoadNetwork,
        overlay: Option<&crate::TrafficOverlay>,
        source: NodeId,
        targets: &[NodeId],
        t: TimePoint,
    ) -> Vec<Option<u64>> {
        dijkstra::one_to_many(net, source, targets, t, overlay).into_iter().map(bits).collect()
    }

    /// The life of a row on the static memo and on the overlay memo: never
    /// for a first-time source, admitted by the sweep that finds the source
    /// known and still misses, and from then on every node that sweep's
    /// search settled is answered without a search, as a hit of the memo
    /// the query runs on and of no backend search.
    #[test]
    fn a_source_that_repeats_is_given_a_row_and_the_row_answers_without_a_search() {
        let (net, island) = with_island(&GridCityBuilder::new(8, 8).build());
        let (net, islet) = with_island(&net);
        let t = TimePoint::from_hms(9, 0, 0);
        let (source, near, far) = (NodeId(0), [NodeId(9), NodeId(18)], NodeId(63));
        for overlaid in [false, true] {
            let overlay = overlaid.then(|| slowdown_overlay(&net, 2.0));
            let (engine, counts) = metered(&net);
            if let Some(overlay) = &overlay {
                engine.set_overlay(overlay.clone());
            }
            let memo = || if overlaid { counts().overlay } else { counts().memo };
            let expect =
                |targets: &[NodeId]| reference_bits(&net, overlay.as_ref(), source, targets, t);
            let sweep = |targets: &[NodeId]| -> Vec<Option<u64>> {
                engine.travel_times_to_many(source, targets, t).into_iter().map(bits).collect()
            };

            // First time: a search, no row.
            assert_eq!(sweep(&[NodeId(1)]), expect(&[NodeId(1)]));
            assert_eq!((counts().searches, counts().rows), (1, [0, 0]), "overlaid: {overlaid}");
            // Known and still missing: the search it runs anyway fills a row.
            assert_eq!(sweep(&[NodeId(1), far]), expect(&[NodeId(1), far]));
            assert_eq!((counts().searches, counts().rows), (2, [0, 1]));
            assert_eq!(memo(), [1, 2]);
            // Nodes that search settled on its way, never asked before: the
            // row answers, as memo hits, with no search and no backend pair.
            let backend = counts().backend;
            assert_eq!(sweep(&near), expect(&near));
            assert_eq!(bits(engine.travel_time(source, NodeId(27), t)), expect(&[NodeId(27)])[0]);
            assert_eq!((counts().searches, counts().rows), (2, [3, 1]));
            assert_eq!((memo(), counts().backend), ([4, 2], backend));
            // The island is not settled, which is not unreachable: the row
            // passes, a search runs the graph dry, and only then the row
            // says `None` by itself — of every node it had not settled.
            assert_eq!(sweep(&[island, near[0]]), [None, expect(&near)[0]]);
            assert_eq!((counts().searches, counts().rows), (3, [4, 1]));
            assert_eq!(sweep(&[islet]), [None]);
            assert_eq!(engine.travel_time(source, islet, t), None);
            assert_eq!((counts().searches, counts().rows), (3, [6, 1]));
            let all: Vec<NodeId> = net.node_ids().collect();
            assert_eq!(sweep(&all), expect(&all));
            assert_eq!((counts().searches, counts().rows[1]), (3, 1));
            // Another source has no row and is not given this one's.
            assert_eq!(
                bits(engine.travel_time(NodeId(5), near[0], t)),
                reference_bits(&net, overlay.as_ref(), NodeId(5), &near, t)[0]
            );
            assert_eq!((counts().searches, counts().rows[1]), (4, 1));
        }
    }

    /// A gated sweep from a corner of a grid: the gate whose trigger is the
    /// nearest target opens, the one whose trigger is the far corner closes
    /// when the search passes its radius — counted in `engine.gates.closed`
    /// — and its members go unanswered, on the static memo and on the
    /// overlay memo. The pair memo holds answers only, so the second sweep,
    /// from a source known but with no row, searches again and is given a
    /// row; the third finds the far corner off that row, whose reach lies
    /// beyond the radius, and closes the far gate with no search.
    #[test]
    fn a_gated_sweep_closes_the_gates_it_passes_and_counts_them() {
        let net = GridCityBuilder::new(8, 8).build();
        let t = TimePoint::from_hms(12, 30, 0);
        let (source, required, near, far) = (NodeId(0), NodeId(1), NodeId(9), NodeId(63));
        let answered = [required, near, NodeId(10)];
        for overlaid in [false, true] {
            let overlay = overlaid.then(|| slowdown_overlay(&net, 2.0));
            let want = reference_bits(&net, overlay.as_ref(), source, &answered, t);
            let radius = Duration::from_secs_f64(f64::from_bits(want[1].expect("connected")));
            let mut asked = GatedTargets::new();
            asked.require([required]);
            assert_eq!(asked.gate(radius, [near], [NodeId(10)]), 0);
            assert_eq!(asked.gate(radius, [far], [NodeId(62)]), 1);

            let (engine, counts) = metered(&net);
            if let Some(overlay) = &overlay {
                engine.set_overlay(overlay.clone());
            }
            let memo = || if overlaid { counts().overlay } else { counts().memo };
            let other = || if overlaid { counts().memo } else { counts().overlay };
            // Round 1, cold: all five pairs miss. Round 2: the three
            // answered ones hit, the far gate's two miss again, and the
            // search admits a row. Round 3: the row's reach closes the far
            // gate, so its two wait for nothing.
            for (round, searches, closed, rows, counted) in
                [(1u64, 1, 1, 0, [0, 5]), (2, 2, 2, 1, [3, 7]), (3, 2, 2, 1, [6, 7])]
            {
                let got = engine.gated_travel_times(source, &asked, t);
                assert_eq!(got.opened, [true, false], "overlaid: {overlaid}, round {round}");
                assert_eq!(got.targets, answered, "overlaid: {overlaid}, round {round}");
                let got: Vec<_> = got.travel_times.into_iter().map(bits).collect();
                assert_eq!(got, want, "overlaid: {overlaid}, round {round}");
                let searched = (counts().searches, counts().gates_closed, counts().rows[1]);
                assert_eq!(
                    searched,
                    (searches, closed, rows),
                    "overlaid: {overlaid}, round {round}"
                );
                assert_eq!((memo(), other()), (counted, [0, 0]), "overlaid: {overlaid}");
                assert_eq!(engine.query_count(), 5 * round, "every pair asked is a query");
            }
        }
    }

    /// A gated search that stops short of a closed gate leaves nothing in
    /// the pair memo of the gate's trigger — the offer's restaurant — nor of
    /// its other member — the customer: the memo holds answers only, so the
    /// next sweep from that source searches again.
    #[test]
    fn a_closed_gate_leaves_nothing_in_the_pair_memo() {
        let net = GridCityBuilder::new(8, 8).build();
        let t = TimePoint::from_hms(12, 30, 0);
        let (source, near, restaurant, customer) = (NodeId(0), NodeId(9), NodeId(63), NodeId(62));
        let radius = dijkstra::one_to_many(&net, source, &[near], t, None)[0].expect("connected");
        let mut asked = GatedTargets::new();
        asked.gate(radius, [near], []);
        asked.gate(radius, [restaurant], [customer]);
        let (engine, counts) = metered(&net);
        let held = |target| lock(engine.inner.memo.lock()).pairs[0].get((source, target));
        let first = engine.gated_travel_times(source, &asked, t);
        assert_eq!(first.opened, [true, false]);
        assert_eq!((counts().searches, counts().gates_closed), (1, 1));
        assert_eq!(held(near), Some(Some(radius)));
        assert_eq!((held(restaurant), held(customer)), (None, None));
        // Asked again, the gate takes a search again, and still nothing.
        assert_eq!(engine.gated_travel_times(source, &asked, t), first);
        assert_eq!((counts().searches, counts().gates_closed), (2, 2));
        assert_eq!((held(restaurant), held(customer)), (None, None));
    }

    /// One constant budgets the rows of an engine: on a grid too large for
    /// every source to have one, exactly `ROW_BUDGET_BYTES / n` are
    /// admitted, first come first kept, and a refused source goes on as it
    /// would have without rows — the same searches, no more and no wider —
    /// and is counted in `engine.rows.refused`. The hour moving on hands the
    /// budget back.
    #[test]
    fn the_row_budget_admits_its_share_and_refuses_the_rest() {
        let net = GridCityBuilder::new(30, 30).build();
        let n = net.node_count();
        let budget = (ROW_BUDGET_BYTES / n) as u64;
        assert!((budget as usize) < n, "the grid must outnumber the rows");
        let (engine, counts) = metered(&net);
        let all: Vec<NodeId> = net.node_ids().collect();
        let next = |source: NodeId| NodeId((source.0 + 1) % n as u32);
        for (round, hour) in [(1u64, 12), (2, 13)] {
            let t = TimePoint::from_hms(hour, 0, 0);
            // First time, every source: one search each, no row.
            for &source in &all {
                engine.travel_times_to_many(source, &[next(source)], t);
            }
            assert_eq!(counts().rows[1], (round - 1) * budget);
            // Known and still missing, every source: one search each, as
            // without rows, and a row for as many as the budget holds.
            for &source in &all {
                engine.travel_times_to_many(source, &all, t);
            }
            let swept = counts();
            assert_eq!(swept.rows[1], round * budget);
            assert_eq!(swept.refused, round * (n as u64 - budget));
            assert_eq!(lock(engine.inner.memo.lock()).rows.len() as u64, budget);
            assert_eq!(swept.searches, round * 2 * n as u64);
            // Everything is known now, with or without a row: no search.
            for &source in all.iter().step_by(7) {
                let got = engine.travel_times_to_many(source, &all, t);
                let got: Vec<_> = got.into_iter().map(bits).collect();
                assert_eq!(got, reference_bits(&net, None, source, &all, t), "{source}");
            }
            assert_eq!(counts().searches, swept.searches);
        }
    }

    /// The row of `source` as the memo holds it: per node its marker or
    /// in-ordinal, and its reach; `None` when it has none.
    fn row_of(engine: &ShortestPathEngine, source: NodeId) -> Option<(Vec<u8>, f64)> {
        let memo = lock(engine.inner.memo.lock());
        memo.rows.get(&source).map(|row| (row.parents.to_vec(), row.reach))
    }

    /// A random city (no two edges weigh the same, so no labels tie), a
    /// source, and its nodes nearest first with their travel times.
    fn by_distance(t: TimePoint) -> (RoadNetwork, NodeId, Vec<(NodeId, f64)>) {
        let net = crate::generators::RandomCityBuilder::new(160).seed(5).build();
        let source = NodeId(3);
        let all: Vec<NodeId> = net.node_ids().collect();
        let mut nodes: Vec<(NodeId, f64)> = dijkstra::one_to_many(&net, source, &all, t, None)
            .into_iter()
            .zip(&all)
            .filter_map(|(secs, &node)| Some((node, secs?.as_secs_f64())))
            .collect();
        nodes.sort_by(|a, b| a.1.total_cmp(&b.1));
        (net, source, nodes)
    }

    /// Gives `source` a row whose search ran out to `reached`: a first
    /// sweep makes the source known, the second admits the row.
    fn rowed(engine: &ShortestPathEngine, source: NodeId, reached: NodeId, t: TimePoint) {
        let near = engine.network().out_edges(source).next().expect("a street").1.to;
        engine.travel_times_to_many(source, &[near], t);
        engine.travel_times_to_many(source, &[near, reached], t);
        assert!(row_of(engine, source).is_some(), "the second sweep admits the row");
    }

    /// The row's reach floors every node it has not settled, so a gate of a
    /// smaller radius is decided under the lock: closed when its triggers
    /// are off the row or on it beyond the radius, open on one on the row
    /// within it — and the sweep costs no search, and closes no gate a
    /// search passed (`engine.gates.closed`), on the static memo and on the
    /// overlay memo.
    #[test]
    fn a_gate_the_rows_reach_decides_costs_no_search() {
        let t = TimePoint::from_hms(12, 30, 0);
        let (net, source, nodes) = by_distance(t);
        let at = |rank: usize| nodes[rank];
        let (reached, reach) = at(nodes.len() / 2);
        for overlaid in [false, true] {
            let (engine, counts) = metered(&net);
            if overlaid {
                // A uniform slowdown: the same tree, every label doubled.
                let mut overlay = crate::TrafficOverlay::new();
                net.edge_ids().for_each(|edge| overlay.slow_edge(edge, 2.0));
                engine.set_overlay(overlay);
            }
            let scale = if overlaid { 2.0 } else { 1.0 };
            rowed(&engine, source, reached, t);
            let (_, row_reach) = row_of(&engine, source).expect("a row");
            assert_eq!(row_reach, reach * scale, "overlaid: {overlaid}");
            let radius = Duration::from_secs_f64(scale * at(nodes.len() / 4).1);
            let (on_row_far, off_row) = (at(nodes.len() / 3).0, at(nodes.len() - 1).0);
            let mut asked = GatedTargets::new();
            asked.require([at(10).0]);
            asked.gate(radius, [at(20).0, off_row], [at(nodes.len() - 2).0]);
            asked.gate(radius, [on_row_far, off_row], [at(nodes.len() - 3).0]);
            let before = counts();
            let got = engine.gated_travel_times(source, &asked, t);
            assert_eq!(got.opened, [true, false], "overlaid: {overlaid}");
            let want: Vec<NodeId> = [at(10).0, at(20).0, off_row, at(nodes.len() - 2).0]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(got.targets, want);
            let overlay = overlaid.then(|| {
                let mut overlay = crate::TrafficOverlay::new();
                net.edge_ids().for_each(|edge| overlay.slow_edge(edge, 2.0));
                overlay
            });
            let got_bits: Vec<_> = got.travel_times.into_iter().map(bits).collect();
            assert_eq!(got_bits, reference_bits(&net, overlay.as_ref(), source, &want, t));
            // The open gate's off-row members took one resumed search; the
            // closed gate cost nothing.
            let after = counts();
            assert_eq!((after.searches, after.resumed), (before.searches + 1, before.resumed + 1));
            assert_eq!(after.gates_closed, before.gates_closed, "closed by the row, not a search");

            // The closed gate alone: no search at all.
            let mut closed = GatedTargets::new();
            closed.gate(radius, [on_row_far, off_row], [at(nodes.len() - 3).0]);
            let got = engine.gated_travel_times(source, &closed, t);
            assert_eq!((got.opened, got.targets), (vec![false], vec![]));
            assert_eq!(counts().searches, after.searches, "overlaid: {overlaid}");
        }
    }

    /// A search from a source with a row resumes it: the row's nodes are
    /// settled again without a pop, so what `engine.settled` counts is
    /// exactly the nodes the row lacked — on this network, where no labels
    /// tie, the fresh search's settled count less the row's.
    #[test]
    fn a_resumed_search_settles_only_the_nodes_the_row_lacked() {
        let t = TimePoint::from_hms(12, 30, 0);
        let (net, source, nodes) = by_distance(t);
        let (reached, far) = (nodes[nodes.len() / 3].0, nodes[nodes.len() * 3 / 4].0);
        let (engine, counts) = metered(&net);
        rowed(&engine, source, reached, t);
        let (row, _) = row_of(&engine, source).expect("a row");
        let on_row = row.iter().filter(|&&parent| parent != ROW_UNSETTLED).count() as u64;
        let (fresh, fresh_counts) = metered(&net);
        fresh.travel_times_to_many(source, &[far], t);
        let before = counts();
        let got = engine.travel_times_to_many(source, &[far], t);
        assert_eq!(bits(got[0]), bits(fresh.travel_time(source, far, t)));
        let after = counts();
        assert_eq!((after.searches, after.resumed), (before.searches + 1, before.resumed + 1));
        assert_eq!(after.settled - before.settled, fresh_counts().settled - on_row);
        assert!(on_row > 10 && after.settled - before.settled > 10, "both sides did some work");
    }

    /// A query of another hour drops the row, and its reach with it: back
    /// at noon, a gate the old reach decided takes a search again, fresh,
    /// and the row is admitted anew.
    #[test]
    fn an_hour_roll_drops_the_row_and_its_reach() {
        let noon = TimePoint::from_hms(12, 30, 0);
        let (net, source, nodes) = by_distance(noon);
        let (engine, counts) = metered(&net);
        rowed(&engine, source, nodes[nodes.len() / 2].0, noon);
        let radius = Duration::from_secs_f64(nodes[nodes.len() / 4].1);
        let mut asked = GatedTargets::new();
        asked.gate(radius, [nodes[nodes.len() - 1].0], []);
        let searches = counts().searches;
        assert_eq!(engine.gated_travel_times(source, &asked, noon).opened, [false]);
        assert_eq!(counts().searches, searches, "the reach decided it");

        engine.travel_time(source, nodes[1].0, TimePoint::from_hms(13, 0, 0));
        assert_eq!(row_of(&engine, source), None, "the row went with its hour");
        assert_eq!(lock(engine.inner.memo.lock()).rows.len(), 0);
        let before = counts();
        assert_eq!(engine.gated_travel_times(source, &asked, noon).opened, [false]);
        let after = counts();
        assert_eq!((after.searches, after.resumed), (before.searches + 1, before.resumed));
        assert_eq!(after.gates_closed, before.gates_closed + 1, "a search closed it");
    }

    /// The kernel's half of the gate contract. A search resumed from a row
    /// wider than a gate's radius starts with row nodes settled beyond the
    /// radius, so `Gates::pass` must open the gate only on a trigger settled
    /// within it. The engine never hands the kernel such a gate — the row's
    /// reach decides it first — so this drives the kernel itself, with the
    /// gate undecided and its one trigger on the row beyond the radius.
    #[test]
    fn a_resumed_search_opens_no_gate_on_a_row_node_beyond_its_radius() {
        let t = TimePoint::from_hms(12, 30, 0);
        let (net, source, nodes) = by_distance(t);
        let (m, n) = (nodes.len(), net.node_count());
        let edge_secs = dijkstra::beta_secs(&net, t);
        let mut space = SearchSpace::new();
        let fresh = Seed::Source(source);
        let searched =
            dijkstra::search(&net, fresh, &[nodes[m / 2].0], None, &mut space, &edge_secs);
        let mut row = TreeRow { parents: vec![ROW_UNSETTLED; n].into(), reach: 0.0 };
        grow(&mut row, net.in_edges(), &space, searched.reach);

        let (radius, trigger) = (nodes[m / 4].1, nodes[m / 3].0);
        assert_ne!(row.parents[trigger.index()], ROW_UNSETTLED, "the trigger is on the row");
        let mut asked = GatedTargets::new();
        asked.require([nodes[m * 3 / 4].0]);
        asked.gate(Duration::from_secs_f64(radius), [trigger], [nodes[m - 1].0]);
        let (targets, layout) = asked.layout();
        let mut gates = Gates::new(&asked, &targets, layout);
        space.row_buffer(n).copy_from_slice(&row.parents);
        dijkstra::search(&net, Seed::Row, &targets, Some(&mut gates), &mut space, &edge_secs);
        let known: Vec<Answer> =
            targets.iter().map(|&node| Some(dijkstra::settled_time(&space, node))).collect();
        let got = gates.answers(&known);
        assert_eq!(got.opened, [false], "the trigger lies beyond the radius");
        assert_eq!(got.targets, [nodes[m * 3 / 4].0]);
    }

    /// A query of another hour moves the memo on, a point query as much as
    /// a sweep: the row of the hour that has passed goes back to the budget
    /// and its pairs are dropped, so coming back searches again — and
    /// answers the same bits.
    #[test]
    fn a_query_of_another_hour_moves_the_memo_on() {
        let net = GridCityBuilder::new(8, 8).build();
        let noon = TimePoint::from_hms(12, 10, 0);
        let (source, targets) = (NodeId(0), [NodeId(9), NodeId(63)]);
        // A trailing point query (an order's SDT asked at a `placed_at`
        // before the hour turned), or the sweep of the next hour.
        let (trailing, next) = (TimePoint::from_hms(11, 59, 0), TimePoint::from_hms(13, 0, 0));
        for (point, other) in [(true, trailing), (false, next)] {
            let (engine, counts) = metered(&net);
            let sweep = |targets: &[NodeId], t| -> Vec<Option<u64>> {
                engine.travel_times_to_many(source, targets, t).into_iter().map(bits).collect()
            };
            let rows_used = || lock(engine.inner.memo.lock()).rows.len();
            let first = sweep(&targets[..1], noon);
            let grown = sweep(&targets, noon);
            assert_eq!(grown, reference_bits(&net, None, source, &targets, noon));
            assert_eq!((counts().searches, counts().rows[1], rows_used()), (2, 1, 1));

            let asked = if point {
                vec![bits(engine.travel_time(source, targets[0], other))]
            } else {
                sweep(&targets[..1], other)
            };
            assert_eq!(asked, reference_bits(&net, None, source, &targets[..1], other));
            assert_ne!(asked[..], grown[..1], "another hour, other weights");
            assert_eq!((counts().searches, rows_used()), (3, 0), "point: {point}");

            // Noon, asked again, starts over: search, then admission.
            assert_eq!(sweep(&targets[..1], noon), first);
            assert_eq!(counts().searches, 4, "point: {point}");
            assert_eq!(sweep(&targets, noon), grown);
            assert_eq!((counts().searches, counts().rows[1], rows_used()), (5, 2, 1));
        }
    }

    /// A point query is a one-target sweep: two engines run one script, one
    /// asking each pair through `travel_time` and the other through
    /// `travel_times_to_many` with that one target, and agree on every
    /// answer and every count — cold, warm, off a tree row, to the island,
    /// for a trailing hour (after which both memos hold that hour, not
    /// noon) and under an overlay.
    #[test]
    fn a_point_query_is_a_one_target_sweep() {
        let (net, island) = with_island(&GridCityBuilder::new(8, 8).build());
        let (noon, trailing) = (TimePoint::from_hms(12, 10, 0), TimePoint::from_hms(11, 59, 0));
        let source = NodeId(0);
        let (point, point_counts) = metered(&net);
        let (swept, swept_counts) = metered(&net);
        let ask = |what: &str, target: NodeId, t: TimePoint| {
            let got = bits(point.travel_time(source, target, t));
            assert_eq!(got, bits(swept.travel_times_to_many(source, &[target], t)[0]), "{what}");
            assert_eq!(point_counts(), swept_counts(), "{what}");
            assert_eq!(point.query_count(), swept.query_count(), "{what}");
        };
        ask("cold", NodeId(9), noon);
        ask("warm", NodeId(9), noon);
        ask("self-pair", source, noon);
        // Known and still missing: the sweep both ask admits a row.
        for engine in [&point, &swept] {
            engine.travel_times_to_many(source, &[NodeId(9), NodeId(63)], noon);
        }
        ask("off the row", NodeId(27), noon);
        assert_eq!(point_counts().rows, [1, 1], "the row answered");
        ask("the island", island, noon);
        ask("trailing hour", NodeId(9), trailing);
        ask("noon again", NodeId(27), noon);
        assert_eq!(point_counts().rows, [1, 1], "the trailing hour dropped the row");
        for engine in [&point, &swept] {
            engine.set_overlay(slowdown_overlay(&net, 2.0));
        }
        ask("overlay, cold", NodeId(63), noon);
        ask("overlay, warm", NodeId(63), noon);
        assert_eq!(point_counts().overlay, [1, 1]);
    }

    #[test]
    fn cached_engine_is_consistent_across_every_source() {
        let net = GridCityBuilder::new(6, 6).build();
        let engine = ShortestPathEngine::cached(net.clone());
        let t = TimePoint::from_hms(13, 0, 0);
        // Sweep every node as a source; repeat to exercise the hit path too.
        for _ in 0..2 {
            for source in net.node_ids() {
                let target = NodeId((source.0 + 7) % net.node_count() as u32);
                assert_eq!(
                    bits(engine.travel_time(source, target, t)),
                    bits(dijkstra::one_to_many(&net, source, &[target], t, None)[0])
                );
            }
        }
    }

    #[test]
    fn shortest_path_follows_the_backend_and_counts_queries() {
        let net = GridCityBuilder::new(5, 5).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let expected = dijkstra::shortest_path(&net, NodeId(0), NodeId(24), t, None).unwrap();
        let engine = ShortestPathEngine::cached(net.clone());
        let got = engine.shortest_path(NodeId(0), NodeId(24), t).unwrap();
        assert_eq!(engine.query_count(), 1, "shortest_path must count as a query");
        // The engine answers a path with the memo-free search: the same
        // path, to the bit.
        assert_eq!(got.nodes, expected.nodes);
        assert_eq!(bits(Some(got.travel_time)), bits(Some(expected.travel_time)));
        assert_eq!(got.length_m.to_bits(), expected.length_m.to_bits());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test's own threads share one engine")]
    fn engine_is_shareable_across_threads() {
        let net = GridCityBuilder::new(6, 6).build();
        let engine = ShortestPathEngine::cached(net.clone());
        let t = TimePoint::from_hms(12, 0, 0);
        let expected = engine.travel_time(NodeId(0), NodeId(35), t);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = engine.clone();
                scope.spawn(move || {
                    assert_eq!(engine.travel_time(NodeId(0), NodeId(35), t), expected);
                });
            }
        });
    }

    fn slowdown_overlay(net: &RoadNetwork, factor: f64) -> crate::TrafficOverlay {
        let mut overlay = crate::TrafficOverlay::new();
        for eid in net.edge_ids().step_by(3) {
            overlay.slow_edge(eid, factor);
        }
        overlay
    }

    #[test]
    fn every_backend_answers_overlaid_queries_exactly() {
        let (net, island) = with_island(&GridCityBuilder::new(6, 6).build());
        let t = TimePoint::from_hms(13, 15, 0);
        let overlay = slowdown_overlay(&net, 2.5);
        // Reference: the memo-free overlaid search (pinned against a rebuilt
        // network in the overlay module's own tests). The engine runs that
        // same search on a miss, so answers agree to the bit, not to a
        // tolerance.
        let reference =
            |a: NodeId, targets: &[NodeId]| reference_bits(&net, Some(&overlay), a, targets, t);
        let (engine, counted) = metered(&net);
        engine.set_overlay(overlay.clone());
        for (a, b) in sample_pairs(&net) {
            assert_eq!(bits(engine.travel_time(a, b, t)), reference(a, &[b])[0], "{a}->{b}");
        }
        // Repeat queries hit the overlay memo and stay identical.
        let (a, b) = (NodeId(0), NodeId(35));
        assert_eq!(bits(engine.travel_time(a, b, t)), reference(a, &[b])[0]);

        // No street reaches the island, and no baseline answer is there to
        // say so: the one search runs the reachable graph dry, `None` is
        // memoised, and reachable targets of the same sweep are what they
        // are without the island in it.
        let targets = [NodeId(29), island, NodeId(8), NodeId(22)];
        let before = counted();
        assert_eq!(engine.travel_time(NodeId(4), island, t), None);
        let swept = engine.travel_times_to_many(NodeId(13), &targets, t);
        let cold = counted();
        assert_eq!(swept[1], None);
        let got: Vec<_> = swept.iter().copied().map(bits).collect();
        assert_eq!(got, reference(NodeId(13), &targets));
        assert_eq!(cold.searches, before.searches + 2);
        assert_eq!(cold.overlay[1], before.overlay[1] + 5);
        // Asked again, both are overlay-memo hits: no space checked out.
        assert_eq!(engine.travel_time(NodeId(4), island, t), None);
        assert_eq!(engine.travel_times_to_many(NodeId(13), &targets, t), swept);
        let warm = Counts { overlay: [cold.overlay[0] + 5, cold.overlay[1]], ..cold };
        assert_eq!(counted(), warm);
        assert_eq!((warm.backend, warm.memo), (0, [0, 0]), "no static memo asked");
    }

    /// With an overlay active a miss is one search and nothing else: no
    /// backend pair, no static-memo traffic.
    #[test]
    fn an_overlay_miss_is_one_search_and_asks_no_backend() {
        let net = GridCityBuilder::new(6, 6).build();
        let t = TimePoint::from_hms(9, 0, 0);
        let targets: Vec<NodeId> = (10..18).map(NodeId).collect();
        let (engine, counted) = metered(&net);
        engine.set_overlay(slowdown_overlay(&net, 2.0));
        // What the searches settled is counted too, and is not the point.
        let counted = || Counts { settled: 0, ..counted() };
        let point = engine.travel_time(NodeId(0), NodeId(35), t);
        assert_eq!(
            counted(),
            Counts { searches: 1, overlay: [0, 1], ..Counts::default() },
            "cold point query"
        );
        let swept = engine.travel_times_to_many(NodeId(3), &targets, t);
        assert_eq!(
            counted(),
            Counts { searches: 2, overlay: [0, 9], ..Counts::default() },
            "cold 8-target sweep"
        );
        // Repeated, they add only hits.
        assert_eq!(engine.travel_time(NodeId(0), NodeId(35), t), point);
        assert_eq!(engine.travel_times_to_many(NodeId(3), &targets, t), swept);
        assert_eq!(counted(), Counts { searches: 2, overlay: [9, 9], ..Counts::default() }, "warm");
    }

    #[test]
    fn overlaid_to_many_matches_pointwise_queries() {
        let net = GridCityBuilder::new(5, 4).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let overlay = slowdown_overlay(&net, 1.7);
        let targets: Vec<NodeId> = net.node_ids().step_by(3).collect();
        let engine = ShortestPathEngine::cached(net.clone());
        engine.set_overlay(overlay.clone());
        let batch = engine.travel_times_to_many(NodeId(1), &targets, t);
        let want = reference_bits(&net, Some(&overlay), NodeId(1), &targets, t);
        for (i, &target) in targets.iter().enumerate() {
            assert_eq!(bits(batch[i]), want[i], "{target}");
            assert_eq!(bits(engine.travel_time(NodeId(1), target, t)), want[i], "{target}");
        }
    }

    #[test]
    fn clearing_the_overlay_restores_baseline_answers() {
        let net = GridCityBuilder::new(5, 5).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let engine = ShortestPathEngine::cached(net.clone());
        let baseline = engine.travel_time(NodeId(0), NodeId(24), t).unwrap();
        assert!(!engine.has_overlay());

        let mut overlay = crate::TrafficOverlay::new();
        for eid in net.edge_ids() {
            overlay.slow_edge(eid, 2.0);
        }
        engine.set_overlay(overlay);
        assert!(engine.has_overlay());
        let perturbed = engine.travel_time(NodeId(0), NodeId(24), t).unwrap();
        // Doubling every weight doubles every label exactly: the same tree.
        assert_eq!(
            perturbed.as_secs_f64().to_bits(),
            (2.0 * baseline.as_secs_f64()).to_bits(),
            "uniform 2x slowdown must double the travel time"
        );

        engine.clear_overlay();
        assert!(!engine.has_overlay());
        assert_eq!(engine.travel_time(NodeId(0), NodeId(24), t), Some(baseline));
    }

    #[test]
    fn overlay_memo_is_invalidated_by_generation() {
        let net = GridCityBuilder::new(5, 5).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let (engine, counted) = metered(&net);
        let mut mild = crate::TrafficOverlay::new();
        let mut severe = crate::TrafficOverlay::new();
        for eid in net.edge_ids() {
            mild.slow_edge(eid, 1.5);
            severe.slow_edge(eid, 3.0);
        }
        let (a, b) = (NodeId(0), NodeId(24));
        engine.set_overlay(mild.clone());
        let first = bits(engine.travel_time(a, b, t));
        assert_eq!(first, reference_bits(&net, Some(&mild), a, &[b], t)[0]);
        assert_eq!(bits(engine.travel_time(a, b, t)), first);
        assert_eq!((counted().overlay, counted().memo), ([1, 1], [0, 0]));
        engine.set_overlay(severe.clone());
        let second = bits(engine.travel_time(a, b, t));
        assert_eq!(
            second,
            reference_bits(&net, Some(&severe), a, &[b], t)[0],
            "stale memo entries must not survive an overlay swap"
        );
        assert_ne!(second, first);
        assert_eq!((counted().overlay, counted().memo), ([1, 2], [0, 0]), "a miss, not a hit");
    }

    #[test]
    fn edge_travel_time_applies_the_overlay_multiplier() {
        let net = GridCityBuilder::new(3, 3).build();
        let t = TimePoint::from_hms(8, 0, 0);
        let engine = ShortestPathEngine::cached(net.clone());
        let edge = net.edge_ids().next().unwrap();
        let base = engine.edge_travel_time(edge, t);
        assert_eq!(base, net.travel_time(edge, t));
        let mut overlay = crate::TrafficOverlay::new();
        overlay.slow_edge(edge, 2.5);
        engine.set_overlay(overlay);
        let slowed = engine.edge_travel_time(edge, t);
        assert_eq!(slowed.as_secs_f64().to_bits(), (base.as_secs_f64() * 2.5).to_bits());
        // Unperturbed edges are untouched.
        let other = net.edge_ids().nth(1).unwrap();
        assert_eq!(engine.edge_travel_time(other, t), net.travel_time(other, t));
    }

    #[test]
    fn overlaid_shortest_path_reroutes_around_slowdowns() {
        let net = GridCityBuilder::new(5, 5).build();
        let t = TimePoint::from_hms(12, 0, 0);
        let engine = ShortestPathEngine::cached(net.clone());
        let reference = engine.shortest_path(NodeId(0), NodeId(24), t).unwrap();
        // Slow every edge of the reference path hard; the overlaid path must
        // not be slower than driving the perturbed reference path.
        let mut overlay = crate::TrafficOverlay::new();
        let mut perturbed_reference_secs = 0.0;
        for pair in reference.nodes.windows(2) {
            let (eid, _) = net.out_edges(pair[0]).find(|(_, e)| e.to == pair[1]).unwrap();
            overlay.slow_edge(eid, 10.0);
            perturbed_reference_secs += net.travel_time(eid, t).as_secs_f64() * 10.0;
        }
        engine.set_overlay(overlay);
        let rerouted = engine.shortest_path(NodeId(0), NodeId(24), t).unwrap();
        // A Dijkstra label is at most the left-to-right sum along any path,
        // and a weight multiplied by ≥ 1 is no smaller: both hold exactly.
        assert!(rerouted.travel_time.as_secs_f64() <= perturbed_reference_secs);
        assert!(
            rerouted.travel_time >= reference.travel_time,
            "slowdowns can never make a path faster"
        );
    }

    #[test]
    fn pooled_spaces_are_recycled() {
        let net = GridCityBuilder::new(4, 4).build();
        let engine = ShortestPathEngine::cached(net);
        let t = TimePoint::from_hms(10, 0, 0);
        // Eight point misses, one search each.
        for target in 8..16 {
            let _ = engine.travel_time(NodeId(0), NodeId(target), t);
        }
        // After serial queries the pool must hold exactly one grown space.
        let pool = lock(engine.inner.spaces.lock());
        assert_eq!(pool.len(), 1);
        assert_eq!(node_capacity(&pool[0]), 16);
    }
}
