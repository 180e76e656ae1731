//! Oracle equivalence and parallel-dispatch determinism.
//!
//! The dispatcher trusts the engine's memo — pairs, tree rows, gated sweeps
//! and the overlay memo — to answer exactly what a fresh search would, so
//! any divergence is silent data corruption: costs change, matchings change,
//! and no assertion in the higher layers would notice. These tests pin the
//! contract from the outside, against the memo-free free functions of
//! `dijkstra` and `overlay`, which run the engine's search kernel:
//!
//! * `travel_time` and `travel_times_to_many` answer bit for bit as those
//!   functions do (including `None` for unreachable pairs), on seeded random
//!   networks across hour slots, with and without a traffic overlay;
//! * `shortest_path` is their path — nodes, travel time and length, to the
//!   bit;
//! * a search from a source with a tree row resumes the row instead of
//!   starting over, and answers what the fresh search answers — past the
//!   row's reach, on networks whose labels tie, and gated, where the row's
//!   reach decides a gate only as the plain sweep would;
//! * a gated sweep (`gated_travel_times`) opens a gate exactly when one of
//!   its triggers lies within its radius on the plain sweep, answers the
//!   required targets and the members of open gates bit for bit as that
//!   sweep does, leaves the rest unanswered, and leaves nothing behind that
//!   a later query could read as an answer;
//! * multi-threaded dispatch (`DispatchConfig::num_threads > 1`) produces
//!   bit-for-bit the same assignments and simulation metrics as the serial
//!   path.

use foodmatch_core::batching::singleton_batches;
use foodmatch_core::{
    build_food_graph, DispatchConfig, DispatchPolicy, FoodMatchPolicy, Order, VehicleSnapshot,
    WindowSnapshot,
};
use foodmatch_roadnet::generators::RandomCityBuilder;
use foodmatch_roadnet::graph::RoadNetworkBuilder;
use foodmatch_roadnet::overlay::{one_to_many_overlaid_in, shortest_path_overlaid_in};
use foodmatch_roadnet::{
    dijkstra, Duration, GeoPoint, NodeId, RoadClass, RoadNetwork, SearchSpace, ShortestPathEngine,
    TimePoint, TrafficOverlay,
};
use foodmatch_sim::Simulation;
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded sample of node pairs, deliberately including self-pairs.
fn sample_pairs(network: &RoadNetwork, seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = network.node_count() as u32;
    let mut pairs: Vec<(NodeId, NodeId)> = (0..count)
        .map(|_| (NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n))))
        .collect();
    pairs.push((NodeId(0), NodeId(0)));
    pairs
}

/// What the memo-free search answers from `source` to `targets` at `t`: on
/// the overlaid weights of `overlay` when one is given, else on `β(e, t)`.
fn reference(
    network: &RoadNetwork,
    overlay: Option<&TrafficOverlay>,
    source: NodeId,
    targets: &[NodeId],
    t: TimePoint,
) -> Vec<Option<Duration>> {
    match overlay {
        Some(overlay) => {
            let multipliers = overlay.edge_multipliers(network);
            one_to_many_overlaid_in(
                network,
                &multipliers,
                source,
                targets,
                t,
                &mut SearchSpace::new(),
            )
        }
        None => dijkstra::one_to_many(network, source, targets, t),
    }
}

fn bits(d: Option<Duration>) -> Option<u64> {
    d.map(|d| d.as_secs_f64().to_bits())
}

/// `got`, the engine's answer, against the memo-free `expected`: bit for bit.
fn assert_same_duration(expected: Option<Duration>, got: Option<Duration>, context: &str) {
    match (expected, got) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(
            a.as_secs_f64().to_bits(),
            b.as_secs_f64().to_bits(),
            "{context}: {a:?} vs {b:?} must be bit-identical"
        ),
        other => panic!("{context}: reachability mismatch {other:?}"),
    }
}

#[test]
fn all_backends_agree_on_seeded_random_networks() {
    for (nodes, seed, hour) in [(60usize, 11u64, 13u32), (90, 23, 20), (45, 5, 4)] {
        let network = RandomCityBuilder::new(nodes).seed(seed).build();
        let t = TimePoint::from_hms(hour, 10, 0);
        let engine = ShortestPathEngine::cached(network.clone());
        for (a, b) in sample_pairs(&network, seed ^ 0xD15_BA7C4, 80) {
            assert_same_duration(
                dijkstra::shortest_travel_time(&network, a, b, t),
                engine.travel_time(a, b, t),
                &format!("{nodes} nodes seed {seed}: {a}->{b}"),
            );
        }
    }
}

#[test]
fn all_backends_agree_on_one_to_many_including_unreachable() {
    // A network with a deliberately unreachable island: two clusters with a
    // one-way bridge, so some pairs are reachable in one direction only.
    let mut b = RoadNetworkBuilder::new();
    let mut nodes = Vec::new();
    for i in 0..10 {
        nodes.push(b.add_node(GeoPoint::new(0.0, 0.01 * f64::from(i))));
    }
    for w in nodes.windows(2).take(4) {
        b.add_bidirectional(w[0], w[1], 400.0, RoadClass::Local);
    }
    for w in nodes.windows(2).skip(5) {
        b.add_bidirectional(w[0], w[1], 400.0, RoadClass::Local);
    }
    // One-way bridge from the first cluster into the second.
    b.add_edge(nodes[4], nodes[5], 600.0, RoadClass::Arterial);
    let network = b.build();

    let t = TimePoint::from_hms(12, 0, 0);
    let targets: Vec<NodeId> = network.node_ids().collect();
    let engine = ShortestPathEngine::cached(network.clone());
    for &source in &targets {
        let expected = dijkstra::one_to_many(&network, source, &targets, t);
        let got = engine.travel_times_to_many(source, &targets, t);
        for (i, &target) in targets.iter().enumerate() {
            assert_same_duration(expected[i], got[i], &format!("{source}->{target}"));
        }
    }
    // Sanity: the island structure really produces unreachable pairs.
    assert_eq!(dijkstra::shortest_travel_time(&network, nodes[9], nodes[0], t), None);
    assert!(dijkstra::shortest_travel_time(&network, nodes[0], nodes[9], t).is_some());
}

/// Two clusters joined by a one-way bridge: pairs against the bridge are
/// unreachable.
fn bridged_network() -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    let nodes: Vec<NodeId> =
        (0..10).map(|i| b.add_node(GeoPoint::new(0.0, 0.01 * f64::from(i)))).collect();
    for w in nodes.windows(2).take(4).chain(nodes.windows(2).skip(5)) {
        b.add_bidirectional(w[0], w[1], 400.0, RoadClass::Local);
    }
    b.add_edge(nodes[4], nodes[5], 600.0, RoadClass::Arterial);
    b.build()
}

/// The premise the FoodGraph's per-vehicle sweep rests on: one
/// `travel_times_to_many(s, T)` is, bit for bit, `T.map(|t| travel_time(s,
/// t))` and the memo-free one-to-many — with and without a traffic overlay,
/// with duplicate targets, with the source among the targets, with
/// unreachable targets, and whether the pairs are memoised yet or not. The
/// sweep and the point queries run on separate engines so neither can answer
/// from a memo the other filled.
#[test]
fn one_to_many_sweep_equals_point_queries_bit_for_bit() {
    let t = TimePoint::from_hms(19, 20, 0);
    let mut unreachable = 0;
    for network in [RandomCityBuilder::new(120).seed(17).build(), bridged_network()] {
        let mut overlay = TrafficOverlay::new();
        for (i, edge) in network.edge_ids().enumerate().filter(|(i, _)| i % 3 == 0) {
            overlay.slow_edge(edge, 1.3 + 0.4 * (i % 5) as f64);
        }
        let mut rng = StdRng::seed_from_u64(0x5EEB);
        let n = network.node_count() as u32;
        for overlaid in [false, true] {
            let engine = |warm: &[(NodeId, NodeId)]| {
                let engine = ShortestPathEngine::cached(network.clone());
                if overlaid {
                    engine.set_overlay(overlay.clone());
                }
                for &(a, b) in warm {
                    let _ = engine.travel_time(a, b, t);
                }
                engine
            };
            for _ in 0..12 {
                let source = NodeId(rng.random_range(0..n));
                let mut targets: Vec<NodeId> =
                    (0..rng.random_range(1..24)).map(|_| NodeId(rng.random_range(0..n))).collect();
                targets.push(source);
                targets.push(targets[0]); // a duplicate
                                          // Half the pairs are already memoised when the sweep runs.
                let warm: Vec<(NodeId, NodeId)> =
                    targets.iter().step_by(2).map(|&target| (source, target)).collect();
                let swept = engine(&warm).travel_times_to_many(source, &targets, t);
                let want = reference(&network, overlaid.then_some(&overlay), source, &targets, t);
                let point = engine(&[]);
                for ((&target, swept), want) in targets.iter().zip(swept).zip(want) {
                    let expected = point.travel_time(source, target, t);
                    let context = format!("{source}->{target}, overlay {overlaid}");
                    assert_eq!(bits(swept), bits(expected), "{context}");
                    assert_eq!(bits(swept), bits(want), "{context}: memo-free");
                    unreachable += usize::from(expected.is_none());
                }
            }
        }
    }
    assert!(unreachable > 0, "no unreachable target was sampled");
}

/// `network` plus one node no street reaches (edge ids unchanged), as
/// `roadnet::dijkstra::tests::with_island` builds it.
fn with_island(network: &RoadNetwork) -> (RoadNetwork, NodeId) {
    let mut b = RoadNetworkBuilder::new().congestion(network.congestion().clone());
    for node in network.node_ids() {
        b.add_node(network.position(node));
    }
    for edge in network.edge_ids() {
        let e = network.edge(edge);
        b.add_edge(e.from, e.to, e.length_m, e.class);
    }
    let island = b.add_node(GeoPoint::new(0.0, 0.0));
    (b.build(), island)
}

/// The premise of the engine's tree rows: what the engine answers from a
/// source that *repeats* — out of the pair memo, out of the tree its
/// earlier searches left behind, or out of a new search merged into that
/// tree — is, bit for bit, what the memo-free search on the same weights
/// answers. One engine per network lives through target sets
/// that grow, shrink, repeat and overlap, point queries in between, an hour
/// rollover and back, and two overlay generations and their removal; a node
/// no street reaches is `None` in every round (an unsettled node must never
/// read as unreachable, nor the reverse), and nothing computed under one
/// overlay survives into the next.
#[test]
fn a_repeating_source_answers_like_a_fresh_dijkstra_engine_bit_for_bit() {
    let overlay_on = |network: &RoadNetwork, every: usize, factor: f64| {
        let mut overlay = TrafficOverlay::new();
        for edge in network.edge_ids().step_by(every) {
            overlay.slow_edge(edge, factor);
        }
        overlay
    };
    let networks = [
        with_island(&RandomCityBuilder::new(140).seed(41).build()),
        with_island(&RandomCityBuilder::new(90).seed(7).build()),
        with_island(&RandomCityBuilder::new(200).seed(19).build()),
        with_island(&foodmatch_roadnet::generators::GridCityBuilder::new(9, 9).build()),
    ];
    for (which, (network, island)) in networks.iter().enumerate() {
        let n = network.node_count() as u32;
        let mut rng = StdRng::seed_from_u64(0x7EE5 + which as u64);
        let source = NodeId(rng.random_range(0..n - 1));
        let other = NodeId((source.0 + 1) % (n - 1));
        let engine = ShortestPathEngine::cached(network.clone());
        let (noon, one) = (TimePoint::from_hms(12, 20, 0), TimePoint::from_hms(13, 5, 0));
        let (mild, severe) = (overlay_on(network, 3, 1.6), overlay_on(network, 2, 3.5));
        let states: [(Option<&TrafficOverlay>, TimePoint); 6] = [
            (None, noon),
            (None, one),
            (None, noon),
            (Some(&mild), noon),
            (Some(&severe), noon),
            (None, noon),
        ];
        let mut installed: Option<&TrafficOverlay> = None;
        let mut answers_under_mild = Vec::new();
        for (state, (overlay, t)) in states.into_iter().enumerate() {
            if overlay != installed {
                engine.set_overlay(overlay.cloned().unwrap_or_default());
                installed = overlay;
            }
            let memo_free = |from: NodeId, targets: &[NodeId], at| {
                reference(network, overlay, from, targets, at)
            };
            let context = |what: &str| format!("network {which}, state {state}, {what}");

            let mut draw = |count: usize| -> Vec<NodeId> {
                (0..count).map(|_| NodeId(rng.random_range(0..n))).collect()
            };
            let first = draw(6);
            let grown = [first.clone(), draw(4), vec![*island, source]].concat();
            let everything: Vec<NodeId> = network.node_ids().collect();
            let rounds: [Vec<NodeId>; 7] = [
                first.clone(),                                    // memo only
                grown.clone(),                                    // grows: admitted
                first[..3].to_vec(),                              // shrinks: tree hits
                grown.clone(),                                    // repeats
                [first[3..].to_vec(), draw(8)].concat(),          // overlaps: tree grown
                [vec![*island], draw(5), vec![*island]].concat(), // runs the graph dry
                everything,                                       // all of it, island included
            ];
            for (round, targets) in rounds.iter().enumerate() {
                let got = engine.travel_times_to_many(source, targets, t);
                let want = memo_free(source, targets, t);
                for ((&target, got), want) in targets.iter().zip(got).zip(want) {
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{}",
                        context(&format!("round {round}, {source}->{target}"))
                    );
                    if target == *island {
                        assert_eq!(got, None, "{}", context("the island"));
                    }
                }
                // Point queries in between: from the row's source (one of
                // them at an hour that trails the sweeps') and from another.
                for target in draw(3).into_iter().chain([*island]) {
                    for (from, at) in
                        [(source, t), (source, t - Duration::from_mins(30.0)), (other, t)]
                    {
                        assert_eq!(
                            bits(engine.travel_time(from, target, at)),
                            bits(memo_free(from, &[target], at)[0]),
                            "{}",
                            context(&format!("round {round}, point {from}->{target}"))
                        );
                    }
                }
            }
            // What the severe overlay must not inherit from the mild one.
            let probe = engine.travel_times_to_many(source, &rounds[6], t);
            if overlay == Some(&mild) {
                answers_under_mild = probe;
            } else if overlay == Some(&severe) {
                assert_ne!(probe, answers_under_mild, "{}", context("the overlays must differ"));
            }
        }
    }
}

/// A tree row stores a node's parent as the parent edge's ordinal among the
/// node's in-edges. On this network the ordinals that matter are not 0: the
/// hub's four in-edges are added nearest-last (its tree parent is in-edge
/// 3), and of two parallel edges `hub → x` the long one comes first (`x`'s
/// parent is in-edge 1; in-edge 0 leads from the same tail to another sum).
/// Cold sweeps, sweeps off the row the second sweep admits, and point
/// queries read, bit for bit, what the memo-free search reads — on the
/// static weights and under an overlay that leaves the tree as it is.
#[test]
fn a_tree_row_walks_the_in_edge_it_stored_not_the_first() {
    let mut builder = RoadNetworkBuilder::new();
    let [s, a, b, c, d, hub, x, y] = [0u32, 1, 2, 3, 4, 5, 6, 7]
        .map(|i| builder.add_node(GeoPoint::new(0.0, 0.002 * f64::from(i))));
    // Forward edges first, so every node's in-edge 0 comes from nearer the
    // source; the edges back towards it add in-edges no tree takes.
    for (tail, length) in [(a, 500.0), (b, 600.0), (c, 700.0)] {
        builder.add_edge(s, tail, length, RoadClass::Local);
    }
    builder.add_edge(s, d, 200.0, RoadClass::Arterial);
    let mut into_hub = Vec::new();
    for (tail, length, class) in [
        (a, 400.0, RoadClass::Local),
        (b, 400.0, RoadClass::Local),
        (c, 400.0, RoadClass::Collector),
        (d, 300.0, RoadClass::Arterial),
    ] {
        into_hub.push(builder.add_edge(tail, hub, length, class));
    }
    let long = builder.add_edge(hub, x, 2000.0, RoadClass::Local);
    let short = builder.add_edge(hub, x, 300.0, RoadClass::Arterial);
    builder.add_edge(x, y, 400.0, RoadClass::Local);
    for (tail, head) in [(y, x), (x, hub), (hub, d), (d, s), (a, s), (b, s), (c, s)] {
        builder.add_edge(tail, head, 350.0, RoadClass::Collector);
    }
    let network = builder.build();
    let everything: Vec<NodeId> = network.node_ids().collect();
    let t = TimePoint::from_hms(12, 20, 0);
    let mut overlay = TrafficOverlay::new();
    overlay.slow_edge(into_hub[0], 3.0);
    overlay.slow_edge(long, 2.0);
    overlay.slow_edge(short, 1.5);

    for overlaid in [false, true] {
        let overlay = overlaid.then_some(&overlay);
        let want = |targets: &[NodeId]| -> Vec<Option<u64>> {
            reference(&network, overlay, s, targets, t).into_iter().map(bits).collect()
        };
        // In-edge 0 of `x` would read `hub`'s label plus the long edge.
        let [at_hub, at_x] = [want(&[hub])[0], want(&[x])[0]].map(|b| f64::from_bits(b.unwrap()));
        let multiplier = if overlaid { 2.0 } else { 1.0 };
        let long_way = at_hub + network.travel_time(long, t).as_secs_f64() * multiplier;
        assert!(at_x < long_way, "overlaid: {overlaid}: the short parallel edge is the parent");

        let engine = ShortestPathEngine::cached(network.clone());
        if let Some(overlay) = overlay {
            engine.set_overlay(overlay.clone());
        }
        let sweep = |targets: &[NodeId]| -> Vec<Option<u64>> {
            engine.travel_times_to_many(s, targets, t).into_iter().map(bits).collect()
        };
        // Cold: no row. Then known and still missing `y`, the farthest
        // node: a row, and the search that fills it settles every node.
        assert_eq!(sweep(&[a]), want(&[a]), "cold, overlaid: {overlaid}");
        assert_eq!(sweep(&[a, y]), want(&[a, y]), "admitting, overlaid: {overlaid}");
        // Off the row: nodes settled on the way and never asked.
        for target in [hub, x, c, d] {
            assert_eq!(
                bits(engine.travel_time(s, target, t)),
                want(&[target])[0],
                "point {s}->{target}, overlaid: {overlaid}"
            );
        }
        assert_eq!(sweep(&everything), want(&everything), "row sweep, overlaid: {overlaid}");
    }
}

/// The contract of a gated sweep (`gated_travel_times`), with and without an
/// overlay, from a cold engine, from one that already knows half the pairs,
/// and from a source with a tree row: a gate opens exactly when one of its
/// triggers lies within its radius on the memo-free plain sweep — a trigger
/// at exactly the radius opens it, one
/// a float step beyond closes it, the island closes it — and the required
/// targets and the members of open gates read, bit for bit, what the plain
/// sweep reads, while a member only closed gates asked for is not answered.
/// Afterwards plain sweeps and point queries from the same source answer
/// those members exactly: what a gated search stopped short of is never
/// remembered as anything but unknown.
#[test]
fn a_gated_sweep_answers_what_its_open_gates_ask_like_the_plain_sweep() {
    use foodmatch_roadnet::GatedTargets;
    let t = TimePoint::from_hms(12, 40, 0);
    let (mut opened, mut closed, mut unanswered) = (0, 0, 0);
    let networks = [
        with_island(&RandomCityBuilder::new(150).seed(3).build()),
        with_island(&RandomCityBuilder::new(90).seed(29).build()),
    ];
    for (which, (network, island)) in networks.iter().enumerate() {
        let mut overlay = TrafficOverlay::new();
        for edge in network.edge_ids().step_by(3) {
            overlay.slow_edge(edge, 1.7);
        }
        let n = network.node_count() as u32;
        let everything: Vec<NodeId> = network.node_ids().collect();
        for overlaid in [false, true] {
            let installed = overlaid.then_some(&overlay);
            let mut rng = StdRng::seed_from_u64(0x6A7E + which as u64);
            for round in 0..27 {
                let context = format!("network {which}, overlay {overlaid}, round {round}");
                // The island is a node too, and never a source.
                let source = NodeId(rng.random_range(0..n - 1));
                let plain = reference(network, installed, source, &everything, t);
                let secs =
                    |node: NodeId| plain[node.index()].map_or(f64::INFINITY, |d| d.as_secs_f64());
                let draw = |rng: &mut StdRng, count: usize| -> Vec<NodeId> {
                    (0..count).map(|_| NodeId(rng.random_range(0..n))).collect()
                };

                // Two gates on one trigger: radius exactly its distance,
                // and one float step short of it. They share a member,
                // and the closed one lists a required node.
                let required = draw(&mut rng, 3);
                let edge = draw(&mut rng, 8)
                    .into_iter()
                    .find(|&node| node != source && secs(node).is_finite())
                    .unwrap_or(required[0]);
                let at = secs(edge);
                let mut gates: Vec<(f64, Vec<NodeId>, Vec<NodeId>)> = Vec::new();
                if at.is_finite() && at > 0.0 {
                    let shared = draw(&mut rng, 1);
                    let others = [shared.clone(), draw(&mut rng, 2)].concat();
                    gates.push((at, vec![edge], others));
                    let short = f64::from_bits(at.to_bits() - 1);
                    let others = [shared, vec![required[1]], draw(&mut rng, 1)].concat();
                    gates.push((short, vec![edge], others));
                }
                // Random gates, radius the distance of a random node: one
                // or two triggers, sometimes the island or the source.
                for _ in 0..6 {
                    let count = rng.random_range(1..3);
                    let mut triggers = draw(&mut rng, count);
                    match rng.random_range(0..6) {
                        0 => triggers.push(*island),
                        1 => triggers.push(source),
                        _ => {}
                    }
                    let radius = secs(draw(&mut rng, 1)[0]).min(1e5);
                    let count = rng.random_range(0..3);
                    gates.push((radius, triggers, draw(&mut rng, count)));
                }
                // A gate with no trigger never opens.
                gates.push((1e5, Vec::new(), draw(&mut rng, 1)));

                let mut asked = GatedTargets::new();
                asked.require(required.iter().copied());
                for (radius, triggers, others) in &gates {
                    let radius = Duration::from_secs_f64(*radius);
                    asked.gate(radius, triggers.iter().copied(), others.iter().copied());
                }
                let engine = ShortestPathEngine::cached(network.clone());
                if overlaid {
                    engine.set_overlay(overlay.clone());
                }
                match round % 3 {
                    0 => {}
                    // Half the pairs known before the sweep.
                    1 => {
                        for (_, triggers, others) in gates.iter().step_by(2) {
                            for &node in triggers.iter().chain(others) {
                                let _ = engine.travel_time(source, node, t);
                            }
                        }
                    }
                    // A source the memo knew, still missing: a tree row.
                    _ => {
                        let _ = engine.travel_times_to_many(source, &draw(&mut rng, 2), t);
                        let _ = engine.travel_times_to_many(source, &draw(&mut rng, 3), t);
                    }
                }
                let got = engine.gated_travel_times(source, &asked, t);

                let want_open: Vec<bool> = gates
                    .iter()
                    .map(|(radius, triggers, _)| triggers.iter().any(|&tr| secs(tr) <= *radius))
                    .collect();
                assert_eq!(got.opened, want_open, "{context}");
                if at.is_finite() && at > 0.0 {
                    assert_eq!(&got.opened[..2], [true, false], "{context}: at the radius");
                }
                let mut want: Vec<NodeId> = required.clone();
                for ((_, triggers, others), _) in gates.iter().zip(&want_open).filter(|(_, o)| **o)
                {
                    want.extend(triggers.iter().chain(others));
                }
                want.sort_unstable();
                want.dedup();
                assert_eq!(got.targets, want, "{context}");
                for (&node, &answer) in got.targets.iter().zip(&got.travel_times) {
                    assert_eq!(bits(answer), bits(plain[node.index()]), "{context}: {node}");
                }
                opened += want_open.iter().filter(|&&open| open).count();
                closed += want_open.iter().filter(|&&open| !open).count();

                // Afterwards, the members nobody answered: half by point
                // query, then all of them by a plain sweep.
                let mut left_out: Vec<NodeId> = gates
                    .iter()
                    .flat_map(|(_, triggers, others)| triggers.iter().chain(others))
                    .copied()
                    .filter(|node| want.binary_search(node).is_err())
                    .collect();
                left_out.sort_unstable();
                left_out.dedup();
                unanswered += left_out.len();
                for &node in left_out.iter().step_by(2) {
                    let point = engine.travel_time(source, node, t);
                    assert_eq!(bits(point), bits(plain[node.index()]), "{context}: point {node}");
                }
                let swept = engine.travel_times_to_many(source, &left_out, t);
                for (&node, answer) in left_out.iter().zip(swept) {
                    assert_eq!(bits(answer), bits(plain[node.index()]), "{context}: swept {node}");
                }
            }
        }
    }
    assert!(opened > 100 && closed > 100 && unanswered > 100, "{opened} / {closed} / {unanswered}");
}

/// `network`'s nodes that `source` reaches, nearest first, by the memo-free
/// search on `overlay`'s weights (or the static ones).
fn nearest_first(
    network: &RoadNetwork,
    overlay: Option<&TrafficOverlay>,
    source: NodeId,
    t: TimePoint,
) -> Vec<NodeId> {
    let everything: Vec<NodeId> = network.node_ids().collect();
    let secs = reference(network, overlay, source, &everything, t);
    let mut reached: Vec<(f64, NodeId)> = (secs.into_iter().zip(everything))
        .filter_map(|(secs, node)| Some((secs?.as_secs_f64(), node)))
        .collect();
    reached.sort_by(|a, b| a.0.total_cmp(&b.0));
    reached.into_iter().map(|(_, node)| node).collect()
}

/// The engine of `network` on `overlay`'s weights, with a tree row for
/// `source` that a narrow sweep left: its search ran out to `reached`.
fn engine_with_narrow_row(
    network: &RoadNetwork,
    overlay: Option<&TrafficOverlay>,
    source: NodeId,
    near: NodeId,
    reached: NodeId,
    t: TimePoint,
) -> ShortestPathEngine {
    let engine = ShortestPathEngine::cached(network.clone());
    if let Some(overlay) = overlay {
        engine.set_overlay(overlay.clone());
    }
    // First seen: a search, no row. Known and still missing: the row.
    engine.travel_times_to_many(source, &[near], t);
    engine.travel_times_to_many(source, &[near, reached], t);
    engine
}

/// A search from a source with a tree row resumes the row: what the row
/// settled is settled again at the labels it re-sums, and the search goes
/// on from the frontier. A row a narrow sweep left, then a wider plain
/// sweep past its reach, point queries farther still (each resuming the
/// row the one before grew), and the island, read bit for bit what the
/// memo-free search reads — on random cities, on a free-flow grid whose
/// labels tie (so a resumed search may pick another tree parent than the
/// fresh one did), with and without an overlay.
#[test]
fn a_resumed_search_answers_past_the_rows_reach_like_a_fresh_one() {
    let t = TimePoint::from_hms(12, 50, 0);
    let grid = foodmatch_roadnet::generators::GridCityBuilder::new(12, 12)
        .major_every(0)
        .congestion(foodmatch_roadnet::CongestionProfile::free_flow())
        .build();
    let networks = [
        with_island(&RandomCityBuilder::new(180).seed(13).build()),
        with_island(&RandomCityBuilder::new(120).seed(71).build()),
        with_island(&grid),
    ];
    for (which, (network, island)) in networks.iter().enumerate() {
        // Every edge slowed alike keeps the grid's ties; a third of them
        // slowed moves the random cities' trees.
        let mut overlay = TrafficOverlay::new();
        let every = if which == 2 { 1 } else { 3 };
        for edge in network.edge_ids().step_by(every) {
            overlay.slow_edge(edge, 2.0);
        }
        let mut rng = StdRng::seed_from_u64(0x2E5E + which as u64);
        for overlaid in [false, true] {
            let overlay = overlaid.then_some(&overlay);
            for round in 0..6 {
                let context = format!("network {which}, overlaid {overlaid}, round {round}");
                let n = network.node_count() - 1;
                let source = NodeId(rng.random_range(0..n as u32));
                let ranked = nearest_first(network, overlay, source, t);
                let m = ranked.len();
                let (near, reached) = (ranked[1], ranked[rng.random_range(m / 8..m / 3)]);
                let engine = engine_with_narrow_row(network, overlay, source, near, reached, t);
                let want = |targets: &[NodeId]| -> Vec<Option<u64>> {
                    reference(network, overlay, source, targets, t).into_iter().map(bits).collect()
                };
                let swept = |targets: &[NodeId]| -> Vec<Option<u64>> {
                    engine.travel_times_to_many(source, targets, t).into_iter().map(bits).collect()
                };
                // Wider: on the row, just past it, and far beyond it.
                let wider: Vec<NodeId> =
                    (0..8).map(|_| ranked[rng.random_range(0..m * 2 / 3)]).collect();
                assert_eq!(swept(&wider), want(&wider), "{context}: the wider sweep");
                for _ in 0..6 {
                    let beyond = ranked[rng.random_range(m / 2..m)];
                    let got = bits(engine.travel_time(source, beyond, t));
                    assert_eq!(got, want(&[beyond])[0], "{context}: point {source}->{beyond}");
                }
                assert_eq!(engine.travel_time(source, *island, t), None, "{context}: island");
                assert_eq!(swept(&ranked), want(&ranked), "{context}: the whole tree");
            }
        }
    }
}

/// A gated sweep from a source with a tree row: the row's reach floors
/// every node it has not settled, so a gate whose radius is below the reach
/// is decided with no search — here closed, with one trigger on the row
/// beyond the radius and one off it — and a gate beyond the reach is
/// decided by the search that resumes the row, which passes the radius
/// with row nodes settled far beyond it. `opened` is the plain sweep's, and
/// the answered targets read its bits, with and without an overlay.
#[test]
fn a_gated_sweep_from_a_row_opens_what_the_plain_sweep_opens() {
    use foodmatch_roadnet::GatedTargets;
    let t = TimePoint::from_hms(12, 40, 0);
    let (mut by_the_row, mut by_the_search) = (0, 0);
    let networks = [
        with_island(&RandomCityBuilder::new(160).seed(23).build()),
        with_island(&RandomCityBuilder::new(110).seed(61).build()),
    ];
    for (which, (network, island)) in networks.iter().enumerate() {
        let mut overlay = TrafficOverlay::new();
        for edge in network.edge_ids().step_by(2) {
            overlay.slow_edge(edge, 1.8);
        }
        let mut rng = StdRng::seed_from_u64(0x6A7E5 + which as u64);
        for overlaid in [false, true] {
            let overlay = overlaid.then_some(&overlay);
            for round in 0..10 {
                let context = format!("network {which}, overlaid {overlaid}, round {round}");
                let n = network.node_count() - 1;
                let source = NodeId(rng.random_range(0..n as u32));
                let everything: Vec<NodeId> = network.node_ids().collect();
                let plain = reference(network, overlay, source, &everything, t);
                let secs =
                    |node: NodeId| plain[node.index()].map_or(f64::INFINITY, |d| d.as_secs_f64());
                let ranked = nearest_first(network, overlay, source, t);
                let m = ranked.len();
                let at = |lo: usize, hi: usize, rng: &mut StdRng| ranked[rng.random_range(lo..hi)];
                let reached = at(m / 3, m / 2, &mut rng);
                let engine =
                    engine_with_narrow_row(network, overlay, source, ranked[1], reached, t);

                // Below the reach: one trigger on the row beyond the radius,
                // one off the row; then the same with one within it.
                let radius = secs(at(m / 8, m / 4, &mut rng));
                let on_row_beyond = ranked
                    .iter()
                    .copied()
                    .find(|&node| secs(node) > radius && secs(node) < secs(reached));
                let on_row_beyond = on_row_beyond.unwrap_or(reached);
                let off_row = at(m * 3 / 4, m, &mut rng);
                let mut gates: Vec<(f64, Vec<NodeId>, Vec<NodeId>)> = vec![
                    (radius, vec![on_row_beyond, off_row], vec![at(m / 2, m, &mut rng)]),
                    (radius, vec![off_row, at(0, m / 8, &mut rng)], vec![at(m / 2, m, &mut rng)]),
                ];
                // Beyond the reach: decided by the search, one trigger within
                // the radius or none, the island among them.
                for _ in 0..4 {
                    let radius = secs(at(m / 2, m, &mut rng));
                    let mut triggers = vec![at(m / 2, m, &mut rng), at(m / 3, m, &mut rng)];
                    if rng.random_range(0..3) == 0 {
                        triggers.push(*island);
                    }
                    gates.push((radius, triggers, vec![at(0, m, &mut rng)]));
                }
                let required = vec![at(m / 2, m, &mut rng), at(0, m / 3, &mut rng)];
                let mut asked = GatedTargets::new();
                asked.require(required.iter().copied());
                for (radius, triggers, others) in &gates {
                    let radius = Duration::from_secs_f64(*radius);
                    asked.gate(radius, triggers.iter().copied(), others.iter().copied());
                }
                let got = engine.gated_travel_times(source, &asked, t);

                let want_open: Vec<bool> = gates
                    .iter()
                    .map(|(radius, triggers, _)| triggers.iter().any(|&tr| secs(tr) <= *radius))
                    .collect();
                assert_eq!(got.opened, want_open, "{context}");
                assert!(!got.opened[0], "{context}: the row's reach closes it");
                let mut want: Vec<NodeId> = required.clone();
                for ((_, triggers, others), _) in gates.iter().zip(&want_open).filter(|(_, o)| **o)
                {
                    want.extend(triggers.iter().chain(others));
                }
                want.sort_unstable();
                want.dedup();
                assert_eq!(got.targets, want, "{context}");
                for (&node, &answer) in got.targets.iter().zip(&got.travel_times) {
                    assert_eq!(bits(answer), bits(plain[node.index()]), "{context}: {node}");
                }
                by_the_row += 2;
                by_the_search += gates.len() - 2;
            }
        }
    }
    assert!(by_the_row >= 80 && by_the_search >= 160, "{by_the_row} / {by_the_search}");
}

#[test]
fn shortest_path_agrees_across_backends() {
    let network = RandomCityBuilder::new(70).seed(31).build();
    let t = TimePoint::from_hms(13, 30, 0);
    let overlay = {
        let mut overlay = TrafficOverlay::new();
        for edge in network.edge_ids().step_by(4) {
            overlay.slow_edge(edge, 2.2);
        }
        overlay
    };
    let multipliers = overlay.edge_multipliers(&network);
    let mut space = SearchSpace::new();
    let engine = ShortestPathEngine::cached(network.clone());
    for overlaid in [false, true] {
        if overlaid {
            engine.set_overlay(overlay.clone());
        }
        for (a, b) in sample_pairs(&network, 7, 40) {
            let expected = if overlaid {
                shortest_path_overlaid_in(&network, &multipliers, a, b, t, &mut space)
            } else {
                dijkstra::shortest_path(&network, a, b, t)
            };
            let got = engine.shortest_path(a, b, t);
            match (expected, got) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    let context = format!("{a}->{b}, overlay {overlaid}: {x:?} vs {y:?}");
                    assert_eq!(y.nodes, x.nodes, "{context}");
                    assert_eq!(
                        y.travel_time.as_secs_f64().to_bits(),
                        x.travel_time.as_secs_f64().to_bits(),
                        "{context}"
                    );
                    assert_eq!(y.length_m.to_bits(), x.length_m.to_bits(), "{context}");
                    assert_eq!(y.nodes.first(), Some(&a), "{context}");
                    assert_eq!(y.nodes.last(), Some(&b), "{context}");
                }
                other => panic!("{a}->{b}, overlay {overlaid}: {other:?}"),
            }
        }
    }
}

/// A mid-sized dispatch window over a generated city.
fn dispatch_window() -> (WindowSnapshot, ShortestPathEngine) {
    let scenario = Scenario::generate(
        CityId::A,
        ScenarioOptions {
            seed: 9,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(13, 0, 0),
            vehicle_fraction: 1.0,
        },
    );
    let t = TimePoint::from_hms(12, 30, 0);
    let orders: Vec<Order> = scenario.orders.iter().copied().take(24).collect();
    let vehicles: Vec<VehicleSnapshot> =
        scenario.vehicle_starts.iter().map(|&(id, node)| VehicleSnapshot::idle(id, node)).collect();
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    (WindowSnapshot::new(t, orders, vehicles), engine)
}

#[test]
fn parallel_dispatch_matches_serial_assignments() {
    let (window, engine) = dispatch_window();
    let serial_config = DispatchConfig { num_threads: 1, ..Default::default() };
    let serial = FoodMatchPolicy::new().assign(&window, &engine, &serial_config);
    serial.validate(&window).unwrap();
    for num_threads in [2usize, 4, 8] {
        let config = DispatchConfig { num_threads, ..Default::default() };
        let parallel = FoodMatchPolicy::new().assign(&window, &engine, &config);
        parallel.validate(&window).unwrap();
        assert_eq!(
            serial.assignments, parallel.assignments,
            "num_threads = {num_threads} diverged from serial"
        );
        assert_eq!(serial.unassigned, parallel.unassigned);
    }
}

#[test]
fn parallel_foodgraph_matches_serial_bit_for_bit() {
    let (window, engine) = dispatch_window();
    let t = window.time;
    let batches = singleton_batches(&window.orders, &engine, t).batches;
    let serial_config = DispatchConfig { num_threads: 1, ..Default::default() };
    let serial = build_food_graph(&batches, &window.vehicles, &engine, t, &serial_config);
    let parallel_config = DispatchConfig { num_threads: 4, ..Default::default() };
    let parallel = build_food_graph(&batches, &window.vehicles, &engine, t, &parallel_config);
    assert_eq!(serial.evaluations, parallel.evaluations);
    for r in 0..batches.len() {
        for c in 0..window.vehicles.len() {
            assert_eq!(
                serial.costs.get(r, c).to_bits(),
                parallel.costs.get(r, c).to_bits(),
                "cost ({r},{c}) differs between serial and parallel construction"
            );
        }
    }
}

#[test]
fn parallel_simulation_reproduces_serial_metrics() {
    let scenario = Scenario::generate(
        CityId::GrubHub,
        ScenarioOptions {
            seed: 4,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(12, 45, 0),
            vehicle_fraction: 1.0,
        },
    );
    let run = |num_threads: usize| {
        let config = DispatchConfig { num_threads, ..scenario.default_config() };
        let engine = ShortestPathEngine::cached(scenario.city.network.clone());
        let simulation = Simulation::new(
            engine,
            scenario.orders.clone(),
            scenario.vehicle_starts.clone(),
            config,
            scenario.options.start,
            scenario.options.end,
        );
        simulation.run(&mut FoodMatchPolicy::new())
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.delivered.len(), parallel.delivered.len());
    assert_eq!(serial.rejected.len(), parallel.rejected.len());
    assert!((serial.total_xdt_hours() - parallel.total_xdt_hours()).abs() < 1e-9);
    assert!((serial.total_km() - parallel.total_km()).abs() < 1e-9);
}

/// The engine must count path queries like the other entry points (the
/// fixed `shortest_path` accounting).
#[test]
fn every_backend_counts_path_queries() {
    let network = RandomCityBuilder::new(40).seed(2).build();
    let t = TimePoint::from_hms(12, 0, 0);
    let nodes: Vec<NodeId> = network.node_ids().collect();
    let engine = ShortestPathEngine::cached(network.clone());
    let _ = engine.shortest_path(nodes[0], nodes[nodes.len() - 1], t);
    let _ = engine.travel_time(nodes[1], nodes[2], t);
    assert_eq!(engine.query_count(), 2);
}
