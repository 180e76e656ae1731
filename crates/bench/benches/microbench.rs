//! Criterion micro-benchmarks for the building blocks whose cost dominates
//! the per-window running time reported in Fig. 6(h), 8(g) and 8(k):
//! warm shortest-path queries on the one engine, a cold oracle miss with and
//! without a traffic overlay installed, a source that repeats (tree rows),
//! Kuhn–Munkres matching, order batching (a City A window on a warm engine,
//! one metro window on a cold one), sparsified (by travel time and by
//! angular weight) vs dense FoodGraph construction (idle and half-loaded
//! fleet, and one metro window of couriers under way), Eq. 8's per-node
//! angular potential, and one full FoodMatch window.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use foodmatch_core::{
    batch_orders, build_food_graph, CommittedOrder, DispatchConfig, DispatchPolicy,
    FoodMatchPolicy, GreedyPolicy, KuhnMunkresPolicy, Order, OrderId, VehicleSnapshot,
    WindowSnapshot,
};
use foodmatch_roadnet::{
    AngularFrame, Duration, NodeId, RoadNetwork, ShortestPathEngine, TimePoint, TrafficOverlay,
};
use foodmatch_workload::{
    CityId, EventScheduleBuilder, MetroOptions, MetroScenario, Scenario, ScenarioOptions,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn lunch_window(
    city: CityId,
    orders: usize,
) -> (WindowSnapshot, ShortestPathEngine, DispatchConfig) {
    let scenario = Scenario::generate(city, ScenarioOptions::lunch_peak(7));
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    let config =
        DispatchConfig { accumulation_window: scenario.city.preset.delta, ..Default::default() };
    let time = TimePoint::from_hms(13, 0, 0);
    let window_orders: Vec<_> = scenario.orders.iter().copied().take(orders).collect();
    let vehicles: Vec<_> =
        scenario.vehicle_starts.iter().map(|&(id, node)| VehicleSnapshot::idle(id, node)).collect();
    (WindowSnapshot::new(time, window_orders, vehicles), engine, config)
}

fn bench_shortest_paths(c: &mut Criterion) {
    let scenario = Scenario::generate(CityId::A, ScenarioOptions::lunch_peak(3));
    let network = scenario.city.network.clone();
    let nodes: Vec<_> = network.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(11);
    let pairs: Vec<_> = (0..64)
        .map(|_| (nodes[rng.random_range(0..nodes.len())], nodes[rng.random_range(0..nodes.len())]))
        .collect();
    let t = TimePoint::from_hms(13, 0, 0);

    // 64 pairs the engine has answered before: pair-memo hits. Cold misses
    // are `overlay_miss`, tree walks `repeat_source`.
    let engine = ShortestPathEngine::cached(network);
    for &(a, b) in &pairs {
        black_box(engine.travel_time(a, b, t));
    }
    let mut group = c.benchmark_group("shortest_path");
    group.bench_function("warm_pairs64", |b| {
        b.iter(|| {
            for &(from, to) in &pairs {
                black_box(engine.travel_time(from, to, t));
            }
        })
    });
    group.finish();
}

/// The City B lunch network, its nodes in a seeded shuffle, and one incident
/// of the `IncidentHeavy` preset's size on it.
fn city_b_with_incident() -> (RoadNetwork, Vec<NodeId>, TrafficOverlay) {
    let scenario = Scenario::generate(CityId::B, ScenarioOptions::lunch_peak(3));
    let network = scenario.city.network.clone();
    let mut nodes: Vec<NodeId> = network.node_ids().collect();
    nodes.shuffle(&mut StdRng::seed_from_u64(11));
    let preset = EventScheduleBuilder::incident_heavy(3);
    let origin = network.position(scenario.orders[0].restaurant);
    let near = |node| network.position(node).distance_m(origin) <= preset.incident_radius_m;
    let mut incident = TrafficOverlay::new();
    for eid in network.edge_ids() {
        let edge = network.edge(eid);
        if near(edge.from) && near(edge.to) {
            incident.slow_edge(eid, preset.incident_factor.1);
        }
    }
    assert!(!incident.is_empty(), "the incident must slow something");
    (network, nodes, incident)
}

fn bench_overlay_miss(c: &mut Criterion) {
    // What one memo miss costs the default (cached) engine, with no overlay
    // and under one incident: a point query and a 32-target sweep, on the
    // City B lunch network. Every iteration asks for pairs the engine has
    // not seen, so none is a hit (and no source is ever given a tree row).
    let (network, nodes, incident) = city_b_with_incident();
    let t = TimePoint::from_hms(13, 0, 0);
    let n = nodes.len();
    // Miss `i`: source `i mod n` of the shuffle and the `width` nodes that
    // follow it at an offset that grows once per lap — no pair twice before
    // lap `n / width`, far beyond what the measurement budget reaches.
    let miss = |i: usize, width: usize| {
        let (lap, at) = (i / n, i % n);
        let targets: Vec<NodeId> =
            (0..width).map(|j| nodes[(at + 1 + lap * width + j) % n]).collect();
        (nodes[at], targets)
    };

    let mut group = c.benchmark_group("overlay_miss");
    for (condition, overlay) in [("calm", None), ("incident", Some(&incident))] {
        for (shape, width) in [("point", 1), ("sweep32", 32)] {
            let engine = ShortestPathEngine::cached(network.clone());
            if let Some(overlay) = overlay {
                engine.set_overlay(overlay.clone());
            }
            let mut asked = 0;
            group.bench_function(&format!("{condition}/{shape}"), |b| {
                b.iter(|| {
                    let (source, targets) = miss(asked, width);
                    asked += 1;
                    if let [target] = targets[..] {
                        black_box(engine.travel_time(source, target, t));
                    } else {
                        black_box(engine.travel_times_to_many(source, &targets, t));
                    }
                })
            });
        }
    }
    group.finish();
}

fn bench_repeat_source(c: &mut Criterion) {
    // What a source that stands still costs the default engine per round of
    // 32 targets it was asked before + 8 it was not, with no overlay and
    // under one incident: round 1 (cold — all 40 miss, one search), round 2
    // (admission — the search for the 8 new ones leaves a tree row behind)
    // and rounds 3+ (the row answers what it has settled and grows by the
    // occasional search; by the time every node has been asked once a round
    // is 40 tree walks, to be read against 40 × `roadnet.probe_hit_ns`),
    // and `resume`: a source whose row reaches the median node, asked for 8
    // targets in its farthest quarter — beyond the row's reach, so one
    // search, which resumes the row instead of starting over.
    let (network, nodes, incident) = city_b_with_incident();
    let t = TimePoint::from_hms(13, 0, 0);
    let (source, stops) = nodes.split_first().expect("a city has nodes");
    // Round `r ≥ 1`: 8 new stops, and the 32 that came before them.
    let round =
        |r: usize| -> Vec<NodeId> { (0..40).map(|j| stops[(8 * r + j) % stops.len()]).collect() };
    let ask = |engine: &ShortestPathEngine, r: usize| {
        black_box(engine.travel_times_to_many(*source, &round(r), t));
    };
    // A sweep of another hour rolls the source's shard: rows and pairs go.
    let forget = |engine: &ShortestPathEngine| {
        engine.travel_times_to_many(*source, &stops[..1], t + Duration::from_mins(60.0));
    };

    let mut group = c.benchmark_group("repeat_source");
    for (condition, overlay) in [("calm", None), ("incident", Some(&incident))] {
        let engine = ShortestPathEngine::cached(network.clone());
        if let Some(overlay) = overlay {
            engine.set_overlay(overlay.clone());
        }
        for (name, before) in [("round1_cold", 0), ("round2_admission", 1)] {
            group.bench_function(&format!("{condition}/{name}"), |b| {
                b.iter_batched(
                    || {
                        forget(&engine);
                        (1..=before).for_each(|r| ask(&engine, r));
                    },
                    |()| ask(&engine, before + 1),
                    BatchSize::SmallInput,
                )
            });
        }
        forget(&engine);
        let mut r = 0;
        group.bench_function(&format!("{condition}/round3plus_tree"), |b| {
            b.iter(|| {
                r += 1;
                ask(&engine, r)
            })
        });

        // The nodes the source reaches, nearest first, on this condition's
        // weights (ranked by an engine of their own).
        let ranking = ShortestPathEngine::cached(network.clone());
        if let Some(overlay) = overlay {
            ranking.set_overlay(overlay.clone());
        }
        let secs = ranking.travel_times_to_many(*source, &nodes, t);
        let mut ranked: Vec<(f64, NodeId)> = (secs.iter().zip(&nodes))
            .filter_map(|(secs, &node)| Some((secs.as_ref()?.as_secs_f64(), node)))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let eight = |from: usize| -> Vec<NodeId> {
            ranked[from..from + 8].iter().map(|&(_, node)| node).collect()
        };
        let m = ranked.len();
        let (near, median, far) = (eight(m / 8), ranked[m / 2].1, eight(3 * m / 4));
        group.bench_function(&format!("{condition}/resume"), |b| {
            b.iter_batched(
                || {
                    forget(&engine);
                    engine.travel_times_to_many(*source, &near, t);
                    engine.travel_times_to_many(*source, &[near[0], median], t);
                },
                |()| black_box(engine.travel_times_to_many(*source, &far, t)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    use foodmatch_matching::{Decomposed, SparseCostMatrix};
    // A sparse window-shaped instance: 200 batches × 90 vehicles, ~8 finite
    // edges per vehicle, Ω everywhere else.
    let mut rng = StdRng::seed_from_u64(17);
    let (rows, cols) = (200usize, 90usize);
    let mut costs = SparseCostMatrix::new(rows, cols, 7_200.0);
    for col in 0..cols {
        for _ in 0..8 {
            let row = rng.random_range(0..rows);
            costs.set(row, col, rng.random_range(0.0..3_000.0));
        }
    }
    let mut group = c.benchmark_group("assignment_solver");
    group.sample_size(10);
    let solver = Decomposed::new(4);
    group.bench_function(Decomposed::NAME, |b| b.iter(|| black_box(solver.solve(&costs))));
    group.finish();
}

/// The `metro_single` shape: the 65 km metro, the last 30 orders placed by
/// 12:30 of its lunch peak, that time, and its config.
fn metro_window() -> (MetroScenario, Vec<Order>, TimePoint, DispatchConfig) {
    let metro = MetroScenario::generate(MetroOptions::lunch_peak(7));
    let config = metro.config();
    let t = TimePoint::from_hms(12, 30, 0);
    let mut orders: Vec<Order> =
        metro.orders.iter().copied().filter(|o| o.placed_at <= t).collect();
    orders.drain(..orders.len().saturating_sub(30));
    (metro, orders, t, config)
}

fn bench_batching(c: &mut Criterion) {
    let (window, engine, config) = lunch_window(CityId::A, 24);
    let mut group = c.benchmark_group("batching");
    group.sample_size(10);
    group.bench_function("cluster_24_orders", |b| {
        b.iter(|| black_box(batch_orders(&window.orders, &engine, window.time, &config)))
    });
    // One metro lunch window on a cold engine, as a window whose orders are
    // new finds it: the restaurant pass, the stop table over each component's
    // stops, and the clustering.
    let (metro, orders, t, config) = metro_window();
    group.bench_function("metro_window", |b| {
        b.iter_batched(
            || ShortestPathEngine::cached(metro.network.clone()),
            |engine| batch_orders(&orders, &engine, t, &config),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_foodgraph(c: &mut Criterion) {
    let (window, engine, config) = lunch_window(CityId::A, 24);
    let batches = batch_orders(&window.orders, &engine, window.time, &config).batches;
    let mut group = c.benchmark_group("foodgraph");
    group.sample_size(10);
    let dense_config = DispatchConfig { use_bfs_sparsification: false, ..config.clone() };
    group.bench_function("dense", |b| {
        b.iter(|| {
            black_box(build_food_graph(
                &batches,
                &window.vehicles,
                &engine,
                window.time,
                &dense_config,
            ))
        })
    });
    group.bench_function("sparsified_bfs", |b| {
        b.iter(|| {
            black_box(build_food_graph(&batches, &window.vehicles, &engine, window.time, &config))
        })
    });
    // The resolve phase's case: the dense graph again, with every other
    // vehicle carrying two committed orders (one already on board), so the
    // same batch stops are wanted by half the fleet's leg tables.
    let vehicle_count = window.vehicles.len();
    let stop_of = |i: usize| window.vehicles[i % vehicle_count].location;
    let loaded: Vec<VehicleSnapshot> = (0..vehicle_count)
        .map(|i| {
            let committed = (0..2)
                .filter(|_| i % 2 == 0)
                .map(|k| CommittedOrder {
                    order: Order::new(
                        OrderId((10_000 + 2 * i + k) as u64),
                        stop_of(i + 1 + k),
                        stop_of(i + 3 + k),
                        window.time,
                        1,
                        Duration::from_mins(8.0),
                    ),
                    picked_up: k == 0,
                })
                .collect();
            VehicleSnapshot { committed, ..window.vehicles[i].clone() }
        })
        .collect();
    group.bench_function("loaded_fleet", |b| {
        b.iter(|| {
            black_box(build_food_graph(&batches, &loaded, &engine, window.time, &dense_config))
        })
    });
    // Alg. 2's expansion under the vehicle-sensitive weight of Eq. 8, in
    // isolation: every vehicle is under way (towards the next one's node) and
    // the degree cap is half the batch count, so every vehicle expands.
    let headed: Vec<_> = (0..vehicle_count)
        .map(|i| {
            let heading = Some(stop_of(i + 1));
            VehicleSnapshot { heading, ..window.vehicles[i].clone() }
        })
        .collect();
    let angular_config = DispatchConfig { k_factor: 0.5 * vehicle_count as f64, ..config.clone() };
    assert!(angular_config.degree_cap(batches.len(), vehicle_count) < batches.len());
    group.bench_function("sparsified_angular", |b| {
        b.iter(|| {
            black_box(build_food_graph(&batches, &headed, &engine, window.time, &angular_config))
        })
    });
    // The `metro_single` shape: one lunch window of the 65 km metro, its
    // 250 couriers all under way (each towards another's start) under the
    // metro's 15-minute first mile. Each courier's gated sweep over every
    // batch finds the few inside that mile — none, for many — and Alg. 2's
    // angular expansion runs only until it has reached them. Each iteration
    // runs on a cold engine, as a fleet that moves finds its start rows.
    let (metro, orders, t, config) = metro_window();
    let batches =
        batch_orders(&orders, &ShortestPathEngine::cached(metro.network.clone()), t, &config);
    let fleet = &metro.vehicle_starts;
    let couriers: Vec<VehicleSnapshot> = fleet
        .iter()
        .zip(fleet.iter().cycle().skip(1))
        .map(|(&(id, at), &(_, towards))| VehicleSnapshot {
            heading: Some(towards),
            ..VehicleSnapshot::idle(id, at)
        })
        .collect();
    assert!(config.degree_cap(batches.batches.len(), couriers.len()) < batches.batches.len());
    group.bench_function("metro_under_way", |b| {
        b.iter_batched(
            || ShortestPathEngine::cached(metro.network.clone()),
            |engine| build_food_graph(&batches.batches, &couriers, &engine, t, &config),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_angular_potential(c: &mut Criterion) {
    // Eq. 8's per-node term as an expansion pays it: `AngularFrame::distance_to`
    // of every node of the 50 × 50 metro grid from a courier at its centre
    // heading north-east — the network's per-node latitude terms, and the
    // coincidence haversine only where a bound cannot rule it out. Divide by
    // 2 500 for the cost of one node.
    let network = MetroScenario::generate(MetroOptions::lunch_peak(7)).network;
    let (at, towards) = (NodeId(25 * 50 + 25), NodeId(30 * 50 + 31));
    let frame = AngularFrame::new(network.position(at), network.position(towards));
    let mut group = c.benchmark_group("angular_potential");
    group.bench_function("metro_grid_2500_nodes", |b| {
        b.iter(|| {
            network
                .node_ids()
                .map(|node| frame.distance_to(network.position(node), network.lat_trig(node)))
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_window_assignment(c: &mut Criterion) {
    let (window, engine, config) = lunch_window(CityId::A, 18);
    let mut group = c.benchmark_group("window_assignment");
    group.sample_size(10);
    group.bench_function("foodmatch", |b| {
        let mut policy = FoodMatchPolicy::new();
        b.iter(|| black_box(policy.assign(&window, &engine, &config)))
    });
    group.bench_function("km", |b| {
        let mut policy = KuhnMunkresPolicy::new();
        b.iter(|| black_box(policy.assign(&window, &engine, &config)))
    });
    group.bench_function("greedy", |b| {
        let mut policy = GreedyPolicy::new();
        b.iter(|| black_box(policy.assign(&window, &engine, &config)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shortest_paths,
    bench_overlay_miss,
    bench_repeat_source,
    bench_solver,
    bench_batching,
    bench_foodgraph,
    bench_angular_potential,
    bench_window_assignment
);
criterion_main!(benches);
