//! The FoodGraph's resolve phase, counted in graph searches.
//!
//! A loaded vehicle's leg tables need the legs between each of its committed
//! stops and the stops of every batch it is priced against. Asked batch by
//! batch that is one search per (committed stop, batch); asked vehicle by
//! vehicle, one per committed stop plus one per (vehicle, batch stop); asked
//! once per window, over the batches that survived each vehicle's capacity
//! and first-mile filters, it is one search per distinct stop. This test
//! pins the count (`engine.searches`, the one counter that counts searches
//! *run* rather than pairs missed) for one vehicle and for a fleet sharing
//! its batches, that the prices are those of lone `marginal_cost` calls, and
//! that a batch that failed a filter is never swept for: no leg to its stops
//! is in the pair memo (`engine.memo.hits` less `engine.rows.hits`), though
//! a committed stop's tree row may have settled them on its way, while every
//! leg to a surviving batch's stops is answered with no search. And a
//! courier with no batch inside the first mile starts no Alg. 2 expansion:
//! it would stop before it settled a node.
//!
//! This file stays a single `#[test]`: the recorder is process-global, and
//! an engine built by another test while it is installed would count into
//! it. (That is also why the count is not taken in `cost.rs`, whose unit
//! test pins the same vehicle against the reference planner instead.)

use foodmatch_core::{
    build_food_graph, marginal_cost, singleton_batches, DispatchConfig, Order, OrderId,
    PlannedOrder, VehicleId, VehicleSnapshot,
};
use foodmatch_roadnet::generators::GridCityBuilder;
use foodmatch_roadnet::{Duration, NodeId, RoadNetwork, ShortestPathEngine, TimePoint};
use foodmatch_telemetry as telemetry;

/// A cold engine and a reader of its counters, by name. The engine's
/// handles are live because it is built while a recorder of its own is
/// installed.
fn cold_engine(network: &RoadNetwork) -> (ShortestPathEngine, impl Fn(&str) -> u64) {
    let recorder = telemetry::Recorder::new();
    telemetry::install(recorder.clone());
    let engine = ShortestPathEngine::cached(network.clone());
    telemetry::uninstall();
    let count = move |name: &str| recorder.telemetry.snapshot().counter(name).expect("registered");
    (engine, count)
}

#[test]
fn a_loaded_vehicle_runs_one_search_per_committed_stop() {
    assert!(!telemetry::active(), "this test must own the global recorder");
    let b = GridCityBuilder::new(8, 8);
    let network = b.build();
    let t = TimePoint::from_hms(19, 30, 0);
    let at = |r, c| b.node_at(r, c);
    let order = |id, restaurant: NodeId, customer: NodeId, items| {
        Order::new(OrderId(id), restaurant, customer, t, items, Duration::from_mins(6.0))
    };

    // Two committed orders, one of them on board: c = 3 committed stops.
    // Five singleton batches: one beyond the first mile, one over the item
    // capacity, m = 3 survivors. Every node is distinct.
    let mut vehicle = VehicleSnapshot::idle(VehicleId(1), at(3, 3));
    vehicle.committed = vec![
        PlannedOrder { order: order(1, at(0, 0), at(3, 5), 1), picked_up: true },
        PlannedOrder { order: order(2, at(4, 3), at(5, 5), 1), picked_up: false },
    ];
    let committed_stops = [at(3, 5), at(4, 3), at(5, 5)];
    let far = order(13, at(7, 7), at(7, 5), 1);
    let heavy = order(14, at(2, 2), at(1, 1), 9);
    let offers = [
        order(10, at(2, 3), at(1, 5), 1),
        far,
        order(11, at(3, 2), at(5, 1), 1),
        heavy,
        order(12, at(4, 4), at(6, 4), 1),
    ];
    let survives = |o: &Order| o.id != far.id && o.id != heavy.id;
    let (c, m) = (committed_stops.len() as u64, 3);

    // Planned on an engine of their own: the measured ones must stay cold.
    let scratch = ShortestPathEngine::cached(network.clone());
    let batches = singleton_batches(&offers, &scratch, t).batches;
    let first_mile = |o: &Order| scratch.travel_time(vehicle.location, o.restaurant, t).unwrap();
    let config = DispatchConfig {
        use_bfs_sparsification: false,
        max_first_mile: Duration::from_secs_f64(first_mile(&far).as_secs_f64() - 1.0),
        ..Default::default()
    };
    assert!(offers.iter().all(|o| o.id == far.id || first_mile(o) < config.max_first_mile));
    assert!(vehicle.has_capacity(&config) && !vehicle.can_take(&[heavy], &config));

    // What the vehicle costs before it is offered anything: its own sweep,
    // its committed block, the on-board order's SDT leg.
    let (idle_engine, idle_count) = cold_engine(&network);
    assert!(!marginal_cost(&vehicle, &[], &idle_engine, t, &config).is_feasible());
    let unoffered = idle_count("engine.searches");
    assert_eq!(unoffered, 1 + c + 1);

    let (engine, count) = cold_engine(&network);
    let searches = || count("engine.searches");
    let graph = build_food_graph(&batches, std::slice::from_ref(&vehicle), &engine, t, &config);
    assert_eq!(graph.evaluations, offers.len());
    // One run per committed stop and one per surviving stop's own row —
    // not the c·m + 2·m of asking batch by batch.
    assert_eq!(searches(), unoffered + c + 2 * m);

    // The sweep changed no price.
    for (row, batch) in batches.iter().enumerate() {
        let offer = &batch.orders[0];
        let lone = marginal_cost(&vehicle, &batch.orders, &scratch, t, &config);
        assert_eq!(lone.is_feasible(), survives(offer), "{}", offer.id);
        assert_eq!(graph.cost(row, 0).to_bits(), lone.edge_weight(&config).to_bits());
        let explicit = graph.costs.entries().iter().any(|&(r, col, _)| (r, col) == (row, 0));
        assert_eq!(explicit, survives(offer));
    }

    // Every (committed stop, surviving stop) leg is known now, in the pair
    // memo or on the stop's tree row, so asking for one runs no search. None
    // to a stop of a batch that dropped out is in the pair memo: asking for
    // one is answered off the tree row, if the stop's searches settled it on
    // their way, or by a search.
    let only_survivors_were_swept_for =
        |engine: &ShortestPathEngine, count: &dyn Fn(&str) -> u64, stops: &[NodeId]| {
            let read = || {
                let pair_hits = count("engine.memo.hits") - count("engine.rows.hits");
                (count("engine.searches"), pair_hits)
            };
            for &stop in stops {
                for offer in &offers {
                    for target in [offer.restaurant, offer.customer] {
                        let (searches, pair_hits) = read();
                        assert!(engine.travel_time(stop, target, t).is_some());
                        if survives(offer) {
                            assert_eq!(read().0, searches, "{stop} → {target}: a search");
                        } else {
                            assert_eq!(read().1, pair_hits, "{stop} → {target}: swept for");
                        }
                    }
                }
            }
        };
    only_survivors_were_swept_for(&engine, &count, &committed_stops);

    // --- a fleet offered the same batches --------------------------------
    // A second loaded vehicle, c₂ = 2 committed stops of its own, for which
    // the same m batches survive: the batches' stops are searched from once
    // for the window, not once per vehicle.
    let loaded = |id, location, restaurant, customer| VehicleSnapshot {
        committed: vec![PlannedOrder {
            order: order(u64::from(id), restaurant, customer, 2),
            picked_up: false,
        }],
        ..VehicleSnapshot::idle(VehicleId(id), location)
    };
    let second = loaded(2, at(3, 1), at(6, 1), at(6, 2));
    // A third whose pending pickup is the *same restaurant node* as the
    // first's: its start row and its other stop are new, that node is not.
    let third = loaded(3, at(1, 2), at(4, 3), at(0, 3));
    for vehicle in [&second, &third] {
        let first_mile = |o: &Order| scratch.travel_time(vehicle.location, o.restaurant, t);
        assert!(offers
            .iter()
            .all(|o| { (first_mile(o).unwrap() <= config.max_first_mile) == (o.id != far.id) }));
        assert!(vehicle.has_capacity(&config) && !vehicle.can_take(&[heavy], &config));
    }
    let unoffered_alone = |vehicle: &VehicleSnapshot| {
        let (engine, count) = cold_engine(&network);
        assert!(!marginal_cost(vehicle, &[], &engine, t, &config).is_feasible());
        count("engine.searches")
    };
    let (c2, c3) = (2, 2);
    assert_eq!(unoffered_alone(&second), 1 + c2);
    assert_eq!(unoffered_alone(&third), 1 + c3);

    let pair = [vehicle.clone(), second.clone()];
    let (engine, count) = cold_engine(&network);
    let graph = build_food_graph(&batches, &pair, &engine, t, &config);
    assert_eq!(graph.evaluations, 2 * offers.len());
    let for_two = unoffered + unoffered_alone(&second) + c + c2 + 2 * m;
    let searches = count("engine.searches");
    assert_eq!(searches, for_two, "each batch stop is searched from once, not once per vehicle");

    let fleet = [vehicle.clone(), second, third.clone()];
    let (engine, count) = cold_engine(&network);
    let graph = build_food_graph(&batches, &fleet, &engine, t, &config);
    assert_eq!(graph.evaluations, 3 * offers.len());
    // And the shared node's resolve sweep runs no search: the two committed
    // blocks searched from it out to both vehicles' stops, and the tree row
    // their searches left answers every batch stop.
    let searches = count("engine.searches");
    assert_eq!(searches, for_two + unoffered_alone(&third) + (c3 - 1) - 1);

    // Sharing the searches changed no price.
    for (col, vehicle) in fleet.iter().enumerate() {
        for (row, batch) in batches.iter().enumerate() {
            let lone = marginal_cost(vehicle, &batch.orders, &scratch, t, &config);
            assert_eq!(lone.is_feasible(), survives(&batch.orders[0]), "({row}, {col})");
            assert_eq!(graph.cost(row, col).to_bits(), lone.edge_weight(&config).to_bits());
        }
    }
    let mut swept: Vec<NodeId> = committed_stops.to_vec();
    swept.extend([at(6, 1), at(6, 2), at(0, 3)]);
    only_survivors_were_swept_for(&engine, &count, &swept);

    // --- a courier with no batch inside the first mile -------------------
    // Under Alg. 2 (a degree cap below the batch count) it is offered
    // nothing, and runs the searches it runs on the dense graph, which has
    // no expansion: none is started for it.
    let stranded = VehicleSnapshot::idle(VehicleId(4), at(7, 0));
    let nearest = offers
        .iter()
        .map(|o| scratch.travel_time(stranded.location, o.restaurant, t).unwrap().as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let stranded_config = |use_bfs_sparsification| DispatchConfig {
        use_bfs_sparsification,
        k_factor: 0.1,
        max_first_mile: Duration::from_secs_f64(nearest - 1.0),
        ..config.clone()
    };
    assert!(stranded_config(true).degree_cap(batches.len(), 1) < batches.len());
    let run = |use_bfs_sparsification| {
        let (engine, count) = cold_engine(&network);
        let config = stranded_config(use_bfs_sparsification);
        let graph =
            build_food_graph(&batches, std::slice::from_ref(&stranded), &engine, t, &config);
        assert_eq!(graph.explicit_edges(), 0);
        (graph.evaluations, count("engine.searches"))
    };
    let (dense, sparse) = (run(false), run(true));
    assert_eq!((dense.0, sparse.0), (offers.len(), 0), "offered dense, not under Alg. 2");
    assert_eq!(sparse.1, dense.1, "no expansion for a courier with nothing inside the first mile");
}
