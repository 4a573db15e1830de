//! Integration tests for logical mobility (Section 5 of the paper):
//! location-dependent subscriptions, per-hop `ploc` filter placement
//! (Table 2), the location-update protocol, and the blackout comparison
//! against the manual sub/unsub baseline (Figure 3).

use std::collections::BTreeSet;

use rebeca_broker::{ClientId, SubscriptionId};
use rebeca_core::{BrokerConfig, ClientAction, LogicalMobilityMode, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, LocationDependentFilter, Notification, Value};
use rebeca_location::{AdaptivityPlan, LocationId, MovementGraph};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

fn config() -> BrokerConfig {
    BrokerConfig::default()
        .with_strategy(RoutingStrategyKind::Covering)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(10))
}

fn template() -> LocationDependentFilter {
    LocationDependentFilter::new("location", 0)
        .with_concrete("service", Constraint::Eq("parking".into()))
}

fn vacancy_at(location: LocationId) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("location", Value::Location(location.raw()))
        .build()
}

fn loc(graph: &MovementGraph, name: &str) -> LocationId {
    graph.space().id(name).unwrap()
}

/// Extracts the set of locations accepted by a broker's installed filter for
/// one location-dependent subscription.
fn installed_locations(sys: &MobilitySystem, broker: usize, sub: SubscriptionId) -> BTreeSet<u32> {
    let filter: &Filter = sys
        .broker(broker)
        .unwrap()
        .loc_sub_filter(sub)
        .expect("broker must participate in the subscription");
    filter
        .constraint("location")
        .and_then(|c| c.as_value_set())
        .map(|set| set.iter().filter_map(|v| v.as_location()).collect())
        .unwrap_or_default()
}

/// A consumer at broker 0 of a 3-broker line with the one-step-per-hop plan:
/// the per-hop filters must match Table 2 of the paper as the client moves
/// a → b → d through the Figure 7 movement graph.
#[test]
fn per_hop_filters_reproduce_table_2() {
    let graph = MovementGraph::paper_example();
    let a = loc(&graph, "a");
    let b = loc(&graph, "b");
    let d = loc(&graph, "d");

    let topo = Topology::line(3);
    let mut sys = SystemBuilder::new(&topo)
        .config(config())
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let sub = SubscriptionId::new(consumer, 0);

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::LocSubscribe {
                    template: template(),
                    plan: AdaptivityPlan::one_step_per_hop(3),
                    location: a,
                },
            ),
            (SimTime::from_secs(1), ClientAction::SetLocation(b)),
            (SimTime::from_secs(2), ClientAction::SetLocation(d)),
        ],
    )
    .unwrap();

    // Row t = 0 of Table 2 (client at a): F0 = {a}, F1 = {a,b,c}, F2 = {a,b,c,d}.
    sys.run_until(SimTime::from_millis(500));
    let ids =
        |names: &[&str]| -> BTreeSet<u32> { names.iter().map(|n| loc(&graph, n).raw()).collect() };
    assert_eq!(installed_locations(&sys, 0, sub), ids(&["a"]));
    assert_eq!(installed_locations(&sys, 1, sub), ids(&["a", "b", "c"]));
    assert_eq!(
        installed_locations(&sys, 2, sub),
        ids(&["a", "b", "c", "d"])
    );

    // Row t = 1 (client at b): F0 = {b}, F1 = {a,b,d}, F2 = {a,b,c,d}.
    sys.run_until(SimTime::from_millis(1_500));
    assert_eq!(installed_locations(&sys, 0, sub), ids(&["b"]));
    assert_eq!(installed_locations(&sys, 1, sub), ids(&["a", "b", "d"]));
    assert_eq!(
        installed_locations(&sys, 2, sub),
        ids(&["a", "b", "c", "d"])
    );

    // Row t = 2 (client at d): F0 = {d}, F1 = {b,c,d}, F2 = {a,b,c,d}.
    sys.run_until(SimTime::from_millis(2_500));
    assert_eq!(installed_locations(&sys, 0, sub), ids(&["d"]));
    assert_eq!(installed_locations(&sys, 1, sub), ids(&["b", "c", "d"]));
    assert_eq!(
        installed_locations(&sys, 2, sub),
        ids(&["a", "b", "c", "d"])
    );

    // The brokers also record the consumer's latest location.
    assert_eq!(sys.broker(0).unwrap().loc_sub_location(sub), Some(d));
    assert_eq!(sys.broker(2).unwrap().loc_sub_location(sub), Some(d));
}

/// Builds the blackout scenario of Figure 3: a producer at the far end of a
/// broker line publishes one notification per location every
/// `publish_interval_ms`; the consumer moves from `a` to `b` at `move_at`.
/// Returns the system, the consumer id and the graph.
fn blackout_scenario(
    mode: LogicalMobilityMode,
    plan: AdaptivityPlan,
    move_at: SimTime,
    horizon: SimTime,
) -> (MobilitySystem, ClientId, MovementGraph) {
    let graph = MovementGraph::paper_example();
    let a = loc(&graph, "a");
    let b = loc(&graph, "b");

    let topo = Topology::line(4);
    let mut sys = SystemBuilder::new(&topo)
        .config(config())
        .link_delay(DelayModel::constant_millis(20))
        .seed(3)
        .build()
        .unwrap();

    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);

    sys.add_client(
        consumer,
        mode,
        &[0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::LocSubscribe {
                    template: template(),
                    plan,
                    location: a,
                },
            ),
            (move_at, ClientAction::SetLocation(b)),
        ],
    )
    .unwrap();

    // The producer publishes a vacancy for every location every 20 ms.
    let mut script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(3).unwrap(),
        },
    )];
    let mut t = SimTime::from_millis(40);
    while t < horizon {
        for location in graph.space().ids() {
            script.push((t, ClientAction::Publish(vacancy_at(location))));
        }
        t += SimDuration::from_millis(20);
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[3],
        script,
    )
    .unwrap();

    (sys, consumer, graph)
}

/// Counts the deliveries for notifications of the given location arriving in
/// the window `[from, to]`.
fn deliveries_for_location_in_window(
    sys: &MobilitySystem,
    client: ClientId,
    location: LocationId,
    from: SimTime,
    to: SimTime,
) -> usize {
    let node = sys.client(client).unwrap();
    node.log()
        .deliveries()
        .iter()
        .zip(node.delivery_times())
        .filter(|(d, (t, _))| {
            *t >= from
                && *t <= to
                && d.envelope
                    .notification
                    .get("location")
                    .and_then(|v| v.as_location())
                    == Some(location.raw())
        })
        .count()
}

/// Figure 3 comparison: after a location change, the location-dependent
/// subscription resumes delivering notifications for the *new* location
/// almost immediately (only the client ↔ broker update is on the critical
/// path), while the manual sub/unsub baseline starves for roughly `2 · t_d`
/// (the subscription has to travel to the producer's broker and matching
/// notifications have to travel back).
#[test]
fn location_dependent_subscriptions_avoid_the_blackout_period() {
    let move_at = SimTime::from_secs(1);
    let horizon = SimTime::from_secs(2);
    let window_end = move_at + SimDuration::from_millis(110);

    // Paper scheme: ploc pre-subscription along the path.
    let (mut managed_sys, consumer, graph) = blackout_scenario(
        LogicalMobilityMode::LocationDependent,
        AdaptivityPlan::one_step_per_hop(4),
        move_at,
        horizon,
    );
    managed_sys.run_until(horizon);
    let b = loc(&graph, "b");
    let managed_in_window =
        deliveries_for_location_in_window(&managed_sys, consumer, b, move_at, window_end);

    // Baseline: the application unsubscribes/subscribes manually.
    let (mut baseline_sys, consumer_b, _) = blackout_scenario(
        LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
        AdaptivityPlan::global_sub_unsub(4),
        move_at,
        horizon,
    );
    baseline_sys.run_until(horizon);
    let baseline_in_window =
        deliveries_for_location_in_window(&baseline_sys, consumer_b, b, move_at, window_end);

    assert!(
        managed_in_window >= 2,
        "the location-dependent subscription must keep delivering right after the move \
         (got {managed_in_window} deliveries in the window)"
    );
    assert_eq!(
        baseline_in_window, 0,
        "the manual baseline must starve for about 2·t_d after the move"
    );

    // Over the whole run the managed consumer never receives less than the
    // baseline.
    assert!(
        managed_sys.client(consumer).unwrap().log().len()
            >= baseline_sys.client(consumer_b).unwrap().log().len(),
        "the paper's scheme must dominate the baseline"
    );
}

/// The flooding baseline of Figure 3b also avoids the blackout, at the price
/// of transmitting every notification over every link.
#[test]
fn flooding_with_client_side_filtering_avoids_the_blackout_but_costs_more() {
    let move_at = SimTime::from_secs(1);
    let horizon = SimTime::from_secs(2);
    let window_end = move_at + SimDuration::from_millis(110);

    let build = |strategy: RoutingStrategyKind, mode: LogicalMobilityMode, plan: AdaptivityPlan| {
        let graph = MovementGraph::paper_example();
        let a = loc(&graph, "a");
        let b = loc(&graph, "b");
        let topo = Topology::line(4);
        let mut cfg = config();
        cfg.strategy = strategy;
        let mut sys = SystemBuilder::new(&topo)
            .config(cfg)
            .link_delay(DelayModel::constant_millis(20))
            .seed(3)
            .build()
            .unwrap();
        let consumer = ClientId::new(1);
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            mode,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::LocSubscribe {
                        template: template(),
                        plan,
                        location: a,
                    },
                ),
                (move_at, ClientAction::SetLocation(b)),
            ],
        )
        .unwrap();
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(3).unwrap(),
            },
        )];
        let mut t = SimTime::from_millis(40);
        while t < horizon {
            for location in graph.space().ids() {
                script.push((t, ClientAction::Publish(vacancy_at(location))));
            }
            t += SimDuration::from_millis(20);
        }
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[3],
            script,
        )
        .unwrap();
        sys.run_until(horizon);
        (sys, consumer)
    };

    // Flooding with client-side filtering: the border broker holds the exact
    // location filter; everything else is flooded.
    let (flooding_sys, consumer_f) = build(
        RoutingStrategyKind::Flooding,
        LogicalMobilityMode::ManualSubUnsub { vicinity: 0 },
        AdaptivityPlan::flooding(4),
    );
    let graph = MovementGraph::paper_example();
    let b = loc(&graph, "b");
    let flooding_in_window =
        deliveries_for_location_in_window(&flooding_sys, consumer_f, b, move_at, window_end);
    assert!(
        flooding_in_window >= 2,
        "flooding with client-side filtering must not starve after a move \
         (got {flooding_in_window})"
    );

    // The paper's scheme achieves the same responsiveness with fewer link
    // transmissions.
    let (managed_sys, _) = build(
        RoutingStrategyKind::Covering,
        LogicalMobilityMode::LocationDependent,
        AdaptivityPlan::one_step_per_hop(4),
    );
    assert!(
        managed_sys.total_messages() < flooding_sys.total_messages(),
        "restricted flooding must generate fewer messages than full flooding \
         ({} vs {})",
        managed_sys.total_messages(),
        flooding_sys.total_messages()
    );
}

/// Every notification matching the consumer's *current* location at delivery
/// time is delivered (the "as if flooding were used" quality of service of
/// Figure 4), and nothing not matching the current or previous location slips
/// through.
#[test]
fn delivered_notifications_always_match_a_recent_location() {
    let graph = MovementGraph::paper_example();
    let a = loc(&graph, "a");
    let b = loc(&graph, "b");
    let d = loc(&graph, "d");

    let (mut sys, consumer, _) = {
        let topo = Topology::line(4);
        let mut sys = SystemBuilder::new(&topo)
            .config(config())
            .link_delay(DelayModel::constant_millis(20))
            .seed(9)
            .build()
            .unwrap();
        let consumer = ClientId::new(1);
        let producer = ClientId::new(2);
        sys.add_client(
            consumer,
            LogicalMobilityMode::LocationDependent,
            &[0],
            vec![
                (
                    SimTime::from_millis(1),
                    ClientAction::Attach {
                        broker: sys.broker_node(0).unwrap(),
                    },
                ),
                (
                    SimTime::from_millis(2),
                    ClientAction::LocSubscribe {
                        template: template(),
                        plan: AdaptivityPlan::one_step_per_hop(4),
                        location: a,
                    },
                ),
                (SimTime::from_secs(1), ClientAction::SetLocation(b)),
                (SimTime::from_secs(2), ClientAction::SetLocation(d)),
            ],
        )
        .unwrap();
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(3).unwrap(),
            },
        )];
        let mut t = SimTime::from_millis(40);
        while t < SimTime::from_secs(3) {
            for location in graph.space().ids() {
                script.push((t, ClientAction::Publish(vacancy_at(location))));
            }
            t += SimDuration::from_millis(20);
        }
        sys.add_client(
            producer,
            LogicalMobilityMode::LocationDependent,
            &[3],
            script,
        )
        .unwrap();
        (sys, consumer, producer)
    };
    sys.run_until(SimTime::from_secs(3));

    let itinerary = [
        (SimTime::ZERO, a),
        (SimTime::from_secs(1), b),
        (SimTime::from_secs(2), d),
    ];
    let location_at = |t: SimTime| {
        itinerary
            .iter()
            .rev()
            .find(|(start, _)| *start <= t)
            .map(|(_, l)| *l)
            .unwrap()
    };

    let client = sys.client(consumer).unwrap();
    assert!(
        client.log().len() > 50,
        "the consumer must receive a steady stream"
    );
    for delivery in client.log().deliveries() {
        let delivered_loc = delivery
            .envelope
            .notification
            .get("location")
            .and_then(|v| v.as_location())
            .unwrap();
        // Every delivered notification was selected by the exact filter of
        // the consumer's location at the time the border broker forwarded it;
        // allow the location held just before a move as well (in-flight
        // deliveries).
        let now_locs: BTreeSet<u32> = itinerary.iter().map(|(_, l)| l.raw()).collect();
        assert!(
            now_locs.contains(&delivered_loc),
            "delivered location {delivered_loc} was never visited"
        );
    }
    // The bulk of deliveries match the location the consumer was in exactly.
    let exact = client
        .log()
        .deliveries()
        .iter()
        .zip(client.delivery_times())
        .filter(|(d, (t, _))| {
            d.envelope
                .notification
                .get("location")
                .and_then(|v| v.as_location())
                == Some(location_at(*t).raw())
        })
        .count();
    assert!(
        exact * 10 >= client.log().len() * 9,
        "at least 90% of deliveries must match the consumer's current location \
         ({exact} of {})",
        client.log().len()
    );
}

/// Retracting a location-dependent subscription removes the per-hop state and
/// stops delivery.
#[test]
fn loc_unsubscribe_removes_state_everywhere() {
    let graph = MovementGraph::paper_example();
    let a = loc(&graph, "a");
    let topo = Topology::line(3);
    let mut sys = SystemBuilder::new(&topo)
        .config(config())
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let sub = SubscriptionId::new(consumer, 0);

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::LocSubscribe {
                    template: template(),
                    plan: AdaptivityPlan::one_step_per_hop(2),
                    location: a,
                },
            ),
        ],
    )
    .unwrap();
    sys.run_until(SimTime::from_millis(500));
    assert!(sys.broker(0).unwrap().loc_sub_filter(sub).is_some());
    assert!(sys.broker(2).unwrap().loc_sub_filter(sub).is_some());
    assert_eq!(sys.broker(1).unwrap().loc_sub_count(), 1);

    // Retract by injecting the unsubscribe through the client's broker: the
    // cleanest way within the scripted model is a second system run; here we
    // drive it directly by scripting the unsubscribe in a fresh system.
    let mut sys2 = SystemBuilder::new(&topo)
        .config(config())
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    sys2.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys2.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::LocSubscribe {
                    template: template(),
                    plan: AdaptivityPlan::one_step_per_hop(2),
                    location: a,
                },
            ),
            (
                SimTime::from_millis(500),
                ClientAction::LocUnsubscribe { index: 0 },
            ),
        ],
    )
    .unwrap();
    sys2.run_until(SimTime::from_secs(1));
    for broker in 0..3 {
        assert_eq!(
            sys2.broker(broker).unwrap().loc_sub_count(),
            0,
            "broker {broker} must have dropped the subscription state"
        );
    }
}

/// Link messages per logical-mobility operation on the `sim_mobility`
/// benchmark's shape: a 6-broker line, the Figure 7 movement graph and
/// `one_step_per_hop(5)`, one consumer at each home broker 0..=4.
///
/// Today every broker forwards `LocSubscribe` and `LocationUpdate` on all
/// of its other broker links, so each `loc_subscribe` and each
/// `set_location` crosses all 5 edges of the line, wherever the consumer
/// sits — even though every hop ≥ 2 already instantiates all four locations
/// and never changes its filter.  ROADMAP direction 2(a), which stops a
/// location update at the first hop whose filter does not change, is the
/// change that will lower these counts.
#[test]
fn logical_mobility_link_messages_per_operation() {
    let graph = MovementGraph::paper_example();
    let topo = Topology::line(6);
    let mut sys = SystemBuilder::new(&topo)
        .config(config())
        .link_delay(DelayModel::constant_millis(1))
        .seed(5)
        .build()
        .unwrap();
    let settle = |sys: &mut MobilitySystem| {
        let until = sys.now() + SimDuration::from_millis(50);
        sys.run_until(until);
    };
    // (broker-to-broker LocSubscribe, broker-to-broker LocationUpdate, all
    // link messages including the client's own).
    let counts = |sys: &MobilitySystem| {
        let m = sys.metrics();
        [
            m.counter("broker.tx.loc_subscribe"),
            m.counter("broker.tx.location_update"),
            m.counter("network.messages"),
        ]
    };
    let delta = |before: [u64; 3], after: [u64; 3]| -> [u64; 3] {
        std::array::from_fn(|i| after[i] - before[i])
    };
    let walk = ["b", "d", "c", "a"].map(|name| loc(&graph, name));

    for home in 0..5 {
        let session = sys.connect(ClientId::new(1 + home as u32), home).unwrap();
        settle(&mut sys);

        let before = counts(&sys);
        session
            .loc_subscribe(
                &mut sys,
                template(),
                AdaptivityPlan::one_step_per_hop(5),
                loc(&graph, "a"),
            )
            .unwrap();
        settle(&mut sys);
        assert_eq!(
            delta(before, counts(&sys)),
            [5, 0, 6],
            "loc_subscribe at broker {home}"
        );

        for location in walk {
            let before = counts(&sys);
            session.set_location(&mut sys, location).unwrap();
            settle(&mut sys);
            assert_eq!(
                delta(before, counts(&sys)),
                [0, 5, 6],
                "set_location at broker {home}"
            );
        }
    }
}

/// A location update whose instantiated filter is unchanged at a hop leaves
/// that broker's routing state alone: Table 2's hop 2 instantiates all four
/// locations, so moving the consumer from `a` to `b` is a no-op there.  The
/// order of the entries towards broker 1 is part of what must not move — a
/// retract + re-install would put the location filter behind the plain
/// subscription installed after it.
#[test]
fn a_no_op_location_update_keeps_the_routing_state() {
    let graph = MovementGraph::paper_example();
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .config(config())
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let settle = |sys: &mut MobilitySystem| {
        let until = sys.now() + SimDuration::from_millis(100);
        sys.run_until(until);
    };
    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    consumer
        .loc_subscribe(
            &mut sys,
            template(),
            AdaptivityPlan::one_step_per_hop(3),
            loc(&graph, "a"),
        )
        .unwrap();
    settle(&mut sys);
    let taxi = Filter::new().with("service", Constraint::Eq("taxi".into()));
    sys.connect(ClientId::new(2), 0)
        .unwrap()
        .subscribe(&mut sys, taxi.clone())
        .unwrap();
    settle(&mut sys);

    let towards_broker_1 = sys.broker_node(1).unwrap();
    let hop_2 = |sys: &MobilitySystem| {
        let broker = sys.broker(2).unwrap();
        let filters: Vec<Filter> = broker
            .core()
            .engine()
            .table()
            .filters_for(&towards_broker_1)
            .into_iter()
            .cloned()
            .collect();
        (broker.routing_entries(), filters)
    };
    let before = hop_2(&sys);
    assert_eq!(before.1.len(), 2);
    assert_eq!(
        before.1[1], taxi,
        "the plain subscription was installed last"
    );
    let metric = |sys: &MobilitySystem, name: &str| sys.metrics().counter(name);
    let (noop, swapped) = (
        metric(&sys, "logical.update_noop"),
        metric(&sys, "logical.filter_swapped"),
    );

    consumer.set_location(&mut sys, loc(&graph, "b")).unwrap();
    settle(&mut sys);

    // Hops 0 and 1 swap their filters (Table 2, row t = 1); hop 2 does not.
    assert_eq!(metric(&sys, "logical.update_noop") - noop, 1);
    assert_eq!(metric(&sys, "logical.filter_swapped") - swapped, 2);
    assert_eq!(hop_2(&sys), before);
    let sub = SubscriptionId::new(ClientId::new(1), 0);
    assert_eq!(
        sys.broker(2).unwrap().loc_sub_location(sub),
        Some(loc(&graph, "b")),
        "the no-op hop still records the new location"
    );
}
