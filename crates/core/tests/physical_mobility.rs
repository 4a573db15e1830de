//! Integration tests for the physical-mobility relocation protocol
//! (Section 4 of the paper), including the Figure 5 walk-through and the
//! naive hand-off baseline of Figure 2.

use rebeca_broker::ClientId;
use rebeca_core::{BrokerConfig, ClientAction, LogicalMobilityMode, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_location::MovementGraph;
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, SimTime, Topology};

fn parking_filter() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: i64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i)
        .build()
}

fn config(strategy: RoutingStrategyKind) -> BrokerConfig {
    BrokerConfig::default()
        .with_strategy(strategy)
        .with_movement_graph(MovementGraph::paper_example())
        .with_relocation_timeout(SimDuration::from_secs(30))
}

/// Builds the Figure 5 scenario: the producer attaches at B8 (index 7), the
/// consumer starts at the old border broker B6 (index 5) and moves to the new
/// border broker B1 (index 0) at `move_at`, while the producer publishes one
/// notification every `publish_interval_ms` milliseconds from t = 50 ms on.
fn figure5_scenario(
    strategy: RoutingStrategyKind,
    move_at: SimTime,
    publications: u64,
    publish_interval_ms: u64,
    naive: Option<bool>,
) -> (MobilitySystem, ClientId, ClientId) {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(config(strategy))
        .link_delay(DelayModel::constant_millis(5))
        .seed(7)
        .build()
        .unwrap();

    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);

    let old_broker = sys.broker_node(5).unwrap(); // B6
    let new_broker = sys.broker_node(0).unwrap(); // B1

    let move_action = match naive {
        None => ClientAction::MoveTo { broker: new_broker },
        Some(sign_off) => ClientAction::NaiveMoveTo {
            broker: new_broker,
            sign_off,
        },
    };
    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach { broker: old_broker },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            (move_at, move_action),
        ],
    )
    .unwrap();

    let mut producer_script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    for i in 0..publications {
        producer_script.push((
            SimTime::from_millis(50 + i * publish_interval_ms),
            ClientAction::Publish(vacancy(i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        producer_script,
    )
    .unwrap();

    (sys, consumer, producer)
}

/// The headline property of Section 4: a roaming client using the relocation
/// protocol receives **every** notification **exactly once** and in
/// **sender-FIFO order**, even though it moves in the middle of a publication
/// stream.
#[test]
fn relocation_is_complete_ordered_and_duplicate_free() {
    let publications = 40;
    let (mut sys, consumer, producer) = figure5_scenario(
        RoutingStrategyKind::Covering,
        SimTime::from_millis(500),
        publications,
        25,
        None,
    );
    sys.run_until(SimTime::from_secs(10));

    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer),
        (1..=publications).collect::<Vec<u64>>(),
        "every publication must arrive exactly once"
    );
    assert_eq!(log.duplicate_publications(producer), 0);
    // FIFO end to end: arrival order equals publication order.
    assert_eq!(
        log.publisher_seqs(producer),
        (1..=publications).collect::<Vec<u64>>()
    );
}

/// The same property holds under simple routing and merging routing — the
/// relocation protocol does not depend on a particular routing optimization.
#[test]
fn relocation_works_under_other_routing_strategies() {
    for strategy in [RoutingStrategyKind::Simple, RoutingStrategyKind::Merging] {
        let publications = 20;
        let (mut sys, consumer, producer) =
            figure5_scenario(strategy, SimTime::from_millis(300), publications, 20, None);
        sys.run_until(SimTime::from_secs(10));
        let log = sys.client_log(consumer).unwrap();
        assert!(log.is_clean(), "{strategy:?}: {:?}", log.violations());
        assert_eq!(
            log.distinct_publisher_seqs(producer),
            (1..=publications).collect::<Vec<u64>>(),
            "{strategy:?}: every publication must arrive exactly once"
        );
    }
}

/// After the relocation the old border broker has garbage collected every
/// resource of the roamed client, and no virtual counterpart keeps growing.
#[test]
fn old_broker_garbage_collects_after_relocation() {
    let (mut sys, consumer, _) = figure5_scenario(
        RoutingStrategyKind::Covering,
        SimTime::from_millis(500),
        40,
        25,
        None,
    );
    sys.run_until(SimTime::from_secs(10));

    let old_broker = sys.broker(5).unwrap(); // B6
    assert_eq!(
        old_broker.counterpart_count(),
        0,
        "counterpart must be garbage collected"
    );
    assert!(
        old_broker.core().client(consumer).is_none(),
        "client record must be gone"
    );
    assert_eq!(old_broker.buffered_deliveries(), 0);

    // The new border broker has taken over the client and holds no pending
    // relocation state either.
    let new_broker = sys.broker(0).unwrap(); // B1
    assert!(new_broker.core().client(consumer).is_some());
    assert_eq!(new_broker.pending_relocations(), 0);
}

/// Regression test for the timeout-tag leak: the guard of a relocation that
/// completes *before* its timeout used to stay in the tag map forever.  The
/// guard map must be empty on every broker once the relocation has settled
/// — reclaimed on replay completion, not only when the timer fires.
#[test]
fn settled_relocations_leave_no_timeout_guards() {
    let (mut sys, consumer, producer) = figure5_scenario(
        RoutingStrategyKind::Covering,
        SimTime::from_millis(500),
        40,
        25,
        None,
    );
    // Run well past the relocation but far short of the 30 s timeout, so a
    // leaked guard could not have been cleaned up by the timer firing.
    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean());
    assert_eq!(log.distinct_publisher_seqs(producer).len(), 40);
    for b in 0..sys.broker_count() {
        assert_eq!(
            sys.broker(b).unwrap().timeout_tag_count(),
            0,
            "broker {b} leaked a relocation-timeout guard after the relocation settled"
        );
        assert_eq!(sys.broker(b).unwrap().pending_relocations(), 0);
    }
}

/// Repeated relocations do not accumulate guards either (the map is churned
/// and emptied once per move).
#[test]
fn repeated_relocations_do_not_accumulate_timeout_guards() {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(config(RoutingStrategyKind::Covering))
        .link_delay(DelayModel::constant_millis(5))
        .seed(13)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0, 2],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(5).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            (
                SimTime::from_millis(400),
                ClientAction::MoveTo {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(900),
                ClientAction::MoveTo {
                    broker: sys.broker_node(2).unwrap(),
                },
            ),
            (
                SimTime::from_millis(1400),
                ClientAction::MoveTo {
                    broker: sys.broker_node(5).unwrap(),
                },
            ),
        ],
    )
    .unwrap();
    sys.run_until(SimTime::from_secs(5));
    for b in 0..sys.broker_count() {
        assert_eq!(
            sys.broker(b).unwrap().timeout_tag_count(),
            0,
            "broker {b} accumulated guards across repeated relocations"
        );
    }
}

/// Notifications published *while the client is disconnected* (between the
/// detach at the old broker and the completion of the relocation) are
/// buffered by the virtual counterpart and replayed — nothing is lost.
#[test]
fn notifications_during_disconnection_are_replayed() {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(config(RoutingStrategyKind::Covering))
        .link_delay(DelayModel::constant_millis(5))
        .seed(3)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);
    let old_broker = sys.broker_node(5).unwrap();
    let new_broker = sys.broker_node(0).unwrap();

    // The consumer detaches at t = 200 ms and only re-subscribes at the new
    // broker at t = 800 ms; the producer publishes throughout.
    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach { broker: old_broker },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            // Modelled as two steps: the old broker detects the link drop at
            // 200 ms, the client shows up at the new broker at 800 ms.
            (
                SimTime::from_millis(200),
                ClientAction::MoveTo { broker: new_broker },
            ),
        ],
    )
    .unwrap();
    let mut producer_script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    for i in 0..30u64 {
        producer_script.push((
            SimTime::from_millis(50 + i * 20),
            ClientAction::Publish(vacancy(i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        producer_script,
    )
    .unwrap();

    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer),
        (1..=30).collect::<Vec<u64>>()
    );
}

/// A client that returns to the broker it previously left gets the buffered
/// notifications replayed locally (no relocation round-trip needed).
#[test]
fn reconnecting_to_the_same_broker_replays_locally() {
    let topo = Topology::line(3);
    let mut sys = SystemBuilder::new(&topo)
        .config(config(RoutingStrategyKind::Covering))
        .link_delay(DelayModel::constant_millis(5))
        .seed(5)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);
    let home = sys.broker_node(0).unwrap();

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach { broker: home },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            // Disconnect (detected by the broker), then come back to the same
            // broker later.
            (
                SimTime::from_millis(300),
                ClientAction::MoveTo { broker: home },
            ),
        ],
    )
    .unwrap();
    let mut producer_script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(2).unwrap(),
        },
    )];
    for i in 0..20u64 {
        producer_script.push((
            SimTime::from_millis(50 + i * 20),
            ClientAction::Publish(vacancy(i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[2],
        producer_script,
    )
    .unwrap();

    sys.run_until(SimTime::from_secs(5));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer),
        (1..=20).collect::<Vec<u64>>()
    );
}

/// The naive hand-off baseline of Section 3.2 / Figure 2: without the
/// relocation protocol, a client that signs off and re-subscribes from
/// scratch misses the notifications published while its new subscription
/// propagates.
#[test]
fn naive_handoff_with_sign_off_loses_notifications() {
    let publications = 40;
    let (mut sys, consumer, producer) = figure5_scenario(
        RoutingStrategyKind::Covering,
        SimTime::from_millis(500),
        publications,
        25,
        Some(true),
    );
    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    let missing = log.missing_from(producer, 1..=publications);
    assert!(
        !missing.is_empty(),
        "the naive hand-off must lose at least one notification (blackout while the \
         new subscription propagates)"
    );
}

/// The naive hand-off without sign-off under flooding routing: the old broker
/// keeps delivering (it never learns the client left), so publications are
/// delivered twice once the client also subscribes at the new broker —
/// exactly the duplicate delivery of Figure 2.
#[test]
fn naive_handoff_without_sign_off_duplicates_notifications_under_flooding() {
    let publications = 40;
    let (mut sys, consumer, producer) = figure5_scenario(
        RoutingStrategyKind::Flooding,
        SimTime::from_millis(500),
        publications,
        25,
        Some(false),
    );
    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert!(
        log.duplicate_publications(producer) > 0,
        "without a sign-off the client must receive some publications twice"
    );
}

/// The relocation protocol under flooding routing still delivers every
/// publication (completeness).  Unlike the routed strategies, flooding sends
/// every notification to *both* border brokers during the hand-over window,
/// so a notification that is in flight on the old client link at the instant
/// of the move may reach the client twice — a property of flooding hand-over
/// the paper's protocol does not (and cannot) remove.  The test therefore
/// asserts completeness and bounds the duplication to that single hand-over
/// window.
#[test]
fn relocation_under_flooding_is_complete_with_bounded_handover_duplicates() {
    let publications = 30;
    let (mut sys, consumer, producer) = figure5_scenario(
        RoutingStrategyKind::Flooding,
        SimTime::from_millis(500),
        publications,
        25,
        None,
    );
    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert_eq!(
        log.distinct_publisher_seqs(producer),
        (1..=publications).collect::<Vec<u64>>(),
        "flooding hand-over must still be complete"
    );
    assert!(
        log.duplicate_publications(producer) <= 2,
        "duplicates must be confined to the hand-over window, got {}",
        log.duplicate_publications(producer)
    );
}

/// Two producers on different sides of the junction (the right-hand scenario
/// of Figure 5): completeness and exactly-once delivery hold for both
/// streams.
#[test]
fn relocation_with_multiple_producers() {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(config(RoutingStrategyKind::Covering))
        .link_delay(DelayModel::constant_millis(5))
        .seed(11)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let producer_far = ClientId::new(2); // at B8 (index 7), beyond the junction
    let producer_near = ClientId::new(3); // at B2 (index 1), on the new path

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(5).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            (
                SimTime::from_millis(500),
                ClientAction::MoveTo {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
        ],
    )
    .unwrap();
    for (client, broker_index) in [(producer_far, 7usize), (producer_near, 1usize)] {
        let mut script = vec![(
            SimTime::from_millis(1),
            ClientAction::Attach {
                broker: sys.broker_node(broker_index).unwrap(),
            },
        )];
        for i in 0..30u64 {
            script.push((
                SimTime::from_millis(60 + i * 30),
                ClientAction::Publish(vacancy(i as i64)),
            ));
        }
        sys.add_client(
            client,
            LogicalMobilityMode::LocationDependent,
            &[broker_index],
            script,
        )
        .unwrap();
    }

    sys.run_until(SimTime::from_secs(10));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    for producer in [producer_far, producer_near] {
        assert_eq!(
            log.distinct_publisher_seqs(producer),
            (1..=30).collect::<Vec<u64>>(),
            "stream of {producer} must be complete and duplicate free"
        );
    }
}

/// A client that moves twice in a row (B6 → B1 → B3) is still served
/// completely and in order.
#[test]
fn repeated_relocations_preserve_the_stream() {
    let topo = Topology::figure5();
    let mut sys = SystemBuilder::new(&topo)
        .config(config(RoutingStrategyKind::Covering))
        .link_delay(DelayModel::constant_millis(5))
        .seed(13)
        .build()
        .unwrap();
    let consumer = ClientId::new(1);
    let producer = ClientId::new(2);

    sys.add_client(
        consumer,
        LogicalMobilityMode::LocationDependent,
        &[5, 0, 2],
        vec![
            (
                SimTime::from_millis(1),
                ClientAction::Attach {
                    broker: sys.broker_node(5).unwrap(),
                },
            ),
            (
                SimTime::from_millis(2),
                ClientAction::Subscribe(parking_filter()),
            ),
            (
                SimTime::from_millis(400),
                ClientAction::MoveTo {
                    broker: sys.broker_node(0).unwrap(),
                },
            ),
            (
                SimTime::from_millis(900),
                ClientAction::MoveTo {
                    broker: sys.broker_node(2).unwrap(),
                },
            ),
        ],
    )
    .unwrap();
    let mut producer_script = vec![(
        SimTime::from_millis(1),
        ClientAction::Attach {
            broker: sys.broker_node(7).unwrap(),
        },
    )];
    for i in 0..50u64 {
        producer_script.push((
            SimTime::from_millis(50 + i * 25),
            ClientAction::Publish(vacancy(i as i64)),
        ));
    }
    sys.add_client(
        producer,
        LogicalMobilityMode::LocationDependent,
        &[7],
        producer_script,
    )
    .unwrap();

    sys.run_until(SimTime::from_secs(15));
    let log = sys.client_log(consumer).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer),
        (1..=50).collect::<Vec<u64>>()
    );
}

/// A client that moves while holding no subscription attaches at its new
/// broker (ROADMAP Finding 13): on `line(3)` it moves from broker 0 to 1,
/// subscribes there, and gets all 5 matching publications from broker 2;
/// its unsubscription then empties every table. Before, the move sent the
/// new broker nothing to attach by, and the 5 publications crossed their
/// links to be delivered to nobody.
#[test]
fn a_move_without_subscriptions_attaches_at_the_new_broker() {
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .link_delay(DelayModel::constant_millis(5))
        .seed(1)
        .build()
        .unwrap();
    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    let producer = sys.connect(ClientId::new(2), 2).unwrap();
    let settle = |sys: &mut MobilitySystem| {
        let until = sys.now() + SimDuration::from_millis(300);
        sys.run_until(until);
    };
    settle(&mut sys);
    consumer.move_to(&mut sys, 1).unwrap();
    settle(&mut sys);
    consumer.subscribe(&mut sys, parking_filter()).unwrap();
    settle(&mut sys);
    for i in 0..5 {
        producer.publish(&mut sys, vacancy(i)).unwrap();
    }
    settle(&mut sys);
    let log = consumer.log(&sys).unwrap();
    assert_eq!(log.len(), 5);
    assert!(log.is_clean(), "{:?}", log.violations());

    consumer.unsubscribe(&mut sys, parking_filter()).unwrap();
    settle(&mut sys);
    let entries: Vec<usize> = (0..3)
        .map(|b| sys.broker(b).unwrap().routing_entries())
        .collect();
    assert_eq!(entries, vec![0, 0, 0]);
}
